"""Command-line behaviour: subcommand smoke tests, exit codes, determinism,
and config-file handling. Commands run in-process through cli.main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from saladbench import cli, pbsmt, toyclf

from conftest import FINETUNE_ARGS, TRAIN_ARGS

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "saladbench" / "data"
SENT = str(DATA_DIR / "toy_sentiment.tsv")
PAIRS = str(DATA_DIR / "toy_pairs.tsv")

SENT_ARGS = ["--data", SENT, "--task", "single",
             "--labels", "negative,positive"]
PAIR_ARGS = ["--data", PAIRS, "--task", "pair", "--labels", "no,yes",
             "--default-label", "yes"]


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    assert run(["train", *SENT_ARGS, "--out", str(out)]) == 0
    return str(out / "params.bin")


# --- transform ---

def test_transform_writes_one_file_per_kind(tmp_path, trained_model):
    out = tmp_path / "tx"
    rc = run(["transform", *SENT_ARGS, "--transforms", "sort,reverse",
              "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.glob("*.tsv")) == ["reverse.tsv", "sort.tsv"]
    lines = (out / "sort.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 201  # header + 200 rows
    assert lines[0].split("\t") == ["id", "text_a", "text_b", "label",
                                    "source_id", "transform"]
    assert lines[1].split("\t")[5] == "sort:0:0.5"
    assert (out / "config.json").exists()


def test_transform_shuffle_writes_five_seeded_files(tmp_path):
    out = tmp_path / "tx"
    rc = run(["transform", *SENT_ARGS, "--transforms", "shuffle",
              "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.glob("*.tsv")) == \
        [f"shuffle_{s}.tsv" for s in range(5)]


def test_transform_skips_inapplicable_kinds(tmp_path, capsys):
    out = tmp_path / "tx"
    # single task: copysort is pair-only; drop has no saliency provider here
    rc = run(["transform", *SENT_ARGS, "--transforms", "copysort,drop,sort",
              "--out", str(out)])
    assert rc == 0
    assert [p.name for p in out.glob("*.tsv")] == ["sort.tsv"]
    err = capsys.readouterr().err
    assert "skipped copysort" in err and "skipped drop" in err


def test_transform_gradient_kinds_with_model(tmp_path, trained_model):
    out = tmp_path / "tx"
    rc = run(["transform", *SENT_ARGS, "--transforms", "drop,replace",
              "--model", trained_model, "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.glob("*.tsv")) == \
        ["drop.tsv", "replace.tsv"]


def test_transform_reruns_are_byte_identical(tmp_path, trained_model):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run(["transform", *SENT_ARGS, "--transforms",
                    "sort,shuffle,drop", "--model", trained_model,
                    "--out", str(out)]) == 0
        outs.append(out)
    for p in sorted(outs[0].glob("*.tsv")):
        assert p.read_bytes() == (outs[1] / p.name).read_bytes(), p.name


# --- train / calibrate ---

def test_train_reports_accuracy_and_saves_params(tmp_path, capsys):
    out = tmp_path / "train"
    assert run(["train", *SENT_ARGS, "--out", str(out)]) == 0
    assert (out / "params.bin").exists()
    assert (out / "params.bin.json").exists()
    assert "train accuracy" in capsys.readouterr().out


def test_calibrate_writes_scaled_params(tmp_path, trained_model, capsys):
    out = tmp_path / "cal"
    assert run(["calibrate", *SENT_ARGS, "--model", trained_model,
                "--out", str(out)]) == 0
    assert (out / "params_scaled.bin").exists()
    assert "fitted T" in capsys.readouterr().out


# --- evaluate ---

def test_evaluate_writes_reports_and_marks_pair_only_kinds(tmp_path,
                                                           trained_model,
                                                           capsys):
    out = tmp_path / "eval"
    rc = run(["evaluate", *SENT_ARGS, "--model", trained_model,
              "--transforms", "sort,reverse,copysort", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "copysort: --" in captured
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    kinds = [r["transform"] for r in report["rows"]]
    assert kinds == ["sort", "reverse"]
    # the bag-of-embeddings model is order-blind: reorderings agree fully
    assert all(r["agreement"] == 100.0 for r in report["rows"])
    assert report["random_baseline"] == 50.0
    assert (out / "report.csv").exists() and (out / "report.md").exists()


def test_evaluate_shuffle_averages_five_seeds(tmp_path, trained_model):
    out = tmp_path / "eval"
    assert run(["evaluate", *SENT_ARGS, "--model", trained_model,
                "--transforms", "shuffle", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(report["rows"][0]["per_seed"]) == 5


def test_evaluate_records_the_replay_provider_in_provenance(tmp_path):
    ids = _sentiment_ids()
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"id": i + suffix, "probs": [0.3, 0.7]}) + "\n"
                             for i in ids for suffix in ("", "__sort")),
                     encoding="utf-8")
    out = tmp_path / "eval"
    assert run(["evaluate", *SENT_ARGS, "--replay", str(preds),
                "--transforms", "sort", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["provenance"]["provider"] == {
        "kind": "replay", "location": str(preds), "supports_saliency": False}


def test_evaluate_requires_a_provider(tmp_path):
    assert run(["evaluate", *SENT_ARGS, "--transforms", "sort",
                "--out", str(tmp_path / "x")]) == 1


# --- mitigate ---

def test_mitigate_invalid_class_smoke(tmp_path):
    out = tmp_path / "mit"
    rc = run(["mitigate", *SENT_ARGS, "--strategy", "invalid-class",
              "--transforms", "copysort,drop,repeat,replace,copyone,pbsmt",
              "--augment-fraction", "1.0", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["strategy"] == "invalid_class"
    assert report["invalid_detected"] >= 90.0
    assert report["clean_accuracy"] >= report["baseline_accuracy"] - 3.0
    assert (out / "params_mitigated.bin").exists()
    csv_text = (out / "report.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("metric,value\n")
    assert "detect_pbsmt" in csv_text


def test_mitigate_threshold_smoke(tmp_path):
    out = tmp_path / "mit"
    rc = run(["mitigate", *SENT_ARGS, "--strategy", "threshold",
              "--transforms", "sort,drop", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["strategy"] == "threshold"
    assert report["theta"] is not None


@pytest.mark.parametrize("fraction", ["0", "1.5"])
@pytest.mark.parametrize("strategy", ["invalid-class", "threshold", "entropic-threshold"])
def test_augment_fraction_is_refused_before_any_training(tmp_path, capsys, monkeypatch,
                                                         strategy, fraction):
    trained = []
    train = toyclf.train
    monkeypatch.setattr(toyclf, "train", lambda *a, **kw: trained.append(1) or train(*a, **kw))
    out = tmp_path / "fo"
    assert run(["mitigate", *SENT_ARGS, "--strategy", strategy, "--transforms", "sort",
                "--augment-fraction", fraction, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --augment-fraction "), lines
    assert trained == []
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["invalid-class", "threshold", "entropic-threshold"])
def test_a_negative_lambda_ent_is_refused_before_any_training(tmp_path, capsys, monkeypatch,
                                                             strategy):
    trained = []
    train = toyclf.train
    monkeypatch.setattr(toyclf, "train", lambda *a, **kw: trained.append(1) or train(*a, **kw))
    out = tmp_path / "fo"
    assert run(["mitigate", *SENT_ARGS, "--strategy", strategy, "--transforms", "sort",
                "--lambda-ent", "-1", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --lambda-ent "), lines
    assert trained == []
    assert not out.exists()


@pytest.mark.parametrize("holdout, sizes", [("0.001", "200 training and 0 validation"),
                                            ("0.999", "0 training and 200 validation")])
def test_a_holdout_that_leaves_a_split_empty_is_refused_before_any_training(
        tmp_path, capsys, monkeypatch, holdout, sizes):
    trained = []
    train = toyclf.train
    monkeypatch.setattr(toyclf, "train", lambda *a, **kw: trained.append(1) or train(*a, **kw))
    out = tmp_path / "fo"
    assert run(["mitigate", *SENT_ARGS, "--transforms", "sort", "--holdout", holdout,
                "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: holdout fraction {float(holdout)} of 200 rows leaves {sizes} "
                     f"rows; each side needs at least one"]
    assert trained == []
    assert not out.exists()


SCHEDULE = "error: epochs must be >= 0, batch_size >= 1 and lr > 0"
# (case, argv with the dataset flags left out, the start of the error line)
BAD_TRAINING = [
    ("train-seed", ["train", "--seed", "-1"], "error: seed must be >= 0, got -1"),
    ("mitigate-seed", ["mitigate", "--seed", "-1"], "error: seed must be >= 0, got -1"),
    ("batch-size", ["train", "--batch-size", "0"], SCHEDULE),
    ("lr", ["train", "--lr", "0"], SCHEDULE),
    ("epochs", ["train", "--epochs", "-1"], SCHEDULE),
    ("dim", ["train", "--dim", "0"], "error: dim must be >= 1, got 0"),
    *[(f"lambda-ls-{loss}", ["train", "--loss", loss, "--lambda-ls", "1.0"],
       "error: lambda_ls must be in [0,1)") for loss in toyclf.LOSSES],
    ("gamma", ["train", "--gamma", "-1"], "error: gamma must be >= 0"),
    ("mitigate-finetune-epochs", ["mitigate", "--finetune-epochs", "-1"], SCHEDULE),
    ("mitigate-dim", ["mitigate", "--dim", "0"], "error: dim must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, error", [
    pytest.param(argv, error, id=case) for case, argv, error in BAD_TRAINING])
def test_a_training_value_is_refused_in_one_line_before_any_step(tmp_path, capsys,
                                                                monkeypatch, argv, error):
    steps = []
    grad = toyclf._grad
    monkeypatch.setattr(toyclf, "_grad", lambda *a: steps.append(1) or grad(*a))
    out = tmp_path / "fo"
    assert run([argv[0], *SENT_ARGS, *argv[1:], "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(error), lines
    assert steps == []
    assert not out.exists()


def test_the_test_fixtures_train_with_the_cli_defaults():
    train = vars(cli.build_parser().parse_args(["train", *SENT_ARGS, "--out", "fo"]))
    assert {name: train[name] for name in TRAIN_ARGS} == TRAIN_ARGS
    mitigate = vars(cli.build_parser().parse_args(["mitigate", *SENT_ARGS, "--out", "fo"]))
    assert {name: mitigate[name] for name in TRAIN_ARGS} == TRAIN_ARGS
    assert dict(epochs=mitigate["finetune_epochs"], batch_size=mitigate["batch_size"],
                lr=mitigate["finetune_lr"], seed=mitigate["seed"]) == FINETUNE_ARGS


# (case, argv with the dataset flags left out, a word the error line names)
BAD_FLOATS = [
    ("tolerance-nan", ["mitigate", "--strategy", "threshold", "--transforms", "sort",
                       "--tolerance", "nan"], "tolerance"),
    ("tolerance-negative", ["mitigate", "--strategy", "threshold", "--transforms", "sort",
                            "--tolerance", "-1"], "tolerance"),
    ("gamma-nan", ["train", "--loss", "focal", "--gamma", "nan"], "gamma"),
    ("lr-nan", ["train", "--lr", "nan"], "lr"),
    ("lambda-ent-nan", ["mitigate", "--strategy", "entropic-threshold",
                        "--transforms", "sort", "--lambda-ent", "nan"], "lambda"),
]


@pytest.mark.parametrize("argv, named", [
    pytest.param(argv, named, id=case) for case, argv, named in BAD_FLOATS])
def test_a_non_finite_or_negative_float_flag_is_refused_before_any_training(
        tmp_path, capsys, monkeypatch, argv, named):
    trained = []
    train = toyclf.train
    monkeypatch.setattr(toyclf, "train", lambda *a, **kw: trained.append(1) or train(*a, **kw))
    out = tmp_path / "fo"
    assert run([argv[0], *SENT_ARGS, *argv[1:], "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert named in lines[0], lines
    assert trained == []
    assert not out.exists()


def test_a_float_flag_that_is_not_a_number_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "fo"
    assert run(["train", *SENT_ARGS, "--lr", "abc", "--out", str(out)]) == 1
    assert "argument --lr: invalid float value: 'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["train", *SENT_ARGS, "--out", "fo", "--epochs", "x"],
                                  ["train", *SENT_ARGS],
                                  ["train", *SENT_ARGS, "--out", "fo", "--wings", "2"],
                                  ["transform", *SENT_ARGS, "--out", "fo", "--format", "csv"],
                                  []],
                         ids=["bad-int", "missing-flag", "unknown-flag", "bad-choice",
                              "no-command"])
def test_usage_errors_are_one_error_line_and_exit_1(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert captured.out == "" and not (tmp_path / "fo").exists()


@pytest.mark.parametrize("command", ["transform", "evaluate"])
@pytest.mark.parametrize("r", ["0", "1.5"])
def test_r_outside_the_unit_interval_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                                trained_model, command, r):
    loaded = []
    load = cli.corpus.load_dataset
    monkeypatch.setattr(cli.corpus, "load_dataset",
                        lambda *a, **kw: loaded.append(1) or load(*a, **kw))
    out = tmp_path / "fo"
    assert run([command, *SENT_ARGS, "--model", trained_model, "--transforms", "sort",
                "--r", r, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --r "), lines
    assert loaded == []
    assert not out.exists()


def test_mitigate_help_says_threshold_ignores_augment_fraction(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["mitigate", "--help"])
    assert exc.value.code == 0   # help is not a usage error
    assert "unused by threshold" in " ".join(capsys.readouterr().out.split())


def test_mitigate_with_no_transform_left_after_the_pbsmt_fallback_is_refused(tmp_path, capsys):
    data = tmp_path / "small.tsv"   # too few rows per label to train a generator
    data.write_text("".join(Path(SENT).read_text(encoding="utf-8").splitlines(True)[:41]),
                    encoding="utf-8")
    out = tmp_path / "fo"
    assert run(["mitigate", "--data", str(data), "--task", "single",
                "--labels", "negative,positive", "--transforms", "pbsmt",
                "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2, lines
    assert lines[0].startswith("skipped pbsmt: generators unavailable")
    assert lines[1].startswith("error: no applicable transforms")
    assert not out.exists()


def test_mitigate_refuses_pbsmt_without_generator_data_before_training(tmp_path, capsys,
                                                                      monkeypatch):
    data = tmp_path / "small.tsv"   # 40 rows: too few usable pairs per label
    data.write_text("".join(Path(SENT).read_text(encoding="utf-8").splitlines(True)[:41]),
                    encoding="utf-8")
    trained = []
    monkeypatch.setattr(toyclf, "train", lambda *a, **k: trained.append(a))
    assert run(["mitigate", "--data", str(data), "--task", "single",
                "--labels", "negative,positive", "--transforms", "pbsmt",
                "--out", str(tmp_path / "fo")]) == 1
    assert "error: no applicable transforms for this configuration" in capsys.readouterr().err
    assert trained == []


# --- pbsmt ---

def test_pbsmt_train_then_generate_and_transform(tmp_path):
    models = tmp_path / "models"
    rc = run(["pbsmt", "train", *PAIR_ARGS, "--out", str(models)])
    assert rc == 0
    assert sorted(p.name for p in models.iterdir() if p.is_dir()) == \
        ["label_0", "label_1"]

    gen_out = tmp_path / "gen"
    rc = run(["pbsmt", "generate", *PAIR_ARGS, "--models", str(models),
              "--out", str(gen_out)])
    assert rc == 0
    lines = (gen_out / "pbsmt.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 301
    assert {line.split("\t")[5] for line in lines[1:]} == {"pbsmt:0:0.5"}

    tx_out = tmp_path / "tx"
    rc = run(["transform", *PAIR_ARGS, "--transforms", "pbsmt",
              "--pbsmt-dir", str(models), "--out", str(tx_out)])
    assert rc == 0
    assert (tx_out / "pbsmt.tsv").read_bytes() == \
        (gen_out / "pbsmt.tsv").read_bytes()


@pytest.mark.parametrize("subdirectory", [True, False], ids=["cwd-with-a-subdirectory",
                                                            "cwd-without"])
def test_pbsmt_generate_without_models_is_refused_before_loading_data(
        tmp_path, capsys, monkeypatch, subdirectory):
    monkeypatch.chdir(tmp_path)   # the directory a missing --models used to list
    if subdirectory:
        (tmp_path / "src").mkdir()
    loaded = []
    load = cli.corpus.load_dataset
    monkeypatch.setattr(cli.corpus, "load_dataset",
                        lambda *a, **kw: loaded.append(1) or load(*a, **kw))
    assert run(["pbsmt", "generate", *SENT_ARGS, "--out", "fo"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: pbsmt generate needs --models, a directory pbsmt train wrote"]
    assert loaded == []
    assert not (tmp_path / "fo").exists()


def test_generator_weights_the_decoder_refuses_are_a_data_error(tmp_path, capsys,
                                                                sent_gens):
    pbsmt.save_generator(sent_gens[0], tmp_path / "g" / "label_0")
    path = tmp_path / "g" / "label_0" / "weights.json"
    meta = json.loads(path.read_text(encoding="utf-8"))
    meta["beam_size"] = 0
    path.write_text(json.dumps(meta), encoding="utf-8")
    out = tmp_path / "fo"
    assert run(["pbsmt", "generate", *SENT_ARGS, "--models", str(tmp_path / "g"),
                "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"data error: {path}: "), lines
    assert not out.exists()


# --- process start-up ---

def _child_prints(code, blas_threads=None):
    """The words `python -c code` prints, with the package importable and
    OPENBLAS_NUM_THREADS set to blas_threads (unset if None)."""
    env = {**os.environ, "PYTHONPATH": str(DATA_DIR.parent.parent)}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True).stdout.split()


def test_importing_the_package_sets_one_blas_thread_and_loads_numpy():
    assert _child_prints("import os, sys, saladbench; "
                         "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)"
                         ) == ["1", "True"]


def test_importing_the_cli_does_not_import_dataclasses():
    # no record is built by @dataclass, so start-up generates no class code
    assert _child_prints("import sys, saladbench.cli; print('dataclasses' in sys.modules)"
                         ) == ["False"]


def test_a_preset_blas_thread_count_is_kept():
    assert _child_prints("import os, saladbench; print(os.environ['OPENBLAS_NUM_THREADS'])",
                         blas_threads="3") == ["3"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_a_command_process_runs_one_thread():
    assert _child_prints("import saladbench.cli; print([line for line in "
                         "open('/proc/self/status') if line.startswith('Threads:')][0])"
                         ) == ["Threads:", "1"]


# --- report rendering ---

def test_report_rerenders_json(tmp_path, trained_model, capsys):
    out = tmp_path / "eval"
    run(["evaluate", *SENT_ARGS, "--model", trained_model,
         "--transforms", "sort", "--out", str(out)])
    capsys.readouterr()
    assert run(["report", "--input", str(out / "report.json"),
                "--render", "csv"]) == 0
    assert "sort,100.00" in capsys.readouterr().out


# --- exit codes and config file ---

def test_exit_code_2_on_malformed_data(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("id\ttext_a\ttext_b\tlabel\na\tx\t\tmaybe\n",
                   encoding="utf-8")
    rc = run(["transform", "--data", str(bad), "--task", "single",
              "--labels", "negative,positive", "--transforms", "sort",
              "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("row, error", [
    ({"text_a": 5}, "text_a is a int, not a string"),
    ({"text_a": "x", "text_b": ["y"]}, "text_b is a list, not a string"),
], ids=["text_a", "text_b"])
def test_jsonl_text_that_is_not_a_string_exits_2(tmp_path, capsys, row, error):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "text_a": "good film", "label": "positive"}\n'
                   + json.dumps({"id": "b", **row, "label": "positive"}) + "\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    rc = run(["transform", "--data", str(bad), "--format", "jsonl",
              "--task", "single", "--labels", "negative,positive",
              "--transforms", "sort", "--out", str(out)])
    assert rc == 2
    assert f"{bad}:2: {error}" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_3_on_provider_failure(tmp_path):
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"id": "nomatch", "probs": [0.5, 0.5]}\n',
                     encoding="utf-8")
    rc = run(["evaluate", *SENT_ARGS, "--replay", str(preds),
              "--transforms", "sort", "--out", str(tmp_path / "out")])
    assert rc == 3


def _replay_files(tmp_path, saliency_rows, pred_lines=None):
    data = tmp_path / "d.tsv"
    data.write_text("id\ttext_a\ttext_b\tlabel\n"
                    "a\tgood film .\t\tpositive\nb\tbad film\t\tnegative\n",
                    encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    preds.write_text("\n".join(pred_lines or [
        '{"id": "a", "probs": [0.2, 0.8]}', '{"id": "b", "probs": [0.7, 0.3]}'])
        + "\n", encoding="utf-8")
    sal = tmp_path / "sal.jsonl"
    sal.write_text("\n".join(json.dumps(r) for r in saliency_rows) + "\n",
                   encoding="utf-8")
    return ["--data", str(data), "--task", "single",
            "--labels", "negative,positive", "--replay", f"{preds},{sal}"]


def test_replay_saliency_rows_need_no_loss_label(tmp_path):
    args = _replay_files(tmp_path, [{"id": "a", "scores": [0.1, 0.2, 0.3]},
                                    {"id": "b", "scores": [0.5, 0.4]}])
    out = tmp_path / "tx"
    assert run(["transform", *args, "--transforms", "drop",
                "--out", str(out)]) == 0
    rows = [line.split("\t") for line in
            (out / "drop.tsv").read_text(encoding="utf-8").splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("a__drop", "film ."),
                                             ("b__drop", "bad")]


@pytest.mark.parametrize("bad_line", ['{"id": "b"}', "not json"])
def test_malformed_replay_file_is_a_contract_error(tmp_path, capsys, bad_line):
    args = _replay_files(tmp_path, [{"id": "a", "scores": [0.1, 0.2, 0.3]}],
                         ['{"id": "a", "probs": [0.2, 0.8]}', bad_line])
    out = tmp_path / "tx"
    assert run(["transform", *args, "--transforms", "drop",
                "--out", str(out)]) == 3
    assert f"{tmp_path / 'preds.jsonl'}:2: " in capsys.readouterr().err
    assert not out.exists()


GOOD_PRED = '{"id": "a", "probs": [0.2, 0.8]}'
GOOD_SAL = {"id": "a", "scores": [0.1, 0.2]}
NAN, INF = float("nan"), float("inf")

# (case, prediction lines, saliency rows, error after "<tmp_path>/")
BAD_VALUES = [
    ("probs", ['{"id": "a", "probs": "high"}'], [GOOD_SAL],
     "preds.jsonl:1: probs is not a list of numbers"),
    ("scores", [GOOD_PRED], [{"id": "a", "scores": ["x", 1]}],
     "sal.jsonl:1: scores is not a list of numbers"),
    ("loss_label", [GOOD_PRED], [{**GOOD_SAL, "loss_label": "x"}],
     "sal.jsonl:1: loss_label is not an integer"),
    # json reads NaN and Infinity as floats
    ("probs-nan", ['{"id": "a", "probs": [NaN, 0.5]}'], [GOOD_SAL],
     "preds.jsonl:1: probs is not a list of numbers"),
    ("probs-inf", ['{"id": "a", "probs": [Infinity, 0.0]}'], [GOOD_SAL],
     "preds.jsonl:1: probs is not a list of numbers"),
    ("scores-nan", [GOOD_PRED], [{"id": "a", "scores": [NAN, 1]}],
     "sal.jsonl:1: scores is not a list of numbers"),
    ("scores-inf", [GOOD_PRED], [{"id": "a", "scores": [0.5, -INF]}],
     "sal.jsonl:1: scores is not a list of numbers"),
]
B_PRED = '{"id": "b", "probs": [0.7, 0.3]}'
SALS = [{"id": "a", "scores": [0.1, 0.2, 0.3]}, {"id": "b", "scores": [0.5, 0.4]}]


@pytest.mark.parametrize("command, pred_lines, sal_rows, error", [
    pytest.param(command, preds, sals, "{tmp}/" + error, id=f"{case}-{command}")
    for case, preds, sals, error in BAD_VALUES
    for command in ("transform", "evaluate")
] + [
    # every value is good, but a provider call fails after the checks
    pytest.param("evaluate", [GOOD_PRED, B_PRED], SALS,
                 "no replay prediction for id 'a__drop'", id="missing-evaluate"),
    pytest.param("transform", [GOOD_PRED, B_PRED], SALS[:1],
                 "no replay saliency for id 'b', side 'a'", id="missing-transform"),
] + [
    # 2 scores for the 3 tokens of "good film ."
    pytest.param(command, [GOOD_PRED, B_PRED], [GOOD_SAL, SALS[1]],
                 "saliency for id 'a'", id=f"short-{command}")
    for command in ("transform", "evaluate")
])
def test_bad_replay_values_are_a_contract_error(tmp_path, capsys, command,
                                                pred_lines, sal_rows, error):
    args = _replay_files(tmp_path, sal_rows, pred_lines)
    out = tmp_path / "tx"
    assert run([command, *args, "--transforms", "drop", "--out", str(out)]) == 3
    assert error.format(tmp=tmp_path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pred_lines, error", [
    ([GOOD_PRED, '{"id": "b", "probs": [0.1, 0.6, 0.3]}'],
     "bad probability vector for id 'b'"),                   # ragged batch
    (['{"id": "a", "probs": [0.2, 0.5, 0.3]}', '{"id": "b", "probs": [0.1, 0.6, 0.3]}'],
     "provider gives 3 probabilities per row for 2 labels"),
], ids=["ragged", "three-for-two-labels"])
def test_evaluate_needs_one_probability_per_label(tmp_path, capsys, pred_lines, error):
    args = _replay_files(tmp_path, [GOOD_SAL], pred_lines)
    out = tmp_path / "ev"
    assert run(["evaluate", *args, "--transforms", "sort", "--out", str(out)]) == 3
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_1_on_unknown_transform(tmp_path):
    rc = run(["transform", *SENT_ARGS, "--transforms", "entropy-storm",
              "--out", str(tmp_path / "out")])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["transform", *SENT_ARGS, "--transforms", "sort,entropy-storm"],
    ["evaluate", *SENT_ARGS, "--transforms", "sort"],          # no provider
    ["mitigate", *SENT_ARGS, "--transforms", "sort,entropy-storm"],
    ["mitigate", *SENT_ARGS, "--transforms", "copysort"],      # pair-only
    ["train", *SENT_ARGS, "--epochs", "-1"],
    # these fail after their checks, in the work itself
    ["train", *SENT_ARGS, "--lr", "1e308"],                    # non-finite gradient
    ["mitigate", *SENT_ARGS, "--lr", "1e308"],
    ["mitigate", *SENT_ARGS, "--finetune-lr", "1e308"],      # in the fine-tune
    ["pbsmt", "train", *SENT_ARGS, "--min-pairs", "100000"],
], ids=["transform", "evaluate", "mitigate-unknown", "mitigate-none", "train",
        "train-diverges", "mitigate-diverges", "mitigate-finetune-diverges",
        "pbsmt-train-too-few-pairs"])
def test_failed_checks_leave_no_output_directory(tmp_path, argv):
    out = tmp_path / "fo"
    assert run([*argv, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, step", [
    (["train", *SENT_ARGS, "--lr", "1e308"], 2),
    (["mitigate", *SENT_ARGS, "--finetune-lr", "1e308"], 1),
], ids=["train", "mitigate-finetune"])
def test_diverging_run_prints_only_its_error_line(tmp_path, argv, step):
    # a child process, so stderr is what a user sees (pytest captures warnings)
    env = {**os.environ, "PYTHONPATH": str(DATA_DIR.parent.parent)}
    env.pop("PYTHONWARNINGS", None)
    out = tmp_path / "fo"
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "saladbench.cli",
                           *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1
    assert "Warning" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"error: non-finite gradient at step {step}"
    assert not out.exists()


def test_transform_writes_nothing_when_a_later_kind_fails(tmp_path, sent_gens):
    gens = tmp_path / "g0"                       # no generator for label 1
    pbsmt.save_generator(sent_gens[0], gens / "label_0")
    out = tmp_path / "fo"
    assert run(["transform", *SENT_ARGS, "--pbsmt-dir", str(gens),
                "--transforms", "sort,reverse,pbsmt", "--out", str(out)]) == 1
    assert not out.exists()


# (case, files written under tmp_path, argv, text the error line names);
# "{tmp}" in argv and in the text stands for tmp_path
SORT = ["--transforms", "sort"]
OUTSIDE_INPUT = [
    ("default-label", {}, ["transform", *SENT_ARGS, "--default-label", "neutral", *SORT],
     "--default-label 'neutral'"),
    ("pbsmt-label", {}, ["pbsmt", "train", *SENT_ARGS, "--label", "one"], "--label"),
    ("pbsmt-iterations", {}, ["pbsmt", "train", *SENT_ARGS, "--iterations", "0"],
     "--iterations"),
    ("pbsmt-weight-nan", {}, ["pbsmt", "train", *SENT_ARGS, "--w-lm", "nan"], "w_lm"),
    ("model-header", {"m.bin": "not a header\n"},
     ["evaluate", *SENT_ARGS, "--model", "{tmp}/m.bin", *SORT], "{tmp}/m.bin"),
    ("config-json", {"c.json": "{seed: 7"},
     ["--config", "{tmp}/c.json", "transform", *SENT_ARGS, *SORT],
     "--config {tmp}/c.json"),
    ("config-list", {"c.json": "[7]"},
     ["--config", "{tmp}/c.json", "transform", *SENT_ARGS, *SORT],
     "--config {tmp}/c.json"),
    # --config values are parsed and checked as the flags' text would be
    ("config-int", {"c.json": '{"epochs": 2.5}'},
     ["--config", "{tmp}/c.json", "train", *SENT_ARGS], "epochs"),
    ("config-bool", {"c.json": '{"seed": true}'},
     ["--config", "{tmp}/c.json", "transform", *SENT_ARGS, *SORT], "seed"),
    ("config-choice", {"c.json": '{"strategy": "hope"}'},
     ["--config", "{tmp}/c.json", "mitigate", *SENT_ARGS, *SORT], "strategy"),
    ("config-float-nan", {"c.json": '{"gamma": NaN}'},
     ["--config", "{tmp}/c.json", "train", *SENT_ARGS, "--loss", "focal"], "gamma"),
    ("config-float-text", {"c.json": '{"lambda-ent": "big"}'},
     ["--config", "{tmp}/c.json", "mitigate", *SENT_ARGS, *SORT], "lambda-ent"),
    ("config-number-as-text", {"c.json": '{"transforms": 5}'},
     ["--config", "{tmp}/c.json", "transform", *SENT_ARGS], "unknown transforms ['5']"),
    ("missing-data", {}, ["transform", "--data", "{tmp}/no.tsv", "--task", "single",
                          "--labels", "negative,positive", *SORT], "{tmp}/no.tsv"),
    ("missing-model", {}, ["evaluate", *SENT_ARGS, "--model", "{tmp}/no.bin", *SORT],
     "{tmp}/no.bin"),
    ("missing-config", {}, ["--config", "{tmp}/no.json", "transform", *SENT_ARGS, *SORT],
     "{tmp}/no.json"),
    ("missing-replay", {}, ["evaluate", *SENT_ARGS, "--replay", "{tmp}/no.jsonl", *SORT],
     "{tmp}/no.jsonl"),
]


@pytest.mark.parametrize("files, argv, named", [
    pytest.param(files, argv, named, id=case)
    for case, files, argv, named in OUTSIDE_INPUT])
def test_bad_outside_input_is_one_error_line(tmp_path, capsys, files, argv, named):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "fo"
    assert run([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert named.format(tmp=tmp_path) in lines[0]
    assert not out.exists()


# (case, bytes of a file that is not UTF-8, argv, exit code, error prefix);
# "{bad}" in argv stands for that file
TSV_NOT_UTF8 = b"id\ttext_a\ttext_b\tlabel\na\t\xff\xfe bad\t\tpositive\n"
JSONL_NOT_UTF8 = b'{"id": "a", "text_a": "\xff\xfe bad", "probs": [0.5, 0.5]}\n'
NON_UTF8_INPUT = [
    ("data-tsv", TSV_NOT_UTF8, ["transform", "--data", "{bad}", "--task", "single",
                                "--labels", "negative,positive", *SORT],
     2, "data error: {bad}:2: "),
    ("data-jsonl", JSONL_NOT_UTF8, ["transform", "--data", "{bad}", "--format", "jsonl",
                                    "--task", "single", "--labels", "negative,positive",
                                    *SORT], 2, "data error: {bad}:1: "),
    ("replay", JSONL_NOT_UTF8, ["evaluate", *SENT_ARGS, "--replay", "{bad}", *SORT],
     3, "provider error: {bad}:1: "),
    ("config", b'{"seed": "\xff"}', ["--config", "{bad}", "transform", *SENT_ARGS, *SORT],
     1, "error: --config {bad}: "),
]


@pytest.mark.parametrize("content, argv, code, prefix", [
    pytest.param(content, argv, code, prefix, id=case)
    for case, content, argv, code, prefix in NON_UTF8_INPUT])
def test_input_that_is_not_utf8_is_one_error_line(tmp_path, capsys, content, argv,
                                                  code, prefix):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    out = tmp_path / "fo"
    assert run([a.format(bad=bad) for a in argv] + ["--out", str(out)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix.format(bad=bad)), lines
    assert lines[0].endswith("not UTF-8 text"), lines
    assert not out.exists()


def test_unknown_strategy_flag_is_refused(tmp_path):
    out = tmp_path / "fo"
    assert run(["mitigate", *SENT_ARGS, "--strategy", "hope", "--out", str(out)]) == 1
    assert not out.exists()


def test_config_render_value_is_checked(tmp_path, capsys, trained_model):
    out = tmp_path / "eval"
    assert run(["evaluate", *SENT_ARGS, "--model", trained_model,
                "--transforms", "sort", "--out", str(out)]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text('{"render": "pdf"}', encoding="utf-8")
    capsys.readouterr()
    assert run(["--config", str(cfg), "report",
                "--input", str(out / "report.json")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "render" in lines[0] and captured.out == ""


def test_a_runs_own_config_replays_to_the_same_report(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["mitigate", *SENT_ARGS, "--strategy", "threshold",
                "--transforms", "sort,drop", "--out", str(first)]) == 0
    assert run(["--config", str(first / "config.json"), "mitigate", *SENT_ARGS,
                "--out", str(second)]) == 0
    assert (second / "report.json").read_bytes() == \
        (first / "report.json").read_bytes()


# (case, bytes of a --input file that is not an evaluate report, error text)
BAD_REPORTS = [
    ("not-utf8", b"\xff\xfe{}", "not UTF-8 text"),
    ("bad-json", b"{rows", "bad JSON"),
    ("no-rows", b"{}", "rows"),
    ("mitigate-report", json.dumps({"clean_accuracy": 100.0,
                                    "invalid_detected": 90.0}).encode(), "rows"),
    ("list", b"[1]", "not an evaluate report"),
    ("bad-percentage", json.dumps({"rows": [{"transform": "sort", "agreement": 101,
                                             "mean_confidence": 90.0, "n": 5}],
                                   "random_baseline": 50.0}).encode(),
     "percentages must lie in [0, 100]"),
]


@pytest.mark.parametrize("content, error", [
    pytest.param(content, error, id=case) for case, content, error in BAD_REPORTS])
def test_report_input_that_is_not_a_report_is_one_data_error_line(
        tmp_path, capsys, content, error):
    bad = tmp_path / "report.json"
    bad.write_bytes(content)
    assert run(["report", "--input", str(bad)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"data error: {bad}: "), lines
    assert error in lines[0], lines
    assert captured.out == ""


def test_bad_generator_file_is_one_data_error_line(tmp_path, capsys, sent_gens):
    models = tmp_path / "models"
    for label, gen in sent_gens.items():
        pbsmt.save_generator(gen, models / f"label_{label}")
    phrases = models / "label_1" / "phrases.tsv"
    phrases.write_text("good\tfine\n", encoding="utf-8")   # two fields, not four
    out = tmp_path / "fo"
    assert run(["pbsmt", "generate", *SENT_ARGS, "--models", str(models),
                "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"data error: {phrases}:1: "), lines
    assert not out.exists()


def test_lm_count_that_cancels_a_context_total_is_one_data_error_line(
        tmp_path, capsys, sent_gens):
    models = tmp_path / "models"
    for label, gen in sent_gens.items():
        pbsmt.save_generator(gen, models / f"label_{label}")
    lm = models / "label_0" / "lm.tsv"
    lines = lm.read_text(encoding="utf-8").splitlines(keepends=True)
    # every sentence starts "<s> <s>"; a negative count zeroes that total
    starts = sum(int(line.split("\t")[1]) for line in lines
                 if line.startswith("<s> <s> "))
    lm.write_text("".join(lines) + f"<s> <s> zzz\t{-starts}\n", encoding="utf-8")
    out = tmp_path / "fo"
    assert run(["pbsmt", "generate", *SENT_ARGS, "--models", str(models),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {lm}:{len(lines) + 1}: "), err
    assert not out.exists()


def test_config_file_supplies_defaults_but_explicit_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"transforms": "reverse", "seed": 7}),
                   encoding="utf-8")
    out = tmp_path / "out"
    rc = run(["--config", str(cfg), "transform", *SENT_ARGS,
              "--out", str(out)])
    assert rc == 0
    assert [p.name for p in out.glob("*.tsv")] == ["reverse.tsv"]
    resolved = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert resolved["seed"] == 7

    out2 = tmp_path / "out2"
    rc = run(["--config", str(cfg), "transform", *SENT_ARGS,
              "--transforms", "sort", "--out", str(out2)])
    assert rc == 0
    assert [p.name for p in out2.glob("*.tsv")] == ["sort.tsv"]


def test_config_file_does_not_override_equals_form_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}), encoding="utf-8")
    out = tmp_path / "out"
    rc = run(["--config", str(cfg), "transform", *SENT_ARGS,
              "--transforms", "sort", "--seed=3", "--out", str(out)])
    assert rc == 0
    resolved = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert resolved["seed"] == 3


# --- transformed-row ids and skipped rows ---

def _sentiment_ids():
    lines = Path(SENT).read_text(encoding="utf-8").splitlines()[1:]
    return [line.split("\t", 1)[0] for line in lines]


def test_transformed_rows_get_their_own_ids(tmp_path):
    out = tmp_path / "tx"
    assert run(["transform", *SENT_ARGS, "--transforms", "sort,shuffle",
                "--out", str(out)]) == 0
    ids = _sentiment_ids()
    for name, suffix, tag in (("sort.tsv", "sort", "sort:0:0.5"),
                              ("shuffle_2.tsv", "shuffle:2", "shuffle:2:0.5")):
        rows = [line.split("\t") for line in
                (out / name).read_text(encoding="utf-8").splitlines()[1:]]
        assert [r[0] for r in rows] == [f"{i}__{suffix}" for i in ids]
        assert [r[4] for r in rows] == ids      # source_id keeps the source
        assert {r[5] for r in rows} == {tag}    # kind:seed:r


def test_replay_evaluate_needs_predictions_for_transformed_rows(tmp_path):
    ids = _sentiment_ids()
    rows = [{"id": i, "probs": [0.9, 0.1]} for i in ids]
    preds = tmp_path / "preds.jsonl"
    preds.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                     encoding="utf-8")
    argv = ["evaluate", *SENT_ARGS, "--transforms", "sort,reverse,shuffle"]
    # source predictions alone cannot stand in for the transformed rows
    assert run([*argv, "--replay", str(preds),
                "--out", str(tmp_path / "a")]) == 3

    # sort flips the first 50 rows; shuffle seed s flips the first 10 * s
    for k, i in enumerate(ids):
        rows.append({"id": f"{i}__sort",
                     "probs": [0.2, 0.8] if k < 50 else [0.7, 0.3]})
        rows.append({"id": f"{i}__reverse", "probs": [0.6, 0.4]})
        for s in range(5):
            rows.append({"id": f"{i}__shuffle:{s}",
                         "probs": [0.1, 0.9] if k < 10 * s else [0.8, 0.2]})
    preds.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                     encoding="utf-8")
    out = tmp_path / "b"
    assert run([*argv, "--replay", str(preds), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    by_kind = {r["transform"]: r for r in report["rows"]}
    assert by_kind["sort"]["agreement"] == 75.0
    assert by_kind["reverse"]["agreement"] == 100.0
    assert by_kind["shuffle"]["per_seed"] == [100.0, 95.0, 90.0, 85.0, 80.0]
    assert by_kind["shuffle"]["agreement"] == 90.0


def test_one_degenerate_row_is_skipped_not_fatal(tmp_path, trained_model,
                                                 caplog):
    data = tmp_path / "sent.tsv"
    data.write_text(Path(SENT).read_text(encoding="utf-8")
                    + "oneword\tsplendid\t\tpositive\n", encoding="utf-8")
    args = ["--data", str(data), "--task", "single",
            "--labels", "negative,positive"]
    out = tmp_path / "tx"
    assert run(["transform", *args, "--transforms", "sort,shuffle",
                "--out", str(out)]) == 0
    assert len((out / "sort.tsv").read_text(encoding="utf-8").splitlines()) == 202
    for s in range(5):
        lines = (out / f"shuffle_{s}.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 201
        assert not any(line.startswith("oneword") for line in lines)
    assert "shuffle:0: skipped 1 of 201 rows" in caplog.text

    ev = tmp_path / "eval"
    assert run(["evaluate", *args, "--model", trained_model,
                "--transforms", "sort,shuffle", "--out", str(ev)]) == 0
    report = json.loads((ev / "report.json").read_text(encoding="utf-8"))
    n = {r["transform"]: r["n"] for r in report["rows"]}
    assert n == {"sort": 201, "shuffle": 200}


def test_evaluate_leaves_out_a_kind_whose_rows_are_all_skipped(
        tmp_path, trained_model, capsys):
    data = tmp_path / "tiny.tsv"
    data.write_text("id\ttext_a\ttext_b\tlabel\n"
                    "a\tgood\t\tpositive\nb\tbad\t\tnegative\n", encoding="utf-8")
    out = tmp_path / "eval"
    assert run(["evaluate", "--data", str(data), "--task", "single",
                "--labels", "negative,positive", "--model", trained_model,
                "--transforms", "sort,shuffle", "--out", str(out)]) == 0
    assert "shuffle: -- (every row skipped)" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [r["transform"] for r in report["rows"]] == ["sort"]

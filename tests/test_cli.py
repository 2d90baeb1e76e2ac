"""Command-line behaviour: subcommand smoke tests, exit codes, determinism,
and config-file handling. Commands run in-process through cli.main()."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from saladbench import cli, mitigate, pbsmt, toyclf
from saladbench.errors import ConfigError

from conftest import FINETUNE_ARGS, TRAIN_ARGS
from test_pinned_outputs import EXPECTED, _report_digest

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


@pytest.mark.parametrize("argv, reason", [
    (["transform", "--transforms", "copysort"], "copysort: pair-only transform"),
    (["transform", "--transforms", "pbsmt", "--pbsmt-dir", "{tmp}/empty"],
     "pbsmt: no trained generators"),
    (["evaluate", "--model", "{model}", "--transforms", "copysort"],
     "copysort: pair-only transform"),
    (["pbsmt", "generate", "--models", "{tmp}/empty"], "pbsmt: no trained generators"),
], ids=["pair-only-on-single", "pbsmt-with-an-empty-generator-directory",
        "evaluate-pair-only-on-single", "pbsmt-generate-with-an-empty-models-directory"])
def test_transform_with_every_kind_skipped_is_refused(tmp_path, capsys, monkeypatch,
                                                      trained_model, argv, reason):
    (tmp_path / "empty").mkdir()
    predicted = []
    predict = cli.providers.EmbeddedProvider.predict_batch
    monkeypatch.setattr(cli.providers.EmbeddedProvider, "predict_batch",
                        lambda self, rows: predicted.append(1) or predict(self, rows))
    out = tmp_path / "fo"
    argv = [a.format(tmp=tmp_path, model=trained_model) for a in argv]
    assert run([*argv, *SENT_ARGS, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: no applicable transforms ({reason})"]
    assert predicted == []   # evaluate refuses before it predicts a row
    assert not out.exists()


def test_transform_gradient_kinds_with_model(tmp_path, trained_model):
    out = tmp_path / "tx"
    rc = run(["transform", *SENT_ARGS, "--transforms", "drop,replace",
              "--model", trained_model, "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.glob("*.tsv")) == \
        ["drop.tsv", "replace.tsv"]


def test_evaluate_edits_each_row_once_per_gradient_kind(tmp_path, monkeypatch, pair_base):
    # the kinds share one ranking per row, but each row is still one
    # apply_gradient call per kind (the benchmark tracer counts them)
    model = tmp_path / "params.bin"
    toyclf.save_params(pair_base, model)
    calls, apply = [], cli.mitigate.apply_gradient
    monkeypatch.setattr(cli.mitigate, "apply_gradient",
                        lambda ex, kind, *rest: calls.append(kind) or apply(ex, kind, *rest))
    assert run(["evaluate", *PAIR_ARGS, "--transforms", "all", "--model", str(model),
                "--out", str(tmp_path / "eval")]) == 0
    rows = len(Path(PAIRS).read_text(encoding="utf-8").splitlines()) - 1
    assert sorted(calls) == sorted(["drop", "repeat", "replace", "copyone"] * rows)


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


def _one_token_rows(path):
    """60 sentiment rows of one token each: drop skips every one of them."""
    words = ("awful", "great", "poor", "nice", "bad", "fine")
    path.write_text("id\ttext_a\ttext_b\tlabel\n" + "".join(
        f"s{i}\t{words[i % 6]}\t\t{('negative', 'positive')[i % 2]}\n" for i in range(60)),
        encoding="utf-8")
    return ["--data", str(path), "--task", "single", "--labels", "negative,positive"]


@pytest.mark.parametrize("strategy", ["invalid-class", "threshold"])
def test_mitigate_leaves_out_a_kind_with_no_validation_row(tmp_path, caplog, strategy):
    out = tmp_path / "mit"
    assert run(["mitigate", *_one_token_rows(tmp_path / "one.tsv"), "--strategy", strategy,
                "--transforms", "drop,sort", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert list(report["per_transform_detection"]) == ["sort"]
    assert "drop: no validation row; left out of the report" in caplog.text


@pytest.mark.parametrize("strategy", ["invalid-class", "threshold", "entropic-threshold"])
def test_mitigate_with_no_validation_row_of_any_kind_is_a_data_error(
        tmp_path, capsys, monkeypatch, strategy):
    steps = []
    for module, name in ((mitigate, "train_invalid_class"), (mitigate, "train_entropic"),
                         (toyclf, "fit_temperature")):
        monkeypatch.setattr(module, name, lambda *a, **k: steps.append(a))
    out = tmp_path / "mit"
    assert run(["mitigate", *_one_token_rows(tmp_path / "one.tsv"), "--strategy", strategy,
                "--transforms", "drop", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "data error: no validation row survives any transform (drop)"
    assert steps == []
    assert not out.exists()


# (command words, flag, a value the flag's type or range refuses); the dataset
# flags follow the words. Every numeric flag of every command has a row.
OUT_OF_RANGE = [
    *[(words, "--seed", "-1") for words in (
        "transform", "evaluate", "train", "calibrate --model m.bin", "mitigate",
        "pbsmt train", "pbsmt generate --models gens")],
    *[(command, "--r", r) for command in ("transform", "evaluate") for r in ("0", "1.5")],
    ("train", "--epochs", "-1"),
    ("train", "--batch-size", "0"),
    ("train", "--lr", "0"),
    ("train", "--lr", "nan"),
    ("train", "--lr", "abc"),
    ("train", "--dim", "0"),
    *[(f"train --loss {loss}", "--lambda-ls", "1.0") for loss in toyclf.LOSSES],
    ("train --loss focal", "--gamma", "-1"),
    ("train --loss focal", "--gamma", "nan"),
    ("mitigate", "--epochs", "-1"),
    ("mitigate", "--dim", "0"),
    ("mitigate", "--batch-size", "0"),
    ("mitigate", "--lr", "inf"),
    ("mitigate", "--finetune-epochs", "-1"),
    ("mitigate", "--finetune-lr", "0"),
    # checked under every strategy, though threshold reads neither value
    *[(f"mitigate --strategy {strategy}", "--augment-fraction", fraction)
      for strategy in mitigate.STRATEGIES for fraction in ("0", "1.5")],
    *[(f"mitigate --strategy {strategy}", "--lambda-ent", "-1")
      for strategy in mitigate.STRATEGIES],
    ("mitigate --strategy entropic-threshold", "--lambda-ent", "nan"),
    ("mitigate --strategy threshold", "--tolerance", "-1"),
    ("mitigate --strategy threshold", "--tolerance", "nan"),
    ("mitigate", "--holdout", "1.5"),
    ("pbsmt train", "--iterations", "0"),
    ("pbsmt train", "--min-pairs", "0"),
    ("pbsmt train", "--beam", "0"),
    ("pbsmt train", "--distortion-limit", "-1"),
    *[("pbsmt train", weight, "inf") for weight in ("--w-tm", "--w-lm", "--w-dist", "--w-len")],
]


def _json_value(text):
    """The value a --config file holds for a flag's command-line text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("words, flag, value", [
    pytest.param(words.split(), flag, value, id=f"{words.replace(' ', '-')}{flag}={value}")
    for words, flag, value in OUT_OF_RANGE])
def test_a_value_outside_its_flags_range_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, words, flag, value, via):
    loaded = []
    load = cli.corpus.load_dataset
    monkeypatch.setattr(cli.corpus, "load_dataset",
                        lambda *a, **kw: loaded.append(1) or load(*a, **kw))
    out, key = tmp_path / "fo", flag[2:]
    if via == "flag":
        argv, prefix = [*words, *SENT_ARGS, flag, value], f"error: argument {flag}: "
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: _json_value(value)}), encoding="utf-8")
        argv = ["--config", str(cfg), *words, *SENT_ARGS]
        prefix = f"error: --config {cfg}: {key}: "
    assert run([*argv, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    assert loaded == []
    assert not out.exists()


def test_every_numeric_flag_states_its_range():
    parser, flags = cli.build_parser(), set()
    for (command, sub), leaf in parser.leaves.items():
        for action in leaf.actions.values():
            if type(action.default) not in (int, float):
                continue
            flag = action.option_strings[0]
            flags.add(flag)
            assert action.type.__code__ is cli._number(float).__code__, (command, sub, flag)
            words = [command, *filter(None, [sub])]
            with pytest.raises(ConfigError) as exc:
                parser.parse_args([*words, flag, "nan"])
            assert str(exc.value).startswith(f"argument {flag}: "), (words, exc.value)
            kind = type(action.default).__name__   # argparse's own message for text
            with pytest.raises(ConfigError, match=f"^argument {flag}: invalid {kind} "
                                                  f"value: 'abc'$"):
                parser.parse_args([*words, flag, "abc"])
    assert flags == {flag for _, flag, _ in OUT_OF_RANGE}


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


def test_the_test_fixtures_train_with_the_cli_defaults():
    train = vars(cli.build_parser().parse_args(["train", *SENT_ARGS, "--out", "fo"]))
    assert {name: train[name] for name in TRAIN_ARGS} == TRAIN_ARGS
    mitigate = vars(cli.build_parser().parse_args(["mitigate", *SENT_ARGS, "--out", "fo"]))
    assert {name: mitigate[name] for name in TRAIN_ARGS} == TRAIN_ARGS
    assert dict(epochs=mitigate["finetune_epochs"], batch_size=mitigate["batch_size"],
                lr=mitigate["finetune_lr"], seed=mitigate["seed"]) == FINETUNE_ARGS


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


@pytest.mark.parametrize("argv", [
    ["train", *SENT_ARGS, "--label", "negative,positive,neutral"],   # not --labels
    ["pbsmt", "generate", *SENT_ARGS, "--models", "{gens}", "--label", "0"],
], ids=["train-label", "pbsmt-generate-label"])
def test_a_flag_is_matched_by_its_whole_name_only(tmp_path, capsys, sent_gens, argv):
    for label, gen in sent_gens.items():
        pbsmt.save_generator(gen, tmp_path / "gens" / f"label_{label}")
    out = tmp_path / "fo"
    assert run([*(a.format(gens=tmp_path / "gens") for a in argv), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unrecognized arguments: --label"), \
        lines
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
    assert capsys.readouterr().err.splitlines() == [
        "error: no applicable transforms (pbsmt: generators unavailable: "
        "label 0: 16 usable pairs < min_pairs=50)"]
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
    assert capsys.readouterr().err.splitlines() == [
        "error: no applicable transforms (pbsmt: generators unavailable: "
        "label 0: 16 usable pairs < min_pairs=50)"]
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
        "error: the following arguments are required: --models"]
    assert loaded == []
    assert not (tmp_path / "fo").exists()


# the flags of pbsmt train that pbsmt generate does not take
PBSMT_TRAIN_ONLY = [("--label", "0"), ("--iterations", "3"), ("--min-pairs", "5"),
                    ("--w-tm", "1"), ("--w-lm", "1"), ("--w-dist", "1"), ("--w-len", "1"),
                    ("--beam", "3"), ("--distortion-limit", "2")]


@pytest.mark.parametrize("argv", [
    *(["generate", "--models", "{tmp}", flag, value] for flag, value in PBSMT_TRAIN_ONLY),
    ["train", "--models", "{tmp}"],
], ids=[*(f"generate{flag}" for flag, _ in PBSMT_TRAIN_ONLY), "train--models"])
def test_a_pbsmt_subcommand_refuses_the_flags_of_the_other_before_loading_data(
        tmp_path, capsys, monkeypatch, argv):
    loaded = []
    load = cli.corpus.load_dataset
    monkeypatch.setattr(cli.corpus, "load_dataset",
                        lambda *a, **kw: loaded.append(1) or load(*a, **kw))
    out = tmp_path / "fo"
    assert run(["pbsmt", *(a.format(tmp=tmp_path) for a in argv), *SENT_ARGS,
                "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: unrecognized arguments: {argv[-2]}"), lines
    assert loaded == []
    assert not out.exists()


def test_a_pbsmt_train_runs_own_config_replays_to_the_same_generators(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["pbsmt", "train", *SENT_ARGS, "--label", "1", "--iterations", "3",
                "--min-pairs", "20", "--w-lm", "0.7", "--beam", "4",
                "--distortion-limit", "2", "--out", str(first)]) == 0
    assert run(["--config", str(first / "config.json"), "pbsmt", "train", *SENT_ARGS,
                "--out", str(second)]) == 0
    files = sorted(p.relative_to(first) for p in first.rglob("*")
                   if p.is_file() and p.name != "config.json")
    assert [str(f) for f in files] == [
        "label_1/lm.tsv", "label_1/phrases.tsv", "label_1/weights.json"]
    for f in files:
        assert (second / f).read_bytes() == (first / f).read_bytes(), f
    assert json.loads((first / "config.json").read_text(encoding="utf-8"))["label"] == 1


@pytest.mark.parametrize("label", ["7", "2", "-1"])
def test_pbsmt_train_label_outside_the_labels_is_refused_before_loading_data(
        tmp_path, capsys, monkeypatch, label):
    loaded = []
    load = cli.corpus.load_dataset
    monkeypatch.setattr(cli.corpus, "load_dataset",
                        lambda *a, **kw: loaded.append(1) or load(*a, **kw))
    out = tmp_path / "fo"
    assert run(["pbsmt", "train", *SENT_ARGS, "--label", label, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --label {label} names no label of --labels 'negative,positive'; "
        f"use one of 0 (negative), 1 (positive)"]
    assert loaded == []
    assert not out.exists()


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


def test_the_process_entry_freezes_the_start_up_objects(tmp_path):
    # runpy.run_module with run_name "__main__" is how `python -m saladbench.cli` starts
    out = tmp_path / "tx"
    assert _child_prints(
        "import gc, runpy, sys; "
        f"sys.argv = ['saladbench', 'transform', *{SENT_ARGS!r}, '--transforms', 'sort', "
        f"'--out', {str(out)!r}]\n"
        "try:\n"
        "    runpy.run_module('saladbench.cli', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    print(e.code, gc.get_freeze_count() > 0)")[-2:] == ["0", "True"]
    assert (out / "sort.tsv").exists()


def test_importing_the_cli_and_calling_main_freezes_nothing(tmp_path):
    assert _child_prints(
        "import gc; from saladbench import cli; "
        f"print(cli.main(['transform', *{SENT_ARGS!r}, '--transforms', 'sort', "
        f"'--out', {str(tmp_path / 'tx')!r}]), gc.get_freeze_count())")[-2:] == ["0", "0"]


def test_the_console_script_and_the_main_block_call_the_same_entry():
    pyproject = (DATA_DIR.parents[2] / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(r'^saladbench = "saladbench\.cli:(\w+)"$', pyproject, re.M)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    block = [node for node in tree.body if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(block) == 1
    assert ast.unparse(block[0].body[0]) == f"sys.exit({script.group(1)}())"
    assert script.group(1) != "main"   # main is the in-process call, which freezes nothing


def test_a_python_m_evaluate_matches_the_pinned_report(tmp_path, pair_base):
    model = tmp_path / "params.bin"
    toyclf.save_params(pair_base, model)
    env = {**os.environ, "PYTHONPATH": str(DATA_DIR.parent.parent)}
    subprocess.run([sys.executable, "-m", "saladbench.cli", "evaluate", *PAIR_ARGS,
                    "--transforms", "all", "--model", str(model),
                    "--out", str(tmp_path / "eval")],
                   capture_output=True, env=env, timeout=300, check=True)
    assert (_report_digest(tmp_path / "eval" / "report.json")
            == EXPECTED["pair"]["evaluate_full"])


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


@pytest.mark.parametrize("rows, skipped", [("", 0), ("a\t\t\tpositive\nb\t \t\tnegative\n", 2)],
                         ids=["header-only", "every-row-malformed"])
@pytest.mark.parametrize("argv", [
    ["transform", "--transforms", "sort"], ["evaluate", "--model", "{model}"], ["train"],
    ["calibrate", "--model", "{model}"], ["mitigate"], ["pbsmt", "train"],
    ["pbsmt", "generate", "--models", "{tmp}/gens"]],
    ids=["transform", "evaluate", "train", "calibrate", "mitigate", "pbsmt-train",
         "pbsmt-generate"])
def test_a_dataset_without_usable_rows_is_one_data_error(tmp_path, capsys, caplog,
                                                          trained_model, argv, rows, skipped):
    data = tmp_path / "empty.tsv"
    data.write_text("id\ttext_a\ttext_b\tlabel\n" + rows, encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path, model=trained_model) for a in argv]
    assert run([*argv, "--data", str(data), "--task", "single",
                "--labels", "negative,positive", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {data}: no usable rows ({skipped} skipped)"]
    assert caplog.records == []   # no skip warning ahead of the line in a real process
    assert not out.exists()


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
    ("pbsmt-weight-nan", {}, ["pbsmt", "train", *SENT_ARGS, "--w-lm", "nan"], "--w-lm"),
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


@pytest.mark.parametrize("argv, key", [
    (["train", *SENT_ARGS], "epochs"),
    (["transform", *SENT_ARGS, *SORT], "r"),
    (["mitigate", *SENT_ARGS, "--strategy", "threshold", *SORT], "tolerance"),
], ids=["train-epochs", "transform-r", "mitigate-tolerance"])
def test_a_null_config_value_leaves_the_flag_at_its_default(tmp_path, argv, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: None}), encoding="utf-8")
    plain, configured = tmp_path / "plain", tmp_path / "configured"
    assert run([*argv, "--out", str(plain)]) == 0
    assert run(["--config", str(cfg), *argv, "--out", str(configured)]) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in configured.iterdir()) == names
    for name in names:
        if name != "config.json":
            assert (configured / name).read_bytes() == (plain / name).read_bytes(), name
    first, second = (json.loads((out / "config.json").read_text(encoding="utf-8"))
                     for out in (plain, configured))
    assert (first.pop("config"), second.pop("config")) == (None, str(cfg))
    assert second == {**first, "out": str(configured)}


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


def test_repeat_skips_a_row_with_no_top_set(tmp_path, pair_base, caplog):
    data = tmp_path / "pairs.tsv"   # the last row's scored side has one token
    data.write_text(Path(PAIRS).read_text(encoding="utf-8")
                    + "extra\tshort premise here\tone\tyes\n", encoding="utf-8")
    model = tmp_path / "params.bin"
    toyclf.save_params(pair_base, model)
    args = ["transform", "--data", str(data), *PAIR_ARGS[2:], "--model", str(model),
            "--transforms", "drop,repeat"]
    out = tmp_path / "tx"
    assert run([*args, "--out", str(out)]) == 0
    for kind in ("drop", "repeat"):
        assert len((out / f"{kind}.tsv").read_text(encoding="utf-8").splitlines()) == 301
    assert "repeat: skipped 1 of 301 rows: repeat needs a non-empty top set" in caplog.text

    r1 = tmp_path / "r1"   # at r = 1 no row has a top set
    assert run([*args, "--r", "1.0", "--out", str(r1)]) == 0
    assert len((r1 / "repeat.tsv").read_text(encoding="utf-8").splitlines()) == 1


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

"""Output files: each is written whole through one writer, and every command
writes its config.json last, so a config.json only ever sits beside the
complete outputs of the run it records. A failure is injected at the Nth
file write by making os.replace raise."""

import os

import pytest

from saladbench import cli, corpus, pbsmt, toyclf

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "saladbench", "data")
SENT_ARGS = ["--data", os.path.join(DATA, "toy_sentiment.tsv"), "--task", "single",
             "--labels", "negative,positive"]
SORT = ["--transforms", "sort"]
# (command, argv after --out is added, files the run writes, in write order)
COMMANDS = [
    ("train", ["train", *SENT_ARGS, "--epochs", "1"],
     ["params.bin", "params.bin.json", "config.json"]),
    ("calibrate", ["calibrate", *SENT_ARGS, "--model", "{model}"],
     ["params_scaled.bin", "params_scaled.bin.json", "config.json"]),
    ("evaluate", ["evaluate", *SENT_ARGS, "--model", "{model}", *SORT],
     ["report.json", "report.csv", "report.md", "config.json"]),
    ("mitigate", ["mitigate", *SENT_ARGS, "--strategy", "threshold", "--epochs", "1",
                  *SORT],
     ["params_mitigated.bin", "report.json", "report.csv", "config.json"]),
    ("transform", ["transform", *SENT_ARGS, "--transforms", "sort,reverse"],
     ["sort.tsv", "reverse.tsv", "config.json"]),
    ("pbsmt-train", ["pbsmt", "train", *SENT_ARGS, "--label", "0", "--iterations", "1"],
     ["label_0/phrases.tsv", "label_0/lm.tsv", "label_0/weights.json", "config.json"]),
    ("pbsmt-generate", ["pbsmt", "generate", *SENT_ARGS, "--models", "{models}"],
     ["pbsmt.tsv", "config.json"]),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, sent_base, sent_gens):
    """A params file and a generator directory the commands read."""
    root = tmp_path_factory.mktemp("inputs")
    model = root / "params.bin"
    toyclf.save_params(sent_base, model)
    for label, gen in sent_gens.items():
        pbsmt.save_generator(gen, root / "gens" / f"label_{label}")
    return {"model": str(model), "models": str(root / "gens")}


def _argv(argv, inputs, out):
    return [a.format(**inputs) for a in argv] + ["--out", str(out)]


def _replaces(monkeypatch, fail_at=None):
    """Records each os.replace target; the fail_at-th call (from 1) raises."""
    targets = []
    replace = os.replace

    def counted(src, dst):
        targets.append((os.fspath(src), os.fspath(dst)))
        if len(targets) == fail_at:
            raise OSError(f"injected failure writing {dst}")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", counted)
    return targets


def _leftovers(out):
    return sorted(str(p.relative_to(out)) for p in out.rglob("*.tmp*"))


@pytest.mark.parametrize("argv, files", [
    pytest.param(argv, files, id=case) for case, argv, files in COMMANDS])
def test_each_command_writes_each_file_once_and_config_json_last(
        tmp_path, monkeypatch, inputs, argv, files):
    out = tmp_path / "out"
    targets = _replaces(monkeypatch)
    assert cli.main(_argv(argv, inputs, out)) == 0
    assert [os.path.relpath(dst, out) for _, dst in targets] == files
    for src, dst in targets:     # each temporary file sits beside its target
        assert os.path.dirname(src) == os.path.dirname(dst)
        assert not src.endswith((".tsv", ".json", ".bin"))
    assert _leftovers(out) == []


@pytest.mark.parametrize("which", ["first", "last output", "config.json"])
@pytest.mark.parametrize("argv, files", [
    pytest.param(argv, files, id=case) for case, argv, files in COMMANDS])
def test_a_failed_write_leaves_no_config_json_and_no_temporary_file(
        tmp_path, monkeypatch, capsys, inputs, argv, files, which):
    fail_at = {"first": 1, "last output": len(files) - 1,
               "config.json": len(files)}[which]
    out = tmp_path / "out"
    _replaces(monkeypatch, fail_at)
    assert cli.main(_argv(argv, inputs, out)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "injected failure" in lines[0]
    assert not (out / "config.json").exists()
    assert _leftovers(out) == []


def test_a_failed_rerun_removes_the_earlier_runs_config_json(tmp_path, monkeypatch,
                                                             capsys, inputs):
    _, argv, _ = COMMANDS[2]     # evaluate
    out = tmp_path / "out"
    assert cli.main(_argv(argv, inputs, out)) == 0
    assert (out / "config.json").exists()
    _replaces(monkeypatch, fail_at=2)
    assert cli.main(_argv(argv, inputs, out)) == 1
    assert not (out / "config.json").exists()
    assert _leftovers(out) == []


def test_a_run_that_fails_before_writing_keeps_the_earlier_run(tmp_path, inputs):
    out = tmp_path / "out"
    assert cli.main(["evaluate", *SENT_ARGS, "--model", inputs["model"], *SORT,
                     "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.main(["evaluate", *SENT_ARGS, "--model", str(tmp_path / "none.bin"),
                     *SORT, "--out", str(out)]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# --- the writer ---

def test_write_file_writes_text_as_utf8_and_bytes_as_they_are(tmp_path):
    corpus.write_file(tmp_path / "a" / "b" / "t.txt", "é\nx\n")
    corpus.write_file(tmp_path / "raw.bin", b"\x00\xff")
    assert (tmp_path / "a" / "b" / "t.txt").read_bytes() == "é\nx\n".encode("utf-8")
    assert (tmp_path / "raw.bin").read_bytes() == b"\x00\xff"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "raw.bin"]


def test_write_file_keeps_the_old_file_when_the_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "f.tsv"
    path.write_text("old\n", encoding="utf-8")
    _replaces(monkeypatch, fail_at=1)
    with pytest.raises(OSError, match="injected"):
        corpus.write_file(path, "new\n")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.tsv"]


def test_write_file_removes_its_temporary_file_when_encoding_fails(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        corpus.write_file(tmp_path / "f.tsv", "bad \udcff")
    assert list(tmp_path.iterdir()) == []

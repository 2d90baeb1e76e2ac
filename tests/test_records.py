"""The records that carry rows and settings: rows cannot be changed after
construction, every validated record refuses a bad value through its
constructor and through its replace path, toyclf.train, which takes its
values without a record, refuses a bad one before its first step, and the
files written from records keep their bytes."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from saladbench import cli, corpus, pbsmt, toyclf
from saladbench.corpus import Dataset, Example, LabelSet, TextInput
from saladbench.errors import ArgumentError
from saladbench.metrics import MetricsRow
from saladbench.mitigate import MitigationReport
from saladbench.pbsmt import DecoderWeights
from saladbench.toyclf import ToyModelParams

from conftest import TRAIN_ARGS

LABELS = LabelSet(("negative", "positive"))


@pytest.mark.parametrize("record, names", [
    (TextInput("good film", "bad plot"), ("text_a", "text_b")),
    (Example("x", TextInput("good film"), 1), ("id", "input", "gold_label")),
])
def test_rows_cannot_be_assigned(record, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


# values that build each validated record
VALID = {
    LabelSet: dict(names=("a", "b")),
    Dataset: dict(examples=(Example("x", TextInput("hello"), 0),), labels=LABELS,
                  task_kind="single"),
    ToyModelParams: dict(vocab=("<unk>", "a"), emb=np.zeros((2, 2)), w=np.zeros((2, 2)),
                         b=np.zeros(2)),
    DecoderWeights: {},
    MetricsRow: dict(transform="sort", agreement=50.0, mean_confidence=60.0, n=10),
    MitigationReport: dict(strategy="threshold", clean_accuracy=90.0, invalid_detected=50.0,
                           per_transform_detection={"sort": 40.0}),
}
# (record, field, a value it refuses)
BAD = [
    (LabelSet, "names", ("only",)),
    (LabelSet, "names", ("a", "a")),
    (LabelSet, "default_label", 2),
    (Dataset, "task_kind", "tri"),
    (ToyModelParams, "temperature", 0.0),
    (ToyModelParams, "w", np.zeros((3, 2))),
    (DecoderWeights, "w_lm", math.nan),
    (DecoderWeights, "w_dist", math.inf),
    (DecoderWeights, "beam_size", 0),
    (DecoderWeights, "distortion_limit", -1),
    (MetricsRow, "agreement", 100.5),
    (MetricsRow, "mean_confidence", -1.0),
    (MetricsRow, "n", 0),
    (MitigationReport, "clean_accuracy", 101.0),
    (MitigationReport, "invalid_detected", -0.5),
    (MitigationReport, "per_transform_detection", {"sort": 101.0}),
]


@pytest.mark.parametrize("cls, field, bad", BAD,
                         ids=[f"{cls.__name__}.{field}" for cls, field, _ in BAD])
def test_validated_records_refuse_a_bad_value_when_built_and_when_replaced(cls, field, bad):
    good = cls(**VALID[cls])
    with pytest.raises(ArgumentError):
        cls(**{**VALID[cls], field: bad})
    with pytest.raises(ArgumentError):
        good._replace(**{field: bad})


# (toyclf.train argument, a value it refuses, the start of the refusal)
BAD_TRAINING = [
    ("loss", "entropic", "unknown loss kind 'entropic'"),
    ("lambda_ls", 1.0, "lambda_ls must be in [0,1)"),
    ("gamma", -1.0, "gamma must be >= 0"),
    ("lambda_ent", -0.1, "lambda_ent must be >= 0"),
    ("epochs", -1, "epochs must be >= 0, batch_size >= 1 and lr > 0"),
    ("batch_size", 0, "epochs must be >= 0, batch_size >= 1 and lr > 0"),
    ("lr", 0.0, "epochs must be >= 0, batch_size >= 1 and lr > 0"),
    ("dim", 0, "dim must be >= 1"),
    ("dim", None, "a fresh model needs dim"),
    ("seed", -1, "seed must be >= 0"),
]


@pytest.mark.parametrize("name, bad, message", BAD_TRAINING,
                         ids=[f"{name}={bad}" for name, bad, _ in BAD_TRAINING])
def test_train_refuses_a_bad_value_before_its_first_step(name, bad, message, monkeypatch):
    def step(*args):
        raise AssertionError("a gradient step was taken")

    monkeypatch.setattr(toyclf, "_grad", step)
    with pytest.raises(ArgumentError) as refused:
        toyclf.train(Dataset(**VALID[Dataset]), **{**TRAIN_ARGS, name: bad})
    assert str(refused.value).startswith(message)


RAW_EXPECTED = "589c62af4fdb3473c6bc5b9a7e914487384e346a747bf8b43e1ba77e520990e8"


def test_evaluate_reports_and_generator_weights_keep_their_bytes(
        pair_base, pair_gens, pair_split, tmp_path, monkeypatch):
    """report.json, report.csv and weights.json byte for byte, paths made
    relative so that none of them names the test's directory."""
    monkeypatch.chdir(tmp_path)
    _, val_ds = pair_split
    toyclf.save_params(pair_base, "params.bin")
    corpus.save_dataset(val_ds, "val.tsv")
    for label, gen in pair_gens.items():
        pbsmt.save_generator(gen, f"gens/label_{label}")
    assert cli.main(["evaluate", "--data", "val.tsv", "--task", "pair", "--labels", "no,yes",
                     "--default-label", "yes", "--transforms", "all", "--model", "params.bin",
                     "--pbsmt-dir", "gens", "--out", "eval"]) == 0
    h = hashlib.sha256()
    for path in ("eval/report.json", "eval/report.csv",
                 *sorted(str(p) for p in Path("gens").glob("*/weights.json"))):
        h.update(path.encode() + b"\n" + Path(path).read_bytes())
    assert h.hexdigest() == RAW_EXPECTED

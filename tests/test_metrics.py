"""Agreement, confidence, and calibration metrics plus report rendering,
checked against independent brute-force computations."""

import random

import pytest

from saladbench.errors import ArgumentError, ConfigError
from saladbench.metrics import (MetricsRow, agreement, build_report,
                                default_agreement, ece, mean_confidence,
                                report_from_json)
from saladbench.providers import checked_probs


def preds(*rows):
    """The checked (n, C) probability array of the given rows."""
    return checked_probs([f"e{i}" for i in range(len(rows))], list(rows))


def preds_with_labels(labels, n_classes=3, conf=0.9):
    """One prediction per requested argmax label, at a fixed confidence."""
    rows = []
    for y in labels:
        probs = [(1.0 - conf) / (n_classes - 1)] * n_classes
        probs[y] = conf
        rows.append(probs)
    return preds(*rows)


# --- agreement ---

def test_agreement_identical_lists_is_100():
    a = preds_with_labels([0, 1, 2])
    assert agreement(a, a) == 100.0


def test_agreement_two_of_three():
    a = preds_with_labels([0, 1, 2])
    b = preds_with_labels([0, 1, 0])
    assert abs(agreement(a, b) - 200.0 / 3.0) < 1e-12
    assert round(agreement(a, b), 2) == 66.67


def test_agreement_requires_id_alignment():
    a = preds_with_labels([0, 1])
    with pytest.raises(ArgumentError):
        agreement(a, a[:1])
    with pytest.raises(ArgumentError):
        agreement([], [])


def test_agreement_matches_brute_force_on_random_fixture():
    rng = random.Random(0)
    labels_a = [rng.randrange(4) for _ in range(500)]
    labels_b = [rng.randrange(4) for _ in range(500)]
    a = preds_with_labels(labels_a, n_classes=4)
    b = preds_with_labels(labels_b, n_classes=4)
    expected = 100.0 * sum(1 for x, y in zip(labels_a, labels_b) if x == y) / 500
    assert agreement(a, b) == expected


# --- default agreement ---

def test_default_agreement_counts_default_label_hits():
    probs = preds_with_labels([1, 1, 0, 2])
    assert default_agreement(probs, 1) == 50.0
    assert default_agreement(probs, 0) == 25.0


def test_default_agreement_requires_configured_default():
    with pytest.raises(ConfigError):
        default_agreement(preds_with_labels([0]), None)
    with pytest.raises(ArgumentError):
        default_agreement([], 0)


# --- mean confidence ---

def test_mean_confidence_hand_summed():
    assert abs(mean_confidence(preds([0.8, 0.2], [0.4, 0.6])) - 70.0) < 1e-12


def test_mean_confidence_uniform_three_way():
    assert abs(mean_confidence(preds([1 / 3, 1 / 3, 1 / 3])) - 100.0 / 3.0) < 1e-9


# --- ECE ---

def test_ece_hand_binned_example():
    # bin (0.5, 0.6]: two preds at 0.55, one correct -> |0.5 - 0.55| = 0.05
    # bin (0.9, 1.0]: two preds at 0.95, both correct -> |1.0 - 0.95| = 0.05
    probs = preds([0.55, 0.45], [0.55, 0.45], [0.95, 0.05], [0.95, 0.05])
    gold = [0, 1, 0, 0]  # correct, wrong, correct, correct
    assert abs(ece(probs, gold) - 0.05) < 1e-12


def test_ece_perfectly_calibrated_fixture_is_zero():
    # within each bin, accuracy exactly equals mean confidence
    rows, gold = [], []
    for conf, n, correct in ((0.75, 4, 3), (0.8, 5, 4), (0.6, 5, 3), (1.0, 2, 2)):
        for i in range(n):
            # predicted label is argmax 0; make `correct` of them match gold
            rows.append([conf, 1.0 - conf])
            gold.append(0 if i < correct else 1)
    assert ece(preds(*rows), gold) <= 1e-12


def test_ece_all_confident_and_correct_is_zero():
    assert ece(preds(*[[1.0, 0.0]] * 5), [0] * 5) == 0.0


def test_ece_order_independent():
    rng = random.Random(1)
    probs = preds(*[[c, 1 - c] for c in
                    (rng.uniform(0.5, 1.0) for _ in range(50))])
    gold = [rng.randrange(2) for _ in range(50)]
    order = list(range(50))
    rng.shuffle(order)
    assert abs(ece(probs, gold) - ece(probs[order], [gold[i] for i in order])) < 1e-12


def test_ece_bin_edges_are_left_open():
    # confidence exactly 0.6 belongs to bin (0.5, 0.6], not [0.6, 0.7)
    gold = [0, 1]  # correct, wrong -> single bin: acc 0.5, conf 0.575
    assert abs(ece(preds([0.6, 0.4], [0.55, 0.45]), gold) - abs(0.5 - 0.575)) < 1e-12


def test_ece_matches_brute_force_binning_oracle():
    rng = random.Random(2)
    rows, gold = [], []
    for i in range(300):
        c = rng.uniform(1 / 3 + 1e-6, 1.0)
        rest = (1.0 - c) / 2
        rows.append([c, rest, rest])
        gold.append(rng.randrange(3))
    probs = preds(*rows)

    bins = [[] for _ in range(10)]
    for p, y in zip(probs, gold):
        confidence = float(p.max())
        b = min(9, int(confidence * 10))
        if confidence == b / 10 and b > 0:
            b -= 1
        bins[b].append((confidence, int(p.argmax()) == y))
    expected = 0.0
    for members in bins:
        if not members:
            continue
        conf = sum(c for c, _ in members) / len(members)
        acc = sum(1 for _, ok in members if ok) / len(members)
        expected += len(members) / len(probs) * abs(acc - conf)
    assert abs(ece(probs, gold) - expected) < 1e-12


def test_ece_validation():
    with pytest.raises(ArgumentError):
        ece([], [])
    with pytest.raises(ArgumentError):
        ece(preds_with_labels([0]), [0, 1])


# --- report assembly ---

def rows_fixture():
    return [
        MetricsRow("sort", 80.0, 95.0, 40),
        MetricsRow("reverse", 90.0, 94.0, 40),
        MetricsRow("shuffle", 85.0, 93.0, 40, per_seed=(84.0, 86.0)),
        MetricsRow("drop", 70.0, 91.0, 40),
        MetricsRow("copyone", 60.0, 90.0, 40),
        MetricsRow("pbsmt", 50.0, 89.0, 40),
    ]


def test_metrics_row_validation():
    with pytest.raises(ArgumentError):
        MetricsRow("sort", 101.0, 50.0, 10)
    with pytest.raises(ArgumentError):
        MetricsRow("sort", 50.0, -1.0, 10)
    with pytest.raises(ArgumentError):
        MetricsRow("sort", 50.0, 50.0, 0)


def test_build_report_baseline_and_family_averages():
    report = build_report(rows_fixture(), n_classes=3)
    assert report.random_baseline == 100.0 / 3.0
    assert abs(report.family_averages["lexical"] - (80 + 90 + 85) / 3) < 1e-12
    assert abs(report.family_averages["gradient"] - (70 + 60) / 2) < 1e-12
    assert "pbsmt" not in report.family_averages


def test_build_report_groups_seeded_transform_tags_by_kind():
    rows = [MetricsRow("shuffle:3", 85.0, 90.0, 10)]
    report = build_report(rows, n_classes=2)
    assert report.family_averages["lexical"] == 85.0


def test_build_report_requires_rows():
    with pytest.raises(ArgumentError):
        build_report([], n_classes=2)


def test_report_json_round_trip():
    report = build_report(rows_fixture(), n_classes=2, ece_value=0.123,
                          provenance={"seed": 0})
    back = report_from_json(report.to_json())
    assert back.rows == report.rows
    assert back.random_baseline == report.random_baseline
    assert back.ece == report.ece
    assert back.family_averages == report.family_averages
    assert back.provenance == report.provenance


def test_report_csv_and_markdown_render():
    report = build_report(rows_fixture(), n_classes=2)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "transform,agreement,mean_confidence,n"
    assert "sort,80.00,95.00,40" in csv_text
    assert "random,50.00" in csv_text
    md = report.to_markdown()
    assert "| sort | 80.00 | 95.00 | 40 |" in md
    assert "| Random | 50.00 | | |" in md
    assert "| Avg. Lexical | 85.00 | | |" in md

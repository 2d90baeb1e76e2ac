"""The array path for predictions against a per-row reference.

The reference below is the per-row implementation the array path replaced:
`Prediction.from_probs` (renormalize one vector, take its argmax and
confidence) and the loops of `agreement`, `default_agreement`,
`mean_confidence`, `ece` and `threshold_search` over those rows. On both
bundled corpora's embedded probabilities, and on rows that drift from a unit
sum within RENORM_TOL, the array code must equal it bit for bit: report
files, pinned outputs and the benchmark's reference checks depend on exact
floats.
"""

import random
from typing import NamedTuple

import numpy as np
import pytest

from saladbench import metrics, mitigate, toyclf
from saladbench.errors import ContractError
from saladbench.providers import RENORM_TOL, EmbeddedProvider, checked_probs


# --- per-row reference -----------------------------------------------------

class RefPrediction(NamedTuple):
    probs: tuple
    predicted: int
    confidence: float


def ref_from_probs(probs):
    arr = np.asarray(probs, dtype=float)
    if arr.ndim != 1 or arr.size < 2 or (arr < 0).any():
        raise ContractError("bad probability vector")
    total = arr.sum()
    if abs(total - 1.0) > RENORM_TOL:
        raise ContractError("probabilities do not sum to 1")
    arr = arr / total
    predicted = int(np.argmax(arr))
    return RefPrediction(tuple(float(p) for p in arr), predicted, float(arr[predicted]))


def ref_agreement(original, transformed):
    same = sum(1 for o, t in zip(original, transformed) if o.predicted == t.predicted)
    return 100.0 * same / len(original)


def ref_default_agreement(transformed, default_label):
    hits = sum(1 for p in transformed if p.predicted == default_label)
    return 100.0 * hits / len(transformed)


def ref_mean_confidence(preds):
    return 100.0 * sum(p.confidence for p in preds) / len(preds)


def ref_ece(preds, gold_labels, bins=10):
    n = len(preds)
    bin_total = [0] * bins
    bin_correct = [0] * bins
    bin_conf = [0.0] * bins
    for p, y in zip(preds, gold_labels):
        b = min(bins - 1, int(p.confidence * bins))
        if p.confidence == b / bins and b > 0:
            b -= 1
        bin_total[b] += 1
        bin_correct[b] += 1 if p.predicted == y else 0
        bin_conf[b] += p.confidence
    total = 0.0
    for b in range(bins):
        if bin_total[b] == 0:
            continue
        acc = bin_correct[b] / bin_total[b]
        conf = bin_conf[b] / bin_total[b]
        total += (bin_total[b] / n) * abs(acc - conf)
    return total


def ref_threshold_search(preds_clean, gold, preds_invalid, baseline_accuracy,
                         tolerance):
    n_classes = len(preds_clean[0].probs)
    best_theta, best_detect = None, -1.0
    for theta in mitigate.threshold_grid(n_classes):
        acc = sum(1 for p, y in zip(preds_clean, gold)
                  if p.confidence >= theta and p.predicted == y) / len(preds_clean)
        if acc < baseline_accuracy - tolerance:
            continue
        detect = sum(1 for p in preds_invalid if p.confidence < theta) / len(preds_invalid)
        if detect > best_detect:
            best_theta, best_detect = theta, detect
    return 1.0 / n_classes if best_theta is None else best_theta


# --- inputs ------------------------------------------------------------------

TEMPERATURES = (1.0, 0.25, 3.0)


def _embedded_rows(params, ds):
    """Raw model probabilities of every row of `ds` at each temperature."""
    return {t: toyclf.probabilities(params._replace(temperature=t), ds.examples)
            for t in TEMPERATURES}


def _drifting_rows(n_classes, n=400, seed=0):
    """Rows whose sums drift from 1 by up to 0.99 * RENORM_TOL, plus rows on
    the ECE bin edges and with argmax ties."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        raw = [rng.random() ** 3 for _ in range(n_classes)]
        drift = 1.0 + rng.uniform(-0.99, 0.99) * RENORM_TOL
        rows.append([x / sum(raw) * drift for x in raw])
    for top in (1.0, 0.9, 0.7, 0.6, 0.5, 1.0 / n_classes):
        rest = (1.0 - top) / (n_classes - 1)
        rows.append([top] + [rest] * (n_classes - 1))
        rows.append([rest] * (n_classes - 1) + [top])
    return rows


@pytest.fixture(scope="module")
def cases(sent_ds, pair_ds, sent_base, pair_base):
    """(name, ids, raw rows, gold labels) for every input set."""
    out = []
    for name, params, ds in (("sent", sent_base, sent_ds), ("pair", pair_base, pair_ds)):
        ids = [ex.id for ex in ds.examples]
        gold = [ex.gold_label for ex in ds.examples]
        for t, rows in _embedded_rows(params, ds).items():
            out.append((f"{name}@T={t}", ids, rows, gold))
    for c in (2, 3, 4, 12):  # 12: wide enough for numpy's unrolled row sums
        rows = _drifting_rows(c, seed=c)
        rng = random.Random(100 + c)
        out.append((f"drift{c}", [f"d{i}" for i in range(len(rows))], rows,
                    [rng.randrange(c) for _ in rows]))
    return out


# --- checks ------------------------------------------------------------------

def test_checked_probs_equals_per_row_renormalization(cases):
    for name, ids, rows, _ in cases:
        ref = [ref_from_probs(r) for r in rows]
        probs = checked_probs(ids, rows)
        assert np.array_equal(probs, np.array([p.probs for p in ref])), name
        assert probs.argmax(axis=1).tolist() == [p.predicted for p in ref], name
        assert probs.max(axis=1).tolist() == [p.confidence for p in ref], name


def test_embedded_provider_equals_per_row_renormalization(sent_ds, sent_base):
    rows = toyclf.probabilities(sent_base, sent_ds.examples)
    assert np.array_equal(EmbeddedProvider(sent_base).predict_batch(sent_ds.examples),
                          np.array([ref_from_probs(r).probs for r in rows]))


def test_metrics_equal_the_per_row_loops(cases):
    for name, ids, rows, gold in cases:
        ref = [ref_from_probs(r) for r in rows]
        probs = checked_probs(ids, rows)
        n_classes = probs.shape[1]
        # pair every row with the next one's prediction
        shifted = np.roll(probs, 1, axis=0)
        ref_shifted = ref[-1:] + ref[:-1]
        assert metrics.agreement(probs, shifted) == ref_agreement(ref, ref_shifted), name
        assert metrics.agreement(probs, probs) == 100.0, name
        for label in range(n_classes):
            assert (metrics.default_agreement(probs, label)
                    == ref_default_agreement(ref, label)), name
        assert metrics.mean_confidence(probs) == ref_mean_confidence(ref), name
        assert metrics.ece(probs, gold) == ref_ece(ref, gold), name
        assert metrics.ece(probs, gold, bins=7) == ref_ece(ref, gold, bins=7), name


@pytest.mark.parametrize("tolerance", [0.0, 0.03, 0.2])
def test_threshold_search_equals_the_per_row_loop(cases, tolerance):
    for i, (name, ids, rows, gold) in enumerate(cases):
        # invalid rows: the next set of the same width, or the set itself
        _, other_ids, other_rows, _ = next(
            (c for c in cases[i + 1:] + cases[:i] if len(c[2][0]) == len(rows[0])),
            cases[i])
        ref_clean = [ref_from_probs(r) for r in rows]
        baseline = sum(1 for p, y in zip(ref_clean, gold) if p.predicted == y) / len(gold)
        theta = mitigate.threshold_search(checked_probs(ids, rows), gold,
                                          checked_probs(other_ids, other_rows), tolerance)
        assert theta == ref_threshold_search(
            ref_clean, gold, [ref_from_probs(r) for r in other_rows], baseline,
            tolerance), name

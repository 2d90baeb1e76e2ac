"""Mitigation strategies: augmentation with invalid examples,
entropic-regularization training, probability thresholding, and
invalid-as-extra-class training."""

from __future__ import annotations

import logging
import math
import random
from collections import Counter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .corpus import Dataset, Example, LabelSet, checked, tokenize
from .errors import (ArgumentError, ConfigError, DataError, DegenerateInputError,
                     UnsupportedTransformError)
from .gradient import apply_gradient, partition_by_importance
from .lexical import (ALL_KINDS, GRADIENT_KINDS, LEXICAL_KINDS, PAIR_ONLY_KINDS,
                      apply_lexical, side_rule)
from .pbsmt import GeneratorModel, generate_invalid
from .providers import EmbeddedProvider
from . import toyclf

log = logging.getLogger(__name__)

INVALID_LABEL = "invalid"
THRESHOLD_STEP = 0.001
STRATEGIES = ("threshold", "entropic-threshold", "invalid-class")  # run_strategy's names


@checked
class MitigationReport(NamedTuple):
    strategy: str
    clean_accuracy: float
    invalid_detected: float
    per_transform_detection: dict
    theta: Optional[float] = None
    lambda_ent: Optional[float] = None
    baseline_accuracy: Optional[float] = None

    def _check(self):
        for v in (self.clean_accuracy, self.invalid_detected,
                  *self.per_transform_detection.values()):
            if not 0.0 <= v <= 100.0:
                raise ArgumentError("percentages must lie in [0, 100]")


def resolve_kinds(kinds: str | Sequence[str], task_kind: str,
                  saliency: bool = True, generators: bool = True
                  ) -> tuple[tuple[str, ...], list[tuple[str, str]]]:
    """Expands "all" in a kind list or comma-separated string; returns the
    kinds that can run and a (kind, reason) pair for each one that cannot."""
    if isinstance(kinds, str):
        kinds = [k.strip() for k in kinds.split(",")]
    if "all" in kinds:
        kinds = ALL_KINDS
    unknown = sorted(set(kinds) - set(ALL_KINDS))
    if unknown:
        raise ConfigError(f"unknown transforms {unknown}")
    usable, skipped = [], []
    for kind in kinds:
        if kind in PAIR_ONLY_KINDS and task_kind != "pair":
            skipped.append((kind, "pair-only transform"))
        elif kind in GRADIENT_KINDS and not saliency:
            skipped.append((kind, "no saliency provider"))
        elif kind == "pbsmt" and not generators:
            skipped.append((kind, "no trained generators"))
        else:
            usable.append(kind)
    return tuple(usable), skipped


def score_saliency(provider, examples: Sequence[Example], kinds: Sequence[str],
                   task_kind: str, r: float = 0.5) -> dict[str, list]:
    """Each example's saliency ranking at r (gradient.partition_by_importance),
    once per side the gradient kinds among `kinds` read; maps side -> rankings
    aligned with `examples`. No side's raw scores are kept."""
    sides = sorted({side_rule(k, task_kind == "pair")[0] for k in kinds if k in GRADIENT_KINDS})
    if sides and provider is None:
        raise ConfigError("gradient transforms need a saliency provider")
    return {side: [partition_by_importance(scores, r)
                   for scores in provider.saliency_batch(examples, side)] for side in sides}


def transform_examples(examples: Sequence[Example], kind: str, task_kind: str,
                       seed: int = 0, saliency: Optional[dict[str, list]] = None,
                       generators: Optional[dict[int, GeneratorModel]] = None,
                       vocab: Optional[Sequence[str]] = None
                       ) -> dict[str, Example]:
    """{source id: row} of one kind over `examples`, in source order; gradient
    kinds read the rankings in `saliency` (score_saliency over the same
    examples). Rows are named `{id}__{kind}` (`{id}__shuffle:{seed}`); rows
    too small for the kind are skipped and logged with a count per reason. A
    replace vocabulary entry that is not a token (one that tokenize() returns
    unchanged) is an ArgumentError."""
    if kind == "replace":  # once per set, so no seed decides whether it fails
        bad = next((v for v in vocab or () if tokenize(v) != (v,)), None)
        if bad is not None:
            raise ArgumentError(f"vocabulary entry {bad!r} is not a token")
    if kind not in ALL_KINDS:
        raise UnsupportedTransformError(f"unknown transform kind {kind!r}")
    ranked = saliency[side_rule(kind, task_kind == "pair")[0]] if kind in GRADIENT_KINDS else None
    suffix = f"{kind}:{seed}" if kind == "shuffle" else kind
    out, skipped = {}, Counter()
    for i, ex in enumerate(examples):
        try:
            if kind in LEXICAL_KINDS:
                new_input = apply_lexical(ex, kind, seed)
            elif kind in GRADIENT_KINDS:
                new_input = apply_gradient(ex, kind, ranked[i], seed, vocab)
            else:
                new_input = generate_invalid(ex, generators or {})
        except DegenerateInputError as e:
            skipped[str(e)] += 1
            continue
        out[ex.id] = Example(f"{ex.id}__{suffix}", new_input, ex.gold_label)
    for reason, n in sorted(skipped.items()):
        log.warning("%s: skipped %d of %d rows: %s", suffix, n, len(examples), reason)
    return out


def invalid_by_kind(examples: Sequence[Example], kinds: Sequence[str],
                    task_kind: str, saliency_provider=None,
                    pbsmt_models: Optional[dict[int, GeneratorModel]] = None,
                    vocab: Optional[Sequence[str]] = None, seed: int = 0
                    ) -> dict[str, dict[str, Example]]:
    """Each kind's rows over `examples`, keyed by source id, in source order;
    saliency is scored once for all kinds. `kinds` are resolved (resolve_kinds):
    gradient kinds need a saliency provider and pbsmt trained generators."""
    saliency = score_saliency(saliency_provider, examples, kinds, task_kind)
    return {kind: transform_examples(examples, kind, task_kind, seed, saliency=saliency,
                                     generators=pbsmt_models, vocab=vocab)
            for kind in kinds}


def make_invalid_examples(examples: Sequence[Example], kinds: Sequence[str],
                          task_kind: str, saliency_provider=None,
                          pbsmt_models: Optional[dict[int, GeneratorModel]] = None,
                          vocab: Optional[Sequence[str]] = None, seed: int = 0
                          ) -> list[Example]:
    """One unlabeled invalid example per (source example, kind), ordered by
    source and then by kind (see invalid_by_kind)."""
    by_kind = invalid_by_kind(examples, kinds, task_kind, saliency_provider,
                              pbsmt_models, vocab, seed).values()
    return [Example(rows[ex.id].id, rows[ex.id].input)
            for ex in examples for rows in by_kind if ex.id in rows]


def augment(ds: Dataset, kinds: Sequence[str], fraction: float, seed: int,
            saliency_provider=None, pbsmt_models=None, vocab=None) -> list[Example]:
    """Unlabeled invalid examples of the resolved `kinds`, built from a seeded
    sample of `fraction` of the training set (fraction in (0, 1])."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"augment fraction must be in (0, 1], got {fraction}")
    rng = random.Random(seed)
    sampled = sorted(rng.sample(range(len(ds)), math.ceil(fraction * len(ds))))
    return make_invalid_examples([ds.examples[i] for i in sampled], kinds,
                                 ds.task_kind, saliency_provider, pbsmt_models,
                                 vocab, seed)


def balance_clean(clean: Dataset, invalid: Sequence[Example]) -> Dataset:
    """The invalid-class training set: the invalid examples labeled N (a new
    `invalid` class) after the clean examples, repeated.

    With one invalid example per (source, kind) the invalid class outnumbers
    every task class; repeating the clean examples the (rounded, at least 1)
    invalid/clean ratio of times restores rough class balance so the
    detector does not sacrifice clean accuracy.
    """
    if not clean.examples:
        raise ArgumentError("no clean examples to balance")
    n = clean.labels.n_classes
    labels = LabelSet(clean.labels.names + (INVALID_LABEL,), clean.labels.default_label)
    return Dataset(clean.examples * max(1, round(len(invalid) / len(clean)))
                   + tuple(Example(ex.id, ex.input, n) for ex in invalid),
                   labels, clean.task_kind)


def train_entropic(warm: toyclf.ToyModelParams, clean: Dataset, invalid: Dataset,
                   lambda_ent: float, epochs: int, batch_size: int, lr: float,
                   seed: int) -> toyclf.ToyModelParams:
    """Continue training from baseline weights, maximizing prediction entropy
    on invalid examples alongside the clean cross-entropy loss."""
    return toyclf.train(clean, epochs, batch_size, lr, seed, lambda_ent=lambda_ent,
                        warm=warm, invalid_ds=invalid)


def threshold_grid(n_classes: int) -> list[float]:
    lo = 1.0 / n_classes
    grid = []
    k = 0
    while True:
        theta = lo + k * THRESHOLD_STEP
        if theta > 1.0 + 1e-12:
            break
        grid.append(min(theta, 1.0))
        k += 1
    if grid[-1] < 1.0:
        grid.append(1.0)
    return grid


def threshold_search(probs_clean: np.ndarray, gold: Sequence[int],
                     probs_invalid: np.ndarray, tolerance: float) -> float:
    """Grid search over [1/N, 1]: keep thresholds whose clean accuracy stays
    within `tolerance` of the unthresholded accuracy on `probs_clean`, then
    pick the one maximizing invalid detection (smallest theta on ties)."""
    if len(probs_clean) == 0 or len(probs_invalid) == 0:
        raise ArgumentError("both prediction sets must be non-empty")
    if not tolerance >= 0:
        raise ArgumentError(f"tolerance must be at least 0, got {tolerance}")
    conf_clean, conf_invalid = probs_clean.max(axis=1), probs_invalid.max(axis=1)
    correct = probs_clean.argmax(axis=1) == np.asarray(gold)
    floor = np.count_nonzero(correct) / len(conf_clean) - tolerance
    best_theta, best_detect = None, -1.0
    for theta in threshold_grid(probs_clean.shape[1]):
        acc = np.count_nonzero(correct & (conf_clean >= theta)) / len(conf_clean)
        if acc < floor:
            continue
        detect = np.count_nonzero(conf_invalid < theta) / len(conf_invalid)
        if detect > best_detect:
            best_theta, best_detect = theta, detect
    if best_theta is None:
        log.warning("no feasible threshold; falling back to 1/N")
        return 1.0 / probs_clean.shape[1]
    return best_theta


def train_invalid_class(augmented: Dataset, warm: toyclf.ToyModelParams, epochs: int,
                        batch_size: int, lr: float, seed: int) -> toyclf.ToyModelParams:
    """Cross-entropy training over N+1 classes (last = invalid), from `warm`
    with its head widened by one zero column."""
    w = np.concatenate([warm.w, np.zeros((warm.w.shape[0], 1))], axis=1)
    b = np.concatenate([warm.b, [0.0]])
    return toyclf.train(augmented, epochs, batch_size, lr, seed,
                        warm=warm._replace(w=w, b=b))


def _balanced_union(per_transform: dict[str, list[Example]]) -> dict[str, list[Example]]:
    """Equal example counts per transform kind."""
    if not per_transform:
        return {}
    n = min(len(v) for v in per_transform.values())
    rng = random.Random(0)
    out = {}
    for kind, examples in sorted(per_transform.items()):
        idx = sorted(rng.sample(range(len(examples)), n)) if len(examples) > n \
            else range(len(examples))
        out[kind] = [examples[i] for i in idx]
    return out


def evaluate_mitigation(strategy: str, params: toyclf.ToyModelParams,
                        clean_val: Dataset,
                        invalid_by_transform: dict[str, list[Example]],
                        theta: Optional[float] = None,
                        lambda_ent: Optional[float] = None,
                        baseline_accuracy: Optional[float] = None) -> MitigationReport:
    """Clean accuracy plus %-invalid-detected, overall and per transform.

    Detection: invalid-class strategy predicts the extra class; threshold
    strategies flag confidence below theta. On the clean side an example is
    correct only when predicted valid AND matching gold; `clean_val` carries
    the task labels only.
    """
    invalid_by_transform = _balanced_union(invalid_by_transform)
    n_task = clean_val.labels.n_classes

    def flagged(probs: np.ndarray) -> np.ndarray:
        if strategy == "invalid_class":
            return probs.argmax(axis=1) == n_task
        return probs.max(axis=1) < theta

    probs = toyclf.probabilities(params, clean_val.examples)
    gold = np.array([ex.gold_label for ex in clean_val.examples])
    correct = int(np.count_nonzero(~flagged(probs)
                                   & (probs[:, :n_task].argmax(axis=1) == gold)))
    clean_acc = 100.0 * correct / len(clean_val)

    per_transform = {}
    total_flagged, total_n = 0, 0
    for kind, examples in invalid_by_transform.items():
        flagged_n = int(np.count_nonzero(flagged(toyclf.probabilities(params, examples))))
        per_transform[kind] = 100.0 * flagged_n / len(examples)
        total_flagged += flagged_n
        total_n += len(examples)
    overall = 100.0 * total_flagged / total_n if total_n else 0.0

    return MitigationReport(strategy, clean_acc, overall, per_transform,
                            theta=theta, lambda_ent=lambda_ent,
                            baseline_accuracy=baseline_accuracy)


def run_strategy(strategy: str, baseline: toyclf.ToyModelParams,
                 generators: dict[int, GeneratorModel], train_ds: Dataset, val_ds: Dataset,
                 kinds: Sequence[str], seed: int, epochs: int, batch_size: int, lr: float,
                 fraction: float, lambda_ent: float, tolerance: float
                 ) -> tuple[toyclf.ToyModelParams, MitigationReport]:
    """One of STRATEGIES from a trained baseline: the mitigated parameters and their
    report on `val_ds` and its invalid rows per kind. A kind with no such row is left
    out with a warning; none left is a DataError, before any fine-tune."""
    if strategy not in STRATEGIES:
        raise ArgumentError(f"unknown strategy {strategy!r}; use one of {', '.join(STRATEGIES)}")
    provider = EmbeddedProvider(baseline)
    vocab = list(baseline.vocab[1:])
    invalid_val = {kind: list(rows.values()) for kind, rows in invalid_by_kind(
        val_ds.examples, kinds, val_ds.task_kind, provider, generators, vocab, seed).items()
        if rows}
    for kind in (k for k in kinds if k not in invalid_val):
        log.warning("%s: no validation row; left out of the report", kind)
    if not invalid_val:
        raise DataError(f"no validation row survives any transform ({', '.join(kinds)})")

    def invalid_train():  # called inline, so no unlabeled copy outlives its use
        return augment(train_ds, kinds, fraction, seed, provider, generators, vocab)

    theta = None
    if strategy == "invalid-class":
        params = train_invalid_class(balance_clean(train_ds, invalid_train()), baseline,
                                     epochs, batch_size, lr, seed)
    else:
        params = baseline if strategy == "threshold" else train_entropic(
            baseline, train_ds, Dataset(tuple(invalid_train()), train_ds.labels,
                                        train_ds.task_kind),
            lambda_ent, epochs, batch_size, lr, seed)
        params = toyclf.calibrated(params, val_ds)
        scaled = EmbeddedProvider(params)
        gold = [ex.gold_label for ex in val_ds.examples]
        theta = threshold_search(
            scaled.predict_batch(val_ds.examples), gold,
            scaled.predict_batch([ex for v in invalid_val.values() for ex in v]), tolerance)
    return params, evaluate_mitigation(
        strategy.replace("-", "_"), params, val_ds, invalid_val, theta=theta,
        lambda_ent=lambda_ent if strategy == "entropic-threshold" else None,
        baseline_accuracy=100 * toyclf.accuracy(baseline, val_ds))

"""Mitigation strategies and analysis experiments: augmentation with invalid
examples, entropic-regularization training, probability thresholding,
invalid-as-extra-class training, the transferability matrix, and the
train-on-invalid experiment."""

from __future__ import annotations

import logging
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import Dataset, Example, LabelSet, tokenize
from .errors import ArgumentError, ConfigError, DegenerateInputError
from .gradient import apply_gradient
from .lexical import (ALL_KINDS, GRADIENT_KINDS, LEXICAL_KINDS, PAIR_ONLY_KINDS,
                      TransformedExample, TransformSpec, apply_lexical, side_rule)
from .pbsmt import GeneratorModel, generate_invalid
from . import toyclf

log = logging.getLogger(__name__)

INVALID_LABEL = "invalid"
THRESHOLD_STEP = 0.001

# transforms that alter token content (vs. pure reorderings)
CONTENT_CHANGING_KINDS = ("copysort", "drop", "repeat", "replace", "copyone", "pbsmt")


@dataclass(frozen=True)
class MitigationConfig:
    strategy: str = "invalid_class"   # threshold | entropic_threshold | invalid_class
    lambda_ent: float = 0.1
    augment_fraction: float = 0.5
    transforms: tuple[str, ...] = ALL_KINDS
    accuracy_tolerance: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in ("threshold", "entropic_threshold", "invalid_class"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if not 0.0 < self.augment_fraction <= 1.0:
            raise ConfigError("augment_fraction must be in (0,1]")
        bad = set(self.transforms) - set(ALL_KINDS)
        if bad:
            raise ConfigError(f"unknown transforms {sorted(bad)}")


@dataclass(frozen=True)
class MitigationReport:
    strategy: str
    clean_accuracy: float
    invalid_detected: float
    per_transform_detection: dict
    theta: Optional[float] = None
    lambda_ent: Optional[float] = None
    baseline_accuracy: Optional[float] = None

    def __post_init__(self):
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


def scored_side(kind: str, task_kind: str) -> str:
    """The side a gradient kind scores: the side it reads (lexical.side_rule)."""
    return side_rule(kind, task_kind == "pair")[0]


def score_saliency(provider, examples: Sequence[Example], kinds: Sequence[str],
                   task_kind: str) -> dict[str, list]:
    """Saliency of every example, once per side that the gradient kinds among
    `kinds` need; maps side -> scores aligned with `examples`."""
    sides = sorted({scored_side(k, task_kind) for k in kinds if k in GRADIENT_KINDS})
    if sides and provider is None:
        raise ConfigError("gradient transforms need a saliency provider")
    return {side: provider.saliency_batch(examples, side) for side in sides}


def transform_examples(examples: Sequence[Example], kind: str, task_kind: str,
                       seed: int = 0, r: float = 0.5,
                       saliency: Optional[dict[str, list]] = None,
                       generators: Optional[dict[int, GeneratorModel]] = None,
                       vocab: Optional[Sequence[str]] = None
                       ) -> list[TransformedExample]:
    """Applies one kind to every example; gradient kinds read `saliency`
    (score_saliency over the same examples). Rows are named `{id}__{kind}`
    (`{id}__shuffle:{seed}`); rows too small for the kind are skipped and
    logged with a count per reason. A replace vocabulary entry that is not a
    token (one that tokenize() returns unchanged) is an ArgumentError."""
    if kind == "replace":  # once per set, so no seed decides whether it fails
        bad = next((v for v in vocab or () if tokenize(v) != (v,)), None)
        if bad is not None:
            raise ArgumentError(f"vocabulary entry {bad!r} is not a token")
    scores = saliency[scored_side(kind, task_kind)] if kind in GRADIENT_KINDS else None
    spec = TransformSpec(kind=kind, seed=seed, r=r)
    suffix = f"{kind}:{seed}" if kind == "shuffle" else kind
    out, skipped = [], Counter()
    for i, ex in enumerate(examples):
        try:
            if kind in LEXICAL_KINDS:
                new_input = apply_lexical(ex, spec)
            elif kind in GRADIENT_KINDS:
                new_input = apply_gradient(ex, spec, scores[i], vocab=vocab)
            else:
                new_input = generate_invalid(ex, generators or {}, task_kind)
        except DegenerateInputError as e:
            skipped[str(e)] += 1
            continue
        out.append(TransformedExample(
            Example(f"{ex.id}__{suffix}", new_input, ex.gold_label), ex.id, spec))
    for reason, n in sorted(skipped.items()):
        log.warning("%s: skipped %d of %d rows: %s", suffix, n, len(examples), reason)
    return out


def make_invalid_examples(examples: Sequence[Example], kinds: Sequence[str],
                          task_kind: str, saliency_provider=None,
                          pbsmt_models: Optional[dict[int, GeneratorModel]] = None,
                          vocab: Optional[Sequence[str]] = None, seed: int = 0,
                          invalid_label: Optional[int] = None) -> list[Example]:
    """One invalid example per (source example, transform kind), labeled
    `invalid_label`, ordered by source and then by kind.

    Gradient kinds need a saliency provider, pbsmt needs trained generators;
    unavailable kinds are skipped with a warning.
    """
    usable, skipped = resolve_kinds(kinds, task_kind, saliency_provider is not None,
                                    bool(pbsmt_models))
    for kind, reason in skipped:
        log.warning("skipping %s: %s", kind, reason)
    if not usable:
        raise ConfigError("no applicable transforms for this configuration")
    saliency = score_saliency(saliency_provider, examples, usable, task_kind)
    by_kind = [{tx.source_id: tx.example for tx in transform_examples(
                   examples, kind, task_kind, seed, saliency=saliency,
                   generators=pbsmt_models, vocab=vocab)}
               for kind in usable]
    return [Example(rows[ex.id].id, rows[ex.id].input, invalid_label)
            for ex in examples for rows in by_kind if ex.id in rows]


def augment(ds: Dataset, cfg: MitigationConfig, saliency_provider=None,
            pbsmt_models=None, vocab=None) -> tuple[Dataset, tuple[bool, ...]]:
    """Append invalid examples built from a seeded sample of the training set.

    For the invalid_class strategy the invalid examples carry label index N
    (a new class); otherwise they are unlabeled and flagged. Returns the
    augmented dataset and a per-example invalid flag vector.
    """
    rng = random.Random(cfg.seed)
    n_sample = math.ceil(cfg.augment_fraction * len(ds))
    sampled = sorted(rng.sample(range(len(ds)), n_sample))
    sources = [ds.examples[i] for i in sampled]

    invalid_label = ds.labels.n_classes if cfg.strategy == "invalid_class" else None
    invalid = make_invalid_examples(
        sources, cfg.transforms, ds.task_kind, saliency_provider,
        pbsmt_models, vocab, cfg.seed, invalid_label)

    if cfg.strategy == "invalid_class":
        labels = LabelSet(ds.labels.names + (INVALID_LABEL,), ds.labels.default_label)
    else:
        labels = ds.labels
    examples = ds.examples + tuple(invalid)
    flags = (False,) * len(ds.examples) + (True,) * len(invalid)
    return Dataset(examples, labels, ds.task_kind), flags


def balance_clean(augmented: Dataset, flags: Sequence[bool]) -> Dataset:
    """Oversample the clean portion of an augmented dataset.

    With one invalid example per (source, kind) the invalid class outnumbers
    every task class; repeating the clean examples the (rounded, at least 1)
    invalid/clean ratio of times restores rough class balance so the
    detector does not sacrifice clean accuracy.
    """
    clean = tuple(e for e, f in zip(augmented.examples, flags) if not f)
    invalid = tuple(e for e, f in zip(augmented.examples, flags) if f)
    if not clean:
        raise ArgumentError("augmented dataset has no clean examples")
    return Dataset(clean * max(1, round(len(invalid) / len(clean))) + invalid,
                   augmented.labels, augmented.task_kind)


def train_entropic(warm: toyclf.ToyModelParams, clean: Dataset, invalid: Dataset,
                   lambda_ent: float, train_cfg: toyclf.TrainConfig
                   ) -> toyclf.ToyModelParams:
    """Continue training from baseline weights, maximizing prediction entropy
    on invalid examples alongside the clean cross-entropy loss."""
    cfg = toyclf.LossConfig("entropic", lambda_ent=lambda_ent)
    return toyclf.train(clean, cfg, train_cfg, warm=warm, invalid_ds=invalid)


def threshold_grid(n_classes: int, step: float = THRESHOLD_STEP) -> list[float]:
    lo = 1.0 / n_classes
    grid = []
    k = 0
    while True:
        theta = lo + k * step
        if theta > 1.0 + 1e-12:
            break
        grid.append(min(theta, 1.0))
        k += 1
    if grid[-1] < 1.0:
        grid.append(1.0)
    return grid


def threshold_search(probs_clean: np.ndarray, gold: Sequence[int],
                     probs_invalid: np.ndarray,
                     baseline_accuracy: float, cfg: MitigationConfig) -> float:
    """Grid search over [1/N, 1]: keep thresholds whose clean accuracy stays
    within tolerance of baseline, then pick the one maximizing invalid
    detection (smallest theta on ties)."""
    if len(probs_clean) == 0 or len(probs_invalid) == 0:
        raise ArgumentError("both prediction sets must be non-empty")
    conf_clean, conf_invalid = probs_clean.max(axis=1), probs_invalid.max(axis=1)
    correct = probs_clean.argmax(axis=1) == np.asarray(gold)
    best_theta, best_detect = None, -1.0
    for theta in threshold_grid(probs_clean.shape[1]):
        acc = np.count_nonzero(correct & (conf_clean >= theta)) / len(conf_clean)
        if acc < baseline_accuracy - cfg.accuracy_tolerance:
            continue
        detect = np.count_nonzero(conf_invalid < theta) / len(conf_invalid)
        if detect > best_detect:
            best_theta, best_detect = theta, detect
    if best_theta is None:
        log.warning("no feasible threshold; falling back to 1/N")
        return 1.0 / probs_clean.shape[1]
    return best_theta


def train_invalid_class(augmented: Dataset, train_cfg: toyclf.TrainConfig,
                        warm: Optional[toyclf.ToyModelParams] = None
                        ) -> toyclf.ToyModelParams:
    """Standard cross-entropy training over N+1 classes (last = invalid)."""
    if warm is not None:
        # widen the head by one output column, keeping learned weights
        w = np.concatenate([warm.w, np.zeros((warm.w.shape[0], 1))], axis=1)
        b = np.concatenate([warm.b, [0.0]])
        warm = replace(warm, w=w, b=b)
    return toyclf.train(augmented, toyclf.LossConfig("cross_entropy"), train_cfg,
                        warm=warm, n_classes=augmented.labels.n_classes)


def _balanced_union(per_transform: dict[str, list[Example]],
                    seed: int = 0) -> dict[str, list[Example]]:
    """Equal example counts per transform kind."""
    if not per_transform:
        return {}
    n = min(len(v) for v in per_transform.values())
    rng = random.Random(seed)
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


def transfer_matrix(ds_train: Dataset, invalid_train_by_kind: dict[str, list[Example]],
                    invalid_val_by_kind: dict[str, list[Example]],
                    train_cfg: toyclf.TrainConfig,
                    warm: Optional[toyclf.ToyModelParams] = None
                    ) -> tuple[list[str], np.ndarray]:
    """Detection rates of invalid-class detectors trained on one kind and
    evaluated on every kind. Rows = training kind, columns = eval kind."""
    kinds = sorted(set(invalid_train_by_kind) & set(invalid_val_by_kind))
    if not kinds:
        raise ArgumentError("no transform kinds shared between train and eval sets")
    n_task = ds_train.labels.n_classes
    labels = LabelSet(ds_train.labels.names + (INVALID_LABEL,),
                      ds_train.labels.default_label)
    matrix = np.zeros((len(kinds), len(kinds)))
    for i, train_kind in enumerate(kinds):
        invalid = [Example(ex.id, ex.input, n_task)
                   for ex in invalid_train_by_kind[train_kind]]
        augmented = Dataset(ds_train.examples + tuple(invalid), labels,
                            ds_train.task_kind)
        params = train_invalid_class(augmented, train_cfg, warm=warm)
        for j, eval_kind in enumerate(kinds):
            probs = toyclf.probabilities(params, invalid_val_by_kind[eval_kind])
            flagged = np.count_nonzero(probs.argmax(axis=1) == n_task)
            matrix[i, j] = 100.0 * flagged / len(probs)
    return kinds, matrix


def train_on_invalid_experiment(ds_train: Dataset, ds_val: Dataset, kind: str,
                                train_cfg: toyclf.TrainConfig,
                                saliency_provider=None, pbsmt_models=None,
                                vocab=None, r: float = 0.5, seed: int = 0) -> float:
    """Transform the whole training set (labels kept), train from scratch,
    and report accuracy on the untransformed validation set."""
    saliency = score_saliency(saliency_provider, ds_train.examples, [kind],
                              ds_train.task_kind)
    transformed = transform_examples(ds_train.examples, kind, ds_train.task_kind,
                                     seed, r, saliency, pbsmt_models, vocab)
    ds = Dataset(tuple(tx.example for tx in transformed), ds_train.labels,
                 ds_train.task_kind)
    params = toyclf.train(ds, toyclf.LossConfig("cross_entropy"), train_cfg)
    return toyclf.accuracy(params, ds_val)

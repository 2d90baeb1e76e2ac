"""Embedded toy text classifier with analytic gradients.

Mean-pooled bag-of-embeddings with a linear head: intentionally order-blind,
so any pure reordering of an input leaves the prediction exactly unchanged,
while still providing nontrivial input-embedding gradients for token
saliency. All gradients are computed in closed form; training is plain
seeded mini-batch gradient descent for determinism.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

# tokenize: perfbench/tracer.py counts the calls made through this name
from .corpus import Dataset, Example, tokenize  # noqa: F401
from .errors import (ArgumentError, DegenerateInputError, TrainingError)

log = logging.getLogger(__name__)

UNK = "<unk>"
# Token rows gathered at a time in a forward pass and in saliency: bounds the
# (tokens x dim) copies of embedding rows, which otherwise grow with the
# batch. Each chunk adds in the same order, so results are bit-identical.
CHUNK_TOKENS = 512


@dataclass(frozen=True)
class ToyModelParams:
    vocab: tuple[str, ...]            # row 0 is the UNK token
    emb: np.ndarray                   # V x d
    w: np.ndarray                     # (k*d) x N
    b: np.ndarray                     # N
    temperature: float = 1.0
    task_kind: str = "single"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ArgumentError("temperature must be positive")
        k = 2 if self.task_kind == "pair" else 1
        if self.w.shape[0] != k * self.emb.shape[1]:
            raise ArgumentError("head width does not match pooled dimension")

    @property
    def n_classes(self) -> int:
        return self.w.shape[1]

    @property
    def dim(self) -> int:
        return self.emb.shape[1]


@dataclass(frozen=True)
class LossConfig:
    kind: str = "cross_entropy"       # cross_entropy | label_smoothing | focal | entropic
    lambda_ls: float = 0.1
    gamma: float = 2.0
    lambda_ent: float = 0.1

    def __post_init__(self):
        if self.kind not in ("cross_entropy", "label_smoothing", "focal", "entropic"):
            raise ArgumentError(f"unknown loss kind {self.kind!r}")
        if not 0.0 <= self.lambda_ls < 1.0:
            raise ArgumentError("lambda_ls must be in [0,1)")
        if self.gamma < 0:
            raise ArgumentError("gamma must be >= 0")
        if self.lambda_ent < 0:
            raise ArgumentError("lambda_ent must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    batch_size: int = 16
    learning_rate: float = 5.0
    seed: int = 0
    dim: int = 32

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.learning_rate <= 0 or self.dim < 1:
            raise ArgumentError("TrainConfig values must be positive")


def build_vocab(ds: Dataset) -> tuple[str, ...]:
    return (UNK,) + tuple(sorted({t for ex in ds.examples for side in "ab"
                                  for t in ex.input.tokens(side) or ()}))


def init_params(vocab: Sequence[str], dim: int, n_classes: int,
                task_kind: str, seed: int) -> ToyModelParams:
    rng = np.random.default_rng(seed)
    k = 2 if task_kind == "pair" else 1
    emb = rng.normal(0.0, 0.1, size=(len(vocab), dim))
    w = np.zeros((k * dim, n_classes))
    b = np.zeros(n_classes)
    return ToyModelParams(tuple(vocab), emb, w, b, 1.0, task_kind)


@dataclass(frozen=True)
class Encoding:
    """Examples as token ids: per model side (text_a, then text_b on pair
    models) one flat array, example by example."""
    ids: tuple[np.ndarray, ...]       # per side: vocab row of each token
    lengths: tuple[np.ndarray, ...]   # per side: tokens per example

    def __len__(self) -> int:
        return len(self.lengths[0])

    @cached_property
    def owner(self) -> tuple[np.ndarray, ...]:   # per side: each token's example
        return tuple(np.repeat(np.arange(len(n)), n) for n in self.lengths)

    @cached_property
    def starts(self) -> tuple[np.ndarray, ...]:  # per side: each example's first token
        return tuple(np.cumsum(n) - n for n in self.lengths)

    def take(self, rows: np.ndarray) -> "Encoding":
        """The encoding of the examples at `rows`, in that order."""
        ids = []
        for side, lengths, starts in zip(self.ids, self.lengths, self.starts):
            n = lengths[rows]
            shift = starts[rows] - (np.cumsum(n) - n)
            ids.append(side[np.arange(n.sum()) + np.repeat(shift, n)])
        return Encoding(tuple(ids), tuple(lengths[rows] for lengths in self.lengths))


def encode(params: ToyModelParams, examples: Sequence[Example]) -> Encoding:
    """The one place a row's tokens become model input; unknown words map to
    row 0. An empty side, or a pair example without text_b, is degenerate."""
    index = {s: i for i, s in enumerate(params.vocab)}
    ids, lengths = [], []
    for side in ("a", "b") if params.task_kind == "pair" else ("a",):
        rows = [ex.input.tokens(side) for ex in examples]
        for ex, tokens in zip(examples, rows):
            if tokens is None:
                raise DegenerateInputError(f"example {ex.id} lacks text_b for a pair model")
            if not tokens:
                raise DegenerateInputError("empty token sequence")
        ids.append(np.fromiter(map(index.get, chain.from_iterable(rows), repeat(0)), dtype=int))
        lengths.append(np.fromiter(map(len, rows), dtype=int, count=len(rows)))
    return Encoding(tuple(ids), tuple(lengths))


def _gold(examples: Sequence[Example]) -> np.ndarray:
    for ex in examples:
        if ex.gold_label is None:
            raise ArgumentError(f"example {ex.id} lacks a gold label")
    return np.array([ex.gold_label for ex in examples], dtype=int)


def _logits(params: ToyModelParams, enc: Encoding) -> tuple[np.ndarray, np.ndarray]:
    """Pooled sides (B x k*d) and logits (B x N). Token rows are added in
    order and the head is a stack of vector products, so every row equals,
    bit for bit, what its example gives alone."""
    parts = []
    for ids, owner, lengths in zip(enc.ids, enc.owner, enc.lengths):
        sums = np.zeros((len(enc), params.dim))
        for i in range(0, len(ids), CHUNK_TOKENS):
            chunk = slice(i, i + CHUNK_TOKENS)
            np.add.at(sums, owner[chunk], params.emb[ids[chunk]])
        parts.append(sums / lengths[:, None])
    pooled = np.concatenate(parts, axis=1)
    return pooled, (pooled[:, None, :] @ params.w)[:, 0, :] + params.b


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def probabilities(params: ToyModelParams, examples: Sequence[Example]) -> np.ndarray:
    """Class probabilities, one row per example: softmax((pooled @ W + b) / T)."""
    return _softmax(_logits(params, encode(params, examples))[1] / params.temperature)


def forward(params: ToyModelParams, ex: Example) -> np.ndarray:
    """Class probabilities of one example."""
    return probabilities(params, [ex])[0]


def _supervised_loss_and_dz(probs: np.ndarray, y: np.ndarray, cfg: LossConfig,
                            temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-example loss values and gradients w.r.t. the raw logits."""
    b, n = probs.shape
    onehot = np.eye(n)[y]
    probs = np.clip(probs, 1e-300, 1.0)
    p_y = probs[np.arange(b), y][:, None]
    if cfg.kind in ("cross_entropy", "entropic"):
        loss = -np.log(p_y)
        dz = (probs - onehot) / temperature
    elif cfg.kind == "label_smoothing":
        q = (1.0 - cfg.lambda_ls) * onehot + cfg.lambda_ls / n
        loss = -(q * np.log(probs)).sum(axis=1)
        dz = (probs - q) / temperature
    elif cfg.kind == "focal":
        g = cfg.gamma
        loss = -((1.0 - p_y) ** g) * np.log(p_y)
        dl_dpy = g * (1.0 - p_y) ** (g - 1.0) * np.log(p_y) - (1.0 - p_y) ** g / p_y \
            if g > 0 else -1.0 / p_y
        dz = dl_dpy * (p_y * (onehot - probs) / temperature)
    else:
        raise ArgumentError(f"unknown loss kind {cfg.kind!r}")
    return loss.reshape(b), dz


def _entropy_and_dz(probs: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    logp = np.log(np.clip(probs, 1e-300, 1.0))
    plogp = probs * logp
    dh_dz = probs * (plogp.sum(axis=1, keepdims=True) - logp) / temperature
    return -plogp.sum(axis=1), dh_dz


@dataclass
class ParamGrads:
    emb: np.ndarray
    w: np.ndarray
    b: np.ndarray


def loss(params: ToyModelParams, batch: Sequence[Example], cfg: LossConfig,
         invalid_batch: Sequence[Example] = ()) -> float:
    """Mean batch loss. For the entropic kind the objective is
    L_D - lambda * H(invalid), so the entropy on invalid inputs is maximized."""
    values, _ = _supervised_loss_and_dz(probabilities(params, batch), _gold(batch), cfg,
                                        params.temperature)
    result = float(np.cumsum(values)[-1]) / len(batch) if batch else 0.0
    if cfg.kind == "entropic" and invalid_batch:
        h, _ = _entropy_and_dz(probabilities(params, invalid_batch), params.temperature)
        result -= cfg.lambda_ent * float(np.mean(h))
    return result


def _token_grads(params: ToyModelParams, enc: Encoding, dz: np.ndarray,
                 s: int) -> np.ndarray:
    """The gradient at each side-s token's embedding given logit gradients dz."""
    d = params.dim
    owner = enc.owner[s]
    g = (params.w[None] @ dz[:, :, None])[:, s * d:(s + 1) * d, 0][owner]
    g /= enc.lengths[s][owner, None]
    return g


def _grad(params: ToyModelParams, enc: Encoding, gold: np.ndarray,
          cfg: LossConfig) -> tuple[ParamGrads, list[np.ndarray]]:
    """Gradients of the mean loss over the first len(gold) examples of `enc`
    plus the entropy term over the rest, and the scaled per-side token grads."""
    n = len(gold)
    pooled, logits = _logits(params, enc)
    probs = _softmax(logits / params.temperature)
    _, dz = _supervised_loss_and_dz(probs[:n], gold, cfg, params.temperature)
    scale = np.full(len(enc), 1.0 / n if n else 0.0)
    if len(enc) > n:
        scale[n:] = -cfg.lambda_ent / (len(enc) - n)
        dz = np.concatenate([dz, _entropy_and_dz(probs[n:], params.temperature)[1]])
    token_grads = [scale[owner, None] * _token_grads(params, enc, dz, s)
                   for s, owner in enumerate(enc.owner)]
    # token rows go in example by example, then side by side, as one example
    # at a time would add them: a word may sit on both sides of a batch. One
    # flat bincount over row * d + col adds in that order, as np.add.at does
    order = np.argsort(np.concatenate(enc.owner), kind="stable")
    d = params.dim
    cells = np.concatenate(enc.ids)[order, None] * d + np.arange(d)
    emb = np.bincount(cells.ravel(), np.concatenate(token_grads)[order].ravel(),
                      params.emb.size).reshape(params.emb.shape)
    w = (scale[:, None, None] * (pooled[:, :, None] * dz[:, None, :])).sum(axis=0)
    return ParamGrads(emb, w, (scale[:, None] * dz).sum(axis=0)), token_grads


def grad(params: ToyModelParams, batch: Sequence[Example], cfg: LossConfig,
         invalid_batch: Sequence[Example] = ()) -> tuple[ParamGrads, list[list[np.ndarray]]]:
    """Analytic gradients of the mean batch loss.

    Returns parameter gradients plus, per clean example, per-side arrays of
    input-embedding gradients (one row per token).
    """
    enc = encode(params, list(batch) + list(invalid_batch if cfg.kind == "entropic" else ()))
    grads, token_grads = _grad(params, enc, _gold(batch), cfg)
    per_side = [np.split(g, np.cumsum(lengths)[:len(batch)])[:len(batch)]
                for g, lengths in zip(token_grads, enc.lengths)]
    return grads, [list(sides) for sides in zip(*per_side)]


def saliency_batch(params: ToyModelParams, examples: Sequence[Example],
                   side: str = "a") -> list[tuple[float, ...]]:
    """Token scores t_i . dL/dt_i for the cross-entropy loss on one side,
    taken at the gold label, or at the model's prediction for an unlabeled
    example."""
    enc = encode(params, examples)
    probs = _softmax(_logits(params, enc)[1] / params.temperature)
    labels = [ex.gold_label if ex.gold_label is not None else int(np.argmax(p))
              for ex, p in zip(examples, probs)]
    _, dz = _supervised_loss_and_dz(probs, np.array(labels, dtype=int),
                                    LossConfig("cross_entropy"), params.temperature)
    s = 0 if side == "a" or params.task_kind == "single" else 1
    g = _token_grads(params, enc, dz, s)
    ids = enc.ids[s]
    scores = np.empty(len(ids))
    for i in range(0, len(ids), CHUNK_TOKENS):
        chunk = slice(i, i + CHUNK_TOKENS)
        scores[chunk] = (params.emb[ids[chunk]][:, None, :] @ g[chunk, :, None])[:, 0, 0]
    return [tuple(part.tolist()) for part in np.split(scores, np.cumsum(enc.lengths[s]))[:-1]]


def train(ds: Dataset, loss_cfg: LossConfig, train_cfg: TrainConfig,
          warm: Optional[ToyModelParams] = None,
          invalid_ds: Optional[Dataset] = None,
          n_classes: Optional[int] = None) -> ToyModelParams:
    """Seeded mini-batch gradient descent; deterministic per seed.

    For the entropic loss, each step pairs a clean mini-batch with a
    mini-batch cycled from invalid_ds. Both sets are encoded once.
    """
    if len(ds) == 0:
        raise ArgumentError("cannot train on an empty dataset")
    params = warm if warm is not None else init_params(
        build_vocab(ds), train_cfg.dim, n_classes or ds.labels.n_classes, ds.task_kind,
        train_cfg.seed)
    emb, w, b = params.emb.copy(), params.w.copy(), params.b.copy()
    rng = np.random.default_rng(train_cfg.seed)
    invalid = invalid_ds.examples if loss_cfg.kind == "entropic" and invalid_ds else ()
    gold = _gold(ds.examples)
    enc = encode(params, ds.examples + invalid)
    inv_cursor = step = 0
    for _ in range(train_cfg.epochs):
        order = rng.permutation(len(ds))
        for start in range(0, len(ds), train_cfg.batch_size):
            rows = order[start:start + train_cfg.batch_size]
            inv = inv_cursor + np.arange(min(len(rows), len(invalid)))
            inv_cursor += len(inv)
            batch = enc.take(np.concatenate([rows, len(ds) + inv % max(len(invalid), 1)]))
            grads, _ = _grad(replace(params, emb=emb, w=w, b=b), batch, gold[rows], loss_cfg)
            if not all(np.isfinite(g).all() for g in (grads.w, grads.b, grads.emb)):
                raise TrainingError(f"non-finite gradient at step {step}")
            lr = train_cfg.learning_rate
            emb, w, b = emb - lr * grads.emb, w - lr * grads.w, b - lr * grads.b
            step += 1
    return replace(params, emb=emb, w=w, b=b)


def accuracy(params: ToyModelParams, ds: Dataset) -> float:
    predicted = probabilities(params, ds.examples).argmax(axis=1)
    return int(np.count_nonzero(predicted == _gold(ds.examples))) / len(ds)


def _nll(logits: np.ndarray, gold: np.ndarray, temperature: float) -> float:
    # summed in order: np.sum adds pairwise, which rounds differently
    p = _softmax(logits / temperature)[np.arange(len(gold)), gold]
    return -float(np.cumsum(np.log(np.maximum(p, 1e-300)))[-1]) / len(gold)


def nll(params: ToyModelParams, ds: Dataset, temperature: Optional[float] = None) -> float:
    t = temperature if temperature is not None else params.temperature
    return _nll(_logits(params, encode(params, ds.examples))[1], _gold(ds.examples), t)


def fit_temperature(params: ToyModelParams, calibration: Dataset,
                    lo: float = 0.25, hi: float = 5.0, step: float = 0.01) -> float:
    """Grid-search T minimizing calibration NLL. Argmax is T-invariant, so
    accuracy never changes; only confidence does. The logits are computed
    once; each grid point rescales them."""
    if len(calibration) == 0:
        raise ArgumentError("empty calibration set")
    logits = _logits(params, encode(params, calibration.examples))[1]
    gold = _gold(calibration.examples)
    grid = np.arange(round(lo / step), round(hi / step) + 1) * step
    best_t, best_nll = None, np.inf
    for t in grid:
        val = _nll(logits, gold, float(t))
        if val < best_nll - 1e-12:
            best_t, best_nll = float(t), val
    if best_t in (grid[0], grid[-1]):
        log.warning("fitted temperature T = %.2f sits on the %s bound of the "
                    "grid [%.2f, %.2f]; the NLL minimum may lie outside it",
                    best_t, "lower" if best_t == grid[0] else "upper", lo, hi)
    return round(best_t, 10)


def with_temperature(params: ToyModelParams, t: float) -> ToyModelParams:
    return replace(params, temperature=t)


def save_params(params: ToyModelParams, path, meta: Optional[dict] = None) -> None:
    """Binary file: one JSON header line, then little-endian float64 arrays
    (emb, w, b) in row-major order. A .json sidecar carries provenance."""
    header = {
        "vocab_size": len(params.vocab),
        "dim": params.dim,
        "n_classes": params.n_classes,
        "temperature": params.temperature,
        "task_kind": params.task_kind,
        "vocab": list(params.vocab),
    }
    with open(path, "wb") as f:
        f.write((json.dumps(header) + "\n").encode("utf-8"))
        for arr in (params.emb, params.w, params.b):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    if meta is not None:
        with open(str(path) + ".json", "w", encoding="utf-8") as f:
            json.dump(meta, f, indent=2)


def load_params(path) -> ToyModelParams:
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode("utf-8"))
            v, d, n = header["vocab_size"], header["dim"], header["n_classes"]
            k = 2 if header["task_kind"] == "pair" else 1
        except (ValueError, KeyError, TypeError):  # not JSON, or not a params header
            raise ArgumentError(f"{path}: first line is not a params header") from None
        raw = f.read()
    need = (v * d + k * d * n + n) * 8
    if len(raw) != need:
        raise ArgumentError(f"param file truncated: {len(raw)} bytes, expected {need}")
    buf = np.frombuffer(raw, dtype="<f8")
    emb = buf[: v * d].reshape(v, d).copy()
    w = buf[v * d: v * d + k * d * n].reshape(k * d, n).copy()
    b = buf[v * d + k * d * n:].copy()
    return ToyModelParams(tuple(map(sys.intern, header["vocab"])), emb, w, b,
                          header["temperature"], header["task_kind"])

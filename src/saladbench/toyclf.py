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
from itertools import chain, repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

# tokenize: perfbench/tracer.py counts the calls made through this name
from .corpus import Dataset, Example, checked, tokenize, write_file  # noqa: F401
from .errors import (ArgumentError, DegenerateInputError, TrainingError)

log = logging.getLogger(__name__)

UNK = "<unk>"
# Bounds the rows gathered at a time, bit-identically: B examples pooled together,
# padded to their longest row L, have B x L <= CHUNK_TOKENS unless one row is longer.
CHUNK_TOKENS = 512
TAKE_ROWS = 256   # training rows gathered by one Encoding.take, for the steps to slice
GRID_CELLS = 4096  # logit cells fit_temperature rescales at a time
T_MIN, T_MAX, T_STEP = 0.25, 5.0, 0.01   # fit_temperature's grid
LOSSES = ("cross_entropy", "label_smoothing", "focal")   # the first is train's default


@checked
class ToyModelParams(NamedTuple):
    vocab: tuple[str, ...]            # row 0 is the UNK token
    emb: np.ndarray                   # V x d
    w: np.ndarray                     # (k*d) x N
    b: np.ndarray                     # N
    temperature: float = 1.0
    task_kind: str = "single"

    def _check(self):
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


class Encoding:
    """Examples as token ids: per model side (text_a, then text_b on pair
    models) one flat array, example by example."""
    __slots__ = ("ids", "lengths", "starts")

    def __init__(self, ids: tuple[np.ndarray, ...], lengths: tuple[np.ndarray, ...],
                 starts: tuple[np.ndarray, ...]):
        self.ids = ids            # per side: vocab row of each token
        self.lengths = lengths    # per side: tokens per example
        self.starts = starts      # per side: each example's first token

    def __len__(self) -> int:
        return len(self.lengths[0])

    @property
    def owner(self) -> tuple[np.ndarray, ...]:   # per side: each token's example
        return tuple(np.repeat(np.arange(len(n)), n) for n in self.lengths)

    def take(self, rows: np.ndarray) -> "Encoding":
        """The encoding of the examples at `rows`, in that order."""
        sides = []
        for ids, lengths, starts in zip(self.ids, self.lengths, self.starts):
            n = lengths[rows]
            first = np.cumsum(n) - n
            sides.append((ids[np.arange(n.sum()) + np.repeat(starts[rows] - first, n)], n, first))
        return Encoding(*zip(*sides))

    def __getitem__(self, rows: slice) -> "Encoding":
        """The examples in the range `rows` (step 1), viewing these ids."""
        sides = []
        for ids, lengths, starts in zip(self.ids, self.lengths, self.starts):
            n, first = lengths[rows], starts[rows]
            span = slice(first[0], first[-1] + n[-1]) if len(n) else slice(0, 0)
            sides.append((ids[span], n, first - span.start))
        return Encoding(*zip(*sides))


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
    return Encoding(tuple(ids), tuple(lengths), tuple(np.cumsum(n) - n for n in lengths))


def _gold(examples: Sequence[Example]) -> np.ndarray:
    for ex in examples:
        if ex.gold_label is None:
            raise ArgumentError(f"example {ex.id} lacks a gold label")
    return np.array([ex.gold_label for ex in examples], dtype=int)


def _chunks(lengths: np.ndarray) -> list[tuple[int, int, int]]:
    """(first, stop, longest) runs of consecutive examples for CHUNK_TOKENS. Rows
    x running longest never falls, so the rows that fit are a prefix (at least
    one row); each row holds a token, so a run has at most CHUNK_TOKENS rows."""
    sizes, runs, first = lengths.tolist(), [], 0
    if len(sizes) * max(sizes, default=0) <= CHUNK_TOKENS:   # the usual case: one run
        return [(0, len(sizes), max(sizes))] if sizes else []
    while first < len(sizes):
        top = np.maximum.accumulate(lengths[first:first + CHUNK_TOKENS])
        rows = max(int(np.count_nonzero(np.arange(1, len(top) + 1) * top <= CHUNK_TOKENS)), 1)
        runs.append((first, first + rows, int(top[rows - 1])))
        first += rows
    return runs


def _logits(params: ToyModelParams, enc: Encoding) -> tuple[np.ndarray, np.ndarray]:
    """Pooled sides (B x k*d) and logits (B x N). Each chunk is a zeroed (1 + L)
    x B x d block added position by position from its +0.0 row, so a sum takes
    its token rows in order and a +0.0 pad changes nothing; the head is a stack
    of vector products. Each row is bit for bit what its example gives alone."""
    parts, d = [], params.dim
    for ids, lengths, starts in zip(enc.ids, enc.lengths, enc.starts):
        sums = np.zeros((len(enc), d))
        for first, stop, longest in _chunks(lengths):
            rows, t0, t1 = stop - first, starts[first], starts[stop - 1] + lengths[stop - 1]
            block = np.zeros(((longest + 1) * rows, d))   # token j of row r at (j + 1) * rows + r
            lead = (np.arange(rows) - starts[first:stop] * rows).repeat(lengths[first:stop])
            block[np.arange((t0 + 1) * rows, (t1 + 1) * rows, rows) + lead] = params.emb.take(ids[t0:t1], axis=0)
            # numpy adds outer-axis rows in order, but sums single numbers pairwise
            sums[first:stop] = np.add.reduce(block.reshape(-1, rows, d)) if rows * d > 1 else block.cumsum()[-1]
        parts.append(sums / lengths[:, None])
    pooled = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
    return pooled, (pooled[:, None, :] @ params.w)[:, 0, :] + params.b


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def probabilities(params: ToyModelParams, examples: Sequence[Example]) -> np.ndarray:
    """Class probabilities, one row per example: softmax((pooled @ W + b) / T)."""
    return _softmax(_logits(params, encode(params, examples))[1] / params.temperature)


def forward(params: ToyModelParams, ex: Example) -> np.ndarray:
    """Class probabilities of one example."""
    return probabilities(params, [ex])[0]


def _supervised_dz(probs: np.ndarray, y: np.ndarray, temperature: float,
                   loss: str = "cross_entropy", lambda_ls: float = 0.0,
                   gamma: float = 0.0) -> np.ndarray:
    """Gradients of each example's loss w.r.t. the raw logits."""
    probs = np.maximum(probs, 1e-300)   # clipped to [1e-300, 1]: no softmax entry exceeds 1
    onehot = np.arange(probs.shape[1]) == y[:, None]
    if loss == "cross_entropy":
        return (probs - onehot) / temperature
    if loss == "label_smoothing":
        return (probs - ((1.0 - lambda_ls) * onehot + lambda_ls / len(onehot[0]))) / temperature
    g, p_y = gamma, probs[np.arange(len(y)), y][:, None]
    dl_dpy = g * (1.0 - p_y) ** (g - 1.0) * np.log(p_y) - (1.0 - p_y) ** g / p_y \
        if g > 0 else -1.0 / p_y
    return dl_dpy * (p_y * (onehot - probs) / temperature)


def _entropy_dz(probs: np.ndarray, temperature: float) -> np.ndarray:
    logp = np.log(np.clip(probs, 1e-300, 1.0))
    return probs * ((probs * logp).sum(axis=1, keepdims=True) - logp) / temperature


class ParamGrads:
    __slots__ = ("emb", "w", "b")

    def __init__(self, emb: np.ndarray, w: np.ndarray, b: np.ndarray):
        self.emb, self.w, self.b = emb, w, b


def _example_grads(params: ToyModelParams, enc: Encoding, dz: np.ndarray) -> list[np.ndarray]:
    """Per side, the gradient at each of an example's token embeddings (B x d)."""
    d = params.dim
    d_pooled = (params.w[None] @ dz[:, :, None])[:, :, 0]
    return [d_pooled[:, s * d:(s + 1) * d] / n[:, None] for s, n in enumerate(enc.lengths)]


def _grad(params: ToyModelParams, enc: Encoding, gold: np.ndarray, loss: str,
          lambda_ls: float, gamma: float, lambda_ent: float
          ) -> tuple[ParamGrads, list[np.ndarray]]:
    """Gradients of the mean loss over the first len(gold) examples of `enc`
    plus the entropy term over the rest, and the scaled per-side token grads."""
    n = len(gold)
    pooled, logits = _logits(params, enc)
    probs = _softmax(logits / params.temperature)
    dz = _supervised_dz(probs[:n], gold, params.temperature, loss, lambda_ls, gamma)
    scale = 1.0 / n if n else 0.0   # each example's weight: one number, or a column
    if len(enc) > n:
        scale = np.full((len(enc), 1), scale)
        scale[n:] = -lambda_ent / (len(enc) - n)
        dz = np.concatenate([dz, _entropy_dz(probs[n:], params.temperature)])
    token_grads = [(scale * g).repeat(lengths, axis=0)
                   for g, lengths in zip(_example_grads(params, enc, dz), enc.lengths)]
    # token rows go in example by example, then side by side, as one example at a
    # time would add them (a word may sit on both sides); one flat bincount over
    # row * d + col adds in that order, and one side's tokens are in it already
    ids, rows = enc.ids[0], token_grads[0]
    if len(enc.ids) > 1:
        order = np.argsort(np.concatenate(enc.owner), kind="stable")
        ids, rows = np.concatenate(enc.ids)[order], np.concatenate(token_grads)[order]
    cells = ids[:, None] * params.dim + np.arange(params.dim)
    emb = np.bincount(cells.ravel(), rows.ravel(), params.emb.size).reshape(params.emb.shape)
    w = dz[:, :, None] * pooled[:, None, :]   # N x k*d outer products, scaled,
    w *= np.asarray(scale)[..., None]           # summed over the batch in order
    return ParamGrads(emb, np.add.reduce(w).T, np.add.reduce(scale * dz)), token_grads


def saliency_scores(params: ToyModelParams, examples: Sequence[Example],
                    side: str = "a") -> tuple[np.ndarray, np.ndarray]:
    """Token scores t_i . dL/dt_i for the cross-entropy loss on one side,
    taken at the gold label, or at the model's prediction for an unlabeled
    example: every example's scores in one flat array, example by example,
    and the number of scores of each example. A side the model does not read
    is an ArgumentError."""
    sides = ("a", "b") if params.task_kind == "pair" else ("a",)
    if side not in sides:
        raise ArgumentError(f"a {params.task_kind} model has no side {side!r}")
    s = sides.index(side)
    enc = encode(params, examples)
    probs = _softmax(_logits(params, enc)[1] / params.temperature)
    labels = [ex.gold_label if ex.gold_label is not None else int(np.argmax(p))
              for ex, p in zip(examples, probs)]
    dz = _supervised_dz(probs, np.array(labels, dtype=int), params.temperature)
    g, ids, owner = _example_grads(params, enc, dz)[s], enc.ids[s], enc.owner[s]
    scores = np.empty(len(ids))
    for i in range(0, len(ids), CHUNK_TOKENS):
        chunk = slice(i, i + CHUNK_TOKENS)
        scores[chunk] = (params.emb[ids[chunk]][:, None, :] @ g[owner[chunk], :, None])[:, 0, 0]
    return scores, enc.lengths[s]


def split_scores(scores: np.ndarray, lengths: np.ndarray) -> list[tuple[float, ...]]:
    """A flat score array as one tuple per example of `lengths[i]` scores."""
    flat, rows, at = scores.tolist(), [], 0
    for n in lengths.tolist():
        rows.append(tuple(flat[at:at + n]))
        at += n
    return rows


def train(ds: Dataset, epochs: int, batch_size: int, lr: float, seed: int,
          dim: Optional[int] = None, loss: str = "cross_entropy",
          lambda_ls: float = 0.0, gamma: float = 0.0, lambda_ent: float = 0.0,
          warm: Optional[ToyModelParams] = None,
          invalid_ds: Optional[Dataset] = None) -> ToyModelParams:
    """Seeded mini-batch gradient descent; deterministic per seed.

    Trains from `warm` if given, else from a fresh model of embedding width
    `dim` (read only then). `lambda_ls` is the label-smoothing weight and
    `gamma` the focal exponent; at 0 either loss is cross-entropy. Given
    invalid_ds, each step pairs a clean mini-batch with one cycled from it,
    whose entropy (times lambda_ent) it maximizes. Both are encoded once.
    """
    if epochs < 0 or batch_size < 1 or lr <= 0:
        raise ArgumentError(f"epochs must be >= 0, batch_size >= 1 and lr > 0; "
                            f"got {epochs}, {batch_size} and {lr}")
    if dim is not None and dim < 1:
        raise ArgumentError(f"dim must be >= 1, got {dim}")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    if loss not in LOSSES:
        raise ArgumentError(f"unknown loss kind {loss!r}")
    if not 0.0 <= lambda_ls < 1.0:
        raise ArgumentError("lambda_ls must be in [0,1)")
    if gamma < 0:
        raise ArgumentError("gamma must be >= 0")
    if lambda_ent < 0:
        raise ArgumentError("lambda_ent must be >= 0")
    if warm is None and dim is None:
        raise ArgumentError("a fresh model needs dim")
    if len(ds) == 0:
        raise ArgumentError("cannot train on an empty dataset")
    params = warm if warm is not None else init_params(
        build_vocab(ds), dim, ds.labels.n_classes, ds.task_kind, seed)
    v, k = params.emb.size, params.w.size
    theta = np.concatenate([params.emb.ravel(), params.w.ravel(), params.b])   # steps update it
    params = params._replace(emb=theta[:v].reshape(params.emb.shape),          # views of theta
                             w=theta[v:v + k].reshape(params.w.shape), b=theta[v + k:])
    rng = np.random.default_rng(seed)
    invalid = invalid_ds.examples if invalid_ds else ()
    gold = _gold(ds.examples)
    enc = encode(params, ds.examples + invalid)
    inv_cursor, step, bs = 0, 0, batch_size
    run = max(TAKE_ROWS // bs, 1) * bs   # the rows of whole steps, taken at once
    with np.errstate(over="ignore", invalid="ignore"):   # divergence is one TrainingError
        for _ in range(epochs):
            order = rng.permutation(len(ds))
            for first in range(0, len(ds), run):
                picks = []   # per step: its clean rows, then its share of the cycled invalid rows
                for start in range(first, min(first + run, len(ds)), bs):
                    rows = pick = order[start:start + bs]
                    if invalid:
                        inv = inv_cursor + np.arange(min(len(rows), len(invalid)))
                        inv_cursor += len(inv)
                        pick = np.concatenate([rows, len(ds) + inv % len(invalid)])
                    picks.append((rows, pick))
                taken, at = enc.take(np.concatenate([pick for _, pick in picks])), 0
                for rows, pick in picks:
                    batch, at = taken[at:at + len(pick)], at + len(pick)
                    grads, _ = _grad(params, batch, gold[rows], loss, lambda_ls, gamma, lambda_ent)
                    g = np.concatenate([grads.emb.ravel(), grads.w.ravel(), grads.b])
                    if not np.isfinite(g).all():
                        raise TrainingError(f"non-finite gradient at step {step}")
                    theta -= lr * g
                    step += 1
    return params


def accuracy(params: ToyModelParams, ds: Dataset) -> float:
    predicted = probabilities(params, ds.examples).argmax(axis=1)
    return int(np.count_nonzero(predicted == _gold(ds.examples))) / len(ds)


def _nlls(logits: np.ndarray, gold: np.ndarray, temperatures: np.ndarray) -> np.ndarray:
    """Mean NLL of the gold labels at each temperature, GRID_CELLS logit cells
    at a time. Each is summed left to right with cumsum: np.sum adds
    pairwise, which rounds differently."""
    rows, nlls = np.arange(len(gold)), np.empty(len(temperatures))
    step = max(GRID_CELLS // logits.size, 1)
    for first in range(0, len(temperatures), step):
        p = _softmax(logits / temperatures[first:first + step, None, None])[:, rows, gold]
        nlls[first:first + step] = -np.cumsum(np.log(np.maximum(p, 1e-300)), axis=1)[:, -1]
    return nlls / len(gold)


def fit_temperature(params: ToyModelParams, calibration: Dataset) -> float:
    """Grid-search T in [T_MIN, T_MAX], steps of T_STEP, minimizing calibration
    NLL. Argmax is T-invariant, so accuracy never changes; only confidence
    does. The logits are computed once; each grid point rescales them."""
    if len(calibration) == 0:
        raise ArgumentError("empty calibration set")
    logits = _logits(params, encode(params, calibration.examples))[1]
    grid = np.arange(round(T_MIN / T_STEP), round(T_MAX / T_STEP) + 1) * T_STEP
    best_t, best_nll = None, np.inf
    for t, val in zip(grid.tolist(), _nlls(logits, _gold(calibration.examples), grid).tolist()):
        if val < best_nll - 1e-12:
            best_t, best_nll = t, val
    if best_t in (grid[0], grid[-1]):
        log.warning("fitted temperature T = %.2f sits on the %s bound of the "
                    "grid [%.2f, %.2f]; the NLL minimum may lie outside it",
                    best_t, "lower" if best_t == grid[0] else "upper", T_MIN, T_MAX)
    return round(best_t, 10)


def calibrated(params: ToyModelParams, calibration: Dataset) -> ToyModelParams:
    """`params` at the temperature fit_temperature fits on `calibration`."""
    return params._replace(temperature=fit_temperature(params, calibration))


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
    write_file(path, b"".join([(json.dumps(header) + "\n").encode("utf-8")] + [
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for arr in (params.emb, params.w, params.b)]))
    if meta is not None:
        write_file(f"{path}.json", json.dumps(meta, indent=2))


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

"""Gradient-based destructive transformations: Drop, Repeat, Replace, CopyOne.

Tokens are scored by the dot product of their embedding with the loss
gradient at that embedding; the bottom-r fraction (least important) are the
ones dropped or replaced. Every kind reads one ranking per row
(partition_by_importance).
"""

from __future__ import annotations

import functools
import math
import random
from typing import Optional, Sequence

from .corpus import Example, TextInput
from .errors import ArgumentError, DegenerateInputError, UnsupportedTransformError
from .lexical import GRADIENT_KINDS, rewrite


class ImportancePartition:
    """One row's saliency ranking (partition_by_importance), which every gradient kind reads."""
    __slots__ = ("bottom", "top", "n", "best")

    def __init__(self, bottom, top, n=None, best=None):
        self.bottom, self.top, self.n, self.best = bottom, top, n, best


def partition_by_importance(scores: Sequence[float], r: float) -> ImportancePartition:
    """Split positions into the bottom max(1, floor(r*n)) least-important and
    an equally sized (clipped) top set, and find the most salient position
    (copyone's). Ties break toward lower positions."""
    n = len(scores)
    if n == 0:
        raise ArgumentError("empty saliency scores")
    if not 0.0 < r <= 1.0:
        raise ArgumentError(f"r must be in (0,1], got {r}")
    m = max(1, math.floor(r * n))
    by_ascending = sorted(range(n), key=scores.__getitem__)  # stable: ties keep position order
    rest = sorted(by_ascending[m:])
    if len(rest) > m:
        rest = sorted(sorted(rest, key=scores.__getitem__, reverse=True)[:m])
    return ImportancePartition(tuple(sorted(by_ascending[:m])), tuple(rest), n,
                               max(range(n), key=scores.__getitem__))


def drop_tokens(tokens: tuple[str, ...], part: ImportancePartition) -> tuple[str, ...]:
    bottom = set(part.bottom)
    survivors = tuple(s for i, s in enumerate(tokens) if i not in bottom)
    if not survivors:
        raise DegenerateInputError("drop would remove every token")
    return survivors


@functools.lru_cache(maxsize=1024)   # bounded like lexical._orders
def _picks(seed: int, pool: int, picks: int) -> tuple[int, ...]:
    """`picks` uniform draws from range(pool) by one Random(seed): the
    indices a per-row Random(seed) would choose from any pool of that size."""
    rng = random.Random(seed)
    return tuple(rng.choice(range(pool)) for _ in range(picks))


def repeat_tokens(tokens: tuple[str, ...], part: ImportancePartition,
                  seed: int) -> tuple[str, ...]:
    """Replace each bottom token with a uniformly drawn top token."""
    if not part.top:
        raise DegenerateInputError("repeat needs a non-empty top set")
    out = list(tokens)
    for i, k in zip(part.bottom, _picks(seed, len(part.top), len(part.bottom))):
        out[i] = tokens[part.top[k]]
    return tuple(out)


def replace_tokens(tokens: tuple[str, ...], part: ImportancePartition,
                   vocab: Sequence[str], seed: int) -> tuple[str, ...]:
    """Replace each bottom token with a uniform draw from vocab, whose every
    entry must be a token: one that tokenize() returns unchanged
    (mitigate.transform_examples checks a vocabulary once per set)."""
    if not vocab:
        raise ArgumentError("replace needs a non-empty vocabulary")
    out = list(tokens)
    for i, k in zip(part.bottom, _picks(seed, len(vocab), len(part.bottom))):
        out[i] = vocab[k]
    return tuple(out)


def apply_gradient(ex: Example, kind: str, ranking: ImportancePartition, seed: int = 0,
                   vocab: Optional[Sequence[str]] = None) -> TextInput:
    """Apply drop/repeat/replace or copyone to an Example: the positions
    `ranking` holds (partition_by_importance) are edited, with draws by `seed`.

    `ranking` must be built from the scores of the side the kind reads
    (lexical.side_rule: text_a for copyone, whose text_b becomes the single
    most salient token of text_a). A replace vocabulary must hold only
    tokens, as replace_tokens says.
    """
    if kind not in GRADIENT_KINDS:
        raise UnsupportedTransformError(f"{kind} is not a gradient transform")

    def edit(tokens):
        if len(tokens) != ranking.n:
            raise ArgumentError(f"saliency length {ranking.n} != token count {len(tokens)}")
        if kind == "copyone":
            return (tokens[ranking.best],)
        if kind == "drop":
            return drop_tokens(tokens, ranking)
        if kind == "repeat":
            return repeat_tokens(tokens, ranking, seed)
        return replace_tokens(tokens, ranking, vocab, seed)

    return rewrite(ex.input, kind, edit)

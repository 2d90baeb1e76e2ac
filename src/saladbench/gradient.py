"""Gradient-based destructive transformations: Drop, Repeat, Replace, CopyOne.

Tokens are scored by the dot product of their embedding with the loss
gradient at that embedding; the bottom-r fraction (least important) are the
ones dropped or replaced.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .corpus import Example, TextInput
from .errors import ArgumentError, DegenerateInputError, UnsupportedTransformError
from .lexical import GRADIENT_KINDS, rewrite


@dataclass(frozen=True)
class ImportancePartition:
    bottom: tuple[int, ...]
    top: tuple[int, ...]


def partition_by_importance(scores: Sequence[float], r: float) -> ImportancePartition:
    """Split positions into the bottom max(1, floor(r*n)) least-important and
    an equally sized (clipped) top set. Ties break toward lower positions."""
    n = len(scores)
    if n == 0:
        raise ArgumentError("empty saliency scores")
    if not 0.0 < r <= 1.0:
        raise ArgumentError(f"r must be in (0,1], got {r}")
    m = max(1, math.floor(r * n))
    by_ascending = sorted(range(n), key=lambda i: (scores[i], i))
    bottom = sorted(by_ascending[:m])
    below = set(bottom)
    remaining = [i for i in range(n) if i not in below]
    by_descending = sorted(remaining, key=lambda i: (-scores[i], i))
    top = sorted(by_descending[:m])
    return ImportancePartition(tuple(bottom), tuple(top))


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
        raise UnsupportedTransformError("repeat needs a non-empty top set")
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


def apply_gradient(ex: Example, kind: str, scores: Sequence[float], r: float = 0.5,
                   seed: int = 0, vocab: Optional[Sequence[str]] = None) -> TextInput:
    """Apply drop/repeat/replace or copyone to an Example: the bottom-r
    positions (partition_by_importance) are edited, with draws by `seed`.

    `scores` must be aligned with the tokens of the side the kind reads
    (lexical.side_rule: text_a for copyone, whose text_b becomes the single
    most salient token of text_a). A replace vocabulary must hold only
    tokens, as replace_tokens says.
    """
    if kind not in GRADIENT_KINDS:
        raise UnsupportedTransformError(f"{kind} is not a gradient transform")
    if kind == "replace" and vocab is None:
        raise ArgumentError("replace requires a vocabulary")

    def edit(tokens):
        if len(tokens) != len(scores):
            raise ArgumentError(
                f"saliency length {len(scores)} != token count {len(tokens)}")
        if kind == "copyone":
            return (tokens[max(range(len(scores)),
                               key=lambda i: (scores[i], -i))],)
        part = partition_by_importance(scores, r)
        if kind == "drop":
            return drop_tokens(tokens, part)
        if kind == "repeat":
            return repeat_tokens(tokens, part, seed)
        return replace_tokens(tokens, part, vocab, seed)

    return rewrite(ex.input, kind, edit)

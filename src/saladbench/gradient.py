"""Gradient-based destructive transformations: Drop, Repeat, Replace, CopyOne.

Tokens are scored by the dot product of their embedding with the loss
gradient at that embedding; the bottom-r fraction (least important) are the
ones dropped or replaced.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .corpus import Example, TextInput, TokenSeq, detokenize, tokenize
from .errors import ArgumentError, DegenerateInputError, UnsupportedTransformError
from .lexical import TransformSpec, TransformedExample


@dataclass(frozen=True)
class SaliencyScores:
    scores: tuple[float, ...]
    loss_label: Optional[int]         # the label the loss was taken at; None if not known

    def __post_init__(self):
        if any(not math.isfinite(s) for s in self.scores):
            raise ArgumentError("saliency scores must be finite")

    def __len__(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class ImportancePartition:
    bottom: tuple[int, ...]
    top: tuple[int, ...]
    r: float


def partition_by_importance(scores: SaliencyScores, r: float) -> ImportancePartition:
    """Split positions into the bottom max(1, floor(r*n)) least-important and
    an equally sized (clipped) top set. Ties break toward lower positions."""
    n = len(scores)
    if n == 0:
        raise ArgumentError("empty saliency scores")
    if not 0.0 < r <= 1.0:
        raise ArgumentError(f"r must be in (0,1], got {r}")
    m = max(1, math.floor(r * n))
    by_ascending = sorted(range(n), key=lambda i: (scores.scores[i], i))
    bottom = sorted(by_ascending[:m])
    remaining = [i for i in range(n) if i not in set(bottom)]
    by_descending = sorted(remaining, key=lambda i: (-scores.scores[i], i))
    top = sorted(by_descending[:m])
    return ImportancePartition(tuple(bottom), tuple(top), r)


def drop_tokens(seq: TokenSeq, part: ImportancePartition) -> TokenSeq:
    bottom = set(part.bottom)
    survivors = [s for i, s in enumerate(seq.surfaces) if i not in bottom]
    if not survivors:
        raise DegenerateInputError("drop would remove every token")
    return TokenSeq.from_surfaces(survivors)


def repeat_tokens(seq: TokenSeq, part: ImportancePartition, seed: int) -> TokenSeq:
    """Replace each bottom token with a uniformly drawn top token."""
    if not part.top:
        raise UnsupportedTransformError("repeat needs a non-empty top set")
    rng = random.Random(seed)
    top_surfaces = [seq.surfaces[i] for i in part.top]
    out = list(seq.surfaces)
    for i in part.bottom:
        out[i] = rng.choice(top_surfaces)
    return TokenSeq.from_surfaces(out)


def replace_tokens(seq: TokenSeq, part: ImportancePartition,
                   vocab: Sequence[str], seed: int) -> TokenSeq:
    """Replace each bottom token with a uniform draw from vocab."""
    if not vocab:
        raise ArgumentError("replace needs a non-empty vocabulary")
    rng = random.Random(seed)
    out = list(seq.surfaces)
    for i in part.bottom:
        out[i] = rng.choice(list(vocab))
    return TokenSeq.from_surfaces(out)


def copy_one(ex: Example, scores_a: SaliencyScores,
             spec: Optional[TransformSpec] = None) -> TransformedExample:
    """Replace text_b with the single most salient token of text_a."""
    if not ex.input.is_pair:
        raise UnsupportedTransformError("copyone requires a pair-input task")
    seq_a = tokenize(ex.input.text_a)
    if len(seq_a) != len(scores_a):
        raise ArgumentError(
            f"saliency length {len(scores_a)} != token count {len(seq_a)}")
    best = max(range(len(scores_a)), key=lambda i: (scores_a.scores[i], -i))
    spec = spec or TransformSpec(kind="copyone")
    new_input = TextInput(ex.input.text_a, seq_a.surfaces[best])
    return TransformedExample(
        example=Example(ex.id, new_input, ex.gold_label),
        source_id=ex.id,
        transform=spec,
    )


def apply_gradient(ex: Example, spec: TransformSpec, scores: SaliencyScores,
                   vocab: Optional[Sequence[str]] = None) -> TransformedExample:
    """Apply drop/repeat/replace to the targeted side, or copyone.

    `scores` must be aligned with the tokenization of the targeted side
    (text_a for copyone).
    """
    if spec.kind == "copyone":
        return copy_one(ex, scores, spec)
    side = spec.target_side if ex.input.is_pair else "a"
    text = ex.input.text_a if side == "a" else ex.input.text_b
    seq = tokenize(text)
    if len(seq) != len(scores):
        raise ArgumentError(
            f"saliency length {len(scores)} != token count {len(seq)}")
    part = partition_by_importance(scores, spec.r)
    if spec.kind == "drop":
        out = drop_tokens(seq, part)
    elif spec.kind == "repeat":
        out = repeat_tokens(seq, part, spec.seed)
    elif spec.kind == "replace":
        if vocab is None:
            raise ArgumentError("replace requires a vocabulary")
        out = replace_tokens(seq, part, vocab, spec.seed)
    else:
        raise UnsupportedTransformError(f"{spec.kind} is not a gradient transform")
    new_text = detokenize(out)
    if side == "a":
        new_input = TextInput(new_text, ex.input.text_b)
    else:
        new_input = TextInput(ex.input.text_a, new_text)
    return TransformedExample(
        example=Example(ex.id, new_input, ex.gold_label),
        source_id=ex.id,
        transform=spec,
    )

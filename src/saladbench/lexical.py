"""Lexical-overlap destructive transformations: Sort, Reverse, Shuffle, CopySort.

These preserve the token multiset and only change order; a terminal
punctuation mark (. ! ?) stays pinned at the end of the output. The side
rule that every transform kind follows is stated here (`side_rule`).
"""

from __future__ import annotations

import functools
import itertools
import logging
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .corpus import Example, TextInput
from .errors import DegenerateInputError, UnsupportedTransformError

log = logging.getLogger(__name__)

TERMINAL_PUNCT = (".", "!", "?")

LEXICAL_KINDS = ("sort", "reverse", "shuffle", "copysort")
GRADIENT_KINDS = ("drop", "repeat", "replace", "copyone")
ALL_KINDS = LEXICAL_KINDS + GRADIENT_KINDS + ("pbsmt",)
PAIR_ONLY_KINDS = ("copysort", "copyone")
# kinds that read text_a of a pair row (and rewrite its text_b)
COPY_KINDS = ("copysort", "copyone", "pbsmt")


@dataclass(frozen=True)
class TransformSpec:
    kind: str
    seed: int = 0
    r: float = 0.5

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise UnsupportedTransformError(f"unknown transform kind {self.kind!r}")
        if not 0.0 < self.r <= 1.0:
            raise UnsupportedTransformError(f"r must be in (0,1], got {self.r}")

    def tag(self) -> str:
        """Provenance string written to transformed dataset files."""
        return f"{self.kind}:{self.seed}:{self.r}"


@dataclass(frozen=True, slots=True)
class TransformedExample:
    example: Example
    source_id: str
    transform: TransformSpec


def side_rule(kind: str, is_pair: bool) -> tuple[str, str]:
    """(the side `kind` reads, the side it rewrites). Every transform rewrites
    text_b of a pair row and text_a of a single row; copysort, copyone and
    pbsmt read text_a, every other kind reads the side it rewrites."""
    written = "b" if is_pair else "a"
    return ("a" if kind in COPY_KINDS else written), written


def rewrite(inp: TextInput, kind: str,
            edit: Callable[[tuple[str, ...]], tuple[str, ...]]) -> TextInput:
    """`inp` with `edit` applied under the side rule: `edit` gets the tokens
    of the side `kind` reads, and its output replaces the side `kind`
    rewrites and becomes that side's tokens (`TextInput.with_side`)."""
    if kind in PAIR_ONLY_KINDS and not inp.is_pair:
        raise UnsupportedTransformError(f"{kind} requires a pair-input task")
    read, written = side_rule(kind, inp.is_pair)
    return inp.with_side(written, edit(inp.tokens(read)))


def _split_terminal(tokens: tuple[str, ...]) -> tuple[list[str], Optional[str]]:
    if tokens and tokens[-1] in TERMINAL_PUNCT:
        return list(tokens[:-1]), tokens[-1]
    return list(tokens), None


def _rebuild(content: list[str], terminal: Optional[str]) -> tuple[str, ...]:
    if terminal is not None:
        content = content + [terminal]
    return tuple(content)


def sort_tokens(tokens: tuple[str, ...]) -> tuple[str, ...]:
    """Lexicographic stable sort; terminal punctuation stays last."""
    if len(tokens) == 0:
        raise DegenerateInputError("cannot sort an empty sequence")
    content, terminal = _split_terminal(tokens)
    content.sort(key=str.casefold)
    return _rebuild(content, terminal)


def reverse_tokens(tokens: tuple[str, ...]) -> tuple[str, ...]:
    if len(tokens) == 0:
        raise DegenerateInputError("cannot reverse an empty sequence")
    content, terminal = _split_terminal(tokens)
    content.reverse()
    return _rebuild(content, terminal)


def _bigrams(tokens) -> set[tuple[str, str]]:
    return set(zip(tokens, tokens[1:]))


def shuffle_with_report(tokens: tuple[str, ...], seed: int, max_attempts: int = 100
                        ) -> tuple[tuple[str, ...], int, bool]:
    """Shuffle until no ordered bigram of the input survives.

    Returns (shuffled, shared_bigram_count, exhausted). When no bigram-free
    permutation is found within max_attempts, the best attempt seen is
    returned with exhausted=True.
    """
    content, terminal = _split_terminal(tokens)
    if len(content) < 2:
        raise DegenerateInputError("shuffle needs at least 2 content tokens")
    rng = random.Random(seed)
    forbidden = _bigrams(tokens)
    best: Optional[list[str]] = None
    best_shared = len(forbidden) + 1
    for _ in range(max_attempts):
        candidate = list(content)
        rng.shuffle(candidate)
        out = _rebuild(candidate, terminal)
        shared = len(_bigrams(out) & forbidden)
        if shared == 0:
            return out, 0, False
        if shared < best_shared:
            best, best_shared = candidate, shared
    log.warning("shuffle exhausted %d attempts; best attempt shares %d bigrams",
                max_attempts, best_shared)
    return _rebuild(best, terminal), best_shared, True


def shuffle_tokens(tokens: tuple[str, ...], seed: int) -> tuple[str, ...]:
    out, _, _ = shuffle_with_report(tokens, seed)
    return out


def apply_lexical(ex: Example, spec: TransformSpec) -> TextInput:
    """Apply one of the four lexical kinds to an Example per its spec."""
    if spec.kind in ("sort", "copysort"):
        edit = sort_tokens
    elif spec.kind == "reverse":
        edit = reverse_tokens
    elif spec.kind == "shuffle":
        edit = functools.partial(shuffle_tokens, seed=spec.seed)
    else:
        raise UnsupportedTransformError(f"{spec.kind} is not a lexical transform")
    return rewrite(ex.input, spec.kind, edit)


def bigram_free_permutation_exists(tokens: tuple[str, ...]) -> bool:
    """Exhaustive check (intended for short sequences) that some permutation
    of the content tokens shares no ordered bigram with the input."""
    content, terminal = _split_terminal(tokens)
    forbidden = _bigrams(tokens)
    for perm in itertools.permutations(content):
        if not (_bigrams(_rebuild(list(perm), terminal)) & forbidden):
            return True
    return False

"""Lexical-overlap destructive transformations: Sort, Reverse, Shuffle, CopySort.

These preserve the token multiset and only change order; a terminal
punctuation mark (. ! ?) stays pinned at the end of the output. The side
rule that every transform kind follows is stated here (`side_rule`).
"""

from __future__ import annotations

import functools
import logging
import random
from typing import Callable, Optional

from .corpus import Example, TextInput
from .errors import ArgumentError, DegenerateInputError, UnsupportedTransformError

log = logging.getLogger(__name__)

TERMINAL_PUNCT = (".", "!", "?")

LEXICAL_KINDS = ("sort", "reverse", "shuffle", "copysort")
GRADIENT_KINDS = ("drop", "repeat", "replace", "copyone")
ALL_KINDS = LEXICAL_KINDS + GRADIENT_KINDS + ("pbsmt",)
PAIR_ONLY_KINDS = ("copysort", "copyone")
# kinds that read text_a of a pair row (and rewrite its text_b)
COPY_KINDS = ("copysort", "copyone", "pbsmt")


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


@functools.lru_cache(maxsize=1024)
def _orders(seed: int, n: int, count: int) -> tuple[tuple[int, ...], ...]:
    """The first `count` shuffles of range(n) by one Random(seed): the orders
    a per-row Random(seed) would try on any n content tokens, as a shuffle
    draws by length alone. Bounded: a caller may give each row its own seed."""
    rng, orders = random.Random(seed), [list(range(n)) for _ in range(count)]
    for order in orders:
        rng.shuffle(order)
    return tuple(map(tuple, orders))


def _search(content: list, terminal, seed: int, max_attempts: int
            ) -> tuple[tuple[int, ...], int, bool]:
    """(order, shared, exhausted): the bigram-free search over content + terminal."""
    tail = [terminal] if terminal is not None else []
    forbidden = _bigrams(content + tail)
    best, best_shared = None, len(forbidden) + 1
    tried, count = 0, 1
    while tried < max_attempts:
        for order in _orders(seed, len(content), count)[tried:]:
            out = [content[i] for i in order] + tail
            shared = len(forbidden.intersection(zip(out, out[1:])))
            if shared == 0:
                return order, 0, False
            if shared < best_shared:
                best, best_shared = order, shared
        tried, count = count, min(2 * count, max_attempts)
    return best, best_shared, True


@functools.lru_cache(maxsize=1024)
def _shape_search(seed: int, n: int, terminal: bool, max_attempts: int
                  ) -> tuple[tuple[int, ...], int, bool]:
    """`_search` for every row of n distinct content tokens (and a terminal
    unlike them): with no repeated token, whether an order shares a bigram
    depends on positions alone, so a stand-in row of distinct ints decides it."""
    return _search(list(range(n)), -1 if terminal else None, seed, max_attempts)


def shuffle_with_report(tokens: tuple[str, ...], seed: int, max_attempts: int = 100
                        ) -> tuple[tuple[str, ...], int, bool]:
    """Shuffle until no ordered bigram of the input survives.

    Attempt k puts the content in the k-th order of `_orders`, asked for in
    doubling counts: a process draws each (seed, content length, count) once.
    Rows of distinct tokens are searched once per (seed, shape, max_attempts).
    Returns (shuffled, shared_bigram_count, exhausted). When no bigram-free
    permutation is found within max_attempts, the best attempt seen is
    returned with exhausted=True.
    """
    if max_attempts < 1:
        raise ArgumentError(f"max_attempts must be at least 1, got {max_attempts}")
    content, terminal = _split_terminal(tokens)
    if len(content) < 2:
        raise DegenerateInputError("shuffle needs at least 2 content tokens")
    if len(set(tokens)) == len(tokens):
        order, shared, exhausted = _shape_search(seed, len(content), bool(terminal), max_attempts)
    else:
        order, shared, exhausted = _search(content, terminal, seed, max_attempts)
    if exhausted:
        log.warning("shuffle exhausted %d attempts; best attempt shares %d bigrams",
                    max_attempts, shared)
    return _rebuild([content[i] for i in order], terminal), shared, exhausted


def shuffle_tokens(tokens: tuple[str, ...], seed: int) -> tuple[str, ...]:
    out, _, _ = shuffle_with_report(tokens, seed)
    return out


def apply_lexical(ex: Example, kind: str, seed: int = 0) -> TextInput:
    """Apply one of the four lexical kinds to an Example; `seed` drives shuffle."""
    if kind in ("sort", "copysort"):
        edit = sort_tokens
    elif kind == "reverse":
        edit = reverse_tokens
    elif kind == "shuffle":
        edit = functools.partial(shuffle_tokens, seed=seed)
    else:
        raise UnsupportedTransformError(f"{kind} is not a lexical transform")
    return rewrite(ex.input, kind, edit)

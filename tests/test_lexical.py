"""Order-destroying transformations: sort, reverse, shuffle, copysort."""

import itertools
import logging
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saladbench import lexical, mitigate
from saladbench.gradient import apply_gradient, partition_by_importance
from saladbench.corpus import Example, TextInput, tokenize
from saladbench.errors import (ArgumentError, DegenerateInputError,
                               UnsupportedTransformError)
from saladbench.lexical import (TERMINAL_PUNCT, apply_lexical,
                                reverse_tokens, shuffle_tokens,
                                shuffle_with_report, sort_tokens)

word = st.text(alphabet="abcdefg", min_size=1, max_size=4)
token_lists = st.lists(word, min_size=1, max_size=10)
maybe_terminal = st.sampled_from([None, ".", "!", "?"])


def seq_of(words, terminal=None):
    if terminal is not None:
        words = list(words) + [terminal]
    return tuple(words)


def bigram_free_permutation_exists(tokens):
    """Exhaustive check (for short sequences) that some permutation of the
    content tokens shares no ordered bigram with the input."""
    tail = tokens[-1:] if tokens and tokens[-1] in TERMINAL_PUNCT else ()
    forbidden = set(zip(tokens, tokens[1:]))
    for perm in itertools.permutations(tokens[:len(tokens) - len(tail)]):
        out = perm + tail
        if not set(zip(out, out[1:])) & forbidden:
            return True
    return False


# --- sort ---

def test_sort_known_sentence():
    seq = tokenize("Making certain distinctions is imperative in looking back on the past.")
    assert " ".join(sort_tokens(seq)) == \
        "back certain distinctions imperative in is looking making on past the ."


def test_sort_single_word_with_terminal_is_fixed_point():
    seq = tokenize("hello.")
    assert sort_tokens(seq) == ("hello", ".")


def test_sort_empty_raises():
    with pytest.raises(DegenerateInputError):
        sort_tokens(())


@given(token_lists, maybe_terminal)
def test_sort_preserves_multiset_and_orders_content(words, terminal):
    out = sort_tokens(seq_of(words, terminal))
    assert Counter(out) == Counter(words + ([terminal] if terminal else []))
    content = out[:-1] if terminal else out
    assert list(content) == sorted(content, key=str.casefold)
    if terminal:
        assert out[-1] == terminal


# --- reverse ---

def test_reverse_known_sentence():
    seq = tokenize("Specific approaches to each principle is the same in each sector.")
    assert " ".join(reverse_tokens(seq)) == \
        "sector each in same the is principle each to approaches specific ."


def test_reverse_is_involution_on_content():
    seq = tokenize("one two three .")
    assert reverse_tokens(reverse_tokens(seq)) == seq


@given(token_lists, maybe_terminal)
def test_reverse_reverses_content_and_pins_terminal(words, terminal):
    out = reverse_tokens(seq_of(words, terminal))
    expected = tuple(reversed(words)) + ((terminal,) if terminal else ())
    assert out == expected


# --- shuffle ---

def test_shuffle_deterministic_per_seed():
    seq = tokenize("alpha beta gamma delta epsilon .")
    a = shuffle_tokens(seq, seed=3)
    b = shuffle_tokens(seq, seed=3)
    assert a == b
    c = shuffle_tokens(seq, seed=4)
    assert a != c  # overwhelmingly likely for 5 distinct tokens


def test_shuffle_needs_two_content_tokens():
    with pytest.raises(DegenerateInputError):
        shuffle_tokens(tokenize("lonely."), seed=0)


@pytest.mark.parametrize("max_attempts", [0, -1])
def test_shuffle_needs_at_least_one_attempt(max_attempts):
    with pytest.raises(ArgumentError):
        shuffle_with_report(("a", "b", "c"), seed=0, max_attempts=max_attempts)


def test_shuffle_reports_best_effort_when_no_bigram_free_permutation():
    seq = ("a", "a")
    out, shared, exhausted = shuffle_with_report(seq, seed=0)
    assert exhausted and shared >= 1
    assert out == ("a", "a")


@given(st.lists(word, min_size=2, max_size=7), maybe_terminal,
       st.integers(min_value=0, max_value=5))
@settings(max_examples=150, deadline=None)
def test_shuffle_multiset_terminal_and_bigram_guarantee(words, terminal, seed):
    seq = seq_of(words, terminal)
    out, shared, exhausted = shuffle_with_report(seq, seed)
    assert Counter(out) == Counter(seq)
    if terminal:
        assert out[-1] == terminal
    # when a bigram-free permutation exists it must be found (n small
    # enough here that 100 attempts always suffice is not guaranteed, but
    # a found solution must be genuinely bigram-free)
    if not exhausted:
        assert shared == 0
        original = set(zip(seq, seq[1:]))
        assert not set(zip(out, out[1:])) & original
    else:
        assert not bigram_free_permutation_exists(seq) or shared > 0


def reference_shuffle(tokens, seed, max_attempts=100, attempts=None):
    """The per-row rejection loop shuffle_with_report is checked against: one
    Random(seed) per row, which shuffles a fresh copy of the content tokens
    on every attempt. Each attempt's (candidate, shared) is appended to
    `attempts` when it is a list."""
    if tokens and tokens[-1] in TERMINAL_PUNCT:
        content, terminal = list(tokens[:-1]), tokens[-1]
    else:
        content, terminal = list(tokens), None
    tail = [terminal] if terminal is not None else []
    rng = random.Random(seed)
    forbidden = set(zip(tokens, tokens[1:]))
    best, best_shared = None, len(forbidden) + 1
    for _ in range(max_attempts):
        candidate = list(content)
        rng.shuffle(candidate)
        out = tuple(candidate + tail)
        shared = len(set(zip(out, out[1:])) & forbidden)
        if attempts is not None:
            attempts.append((out, shared))
        if shared == 0:
            return out, 0, False
        if shared < best_shared:
            best, best_shared = candidate, shared
    return tuple(best + tail), best_shared, True


def test_shuffle_matches_the_per_row_reference_loop():
    # rows of 2-12 content tokens from a small pool (so tokens repeat), with
    # terminal marks inside the content too; seeds 0-50 and budgets 1-100.
    # Rows of every shape are interleaved, so draws of one (seed, length)
    # are reused by later rows of other contents.
    rng = random.Random(12)
    pool = ["a", "b", "c", "d", "e", ".", "!", "?"]
    cases = []
    for _ in range(2500):
        words = [rng.choice(pool[:rng.randint(2, 8)])
                 for _ in range(rng.randint(2, 12))]
        if words[-1] in TERMINAL_PUNCT:
            words.append("a")          # a terminal mark here is content
        terminal = rng.choice([None, ".", "!", "?"])
        cases.append((seq_of(words, terminal), rng.randint(0, 50),
                       rng.choice([1, 2, 5, 100])))
    exhausted_rows = ties = 0
    for seq, seed, budget in cases:
        attempts = []
        expected = reference_shuffle(seq, seed, budget, attempts)
        assert shuffle_with_report(seq, seed, budget) == expected, (seq, seed, budget)
        if expected[2]:
            exhausted_rows += 1
            ties += sum(shared == expected[1] and out != expected[0]
                        for out, shared in attempts)
    assert 0 < exhausted_rows < len(cases) and ties > 0


def test_shuffle_logs_one_warning_per_exhausted_row(caplog):
    # three rows of two content tokens share one (seed, length) of draws
    rows = [("a", "a"), ("a", "a", "."), ("x", "y", "z", "w", "v", "u"), ("a", "a")]
    with caplog.at_level(logging.WARNING, logger="saladbench.lexical"):
        reports = [shuffle_with_report(seq, seed=0, max_attempts=3) for seq in rows]
        assert [exhausted for _, _, exhausted in reports] == [True, True, False, True]
        assert len(caplog.records) == 3
        shuffle_with_report(("b", "b"), seed=0, max_attempts=3)
        assert len(caplog.records) == 4
        # two rows of distinct tokens share one search, and each row logs
        for seq in (("x", "y"), ("u", "v")):
            assert shuffle_with_report(seq, seed=0, max_attempts=1) == (seq, 1, True)
        assert len(caplog.records) == 6


def test_shuffle_of_distinct_tokens_matches_the_reference_loop():
    # rows whose tokens are all distinct, terminal included: lengths 2-12,
    # with and without a terminal, seeds 0-50, budgets 1/2/5/100. Rows of one
    # shape differ in their words, and a terminal mark may sit in the content.
    rng = random.Random(15)
    pool = [f"w{i}" for i in range(30)] + ["!"]
    exhausted_rows = 0
    for n in range(2, 13):
        for terminal in (None, "."):
            for seed in range(51):
                for budget in (1, 2, 5, 100):
                    words = rng.sample(pool, n)
                    if words[-1] == "!":       # keep "!" in the content
                        words.reverse()
                    seq = seq_of(words, terminal)
                    expected = reference_shuffle(seq, seed, budget)
                    assert shuffle_with_report(seq, seed, budget) == expected, \
                        (seq, seed, budget)
                    exhausted_rows += expected[2]
    assert exhausted_rows > 0


def test_shuffle_order_memo_stays_bounded_when_every_row_has_its_own_seed():
    # every memo of the lexical module, for rows of distinct and of repeated tokens
    for seed in range(1500):
        shuffle_with_report(("a", "b", "c", "d", "."), seed)
        shuffle_with_report(("a", "b", "a", "d", "."), seed)
    info = lexical._orders.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    for memo in (f for f in vars(lexical).values() if hasattr(f, "cache_info")):
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, memo


def test_bigram_free_oracle_agrees_with_shuffle_on_short_inputs():
    cases = [("a", "b"), ("a", "a"), ("a", "b", "c"), ("a", "a", "b"),
             ("a", "b", "a", "b"), ("x", "y", "z", "."), ("a", "a", "a")]
    for surfaces in cases:
        seq = tuple(surfaces)
        _, shared, exhausted = shuffle_with_report(seq, seed=0, max_attempts=500)
        if bigram_free_permutation_exists(seq):
            assert not exhausted and shared == 0, surfaces
        else:
            assert exhausted and shared > 0, surfaces


# --- copysort / apply_lexical ---

def test_copy_sort_replaces_b_with_sorted_a():
    ex = Example("p1", TextInput("Dogs chase the cat.", "some hypothesis"), 1)
    new = apply_lexical(ex, "copysort")
    assert new.text_a == "Dogs chase the cat."
    assert new.text_b == "cat chase dogs the ."


def test_copy_sort_requires_pair():
    with pytest.raises(UnsupportedTransformError):
        apply_lexical(Example("s1", TextInput("just one side"), 0),
                      "copysort")


def test_apply_lexical_targets_b_on_pairs_and_a_on_singles():
    pair = Example("p", TextInput("keep this side", "b c a"), 0)
    new = apply_lexical(pair, "sort")
    assert new.text_a == "keep this side"
    assert new.text_b == "a b c"

    single = Example("s", TextInput("b c a"), 0)
    new = apply_lexical(single, "sort")
    assert new.text_a == "a b c"
    assert new.text_b is None


def test_apply_lexical_rejects_non_lexical_kind():
    with pytest.raises(UnsupportedTransformError):
        apply_lexical(Example("s", TextInput("a b"), 0), "drop")


def test_transform_kind_and_r_validation():
    # the `kind:seed:r` tag is written by the CLI (test_cli)
    ex = Example("s", TextInput("w1 w2"), 0)
    with pytest.raises(UnsupportedTransformError):
        apply_lexical(ex, "scramble")
    with pytest.raises(UnsupportedTransformError):
        mitigate.transform_examples([ex], "scramble", "single")
    with pytest.raises(ArgumentError):
        apply_gradient(ex, "drop", partition_by_importance((1.0, 2.0), 0.0))


def test_terminal_punct_values():
    assert set(TERMINAL_PUNCT) == {".", "!", "?"}

"""Saliency-guided destructive transformations: drop, repeat, replace, copyone."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from saladbench.corpus import Example, TextInput, tokenize
from saladbench.errors import (ArgumentError, DegenerateInputError,
                               UnsupportedTransformError)
from saladbench.gradient import (ImportancePartition, apply_gradient,
                                 drop_tokens, partition_by_importance,
                                 repeat_tokens, replace_tokens)
from saladbench.mitigate import transform_examples

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


# --- partition ---

def test_partition_example():
    part = partition_by_importance((3.0, 1.0, 4.0, 2.0), r=0.5)
    assert part.bottom == (1, 3)
    assert part.top == (0, 2)


def test_partition_all_equal_ties_break_toward_low_positions():
    part = partition_by_importance((0.0, 0.0, 0.0, 0.0), r=0.5)
    assert part.bottom == (0, 1)
    assert part.top == (2, 3)


def test_partition_single_token():
    part = partition_by_importance((7.0,), r=0.5)
    assert part.bottom == (0,) and part.top == ()


def test_partition_validation():
    with pytest.raises(ArgumentError):
        partition_by_importance((), r=0.5)
    with pytest.raises(ArgumentError):
        partition_by_importance((1.0,), r=0.0)
    with pytest.raises(ArgumentError):
        partition_by_importance((1.0,), r=1.5)


@given(st.lists(finite, min_size=1, max_size=20),
       st.floats(min_value=0.05, max_value=1.0))
def test_partition_sizes_and_disjointness(values, r):
    n = len(values)
    part = partition_by_importance(tuple(values), r)
    m = max(1, math.floor(r * n))
    assert len(part.bottom) == m
    assert len(part.top) == min(m, n - m)
    assert not set(part.bottom) & set(part.top)
    # every bottom score <= every non-bottom score
    if part.top:
        assert max(values[i] for i in part.bottom) <= \
            min(values[i] for i in set(range(n)) - set(part.bottom))


# --- drop ---

def test_drop_removes_bottom_keeps_order():
    seq = ("a", "b", "c", "d")
    part = ImportancePartition(bottom=(1, 3), top=(0, 2))
    assert drop_tokens(seq, part) == ("a", "c")


def test_drop_everything_raises():
    seq = ("a",)
    part = ImportancePartition(bottom=(0,), top=())
    with pytest.raises(DegenerateInputError):
        drop_tokens(seq, part)


# --- repeat ---

def test_repeat_overwrites_bottom_with_top_surfaces():
    seq = ("low1", "hi1", "low2", "hi2")
    part = ImportancePartition(bottom=(0, 2), top=(1, 3))
    out = repeat_tokens(seq, part, seed=0)
    assert len(out) == len(seq)
    assert out[1] == "hi1" and out[3] == "hi2"
    assert out[0] in ("hi1", "hi2")
    assert out[2] in ("hi1", "hi2")


def test_repeat_deterministic_per_seed():
    seq = tuple(f"w{i}" for i in range(10))
    part = partition_by_importance(tuple(range(10)), 0.5)
    assert repeat_tokens(seq, part, seed=5) == \
        repeat_tokens(seq, part, seed=5)


def test_repeat_needs_top_set():
    seq = ("only",)
    part = ImportancePartition(bottom=(0,), top=())
    with pytest.raises(DegenerateInputError):   # the row is skipped, as drop's are
        repeat_tokens(seq, part, seed=0)


# --- replace ---

def test_replace_draws_from_vocab_only_at_bottom():
    seq = ("a", "b", "c", "d")
    part = ImportancePartition(bottom=(0, 1), top=(2, 3))
    out = replace_tokens(seq, part, vocab=["z"], seed=0)
    assert out == ("z", "z", "c", "d")


def test_replace_requires_vocab():
    seq = ("a", "b")
    part = ImportancePartition(bottom=(0,), top=(1,))
    with pytest.raises(ArgumentError):
        replace_tokens(seq, part, vocab=[], seed=0)


@pytest.mark.parametrize("entry", ["Z", "z.", "two words", ""])
def test_replace_refuses_a_vocabulary_entry_that_is_not_a_token(entry):
    # the new row keeps the edited tuple as its tokens, so each must be one
    # that tokenize returns unchanged; the whole vocabulary is checked before
    # any draw, so the outcome does not depend on which entries a seed draws
    examples = [Example("e", TextInput("a b c d"), 0)]
    saliency = {"a": [(1.0, 2.0, 3.0, 4.0)]}
    for seed in range(4):
        with pytest.raises(ArgumentError, match="is not a token"):
            transform_examples(examples, "replace", "single", seed,
                               saliency=saliency, vocab=["z"] * 50 + [entry])


def test_replace_matches_seeded_uniform_draws():
    seq = ("a", "b", "c", "d")
    part = ImportancePartition(bottom=(1, 2), top=(0, 3))
    vocab = ["u", "v", "w"]
    out = replace_tokens(seq, part, vocab, seed=9)
    rng = random.Random(9)
    assert out == ("a", rng.choice(vocab), rng.choice(vocab), "d")
    rng = random.Random(9)
    assert repeat_tokens(seq, part, seed=9) == \
        ("a", rng.choice(["a", "d"]), rng.choice(["a", "d"]), "d")
    # rows of every shape, interleaved, so a draw made for one row's
    # (seed, pool size, picks) is reused by later rows with other tokens
    cases = random.Random(3)
    for _ in range(600):
        n = cases.randint(1, 12)
        tokens = tuple(cases.choice("abcdefg") for _ in range(n))
        part = partition_by_importance([cases.random() for _ in range(n)],
                                       cases.choice([0.25, 0.5, 1.0]))
        vocab = [cases.choice("uvwxyz") for _ in range(cases.randint(1, 4))]
        seed = cases.randint(0, 20)
        rng = random.Random(seed)
        expected = list(tokens)
        for i in part.bottom:
            expected[i] = rng.choice(vocab)
        assert replace_tokens(tokens, part, vocab, seed) == tuple(expected)
        if part.top:
            rng, top = random.Random(seed), [tokens[i] for i in part.top]
            expected = list(tokens)
            for i in part.bottom:
                expected[i] = rng.choice(top)
            assert repeat_tokens(tokens, part, seed) == tuple(expected)


# --- copyone ---

COPYONE = "copyone"


def test_copy_one_takes_most_salient_token_of_a():
    ex = Example("p", TextInput("the verdict stands", "hypothesis"), 1)
    new = apply_gradient(ex, COPYONE, partition_by_importance((0.1, 0.9, 0.3), 0.5))
    assert new.text_b == "verdict"
    assert new.text_a == "the verdict stands"


def test_copy_one_tie_breaks_toward_first_token():
    ex = Example("p", TextInput("tie tie tie", "h"), 1)
    new = apply_gradient(ex, COPYONE, partition_by_importance((0.5, 0.5, 0.5), 0.5))
    assert new.text_b == "tie"


def test_copy_one_requires_pair_and_aligned_scores():
    with pytest.raises(UnsupportedTransformError):
        apply_gradient(Example("s", TextInput("single"), 0), COPYONE,
                       partition_by_importance((1.0,), 0.5))
    ex = Example("p", TextInput("two words", "h"), 1)
    with pytest.raises(ArgumentError):
        apply_gradient(ex, COPYONE, partition_by_importance((1.0,), 0.5))


# --- apply_gradient ---

def test_apply_gradient_targets_b_on_pairs():
    ex = Example("p", TextInput("keep a side", "b1 b2 b3 b4"), 0)
    scores = (4.0, 3.0, 1.0, 2.0)
    new = apply_gradient(ex, "drop", partition_by_importance(scores, 0.5))
    assert new.text_a == "keep a side"
    assert new.text_b == "b1 b2"


def test_apply_gradient_single_task_targets_a():
    ex = Example("s", TextInput("w1 w2 w3 w4"), 0)
    scores = (1.0, 2.0, 3.0, 4.0)
    new = apply_gradient(ex, "drop", partition_by_importance(scores, 0.5))
    assert new.text_a == "w3 w4"


def test_apply_gradient_replace_needs_vocab():
    ex = Example("s", TextInput("w1 w2"), 0)
    scores = (1.0, 2.0)
    with pytest.raises(ArgumentError):
        apply_gradient(ex, "replace", partition_by_importance(scores, 0.5), vocab=None)
    new = apply_gradient(ex, "replace", partition_by_importance(scores, 0.5), vocab=["q"])
    assert new.text_a == "q w2"


def test_apply_gradient_score_length_mismatch():
    ex = Example("s", TextInput("one two three"), 0)
    with pytest.raises(ArgumentError):
        apply_gradient(ex, "drop", partition_by_importance((1.0,), 0.5))


def test_apply_gradient_rejects_non_gradient_kind():
    ex = Example("s", TextInput("a b"), 0)
    with pytest.raises(UnsupportedTransformError):
        apply_gradient(ex, "sort", partition_by_importance((1.0, 2.0), 0.5))


@given(st.lists(finite, min_size=2, max_size=12), st.integers(0, 3))
def test_repeat_only_touches_bottom_positions(values, seed):
    n = len(values)
    seq = tuple(f"t{i}" for i in range(n))
    part = partition_by_importance(tuple(values), 0.5)
    out = repeat_tokens(seq, part, seed)
    top_surfaces = {seq[i] for i in part.top}
    for i, s in enumerate(out):
        if i in part.bottom:
            assert s in top_surfaces
        else:
            assert s == seq[i]


# --- one ranking per row and set ---

def _reference_partition(scores, r):
    """partition_by_importance as each kind computed it per row: full
    (score, position) keys, then the top set among the positions left."""
    n = len(scores)
    m = max(1, math.floor(r * n))
    bottom = sorted(sorted(range(n), key=lambda i: (scores[i], i))[:m])
    remaining = [i for i in range(n) if i not in set(bottom)]
    top = sorted(sorted(remaining, key=lambda i: (-scores[i], i))[:m])
    return tuple(bottom), tuple(top)


def test_rankings_match_the_per_row_reference_sorts():
    # ties, repeated values and signed zeros decide the order at every r
    cases = random.Random(26)
    for _ in range(3000):
        n = cases.randint(1, 30)
        pool = [0.0, -0.0, 1.5, -1.5, 2.0, cases.random(), -cases.random()]
        scores = tuple(cases.choice(pool) for _ in range(n))
        r = cases.choice([0.05, 0.25, 0.5, 0.999, 1.0])
        part = partition_by_importance(scores, r)
        assert (part.bottom, part.top, part.n) == (*_reference_partition(scores, r), n)
        assert part.best == max(range(n), key=lambda i: (scores[i], -i))

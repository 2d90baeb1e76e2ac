"""Tokenization, dataset I/O, and splitting."""

import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from saladbench import corpus
from saladbench.corpus import (Dataset, Example, LabelSet, TextInput,
                               detokenize, load_dataset, save_dataset,
                               split_holdout, tokenize)
from saladbench.errors import ArgumentError, DataError

LABELS = LabelSet(("negative", "positive"))
PAIR_LABELS = LabelSet(("no", "yes"), default_label=1)

# words with no punctuation or whitespace, for property tests
word = st.text(st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=0x2FF),
               min_size=1, max_size=8)


def test_tokenize_basic():
    assert tokenize("The cat sat.") == ("the", "cat", "sat", ".")


def test_tokenize_detaches_edge_punctuation():
    assert tokenize('"Why, me?!"') == ('"', "why", ",", "me", "?", "!", '"')


def test_tokenize_keeps_internal_punctuation():
    assert tokenize("don't re-up") == ("don't", "re-up")


def test_tokenize_lowercases():
    assert tokenize("MiXeD CASE") == ("mixed", "case")


def test_tokenize_empty_and_whitespace_only():
    assert tokenize("") == ()
    assert tokenize("   \t ") == ()


def test_tokenize_pure_punctuation_chunk():
    assert tokenize("...") == (".", ".", ".")


def test_detokenize_space_joins():
    assert detokenize(("the", "past", ".")) == "the past ."


@given(st.lists(word, min_size=0, max_size=12))
def test_tokenize_detokenize_round_trip_on_normalized_text(words):
    text = " ".join(words)
    once = detokenize(tokenize(text))
    assert detokenize(tokenize(once)) == once


@given(st.text())
def test_tokens_survive_a_detokenize_round_trip(text):
    # rows keep the tokens an edit returns instead of re-tokenizing the text
    # built from them; that is only sound if this holds for any text
    tokens = tokenize(text)
    assert tokenize(detokenize(tokens)) == tokens


# every code point that lowercasing changes or that str.split() splits on
CASED_OR_SPACE = [c for c in map(chr, range(sys.maxunicode + 1))
                  if c.lower() != c or c.isspace()]


@pytest.mark.parametrize("context", ["{}", "a{}", "{}a", ".{}."])
def test_tokens_survive_a_detokenize_round_trip_for_cased_and_space_chars(context):
    tokens = tokenize(" ".join(context.format(c) for c in CASED_OR_SPACE))
    assert tokenize(detokenize(tokens)) == tokens


@given(st.text(max_size=40))
def test_tokenize_is_deterministic_and_lowercase(text):
    a = tokenize(text)
    b = tokenize(text)
    assert a == b
    assert all(s == s.lower() for s in a)
    assert all(" " not in s for s in a)


def test_text_input_tokens_are_each_sides_tokenize():
    inp = TextInput("The film.", "It was GOOD")
    assert inp.tokens("a") == tokenize("The film.")
    assert inp.tokens("b") == tokenize("It was GOOD")
    assert inp.tokens("a") is inp.tokens("a")          # kept, not recomputed
    assert TextInput("x").tokens("b") is None
    assert not hasattr(inp, "__dict__")                # slots keep rows small


def test_text_input_replace_never_keeps_stale_tokens():
    inp = TextInput("good film", "bad plot")
    inp.tokens("a"), inp.tokens("b")
    again = inp._replace(text_a="Awful acting!")
    assert again.tokens("a") == ("awful", "acting", "!")
    assert again.tokens("b") == ("bad", "plot")


def test_text_input_with_side_keeps_the_given_tokens_and_shares_the_other():
    inp = TextInput("good film", "bad plot")
    new = inp.with_side("b", ("plot", "bad"))
    assert (new.text_a, new.text_b) == ("good film", "plot bad")
    assert new.tokens("b") == ("plot", "bad")
    assert new.tokens("a") is inp.tokens("a")
    single = TextInput("good film .").with_side("a", ["film", "good", "."])
    assert single == TextInput("film good .")
    assert single.tokens("a") == ("film", "good", ".") and single.tokens("b") is None
    assert hash(single) == hash(TextInput("film good ."))  # tokens take no part


def test_label_set_validation():
    with pytest.raises(ArgumentError):
        LabelSet(("only",))
    with pytest.raises(ArgumentError):
        LabelSet(("a", "a"))
    with pytest.raises(ArgumentError):
        LabelSet(("a", "b"), default_label=2)
    with pytest.raises(DataError):
        LABELS.index_of("maybe")
    assert LABELS.index_of("positive") == 1


def test_dataset_validation():
    ex = Example("x", TextInput("hello"), 0)
    with pytest.raises(ArgumentError):
        Dataset((ex,), LABELS, "tri")
    Dataset((ex,), LABELS, "single")


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_tsv_happy_path(tmp_path):
    path = _write(tmp_path, "d.tsv",
                  "id\ttext_a\ttext_b\tlabel\n"
                  "a\tgood film\t\tpositive\n"
                  "b\tbad film\t\tnegative\n")
    ds = load_dataset(path, "tsv", LABELS, "single")
    assert len(ds) == 2
    assert ds.examples[0].gold_label == 1
    assert ds.skipped_rows == 0


def test_load_tsv_bad_header(tmp_path):
    path = _write(tmp_path, "d.tsv", "identifier\ttext\n")
    with pytest.raises(DataError):
        load_dataset(path, "tsv", LABELS, "single")


def test_load_tsv_duplicate_id_fatal(tmp_path):
    path = _write(tmp_path, "d.tsv",
                  "id\ttext_a\ttext_b\tlabel\n"
                  "a\tx\t\tpositive\na\ty\t\tnegative\n")
    with pytest.raises(DataError, match="duplicate id"):
        load_dataset(path, "tsv", LABELS, "single")


def test_load_tsv_unknown_label_fatal_with_location(tmp_path):
    path = _write(tmp_path, "d.tsv",
                  "id\ttext_a\ttext_b\tlabel\na\tx\t\tmaybe\n")
    with pytest.raises(DataError, match=r":2:"):
        load_dataset(path, "tsv", LABELS, "single")


def test_load_tsv_skips_rows_missing_required_text(tmp_path):
    path = _write(tmp_path, "d.tsv",
                  "id\ttext_a\ttext_b\tlabel\n"
                  "a\t\t\tpositive\n"          # no text_a: skipped
                  "b\tok here\t\tnegative\n")
    ds = load_dataset(path, "tsv", LABELS, "single")
    assert len(ds) == 1 and ds.skipped_rows == 1


def test_load_tsv_pair_requires_text_b(tmp_path):
    path = _write(tmp_path, "d.tsv",
                  "id\ttext_a\ttext_b\tlabel\n"
                  "a\tpremise only\t\tyes\n"
                  "b\tpremise\thypothesis\tno\n")
    ds = load_dataset(path, "tsv", PAIR_LABELS, "pair")
    assert len(ds) == 1 and ds.skipped_rows == 1
    assert ds.examples[0].input.is_pair


def test_load_tsv_unlabeled_rows_allowed(tmp_path):
    path = _write(tmp_path, "d.tsv",
                  "id\ttext_a\ttext_b\tlabel\na\tsome text\t\t\n")
    ds = load_dataset(path, "tsv", LABELS, "single")
    assert ds.examples[0].gold_label is None


def test_load_jsonl(tmp_path):
    rows = [{"id": "a", "text_a": "x y", "label": "positive"},
            {"text_a": "z", "label": "negative"}]       # id falls back to line number
    path = _write(tmp_path, "d.jsonl", "\n".join(json.dumps(r) for r in rows) + "\n")
    ds = load_dataset(path, "jsonl", LABELS, "single")
    assert [ex.id for ex in ds.examples] == ["a", "1"]


@pytest.mark.parametrize("line", ["not json", "[1, 2]", '"text"', "null"])
def test_load_jsonl_line_that_is_not_an_object_names_its_line(tmp_path, line):
    good = json.dumps({"id": "a", "text_a": "x y", "label": "positive"})
    path = _write(tmp_path, "d.jsonl", f"{good}\n\n{line}\n")
    with pytest.raises(DataError, match=r"d\.jsonl:3: "):
        load_dataset(path, "jsonl", LABELS, "single")


def test_load_unknown_format(tmp_path):
    path = _write(tmp_path, "d.xml", "<x/>")
    with pytest.raises(ArgumentError):
        load_dataset(path, "xml", LABELS, "single")


def test_save_load_round_trip(tmp_path, sent_ds):
    path = tmp_path / "out.tsv"
    save_dataset(sent_ds, path)
    back = load_dataset(path, "tsv", sent_ds.labels, "single")
    assert [(e.id, e.input.text_a, e.gold_label) for e in back.examples] == \
           [(e.id, e.input.text_a, e.gold_label) for e in sent_ds.examples]


def test_save_with_transform_meta_adds_columns(tmp_path):
    ds = Dataset((Example("a1", TextInput("x"), 0),), LABELS, "single")
    path = tmp_path / "out.tsv"
    save_dataset(ds, path, transform_meta={"a1": ("src9", "sort:0:0.5")})
    header, row = path.read_text(encoding="utf-8").splitlines()
    assert header.split("\t") == ["id", "text_a", "text_b", "label",
                                  "source_id", "transform"]
    assert row.split("\t")[-2:] == ["src9", "sort:0:0.5"]


def test_split_holdout_sizes_and_disjointness(sent_ds):
    train, hold = split_holdout(sent_ds, 0.2, seed=0)
    assert len(hold) == round(0.2 * len(sent_ds)) == 40
    assert len(train) + len(hold) == len(sent_ds)
    assert not {e.id for e in train.examples} & {e.id for e in hold.examples}


def test_split_holdout_deterministic(sent_ds):
    a = split_holdout(sent_ds, 0.3, seed=7)
    b = split_holdout(sent_ds, 0.3, seed=7)
    assert [e.id for e in a[1].examples] == [e.id for e in b[1].examples]
    c = split_holdout(sent_ds, 0.3, seed=8)
    assert [e.id for e in a[1].examples] != [e.id for e in c[1].examples]


def test_split_holdout_validation(sent_ds):
    with pytest.raises(ArgumentError):
        split_holdout(sent_ds, 0.0, seed=0)
    with pytest.raises(ArgumentError):
        split_holdout(sent_ds, 1.0, seed=0)
    empty = Dataset((), LABELS, "single")
    with pytest.raises(ArgumentError):
        split_holdout(empty, 0.5, seed=0)


@pytest.mark.parametrize("fraction, sizes, edge, edge_sizes", [
    (0.001, "200 training and 0 validation", 0.003, [199, 1]),
    (0.999, "0 training and 200 validation", 0.997, [1, 199])])
def test_split_holdout_refuses_an_empty_side_naming_both_sizes(sent_ds, fraction, sizes,
                                                               edge, edge_sizes):
    with pytest.raises(ArgumentError, match=f"leaves {sizes} rows"):
        split_holdout(sent_ds, fraction, seed=0)
    # one row on the smaller side is enough
    assert [len(side) for side in split_holdout(sent_ds, edge, seed=0)] == edge_sizes


def test_bundled_corpora_shapes(sent_ds, pair_ds):
    assert len(sent_ds) == 200 and sent_ds.task_kind == "single"
    assert len(pair_ds) == 300 and pair_ds.task_kind == "pair"
    assert pair_ds.labels.default_label == 1
    assert all(ex.gold_label is not None for ex in sent_ds.examples)

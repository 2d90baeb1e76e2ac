"""Statistical invalid-input generators: EM word alignment, phrase
extraction, backoff language model, and the beam decoder (checked against an
independent exhaustive search)."""

import hashlib
import json
import math
import re

import pytest

from saladbench import pbsmt
from saladbench.corpus import Dataset, Example, TextInput, tokenize
from saladbench.errors import (ArgumentError, DataError, DegenerateInputError,
                               InsufficientDataError, UnsupportedTransformError)
from saladbench.pbsmt import (BOS, NULL, DecoderWeights, LanguageModel, PhraseTable, align,
                              build_parallel_corpus, build_phrase_table, decode,
                              extract_phrases, generate_invalid, load_generator,
                              save_generator, train_lm,
                              train_model1)


def corpus_loglikelihood(corpus, table):
    """Model 1 log-likelihood with uniform alignment prior over src + NULL."""
    total = 0.0
    for src, tgt in corpus:
        srcs = (NULL,) + src
        for t_word in tgt:
            p = sum(table[s].get(t_word, 0.0) for s in srcs) / len(srcs)
            total += math.log(max(p, 1e-300))
    return total


def sequence_logprob(lm, tokens):
    """LM log-probability of a whole sentence after BOS padding."""
    context = (BOS,) * (lm.order - 1)
    total = 0.0
    for w in tokens:
        total += lm.word_logprob(w, context)
        context = (context + (w,))[-(lm.order - 1):]
    return total


def corpus_of(*pairs):
    return tuple((tuple(s.split()), tuple(t.split())) for s, t in pairs)


# --- parallel corpus construction ---

def test_build_parallel_corpus_single_task_splits_at_midpoint():
    ds = Dataset((Example("a", TextInput("w1 w2 w3 w4 w5"), 0),),
                 _labels(), "single")
    corpus = build_parallel_corpus(ds, 0, min_pairs=1)
    assert corpus == ((("w1", "w2", "w3"), ("w4", "w5")),)


def test_build_parallel_corpus_pair_task_uses_both_sides():
    ds = Dataset((Example("a", TextInput("p1 p2", "h1 h2 h3"), 1),),
                 _labels(), "pair")
    corpus = build_parallel_corpus(ds, 1, min_pairs=1)
    assert corpus == ((("p1", "p2"), ("h1", "h2", "h3")),)


def test_build_parallel_corpus_filters_by_label_and_enforces_min_pairs():
    ds = Dataset((Example("a", TextInput("w1 w2"), 0),
                  Example("b", TextInput("w3 w4"), 1)),
                 _labels(), "single")
    assert len(build_parallel_corpus(ds, 0, min_pairs=1)) == 1
    with pytest.raises(InsufficientDataError):
        build_parallel_corpus(ds, 0, min_pairs=2)


def _labels():
    from saladbench.corpus import LabelSet
    return LabelSet(("no", "yes"))


# --- IBM Model 1 EM ---

def test_em_single_pair_converges_to_certainty():
    corpus = corpus_of(*[("a", "x")] * 10)
    table = train_model1(corpus, iterations=10)
    assert abs(table["a"]["x"] - 1.0) < 1e-6


def test_em_disambiguates_with_a_pivot_pair():
    corpus = corpus_of(("a b", "x y"), ("a", "x"))
    table = train_model1(corpus, iterations=2)
    assert table["a"]["x"] > table["a"]["y"]


def test_em_rows_are_normalized():
    corpus = corpus_of(("a b c", "x y"), ("b c", "y z"), ("a", "x"))
    table = train_model1(corpus, iterations=5)
    for src, dist in table.items():
        assert abs(sum(dist.values()) - 1.0) < 1e-9, src


def test_em_loglikelihood_non_decreasing():
    corpus = corpus_of(("a b c", "x y"), ("b c d", "y z"), ("a d", "x z"),
                       ("c", "y"), ("a b", "x y"))
    lls = [corpus_loglikelihood(corpus, train_model1(corpus, iterations=k))
           for k in range(1, 11)]
    for prev, cur in zip(lls, lls[1:]):
        assert cur >= prev - 1e-9


def test_em_rejects_empty_corpus():
    with pytest.raises(ArgumentError):
        train_model1(())


@pytest.mark.parametrize("iterations", [0, -1])
def test_em_rejects_fewer_than_one_iteration(iterations):
    with pytest.raises(ArgumentError, match="iterations"):
        train_model1(corpus_of(("a", "x")), iterations=iterations)


# --- alignment ---

def test_align_identity_corpus_is_diagonal():
    sents = ["a b c", "b c d", "c d a", "d a b"]
    corpus = corpus_of(*[(s, s) for s in sents])
    table = train_model1(corpus, iterations=10)
    for src, tgt in corpus:
        assert align((src, tgt), table) == {(i, i) for i in range(len(src))}


def test_align_is_intersection_of_directional_argmaxes():
    # t(x|a)=1, t(y|b)=1 -> clean 1:1 links; c has no counterpart
    table = {"a": {"x": 1.0}, "b": {"y": 1.0}, "c": {}, NULL: {"x": 0.1, "y": 0.1}}
    assert align((("a", "b", "c"), ("x", "y")), table) == {(0, 0), (1, 1)}


def test_align_drops_null_dominated_links():
    table = {"a": {"x": 0.2}, NULL: {"x": 0.9}}
    assert align((("a",), ("x",)), table) == set()


# --- phrase extraction ---

def test_extract_phrases_diagonal_two_tokens():
    got = extract_phrases((("a", "b"), ("x", "y")), {(0, 0), (1, 1)})
    assert sorted(got) == sorted([
        (("a",), ("x",)),
        (("b",), ("y",)),
        (("a", "b"), ("x", "y")),
    ])


def test_extract_phrases_crossing_links():
    got = extract_phrases((("a", "b"), ("x", "y")), {(0, 1), (1, 0)})
    assert sorted(got) == sorted([
        (("a",), ("y",)),
        (("b",), ("x",)),
        (("a", "b"), ("x", "y")),
    ])


def test_extract_phrases_empty_alignment_yields_nothing():
    assert extract_phrases((("a", "b"), ("x", "y")), set()) == []


def test_extract_phrases_respects_max_len():
    n = 5
    src = tuple(f"s{i}" for i in range(n))
    tgt = tuple(f"t{i}" for i in range(n))
    got = extract_phrases((src, tgt), {(i, i) for i in range(n)})
    assert got  # diagonal alignment always yields phrases
    assert all(len(s) <= 3 and len(t) <= 3 for s, t in got)


def test_build_phrase_table_relative_frequencies():
    corpus = corpus_of(*[("a", "x")] * 10)
    table = train_model1(corpus, iterations=5)
    pt = build_phrase_table(corpus, table)
    logs = pt.entries[(("a",), ("x",))]
    assert logs == (0.0, 0.0)  # p = 10/10 both directions


# --- language model ---

def test_lm_repeated_token_is_certain():
    lm = train_lm([("a", "a", "a")])
    assert lm.word_logprob("a", ("a", "a")) == 0.0
    assert sequence_logprob(lm, ("a", "a", "a")) == 0.0


def test_lm_unseen_word_floor():
    lm = train_lm([("a", "a", "a")])
    # backs off through trigram and bigram levels, then hits the floor
    expected = math.log(0.4 * 0.4 / (len(lm.vocab) + 1))
    assert abs(lm.word_logprob("q", ("a", "a")) - expected) < 1e-12


def test_lm_backoff_hand_example():
    lm = train_lm([("a", "b"), ("a", "c")])
    # bigram (a, b) seen once; context total for (a,) is 2
    assert abs(lm.word_logprob("b", ("a",)) - math.log(0.5)) < 1e-12
    # trigram (x, a, b) unseen -> backoff 0.4 to the bigram level
    assert abs(lm.word_logprob("b", ("x", "a")) - math.log(0.4 * 0.5)) < 1e-12
    # everything unseen -> 0.4^2 / (V+1) from a full-length context
    assert abs(lm.word_logprob("q", ("a", "b"))
               - math.log(0.4 * 0.4 / 4)) < 1e-12


def test_lm_matches_independent_backoff_oracle():
    sents = [("a", "b", "c"), ("b", "c", "a"), ("a", "b", "b"), ("c",)]
    lm = train_lm(sents)

    # independent recount of the same corpus
    from collections import Counter
    counts, ctx_totals, vocab, total = Counter(), Counter(), set(), 0
    for sent in sents:
        padded = (BOS, BOS) + sent
        for w in sent:
            vocab.add(w)
            total += 1
            counts[(w,)] += 1
        for n in (2, 3):
            for k in range(2, len(padded)):
                counts[padded[k - n + 1: k + 1]] += 1
                ctx_totals[padded[k - n + 1: k]] += 1

    def oracle(word, context):
        context = context[-2:]
        backoff = 1.0
        for n in range(len(context), 0, -1):
            ctx = context[len(context) - n:]
            if counts.get(ctx + (word,), 0) > 0:
                return math.log(backoff * counts[ctx + (word,)] / ctx_totals[ctx])
            backoff *= 0.4
        if counts.get((word,), 0) > 0:
            return math.log(backoff * counts[(word,)] / total)
        return math.log(backoff / (len(vocab) + 1))

    words = ["a", "b", "c", "zzz"]
    contexts = [(), ("a",), ("b", "c"), (BOS, BOS), ("a", "zzz"), ("c", "a")]
    for w in words:
        for ctx in contexts:
            assert abs(lm.word_logprob(w, ctx) - oracle(w, ctx)) < 1e-12, (w, ctx)


def test_lm_sequence_logprob_is_sum_of_word_logprobs():
    lm = train_lm([("a", "b", "c"), ("a", "c", "b")])
    seq = ("a", "c", "b")
    ctx = (BOS, BOS)
    total = 0.0
    for w in seq:
        total += lm.word_logprob(w, ctx)
        ctx = (ctx + (w,))[-2:]
    assert abs(sequence_logprob(lm, seq) - total) < 1e-12


def test_an_order_1_lm_scores_a_word_alike_in_every_context():
    # the context of an order-1 model is empty, however many words precede
    lm = train_lm([("x", "y"), ("y",)], order=1)
    for context in ((), ("x",), ("x", "y")):
        assert lm.word_logprob("y", context) == math.log(2 / 3), context


def test_decoder_keeps_no_context_for_an_order_1_lm():
    pt = PhraseTable({(("a",), ("x", "y")): (0.0, 0.0),
                      (("b",), ("y",)): (math.log(0.5), 0.0),
                      (("a", "b"), ("y", "y", "x")): (math.log(0.25), 0.0)})
    lm = train_lm([("x", "y"), ("y",)], order=1)
    w = DecoderWeights()
    out = decode(("a", "b", "a", "b"), pt, lm, w)
    assert lm.memo and all(context == () for _, context in lm.memo)
    assert out == reference_decode(("a", "b", "a", "b"), pt, lm, w)


def test_lm_rejects_empty_targets():
    with pytest.raises(ArgumentError):
        train_lm([])
    with pytest.raises(ArgumentError):
        train_lm([(), ()])


# --- decoder vs exhaustive search ---

def oracle_decode(src, pt, lm, w):
    """Exhaustive search over every phrase segmentation and ordering allowed
    by the distortion and completability constraints, scored identically."""
    n = len(src)
    options = {}
    for i in range(n):
        for j in range(i + 1, min(i + 3, n) + 1):
            opts = [(tgt, logs[0]) for (s, tgt), logs in pt.entries.items()
                    if s == src[i:j]]
            if opts:
                options[(i, j)] = opts
    for i in range(n):
        options.setdefault((i, i + 1), [((src[i],), 0.0)])

    def first_uncovered(cov):
        for i in range(n):
            if not (cov >> i) & 1:
                return i
        return n

    best = [None]  # (score, output)

    def rec(cov, last_end, ctx, output, score):
        if cov == (1 << n) - 1:
            if best[0] is None or score > best[0][0] or \
                    (score == best[0][0] and output < best[0][1]):
                best[0] = (score, output)
            return
        for (i, j), opts in options.items():
            if (cov >> i) & ((1 << (j - i)) - 1):
                continue
            jump = abs(i - last_end)
            if jump > w.distortion_limit:
                continue
            new_cov = cov | (((1 << (j - i)) - 1) << i)
            if j - first_uncovered(new_cov) > w.distortion_limit:
                continue
            for tgt, log_ts in opts:
                lm_inc, c = 0.0, ctx
                for word in tgt:
                    lm_inc += lm.word_logprob(word, c)
                    c = (c + (word,))[-(lm.order - 1):]
                rec(new_cov, j, c, output + tgt,
                    score + w.w_tm * log_ts + w.w_lm * lm_inc
                    + w.w_dist * jump + w.w_len * len(tgt))

    rec(0, 0, (BOS,) * (lm.order - 1), (), 0.0)
    return best[0][1]


def fixture_phrase_table():
    return PhraseTable({
        (("a",), ("x",)): (math.log(0.6), 0.0),
        (("a",), ("xx",)): (math.log(0.4), 0.0),
        (("b",), ("y",)): (0.0, 0.0),
        (("a", "b"), ("y", "x")): (math.log(0.5), 0.0),
        (("c",), ("z",)): (0.0, 0.0),
        (("b", "c"), ("zz",)): (math.log(0.3), 0.0),
        (("d",), ("x",)): (math.log(0.5), 0.0),
    })


def fixture_lm():
    return train_lm([("x", "y", "z"), ("y", "x", "z"), ("z", "x"),
                     ("x", "x", "y"), ("zz", "x")])


DECODE_SOURCES = [
    ("a",), ("a", "b"), ("b", "a"), ("a", "b", "c"), ("c", "b", "a"),
    ("a", "b", "c", "d"), ("d", "c", "b", "a"), ("a", "oov", "b"),
    ("a", "b", "c", "d", "a"), ("oov1", "oov2", "a", "b", "c"),
]


@pytest.mark.parametrize("source", DECODE_SOURCES)
def test_decoder_matches_exhaustive_search(source):
    pt, lm = fixture_phrase_table(), fixture_lm()
    # beam wide enough that no state is pruned on <= 5 source tokens
    weights = DecoderWeights(beam_size=200)
    got = decode(tuple(source), pt, lm, weights)
    assert got == oracle_decode(source, pt, lm, weights)


@pytest.mark.parametrize("limit", [0, 1, 2])
def test_decoder_matches_exhaustive_search_other_distortion_limits(limit):
    pt, lm = fixture_phrase_table(), fixture_lm()
    weights = DecoderWeights(beam_size=200, distortion_limit=limit)
    for source in DECODE_SOURCES:
        got = decode(tuple(source), pt, lm, weights)
        assert got == oracle_decode(source, pt, lm, weights), source


def test_phrase_table_indexes_options_by_source_in_entries_order():
    pt = fixture_phrase_table()
    assert pt.by_source[("a",)] == [(("x",), math.log(0.6)),
                                    (("xx",), math.log(0.4))]
    assert pt.by_source[("b", "c")] == [(("zz",), math.log(0.3))]
    assert sum(map(len, pt.by_source.values())) == len(pt.entries)
    assert "by_source" not in repr(pt)


def test_decoder_memo_holds_word_logprobs_outside_the_model():
    pt, lm = fixture_phrase_table(), fixture_lm()
    decode(("a", "b", "c", "d"), pt, lm, DecoderWeights())
    assert lm.memo
    assert all(logprob == lm.word_logprob(word, ctx)
               for (word, ctx), logprob in lm.memo.items())
    assert lm == fixture_lm() and repr(lm) == repr(fixture_lm())


def test_decoder_passes_oov_through_unchanged():
    lm = fixture_lm()
    src = ("nope", "never", "unseen")
    out = decode(src, PhraseTable({}), lm, DecoderWeights())
    assert out == src  # monotone pass-through wins on distortion


def test_decoder_monotone_with_zero_distortion_and_tm_only():
    pt = PhraseTable({
        (("a",), ("x",)): (math.log(0.9), 0.0),
        (("a",), ("q",)): (math.log(0.1), 0.0),
        (("b",), ("y",)): (0.0, 0.0),
    })
    lm = fixture_lm()
    weights = DecoderWeights(w_tm=1.0, w_lm=0.0, w_dist=0.0, w_len=0.0,
                             beam_size=50, distortion_limit=0)
    out = decode(("a", "b", "a"), pt, lm, weights)
    assert out == ("x", "y", "x")  # per-token argmax, in order


def test_decoder_is_deterministic():
    pt, lm = fixture_phrase_table(), fixture_lm()
    src = ("a", "b", "c", "d")
    a = decode(src, pt, lm, DecoderWeights())
    b = decode(src, pt, lm, DecoderWeights())
    assert a == b


def test_decoder_rejects_empty_source():
    with pytest.raises(DegenerateInputError):
        decode((), PhraseTable({}), fixture_lm(),
               DecoderWeights())


def test_decoder_weights_validation():
    with pytest.raises(ArgumentError):
        DecoderWeights(beam_size=0)
    with pytest.raises(ArgumentError):
        DecoderWeights(distortion_limit=-1)


@pytest.mark.parametrize("field", ["w_tm", "w_lm", "w_dist", "w_len"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_decoder_weights_refuse_a_non_finite_weight(field, value):
    with pytest.raises(ArgumentError, match=field):
        DecoderWeights(**{field: value})


# --- generators end to end ---

def test_generate_invalid_pair_keeps_a_and_rewrites_b(pair_split, pair_gens):
    _, val_ds = pair_split
    ex = val_ds.examples[0]
    new = generate_invalid(ex, pair_gens)
    assert new.text_a == ex.input.text_a
    assert new.text_b != ex.input.text_b


def test_generate_invalid_single_prefixes_first_half(sent_split, sent_gens):
    _, val_ds = sent_split
    ex = val_ds.examples[0]
    new = generate_invalid(ex, sent_gens)
    toks = tokenize(ex.input.text_a)
    half = math.ceil(len(toks) / 2)
    assert new.text_a.startswith(" ".join(toks[:half]) + " ")
    assert new.text_b is None


def test_generate_invalid_vocabulary_containment(pair_split, pair_gens):
    train_ds, val_ds = pair_split
    target_vocab = {}
    for label in pair_gens:
        vocab = set()
        for ex in train_ds.examples:
            if ex.gold_label == label:
                vocab |= set(tokenize(ex.input.text_b))
        target_vocab[label] = vocab
    for ex in val_ds.examples[:30]:
        new = generate_invalid(ex, pair_gens)
        out = set(tokenize(new.text_b))
        passthrough = set(tokenize(ex.input.text_a))
        assert out <= target_vocab[ex.gold_label] | passthrough, ex.id


def test_generate_invalid_requires_label_and_generator(pair_gens):
    with pytest.raises(UnsupportedTransformError):
        generate_invalid(Example("u", TextInput("a", "b"), None), pair_gens)
    with pytest.raises(ArgumentError):
        generate_invalid(Example("u", TextInput("a", "b"), 5), pair_gens)


def test_generate_invalid_deterministic(pair_split, pair_gens):
    _, val_ds = pair_split
    ex = val_ds.examples[3]
    a = generate_invalid(ex, pair_gens).text_b
    b = generate_invalid(ex, pair_gens).text_b
    assert a == b


def test_save_load_generator_round_trip(tmp_path, pair_split, pair_gens):
    _, val_ds = pair_split
    model = pair_gens[0]
    save_generator(model, tmp_path / "gen")
    back = load_generator(tmp_path / "gen")
    assert back.label == model.label
    assert back.weights == model.weights
    assert back.phrases.entries == model.phrases.entries
    assert back.lm.counts == model.lm.counts
    assert back.lm.total_tokens == model.lm.total_tokens
    assert back.lm.nonpositive and model.lm.nonpositive  # the decoder may skip
    for ex in val_ds.examples[:10]:
        src = tokenize(ex.input.text_a)
        a = decode(src, model.phrases, model.lm, model.weights)
        b = decode(src, back.phrases, back.lm, back.weights)
        assert a == b, ex.id


@pytest.mark.parametrize("name, line", [
    ("phrases.tsv", "good\tfine\n"),                         # two fields
    ("phrases.tsv", "good\tfine\t-0.5\t-0.5\t0\n"),          # five fields
    ("phrases.tsv", "good\tfine\t-0.5\thalf\n"),             # not a number
    ("phrases.tsv", "good\tfine\tnan\t-0.5\n"),              # not finite
    ("phrases.tsv", "good\tFine\t-0.5\t-0.5\n"),             # tokenize lowercases it
    ("phrases.tsv", "good\tfine.\t-0.5\t-0.5\n"),            # tokenize splits it
    ("phrases.tsv", "good\t\t-0.5\t-0.5\n"),                 # empty phrase
    ("phrases.tsv", "good  film\tfine\t-0.5\t-0.5\n"),       # empty token
    ("lm.tsv", "good film\n"),                                # one field
    ("lm.tsv", "good film\tmany\n"),                          # not a count
    ("lm.tsv", "good film\t0\n"),                             # below 1
    ("lm.tsv", "good film\t-1\n"),                            # cancels another count
], ids=["phrase-2-fields", "phrase-5-fields", "phrase-number", "phrase-nan",
        "phrase-case", "phrase-punct", "phrase-empty", "phrase-empty-token",
        "lm-1-field", "lm-count", "lm-count-zero", "lm-count-negative"])
def test_load_generator_refuses_a_bad_line_naming_it(tmp_path, pair_gens, name, line):
    save_generator(pair_gens[0], tmp_path / "gen")
    path = tmp_path / "gen" / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + line + "".join(lines[1:]), encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: "):
        load_generator(tmp_path / "gen")


def test_load_generator_refuses_weights_without_a_field(tmp_path, pair_gens):
    save_generator(pair_gens[0], tmp_path / "gen")
    path = tmp_path / "gen" / "weights.json"
    path.write_text('{"label": 0}', encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_generator(tmp_path / "gen")


@pytest.mark.parametrize("field, value", [
    ("lm_order", "x"), ("lm_order", 0), ("lm_order", 1), ("lm_order", 2),
    ("lm_order", 4), ("lm_order", 3.0), ("lm_order", True),
    ("lm_total_tokens", 1), ("lm_total_tokens", "many"),
])
def test_load_generator_refuses_weights_that_do_not_match_the_lm(
        tmp_path, pair_gens, field, value):
    save_generator(pair_gens[0], tmp_path / "gen")
    path = tmp_path / "gen" / "weights.json"
    meta = json.loads(path.read_text(encoding="utf-8"))
    meta[field] = value
    path.write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*{field}"):
        load_generator(tmp_path / "gen")


@pytest.mark.parametrize("field, value", [
    ("beam_size", 0), ("distortion_limit", -1), ("w_lm", math.nan), ("w_tm", math.inf),
])
def test_load_generator_refuses_weights_the_decoder_refuses(tmp_path, pair_gens,
                                                            field, value):
    save_generator(pair_gens[0], tmp_path / "gen")
    path = tmp_path / "gen" / "weights.json"
    meta = json.loads(path.read_text(encoding="utf-8"))
    meta[field] = value
    path.write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
        load_generator(tmp_path / "gen")


def test_save_generator_writes_no_lexical_table(tmp_path, pair_gens):
    save_generator(pair_gens[0], tmp_path / "gen")
    assert sorted(p.name for p in (tmp_path / "gen").iterdir()) == \
        ["lm.tsv", "phrases.tsv", "weights.json"]


# --- pinned decoder outputs ---

# sha256 over "<id>\t<output>" lines: every bundled sentiment row decodes its
# first half, every pair validation row its text_a, each with the generator of
# its own label.
DECODER_DIGESTS = {
    "default":
        "2d6b7990be62bd6f8db90feff9462b3deb4da7a4106ed6c8f6615e490704ed41",
    "beam1":
        "9055c2ca7164412c4a395a2787efc48244a46a2929900e536899179a366a7165",
    "monotone":
        "ed45f63fae5c38ea80938a10132bc681cce62bfa54c2a83d982e6490523d0015",
}
DECODER_SETTINGS = {
    "default": {},
    "beam1": {"beam_size": 1},
    "monotone": {"distortion_limit": 0},
}


@pytest.mark.parametrize("setting", sorted(DECODER_SETTINGS))
def test_decoder_outputs_match_pinned_digests(setting, sent_ds, sent_gens,
                                              pair_split, pair_gens):
    weights = DecoderWeights(**DECODER_SETTINGS[setting])
    sources = []
    for ex in sent_ds.examples:
        toks = tokenize(ex.input.text_a)
        sources.append((ex, sent_gens, toks[:math.ceil(len(toks) / 2)]))
    for ex in pair_split[1].examples:
        sources.append((ex, pair_gens, tokenize(ex.input.text_a)))
    h = hashlib.sha256()
    for ex, gens, src in sources:
        model = gens[ex.gold_label]
        out = decode(src, model.phrases, model.lm, weights)
        h.update(f"{ex.id}\t{' '.join(out)}\n".encode())
    assert h.hexdigest() == DECODER_DIGESTS[setting]


# --- the plain implementations, kept as oracles for the faster ones ---

def reference_train_model1(corpus, iterations=10):
    """IBM Model 1 EM over string-keyed dicts, summing in the same order as
    `train_model1`."""
    from collections import defaultdict
    tgt_vocab = sorted({w for _, tgt in corpus for w in tgt})
    uniform = 1.0 / len(tgt_vocab)
    src_vocab = {NULL} | {w for src, _ in corpus for w in src}
    t = {s: defaultdict(lambda: uniform) for s in src_vocab}
    for _ in range(iterations):
        count = defaultdict(float)
        total = defaultdict(float)
        for src, tgt in corpus:
            srcs = (NULL,) + src
            for t_word in tgt:
                denom = sum(t[s][t_word] for s in srcs)
                for s in srcs:
                    frac = t[s][t_word] / denom
                    count[(s, t_word)] += frac
                    total[s] += frac
        new_t = {s: {} for s in src_vocab}
        for (s, t_word), c in count.items():
            new_t[s][t_word] = c / total[s]
        t = {s: defaultdict(float, d) for s, d in new_t.items()}
    return {s: dict(d) for s, d in t.items()}


def reference_build_phrase_table(corpus, table):
    """Pair, source and target counts kept side by side, one increment each
    per extracted phrase pair."""
    from collections import Counter
    pair_counts, src_counts, tgt_counts = Counter(), Counter(), Counter()
    for pair in corpus:
        for s, t in extract_phrases(pair, align(pair, table)):
            pair_counts[(s, t)] += 1
            src_counts[s] += 1
            tgt_counts[t] += 1
    return PhraseTable({(s, t): (math.log(c / src_counts[s]), math.log(c / tgt_counts[t]))
                        for (s, t), c in pair_counts.items()})


def reference_extract_phrases(pair, alignment):
    """Every source span against every target span, each checked against
    every link."""
    src, tgt = pair
    out = []
    for i1 in range(len(src)):
        for i2 in range(i1, min(i1 + 3, len(src))):
            for j1 in range(len(tgt)):
                for j2 in range(j1, min(j1 + 3, len(tgt))):
                    inside = False
                    consistent = True
                    for (i, j) in alignment:
                        in_src = i1 <= i <= i2
                        in_tgt = j1 <= j <= j2
                        if in_src and in_tgt:
                            inside = True
                        elif in_src != in_tgt:
                            consistent = False
                            break
                    if inside and consistent:
                        out.append((tuple(src[i1:i2 + 1]), tuple(tgt[j1:j2 + 1])))
    return out


def reference_decode(source, pt, lm, w):
    """The stack decoder scoring every candidate with the language model."""
    src = tuple(source)
    n = len(src)
    keep = -(lm.order - 1) if lm.order > 1 else 1  # one word, then an empty context
    spans = [(i, j, ((1 << (j - i)) - 1) << i,
              [(tgt, w.w_tm * log_ts, w.w_len * len(tgt)) for tgt, log_ts in opts])
             for (i, j), opts in pbsmt._phrase_options(src, pt).items()]
    bos = (BOS,) * (lm.order - 1)
    stacks = [dict() for _ in range(n + 1)]
    stacks[0][(0, 0, bos)] = (0.0, (), 0, 0, bos)
    for covered in range(n):
        hyps = sorted(stacks[covered].values(), key=lambda h: (-h[0], h[1]))
        for score, output, coverage, last_end, context in hyps[: w.beam_size]:
            for i, j, mask, opts in spans:
                if coverage & mask:
                    continue
                jump = abs(i - last_end)
                if jump > w.distortion_limit:
                    continue
                new_cov = coverage | mask
                if j - (((new_cov + 1) & ~new_cov).bit_length() - 1) > w.distortion_limit:
                    continue
                dist = w.w_dist * jump
                stack = stacks[covered + (j - i)]
                for tgt, tm, length in opts:
                    lm_inc = 0.0
                    ctx = context
                    for word in tgt:
                        lm_inc += lm.word_logprob(word, ctx)
                        ctx = (ctx + (word,))[keep:]
                    new_score = score + tm + w.w_lm * lm_inc + dist + length
                    key = (new_cov, j, ctx)
                    old = stack.get(key)
                    if old is None or new_score > old[0] or \
                            (new_score == old[0] and output + tgt < old[1]):
                        stack[key] = (new_score, output + tgt, new_cov, j, ctx)
    finals = list(stacks[n].values())
    if not finals:
        if w.distortion_limit > 0:
            return reference_decode(source, pt, lm,
                                    DecoderWeights(w.w_tm, w.w_lm, w.w_dist,
                                                   w.w_len, w.beam_size, 0))
        raise DegenerateInputError("decoder found no complete hypothesis")
    return min(finals, key=lambda h: (-h[0], h[1]))[1]


SRC_WORDS = ("a", "b", "c", "d")
TGT_WORDS = ("x", "y", "z", "w")
# few distinct phrase scores, so that hypotheses often tie exactly
TIE_PRONE_LOGS = (0.0, math.log(0.5), math.log(0.25), -1.0)


def random_generator(rng):
    """A small phrase table and trigram (or lower) LM over a few words."""
    entries = {}
    for _ in range(rng.randrange(13)):
        s = tuple(rng.choice(SRC_WORDS) for _ in range(rng.randint(1, 3)))
        t = tuple(rng.choice(TGT_WORDS) for _ in range(rng.randint(1, 3)))
        entries[(s, t)] = (rng.choice(TIE_PRONE_LOGS), 0.0)
    sents = [tuple(rng.choice(TGT_WORDS) for _ in range(rng.randrange(5)))
             for _ in range(rng.randint(1, 6))]
    sents.append((rng.choice(TGT_WORDS),))
    return PhraseTable(entries), train_lm(sents, order=rng.choice((1, 2, 3, 3)))


def random_weights(rng, w_lm_choices=(0.0, 0.5, 0.5, 1.0)):
    return DecoderWeights(w_tm=rng.choice((1.0, 1.0, 0.5, 0.0)),
                          w_lm=rng.choice(w_lm_choices),
                          w_dist=rng.choice((0.0, -0.3, -0.3, -1.0)),
                          w_len=rng.choice((0.0, -0.1, -0.1, 0.25)),
                          beam_size=rng.randint(1, 10),
                          distortion_limit=rng.randint(0, 3))


def random_source(rng):
    # repeated words and pass-through words the table does not know
    words = SRC_WORDS + ("oov1", "oov2")
    return tuple(rng.choice(words) for _ in range(rng.randint(1, 6)))


def test_decoder_matches_the_reference_on_random_generators():
    import random
    rng = random.Random(13)
    for case in range(3000):
        pt, lm = random_generator(rng)
        for _ in range(2):
            w, src = random_weights(rng), random_source(rng)
            assert decode(src, pt, lm, w) == reference_decode(src, pt, lm, w), \
                (case, src, w)


def test_decoder_matches_the_reference_when_the_lm_term_raises_scores():
    import random
    rng = random.Random(14)
    for case in range(1000):
        pt, lm = random_generator(rng)
        w, src = random_weights(rng, w_lm_choices=(-0.5, -1.0, -2.0)), random_source(rng)
        assert decode(src, pt, lm, w) == reference_decode(src, pt, lm, w), \
            (case, src, w)


def test_decoder_matches_the_reference_when_a_word_scores_above_zero():
    import random
    # counts above their context totals: log p(y | x) = log(6 / 2) > 0
    lm = LanguageModel(2, {("x",): 2, ("y",): 2, ("z",): 1, ("x", "y"): 6,
                           ("y", "y"): 9, ("x", "z"): 1, ("z", "x"): 3},
                       {("x",): 2, ("y",): 1, ("z",): 1}, 3,
                       frozenset({"x", "y", "z"}))
    assert lm.word_logprob("y", ("x",)) > 0
    rng = random.Random(15)
    for case in range(1000):
        pt, _ = random_generator(rng)
        w, src = random_weights(rng, w_lm_choices=(0.5, 1.0, 3.0)), random_source(rng)
        assert decode(src, pt, lm, w) == reference_decode(src, pt, lm, w), \
            (case, src, w)


L2, L4 = math.log(0.5), math.log(0.25)
# Found by random search: a candidate the decoder skips is the first to reach
# a key that a better candidate reaches later. Keys that tie exactly on
# (score, output) sort by first arrival, so without a placeholder holding the
# skipped candidate's place the beam keeps a different hypothesis.
KEY_ORDER_CASES = [
    (("a", "a", "b", "a", "b", "b", "a"), 1, 0.3, {
        (("b", "b"), ("x",)): 0.0, (("b", "a"), ("x", "x")): L2,
        (("a", "b", "a"), ("x",)): L2, (("b", "a", "b"), ("x", "x")): L4,
        (("a", "b", "b"), ("x", "x", "x")): L4, (("b", "a"), ("x", "x", "x")): L4,
        (("b",), ("x", "x")): L2, (("a", "b"), ("x",)): L4,
        (("a",), ("x", "x", "x")): L4, (("b", "a"), ("x",)): 0.0,
        (("a", "a"), ("x",)): 0.0, (("b", "a", "a"), ("x", "x", "x")): L2,
        (("a", "b", "b"), ("x",)): 0.0}),
    (("b", "c", "q", "b", "a", "b", "b", "q"), 2, 0.0, {
        (("b", "a"), ("x", "x", "x")): 0.0, (("b", "c"), ("x", "x", "x")): L4,
        (("b",), ("x", "x")): 0.0, (("c", "b"), ("x", "x", "x")): L2,
        (("b", "c", "c"), ("x", "x")): L2, (("b", "a"), ("x", "x")): 0.0,
        (("a", "b"), ("x",)): L4, (("b", "a", "b"), ("x",)): L2,
        (("b", "b"), ("x",)): L4, (("b", "b", "a"), ("x", "x")): 0.0}),
]


@pytest.mark.parametrize("src, order, w_len, log_ts", KEY_ORDER_CASES)
def test_decoder_keeps_the_key_order_of_skipped_candidates(src, order, w_len, log_ts):
    pt = PhraseTable({pair: (log_p, 0.0) for pair, log_p in log_ts.items()})
    lm = train_lm([("x",)], order=order)
    w = DecoderWeights(w_lm=0.0, w_dist=0.0, w_len=w_len, beam_size=1)
    assert decode(src, pt, lm, w) == reference_decode(src, pt, lm, w)


def test_decoder_matches_the_reference_on_the_bundled_generators(
        sent_ds, sent_gens, pair_split, pair_gens):
    sources = [(sent_gens[ex.gold_label], tokenize(ex.input.text_a))
               for ex in sent_ds.examples[::4]]
    sources += [(pair_gens[ex.gold_label], tokenize(ex.input.text_a))
                for ex in pair_split[1].examples[::4]]
    wide = [{"beam_size": 3, "distortion_limit": 1}, {"beam_size": 20, "distortion_limit": 5}]
    for setting in [*DECODER_SETTINGS.values(), *wide]:
        w = DecoderWeights(**setting)
        for model, src in sources:
            assert decode(src, model.phrases, model.lm, w) == \
                reference_decode(src, model.phrases, model.lm, w), src


def _bits(table):
    return [(s, [(t, p.hex()) for t, p in d.items()]) for s, d in table.items()]


@pytest.mark.parametrize("corpus_name", ["sent", "pair"])
def test_model1_matches_the_reference_bit_for_bit(corpus_name, sent_ds, pair_ds):
    ds = sent_ds if corpus_name == "sent" else pair_ds
    for label in range(ds.labels.n_classes):
        corpus = build_parallel_corpus(ds, label)
        for iterations in (1, 2, 10):
            assert _bits(train_model1(corpus, iterations)) == \
                _bits(reference_train_model1(corpus, iterations))


def random_corpus(rng, n_pairs):
    """Pairs over a few words, so words repeat within and across pairs, and
    some pairs repeat whole."""
    pairs = []
    for _ in range(n_pairs):
        if pairs and rng.random() < 0.2:
            pairs.append(rng.choice(pairs))
            continue
        src = tuple(rng.choice(SRC_WORDS) for _ in range(rng.randint(1, 6)))
        tgt = tuple(rng.choice(TGT_WORDS + ("v",)) for _ in range(rng.randint(1, 6)))
        pairs.append((src, tgt))
    return tuple(pairs)


def test_model1_matches_the_reference_on_random_corpora():
    import random
    rng = random.Random(21)
    for case in range(60):
        corpus = random_corpus(rng, rng.randint(1, 30))
        for iterations in (1, 2, 10):
            assert _bits(train_model1(corpus, iterations)) == \
                _bits(reference_train_model1(corpus, iterations)), (case, iterations)


def test_model1_matches_the_reference_on_repeated_and_unaligned_words():
    corpus = corpus_of(("a a b", "x x"), ("b", "y x y"), ("c a", "z"),
                       ("a", "x"), ("d d d", "x y"))
    for iterations in (1, 3):
        assert _bits(train_model1(corpus, iterations)) == \
            _bits(reference_train_model1(corpus, iterations))


def test_extract_phrases_matches_the_reference_in_order():
    import random
    rng = random.Random(16)
    for _ in range(2000):
        src = tuple(f"s{i}" for i in range(rng.randint(1, 7)))
        tgt = tuple(f"t{j}" for j in range(rng.randint(1, 7)))
        links = {(rng.randrange(len(src)), rng.randrange(len(tgt)))
                 for _ in range(rng.randrange(len(src) + len(tgt)))}
        assert extract_phrases((src, tgt), links) == \
            reference_extract_phrases((src, tgt), links), (src, tgt, links)


@pytest.mark.parametrize("corpus_name", ["sent", "pair"])
def test_extract_phrases_matches_the_reference_on_bundled_alignments(
        corpus_name, sent_ds, pair_ds):
    ds = sent_ds if corpus_name == "sent" else pair_ds
    for label in range(ds.labels.n_classes):
        corpus = build_parallel_corpus(ds, label)
        table = train_model1(corpus)
        for pair in corpus:
            links = align(pair, table)
            assert extract_phrases(pair, links) == reference_extract_phrases(pair, links)


def _phrase_bits(pt):
    return [(pair, lts.hex(), lst.hex()) for pair, (lts, lst) in pt.entries.items()], \
        list(pt.by_source.items())


@pytest.mark.parametrize("corpus_name", ["sent", "pair"])
def test_build_phrase_table_matches_the_reference_in_order(corpus_name, sent_ds, pair_ds):
    ds = sent_ds if corpus_name == "sent" else pair_ds
    for label in range(ds.labels.n_classes):
        corpus = build_parallel_corpus(ds, label)
        table = train_model1(corpus)
        assert _phrase_bits(build_phrase_table(corpus, table)) == \
            _phrase_bits(reference_build_phrase_table(corpus, table))


def test_build_phrase_table_matches_the_reference_on_random_corpora():
    import random
    rng = random.Random(22)
    for case in range(60):
        corpus = random_corpus(rng, rng.randint(1, 30))
        table = train_model1(corpus, rng.choice((1, 3)))
        assert _phrase_bits(build_phrase_table(corpus, table)) == \
            _phrase_bits(reference_build_phrase_table(corpus, table)), case


def test_decode_sorts_no_placeholder_of_a_skipped_candidate(sent_gens, sent_ds, monkeypatch):
    """Skipped candidates hold their key's place in a stack with pbsmt._RESERVED;
    the placeholders sort last and never reach the beam, so no sort sees them."""
    entries = []

    def counting_sorted(values, **kwargs):
        values = list(values)
        entries.extend(values)
        return sorted(values, **kwargs)

    monkeypatch.setattr(pbsmt, "sorted", counting_sorted, raising=False)
    for ex in sent_ds.examples[:40]:
        generate_invalid(ex, sent_gens)
    assert entries and pbsmt._RESERVED not in entries

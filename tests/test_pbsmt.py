"""Statistical invalid-input generators: EM word alignment, phrase
extraction, backoff language model, and the beam decoder (checked against an
independent exhaustive search)."""

import hashlib
import math
import re

import pytest

from saladbench import pbsmt
from saladbench.corpus import Dataset, Example, TextInput, tokenize
from saladbench.errors import (ArgumentError, DataError, DegenerateInputError,
                               InsufficientDataError, UnsupportedTransformError)
from saladbench.pbsmt import (BOS, NULL, DecoderWeights, LanguageModel,
                              LexicalTable, ParallelCorpus, PhraseTable, align,
                              build_parallel_corpus, build_phrase_table,
                              corpus_loglikelihood, decode, extract_phrases,
                              generate_invalid, load_generator, save_generator,
                              train_generator, train_lm, train_model1)


def corpus_of(*pairs, label=0):
    return ParallelCorpus(tuple((tuple(s.split()), tuple(t.split()))
                                for s, t in pairs), label)


# --- parallel corpus construction ---

def test_build_parallel_corpus_single_task_splits_at_midpoint():
    ds = Dataset((Example("a", TextInput("w1 w2 w3 w4 w5"), 0),),
                 _labels(), "single")
    corpus = build_parallel_corpus(ds, 0, min_pairs=1)
    assert corpus.pairs == ((("w1", "w2", "w3"), ("w4", "w5")),)


def test_build_parallel_corpus_pair_task_uses_both_sides():
    ds = Dataset((Example("a", TextInput("p1 p2", "h1 h2 h3"), 1),),
                 _labels(), "pair")
    corpus = build_parallel_corpus(ds, 1, min_pairs=1)
    assert corpus.pairs == ((("p1", "p2"), ("h1", "h2", "h3")),)


def test_build_parallel_corpus_filters_by_label_and_enforces_min_pairs():
    ds = Dataset((Example("a", TextInput("w1 w2"), 0),
                  Example("b", TextInput("w3 w4"), 1)),
                 _labels(), "single")
    assert len(build_parallel_corpus(ds, 0, min_pairs=1).pairs) == 1
    with pytest.raises(InsufficientDataError):
        build_parallel_corpus(ds, 0, min_pairs=2)


def _labels():
    from saladbench.corpus import LabelSet
    return LabelSet(("no", "yes"))


# --- IBM Model 1 EM ---

def test_em_single_pair_converges_to_certainty():
    corpus = corpus_of(*[("a", "x")] * 10)
    table = train_model1(corpus, iterations=10)
    assert abs(table.prob("x", "a") - 1.0) < 1e-6


def test_em_disambiguates_with_a_pivot_pair():
    corpus = corpus_of(("a b", "x y"), ("a", "x"))
    table = train_model1(corpus, iterations=2)
    assert table.prob("x", "a") > table.prob("y", "a")


def test_em_rows_are_normalized():
    corpus = corpus_of(("a b c", "x y"), ("b c", "y z"), ("a", "x"))
    table = train_model1(corpus, iterations=5)
    for src, dist in table.t.items():
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
        train_model1(ParallelCorpus((), 0))


# --- alignment ---

def test_align_identity_corpus_is_diagonal():
    sents = ["a b c", "b c d", "c d a", "d a b"]
    corpus = corpus_of(*[(s, s) for s in sents])
    table = train_model1(corpus, iterations=10)
    for src, tgt in corpus.pairs:
        assert align((src, tgt), table) == {(i, i) for i in range(len(src))}


def test_align_is_intersection_of_directional_argmaxes():
    # t(x|a)=1, t(y|b)=1 -> clean 1:1 links; c has no counterpart
    table = LexicalTable({"a": {"x": 1.0}, "b": {"y": 1.0}, "c": {},
                          NULL: {"x": 0.1, "y": 0.1}})
    assert align((("a", "b", "c"), ("x", "y")), table) == {(0, 0), (1, 1)}


def test_align_drops_null_dominated_links():
    table = LexicalTable({"a": {"x": 0.2}, NULL: {"x": 0.9}})
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
    assert lm.sequence_logprob(("a", "a", "a")) == 0.0


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
    assert abs(lm.sequence_logprob(seq) - total) < 1e-12


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


# --- generators end to end ---

def test_generate_invalid_pair_keeps_a_and_rewrites_b(pair_split, pair_gens):
    _, val_ds = pair_split
    ex = val_ds.examples[0]
    new = generate_invalid(ex, pair_gens, "pair")
    assert new.text_a == ex.input.text_a
    assert new.text_b != ex.input.text_b


def test_generate_invalid_single_prefixes_first_half(sent_split, sent_gens):
    _, val_ds = sent_split
    ex = val_ds.examples[0]
    new = generate_invalid(ex, sent_gens, "single")
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
        new = generate_invalid(ex, pair_gens, "pair")
        out = set(tokenize(new.text_b))
        passthrough = set(tokenize(ex.input.text_a))
        assert out <= target_vocab[ex.gold_label] | passthrough, ex.id


def test_generate_invalid_requires_label_and_generator(pair_gens):
    with pytest.raises(UnsupportedTransformError):
        generate_invalid(Example("u", TextInput("a", "b"), None), pair_gens, "pair")
    with pytest.raises(ArgumentError):
        generate_invalid(Example("u", TextInput("a", "b"), 5), pair_gens, "pair")


def test_generate_invalid_deterministic(pair_split, pair_gens):
    _, val_ds = pair_split
    ex = val_ds.examples[3]
    a = generate_invalid(ex, pair_gens, "pair").text_b
    b = generate_invalid(ex, pair_gens, "pair").text_b
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
], ids=["phrase-2-fields", "phrase-5-fields", "phrase-number", "phrase-nan",
        "phrase-case", "phrase-punct", "phrase-empty", "phrase-empty-token",
        "lm-1-field", "lm-count"])
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


def test_save_generator_writes_no_lexical_table(tmp_path, pair_gens):
    save_generator(pair_gens[0], tmp_path / "gen")
    assert sorted(p.name for p in (tmp_path / "gen").iterdir()) == \
        ["lm.tsv", "phrases.tsv", "weights.json"]


def test_train_generator_insufficient_data(pair_split):
    train_ds, _ = pair_split
    with pytest.raises(InsufficientDataError):
        train_generator(train_ds, 0, min_pairs=10**6)


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

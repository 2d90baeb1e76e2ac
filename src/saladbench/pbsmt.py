"""Per-label statistical sequence generators (PBSMT-lite).

A minimal phrase-based pipeline replacing a full SMT toolkit: IBM Model 1
word alignment, intersected argmax symmetrization, consistent phrase pairs
up to MAX_PHRASE_LEN tokens, a trigram stupid-backoff language model, and a
stack beam decoder with a distortion limit. Each label gets its own generator
trained only on that label's examples, so outputs carry the label's
co-occurrence statistics while being meaningless.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .corpus import Dataset, Example, TextInput, text_lines, tokenize
from .errors import (ArgumentError, DataError, DegenerateInputError,
                     InsufficientDataError, UnsupportedTransformError)
from .lexical import rewrite

NULL = "<null>"
BOS = "<s>"
MAX_PHRASE_LEN = 3  # tokens per side of a phrase pair


@dataclass(frozen=True)
class ParallelCorpus:
    pairs: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    label: int


@dataclass
class LexicalTable:
    # t[src][tgt] = p(tgt | src); includes the NULL source token
    t: dict[str, dict[str, float]]

    def prob(self, tgt: str, src: str) -> float:
        return self.t.get(src, {}).get(tgt, 0.0)


@dataclass
class PhraseTable:
    # (src phrase, tgt phrase) -> (log p(t|s), log p(s|t)); phrases are tuples
    entries: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[float, float]]
    # src phrase -> [(tgt phrase, log p(t|s))], in `entries` order
    by_source: dict[tuple[str, ...], list[tuple[tuple[str, ...], float]]] = \
        field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.by_source = {}
        for (s, t), (log_ts, _) in self.entries.items():
            self.by_source.setdefault(s, []).append((t, log_ts))


@dataclass
class LanguageModel:
    order: int
    counts: dict[tuple[str, ...], int]       # n-gram -> count, n in 1..order
    context_totals: dict[tuple[str, ...], int]  # context -> sum of continuations
    total_tokens: int
    vocab: frozenset
    alpha: float = 0.4
    # (word, context) -> word_logprob(word, context), filled by `decode`
    memo: dict[tuple[str, tuple[str, ...]], float] = \
        field(default_factory=dict, init=False, repr=False, compare=False)

    def word_logprob(self, word: str, context: tuple[str, ...]) -> float:
        """Stupid backoff score with alpha=0.4 and a 1/(V+1) unigram floor."""
        context = context[-(self.order - 1):]
        backoff = 1.0
        for n in range(len(context), 0, -1):
            ctx = context[len(context) - n:]
            c = self.counts.get(ctx + (word,), 0)
            if c > 0:
                return math.log(backoff * c / self.context_totals[ctx])
            backoff *= self.alpha
        c = self.counts.get((word,), 0)
        if c > 0:
            return math.log(backoff * c / self.total_tokens)
        return math.log(backoff / (len(self.vocab) + 1))

    def sequence_logprob(self, tokens: Sequence[str]) -> float:
        context = (BOS,) * (self.order - 1)
        total = 0.0
        for w in tokens:
            total += self.word_logprob(w, context)
            context = (context + (w,))[-(self.order - 1):]
        return total


@dataclass(frozen=True)
class DecoderWeights:
    w_tm: float = 1.0
    w_lm: float = 0.5
    w_dist: float = -0.3
    w_len: float = -0.1
    beam_size: int = 10
    distortion_limit: int = 3

    def __post_init__(self):
        if self.beam_size < 1 or self.distortion_limit < 0:
            raise ArgumentError("beam_size >= 1 and distortion_limit >= 0 required")


def build_parallel_corpus(ds: Dataset, label: int, min_pairs: int = 50) -> ParallelCorpus:
    """Label-restricted bitext: (a, b) sides for pair tasks, first/second
    half of the sentence for single tasks."""
    pairs = []
    for ex in ds.examples:
        if ex.gold_label != label:
            continue
        if ds.task_kind == "pair":
            src, tgt = ex.input.tokens("a"), ex.input.tokens("b")
        else:
            toks = ex.input.tokens("a")
            half = math.ceil(len(toks) / 2)
            src, tgt = toks[:half], toks[half:]
        if src and tgt:
            pairs.append((src, tgt))
    if len(pairs) < min_pairs:
        raise InsufficientDataError(
            f"label {label}: {len(pairs)} usable pairs < min_pairs={min_pairs}")
    return ParallelCorpus(tuple(pairs), label)


def corpus_loglikelihood(corpus: ParallelCorpus, table: LexicalTable) -> float:
    """Model 1 log-likelihood with uniform alignment prior over src + NULL."""
    total = 0.0
    for src, tgt in corpus.pairs:
        srcs = (NULL,) + src
        for t_word in tgt:
            p = sum(table.prob(t_word, s) for s in srcs) / len(srcs)
            total += math.log(max(p, 1e-300))
    return total


def train_model1(corpus: ParallelCorpus, iterations: int = 10) -> LexicalTable:
    """IBM Model 1 EM with a NULL source token and uniform initialization."""
    if not corpus.pairs:
        raise ArgumentError("empty parallel corpus")
    tgt_vocab = sorted({w for _, tgt in corpus.pairs for w in tgt})
    uniform = 1.0 / len(tgt_vocab)
    src_vocab = {NULL} | {w for src, _ in corpus.pairs for w in src}
    t: dict[str, dict[str, float]] = {s: defaultdict(lambda: uniform) for s in src_vocab}

    for _ in range(iterations):
        count = defaultdict(float)
        total = defaultdict(float)
        for src, tgt in corpus.pairs:
            srcs = (NULL,) + src
            for t_word in tgt:
                denom = sum(t[s][t_word] for s in srcs)
                for s in srcs:
                    frac = t[s][t_word] / denom
                    count[(s, t_word)] += frac
                    total[s] += frac
        new_t: dict[str, dict[str, float]] = {s: {} for s in src_vocab}
        for (s, t_word), c in count.items():
            new_t[s][t_word] = c / total[s]
        t = {s: defaultdict(float, d) for s, d in new_t.items()}
    return LexicalTable({s: dict(d) for s, d in t.items()})


def align(pair: tuple[Sequence[str], Sequence[str]], table: LexicalTable) -> set[tuple[int, int]]:
    """Intersection of the two directional argmax alignments derived from
    t(tgt|src): target-to-best-source and source-to-best-target. NULL links
    are dropped."""
    src, tgt = pair
    tgt_to_src = set()
    for j, t_word in enumerate(tgt):
        candidates = [(table.prob(t_word, s), -i) for i, s in enumerate(src)]
        null_p = table.prob(t_word, NULL)
        best_p, neg_i = max(candidates)
        if best_p > 0 and best_p >= null_p:
            tgt_to_src.add((-neg_i, j))
    src_to_tgt = set()
    for i, s_word in enumerate(src):
        candidates = [(table.prob(t, s_word), -j) for j, t in enumerate(tgt)]
        best_p, neg_j = max(candidates)
        if best_p > 0:
            src_to_tgt.add((i, -neg_j))
    return tgt_to_src & src_to_tgt


def extract_phrases(pair: tuple[Sequence[str], Sequence[str]],
                    alignment: set[tuple[int, int]]
                    ) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All phrase pairs of at most MAX_PHRASE_LEN tokens a side consistent
    with the alignment: no link leaves the rectangle and at least one link
    lies inside."""
    src, tgt = pair
    out = []
    for i1 in range(len(src)):
        for i2 in range(i1, min(i1 + MAX_PHRASE_LEN, len(src))):
            for j1 in range(len(tgt)):
                for j2 in range(j1, min(j1 + MAX_PHRASE_LEN, len(tgt))):
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


def build_phrase_table(corpus: ParallelCorpus, table: LexicalTable) -> PhraseTable:
    pair_counts: Counter = Counter()
    src_counts: Counter = Counter()
    tgt_counts: Counter = Counter()
    for pair in corpus.pairs:
        a = align(pair, table)
        for s, t in extract_phrases(pair, a):
            pair_counts[(s, t)] += 1
            src_counts[s] += 1
            tgt_counts[t] += 1
    entries = {}
    for (s, t), c in pair_counts.items():
        entries[(s, t)] = (math.log(c / src_counts[s]), math.log(c / tgt_counts[t]))
    return PhraseTable(entries)


def train_lm(targets: Sequence[Sequence[str]], order: int = 3) -> LanguageModel:
    """Trigram counts over BOS-padded target sentences with stupid backoff."""
    if not targets or all(len(t) == 0 for t in targets):
        raise ArgumentError("empty target side")
    counts: Counter = Counter()
    context_totals: Counter = Counter()
    total = 0
    vocab = set()
    for sent in targets:
        padded = (BOS,) * (order - 1) + tuple(sent)
        for w in sent:
            vocab.add(w)
            total += 1
            counts[(w,)] += 1
        for n in range(2, order + 1):
            for k in range(order - 1, len(padded)):
                ngram = padded[k - n + 1: k + 1]
                counts[ngram] += 1
                context_totals[ngram[:-1]] += 1
    return LanguageModel(order, dict(counts), dict(context_totals), total, frozenset(vocab))


def _phrase_options(source: tuple[str, ...], pt: PhraseTable):
    """Applicable options per source span; bare single tokens pass through."""
    options: dict[tuple[int, int], list[tuple[tuple[str, ...], float]]] = {}
    n = len(source)
    for i in range(n):
        for j in range(i + 1, min(i + MAX_PHRASE_LEN, n) + 1):
            opts = pt.by_source.get(source[i:j])
            if opts:
                options[(i, j)] = opts
    for i in range(n):
        if (i, i + 1) not in options:
            options[(i, i + 1)] = [((source[i],), 0.0)]
    return options


def decode(source: tuple[str, ...], pt: PhraseTable, lm: LanguageModel,
           w: DecoderWeights) -> tuple[str, ...]:
    """Stack beam search over source coverage.

    Hypothesis score = w_tm * log p(t|s) + w_lm * LM + w_dist * sum(|jump|)
    + w_len * output length. Reordering: the start of each phrase must lie
    within distortion_limit of the previous phrase's end, and the phrase may
    not run ahead of the earliest uncovered word by more than the limit (so
    every kept hypothesis stays completable). Deterministic: ties break on
    the output string.

    A hypothesis is (score, output, coverage, last_end, context); hypotheses
    with the same (coverage, last_end, context) recombine. LM scores are read
    through `lm.memo`.
    """
    src = tuple(source)
    if not src:
        raise DegenerateInputError("cannot decode an empty source")
    n = len(src)
    limit, w_lm = w.distortion_limit, w.w_lm
    keep = -(lm.order - 1)
    memo = lm.memo
    # (start, end, coverage mask, [(tgt, w_tm term, w_len term)]) per span
    spans = [(i, j, ((1 << (j - i)) - 1) << i,
              [(tgt, w.w_tm * log_ts, w.w_len * len(tgt)) for tgt, log_ts in opts])
             for (i, j), opts in _phrase_options(src, pt).items()]
    bos = (BOS,) * (lm.order - 1)
    stacks: list[dict] = [dict() for _ in range(n + 1)]
    stacks[0][(0, 0, bos)] = (0.0, (), 0, 0, bos)

    for covered in range(n):
        # histogram pruning per stack
        hyps = sorted(stacks[covered].values(), key=lambda h: (-h[0], h[1]))
        for score, output, coverage, last_end, context in hyps[: w.beam_size]:
            for i, j, mask, opts in spans:
                if coverage & mask:
                    continue
                jump = abs(i - last_end)
                if jump > limit:
                    continue
                new_cov = coverage | mask
                # the first uncovered word is the lowest zero bit, (x + 1) & ~x
                if j - (((new_cov + 1) & ~new_cov).bit_length() - 1) > limit:
                    continue
                dist = w.w_dist * jump
                stack = stacks[covered + (j - i)]
                for tgt, tm, length in opts:
                    lm_inc = 0.0
                    ctx = context
                    for word in tgt:
                        logprob = memo.get((word, ctx))
                        if logprob is None:
                            logprob = memo[(word, ctx)] = lm.word_logprob(word, ctx)
                        lm_inc += logprob
                        ctx = (ctx + (word,))[keep:]
                    new_score = score + tm + w_lm * lm_inc + dist + length
                    key = (new_cov, j, ctx)
                    old = stack.get(key)
                    if old is None or new_score > old[0] or \
                            (new_score == old[0] and output + tgt < old[1]):
                        stack[key] = (new_score, output + tgt, new_cov, j, ctx)

    finals = [h for h in stacks[n].values() if h[2] == (1 << n) - 1]
    if not finals:
        if w.distortion_limit > 0:
            return decode(source, pt, lm,
                          DecoderWeights(w.w_tm, w.w_lm, w.w_dist, w.w_len,
                                         w.beam_size, 0))
        raise DegenerateInputError("decoder found no complete hypothesis")
    return min(finals, key=lambda h: (-h[0], h[1]))[1]


@dataclass
class GeneratorModel:
    label: int
    phrases: PhraseTable
    lm: LanguageModel
    weights: DecoderWeights


def train_generator(ds: Dataset, label: int, iterations: int = 10,
                    weights: Optional[DecoderWeights] = None,
                    min_pairs: int = 50) -> GeneratorModel:
    corpus = build_parallel_corpus(ds, label, min_pairs=min_pairs)
    phrases = build_phrase_table(corpus, train_model1(corpus, iterations))
    lm = train_lm([t for _, t in corpus.pairs])
    return GeneratorModel(label, phrases, lm, weights or DecoderWeights())


def generate_invalid(ex: Example, models: dict[int, GeneratorModel],
                     task_kind: str) -> TextInput:
    """Run the example's own-label generator on its source side: text_a of a
    pair row, whose text_b the output becomes, or the first half of a single
    row, which the output then follows."""
    if ex.gold_label is None:
        raise UnsupportedTransformError(f"example {ex.id} has no gold label")
    model = models.get(ex.gold_label)
    if model is None:
        raise ArgumentError(f"no trained generator for label {ex.gold_label}")

    def edit(tokens):
        if task_kind == "pair":
            return decode(tokens, model.phrases, model.lm, model.weights)
        first = tokens[:math.ceil(len(tokens) / 2)]
        return first + decode(first, model.phrases, model.lm, model.weights)

    return rewrite(ex.input, "pbsmt", edit)


def save_generator(model: GeneratorModel, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "phrases.tsv"), "w", encoding="utf-8") as f:
        for (s, t), (lts, lst) in sorted(model.phrases.entries.items()):
            f.write(f"{' '.join(s)}\t{' '.join(t)}\t{lts!r}\t{lst!r}\n")
    with open(os.path.join(dirpath, "lm.tsv"), "w", encoding="utf-8") as f:
        for ngram, c in sorted(model.lm.counts.items()):
            f.write(f"{' '.join(ngram)}\t{c}\n")
    with open(os.path.join(dirpath, "weights.json"), "w", encoding="utf-8") as f:
        json.dump({
            "label": model.label,
            "w_tm": model.weights.w_tm, "w_lm": model.weights.w_lm,
            "w_dist": model.weights.w_dist, "w_len": model.weights.w_len,
            "beam_size": model.weights.beam_size,
            "distortion_limit": model.weights.distortion_limit,
            "lm_order": model.lm.order,
            "lm_total_tokens": model.lm.total_tokens,
        }, f, indent=2)


def _fields(path, n: int):
    """(line number, fields) for each line of a generator TSV file; a line
    without exactly n tab-separated fields is a DataError naming path:line."""
    for lineno, line in text_lines(path):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != n:
            raise DataError(f"{path}:{lineno}: {len(fields)} fields, expected {n}")
        yield lineno, fields


def load_generator(dirpath) -> GeneratorModel:
    """A generator saved by `save_generator`. A line with the wrong field
    count, a number that does not parse, or a phrase token that `tokenize`
    would not return unchanged is a DataError naming path:line, so every
    decoder output is a token tuple that survives a detokenize round trip."""
    entries = {}
    path = os.path.join(dirpath, "phrases.tsv")
    checked: set[str] = set()  # tokens seen to be tokens; a table repeats them
    for lineno, (s, t, lts, lst) in _fields(path, 4):
        phrases = (tuple(s.split(" ")), tuple(t.split(" ")))
        for tok in phrases[0] + phrases[1]:
            if tok not in checked:
                if tokenize(tok) != (tok,):
                    raise DataError(f"{path}:{lineno}: {tok!r} is not a token")
                checked.add(tok)
        try:
            scores = (float(lts), float(lst))
        except ValueError:
            raise DataError(f"{path}:{lineno}: scores {lts!r}, {lst!r} do not "
                            f"parse") from None
        if not all(map(math.isfinite, scores)):
            raise DataError(f"{path}:{lineno}: scores {lts!r}, {lst!r} are not "
                            f"finite numbers")
        entries[phrases] = scores
    counts: dict[tuple[str, ...], int] = {}
    path = os.path.join(dirpath, "lm.tsv")
    for lineno, (ngram, c) in _fields(path, 2):
        try:
            counts[tuple(ngram.split(" "))] = int(c)
        except ValueError:
            raise DataError(f"{path}:{lineno}: count {c!r} is not an integer") from None
    path = os.path.join(dirpath, "weights.json")
    try:
        with open(path, encoding="utf-8") as f:
            meta = json.load(f)
        order, total = meta["lm_order"], meta["lm_total_tokens"]
        weights = DecoderWeights(meta["w_tm"], meta["w_lm"], meta["w_dist"],
                                 meta["w_len"], meta["beam_size"], meta["distortion_limit"])
        label = meta["label"]
    except (ValueError, KeyError, TypeError) as e:  # not UTF-8 or JSON, or a field missing
        raise DataError(f"{path}: not generator weights ({type(e).__name__}: {e})") from None
    context_totals: Counter = Counter()
    vocab = set()
    for ngram, c in counts.items():
        if len(ngram) > 1:
            context_totals[ngram[:-1]] += c
        else:
            vocab.add(ngram[0])
    lm = LanguageModel(order, counts, dict(context_totals), total, frozenset(vocab))
    return GeneratorModel(label, PhraseTable(entries), lm, weights)


def load_generators(dirpath) -> dict[int, GeneratorModel]:
    """Every generator saved in a subdirectory of dirpath, keyed by label."""
    generators = {}
    for name in sorted(os.listdir(dirpath)):
        sub = os.path.join(dirpath, name)
        if os.path.isdir(sub):
            gen = load_generator(sub)
            generators[gen.label] = gen
    return generators

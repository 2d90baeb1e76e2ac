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
import sys
from bisect import insort
from collections import Counter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .corpus import Dataset, Example, TextInput, checked, text_lines, tokenize, write_file
from .errors import (ArgumentError, DataError, DegenerateInputError,
                     InsufficientDataError, UnsupportedTransformError)
from .lexical import rewrite

NULL = "<null>"
BOS = "<s>"
MAX_PHRASE_LEN = 3  # tokens per side of a phrase pair
BACKOFF = 0.4  # stupid-backoff factor per order backed off; at most 1, so it lowers scores
# a stack entry that holds a key's place for a candidate `decode` skipped
_RESERVED = (-math.inf, ())
# (source tokens, target tokens) pairs
Bitext = tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


class PhraseTable:
    __slots__ = ("entries", "by_source")

    def __init__(self, entries: dict[tuple[tuple[str, ...], tuple[str, ...]],
                                     tuple[float, float]]):
        # (src phrase, tgt phrase) -> (log p(t|s), log p(s|t)); phrases are tuples
        self.entries = entries
        # src phrase -> [(tgt phrase, log p(t|s))], in `entries` order
        self.by_source: dict[tuple[str, ...], list[tuple[tuple[str, ...], float]]] = {}
        for (s, t), (log_ts, _) in entries.items():
            self.by_source.setdefault(s, []).append((t, log_ts))


class LanguageModel:
    """Equality and repr read the counts; `memo` and `nonpositive` follow
    from them."""
    __slots__ = ("order", "counts", "context_totals", "total_tokens", "vocab",
                 "memo", "nonpositive")

    def __init__(self, order: int, counts: dict[tuple[str, ...], int],
                 context_totals: dict[tuple[str, ...], int], total_tokens: int,
                 vocab: frozenset):
        self.order = order
        self.counts = counts                    # n-gram -> count, n in 1..order
        self.context_totals = context_totals    # context -> sum of continuations
        self.total_tokens = total_tokens
        self.vocab = vocab
        # (word, context) -> word_logprob(word, context), filled by `decode`
        self.memo: dict[tuple[str, tuple[str, ...]], float] = {}
        # no word scores above 0: no count exceeds the total it is divided by
        self.nonpositive = all(
            c <= (context_totals.get(g[:-1], 0) if g[1:] else total_tokens)
            for g, c in counts.items() if c > 0)

    def _key(self) -> tuple:
        return self.order, self.counts, self.context_totals, self.total_tokens, self.vocab

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, LanguageModel) \
            else NotImplemented

    def __repr__(self) -> str:
        return "LanguageModel(order={!r}, counts={!r}, context_totals={!r}, " \
            "total_tokens={!r}, vocab={!r})".format(*self._key())

    def word_logprob(self, word: str, context: tuple[str, ...]) -> float:
        """Stupid backoff score (factor BACKOFF) with a 1/(V+1) unigram floor."""
        context = context[-(self.order - 1):] if self.order > 1 else ()
        backoff = 1.0
        for n in range(len(context), 0, -1):
            ctx = context[len(context) - n:]
            c = self.counts.get(ctx + (word,), 0)
            if c > 0:
                return math.log(backoff * c / self.context_totals[ctx])
            backoff *= BACKOFF
        c = self.counts.get((word,), 0)
        if c > 0:
            return math.log(backoff * c / self.total_tokens)
        return math.log(backoff / (len(self.vocab) + 1))


@checked
class DecoderWeights(NamedTuple):
    w_tm: float = 1.0
    w_lm: float = 0.5
    w_dist: float = -0.3
    w_len: float = -0.1
    beam_size: int = 10
    distortion_limit: int = 3

    def _check(self):
        for name in ("w_tm", "w_lm", "w_dist", "w_len"):
            if not math.isfinite(getattr(self, name)):
                raise ArgumentError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beam_size < 1 or self.distortion_limit < 0:
            raise ArgumentError("beam_size >= 1 and distortion_limit >= 0 required")


def build_parallel_corpus(ds: Dataset, label: int, min_pairs: int = 50) -> Bitext:
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
    return tuple(pairs)


def train_model1(pairs: Bitext, iterations: int = 10) -> dict[str, dict[str, float]]:
    """IBM Model 1 EM with a NULL source token and uniform initialization, over
    one integer cell per co-occurring (source, target) word pair. Returns
    t[src][tgt] = p(tgt | src) for every source word and NULL.

    Each target word of each pair is one row of the cells of NULL + source,
    padded with a spare cell that holds 0.0. A row's denominator is its
    `cumsum`, which adds left to right as `sum` does, and `bincount` adds the
    counts and totals in row order, so every float is what a loop over the
    rows would give."""
    if not pairs:
        raise ArgumentError("empty parallel corpus")
    if iterations < 1:
        raise ArgumentError(f"iterations must be at least 1, got {iterations}")
    uniform = 1.0 / len({w for _, tgt in pairs for w in tgt})
    src_vocab = {NULL} | {w for src, _ in pairs for w in src}
    cell_of: dict[tuple[str, str], int] = {}  # in order of first co-occurrence
    src_index: dict[str, int] = {}
    width = 1 + max(len(src) for src, _ in pairs)
    rows = []  # per target word of each pair: the cells of NULL + source, then -1s
    for src, tgt in pairs:
        srcs = (NULL,) + src
        for s in srcs:
            src_index.setdefault(s, len(src_index))
        pad = [-1] * (width - len(srcs))
        for t_word in tgt:
            rows.append([cell_of.setdefault((s, t_word), len(cell_of)) for s in srcs] + pad)
    spare = len(cell_of)
    cells = np.array(rows)
    cells[cells < 0] = spare
    owner = np.array([src_index[s] for s, _ in cell_of])  # each cell's source index
    flat = cells.ravel()
    owners = np.append(owner, len(src_index))[flat]       # a pad's goes to a spare total

    probs = np.full(spare + 1, uniform)
    probs[spare] = 0.0
    for _ in range(iterations):
        p = probs[cells]
        frac = (p / np.cumsum(p, axis=1)[:, -1:]).ravel()
        count = np.bincount(flat, frac, spare + 1)
        total = np.bincount(owners, frac, len(src_index) + 1)
        probs[:spare] = count[:spare] / total[owner]
    probs = probs.tolist()
    t: dict[str, dict[str, float]] = {s: {} for s in src_vocab}
    for (s, t_word), c in cell_of.items():
        t[s][t_word] = probs[c]
    return t


def align(pair: tuple[Sequence[str], Sequence[str]],
          table: dict[str, dict[str, float]]) -> set[tuple[int, int]]:
    """Intersection of the two directional argmax alignments derived from
    t(tgt|src) = table[src][tgt] (0 where absent): target-to-best-source and
    source-to-best-target. NULL links are dropped."""
    src, tgt = pair
    tgt_to_src = set()
    for j, t_word in enumerate(tgt):
        candidates = [(table.get(s, {}).get(t_word, 0.0), -i) for i, s in enumerate(src)]
        null_p = table.get(NULL, {}).get(t_word, 0.0)
        best_p, neg_i = max(candidates)
        if best_p > 0 and best_p >= null_p:
            tgt_to_src.add((-neg_i, j))
    src_to_tgt = set()
    for i, s_word in enumerate(src):
        row = table.get(s_word, {})
        candidates = [(row.get(t, 0.0), -j) for j, t in enumerate(tgt)]
        best_p, neg_j = max(candidates)
        if best_p > 0:
            src_to_tgt.add((i, -neg_j))
    return tgt_to_src & src_to_tgt


def extract_phrases(pair: tuple[Sequence[str], Sequence[str]],
                    alignment: set[tuple[int, int]]
                    ) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All phrase pairs of at most MAX_PHRASE_LEN tokens a side consistent
    with the alignment: no link leaves the rectangle and at least one link
    lies inside. Per source span, the target span must cover its links'
    targets, lo..hi, and no target of a link from outside it."""
    src, tgt = pair
    out = []
    for i1 in range(len(src)):
        for i2 in range(i1, min(i1 + MAX_PHRASE_LEN, len(src))):
            inside = [j for i, j in alignment if i1 <= i <= i2]
            if not inside:
                continue
            lo, hi = min(inside), max(inside)
            outside = [j for i, j in alignment if not i1 <= i <= i2]
            if any(lo <= j <= hi for j in outside):
                continue
            start = max([-1, hi - MAX_PHRASE_LEN] + [j for j in outside if j < lo]) + 1
            stop = min([len(tgt)] + [j for j in outside if j > hi])
            for j1 in range(start, lo + 1):
                for j2 in range(hi, min(j1 + MAX_PHRASE_LEN, stop)):
                    out.append((tuple(src[i1:i2 + 1]), tuple(tgt[j1:j2 + 1])))
    return out


def build_phrase_table(pairs: Bitext, table: dict[str, dict[str, float]]) -> PhraseTable:
    """Relative frequencies of the extracted phrase pairs in both directions,
    in order of first extraction."""
    pair_counts: Counter = Counter()
    for pair in pairs:
        pair_counts.update(extract_phrases(pair, align(pair, table)))
    src_counts: Counter = Counter()
    tgt_counts: Counter = Counter()
    for (s, t), c in pair_counts.items():
        src_counts[s] += c
        tgt_counts[t] += c
    return PhraseTable({(s, t): (math.log(c / src_counts[s]), math.log(c / tgt_counts[t]))
                        for (s, t), c in pair_counts.items()})


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

    When w_lm >= 0 and `lm.nonpositive`, a candidate whose score without its
    LM term is below its stack's floor cannot survive and is not LM-scored.
    The floor is the beam_size-th best first score among the stack's keys (a
    key's score only rises), or in the last stack the best score so far.
    Below the last stack the candidate still takes its key's place, so exact
    ties keep the insertion order `sorted` breaks them by.
    """
    src = tuple(source)
    if not src:
        raise DegenerateInputError("cannot decode an empty source")
    n = len(src)
    limit, w_lm, w_dist, beam = w.distortion_limit, w.w_lm, w.w_dist, w.beam_size
    # a context is the last order - 1 words: seq[keep:]; from -0 it would keep all
    keep = 1 - lm.order if lm.order > 1 else sys.maxsize
    memo, lookup, word_logprob = lm.memo, lm.memo.get, lm.word_logprob
    # (start, end, coverage mask, [(tgt, w_tm term, w_len term, tail)]) per span;
    # tail is the context after tgt when tgt alone fills it, else None
    spans = [(i, j, ((1 << (j - i)) - 1) << i,
              [(tgt, w.w_tm * log_ts, w.w_len * len(tgt),
                tgt[keep:] if len(tgt) >= lm.order - 1 else None) for tgt, log_ts in opts])
             for (i, j), opts in _phrase_options(src, pt).items()]
    skip = lm.nonpositive and w_lm >= 0 and \
        all(math.isfinite(tm + length) for *_, opts in spans for _, tm, length, _ in opts)
    bos = (BOS,) * (lm.order - 1)
    stacks: list[dict] = [dict() for _ in range(n + 1)]
    stacks[0][(0, 0, bos)] = (0.0, (), 0, 0, bos)
    floors = [-math.inf] * (n + 1)
    tops: list[list[float]] = [[] for _ in range(n)]  # best first scores, ascending

    for covered in range(n):
        # histogram pruning per stack
        hyps = sorted((h for h in stacks[covered].values() if h is not _RESERVED),
                      key=lambda h: (-h[0], h[1]))
        for score, output, coverage, last_end, context in hyps[:beam]:
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
                dist = w_dist * jump
                target = covered + (j - i)
                stack = stacks[target]
                for tgt, tm, length, tail in opts:
                    if skip and score + tm + dist + length < floors[target]:
                        if target < n:
                            stack.setdefault((new_cov, j, (context + tgt)[keep:]
                                              if tail is None else tail), _RESERVED)
                        continue
                    lm_inc = 0.0
                    ctx = context
                    for word in tgt:
                        logprob = lookup((word, ctx))
                        if logprob is None:
                            logprob = memo[(word, ctx)] = word_logprob(word, ctx)
                        lm_inc += logprob
                        ctx = (ctx + (word,))[keep:]
                    new_score = score + tm + w_lm * lm_inc + dist + length
                    key = (new_cov, j, ctx)
                    old = stack.get(key)
                    if old is None or new_score > old[0] or \
                            (new_score == old[0] and output + tgt < old[1]):
                        stack[key] = (new_score, output + tgt, new_cov, j, ctx)
                        if skip and target == n:
                            floors[n] = max(floors[n], new_score)
                        elif skip and (old is None or old is _RESERVED):
                            top = tops[target]
                            insort(top, new_score)
                            if len(top) > beam:
                                del top[0]
                            if len(top) == beam:
                                floors[target] = top[0]

    finals = list(stacks[n].values())
    if not finals:
        if w.distortion_limit > 0:
            return decode(source, pt, lm, w._replace(distortion_limit=0))
        raise DegenerateInputError("decoder found no complete hypothesis")
    return min(finals, key=lambda h: (-h[0], h[1]))[1]


class GeneratorModel(NamedTuple):
    label: int
    phrases: PhraseTable
    lm: LanguageModel
    weights: DecoderWeights


def train_generator(pairs: Bitext, label: int, iterations: int = 10,
                    weights: Optional[DecoderWeights] = None) -> GeneratorModel:
    return GeneratorModel(label, build_phrase_table(pairs, train_model1(pairs, iterations)),
                          train_lm([t for _, t in pairs]), weights or DecoderWeights())


def generate_invalid(ex: Example, models: dict[int, GeneratorModel]) -> TextInput:
    """Run the example's own-label generator on its source side: text_a of a
    pair row, whose text_b the output becomes, or the first half of a single
    row, which the output then follows."""
    if ex.gold_label is None:
        raise UnsupportedTransformError(f"example {ex.id} has no gold label")
    model = models.get(ex.gold_label)
    if model is None:
        raise ArgumentError(f"no trained generator for label {ex.gold_label}")

    def edit(tokens):
        if ex.input.is_pair:
            return decode(tokens, model.phrases, model.lm, model.weights)
        first = tokens[:math.ceil(len(tokens) / 2)]
        return first + decode(first, model.phrases, model.lm, model.weights)

    return rewrite(ex.input, "pbsmt", edit)


def save_generator(model: GeneratorModel, dirpath) -> None:
    write_file(os.path.join(dirpath, "phrases.tsv"), "".join(
        f"{' '.join(s)}\t{' '.join(t)}\t{lts!r}\t{lst!r}\n"
        for (s, t), (lts, lst) in sorted(model.phrases.entries.items())))
    write_file(os.path.join(dirpath, "lm.tsv"), "".join(
        f"{' '.join(ngram)}\t{c}\n" for ngram, c in sorted(model.lm.counts.items())))
    write_file(os.path.join(dirpath, "weights.json"), json.dumps(
        {"label": model.label, **model.weights._asdict(), "lm_order": model.lm.order,
         "lm_total_tokens": model.lm.total_tokens}, indent=2))


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
    count, a number that does not parse, an LM count below 1, or a phrase
    token that `tokenize` would not return unchanged is a DataError naming
    path:line, so every decoder output is a token tuple that survives a
    detokenize round trip. So is a `weights.json` whose `lm_order` is not the
    longest n-gram in lm.tsv or whose `lm_total_tokens` is not the sum of its
    unigram counts; together these keep every LM score at or below 0."""
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
            count = int(c)
        except ValueError:
            raise DataError(f"{path}:{lineno}: count {c!r} is not an integer") from None
        if count < 1:
            raise DataError(f"{path}:{lineno}: count {c!r} is below 1")
        counts[tuple(ngram.split(" "))] = count
    path = os.path.join(dirpath, "weights.json")
    try:
        with open(path, encoding="utf-8") as f:
            meta = json.load(f)
        order, total = meta["lm_order"], meta["lm_total_tokens"]
        weights = DecoderWeights(meta["w_tm"], meta["w_lm"], meta["w_dist"],
                                 meta["w_len"], meta["beam_size"], meta["distortion_limit"])
        label = meta["label"]
    except (ValueError, KeyError, TypeError, ArgumentError) as e:
        # not UTF-8 or JSON, a field missing, or a value DecoderWeights refuses
        raise DataError(f"{path}: not generator weights ({type(e).__name__}: {e})") from None
    longest = max(map(len, counts), default=0)
    if type(order) is not int or order < 1 or order != longest:
        raise DataError(f"{path}: lm_order {order!r} is not the longest n-gram "
                        f"length in lm.tsv ({longest})")
    unigrams = sum(c for ngram, c in counts.items() if len(ngram) == 1)
    if total != unigrams:
        raise DataError(f"{path}: lm_total_tokens {total!r} is not the sum of "
                        f"lm.tsv's unigram counts ({unigrams})")
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

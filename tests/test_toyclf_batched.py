"""The batched toy-classifier path against a per-example reference.

The reference below is the per-example implementation the batched code
replaced (forward, gradient accumulation and saliency, one example at a
time). On both bundled corpora, with the trained baseline fixtures, the batched
probabilities, gradients and saliency scores must equal it bit for bit:
pinned outputs and the benchmark's reference checks depend on exact floats.
"""

import numpy as np
import pytest

from saladbench import corpus, toyclf
from saladbench.corpus import Dataset, Example, TextInput, tokenize
from saladbench.errors import ArgumentError, DegenerateInputError
from saladbench.toyclf import ParamGrads

from conftest import TRAIN_ARGS


# --- batch gradients and NLL, over toyclf's private functions ---------------

def grad(params, batch, invalid_batch=(), loss="cross_entropy", lambda_ls=0.0, gamma=0.0,
         lambda_ent=0.0):
    """Analytic gradients of the mean batch loss, plus per clean example its
    per-side input-embedding gradients (one row per token)."""
    enc = toyclf.encode(params, list(batch) + list(invalid_batch))
    grads, token_grads = toyclf._grad(params, enc, toyclf._gold(batch), loss, lambda_ls,
                                      gamma, lambda_ent)
    per_side = [np.split(g, np.cumsum(lengths)[:len(batch)])[:len(batch)]
                for g, lengths in zip(token_grads, enc.lengths)]
    return grads, [list(sides) for sides in zip(*per_side)]


def saliency(params, examples, side="a"):
    """toyclf.saliency_scores as one tuple of scores per example."""
    return toyclf.split_scores(*toyclf.saliency_scores(params, examples, side))


def reference_nll(logits, gold, temperature):
    """Mean calibration NLL at one temperature, summed left to right."""
    p = toyclf._softmax(logits / temperature)[np.arange(len(gold)), gold]
    return -float(np.cumsum(np.log(np.maximum(p, 1e-300)))[-1]) / len(gold)


def nll(params, ds, temperature=None):
    t = temperature if temperature is not None else params.temperature
    logits = toyclf._logits(params, toyclf.encode(params, ds.examples))[1]
    return reference_nll(logits, toyclf._gold(ds.examples), t)


# --- per-example reference -------------------------------------------------

def _ref_side_ids(params, text):
    index = {s: i for i, s in enumerate(params.vocab)}
    ids = np.array([index.get(t, 0) for t in tokenize(text)], dtype=int)
    if ids.size == 0:
        raise DegenerateInputError("empty token sequence")
    return ids


def _ref_encode(params, ex):
    sides = [_ref_side_ids(params, ex.input.text_a)]
    if params.task_kind == "pair":
        if ex.input.text_b is None:
            raise DegenerateInputError(f"example {ex.id} lacks text_b for a pair model")
        sides.append(_ref_side_ids(params, ex.input.text_b))
    return sides


def _ref_pooled(params, sides):
    return np.concatenate([params.emb[ids].mean(axis=0) for ids in sides])


def _ref_softmax(z):
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def ref_forward(params, ex):
    pooled = _ref_pooled(params, _ref_encode(params, ex))
    logits = pooled @ params.w + params.b
    return _ref_softmax(logits / params.temperature)


def _ref_supervised_dz(probs, y, temperature, loss="cross_entropy", lambda_ls=0.0,
                       gamma=0.0):
    n = probs.shape[0]
    onehot = np.zeros(n)
    onehot[y] = 1.0
    probs = np.clip(probs, 1e-300, 1.0)
    p_y = probs[y]
    if loss == "cross_entropy":
        return (probs - onehot) / temperature
    if loss == "label_smoothing":
        q = (1.0 - lambda_ls) * onehot + lambda_ls / n
        return (probs - q) / temperature
    g = gamma
    dl_dpy = g * (1.0 - p_y) ** (g - 1.0) * np.log(p_y) - (1.0 - p_y) ** g / p_y \
        if g > 0 else -1.0 / p_y
    return dl_dpy * (p_y * (onehot - probs) / temperature)


def _ref_entropy_dz(probs, temperature):
    logp = np.log(np.clip(probs, 1e-300, 1.0))
    return probs * ((probs * logp).sum() - logp) / temperature


def ref_nll(params, ds):
    total = 0.0
    for ex in ds.examples:
        probs = ref_forward(params, ex)
        total -= float(np.log(max(probs[ex.gold_label], 1e-300)))
    return total / len(ds)


def ref_accumulate(params, ex, dz, grads, scale):
    sides = _ref_encode(params, ex)
    pooled = _ref_pooled(params, sides)
    grads.w += scale * np.outer(pooled, dz)
    grads.b += scale * dz
    d_pooled = params.w @ dz
    token_grads = []
    offset = 0
    d = params.dim
    for ids in sides:
        seg = d_pooled[offset:offset + d]
        per_token = np.repeat(seg[None, :], len(ids), axis=0) / len(ids)
        for tid, g in zip(ids, per_token):
            grads.emb[tid] += scale * g
        token_grads.append(scale * per_token)
        offset += d
    return token_grads


def ref_grad(params, batch, invalid_batch=(), loss="cross_entropy", lambda_ls=0.0,
             gamma=0.0, lambda_ent=0.0):
    grads = ParamGrads(np.zeros_like(params.emb), np.zeros_like(params.w),
                       np.zeros_like(params.b))
    token_grads = []
    scale = 1.0 / len(batch) if batch else 0.0
    for ex in batch:
        dz = _ref_supervised_dz(ref_forward(params, ex), ex.gold_label, params.temperature,
                                loss, lambda_ls, gamma)
        token_grads.append(ref_accumulate(params, ex, dz, grads, scale))
    if invalid_batch:
        iscale = -1.0 * lambda_ent / len(invalid_batch)  # entropy maximized
        for ex in invalid_batch:
            dh_dz = _ref_entropy_dz(ref_forward(params, ex), params.temperature)
            ref_accumulate(params, ex, dh_dz, grads, iscale)
    return grads, token_grads


def model_sides(params):
    """The sides a model reads: text_a, and text_b on a pair model."""
    return ("a", "b") if params.task_kind == "pair" else ("a",)


def ref_saliency(params, ex, side="a", loss_label=None):
    probs = ref_forward(params, ex)
    if loss_label is None:
        loss_label = ex.gold_label if ex.gold_label is not None else int(np.argmax(probs))
    dz = _ref_supervised_dz(probs, loss_label, params.temperature)
    grads = ParamGrads(np.zeros_like(params.emb), np.zeros_like(params.w),
                       np.zeros_like(params.b))
    token_grads = ref_accumulate(params, ex, dz, grads, 1.0)
    side_idx = model_sides(params).index(side)
    text = ex.input.text_a if side_idx == 0 else ex.input.text_b
    ids = _ref_side_ids(params, text)
    scores = tuple(float(params.emb[tid] @ g)
                   for tid, g in zip(ids, token_grads[side_idx]))
    return scores


def ref_train(ds, warm, epochs, batch_size, lr, seed, invalid_ds=None, **loss_values):
    """The per-step training loop over ref_grad, from a warm start."""
    emb, w, b = warm.emb.copy(), warm.w.copy(), warm.b.copy()
    rng = np.random.default_rng(seed)
    invalid = list(invalid_ds.examples) if invalid_ds is not None else []
    inv_cursor = 0
    for _ in range(epochs):
        order = rng.permutation(len(ds))
        for start in range(0, len(ds), batch_size):
            batch = [ds.examples[i] for i in order[start:start + batch_size]]
            inv_batch = []
            if invalid:
                for _ in range(min(len(batch), len(invalid))):
                    inv_batch.append(invalid[inv_cursor % len(invalid)])
                    inv_cursor += 1
            cur = toyclf.ToyModelParams(warm.vocab, emb, w, b, warm.temperature,
                                        warm.task_kind)
            grads, _ = ref_grad(cur, batch, inv_batch, **loss_values)
            emb, w, b = emb - lr * grads.emb, w - lr * grads.w, b - lr * grads.b
    return emb, w, b


# --- fixtures ---------------------------------------------------------------

TASKS = ("single", "pair")


@pytest.fixture(params=TASKS)
def model_and_split(request):
    prefix = "sent" if request.param == "single" else "pair"
    params = request.getfixturevalue(f"{prefix}_base")
    train_ds, val_ds = request.getfixturevalue(f"{prefix}_split")
    return params, train_ds, val_ds


def _unlabeled(examples):
    return [Example(f"{ex.id}__inv", ex.input, None) for ex in examples]


def _shared_word_pairs():
    """Pair rows where one word sits on side b of one example and side a of
    the next (and on both sides of the last), so the order in which the
    embedding gradient adds token rows decides the result."""
    return [Example("s0", TextInput("good movie", "not good at all"), 0),
            Example("s1", TextInput("good good plot", "fine"), 1),
            Example("s2", TextInput("good story", "good acting good"), 1)]


# --- bitwise equality ---------------------------------------------------------

def test_probabilities_equal_reference(model_and_split):
    params, train_ds, val_ds = model_and_split
    for p in (params, params._replace(temperature=0.37)):
        examples = train_ds.examples + val_ds.examples
        batched = toyclf.probabilities(p, examples)
        reference = np.stack([ref_forward(p, ex) for ex in examples])
        assert np.array_equal(batched, reference)
        assert np.array_equal(toyclf.forward(p, examples[0]), reference[0])
        assert nll(p, val_ds) == ref_nll(p, val_ds)


@pytest.mark.parametrize("kind", ["cross_entropy", "label_smoothing", "focal",
                                  "entropic"])
def test_grad_equals_reference(model_and_split, kind):
    params, train_ds, val_ds = model_and_split
    batch = list(train_ds.examples[:24])
    if params.task_kind == "pair":
        batch += _shared_word_pairs()
    # the entropic case: cross-entropy plus the entropy term over invalid rows
    invalid = _unlabeled(val_ds.examples[:20]) if kind == "entropic" else ()
    values = dict(loss="cross_entropy" if kind == "entropic" else kind,
                  lambda_ls=0.1, gamma=2.0, lambda_ent=0.3)
    grads, token_grads = grad(params, batch, invalid, **values)
    ref, ref_tokens = ref_grad(params, batch, invalid, **values)
    for name in ("emb", "w", "b"):
        assert np.array_equal(getattr(grads, name), getattr(ref, name)), name
    assert len(token_grads) == len(ref_tokens)
    for sides, ref_sides in zip(token_grads, ref_tokens):
        assert len(sides) == len(ref_sides)
        assert all(np.array_equal(g, r) for g, r in zip(sides, ref_sides))


def test_saliency_equals_reference_on_both_sides(model_and_split):
    params, train_ds, val_ds = model_and_split
    examples = list(val_ds.examples) + _unlabeled(train_ds.examples[:30])
    if params.task_kind == "pair":
        examples += _shared_word_pairs()
    for side in model_sides(params):
        batched = saliency(params, examples, side)
        assert batched == [ref_saliency(params, ex, side) for ex in examples]
    assert (saliency(params, examples[:1], side)[0]
            == ref_saliency(params, examples[0], side))


@pytest.mark.parametrize("chunk", [1, 7, 10**9])
def test_any_token_chunking_equals_reference(model_and_split, chunk, monkeypatch):
    # forward passes and saliency gather embedding rows CHUNK_TOKENS at a time
    monkeypatch.setattr(toyclf, "CHUNK_TOKENS", chunk)
    params, _, val_ds = model_and_split
    examples = list(val_ds.examples)
    assert np.array_equal(toyclf.probabilities(params, examples),
                          np.stack([ref_forward(params, ex) for ex in examples]))
    for side in model_sides(params):
        assert (saliency(params, examples, side)
                == [ref_saliency(params, ex, side) for ex in examples])


@pytest.mark.parametrize("chunk, long_len, at", [
    (None, 700, 0), (None, 300, 25), (6, 40, 10)],
    ids=["row-longer-than-chunk", "long-row-among-short", "chunk-below-longest-row"])
def test_uneven_rows_pool_equal_reference(model_and_split, chunk, long_len, at,
                                          monkeypatch):
    # one long row among the short ones; CHUNK_TOKENS default or patched
    if chunk is not None:
        monkeypatch.setattr(toyclf, "CHUNK_TOKENS", chunk)
    params, _, val_ds = model_and_split
    rng = np.random.default_rng(long_len)
    words = [*params.vocab[1:], "zzunknown"]     # unknown words pool row 0

    def text(n):
        return " ".join(rng.choice(words, n))

    examples = list(val_ds.examples)
    examples.insert(at, Example("long", TextInput(
        text(long_len), text(long_len // 2) if params.task_kind == "pair" else None), 0))
    assert np.array_equal(toyclf.probabilities(params, examples),
                          np.stack([ref_forward(params, ex) for ex in examples]))
    for side in model_sides(params):
        assert (saliency(params, examples, side)
                == [ref_saliency(params, ex, side) for ex in examples])


def ref_chunks(lengths):
    """The per-row loop toyclf._chunks is checked against."""
    sizes, runs, first, longest = lengths.tolist(), [], 0, 0
    if len(sizes) * max(sizes, default=0) <= toyclf.CHUNK_TOKENS:
        return [(0, len(sizes), max(sizes))] if sizes else []
    for i, n in enumerate(sizes):
        if (i - first + 1) * max(longest, n) > toyclf.CHUNK_TOKENS and i > first:
            runs.append((first, i, longest))
            first, longest = i, 0
        longest = max(longest, n)
    return runs + [(first, len(sizes), longest)]


@pytest.mark.parametrize("chunk", [None, 1, 7, 64])
def test_chunks_equal_the_per_row_loop(chunk, monkeypatch):
    # random length vectors, with empty input and rows longer than a chunk
    if chunk is not None:
        monkeypatch.setattr(toyclf, "CHUNK_TOKENS", chunk)
    limit = toyclf.CHUNK_TOKENS
    rng = np.random.default_rng(chunk or 0)
    cases = [np.array([], dtype=int), np.array([limit + 1]), np.array([3 * limit]),
             np.array([limit + 1, 1, 2, limit + 5, 1]), np.ones(limit + 1, dtype=int)]
    for _ in range(750):
        high = rng.choice([2, 5, 20, limit // 4 + 2, 2 * limit])
        cases.append(rng.integers(1, high, rng.integers(1, 400)))
    for lengths in cases:
        assert toyclf._chunks(lengths) == ref_chunks(lengths), lengths


def test_empty_batch_gives_empty_outputs(model_and_split):
    params, _, _ = model_and_split
    assert toyclf.probabilities(params, []).shape == (0, params.n_classes)
    assert saliency(params, []) == []


def test_train_equals_reference_loop(model_and_split):
    params, train_ds, val_ds = model_and_split
    ds = Dataset(train_ds.examples[:40], train_ds.labels, train_ds.task_kind)
    invalid = Dataset(tuple(_unlabeled(val_ds.examples[:7])), train_ds.labels,
                      train_ds.task_kind)
    schedule = dict(epochs=2, batch_size=6, lr=1.0, seed=3)
    out = toyclf.train(ds, **schedule, lambda_ent=0.2, warm=params, invalid_ds=invalid)
    emb, w, b = ref_train(ds, params, **schedule, invalid_ds=invalid, lambda_ent=0.2)
    assert np.array_equal(out.emb, emb)
    assert np.array_equal(out.w, w)
    assert np.array_equal(out.b, b)


# --- encoding -------------------------------------------------------------------

def test_encode_lays_out_sides_flat(pair_base):
    vocab = {s: i for i, s in enumerate(pair_base.vocab)}
    examples = _shared_word_pairs()
    enc = toyclf.encode(pair_base, examples)
    assert len(enc) == 3
    assert enc.lengths[0].tolist() == [2, 3, 2]
    assert enc.lengths[1].tolist() == [4, 1, 3]
    assert enc.owner[1].tolist() == [0, 0, 0, 0, 1, 2, 2, 2]
    assert enc.ids[1][:4].tolist() == [vocab.get(w, 0) for w in "not good at all".split()]
    part = enc.take(np.array([2, 0]))
    again = toyclf.encode(pair_base, [examples[2], examples[0]])
    for got, want in ((part.ids, again.ids), (part.owner, again.owner),
                      (part.lengths, again.lengths)):
        assert all(np.array_equal(g, x) for g, x in zip(got, want))


def test_encode_rejects_degenerate_examples(pair_base, sent_base):
    with pytest.raises(DegenerateInputError):
        toyclf.encode(sent_base, [Example("e", TextInput("fine"), 0),
                                  Example("f", TextInput("  "), 0)])
    with pytest.raises(DegenerateInputError, match="lacks text_b"):
        toyclf.encode(pair_base, [Example("e", TextInput("fine"), 0)])
    with pytest.raises(DegenerateInputError):
        toyclf.encode(pair_base, [Example("e", TextInput("fine", " "), 0)])


def test_train_requires_gold_labels(sent_split):
    train_ds, _ = sent_split
    unlabeled = Dataset(tuple(_unlabeled(train_ds.examples[:4])), train_ds.labels,
                        "single")
    with pytest.raises(ArgumentError):
        toyclf.train(unlabeled, **{**TRAIN_ARGS, "epochs": 1})


@pytest.mark.parametrize("task", TASKS)
def test_train_encodes_each_example_once(task, request, monkeypatch):
    prefix = "sent" if task == "single" else "pair"
    train_ds, val_ds = request.getfixturevalue(f"{prefix}_split")

    def fresh(examples):  # rows that have not tokenized a side yet
        return tuple(Example(ex.id, TextInput(ex.input.text_a, ex.input.text_b),
                             ex.gold_label) for ex in examples)

    ds = Dataset(fresh(train_ds.examples[:48]), train_ds.labels, task)
    invalid = Dataset(fresh(_unlabeled(val_ds.examples[:16])), train_ds.labels, task)
    sides = (len(ds) + len(invalid)) * (2 if task == "pair" else 1)
    calls, encodes = [], []
    encode = toyclf.encode

    def counting(text):
        calls.append(text)
        return tokenize(text)

    def counting_encode(params, examples):
        encodes.append(len(examples))
        return encode(params, examples)

    monkeypatch.setattr(corpus, "tokenize", counting)
    monkeypatch.setattr(toyclf, "encode", counting_encode)
    made = []
    for epochs in (1, 4):
        calls.clear()
        toyclf.train(ds, **{**TRAIN_ARGS, "epochs": epochs}, invalid_ds=invalid)
        made.append(len(calls))
    # each side once, by the first run; the second reads the rows' tokens
    assert made == [sides, 0]
    # one encode of both sets per run, however many epochs and batches
    assert encodes == [len(ds) + len(invalid)] * 2


@pytest.mark.parametrize("batch_size", [16, 32])
def test_emb_gradient_scatter_equals_add_at_on_mixed_magnitudes(batch_size):
    """The emb gradient's flat bincount against np.add.at, adding in the same
    order, on values from 1e-8 to 1e6 where summation order shows; words
    repeat within an example, across examples and across sides."""
    rng = np.random.default_rng(batch_size)
    words = "a b c d e f".split()
    vocab = (toyclf.UNK, *words)
    d, n = 8, 3

    def mixed(*shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 6, shape)

    params = toyclf.ToyModelParams(vocab, mixed(len(vocab), d), mixed(2 * d, n),
                                   mixed(n) * 1e-6, 1.0, "pair")

    def text():
        return " ".join(rng.choice(words + ["zz"], rng.integers(1, 9)))

    batch = [Example(f"e{i}", TextInput(text(), text()), int(rng.integers(n)))
             for i in range(batch_size)]
    enc = toyclf.encode(params, batch)
    gold = np.array([ex.gold_label for ex in batch])
    grads, token_grads = toyclf._grad(params, enc, gold, "cross_entropy", 0.0, 0.0, 0.0)
    order = np.argsort(np.concatenate(enc.owner), kind="stable")
    reference = np.zeros_like(params.emb)
    np.add.at(reference, np.concatenate(enc.ids)[order],
              np.concatenate(token_grads)[order])
    assert np.array_equal(grads.emb, reference)
    # the check can fail: another order of the same additions differs
    shuffled = np.zeros_like(params.emb)
    np.add.at(shuffled, np.concatenate(enc.ids)[order[::-1]],
              np.concatenate(token_grads)[order[::-1]])
    assert not np.array_equal(shuffled, reference)


@pytest.mark.parametrize("chunk, d", [(512, 8), (7, 8), (7, 1)])
@pytest.mark.parametrize("batch_size", [16, 32])
def test_pooled_sums_equal_add_at_on_mixed_magnitudes(batch_size, chunk, d, monkeypatch):
    """Each side's pooled sums against np.add.at in token order, on values
    from 1e-8 to 1e6 where summation order shows; unknown words pool row 0,
    UNK's own embedding, so a pad read from row 0 would change a sum. With
    d = 1 a long row pooled alone is a run of single numbers."""
    monkeypatch.setattr(toyclf, "CHUNK_TOKENS", chunk)
    rng = np.random.default_rng(batch_size + chunk + d)
    words = "a b c d e f".split()
    vocab = (toyclf.UNK, *words)
    n = 3

    def mixed(*shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 6, shape)

    params = toyclf.ToyModelParams(vocab, mixed(len(vocab), d), mixed(2 * d, n),
                                   mixed(n), 1.0, "pair")

    def text():
        return " ".join(rng.choice(words + ["zz"], rng.integers(1, 20)))

    batch = [Example(f"e{i}", TextInput(text(), text()), None) for i in range(batch_size)]
    enc = toyclf.encode(params, batch)
    assert all((ids == 0).any() for ids in enc.ids)
    pooled, _ = toyclf._logits(params, enc)
    sides = []
    for ids, owner, lengths in zip(enc.ids, enc.owner, enc.lengths):
        sums = np.zeros((len(batch), d))
        np.add.at(sums, owner, params.emb[ids])
        sides.append(sums / lengths[:, None])
        # the check can fail: another order of the same additions differs
        shuffled = np.zeros((len(batch), d))
        np.add.at(shuffled, owner[::-1], params.emb[ids[::-1]])
        assert not np.array_equal(shuffled, sums)
    assert np.array_equal(pooled, np.concatenate(sides, axis=1))

"""Embedded bag-of-embeddings classifier: forward pass, losses, analytic
gradients (checked against central finite differences), saliency, training,
temperature fitting, and parameter serialization."""

import logging
import math

import numpy as np
import pytest

from saladbench import toyclf
from saladbench.corpus import Dataset, Example, LabelSet, TextInput
from saladbench.errors import ArgumentError, DegenerateInputError
from saladbench.toyclf import (ToyModelParams, build_vocab, fit_temperature, forward,
                               init_params, load_params, probabilities, save_params, train)

from conftest import TRAIN_ARGS
from test_toyclf_batched import grad, nll, ref_saliency, reference_nll, saliency

LABELS = LabelSet(("negative", "positive"))


def mean_loss(params, batch, invalid_batch=(), loss="cross_entropy", lambda_ls=0.0,
              gamma=0.0, lambda_ent=0.0):
    """Mean batch loss, the objective toyclf's analytic gradients differentiate.
    Given invalid rows it is L_D - lambda * H(invalid), so the entropy on
    invalid inputs is maximized."""
    probs = np.clip(probabilities(params, batch), 1e-300, 1.0)
    gold = np.array([ex.gold_label for ex in batch], dtype=int)
    p_y = probs[np.arange(len(batch)), gold]
    if loss == "label_smoothing":
        q = (1.0 - lambda_ls) * np.eye(probs.shape[1])[gold] + lambda_ls / probs.shape[1]
        values = -(q * np.log(probs)).sum(axis=1)
    elif loss == "focal":
        values = -((1.0 - p_y) ** gamma) * np.log(p_y)
    else:
        values = -np.log(p_y)
    result = float(np.cumsum(values)[-1]) / len(batch) if batch else 0.0
    if invalid_batch:
        p = probabilities(params, invalid_batch)
        result += lambda_ent * float(np.mean((p * np.log(np.clip(p, 1e-300, 1.0))).sum(axis=1)))
    return result


def tiny_params(emb_a=1.0, w=((math.log(0.8), math.log(0.2)),), b=(0.0, 0.0),
                temperature=1.0):
    """1-d single-task model over vocab (<unk>, a) with hand-set weights."""
    return ToyModelParams(
        vocab=("<unk>", "a"),
        emb=np.array([[0.0], [emb_a]]),
        w=np.array(w, dtype=float).reshape(1, -1),
        b=np.array(b, dtype=float),
        temperature=temperature,
        task_kind="single",
    )


def random_model(rng, task_kind="single", n_classes=3, dim=3, vocab_size=6):
    vocab = ("<unk>",) + tuple(f"w{i}" for i in range(vocab_size - 1))
    k = 2 if task_kind == "pair" else 1
    return ToyModelParams(
        vocab,
        rng.normal(0.0, 0.5, size=(vocab_size, dim)),
        rng.normal(0.0, 0.5, size=(k * dim, n_classes)),
        rng.normal(0.0, 0.5, size=n_classes),
        1.0,
        task_kind,
    )


def random_example(rng, params, ex_id="e"):
    words = list(params.vocab[1:]) + ["oov"]
    def side():
        n = rng.integers(2, 6)
        return " ".join(rng.choice(words, size=n))
    text_b = side() if params.task_kind == "pair" else None
    return Example(ex_id, TextInput(side(), text_b),
                   int(rng.integers(0, params.n_classes)))


# --- forward ---

def test_forward_zero_head_gives_uniform():
    params = tiny_params(w=((0.0, 0.0),))
    probs = forward(params, Example("e", TextInput("a a"), 0))
    assert np.allclose(probs, [0.5, 0.5], atol=1e-15)


def test_forward_hand_computed_softmax():
    # pooled("a a") = 1.0, logits = (log .8, log .2) -> probs (0.8, 0.2)
    params = tiny_params()
    probs = forward(params, Example("e", TextInput("a"), 0))
    assert np.allclose(probs, [0.8, 0.2], atol=1e-12)


def test_forward_unknown_words_map_to_unk_row():
    params = tiny_params()
    p_unk = forward(params, Example("e", TextInput("neverseen"), 0))
    assert np.allclose(p_unk, [0.5, 0.5], atol=1e-15)  # unk row is zero


def test_forward_is_order_blind():
    rng = np.random.default_rng(0)
    params = random_model(rng)
    ex = Example("e", TextInput("w1 w2 w3 w4"), 0)
    perm = Example("e", TextInput("w4 w2 w1 w3"), 0)
    p1, p2 = forward(params, ex), forward(params, perm)
    assert np.allclose(p1, p2, atol=1e-12)
    assert int(np.argmax(p1)) == int(np.argmax(p2))


def test_forward_temperature_flattens_but_keeps_argmax():
    params = tiny_params()
    ex = Example("e", TextInput("a"), 0)
    hot = forward(params._replace(temperature=4.0), ex)
    cold = forward(params, ex)
    assert int(np.argmax(hot)) == int(np.argmax(cold))
    assert hot.max() < cold.max()


def test_forward_empty_side_raises():
    params = tiny_params()
    with pytest.raises(DegenerateInputError):
        forward(params, Example("e", TextInput("   "), 0))


def test_pair_model_requires_text_b():
    rng = np.random.default_rng(1)
    params = random_model(rng, task_kind="pair")
    with pytest.raises(DegenerateInputError):
        forward(params, Example("e", TextInput("w1 w2"), 0))


# --- loss values ---

def test_label_smoothing_hand_value():
    params = tiny_params()
    ex = Example("e", TextInput("a"), 0)
    expected = -0.95 * math.log(0.8) - 0.05 * math.log(0.2)
    assert abs(mean_loss(params, [ex], loss="label_smoothing", lambda_ls=0.1)
               - expected) < 1e-12


def test_cross_entropy_hand_value():
    params = tiny_params()
    ex = Example("e", TextInput("a"), 1)
    assert abs(mean_loss(params, [ex]) - (-math.log(0.2))) < 1e-12


def test_focal_gamma_zero_equals_cross_entropy():
    rng = np.random.default_rng(2)
    params = random_model(rng)
    batch = [random_example(rng, params, f"e{i}") for i in range(8)]
    ce = mean_loss(params, batch)
    focal0 = mean_loss(params, batch, loss="focal", gamma=0.0)
    assert abs(ce - focal0) < 1e-12


def test_entropic_loss_adds_signed_entropy_term():
    params = tiny_params(w=((0.0, 0.0),))  # uniform probs, H = ln 2
    clean = [Example("c", TextInput("a"), 0)]
    invalid = [Example("i", TextInput("a a"), None)]
    base = math.log(2.0)  # CE under uniform probs
    lmax = mean_loss(params, clean, invalid, lambda_ent=0.5)
    assert abs(lmax - (base - 0.5 * math.log(2.0))) < 1e-12


# --- gradient vs central finite differences ---

def _numeric_grad(params, batch, invalid=(), eps=1e-6, **loss_values):
    """Central finite differences over every parameter entry."""
    arrays = {"emb": params.emb, "w": params.w, "b": params.b}
    out = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            for sign in (+1, -1):
                bumped = {k: v.copy() for k, v in arrays.items()}
                bumped[name][idx] += sign * eps
                p = ToyModelParams(params.vocab, bumped["emb"], bumped["w"],
                                   bumped["b"], params.temperature,
                                   params.task_kind)
                val = mean_loss(p, batch, invalid, **loss_values)
                g[idx] += sign * val / (2 * eps)
            it.iternext()
        out[name] = g
    return out


def _rel_err(analytic, numeric):
    num = np.linalg.norm(analytic - numeric)
    den = max(np.linalg.norm(numeric), 1e-8)
    return num / den


@pytest.mark.parametrize("kind", ["cross_entropy", "label_smoothing", "focal",
                                  "entropic"])
@pytest.mark.parametrize("task_kind", ["single", "pair"])
def test_analytic_gradients_match_finite_differences(kind, task_kind):
    kinds = ["cross_entropy", "label_smoothing", "focal", "entropic"]
    rng = np.random.default_rng(100 * kinds.index(kind)
                                + (1 if task_kind == "pair" else 0))
    for trial in range(4):
        params = random_model(rng, task_kind=task_kind)
        batch = [random_example(rng, params, f"e{i}") for i in range(3)]
        # the entropic case: cross-entropy plus the entropy term over invalid rows
        invalid = ([Example(f"i{i}", random_example(rng, params).input, None)
                    for i in range(2)] if kind == "entropic" else ())
        values = dict(loss="cross_entropy" if kind == "entropic" else kind,
                      lambda_ls=0.1, gamma=2.0, lambda_ent=0.3)
        analytic, _ = grad(params, batch, invalid, **values)
        numeric = _numeric_grad(params, batch, invalid, **values)
        for name, ga in (("emb", analytic.emb), ("w", analytic.w),
                         ("b", analytic.b)):
            assert _rel_err(ga, numeric[name]) < 1e-4, (kind, task_kind, name)


def test_gradient_matches_under_temperature_scaling():
    rng = np.random.default_rng(12)
    params = random_model(rng)._replace(temperature=2.5)
    batch = [random_example(rng, params, f"e{i}") for i in range(3)]
    analytic, _ = grad(params, batch)
    numeric = _numeric_grad(params, batch)
    assert _rel_err(analytic.emb, numeric["emb"]) < 1e-4


def test_grad_requires_gold_labels():
    params = tiny_params()
    with pytest.raises(ArgumentError):
        grad(params, [Example("e", TextInput("a"), None)])


# --- saliency ---

def test_saliency_zero_head_is_exactly_zero():
    params = tiny_params(w=((0.0, 0.0),))
    scores = saliency(params, [Example("e", TextInput("a a a"), 0)])[0]
    assert scores == (0.0, 0.0, 0.0)


def test_saliency_duplicate_tokens_score_equally():
    rng = np.random.default_rng(3)
    params = random_model(rng)
    scores = saliency(params, [Example("e", TextInput("w1 w2 w1"), 0)])[0]
    assert scores[0] == scores[2]


def test_saliency_loss_label_defaults_to_gold_then_argmax():
    rng = np.random.default_rng(4)
    params = random_model(rng)
    labeled = Example("e", TextInput("w1 w2"), 2)
    assert saliency(params, [labeled])[0] == ref_saliency(params, labeled, loss_label=2)
    assert saliency(params, [labeled])[0] != ref_saliency(params, labeled, loss_label=0)
    unlabeled = Example("e", TextInput("w1 w2"), None)
    predicted = int(np.argmax(forward(params, unlabeled)))
    assert (saliency(params, [unlabeled])[0]
            == ref_saliency(params, unlabeled, loss_label=predicted))
    other = (predicted + 1) % params.n_classes
    assert (saliency(params, [unlabeled])[0]
            != ref_saliency(params, unlabeled, loss_label=other))


def test_saliency_side_selects_pair_side():
    rng = np.random.default_rng(5)
    params = random_model(rng, task_kind="pair")
    ex = Example("e", TextInput("w1 w2 w3", "w4 w5"), 0)
    assert len(saliency(params, [ex], side="a")[0]) == 3
    assert len(saliency(params, [ex], side="b")[0]) == 2


def test_saliency_refuses_a_side_the_model_lacks():
    rng = np.random.default_rng(5)
    single = random_model(rng)
    with pytest.raises(ArgumentError, match="'b'"):
        saliency(single, [Example("e", TextInput("w1 w2"), 0)], side="b")
    pair = random_model(rng, task_kind="pair")
    with pytest.raises(ArgumentError, match="'x'"):
        saliency(pair, [Example("e", TextInput("w1 w2", "w3"), 0)], side="x")


def test_saliency_matches_finite_difference_dot_product():
    """score_i == t_i . dL/dt_i, checked by bumping one token's embedding."""
    rng = np.random.default_rng(6)
    params = random_model(rng)
    ex = Example("e", TextInput("w1 w2 w3"), 1)
    scores = saliency(params, [ex])[0]
    eps = 1e-6
    # token 0 is w1 -> vocab row 1; scale the row to probe the dot product:
    # d/da L(a * t_i) at a=1 equals t_i . dL/dt_i
    for pos, word in enumerate(("w1", "w2", "w3")):
        row = params.vocab.index(word)
        vals = []
        for sign in (+1, -1):
            emb = params.emb.copy()
            emb[row] *= (1.0 + sign * eps)
            p = ToyModelParams(params.vocab, emb, params.w, params.b,
                               params.temperature, params.task_kind)
            vals.append(mean_loss(p, [ex]))
        numeric = (vals[0] - vals[1]) / (2 * eps)
        assert abs(scores[pos] - numeric) < 1e-6, pos


# --- vocab / init ---

def test_build_vocab_sorted_unk_first_and_covers_both_sides():
    ds = Dataset((Example("a", TextInput("zeta alpha", "mid"), 0),
                  Example("b", TextInput("alpha"), 1)),
                 LABELS, "single")
    # task_kind single ignores text_b at encode time but vocab still scans it
    assert build_vocab(ds) == ("<unk>", "alpha", "mid", "zeta")


def test_init_params_shapes():
    p = init_params(("<unk>", "x"), dim=4, n_classes=3, task_kind="pair", seed=0)
    assert p.emb.shape == (2, 4)
    assert p.w.shape == (8, 3)
    assert np.all(p.w == 0) and np.all(p.b == 0)


def test_params_head_shape_validation():
    with pytest.raises(ArgumentError):
        ToyModelParams(("<unk>",), np.zeros((1, 4)), np.zeros((4, 2)),
                       np.zeros(2), 1.0, "pair")
    with pytest.raises(ArgumentError):
        tiny_params(temperature=0.0)


# --- training ---

def test_train_is_deterministic(sent_split):
    train_ds, _ = sent_split
    args = {**TRAIN_ARGS, "epochs": 2}
    a = train(train_ds, **args)
    b = train(train_ds, **args)
    assert np.array_equal(a.emb, b.emb)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.b, b.b)


@pytest.mark.parametrize("kind", ["cross_entropy", "label_smoothing", "focal"])
def test_train_adds_the_entropy_term_whenever_invalid_rows_are_given(sent_base, sent_split,
                                                                       kind):
    train_ds, val_ds = sent_split
    invalid = Dataset(tuple(Example(f"{ex.id}__inv", ex.input, None)
                            for ex in val_ds.examples[:10]), LABELS, "single")
    args = dict(epochs=1, batch_size=16, lr=5.0, seed=0, loss=kind, lambda_ls=0.1, gamma=2.0,
                lambda_ent=0.1, warm=sent_base)
    plain = train(train_ds, **args)
    entropic = train(train_ds, **args, invalid_ds=invalid)
    assert not np.array_equal(plain.emb, entropic.emb)
    assert not np.array_equal(plain.w, entropic.w)


def test_train_zero_epochs_returns_warm_start_unchanged(sent_base, sent_split):
    train_ds, _ = sent_split
    out = train(train_ds, epochs=0, batch_size=16, lr=5.0, seed=0, warm=sent_base)
    assert np.array_equal(out.emb, sent_base.emb)
    assert np.array_equal(out.w, sent_base.w)
    assert np.array_equal(out.b, sent_base.b)


def test_train_fits_separable_data(sent_base, sent_split):
    train_ds, val_ds = sent_split
    assert toyclf.accuracy(sent_base, train_ds) >= 0.99
    assert toyclf.accuracy(sent_base, val_ds) >= 0.95


def test_train_pair_task(pair_base, pair_split):
    train_ds, _ = pair_split
    assert pair_base.task_kind == "pair"
    assert toyclf.accuracy(pair_base, train_ds) >= 0.99


def test_train_rejects_empty_dataset():
    with pytest.raises(ArgumentError):
        train(Dataset((), LABELS, "single"), **TRAIN_ARGS)


@pytest.mark.parametrize("name, value, error", [
    ("epochs", -1, "epochs must be >= 0"),
    ("batch_size", 0, "batch_size >= 1"),
    ("lr", 0.0, "lr > 0"),
    ("dim", 0, "dim must be >= 1"),
    ("seed", -1, "seed must be >= 0"),
    ("lambda_ls", 1.0, "lambda_ls must be in"),
    ("gamma", -1.0, "gamma must be >= 0"),
    ("lambda_ent", -1.0, "lambda_ent must be >= 0"),
])
def test_train_refuses_a_value_it_cannot_run_with_before_any_step(sent_split, monkeypatch,
                                                                   name, value, error):
    # the CLI refuses these at parse time; library callers reach this check
    steps = []
    monkeypatch.setattr(toyclf, "_grad", lambda *a: steps.append(1))
    with pytest.raises(ArgumentError, match=error):
        train(sent_split[0], **{**TRAIN_ARGS, name: value})
    assert steps == []


# --- temperature ---

def test_fit_temperature_improves_nll_and_keeps_argmax(sent_base, sent_split):
    _, val_ds = sent_split
    t = fit_temperature(sent_base, val_ds)
    assert 0.25 <= t <= 5.0
    assert nll(sent_base, val_ds, temperature=t) <= nll(sent_base, val_ds,
                                                        temperature=1.0)
    scaled = sent_base._replace(temperature=t)
    for ex in val_ds.examples:
        assert int(np.argmax(forward(sent_base, ex))) == \
            int(np.argmax(forward(scaled, ex)))


def test_fit_temperature_on_overconfident_model_exceeds_one(sent_base, sent_split):
    # sharpen the logits and flip a third of the calibration labels, so the
    # model is near-certain but only ~67% accurate: the NLL optimum flattens
    _, val_ds = sent_split
    sharp = ToyModelParams(sent_base.vocab, sent_base.emb, sent_base.w * 6.0,
                           sent_base.b * 6.0, 1.0, sent_base.task_kind)
    flipped = Dataset(
        tuple(Example(ex.id, ex.input,
                      1 - ex.gold_label if i % 3 == 0 else ex.gold_label)
              for i, ex in enumerate(val_ds.examples)),
        val_ds.labels, val_ds.task_kind)
    assert fit_temperature(sharp, flipped) > 1.0


def test_fit_temperature_grid_granularity(sent_base, sent_split):
    _, val_ds = sent_split
    t = fit_temperature(sent_base, val_ds)
    assert abs(round(t / 0.01) * 0.01 - t) < 1e-9  # lies on the 0.01 grid


def test_fit_temperature_warns_when_t_sits_on_a_grid_bound(sent_base, sent_split,
                                                          caplog, monkeypatch):
    # a tenth of the labels flipped puts the NLL optimum inside the grid
    _, val_ds = sent_split
    noisy = Dataset(
        tuple(Example(ex.id, ex.input,
                      1 - ex.gold_label if i % 10 == 0 else ex.gold_label)
              for i, ex in enumerate(val_ds.examples)),
        val_ds.labels, val_ds.task_kind)
    with caplog.at_level(logging.WARNING, logger="saladbench.toyclf"):
        interior = fit_temperature(sent_base, noisy)
        assert caplog.records == []
        assert fit_temperature(sent_base, val_ds) == 0.25
        monkeypatch.setattr(toyclf, "T_MAX", 1.0)
        assert fit_temperature(sent_base, noisy) == 1.0
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    assert "T = 0.25" in messages[0] and "lower bound" in messages[0]
    assert "T = 1.00" in messages[1] and "upper bound" in messages[1]
    assert 1.0 < interior < 5.0


def reference_grid(params, ds, lo=0.25, hi=5.0, step=0.01):
    """(grid, NLL at each grid point) with one NLL computed at a time."""
    logits = toyclf._logits(params, toyclf.encode(params, ds.examples))[1]
    gold = toyclf._gold(ds.examples)
    grid = np.arange(round(lo / step), round(hi / step) + 1) * step
    return grid, [reference_nll(logits, gold, float(t)) for t in grid]


def reference_fit_temperature(params, ds, **grid_args):
    best_t, best_nll = None, np.inf
    for t, val in zip(*reference_grid(params, ds, **grid_args)):
        if val < best_nll - 1e-12:
            best_t, best_nll = float(t), val
    return round(best_t, 10)


def calibration_sets(sent_base, sent_split, pair_base, pair_split):
    """(model, calibration set): the bundled splits, one with a tenth of its
    labels flipped, and random models over sets of up to thousands of logits,
    labelled at random (an optimum at the upper grid edge) or by the model's
    own argmax (one at the lower edge)."""
    noisy = Dataset(tuple(Example(ex.id, ex.input, 1 - ex.gold_label if i % 10 == 0
                                  else ex.gold_label)
                          for i, ex in enumerate(sent_split[1].examples)),
                    sent_split[1].labels, "single")
    sets = [(sent_base, sent_split[1]), (pair_base, pair_split[1]),
            (sent_base, sent_split[0]), (sent_base, noisy)]
    rng = np.random.default_rng(23)
    for task_kind, n_classes, size in (("single", 3, 1500), ("pair", 2, 700),
                                       ("single", 5, 40)):
        params = random_model(rng, task_kind, n_classes)
        rows = [random_example(rng, params, f"e{i}") for i in range(size)]
        sets.append((params, Dataset(tuple(rows), LabelSet(tuple(map(str, range(n_classes)))),
                                     task_kind)))
        own = probabilities(params, rows).argmax(axis=1)
        sets.append((params, Dataset(tuple(Example(ex.id, ex.input, int(y))
                                           for ex, y in zip(rows, own)),
                                     sets[-1][1].labels, task_kind)))
    return sets


def test_fit_temperature_matches_a_scan_of_per_point_nlls(sent_base, sent_split, pair_base,
                                                          pair_split, caplog, monkeypatch):
    fits = []
    for params, ds in calibration_sets(sent_base, sent_split, pair_base, pair_split):
        expected = reference_fit_temperature(params, ds)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="saladbench.toyclf"):
            assert fit_temperature(params, ds) == expected, ds.examples[0].id
        on_edge = expected in (0.25, 5.0)
        assert len(caplog.records) == on_edge, expected
        fits.append(expected)
    assert 0.25 in fits and 5.0 in fits and any(0.25 < t < 5.0 for t in fits), fits
    params, ds = calibration_sets(sent_base, sent_split, pair_base, pair_split)[4]
    monkeypatch.setattr(toyclf, "T_MIN", 0.5)
    monkeypatch.setattr(toyclf, "T_MAX", 2.0)
    monkeypatch.setattr(toyclf, "T_STEP", 0.05)
    assert fit_temperature(params, ds) == \
        reference_fit_temperature(params, ds, lo=0.5, hi=2.0, step=0.05)


@pytest.mark.parametrize("cells", [1, 7, 4096, 10**9])
def test_grid_nlls_equal_per_point_nlls_bit_for_bit(sent_base, sent_split, pair_base,
                                                    pair_split, cells, monkeypatch):
    # blocks of GRID_CELLS logit cells: one grid point, a part of a set, the default, all
    monkeypatch.setattr(toyclf, "GRID_CELLS", cells)
    for params, ds in calibration_sets(sent_base, sent_split, pair_base, pair_split):
        grid, expected = reference_grid(params, ds)
        logits = toyclf._logits(params, toyclf.encode(params, ds.examples))[1]
        got = toyclf._nlls(logits, toyclf._gold(ds.examples), grid).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_fit_temperature_empty_calibration_set(sent_base):
    with pytest.raises(ArgumentError):
        fit_temperature(sent_base, Dataset((), LABELS, "single"))


# --- serialization ---

def test_save_load_round_trip(tmp_path, sent_base):
    path = tmp_path / "params.bin"
    save_params(sent_base, path, meta={"note": "test"})
    back = load_params(path)
    assert back.vocab == sent_base.vocab
    assert np.array_equal(back.emb, sent_base.emb)
    assert np.array_equal(back.w, sent_base.w)
    assert np.array_equal(back.b, sent_base.b)
    assert back.temperature == sent_base.temperature
    assert back.task_kind == sent_base.task_kind
    assert (tmp_path / "params.bin.json").exists()


def test_load_truncated_file_raises(tmp_path, sent_base):
    path = tmp_path / "params.bin"
    save_params(sent_base, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ArgumentError, match="truncated"):
        load_params(path)

"""Mitigation machinery: augmentation, class balancing, threshold search
(against an exhaustive-grid oracle), detector training, and evaluation."""

import numpy as np
import pytest

from saladbench import mitigate, toyclf
from saladbench.corpus import Dataset, Example, LabelSet, TextInput, tokenize
from saladbench.errors import ArgumentError, ConfigError, UnsupportedTransformError
from saladbench.lexical import ALL_KINDS, PAIR_ONLY_KINDS
from saladbench.mitigate import (MitigationReport, augment, balance_clean,
                                 evaluate_mitigation, make_invalid_examples,
                                 resolve_kinds, threshold_grid,
                                 threshold_search, train_invalid_class)
from saladbench.providers import EmbeddedProvider, checked_probs

from conftest import FINETUNE_ARGS
from test_acceptance import CONTENT_CHANGING_KINDS


def preds(confs, predicted=0, n_classes=2):
    """Checked probability rows, one per confidence, each predicting
    `predicted`."""
    rows = []
    for conf in confs:
        probs = [(1.0 - conf) / (n_classes - 1)] * n_classes
        probs[predicted] = conf
        rows.append(probs)
    return checked_probs([f"e{i}" for i in range(len(rows))], rows)


# --- configuration ---

def test_mitigation_config_validation(sent_split):
    # an unknown strategy is refused by the CLI (test_cli)
    train_ds, _ = sent_split
    with pytest.raises(ConfigError):
        augment(train_ds, ("sort",), 0.0, 0)
    with pytest.raises(ConfigError):
        resolve_kinds(("sort", "mystery"), "single")


def test_mitigation_report_validation():
    with pytest.raises(ArgumentError):
        MitigationReport("threshold", 101.0, 50.0, {})
    with pytest.raises(ArgumentError):
        MitigationReport("threshold", 50.0, 50.0, {"sort": -2.0})


def test_applicable_kinds_drops_pair_only_on_single_tasks():
    assert resolve_kinds(ALL_KINDS, "pair")[0] == ALL_KINDS
    single = resolve_kinds(ALL_KINDS, "single")[0]
    assert set(ALL_KINDS) - set(single) == set(PAIR_ONLY_KINDS)


def test_content_changing_kinds_are_the_non_reorderings():
    assert set(CONTENT_CHANGING_KINDS) == \
        set(ALL_KINDS) - {"sort", "reverse", "shuffle"}


# --- invalid example construction ---

def test_make_invalid_examples_one_per_source_and_kind(pair_split, pair_base):
    _, val_ds = pair_split
    provider = EmbeddedProvider(pair_base)
    sources = val_ds.examples[:5]
    out = make_invalid_examples(sources, ("sort", "drop", "copyone"), "pair",
                                provider, vocab=list(pair_base.vocab[1:]))
    assert len(out) == 15
    assert {ex.id for ex in out} == \
        {f"{src.id}__{k}" for src in sources for k in ("sort", "drop", "copyone")}


def test_make_invalid_examples_skips_unavailable_kinds(sent_split):
    _, val_ds = sent_split
    # no saliency provider, no generators: resolve_kinds leaves the lexical
    # reorderings, and make_invalid_examples takes the kinds it resolved
    kinds, skipped = resolve_kinds(("sort", "drop", "pbsmt"), "single",
                                   saliency=False, generators=False)
    assert [kind for kind, _ in skipped] == ["drop", "pbsmt"]
    out = make_invalid_examples(val_ds.examples[:3], kinds, "single")
    assert len(out) == 3
    assert all(ex.id.endswith("__sort") for ex in out)
    with pytest.raises(ConfigError):   # unresolved, a kind it cannot run is refused
        make_invalid_examples(val_ds.examples[:3], ("sort", "drop", "pbsmt"), "single")


def test_make_invalid_examples_requires_some_usable_kind(sent_split):
    _, val_ds = sent_split
    with pytest.raises(ConfigError):   # no saliency provider
        make_invalid_examples(val_ds.examples[:3], ("drop",), "single")
    with pytest.raises(UnsupportedTransformError):   # a pair-only kind
        make_invalid_examples(val_ds.examples[:3], ("copysort",), "single")
    with pytest.raises(ArgumentError):   # no trained generators
        make_invalid_examples(val_ds.examples[:3], ("pbsmt",), "single")


def test_make_invalid_examples_unlabeled_by_default(sent_split):
    _, val_ds = sent_split
    out = make_invalid_examples(val_ds.examples[:2], ("reverse",), "single")
    assert all(ex.gold_label is None for ex in out)


class _SideRecorder:
    """Saliency provider that records the side of every call."""

    supports_saliency = True

    def __init__(self, params):
        self.inner = EmbeddedProvider(params)
        self.sides = []

    def saliency_batch(self, inputs, side="a"):
        self.sides.append(side)
        return self.inner.saliency_batch(inputs, side)


def test_gradient_kinds_score_their_own_side(pair_split, pair_base,
                                             sent_split, sent_base):
    # pair tasks: drop/repeat/replace edit text_b and score it; copyone reads
    # text_a. Single tasks: every kind scores text_a.
    cases = [("pair", pair_split, pair_base,
              {"drop": "b", "repeat": "b", "replace": "b", "copyone": "a"}),
             ("single", sent_split, sent_base,
              {"drop": "a", "repeat": "a", "replace": "a"})]
    for task_kind, (_, val_ds), params, sides in cases:
        examples = val_ds.examples[:4]
        for kind, side in sides.items():
            provider = _SideRecorder(params)
            saliency = mitigate.score_saliency(provider, examples, [kind],
                                               task_kind)
            assert provider.sides == [side], (task_kind, kind)
            out = mitigate.transform_examples(examples, kind, task_kind,
                                              saliency=saliency,
                                              vocab=list(params.vocab[1:]))
            assert list(out) == [ex.id for ex in examples]
            if task_kind == "pair":
                assert all(row.input.text_a == ex.input.text_a
                           for row, ex in zip(out.values(), examples))


def test_make_invalid_examples_scores_each_side_once(pair_split, pair_base):
    _, val_ds = pair_split
    provider = _SideRecorder(pair_base)
    out = make_invalid_examples(val_ds.examples[:5],
                                ("drop", "repeat", "replace", "copyone"), "pair",
                                provider, vocab=list(pair_base.vocab[1:]))
    assert len(out) == 20
    assert sorted(provider.sides) == ["a", "b"]


def test_make_invalid_examples_skips_degenerate_rows():
    examples = [Example("x", TextInput("one"), 0),
                Example("y", TextInput("two words here"), 1)]
    out = make_invalid_examples(examples, ("sort", "shuffle"), "single")
    assert [ex.id for ex in out] == ["x__sort", "y__sort", "y__shuffle:0"]


# --- augment ---

def test_augment_counts_and_flags(pair_split, pair_base, pair_gens):
    train_ds, _ = pair_split
    provider = EmbeddedProvider(pair_base)
    invalid = augment(train_ds, ALL_KINDS, 0.5, 0, provider, pair_gens,
                      vocab=list(pair_base.vocab[1:]))
    n_sources = -(-len(train_ds) // 2)  # ceil
    assert len(invalid) == n_sources * len(ALL_KINDS)
    assert all(ex.gold_label is None for ex in invalid)
    # the invalid-class set appends a new label and assigns it
    balanced = balance_clean(train_ds, invalid)
    assert balanced.labels.names[-1] == "invalid"
    n = train_ds.labels.n_classes
    assert all(ex.gold_label == n for ex in balanced.examples[-len(invalid):])


def test_augment_single_task_skips_pair_only_kinds(sent_split, sent_base,
                                                   sent_gens):
    train_ds, _ = sent_split
    provider = EmbeddedProvider(sent_base)
    invalid = augment(train_ds, resolve_kinds(ALL_KINDS, "single")[0], 0.25, 0,
                      provider, sent_gens, vocab=list(sent_base.vocab[1:]))
    n_sources = -(-len(train_ds) // 4)
    assert len(invalid) == n_sources * (len(ALL_KINDS) - len(PAIR_ONLY_KINDS))
    assert all(ex.gold_label is None for ex in invalid)
    with pytest.raises(UnsupportedTransformError):   # unresolved
        augment(train_ds, ALL_KINDS, 0.25, 0, provider, sent_gens,
                vocab=list(sent_base.vocab[1:]))


def test_augment_is_deterministic(sent_split, sent_base):
    train_ds, _ = sent_split
    provider = EmbeddedProvider(sent_base)
    a = augment(train_ds, ("sort", "drop"), 0.3, 0, provider,
                vocab=list(sent_base.vocab[1:]))
    b = augment(train_ds, ("sort", "drop"), 0.3, 0, provider,
                vocab=list(sent_base.vocab[1:]))
    assert [(e.id, e.input) for e in a] == [(e.id, e.input) for e in b]


# --- balance_clean ---

def test_balance_clean_default_multiplier_matches_ratio():
    labels = LabelSet(("a", "b"))
    clean = tuple(Example(f"c{i}", TextInput("x"), 0) for i in range(10))
    invalid = tuple(Example(f"i{i}", TextInput("y")) for i in range(60))
    balanced = balance_clean(Dataset(clean, labels, "single"), invalid)
    assert len(balanced) == 10 * 6 + 60
    assert balanced.examples[:10] == clean
    assert balanced.examples[-60:] == tuple(Example(ex.id, ex.input, 2)
                                            for ex in invalid)
    assert balanced.labels.names == ("a", "b", "invalid")
    with pytest.raises(ArgumentError):
        balance_clean(Dataset((), labels, "single"), invalid)


# --- threshold search ---

def test_threshold_grid_covers_unit_interval():
    grid = threshold_grid(n_classes=2, step=0.25)
    assert grid[0] == 0.5 and grid[-1] == 1.0
    assert grid == [0.5, 0.75, 1.0]
    fine = threshold_grid(n_classes=4, step=0.001)
    assert abs(fine[0] - 0.25) < 1e-12 and fine[-1] == 1.0
    assert all(b > a for a, b in zip(fine, fine[1:]))


def test_threshold_search_separable_case():
    # clean at 0.99 confidence (all correct), invalid at 0.6
    clean = preds([0.99] * 20)
    invalid = preds([0.6] * 20)
    theta = threshold_search(clean, [0] * 20, invalid, 1.0, 0.03)
    # smallest grid threshold strictly above 0.6 flags every invalid example
    assert 0.6 < theta <= 0.602
    assert (invalid.max(axis=1) < theta).all()
    assert (clean.max(axis=1) >= theta).all()


def test_threshold_search_respects_accuracy_tolerance():
    # half the clean examples sit below the confidence of the invalid ones,
    # so flagging all invalid examples would cost 50 points of clean accuracy
    clean = preds([0.95] * 10 + [0.55] * 10)
    invalid = preds([0.7] * 10)
    theta = threshold_search(clean, [0] * 20, invalid, 1.0, 0.03)
    acc = sum(1 for p in clean if p.max() >= theta) / len(clean)
    assert acc >= 1.0 - 0.03
    assert theta <= 0.55


def test_threshold_search_matches_exhaustive_grid_oracle():
    rng = np.random.default_rng(0)
    clean = preds(rng.uniform(0.5, 1.0, size=60))
    gold = [0 if rng.random() < 0.9 else 1 for _ in range(60)]
    invalid = preds(rng.uniform(0.5, 0.95, size=40))
    baseline = sum(1 for p, y in zip(clean, gold) if p.argmax() == y) / 60
    tolerance = 0.03

    best_theta, best_detect = None, -1.0
    for theta in threshold_grid(2, mitigate.THRESHOLD_STEP):
        acc = sum(1 for p, y in zip(clean, gold)
                  if p.max() >= theta and p.argmax() == y) / len(clean)
        if acc < baseline - tolerance:
            continue
        detect = sum(1 for p in invalid if p.max() < theta) / len(invalid)
        if detect > best_detect:  # first strict improvement = smallest theta
            best_theta, best_detect = theta, detect
    assert threshold_search(clean, gold, invalid, baseline, tolerance) == best_theta


def test_threshold_search_falls_back_to_uniform_when_infeasible():
    # every clean prediction is wrong, so no threshold can stay within
    # tolerance of a perfect baseline
    clean = preds([0.9] * 5, predicted=1)
    invalid = preds([0.6])
    theta = threshold_search(clean, [0] * 5, invalid, 1.0, 0.03)
    assert theta == 0.5  # 1/N for two classes


def test_threshold_search_validation():
    with pytest.raises(ArgumentError):
        threshold_search(preds([]), [], preds([0.9]), 1.0, 0.03)


@pytest.mark.parametrize("tolerance", [-0.01, float("nan")])
def test_threshold_search_refuses_a_negative_or_nan_tolerance(tolerance):
    # every comparison with NaN is false, so NaN would make every threshold feasible
    with pytest.raises(ArgumentError, match="tolerance"):
        threshold_search(preds([0.9]), [0], preds([0.6]), 1.0, tolerance)


# --- invalid-class training ---

def test_train_invalid_class_widens_warm_head(sent_base, sent_split):
    train_ds, _ = sent_split
    labels = LabelSet(train_ds.labels.names + ("invalid",))
    augmented = Dataset(train_ds.examples, labels, "single")
    # zero epochs isolates the widening itself
    params = train_invalid_class(augmented, sent_base, **{**FINETUNE_ARGS, "epochs": 0})
    assert params.n_classes == sent_base.n_classes + 1
    assert np.array_equal(params.w[:, :-1], sent_base.w)
    assert np.all(params.w[:, -1] == 0.0)
    assert np.array_equal(params.b[:-1], sent_base.b)
    assert params.b[-1] == 0.0


def test_train_invalid_class_learns_detector(pair_split, pair_base, pair_gens):
    train_ds, val_ds = pair_split
    provider = EmbeddedProvider(pair_base)
    invalid = augment(train_ds, CONTENT_CHANGING_KINDS, 1.0, 0, provider,
                      pair_gens, vocab=list(pair_base.vocab[1:]))
    balanced = balance_clean(train_ds, invalid)
    params = train_invalid_class(balanced, pair_base, **FINETUNE_ARGS)
    invalid_val = {
        kind: make_invalid_examples(val_ds.examples, [kind], "pair",
                                    provider, pair_gens,
                                    list(pair_base.vocab[1:]))
        for kind in CONTENT_CHANGING_KINDS}
    report = evaluate_mitigation("invalid_class", params, val_ds, invalid_val)
    assert report.invalid_detected >= 90.0
    assert report.clean_accuracy >= 100.0 * toyclf.accuracy(pair_base, val_ds) - 3.0


# --- evaluation ---

def test_evaluate_mitigation_hand_counted_threshold_case():
    # head scores text "hi" far above "lo": confident on hi, uniform on lo
    params = toyclf.ToyModelParams(
        ("<unk>", "hi", "lo"),
        np.array([[0.0], [4.0], [0.0]]),
        np.array([[1.0, -1.0]]),
        np.zeros(2), 1.0, "single")
    labels = LabelSet(("a", "b"))
    clean = Dataset((Example("c1", TextInput("hi"), 0),      # confident, right
                     Example("c2", TextInput("hi"), 1),      # confident, wrong
                     Example("c3", TextInput("lo"), 0)),     # uniform: flagged
                    labels, "single")
    invalid = {"sort": [Example("i1", TextInput("lo"), None),    # flagged
                        Example("i2", TextInput("hi"), None)]}   # missed
    report = evaluate_mitigation("threshold", params, clean, invalid,
                                 theta=0.9)
    assert abs(report.clean_accuracy - 100.0 / 3.0) < 1e-9
    assert report.invalid_detected == 50.0
    assert report.per_transform_detection == {"sort": 50.0}
    assert report.theta == 0.9


def test_evaluate_mitigation_balances_transform_counts():
    params = toyclf.ToyModelParams(
        ("<unk>", "hi"),
        np.array([[0.0], [4.0]]),
        np.array([[1.0, -1.0]]),
        np.zeros(2), 1.0, "single")
    labels = LabelSet(("a", "b"))
    clean = Dataset((Example("c", TextInput("hi"), 0),), labels, "single")
    # "flagged" examples are uniform (unknown word); "missed" are confident
    flagged = [Example(f"f{i}", TextInput("mystery"), None) for i in range(9)]
    missed = [Example("m", TextInput("hi"), None)]
    invalid = {"drop": flagged, "sort": missed + flagged[:0]}
    report = evaluate_mitigation("threshold", params, clean, invalid,
                                 theta=0.9)
    # each kind contributes min-count (1) examples to the union
    assert report.per_transform_detection == {"drop": 100.0, "sort": 0.0}
    assert report.invalid_detected == 50.0


def test_transform_examples_keep_the_untouched_side_and_name_rows(
        pair_split, pair_base, pair_gens, sent_split, sent_base, sent_gens):
    # the side rule: pair rows edit text_b (copysort, copyone and pbsmt read
    # text_a), single rows edit text_a; every row is {id}__{kind}
    cases = [("pair", pair_split, pair_base, pair_gens),
             ("single", sent_split, sent_base, sent_gens)]
    for task_kind, (_, val_ds), params, gens in cases:
        examples = val_ds.examples
        kinds = resolve_kinds("all", task_kind)[0]
        saliency = mitigate.score_saliency(EmbeddedProvider(params), examples,
                                           kinds, task_kind)
        vocab = toyclf.build_vocab(val_ds)[1:]
        for kind in kinds:
            for seed in ((0, 3) if kind == "shuffle" else (0,)):
                out = mitigate.transform_examples(examples, kind, task_kind, seed,
                                                  0.5, saliency, gens, vocab)
                assert out, (task_kind, kind)
                sources = {ex.id: ex for ex in examples}
                suffix = f"shuffle:{seed}" if kind == "shuffle" else kind
                for source_id, row in out.items():
                    src = sources[source_id]
                    assert row.id == f"{src.id}__{suffix}"
                    assert row.gold_label == src.gold_label
                    if task_kind == "pair":
                        assert row.input.text_a == src.input.text_a
                    else:
                        assert row.input.text_b is None


# --- tokens held by transformed rows ---

@pytest.mark.parametrize("task", ["single", "pair"])
def test_every_transformed_row_holds_the_tokens_of_its_text(task, request):
    """Rows keep the tokens an edit returned instead of re-tokenizing the text
    built from them; on both bundled corpora, those tokens must be exactly
    what tokenizing each side's text gives."""
    prefix = "sent" if task == "single" else "pair"
    ds = request.getfixturevalue(f"{prefix}_ds")
    _, val_ds = request.getfixturevalue(f"{prefix}_split")
    params = request.getfixturevalue(f"{prefix}_base")
    gens = request.getfixturevalue(f"{prefix}_gens")
    kinds, _ = resolve_kinds("all", task)
    provider = EmbeddedProvider(params)
    vocab = toyclf.build_vocab(ds)[1:]
    rows = 0
    for kind in kinds:
        # pbsmt decodes; the validation split keeps that fast
        examples = val_ds.examples if kind == "pbsmt" else ds.examples
        saliency = mitigate.score_saliency(provider, examples, [kind], task)
        for seed in (0, 1):
            for row in mitigate.transform_examples(examples, kind, task, seed,
                                                   saliency=saliency,
                                                   generators=gens, vocab=vocab).values():
                inp = row.input
                assert inp.tokens("a") == tokenize(inp.text_a), row.id
                if task == "pair":
                    assert inp.tokens("b") == tokenize(inp.text_b), row.id
                rows += 1
    assert rows > 2 * len(ds) * (len(kinds) - 1)

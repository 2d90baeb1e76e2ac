"""End-to-end acceptance checks. Each test covers one headline guarantee and
prints a single PASS/FAIL line; run with `pytest -v tests/test_acceptance.py`.

Covered guarantees:
  1. lexical reorderings preserve token multisets (randomized, < 10 s)
  2. sorting a reference sentence reproduces the expected string exactly
  3. analytic gradients match finite differences for all losses (< 30 s)
  4. the order-blind model agrees 100.00% with itself under reorderings,
     and training on shuffled text matches clean training exactly
  5. metrics match independent brute-force computations
  6. temperature fitting never moves an argmax and improves NLL/ECE
  7. mitigation detects >= 90% of content-changing invalid inputs with
     clean accuracy within 3 points, entropic fine-tuning cuts invalid
     confidence by >= 15 points, threshold search matches its oracle (< 3 min)
  8. detectors transfer better within a transform family than across
  9. generator EM/decoder guarantees (monotone likelihood, exhaustive-search
     parity, vocabulary containment) (< 1 min)
 10. CLI reruns with identical configs are byte-identical
"""

import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from saladbench import cli, metrics, mitigate, pbsmt, toyclf
from saladbench.corpus import Dataset, Example, LabelSet, TextInput, tokenize
from saladbench.lexical import (apply_lexical, reverse_tokens, shuffle_with_report,
                                sort_tokens)
from saladbench.providers import EmbeddedProvider, checked_probs

from conftest import FINETUNE_ARGS, TRAIN_ARGS
from test_lexical import bigram_free_permutation_exists
from test_pbsmt import (DECODE_SOURCES, corpus_loglikelihood, fixture_lm,
                        fixture_phrase_table, oracle_decode)
from test_toyclf import _numeric_grad, _rel_err, random_example, random_model
from test_toyclf_batched import grad, nll, saliency


# transforms that alter token content (vs. pure reorderings)
CONTENT_CHANGING_KINDS = ("copysort", "drop", "repeat", "replace", "copyone", "pbsmt")


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def test_1_lexical_invariants_randomized():
    with criterion("lexical invariants on randomized inputs (< 10 s)"):
        rng = random.Random(0)
        pool = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
                "theta", "iota", "kappa", "the", "a"]
        start = time.perf_counter()
        for trial in range(1000):
            n = rng.randint(2, 9)
            words = [rng.choice(pool) for _ in range(n)]
            terminal = rng.choice([None, ".", "!", "?"])
            surfaces = tuple(words) + ((terminal,) if terminal else ())
            seq = tuple(surfaces)
            bag = Counter(surfaces)

            for out in (sort_tokens(seq), reverse_tokens(seq)):
                assert Counter(out) == bag
                if terminal:
                    assert out[-1] == terminal

            shuffled, shared, exhausted = shuffle_with_report(seq, seed=trial)
            assert Counter(shuffled) == bag
            if terminal:
                assert shuffled[-1] == terminal
            if not exhausted:
                forbidden = set(zip(surfaces, surfaces[1:]))
                out = shuffled
                assert not set(zip(out, out[1:])) & forbidden
            elif n <= 7 and bigram_free_permutation_exists(seq):
                # achievable but missed within the default attempt budget:
                # a generous budget must find it on inputs this short
                _, shared, exhausted = shuffle_with_report(
                    seq, seed=trial, max_attempts=20000)
                assert not exhausted and shared == 0, surfaces
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_2_sorted_sentence_reproduction():
    with criterion("sorted reference sentence matches expected string"):
        seq = tokenize(
            "Making certain distinctions is imperative in looking back "
            "on the past.")
        assert " ".join(sort_tokens(seq)) == \
            "back certain distinctions imperative in is looking making on past the ."


def test_3_gradient_correctness():
    with criterion("analytic gradients match finite differences (< 30 s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        kinds = ["cross_entropy", "label_smoothing", "focal", "entropic"]
        for trial in range(100):
            kind = kinds[trial % 4]
            task_kind = "pair" if trial % 2 else "single"
            params = random_model(rng, task_kind=task_kind)
            batch = [random_example(rng, params, f"e{i}") for i in range(3)]
            # entropic: cross-entropy plus the entropy term over invalid rows
            invalid = ([Example("i0", random_example(rng, params).input, None)]
                       if kind == "entropic" else ())
            values = dict(loss="cross_entropy" if kind == "entropic" else kind,
                          lambda_ls=0.1, gamma=2.0, lambda_ent=0.3)
            analytic, _ = grad(params, batch, invalid, **values)
            numeric = _numeric_grad(params, batch, invalid, **values)
            assert _rel_err(analytic.emb, numeric["emb"]) < 1e-4, (trial, kind)
            assert _rel_err(analytic.w, numeric["w"]) < 1e-4, (trial, kind)
            assert _rel_err(analytic.b, numeric["b"]) < 1e-4, (trial, kind)

        # zero head -> input gradients, hence saliency, are exactly zero
        zero = toyclf.ToyModelParams(("<unk>", "a"), np.ones((2, 3)),
                                     np.zeros((3, 2)), np.zeros(2), 1.0,
                                     "single")
        scores = saliency(zero, [Example("e", TextInput("a a a"), 0)])[0]
        assert scores == (0.0, 0.0, 0.0)

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_4_permutation_invariance(sent_base, sent_split):
    with criterion("reorderings: agreement exactly 100.00; training on "
                   "shuffled text matches clean training exactly"):
        train_ds, val_ds = sent_split
        provider = EmbeddedProvider(sent_base)
        preds_orig = provider.predict_batch(val_ds.examples)
        for kind in ("sort", "reverse", "shuffle"):
            transformed = [Example(ex.id, apply_lexical(ex, kind, seed=0), ex.gold_label)
                           for ex in val_ds.examples]
            preds = provider.predict_batch(transformed)
            assert metrics.agreement(preds_orig, preds) == 100.0, kind

        # the paper's permuted-word-order experiment: train from scratch on
        # the whole training set shuffled (labels kept), score clean text
        shuffled = Dataset(tuple(mitigate.transform_examples(
                               train_ds.examples, "shuffle", train_ds.task_kind).values()),
                           train_ds.labels, train_ds.task_kind)
        shuffled_params = toyclf.train(shuffled, **TRAIN_ARGS)
        clean_acc = toyclf.accuracy(sent_base, val_ds)
        assert toyclf.accuracy(shuffled_params, val_ds) == clean_acc


def test_5_metric_oracles():
    with criterion("metrics match independent brute-force computations"):
        rng = random.Random(0)
        n_classes = 3
        rows_a, rows_b, gold = [], [], []
        for i in range(300):
            conf = rng.uniform(1 / 3 + 1e-9, 1.0)
            rest = (1.0 - conf) / (n_classes - 1)
            y_a, y_b = rng.randrange(3), rng.randrange(3)
            pa = [rest] * n_classes
            pa[y_a] = conf
            pb = [rest] * n_classes
            pb[y_b] = conf
            rows_a.append(pa)
            rows_b.append(pb)
            gold.append(rng.randrange(3))
        ids = [f"e{i}" for i in range(300)]
        preds_a, preds_b = checked_probs(ids, rows_a), checked_probs(ids, rows_b)

        # agreement: plain counting
        expected = 100.0 * sum(1 for a, b in zip(preds_a, preds_b)
                               if a.argmax() == b.argmax()) / 300
        assert metrics.agreement(preds_a, preds_b) == expected

        # default-label agreement
        expected = 100.0 * sum(1 for p in preds_b if p.argmax() == 2) / 300
        assert metrics.default_agreement(preds_b, 2) == expected

        # mean confidence
        expected = 100.0 * sum(p.max() for p in preds_a) / 300
        assert abs(metrics.mean_confidence(preds_a) - expected) < 1e-12

        # ECE against a from-the-definition binning: b/10 < conf <= (b+1)/10
        members = {b: [] for b in range(10)}
        for p, y in zip(preds_a, gold):
            b = next(b for b in range(10)
                     if b / 10 < p.max() <= (b + 1) / 10)
            members[b].append((p.max(), p.argmax() == y))
        expected = 0.0
        for vals in members.values():
            if vals:
                conf = sum(c for c, _ in vals) / len(vals)
                acc = sum(ok for _, ok in vals) / len(vals)
                expected += len(vals) / 300 * abs(acc - conf)
        assert abs(metrics.ece(preds_a, gold) - expected) < 1e-12

        # perfectly calibrated fixture: per-bin accuracy == confidence
        rows, ys = [], []
        for conf, n, correct in ((0.8, 5, 4), (0.6, 5, 3), (1.0, 2, 2)):
            for i in range(n):
                rows.append([conf, 1.0 - conf])
                ys.append(0 if i < correct else 1)
        preds = checked_probs([f"c{i}" for i in range(len(rows))], rows)
        assert metrics.ece(preds, ys) <= 1e-12


def test_6_calibration(sent_base, sent_split):
    with criterion("temperature fitting keeps argmax, improves NLL and ECE"):
        _, holdout = sent_split
        # a deliberately overconfident setup: sharpened logits scored against
        # a calibration set with a third of the labels flipped, so accuracy
        # sits far below the model's near-certain confidence
        val_ds = Dataset(
            tuple(Example(ex.id, ex.input,
                          1 - ex.gold_label if i % 3 == 0 else ex.gold_label)
                  for i, ex in enumerate(holdout.examples)),
            holdout.labels, holdout.task_kind)
        gold = [ex.gold_label for ex in val_ds.examples]
        sharp = toyclf.ToyModelParams(sent_base.vocab, sent_base.emb,
                                      sent_base.w * 6.0, sent_base.b * 6.0,
                                      1.0, sent_base.task_kind)
        t = toyclf.fit_temperature(sharp, val_ds)
        scaled = toyclf.with_temperature(sharp, t)
        for ex in val_ds.examples:
            assert int(np.argmax(toyclf.forward(sharp, ex))) == \
                int(np.argmax(toyclf.forward(scaled, ex)))
        assert nll(sharp, val_ds, temperature=t) <= \
            nll(sharp, val_ds, temperature=1.0)
        pre = metrics.ece(EmbeddedProvider(sharp).predict_batch(val_ds.examples),
                          gold)
        post = metrics.ece(EmbeddedProvider(scaled).predict_batch(val_ds.examples),
                           gold)
        assert post <= pre


def _mitigation_for(base, split, gens):
    """Detector + entropic + threshold checks for one corpus."""
    train_ds, val_ds = split
    task_kind = train_ds.task_kind
    provider = EmbeddedProvider(base)
    vocab = list(base.vocab[1:])
    baseline_acc = 100.0 * toyclf.accuracy(base, val_ds)

    content_kinds = mitigate.resolve_kinds(
        CONTENT_CHANGING_KINDS, task_kind)[0]
    invalid_val = {
        kind: mitigate.make_invalid_examples(val_ds.examples, [kind],
                                             task_kind, provider, gens, vocab)
        for kind in content_kinds}

    # invalid-class detector over content-changing transforms
    invalid = mitigate.augment(train_ds, content_kinds, 1.0, 0, provider, gens,
                               vocab)
    balanced = mitigate.balance_clean(train_ds, invalid)
    detector = mitigate.train_invalid_class(balanced, base, **FINETUNE_ARGS)
    report = mitigate.evaluate_mitigation(
        "invalid_class", detector, val_ds, invalid_val)
    assert report.invalid_detected >= 90.0, (task_kind, report)
    assert report.clean_accuracy >= baseline_acc - 3.0, (task_kind, report)

    # entropic fine-tuning drops confidence on invalid inputs by >= 15 points
    all_kinds = mitigate.resolve_kinds("all", task_kind)[0]
    from saladbench.corpus import Dataset
    invalid_train = Dataset(
        tuple(mitigate.augment(train_ds, all_kinds, 1.0, 0, provider, gens, vocab)),
        train_ds.labels, task_kind)
    entropic = mitigate.train_entropic(
        base, train_ds, invalid_train, lambda_ent=2.0,
        **{**FINETUNE_ARGS, "epochs": 50, "lr": 0.5})
    invalid_all = [
        ex for kind in all_kinds
        for ex in mitigate.make_invalid_examples(val_ds.examples, [kind],
                                                 task_kind, provider, gens,
                                                 vocab)]
    before = metrics.mean_confidence(
        EmbeddedProvider(base).predict_batch(invalid_all))
    after = metrics.mean_confidence(
        EmbeddedProvider(entropic).predict_batch(invalid_all))
    assert before - after >= 15.0, (task_kind, before, after)
    assert toyclf.accuracy(entropic, val_ds) >= baseline_acc / 100.0 - 0.03

    # threshold search: feasibility + exhaustive-grid parity
    preds_clean = provider.predict_batch(val_ds.examples)
    gold = [ex.gold_label for ex in val_ds.examples]
    preds_invalid = provider.predict_batch(
        [ex for v in invalid_val.values() for ex in v])
    tolerance = 0.03
    theta = mitigate.threshold_search(preds_clean, gold, preds_invalid,
                                      baseline_acc / 100.0, tolerance)
    grid = mitigate.threshold_grid(len(preds_clean[0]), mitigate.THRESHOLD_STEP)
    best_theta, best_detect = None, -1.0
    for cand in grid:
        acc = sum(1 for p, y in zip(preds_clean, gold)
                  if p.max() >= cand and p.argmax() == y) / len(gold)
        if acc < baseline_acc / 100.0 - tolerance:
            continue
        detect = sum(1 for p in preds_invalid
                     if p.max() < cand) / len(preds_invalid)
        if detect > best_detect:
            best_theta, best_detect = cand, detect
    if best_theta is None:
        assert theta == 1.0 / len(preds_clean[0])
    else:
        assert theta == best_theta
        acc = sum(1 for p, y in zip(preds_clean, gold)
                  if p.max() >= theta and p.argmax() == y) / len(gold)
        assert acc >= baseline_acc / 100.0 - tolerance


def test_7_mitigation(sent_base, sent_split, sent_gens,
                      pair_base, pair_split, pair_gens):
    with criterion("mitigation: >= 90% content-changing detection, clean "
                   "within 3 pts, >= 15 pt entropic confidence drop, "
                   "threshold oracle parity (< 3 min)"):
        start = time.perf_counter()
        _mitigation_for(sent_base, sent_split, sent_gens)
        _mitigation_for(pair_base, pair_split, pair_gens)
        elapsed = time.perf_counter() - start
        assert elapsed < 180.0, f"took {elapsed:.1f} s"


def transfer_matrix(ds_train, invalid_train_by_kind, invalid_val_by_kind, warm,
                    finetune):
    """The paper's transferability experiment: detection rates of invalid-class
    detectors trained on one kind and evaluated on every kind. Rows =
    training kind, columns = eval kind."""
    kinds = sorted(invalid_train_by_kind)
    n_task = ds_train.labels.n_classes
    labels = LabelSet(ds_train.labels.names + (mitigate.INVALID_LABEL,),
                      ds_train.labels.default_label)
    matrix = np.zeros((len(kinds), len(kinds)))
    for i, train_kind in enumerate(kinds):
        invalid = tuple(Example(ex.id, ex.input, n_task)
                        for ex in invalid_train_by_kind[train_kind])
        params = mitigate.train_invalid_class(
            Dataset(ds_train.examples + invalid, labels, ds_train.task_kind),
            warm, **finetune)
        for j, eval_kind in enumerate(kinds):
            probs = toyclf.probabilities(params, invalid_val_by_kind[eval_kind])
            matrix[i, j] = 100.0 * np.count_nonzero(probs.argmax(axis=1) == n_task) \
                / len(probs)
    return kinds, matrix


def test_8_transferability(pair_base, pair_split, pair_gens):
    with criterion("within-family detector transfer exceeds cross-family"):
        train_ds, val_ds = pair_split
        provider = EmbeddedProvider(pair_base)
        vocab = list(pair_base.vocab[1:])
        kinds = CONTENT_CHANGING_KINDS
        invalid_train = {
            k: mitigate.make_invalid_examples(train_ds.examples, [k], "pair",
                                              provider, pair_gens, vocab)
            for k in kinds}
        invalid_val = {
            k: mitigate.make_invalid_examples(val_ds.examples, [k], "pair",
                                              provider, pair_gens, vocab)
            for k in kinds}
        order, matrix = transfer_matrix(
            train_ds, invalid_train, invalid_val, pair_base, FINETUNE_ARGS)

        # family of copy-based transforms that replace text_b wholesale
        family = {"copysort", "copyone"}
        idx = {k: i for i, k in enumerate(order)}
        within = [matrix[idx[a], idx[b]] for a in family for b in family]
        cross = [matrix[idx[a], j] for a in family
                 for j, k in enumerate(order) if k not in family]
        assert sum(within) / len(within) > sum(cross) / len(cross), \
            (order, matrix.tolist())


def test_9_statistical_generator_guarantees(pair_split, pair_gens, sent_split):
    with criterion("generator EM monotone likelihood, decoder matches "
                   "exhaustive search, vocabulary containment (< 1 min)"):
        start = time.perf_counter()
        pair_train, pair_val = pair_split
        sent_train, _ = sent_split

        # EM log-likelihood never decreases across 10 iterations
        for ds, label in ((pair_train, 0), (pair_train, 1), (sent_train, 0)):
            corpus = pbsmt.build_parallel_corpus(ds, label)
            lls = [corpus_loglikelihood(
                       corpus, pbsmt.train_model1(corpus, iterations=k))
                   for k in range(1, 11)]
            for prev, cur in zip(lls, lls[1:]):
                assert cur >= prev - 1e-9, (label, lls)

        # decoder output equals the exhaustive-search argmax (<= 5 tokens)
        pt, lm = fixture_phrase_table(), fixture_lm()
        weights = pbsmt.DecoderWeights(beam_size=200)
        for source in DECODE_SOURCES:
            got = pbsmt.decode(tuple(source), pt, lm, weights)
            assert got == oracle_decode(source, pt, lm, weights), source

        # generated tokens stay inside target vocab + pass-through
        target_vocab = {label: set() for label in pair_gens}
        for ex in pair_train.examples:
            target_vocab[ex.gold_label] |= set(tokenize(ex.input.text_b))
        for ex in pair_val.examples:
            new = pbsmt.generate_invalid(ex, pair_gens)
            out = set(tokenize(new.text_b))
            passthrough = set(tokenize(ex.input.text_a))
            assert out <= target_vocab[ex.gold_label] | passthrough, ex.id

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_10_end_to_end_determinism(tmp_path):
    with criterion("CLI reruns with identical configs are byte-identical"):
        from pathlib import Path
        data_dir = Path(__file__).resolve().parent.parent / "src" / \
            "saladbench" / "data"
        args = ["--data", str(data_dir / "toy_sentiment.tsv"),
                "--task", "single", "--labels", "negative,positive"]

        train_out = tmp_path / "train"
        assert cli.main(["train", *args, "--out", str(train_out)]) == 0
        model = str(train_out / "params.bin")

        outputs = {}
        for run_name in ("first", "second"):
            base = tmp_path / run_name
            assert cli.main(["transform", *args, "--model", model,
                             "--transforms", "sort,shuffle,drop",
                             "--out", str(base / "tx")]) == 0
            assert cli.main(["evaluate", *args, "--model", model,
                             "--transforms", "sort,reverse,shuffle,drop",
                             "--out", str(base / "eval")]) == 0
            assert cli.main(["mitigate", *args, "--strategy", "invalid-class",
                             "--transforms",
                             ",".join(CONTENT_CHANGING_KINDS),
                             "--augment-fraction", "1.0",
                             "--out", str(base / "mit")]) == 0
            blobs = {}
            for rel in ("tx/sort.tsv", "tx/shuffle_0.tsv", "tx/drop.tsv",
                        "eval/report.json", "eval/report.csv",
                        "eval/report.md", "mit/report.json", "mit/report.csv"):
                blobs[rel] = (base / rel).read_bytes()
            outputs[run_name] = blobs
        for rel, blob in outputs["first"].items():
            assert blob == outputs["second"][rel], rel

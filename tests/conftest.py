"""Shared fixtures: bundled corpora, deterministic splits, trained baselines,
and per-label statistical generators. Session-scoped because training is the
expensive part and every consumer treats the results as read-only."""

import pytest

from saladbench import corpus, pbsmt, toyclf
from saladbench.data import load_toy_pairs, load_toy_sentiment

# the baseline the fixtures train: `saladbench train`'s defaults
TRAIN_ARGS = dict(epochs=3, batch_size=16, lr=5.0, seed=0, dim=32)
# the fine-tune of the mitigation checks: `saladbench mitigate`'s defaults
FINETUNE_ARGS = dict(epochs=15, batch_size=16, lr=1.0, seed=0)


@pytest.fixture(scope="session")
def sent_ds() -> corpus.Dataset:
    return load_toy_sentiment()


@pytest.fixture(scope="session")
def pair_ds() -> corpus.Dataset:
    return load_toy_pairs()


@pytest.fixture(scope="session")
def sent_split(sent_ds):
    return corpus.split_holdout(sent_ds, 0.2, seed=0)


@pytest.fixture(scope="session")
def pair_split(pair_ds):
    return corpus.split_holdout(pair_ds, 0.2, seed=0)


@pytest.fixture(scope="session")
def sent_base(sent_split) -> toyclf.ToyModelParams:
    train_ds, _ = sent_split
    return toyclf.train(train_ds, **TRAIN_ARGS)


@pytest.fixture(scope="session")
def pair_base(pair_split) -> toyclf.ToyModelParams:
    train_ds, _ = pair_split
    return toyclf.train(train_ds, **TRAIN_ARGS)


@pytest.fixture(scope="session")
def sent_gens(sent_split):
    train_ds, _ = sent_split
    return {label: pbsmt.train_generator(pbsmt.build_parallel_corpus(train_ds, label), label)
            for label in range(train_ds.labels.n_classes)}


@pytest.fixture(scope="session")
def pair_gens(pair_split):
    train_ds, _ = pair_split
    return {label: pbsmt.train_generator(pbsmt.build_parallel_corpus(train_ds, label), label)
            for label in range(train_ds.labels.n_classes)}

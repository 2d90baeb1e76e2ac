"""Command-line front end.

Commands: transform, evaluate, train, calibrate, mitigate, pbsmt, report.
Each output file is replaced whole (corpus.write_file). A run writes its
resolved configuration, config.json, last, so it marks a complete run.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 provider/contract error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import corpus, lexical, metrics, mitigate, pbsmt, providers, toyclf
from .errors import (ConfigError, ContractError, DataError, InsufficientDataError,
                     ProviderError, SaladBenchError)

SHUFFLE_SEEDS = (0, 1, 2, 3, 4)


class _Parser(argparse.ArgumentParser):
    """A usage error (bad value, missing or unknown argument) is a ConfigError."""

    def error(self, message):
        raise ConfigError(message)


class _Finite(argparse.Action):
    """A float flag whose type refuses NaN and infinity, naming the flag's
    config.json key; --config values pass through it in _config_value."""

    def __init__(self, option_strings, dest, **kwargs):
        def finite(text: str) -> float:
            value = float(text)
            if not math.isfinite(value):
                raise ConfigError(f"{dest} must be finite, got {text}")
            return value
        finite.__name__ = "float"  # argparse's "invalid float value" message names it
        super().__init__(option_strings, dest, type=finite, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)


def _add_dataset_args(p):
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--format", default="tsv", choices=["tsv", "jsonl"])
    p.add_argument("--task", required=True, choices=["single", "pair"])
    p.add_argument("--labels", required=True,
                   help="comma-separated label names, dataset order")
    p.add_argument("--default-label", default=None,
                   help="default label name for copy-based agreement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _add_transform_args(p):
    """The provider and transform flags of transform and evaluate."""
    p.add_argument("--model", help="embedded toy model params file")
    p.add_argument("--replay", help="replay predictions JSONL (append ,saliency.jsonl)")
    p.add_argument("--url", help="HTTP provider base URL")
    p.add_argument("--transforms", default="all")
    p.add_argument("--pbsmt-dir", help="directory of trained pbsmt generators")
    p.add_argument("--r", action=_Finite, default=0.5)


def _add_train_args(p):
    """The training flags of train and mitigate, and the one place their
    defaults are written."""
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", action=_Finite, default=5.0)
    p.add_argument("--dim", type=int, default=32)


def _label_set(args) -> corpus.LabelSet:
    names = tuple(s.strip() for s in args.labels.split(","))
    if args.default_label and args.default_label not in names:
        raise ConfigError(f"--default-label {args.default_label!r} is not one of "
                          f"--labels {args.labels!r}")
    default = names.index(args.default_label) if args.default_label else None
    return corpus.LabelSet(names, default)


def _load(args) -> corpus.Dataset:
    return corpus.load_dataset(args.data, args.format, _label_set(args), args.task)


def _provider(args, required: bool = True):
    """The provider that --model, --replay or --url names; None when no flag
    is given and none is required."""
    if args.model:
        return providers.EmbeddedProvider(toyclf.load_params(args.model))
    if args.replay:
        return providers.ReplayProvider(*args.replay.split(",", 1))
    if args.url:
        return providers.HttpProvider(args.url)
    if required:
        raise ConfigError("one of --model / --replay / --url is required")
    return None


def _clear_config(out_dir):
    """Removes an earlier run's config.json; a command calls this before its
    first output, and main writes the new one after the last."""
    if os.path.exists(path := os.path.join(out_dir, "config.json")):
        os.remove(path)


def _write_config(args):
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    corpus.write_file(os.path.join(args.out, "config.json"), json.dumps(
        resolved, indent=2, sort_keys=True, default=str, allow_nan=False))


def _predict(provider, examples, labels: corpus.LabelSet):
    """The provider's probabilities, checked to have one column per label."""
    probs = provider.predict_batch(examples)
    if probs.shape[1] != labels.n_classes:
        raise ContractError(f"provider gives {probs.shape[1]} probabilities "
                            f"per row for {labels.n_classes} labels")
    return probs


def _save_transformed(transformed, tag, ds, path):
    """Writes one set of `transform_examples` rows; `tag` is `kind:seed:r`."""
    out_ds = corpus.Dataset(tuple(transformed.values()), ds.labels, ds.task_kind)
    meta = {ex.id: (src, tag) for src, ex in transformed.items()}
    corpus.save_dataset(out_ds, path, transform_meta=meta)
    print(f"wrote {path} ({len(transformed)} rows)")


def cmd_transform(args):
    if not 0.0 < args.r <= 1.0:  # before any work, whatever the kinds
        raise ConfigError(f"--r must be in (0, 1], got {args.r}")
    ds = _load(args)
    provider = _provider(args, required=False)
    generators = pbsmt.load_generators(args.pbsmt_dir) if args.pbsmt_dir else {}
    kinds, skipped = mitigate.resolve_kinds(
        args.transforms, ds.task_kind,
        provider is not None and provider.supports_saliency, bool(generators))
    for kind, why in skipped:
        print(f"skipped {kind}: {why}", file=sys.stderr)
    saliency = mitigate.score_saliency(provider, ds.examples, kinds, ds.task_kind)
    vocab = toyclf.build_vocab(ds)[1:] if "replace" in kinds else None
    outputs = [(f"{kind}_{seed}" if kind == "shuffle" else kind, f"{kind}:{seed}:{args.r}",
                mitigate.transform_examples(ds.examples, kind, ds.task_kind, seed,
                                            args.r, saliency, generators, vocab))
               for kind in kinds
               for seed in (SHUFFLE_SEEDS if kind == "shuffle" else (args.seed,))]
    _clear_config(args.out)
    for name, tag, transformed in outputs:
        _save_transformed(transformed, tag, ds, os.path.join(args.out, f"{name}.tsv"))


def cmd_evaluate(args):
    if not 0.0 < args.r <= 1.0:
        raise ConfigError(f"--r must be in (0, 1], got {args.r}")
    ds = _load(args)
    provider = _provider(args)
    labels = ds.labels
    generators = pbsmt.load_generators(args.pbsmt_dir) if args.pbsmt_dir else {}
    kinds, skipped = mitigate.resolve_kinds(
        args.transforms, ds.task_kind, provider.supports_saliency, bool(generators))
    preds_orig = _predict(provider, ds.examples, labels)
    row_of = {ex.id: i for i, ex in enumerate(ds.examples)}
    for kind, why in skipped:
        print(f"{kind}: -- ({why})")
    saliency = mitigate.score_saliency(provider, ds.examples, kinds, ds.task_kind)
    vocab = toyclf.build_vocab(ds)[1:] if "replace" in kinds else None
    rows = []
    for kind in kinds:
        per_seed, confs = [], []
        for seed in (SHUFFLE_SEEDS if kind == "shuffle" else (args.seed,)):
            transformed = mitigate.transform_examples(
                ds.examples, kind, ds.task_kind, seed, args.r, saliency,
                generators, vocab)
            if not transformed:
                break
            preds = _predict(provider, list(transformed.values()), labels)
            if kind in lexical.PAIR_ONLY_KINDS:
                agr = metrics.default_agreement(preds, labels.default_label)
            else:
                # each row is compared with the prediction for its own source
                agr = metrics.agreement(
                    preds_orig[[row_of[src] for src in transformed]], preds)
            per_seed.append(agr)
            confs.append(metrics.mean_confidence(preds))
            n = len(preds)
            del transformed   # free this set before the next one is built
        if not per_seed:
            print(f"{kind}: -- (every row skipped)")
            continue
        rows.append(metrics.MetricsRow(
            kind, sum(per_seed) / len(per_seed), sum(confs) / len(confs), n,
            per_seed=tuple(per_seed) if kind == "shuffle" else ()))
    gold = [ex.gold_label for ex in ds.examples]
    ece_value = metrics.ece(preds_orig, gold) if None not in gold else None
    report = metrics.build_report(rows, labels.n_classes, ece_value,
                                  provenance={"provider": provider.describe(),
                                              "seed": args.seed,
                                              "data": args.data})
    _clear_config(args.out)
    for name, text in (("report.json", report.to_json()),
                       ("report.csv", report.to_csv()),
                       ("report.md", report.to_markdown())):
        corpus.write_file(os.path.join(args.out, name), text)
    print(report.to_markdown())


def cmd_train(args):
    ds = _load(args)
    params = toyclf.train(ds, args.epochs, args.batch_size, args.lr, args.seed, args.dim,
                          args.loss, args.lambda_ls, args.gamma)
    _clear_config(args.out)
    path = os.path.join(args.out, "params.bin")
    toyclf.save_params(params, path, meta={"loss": args.loss, "seed": args.seed,
                                           "epochs": args.epochs, "data": args.data})
    acc = toyclf.accuracy(params, ds)
    print(f"trained {path}; train accuracy {100 * acc:.2f}%")


def cmd_calibrate(args):
    ds = _load(args)
    params = toyclf.load_params(args.model)
    gold = [ex.gold_label for ex in ds.examples]
    pre = metrics.ece(providers.EmbeddedProvider(params).predict_batch(ds.examples), gold)
    t = toyclf.fit_temperature(params, ds)
    scaled = toyclf.with_temperature(params, t)
    post = metrics.ece(providers.EmbeddedProvider(scaled).predict_batch(ds.examples), gold)
    _clear_config(args.out)
    path = os.path.join(args.out, "params_scaled.bin")
    toyclf.save_params(scaled, path, meta={"temperature": t, "data": args.data})
    print(f"fitted T = {t:.2f}; ECE {pre:.4f} -> {post:.4f}; wrote {path}")


def cmd_mitigate(args):
    if not 0.0 < args.augment_fraction <= 1.0:  # before any work, whatever the strategy
        raise ConfigError(f"--augment-fraction must be in (0, 1], got {args.augment_fraction}")
    if not args.tolerance >= 0.0:
        raise ConfigError(f"--tolerance must be at least 0, got {args.tolerance}")
    if not args.lambda_ent >= 0.0:
        raise ConfigError(f"--lambda-ent must be at least 0, got {args.lambda_ent}")
    ds = _load(args)
    kinds, skipped = mitigate.resolve_kinds(args.transforms, ds.task_kind)
    if not kinds:
        raise ConfigError("no applicable transforms for this task")
    strategy = args.strategy.replace("-", "_")
    finetune = (args.finetune_epochs, args.batch_size, args.finetune_lr, args.seed)
    toyclf.check_train_args(args.epochs, args.batch_size, args.lr, args.seed, args.dim)
    toyclf.check_train_args(*finetune)  # both trainings' values, before any work
    train_ds, val_ds = corpus.split_holdout(ds, args.holdout, args.seed)
    if "pbsmt" in kinds:
        try:  # before any training; the generators train after the baseline
            for label in range(ds.labels.n_classes):
                pbsmt.build_parallel_corpus(train_ds, label)
        except InsufficientDataError as e:
            skipped.append(("pbsmt", f"generators unavailable: {e}"))
            kinds = tuple(k for k in kinds if k != "pbsmt")
    for kind, why in skipped:
        print(f"skipped {kind}: {why}", file=sys.stderr)
    if not kinds:
        raise ConfigError("no applicable transforms for this configuration")
    baseline = toyclf.train(train_ds, args.epochs, args.batch_size, args.lr, args.seed,
                            args.dim)
    baseline_acc = toyclf.accuracy(baseline, val_ds)
    provider = providers.EmbeddedProvider(baseline)
    vocab = list(baseline.vocab[1:])
    generators = {label: pbsmt.train_generator(train_ds, label)
                  for label in range(ds.labels.n_classes)} if "pbsmt" in kinds else {}

    invalid_val = {kind: list(rows.values()) for kind, rows in mitigate.invalid_by_kind(
        val_ds.examples, kinds, ds.task_kind, provider, generators, vocab,
        args.seed).items()}

    def invalid_train():  # called inline, so no unlabeled copy outlives its use
        return mitigate.augment(train_ds, kinds, args.augment_fraction, args.seed,
                                provider, generators, vocab)

    theta = None
    if strategy == "invalid_class":
        params = mitigate.train_invalid_class(
            mitigate.balance_clean(train_ds, invalid_train()), baseline, *finetune)
    else:
        params = baseline if strategy == "threshold" else mitigate.train_entropic(
            baseline, train_ds,
            corpus.Dataset(tuple(invalid_train()), ds.labels, ds.task_kind),
            args.lambda_ent, *finetune)
        params = toyclf.with_temperature(params, toyclf.fit_temperature(params, val_ds))
        eprov = providers.EmbeddedProvider(params)
        preds_clean = eprov.predict_batch(val_ds.examples)
        gold = [ex.gold_label for ex in val_ds.examples]
        preds_invalid = eprov.predict_batch([e for v in invalid_val.values() for e in v])
        scaled_acc = np.count_nonzero(preds_clean.argmax(axis=1) == gold) / len(gold)
        theta = mitigate.threshold_search(preds_clean, gold, preds_invalid,
                                          scaled_acc, args.tolerance)
    report = mitigate.evaluate_mitigation(
        strategy, params, val_ds, invalid_val, theta=theta,
        lambda_ent=args.lambda_ent if strategy == "entropic_threshold" else None,
        baseline_accuracy=100 * baseline_acc)
    _clear_config(args.out)
    toyclf.save_params(params, os.path.join(args.out, "params_mitigated.bin"))
    text = json.dumps(report._asdict(), indent=2, sort_keys=True)
    corpus.write_file(os.path.join(args.out, "report.json"), text)
    rows = [("clean_accuracy", report.clean_accuracy),
            ("invalid_detected", report.invalid_detected)] + [
        (f"detect_{kind}", v) for kind, v in sorted(report.per_transform_detection.items())]
    corpus.write_file(os.path.join(args.out, "report.csv"), "metric,value\n" + "".join(
        f"{name},{v:.2f}\n" for name, v in rows))
    print(text)


def cmd_pbsmt(args):
    if args.pbsmt_command == "train" and args.iterations < 1:
        raise ConfigError(f"--iterations must be at least 1, got {args.iterations}")
    if args.pbsmt_command == "generate" and not args.models:
        raise ConfigError("pbsmt generate needs --models, a directory pbsmt train wrote")
    ds = _load(args)
    if args.pbsmt_command == "train":
        try:
            labels = ([int(args.label)] if args.label is not None
                      else list(range(ds.labels.n_classes)))
        except ValueError:
            raise ConfigError(f"--label must be an integer, got {args.label!r}") from None
        weights = pbsmt.DecoderWeights(
            w_tm=args.w_tm, w_lm=args.w_lm, w_dist=args.w_dist, w_len=args.w_len,
            beam_size=args.beam, distortion_limit=args.distortion_limit)
        generators = {label: pbsmt.train_generator(
                          ds, label, iterations=args.iterations, weights=weights,
                          min_pairs=args.min_pairs) for label in labels}
        _clear_config(args.out)
        for label, gen in generators.items():
            out = os.path.join(args.out, f"label_{label}")
            pbsmt.save_generator(gen, out)
            print(f"trained generator for label {label} -> {out}")
    else:
        generators = pbsmt.load_generators(args.models)
        transformed = mitigate.transform_examples(
            ds.examples, "pbsmt", ds.task_kind, args.seed, generators=generators)
        _clear_config(args.out)
        _save_transformed(transformed, f"pbsmt:{args.seed}:0.5", ds,
                          os.path.join(args.out, "pbsmt.tsv"))


def cmd_report(args):
    try:
        with open(args.input, encoding="utf-8") as f:
            report = metrics.report_from_json(f.read())
    except UnicodeDecodeError:
        raise DataError(f"{args.input}: not UTF-8 text") from None
    except DataError as e:
        raise DataError(f"{args.input}: {e}") from None
    print(report.to_markdown() if args.render == "md" else report.to_csv())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="saladbench")
    parser.add_argument("--config", help="JSON file supplying argument defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="write destructively transformed datasets")
    _add_dataset_args(p)
    _add_transform_args(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("evaluate", help="agreement/confidence report")
    _add_dataset_args(p)
    _add_transform_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", help="train the embedded toy classifier")
    _add_dataset_args(p)
    p.add_argument("--loss", default=toyclf.LOSSES[0], choices=toyclf.LOSSES)
    p.add_argument("--lambda-ls", action=_Finite, default=0.1)
    p.add_argument("--gamma", action=_Finite, default=2.0)
    _add_train_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="fit temperature, report ECE change")
    _add_dataset_args(p)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("mitigate", help="train and evaluate a mitigation strategy")
    _add_dataset_args(p)
    p.add_argument("--strategy", default="invalid-class",
                   choices=["threshold", "entropic-threshold", "invalid-class"])
    p.add_argument("--transforms", default="all")
    p.add_argument("--lambda-ent", action=_Finite, default=0.1,
                   help="weight (at least 0) of the entropy term on invalid rows; "
                        "checked under every strategy, used by entropic-threshold")
    p.add_argument("--augment-fraction", action=_Finite, default=0.5,
                   help="share of training rows in (0, 1] made invalid for the "
                        "fine-tune; checked under every strategy, unused by threshold")
    p.add_argument("--tolerance", action=_Finite, default=0.03)
    p.add_argument("--holdout", action=_Finite, default=0.2)
    _add_train_args(p)
    p.add_argument("--finetune-epochs", type=int, default=15,
                   help="epochs for the mitigation fine-tuning phase")
    p.add_argument("--finetune-lr", action=_Finite, default=1.0,
                   help="learning rate for the mitigation fine-tuning phase")
    p.set_defaults(func=cmd_mitigate)

    p = sub.add_parser("pbsmt", help="train or run the statistical generators")
    p.add_argument("pbsmt_command", choices=["train", "generate"])
    _add_dataset_args(p)
    p.add_argument("--label", default=None)
    p.add_argument("--models", help="generator directory (generate)")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--min-pairs", type=int, default=50)
    p.add_argument("--w-tm", action=_Finite, default=1.0)
    p.add_argument("--w-lm", action=_Finite, default=0.5)
    p.add_argument("--w-dist", action=_Finite, default=-0.3)
    p.add_argument("--w-len", action=_Finite, default=-0.1)
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--distortion-limit", type=int, default=3)
    p.set_defaults(func=cmd_pbsmt)

    p = sub.add_parser("report", help="re-render a report.json")
    p.add_argument("--input", required=True)
    p.add_argument("--render", default="md", choices=["md", "csv"])
    p.set_defaults(func=cmd_report)
    parser.subcommands = sub
    return parser


def _apply_config_file(parser, args, argv: list[str]) -> argparse.Namespace:
    """Installs the --config JSON entries as defaults of the selected
    subcommand and parses argv again, so explicit flags win."""
    with open(args.config, encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"--config {args.config}: bad JSON: {e}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"--config {args.config}: not UTF-8 text") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"--config {args.config}: expected a JSON object, "
                          f"got {type(cfg).__name__}")
    sub = parser.subcommands.choices[args.command]
    actions = {action.dest: action for action in sub._actions}
    entries = {key.replace("-", "_"): (key, value) for key, value in cfg.items()}
    sub.set_defaults(**{attr: _config_value(actions[attr], key, value, args.config)
                        for attr, (key, value) in entries.items() if attr in actions})
    return parser.parse_args(argv)


def _config_value(action, key: str, value, path: str):
    """A non-null --config value parsed as the flag's command-line text would
    be: through its type, then checked against its choices."""
    if value is None:
        return None
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        parsed = action.type(text) if action.type else text
    except (TypeError, ValueError, ConfigError):
        raise ConfigError(f"--config {path}: {key}: invalid {action.type.__name__} "
                          f"value: {text!r}") from None
    if action.choices is not None and parsed not in action.choices:
        raise ConfigError(f"--config {path}: {key}: invalid choice: {parsed!r} "
                          f"(choose from {', '.join(map(repr, action.choices))})")
    return parsed


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config_file(parser, args, argv)
        args.func(args)
        if getattr(args, "out", None):
            _write_config(args)  # last, so it marks a complete run
        return 0
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except ProviderError as e:
        print(f"provider error: {e}", file=sys.stderr)
        return 3
    except (SaladBenchError, OSError) as e:  # ConfigError, or a file not read or written
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

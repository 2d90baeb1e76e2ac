"""Command-line front end.

Commands: transform, evaluate, train, calibrate, mitigate, pbsmt, report.
Every run writes its resolved configuration into the output directory, with
its outputs and after its last check, so it can be reproduced exactly.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 provider/contract error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import corpus, lexical, metrics, mitigate, pbsmt, providers, toyclf
from .errors import ConfigError, ContractError, DataError, ProviderError, SaladBenchError

SHUFFLE_SEEDS = (0, 1, 2, 3, 4)


def _add_dataset_args(p):
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--format", default="tsv", choices=["tsv", "jsonl"])
    p.add_argument("--task", required=True, choices=["single", "pair"])
    p.add_argument("--labels", required=True,
                   help="comma-separated label names, dataset order")
    p.add_argument("--default-label", default=None,
                   help="default label name for copy-based agreement")


def _add_provider_args(p):
    p.add_argument("--model", help="embedded toy model params file")
    p.add_argument("--replay", help="replay predictions JSONL (append ,saliency.jsonl)")
    p.add_argument("--url", help="HTTP provider base URL")


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


def _write_resolved_config(args, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as f:
        json.dump(resolved, f, indent=2, sort_keys=True, default=str)


def _predict(provider, examples, labels: corpus.LabelSet):
    """The provider's probabilities, checked to have one column per label."""
    probs = provider.predict_batch(examples)
    if probs.shape[1] != labels.n_classes:
        raise ContractError(f"provider gives {probs.shape[1]} probabilities "
                            f"per row for {labels.n_classes} labels")
    return probs


def _save_transformed(transformed, ds, path):
    out_ds = corpus.Dataset(tuple(tx.example for tx in transformed), ds.labels,
                            ds.task_kind)
    meta = {tx.example.id: (tx.source_id, tx.transform.tag()) for tx in transformed}
    corpus.save_dataset(out_ds, path, "tsv", transform_meta=meta)
    print(f"wrote {path} ({len(transformed)} rows)")


def cmd_transform(args) -> int:
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
    outputs = [(f"{kind}_{seed}" if kind == "shuffle" else kind,
                mitigate.transform_examples(ds.examples, kind, ds.task_kind, seed,
                                            args.r, saliency, generators, vocab))
               for kind in kinds
               for seed in (SHUFFLE_SEEDS if kind == "shuffle" else (args.seed,))]
    _write_resolved_config(args, args.out)
    for name, transformed in outputs:
        _save_transformed(transformed, ds, os.path.join(args.out, f"{name}.tsv"))
    return 0


def cmd_evaluate(args) -> int:
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
            preds = _predict(provider, [tx.example for tx in transformed], labels)
            if kind in lexical.PAIR_ONLY_KINDS:
                agr = metrics.default_agreement(preds, labels.default_label)
            else:
                # each row is compared with the prediction for its own source
                agr = metrics.agreement(
                    preds_orig[[row_of[tx.source_id] for tx in transformed]], preds)
            per_seed.append(agr)
            confs.append(metrics.mean_confidence(preds))
            n = len(preds)
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
    _write_resolved_config(args, args.out)
    for name, text in (("report.json", report.to_json()),
                       ("report.csv", report.to_csv()),
                       ("report.md", report.to_markdown())):
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as f:
            f.write(text)
    print(report.to_markdown())
    return 0


def cmd_train(args) -> int:
    ds = _load(args)
    loss_cfg = toyclf.LossConfig(args.loss, lambda_ls=args.lambda_ls,
                                 gamma=args.gamma)
    train_cfg = toyclf.TrainConfig(args.epochs, args.batch_size, args.lr,
                                   args.seed, args.dim)
    params = toyclf.train(ds, loss_cfg, train_cfg)
    _write_resolved_config(args, args.out)
    path = os.path.join(args.out, "params.bin")
    toyclf.save_params(params, path, meta={"loss": args.loss, "seed": args.seed,
                                           "epochs": args.epochs, "data": args.data})
    acc = toyclf.accuracy(params, ds)
    print(f"trained {path}; train accuracy {100 * acc:.2f}%")
    return 0


def cmd_calibrate(args) -> int:
    ds = _load(args)
    params = toyclf.load_params(args.model)
    gold = [ex.gold_label for ex in ds.examples]
    pre = metrics.ece(providers.EmbeddedProvider(params).predict_batch(ds.examples), gold)
    t = toyclf.fit_temperature(params, ds)
    scaled = toyclf.with_temperature(params, t)
    post = metrics.ece(providers.EmbeddedProvider(scaled).predict_batch(ds.examples), gold)
    _write_resolved_config(args, args.out)
    path = os.path.join(args.out, "params_scaled.bin")
    toyclf.save_params(scaled, path, meta={"temperature": t, "data": args.data})
    print(f"fitted T = {t:.2f}; ECE {pre:.4f} -> {post:.4f}; wrote {path}")
    return 0


def cmd_mitigate(args) -> int:
    ds = _load(args)
    kinds, skipped = mitigate.resolve_kinds(args.transforms, ds.task_kind)
    if not kinds:
        raise ConfigError("no applicable transforms for this task")
    cfg = mitigate.MitigationConfig(
        strategy=args.strategy.replace("-", "_"), lambda_ent=args.lambda_ent,
        augment_fraction=args.augment_fraction, transforms=kinds,
        accuracy_tolerance=args.tolerance, seed=args.seed)
    train_cfg = toyclf.TrainConfig(args.epochs, args.batch_size, args.lr,
                                   args.seed, args.dim)
    finetune_cfg = toyclf.TrainConfig(args.finetune_epochs, args.batch_size,
                                      args.finetune_lr, args.seed, args.dim)
    train_ds, val_ds = corpus.split_holdout(ds, args.holdout, args.seed)
    baseline = toyclf.train(train_ds, toyclf.LossConfig(), train_cfg)
    baseline_acc = toyclf.accuracy(baseline, val_ds)
    provider = providers.EmbeddedProvider(baseline)
    vocab = list(baseline.vocab[1:])

    generators = {}
    if "pbsmt" in cfg.transforms:
        try:
            for label in range(ds.labels.n_classes):
                generators[label] = pbsmt.train_generator(train_ds, label)
        except SaladBenchError as e:
            skipped.append(("pbsmt", f"generators unavailable: {e}"))
            generators = {}
            cfg = dataclasses.replace(
                cfg, transforms=tuple(k for k in cfg.transforms if k != "pbsmt"))
    for kind, why in skipped:
        print(f"skipped {kind}: {why}", file=sys.stderr)

    saliency = mitigate.score_saliency(provider, val_ds.examples, cfg.transforms,
                                       ds.task_kind)
    invalid_val = {
        kind: [tx.example for tx in mitigate.transform_examples(
            val_ds.examples, kind, ds.task_kind, cfg.seed, saliency=saliency,
            generators=generators, vocab=vocab)]
        for kind in cfg.transforms}

    if cfg.strategy == "invalid_class":
        augmented, flags = mitigate.augment(train_ds, cfg, provider, generators,
                                            vocab)
        balanced = mitigate.balance_clean(augmented, flags)
        params = mitigate.train_invalid_class(balanced, finetune_cfg,
                                              warm=baseline)
        report = mitigate.evaluate_mitigation(
            "invalid_class", params, val_ds, invalid_val,
            baseline_accuracy=100 * baseline_acc)
    else:
        if cfg.strategy == "entropic_threshold":
            augmented, flags = mitigate.augment(train_ds, cfg, provider,
                                                generators, vocab)
            invalid_train = corpus.Dataset(
                tuple(ex for ex, f in zip(augmented.examples, flags) if f),
                ds.labels, ds.task_kind)
            params = mitigate.train_entropic(baseline, train_ds, invalid_train,
                                             cfg.lambda_ent, finetune_cfg)
        else:
            params = baseline
        t = toyclf.fit_temperature(params, val_ds)
        params = toyclf.with_temperature(params, t)
        eprov = providers.EmbeddedProvider(params)
        preds_clean = eprov.predict_batch(val_ds.examples)
        gold = [ex.gold_label for ex in val_ds.examples]
        preds_invalid = eprov.predict_batch([e for v in invalid_val.values() for e in v])
        scaled_acc = np.count_nonzero(preds_clean.argmax(axis=1) == gold) / len(gold)
        theta = mitigate.threshold_search(preds_clean, gold, preds_invalid,
                                          scaled_acc, cfg)
        report = mitigate.evaluate_mitigation(
            cfg.strategy, params, val_ds, invalid_val, theta=theta,
            lambda_ent=cfg.lambda_ent if cfg.strategy == "entropic_threshold" else None,
            baseline_accuracy=100 * baseline_acc)
    _write_resolved_config(args, args.out)
    toyclf.save_params(params, os.path.join(args.out, "params_mitigated.bin"))

    payload = {k: v for k, v in vars(report).items()}
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    with open(os.path.join(args.out, "report.csv"), "w", encoding="utf-8") as f:
        f.write("metric,value\n")
        f.write(f"clean_accuracy,{report.clean_accuracy:.2f}\n")
        f.write(f"invalid_detected,{report.invalid_detected:.2f}\n")
        for kind, val in sorted(report.per_transform_detection.items()):
            f.write(f"detect_{kind},{val:.2f}\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_pbsmt(args) -> int:
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
        _write_resolved_config(args, args.out)
        for label, gen in generators.items():
            out = os.path.join(args.out, f"label_{label}")
            pbsmt.save_generator(gen, out)
            print(f"trained generator for label {label} -> {out}")
    else:
        generators = pbsmt.load_generators(args.models)
        transformed = mitigate.transform_examples(
            ds.examples, "pbsmt", ds.task_kind, args.seed, generators=generators)
        _write_resolved_config(args, args.out)
        _save_transformed(transformed, ds, os.path.join(args.out, "pbsmt.tsv"))
    return 0


def cmd_report(args) -> int:
    with open(args.input, encoding="utf-8") as f:
        report = metrics.report_from_json(f.read())
    print(report.to_markdown() if args.render == "md" else report.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="saladbench")
    parser.add_argument("--config", help="JSON file supplying argument defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="write destructively transformed datasets")
    _add_dataset_args(p)
    _add_provider_args(p)
    p.add_argument("--transforms", default="all")
    p.add_argument("--pbsmt-dir", help="directory of trained pbsmt generators")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("evaluate", help="agreement/confidence report")
    _add_dataset_args(p)
    _add_provider_args(p)
    p.add_argument("--transforms", default="all")
    p.add_argument("--pbsmt-dir")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", help="train the embedded toy classifier")
    _add_dataset_args(p)
    p.add_argument("--loss", default="cross_entropy",
                   choices=["cross_entropy", "label_smoothing", "focal"])
    p.add_argument("--lambda-ls", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=5.0)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="fit temperature, report ECE change")
    _add_dataset_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("mitigate", help="train and evaluate a mitigation strategy")
    _add_dataset_args(p)
    p.add_argument("--strategy", default="invalid-class",
                   choices=["threshold", "entropic-threshold", "invalid-class"])
    p.add_argument("--transforms", default="all")
    p.add_argument("--lambda-ent", type=float, default=0.1)
    p.add_argument("--augment-fraction", type=float, default=0.5)
    p.add_argument("--tolerance", type=float, default=0.03)
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=5.0)
    p.add_argument("--finetune-epochs", type=int, default=15,
                   help="epochs for the mitigation fine-tuning phase")
    p.add_argument("--finetune-lr", type=float, default=1.0,
                   help="learning rate for the mitigation fine-tuning phase")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mitigate)

    p = sub.add_parser("pbsmt", help="train or run the statistical generators")
    p.add_argument("pbsmt_command", choices=["train", "generate"])
    _add_dataset_args(p)
    p.add_argument("--label", default=None)
    p.add_argument("--models", help="generator directory (generate)")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--min-pairs", type=int, default=50)
    p.add_argument("--w-tm", type=float, default=1.0)
    p.add_argument("--w-lm", type=float, default=0.5)
    p.add_argument("--w-dist", type=float, default=-0.3)
    p.add_argument("--w-len", type=float, default=-0.1)
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--distortion-limit", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
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
    defaults = {key.replace("-", "_"): value for key, value in cfg.items()}
    parser.subcommands.choices[args.command].set_defaults(
        **{attr: value for attr, value in defaults.items() if hasattr(args, attr)})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config_file(parser, args, argv)
        return args.func(args)
    except (ConfigError, argparse.ArgumentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except ProviderError as e:
        print(f"provider error: {e}", file=sys.stderr)
        return 3
    except (SaladBenchError, OSError) as e:  # OSError: a missing or unreadable file
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Commands: transform, evaluate, train, calibrate, mitigate, pbsmt train|generate, report.
Each output file is replaced whole (corpus.write_file). A run writes its
resolved configuration, config.json, last, so it marks a complete run.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 provider/contract error.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys

from . import corpus, lexical, metrics, mitigate, pbsmt, providers, toyclf
from .errors import (ConfigError, ContractError, DataError, InsufficientDataError,
                     ProviderError, SaladBenchError)

SHUFFLE_SEEDS = (0, 1, 2, 3, 4)


class _Parser(argparse.ArgumentParser):
    """A usage error (bad value, missing or unknown argument) is a ConfigError.
    Flags match by whole name only; `actions` maps dest to action for --config."""

    def __init__(self, **kwargs):
        self.actions = {}
        super().__init__(allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.actions[action.dest] = action
        return action

    def error(self, message):
        raise ConfigError(message)


def _number(kind, interval: str = "(-inf, inf)"):
    """An argparse type: the text parsed by `kind` (int or float) and refused
    unless it lies in `interval`, written as in mathematics ("(0, 1]"). NaN
    lies in no interval and infinite ends are open, so every value is finite.
    --config values pass through it in _config_value."""
    low, high = map(float, interval[1:-1].split(","))

    def parse(text: str):
        value = kind(text)
        if not ((low < value if interval[0] == "(" else low <= value)
                and (value < high if interval[-1] == ")" else value <= high)):
            raise argparse.ArgumentTypeError(f"must be in {interval}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid float value" message names it
    return parse


def _add_dataset_args(p):
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--format", default="tsv", choices=["tsv", "jsonl"])
    p.add_argument("--task", required=True, choices=["single", "pair"])
    p.add_argument("--labels", required=True,
                   help="comma-separated label names, dataset order")
    p.add_argument("--default-label", default=None,
                   help="default label name for copy-based agreement")
    p.add_argument("--seed", type=_number(int, "[0, inf)"), default=0)
    p.add_argument("--out", required=True)


def _add_transform_args(p):
    """The provider and transform flags of transform and evaluate."""
    p.add_argument("--model", help="embedded toy model params file")
    p.add_argument("--replay", help="replay predictions JSONL (append ,saliency.jsonl)")
    p.add_argument("--url", help="HTTP provider base URL")
    p.add_argument("--transforms", default="all")
    p.add_argument("--pbsmt-dir", help="directory of trained pbsmt generators")
    p.add_argument("--r", type=_number(float, "(0, 1]"), default=0.5)


def _add_train_args(p):
    """The training flags of train and mitigate, and the one place their
    defaults are written."""
    p.add_argument("--epochs", type=_number(int, "[0, inf)"), default=3)
    p.add_argument("--batch-size", type=_number(int, "[1, inf)"), default=16)
    p.add_argument("--lr", type=_number(float, "(0, inf)"), default=5.0)
    p.add_argument("--dim", type=_number(int, "[1, inf)"), default=32)


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


def _refuse_if_none(kinds, skipped):
    """A ConfigError naming each skipped kind and why, when no kind is left."""
    if not kinds:
        raise ConfigError("no applicable transforms ("
                          + "; ".join(f"{kind}: {why}" for kind, why in skipped) + ")")


def _salad_sets(args, provider_required: bool):
    """The dataset, the provider, the skipped (kind, why) pairs and, per usable
    kind, a lazy sequence of (seed, rows), checked before any work. Saliency
    and the replace vocabulary are made when the first set that reads them is."""
    ds = _load(args)
    provider = _provider(args, provider_required)
    generators = pbsmt.load_generators(args.pbsmt_dir) if args.pbsmt_dir else {}
    kinds, skipped = mitigate.resolve_kinds(
        args.transforms, ds.task_kind,
        provider is not None and provider.supports_saliency, bool(generators))
    _refuse_if_none(kinds, skipped)

    saliency = {}  # every side the gradient kinds score, filled when the first of them runs

    def seeded(kind):  # a generator: its body runs when the caller asks for a set
        if kind in lexical.GRADIENT_KINDS and not saliency:
            saliency.update(mitigate.score_saliency(provider, ds.examples, kinds, ds.task_kind,
                                                    args.r))
        vocab = toyclf.build_vocab(ds)[1:] if kind == "replace" else None
        for seed in (SHUFFLE_SEEDS if kind == "shuffle" else (args.seed,)):
            yield seed, mitigate.transform_examples(ds.examples, kind, ds.task_kind, seed,
                                                    saliency, generators, vocab)

    return ds, provider, skipped, {kind: seeded(kind) for kind in kinds}


def cmd_transform(args):
    """Also `pbsmt generate`: --transforms pbsmt from --models, at --r 0.5."""
    ds, _, skipped, sets = _salad_sets(args, provider_required=False)
    for kind, why in skipped:
        print(f"skipped {kind}: {why}", file=sys.stderr)
    outputs = [(kind, seed, rows) for kind, seeded in sets.items() for seed, rows in seeded]
    _clear_config(args.out)
    for kind, seed, rows in outputs:
        name = f"{kind}_{seed}" if kind == "shuffle" else kind
        path, tag = os.path.join(args.out, f"{name}.tsv"), f"{kind}:{seed}:{args.r}"
        corpus.save_dataset(corpus.Dataset(tuple(rows.values()), ds.labels, ds.task_kind), path,
                            transform_meta={ex.id: (src, tag) for src, ex in rows.items()})
        print(f"wrote {path} ({len(rows)} rows)")


def cmd_evaluate(args):
    ds, provider, skipped, sets = _salad_sets(args, provider_required=True)
    preds_orig = _predict(provider, ds.examples, ds.labels)
    row_of = {ex.id: i for i, ex in enumerate(ds.examples)}
    for kind, why in skipped:
        print(f"{kind}: -- ({why})")
    rows = []
    for kind, seeded in sets.items():
        per_seed, confs = [], []
        for _, transformed in seeded:
            if not transformed:
                break
            preds = _predict(provider, list(transformed.values()), ds.labels)
            if kind in lexical.PAIR_ONLY_KINDS:
                agr = metrics.default_agreement(preds, ds.labels.default_label)
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
    report = metrics.build_report(rows, ds.labels.n_classes, ece_value,
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
    scaled = toyclf.calibrated(params, ds)
    post = metrics.ece(providers.EmbeddedProvider(scaled).predict_batch(ds.examples), gold)
    _clear_config(args.out)
    path = os.path.join(args.out, "params_scaled.bin")
    toyclf.save_params(scaled, path, meta={"temperature": scaled.temperature, "data": args.data})
    print(f"fitted T = {scaled.temperature:.2f}; ECE {pre:.4f} -> {post:.4f}; wrote {path}")


def cmd_mitigate(args):
    ds = _load(args)
    kinds, skipped = mitigate.resolve_kinds(args.transforms, ds.task_kind)
    train_ds, val_ds = corpus.split_holdout(ds, args.holdout, args.seed)
    try:  # before any training; the generators train from them after the baseline
        bitexts = {label: pbsmt.build_parallel_corpus(train_ds, label)
                   for label in range(ds.labels.n_classes) if "pbsmt" in kinds}
    except InsufficientDataError as e:
        skipped.append(("pbsmt", f"generators unavailable: {e}"))
        kinds, bitexts = tuple(k for k in kinds if k != "pbsmt"), {}
    _refuse_if_none(kinds, skipped)
    for kind, why in skipped:
        print(f"skipped {kind}: {why}", file=sys.stderr)
    baseline = toyclf.train(train_ds, args.epochs, args.batch_size, args.lr, args.seed,
                            args.dim)
    generators = {label: pbsmt.train_generator(pairs, label)
                  for label, pairs in bitexts.items()}
    del bitexts  # the generators keep their tables; the token pairs are not needed again
    params, report = mitigate.run_strategy(args.strategy, baseline, generators, train_ds,
                                           val_ds, kinds, args.seed, args.finetune_epochs,
                                           args.batch_size, args.finetune_lr,
                                           args.augment_fraction, args.lambda_ent, args.tolerance)
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


def cmd_pbsmt_train(args):
    names = _label_set(args).names
    if args.label is not None and not 0 <= args.label < len(names):
        raise ConfigError(
            f"--label {args.label} names no label of --labels {args.labels!r}; use one of "
            + ", ".join(f"{i} ({name})" for i, name in enumerate(names)))
    ds = _load(args)
    weights = pbsmt.DecoderWeights(
        w_tm=args.w_tm, w_lm=args.w_lm, w_dist=args.w_dist, w_len=args.w_len,
        beam_size=args.beam, distortion_limit=args.distortion_limit)
    bitexts = {label: pbsmt.build_parallel_corpus(ds, label, args.min_pairs)
               for label in ([args.label] if args.label is not None else range(len(names)))}
    generators = {label: pbsmt.train_generator(pairs, label, args.iterations, weights)
                  for label, pairs in bitexts.items()}
    _clear_config(args.out)
    for label, gen in generators.items():
        out = os.path.join(args.out, f"label_{label}")
        pbsmt.save_generator(gen, out)
        print(f"trained generator for label {label} -> {out}")


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
    p.add_argument("--lambda-ls", type=_number(float, "[0, 1)"), default=0.1)
    p.add_argument("--gamma", type=_number(float, "[0, inf)"), default=2.0)
    _add_train_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="fit temperature, report ECE change")
    _add_dataset_args(p)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("mitigate", help="train and evaluate a mitigation strategy")
    _add_dataset_args(p)
    p.add_argument("--strategy", default=mitigate.STRATEGIES[-1], choices=mitigate.STRATEGIES)
    p.add_argument("--transforms", default="all")
    p.add_argument("--lambda-ent", type=_number(float, "[0, inf)"), default=0.1,
                   help="weight of the entropy term on invalid rows; "
                        "checked under every strategy, used by entropic-threshold")
    p.add_argument("--augment-fraction", type=_number(float, "(0, 1]"), default=0.5,
                   help="share of training rows made invalid for the "
                        "fine-tune; checked under every strategy, unused by threshold")
    p.add_argument("--tolerance", type=_number(float, "[0, inf)"), default=0.03)
    p.add_argument("--holdout", type=_number(float, "(0, 1)"), default=0.2)
    _add_train_args(p)
    p.add_argument("--finetune-epochs", type=_number(int, "[0, inf)"), default=15,
                   help="epochs for the mitigation fine-tuning phase")
    p.add_argument("--finetune-lr", type=_number(float, "(0, inf)"), default=1.0,
                   help="learning rate for the mitigation fine-tuning phase")
    p.set_defaults(func=cmd_mitigate)

    pbsmt_sub = sub.add_parser("pbsmt", help="train or run the statistical generators"
                               ).add_subparsers(dest="pbsmt_command", required=True)
    p = pbsmt_sub.add_parser("train", help="train a generator per label (or for --label)")
    _add_dataset_args(p)
    p.add_argument("--label", type=int, default=None, help="index of one of --labels")
    p.add_argument("--iterations", type=_number(int, "[1, inf)"), default=10)
    p.add_argument("--min-pairs", type=_number(int, "[1, inf)"), default=50)
    p.add_argument("--w-tm", type=_number(float), default=1.0)
    p.add_argument("--w-lm", type=_number(float), default=0.5)
    p.add_argument("--w-dist", type=_number(float), default=-0.3)
    p.add_argument("--w-len", type=_number(float), default=-0.1)
    p.add_argument("--beam", type=_number(int, "[1, inf)"), default=10)
    p.add_argument("--distortion-limit", type=_number(int, "[0, inf)"), default=3)
    p.set_defaults(func=cmd_pbsmt_train)

    p = pbsmt_sub.add_parser("generate", help="transform --transforms pbsmt from --models")
    _add_dataset_args(p)
    p.add_argument("--models", required=True, dest="pbsmt_dir", help="pbsmt train's --out")
    p.set_defaults(func=cmd_transform, transforms="pbsmt", r=0.5,
                   model=None, replay=None, url=None)

    p = sub.add_parser("report", help="re-render a report.json")
    p.add_argument("--input", required=True)
    p.add_argument("--render", default="md", choices=["md", "csv"])
    p.set_defaults(func=cmd_report)
    parser.leaves = {**{(name, None): p for name, p in sub.choices.items()},  # for --config
                     **{("pbsmt", name): p for name, p in pbsmt_sub.choices.items()}}
    return parser


def _apply_config_file(parser, args, argv: list[str]) -> argparse.Namespace:
    """Installs the --config JSON entries as defaults of the selected leaf
    parser (pbsmt's train or generate) and parses argv again, so explicit flags win."""
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
    leaf = parser.leaves[args.command, getattr(args, "pbsmt_command", None)]
    entries = {key.replace("-", "_"): (key, value) for key, value in cfg.items()
               if value is not None}   # a null entry leaves the flag at its default
    leaf.set_defaults(**{attr: _config_value(leaf.actions[attr], key, value, args.config)
                         for attr, (key, value) in entries.items() if attr in leaf.actions})
    return parser.parse_args(argv)


def _config_value(action, key: str, value, path: str):
    """A --config value parsed as the flag's command-line text would be:
    through its type, with its range, then checked against its choices."""
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        parsed = action.type(text) if action.type else text
    except argparse.ArgumentTypeError as e:
        raise ConfigError(f"--config {path}: {key}: {e}") from None
    except (TypeError, ValueError):
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


def run() -> int:
    """The process entry of `python -m saladbench.cli` and of the `saladbench`
    console script. Every module is imported by now, so gc.freeze() moves the
    objects alive at start-up (numpy, typing, the standard library and the
    package: about 22,000) to the permanent generation, and no later
    collection scans them, neither during the command nor at exit. No full
    collection runs first: here it finds no garbage, and it would cost one
    more scan of those objects. main() freezes nothing: tests and library
    callers call it many times in one process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())

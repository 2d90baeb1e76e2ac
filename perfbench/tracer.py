#!/usr/bin/env python3
"""Runs one saladbench CLI command with span and count recording around the
public functions of each layer, then writes what it saw as JSON.

    python3 perfbench/tracer.py SPANS_OUT COMMAND_LABEL -- CLI_ARGS...

The program itself is not changed: the wrappers are installed from here by
rebinding module and class attributes before the command runs. Callers that
imported a function by value (``from .lexical import apply_lexical``) hold
their own reference, so every saladbench module attribute that *is* the
original function is rebound to the same wrapper. ``toyclf.tokenize`` is the
one exception: only toyclf's binding is counted, so the figure is the
tokenizer work the classifier does.

Spans are kept in memory as ``[name, start, end, parent_index]`` and written
once at exit.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

MODULES = ("corpus", "lexical", "gradient", "pbsmt", "toyclf", "providers",
           "metrics", "mitigate", "cli")


def _each(key):
    return lambda result: {key: 1}


def _length(key):
    return lambda result: {key: len(result)}


def _rows(result):
    return {"corpus.rows_loaded": len(result),
            "corpus.rows_skipped": result.skipped_rows}


def _entries(result):
    return {"pbsmt.phrase_entries": len(result.entries)}


def _exhausted(result):
    return {"lexical.shuffle_exhausted": int(bool(result[2]))}


# (module, attribute, span name, counts taken from the result)
SPANS = (
    ("corpus", "load_dataset", "corpus.load", _rows),
    ("corpus", "save_dataset", "corpus.save", None),
    ("lexical", "apply_lexical", "lexical.apply", _each("lexical.examples")),
    ("gradient", "apply_gradient", "gradient.apply", _each("gradient.examples")),
    ("pbsmt", "generate_invalid", "pbsmt.generate", None),
    ("pbsmt", "decode", "pbsmt.decode", None),
    ("pbsmt", "train_model1", "pbsmt.model1", None),
    ("pbsmt", "build_phrase_table", "pbsmt.phrase_table", _entries),
    ("pbsmt", "train_lm", "pbsmt.lm_train", None),
    ("toyclf", "train", "toyclf.train", None),
    ("toyclf", "fit_temperature", "toyclf.fit_temperature", None),
    ("providers", "EmbeddedProvider.predict_batch", "providers.predict",
     _length("providers.predict_examples")),
    ("providers", "EmbeddedProvider.saliency_batch", "providers.saliency",
     _length("providers.saliency_examples")),
    ("mitigate", "make_invalid_examples", "mitigate.make_invalid",
     _length("mitigate.invalid_examples")),
    ("mitigate", "augment", "mitigate.augment", None),
    ("mitigate", "train_invalid_class", "mitigate.finetune", None),
    ("mitigate", "train_entropic", "mitigate.finetune", None),
    ("mitigate", "threshold_search", "mitigate.threshold_search", None),
    ("mitigate", "evaluate_mitigation", "mitigate.evaluate", None),
    ("metrics", "agreement", "metrics.compute", _each("metrics.calls")),
    ("metrics", "default_agreement", "metrics.compute", _each("metrics.calls")),
    ("metrics", "mean_confidence", "metrics.compute", _each("metrics.calls")),
    ("metrics", "ece", "metrics.compute", _each("metrics.calls")),
    ("metrics", "build_report", "metrics.compute", _each("metrics.calls")),
)

# Hot functions get a bare call count instead of a span.
# (module, attribute, count key, rebind every alias)
CALL_COUNTERS = (
    ("toyclf", "tokenize", "toyclf.tokenize_calls", False),
    ("toyclf", "forward", "toyclf.forward_calls", True),
    ("pbsmt", "LanguageModel.word_logprob", "pbsmt.lm_lookups", True),
)
RESULT_COUNTERS = (
    ("lexical", "shuffle_with_report", _exhausted),
)
# Bindings made by `from ... import name`; each must end up wrapped, or the
# calls through it would go unseen.
BY_VALUE = (("mitigate", "generate_invalid"), ("mitigate", "apply_lexical"),
            ("mitigate", "apply_gradient"), ("toyclf", "tokenize"))


class Tracer:
    """Holds the spans and counts of one traced command."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.wrappers: set = set()

    def span(self, fn, name, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                counts.update(count(result))
            return result

        return wrapped

    def call_counter(self, fn, key):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def result_counter(self, fn, count):
        counts = self.counts

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts.update(count(result))
            return result

        return wrapped

    def install(self, modules: dict) -> None:
        """Wraps every target. A target the program no longer has is recorded
        in ``missing`` instead of aborting the command."""
        for mod_name, attr, name, count in SPANS:
            self._hook(modules, mod_name, attr, True,
                       lambda fn: self.span(fn, name, count))
        for mod_name, attr, key, everywhere in CALL_COUNTERS:
            self._hook(modules, mod_name, attr, everywhere,
                       lambda fn: self.call_counter(fn, key))
        for mod_name, attr, count in RESULT_COUNTERS:
            self._hook(modules, mod_name, attr, True,
                       lambda fn: self.result_counter(fn, count))
        for mod_name, attr in BY_VALUE:
            if getattr(modules[mod_name], attr, None) not in self.wrappers:
                self.missing.append(f"{mod_name}.{attr} (by value)")

    def _hook(self, modules, mod_name, attr, everywhere, make) -> None:
        owner = modules[mod_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if not callable(fn):
            self.missing.append(f"{mod_name}.{attr}")
            return
        wrapper = make(fn)
        self.wrappers.add(wrapper)
        setattr(owner, leaf, wrapper)
        if everywhere:
            for mod in modules.values():
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, alias, wrapper)

    def dump(self, path, command: str, exit_code) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"command": command, "exit_code": exit_code,
                       "spans": self.spans, "counts": dict(self.counts),
                       "missing": self.missing}, f)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT COMMAND_LABEL -- CLI_ARGS...",
              file=sys.stderr)
        return 2
    spans_out, label, cli_args = argv[0], argv[1], argv[3:]
    modules = {m: importlib.import_module(f"saladbench.{m}") for m in MODULES}
    tracer = Tracer()
    tracer.install(modules)
    main_fn = tracer.span(modules["cli"].main, f"cli.{label}")
    code = None
    try:
        code = main_fn(cli_args)
    finally:
        tracer.dump(spans_out, label, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

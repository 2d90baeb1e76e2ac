"""Data model, word-level tokenization, and dataset I/O.

Everything here is immutable after construction and safe to share across
workers. The tokenizer is deliberately simple: whitespace split, leading and
trailing punctuation detached, lowercased. Transformations operate on these
word tokens; external models tokenize on their own side.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from typing import Optional

from .errors import ArgumentError, DataError

log = logging.getLogger(__name__)

# Punctuation characters detached from word edges by tokenize().
PUNCT_CHARS = ".,!?;:'\"()"


@dataclass(frozen=True)
class TextInput:
    text_a: str
    text_b: Optional[str] = None

    @property
    def is_pair(self) -> bool:
        return self.text_b is not None


@dataclass(frozen=True)
class Example:
    id: str
    input: TextInput
    gold_label: Optional[int] = None


@dataclass(frozen=True)
class LabelSet:
    names: tuple[str, ...]
    default_label: Optional[int] = None

    def __post_init__(self):
        if len(self.names) < 2:
            raise ArgumentError("LabelSet needs at least 2 labels")
        if len(set(self.names)) != len(self.names):
            raise ArgumentError("label names must be distinct")
        if self.default_label is not None and not (0 <= self.default_label < len(self.names)):
            raise ArgumentError("default_label out of range")

    @property
    def n_classes(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown label {name!r}") from None


@dataclass(frozen=True)
class Dataset:
    examples: tuple[Example, ...]
    labels: LabelSet
    task_kind: str  # "single" or "pair"
    skipped_rows: int = 0

    def __post_init__(self):
        if self.task_kind not in ("single", "pair"):
            raise ArgumentError(f"bad task_kind {self.task_kind!r}")

    def __len__(self) -> int:
        return len(self.examples)


def tokenize(text: str) -> tuple[str, ...]:
    """Whitespace split, detach edge punctuation, lowercase. Deterministic."""
    surfaces: list[str] = []
    for chunk in text.split():
        lead: list[str] = []
        trail: list[str] = []
        while chunk and chunk[0] in PUNCT_CHARS:
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk[-1] in PUNCT_CHARS:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        for p in lead:
            surfaces.append(p)
        if chunk:
            surfaces.append(chunk.lower())
        for p in reversed(trail):
            surfaces.append(p)
    return tuple(surfaces)


def detokenize(tokens: tuple[str, ...]) -> str:
    """Join tokens with single spaces ("the past ." style rendering)."""
    return " ".join(tokens)


def _row_to_example(row_id, text_a, text_b, label, labels, task_kind):
    """Returns an Example or None when the row is unusable (skipped)."""
    for name, text in (("text_a", text_a), ("text_b", text_b)):
        if text is not None and not isinstance(text, str):
            raise DataError(f"{name} is a {type(text).__name__}, not a string")
    text_a = (text_a or "").strip()
    text_b = (text_b or "").strip() or None
    if not text_a:
        return None
    if task_kind == "pair" and text_b is None:
        return None
    if task_kind == "single":
        text_b = None
    gold = labels.index_of(label) if label not in (None, "") else None
    return Example(id=row_id, input=TextInput(text_a, text_b), gold_label=gold)


def jsonl_objects(path, error: type = DataError):
    """(line number, object) for each non-blank line of a JSONL file. A line
    that is not a JSON object raises `error` naming path:line."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise error(f"{path}:{lineno}: bad JSON: {e.msg}") from None
            if not isinstance(obj, dict):
                raise error(f"{path}:{lineno}: expected a JSON object, "
                            f"got {type(obj).__name__}")
            yield lineno, obj


def _tsv_rows(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        expected = ["id", "text_a", "text_b", "label"]
        if header[: len(expected)] != expected:
            raise DataError(f"bad TSV header {header!r} in {path}")
        for lineno, line in enumerate(f, start=2):
            if line.strip():
                yield lineno, (line.rstrip("\n").split("\t") + [""] * 4)[:4]


def load_dataset(path, fmt: str, labels: LabelSet, task_kind: str) -> Dataset:
    """Load a TSV or JSONL dataset.

    Rows missing a required text field are skipped (count kept on the
    Dataset and logged); duplicate ids, unknown labels, JSONL lines that
    are not JSON objects and JSONL text fields that are not strings are fatal.
    """
    if fmt == "tsv":
        rows = _tsv_rows(path)
    elif fmt == "jsonl":
        rows = ((lineno, (str(obj.get("id", lineno - 1)), obj.get("text_a"),
                          obj.get("text_b"), obj.get("label")))
                for lineno, obj in jsonl_objects(path))
    else:
        raise ArgumentError(f"unknown format {fmt!r}")
    examples: list[Example] = []
    seen: set[str] = set()
    skipped = 0
    for lineno, (row_id, text_a, text_b, label) in rows:
        try:
            ex = _row_to_example(row_id, text_a, text_b, label, labels, task_kind)
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
        if ex is None:
            skipped += 1
            continue
        if ex.id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {ex.id!r}")
        seen.add(ex.id)
        examples.append(ex)

    if skipped:
        log.warning("skipped %d malformed rows while loading %s", skipped, path)
    return Dataset(tuple(examples), labels, task_kind, skipped_rows=skipped)


def save_dataset(ds: Dataset, path, fmt: str = "tsv",
                 transform_meta: Optional[dict] = None) -> None:
    """Write a dataset; transform_meta maps example id -> (source_id, transform str)."""
    with open(path, "w", encoding="utf-8") as f:
        if fmt == "tsv":
            cols = ["id", "text_a", "text_b", "label"]
            if transform_meta is not None:
                cols += ["source_id", "transform"]
            f.write("\t".join(cols) + "\n")
            for ex in ds.examples:
                row = [
                    ex.id,
                    ex.input.text_a,
                    ex.input.text_b or "",
                    ds.labels.names[ex.gold_label] if ex.gold_label is not None else "",
                ]
                if transform_meta is not None:
                    src, xf = transform_meta.get(ex.id, ("", ""))
                    row += [src, xf]
                f.write("\t".join(row) + "\n")
        elif fmt == "jsonl":
            for ex in ds.examples:
                obj = {"id": ex.id, "text_a": ex.input.text_a}
                if ex.input.text_b is not None:
                    obj["text_b"] = ex.input.text_b
                if ex.gold_label is not None:
                    obj["label"] = ds.labels.names[ex.gold_label]
                if transform_meta is not None and ex.id in transform_meta:
                    obj["source_id"], obj["transform"] = transform_meta[ex.id]
                f.write(json.dumps(obj, ensure_ascii=False) + "\n")
        else:
            raise ArgumentError(f"unknown format {fmt!r}")


def split_holdout(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic disjoint split; holdout gets round(fraction * n) examples."""
    if not 0.0 < fraction < 1.0:
        raise ArgumentError(f"fraction must be in (0,1), got {fraction}")
    if len(ds) == 0:
        raise ArgumentError("cannot split an empty dataset")
    n_holdout = round(fraction * len(ds))
    rng = random.Random(seed)
    indices = list(range(len(ds)))
    rng.shuffle(indices)
    holdout_idx = set(indices[:n_holdout])
    train = tuple(ex for i, ex in enumerate(ds.examples) if i not in holdout_idx)
    holdout = tuple(ex for i, ex in enumerate(ds.examples) if i in holdout_idx)
    return (
        Dataset(train, ds.labels, ds.task_kind),
        Dataset(holdout, ds.labels, ds.task_kind),
    )

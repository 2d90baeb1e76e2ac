"""Data model, word-level tokenization, and dataset I/O.

Records are typing.NamedTuple or __slots__ classes, not dataclasses: building
them at import compiles no class code beyond each NamedTuple's one-line
`__new__`. Every compared field is immutable after construction and safe to
share across workers. A record whose values are checked runs its check on
every construction and every `_replace` (`checked`). A row tokenizes each
side once, on first use, and keeps the tokens (`TextInput.tokens`); every
writer stores the same value. The tokenizer is deliberately simple:
whitespace split, leading and trailing punctuation detached, lowercased.
Transformations operate on these word tokens; external models tokenize on
their own side.
"""

from __future__ import annotations

import json
import logging
import os
import random
import sys
from operator import attrgetter
from typing import NamedTuple, Optional

from .errors import ArgumentError, DataError

log = logging.getLogger(__name__)

# Punctuation characters detached from word edges by tokenize().
PUNCT_CHARS = ".,!?;:'\"()"


def checked(cls):
    """Class decorator for a typing.NamedTuple record whose values `cls._check`
    checks: every construction runs it, and `_make`, so `_replace` and
    copies too, goes through the constructor."""
    build = cls.__new__

    def __new__(cls, *args, **kwargs):
        record = build(cls, *args, **kwargs)
        record._check()
        return record

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, values: cls(*values))
    return cls


class TextInput:
    """One row's text. Each side is tokenized at most once, on first use of
    `tokens`, and its tokens are kept on the row; `with_side` hands a new
    row the tokens its text was built from. No other path takes tokens, so
    none can pair a text with stale tokens. The texts are read-only, and
    equality and hash depend on them only."""
    __slots__ = ("_text_a", "_text_b", "_tokens_a", "_tokens_b")

    def __init__(self, text_a: str, text_b: Optional[str] = None):
        self._text_a, self._text_b = text_a, text_b
        self._tokens_a = self._tokens_b = None   # tokenize() of each side, once known

    text_a = property(attrgetter("_text_a"))
    text_b = property(attrgetter("_text_b"))

    def _replace(self, **texts) -> "TextInput":
        """This row with a new `text_a` and/or `text_b`, tokenized afresh."""
        return TextInput(**{"text_a": self._text_a, "text_b": self._text_b, **texts})

    def __eq__(self, other):
        if not isinstance(other, TextInput):
            return NotImplemented
        return self._text_a == other._text_a and self._text_b == other._text_b

    def __hash__(self):
        return hash((self._text_a, self._text_b))

    def __repr__(self) -> str:
        return f"TextInput(text_a={self._text_a!r}, text_b={self._text_b!r})"

    @property
    def is_pair(self) -> bool:
        return self._text_b is not None

    def tokens(self, side: str) -> Optional[tuple[str, ...]]:
        """tokenize() of text_a (side "a") or text_b (side "b"); None for a
        row without text_b."""
        if side == "a":
            if self._tokens_a is None:
                self._tokens_a = tokenize(self._text_a)
            return self._tokens_a
        if self._tokens_b is None and self._text_b is not None:
            self._tokens_b = tokenize(self._text_b)
        return self._tokens_b

    def with_side(self, side: str, tokens: tuple[str, ...]) -> "TextInput":
        """This row with `side` set to detokenize(tokens), keeping `tokens` as
        that side's tokens and sharing the other side's. Sound because every
        token is one that tokenize() returns unchanged, so that
        tokenize(detokenize(tokens)) == tokens: tokens come from tokenize(),
        from a vocabulary of them, or from a checked generator file."""
        tokens = tuple(tokens)
        if side == "a":
            new = TextInput(detokenize(tokens), self._text_b)
            new._tokens_a, new._tokens_b = tokens, self.tokens("b")
        else:
            new = TextInput(self._text_a, detokenize(tokens))
            new._tokens_a, new._tokens_b = self.tokens("a"), tokens
        return new


class Example(NamedTuple):
    id: str
    input: TextInput
    gold_label: Optional[int] = None


@checked
class LabelSet(NamedTuple):
    names: tuple[str, ...]
    default_label: Optional[int] = None

    def _check(self):
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


@checked
class Dataset(NamedTuple):
    """A tuple of four fields whose len() is its number of examples."""
    examples: tuple[Example, ...]
    labels: LabelSet
    task_kind: str  # "single" or "pair"
    skipped_rows: int = 0

    def _check(self):
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
            # interned: rows keep their tokens, and a word recurs across rows
            surfaces.append(sys.intern(chunk.lower()))
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


def text_lines(path, error: type = DataError):
    """(line number, line) for each line of a UTF-8 text file. A line that
    is not UTF-8 raises `error` naming path:line."""
    # undecodable bytes become lone surrogates, which valid UTF-8 never yields
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{path}:{lineno}: not UTF-8 text") from None
            yield lineno, line


def jsonl_objects(path, error: type = DataError):
    """(line number, object) for each non-blank line of a JSONL file. A line
    that is not UTF-8 or not a JSON object raises `error` naming path:line."""
    for lineno, line in text_lines(path, error):
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
    lines = text_lines(path)
    header = next(lines, (1, ""))[1].rstrip("\n").split("\t")
    expected = ["id", "text_a", "text_b", "label"]
    if header[: len(expected)] != expected:
        raise DataError(f"bad TSV header {header!r} in {path}")
    for lineno, line in lines:
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


def write_file(path, data) -> None:
    """Writes `data` (str, as UTF-8, or bytes) to `path` whole: into a
    temporary file beside it, then `os.replace`. A command that fails or is
    killed mid-write leaves the old file or none, never a partial one; a
    failed write removes its temporary file, a killed one leaves
    `<path>.tmp<pid>`. No fsync: a power loss is out of scope. Creates the
    parent directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"  # matches no output name or glob
    try:
        with open(tmp, "xb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_dataset(ds: Dataset, path, transform_meta: Optional[dict] = None) -> None:
    """Write a dataset as TSV; transform_meta maps example id -> (source_id,
    transform str) and adds those two columns."""
    cols = ["id", "text_a", "text_b", "label"]
    if transform_meta is not None:
        cols += ["source_id", "transform"]
    lines = ["\t".join(cols)]
    for ex in ds.examples:
        row = [ex.id, ex.input.text_a, ex.input.text_b or "",
               ds.labels.names[ex.gold_label] if ex.gold_label is not None else ""]
        if transform_meta is not None:
            row += transform_meta.get(ex.id, ("", ""))
        lines.append("\t".join(row))
    write_file(path, "\n".join(lines) + "\n")


def split_holdout(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic disjoint split; holdout gets round(fraction * n) examples,
    and neither side may be empty."""
    if not 0.0 < fraction < 1.0:
        raise ArgumentError(f"fraction must be in (0,1), got {fraction}")
    n_holdout = round(fraction * len(ds))
    if not 0 < n_holdout < len(ds):
        raise ArgumentError(f"holdout fraction {fraction} of {len(ds)} rows leaves "
                            f"{len(ds) - n_holdout} training and {n_holdout} validation "
                            f"rows; each side needs at least one")
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

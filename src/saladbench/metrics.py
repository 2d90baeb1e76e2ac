"""Response metrics: Agreement, default-label Agreement, Confidence, ECE,
and report assembly (JSON / CSV / Markdown)."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ArgumentError, ConfigError, DataError
from .lexical import GRADIENT_KINDS, LEXICAL_KINDS


def agreement(original: np.ndarray, transformed: np.ndarray) -> float:
    """Percent of rows whose predicted label survives the transformation;
    row i of both (n, C) probability arrays belongs to the same source."""
    if len(original) != len(transformed) or len(original) == 0:
        raise ArgumentError("prediction arrays must be row-aligned and non-empty")
    same = np.count_nonzero(original.argmax(axis=1) == transformed.argmax(axis=1))
    return 100.0 * same / len(original)


def default_agreement(transformed: np.ndarray, default_label: Optional[int]) -> float:
    """Percent predicting the task's default label (copy-based transforms)."""
    if default_label is None:
        raise ConfigError("label set has no default label configured")
    if len(transformed) == 0:
        raise ArgumentError("empty prediction array")
    hits = np.count_nonzero(transformed.argmax(axis=1) == default_label)
    return 100.0 * hits / len(transformed)


def mean_confidence(probs: np.ndarray) -> float:
    """Mean probability of the predicted label, as a percent."""
    if len(probs) == 0:
        raise ArgumentError("empty prediction array")
    # cumsum adds left to right; np.sum adds pairwise, which rounds differently
    return 100.0 * float(np.cumsum(probs.max(axis=1))[-1]) / len(probs)


def ece(probs: np.ndarray, gold_labels: Sequence[int], bins: int = 10) -> float:
    """Expected Calibration Error with equal-width confidence bins over (0,1]."""
    if len(probs) != len(gold_labels) or len(probs) == 0:
        raise ArgumentError("predictions and gold labels must align and be non-empty")
    confidence = probs.max(axis=1)
    bin_of = np.minimum(bins - 1, (confidence * bins).astype(int))
    bin_of -= (confidence == bin_of / bins) & (bin_of > 0)  # bins are (lo, hi]
    hit = probs.argmax(axis=1) == np.asarray(gold_labels)
    bin_total = np.bincount(bin_of, minlength=bins).tolist()
    bin_correct = np.bincount(bin_of[hit], minlength=bins).tolist()
    # bincount adds each bin's confidences in row order, as a loop would
    bin_conf = np.bincount(bin_of, weights=confidence, minlength=bins).tolist()
    total = 0.0
    for count, correct, conf in zip(bin_total, bin_correct, bin_conf):
        if count:
            total += (count / len(probs)) * abs(correct / count - conf / count)
    return total


@dataclass(frozen=True)
class MetricsRow:
    transform: str
    agreement: float
    mean_confidence: float
    n: int
    per_seed: tuple[float, ...] = ()   # shuffle agreement per seed, when applicable

    def __post_init__(self):
        if not (0.0 <= self.agreement <= 100.0 and 0.0 <= self.mean_confidence <= 100.0):
            raise ArgumentError("percentages must lie in [0, 100]")
        if self.n <= 0:
            raise ArgumentError("row needs n > 0")


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple[MetricsRow, ...]
    random_baseline: float
    ece: Optional[float] = None
    family_averages: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "rows": [vars(r) | {"per_seed": list(r.per_seed)} for r in self.rows],
            "random_baseline": self.random_baseline,
            "ece": self.ece,
            "family_averages": self.family_averages,
            "provenance": self.provenance,
        }, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["transform", "agreement", "mean_confidence", "n"])
        for r in self.rows:
            writer.writerow([r.transform, f"{r.agreement:.2f}",
                             f"{r.mean_confidence:.2f}", r.n])
        for fam, avg in sorted(self.family_averages.items()):
            writer.writerow([f"avg_{fam}", f"{avg:.2f}", "", ""])
        writer.writerow(["random", f"{self.random_baseline:.2f}", "", ""])
        return buf.getvalue()

    def to_markdown(self) -> str:
        lines = ["| Transform | Agreement | Confidence | n |",
                 "|---|---|---|---|"]
        for r in self.rows:
            lines.append(f"| {r.transform} | {r.agreement:.2f} "
                         f"| {r.mean_confidence:.2f} | {r.n} |")
        for fam, avg in sorted(self.family_averages.items()):
            lines.append(f"| Avg. {fam.capitalize()} | {avg:.2f} | | |")
        lines.append(f"| Random | {self.random_baseline:.2f} | | |")
        return "\n".join(lines) + "\n"


def build_report(rows: Sequence[MetricsRow], n_classes: int,
                 ece_value: Optional[float] = None,
                 provenance: Optional[dict] = None) -> MetricsReport:
    """Assemble rows with the 100/N random baseline and family averages."""
    if not rows:
        raise ArgumentError("report needs at least one row")
    families = {}
    for fam, kinds in (("lexical", LEXICAL_KINDS), ("gradient", GRADIENT_KINDS)):
        vals = [r.agreement for r in rows if r.transform.split(":")[0] in kinds]
        if vals:
            families[fam] = sum(vals) / len(vals)
    return MetricsReport(tuple(rows), 100.0 / n_classes, ece_value,
                         families, provenance or {})


def report_from_json(text: str) -> MetricsReport:
    """An `evaluate` report.json read back; text that is not one is a
    DataError."""
    try:
        obj = json.loads(text)
        rows = tuple(MetricsRow(r["transform"], r["agreement"], r["mean_confidence"],
                                r["n"], tuple(r.get("per_seed", ())))
                     for r in obj["rows"])
        return MetricsReport(rows, obj["random_baseline"], obj.get("ece"),
                             obj.get("family_averages", {}), obj.get("provenance", {}))
    except json.JSONDecodeError as e:
        raise DataError(f"bad JSON: {e}") from None
    except (KeyError, TypeError, AttributeError) as e:
        raise DataError(f"not an evaluate report: {type(e).__name__} {e}") from None
    except ArgumentError as e:
        raise DataError(str(e)) from None

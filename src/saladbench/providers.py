"""Prediction providers: embedded toy model, replay files, remote HTTP.

All providers share one contract: `predict_batch` returns an (n, C) array
of probabilities, one renormalized row per input in request order
(`checked_probs`), and `saliency_batch(inputs, side)` (when supported)
returns one tuple of finite scores per input, one score per token of
`side` ("a" scores text_a, "b" scores text_b; `checked_scores`, or
`checked_flat_scores` for the embedded model's scores of a whole batch).
"""

from __future__ import annotations

import math
import os
from typing import Optional, Sequence

import numpy as np

from .corpus import Example, jsonl_objects
from .errors import (ArgumentError, CapabilityError, ContractError,
                     MissingPredictionError, TransportError)
from . import toyclf

RENORM_TOL = 1e-3


def checked_probs(ids: Sequence[str], rows) -> np.ndarray:
    """`rows` as one (n, C) array, each row renormalized to sum to 1. A
    ContractError names the first row that is not C >= 2 numbers (one C for
    all); else the first not finite and non-negative with a sum within RENORM_TOL of 1."""
    if len(rows) == 0:
        return np.empty((0, 0))
    try:
        probs = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):  # non-numeric or ragged
        probs = None
    if probs is None or probs.ndim != 2 or probs.shape[1] < 2:
        for example_id, row in zip(ids, rows):  # one of them raises
            try:
                row = np.array(row, dtype=float)
            except (TypeError, ValueError, OverflowError):
                raise ContractError(
                    f"non-numeric probability vector for id {example_id!r}") from None
            if row.ndim != 1 or row.size < 2 or row.shape != np.shape(rows[0]):
                raise ContractError(f"bad probability vector for id {example_id!r}")
    totals = probs.sum(axis=1, keepdims=True)
    bad = (~np.isfinite(probs).all(axis=1) | (probs < 0).any(axis=1)
           | (np.abs(totals[:, 0] - 1.0) > RENORM_TOL))
    if bad.any():
        i = int(bad.argmax())
        raise ContractError(f"probabilities for id {ids[i]!r} are not finite, non-negative "
                            f"and summing to 1: {probs[i].tolist()}")
    return probs / totals


def checked_scores(inputs: Sequence[Example], side: str, rows) -> list[tuple[float, ...]]:
    """`rows` as one tuple of scores per input. A ContractError names the
    first row that is not a sequence of finite numbers, one per token of `side`."""
    if not isinstance(rows, list) or len(rows) != len(inputs):
        raise ContractError(f"saliency for {len(inputs)} inputs is not one row per input")
    for ex, row in zip(inputs, rows):
        tokens = ex.input.tokens(side)
        if tokens is None:
            raise ArgumentError(f"example {ex.id} has no text_{side} to score")
        n = len(tokens)
        if not _is_numbers(row) or len(row) != n:
            raise ContractError(f"saliency for id {ex.id!r}, side {side!r} is not "
                                f"{n} finite numbers, one per token")
    return [tuple(float(s) for s in row) for row in rows]


def checked_flat_scores(inputs: Sequence[Example], side: str, scores: np.ndarray,
                        lengths: np.ndarray) -> list[tuple[float, ...]]:
    """`checked_scores` of rows given as one flat array of scores and the
    number of scores of each row: one finiteness check and one check of the
    counts against the token counts of `side` for the whole batch. A batch
    that fails either goes through `checked_scores`, which names the first
    bad row."""
    rows = toyclf.split_scores(scores, lengths)
    tokens = [ex.input.tokens(side) for ex in inputs]
    if None in tokens or lengths.tolist() != list(map(len, tokens)) \
            or not np.isfinite(scores).all():
        checked_scores(inputs, side, rows)
    return rows


class EmbeddedProvider:
    """Wraps a ToyModelParams; fully deterministic, supports saliency."""

    supports_saliency = True

    def __init__(self, params: toyclf.ToyModelParams):
        self.params = params

    def describe(self) -> dict:
        return {"kind": "embedded", "location": "", "supports_saliency": True}

    def predict_batch(self, inputs: Sequence[Example]) -> np.ndarray:
        return checked_probs([ex.id for ex in inputs],
                             toyclf.probabilities(self.params, inputs))

    def saliency_batch(self, inputs: Sequence[Example], side: str = "a"
                       ) -> list[tuple[float, ...]]:
        return checked_flat_scores(inputs, side,
                                   *toyclf.saliency_scores(self.params, inputs, side))


def _is_numbers(value) -> bool:
    return isinstance(value, (list, tuple)) and all(  # json reads NaN and Infinity as floats
        isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) < math.inf
        for x in value)


def _replay_rows(path, vector: str):
    """The objects of a replay JSONL file; a line that is not a JSON object
    with an `id` and a `vector` field holding a list of numbers, or whose
    `loss_label` is neither absent, null nor an integer, is a ContractError
    naming path:line. A valid `loss_label` is then ignored."""
    for lineno, obj in jsonl_objects(path, ContractError):
        missing = [k for k in ("id", vector) if k not in obj]
        if missing:
            raise ContractError(f"{path}:{lineno}: missing {', '.join(missing)}")
        if not _is_numbers(obj[vector]):
            raise ContractError(f"{path}:{lineno}: {vector} is not a list of numbers")
        label = obj.get("loss_label")
        if label is not None and (not isinstance(label, int) or isinstance(label, bool)):
            raise ContractError(f"{path}:{lineno}: loss_label is not an integer")
        yield obj


class ReplayProvider:
    """Replays predictions (and optionally saliency) from JSONL fixtures.

    A saliency row names the side it scores in a `side` field; a row without
    one scores side "a". Its `loss_label` is optional and unused.
    """

    def __init__(self, predictions_path, saliency_path=None):
        self._preds: dict[str, list[float]] = {
            str(obj["id"]): obj["probs"]
            for obj in _replay_rows(predictions_path, "probs")}
        self._saliency: dict[tuple[str, str], list[float]] = {}
        if saliency_path is not None:
            for obj in _replay_rows(saliency_path, "scores"):
                self._saliency[str(obj["id"]), obj.get("side", "a")] = obj["scores"]
        self.supports_saliency = saliency_path is not None
        self._location = str(predictions_path)

    def describe(self) -> dict:
        return {"kind": "replay", "location": self._location,
                "supports_saliency": self.supports_saliency}

    def predict_batch(self, inputs: Sequence[Example]) -> np.ndarray:
        ids = [ex.id for ex in inputs]
        missing = next((i for i in ids if i not in self._preds), None)
        if missing is not None:
            raise MissingPredictionError(f"no replay prediction for id {missing!r}")
        return checked_probs(ids, [self._preds[i] for i in ids])

    def saliency_batch(self, inputs, side="a") -> list[tuple[float, ...]]:
        if not self.supports_saliency:
            raise CapabilityError("replay provider has no saliency file")
        missing = next((ex.id for ex in inputs if (ex.id, side) not in self._saliency), None)
        if missing is not None:
            raise MissingPredictionError(
                f"no replay saliency for id {missing!r}, side {side!r}")
        return checked_scores(inputs, side, [self._saliency[ex.id, side] for ex in inputs])


class HttpProvider:
    """POSTs batches to /v1/predict on a remote model server."""

    supports_saliency = True

    def __init__(self, base_url: str, timeout_ms: Optional[int] = None):
        self.base_url = base_url.rstrip("/")
        if timeout_ms is None:
            timeout_ms = int(os.environ.get("SALADBENCH_HTTP_TIMEOUT_MS", "30000"))
        self.timeout = timeout_ms / 1000.0

    def describe(self) -> dict:
        return {"kind": "http", "location": self.base_url, "supports_saliency": True}

    def _post(self, inputs: Sequence[Example], want_saliency: bool,
              side: Optional[str] = None) -> dict:
        import http.client  # here, not at the top: only --url uses these
        import json
        import urllib.request

        body = {"inputs": [{"id": ex.id, "text_a": ex.input.text_a,
                            "text_b": ex.input.text_b} for ex in inputs],
                "want_saliency": want_saliency, "side": side}
        request = urllib.request.Request(
            self.base_url + "/v1/predict", data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                status, text = resp.status, resp.read().decode("utf-8", "replace")
        except (OSError, ValueError, http.client.HTTPException) as e:  # HTTPError: 4xx/5xx
            raise TransportError(f"request failed: {e}") from e
        if status != 200:
            raise TransportError(f"HTTP {status}: {text[:200]}")
        try:
            payload = json.loads(text)
        except ValueError:
            raise TransportError(f"malformed JSON body: {text[:200]}") from None
        probs = payload.get("probs") if isinstance(payload, dict) else None
        if not isinstance(probs, list) or len(probs) != len(inputs):
            raise ContractError("response probs missing or misaligned")
        return payload

    def predict_batch(self, inputs: Sequence[Example]) -> np.ndarray:
        payload = self._post(inputs, False)
        return checked_probs([ex.id for ex in inputs], payload["probs"])

    def saliency_batch(self, inputs, side="a") -> list[tuple[float, ...]]:
        return checked_scores(inputs, side, self._post(inputs, True, side).get("saliency"))


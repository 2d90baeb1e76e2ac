"""Prediction providers: contract enforcement, replay fixtures, and the HTTP
provider exercised against a local test server."""

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from saladbench.corpus import Example, TextInput, tokenize
from saladbench.errors import (ArgumentError, CapabilityError, ContractError,
                               MissingPredictionError, TransportError)
from saladbench.providers import (EmbeddedProvider, HttpProvider, ReplayProvider,
                                  checked_probs, checked_scores)
from saladbench import toyclf


# --- probability contract (checked_probs; these cases once covered the
# per-row Prediction.from_probs it replaced) ---

def test_from_probs_happy_path():
    probs = checked_probs(["e1"], [[0.2, 0.7, 0.1]])
    assert probs.shape == (1, 3)
    assert probs.argmax(axis=1).tolist() == [1]
    assert abs(probs.max() - 0.7) < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-12


def test_from_probs_argmax_tie_prefers_lowest_index():
    assert checked_probs(["e"], [[0.5, 0.5]]).argmax(axis=1).tolist() == [0]
    assert checked_probs(["e"], [[0.25, 0.375, 0.375]]).argmax(axis=1).tolist() == [1]


def test_from_probs_renormalizes_small_drift():
    probs = checked_probs(["e"], [[0.6004, 0.4]])  # off by 4e-4, within tolerance
    assert abs(probs.sum() - 1.0) < 1e-12


def test_from_probs_rejects_contract_violations():
    with pytest.raises(ContractError):
        checked_probs(["e"], [[1.2, -0.2]])     # negative entry
    with pytest.raises(ContractError):
        checked_probs(["e"], [[0.7, 0.7]])      # sums to 1.4
    with pytest.raises(ContractError):
        checked_probs(["e"], [[1.0]])           # fewer than 2 classes
    with pytest.raises(ContractError):
        checked_probs(["e"], [[[0.5, 0.5]]])    # wrong rank


@pytest.mark.parametrize("probs", ["high", ["x", 1], None, {"a": 1}])
def test_from_probs_rejects_non_numeric_vectors(probs):
    with pytest.raises(ContractError):
        checked_probs(["e"], [probs])


@pytest.mark.parametrize("rows, bad_id", [
    ([[0.5, 0.5], [float("nan"), 0.5]], "'f'"),
    ([[0.5, 0.5], [0.5, 0.5], [float("inf"), 0.0]], "'g'"),
    ([[0.5, 0.5], [0.2, 0.3, 0.5]], "'f'"),                   # mixed width
    ([[0.2, 0.3, 0.5], [0.5, 0.5]], "'f'"),
    ([[0.5, 0.5], [0.7, 0.7], [1.2, -0.2]], "'f'"),           # first of two
    ([[0.5, 0.5], [1.2, -0.2], [0.7, 0.7]], "'f'"),
    ([[0.5, 0.5], [0.5, "x"], [0.5]], "'f'"),
], ids=["nan", "inf", "wider", "narrower", "sum-first", "negative-first",
        "non-numeric-first"])
def test_checked_probs_names_the_first_row_at_fault(rows, bad_id):
    with pytest.raises(ContractError, match=f"for id {bad_id}"):
        checked_probs(["e", "f", "g"][:len(rows)], rows)


def test_checked_probs_of_no_rows_is_empty(sent_base):
    assert len(checked_probs([], [])) == 0
    assert len(EmbeddedProvider(sent_base).predict_batch([])) == 0


# --- saliency contract (checked_scores) ---

SCORED = [Example("e", TextInput("good film ."), 1),
          Example("f", TextInput("bad film", "so it goes"), 0)]


def test_checked_scores_are_float_tuples():
    assert checked_scores(SCORED, "a", [[1, 0.5, -2], (0.25, 0)]) == [
        (1.0, 0.5, -2.0), (0.25, 0.0)]
    assert checked_scores(SCORED[1:], "b", [[0.1, 0.2, 0.3]]) == [(0.1, 0.2, 0.3)]
    assert checked_scores([], "a", []) == []


@pytest.mark.parametrize("rows, bad_id", [
    ([[1.0, float("nan"), 0.0], [0.5, 0.5]], "'e'"),
    ([[1.0, 2.0, 3.0], [float("inf"), 0.0]], "'f'"),
    ([[1.0, 2.0, 3.0], [0.5]], "'f'"),                        # short
    ([[1.0, 2.0, 3.0, 4.0], [0.5, 0.5]], "'e'"),              # long
    ([[1.0, 2.0, 3.0], ["x", 0.5]], "'f'"),                   # non-numeric
    ([[1.0, 2.0, 3.0], "ab"], "'f'"),
    ([[1.0, 2.0, 3.0], [True, 0.5]], "'f'"),
], ids=["nan", "inf", "short", "long", "non-numeric", "string", "bool"])
def test_checked_scores_names_the_first_row_at_fault(rows, bad_id):
    with pytest.raises(ContractError, match=f"saliency for id {bad_id}, side 'a'"):
        checked_scores(SCORED, "a", rows)


@pytest.mark.parametrize("rows", [None, [[1.0, 2.0, 3.0]], {"e": [1.0]}],
                         ids=["none", "one-for-two", "dict"])
def test_checked_scores_needs_one_row_per_input(rows):
    with pytest.raises(ContractError, match="one row per input"):
        checked_scores(SCORED, "a", rows)


def test_checked_scores_of_a_missing_side_is_a_usage_error():
    with pytest.raises(ArgumentError, match="no text_b"):
        checked_scores(SCORED[:1], "b", [[]])


def test_embedded_saliency_of_no_inputs_is_empty(sent_base):
    assert EmbeddedProvider(sent_base).saliency_batch([]) == []


# --- embedded provider ---

def test_embedded_provider_matches_forward(sent_base, sent_split):
    _, val_ds = sent_split
    provider = EmbeddedProvider(sent_base)
    preds = provider.predict_batch(val_ds.examples[:5])
    assert preds.shape == (5, sent_base.n_classes)
    for ex, p in zip(val_ds.examples[:5], preds):
        probs = toyclf.forward(sent_base, ex)
        assert np.allclose(p, probs, atol=1e-12)
        assert int(p.argmax()) == int(np.argmax(probs))


def test_embedded_provider_is_deterministic(sent_base, sent_split):
    _, val_ds = sent_split
    a = EmbeddedProvider(sent_base).predict_batch(val_ds.examples)
    b = EmbeddedProvider(sent_base).predict_batch(val_ds.examples)
    assert np.array_equal(a, b)


def test_embedded_provider_saliency_alignment(pair_base, pair_split):
    _, val_ds = pair_split
    provider = EmbeddedProvider(pair_base)
    ex = val_ds.examples[0]
    scores = provider.saliency_batch([ex], side="b")[0]
    assert len(scores) == len(tokenize(ex.input.text_b))


def test_embedded_provider_describe(sent_base):
    assert EmbeddedProvider(sent_base).describe() == {
        "kind": "embedded", "location": "", "supports_saliency": True}


# --- replay provider ---

def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                    encoding="utf-8")
    return str(path)


def test_replay_provider_returns_stored_predictions(tmp_path):
    preds = _write_jsonl(tmp_path / "p.jsonl", [
        {"id": "a", "probs": [0.9, 0.1]},
        {"id": "b", "probs": [0.3, 0.7]},
    ])
    provider = ReplayProvider(preds)
    out = provider.predict_batch([Example("b", TextInput("x"), None),
                                  Example("a", TextInput("y"), None)])
    # request order, not file order
    assert np.allclose(out, [[0.3, 0.7], [0.9, 0.1]], atol=1e-12)
    assert out.argmax(axis=1).tolist() == [1, 0]


def test_replay_provider_missing_id(tmp_path):
    preds = _write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "probs": [1.0, 0.0]}])
    provider = ReplayProvider(preds)
    with pytest.raises(MissingPredictionError):
        provider.predict_batch([Example("zzz", TextInput("x"), None)])


def test_replay_provider_saliency_requires_file(tmp_path):
    preds = _write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "probs": [1.0, 0.0]}])
    provider = ReplayProvider(preds)
    assert not provider.supports_saliency
    with pytest.raises(CapabilityError):
        provider.saliency_batch([Example("a", TextInput("x"), None)])

    sal = _write_jsonl(tmp_path / "s.jsonl",
                       [{"id": "a", "scores": [0.5, -0.5], "loss_label": 1}])
    provider = ReplayProvider(preds, sal)
    scores = provider.saliency_batch([Example("a", TextInput("x y"), None)])[0]
    assert scores == (0.5, -0.5)
    with pytest.raises(MissingPredictionError):
        provider.saliency_batch([Example("b", TextInput("x"), None)])


def test_replay_provider_saliency_matches_side(tmp_path):
    preds = _write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "probs": [1.0, 0.0]}])
    sal = _write_jsonl(tmp_path / "s.jsonl", [
        {"id": "a", "scores": [0.5, -0.5], "loss_label": 1},   # no side: "a"
        {"id": "a", "side": "b", "scores": [0.25], "loss_label": 1},
        {"id": "c", "side": "b", "scores": [1.0], "loss_label": 0},
    ])
    provider = ReplayProvider(preds, sal)
    ex = Example("a", TextInput("x y", "z"), None)
    assert provider.saliency_batch([ex], side="a")[0] == (0.5, -0.5)
    assert provider.saliency_batch([ex], side="b")[0] == (0.25,)
    with pytest.raises(MissingPredictionError):
        provider.saliency_batch([Example("c", TextInput("x", "y"), None)], side="a")


# --- HTTP provider ---

class _Handler(BaseHTTPRequestHandler):
    mode = "ok"
    last_body = None

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _Handler.last_body = body
        n = len(body["inputs"])
        if self.path != "/v1/predict" or _Handler.mode == "http500":
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        if _Handler.mode == "garbage":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"not json at all")
            return
        if _Handler.mode == "misaligned":
            payload = {"probs": [[0.5, 0.5]] * (n + 1)}
        elif _Handler.mode == "strings":
            payload = {"probs": [["high", "low"]] * n, "saliency": [["x"]] * n}
        else:
            # one score per token of the requested side; "short" drops one
            payload = {"probs": [[0.25, 0.75]] * n}
            if body.get("want_saliency"):
                short = int(_Handler.mode == "short")
                payload["saliency"] = [
                    [0.1 * (i + 1)] * (len(tokenize(inp[f"text_{body['side']}"])) - short)
                    for i, inp in enumerate(body["inputs"])]
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


@pytest.fixture(autouse=True)
def _reset_handler_mode():
    _Handler.mode = "ok"
    yield
    _Handler.mode = "ok"


def _examples(n=2, text_b=None):
    return [Example(f"e{i}", TextInput(f"text number {i}", text_b), None)
            for i in range(n)]


def test_http_provider_predict(http_server):
    provider = HttpProvider(http_server)
    preds = provider.predict_batch(_examples(3))
    assert preds.shape == (3, 2)
    assert preds.argmax(axis=1).tolist() == [1, 1, 1]
    assert np.allclose(preds.max(axis=1), 0.75, atol=1e-12)


def test_http_provider_saliency(http_server):
    provider = HttpProvider(http_server)
    scores = provider.saliency_batch(_examples(2))
    assert len(scores[0]) == 3
    assert scores[1] == (0.2, 0.2, 0.2)
    assert set(_Handler.last_body) == {"inputs", "want_saliency", "side"}


def test_http_provider_sends_the_saliency_side(http_server):
    provider = HttpProvider(http_server)
    assert provider.saliency_batch(_examples(1, "a b"), side="b") == [(0.1, 0.1)]
    assert _Handler.last_body["side"] == "b" and _Handler.last_body["want_saliency"]
    provider.saliency_batch(_examples(1))
    assert _Handler.last_body["side"] == "a"


def test_http_provider_saliency_misaligned_with_tokens(http_server):
    _Handler.mode = "short"
    provider = HttpProvider(http_server)
    with pytest.raises(ContractError, match="saliency for id 'e0', side 'a'"):
        provider.saliency_batch(_examples(2))


def test_http_provider_server_error(http_server):
    _Handler.mode = "http500"
    with pytest.raises(TransportError, match="500"):
        HttpProvider(http_server).predict_batch(_examples(1))


def test_http_provider_malformed_json(http_server):
    _Handler.mode = "garbage"
    with pytest.raises(TransportError, match="malformed"):
        HttpProvider(http_server).predict_batch(_examples(1))


def test_http_provider_misaligned_probs(http_server):
    _Handler.mode = "misaligned"
    with pytest.raises(ContractError):
        HttpProvider(http_server).predict_batch(_examples(2))


def test_http_provider_non_numeric_response_is_a_contract_error(http_server):
    _Handler.mode = "strings"
    with pytest.raises(ContractError):
        HttpProvider(http_server).predict_batch(_examples(2))
    with pytest.raises(ContractError):
        HttpProvider(http_server).saliency_batch(_examples(2))


def test_http_provider_connection_refused():
    provider = HttpProvider("http://127.0.0.1:1", timeout_ms=500)
    with pytest.raises(TransportError):
        provider.predict_batch(_examples(1))


def test_importing_the_cli_does_not_import_requests():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, saladbench.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"

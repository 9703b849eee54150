from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from demoselect import (
    ApiError,
    CompletionRequest,
    ConfigError,
    EndpointConfig,
    MockOracleConfig,
    TransportError,
    complete,
    mock_complete,
)
from demoselect.structures import ls_size, program_structures

from helpers import random_program


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.server.requests.append(json.loads(self.rfile.read(length)))
        status, body = self.server.script.pop(0)
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _config(server, **kwargs):
    host, port = server.server_address
    return EndpointConfig(
        base_url=f"http://{host}:{port}/v1/completions",
        api_key="test-key",
        model="stub-model",
        **kwargs,
    )


def _ok_body(text):
    return json.dumps({"choices": [{"text": text}]})


def test_complete_returns_stub_text(stub_server):
    stub_server.script.append((200, _ok_body("answer (state (all))")))
    result = complete(
        CompletionRequest(prompt="source: q\ntarget:"), _config(stub_server)
    )
    assert result.text == "answer (state (all))"
    assert result.retries == 0
    sent = stub_server.requests[0]
    assert sent["model"] == "stub-model"
    assert sent["temperature"] == 0.0
    assert sent["stop"] == ["\n", "source:"]


def test_complete_retries_rate_limits_with_backoff(stub_server):
    stub_server.script.extend(
        [(429, "slow down"), (429, "slow down"), (200, _ok_body("done"))]
    )
    sleeps: list[float] = []
    result = complete(
        CompletionRequest(prompt="p"),
        _config(stub_server, backoff_base=0.5),
        sleeper=sleeps.append,
    )
    assert result.text == "done"
    assert result.retries == 2
    assert sleeps == [0.5, 1.0]


def test_complete_stops_at_stop_sequence(stub_server):
    stub_server.script.append((200, _ok_body("first part\nsecond part")))
    result = complete(CompletionRequest(prompt="p"), _config(stub_server))
    assert result.text == "first part"


def test_complete_raises_api_error_on_server_error(stub_server):
    stub_server.script.append((500, "boom"))
    with pytest.raises(ApiError) as err:
        complete(CompletionRequest(prompt="p"), _config(stub_server))
    assert err.value.status == 500


def test_complete_exhausted_rate_limits_raise_api_error(stub_server):
    stub_server.script.extend([(429, "later")] * 3)
    with pytest.raises(ApiError) as err:
        complete(
            CompletionRequest(prompt="p"),
            _config(stub_server, max_retries=2),
            sleeper=lambda _: None,
        )
    assert err.value.status == 429


def test_complete_network_failure_raises_transport_error():
    config = EndpointConfig(
        base_url="http://127.0.0.1:9/v1/completions",
        api_key="k",
        max_retries=1,
        timeout=0.5,
    )
    sleeps = []
    with pytest.raises(TransportError):
        complete(CompletionRequest(prompt="p"), config, sleeper=sleeps.append)
    assert len(sleeps) == 1


def test_complete_requires_base_url(monkeypatch):
    monkeypatch.delenv("DEMOSELECT_BASE_URL", raising=False)
    with pytest.raises(ConfigError):
        complete(CompletionRequest(prompt="p"), EndpointConfig())


def test_negative_temperature_rejected():
    with pytest.raises(ConfigError):
        CompletionRequest(prompt="p", temperature=-0.1)


@pytest.mark.parametrize("max_tokens", [0, -1])
def test_max_tokens_below_one_rejected(max_tokens):
    with pytest.raises(ConfigError):
        CompletionRequest(prompt="p", max_tokens=max_tokens)


@pytest.mark.parametrize(
    "limits",
    [{"max_retries": -1}, {"timeout": 0.0}, {"timeout": -1.0}, {"timeout": float("nan")}],
)
def test_endpoint_limits_rejected(limits):
    with pytest.raises(ConfigError):
        EndpointConfig(base_url="http://localhost:1", **limits)


def test_endpoint_limits_at_bounds_accepted():
    config = EndpointConfig(base_url="http://localhost:1", max_retries=0, timeout=0.5)
    assert (config.max_retries, config.timeout) == (0, 0.5)


# --- mock oracle -------------------------------------------------------------

GOLD = "f (a (b), c (d))"


def test_mock_returns_gold_when_demo_is_gold():
    assert mock_complete([GOLD], GOLD) == GOLD


def test_mock_composes_across_two_partial_demos():
    demos = ["f (a (b), c (x))", "g (c (d))"]
    # Verified cover: the union of the demos' structures contains every
    # gold structure of one or two nodes, while neither demo alone does.
    singles = [set(program_structures(p)) for p in demos]
    union = set().union(*singles)
    needed = {c for c in program_structures(GOLD) if ls_size(c) <= 2}
    assert needed <= union
    assert all(not needed <= s for s in singles)
    assert mock_complete(demos, GOLD) == GOLD


def test_mock_copies_best_overlap_when_cover_fails():
    demos = ["q (r)", "f (a (b), c (x))"]
    assert mock_complete(demos, GOLD) == "f (a (b), c (x))"


def test_mock_tie_prefers_first_demo():
    demos = ["f (a (b))", "f (a (b))"]
    result = mock_complete(demos, GOLD)
    assert result == demos[0]


def test_mock_zero_demos_returns_empty():
    assert mock_complete([], GOLD) == ""


def test_mock_is_monotone_in_demonstrations():
    rng = random.Random(19)
    for _ in range(60):
        gold = random_program(rng, max_nodes=8)
        demos = [random_program(rng, max_nodes=8) for _ in range(3)]
        before = mock_complete(demos, gold) == gold
        extended = demos + [random_program(rng, max_nodes=8)]
        after = mock_complete(extended, gold) == gold
        if before:
            assert after


def test_mock_threshold_one_only_needs_symbols():
    config = MockOracleConfig(compose_threshold_size=1)
    demos = ["f (a, b, c, d)"]  # all gold symbols, none of its edges
    gold_syms = {c for c in program_structures(GOLD) if ls_size(c) == 1}
    demo_syms = {c for c in program_structures(demos[0]) if ls_size(c) == 1}
    assert gold_syms <= demo_syms
    assert mock_complete(demos, GOLD, config) == GOLD
    assert mock_complete(demos, GOLD) == demos[0]

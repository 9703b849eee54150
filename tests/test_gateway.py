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
        # a script entry is (status, body) or (status, body, extra headers)
        status, body, *headers = self.server.script.pop(0)
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
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
        _config(stub_server),
        sleeper=sleeps.append,
    )
    assert result.text == "done"
    assert result.retries == 2
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize(
    "retry_after,delay",
    [
        ("3", 3),
        ("100", 8.0),
        ("9" * 5000, 8.0),
        ("soon", 0.5),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5),
    ],
)
def test_rate_limit_waits_retry_after_seconds(stub_server, retry_after, delay):
    """A delta-seconds Retry-After sets the wait, capped at MAX_BACKOFF; any
    other value keeps the exponential delay."""
    stub_server.script.extend(
        [(429, "slow down", {"Retry-After": retry_after}), (200, _ok_body("done"))]
    )
    sleeps: list[float] = []
    result = complete(
        CompletionRequest(prompt="p"),
        _config(stub_server),
        sleeper=sleeps.append,
    )
    assert (result.text, result.retries, sleeps) == ("done", 1, [delay])


def test_backoff_stops_growing_without_overflow(monkeypatch):
    class RateLimited:
        status_code = 429
        headers: dict = {}

    monkeypatch.setattr("requests.post", lambda *args, **kwargs: RateLimited())
    sleeps: list[float] = []
    config = EndpointConfig(
        base_url="http://127.0.0.1:9/v1", max_retries=2001
    )
    with pytest.raises(ApiError) as err:
        complete(CompletionRequest(prompt="p"), config, sleeper=sleeps.append)
    assert err.value.status == 429
    assert sleeps[:5] == [0.5, 1.0, 2.0, 4.0, 8.0]
    assert len(sleeps) == 2001 and sleeps[2000] == 8.0


@pytest.mark.parametrize(
    "body",
    ["[]", '"x"', '{"choices": null}', '{"choices": [{"text": 5}]}',
     '{"choices": [{"text": null}]}'],
)
def test_complete_rejects_a_reply_of_the_wrong_shape(stub_server, body):
    stub_server.script.append((200, body))
    sleeps: list[float] = []
    with pytest.raises(ApiError, match="malformed response") as err:
        complete(CompletionRequest(prompt="p"), _config(stub_server), sleeper=sleeps.append)
    assert err.value.status == 200
    assert (len(stub_server.requests), sleeps) == (1, [])


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


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_temperature_rejected(temperature):
    with pytest.raises(ConfigError, match="finite"):
        CompletionRequest(prompt="p", temperature=temperature)


@pytest.mark.parametrize(
    "base_url",
    ["localhost:8000/v1/completions", "ftp://x/y", "http://", "http://h:port/v1", "http://[::1"],
)
@pytest.mark.parametrize("from_env", [False, True])
def test_malformed_base_url_rejected_before_any_request(monkeypatch, base_url, from_env):
    def never(*args, **kwargs):
        raise AssertionError("a malformed base URL must not be requested or retried")

    monkeypatch.setattr("requests.post", never)
    monkeypatch.setenv("DEMOSELECT_BASE_URL", base_url if from_env else "")
    with pytest.raises(ConfigError, match="http"):
        config = EndpointConfig(base_url="" if from_env else base_url)
        complete(CompletionRequest(prompt="p"), config, sleeper=never)


@pytest.mark.parametrize("max_tokens", [0, -1])
def test_max_tokens_below_one_rejected(max_tokens):
    with pytest.raises(ConfigError):
        CompletionRequest(prompt="p", max_tokens=max_tokens)


@pytest.mark.parametrize(
    "limits",
    [{"max_retries": -1}, {"timeout": 0.0}, {"timeout": -1.0}, {"timeout": float("nan")},
     {"timeout": float("inf")}, {"timeout": 1e10}],
)
def test_endpoint_limits_rejected(limits):
    with pytest.raises(ConfigError):
        EndpointConfig(base_url="http://localhost:1", **limits)


def test_endpoint_limits_at_bounds_accepted():
    config = EndpointConfig(base_url="http://localhost:1", max_retries=0, timeout=0.5)
    assert (config.max_retries, config.timeout) == (0, 0.5)


def test_longest_timeout_completes(stub_server):
    """threading.TIMEOUT_MAX, the largest timeout accepted, still reaches the
    endpoint; one more second would overflow the socket's clock."""
    stub_server.script.append((200, _ok_body("ok")))
    config = _config(stub_server, timeout=threading.TIMEOUT_MAX)
    assert complete(CompletionRequest(prompt="p"), config).text == "ok"


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

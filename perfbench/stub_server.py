"""Local completion endpoint for the ``endpoint`` workload.

Run as its own process::

    python3 perfbench/stub_server.py --reject-file REJECTS

It listens on a free 127.0.0.1 port, prints ``port <n>`` on its first
stdout line and serves until terminated.

* ``POST /v1/completions`` answers ``{"choices": [{"text": ...}]}`` with a
  deterministic reply (see :func:`reply_parts`). The reply always carries a
  stop sequence, so the client must trim it.
* A prompt whose SHA-256 is listed in the reject file gets 429 on every
  other attempt, starting with the first. A client that retries once per
  429 therefore sees exactly one 429 per listed prompt per pass.
* ``GET /stats`` answers the counters: accepted TCP connections (the stats
  requests' own connections excluded), completion requests, 429s and 200s.

HTTP/1.1 keep-alive is supported, so a client that reuses connections
shows fewer connections per request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# Text after the answer; it starts with the client's default stop sequence.
REPLY_TAIL = "\nsource: the model keeps writing past the answer"


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def reply_parts(prompt: str) -> tuple[str, str]:
    """(answer, tail) of the stub's reply to ``prompt``.

    The answer is the last demonstration's target program (a copy of the
    best-scoring demonstration), or ``none ()`` when the prompt has none.
    The tail begins with a newline, which the client's stop list cuts.
    """
    targets = [
        line[len("target: "):]
        for line in prompt.split("\n")
        if line.startswith("target: ")
    ]
    answer = targets[-1] if targets else "none ()"
    return " " + answer, REPLY_TAIL


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, rejects: set[str]):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.rejects = rejects
        self.lock = threading.Lock()
        self.last_was_429: dict[str, bool] = {}
        self.counts = {
            "connections": 0,
            "stats_requests": 0,
            "requests": 0,
            "rejected": 0,
            "answered": 0,
        }

    def get_request(self):
        request = super().get_request()
        with self.lock:
            self.counts["connections"] += 1
        return request


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - keep stderr quiet
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 - http.server naming
        if self.path != "/stats":
            self._send_json(404, {"error": "not found"})
            return
        server = self.server
        with server.lock:
            server.counts["stats_requests"] += 1
            counts = dict(server.counts)
        counts["connections"] -= counts.pop("stats_requests")
        self._send_json(200, counts)

    def do_POST(self):  # noqa: N802 - http.server naming
        length = int(self.headers.get("Content-Length", "0"))
        try:
            payload = json.loads(self.rfile.read(length))
            prompt = payload["prompt"]
        except (ValueError, KeyError, TypeError):
            self._send_json(400, {"error": "malformed request"})
            return
        server = self.server
        digest = prompt_digest(prompt)
        with server.lock:
            server.counts["requests"] += 1
            reject = digest in server.rejects and not server.last_was_429.get(digest)
            server.last_was_429[digest] = reject
            server.counts["rejected" if reject else "answered"] += 1
        if reject:
            self._send_json(429, {"error": "rate limited"})
            return
        answer, tail = reply_parts(prompt)
        self._send_json(200, {"choices": [{"text": answer + tail}]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reject-file", required=True)
    args = parser.parse_args(argv)
    with open(args.reject_file, encoding="utf-8") as handle:
        rejects = {line.strip() for line in handle if line.strip()}
    server = StubServer(rejects)
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

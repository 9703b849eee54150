"""Completion endpoint client and a deterministic mock for offline runs.

The wire protocol is a JSON-over-HTTP completion endpoint taking
``{model, prompt, max_tokens, temperature, stop}`` and answering
``{"choices": [{"text": ...}]}``. Credentials and the base URL come from
the environment unless set explicitly; the base URL must be http(s).
Only :func:`complete` imports ``requests``, so a command that sends no
request (any but ``infer`` or ``run`` without ``--mock``) never loads an
HTTP stack.

The mock decides on structures alone, as codes (:func:`mock_from_codes`,
see :class:`~demoselect.structures.CodedStructures`): the pipeline passes
each demonstration's row of the index's structure codes and no program is
parsed or demonstration example built; the one demonstration program it
returns is the only one it reads. :func:`mock_from_structures` (over
structure sets) and :func:`mock_complete` (over program text) code their
sets over the names they hold and apply the same rule.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import AbstractSet, Callable, Sequence
from urllib.parse import urlsplit

import numpy as np

from .errors import ApiError, ConfigError, ParseError, TransportError
from .programs import DEFAULT_DIALECT, DialectConfig
from .structures import CodedStructures, coded_sets, program_structures

ENV_API_KEY = "DEMOSELECT_API_KEY"
ENV_BASE_URL = "DEMOSELECT_BASE_URL"

DEFAULT_STOP = ("\n", "source:")
# seconds to wait after failed attempt n: BACKOFF_BASE * 2**n, at most MAX_BACKOFF
BACKOFF_BASE = 0.5
MAX_BACKOFF = 8.0


@dataclass
class CompletionRequest:
    prompt: str
    max_tokens: int = 256
    temperature: float = 0.0
    stop: tuple[str, ...] = DEFAULT_STOP

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ConfigError("max tokens must be >= 1")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if "" in self.stop:
            raise ConfigError("a stop string must not be empty")


@dataclass
class EndpointConfig:
    base_url: str = ""
    api_key: str = ""
    model: str = ""
    timeout: float = 30.0
    max_retries: int = 5

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError("max retries must be >= 0")
        # a longer socket timeout overflows the platform's clock at the first request
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(
                f"timeout must be > 0 and at most {threading.TIMEOUT_MAX} seconds,"
                f" got {self.timeout}"
            )
        if not self.base_url:
            self.base_url = os.environ.get(ENV_BASE_URL, "")
        if not self.api_key:
            self.api_key = os.environ.get(ENV_API_KEY, "")
        if self.base_url and not _is_http_url(self.base_url):
            raise ConfigError(
                f"base URL {self.base_url!r} must be an http(s) URL with a host"
            )


def _is_http_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
        parts.port  # raises on a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


@dataclass
class CompletionResult:
    text: str
    retries: int = 0


def _apply_stop(text: str, stops: Sequence[str]) -> str:
    cut = len(text)
    for stop in stops:
        idx = text.find(stop)
        if idx >= 0:
            cut = min(cut, idx)
    return text[:cut]


def _backoff(attempt: int, retry_after: str | None) -> float:
    """Seconds to wait after failed attempt ``attempt``: a delta-seconds
    ``Retry-After`` when the reply had one, else ``BACKOFF_BASE * 2**attempt``;
    never more than ``MAX_BACKOFF``. The exponent stops at 1023, the largest
    a float holds, so no attempt count overflows. The header's digits are read
    as a float, which has no digit limit (an int of over 4300 digits has)."""
    if retry_after is not None and re.fullmatch(r"[0-9]+", retry_after.strip()):
        return min(float(retry_after), MAX_BACKOFF)
    return min(BACKOFF_BASE * 2 ** min(attempt, 1023), MAX_BACKOFF)


def complete(
    request: CompletionRequest,
    config: EndpointConfig,
    sleeper: Callable[[float], None] = time.sleep,
) -> CompletionResult:
    """Send one completion request, retrying rate limits and network errors
    with exponential backoff (or a 429's ``Retry-After``)."""
    import requests  # here, so that only a process sending a request loads it

    if not config.base_url:
        raise ConfigError("no endpoint base URL configured")
    payload = {
        "prompt": request.prompt,
        "max_tokens": request.max_tokens,
        "temperature": request.temperature,
        "stop": list(request.stop),
    }
    if config.model:
        payload["model"] = config.model
    headers = {}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"

    last_network_error: Exception | None = None
    rate_limited = False
    for attempt in range(config.max_retries + 1):
        retry_after = None
        try:
            response = requests.post(
                config.base_url, json=payload, headers=headers, timeout=config.timeout
            )
        except requests.RequestException as exc:
            last_network_error = exc
        else:
            last_network_error = None
            if response.status_code == 429:
                rate_limited = True
                retry_after = response.headers.get("Retry-After")
            elif response.status_code >= 300:
                raise ApiError(response.status_code, response.text)
            else:
                try:
                    text = response.json()["choices"][0]["text"]
                    if not isinstance(text, str):
                        raise TypeError(f"text is {text!r}, not a string")
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    raise ApiError(
                        response.status_code, f"malformed response: {exc}"
                    ) from exc
                return CompletionResult(
                    text=_apply_stop(text, request.stop), retries=attempt
                )
        if attempt < config.max_retries:
            sleeper(_backoff(attempt, retry_after))
    if last_network_error is not None:
        raise TransportError(
            f"request failed after {config.max_retries} retries: {last_network_error}"
        )
    if rate_limited:
        raise ApiError(429, "rate limited after retries")
    raise TransportError("request failed after retries")


# --- deterministic mock ----------------------------------------------------


@dataclass
class MockOracleConfig:
    """Knobs for the offline stand-in model.

    The mock "composes" successfully when every small structure of the gold
    program (up to ``compose_threshold_size`` nodes) appears somewhere in the
    demonstrations; otherwise it copies the most overlapping demonstration.
    """

    compose_threshold_size: int = 2

    def __post_init__(self):
        if self.compose_threshold_size < 1:
            raise ConfigError("compose_threshold_size must be >= 1")


def mock_from_codes(
    demo_rows: Sequence[np.ndarray],
    gold: CodedStructures,
    demo_program: Callable[[int], str],
    gold_program: str,
    config: MockOracleConfig | None = None,
) -> str:
    """The mock's answer from structure codes: the gold program when the
    demonstrations' rows of codes jointly hold every gold structure of at
    most ``compose_threshold_size`` nodes, else ``demo_program(i)``, the
    program of the demonstration ``i`` holding the most gold structures
    (first in prompt order on ties); "" without demonstrations. Only the
    program it returns is read."""
    config = config or MockOracleConfig()
    if not len(demo_rows):
        return ""
    held = gold.union(demo_rows)
    if held[gold.codes[gold.sizes <= config.compose_threshold_size]].all():
        return gold_program
    in_gold = np.zeros(gold.width, bool)
    in_gold[gold.codes] = True
    overlaps = [int(np.count_nonzero(in_gold[row])) for row in demo_rows]
    return demo_program(overlaps.index(max(overlaps)))


def mock_from_structures(
    demo_structures: Sequence[AbstractSet[str]],
    gold_structures: AbstractSet[str],
    demo_programs: Sequence[str],
    gold_program: str,
    config: MockOracleConfig | None = None,
) -> str:
    """:func:`mock_from_codes` over structure sets (sets or dict key views),
    coded over the names they hold."""
    _, rows, gold = coded_sets(demo_structures, gold_structures)
    return mock_from_codes(rows, gold, demo_programs.__getitem__, gold_program, config)


def _ls_canonicals(program: str, dialect: DialectConfig) -> set[str]:
    try:
        return set(program_structures(program, dialect))
    except ParseError:
        return set()


def mock_complete(
    demo_programs: Sequence[str],
    gold_program: str,
    config: MockOracleConfig | None = None,
    dialect: DialectConfig = DEFAULT_DIALECT,
) -> str:
    """:func:`mock_from_structures` over program text; a program that does
    not parse has no structures."""
    return mock_from_structures(
        [_ls_canonicals(p, dialect) for p in demo_programs],
        _ls_canonicals(gold_program, dialect),
        demo_programs,
        gold_program,
        config,
    )

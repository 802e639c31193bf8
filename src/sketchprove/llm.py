"""Completion-endpoint client with a record/replay cache.

Any endpoint speaking the common completion shape (POST {prompt, max_tokens,
temperature, top_p, n, stop} -> {choices: [{text}]}) can back the pipeline.
Every completion is cached under a content key of (endpoint, prompt, config,
sample index), so a recorded run can be replayed offline byte-for-byte.

A request is submitted and later collected: `submit` starts it on a pool of
`max_in_flight` threads (replay starts nothing and answers in `collect`), and
`collect` waits for its response and, in record mode, writes it to the cache
on the collecting thread. A caller can so keep several requests in flight
while the cache is still written in the order it collects them.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

CACHE_MODE_ENV = "DSP_CACHE_MODE"

logger = logging.getLogger(__name__)


class CacheMode(str, Enum):
    LIVE = "live"
    RECORD = "record"
    REPLAY = "replay"


def cache_mode_from_env(default: CacheMode = CacheMode.REPLAY) -> CacheMode:
    raw = os.environ.get(CACHE_MODE_ENV)
    if raw is None:
        return default
    try:
        return CacheMode(raw.lower())
    except ValueError:
        raise ValueError(
            f"{CACHE_MODE_ENV} must be one of live/record/replay, got {raw!r}"
        ) from None


@dataclass
class EndpointError(Exception):
    status: int
    body: str

    def __str__(self) -> str:
        return f"endpoint returned {self.status}: {self.body[:200]}"


@dataclass
class CacheMiss(Exception):
    key: str

    def __str__(self) -> str:
        return f"no cached completion under key {self.key}"


@dataclass
class Timeout(Exception):
    seconds: float

    def __str__(self) -> str:
        return f"endpoint did not answer within {self.seconds:.1f}s"


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float
    top_p: float = 1.0
    max_tokens: int = 1024
    n: int = 1
    stop_sequences: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_tokens <= 0 or self.n <= 0:
            raise ValueError("max_tokens and n must be positive")
        if self.temperature == 0 and self.n != 1:
            # n identical greedy samples would silently burn budget
            raise ValueError("greedy decoding requires n = 1")


def draft_preset(n: int = 1, max_tokens: int = 1024) -> SamplingConfig:
    """Nucleus sampling settings for informal proof drafts."""
    return SamplingConfig(temperature=0.6, top_p=0.95, max_tokens=max_tokens, n=n)


def sketch_preset(stop: Sequence[str] = ()) -> SamplingConfig:
    """Greedy decoding settings for formal sketch generation."""
    return SamplingConfig(
        temperature=0.0, top_p=1.0, max_tokens=2048, n=1, stop_sequences=tuple(stop)
    )


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    config: SamplingConfig
    endpoint_id: str = "default"


@dataclass(frozen=True)
class CompletionResponse:
    completions: tuple[str, ...]
    latency_ms: int


def cache_key(request: CompletionRequest, sample_index: int) -> str:
    payload = {
        "endpoint_id": request.endpoint_id,
        "prompt": request.prompt,
        "temperature": request.config.temperature,
        "top_p": request.config.top_p,
        "max_tokens": request.config.max_tokens,
        "n": request.config.n,
        "stop": list(request.config.stop_sequences),
        "sample_index": sample_index,
    }
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CompletionCache:
    """Append-only JSONL store of (key, text) records with an in-memory
    index. Reads are lock-free; appends are serialized, one write per
    record. A final line that a crash cut short (no newline, not JSON) is
    ignored with a warning and cut off by the next append; a bad line
    anywhere else fails the load. A whole final record without its newline
    gets one before the next append."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()
        self._torn_bytes = 0  # length of the torn final line, if any
        self._open_line = False  # the file ends in a whole record without a newline
        if self.path.exists():
            with self.path.open("rb") as handle:
                for line in handle:
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        if line.endswith(b"\n"):
                            raise
                        logger.warning(
                            "%s: ignoring a torn final line of %d bytes", self.path, len(line)
                        )
                        self._torn_bytes = len(line)
                        break
                    self._entries[record["key"]] = record["text"]
                    self._open_line = not line.endswith(b"\n")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> str | None:
        return self._entries.get(key)

    def put(self, key: str, text: str) -> None:
        line = json.dumps({"key": key, "text": text}, ensure_ascii=True) + "\n"
        with self._lock:
            if self._entries.get(key) == text:
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("ab") as handle:
                if self._torn_bytes:
                    handle.truncate(handle.seek(0, os.SEEK_END) - self._torn_bytes)
                    self._torn_bytes = 0
                if self._open_line:
                    line = "\n" + line
                    self._open_line = False
                handle.write(line.encode("ascii"))
            self._entries[key] = text


Transport = Callable[[str, dict, dict, float], tuple[int, dict]]


def _requests_transport(url: str, headers: dict, payload: dict, timeout_s: float):
    import requests

    try:
        response = requests.post(url, headers=headers, json=payload, timeout=timeout_s)
    except requests.Timeout:
        raise Timeout(timeout_s) from None
    except requests.RequestException as exc:
        raise ConnectionError(str(exc)) from None
    try:
        body = response.json()
    except ValueError:
        body = {"raw": response.text}
    return response.status_code, body


_RETRYABLE_STATUSES = {429, 500, 502, 503, 504}


@dataclass
class CompletionClient:
    """Thread-safe client. Endpoint requests run on a pool of
    `max_in_flight` threads, so at most that many hit the endpoint at once,
    and transient failures retry with exponential backoff. `close` stops
    the pool."""

    endpoint_url: str | None = None
    endpoint_id: str = "default"
    auth_env: str | None = None
    mode: CacheMode = CacheMode.REPLAY
    cache: CompletionCache | None = None
    max_in_flight: int = 4
    retries: int = 3
    backoff_s: float = 0.1
    timeout_s: float = 60.0
    transport: Transport = field(default=_requests_transport, repr=False)

    def __post_init__(self) -> None:
        if self.mode is not CacheMode.LIVE and self.cache is None:
            raise ValueError(f"{self.mode.value} mode needs a cache")
        if self.mode is not CacheMode.REPLAY and not self.endpoint_url:
            raise ValueError(f"{self.mode.value} mode needs an endpoint URL")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        # threads start on the first submit, so a replay client has none
        self._pool = ThreadPoolExecutor(self.max_in_flight, thread_name_prefix="completion")

    @property
    def fetch_ahead(self) -> int:
        """How many requests a caller should keep submitted ahead of the one
        it is consuming: `max_in_flight` when they go to the endpoint, none
        in replay, which answers inline."""
        return 0 if self.mode is CacheMode.REPLAY else self.max_in_flight

    def submit(self, request: CompletionRequest) -> Future[CompletionResponse] | None:
        """Start a request on the pool and return its future, for `collect`.
        Replay has nothing to start: it returns None, and `collect` looks
        the answer up, so a replayed request costs no future."""
        if self.mode is CacheMode.REPLAY:
            return None
        return self._pool.submit(self._call_endpoint, request)

    def collect(
        self, request: CompletionRequest, future: Future[CompletionResponse] | None
    ) -> CompletionResponse:
        """The response to a submitted request, raising its error; in record
        mode it is added to the cache."""
        if future is None:
            return self._replay(request)
        response = future.result()
        if self.mode is CacheMode.RECORD:
            assert self.cache is not None
            for i, text in enumerate(response.completions):
                self.cache.put(cache_key(request, i), text)
        return response

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        return self.collect(request, self.submit(request))

    def close(self) -> None:
        """Drop the requests not yet started and wait for the running ones;
        the pool's threads are gone when it returns."""
        self._pool.shutdown(cancel_futures=True)

    def _replay(self, request: CompletionRequest) -> CompletionResponse:
        assert self.cache is not None
        completions = []
        for i in range(request.config.n):
            key = cache_key(request, i)
            text = self.cache.get(key)
            if text is None:
                raise CacheMiss(key)
            completions.append(text)
        return CompletionResponse(completions=tuple(completions), latency_ms=0)

    def _call_endpoint(self, request: CompletionRequest) -> CompletionResponse:
        payload = {
            "prompt": request.prompt,
            "max_tokens": request.config.max_tokens,
            "temperature": request.config.temperature,
            "top_p": request.config.top_p,
            "n": request.config.n,
            "stop": list(request.config.stop_sequences),
        }
        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            token = os.environ.get(self.auth_env)
            if token:
                headers["Authorization"] = f"Bearer {token}"

        assert self.endpoint_url is not None
        last_error: Exception | None = None
        started = time.monotonic()  # a pool thread: the request waited its turn already
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(min(self.backoff_s * 2 ** (attempt - 1), 10.0))
            try:
                status, body = self.transport(self.endpoint_url, headers, payload, self.timeout_s)
            except Timeout as exc:
                last_error = exc
                continue
            except ConnectionError as exc:
                last_error = EndpointError(0, str(exc))
                continue
            if status in _RETRYABLE_STATUSES:
                last_error = EndpointError(status, json.dumps(body))
                continue
            if status != 200:
                raise EndpointError(status, json.dumps(body))
            choices = body.get("choices", [])
            completions = tuple(c.get("text", "") for c in choices)[: request.config.n]
            return CompletionResponse(
                completions=completions, latency_ms=int((time.monotonic() - started) * 1000)
            )
        assert last_error is not None
        raise last_error


def dedup(completions: Sequence[str]) -> list[str]:
    """Drop near-duplicates (equal after trimming and collapsing whitespace
    runs), keeping first occurrences in order."""
    seen: set[str] = set()
    out: list[str] = []
    for text in completions:
        normal = " ".join(text.split())
        if normal in seen:
            continue
        seen.add(normal)
        out.append(text)
    return out

"""Completion-endpoint client with a record/replay cache.

Any endpoint speaking the common completion shape (POST {prompt, max_tokens,
temperature, top_p, n, stop} -> {choices: [{text}]}) can back the pipeline.
Every completion is cached under a content key of (endpoint, prompt, config,
sample index), so a recorded run can be replayed offline byte-for-byte.
Every cache file depends on the key's definition: the hex SHA-256 of
`json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))`,
where payload is the endpoint body plus `endpoint_id` and `sample_index`.
Its text around the prompt and the sample index is made once per config,
and the prompt is escaped and hashed once per request, for all n samples.

A request is submitted as a builder and later collected: `submit` queues it
on a pool of `max_in_flight` endpoint slots, and the slot that takes it
builds the request, sends it and takes its cache keys, so a built prompt
never waits for a slot and is dropped once answered. `collect` waits for
the response and, in record mode, writes it to the cache on the collecting
thread. Replay starts nothing: `collect` builds the request and looks it up
inline. A caller can so keep several requests in flight while the cache is
still written in the order it collects them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Sequence

from .errors import ConfigError, InfraError, decode_json, read_text

logger = logging.getLogger(__name__)


class CacheMode(str, Enum):
    LIVE = "live"
    RECORD = "record"
    REPLAY = "replay"


class CompletionError(InfraError):
    """A request got no completion: the endpoint failed or was too slow,
    or replay found no cached answer."""


@dataclass
class EndpointError(CompletionError):
    status: int
    body: str

    def __str__(self) -> str:
        return f"endpoint returned {self.status}: {self.body[:200]}"


@dataclass
class CacheMiss(CompletionError):
    key: str

    def __str__(self) -> str:
        return f"no cached completion under key {self.key}"


@dataclass
class Timeout(CompletionError):
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

    @functools.cached_property
    def _key_frame(self) -> tuple[str, str]:
        """The canonical key JSON between the endpoint id and the prompt, and
        after the sample index (see the module docstring)."""
        dump = functools.partial(json.dumps, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
        head = dump({"max_tokens": self.max_tokens, "n": self.n})
        tail = dump({
            "stop": list(self.stop_sequences), "temperature": self.temperature, "top_p": self.top_p,
        })
        return f',{head[1:-1]},"prompt":', f",{tail[1:]}"


@functools.cache
def draft_preset(n: int = 1, max_tokens: int = 1024) -> SamplingConfig:
    """Nucleus sampling settings for informal proof drafts, shared per arguments."""
    return SamplingConfig(temperature=0.6, top_p=0.95, max_tokens=max_tokens, n=n)


@functools.cache
def sketch_preset() -> SamplingConfig:
    """Greedy decoding settings for formal sketch generation, one shared
    config (so its key frame is made once)."""
    return SamplingConfig(temperature=0.0, top_p=1.0, max_tokens=2048, n=1)


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    config: SamplingConfig
    endpoint_id: str = "default"


@dataclass(frozen=True)
class CompletionResponse:
    completions: tuple[str, ...]
    latency_ms: int


# what a pool slot gives for a request: its response and, in record mode,
# the cache key of each sample
Sent = tuple[CompletionResponse, tuple[str, ...]]


def cache_keys(request: CompletionRequest, sample_indices: Sequence[int]) -> tuple[str, ...]:
    """The cache key of each of a request's sample indices: its canonical
    JSON is escaped and hashed up to the sample index once."""
    head, tail = request.config._key_frame
    prefix = hashlib.sha256(
        f'{{"endpoint_id":{encode_basestring_ascii(request.endpoint_id)}{head}'
        f'{encode_basestring_ascii(request.prompt)},"sample_index":'.encode("ascii")
    )
    keys = []
    for i in sample_indices:
        digest = prefix.copy()
        digest.update(f"{i}{tail}".encode("ascii"))
        keys.append(digest.hexdigest())
    return tuple(keys)


def cache_key(request: CompletionRequest, sample_index: int) -> str:
    return cache_keys(request, (sample_index,))[0]


class CompletionCache:
    """Append-only JSONL store of (key, text) records with an in-memory
    index. Reads are lock-free; appends are serialized, one write per
    record. A final line that a crash cut short (no newline, not JSON) is
    ignored with a warning and cut off by the next append; any other line
    that is not a JSON object with a string `key` and `text` fails the load
    with a ConfigError. A whole final record without its newline gets one
    before the next append."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()
        self._torn_bytes = 0  # length of the torn final line, if any
        self._open_line = False  # the file ends in a whole record without a newline
        if not self.path.exists():
            return
        lines = read_text(self.path, "completion cache", ConfigError).split("\n")
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = decode_json(line, ConfigError)
            except ConfigError:
                if lineno == len(lines):  # the final line, without its newline: torn
                    self._torn_bytes = len(line.encode())
                    logger.warning("%s: ignoring a torn final line of %d bytes", self.path, self._torn_bytes)
                    break
                record = None
            if type(record) is not dict or not all(type(record.get(n)) is str for n in ("key", "text")):
                raise ConfigError(f"{self.path}, line {lineno}: not a JSON object with a string key and text")
            self._entries[record["key"]] = record["text"]
            self._open_line = lineno == len(lines)

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
        body = decode_json(response.content, ValueError)
    except ValueError:  # not JSON: the status decides, and the text is kept for the error
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

    def submit(self, build: Callable[[], CompletionRequest]) -> Future[Sent] | None:
        """Queue a request on the pool and return its future, for `collect`.
        The slot that takes it calls `build` and sends what it returns;
        an error `build` raises surfaces at `collect`. Replay has nothing to
        start: it returns None, and `collect` builds and looks the request
        up inline, so a caller may submit ahead in any mode, and a replayed
        request costs no future and no prompt before it is collected."""
        if self.mode is CacheMode.REPLAY:
            return None
        return self._pool.submit(self._send, build)

    def collect(
        self, build: Callable[[], CompletionRequest], future: Future[Sent] | None
    ) -> CompletionResponse:
        """The response to a submitted request, raising its error (or the
        error its builder raised); in record mode it is added to the cache
        under the keys the slot took."""
        if future is None:
            return self._replay(build())
        response, keys = future.result()
        for key, text in zip(keys, response.completions):
            self.cache.put(key, text)
        return response

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        build = lambda: request  # noqa: E731
        return self.collect(build, self.submit(build))

    def close(self) -> None:
        """Drop the requests not yet started and wait for the running ones;
        the pool's threads are gone when it returns."""
        self._pool.shutdown(cancel_futures=True)

    def _replay(self, request: CompletionRequest) -> CompletionResponse:
        assert self.cache is not None
        completions = []
        for key in cache_keys(request, range(request.config.n)):
            text = self.cache.get(key)
            if text is None:
                raise CacheMiss(key)
            completions.append(text)
        return CompletionResponse(completions=tuple(completions), latency_ms=0)

    def _send(self, build: Callable[[], CompletionRequest]) -> Sent:
        """On a pool slot: build the request, send it and, in record mode,
        take its cache keys. Hashing a long prompt lets other slots run, so
        it comes after the send, which keeps requests reaching the endpoint
        in the order they were queued."""
        request = build()
        config = request.config
        payload = {  # the endpoint's body
            "prompt": request.prompt, "max_tokens": config.max_tokens,
            "temperature": config.temperature, "top_p": config.top_p, "n": config.n,
            "stop": list(config.stop_sequences),
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
            completions = _completions(body)[: config.n]
            if not completions:
                raise EndpointError(status, f"malformed reply: {json.dumps(body)}")
            latency_ms = int((time.monotonic() - started) * 1000)
            keys = cache_keys(request, range(config.n)) if self.mode is CacheMode.RECORD else ()
            return CompletionResponse(completions, latency_ms), keys
        assert last_error is not None
        raise last_error


def _completions(body: object) -> tuple[str, ...]:
    """The texts of a reply's choices, or none when the reply is not an
    object with a `choices` list of objects with a string `text`."""
    choices = body.get("choices") if isinstance(body, dict) else None
    if not isinstance(choices, list):
        return ()
    texts = tuple(c.get("text") if isinstance(c, dict) else None for c in choices)
    return texts if all(isinstance(text, str) for text in texts) else ()


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

import gc
import hashlib
import http.server
import json
import threading
import time
import weakref
from concurrent.futures import wait

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchprove.errors import ConfigError
from sketchprove.llm import (
    CacheMiss,
    CacheMode,
    CompletionCache,
    CompletionClient,
    CompletionRequest,
    EndpointError,
    SamplingConfig,
    Timeout,
    cache_key,
    cache_keys,
    dedup,
    draft_preset,
    sketch_preset,
)


def test_presets_pin_the_sampling_parameters():
    draft = draft_preset(n=100)
    assert (draft.temperature, draft.top_p, draft.n) == (0.6, 0.95, 100)
    sketch = sketch_preset()
    assert (sketch.temperature, sketch.max_tokens, sketch.n) == (0.0, 2048, 1)


def test_equal_preset_arguments_give_one_config_and_the_same_cache_keys():
    # the presets are cached, so each config's key frame is made once
    assert draft_preset(n=4) is draft_preset(n=4) and sketch_preset() is sketch_preset()
    assert draft_preset(n=4) is not draft_preset(n=5)
    fresh = SamplingConfig(temperature=0.6, top_p=0.95, max_tokens=1024, n=4)
    assert draft_preset(n=4) == fresh
    shared = CompletionRequest("prompt", draft_preset(n=4), "ep")
    assert cache_keys(shared, range(4)) == cache_keys(CompletionRequest("prompt", fresh, "ep"), range(4))
    assert draft_preset(n=4)._key_frame is draft_preset(n=4)._key_frame


def test_greedy_with_multiple_samples_rejected():
    with pytest.raises(ValueError, match="greedy"):
        SamplingConfig(temperature=0.0, n=3)


@pytest.mark.parametrize(
    "kwargs",
    [dict(temperature=-0.1), dict(temperature=1, top_p=0.0), dict(temperature=1, top_p=1.5),
     dict(temperature=1, max_tokens=0), dict(temperature=1, n=0)],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SamplingConfig(**kwargs)


def test_cache_key_sensitivity():
    base = CompletionRequest("prompt", SamplingConfig(temperature=0.6, top_p=0.95), "ep")
    variants = [
        CompletionRequest("prompt!", base.config, "ep"),
        CompletionRequest("prompt", SamplingConfig(temperature=0.7, top_p=0.95), "ep"),
        CompletionRequest("prompt", SamplingConfig(temperature=0.6, top_p=0.9), "ep"),
        CompletionRequest("prompt", SamplingConfig(temperature=0.6, top_p=0.95, max_tokens=2), "ep"),
        CompletionRequest("prompt", SamplingConfig(temperature=0.6, top_p=0.95, stop_sequences=("x",)), "ep"),
        CompletionRequest("prompt", base.config, "other"),
    ]
    keys = {cache_key(base, 0)}
    for request in variants:
        keys.add(cache_key(request, 0))
    keys.add(cache_key(base, 1))  # sample index matters too
    assert len(keys) == 8


def test_cache_key_is_pinned():
    # a changed key would orphan every recorded cache, the fixture's included
    config = SamplingConfig(
        temperature=0.6, top_p=0.95, max_tokens=512, n=3, stop_sequences=("\n\n",)
    )
    request = CompletionRequest("prove 1 + 1 = 2", config, "ep")
    assert cache_key(request, 2) == (
        "1aef4815e6de63d4715a69019fb1a701a584200ef526c8319adb88d0b1daf313"
    )


def _canonical_key(request, sample_index):
    """The key's definition (see the module docstring), one `json.dumps` of
    the whole payload per sample: the oracle for the frame-built keys."""
    config = request.config
    payload = {
        "prompt": request.prompt, "max_tokens": config.max_tokens,
        "temperature": config.temperature, "top_p": config.top_p, "n": config.n,
        "stop": list(config.stop_sequences),
        "endpoint_id": request.endpoint_id, "sample_index": sample_index,
    }
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# all of Unicode, lone surrogates included, with JSON's escaped characters drawn often
_ANY_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\n\t\b\f\r'),
))
_FLOATS = st.one_of(
    st.sampled_from([0.1, 1e-7, 0.0, 1.0, 0.95, 1e-300, 5e-324, 1e22, 123456789.123]),
    st.floats(min_value=0, allow_nan=False), st.integers(0, 3),
)


@st.composite
def _requests(draw):
    temperature = draw(_FLOATS)
    config = SamplingConfig(
        temperature=temperature,
        top_p=draw(st.one_of(st.floats(min_value=0, max_value=1, exclude_min=True), st.just(1))),
        max_tokens=draw(st.integers(1, 2**70)),
        n=1 if temperature == 0 else draw(st.integers(1, 6)),
        stop_sequences=tuple(draw(st.lists(_ANY_TEXT, max_size=3))),
    )
    return CompletionRequest(draw(_ANY_TEXT), config, draw(_ANY_TEXT))


@settings(max_examples=400, deadline=None)
@given(request=_requests(), sample_index=st.integers())
@example(
    request=CompletionRequest(
        "\ud800\"\\\x00é", SamplingConfig(1e-7, top_p=0.1, stop_sequences=("ß", "\udfff")), "ép"
    ),
    sample_index=0,
)
def test_cache_keys_equal_one_canonical_dump_per_sample(request, sample_index):
    assert cache_key(request, sample_index) == _canonical_key(request, sample_index)
    assert cache_keys(request, range(request.config.n)) == tuple(
        _canonical_key(request, i) for i in range(request.config.n)
    )


def test_cache_persists_and_reloads(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = CompletionCache(path)
    cache.put("k1", "text one")
    cache.put("k2", "text two\nwith newline")
    reloaded = CompletionCache(path)
    assert reloaded.get("k1") == "text one"
    assert reloaded.get("k2") == "text two\nwith newline"
    assert len(reloaded) == 2


def test_cache_ignores_a_torn_final_line_and_cuts_it_on_append(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    CompletionCache(path).put("k1", "text one")
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"key": "k2", "te')
    cache = CompletionCache(path)
    assert len(cache) == 1 and "torn final line" in caplog.text
    cache.put("k3", "text three")
    reloaded = CompletionCache(path)
    assert (reloaded.get("k1"), reloaded.get("k2"), reloaded.get("k3")) == (
        "text one", None, "text three"
    )
    assert path.read_bytes().startswith(whole) and path.read_bytes().count(b"\n") == 2


def test_cache_keeps_a_whole_final_line_without_newline(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b'{"key": "k1", "text": "one"}')
    cache = CompletionCache(path)
    cache.put("k2", "two")
    reloaded = CompletionCache(path)
    assert (reloaded.get("k1"), reloaded.get("k2")) == ("one", "two")


def test_cache_fails_on_a_bad_line_before_the_last(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b'{"key": "k1", "te\n{"key": "k2", "text": "two"}\n')
    with pytest.raises(ConfigError, match="line 1"):
        CompletionCache(path)


@pytest.mark.parametrize(
    "line",
    [b'{"k": 1}\n', b"[1]\n", b'{"key": 1, "text": "one"}\n', b'{"key": "k", "text": null}\n', b"[1]"],
    ids=["no-key", "list", "int-key", "null-text", "list-without-newline"],
)
def test_cache_rejects_a_line_that_is_not_a_key_and_text_object(tmp_path, line):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b'{"key": "k1", "text": "one"}\n' + line)
    with pytest.raises(ConfigError, match=f"{path.name}, line 2: not a JSON object"):
        CompletionCache(path)


def _ok_transport(texts):
    def transport(url, headers, payload, timeout_s):
        return 200, {"choices": [{"text": t} for t in texts[: payload["n"]]]}

    return transport


def test_record_then_replay_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    request = CompletionRequest("p", SamplingConfig(temperature=0.6, top_p=0.95, n=3), "ep")
    recorder = CompletionClient(
        endpoint_url="x://y", mode=CacheMode.RECORD, cache=CompletionCache(path),
        transport=_ok_transport(["a", "b", "c"]),
    )
    recorded = recorder.complete(request)
    replayer = CompletionClient(mode=CacheMode.REPLAY, cache=CompletionCache(path))
    replayed = replayer.complete(request)
    assert replayed.completions == recorded.completions == ("a", "b", "c")
    assert replayed.latency_ms == 0
    assert replayer.complete(request).completions == replayed.completions


def test_replay_unseen_prompt_is_a_cache_miss(tmp_path):
    client = CompletionClient(mode=CacheMode.REPLAY, cache=CompletionCache(tmp_path / "c.jsonl"))
    with pytest.raises(CacheMiss):
        client.complete(CompletionRequest("never seen", SamplingConfig(temperature=0.6)))


def test_replay_partial_cache_is_a_miss(tmp_path):
    path = tmp_path / "cache.jsonl"
    request = CompletionRequest("p", SamplingConfig(temperature=0.6, n=3), "ep")
    cache = CompletionCache(path)
    cache.put(cache_key(request, 0), "only the first sample")
    client = CompletionClient(mode=CacheMode.REPLAY, cache=cache)
    with pytest.raises(CacheMiss):
        client.complete(request)


def test_retry_then_success(tmp_path):
    calls = []

    def flaky(url, headers, payload, timeout_s):
        calls.append(1)
        if len(calls) < 3:
            return 503, {"error": "busy"}
        return 200, {"choices": [{"text": "done"}]}

    client = CompletionClient(
        endpoint_url="x://y", mode=CacheMode.LIVE, transport=flaky, backoff_s=0.001
    )
    response = client.complete(CompletionRequest("p", SamplingConfig(temperature=0.5)))
    assert response.completions == ("done",)
    assert len(calls) == 3


def test_endpoint_error_after_retries_exhausted():
    client = CompletionClient(
        endpoint_url="x://y", mode=CacheMode.LIVE, retries=2, backoff_s=0.001,
        transport=lambda *a: (500, {"error": "down"}),
    )
    with pytest.raises(EndpointError) as exc:
        client.complete(CompletionRequest("p", SamplingConfig(temperature=0.5)))
    assert exc.value.status == 500


def test_non_retryable_error_raises_immediately():
    calls = []

    def forbidden(url, headers, payload, timeout_s):
        calls.append(1)
        return 403, {"error": "forbidden"}

    client = CompletionClient(endpoint_url="x://y", mode=CacheMode.LIVE, transport=forbidden)
    with pytest.raises(EndpointError):
        client.complete(CompletionRequest("p", SamplingConfig(temperature=0.5)))
    assert len(calls) == 1


@pytest.mark.parametrize("body", [
    pytest.param(("[" * 100_000 + "]" * 100_000).encode(), id="nested-too-deep"),
    pytest.param(b'{"choices": [{"text": "caf\xe9"}]}', id="not-utf-8"),
    pytest.param(b"<html>busy</html>", id="not-json"),
])
def test_a_200_reply_whose_body_is_not_json_is_an_endpoint_error(body):
    # a real HTTP endpoint on a local port, read by the default transport
    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    client = CompletionClient(
        endpoint_url=f"http://127.0.0.1:{server.server_address[1]}/v1/completions",
        mode=CacheMode.LIVE, retries=0,
    )
    try:
        with pytest.raises(EndpointError, match="^endpoint returned 200: malformed reply"):
            client.complete(CompletionRequest("p", SamplingConfig(temperature=0.5)))
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join()


def test_timeouts_surface_after_retries():
    def too_slow(url, headers, payload, timeout_s):
        raise Timeout(timeout_s)

    client = CompletionClient(
        endpoint_url="x://y", mode=CacheMode.LIVE, retries=1, backoff_s=0.001, transport=too_slow
    )
    with pytest.raises(Timeout):
        client.complete(CompletionRequest("p", SamplingConfig(temperature=0.5)))


def test_auth_header_from_named_env_var(monkeypatch):
    seen = {}

    def capture(url, headers, payload, timeout_s):
        seen.update(headers)
        return 200, {"choices": [{"text": "t"}]}

    monkeypatch.setenv("MY_TOKEN_VAR", "secret-token")
    client = CompletionClient(
        endpoint_url="x://y", mode=CacheMode.LIVE, auth_env="MY_TOKEN_VAR", transport=capture
    )
    client.complete(CompletionRequest("p", SamplingConfig(temperature=0.5)))
    assert seen["Authorization"] == "Bearer secret-token"


def test_wire_payload_shape():
    seen = {}

    def capture(url, headers, payload, timeout_s):
        seen.update(payload)
        return 200, {"choices": [{"text": "t"}]}

    client = CompletionClient(endpoint_url="x://y", mode=CacheMode.LIVE, transport=capture)
    config = SamplingConfig(temperature=0.6, top_p=0.95, max_tokens=77, n=1, stop_sequences=("END",))
    client.complete(CompletionRequest("the prompt", config))
    assert seen == {
        "prompt": "the prompt",
        "max_tokens": 77,
        "temperature": 0.6,
        "top_p": 0.95,
        "n": 1,
        "stop": ["END"],
    }


def test_in_flight_requests_bounded():
    limit = 3
    active = 0
    peak = 0
    lock = threading.Lock()

    def slow(url, headers, payload, timeout_s):
        nonlocal active, peak
        with lock:
            active += 1
            peak = max(peak, active)
        time.sleep(0.02)
        with lock:
            active -= 1
        return 200, {"choices": [{"text": "t"}]}

    client = CompletionClient(
        endpoint_url="x://y", mode=CacheMode.LIVE, max_in_flight=limit, transport=slow
    )
    threads = [
        threading.Thread(
            target=lambda: client.complete(CompletionRequest("p", SamplingConfig(temperature=0.5)))
        )
        for _ in range(12)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert peak <= limit


def test_replay_requires_cache():
    with pytest.raises(ValueError):
        CompletionClient(mode=CacheMode.REPLAY, cache=None)


@pytest.mark.parametrize(
    "setting, message", [(dict(max_in_flight=0), "max_in_flight"), (dict(retries=-1), "retries")]
)
def test_client_settings_validated(setting, message):
    # rejected when built: max_in_flight=0 would leave every request waiting
    # for a slot, retries=-1 would send none and fail on an assertion
    with pytest.raises(ValueError, match=message):
        CompletionClient(endpoint_url="x://y", mode=CacheMode.LIVE, **setting)


def test_latency_excludes_the_wait_for_a_slot():
    def slow(url, headers, payload, timeout_s):
        time.sleep(0.1)
        return 200, {"choices": [{"text": "t"}]}

    client = CompletionClient(endpoint_url="x://y", mode=CacheMode.LIVE, max_in_flight=1, transport=slow)
    latencies = []
    threads = [
        threading.Thread(
            target=lambda: latencies.append(
                client.complete(CompletionRequest("p", SamplingConfig(temperature=0.5))).latency_ms
            )
        )
        for _ in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    client.close()
    # queued behind one another they would read about 100, 200 and 300 ms
    assert len(latencies) == 3 and all(95 <= ms < 190 for ms in latencies)


def test_record_cache_written_in_collect_order(tmp_path):
    def answer_backwards(url, headers, payload, timeout_s):
        time.sleep(0.01 * (5 - int(payload["prompt"])))  # later prompts answer first
        return 200, {"choices": [{"text": "reply " + payload["prompt"]}]}

    path = tmp_path / "cache.jsonl"
    client = CompletionClient(
        endpoint_url="x://y", mode=CacheMode.RECORD, cache=CompletionCache(path),
        transport=answer_backwards,
    )
    requests = [CompletionRequest(str(i), SamplingConfig(temperature=0.5)) for i in range(5)]
    builds = [lambda request=request: request for request in requests]
    futures = [client.submit(build) for build in builds]
    assert len(client.cache) == 0  # nothing is cached before it is collected
    texts = [client.collect(b, f).completions[0] for b, f in zip(builds, futures)]
    client.close()
    assert texts == [f"reply {i}" for i in range(5)]
    written = [json.loads(line) for line in path.read_text().splitlines()]
    assert [w["key"] for w in written] == [cache_key(r, 0) for r in requests]


def test_the_slot_that_sends_a_request_builds_it_and_keeps_only_its_keys(tmp_path):
    sent, built_on, alive = [], [], []

    def transport(url, headers, payload, timeout_s):
        sent.append(payload["prompt"])
        return 200, {"choices": [{"text": "t"}]}

    def build():
        built_on.append(threading.current_thread().name)
        request = CompletionRequest("p", SamplingConfig(temperature=0.5))
        alive.append(weakref.ref(request))
        return request

    def broken():
        raise ValueError("no prompt")

    client = CompletionClient(
        endpoint_url="x://y", mode=CacheMode.RECORD, cache=CompletionCache(tmp_path / "c.jsonl"),
        transport=transport,
    )
    futures = [client.submit(build), client.submit(broken)]
    assert len(wait(futures, timeout=10).done) == 2
    gc.collect()
    assert alive[0]() is None  # an answered request is not kept, only its cache keys
    assert client.collect(build, futures[0]).completions == ("t",)
    assert client.cache.get(cache_key(CompletionRequest("p", SamplingConfig(temperature=0.5)), 0)) == "t"
    with pytest.raises(ValueError, match="no prompt"):  # a builder's error surfaces at collect
        client.collect(broken, futures[1])
    client.close()
    assert sent == ["p"] and built_on[0].startswith("completion")


def test_replay_answers_inline_and_starts_no_thread(tmp_path):
    before = set(threading.enumerate())
    client = CompletionClient(mode=CacheMode.REPLAY, cache=CompletionCache(tmp_path / "c.jsonl"))
    request = CompletionRequest("never seen", SamplingConfig(temperature=0.6))
    built = []
    assert client.submit(lambda: built.append(request) or request) is None and not built
    with pytest.raises(CacheMiss):
        client.collect(lambda: request, None)
    assert set(threading.enumerate()) == before
    client.close()


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("completion")]


def test_close_leaves_no_pool_thread_and_drops_queued_requests():
    release = threading.Event()
    sent = []

    def held(url, headers, payload, timeout_s):
        sent.append(payload["prompt"])
        release.wait(5)
        return 200, {"choices": [{"text": "t"}]}

    others = _pool_threads()  # other clients' threads, on their way out
    client = CompletionClient(endpoint_url="x://y", mode=CacheMode.LIVE, max_in_flight=2, transport=held)
    futures = [
        client.submit(lambda i=i: CompletionRequest(str(i), SamplingConfig(temperature=0.5)))
        for i in range(5)
    ]
    assert len(set(_pool_threads()) - set(others)) == 2
    while len(sent) < 2:
        time.sleep(0.001)
    threading.Timer(0.05, release.set).start()
    client.close()
    assert set(_pool_threads()) <= set(others)
    assert sorted(sent) == ["0", "1"]  # the three queued requests never went out
    assert [f.cancelled() for f in futures] == [False, False, True, True, True]


# -- dedup ---------------------------------------------------------------------


def test_dedup_whitespace_normalization():
    assert dedup(["p.\n", "p."]) == ["p.\n"]


def test_dedup_keeps_distinct():
    items = ["a", "b", "c"]
    assert dedup(items) == items


def test_dedup_first_seen_order():
    samples = []
    for i in range(100):
        samples.append(f"proof  {i % 40}")  # 40 distinct normal forms
    out = dedup(samples)
    assert len(out) == 40
    assert out == [f"proof  {i}" for i in range(40)]
    normals = [" ".join(s.split()) for s in out]
    assert normals == sorted(set(normals), key=normals.index)

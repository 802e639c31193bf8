"""In-memory span recorder for the traced run.

The package is not instrumented; the benchmark wraps the functions each
layer calls, at the module namespaces where the layer above imports them by
name (for example `scheduler.parse_sketch`, and `sketch.ops.parse_sketch`
for the re-parse inside `fill_gap`). Backend calls are recorded by a proxy
that implements the `Backend` protocol and is installed by the session
factory the benchmark hands to `SessionProvider`.

A span is (id, name, start, end, parent, op): `parent` is the enclosing
span on the same thread (None at a thread's top level) and `op` is the id of
the operation root (one attempt, or one large sketch) that all of its spans
share. Spans stay in memory and are written out only when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

# (module, attribute, span name). A class-qualified module path such as
# "sketchprove.llm:CompletionCache" patches a method on that class.
WRAPPED = (
    ("sketchprove.scheduler", "run_experiment", "scheduler.run_experiment"),
    ("sketchprove.scheduler", "run_problem", "scheduler.run_problem"),
    # The attempt has no public boundary; its spans share this root's id.
    ("sketchprove.scheduler", "_run_attempt", "scheduler.attempt"),
    ("sketchprove.scheduler", "select_examples", "prompting.select_examples"),
    ("sketchprove.scheduler", "build_sketch_prompt", "prompting.build_sketch_prompt"),
    ("sketchprove.scheduler", "build_draft_prompt", "prompting.build_draft_prompt"),
    ("sketchprove.scheduler", "parse_sketch", "sketch.parse"),
    ("sketchprove.scheduler", "check_no_cheat", "sketch.cheat"),
    ("sketchprove.scheduler", "serialize", "sketch.serialize"),
    ("sketchprove.scheduler", "prove_sketch", "prover.prove_sketch"),
    ("sketchprove.sketch.ops", "parse_sketch", "sketch.parse"),
    ("sketchprove.sketch.ops", "extract_gaps", "sketch.extract_gaps"),
    ("sketchprove.prover.driver", "check_no_cheat", "sketch.cheat"),
    ("sketchprove.prover.driver", "extract_gaps", "sketch.extract_gaps"),
    ("sketchprove.prover.driver", "fill_gap", "sketch.fill_gap"),
    ("sketchprove.prover.driver", "serialize", "sketch.serialize"),
    ("sketchprove.prover.driver", "sketch_prefix", "prover.sketch_prefix"),
    ("sketchprove.prover.driver", "close_gap", "prover.close_gap"),
    ("sketchprove.prover.driver", "verify_full", "prover.verify_full"),
    # the call sites a user of the library (and large_sketch) goes through
    ("sketchprove.sketch", "parse_sketch", "sketch.parse"),
    ("sketchprove.prover", "prove_sketch", "prover.prove_sketch"),
    ("sketchprove.llm:CompletionClient", "complete", "llm.complete"),
    ("sketchprove.llm:CompletionCache", "__init__", "llm.cache.load"),
    ("sketchprove.llm:CompletionCache", "get", "llm.cache.get"),
    ("sketchprove.llm:CompletionCache", "put", "llm.cache.put"),
    ("sketchprove.harness", "load_dataset", "harness.load_dataset"),
    ("sketchprove.harness", "export_records", "harness.export_records"),
)
OP_ROOTS = frozenset({"scheduler.attempt", "bench.sketch"})


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counts: Counter = Counter()
        self.values: defaultdict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()  # counts are updated from the worker threads
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack()
        parent, op = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        if name in OP_ROOTS:
            op = sid
        stack.append((sid, op))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, op))

    # -- wrapping the package's namespaces --------------------------------

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the targets not found, so
        a refactor that renames one degrades coverage instead of crashing."""
        missing = []
        for where, attr, name in WRAPPED:
            module_name, _, cls = where.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            original = vars(owner).get(attr)
            if original is None:
                missing.append(f"{where}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))
        return missing

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op in self.spans:
                handle.write(json.dumps([sid, name, round(start, 7), round(end, 7), parent, op]))
                handle.write("\n")


def _observe_cache_get(rec: SpanRecorder, result) -> None:
    rec.count("llm.cache.hits", result is not None)


def _observe_prompt(rec: SpanRecorder, result) -> None:
    rec.values["prompt_chars"].append(len(result))


def _observe_close_gap(rec: SpanRecorder, result) -> None:
    from sketchprove.prover import Closed

    if isinstance(result, Closed):
        rec.count("prover.closed")


_OBSERVERS = {
    "llm.cache.get": _observe_cache_get,
    "prompting.build_sketch_prompt": _observe_prompt,
    "prover.close_gap": _observe_close_gap,
}


class CountingBackend:
    """`Backend` proxy: one span per call and the UTF-8 bytes of the
    statement or text it sends."""

    def __init__(self, inner, rec: SpanRecorder):
        self.inner = inner
        self.rec = rec

    def _call(self, method: str, sent: str, *args):
        self.rec.count("prover.backend.bytes", len(sent.encode("utf-8")))
        return self.rec.call(f"prover.backend.{method}", getattr(self.inner, method), *args)

    def init(self, theory, statement):
        return self._call("init", statement, theory, statement)

    def step(self, text, timeout_ms):
        return self._call("step", text, text, timeout_ms)

    def hammer(self, timeout_ms):
        return self._call("hammer", "", timeout_ms)

    def check_full(self, proof_text, timeout_ms):
        return self._call("check_full", proof_text, proof_text, timeout_ms)

    def reset(self):
        return self._call("reset", "")

    def quit(self):
        return self._call("quit", "")


# -- per-layer metrics ------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    rec: SpanRecorder, ops: int, experiments: int, wall_s: float, overhead_frac: float
) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the recorded spans. `ops` are the attempts run
    (or sketches proved) while tracing, `experiments` the replays (a
    large_sketch run counts as one) and `wall_s` their wall time."""
    count: Counter = Counter()
    total: Counter = Counter()
    child: Counter = Counter()
    durations: defaultdict[str, list[float]] = defaultdict(list)
    for sid, name, start, end, parent, _ in rec.spans:
        count[name] += 1
        total[name] += end - start
        durations[name].append(end - start)
        if parent is not None:
            child[parent] += end - start
    self_time: Counter = Counter()
    for sid, name, start, end, parent, _ in rec.spans:
        self_time[name] += (end - start) - child[sid]

    per_op = 1.0 / max(ops, 1)

    def ms_per_op(name: str) -> float:
        return total[name] * 1000 * per_op

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    backend = [n for n in count if n.startswith("prover.backend.")]
    backend_calls = sum(count[n] for n in backend)
    gaps = count["prover.close_gap"]
    sketch_self = sum(v for n, v in self_time.items() if n.startswith("sketch."))
    backend_durations = [d for n in backend for d in durations[n]]
    gets = count["llm.cache.get"]
    return {
        "sketch.parse.calls_per_attempt": (count["sketch.parse"] * per_op, "count/op"),
        "sketch.parse.ms": (ms_per_op("sketch.parse"), "ms/op"),
        "sketch.cheat.calls_per_attempt": (count["sketch.cheat"] * per_op, "count/op"),
        "sketch.cheat.ms": (ms_per_op("sketch.cheat"), "ms/op"),
        "sketch.extract_gaps.ms": (ms_per_op("sketch.extract_gaps"), "ms/op"),
        "sketch.fill_gap.ms": (ms_per_op("sketch.fill_gap"), "ms/op"),
        "sketch.serialize.ms": (ms_per_op("sketch.serialize"), "ms/op"),
        "sketch.share": (ratio(sketch_self, wall_s), "frac"),
        "prover.sketch_prefix.ms": (ms_per_op("prover.sketch_prefix"), "ms/op"),
        "prover.close_gap.self_ms": (self_time["prover.close_gap"] * 1000 * per_op, "ms/op"),
        "prover.verify_full.ms": (ms_per_op("prover.verify_full"), "ms/op"),
        "prover.backend.calls_per_gap": (ratio(backend_calls, gaps), "count/gap"),
        "prover.backend.bytes_per_gap": (ratio(rec.counts["prover.backend.bytes"], gaps), "B/gap"),
        "prover.backend.wait_ms": (sum(total[n] for n in backend) * 1000 * per_op, "ms/op"),
        "prover.backend.call_ms.p50": (_quantile(backend_durations, 0.5) * 1000, "ms"),
        "prover.steps_per_closed_gap": (
            ratio(count["prover.backend.step"], rec.counts["prover.closed"]), "count/gap"),
        "prover.hammer_frac": (ratio(count["prover.backend.hammer"], gaps), "frac"),
        "prover.session_opens": (ratio(rec.counts["prover.session_opens"], experiments), "count/run"),
        "llm.complete.calls": (count["llm.complete"] * per_op, "count/op"),
        "llm.complete.wait_ms": (ms_per_op("llm.complete"), "ms/op"),
        "llm.transport.calls_per_complete": (
            ratio(count["llm.transport"], count["llm.complete"]), "count"),
        "llm.cache.put_ms": (ms_per_op("llm.cache.put"), "ms/op"),
        "llm.cache.hit_frac": (ratio(rec.counts["llm.cache.hits"], gets), "frac"),
        "llm.cache.load_ms": (ratio(total["llm.cache.load"] * 1000, count["llm.cache.load"]), "ms"),
        "prompting.select_examples.ms": (ms_per_op("prompting.select_examples"), "ms/op"),
        "prompting.build_sketch_prompt.ms": (ms_per_op("prompting.build_sketch_prompt"), "ms/op"),
        "prompting.prompt_chars.p50": (_quantile(rec.values["prompt_chars"], 0.5), "chars"),
        "scheduler.concurrency": (
            ratio(total["scheduler.run_problem"], total["scheduler.run_experiment"]), "ratio"),
        "scheduler.problem_ms.p50": (_quantile(durations["scheduler.run_problem"], 0.5) * 1000, "ms"),
        "scheduler.problem_ms.p95": (_quantile(durations["scheduler.run_problem"], 0.95) * 1000, "ms"),
        "harness.load_dataset.ms": (
            ratio(total["harness.load_dataset"] * 1000, count["harness.load_dataset"]), "ms"),
        "harness.export_records.ms": (
            ratio(total["harness.export_records"] * 1000, count["harness.export_records"]), "ms"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }

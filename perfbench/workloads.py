"""The three benchmark workloads, driven through the package's public API.

Each workload is a closed loop run by one load-generating process: the next
operation starts when the previous one has finished. An operation is one
replay of the golden experiment (golden_replay, live_latency) or one large
sketch sent through `prove_sketch` (large_sketch). Every operation's output
is checked; a failed check names the workload and the operation.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".perfbench_work"  # generated inputs, outputs and spans; never committed

import inputs  # noqa: E402
import spans  # noqa: E402
from sketchprove import harness, llm, scheduler  # noqa: E402
from sketchprove import prover as prover_pkg  # noqa: E402
from sketchprove import sketch as sketch_pkg  # noqa: E402
from sketchprove.cli import CliConfig  # noqa: E402
from sketchprove.prompting import PromptConfig, PromptMode, load_pool  # noqa: E402
from sketchprove.prover import (  # noqa: E402
    ExternalSpec,
    FullProofResult,
    ProverConfig,
    ScriptedSpec,
    open_session,
)

# Captured before any wrapping: the benchmark's own checks must not show up
# in the traced run's spans.
_parse_sketch = sketch_pkg.parse_sketch
_extract_gaps = sketch_pkg.extract_gaps

LIVE_JOBS = 2  # nproc of the reference machine; waits overlap, so threads need no core each
LARGE_GAPS = 200
TINY_LARGE_GAPS = 20
TINY_PROBLEMS = 4
FAKE_ENDPOINT_URL = "fake://completions"
_SKIPPED = (harness.FailureStage.DRAFT, harness.FailureStage.NOT_RUN)


@dataclass
class OpResult:
    seconds: float  # wall time of the package's work in this operation
    attempted: int  # attempts (pipelines) or sketches (large_sketch) checked
    ran: int  # of those, the ones that ran (a draft shortfall skips an attempt)
    gaps_closed: int
    failures: list[str] = field(default_factory=list)
    # per prove_sketch call; an array, so that memory does not grow with speed
    verdict_s: array = field(default_factory=lambda: array("d"))
    # how much slower the host ran than the reference around this operation
    # (set by the runner on CPU-bound workloads; see run.calibration_s)
    host_scale: float = 1.0


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU. For the
    CPU-bound workloads: a single thread, or a client and a wire server
    that take turns, gain nothing from a second core, and wake-ups across
    CPUs were the largest source of run-to-run noise."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@contextlib.contextmanager
def timing(owner, attr: str, samples: array):
    """Record the wall time of every call to owner.attr."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - started)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class WireServerProcess:
    """The reference wire server (`python -m sketchprove.prover`) as a child
    process on an ephemeral local port."""

    def __init__(self, script_path: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "sketchprove.prover", "--script", str(script_path), "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"wire server did not start: {line.strip()!r}")
        self.address = line.split()[-1]

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _record_fields(line: bytes | str) -> dict:
    fields = json.loads(line)
    fields.pop("wall_ms")
    return fields


def _corrupt(line: bytes) -> bytes:
    """One wrong record, as a broken pipeline would write it."""
    record = json.loads(line)
    record["gaps_closed"] += 1
    return json.dumps(record, sort_keys=True, ensure_ascii=True).encode()


class _Pipeline:
    """Shared shape of the two pipeline workloads: the golden experiment
    (fixtures/golden/config.json) replayed back to back, one fresh session
    provider per replay, as one `sketchprove run` after another would."""

    name = ""
    jobs = 1
    cpu_bound = True

    def __init__(self, work: Path, seed: int, tiny: bool = False, corrupt: bool = False):
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.corrupt = corrupt
        self.config = CliConfig(**json.loads((FIXTURES / "golden" / "config.json").read_text()))
        self.records_path = work / f"{self.name}_records.jsonl"
        self.ops = 0
        self._sessions: list = []

    def generate(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def _common_setup(self) -> None:
        cfg = self.config
        problems = harness.load_dataset(ROOT / cfg.dataset_path)
        self.problems = problems[:TINY_PROBLEMS] if self.tiny else problems
        self.pool = load_pool(ROOT / cfg.pool_path)
        self.policy = scheduler.BudgetPolicy(
            drafts_per_problem=cfg.drafts,
            sketches_per_draft=cfg.sketches_per_draft,
            total_budget=cfg.budget,
            stop_on_first_success=cfg.stop_on_first_success,
            draft_source=scheduler.DraftSource(cfg.draft_source),
        )
        self.prompt_config = PromptConfig(
            k_examples=cfg.k_examples, mode=PromptMode(cfg.mode), rng_seed=cfg.seed,
            max_prompt_chars=cfg.max_prompt_chars,
        )
        self.prover_config = ProverConfig(
            tactic_timeout_ms=cfg.tactic_timeout_ms,
            hammer_timeout_ms=cfg.hammer_timeout_ms,
            per_gap_budget_ms=cfg.per_gap_budget_ms,
        )

    def ready(self) -> None:
        golden = (FIXTURES / "golden" / "records.jsonl").read_bytes()
        wanted = {p.id for p in self.problems}
        self.golden_lines = [
            line for line in golden.splitlines() if json.loads(line)["problem_id"] in wanted
        ]
        self.golden_bytes = b"".join(line + b"\n" for line in self.golden_lines)

    def _factory(self, rec):
        def open_one():
            session = open_session(self.spec, self.prover_config)
            self._sessions.append((session, session.backend))
            if rec is not None:
                rec.count("prover.session_opens")
                session.backend = spans.CountingBackend(session.backend, rec)
            return session

        return open_one

    def _close_sessions(self) -> None:
        """Close each session through its own backend, so the benchmark's
        clean-up adds no backend spans."""
        while self._sessions:
            session, backend = self._sessions.pop()
            session.backend = backend
            session.close()

    def _client(self, rec):
        return self.client

    def op(self, rec=None) -> OpResult:
        self.index = self.ops
        self.ops += 1
        client = self._client(rec)
        components = scheduler.PipelineComponents(
            pool=self.pool,
            client=client,
            sessions=scheduler.SessionProvider(self._factory(rec)),
            prompt_config=self.prompt_config,
        )
        verdicts = array("d")
        with contextlib.nullcontext() if rec else timing(scheduler, "prove_sketch", verdicts):
            started = time.perf_counter()
            try:
                results = scheduler.run_experiment(
                    self.problems, self.policy, components,
                    parallelism=self.jobs, experiment_seed=self.config.seed,
                )
                harness.export_records(results, self.records_path)
            finally:
                seconds = time.perf_counter() - started
                self._close_sessions()
        got = self.records_path.read_bytes()
        lines = got.splitlines()
        if self.corrupt and self.index == 0:
            lines[0] = _corrupt(lines[0])
        failures = self._check(lines, got)
        attempts = [a for r in results for a in r.attempts]
        ran = sum(a.failure_stage not in _SKIPPED for a in attempts)
        gaps = sum(a.gaps_closed for a in attempts)
        return OpResult(
            seconds, max(len(lines), len(self.golden_lines)), ran, gaps, failures, verdicts
        )

    def _check(self, lines: list[bytes], got: bytes) -> list[str]:
        raise NotImplementedError

    def _line_failures(self, lines: list[bytes], same) -> list[str]:
        failures = []
        for i in range(max(len(lines), len(self.golden_lines))):
            if i >= len(lines) or i >= len(self.golden_lines):
                failures.append(f"{self.name} replay {self.index}: record {i} missing or extra")
            elif not same(lines[i], self.golden_lines[i]):
                failures.append(f"{self.name} replay {self.index}: record {i} differs from golden")
        return failures


class GoldenReplay(_Pipeline):
    """Replay mode, in-process scripted prover, jobs=1: pure CPU."""

    name = "golden_replay"

    def setup(self, rec=None) -> None:
        self._common_setup()
        cache = llm.CompletionCache(ROOT / self.config.cache_file)
        self.client = llm.CompletionClient(
            endpoint_id=self.config.endpoint_id, mode=llm.CacheMode.REPLAY, cache=cache
        )
        kind, _, script = self.config.prover.partition(":")
        if kind != "scripted":
            raise ValueError(f"golden_replay needs a scripted prover, config has {kind!r}")
        self.spec = ScriptedSpec(str(ROOT / script))
        open_session(self.spec, self.prover_config).close()

    def _check(self, lines, got):
        failures = self._line_failures(lines, lambda a, b: a == b)
        if not failures and got != self.golden_bytes:
            failures.append(f"{self.name} replay {self.index}: records file is not byte-identical")
        return failures

    def close(self) -> None:
        self._close_sessions()


class FakeEndpoint:
    """Completion endpoint stand-in (a `Transport`): rebuilds each request's
    cache key from the payload and answers from the fixture cache after a
    fixed, seeded delay."""

    def __init__(self, seed: int, endpoint_id: str, fixture_path: Path):
        self.seed = seed
        self.endpoint_id = endpoint_id
        self.fixture_path = fixture_path
        self.fixture: dict[str, str] = {}
        self.requested: set[str] = set()
        self._lock = threading.Lock()

    def load(self) -> None:
        for line in self.fixture_path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                record = json.loads(line)
                self.fixture[record["key"]] = record["text"]

    def __call__(self, url: str, headers: dict, payload: dict, timeout_s: float):
        config = llm.SamplingConfig(
            temperature=payload["temperature"], top_p=payload["top_p"],
            max_tokens=payload["max_tokens"], n=payload["n"],
            stop_sequences=tuple(payload["stop"]),
        )
        request = llm.CompletionRequest(payload["prompt"], config, self.endpoint_id)
        keys = [llm.cache_key(request, i) for i in range(config.n)]
        with self._lock:
            self.requested.update(keys)
        time.sleep(inputs.endpoint_delay_s(self.seed, payload["prompt"]))
        texts = [self.fixture.get(k) for k in keys]
        if None in texts:
            return 404, {"error": "prompt not in the fixture cache"}
        return 200, {"choices": [{"text": t} for t in texts]}


class LiveLatency(_Pipeline):
    """Record mode against a fake endpoint with a seeded delay, the wire
    server with injected prover latency, jobs = LIVE_JOBS: waiting, not CPU,
    sets the time."""

    name = "live_latency"
    jobs = LIVE_JOBS
    cpu_bound = False  # waits on sleeps: neither pinned nor normalised for host speed

    @property
    def script_path(self) -> Path:
        return self.work / "live_script.json"

    def generate(self) -> None:
        super().generate()
        fixture = json.loads((FIXTURES / "prover" / "script.json").read_text())
        inputs.write_json(self.script_path, inputs.live_script(fixture))

    def setup(self, rec=None) -> None:
        self._common_setup()
        self.endpoint = FakeEndpoint(
            self.seed, self.config.endpoint_id, ROOT / self.config.cache_file
        )
        self.server = WireServerProcess(self.script_path)
        self.spec = ExternalSpec(self.server.address)
        open_one = self._factory(None)
        for _ in range(self.jobs):
            open_one()
        self._close_sessions()

    def ready(self) -> None:
        super().ready()
        self.endpoint.load()

    def _client(self, rec):
        self.cache_path = self.work / "live_cache.jsonl"
        self.cache_path.unlink(missing_ok=True)
        self.endpoint.requested.clear()
        transport = self.endpoint
        if rec is not None:
            transport = lambda *args: rec.call("llm.transport", self.endpoint, *args)  # noqa: E731
        return llm.CompletionClient(
            endpoint_url=FAKE_ENDPOINT_URL,
            endpoint_id=self.config.endpoint_id,
            mode=llm.CacheMode.RECORD,
            cache=llm.CompletionCache(self.cache_path),
            transport=transport,
        )

    def _check(self, lines, got):
        failures = self._line_failures(lines, lambda a, b: _record_fields(a) == _record_fields(b))
        written = [json.loads(line) for line in self.cache_path.read_text().splitlines()]
        entries = {r["key"]: r["text"] for r in written}
        requested = self.endpoint.requested
        bad = {k for k in requested if entries.get(k) != self.endpoint.fixture.get(k)}
        bad |= set(entries) - requested
        if len(written) != len(entries):
            bad.add("duplicate cache lines")
        failures += [f"{self.name} replay {self.index}: cache entry {k[:12]} is wrong" for k in sorted(bad)]
        return failures

    def close(self) -> None:
        self._close_sessions()
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()


class LargeSketch:
    """Seeded synthetic sketches of LARGE_GAPS gaps, one at a time through
    `prove_sketch` to the wire server: the quadratic sketch and prover
    paths, and no llm, prompting or scheduler work."""

    name = "large_sketch"
    jobs = 1
    cpu_bound = True

    def __init__(self, work: Path, seed: int, tiny: bool = False, corrupt: bool = False):
        self.work = work
        self.seed = seed
        self.gaps = TINY_LARGE_GAPS if tiny else LARGE_GAPS
        self.corrupt = corrupt
        self.ops = 0
        self.session = None

    @property
    def script_path(self) -> Path:
        return self.work / "large_script.json"

    def generate(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        inputs.write_json(self.script_path, inputs.large_sketch_script(self.seed))

    def setup(self, rec=None) -> None:
        self.server = WireServerProcess(self.script_path)
        self.session = open_session(ExternalSpec(self.server.address), ProverConfig())
        if rec is not None:
            rec.count("prover.session_opens")

    def ready(self) -> None:
        self.raw_backend = self.session.backend

    def op(self, rec=None) -> OpResult:
        sketch = inputs.large_sketch(self.seed, self.ops, self.gaps)
        self.ops += 1
        if rec is None:
            return self._prove(sketch)
        self.session.backend = spans.CountingBackend(self.raw_backend, rec)
        try:
            return rec.call("bench.sketch", self._prove, sketch)
        finally:
            self.session.backend = self.raw_backend

    def _prove(self, sketch: inputs.LargeSketch) -> OpResult:
        started = time.perf_counter()
        ast = sketch_pkg.parse_sketch(sketch.text)
        proving = time.perf_counter()
        verdict = prover_pkg.prove_sketch(self.session, ast)
        done = time.perf_counter()
        where = f"{self.name} sketch {self.ops - 1}"
        if not isinstance(verdict, FullProofResult):
            return OpResult(done - started, 1, 1, 0, [f"{where}: not proved ({verdict.reason})"])
        proof_text = verdict.proof_text
        if self.corrupt and self.ops == 1:  # the first (warm-up) sketch
            proof_text = proof_text.replace(verdict.per_gap[0].closing_step, "sledgehammer", 1)
        failures = []
        if len(verdict.per_gap) != sketch.gaps:
            failures.append(f"{where}: {len(verdict.per_gap)} gap results for {sketch.gaps} gaps")
        left = len(_extract_gaps(_parse_sketch(proof_text)))
        if left:
            failures.append(f"{where}: proof text still has {left} gaps")
        verdicts = array("d", [done - proving])
        return OpResult(done - started, 1, 1, len(verdict.per_gap), failures, verdicts)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()


WORKLOADS = {w.name: w for w in (GoldenReplay, LargeSketch, LiveLatency)}

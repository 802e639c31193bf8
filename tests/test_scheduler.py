import contextlib
import dataclasses
import json
import shlex
import sys
import threading

import pytest

from conftest import FIXTURES, RecordingBackend, memo_state_ids, minimal_script, recording
from sketchprove.harness import FailureStage, Problem, Split, export_records
from sketchprove.llm import (
    CacheMode,
    CompletionCache,
    CompletionClient,
    CompletionRequest,
    SamplingConfig,
    cache_key,
)
from sketchprove.prompting import Category, PromptConfig, PromptMode, load_pool
from sketchprove.prover import (
    DEFAULT_TACTICS,
    BackendReply,
    ExternalSpec,
    ProverConfig,
    ProverSession,
    ProverState,
    ScriptedSpec,
    SessionDead,
    SessionState,
    WireBackend,
    open_session,
)
from sketchprove.scheduler import (
    BudgetExceeded,
    BudgetPolicy,
    DraftSource,
    PipelineComponents,
    SessionProvider,
    derive_seed,
    infra_failures,
    make_plan,
    run_experiment,
    run_problem,
    run_problem_direct,
)


# -- plans ---------------------------------------------------------------------


def test_full_grid_plan():
    policy = BudgetPolicy(drafts_per_problem=25, sketches_per_draft=4, total_budget=100)
    plan = make_plan(policy, 0, "p")
    assert len(plan.entries) == 100


def test_one_sketch_per_draft_plan():
    policy = BudgetPolicy(drafts_per_problem=100, sketches_per_draft=1, total_budget=100)
    plan = make_plan(policy, 0, "p")
    assert len(plan.entries) == 100
    assert [d for d, _, _ in plan.entries] == list(range(100))


def test_human_plan_single_draft():
    policy = BudgetPolicy(
        drafts_per_problem=1, sketches_per_draft=100, total_budget=100,
        draft_source=DraftSource.HUMAN,
    )
    plan = make_plan(policy, 0, "p")
    assert len(plan.entries) == 100
    assert all(d == 0 for d, _, _ in plan.entries)


def test_human_policy_rejects_multiple_drafts():
    with pytest.raises(ValueError, match="single draft"):
        BudgetPolicy(drafts_per_problem=2, sketches_per_draft=1, draft_source=DraftSource.HUMAN)


def test_plan_respects_budget():
    policy = BudgetPolicy(drafts_per_problem=20, sketches_per_draft=6, total_budget=100)
    with pytest.raises(BudgetExceeded):
        make_plan(policy, 0, "p")


def test_plan_is_draft_major_with_distinct_seeds():
    policy = BudgetPolicy(drafts_per_problem=3, sketches_per_draft=2, total_budget=100)
    plan = make_plan(policy, 7, "p")
    assert [(d, s) for d, s, _ in plan.entries] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
    ]
    seeds = [seed for _, _, seed in plan.entries]
    assert len(set(seeds)) == len(seeds)
    assert make_plan(policy, 7, "p") == plan  # deterministic
    assert make_plan(policy, 8, "p") != plan  # seed-sensitive
    assert make_plan(policy, 7, "q") != plan  # problem-sensitive


def test_seed_derivation_is_stable():
    assert derive_seed(1, "p", 0, 0) == derive_seed(1, "p", 0, 0)
    assert derive_seed(1, "p", 0, 0) != derive_seed(1, "p", 0, 1)


# -- one-problem pipeline ------------------------------------------------------------


def _problem(pid="algebra_sched"):
    return Problem(
        id=pid,
        split=Split.VALID,
        category=Category.ALGEBRA,
        informal_statement="Given x + 7 = 40, find x.",
        informal_proof="Subtract seven.",
        formal_statement=f'theorem {pid}:\n  fixes x :: real\n  assumes h0: "x + 7 = 40"\n  shows "x = 33"',
    )


GOOD_SKETCH = (
    'theorem algebra_sched:\n  fixes x :: real\n  assumes h0: "x + 7 = 40"\n  shows "x = 33"\n'
    "proof -\n"
    "  (* isolate x *)\n"
    '  have c0: "x = 40 - 7" using h0 sledgehammer\n'
    "  then show ?thesis using c0 sledgehammer\n"
    "qed\n"
)
BAD_SKETCH = GOOD_SKETCH.replace("40 - 7", "40 + 1")


def _components(
    tmp_path, sketch_by_draft, drafts=None, mode=PromptMode.FULL, script=None, sketch_calls=None,
    **client_options,
):
    """Record-mode components around a canned transport; `sketch_by_draft`
    gives a draft's sketch completion, or an (HTTP status, body) pair to
    answer with instead. Sketch prompts are appended to `sketch_calls`."""
    pool = load_pool(FIXTURES / "pool" / "examples.json")
    drafts = drafts or [f"draft variant {i}" for i in range(8)]

    def transport(url, headers, payload, timeout_s):
        prompt = payload["prompt"]
        if prompt.rstrip().endswith("Proof:"):
            return 200, {"choices": [{"text": t} for t in drafts[: payload["n"]]]}
        if sketch_calls is not None:
            sketch_calls.append(prompt)
        for i, text in enumerate(drafts):
            if text in prompt:
                sketch = sketch_by_draft(i)
                return sketch if isinstance(sketch, tuple) else (200, {"choices": [{"text": sketch}]})
        raise AssertionError("prompt does not contain any canned draft")

    client = CompletionClient(
        endpoint_url="canned://x", mode=CacheMode.RECORD,
        cache=CompletionCache(tmp_path / "cache.jsonl"), transport=transport, **client_options,
    )
    script = script or minimal_script(
        rules=[
            {"match": {"kind": "exact", "pattern": "x = 40 - 7"}, "outcome": {"kind": "tactic", "index": 0}},
            {"match": {"kind": "exact", "pattern": "?thesis"}, "outcome": {"kind": "hammer", "step": "by (metis c0)"}},
        ]
    )
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    provider = SessionProvider(lambda: open_session(ScriptedSpec(str(script_path)), ProverConfig()))
    return PipelineComponents(
        pool=pool, client=client, sessions=provider, prompt_config=PromptConfig(mode=mode)
    )


def test_success_at_seventh_attempt_with_early_stop(tmp_path):
    # drafts 0..2 sketch badly; draft 3 works: first success is entry index 6
    components = _components(tmp_path, lambda i: GOOD_SKETCH if i == 3 else BAD_SKETCH)
    policy = BudgetPolicy(drafts_per_problem=5, sketches_per_draft=2, stop_on_first_success=True)
    result = run_problem(_problem(), policy, components, experiment_seed=3)
    assert result.solved and result.first_success_index == 6
    executed = [a for a in result.attempts if a.failure_stage is not FailureStage.NOT_RUN]
    assert len(executed) == 7
    not_run = [a for a in result.attempts if a.failure_stage is FailureStage.NOT_RUN]
    assert len(not_run) == 3
    assert all(not a.success for a in not_run)
    # nothing after the success was executed
    assert all(
        a.failure_stage is FailureStage.NOT_RUN
        for a in result.attempts[result.first_success_index + 1 :]
    )


def test_exhaustion_records_every_attempt(tmp_path):
    components = _components(tmp_path, lambda i: BAD_SKETCH)
    policy = BudgetPolicy(drafts_per_problem=5, sketches_per_draft=2, stop_on_first_success=False)
    result = run_problem(_problem(), policy, components)
    assert not result.solved and result.first_success_index is None
    assert len(result.attempts) == 10
    assert all(a.failure_stage is FailureStage.PROVE for a in result.attempts)
    assert all(a.gaps_total == 2 and a.gaps_closed == 0 for a in result.attempts)


def test_human_source_uses_the_informal_proof(tmp_path):
    calls = []

    def transport(url, headers, payload, timeout_s):
        calls.append(payload["prompt"])
        return 200, {"choices": [{"text": GOOD_SKETCH}]}

    components = _components(tmp_path, lambda i: GOOD_SKETCH)
    components.client = CompletionClient(
        endpoint_url="canned://x", mode=CacheMode.RECORD,
        cache=CompletionCache(tmp_path / "cache2.jsonl"), transport=transport,
    )
    policy = BudgetPolicy(
        drafts_per_problem=1, sketches_per_draft=2, draft_source=DraftSource.HUMAN,
        stop_on_first_success=False,
    )
    result = run_problem(_problem(), policy, components)
    assert result.solved
    assert all("Subtract seven." in prompt for prompt in calls)  # no draft sampling


def test_human_source_requires_informal_proof(tmp_path):
    components = _components(tmp_path, lambda i: GOOD_SKETCH)
    policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=1, draft_source=DraftSource.HUMAN)
    problem = Problem(
        id="algebra_noproof", split=Split.VALID, category=Category.ALGEBRA,
        informal_statement="s", informal_proof=None, formal_statement='theorem x:\n  shows "T"',
    )
    with pytest.raises(ValueError, match="informal proof"):
        run_problem(problem, policy, components)


def test_parse_failures_are_recorded(tmp_path):
    components = _components(tmp_path, lambda i: "theorem broken((( nope")
    policy = BudgetPolicy(drafts_per_problem=2, sketches_per_draft=1, stop_on_first_success=False)
    result = run_problem(_problem(), policy, components)
    assert [a.failure_stage for a in result.attempts] == [FailureStage.PARSE] * 2
    assert all(not a.parse_ok for a in result.attempts)


def test_cheating_sketch_never_reaches_the_prover(tmp_path):
    cheat = GOOD_SKETCH.replace("using c0 sledgehammer", "using c0 sorry")
    components = _components(tmp_path, lambda i: cheat)
    policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=1)
    result = run_problem(_problem(), policy, components)
    assert result.attempts[0].failure_stage is FailureStage.VERIFY
    assert result.attempts[0].parse_ok


def test_draft_shortfall_recorded(tmp_path):
    drafts = ["same draft", "same draft", "other draft", "same draft", "same draft"]
    components = _components(tmp_path, lambda i: GOOD_SKETCH, drafts=drafts)
    policy = BudgetPolicy(drafts_per_problem=5, sketches_per_draft=1, stop_on_first_success=False)
    result = run_problem(_problem(), policy, components)
    # only two unique drafts survive dedup
    stages = [a.failure_stage for a in result.attempts]
    assert stages[:2] == [None, None]
    assert stages[2:] == [FailureStage.DRAFT] * 3
    assert result.draft_shortfall == 3


def test_cache_miss_flagged_as_infra(tmp_path):
    pool = load_pool(FIXTURES / "pool" / "examples.json")
    client = CompletionClient(mode=CacheMode.REPLAY, cache=CompletionCache(tmp_path / "empty.jsonl"))
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(minimal_script()))
    components = PipelineComponents(
        pool=pool, client=client,
        sessions=SessionProvider(lambda: open_session(ScriptedSpec(str(script_path)), ProverConfig())),
        prompt_config=PromptConfig(),
    )
    policy = BudgetPolicy(drafts_per_problem=2, sketches_per_draft=1)
    result = run_problem(_problem(), policy, components)
    assert result.infra_error is not None  # drafting itself cache-missed
    assert result.attempts == ()
    assert infra_failures([result]) == {"algebra_sched": result.infra_error}


def test_cache_miss_in_sketch_stage_only_fails_the_attempt(tmp_path):
    # cache holds the draft completions but no sketch completions
    components = _components(tmp_path, lambda i: GOOD_SKETCH)
    policy = BudgetPolicy(drafts_per_problem=2, sketches_per_draft=1, stop_on_first_success=False)
    run_problem(_problem(), policy, components)  # record drafts + sketches
    # rebuild a cache with just the draft entries
    full_cache = CompletionCache(tmp_path / "cache.jsonl")
    partial = CompletionCache(tmp_path / "partial.jsonl")
    for key, text in full_cache._entries.items():
        if text.startswith("draft variant"):
            partial.put(key, text)
    replay = CompletionClient(mode=CacheMode.REPLAY, cache=partial)
    components.client = replay
    result = run_problem(_problem(), policy, components)
    assert result.infra_error is None
    assert [a.failure_stage for a in result.attempts] == [FailureStage.INFRA] * 2


def test_session_reopened_after_death(tmp_path, monkeypatch):
    components = _components(tmp_path, lambda i: GOOD_SKETCH)
    policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=2, stop_on_first_success=False)

    import sketchprove.scheduler as scheduler_module

    real_prove = scheduler_module.prove_sketch
    deaths = {"left": 1}
    opened = []

    original_get = components.sessions.get

    def counting_get():
        session = original_get()
        opened.append(session.session_id)
        return session

    def flaky_prove(session, ast):
        if deaths["left"] > 0:
            deaths["left"] -= 1
            session.state = scheduler_module.SessionState.DEAD
            raise SessionDead("injected")
        return real_prove(session, ast)

    monkeypatch.setattr(components.sessions, "get", counting_get)
    monkeypatch.setattr(scheduler_module, "prove_sketch", flaky_prove)
    result = run_problem(_problem(), policy, components)
    assert result.solved
    assert len(set(opened)) == 2  # one replacement session


def test_refused_contexts_fail_the_attempt_not_the_problem(tmp_path, monkeypatch):
    # a checker that refuses every context (say, a malformed proposition)
    # costs each attempt a PROVE record; the session is never reopened
    components = _components(tmp_path, lambda i: GOOD_SKETCH)
    policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=3)
    opened = []
    original_get = components.sessions.get

    def refusing_contexts():
        session = original_get()
        if session not in opened:
            session.backend.init = lambda theory, statement: BackendReply("fail", 0, reason="boom")
            session.backend = RecordingBackend(session.backend)
            opened.append(session)
        return session

    monkeypatch.setattr(components.sessions, "get", refusing_contexts)
    result = run_problem(_problem(), policy, components)
    assert result.infra_error is None and not result.solved
    assert [a.failure_stage for a in result.attempts] == [FailureStage.PROVE] * 3
    assert len(opened) == 1
    assert not [cmd for cmd, _ in opened[0].backend.calls if cmd == "step"]


def test_session_reopen_budget_exhausted(tmp_path, monkeypatch):
    components = _components(tmp_path, lambda i: GOOD_SKETCH)
    components.max_session_reopens = 1
    policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=2)

    import sketchprove.scheduler as scheduler_module

    def always_dead(session, ast):
        session.state = scheduler_module.SessionState.DEAD
        raise SessionDead("injected")

    monkeypatch.setattr(scheduler_module, "prove_sketch", always_dead)
    result = run_problem(_problem(), policy, components)
    assert not result.solved
    assert result.infra_error is not None and "session lost" in result.infra_error


# -- sketch completions fetched ahead -------------------------------------------------


@pytest.mark.parametrize("max_in_flight", [1, 3])
def test_early_stop_bounds_the_sketches_fetched_ahead(tmp_path, max_in_flight):
    calls = []
    components = _components(
        tmp_path, lambda i: GOOD_SKETCH, sketch_calls=calls, max_in_flight=max_in_flight
    )
    policy = BudgetPolicy(drafts_per_problem=5, sketches_per_draft=2, stop_on_first_success=True)
    with contextlib.closing(components.client):
        result = run_problem(_problem(), policy, components)
    assert result.first_success_index == 0
    assert [a.failure_stage for a in result.attempts[1:]] == [FailureStage.NOT_RUN] * 9
    assert 1 <= len(calls) <= 1 + max_in_flight
    # five draft samples and the one sketch a record used
    assert len(CompletionCache(tmp_path / "cache.jsonl")) == 5 + 1


def test_endpoint_error_on_a_sketch_fetched_ahead_fails_that_attempt_only(tmp_path):
    components = _components(
        tmp_path, lambda i: (403, {"error": "refused"}) if i == 2 else BAD_SKETCH
    )
    policy = BudgetPolicy(drafts_per_problem=4, sketches_per_draft=1, stop_on_first_success=False)
    assert components.client.fetch_ahead >= 2  # attempt 2 is requested while attempt 0 is proved
    with contextlib.closing(components.client):
        result = run_problem(_problem(), policy, components)
    assert result.infra_error is None
    assert [a.failure_stage for a in result.attempts] == [
        FailureStage.PROVE, FailureStage.PROVE, FailureStage.INFRA, FailureStage.PROVE,
    ]


# -- experiment loop -----------------------------------------------------------------


def test_provider_closes_a_dead_session_when_it_replaces_it(tmp_path):
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(minimal_script()))
    provider = SessionProvider(
        lambda: recording(open_session(ScriptedSpec(str(script_path)), ProverConfig()))
    )
    first = provider.get()
    first.state = SessionState.DEAD
    second = provider.get()
    assert second is not first
    assert first.backend.calls == [("quit", "")]
    provider.close()
    provider.close()
    second.close()
    assert second.backend.calls == [("quit", "")]  # a closed session sends no second quit


# answers its first frame with a line that is not JSON, then never again
STALLING_CHILD = "import sys, time; sys.stdin.readline(); print('garbage', flush=True); time.sleep(600)"


def test_provider_replaces_a_garbled_stdio_session_without_waiting_on_it():
    address = f"stdio:{sys.executable} -c {shlex.quote(STALLING_CHILD)}"
    provider = SessionProvider(lambda: ProverSession(WireBackend(address), ProverConfig()))
    sessions = []

    def garble_then_replace():  # sessions are per thread, so all of it runs in one
        sessions.append(provider.get())
        with contextlib.suppress(SessionDead), sessions[0].exclusive() as backend:
            backend.step("by auto", 50)
        sessions.append(provider.get())

    worker = threading.Thread(target=garble_then_replace, daemon=True)
    worker.start()
    worker.join(timeout=5)
    first = sessions[0]
    try:
        assert len(sessions) == 2, "replacing the dead session waited on its silent child"
        assert sessions[1] is not first
        assert first.backend._proc.poll() is not None
    finally:
        first.backend._proc.kill()
        worker.join(timeout=5)
        provider.close()


def _open_golden_session():
    return open_session(ScriptedSpec(str(FIXTURES / "prover" / "script.json")), ProverConfig())


def _golden_policy(golden_config):
    return BudgetPolicy(
        drafts_per_problem=golden_config["drafts"],
        sketches_per_draft=golden_config["sketches_per_draft"],
        total_budget=golden_config["budget"],
        stop_on_first_success=golden_config["stop_on_first_success"],
    )


def _golden_components():
    provider = SessionProvider(_open_golden_session)
    return PipelineComponents(
        pool=load_pool(FIXTURES / "pool" / "examples.json"),
        client=CompletionClient(
            mode=CacheMode.REPLAY, cache=CompletionCache(FIXTURES / "cache" / "completions.jsonl")
        ),
        sessions=provider,
        prompt_config=PromptConfig(),
    )


def test_empty_problem_list():
    assert run_experiment([], None, _golden_components()) == []


def test_run_experiment_leaves_no_prover_process_behind(problems):
    script = FIXTURES / "prover" / "script.json"
    address = f"stdio:{sys.executable} -m sketchprove.prover --script {script} --stdio"
    opened = []

    def open_child():
        opened.append(open_session(ExternalSpec(address), ProverConfig()))
        return opened[-1]

    components = _golden_components()
    components.sessions = SessionProvider(open_child)
    results = run_experiment(problems[:4], None, components, parallelism=2)
    assert [len(r.attempts) for r in results] == [1] * 4
    assert opened
    assert all(session.backend._proc.poll() is not None for session in opened)


def test_parallelism_invariance_on_golden_corpus(problems, golden_config):
    policy = _golden_policy(golden_config)
    seed = golden_config["seed"]
    sequential = run_experiment(problems, policy, _golden_components(), 1, seed)
    parallel = run_experiment(problems, policy, _golden_components(), 8, seed)
    assert sequential == parallel
    assert [r.problem_id for r in sequential] == [p.id for p in problems]


@pytest.mark.parametrize("jobs", [1, 8])
def test_golden_replay_backend_calls_stay_memoised(tmp_path, problems, golden_config, jobs):
    # the session memo answers the prover work that recurs across a
    # problem's attempts; without it the golden replay sends 3,420 calls
    opened = []

    def open_recorded():
        opened.append(recording(_open_golden_session()))
        return opened[-1]

    components = _golden_components()
    components.sessions = SessionProvider(open_recorded)
    results = run_experiment(problems, _golden_policy(golden_config), components, jobs, golden_config["seed"])
    export_records(results, tmp_path / "records.jsonl")
    assert (tmp_path / "records.jsonl").read_bytes() == (FIXTURES / "golden" / "records.jsonl").read_bytes()
    sent = [cmd for session in opened for cmd, _ in session.backend.calls if cmd != "quit"]
    assert len(sent) <= 500


class DyingBackend:
    """Backend that raises SessionDead on its k-th call. The state ids it
    issues carry a "dead-" prefix, so that a memo entry naming one shows."""

    def __init__(self, inner, k):
        self.inner = inner
        self.left = k

    def _answer(self, reply):
        self.left -= 1
        if self.left == 0:
            raise SessionDead("injected crash")
        if reply.state_id is None:
            return reply
        return dataclasses.replace(reply, state_id="dead-" + reply.state_id)

    def init(self, base, statement):
        if isinstance(base, ProverState):
            base = ProverState(base.state_id.removeprefix("dead-"))
        return self._answer(self.inner.init(base, statement))

    def step(self, text, timeout_ms):
        return self._answer(self.inner.step(text, timeout_ms))

    def hammer(self, timeout_ms):
        return self._answer(self.inner.hammer(timeout_ms))

    def check_full(self, proof_text, timeout_ms):
        return self._answer(self.inner.check_full(proof_text, timeout_ms))

    def quit(self):
        self.inner.quit()


def test_crash_mid_problem_reopens_and_records_as_uninterrupted(problems, golden_config):
    policy = _golden_policy(golden_config)
    seed = golden_config["seed"]
    # the uninterrupted runs; the crash goes to the problem with the most
    # resumed gaps, at its last resume: partway through a later sketch,
    # once earlier attempts have filled the memo
    runs = {}
    for problem in problems:
        components = _golden_components()
        session = recording(_open_golden_session())
        components.sessions = SessionProvider(lambda: session)
        runs[problem.id] = (problem, run_problem(problem, policy, components, seed), session.backend.calls)
    problem, uninterrupted, calls = max(
        runs.values(), key=lambda run: [cmd for cmd, _ in run[2]].count("resume")
    )
    k = max(i for i, (cmd, _) in enumerate(calls, 1) if cmd == "resume")
    assert 0 < [cmd for cmd, _ in calls[:k]].count("check_full")

    opened = []

    def open_dying_first():
        session = _open_golden_session()
        if not opened:
            session.backend = DyingBackend(session.backend, k)
        opened.append(session)
        return session

    components = _golden_components()
    components.sessions = SessionProvider(open_dying_first)
    crashed = run_problem(problem, policy, components, seed)
    assert len(opened) == 2 and opened[0].state is SessionState.DEAD
    assert crashed == uninterrupted and crashed.infra_error is None
    assert not opened[0].memo.gaps and not opened[0].memo.verdicts
    replacing = memo_state_ids(opened[1])
    assert replacing and not any(state_id.startswith("dead-") for state_id in replacing)
    components.sessions.close()


def _fixture_endpoint(calls):
    """A transport that answers as the endpoint that recorded the fixture
    cache did; appends each prompt it is sent to `calls`."""
    fixture = CompletionCache(FIXTURES / "cache" / "completions.jsonl")

    def transport(url, headers, payload, timeout_s):
        calls.append(payload["prompt"])
        config = SamplingConfig(
            temperature=payload["temperature"], top_p=payload["top_p"],
            max_tokens=payload["max_tokens"], n=payload["n"], stop_sequences=tuple(payload["stop"]),
        )
        request = CompletionRequest(payload["prompt"], config)
        texts = [fixture.get(cache_key(request, i)) for i in range(config.n)]
        if None in texts:
            return 404, {"error": "not in the fixture cache"}
        return 200, {"choices": [{"text": text} for text in texts]}

    return transport


def _recording_golden_components(cache_path, calls):
    components = _golden_components()
    components.client = CompletionClient(
        endpoint_url="fixture://", mode=CacheMode.RECORD, cache=CompletionCache(cache_path),
        transport=_fixture_endpoint(calls),
    )
    return components


def _sans_wall_ms(results):
    # a record-mode wall_ms includes the endpoint latency measured on the clock
    return [
        dataclasses.replace(r, attempts=tuple(dataclasses.replace(a, wall_ms=0) for a in r.attempts))
        for r in results
    ]


def _cache_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("jobs", [1, 8])
@pytest.mark.parametrize("early_stop", [False, True])
def test_fetching_ahead_records_what_a_sequential_run_records(
    tmp_path, monkeypatch, problems, golden_config, early_stop, jobs
):
    # eight workers (more than the cores) share one client's pool and cache,
    # with frequent thread switches to expose a lost update
    policy = dataclasses.replace(_golden_policy(golden_config), stop_on_first_success=early_stop)
    seed = golden_config["seed"]
    runs = {}

    def record(name):
        calls = []
        components = _recording_golden_components(tmp_path / f"{name}.jsonl", calls)
        with contextlib.closing(components.client):
            results = run_experiment(problems, policy, components, jobs, seed)
        runs[name] = (_sans_wall_ms(results), calls, _cache_lines(tmp_path / f"{name}.jsonl"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for name in ("ahead", "sequential"):
            if name == "sequential":
                monkeypatch.setattr(CompletionClient, "fetch_ahead", property(lambda client: 0))
            worker = threading.Thread(target=record, args=(name,), daemon=True)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive() and name in runs
    finally:
        sys.setswitchinterval(interval)
    (ahead, ahead_calls, ahead_cache), (sequential, sequential_calls, sequential_cache) = runs.values()
    assert ahead == sequential
    # the cache holds exactly the completions the records used, in plan order
    # when one worker runs the plan
    by_key = lambda lines: sorted(lines, key=lambda line: line["key"])  # noqa: E731
    assert (ahead_cache if jobs == 1 else by_key(ahead_cache)) == (
        sequential_cache if jobs == 1 else by_key(sequential_cache)
    )
    assert len(sequential_calls) == len(sequential_cache) - len(problems) * (golden_config["drafts"] - 1)
    if early_stop:
        assert set(ahead_calls) >= set(sequential_calls)
    else:
        assert sorted(ahead_calls) == sorted(sequential_calls)


def test_lost_session_reproves_without_requesting_the_sketch_again(tmp_path, problems, golden_config):
    policy = _golden_policy(golden_config)
    seed = golden_config["seed"]
    problem = next(p for p in problems if p.id == "algebra_g01")
    clean_calls = []
    components = _recording_golden_components(tmp_path / "clean.jsonl", clean_calls)
    session = recording(_open_golden_session())
    components.sessions = SessionProvider(lambda: session)
    with contextlib.closing(components.client):
        clean = run_problem(problem, policy, components, seed)
    session.close()
    # the crash comes halfway through the problem's backend calls, mid-proof
    k = len(session.backend.calls) // 2
    assert session.backend.calls[k - 1][0] in ("resume", "step", "hammer")

    opened = []

    def open_dying_first():
        session = _open_golden_session()
        if not opened:
            session.backend = DyingBackend(session.backend, k)
        opened.append(session)
        return session

    calls = []
    components = _recording_golden_components(tmp_path / "crashed.jsonl", calls)
    components.sessions = SessionProvider(open_dying_first)
    with contextlib.closing(components.client):
        crashed = run_problem(problem, policy, components, seed)
    components.sessions.close()
    assert len(opened) == 2 and crashed.infra_error is None
    assert _sans_wall_ms([crashed]) == _sans_wall_ms([clean])
    # one endpoint call for the drafts and one per sketch request, as in the clean run
    requested = sum(a.failure_stage is not FailureStage.DRAFT for a in clean.attempts)
    assert len(calls) == 1 + requested and sorted(calls) == sorted(clean_calls)
    assert (tmp_path / "crashed.jsonl").read_bytes() == (tmp_path / "clean.jsonl").read_bytes()


def test_direct_baseline_single_attempt(problems):
    components = _golden_components()
    results = [run_problem_direct(p, components) for p in problems]
    assert all(len(r.attempts) == 1 for r in results)
    solved = {r.problem_id for r in results if r.solved}
    assert solved == {
        "algebra_g01", "algebra_g03", "numbertheory_g01",
        "algebra_t01", "numbertheory_gcd_consecutive",
    }


@pytest.mark.parametrize(
    "statement, stage, parse_ok",
    [
        ('theorem broken:\n  fixes x\n  shows "x = 40 - 7"', FailureStage.PARSE, False),
        ('theorem t.sorry: shows "x = 40 - 7"', FailureStage.VERIFY, True),  # the name trips the gate
        ('theorem t: shows "x = 40 - 7" sorry', None, True),  # its own proof is not used
        ('theorem t: shows "x = 40 - 7"', None, True),
        ('theorem t: shows "x = 41"', FailureStage.PROVE, True),
    ],
)
def test_direct_baseline_records_one_attempt_per_statement(tmp_path, statement, stage, parse_ok):
    components = _components(tmp_path, lambda i: GOOD_SKETCH)
    result = run_problem_direct(_statement_problem(statement), components)
    (record,) = result.attempts
    assert (record.failure_stage, record.parse_ok, record.wall_ms) == (stage, parse_ok, 0)
    assert record.success == (stage is None) and result.infra_error is None


def _statement_problem(statement):
    return Problem(
        id="p", split=Split.VALID, category=Category.ALGEBRA, informal_statement="s",
        informal_proof=None, formal_statement=statement,
    )


_CLOSES_THIRD_TACTIC = {"match": {"kind": "exact", "pattern": "x = 40 - 7"}, "outcome": {"kind": "tactic", "index": 2}}


def test_direct_baseline_wall_ms_is_the_provers_time(tmp_path):
    script = minimal_script(rules=[_CLOSES_THIRD_TACTIC], latency={"step_ms": 7, "hammer_ms": 40})
    components = _components(tmp_path, lambda i: GOOD_SKETCH, script=script)
    closed = run_problem_direct(_statement_problem('theorem t: shows "x = 40 - 7"'), components)
    left_open = run_problem_direct(_statement_problem('theorem t: shows "x = 41"'), components)
    assert closed.attempts[0].success and closed.attempts[0].wall_ms == 3 * 7
    assert left_open.attempts[0].failure_stage is FailureStage.PROVE
    assert left_open.attempts[0].wall_ms == len(DEFAULT_TACTICS) * 7 + 40


def test_direct_baseline_rejected_final_check_records_verify(tmp_path):
    script = minimal_script(
        rules=[_CLOSES_THIRD_TACTIC], verify={"default": "accept", "reject_substrings": ["40 - 7"]}
    )
    components = _components(tmp_path, lambda i: GOOD_SKETCH, script=script)
    result = run_problem_direct(_statement_problem('theorem t: shows "x = 40 - 7"'), components)
    (record,) = result.attempts
    assert (record.failure_stage, record.gaps_total, record.gaps_closed) == (FailureStage.VERIFY, 1, 1)
    assert not result.solved and result.infra_error is None


def _dying_direct_prove(monkeypatch, deaths):
    """Patch the baseline's prover call to lose its session `deaths` times
    before it runs for real; returns the sessions it was handed."""
    import sketchprove.scheduler as scheduler_module

    real = scheduler_module.prove_sketch
    handed = []

    def flaky(session, ast):
        handed.append(session.session_id)
        if len(handed) <= deaths:
            session.state = scheduler_module.SessionState.DEAD
            raise SessionDead("injected")
        return real(session, ast)

    monkeypatch.setattr(scheduler_module, "prove_sketch", flaky)
    return handed


def test_direct_baseline_session_reopened_after_death(problems, monkeypatch):
    handed = _dying_direct_prove(monkeypatch, deaths=1)
    problem = next(p for p in problems if p.id == "algebra_g01")
    result = run_problem_direct(problem, _golden_components())
    assert result.infra_error is None and result.solved
    assert len(result.attempts) == 1
    assert len(handed) == 2 and len(set(handed)) == 2  # one replacement session


def test_direct_baseline_reopen_budget_exhausted(problems, monkeypatch):
    handed = _dying_direct_prove(monkeypatch, deaths=10)
    components = _golden_components()
    components.max_session_reopens = 1
    result = run_problem_direct(problems[0], components)
    assert not result.solved and result.attempts == ()
    assert result.infra_error is not None and "session lost" in result.infra_error
    assert len(handed) == 2  # the first try and one reopen

import contextlib
import dataclasses
import functools
import gc
import json
import random
import shlex
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import Future
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ast_gen import AstGen
from conftest import FIXTURES, RecordingBackend, memo_state_ids, minimal_script, recording
from oracle import run_reference
from sketchprove.harness import FailureStage, Problem, Split, export_records
from sketchprove.llm import (
    CacheMode,
    CompletionCache,
    CompletionClient,
    CompletionRequest,
    SamplingConfig,
    cache_key,
    sketch_preset,
)
from sketchprove.prompting import (
    Category,
    ExamplePool,
    MissingFullProof,
    PromptConfig,
    PromptMode,
    build_sketch_prompt,
    example_block,
    infer_category,
    load_pool,
    select_examples,
)
from sketchprove.prover import (
    DEFAULT_TACTICS,
    BackendReply,
    ExternalSpec,
    FullProofResult,
    ProverConfig,
    ProverSession,
    ProverState,
    ScriptedSpec,
    SessionDead,
    SessionState,
    WireBackend,
    open_session,
    prove_sketch,
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
    sample_drafts,
    sketch_request,
)
from sketchprove.sketch import SketchAst, count_gaps, parse_sketch, serialize


# -- plans ---------------------------------------------------------------------


def test_full_grid_plan():
    policy = BudgetPolicy(drafts_per_problem=25, sketches_per_draft=4, total_budget=100)
    plan = make_plan(policy, 0, "p")
    assert len(plan) == 100


def test_one_sketch_per_draft_plan():
    policy = BudgetPolicy(drafts_per_problem=100, sketches_per_draft=1, total_budget=100)
    plan = make_plan(policy, 0, "p")
    assert len(plan) == 100
    assert [d for d, _, _ in plan] == list(range(100))


def test_human_plan_single_draft():
    policy = BudgetPolicy(
        drafts_per_problem=1, sketches_per_draft=100, total_budget=100,
        draft_source=DraftSource.HUMAN,
    )
    plan = make_plan(policy, 0, "p")
    assert len(plan) == 100
    assert all(d == 0 for d, _, _ in plan)


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
    assert [(d, s) for d, s, _ in plan] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
    ]
    seeds = [seed for _, _, seed in plan]
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
        if payload["temperature"] > 0:  # sampled drafts; sketches are greedy
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


def _logging_sessions(components):
    """Gives `components` a session provider that logs each session it
    opens; returns that log."""
    opened = []
    factory = components.sessions._factory

    def open_one():
        opened.append(recording(factory()))
        return opened[-1]

    components.sessions = SessionProvider(open_one)
    return opened


def test_sketch_that_changes_the_theorem_never_reaches_the_prover(tmp_path):
    # with an assumption of False a real prover proves anything; this script
    # closes both gaps of the weakened sketch, so only the header check keeps
    # it from counting as a proof of the problem
    weakened = GOOD_SKETCH.replace('"x + 7 = 40"\n', '"x + 7 = 40" and h1: "False"\n')
    assert weakened != GOOD_SKETCH
    script = minimal_script(
        rules=[
            {"match": {"kind": "exact", "pattern": "x = 40 - 7"}, "outcome": {"kind": "tactic", "index": 0}},
            {"match": {"kind": "exact", "pattern": "?thesis"}, "outcome": {"kind": "hammer", "step": "by (metis c0)"}},
        ],
        latency={"step_ms": 5000, "hammer_ms": 5000},
    )
    components = _components(tmp_path, lambda i: weakened, script=script)
    proved = prove_sketch(components.sessions.get(), parse_sketch(weakened))
    components.sessions.close()
    assert isinstance(proved, FullProofResult)
    opened = _logging_sessions(components)
    policy = BudgetPolicy(drafts_per_problem=2, sketches_per_draft=1, stop_on_first_success=False)
    result = run_problem(_problem(), policy, components)
    assert [a.failure_stage for a in result.attempts] == [FailureStage.VERIFY] * 2
    assert all(a.parse_ok and a.gaps_total == 2 and a.gaps_closed == 0 for a in result.attempts)
    assert all(a.wall_ms < 5000 for a in result.attempts)  # no prover time
    assert not opened


def _counting(monkeypatch, name, arg):
    """Wraps `sketchprove.scheduler.<name>` to log its argument `arg` of
    each call; returns that log."""
    import sketchprove.scheduler as scheduler_module

    calls = []
    real = getattr(scheduler_module, name)

    def counting(*args):
        calls.append(args[arg])
        return real(*args)

    monkeypatch.setattr(scheduler_module, name, counting)
    return calls


def test_each_distinct_completion_is_parsed_once_per_problem(tmp_path, monkeypatch):
    import sketchprove.scheduler as scheduler_module

    broken = "theorem broken((( nope"
    weakened = GOOD_SKETCH.replace('"x + 7 = 40"\n', '"x + 7 = 40" and h1: "False"\n')
    texts = [BAD_SKETCH, broken, BAD_SKETCH, GOOD_SKETCH, broken, weakened, GOOD_SKETCH, weakened]
    policy = BudgetPolicy(drafts_per_problem=8, sketches_per_draft=1, stop_on_first_success=False)
    runs = {}
    for name in ("every", "once"):
        (tmp_path / name).mkdir()
        components = _components(tmp_path / name, texts.__getitem__)
        with monkeypatch.context() as patch:
            parsed = _counting(patch, "parse_sketch", 0)
            proved = _counting(patch, "prove_sketch", 1)
            if name == "every":
                # the reference: a fresh parse for every attempt
                real = scheduler_module._run_attempt
                patch.setattr(scheduler_module, "_run_attempt", lambda *args: real(*args[:-1], {}))
            with contextlib.closing(components.client):
                result = run_problem(_problem(), policy, components)
            components.sessions.close()
        runs[name] = _sans_wall_ms([result])
        assert len(proved) == 4  # every attempt that passes the statement gate
        if name == "once":
            assert sorted(text for text in parsed if text in texts) == sorted(set(texts))
    assert runs["once"] == runs["every"]
    assert [a.failure_stage for a in result.attempts] == [
        FailureStage.PROVE, FailureStage.PARSE, FailureStage.PROVE, None,
        FailureStage.PARSE, FailureStage.VERIFY, None, FailureStage.VERIFY,
    ]
    assert [a.parse_ok for a in result.attempts] == [t != broken for t in texts]
    assert [a.gaps_total for a in result.attempts] == [0 if t == broken else 2 for t in texts]


def _mutated_header(header, mutation):
    """`header` with one change that makes it state another theorem."""
    assumes = header.assumes
    if mutation == "drop_assumption" and assumes:
        return dataclasses.replace(header, assumes=assumes[:-1])
    if mutation == "edit_assumption" and assumes:
        label, prop = assumes[-1]
        return dataclasses.replace(header, assumes=assumes[:-1] + ((label, prop + " + 1"),))
    if mutation == "edit_shows":
        return dataclasses.replace(header, shows=header.shows + " + 1")
    if mutation == "rename":
        return dataclasses.replace(header, name=(header.name or "thm") + "_renamed")
    return dataclasses.replace(header, assumes=assumes + (("h_extra", "False"),))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(["drop_assumption", "add_assumption", "edit_assumption", "edit_shows", "rename"]),
)
def test_a_sketch_with_a_mutated_header_is_refused_without_a_backend_call(seed, mutation):
    ast = AstGen(seed).sketch()
    statement = serialize(SketchAst(ast.header, (), None))
    assert parse_sketch(statement).header == ast.header
    mutated = dataclasses.replace(ast, header=_mutated_header(ast.header, mutation))
    sketch = serialize(mutated)
    assert parse_sketch(sketch).header == mutated.header != ast.header
    with tempfile.TemporaryDirectory() as work:
        components = _components(Path(work), lambda i: sketch)
        opened = _logging_sessions(components)
        policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=1)
        problem = dataclasses.replace(_problem(), formal_statement=statement)
        [record] = run_problem(problem, policy, components).attempts
    assert record.failure_stage is FailureStage.VERIFY and record.parse_ok
    assert record.gaps_total == count_gaps(mutated) and record.gaps_closed == 0
    assert not opened


def test_a_statement_that_does_not_parse_refuses_every_sketch(tmp_path):
    components = _components(tmp_path, lambda i: GOOD_SKETCH)
    opened = _logging_sessions(components)
    policy = BudgetPolicy(drafts_per_problem=2, sketches_per_draft=1, stop_on_first_success=False)
    problem = dataclasses.replace(_problem(), formal_statement="theorem algebra_sched((( nope")
    result = run_problem(problem, policy, components)
    assert [a.failure_stage for a in result.attempts] == [FailureStage.VERIFY] * 2
    assert all(a.parse_ok and a.gaps_total == 2 for a in result.attempts)
    assert not opened


def test_draft_shortfall_recorded(tmp_path):
    drafts = ["same draft", "same draft", "other draft", "same draft", "same draft"]
    components = _components(tmp_path, lambda i: GOOD_SKETCH, drafts=drafts)
    policy = BudgetPolicy(drafts_per_problem=5, sketches_per_draft=1, stop_on_first_success=False)
    result = run_problem(_problem(), policy, components)
    # only two unique drafts survive dedup
    stages = [a.failure_stage for a in result.attempts]
    assert stages[:2] == [None, None]
    assert stages[2:] == [FailureStage.DRAFT] * 3
    assert sum(a.failure_stage is FailureStage.DRAFT for a in result.attempts) == 3


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
        opened.append(session)
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


class _LateCallbacks(Future):
    """A future that keeps its done-callbacks until they are run by hand: a
    completed future wakes the thread waiting on it before it runs them."""

    def __init__(self):
        super().__init__()
        self.callbacks = []

    def add_done_callback(self, fn):
        self.callbacks.append(fn)


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_a_draft_callback_that_runs_after_the_worker_took_entry_0_starts_no_extra_sketch(
    tmp_path, max_in_flight
):
    components = _components(tmp_path, lambda i: GOOD_SKETCH, max_in_flight=max_in_flight)
    client = components.client
    real_submit, real_collect = client.submit, client.collect
    draft, submitted = _LateCallbacks(), []

    def submit(build):
        future = real_submit(build)
        submitted.append(future)
        if len(submitted) > 1:
            return future
        draft.set_result(future.result())  # the draft request, done at once
        return draft

    def collect(build, future):
        if future is not draft:  # the worker has taken entry 0: now the callback runs
            callbacks, draft.callbacks = draft.callbacks, []
            for fn in callbacks:
                fn(draft)
        return real_collect(build, future)

    client.submit, client.collect = submit, collect
    policy = BudgetPolicy(drafts_per_problem=2, sketches_per_draft=4, stop_on_first_success=True)
    with contextlib.closing(client):
        result = run_problem(_problem(), policy, components)
    assert result.first_success_index == 0
    assert not draft.callbacks  # it ran
    assert len(submitted) - 1 == 1 + max_in_flight  # sketch requests: entries 0 to max_in_flight


def test_endpoint_error_on_a_sketch_fetched_ahead_fails_that_attempt_only(tmp_path):
    components = _components(
        tmp_path, lambda i: (403, {"error": "refused"}) if i == 2 else BAD_SKETCH
    )
    policy = BudgetPolicy(drafts_per_problem=4, sketches_per_draft=1, stop_on_first_success=False)
    assert components.client.max_in_flight >= 2  # attempt 2 is requested while attempt 0 is proved
    with contextlib.closing(components.client):
        result = run_problem(_problem(), policy, components)
    assert result.infra_error is None
    assert [a.failure_stage for a in result.attempts] == [
        FailureStage.PROVE, FailureStage.PROVE, FailureStage.INFRA, FailureStage.PROVE,
    ]


# -- draft requests started one problem ahead ------------------------------------------


def _ahead_run(tmp_path, count, answer=None, **client_options):
    """`count` problems, components around a record-mode transport that
    logs each call as (kind, problem id) and answers with `answer(kind,
    pid)` when that gives an (HTTP status, body) pair, else with two drafts
    or the problem's good sketch, and that log."""
    problems = [
        dataclasses.replace(
            _problem(f"algebra_ahead{i}"),
            informal_statement=f"[algebra_ahead{i}] Given x + 7 = 40, find x.",
        )
        for i in range(count)
    ]
    calls = []
    components = _components(tmp_path, lambda i: GOOD_SKETCH, **client_options)

    def transport(url, headers, payload, timeout_s):
        prompt = payload["prompt"]
        pid = next(p.id for p in problems if f"[{p.id}]" in prompt)
        kind = "draft" if prompt.rstrip().endswith("Proof:") else "sketch"
        calls.append((kind, pid))
        answered = answer(kind, pid) if answer is not None else None
        if answered is not None:
            return answered
        if kind == "draft":
            return 200, {"choices": [{"text": f"draft {j}"} for j in range(payload["n"])]}
        return 200, {"choices": [{"text": GOOD_SKETCH.replace("algebra_sched", pid)}]}

    components.client.transport = transport
    return problems, components, calls


def test_next_problems_draft_and_first_sketch_start_while_this_one_is_proved(tmp_path, monkeypatch):
    # the gate: problem 0's last proof waits until problem 1's first sketch
    # request has reached the transport, which it can only do ahead of time
    import sketchprove.scheduler as scheduler_module

    reached = threading.Event()

    def answer(kind, pid):
        if (kind, pid) == ("sketch", "algebra_ahead1"):
            reached.set()

    problems, components, calls = _ahead_run(tmp_path, 2, answer=answer)
    policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=2, stop_on_first_success=False)
    real = scheduler_module._prove_attempt
    gated = []

    def prove(problem_id, entry, *rest):
        if (problem_id, entry[:2]) == ("algebra_ahead0", (0, 1)):
            gated.append(reached.wait(10))
            calls.append(("proved last", problem_id))
        return real(problem_id, entry, *rest)

    monkeypatch.setattr(scheduler_module, "_prove_attempt", prove)
    with contextlib.closing(components.client):
        results = run_experiment(problems, policy, components, parallelism=1)
    assert gated == [True]
    last = calls.index(("proved last", "algebra_ahead0"))
    first_sketch = calls.index(("sketch", "algebra_ahead1"))
    assert calls.index(("draft", "algebra_ahead1")) < first_sketch < last
    assert [r.solved for r in results] == [True, True]
    assert [len(r.attempts) for r in results] == [2, 2]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("max_in_flight", [1, 3])
def test_early_stop_bounds_each_problems_sketch_requests_in_a_run(tmp_path, jobs, max_in_flight):
    problems, components, calls = _ahead_run(tmp_path, 4, max_in_flight=max_in_flight)
    policy = BudgetPolicy(drafts_per_problem=5, sketches_per_draft=2, stop_on_first_success=True)
    with contextlib.closing(components.client):
        results = run_experiment(problems, policy, components, parallelism=jobs)
    assert [r.first_success_index for r in results] == [0] * 4
    for problem in problems:
        assert calls.count(("draft", problem.id)) == 1
        assert 1 <= calls.count(("sketch", problem.id)) <= 1 + max_in_flight


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_without_early_stop_a_problems_whole_plan_is_requested_while_its_first_attempt_is_proved(
    tmp_path, monkeypatch, jobs, max_in_flight
):
    # each problem's first proof waits until the transport has seen every
    # sketch request of its plan: with no early stop, no request waits for
    # an earlier completion to be consumed
    import sketchprove.scheduler as scheduler_module

    count, planned = 3, 6  # more entries than 1 + max_in_flight
    requested = {f"algebra_ahead{i}": threading.Event() for i in range(count)}

    def answer(kind, pid):
        if kind == "sketch" and calls.count((kind, pid)) == planned:
            requested[pid].set()

    problems, components, calls = _ahead_run(tmp_path, count, answer=answer, max_in_flight=max_in_flight)
    policy = BudgetPolicy(drafts_per_problem=2, sketches_per_draft=3, stop_on_first_success=False)
    real = scheduler_module._prove_attempt
    gated = []

    def prove(problem_id, entry, *rest):
        if entry[:2] == (0, 0):
            gated.append(requested[problem_id].wait(5))
        return real(problem_id, entry, *rest)

    monkeypatch.setattr(scheduler_module, "_prove_attempt", prove)
    with contextlib.closing(components.client):
        results = run_experiment(problems, policy, components, parallelism=jobs)
    assert gated == [True] * count
    assert [len(r.attempts) for r in results] == [planned] * count
    assert all(a.success for r in results for a in r.attempts)
    for problem in problems:
        assert calls.count(("sketch", problem.id)) == planned


def test_failed_draft_of_a_problem_started_ahead_aborts_only_that_problem(tmp_path):
    def answer(kind, pid):
        if (kind, pid) == ("draft", "algebra_ahead1"):
            return 403, {"error": "refused"}

    problems, components, calls = _ahead_run(tmp_path, 3, answer=answer)
    policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=2, stop_on_first_success=False)
    with contextlib.closing(components.client):
        results = run_experiment(problems, policy, components, parallelism=1)
    assert [r.solved for r in results] == [True, False, True]
    assert results[1].attempts == () and results[1].infra_error.startswith("draft stage: ")
    assert infra_failures(results) == {"algebra_ahead1": results[1].infra_error}
    assert ("draft", "algebra_ahead1") in calls and ("sketch", "algebra_ahead1") not in calls


@pytest.mark.parametrize("body", [{"choices": []}, ["not an object"], {"choices": [{"text": None}]}])
@pytest.mark.parametrize("kind", ["draft", "sketch"])
def test_a_malformed_reply_is_an_infrastructure_failure(tmp_path, kind, body):
    problems, components, calls = _ahead_run(
        tmp_path, 1, answer=lambda k, pid: (200, body) if k == kind else None
    )
    policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=2, stop_on_first_success=False)
    with contextlib.closing(components.client):
        [result] = run_experiment(problems, policy, components)
    if kind == "draft":
        assert result.attempts == ()
        assert result.infra_error.startswith("draft stage: endpoint returned 200: malformed reply")
    else:
        assert result.infra_error is None
        assert [a.failure_stage for a in result.attempts] == [FailureStage.INFRA] * 2
    # a malformed reply is not retried
    sketches = 2 if kind == "sketch" else 0
    assert calls == [("draft", "algebra_ahead0")] + [("sketch", "algebra_ahead0")] * sketches


def test_a_run_that_raises_cancels_the_requests_it_started_ahead(tmp_path, monkeypatch):
    # one request slot: problem 0's second sketch request holds it on a gate,
    # so problem 1's first sketch window stays queued when the run raises
    import sketchprove.scheduler as scheduler_module

    held, gate = threading.Event(), threading.Event()

    def answer(kind, pid):
        if (kind, pid) == ("sketch", "algebra_ahead0") and calls.count((kind, pid)) == 2:
            held.set()
            gate.wait(10)
        return None

    def hold_then_fail(problem_id, *rest):
        assert held.wait(10)
        raise RuntimeError("prover blew up")

    problems, components, calls = _ahead_run(tmp_path, 3, answer=answer, max_in_flight=1)
    monkeypatch.setattr(scheduler_module, "_prove_attempt", hold_then_fail)
    policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=2, stop_on_first_success=False)
    threads = set(threading.enumerate())
    try:
        with pytest.raises(RuntimeError, match="prover blew up"):
            run_experiment(problems, policy, components, parallelism=1)
    finally:
        gate.set()
    # the slot serves requests in order: once this one is answered, each
    # request queued before it has run or was cancelled
    sample_drafts(components.client, problems[2], 1)
    components.client.close()
    assert calls[-1] == ("draft", "algebra_ahead2")
    assert sorted(calls[:-1]) == [
        ("draft", "algebra_ahead0"), ("draft", "algebra_ahead1"),
        ("sketch", "algebra_ahead0"), ("sketch", "algebra_ahead0"),
    ]
    assert set(threading.enumerate()) <= threads


def test_a_problem_that_loses_its_session_cancels_the_requests_queued_behind_a_held_slot(
    tmp_path, monkeypatch
):
    # one request slot: the problem's second sketch request holds it on a
    # gate while the first attempt's session is lost past the reopen
    # budget, so the rest of the plan is still queued when the problem aborts
    import sketchprove.scheduler as scheduler_module

    held, gate = threading.Event(), threading.Event()

    def answer(kind, pid):
        if (kind, pid) == ("sketch", "algebra_ahead0") and calls.count((kind, pid)) == 2:
            held.set()
            gate.wait(10)
        return None

    def always_dead(session, ast):
        assert held.wait(10)
        session.state = SessionState.DEAD
        raise SessionDead("injected")

    problems, components, calls = _ahead_run(tmp_path, 2, answer=answer, max_in_flight=1)
    components.max_session_reopens = 1
    monkeypatch.setattr(scheduler_module, "prove_sketch", always_dead)
    policy = BudgetPolicy(drafts_per_problem=2, sketches_per_draft=2, stop_on_first_success=False)
    threads = set(threading.enumerate())
    try:
        [result] = run_experiment(problems[:1], policy, components)
    finally:
        gate.set()
    assert result.attempts == () and result.infra_error.startswith("prover session lost: ")
    assert infra_failures([result]) == {"algebra_ahead0": result.infra_error}
    # the slot serves requests in order: once this one is answered, each
    # request queued before it has run or was cancelled
    sample_drafts(components.client, problems[1], 1)
    components.client.close()
    assert calls == [("draft", "algebra_ahead0")] + [("sketch", "algebra_ahead0")] * 2 + [
        ("draft", "algebra_ahead1")
    ]
    # two drafts, the one sketch collected and the last draft: the held
    # sketch's answer was dropped
    assert len(CompletionCache(tmp_path / "cache.jsonl")) == 2 + 1 + 1
    assert set(threading.enumerate()) <= threads


def test_a_plan_over_budget_starts_no_request_ahead(tmp_path):
    problems, components, calls = _ahead_run(tmp_path, 3)
    policy = BudgetPolicy(drafts_per_problem=5, sketches_per_draft=2, total_budget=1)
    with contextlib.closing(components.client), pytest.raises(BudgetExceeded):
        run_experiment(problems, policy, components, parallelism=2)
    assert calls == []


def test_each_problems_first_proof_sees_the_drafts_of_the_window_ahead_and_every_queue_closes(
    tmp_path, monkeypatch
):
    # one worker: when problem i is first proved, draft requests have been
    # submitted for problems 0 to i + 1 (the last problem has none after
    # it); once the run returns, every queue it made has been closed
    import sketchprove.scheduler as scheduler_module

    count = 6
    problems, components, _ = _ahead_run(tmp_path, count)
    policy = BudgetPolicy(drafts_per_problem=1, sketches_per_draft=2, stop_on_first_success=False)
    drafted, seen, made, closed = set(), {}, [], []
    real_submit, real_prove = CompletionClient.submit, scheduler_module._prove_attempt
    real_init, real_close = scheduler_module._ProblemQueue.__init__, scheduler_module._ProblemQueue.close

    def submit(client, build):
        if getattr(build, "func", None) is scheduler_module.draft_request:
            drafted.add(problems.index(build.args[0]))
        return real_submit(client, build)

    def prove(problem_id, entry, *rest):
        seen.setdefault(int(problem_id.removeprefix("algebra_ahead")), set(drafted))
        return real_prove(problem_id, entry, *rest)

    def init(queue, *args, **kwargs):
        made.append(queue)
        real_init(queue, *args, **kwargs)

    def close(queue):
        closed.append(queue)
        real_close(queue)

    monkeypatch.setattr(CompletionClient, "submit", submit)
    monkeypatch.setattr(scheduler_module, "_prove_attempt", prove)
    monkeypatch.setattr(scheduler_module._ProblemQueue, "__init__", init)
    monkeypatch.setattr(scheduler_module._ProblemQueue, "close", close)
    with contextlib.closing(components.client):
        results = run_experiment(problems, policy, components, parallelism=1)
    assert [r.solved for r in results] == [True] * count
    assert seen == {i: set(range(min(i + 2, count))) for i in range(count)}
    assert len(made) == count and set(map(id, closed)) == set(map(id, made))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_a_sketch_prompt_is_built_only_when_an_endpoint_slot_sends_it(
    tmp_path, monkeypatch, jobs, max_in_flight
):
    # with no early stop every entry of the plan is requested at once, but
    # the transport holds every call from the first sketch request on: each
    # slot then holds at most one built prompt, and the others wait unbuilt
    import sketchprove.scheduler as scheduler_module

    held, gate = threading.Event(), threading.Event()

    def answer(kind, pid):
        if kind == "sketch":
            held.set()
        if held.is_set():
            gate.wait(10)

    built = []
    real_build = scheduler_module.build_sketch_prompt

    def counting_build(*args):
        built.append(None)
        return real_build(*args)

    monkeypatch.setattr(scheduler_module, "build_sketch_prompt", counting_build)
    problems, components, calls = _ahead_run(tmp_path, 2, answer=answer, max_in_flight=max_in_flight)
    policy = BudgetPolicy(drafts_per_problem=2, sketches_per_draft=3, stop_on_first_success=False)
    results = []
    run = threading.Thread(
        target=lambda: results.extend(run_experiment(problems, policy, components, parallelism=jobs))
    )
    run.start()
    try:
        assert held.wait(10)
        time.sleep(0.2)  # time for a worker to start the whole plan
        assert 1 <= len(built) <= max_in_flight
    finally:
        gate.set()
        run.join(10)
        components.client.close()
    assert not run.is_alive()
    assert [len(r.attempts) for r in results] == [6, 6]
    assert all(a.success for r in results for a in r.attempts)
    assert len(built) == sum(kind == "sketch" for kind, _ in calls) == 12


@pytest.mark.parametrize("mode", [PromptMode.NO_COMMENTS, PromptMode.NO_INFORMAL_PROOF])
def test_an_ablation_run_parses_each_pool_example_once_and_sends_the_prompts_it_did(
    tmp_path, monkeypatch, mode
):
    # the prompts a per-request rewrite of each shown example builds, from
    # the same plans and drafts, made before parse_sketch is counted
    import sketchprove.prompting as prompting_module

    problems = [_problem(f"algebra_ablation{i}") for i in range(8)]
    policy = BudgetPolicy(drafts_per_problem=2, sketches_per_draft=3, stop_on_first_success=False)
    components = _components(tmp_path, lambda i: BAD_SKETCH, mode=mode)
    config = components.prompt_config
    drafts = ["first draft", "second draft"] if mode is PromptMode.NO_COMMENTS else [""]
    expected = []
    for problem in problems:
        for d, _, seed in make_plan(policy, 0, problem.id)[: 3 * len(drafts)]:
            examples = select_examples(
                components.pool, problem.id, infer_category(problem.id), config, random.Random(seed)
            )
            shown = [example_block(q, mode) for q in examples]
            expected.append(build_sketch_prompt(shown, problem, drafts[d], config))
    parsed, sent = [], []
    real_parse = prompting_module.parse_sketch
    monkeypatch.setattr(prompting_module, "parse_sketch", lambda text: parsed.append(text) or real_parse(text))

    def transport(url, headers, payload, timeout_s):
        if payload["temperature"] > 0:
            return 200, {"choices": [{"text": text} for text in drafts[: payload["n"]]]}
        sent.append(payload["prompt"])
        return 200, {"choices": [{"text": BAD_SKETCH}]}

    # eight workers, more than the cores, with frequent thread switches: two
    # that both found an example missing from the pool's table would parse it twice
    components.client.transport = transport
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with contextlib.closing(components.client):
            run = threading.Thread(target=run_experiment, args=(problems, policy, components, 8), daemon=True)
            run.start()
            run.join(timeout=60)
            assert not run.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(sent) == sorted(expected)
    sketches = {q.formal_sketch for q in components.pool.quads}
    assert set(parsed) <= sketches and max(Counter(parsed).values()) == 1


def test_an_entry_whose_examples_lack_a_full_proof_records_prompt_build_and_sends_nothing(tmp_path):
    calls = []
    components = _components(
        tmp_path, lambda i: GOOD_SKETCH, mode=PromptMode.FULL_PROOF, sketch_calls=calls
    )
    missing = {"algebra_sqdiff_factor", "algebra_geosum_seven"}  # two of ten algebra examples
    components.pool = ExamplePool(tuple(
        dataclasses.replace(q, full_proof=None) if q.id in missing else q
        for q in components.pool.quads
    ))
    policy = BudgetPolicy(drafts_per_problem=4, sketches_per_draft=2, stop_on_first_success=False)
    plan = make_plan(policy, 0, "algebra_sched")

    def buildable(entry):
        try:
            sketch_request(
                components.pool, _problem(), "draft", components.prompt_config, entry[2], "default"
            )
        except MissingFullProof:
            return False
        return True

    expected = [None if buildable(entry) else FailureStage.PROMPT_BUILD for entry in plan]
    assert None in expected and FailureStage.PROMPT_BUILD in expected
    with contextlib.closing(components.client):
        recorded = run_problem(_problem(), policy, components)
    assert [a.failure_stage for a in recorded.attempts] == expected
    assert len(calls) == expected.count(None)  # one request per buildable entry

    # replayed from the cache the record run wrote
    components.client = CompletionClient(
        mode=CacheMode.REPLAY, cache=CompletionCache(tmp_path / "cache.jsonl")
    )
    replayed = run_problem(_problem(), policy, components)
    components.sessions.close()
    assert _sans_wall_ms([replayed]) == _sans_wall_ms([recorded])


def test_two_runs_parse_each_formal_statement_once(problems, golden_config, monkeypatch):
    import sketchprove.scheduler as scheduler_module

    parsed = _counting(monkeypatch, "parse_sketch", 0)
    scheduler_module._statement_header.cache_clear()
    policy, seed = _golden_policy(golden_config), golden_config["seed"]
    run_experiment(problems, policy, _golden_components(), 1, seed)
    run_experiment(problems, policy, _golden_components(), 1, seed)
    run_experiment(problems, None, _golden_components())
    statements = {p.formal_statement for p in problems}
    assert sorted(text for text in parsed if text in statements) == sorted(statements)


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
def test_golden_replay_backend_calls_stay_memoised(tmp_path, problems, golden_config, monkeypatch, jobs):
    # 190 sketches are proved, but the session memo (keyed by each gap's
    # base and segment) answers the prover work that recurs across a
    # problem's attempts: a key that lost hits would send more runs,
    # contexts or commands, and one that found false hits fewer. Without
    # the memo the golden replay sends 3,420 commands
    import sketchprove.prover.driver as driver

    opened, runs = [], []  # list.append is atomic under 8 jobs
    real_close = driver.close_gap

    def counting_close(session, contexts, base=None):
        runs.append(len(contexts))
        return real_close(session, contexts, base)

    def open_recorded():
        opened.append(recording(_open_golden_session()))
        return opened[-1]

    monkeypatch.setattr(driver, "close_gap", counting_close)
    proved = _counting(monkeypatch, "prove_sketch", 1)
    components = _golden_components()
    components.sessions = SessionProvider(open_recorded)
    results = run_experiment(problems, _golden_policy(golden_config), components, jobs, golden_config["seed"])
    export_records(results, tmp_path / "records.jsonl")
    assert (tmp_path / "records.jsonl").read_bytes() == (FIXTURES / "golden" / "records.jsonl").read_bytes()
    sent = Counter(cmd for session in opened for cmd, _ in session.backend.calls if cmd != "quit")
    assert len(proved) == 190
    assert (len(runs), sum(runs), sent["check_full"]) == (27, 55, 16)
    # a run stops at the first gap that fails, so 44 of the 55 contexts are replayed
    assert sent == {"init": 27, "resume": 17, "step": 402, "hammer": 31, "check_full": 16}


def test_golden_replay_renders_each_theorem_header_once(problems, golden_config, monkeypatch):
    # 190 sketches are proved, and every one states its problem's theorem:
    # the session memo renders that header once, not once per sketch
    import sketchprove.prover.driver as driver_module
    import sketchprove.sketch.render as render_module

    rendered = []
    real = render_module.render_header

    def counting(header):
        rendered.append(header)
        return real(header)

    # where the memo renders a header, and where a whole sketch is rendered
    monkeypatch.setattr(driver_module, "render_header", counting)
    monkeypatch.setattr(render_module, "render_header", counting)
    proved = _counting(monkeypatch, "prove_sketch", 1)
    run_experiment(problems, _golden_policy(golden_config), _golden_components(), 1, golden_config["seed"])
    assert len(proved) == 190
    assert len(rendered) == len(problems) == 20
    assert rendered == [parse_sketch(problem.formal_statement).header for problem in problems]


@pytest.mark.parametrize("jobs", [1, 8])
def test_golden_replay_parses_each_distinct_sketch_once_per_problem(problems, golden_config, monkeypatch, jobs):
    # the fixture corpus repeats texts: 194 sketch completions, 29 distinct
    # within their problems; formal statements are parsed apart, once each
    parsed = _counting(monkeypatch, "parse_sketch", 0)
    run_experiment(problems, _golden_policy(golden_config), _golden_components(), jobs, golden_config["seed"])
    statements = {p.formal_statement for p in problems}
    assert len([text for text in parsed if text not in statements]) <= 29


@pytest.mark.parametrize("jobs", [1, 8])
def test_an_early_stop_golden_replay_builds_one_sketch_prompt_per_sketch_attempt_it_records(
    problems, golden_config, monkeypatch, jobs
):
    # replay builds a prompt when its entry is collected, so the entries
    # started ahead of a success build none
    built = _counting(monkeypatch, "build_sketch_prompt", 1)
    policy = dataclasses.replace(_golden_policy(golden_config), stop_on_first_success=True)
    results = run_experiment(problems, policy, _golden_components(), jobs, golden_config["seed"])
    attempts = [a for r in results for a in r.attempts]
    sketched = [
        a.problem_id for a in attempts
        if a.failure_stage not in (FailureStage.DRAFT, FailureStage.NOT_RUN)
    ]
    assert any(a.failure_stage is FailureStage.NOT_RUN for a in attempts)
    assert sorted(problem.id for problem in built) == sorted(sketched)


@pytest.mark.parametrize("jobs", [1, 8])
def test_golden_replay_walks_a_proved_sketch_for_gaps_only_when_it_fails_at_a_gap(
    problems, golden_config, monkeypatch, jobs
):
    # `prove_sketch` counts a sketch's gaps from its render and walks the
    # tree for gap sites only to name the gap a proof fails at: once per
    # PROVE record, never for a proof that closes every gap; only a sketch
    # the header gate refuses is counted by the scheduler
    import sketchprove.prover.driver as driver
    import sketchprove.scheduler as scheduler

    walks = threading.local()  # the walks of the `prove_sketch` call on this thread
    proved, counted = [], []  # list.append is atomic under 8 jobs
    real_walk, real_prove, real_count = driver.extract_gaps, scheduler.prove_sketch, scheduler.count_gaps

    def counting_walk(ast):
        walks.n += 1
        return real_walk(ast)

    def counting_prove(session, ast):
        walks.n = 0
        outcome = real_prove(session, ast)
        proved.append((outcome, walks.n))
        return outcome

    def counting_count(ast):
        counted.append(None)
        return real_count(ast)

    monkeypatch.setattr(driver, "extract_gaps", counting_walk)
    monkeypatch.setattr(scheduler, "prove_sketch", counting_prove)
    monkeypatch.setattr(scheduler, "count_gaps", counting_count)
    results = run_experiment(problems, _golden_policy(golden_config), _golden_components(), jobs, golden_config["seed"])
    attempts = [record for result in results for record in result.attempts]
    at_a_gap = [walked for outcome, walked in proved if getattr(outcome, "failed_site", None)]
    otherwise = [walked for outcome, walked in proved if not getattr(outcome, "failed_site", None)]
    failed_to_prove = sum(record.failure_stage is FailureStage.PROVE for record in attempts)
    assert failed_to_prove > 0 and at_a_gap == [1] * failed_to_prove
    assert any(isinstance(outcome, FullProofResult) for outcome, _ in proved)
    assert otherwise == [0] * len(otherwise)
    assert len(counted) + len(proved) == sum(record.parse_ok for record in attempts)


@pytest.mark.parametrize("jobs", [1, 8])
def test_golden_replay_scans_each_proved_sketch_whole_once(
    problems, golden_config, monkeypatch, jobs
):
    # `prove_sketch` scans the rendered sketch for cheat words; its final
    # check scans only the closing steps it spliced in, never the whole
    # proof text again
    import sketchprove.prover.driver as driver
    import sketchprove.scheduler as scheduler

    calls = {"whole": [], "steps": [], "prove_sketch": []}
    real_scan, real_prove = driver.check_no_cheat, scheduler.prove_sketch

    def counting_scan(text):
        calls["whole" if text.startswith("theorem") else "steps"].append(None)
        return real_scan(text)

    def counting_prove(*args):
        calls["prove_sketch"].append(None)
        return real_prove(*args)

    monkeypatch.setattr(driver, "check_no_cheat", counting_scan)
    monkeypatch.setattr(scheduler, "prove_sketch", counting_prove)
    run_experiment(problems, _golden_policy(golden_config), _golden_components(), jobs, golden_config["seed"])
    whole, steps, proved = (len(calls[name]) for name in ("whole", "steps", "prove_sketch"))
    assert proved > 0
    assert whole == proved
    assert steps > 0  # some sketches reached the final check


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
        return reply._replace(state_id="dead-" + reply.state_id)

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


def _answer(text):
    return 200, {"choices": [{"text": text}]}


# how a faulty endpoint answers a sketch request, given the completion it
# would have sent: with an error (neither is retried), or with a completion
# that does not parse, states another theorem or cheats
FAULTS = {
    "refused": lambda text: (403, {"error": "refused"}),
    "malformed": lambda text: (200, {"choices": []}),
    "unparsable": lambda text: _answer("theorem broken((( nope"),
    "other_theorem": lambda text: _answer(text.replace(":\n", "_renamed:\n", 1)),
    "cheat": lambda text: _answer(text.replace("sledgehammer", "sorry")),
}


def _fixture_endpoint(calls, faults=None):
    """A transport that answers as the endpoint that recorded the fixture
    cache did; appends each prompt it is sent to `calls`. `faults` maps the
    first hex digit of a sketch request's cache key to the name of the
    FAULTS answer that request gets instead, so a request fails by its
    content, whenever and on whichever thread it is sent."""
    fixture = CompletionCache(FIXTURES / "cache" / "completions.jsonl")

    def transport(url, headers, payload, timeout_s):
        calls.append(payload["prompt"])
        config = SamplingConfig(
            temperature=payload["temperature"], top_p=payload["top_p"],
            max_tokens=payload["max_tokens"], n=payload["n"], stop_sequences=tuple(payload["stop"]),
        )
        request = CompletionRequest(payload["prompt"], config)
        texts = [fixture.get(cache_key(request, i)) for i in range(config.n)]
        if faults and config == sketch_preset():
            fault = faults.get(cache_key(request, 0)[0])
            if fault is not None:
                return FAULTS[fault](texts[0])
        if None in texts:
            return 404, {"error": "not in the fixture cache"}
        return 200, {"choices": [{"text": text} for text in texts]}

    return transport


def _recording_golden_components(cache_path, calls, max_in_flight=4, faults=None):
    components = _golden_components()
    components.client = CompletionClient(
        endpoint_url="fixture://", mode=CacheMode.RECORD, cache=CompletionCache(cache_path),
        transport=_fixture_endpoint(calls, faults), max_in_flight=max_in_flight,
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


@pytest.fixture(scope="module")
def reference_runs():
    """The oracle's runs, by (early stop, faults): its results, calls and
    cache lines."""
    return {}


def _reference_run(runs, problems, golden_config, early_stop, faults):
    """The sequential oracle's run of the golden corpus against the fixture
    endpoint, made once per early-stop setting and fault plan. Its fresh
    session per attempt reads the prover script once."""
    import sketchprove.prover.driver as driver

    key = (early_stop, tuple(sorted((faults or {}).items())))
    if key not in runs:
        policy = dataclasses.replace(_golden_policy(golden_config), stop_on_first_success=early_stop)
        calls = []
        with contextlib.ExitStack() as stack:
            path = Path(stack.enter_context(tempfile.TemporaryDirectory())) / "reference.jsonl"
            stack.enter_context(
                mock.patch.object(driver, "load_script", functools.cache(driver.load_script))
            )
            components = _recording_golden_components(path, calls, faults=faults)
            with contextlib.closing(components.client):
                results = run_reference(
                    problems, policy, components.pool, components.client,
                    components.prompt_config, _open_golden_session, golden_config["seed"],
                )
            runs[key] = (results, calls, _cache_lines(path))
    return runs[key]


def _sketch_prompts_by_problem(calls, problems):
    """How many sketch prompts each problem sent: a prompt ends with its
    target's formal statement and the sketch cue."""
    ends = {p.id: f"{p.formal_statement.rstrip()}\n\nFormal Proof Sketch:\n" for p in problems}
    return {pid: sum(call.endswith(end) for call in calls) for pid, end in ends.items()}


def _assert_fetching_ahead_records_what_a_sequential_run_records(
    tmp_path, problems, golden_config, reference_runs, early_stop, jobs, max_in_flight,
    faults=None,
):
    # eight workers (more than the cores) share one client's pool and cache,
    # with frequent thread switches to expose a lost update; drafts and
    # first sketch requests are started ahead on the same pool, so with one
    # request slot a pool task that waited on another would deadlock, and
    # the join's timeout fails the test instead of hanging it. The reference
    # is the sequential oracle (tests/oracle.py): no request ahead, no parse
    # cache, a fresh prover session per attempt.
    policy = dataclasses.replace(_golden_policy(golden_config), stop_on_first_success=early_stop)
    runs = []

    def record():
        calls = []
        components = _recording_golden_components(
            tmp_path / "ahead.jsonl", calls, max_in_flight, faults
        )
        with contextlib.closing(components.client):
            results = run_experiment(problems, policy, components, jobs, golden_config["seed"])
        runs.append((_sans_wall_ms(results), calls, _cache_lines(tmp_path / "ahead.jsonl")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=record, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and runs
    finally:
        sys.setswitchinterval(interval)
    [(ahead, ahead_calls, ahead_cache)] = runs
    sequential, sequential_calls, sequential_cache = _reference_run(
        reference_runs, problems, golden_config, early_stop, faults
    )
    assert ahead == sequential
    assert infra_failures(ahead) == infra_failures(sequential)
    # the cache holds exactly the completions the records used, in plan order
    # when one worker runs the plan
    by_key = lambda lines: sorted(lines, key=lambda line: line["key"])  # noqa: E731
    assert (ahead_cache if jobs == 1 else by_key(ahead_cache)) == (
        sequential_cache if jobs == 1 else by_key(sequential_cache)
    )
    # a failed request leaves no cache line
    failed = sum(a.failure_stage is FailureStage.INFRA for r in sequential for a in r.attempts)
    assert len(sequential_calls) == (
        len(sequential_cache) - len(problems) * (golden_config["drafts"] - 1) + failed
    )
    if early_stop:
        assert set(ahead_calls) >= set(sequential_calls)
        # each problem requests at most `max_in_flight` sketches the records
        # do not use: `1 + max_in_flight` when its first attempt succeeds
        used = _sketch_prompts_by_problem(sequential_calls, problems)
        for pid, sent in _sketch_prompts_by_problem(ahead_calls, problems).items():
            assert sent <= used[pid] + max_in_flight
    else:
        assert sorted(ahead_calls) == sorted(sequential_calls)


@pytest.mark.parametrize("max_in_flight", [1, 4])
@pytest.mark.parametrize("jobs", [1, 8])
@pytest.mark.parametrize("early_stop", [False, True])
def test_fetching_ahead_records_what_a_sequential_run_records(
    tmp_path, problems, golden_config, reference_runs, early_stop, jobs, max_in_flight
):
    _assert_fetching_ahead_records_what_a_sequential_run_records(
        tmp_path, problems, golden_config, reference_runs, early_stop, jobs, max_in_flight
    )


@settings(max_examples=80, deadline=None)
@given(
    jobs=st.sampled_from([1, 2, 8]),
    max_in_flight=st.sampled_from([1, 4]),
    early_stop=st.booleans(),
    faults=st.dictionaries(st.sampled_from("0123456789abcdef"), st.sampled_from(sorted(FAULTS)), max_size=6),
)
def test_fetching_ahead_records_what_a_sequential_run_records_when_sketch_requests_fail(
    problems, golden_config, reference_runs, jobs, max_in_flight, early_stop, faults
):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_fetching_ahead_records_what_a_sequential_run_records(
            Path(tmp), problems, golden_config, reference_runs, early_stop, jobs, max_in_flight,
            faults,
        )


@pytest.mark.parametrize("early_stop", [False, True])
def test_a_run_leaves_no_reference_cycle_to_collect(tmp_path, problems, golden_config, early_stop):
    # a queue is freed when its problem ends, not at the next full garbage
    # collection: a cycle through its draft future's done-callback held
    # every queue of a run until then
    policy = dataclasses.replace(_golden_policy(golden_config), stop_on_first_success=early_stop)
    components = _recording_golden_components(tmp_path / "cache.jsonl", [])
    gc.collect()
    gc.disable()
    try:
        with contextlib.closing(components.client):
            run_experiment(problems, policy, components, 2, golden_config["seed"])
        assert gc.collect() == 0
    finally:
        gc.enable()


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
        handed.append(session)
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

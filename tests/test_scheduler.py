import json

import pytest

from conftest import FIXTURES, minimal_script
from sketchprove.harness import FailureStage, Problem, Split
from sketchprove.llm import CacheMode, CompletionCache, CompletionClient
from sketchprove.prompting import Category, PromptConfig, PromptMode, load_pool
from sketchprove.prover import BackendReply, ProverConfig, ScriptedSpec, SessionDead, open_session
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


def _components(tmp_path, sketch_by_draft, drafts=None, mode=PromptMode.FULL, script=None):
    """Record-mode components around a canned transport."""
    pool = load_pool(FIXTURES / "pool" / "examples.json")
    drafts = drafts or [f"draft variant {i}" for i in range(8)]

    def transport(url, headers, payload, timeout_s):
        prompt = payload["prompt"]
        if prompt.rstrip().endswith("Proof:"):
            return 200, {"choices": [{"text": t} for t in drafts[: payload["n"]]]}
        for i, text in enumerate(drafts):
            if text in prompt:
                return 200, {"choices": [{"text": sketch_by_draft(i)}]}
        raise AssertionError("prompt does not contain any canned draft")

    client = CompletionClient(
        endpoint_url="canned://x", mode=CacheMode.RECORD,
        cache=CompletionCache(tmp_path / "cache.jsonl"), transport=transport,
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


# -- experiment loop -----------------------------------------------------------------


def test_empty_problem_list():
    assert run_experiment([], None, None) == []  # type: ignore[arg-type]


def _golden_components():
    provider = SessionProvider(
        lambda: open_session(ScriptedSpec(str(FIXTURES / "prover" / "script.json")), ProverConfig())
    )
    return PipelineComponents(
        pool=load_pool(FIXTURES / "pool" / "examples.json"),
        client=CompletionClient(
            mode=CacheMode.REPLAY, cache=CompletionCache(FIXTURES / "cache" / "completions.jsonl")
        ),
        sessions=provider,
        prompt_config=PromptConfig(),
    )


def test_parallelism_invariance_on_golden_corpus(problems, golden_config):
    policy = BudgetPolicy(
        drafts_per_problem=golden_config["drafts"],
        sketches_per_draft=golden_config["sketches_per_draft"],
        total_budget=golden_config["budget"],
        stop_on_first_success=False,
    )
    seed = golden_config["seed"]
    sequential = run_experiment(problems, policy, _golden_components(), 1, seed)
    parallel = run_experiment(problems, policy, _golden_components(), 8, seed)
    assert sequential == parallel
    assert [r.problem_id for r in sequential] == [p.id for p in problems]


def test_direct_baseline_single_attempt(problems):
    components = _golden_components()
    results = [run_problem_direct(p, components) for p in problems]
    assert all(len(r.attempts) == 1 for r in results)
    solved = {r.problem_id for r in results if r.solved}
    assert solved == {
        "algebra_g01", "algebra_g03", "numbertheory_g01",
        "algebra_t01", "numbertheory_gcd_consecutive",
    }


def _dying_direct_prove(monkeypatch, deaths):
    """Patch the baseline's prover call to lose its session `deaths` times
    before it runs for real; returns the sessions it was handed."""
    import sketchprove.scheduler as scheduler_module

    real = scheduler_module.direct_prove
    handed = []

    def flaky(session, formal_statement):
        handed.append(session.session_id)
        if len(handed) <= deaths:
            session.state = scheduler_module.SessionState.DEAD
            raise SessionDead("injected")
        return real(session, formal_statement)

    monkeypatch.setattr(scheduler_module, "direct_prove", flaky)
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

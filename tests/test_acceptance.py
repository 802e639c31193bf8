"""Acceptance criteria, one test per criterion.

Each criterion runs inside a stopwatch pinned to its stated wall-clock cap
and prints one PASS/FAIL line. Live prover integration is opt-in (set
DSP_LIVE_PROVER to a wire-protocol address) and skipped by default.
"""

import json
import os
import random
import time
from contextlib import contextmanager

import pytest

from ast_gen import generate
from conftest import FIXTURES, minimal_script, recording
from sketchprove.harness import (
    CoverageError,
    budget_grid,
    cumulative_curve,
    export_records,
    import_attempts,
    import_records,
)
from sketchprove.llm import CacheMode, CompletionCache, CompletionClient
from sketchprove.prompting import (
    Category,
    PromptConfig,
    PromptMode,
    example_block,
    load_pool,
    select_examples,
    shown_sketch,
)
from sketchprove.prover import (
    Closed,
    Failed,
    Invalid,
    ProverConfig,
    ScriptedSpec,
    TimedOut,
    Valid,
    FullProofResult,
    close_gap,
    open_session,
    prove_sketch,
    verify_full,
)
from sketchprove.scheduler import (
    BudgetExceeded,
    BudgetPolicy,
    DraftSource,
    PipelineComponents,
    SessionProvider,
    baseline_sketch,
    make_plan,
    run_experiment,
)
from sketchprove.sketch import (
    StepNode,
    Tactic,
    count_gaps,
    extract_gaps,
    parse_sketch,
    render_segments,
    serialize,
    walk,
)


@contextmanager
def stopwatch(name: str, cap_s: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.monotonic() - started:.2f}s)")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < cap_s, f"{name} took {elapsed:.2f}s, cap is {cap_s}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {cap_s:.0f}s)")


# -- 1. grammar fidelity --------------------------------------------------------


def test_grammar_fidelity(sketch_files, fig2_text, fig3_text):
    with stopwatch("grammar-fidelity", 5.0):
        assert len(sketch_files) >= 20
        for path in sketch_files:
            ast = parse_sketch(path.read_text(encoding="utf-8"))
            assert parse_sketch(serialize(ast)) == ast, path.name

        fig2 = parse_sketch(fig2_text)
        assert len(extract_gaps(fig2)) == 7
        fig3 = parse_sketch(fig3_text)
        assert count_gaps(fig3) == 0
        tactic_steps = [
            node
            for _, node in walk(fig3)
            if isinstance(node, StepNode) and isinstance(node.justification, Tactic)
        ]
        assert len(tactic_steps) == 5

        for ast in generate(1000, seed=20_24):
            assert parse_sketch(serialize(ast)) == ast


# -- 2. cheat gate ----------------------------------------------------------------


def _fuzz_proofs(dirty_count: int, clean_count: int, seed: int):
    """(text, dirty) pairs: dirty texts carry a cheat keyword outside comments
    and strings, clean ones only inside them."""
    rng = random.Random(seed)
    cases = []
    keywords = ("sorry", "oops")
    flags = [True] * dirty_count + [False] * clean_count
    rng.shuffle(flags)
    for i, dirty in enumerate(flags):
        keyword = rng.choice(keywords)
        lines = [
            f'theorem fuzz{i}: shows "goal {i}"',
            "proof -",
            f'  have c0: "x + {i} = {i} + x" by auto',
            "  show ?thesis by blast",
            "qed",
        ]
        if dirty:
            spot = rng.randrange(4)
            if spot == 0:
                lines[2] = lines[2].replace("by auto", keyword)
            elif spot == 1:
                lines[3] = f"  show ?thesis {keyword}"
            elif spot == 2:
                lines.insert(3, f"  {keyword}")
            else:
                lines.insert(2, f"  (* attempt {i} *) {keyword}")
            if rng.random() < 0.3:
                lines.insert(2, f"  (* a harmless {rng.choice(keywords)} in prose *)")
        else:
            hider = rng.choice(["comment", "string"])
            if hider == "comment":
                lines.insert(2, f"  (* the model wrote {keyword} here *)")
            else:
                lines[2] = f'  have c0: "{keyword} is not a term" by auto'
        cases.append(("\n".join(lines) + "\n", dirty))
    return cases


def test_cheat_gate(tmp_path):
    with stopwatch("cheat-gate", 10.0):
        script_path = tmp_path / "accepting.json"
        script_path.write_text(json.dumps(minimal_script()))
        session = recording(open_session(ScriptedSpec(str(script_path)), ProverConfig()))

        cases = _fuzz_proofs(dirty_count=10_000, clean_count=1_000, seed=4242)
        dirty_total = 0
        backend_checks = 0
        for text, dirty in cases:
            before = len(session.backend.calls)
            verdict = verify_full(session, text)
            consulted = len(session.backend.calls) > before
            if dirty:
                dirty_total += 1
                assert isinstance(verdict, Invalid), text
                assert not consulted, "backend consulted for a cheating proof"
            else:
                assert isinstance(verdict, Valid), text
                assert consulted
                backend_checks += 1
        assert dirty_total == 10_000
        assert backend_checks == 1_000


# -- 3. cascade contract -------------------------------------------------------------


CASCADE_STEPS = [
    "by auto", "by simp", "by blast", "by fastforce", "by force", "by eval",
    "by presburger", "by sos", "by arith", "by linarith", "by (auto simp: field_simps)",
]


def _latency_script(outcome):
    return minimal_script(
        rules=[{"match": {"kind": "glob", "pattern": "*"}, "outcome": outcome}],
        latency={"step_ms": 50, "hammer_ms": 600, "real_sleep": True},
    )


def test_cascade_contract(tmp_path):
    with stopwatch("cascade-contract", 30.0):
        config = ProverConfig(
            tactic_timeout_ms=50, hammer_timeout_ms=600, per_gap_budget_ms=11 * 50 + 600 + 50
        )
        text = 'theorem t: shows "G"\nproof -\n  have c0: "goal text" sledgehammer\n  show ?thesis sledgehammer\nqed\n'
        # the context prove_sketch sends for the first gap
        context = render_segments(parse_sketch(text))[0].rstrip() + "\n"

        scenarios = [
            ({"kind": "tactic", "index": 0}, Closed, 1),
            ({"kind": "tactic", "index": 4}, Closed, 5),
            ({"kind": "tactic", "index": 10}, Closed, 11),
            ({"kind": "hammer", "step": "by (metis x)"}, Closed, 11),
            ({"kind": "fail"}, Failed, 11),
        ]
        for index, (outcome, expected_type, expected_steps) in enumerate(scenarios):
            path = tmp_path / f"cascade{index}.json"
            path.write_text(json.dumps(_latency_script(outcome)))
            session = recording(open_session(ScriptedSpec(str(path)), config))
            started = time.monotonic()
            [result] = close_gap(session, [context])
            wall_ms = (time.monotonic() - started) * 1000
            assert isinstance(result, expected_type)
            sent = [t for cmd, t in session.backend.calls if cmd == "step"]
            assert sent == CASCADE_STEPS[:expected_steps]  # always a cascade prefix
            hammer_calls = [c for c in session.backend.calls if c[0] == "hammer"]
            assert len(hammer_calls) == (1 if expected_steps == 11 and not (
                isinstance(result, Closed) and result.tactic_index == 10) else 0)
            assert wall_ms <= config.per_gap_budget_ms + 200  # scheduling slack

        # a budget below the cascade cost must cut the run off cleanly
        tight = ProverConfig(tactic_timeout_ms=50, hammer_timeout_ms=600, per_gap_budget_ms=260)
        path = tmp_path / "cascade_tight.json"
        path.write_text(json.dumps(_latency_script({"kind": "timeout"})))
        session = open_session(ScriptedSpec(str(path)), tight)
        started = time.monotonic()
        [result] = close_gap(session, [context])
        wall_ms = (time.monotonic() - started) * 1000
        assert isinstance(result, TimedOut)
        assert result.elapsed_ms <= tight.per_gap_budget_ms
        assert wall_ms <= tight.per_gap_budget_ms + 200


# -- 4. end-to-end golden run -----------------------------------------------------------


def _golden_components():
    pool = load_pool(FIXTURES / "pool" / "examples.json")
    client = CompletionClient(
        mode=CacheMode.REPLAY, cache=CompletionCache(FIXTURES / "cache" / "completions.jsonl")
    )
    provider = SessionProvider(
        lambda: open_session(ScriptedSpec(str(FIXTURES / "prover" / "script.json")), ProverConfig())
    )
    return PipelineComponents(
        pool=pool, client=client, sessions=provider, prompt_config=PromptConfig()
    )


def test_end_to_end_golden_run(tmp_path, problems, golden_config):
    with stopwatch("end-to-end-golden", 60.0):
        policy = BudgetPolicy(
            drafts_per_problem=golden_config["drafts"],
            sketches_per_draft=golden_config["sketches_per_draft"],
            total_budget=golden_config["budget"],
            stop_on_first_success=False,
        )
        seed = golden_config["seed"]
        golden_bytes = (FIXTURES / "golden" / "records.jsonl").read_bytes()

        exports = {}
        for label, jobs in (("first", 1), ("second", 1), ("parallel", 8)):
            results = run_experiment(problems, policy, _golden_components(), jobs, seed)
            out = tmp_path / f"{label}.jsonl"
            export_records(results, out)
            exports[label] = out.read_bytes()
        assert exports["first"] == exports["second"], "replay is not reproducible"
        assert exports["first"] == exports["parallel"], "worker count changed the records"
        assert exports["first"] == golden_bytes, "records diverge from the golden file"

        pipeline_solved = {r.problem_id for r in import_records(FIXTURES / "golden" / "records.jsonl") if r.solved}
        baseline = run_experiment(problems, None, _golden_components(), 1, seed)
        baseline_solved = {r.problem_id for r in baseline if r.solved}
        assert baseline_solved < pipeline_solved, "sketching must beat the direct baseline strictly"
        assert len(pipeline_solved) == 15 and len(baseline_solved) == 5


# -- 5. curve and grid correctness ---------------------------------------------------------


def test_curve_and_grid_correctness():
    with stopwatch("curve-and-grid", 5.0):
        attempts = import_attempts(FIXTURES / "golden" / "records.jsonl")
        results = import_records(FIXTURES / "golden" / "records.jsonl")

        max_attempts = 10
        curve = cumulative_curve(results, max_attempts)
        by_problem: dict[str, list] = {}
        for record in attempts:
            by_problem.setdefault(record.problem_id, []).append(record)
        for k in range(1, max_attempts + 1):
            recount = 0
            for records in by_problem.values():
                ordered = sorted(records, key=lambda r: (r.draft_index, r.sketch_index))
                recount += any(r.success for r in ordered[:k])
            assert curve[k - 1] == recount

        drafts, sketches = [1, 2, 3, 4, 5], [1, 2]
        grid = budget_grid(attempts, drafts, sketches, budget_cap=100)
        for i in range(len(drafts)):
            for j in range(len(sketches)):
                if i + 1 < len(drafts):
                    assert grid[i + 1][j] >= grid[i][j]
                if j + 1 < len(sketches):
                    assert grid[i][j + 1] >= grid[i][j]
        total_solved = sum(1 for r in results if r.solved)
        assert grid[-1][-1] == total_solved

        truncated = [a for a in attempts if not (a.problem_id == "imo_g01" and a.draft_index >= 3)]
        with pytest.raises(CoverageError):
            budget_grid(truncated, drafts, sketches, budget_cap=100)


# -- 6. budget arithmetic ---------------------------------------------------------------------


def test_budget_arithmetic():
    with stopwatch("budget-arithmetic", 5.0):
        rng = random.Random(31337)
        checked = 0
        for _ in range(1000):
            budget = rng.randint(1, 150)
            human = rng.random() < 0.25
            if human:
                drafts = 1
                sketches = rng.randint(1, 150)
            else:
                drafts = rng.randint(1, 25)
                sketches = rng.randint(1, 12)
            policy = BudgetPolicy(
                drafts_per_problem=drafts,
                sketches_per_draft=sketches,
                total_budget=budget,
                draft_source=DraftSource.HUMAN if human else DraftSource.MODEL,
            )
            if drafts * sketches > budget:
                with pytest.raises(BudgetExceeded):
                    make_plan(policy, 1, "p")
                continue
            plan = make_plan(policy, 1, "p")
            checked += 1
            assert len(plan) == drafts * sketches
            assert len(plan) <= budget
            seeds = [seed for _, _, seed in plan]
            assert len(set(seeds)) == len(seeds)
            if human:
                assert all(d == 0 for d, _, _ in plan)
        assert checked > 300  # plenty of in-budget policies were exercised
        with pytest.raises(ValueError):
            BudgetPolicy(drafts_per_problem=2, sketches_per_draft=1, draft_source=DraftSource.HUMAN)


# -- 7. prompt statistics -----------------------------------------------------------------------


def test_prompt_statistics(pool):
    with stopwatch("prompt-statistics", 10.0):
        config = PromptConfig(k_examples=3)
        target = pool.of_category(Category.ALGEBRA)[0].id  # a quad that is in the pool

        trials = 1000
        counts: dict[str, int] = {}
        for seed in range(trials):
            picked = select_examples(pool, "algebra_outside", Category.ALGEBRA, config, random.Random(seed))
            for quad in picked:
                counts[quad.id] = counts.get(quad.id, 0) + 1
        eligible = pool.of_category(Category.ALGEBRA)
        for quad in eligible:
            frequency = counts.get(quad.id, 0) / trials
            assert abs(frequency - 3 / 10) <= 0.05, (quad.id, frequency)

        for seed in range(trials):
            picked = select_examples(pool, target, Category.ALGEBRA, config, random.Random(seed))
            assert all(q.id != target for q in picked)

        from sketchprove.sketch import count_comments

        for quad in pool.quads:
            no_comments = shown_sketch(quad, PromptMode.NO_COMMENTS)
            assert count_comments(parse_sketch(no_comments)) == 0
            assert "Informal Proof:" not in example_block(quad, PromptMode.NO_INFORMAL_PROOF)
            no_informal = shown_sketch(quad, PromptMode.NO_INFORMAL_PROOF)
            assert count_comments(parse_sketch(no_informal)) == 0
            full = shown_sketch(quad, PromptMode.FULL_PROOF)
            assert count_gaps(parse_sketch(full)) == 0


# -- 8. live integration smoke test (non-gating) -----------------------------------------------


@pytest.mark.skipif(
    "DSP_LIVE_PROVER" not in os.environ,
    reason="live prover smoke test is opt-in: set DSP_LIVE_PROVER to a wire address",
)
def test_live_prover_smoke():
    from sketchprove.prover import ExternalSpec

    address = os.environ["DSP_LIVE_PROVER"]
    config = ProverConfig()  # the real 120 s hammer cap
    with stopwatch("live-smoke", 125.0):
        session = open_session(ExternalSpec(address), config)
        outcome = prove_sketch(session, baseline_sketch('theorem smoke:\n  shows "True"'))
        session.close()
        assert isinstance(outcome, FullProofResult)

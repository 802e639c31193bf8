"""The `cascade` wire command: one frame per run of gaps, the same results
and state ids as `run_cascades` in process, and a lost session on every
fault."""

import io
import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_oracle
from ast_gen import AstGen
from bridges import FAULTS, RelayBridge, serve_backend
from conftest import FIXTURES, memo_state_ids, minimal_script
from sketchprove import scheduler
from sketchprove.llm import CacheMode, CompletionCache, CompletionClient
from sketchprove.prompting import PromptConfig, load_pool
from sketchprove.prover import (
    DEFAULT_TACTICS,
    BackendReply,
    Closed,
    ExternalSpec,
    FullProofResult,
    ProverConfig,
    ProverState,
    ScriptedBackend,
    ScriptedSpec,
    SessionDead,
    SessionState,
    WireBackend,
    WireServer,
    load_script,
    open_session,
    prove_sketch,
    run_cascades,
)
from sketchprove.prover import wire
from sketchprove.prover.scripted import Latency, Outcome, ProverScript, Rule
from sketchprove.scheduler import BudgetPolicy, PipelineComponents, SessionProvider, run_problem
from sketchprove.sketch import parse_sketch, render_segments

GOLDEN_SCRIPT = FIXTURES / "prover" / "script.json"

# mixed outcomes for generated contexts: closes at several tactics and by the
# hammer, a hammer step the proof text cannot hold, fails, and steps that
# time out after a while or at their timeout
GENERATED_SCRIPT = ProverScript(
    rules=(
        Rule("substring", "mod", Outcome("fail")),
        Rule("substring", "gcd", Outcome("timeout", ms=20)),
        Rule("substring", "even", Outcome("timeout")),
        Rule("substring", "abs", Outcome("hammer", step="by (metis")),
        Rule("exact", "?thesis", Outcome("hammer", step="by (metis assms)")),
        Rule("substring", "x", Outcome("tactic", index=3)),
        Rule("substring", "y", Outcome("tactic", index=9)),
    ),
    default=Outcome("tactic", index=0),
)
SCRIPTS = (load_script(GOLDEN_SCRIPT), GENERATED_SCRIPT)


class RefusingBackend(ScriptedBackend):
    """The scripted prover, refusing about a quarter of the contexts it is
    given (a fixed choice per context text)."""

    def init(self, base, statement):
        reply = super().init(base, statement)
        if zlib.crc32(statement.encode()) % 4 == 0:
            return BackendReply("fail", 0, reason="context does not parse")
        return reply


def _contexts(ast):
    return [segment.rstrip() + "\n" for segment in render_segments(ast)[:-1]]


def _outcome(call):
    """What a run of cascades gives: each result with its state id, or the
    SessionDead it raises."""
    try:
        results = call()
    except SessionDead as exc:
        return exc
    return [(result, getattr(result, "state_id", None)) for result in results]


def _same_cascades(script, cases):
    """Runs each (base, contexts, config) case with `WireBackend.cascade`
    against the reference server's frame loop and with `run_cascades` on an
    in-process twin of its backend, and checks that they agree, state ids
    included. A base of "closed" resumes from the last closed gap. Returns
    the in-process outcomes."""
    local = RefusingBackend(script)
    remote = WireBackend(serve_backend(RefusingBackend(script)))
    last_closed = {}
    outcomes = []
    try:
        for base, contexts, config in cases:
            if base == "closed":
                base = last_closed.get("state", "Main")
            got = _outcome(lambda: remote.cascade(base, contexts, config))
            want = _outcome(lambda: run_cascades(local, base, contexts, config))
            outcomes.append(want)
            if isinstance(want, SessionDead):
                assert isinstance(got, SessionDead) and want.detail in got.detail
                continue
            assert got == want
            closed = [state for result, state in want if isinstance(result, Closed)]
            if closed:
                last_closed["state"] = ProverState(closed[-1])
    finally:
        remote.quit()
    return outcomes


configs = st.builds(
    lambda n, tactic, hammer, budget: ProverConfig(DEFAULT_TACTICS[:n], tactic, hammer, budget),
    st.integers(1, len(DEFAULT_TACTICS)),
    st.integers(1, 200),
    st.integers(1, 2000),
    st.integers(1, 3000),
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, len(SCRIPTS) - 1),
    st.integers(0, 2**32),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
            st.sampled_from(["Main", "closed", "closed", ProverState("s999999")]),
            configs,
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_wire_cascade_matches_run_cascade_in_process(sketch_files, script, seed, draws):
    gen = AstGen(seed)
    pool = _contexts(gen.sketch()) + _contexts(gen.sketch())
    pool += _contexts(parse_sketch(sketch_files[seed % len(sketch_files)].read_text()))
    pool.append("  show ?thesis\n")  # no sketch drawn may have a gap
    cases = [
        (base, [pool[pick % len(pool)] for pick in picks], config) for picks, base, config in draws
    ]
    _same_cascades(SCRIPTS[script], cases)


def test_wire_cascade_matches_run_cascade_on_each_ending():
    fast = ProverConfig(tactic_timeout_ms=50, hammer_timeout_ms=600, per_gap_budget_ms=2000)
    tight = ProverConfig(tactic_timeout_ms=50, hammer_timeout_ms=600, per_gap_budget_ms=500)

    def context(line, refused=False):
        """`line` with trailing blanks that make RefusingBackend refuse it,
        or accept it."""
        return next(text for text in (line + " " * i + "\n" for i in range(100))
                    if (zlib.crc32(text.encode()) % 4 == 0) == refused)

    c1, c2, c3 = (
        context(f'have c{i}: "{prop}"') for i, prop in enumerate(["1 = 0", "x = 2", "n mod 2 = 0"], 1)
    )
    thesis, refused = context("show ?thesis"), context('have c0: "x = 1"', refused=True)
    unfit = context('have c4: "abs x + 1 > 0"')
    cases = [
        # closed at the first tactic, at the fourth (resumed), then refused
        # without a step: the run stops there
        ("Main", [c1, c2, refused, c1], fast),
        ("closed", [thesis, c3, c1], fast),  # closed by the hammer, then every attempt fails
        ("closed", [c1, unfit, c2], fast),  # a hammer step the proof cannot hold stops the run
        ("Main", [context('have c5: "gcd a b = 1"'), c1], fast),  # steps and the hammer time out
        ("Main", [c1, context('have c6: "even n"')], tight),  # the budget ends the tactics early
        ("Main", [context('have c7: "n mod 3 = 0"')], tight),  # it ends them before the hammer
        ("closed", [c1] * 5, fast),  # a whole run closes
        (ProverState("s999999"), [c1, c2], fast),  # a state never issued
    ]
    outcomes = _same_cascades(GENERATED_SCRIPT, cases)
    assert [len(o) if isinstance(o, list) else None for o in outcomes] == [3, 2, 2, 1, 2, 1, 5, None]


# -- the per-step oracle ---------------------------------------------------------------

_GOALS = ("a = 1", "b mod 2", "?thesis", "a + b", "")
_OUTCOMES = st.one_of(
    st.builds(lambda index: Outcome("tactic", index=index), st.integers(0, 12)),
    st.builds(lambda step: Outcome("hammer", step=step),
              st.sampled_from(["by simp", "by (metis assms)", "by (metis", "sorry"])),
    st.just(Outcome("fail")),
    st.builds(lambda ms: Outcome("timeout", ms=ms), st.none() | st.integers(0, 400)),
)
_SCRIPTS = st.builds(
    lambda rules, default, latency: ProverScript(tuple(rules), default, latency=latency),
    st.lists(st.builds(Rule, st.sampled_from(["exact", "substring", "glob"]),
                       st.sampled_from(["a = 1", "mod", "*+*", "?thesis", "b*", ""]), _OUTCOMES),
             max_size=5),
    _OUTCOMES,
    st.builds(Latency, st.integers(0, 300), st.integers(0, 3000)),
)
# cascade tactics, some with a space (a parenthesised step) and some whose
# step the proof text cannot hold, which ends the run
_TACTICS = st.lists(st.sampled_from(DEFAULT_TACTICS + ("auto)", "simp add: x", "by", "(")),
                    min_size=1, max_size=12)
_CONFIGS = st.builds(ProverConfig, _TACTICS.map(tuple), st.integers(1, 300), st.integers(1, 3000),
                     st.integers(1, 6000))
_BASES = st.sampled_from(["Main", "closed", "closed", "closed", ProverState("s0"), ProverState("s9")])


def _reply_line(req_id, outcome):
    """The reference server's reply to a cascade frame, as `json.dumps` wrote
    the dict of a run of the oracle."""
    if isinstance(outcome, SessionDead):
        return json.dumps({"id": req_id, "status": "fail", "elapsed_ms": 0, "reason": outcome.detail})
    results = [cascade_oracle.encode_gap_result(result) for result, _ in outcome]
    return json.dumps({"id": req_id, "status": "ok", "results": results,
                       "elapsed_ms": sum(result.elapsed_ms for result, _ in outcome)})


@settings(max_examples=300, deadline=None)
@given(_SCRIPTS, st.lists(st.tuples(_BASES, st.lists(st.sampled_from(_GOALS), min_size=1, max_size=5),
                                    _CONFIGS), min_size=1, max_size=6))
def test_run_cascades_matches_the_per_step_oracle(script, runs):
    """`run_cascades` over `ScriptedBackend` gives what the per-gap cascade
    over the per-step backend gives, in process and as the reference
    server's reply text: results, elapsed times, state ids and the final
    state counter."""
    backend, oracle = ScriptedBackend(script), cascade_oracle.ScriptedBackend(script)
    frames, replies, last_closed = [], [], None
    for req_id, (base, goals, config) in enumerate(runs, 1):
        if base == "closed":
            base = last_closed or "Main"
        contexts = [f'  have c{i}: "{goal}"\n' for i, goal in enumerate(goals)]
        got = _outcome(lambda: run_cascades(backend, base, contexts, config))
        want = _outcome(lambda: cascade_oracle.run_cascades(oracle, base, contexts, config))
        assert got == want
        closed = [] if isinstance(want, SessionDead) else [
            state for result, state in want if isinstance(result, Closed)]
        if closed:
            last_closed = ProverState(closed[-1])
        where = {"state": base.state_id} if isinstance(base, ProverState) else {"theory": base}
        frames.append(json.dumps({
            "id": req_id, "cmd": "cascade", **where, "texts": contexts, "tactics": config.tactic_list,
            "tactic_timeout_ms": config.tactic_timeout_ms,
            "hammer_timeout_ms": config.hammer_timeout_ms, "budget_ms": config.per_gap_budget_ms,
        }))
        replies.append(_reply_line(req_id, want))
    assert backend._states == oracle._states
    served = io.StringIO()
    wire._serve_connection(ScriptedBackend(script), io.StringIO("\n".join(frames) + "\n"), served)
    assert served.getvalue() == "".join(reply + "\n" for reply in replies)


# -- one frame per run of gaps ---------------------------------------------------------


def _large_sketch(gaps):
    lines = ['theorem big: assumes h0: "P"\n  shows "Q"\nproof -\n']
    for i in range(gaps - 1):
        lines.append(f'  have c{i}: "k + {i * 7919 % 1000} = {i % 10} + z" using h0 sledgehammer\n')
    lines.append("  show ?thesis sledgehammer\nqed\n")
    return parse_sketch("".join(lines))


def test_one_cascade_frame_per_sketch_on_a_large_sketch(tmp_path):
    script = minimal_script(
        rules=[
            {"match": {"kind": "substring", "pattern": "= 3 + z"}, "outcome": {"kind": "tactic", "index": 4}},
            {"match": {"kind": "substring", "pattern": "= 7 + z"},
             "outcome": {"kind": "hammer", "step": "by (metis h0)"}},
        ],
        default={"kind": "tactic", "index": 0},
    )
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    config = ProverConfig()
    ast = _large_sketch(300)
    server = WireServer(str(path)).start()
    relay = RelayBridge(server.address)
    try:
        session = open_session(ExternalSpec(relay.address), config)
        outcome = prove_sketch(session, ast)
        session.close()
    finally:
        relay.close()
        server.stop()
    assert isinstance(outcome, FullProofResult) and len(outcome.per_gap) == 300
    assert dict(relay.commands) == {"init": 1, "cascade": 1, "check": 1, "quit": 1}
    assert relay.cascade_bases == ["theory"] and relay.cascade_texts == [300]
    # the one-frame path gives what the in-process step-by-step path gives
    in_process = prove_sketch(open_session(ScriptedSpec(str(path)), config), ast)
    assert in_process == outcome
    assert [r.state_id for r in in_process.per_gap] == [r.state_id for r in outcome.per_gap]
    assert {r.tactic_index for r in outcome.per_gap} == {0, 4, None}


# -- a bridge that fails on a cascade frame ------------------------------------------

# a per-gap budget small enough that a stalled bridge misses its deadline soon
SMALL = ProverConfig(tactic_timeout_ms=100, hammer_timeout_ms=500, per_gap_budget_ms=1000)


@pytest.fixture(scope="module")
def golden_server():
    server = WireServer(str(GOLDEN_SCRIPT)).start()
    yield server
    server.stop()


def _golden_run(problem, golden_config, open_one):
    components = PipelineComponents(
        pool=load_pool(FIXTURES / "pool" / "examples.json"),
        client=CompletionClient(
            mode=CacheMode.REPLAY, cache=CompletionCache(FIXTURES / "cache" / "completions.jsonl")
        ),
        sessions=SessionProvider(open_one),
        prompt_config=PromptConfig(),
    )
    policy = BudgetPolicy(
        drafts_per_problem=golden_config["drafts"],
        sketches_per_draft=golden_config["sketches_per_draft"],
        total_budget=golden_config["budget"],
        stop_on_first_success=golden_config["stop_on_first_success"],
    )
    return run_problem(problem, policy, components, golden_config["seed"]), components.sessions


@pytest.fixture(scope="module")
def clean_run(golden_server, problems, golden_config):
    """The problem with the most resumed cascades, run over a clean relay
    that answers each frame for its first gap only, so that each sketch's
    later gaps go out as resumed frames: (the problem, its result, the
    cascade frames' bases)."""
    runs = []
    for problem in problems:
        relay = RelayBridge(golden_server.address, one_gap=True)
        result, sessions = _golden_run(
            problem, golden_config, lambda: open_session(ExternalSpec(relay.address), SMALL)
        )
        sessions.close()
        relay.close()
        runs.append((problem, result, relay.cascade_bases))
    return max(runs, key=lambda run: run[2].count("state"))


@pytest.mark.parametrize("fault", FAULTS)
def test_cascade_fault_reopens_the_session_and_records_match_a_clean_run(
    golden_server, clean_run, golden_config, monkeypatch, fault
):
    problem, uninterrupted, bases = clean_run
    # the fault hits the last resumed cascade, once the memo holds earlier work
    at = max(i for i, base in enumerate(bases, 1) if base == "state")
    monkeypatch.setattr(wire, "REPLY_GRACE_S", 0.5)  # the stall's deadline: 1.5 s
    relay = RelayBridge(golden_server.address, fault=fault, at=at, tag="dead-", one_gap=True)
    opened = []

    def open_faulty_first():
        address = golden_server.address if opened else relay.address
        opened.append(open_session(ExternalSpec(address), SMALL))
        return opened[-1]

    faulty, sessions = _golden_run(problem, golden_config, open_faulty_first)
    try:
        assert len(relay.cascade_bases) == at  # the fault came where it was aimed
        assert len(opened) == 2 and opened[0].state is SessionState.DEAD
        assert faulty == uninterrupted and faulty.infra_error is None
        assert not opened[0].memo.gaps and not opened[0].memo.verdicts
        replacing = memo_state_ids(opened[1])
        assert replacing and not any(state_id.startswith("dead-") for state_id in replacing)
    finally:
        sessions.close()
        relay.close()


# -- the frame count of a golden run -------------------------------------------------


def _golden_frames(server, problems, golden_config, one_gap):
    """The golden run over a relay to `server`: (its results, the relay, the
    number of `prove_sketch` calls that missed the session memo)."""
    relay = RelayBridge(server.address, one_gap=one_gap)
    missed = []

    def counting(session, ast):
        before = session.memo.gaps
        size = len(before)
        outcome = prove_sketch(session, ast)
        after = session.memo.gaps
        missed.append(len(after) > (size if after is before else 0))
        return outcome

    results = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "prove_sketch", counting)
        for problem in problems:
            result, sessions = _golden_run(
                problem, golden_config, lambda: open_session(ExternalSpec(relay.address), SMALL)
            )
            sessions.close()
            results.append(result)
    relay.close()
    return results, relay, sum(missed)


def test_golden_run_sends_one_cascade_frame_per_sketch_that_misses_the_memo(
    golden_server, problems, golden_config
):
    results, relay, missed = _golden_frames(golden_server, problems, golden_config, one_gap=False)
    assert missed and relay.commands["cascade"] <= missed
    assert set(relay.cascade_bases) == {"theory"}
    # a bridge that answers one gap per frame gets the rest as resumed
    # frames, and the records do not change
    short, one_gap_relay, _ = _golden_frames(golden_server, problems, golden_config, one_gap=True)
    assert short == results
    assert one_gap_relay.commands["cascade"] > missed and "state" in one_gap_relay.cascade_bases
    assert set(one_gap_relay.cascade_texts) != {1}

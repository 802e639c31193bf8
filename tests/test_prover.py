import json
import random
import re
import time
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_oracle
from ast_gen import AstGen
from gap_fill import fill
from conftest import RecordingBackend, minimal_script, recording, retained_bytes
from sketchprove.prover import (
    DEFAULT_TACTICS,
    BackendReply,
    Closed,
    ConnectError,
    ExternalSpec,
    Failed,
    FullProofResult,
    Invalid,
    ProverConfig,
    ProverScript,
    ProverSession,
    ProverState,
    ScriptedBackend,
    ScriptError,
    ScriptedSpec,
    SessionBusy,
    SessionDead,
    SessionState,
    SketchFailure,
    TimedOut,
    Valid,
    close_gap,
    extract_goal,
    load_script,
    open_session,
    prove_sketch,
    verify_full,
)
from sketchprove.prover import driver, scripted
from sketchprove.prover.driver import ProverMemo
from sketchprove.prover.scripted import Latency, Outcome, ProverScript, Rule
from sketchprove.scheduler import SessionProvider, baseline_sketch
from sketchprove.sketch import (
    GAP_TOKEN,
    HaveStep,
    ProofBlock,
    SketchAst,
    check_no_cheat,
    closing_step_text,
    count_gaps,
    extract_gaps,
    parse_sketch,
    render_header,
    render_segments,
    serialize,
)

FAST = ProverConfig(tactic_timeout_ms=50, hammer_timeout_ms=600, per_gap_budget_ms=2000)


def write_script(tmp_path, script, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps(script))
    return str(path)


# -- script loading -----------------------------------------------------------


def test_default_tactic_list_has_eleven_entries():
    assert len(DEFAULT_TACTICS) == 11
    assert DEFAULT_TACTICS[0] == "auto"
    assert DEFAULT_TACTICS[-1] == "auto simp: field_simps"


def test_timeout_defaults():
    config = ProverConfig()
    assert config.tactic_timeout_ms == 10_000
    assert config.hammer_timeout_ms == 120_000
    assert config.per_gap_budget_ms == 11 * 10_000 + 120_000 + 5_000


def test_backend_reply_and_prover_state_are_immutable_hashable_values():
    reply, state = BackendReply("ok", 3, "s1"), ProverState("s1")
    for value, name in ((reply, "status"), (state, "state_id")):
        with pytest.raises(AttributeError):
            setattr(value, name, "x")
    assert reply == BackendReply(status="ok", elapsed_ms=3, state_id="s1")
    assert hash(reply) == hash(BackendReply("ok", 3, "s1"))
    assert reply != BackendReply("ok", 3, "s2") and reply != BackendReply("fail", 3, "s1")
    assert BackendReply("ok") == BackendReply("ok", 0, None, None, None)
    assert state == ProverState("s1") and hash(state) == hash(ProverState("s1"))
    assert state != ProverState("s2")
    # the driver and the cascade build states in C, skipping the Python __new__
    built = tuple.__new__(ProverState, ("s1",))
    assert type(built) is ProverState and built == state and hash(built) == hash(state)
    # a memo key on a state never collides with one on the theory
    assert ProverState("Main") != "Main"
    assert len({(ProverState("Main"), "ctx"), ("Main", "ctx"), (None, "ctx")}) == 3


def test_script_requires_default(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "prover-script/1", "rules": []}))
    with pytest.raises(ScriptError, match="default"):
        load_script(path)


def test_script_rejects_unknown_kinds(tmp_path):
    bad = minimal_script(rules=[{"match": {"kind": "regex", "pattern": "x"}, "outcome": {"kind": "fail"}}])
    with pytest.raises(ScriptError, match="match kind"):
        load_script(write_script(tmp_path, bad))
    bad = minimal_script(rules=[{"match": {"kind": "exact", "pattern": "x"}, "outcome": {"kind": "win"}}])
    with pytest.raises(ScriptError, match="outcome kind"):
        load_script(write_script(tmp_path, bad))


@pytest.mark.parametrize(
    "extra, named",
    [
        (dict(rules={"a": 1}), "rules must be a list"),
        (dict(verify=["accept"]), "verify must be an object"),
        (dict(verify={"reject_substrings": ["ok", 5]}), "reject_substrings"),
        (dict(latency=[0]), "latency must be an object"),
        (dict(latency={"step_ms": 1.5}), "hammer_ms must be ints"),
        (dict(latency={"hammer_ms": -1}), "hammer_ms must be ints"),
        (dict(latency={"step_ms": True}), "hammer_ms must be ints"),
        (dict(latency={"real_sleep": "false"}), "real_sleep a bool"),
    ],
    ids=[
        "rules", "verify", "reject-substrings", "latency", "float-ms", "negative-ms", "bool-ms",
        "real-sleep",
    ],
)
def test_script_rejects_malformed_sections(tmp_path, extra, named):
    with pytest.raises(ScriptError, match=named):
        load_script(write_script(tmp_path, minimal_script(**extra)))


def test_goal_extraction():
    assert extract_goal('theorem t:\n  shows "x = 1"') == "x = 1"
    assert extract_goal('...\n  have c0: "4 * x = 168" using assms') == "4 * x = 168"
    assert extract_goal("...\n  then show ?thesis using c0") == "?thesis"
    assert extract_goal("") == ""


# -- sessions -------------------------------------------------------------------


def test_open_scripted_session_is_idle(tmp_path):
    session = open_session(ScriptedSpec(write_script(tmp_path, minimal_script())), FAST)
    assert session.state is SessionState.IDLE


def test_open_external_nothing_listening():
    with pytest.raises(ConnectError):
        open_session(ExternalSpec("127.0.0.1:1"), FAST)


def test_sessions_are_independent(tmp_path):
    script = minimal_script(
        rules=[{"match": {"kind": "exact", "pattern": "g"}, "outcome": {"kind": "tactic", "index": 1}}]
    )
    spec = ScriptedSpec(write_script(tmp_path, script))
    one = open_session(spec, FAST)
    two = open_session(spec, FAST)
    one.backend.init("Main", 'have c: "g"')
    one.backend.step("by auto", 50)
    # session two's step ordinal is untouched by session one's progress
    two.backend.init("Main", 'have c: "g"')
    assert two.backend.step("by auto", 50).status == "fail"
    assert two.backend.step("by simp", 50).status == "ok"


def test_busy_session_rejects_reentry(tmp_path):
    session = open_session(ScriptedSpec(write_script(tmp_path, minimal_script())), FAST)
    with session.exclusive():
        with pytest.raises(SessionBusy):
            with session.exclusive():
                pass


def test_a_backend_command_that_raises_kills_the_session(tmp_path, fig2_text):
    spec = ScriptedSpec(write_script(tmp_path, close_all_script()))
    sessions = SessionProvider(lambda: open_session(spec, FAST))
    session = sessions.get()
    assert isinstance(prove_sketch(session, parse_sketch(fig2_text)), FullProofResult)

    def step(text, timeout_ms):
        raise RuntimeError("backend bug")

    session.backend.step = step
    with pytest.raises(RuntimeError, match="backend bug"):
        close_gap(session, [_context()])
    # not left BUSY: the conversation is in an unknown state, so the session
    # is dead, its memo is gone, and the next command asks for a reopen
    assert session.state is SessionState.DEAD
    assert not session.memo.gaps and not session.memo.verdicts
    with pytest.raises(SessionDead):
        close_gap(session, [_context()])
    reopened = sessions.get()
    assert reopened is not session
    assert isinstance(prove_sketch(reopened, parse_sketch(fig2_text)), FullProofResult)
    sessions.close()


# -- close_gap ------------------------------------------------------------------


def _context(prop="4 * x = 168"):
    """The context `prove_sketch` sends for the first gap, `have c0: prop`."""
    text = f'theorem t: shows "G"\nproof -\n  have c0: "{prop}" sledgehammer\n  show ?thesis sledgehammer\nqed\n'
    return render_segments(parse_sketch(text))[0].rstrip() + "\n"


def test_close_at_first_tactic(tmp_path):
    script = minimal_script(
        rules=[{"match": {"kind": "substring", "pattern": "4 * x = 168"},
                "outcome": {"kind": "tactic", "index": 0}}]
    )
    session = open_session(ScriptedSpec(write_script(tmp_path, script)), FAST)
    [result] = close_gap(session, [_context()])
    assert result == Closed("by auto", 0, result.elapsed_ms)
    assert session.state is SessionState.IDLE


def test_hammer_fallback_returns_reconstruction(tmp_path):
    script = minimal_script(
        rules=[{"match": {"kind": "glob", "pattern": "*x = 168*"},
                "outcome": {"kind": "hammer", "step": "by (smt (z3) assms mult.commute)"}}]
    )
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, script)), FAST))
    [result] = close_gap(session, [_context()])
    assert isinstance(result, Closed)
    assert result.tactic_index is None
    assert result.closing_step == "by (smt (z3) assms mult.commute)"
    steps = [c for c in session.backend.calls if c[0] == "step"]
    assert len(steps) == 11  # every tactic tried before the hammer


def test_everything_fails_records_twelve_attempts(tmp_path):
    session = open_session(ScriptedSpec(write_script(tmp_path, minimal_script())), FAST)
    [result] = close_gap(session, [_context()])
    assert isinstance(result, Failed)
    assert len(result.attempts) == 12
    assert [name for name, _ in result.attempts[:-1]] == list(DEFAULT_TACTICS)
    assert result.attempts[-1][0] == "sledgehammer"


def test_short_circuit_skips_later_tactics(tmp_path):
    script = minimal_script(
        rules=[{"match": {"kind": "substring", "pattern": "x = 168"},
                "outcome": {"kind": "tactic", "index": 1}}]
    )
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, script)), FAST))
    [result] = close_gap(session, [_context()])
    assert result.closing_step == "by simp" and result.tactic_index == 1
    sent = [text for cmd, text in session.backend.calls if cmd == "step"]
    assert sent == ["by auto", "by simp"]
    assert "by blast" not in sent


def test_attempt_log_is_cascade_prefix(tmp_path):
    for index in (0, 3, 10):
        script = minimal_script(
            rules=[{"match": {"kind": "substring", "pattern": "x = 168"},
                    "outcome": {"kind": "tactic", "index": index}}]
        )
        path = write_script(tmp_path, script, f"s{index}.json")
        session = recording(open_session(ScriptedSpec(path), FAST))
        [result] = close_gap(session, [_context()])
        sent = [text for cmd, text in session.backend.calls if cmd == "step"]
        expected = ["by auto", "by simp", "by blast", "by fastforce", "by force", "by eval",
                    "by presburger", "by sos", "by arith", "by linarith",
                    "by (auto simp: field_simps)"]
        assert sent == expected[: index + 1]
        assert result.tactic_index == index


def test_budget_enforced_with_real_latencies(tmp_path):
    # every step burns its full timeout; the budget only allows a few attempts
    script = minimal_script(
        rules=[{"match": {"kind": "substring", "pattern": "x = 168"}, "outcome": {"kind": "timeout"}}],
        latency={"step_ms": 50, "hammer_ms": 600, "real_sleep": True},
    )
    config = ProverConfig(tactic_timeout_ms=50, hammer_timeout_ms=600, per_gap_budget_ms=260)
    session = open_session(ScriptedSpec(write_script(tmp_path, script)), config)
    started = time.monotonic()
    [result] = close_gap(session, [_context()])
    wall_ms = (time.monotonic() - started) * 1000
    assert isinstance(result, TimedOut)
    assert result.elapsed_ms <= 260
    assert wall_ms <= 260 + 150  # scheduling slack


def test_real_sleep_sleeps_each_step_hammer_check_and_timeout_as_the_per_step_oracle(monkeypatch):
    script = ProverScript(
        rules=(
            Rule("exact", "t", Outcome("timeout", ms=70)),
            Rule("exact", "u", Outcome("timeout")),
            Rule("exact", "z", Outcome("timeout", ms=0)),
            Rule("exact", "h", Outcome("hammer", step="by simp")),
            Rule("exact", "k", Outcome("tactic", index=1)),
        ),
        default=Outcome("fail"),
        verify_reject_substrings=("poison",),
        latency=Latency(step_ms=50, hammer_ms=600, real_sleep=True),
    )

    def calls(backend):
        for goal, commands in [
            ("t", [("step", 40), ("step", 100), ("hammer", 50)]),
            ("u", [("step", 30), ("hammer", 1000)]),
            ("z", [("step", 30), ("hammer", 1000)]),  # a zero wait is not slept
            ("h", [("step", 10), ("hammer", 100), ("hammer", 1000)]),
            ("f", [("step", 100), ("hammer", 5000)]),
            ("k", [("step", 20), ("step", 80)]),
        ]:
            backend.init("Main", f'have c: "{goal}"')
            for command, timeout_ms in commands:
                if command == "step":
                    backend.step("by auto", timeout_ms)
                else:
                    backend.hammer(timeout_ms)
        backend.check_full("proof", 20)
        backend.check_full("poison", 100)

    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    calls(ScriptedBackend(script))
    got, slept[:] = list(slept), []
    calls(cascade_oracle.ScriptedBackend(script))
    assert got == slept == [
        0.04, 0.07, 0.05, 0.03, 1.0, 0.01, 0.1, 0.6, 0.05, 0.6, 0.02, 0.05, 0.02, 0.05,
    ]


def test_timeout_outcomes_recorded_but_cascade_continues(tmp_path):
    script = minimal_script(
        rules=[{"match": {"kind": "substring", "pattern": "x = 168"},
                "outcome": {"kind": "timeout", "ms": 1}}],
    )
    session = open_session(ScriptedSpec(write_script(tmp_path, script)), FAST)
    [result] = close_gap(session, [_context()])
    assert isinstance(result, Failed)
    assert all(outcome == "timeout" for _, outcome in result.attempts)


# -- prove_sketch ------------------------------------------------------------------


def close_all_script():
    return minimal_script(
        rules=[{"match": {"kind": "glob", "pattern": "*"}, "outcome": {"kind": "tactic", "index": 0}}]
    )


def test_prove_sketch_closes_figure_sketch(tmp_path, fig2_text):
    session = open_session(ScriptedSpec(write_script(tmp_path, close_all_script())), FAST)
    ast = parse_sketch(fig2_text)
    outcome = prove_sketch(session, ast)
    assert isinstance(outcome, FullProofResult)
    assert len(outcome.per_gap) == 7
    assert all(isinstance(r, Closed) for r in outcome.per_gap)
    assert "sledgehammer" not in outcome.proof_text
    assert extract_gaps(parse_sketch(outcome.proof_text)) == []


def test_prove_sketch_gap_free_runs_only_final_check(tmp_path, fig3_text):
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, minimal_script())), FAST))
    outcome = prove_sketch(session, parse_sketch(fig3_text))
    assert isinstance(outcome, FullProofResult)
    assert outcome.per_gap == ()
    assert [cmd for cmd, _ in session.backend.calls if cmd == "check_full"] == ["check_full"]


def test_prove_sketch_aborts_on_first_failure(tmp_path):
    text = (
        'theorem t: shows "G"\n'
        "proof -\n"
        '  have c1: "good one" sledgehammer\n'
        '  have c2: "good two" using c1 sledgehammer\n'
        '  have c3: "bad" using c2 sledgehammer\n'
        '  have c4: "good three" sledgehammer\n'
        "  show ?thesis using c4 sledgehammer\n"
        "qed\n"
    )
    script = minimal_script(
        rules=[{"match": {"kind": "substring", "pattern": "good"}, "outcome": {"kind": "tactic", "index": 0}}]
    )
    session = open_session(ScriptedSpec(write_script(tmp_path, script)), FAST)
    outcome = prove_sketch(session, parse_sketch(text))
    assert isinstance(outcome, SketchFailure)
    assert outcome.failed_site is not None and outcome.failed_site.label == "c3"
    assert len(outcome.partial) == 3  # two Closed, then the Failed entry
    assert [type(r) for r in outcome.partial] == [Closed, Closed, Failed]


def test_later_gaps_see_earlier_closures(tmp_path):
    text = (
        'theorem t: shows "G"\n'
        "proof -\n"
        '  have c1: "first goal" sledgehammer\n'
        "  show ?thesis using c1 sledgehammer\n"
        "qed\n"
    )
    backend = ScriptedBackend(load_script(write_script(tmp_path, close_all_script())))
    started, closing = [], []
    init, step = backend.init, backend.step

    def recording_init(base, statement):
        started.append((base, statement))
        return init(base, statement)

    def recording_step(text, timeout_ms):
        reply = step(text, timeout_ms)
        closing.append(reply)
        return reply

    backend.init, backend.step = recording_init, recording_step
    recorder = RecordingBackend(backend)
    outcome = prove_sketch(ProverSession(recorder, FAST), parse_sketch(text))
    assert isinstance(outcome, FullProofResult)
    first, second = outcome.per_gap
    assert first.state_id == closing[0].state_id and second.state_id == closing[1].state_id
    # one context per gap: the first from the theory, the second resumes from
    # the state the first gap closed in and sends only its own segment
    assert started == [
        (FAST.theory, 'theorem t:\n  shows "G"\nproof -\n  have c1: "first goal"\n'),
        (ProverState(first.state_id), "\n  show ?thesis using c1\n"),
    ]
    assert [cmd for cmd, _ in recorder.calls] == ["init", "step", "resume", "step", "check_full"]
    assert 'have c1: "first goal" by auto\n  show ?thesis using c1 by auto' in outcome.proof_text


def test_prove_sketch_rejects_cheating_input(tmp_path):
    text = 'theorem t: shows "G"\nproof -\n  show ?thesis sorry\nqed\n'
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, close_all_script())), FAST))
    outcome = prove_sketch(session, parse_sketch(text))
    assert isinstance(outcome, SketchFailure)
    assert (outcome.failed_site, outcome.partial) == (None, ())
    assert outcome.reason == "cheat gate: cheating keyword: sorry"
    assert session.backend.calls == []  # precondition failure, backend untouched


def test_final_verification_failure_reported(tmp_path, fig2_text):
    script = close_all_script()
    script["verify"] = {"default": "accept", "reject_substrings": ["28*a^2"]}
    session = open_session(ScriptedSpec(write_script(tmp_path, script)), FAST)
    outcome = prove_sketch(session, parse_sketch(fig2_text))
    assert isinstance(outcome, SketchFailure)
    assert outcome.failed_site is None
    assert len(outcome.partial) == 7


def test_scripted_backend_keeps_no_per_call_history(tmp_path, fig2_text):
    # an in-process session lives as long as its worker, so anything the
    # backend kept per call would grow with every sketch it proves
    session = open_session(ScriptedSpec(write_script(tmp_path, close_all_script())), FAST)
    ast = parse_sketch(fig2_text)
    retained = []
    for _ in range(40):
        assert isinstance(prove_sketch(session, ast), FullProofResult)
        retained.append(retained_bytes(session.backend))
    assert retained[-1] == retained[0]


# -- verify_full ---------------------------------------------------------------------


def test_verify_accepts_scripted(tmp_path, fig3_text):
    session = open_session(ScriptedSpec(write_script(tmp_path, minimal_script())), FAST)
    assert isinstance(verify_full(session, fig3_text), Valid)


def test_verify_rejects_cheat_without_backend(tmp_path):
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, minimal_script())), FAST))
    verdict = verify_full(session, 'theorem t: "P"\n  sorry\n')
    assert isinstance(verdict, Invalid)
    assert "cheating keyword" in verdict.reason
    assert session.backend.calls == []


def test_verify_scripted_rejection(tmp_path):
    script = minimal_script(verify={"default": "accept", "reject_substrings": ["marker"]})
    session = open_session(ScriptedSpec(write_script(tmp_path, script)), FAST)
    verdict = verify_full(session, 'theorem t: "P (* marker *)"\n  by auto\n')
    assert isinstance(verdict, Invalid)
    assert "marker" in verdict.reason


# -- the direct baseline: the statement as a one-gap sketch -----------------------------


STATEMENT = 'theorem t:\n  fixes x :: real\n  shows "x + 0 = x"'


def test_direct_prove_valid(tmp_path):
    script = minimal_script(
        rules=[{"match": {"kind": "exact", "pattern": "x + 0 = x"},
                "outcome": {"kind": "hammer", "step": "by (metis add_0_right)"}}]
    )
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, script)), FAST))
    outcome = prove_sketch(session, baseline_sketch(STATEMENT))
    assert isinstance(outcome, FullProofResult)
    assert outcome.proof_text == STATEMENT + "\n  by (metis add_0_right)\n"
    # the statement is the one context, and the proof is checked end to end once
    assert session.backend.calls[0] == ("init", STATEMENT + "\n")
    assert [text for cmd, text in session.backend.calls if cmd == "check_full"] == [
        outcome.proof_text
    ]


def test_direct_prove_invalid_after_full_cascade(tmp_path):
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, minimal_script())), FAST))
    outcome = prove_sketch(session, baseline_sketch(STATEMENT))
    assert isinstance(outcome, SketchFailure) and outcome.failed_site.path == ()
    steps = [c for c in session.backend.calls if c[0] == "step"]
    hammers = [c for c in session.backend.calls if c[0] == "hammer"]
    assert len(steps) == 11 and len(hammers) == 1
    assert not any(cmd == "check_full" for cmd, _ in session.backend.calls)


def test_direct_prove_cascade_ordering(tmp_path):
    script = minimal_script(
        rules=[{"match": {"kind": "exact", "pattern": "x + 0 = x"},
                "outcome": {"kind": "tactic", "index": 1}}]
    )
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, script)), FAST))
    outcome = prove_sketch(session, baseline_sketch(STATEMENT))
    assert isinstance(outcome, FullProofResult) and "by simp" in outcome.proof_text
    sent = [text for cmd, text in session.backend.calls if cmd == "step"]
    assert sent == ["by auto", "by simp"]


def test_direct_prove_gates_cheating_reconstruction(tmp_path):
    script = minimal_script(
        rules=[{"match": {"kind": "exact", "pattern": "x + 0 = x"},
                "outcome": {"kind": "hammer", "step": "sorry"}}]
    )
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, script)), FAST))
    outcome = prove_sketch(session, baseline_sketch(STATEMENT))
    # the whole-proof check's gate refuses it before the backend sees it
    assert isinstance(outcome, SketchFailure) and outcome.failed_site is None
    assert "cheating keyword: sorry" in outcome.reason
    assert not any(cmd == "check_full" for cmd, _ in session.backend.calls)


def test_baseline_sketch_keeps_only_the_statement():
    ast = baseline_sketch('theorem t: shows "P"\nproof -\n  show ?thesis by auto\nqed')
    assert serialize(ast) == 'theorem t:\n  shows "P"\n  sledgehammer\n'
    assert [site.path for site in extract_gaps(ast)] == [()]


# -- closing steps the proof text cannot hold --------------------------------------------


def test_unparseable_closing_step_fails_the_gap(tmp_path):
    script = minimal_script(default={"kind": "hammer", "step": "apply auto"})
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, script)), FAST))
    text = (
        'theorem t: shows "G"\nproof -\n  have c1: "a" sledgehammer\n'
        "  show ?thesis using c1 sledgehammer\nqed\n"
    )
    ast = parse_sketch(text)
    outcome = prove_sketch(session, ast)
    assert isinstance(outcome, SketchFailure)
    assert outcome.failed_site == extract_gaps(ast)[0]
    (result,) = outcome.partial
    assert result == Failed((("closing_step", "unparseable"),), result.elapsed_ms)
    assert "closing step does not parse" in outcome.reason
    # the later gap is not attempted and no whole proof is checked
    assert [cmd for cmd, _ in session.backend.calls].count("init") == 1
    assert not any(cmd in ("resume", "check_full") for cmd, _ in session.backend.calls)
    assert session.state is SessionState.IDLE


# -- deterministic elapsed times -------------------------------------------------------


def test_scripted_results_are_deterministic(tmp_path, fig2_text):
    script = close_all_script()
    spec = ScriptedSpec(write_script(tmp_path, script))
    runs = []
    for _ in range(2):
        session = open_session(spec, FAST)
        runs.append(prove_sketch(session, parse_sketch(fig2_text)))
    assert runs[0] == runs[1]


def test_cheating_hammer_reconstruction_never_validates(tmp_path):
    # even if the backend "closes" gaps with an escape keyword, the final
    # end-to-end check refuses the assembled proof
    script = minimal_script(
        rules=[{"match": {"kind": "glob", "pattern": "*"},
                "outcome": {"kind": "hammer", "step": "sorry"}}]
    )
    session = open_session(ScriptedSpec(write_script(tmp_path, script)), FAST)
    text = 'theorem t: shows "G"\nproof -\n  show ?thesis sledgehammer\nqed\n'
    outcome = prove_sketch(session, parse_sketch(text))
    assert isinstance(outcome, SketchFailure)
    assert outcome.failed_site is None
    assert "cheating keyword" in outcome.reason


# -- the final cheat scan covers only the spliced closing steps ----------------------

# Closing steps, clean and cheating: bare escapes, escapes inside a method, in
# comments and strings, next to word characters, and in <ATP> spans.
SPLICE_STEPS = (
    "by auto", "by (metis assms)", "sorry", "oops", "by (metis sorry)", "by (metis foo.sorry)",
    "by (metis oops_lemma)", "by (simp (* sorry *))", 'by (simp add: "sorry")',
    'by (simp (* a "quoted" oops (* nested sorry *) *))', "<ATP> sorry </ATP>",
    "<ATP> by (metis oops) </ATP>", "by (smt (z3) sorry_free)",
)
# Comments and propositions that put the cheat words inside the segments.
SPLICE_COMMENTS = (
    "never sorry", 'a "quoted" oops', "nested (* sorry *) remark", "ends in a quote \"",
)
_PROPOSITION = re.compile(r'"([^"]*)"')


def _sketch_with_cheat_words_in_comments_and_strings(seed):
    """A generated sketch whose comments and strings hold cheat words; its
    proof code holds none."""
    rng = random.Random(seed)
    lines = []
    for line in serialize(AstGen(seed).sketch()).splitlines():
        words = line.split()
        if words and words[0] in ("have", "show", "obtain", "then", "also") and rng.random() < 0.4:
            lines.append(f"{line[: len(line) - len(line.lstrip())]}(* {rng.choice(SPLICE_COMMENTS)} *)")
        lines.append(_PROPOSITION.sub(lambda m: f"\"{m[1]} \\<and> ''sorry'' \\<noteq> ''oops''\"", line))
    return parse_sketch("\n".join(lines) + "\n")


class HammerSequence(ScriptedBackend):
    """Every tactic fails and the hammer closes each gap with the next of
    `steps`, in the order the gaps are reached."""

    def __init__(self, script, steps):
        super().__init__(script)
        self.steps = iter(steps)

    def hammer(self, timeout_ms):
        return super().hammer(timeout_ms)._replace(reconstruction=next(self.steps))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.sampled_from(SPLICE_STEPS), min_size=40, max_size=40))
def test_final_check_on_the_spliced_steps_agrees_with_a_whole_text_check(seed, steps):
    ast = _sketch_with_cheat_words_in_comments_and_strings(seed)
    assert check_no_cheat(serialize(ast)).clean
    script = ProverScript(
        rules=(), default=Outcome("hammer", step="by simp"),
        verify_reject_substrings=("metis assms",),
    )
    session = recording(ProverSession(HammerSequence(script, steps), FAST))
    outcome = prove_sketch(session, ast)
    sites = extract_gaps(ast)
    proof = ast
    for site, step in zip(sites, steps):
        proof = fill(proof, site, step)
    proof_text = serialize(proof)
    checked = [text for cmd, text in session.backend.calls if cmd == "check_full"]
    expected = verify_full(ProverSession(ScriptedBackend(script), FAST), proof_text)
    if isinstance(expected, Valid):
        assert outcome == FullProofResult(proof_text, outcome.per_gap)
    else:
        assert isinstance(outcome, SketchFailure) and outcome.failed_site is None
        assert outcome.reason == f"final check: {expected.reason}"
    assert outcome.gaps_total == len(sites)
    # a cheating proof is refused before any check reaches the backend
    assert checked == ([proof_text] if check_no_cheat(proof_text).clean else [])


# -- init failures ---------------------------------------------------------------------


class RefusingInitBackend(ScriptedBackend):
    """Refuses every context it is given."""

    def init(self, theory, statement):
        super().init(theory, statement)
        return BackendReply("fail", 0, reason="context does not parse")


def _refusing_session(tmp_path):
    script = load_script(write_script(tmp_path, close_all_script()))
    return ProverSession(RecordingBackend(RefusingInitBackend(script)), FAST)


def test_failed_init_fails_the_gap_before_any_step(tmp_path):
    session = _refusing_session(tmp_path)
    for _ in range(2):  # the session stays usable for the next context
        [result] = close_gap(session, [_context()])
        assert result == Failed((("init", "fail"),), 0)
        assert session.state is SessionState.IDLE
    assert [cmd for cmd, _ in session.backend.calls] == ["init", "init"]


def test_failed_init_fails_prove_sketch_and_direct_prove(tmp_path, fig2_text):
    # the baseline's one-gap sketch fails like any other sketch
    session = _refusing_session(tmp_path)
    ast = parse_sketch(fig2_text)
    outcome = prove_sketch(session, ast)
    assert isinstance(outcome, SketchFailure)
    assert outcome.failed_site == extract_gaps(ast)[0]
    assert outcome.partial == (Failed((("init", "fail"),), 0),)
    assert [cmd for cmd, _ in session.backend.calls] == ["init"]
    session = _refusing_session(tmp_path)
    outcome = prove_sketch(session, baseline_sketch(STATEMENT))
    assert isinstance(outcome, SketchFailure) and outcome.failed_site.path == ()
    assert outcome.partial == (Failed((("init", "fail"),), 0),)
    assert [cmd for cmd, _ in session.backend.calls] == ["init"]


class RefusingResumeBackend(ScriptedBackend):
    """Accepts contexts started from a theory, refuses resumed ones."""

    def init(self, base, statement):
        reply = super().init(base, statement)
        if isinstance(base, ProverState):
            return BackendReply("fail", 0, reason="context does not parse")
        return reply


def test_refused_resume_fails_the_gap_like_a_refused_init(tmp_path, fig2_text):
    script = load_script(write_script(tmp_path, close_all_script()))
    session = ProverSession(RecordingBackend(RefusingResumeBackend(script)), FAST)
    ast = parse_sketch(fig2_text)
    outcome = prove_sketch(session, ast)
    assert isinstance(outcome, SketchFailure)
    assert outcome.failed_site == extract_gaps(ast)[1]
    assert isinstance(outcome.partial[0], Closed)
    assert outcome.partial[1] == Failed((("init", "fail"),), 0)
    assert session.state is SessionState.IDLE
    assert [cmd for cmd, _ in session.backend.calls] == ["init", "step", "resume"]


def test_scripted_backend_resumes_only_issued_states(tmp_path):
    backend = ScriptedBackend(load_script(write_script(tmp_path, close_all_script())))
    with pytest.raises(SessionDead, match="unknown state 's1'"):
        backend.init(ProverState("s1"), 'have c: "g"')  # nothing issued yet
    assert backend.init("Main", 'have c: "g"').state_id == "s1"
    assert backend.step("by auto", 50).state_id == "s2"
    for issued in ("s1", "s2"):
        assert backend.init(ProverState(issued), 'have c: "g"').status == "ok"
    # the last has more digits than int() reads
    for unknown in ("s5", "s0", "s01", "S1", "s1 ", "s", "1", "s\u0661", "s" + "1" * 5000):
        with pytest.raises(SessionDead, match="unknown state"):
            backend.init(ProverState(unknown), 'have c: "g"')


def test_scripted_backend_answers_the_rule_of_the_latest_goal():
    backend = ScriptedBackend(ProverScript(
        rules=(
            Rule("exact", "", Outcome("tactic", index=0)),
            Rule("substring", "alpha", Outcome("tactic", index=1)),
            Rule("substring", "beta", Outcome("hammer", step="by simp")),
        ),
        default=Outcome("fail"),
    ))

    def answers():
        return [backend.step("t", 50).status, backend.step("t", 50).status, backend.hammer(50).status]

    assert answers() == ["ok", "fail", "fail"]  # before any init: the empty goal's rule
    backend.init("Main", 'have a: "alpha"')
    backend.init("Main", 'have b: "beta"')
    assert answers() == ["fail", "fail", "ok"]
    backend.init(ProverState("s1"), 'have a: "alpha"')  # resume from an earlier state
    assert answers() == ["fail", "ok", "fail"]
    backend.init(ProverState("s2"), 'have g: "gamma"')
    assert answers() == ["fail", "fail", "fail"]
    with pytest.raises(SessionDead):
        backend.init(ProverState("s99"), 'have a: "alpha"')
    assert answers() == ["fail", "fail", "fail"]  # a refused init keeps the goal
    backend.init(ProverState("s3"), 'have b: "beta"')
    assert backend.hammer(50).reconstruction == "by simp"


# -- extract_goal ------------------------------------------------------------------------


def extract_goal_oracle(statement):
    """Whole-text reference: split every line, keep the last nonblank one."""
    lines = [line for line in statement.strip().splitlines() if line.strip()]
    if not lines:
        return ""
    last = lines[-1].strip()
    quoted = re.findall(r'"([^"]*)"', last)
    if quoted:
        return quoted[-1]
    target = re.search(r"\?[A-Za-z_][A-Za-z0-9_']*", last)
    if target:
        return target.group(0)
    return last


# every separator str.splitlines knows
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# whitespace that separates no lines, goal shapes, and long lines
_PIECES = _BREAKS + [
    " ", "\t", "\x1f", "\xa0", "\u3000", "x", '"', '"x = 1"', "?thesis", "?case", "have c0:",
    "by auto", "(* note *)", "x" * 300, " " * 300, "y\n" * 200,
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40))
def test_extract_goal_matches_whole_text_reference(pieces):
    statement = "".join(pieces)
    assert extract_goal(statement) == extract_goal_oracle(statement)


# -- prove_sketch against a gap-at-a-time oracle -----------------------------------------------

SENTINEL = "by sketchprove_goal_sentinel"

# mixed outcomes, so that generated sketches close, fail midway or time out;
# the hammer's step is spaced oddly, so its parsed text differs from the reply
MIXED_SCRIPT = ProverScript(
    rules=(
        Rule("substring", "mod", Outcome("fail")),
        Rule("substring", "gcd", Outcome("timeout", ms=20)),
        Rule("exact", "?thesis", Outcome("hammer", step="by  (metis   assms)")),
        Rule("substring", "x", Outcome("tactic", index=3)),
    ),
    default=Outcome("tactic", index=0),
)


def oracle_prove(session, ast):
    """The gap-at-a-time reference: re-extract, render a sentinel-filled copy
    for each context, and fill each closing step into the AST."""
    per_gap = []
    current = ast
    while True:
        gaps = extract_gaps(current)
        if not gaps:
            break
        site = gaps[0]
        text = serialize(fill(current, site, SENTINEL))
        context = text[: text.find(SENTINEL)].rstrip() + "\n"
        [result] = close_gap(session, [context])
        per_gap.append(result)
        if not isinstance(result, Closed):
            return site, per_gap, None
        current = fill(current, site, result.closing_step)
    return None, per_gap, serialize(current)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_prove_sketch_matches_gap_at_a_time_oracle(seed):
    ast = AstGen(seed).sketch()
    fast = ProverSession(RecordingBackend(ScriptedBackend(MIXED_SCRIPT)), FAST)
    slow = ProverSession(RecordingBackend(ScriptedBackend(MIXED_SCRIPT)), FAST)
    outcome = prove_sketch(fast, ast)
    failed_site, per_gap, proof_text = oracle_prove(slow, ast)
    if proof_text is None:
        assert isinstance(outcome, SketchFailure)
        assert outcome.failed_site == failed_site
        assert outcome.failed_site == extract_gaps(ast)[len(outcome.partial) - 1]
        assert list(outcome.partial) == per_gap
    else:
        assert isinstance(outcome, FullProofResult)
        assert outcome.proof_text == proof_text
        assert list(outcome.per_gap) == per_gap
        verify_full(slow, proof_text)

    def cascade(calls):
        return [call for call in calls if call[0] in ("step", "hammer", "check_full")]

    def contexts(calls):
        return [call for call in calls if call[0] in ("init", "resume")]

    assert cascade(fast.backend.calls) == cascade(slow.backend.calls)
    sent, oracle = contexts(fast.backend.calls), contexts(slow.backend.calls)
    assert [cmd for cmd, _ in sent] == ["resume" if k else "init" for k in range(len(oracle))]
    assert [extract_goal(text) for _, text in sent] == [extract_goal(text) for _, text in oracle]
    # the replay chain (init text, closing step, next resumed text, ...) is
    # the oracle's whole-prefix context, up to whitespace
    results = outcome.per_gap if isinstance(outcome, FullProofResult) else outcome.partial
    chain = ""
    for (_, text), (_, context), result in zip(sent, oracle, results):
        chain += text
        assert " ".join(chain.split()) == " ".join(context.split())
        if isinstance(result, Closed):
            chain += closing_step_text(result.closing_step)


# MIXED_SCRIPT, but the hammer closes ?thesis with a step the proof cannot hold
UNFIT_SCRIPT = replace(MIXED_SCRIPT, rules=(
    *MIXED_SCRIPT.rules[:2], Rule("exact", "?thesis", Outcome("hammer", step="apply auto")),
    *MIXED_SCRIPT.rules[3:],
))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.sampled_from([MIXED_SCRIPT, UNFIT_SCRIPT]))
def test_prove_sketch_counts_every_gap_of_its_sketch(seed, cheat, script):
    # the scheduler records this count instead of walking the sketch again,
    # so it holds however the proof ends: closed, at a gap, at the final
    # check or at the cheat gate, before any backend call; the count comes
    # from the render, and a gap failure names the site of its last result
    ast = AstGen(seed).sketch()
    if cheat:
        ast = replace(ast, header=replace(ast.header, name="sorry"))
    session = ProverSession(RecordingBackend(ScriptedBackend(script)), FAST)
    outcome = prove_sketch(session, ast)
    assert outcome.gaps_total == count_gaps(ast) == len(extract_gaps(ast))
    if cheat:
        assert isinstance(outcome, SketchFailure) and outcome.failed_site is None
        assert not session.backend.calls
    elif isinstance(outcome, SketchFailure) and outcome.failed_site is not None:
        assert outcome.failed_site == extract_gaps(ast)[len(outcome.partial) - 1]


# -- the session memo ------------------------------------------------------------------

# MIXED_SCRIPT, with a final check that refuses hammer-closed proofs, so that
# verdicts of both kinds are memoised too
MEMO_SCRIPT = ProverScript(
    rules=MIXED_SCRIPT.rules,
    default=MIXED_SCRIPT.default,
    verify_reject_substrings=("metis",),
)


class ChainBackend:
    """The scripted prover, with step and hammer times that depend on the
    whole chain of texts replayed before the current goal, as a real
    checker's answers may."""

    def __init__(self, script):
        self.inner = ScriptedBackend(script)
        self.chain_of: dict[str, str] = {}  # state id -> the texts that led to it
        self.chain = ""

    def _answer(self, reply, text):
        self.chain += text
        if reply.state_id is not None:
            self.chain_of[reply.state_id] = self.chain
        return reply._replace(elapsed_ms=reply.elapsed_ms + zlib.crc32(self.chain.encode()) % 97)

    def init(self, base, statement):
        reply = self.inner.init(base, statement)
        self.chain = self.chain_of[base.state_id] if isinstance(base, ProverState) else ""
        return self._answer(reply, statement)

    def step(self, text, timeout_ms):
        return self._answer(self.inner.step(text, timeout_ms), text)

    def hammer(self, timeout_ms):
        reply = self.inner.hammer(timeout_ms)
        return self._answer(reply, reply.reconstruction or "")

    def check_full(self, proof_text, timeout_ms):
        return self.inner.check_full(proof_text, timeout_ms)

    def quit(self):
        pass


def _theorem_family(seed):
    """Sketches of one theorem that share steps: an AstGen sketch, the same
    sketch again, each prefix of its top-level block's steps, the sketch
    with one of those steps restated (so the steps after it follow another
    chain of states), and a second AstGen sketch under the same header."""
    gen = AstGen(seed)
    first, second = gen.sketch(), gen.sketch()
    family = [first, first, replace(second, header=first.header)]
    body = first.body[0] if first.body else None
    if isinstance(body, ProofBlock) and not body.cases:
        steps = body.children
        for cut in range(1, len(steps)):
            family.append(replace(first, body=(replace(body, children=steps[:cut]),)))
        for i, step in enumerate(steps):
            if isinstance(step, HaveStep):
                restated = replace(step, proposition=step.proposition + " + 0")
                children = steps[:i] + (restated,) + steps[i + 1 :]
                family.append(replace(first, body=(replace(body, children=children),)))
                break
    return family


def _interleave(groups, rng):
    """The sketches of `groups` (one list per theorem) in random order: runs
    of random length from one theorem, the theorems interleaved."""
    groups = [rng.sample(group, len(group)) for group in groups]
    order = []
    while groups:
        group = rng.choice(groups)
        run = rng.randint(1, len(group))
        order += group[:run]
        del group[:run]
        groups = [g for g in groups if g]
    return order


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**32), min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_memo_session_matches_a_fresh_session_per_sketch(sketch_files, seeds, rng):
    groups = [_theorem_family(seed) for seed in seeds]
    groups += [[parse_sketch(path.read_text())] * 2 for path in rng.sample(sketch_files, 4)]
    # every theorem comes back after the others, so its memo is refilled
    sketches = _interleave(groups, rng) + _interleave(groups, rng)
    memo = ProverSession(ChainBackend(MEMO_SCRIPT), FAST)
    for ast in sketches:
        fresh = ProverSession(ChainBackend(MEMO_SCRIPT), FAST)
        assert prove_sketch(memo, ast) == prove_sketch(fresh, ast)
        assert memo.state is SessionState.IDLE


def test_repeated_sketch_sends_no_backend_call(tmp_path, fig2_text):
    script = minimal_script(
        rules=[
            {"match": {"kind": "substring", "pattern": "stalls"}, "outcome": {"kind": "timeout"}},
            {"match": {"kind": "glob", "pattern": "*"}, "outcome": {"kind": "tactic", "index": 1}},
        ]
    )
    tight = ProverConfig(tactic_timeout_ms=50, hammer_timeout_ms=600, per_gap_budget_ms=300)
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, script)), tight))
    closing = parse_sketch(fig2_text)
    # the third gap times out; the two before it are shared with `closing`
    timing_out = parse_sketch(fig2_text.replace('((5/28)^2)"', '((5/28)^2) + stalls"', 1))
    assert timing_out.header == closing.header
    for ast in (closing, timing_out):
        first = prove_sketch(session, ast)
        sent = len(session.backend.calls)
        # a memoised TimedOut is replayed, elapsed time included, not retried
        assert prove_sketch(session, ast) == first
        assert len(session.backend.calls) == sent
    assert isinstance(prove_sketch(session, closing), FullProofResult)
    assert prove_sketch(session, timing_out).partial[-1] == TimedOut(300)
    assert len(session.backend.calls) == sent
    # the timing-out sketch resumed from the memoised state of its second gap
    assert [cmd for cmd, _ in session.backend.calls].count("init") == 1


def test_memo_holds_one_theorem(tmp_path, fig2_text):
    session = open_session(ScriptedSpec(write_script(tmp_path, close_all_script())), FAST)
    ast = parse_sketch(fig2_text)
    gaps = len(extract_gaps(ast))
    for n in range(20):
        renamed = replace(ast, header=replace(ast.header, name=f"t{n}"))
        assert isinstance(prove_sketch(session, renamed), FullProofResult)
        assert session.memo.header == renamed.header
        assert len(session.memo.gaps) == gaps and len(session.memo.verdicts) == 1


def test_dead_or_closed_session_drops_its_memo(tmp_path, fig2_text):
    session = open_session(ScriptedSpec(write_script(tmp_path, close_all_script())), FAST)
    prove_sketch(session, parse_sketch(fig2_text))
    assert session.memo.gaps and session.memo.verdicts
    with pytest.raises(SessionDead), session.exclusive():
        raise SessionDead("injected")
    assert session.state is SessionState.DEAD
    assert not session.memo.gaps and not session.memo.verdicts

    live = open_session(ScriptedSpec(write_script(tmp_path, close_all_script())), FAST)
    prove_sketch(live, parse_sketch(fig2_text))
    live.close()
    assert not live.memo.gaps and not live.memo.verdicts


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_memo_header_lines_and_a_body_render_the_whole_sketch(header_seed, body_seed):
    # any sketch a memo serves has the memo's header, whatever its body
    header = AstGen(header_seed).sketch().header
    drawn = AstGen(body_seed).sketch()
    ast = replace(drawn, header=header)
    memo = ProverMemo(header)
    assert memo.header_lines == render_header(header)
    segments = render_segments(ast, memo.header_lines)
    assert segments == render_segments(ast)
    assert GAP_TOKEN.join(segments) == serialize(ast)
    assert parse_sketch(serialize(ast)).header == header
    # the text is the header's lines, then a body that does not depend on them
    head = "\n".join(memo.header_lines)
    drawn_head = "\n".join(render_header(drawn.header))
    assert serialize(ast).startswith(head) and serialize(drawn).startswith(drawn_head)
    assert serialize(ast)[len(head):] == serialize(drawn)[len(drawn_head):]
    assert serialize(SketchAst(header)) == head + "\n"


def test_each_memo_renders_its_theorem_header_once(tmp_path, fig2_text, monkeypatch):
    rendered = []

    def counting(header):
        rendered.append(header)
        return render_header(header)

    monkeypatch.setattr(driver, "render_header", counting)
    session = open_session(ScriptedSpec(write_script(tmp_path, close_all_script())), FAST)
    a = parse_sketch(fig2_text)
    b = replace(a, header=replace(a.header, name="other"))
    for ast in (a, a, b, b, a, a):
        assert isinstance(prove_sketch(session, ast), FullProofResult)
        assert session.memo.header == ast.header
        assert session.memo.header_lines == render_header(ast.header)
    # once per memo: A's lines are rendered again after B, never reused
    assert rendered == [a.header, b.header, a.header]
    assert render_header(a.header) != render_header(b.header)

    with pytest.raises(SessionDead), session.exclusive():
        raise SessionDead("injected")
    assert session.memo.header is None and session.memo.header_lines == ()
    reopened = open_session(ScriptedSpec(write_script(tmp_path, close_all_script())), FAST)
    for ast in (a, a):
        assert isinstance(prove_sketch(reopened, ast), FullProofResult)
    reopened.close()
    assert reopened.memo.header is None and reopened.memo.header_lines == ()
    assert rendered == [a.header, b.header, a.header, a.header]


def test_a_new_theorem_the_cheat_gate_refuses_still_takes_the_memo(tmp_path, fig2_text):
    session = open_session(ScriptedSpec(write_script(tmp_path, close_all_script())), FAST)
    ast = parse_sketch(fig2_text)
    assert isinstance(prove_sketch(session, ast), FullProofResult)
    cheating = parse_sketch('theorem t: shows "G"\nproof -\n  show ?thesis sorry\nqed\n')
    outcome = prove_sketch(session, cheating)
    assert outcome.reason == "cheat gate: cheating keyword: sorry"
    assert session.memo.header == cheating.header and not session.memo.gaps


class _CountingDict(dict):
    def __init__(self):
        super().__init__()
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_results_fetched_in_one_run_are_walked_without_a_memo_lookup(tmp_path, fig2_text):
    session = recording(open_session(ScriptedSpec(write_script(tmp_path, close_all_script())), FAST))
    ast = parse_sketch(fig2_text)
    gaps = len(extract_gaps(ast))
    assert gaps > 1
    session.memo = ProverMemo(ast.header, gaps=_CountingDict())
    first = prove_sketch(session, ast)
    assert isinstance(first, FullProofResult)
    # the first gap misses; the run's later results come straight from the reply
    assert session.memo.gaps.reads == 1 and len(session.memo.gaps) == gaps
    assert [cmd for cmd, _ in session.backend.calls].count("init") == 1
    assert prove_sketch(session, ast) == first
    assert session.memo.gaps.reads == 1 + gaps  # a memo hit reads each gap once


def test_scripted_backend_resumes_from_its_last_state_without_parsing_it(tmp_path, monkeypatch):
    parsed = []
    real = scripted._STATE_ID_RE

    class CountingPattern:
        def fullmatch(self, text):
            parsed.append(text)
            return real.fullmatch(text)

    monkeypatch.setattr(scripted, "_STATE_ID_RE", CountingPattern())
    backend = ScriptedBackend(load_script(write_script(tmp_path, close_all_script())))
    for unissued in ("s0", "s1"):  # with no states issued, not even "s0"
        with pytest.raises(SessionDead, match="unknown state"):
            backend.init(ProverState(unissued), 'have c: "g"')
    assert parsed == ["s0", "s1"]
    del parsed[:]
    assert backend.init("Main", 'have c: "g"').state_id == "s1"
    assert backend.init(ProverState("s1"), 'have c: "g"').state_id == "s2"
    assert backend.step("by auto", 50).state_id == "s3"
    assert backend.init(ProverState("s3"), 'have c: "g"').state_id == "s4"
    assert parsed == []  # each resume was from the id issued last
    assert backend.init(ProverState("s2"), 'have c: "g"').state_id == "s5"
    for unknown in ("s6", "s0", "s05", "s" + "5" * 5000):
        with pytest.raises(SessionDead, match="unknown state"):
            backend.init(ProverState(unknown), 'have c: "g"')
    assert parsed == ["s2", "s6", "s0", "s05", "s" + "5" * 5000]

import dataclasses
import io
import json
import random
import shlex
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import cascade_oracle
import decode_oracle
from bridges import RelayBridge
from conftest import minimal_script, retained_bytes
from sketchprove.prover import (
    Closed,
    ConnectError,
    ExternalSpec,
    Failed,
    FullProofResult,
    Invalid,
    ProverConfig,
    ProverSession,
    ProverState,
    ScriptedBackend,
    SessionDead,
    SessionState,
    SketchFailure,
    TimedOut,
    Valid,
    WireBackend,
    WireServer,
    close_gap,
    load_script,
    open_session,
    prove_sketch,
    run_cascades,
    verify_full,
)
from sketchprove.prover import wire
from sketchprove.prover.driver import ProverMemo
from sketchprove.prover.wire import _serve_connection, encode_gap_result
from sketchprove.scheduler import SessionProvider, baseline_sketch
from sketchprove.sketch import parse_sketch, render_segments

FAST = ProverConfig(tactic_timeout_ms=50, hammer_timeout_ms=600, per_gap_budget_ms=2000)

WIRE_SCRIPT = minimal_script(
    rules=[
        {"match": {"kind": "substring", "pattern": "first goal"},
         "outcome": {"kind": "tactic", "index": 0}},
        {"match": {"kind": "exact", "pattern": "?thesis"},
         "outcome": {"kind": "hammer", "step": "by (metis assms)"}},
        {"match": {"kind": "exact", "pattern": "x + 0 = x"},
         "outcome": {"kind": "tactic", "index": 2}},
    ],
    verify={"default": "accept", "reject_substrings": ["poison"]},
)


def write_script(tmp_path, script, name="wire_script.json"):
    path = tmp_path / name
    path.write_text(json.dumps(script))
    return str(path)


@pytest.fixture()
def server(tmp_path):
    server = WireServer(write_script(tmp_path, WIRE_SCRIPT)).start()
    yield server
    server.stop()


def transport_backend(transport, server, tmp_path):
    if transport == "tcp":
        return WireBackend(server.address)
    script_path = write_script(tmp_path, WIRE_SCRIPT, "stdio_script.json")
    return WireBackend(f"stdio:{sys.executable} -m sketchprove.prover --script {script_path} --stdio")


def counting_commands(backend):
    """Wraps the backend's round trip; returns the list of frames it sends."""
    sent = []
    roundtrip = backend._roundtrip

    def counting(cmd, *args, **fields):
        sent.append((cmd, fields))
        return roundtrip(cmd, *args, **fields)

    backend._roundtrip = counting
    return sent


def fake_bridge(answer):
    """A bridge on a local port that serves one connection, answering each
    frame with `answer(frame)`: the fields of a reply, or a whole reply line
    when it is a string; returns its address."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("r") as reader, conn.makefile("w") as writer:
            for line in reader:
                frame = json.loads(line)
                reply = answer(frame)
                if not isinstance(reply, str):
                    reply = json.dumps({"id": frame["id"], "elapsed_ms": 0, **reply})
                writer.write(reply + "\n")
                writer.flush()
                if frame["cmd"] == "quit":
                    break
        listener.close()

    threading.Thread(target=serve, daemon=True).start()
    return f"127.0.0.1:{port}"


SKETCH = (
    'theorem t: shows "G"\n'
    "proof -\n"
    '  have c1: "first goal" sledgehammer\n'
    "  show ?thesis using c1 sledgehammer\n"
    "qed\n"
)
# the contexts prove_sketch sends for SKETCH's two gaps
FIRST_CONTEXT, SECOND_CONTEXT = (
    segment.rstrip() + "\n" for segment in render_segments(parse_sketch(SKETCH))[:-1]
)


def test_wire_round_trip_frames(server):
    backend = WireBackend(server.address)
    reply = backend.init("Main", 'shows "x + 0 = x"')
    assert reply.status == "ok" and reply.state_id
    assert backend.step("by auto", 50).status == "fail"
    assert backend.step("by simp", 50).status == "fail"
    assert backend.step("by blast", 50).status == "ok"
    backend.quit()


def test_wire_prove_sketch_end_to_end(server):
    session = open_session(ExternalSpec(server.address), FAST)
    outcome = prove_sketch(session, parse_sketch(SKETCH))
    assert isinstance(outcome, FullProofResult)
    assert [type(r) for r in outcome.per_gap] == [Closed, Closed]
    assert outcome.per_gap[0].closing_step == "by auto"
    assert outcome.per_gap[1].closing_step == "by (metis assms)"
    session.close()


def test_wire_close_gap(server):
    session = open_session(ExternalSpec(server.address), FAST)
    [result] = close_gap(session, [FIRST_CONTEXT])
    session.close()
    assert isinstance(result, Closed) and result.tactic_index == 0


def test_wire_direct_prove(server):
    session = open_session(ExternalSpec(server.address), FAST)
    outcome = prove_sketch(session, baseline_sketch('theorem t:\n  shows "x + 0 = x"'))
    session.close()
    assert isinstance(outcome, FullProofResult)
    assert "by blast" in outcome.proof_text


def test_wire_whole_proof_check(server):
    session = open_session(ExternalSpec(server.address), FAST)
    good = 'theorem t: shows "G"\nproof -\n  show ?thesis by auto\nqed\n'
    assert isinstance(verify_full(session, good), Valid)
    poisoned = 'theorem t: shows "G"\nproof -\n  (* poison *)\n  show ?thesis by auto\nqed\n'
    verdict = verify_full(session, poisoned)
    session.close()
    assert isinstance(verdict, Invalid) and "poison" in verdict.reason


def test_wire_connection_loss_marks_session_dead():
    import socket
    import threading

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def one_shot_then_hang_up():
        conn, _ = listener.accept()
        with conn, conn.makefile("r") as reader:
            reader.readline()  # the open_session handshake
            conn.sendall(b'{"id": 1, "status": "ok", "state_id": "s0", "elapsed_ms": 0}\n')
            reader.readline()  # next command: drop the connection instead of answering
        listener.close()

    threading.Thread(target=one_shot_then_hang_up, daemon=True).start()
    session = open_session(ExternalSpec(f"127.0.0.1:{port}"), FAST)
    with pytest.raises(SessionDead):
        close_gap(session, [FIRST_CONTEXT])
    assert session.state is SessionState.DEAD
    with pytest.raises(SessionDead):
        close_gap(session, [FIRST_CONTEXT])  # stays dead until reopened
    session.close()


def test_wire_sessions_isolated(server):
    one = WireBackend(server.address)
    two = WireBackend(server.address)
    one.init("Main", 'shows "x + 0 = x"')
    one.step("by auto", 50)
    one.step("by simp", 50)
    two.init("Main", 'shows "x + 0 = x"')
    assert two.step("by auto", 50).status == "fail"  # ordinal 0, not 2
    one_reply = one.step("by blast", 50)
    assert one_reply.status == "ok"
    one.quit()
    two.quit()


def test_wire_stdio_backend(tmp_path):
    script_path = tmp_path / "stdio_script.json"
    script_path.write_text(
        json.dumps(
            minimal_script(
                rules=[{"match": {"kind": "exact", "pattern": "x + 0 = x"},
                        "outcome": {"kind": "tactic", "index": 0}}]
            )
        )
    )
    address = f"stdio:{sys.executable} -m sketchprove.prover --script {script_path} --stdio"
    session = open_session(ExternalSpec(address), FAST)
    outcome = prove_sketch(session, baseline_sketch('theorem t:\n  shows "x + 0 = x"'))
    assert isinstance(outcome, FullProofResult)
    session.close()


def test_wire_unresponsive_backend_does_not_hang():
    import socket
    import threading
    import time

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    holder = {}

    def accept_then_stall():
        conn, _ = listener.accept()
        holder["conn"] = conn  # keep the connection open, answer nothing

    threading.Thread(target=accept_then_stall, daemon=True).start()
    backend = WireBackend(f"127.0.0.1:{port}")
    started = time.monotonic()
    with pytest.raises(SessionDead, match="did not answer"):
        backend._roundtrip("init", reply_timeout_s=0.3, theory="Main", statement="")
    assert time.monotonic() - started < 5
    backend.quit()
    holder.get("conn") and holder["conn"].close()
    listener.close()


# reads one frame, then answers nothing
SILENT_CHILD = "import sys, time; sys.stdin.readline(); time.sleep(600)"
# answers the first frame and, in the same write, the second one ahead of
# time; then answers nothing
EAGER_CHILD = (
    "import sys, time; sys.stdin.readline(); "
    "sys.stdout.write('{\"id\": 1, \"status\": \"ok\", \"state_id\": \"s1\"}\\n"
    "{\"id\": 2, \"status\": \"fail\", \"reason\": \"early\"}\\n'); "
    "sys.stdout.flush(); time.sleep(600)"
)


def _in_thread(call, join_s):
    """Run `call` in a daemon thread; returns its result or exception, or
    None when it did not finish within `join_s`."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:  # noqa: BLE001 - handed to the test
            outcome.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=join_s)
    return outcome[0] if outcome else None


def test_wire_unresponsive_stdio_backend_does_not_hang():
    backend = WireBackend(f"stdio:{sys.executable} -c {shlex.quote(SILENT_CHILD)}")
    try:
        started = time.monotonic()
        got = _in_thread(
            lambda: backend._roundtrip("step", reply_timeout_s=0.5, text="by auto", timeout_ms=50), 5
        )
        assert isinstance(got, SessionDead), "a silent stdio bridge blocked the round trip"
        assert "did not answer 'step'" in str(got)
        assert time.monotonic() - started < 2
    finally:
        backend.quit()
    assert backend._proc.poll() is not None


def test_wire_stdio_reply_read_ahead_is_not_lost():
    backend = WireBackend(f"stdio:{sys.executable} -c {shlex.quote(EAGER_CHILD)}")
    try:
        first = _in_thread(lambda: backend.init("Main", ""), 5)
        assert first is not None and first.state_id == "s1"
        # the second reply arrived with the first one; the deadline must not
        # wait on the pipe for a frame that was already read
        second = _in_thread(lambda: backend._roundtrip("step", reply_timeout_s=0.5, text="by auto"), 5)
        assert isinstance(second, dict) and (second["id"], second["reason"]) == (2, "early")
    finally:
        backend._proc.kill()  # it would not answer `quit`
        backend.quit()


@pytest.mark.parametrize("transport", ["tcp", "stdio"])
def test_wire_check_full_is_one_round_trip(server, tmp_path, transport):
    backend = transport_backend(transport, server, tmp_path)
    sent = counting_commands(backend)
    good = 'theorem t: shows "G"\nproof -\n  show ?thesis by auto\nqed\n'
    assert backend.check_full(good, 600).status == "ok"
    assert [cmd for cmd, _ in sent] == ["check"]
    # a whole-proof check is independent of the goal the connection holds
    backend.init("Main", 'shows "x + 0 = x"')
    reply = backend.check_full(good.replace("by auto", "(* poison *) by auto"), 600)
    assert reply.status == "fail" and "poison" in reply.reason
    assert [cmd for cmd, _ in sent] == ["check", "init", "check"]
    backend.quit()


@pytest.mark.parametrize("transport", ["tcp", "stdio"])
def test_wire_quit_releases_the_connection(server, tmp_path, transport):
    backend = transport_backend(transport, server, tmp_path)
    assert backend.init("Main", 'shows "x + 0 = x"').status == "ok"
    backend.quit()
    assert backend._reader.closed and backend._writer.closed
    if transport == "tcp":
        assert backend._sock.fileno() == -1
    else:
        assert backend._proc.poll() is not None
    with pytest.raises(SessionDead):
        backend.step("by auto", 50)


def _unknown(cmd):
    def answer(frame):
        if frame["cmd"] == cmd:
            return {"status": "fail", "reason": f"unknown command {cmd!r}"}
        return {"status": "ok", "state_id": "s1", "reconstruction": "by (metis assms)"}

    return answer


def test_wire_check_unknown_to_the_bridge_is_a_lost_session():
    # a bridge without `check` must surface as an infrastructure failure,
    # not quietly turn every closed sketch into an invalid proof
    session = ProverSession(WireBackend(fake_bridge(_unknown("check"))), FAST)
    with pytest.raises(SessionDead, match="does not support 'check'"):
        verify_full(session, 'theorem t: shows "G"\nproof -\n  show ?thesis by auto\nqed\n')
    assert session.state is SessionState.DEAD
    session.close()


# -- resume ------------------------------------------------------------------------


@pytest.mark.parametrize("transport", ["tcp", "stdio"])
def test_wire_resume_round_trip(server, tmp_path, transport):
    backend = transport_backend(transport, server, tmp_path)
    sent = counting_commands(backend)
    first = backend.init("Main", 'theorem t: shows "G"\nproof -\n  have c1: "first goal"\n')
    assert first.status == "ok" and first.state_id
    closed = backend.step("by auto", 50)
    assert closed.status == "ok" and closed.state_id not in (None, first.state_id)
    resumed = backend.init(ProverState(closed.state_id), "\n  show ?thesis using c1\n")
    assert resumed.status == "ok" and resumed.state_id not in (None, closed.state_id)
    hammer = backend.hammer(600)  # the goal is the resumed text's
    assert hammer.status == "ok" and hammer.reconstruction == "by (metis assms)"
    # any state issued on this connection can be resumed, and resuming
    # discards the current goal and its cascade position
    backend.init(ProverState(first.state_id), '\n  have c2: "x + 0 = x"\n')
    assert [backend.step(step, 50).status for step in ("by auto", "by simp", "by blast")] == [
        "fail", "fail", "ok"]
    # a resume replays text, and its reply deadline is the grace alone
    assert sent[2] == ("resume", {
        "reply_timeout_s": wire.REPLY_GRACE_S, "state": closed.state_id,
        "text": "\n  show ?thesis using c1\n",
    })
    assert [cmd for cmd, _ in sent] == [
        "init", "step", "resume", "hammer", "resume", "step", "step", "step"]
    backend.quit()


def test_wire_resume_unknown_to_the_bridge_is_a_lost_session():
    # a bridge that cannot resume a gap's cascade from the state the previous
    # gap closed in must not fail every later gap quietly
    bases = []

    def answer(frame):
        if frame["cmd"] != "cascade":
            return {"status": "ok", "state_id": "s1"}
        bases.append(frame.get("state", frame.get("theory")))
        if "state" in frame:
            return {"status": "fail", "reason": f"unknown state {frame['state']!r}"}
        # one result for the two contexts sent: the client sends the second again
        return {"status": "ok", "results": [{"kind": "closed", "closing_step": "by auto",
                                             "tactic_index": 0, "elapsed_ms": 0, "state_id": "s2"}]}

    session = ProverSession(WireBackend(fake_bridge(answer)), FAST)
    with pytest.raises(SessionDead, match="does not support 'cascade': unknown state 's2'"):
        prove_sketch(session, parse_sketch(SKETCH))
    assert bases == ["Main", "s2"]
    assert session.state is SessionState.DEAD
    session.close()


def test_wire_cascade_unknown_to_the_bridge_is_a_lost_session():
    # a bridge written before `cascade` ends the session; the client does not
    # fall back to the step-by-step commands
    backend = WireBackend(fake_bridge(_unknown("cascade")))
    sent = counting_commands(backend)
    session = ProverSession(backend, FAST)
    with pytest.raises(SessionDead, match="does not support 'cascade'"):
        close_gap(session, [FIRST_CONTEXT])
    assert [cmd for cmd, _ in sent] == ["cascade"]
    assert session.state is SessionState.DEAD
    session.close()


@pytest.mark.parametrize("cmd", ["step", "hammer"])
def test_wire_step_or_hammer_unknown_to_the_bridge_is_a_lost_session(cmd):
    # driven one command at a time, a bridge without `step` or `hammer` must
    # not turn each of its answers into a failed tactic
    def answer(frame):
        if frame["cmd"] == cmd:
            return {"status": "fail", "reason": f"unknown command {cmd!r}"}
        if frame["cmd"] == "step":
            return {"status": "fail", "reason": "step does not close the goal"}
        return {"status": "ok", "state_id": "s1"}

    session = open_session(ExternalSpec(fake_bridge(answer)), FAST)
    with pytest.raises(SessionDead, match=f"does not support '{cmd}': unknown command"):
        with session.exclusive() as backend:
            run_cascades(backend, "Main", [FIRST_CONTEXT], FAST)
    assert session.state is SessionState.DEAD
    session.close()


def test_wire_init_unknown_to_the_bridge_is_a_connect_error():
    # the handshake's refusal is reported as an unreachable backend
    address = fake_bridge(lambda frame: {"status": "fail", "reason": "unknown command 'init'"})
    with pytest.raises(ConnectError, match="unknown command 'init'"):
        open_session(ExternalSpec(address), FAST)


def test_wire_resume_from_an_unknown_state_is_a_lost_session(server):
    backend = WireBackend(server.address)
    with pytest.raises(SessionDead, match="unknown state 's1'"):
        backend.init(ProverState("s1"), "\n  show ?thesis\n")  # nothing issued yet
    issued = backend.init("Main", 'shows "x + 0 = x"').state_id
    assert backend.init(ProverState(issued), "\n  show ?thesis\n").status == "ok"
    with pytest.raises(SessionDead, match="unknown state 's99'"):
        backend.init(ProverState("s99"), "\n  show ?thesis\n")
    backend.quit()
    other = WireBackend(server.address)  # states belong to their connection
    with pytest.raises(SessionDead, match="unknown state"):
        other.init(ProverState(issued), "\n  show ?thesis\n")
    other.quit()


@pytest.mark.parametrize("closer", ["step", "hammer"])
def test_wire_closing_reply_without_state_id_is_a_lost_session(closer):
    closed = {"kind": "closed", "closing_step": "by auto", "tactic_index": 0, "elapsed_ms": 0}
    if closer == "hammer":
        closed.update(closing_step="by (metis assms)", tactic_index=None)

    def answer(frame):
        if frame["cmd"] == "cascade":
            return {"status": "ok", "results": [closed]}  # no state_id
        return {"status": "ok", "state_id": "s1"}

    session = ProverSession(WireBackend(fake_bridge(answer)), FAST)
    with pytest.raises(SessionDead, match="no state_id"):
        close_gap(session, [FIRST_CONTEXT])
    assert session.state is SessionState.DEAD
    session.close()


@pytest.mark.parametrize("closer", ["step", "hammer"])
def test_step_by_step_closing_reply_without_state_id_is_a_lost_session(closer):
    # the step protocol's closing replies, read by run_cascades over the wire
    def answer(frame):
        if frame["cmd"] == "step" and closer == "hammer":
            return {"status": "fail", "reason": "step does not close the goal"}
        if frame["cmd"] in ("step", "hammer"):
            return {"status": "ok", "reconstruction": "by (metis assms)"}  # no state_id
        return {"status": "ok", "state_id": "s1"}

    backend = WireBackend(fake_bridge(answer))
    sent = counting_commands(backend)
    with pytest.raises(SessionDead, match="no state_id"):
        run_cascades(backend, "Main", [FIRST_CONTEXT], FAST)[0]
    assert [cmd for cmd, _ in sent] == ["init", "step"] + ["step"] * 10 * (closer == "hammer") + [
        "hammer"] * (closer == "hammer")
    backend.quit()


def seeded_sketch(seed, gaps):
    rng = random.Random(seed)
    lines = ['theorem big: assumes h0: "P"\n  shows "Q"\nproof -\n']
    for i in range(gaps - 1):
        if rng.random() < 0.5:
            lines.append(f"  (* step {i}: {'w' * rng.randrange(40)} *)\n")
        lines.append(f'  have c{i}: "x + {rng.randrange(10**6)} = {rng.randrange(10**6)} + x"'
                     f" using h0 sledgehammer\n")
    lines.append("  show ?thesis sledgehammer\nqed\n")
    return parse_sketch("".join(lines))


def test_wire_context_bytes_follow_the_segment_not_the_prefix(tmp_path):
    close_all = minimal_script(
        rules=[{"match": {"kind": "glob", "pattern": "*"}, "outcome": {"kind": "tactic", "index": 0}}]
    )
    server = WireServer(write_script(tmp_path, close_all)).start()
    try:
        session = open_session(ExternalSpec(server.address), FAST)
        sent = counting_commands(session.backend)
        ast = seeded_sketch(7, 200)
        outcome = prove_sketch(session, ast)
        session.close()
    finally:
        server.stop()
    assert isinstance(outcome, FullProofResult) and len(outcome.per_gap) == 200

    def size(text):
        return len(text.encode("utf-8"))

    assert [cmd for cmd, _ in sent] == ["cascade", "check", "quit"]
    context_bytes = sum(size(text) for cmd, fields in sent if cmd == "cascade" for text in fields["texts"])
    segments = render_segments(ast)[:-1]
    contexts = [segment.rstrip() + "\n" for segment in segments]
    prefixes = ["".join(segments[: k + 1]).rstrip() + "\n" for k in range(len(segments))]
    assert context_bytes == sum(map(size, contexts))
    assert 50 * context_bytes < sum(map(size, prefixes))  # about 100 times, on this sketch


def test_serve_connection_keeps_no_call_log(tmp_path):
    backend = ScriptedBackend(load_script(write_script(tmp_path, WIRE_SCRIPT)))
    requests = [
        {"cmd": "init", "theory": "Main", "statement": 'have c1: "first goal"'},
        {"cmd": "step", "text": "by auto", "timeout_ms": 50},
        {"cmd": "resume", "state": "s2", "text": "\n  show ?thesis using c1\n"},
        {"cmd": "hammer", "timeout_ms": 600},
        {"cmd": "check", "text": "theorem t: shows \"G\" by auto", "timeout_ms": 600},
        {"cmd": "cascade", "state": "s2", "texts": ["\n  show ?thesis using c1\n"],
         "tactics": list(FAST.tactic_list), "tactic_timeout_ms": 50, "hammer_timeout_ms": 600,
         "budget_ms": 2000},
    ]
    retained = []

    def frames():
        for round_ in range(10):
            for req_id, request in enumerate(requests, 6 * round_ + 1):
                yield json.dumps({"id": req_id, **request}) + "\n"
            retained.append(retained_bytes(backend))  # every reply of the round is out
        yield json.dumps({"id": 61, "cmd": "quit"}) + "\n"

    writer = io.StringIO()
    _serve_connection(backend, frames(), writer)
    replies = [json.loads(line) for line in writer.getvalue().splitlines()]
    assert [reply["id"] for reply in replies] == list(range(1, 62))
    assert all(reply["status"] == "ok" for reply in replies)
    assert len(set(retained)) == 1  # the connection's backend keeps nothing per call


# -- malformed replies and frames ----------------------------------------------------


@pytest.mark.parametrize("line", ["[1]", "7", '"ok"', "null", "true", "[]"])
def test_wire_reply_that_is_not_an_object_is_a_lost_session(line):
    backend = WireBackend(fake_bridge(lambda frame: line))
    with pytest.raises(SessionDead, match="not a JSON object"):
        backend.init("Main", 'shows "x + 0 = x"')
    backend.quit()


@pytest.mark.parametrize("fields", [
    {"status": 7},
    {"status": "ok", "elapsed_ms": "abc"},
    {"status": "ok", "elapsed_ms": None},
    {"status": "ok", "elapsed_ms": True},
    {"status": "ok", "state_id": 5},
    {"status": "fail", "reason": ["no"]},
    {"status": "fail", "elapsed_ms": -40},
    {"status": "fail", "elapsed_ms": -0.5},
    {},
    {"status": None},
    {"status": "maybe"},
    {"status": "OK"},
    {"status": ["ok"]},
    {"status": {"ok": 1}},
])
def test_wire_reply_with_a_badly_typed_field_is_a_lost_session(fields):
    line = json.dumps({"id": 1, **fields})
    backend = WireBackend(fake_bridge(lambda frame: line))
    with pytest.raises(SessionDead):
        backend.step("by auto", 50)
    backend.quit()


def test_cheating_reconstruction_sends_no_check_frame(tmp_path):
    # the final check refuses the spliced step before the proof leaves the client
    script = minimal_script(default={"kind": "hammer", "step": "by (metis sorry)"})
    server = WireServer(write_script(tmp_path, script)).start()
    session = open_session(ExternalSpec(server.address), FAST)
    try:
        sent = counting_commands(session.backend)
        text = 'theorem t: shows "G"\nproof -\n  have c: "a" sledgehammer\n  show ?thesis sledgehammer\nqed\n'
        outcome = prove_sketch(session, parse_sketch(text))
        assert outcome.failed_site is None
        assert outcome.reason == "final check: cheating keyword: sorry"
        assert [cmd for cmd, _ in sent] == ["cascade"]
    finally:
        session.close()
        server.stop()


@pytest.mark.parametrize("status", ["maybe", None, 1])
def test_whole_proof_check_with_an_unknown_status_is_a_lost_session_not_an_invalid_proof(status):
    # a bridge's answer outside ok | fail | timeout is an infrastructure
    # fault, so the proof gets no verdict and the session is dead
    fields = {} if status is None else {"status": status}
    session = ProverSession(WireBackend(fake_bridge(lambda frame: fields)), FAST)
    with pytest.raises(SessionDead):
        verify_full(session, 'theorem t: shows "G"\nproof -\n  show ?thesis by auto\nqed\n')
    assert session.state is SessionState.DEAD
    session.close()


def test_ok_hammer_reply_without_a_reconstruction_is_a_lost_session():
    # "ok" is never a failed attempt's outcome: the hammer claims a proof
    # it does not give, so the gap gets no result
    def answer(frame):
        if frame["cmd"] == "init":
            return {"status": "ok", "state_id": "s1"}
        return {"status": "ok" if frame["cmd"] in ("hammer", "quit") else "fail"}

    backend = WireBackend(fake_bridge(answer))
    with pytest.raises(SessionDead, match="no reconstruction"):
        run_cascades(backend, "Main", [FIRST_CONTEXT], FAST)[0]
    backend.quit()


CLOSED = {"kind": "closed", "closing_step": "by auto", "tactic_index": 0, "elapsed_ms": 3,
          "state_id": "s2"}


@pytest.mark.parametrize("result", [
    {"kind": "failed", "attempts": [["auto", "fail"], ["sledgehammer", "timeout"]], "elapsed_ms": 7},
    {"kind": "timed_out", "elapsed_ms": 12},
    CLOSED,
    {**CLOSED, "tactic_index": None, "closing_step": "by (metis assms)"},
])
def test_wire_cascade_reply_decodes_each_result_kind(result):
    backend = WireBackend(fake_bridge(lambda frame: {"status": "ok", "results": [result]}))
    [got] = backend.cascade("Main", [FIRST_CONTEXT], FAST)
    assert json.loads(encode_gap_result(got)) == result
    backend.quit()


# any text: every code point, lone surrogates included, with quotes,
# backslashes and control characters drawn often
_ANY_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    st.sampled_from('"\\\x00\x1f\x7f\u2028'),
), max_size=12)
_ANY_MS = st.integers() | st.integers(10**15, 10**40)


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.builds(Closed, _ANY_TEXT, st.none() | st.integers(), _ANY_MS, _ANY_TEXT),
    st.builds(Failed, st.lists(st.tuples(_ANY_TEXT, _ANY_TEXT), max_size=4).map(tuple), _ANY_MS),
    st.builds(TimedOut, _ANY_MS),
))
def test_gap_result_template_writes_what_json_dumps_writes(result):
    assert encode_gap_result(result) == json.dumps(cascade_oracle.encode_gap_result(result))


@pytest.mark.parametrize("reply", [
    {"status": "ok", "results": [None]},
    {"status": "ok", "results": [[]]},
    {"status": "ok", "results": ["closed"]},
    {"status": "ok", "results": [{}]},
    {"status": "ok", "results": [{"kind": "proved", "elapsed_ms": 0}]},
    {"status": "ok", "results": [{**CLOSED, "closing_step": None}]},
    {"status": "ok", "results": [{**CLOSED, "tactic_index": "0"}]},
    {"status": "ok", "results": [{**CLOSED, "tactic_index": False}]},
    {"status": "ok", "results": [{**CLOSED, "state_id": 2}]},
    {"status": "ok", "results": [{**CLOSED, "elapsed_ms": "3"}]},
    {"status": "ok", "results": [{"kind": "failed", "attempts": "auto", "elapsed_ms": 0}]},
    {"status": "ok", "results": [{"kind": "failed", "attempts": [["auto"]], "elapsed_ms": 0}]},
    {"status": "ok", "results": [{"kind": "failed", "attempts": [["auto", 1]], "elapsed_ms": 0}]},
    {"status": "ok", "results": [{"kind": "failed", "attempts": []}]},
    {"status": "ok", "results": [{"kind": "timed_out", "elapsed_ms": float("nan")}]},
    {"status": "ok", "results": [{"kind": "timed_out", "elapsed_ms": -5}]},
    {"status": "ok", "results": [{**CLOSED, "elapsed_ms": -1}]},
    {"status": "ok", "results": [{"kind": "failed", "attempts": [["auto", "fail"]], "elapsed_ms": -2}]},
    {"status": "ok", "results": [CLOSED], "elapsed_ms": -40},
    {"status": "ok", "results": [{**CLOSED, "tactic_index": -1}]},
    {"status": "ok", "results": [{**CLOSED, "tactic_index": len(FAST.tactic_list)}]},
    {"status": "fail", "reason": "bad frame: 'tactics' must be a list"},
    {"status": "timeout"},
    {"results": [CLOSED]},
    {"status": "maybe", "results": [CLOSED]},
    {"status": "ok", "results": [{"kind": "failed", "attempts": [["auto", "ok"]], "elapsed_ms": 0}]},
    {"status": "ok", "results": [{"kind": "failed", "attempts": [["auto", "maybe"]], "elapsed_ms": 0}]},
    {"status": "ok", "results": [{"kind": "failed", "attempts": [["auto", None]], "elapsed_ms": 0}]},
    {"status": "ok", "results": [{"kind": "failed", "attempts": [["auto", ["fail"]]], "elapsed_ms": 0}]},
    {"status": "ok", "results": [{"kind": "failed", "attempts": [["init", "ok"]], "elapsed_ms": 0}]},
])
def test_wire_cascade_reply_without_a_well_formed_result_is_a_lost_session(reply):
    # never a KeyError or TypeError, and never a verdict on the gap
    session = ProverSession(WireBackend(fake_bridge(lambda frame: reply)), FAST)
    with pytest.raises(SessionDead):
        close_gap(session, [FIRST_CONTEXT])
    assert session.state is SessionState.DEAD
    session.close()


FAILED_RESULT = {"kind": "failed", "attempts": [["auto", "fail"]], "elapsed_ms": 1}


@pytest.mark.parametrize("reply", [
    pytest.param({"status": "ok"}, id="missing"),
    pytest.param({"status": "ok", "results": None}, id="null"),
    pytest.param({"status": "ok", "results": CLOSED}, id="not-a-list"),
    pytest.param({"status": "ok", "results": "closed"}, id="a-string"),
    pytest.param({"status": "ok", "results": []}, id="empty"),
    pytest.param({"status": "ok", "results": [CLOSED, CLOSED, CLOSED]}, id="longer-than-texts"),
    pytest.param({"status": "ok", "results": [FAILED_RESULT, CLOSED]}, id="after-an-open-result"),
    pytest.param({"status": "ok", "results": [{"kind": "timed_out", "elapsed_ms": 4}, CLOSED]},
                 id="after-a-timed-out-result"),
])
def test_wire_cascade_reply_with_a_malformed_results_list_is_a_lost_session(reply):
    # two contexts sent: a reply must carry one or two results, and none
    # after a gap that did not close
    backend = WireBackend(fake_bridge(lambda frame: reply))
    session = ProverSession(backend, FAST)
    with pytest.raises(SessionDead):
        close_gap(session, [FIRST_CONTEXT, SECOND_CONTEXT])
    assert session.state is SessionState.DEAD
    session.close()


@pytest.mark.parametrize("results", [[CLOSED], [CLOSED, CLOSED], [FAILED_RESULT], [CLOSED, FAILED_RESULT]])
def test_wire_cascade_reply_of_one_result_per_gap_attempted_is_accepted(results):
    backend = WireBackend(fake_bridge(lambda frame: {"status": "ok", "results": results}))
    got = backend.cascade("Main", [FIRST_CONTEXT, SECOND_CONTEXT], FAST)
    assert [json.loads(encode_gap_result(result)) for result in got] == results
    backend.quit()


def test_wire_cascade_reply_deadline_is_the_budget_of_every_gap_sent(server):
    backend = WireBackend(server.address)
    sent = counting_commands(backend)
    assert len(backend.cascade("Main", [FIRST_CONTEXT, SECOND_CONTEXT], FAST)) == 2
    assert len(backend.cascade("Main", [FIRST_CONTEXT], FAST)) == 1
    budget_s = FAST.per_gap_budget_ms / 1000
    assert [fields["reply_timeout_s"] for _, fields in sent] == [
        2 * budget_s + wire.REPLY_GRACE_S, budget_s + wire.REPLY_GRACE_S]
    backend.quit()


# a JSON value `json.loads` cannot read without overflowing the recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


def test_wire_reply_nested_too_deep_is_a_lost_session_and_the_next_reopen_works():
    # the first bridge answers the final check with a reply nested too deep
    # for the JSON decoder; the session provider's reopen reaches the second
    def answer(frame):
        if frame["cmd"] == "cascade":
            return {"status": "ok", "results": [CLOSED, {**CLOSED, "state_id": "s3"}]}
        if frame["cmd"] == "check":
            return DEEP
        return {"status": "ok", "state_id": "s1"}

    first, second = fake_bridge(answer), fake_bridge(lambda frame: {"status": "ok", "state_id": "s1"})
    addresses = iter([first, second])
    sessions = SessionProvider(lambda: open_session(ExternalSpec(next(addresses)), FAST))
    proof = 'theorem t: shows "G"\n  by auto\n'
    try:
        session = sessions.get()
        with pytest.raises(SessionDead, match="unparseable frame"):
            prove_sketch(session, parse_sketch(SKETCH))
        assert session.state is SessionState.DEAD
        assert not session.memo.gaps and not session.memo.verdicts
        reopened = sessions.get()
        assert reopened is not session and reopened.state is SessionState.IDLE
        assert verify_full(reopened, proof) == Valid()
    finally:
        sessions.close()


# -- the exact-type result decoder against the plain one ----------------------------

_JSON_INT = st.integers(0, 10**6)
_OTHER_TYPES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=True), st.text(max_size=4), _JSON_INT,
    st.lists(st.text(max_size=3), max_size=2), st.dictionaries(st.text(max_size=3), _JSON_INT, max_size=2),
)


@st.composite
def _gap_result(draw, tactics):
    """A well-formed closed, failed or timed-out result of a cascade that
    sent `tactics` tactic names."""
    kind = draw(st.sampled_from(["closed", "failed", "timed_out"]))
    result = {"kind": kind, "elapsed_ms": draw(_JSON_INT)}
    if kind == "closed":
        result["closing_step"] = draw(st.sampled_from(["by auto", "by (metis assms)", ""]))
        result["tactic_index"] = draw(st.none() | st.integers(0, tactics - 1))
        result["state_id"] = draw(st.sampled_from(["s1", "s27", ""]))
    elif kind == "failed":
        result["attempts"] = draw(st.lists(
            st.tuples(st.sampled_from(["auto", "sledgehammer", "init"]),
                      st.sampled_from(["fail", "timeout"])).map(list),
            max_size=3,
        ))
    return result


@st.composite
def _mutated_gap_result(draw):
    """(a result as `json.loads` gives it, the tactics sent): a well-formed
    result with at most one mutation."""
    tactics = draw(st.integers(1, 12))
    result = draw(_gap_result(tactics))
    name = draw(st.sampled_from(sorted(result)))
    mutation = draw(st.sampled_from(
        ["none", "bool or float", "negative or out of range", "missing", "extra", "wrong type",
         "attempt"]
    ))
    if mutation == "bool or float":
        result[draw(st.sampled_from(["elapsed_ms", "tactic_index"]))] = draw(
            st.booleans() | st.floats(allow_nan=True) | st.floats(-1e3, 1e6))
    elif mutation == "negative or out of range":
        result[draw(st.sampled_from(["elapsed_ms", "tactic_index"]))] = draw(
            st.integers(-10**6, -1) | st.integers(tactics, tactics + 3))
    elif mutation == "missing":
        del result[name]
    elif mutation == "extra":
        result[draw(st.sampled_from(["extra", "reason", "closing_step", "state_id"]))] = draw(_OTHER_TYPES)
    elif mutation == "wrong type":
        result[name] = draw(_OTHER_TYPES)
    elif mutation == "attempt" and result.get("attempts"):
        attempt = result["attempts"][0]
        attempt[draw(st.integers(0, 1))] = draw(_OTHER_TYPES)
        if draw(st.booleans()):
            attempt.append("fail")
    raw = draw(st.sampled_from([result, [result], json.dumps(result), None, 7]) if mutation == "none"
               else st.just(result))
    return json.loads(json.dumps(raw)), tactics


def _decoded(decode, raw, tactics):
    """What `decode` makes of `raw`: the result's type and every field,
    `state_id` and the exact type of `elapsed_ms` included, or the
    SessionDead it raises."""
    try:
        result = decode(raw, tactics)
    except SessionDead as exc:
        return SessionDead, str(exc)
    return type(result), dataclasses.astuple(result), type(result.elapsed_ms)


@settings(max_examples=400, deadline=None)
@given(_mutated_gap_result())
def test_decode_gap_result_decodes_like_the_plain_oracle(case):
    raw, tactics = case
    assert _decoded(wire.decode_gap_result, raw, tactics) == _decoded(
        decode_oracle.decode_gap_result, raw, tactics)


def test_gap_results_stay_frozen_dataclasses_that_ignore_state_id():
    closed = Closed("by auto", 0, 3, "s1")
    assert closed == Closed("by auto", 0, 3, "s2") and hash(closed) == hash(Closed("by auto", 0, 3))
    assert closed != Closed("by auto", 0, 4, "s1") and closed != Closed("by simp", 0, 3, "s1")
    assert repr(closed) == "Closed(closing_step='by auto', tactic_index=0, elapsed_ms=3, state_id='s1')"
    assert repr(Failed((("auto", "fail"),))) == "Failed(attempts=(('auto', 'fail'),), elapsed_ms=0)"
    assert repr(TimedOut(5)) == "TimedOut(elapsed_ms=5)"
    assert dataclasses.replace(closed, elapsed_ms=9) == Closed("by auto", 0, 9)
    assert dataclasses.replace(closed, elapsed_ms=9).state_id == "s1"
    assert Failed((), 1) != TimedOut(1) and hash(Failed((), 1)) == hash(Failed((), 1))
    for result in (closed, Failed(()), TimedOut(0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.elapsed_ms = 1
        assert not hasattr(result, "__dict__")
    with pytest.raises(TypeError):
        Closed("by auto", 0)


def cascade_frame(req_id, drop=(), **fields):
    """A `cascade` frame with `fields` changed and the fields in `drop` left out."""
    frame = {"id": req_id, "cmd": "cascade", "theory": "Main", "texts": [""], "tactics": ["auto"],
             "tactic_timeout_ms": 50, "hammer_timeout_ms": 600, "budget_ms": 2000, **fields}
    return json.dumps({key: value for key, value in frame.items() if key not in drop}).encode()


# (a frame the reference server cannot read, the id its reply echoes)
BAD_FRAMES = [
    (b"\xff\xfe not UTF-8", None),
    (b"[1]", None),
    (b"7", None),
    (b'"ok"', None),
    (b"not json", None),
    (b'{"id": 1}', 1),
    (b'{"cmd": "init"}', None),
    (b'{"id": 2, "cmd": 5}', 2),
    (b'{"id": 3, "cmd": "step", "text": "by auto", "timeout_ms": "abc"}', 3),
    (b'{"id": 4, "cmd": "hammer", "timeout_ms": -1}', 4),
    (b'{"id": 5, "cmd": "resume", "state": 1, "text": ""}', 5),
    (b'{"id": 6, "cmd": "check", "text": null, "timeout_ms": 50}', 6),
    (cascade_frame(7, tactics="auto"), 7),
    (cascade_frame(8, tactics=[]), 8),
    (cascade_frame(9, tactics=["auto", 3]), 9),
    (cascade_frame(10, drop=("theory",), state=5), 10),
    (cascade_frame(11, budget_ms="2000"), 11),
    (cascade_frame(12, texts=4), 12),
    (cascade_frame(13, drop=("tactic_timeout_ms",)), 13),
    (cascade_frame(14, drop=("texts",)), 14),
    (cascade_frame(15, drop=("texts",), text='shows "x + 0 = x"'), 15),
    (cascade_frame(16, texts=[]), 16),
    (cascade_frame(17, texts=['shows "x + 0 = x"', 3]), 17),
    (cascade_frame(18, texts='shows "x + 0 = x"'), 18),
    (DEEP.encode(), None),
]


# frames from states the reference server never issued, two with more
# digits than int() reads: (the frame, its state); each gets an
# "unknown state" reply
_LONG_STATE = "s" + "1" * 5000
UNKNOWN_STATE_FRAMES = [
    (json.dumps({"id": 40, "cmd": "resume", "state": _LONG_STATE, "text": ""}).encode(), _LONG_STATE),
    (cascade_frame(41, drop=("theory",), state=_LONG_STATE), _LONG_STATE),
    (cascade_frame(42, drop=("theory",), state="s9"), "s9"),
]


# each command's fields: (a well-formed value, whether the frame may leave it out)
_FRAME_FIELDS = {
    "init": {"theory": ("Main", True), "statement": ('shows "x + 0 = x"', True)},
    "resume": {"state": ("s1", False), "text": ("", True)},
    "step": {"text": ("by auto", True), "timeout_ms": (50, False)},
    "hammer": {"timeout_ms": (600, False)},
    "check": {"text": ("", True), "timeout_ms": (50, False)},
    "cascade": {"theory": ("Main", True), "texts": ([""], False), "tactics": (["auto"], False),
                "tactic_timeout_ms": (50, False), "hammer_timeout_ms": (600, False),
                "budget_ms": (2000, False)},
}
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.integers(-10**12, 10**12)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _fits(good, value):
    """Whether `value` is what a field whose well-formed value is `good` needs."""
    if isinstance(good, list):
        return type(value) is list and bool(value) and all(isinstance(v, str) for v in value) and (
            good == [""] or all(value))  # a tactic name is never empty
    if isinstance(good, int):
        return type(value) is int and value > 0
    return isinstance(value, str)


@st.composite
def _bad_frame(draw):
    """(a line the reference server cannot act on, the id its reply echoes)"""
    how = draw(st.sampled_from(["bytes", "value", "field", "missing", "deep"]))
    if how == "bytes":
        line = draw(st.binary(min_size=1, max_size=40).filter(lambda b: b"\n" not in b))
        text = line.decode("utf-8", "surrogateescape")
        try:
            value = json.loads(text)
        except (ValueError, RecursionError):
            value = None
        assume(text.strip(" \t\r") and not isinstance(value, dict))
        return line, None
    if how == "deep":
        depth = draw(st.sampled_from([1, 300, 990, 1000, 100_000]))
        return ("[" * depth + "]" * depth).encode(), None
    req_id = draw(_JSON_VALUE.filter(lambda value: value is not None))
    if how == "value":
        value = draw(_JSON_VALUE)
        if isinstance(value, dict):
            value = {**value, "id": draw(st.just(req_id) | st.none())}
            value["cmd"] = draw(_JSON_VALUE.filter(lambda cmd: not isinstance(cmd, str)))
            return json.dumps(value).encode(), value["id"]
        return json.dumps(value).encode(), None
    cmd = draw(st.sampled_from(sorted(_FRAME_FIELDS)))
    fields = _FRAME_FIELDS[cmd]
    frame = {"id": req_id, "cmd": cmd, **{name: good for name, (good, _) in fields.items()}}
    if how == "missing":
        required = [name for name, (_, optional) in fields.items() if not optional]
        assume(required)
        del frame[draw(st.sampled_from(required))]
    else:
        name = draw(st.sampled_from(sorted(fields)))
        frame[name] = draw(_JSON_VALUE.filter(lambda value: not _fits(fields[name][0], value)))
    return json.dumps(frame).encode(), req_id


@pytest.mark.parametrize("transport", ["tcp", "stdio"])
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad_frames=st.lists(_bad_frame(), min_size=1, max_size=8))
@example(bad_frames=BAD_FRAMES)
@example(bad_frames=[(b"\x00\r\x00", None), (b'{"id": 30,\r "cmd": "check"}', 30)])  # one frame each
@example(bad_frames=[(b"\x1c", None), ("\u2028".encode(), None)])  # space to Python, not to JSON
def test_server_answers_bad_frames_and_keeps_serving(server, tmp_path, transport, bad_frames):
    good = cascade_frame(20, texts=['have c1: "first goal"\n', '  have c2: "x + 0 = x"\n'],
                         tactics=["auto", "simp", "blast"])
    unknown_states = [line for line, _ in UNKNOWN_STATE_FRAMES]
    lines = [line for line, _ in bad_frames] + unknown_states + [good, b'{"id": 21, "cmd": "quit"}']
    data = b"".join(line + b"\n" for line in lines)
    if transport == "tcp":
        host, _, port = server.address.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            conn.sendall(data)
            out = conn.makefile("rb").read()
    else:
        script_path = write_script(tmp_path, WIRE_SCRIPT, "stdio_script.json")
        child = subprocess.run(
            [sys.executable, "-m", "sketchprove.prover", "--script", script_path, "--stdio"],
            input=data, capture_output=True, timeout=60,
        )
        assert child.returncode == 0 and not child.stderr
        out = child.stdout
    replies = [json.loads(line) for line in out.splitlines()]
    assert len(replies) == len(lines)
    bad, unknown = replies[: len(bad_frames)], replies[len(bad_frames) : -2]
    answered, quit_reply = replies[-2:]
    assert [reply["id"] for reply in bad] == [req_id for _, req_id in bad_frames]
    assert all(reply["status"] == "fail" and reply["reason"].startswith("bad frame") for reply in bad)
    assert unknown == [
        {"id": json.loads(line)["id"], "status": "fail", "elapsed_ms": 0,
         "reason": f"unknown state {state!r}"}
        for line, state in UNKNOWN_STATE_FRAMES
    ]
    assert answered["id"] == 20
    assert [(r["kind"], r["closing_step"]) for r in answered["results"]] == [
        ("closed", "by auto"), ("closed", "by blast")]
    assert quit_reply == {"id": 21, "status": "ok", "elapsed_ms": 0}


# the reference server with a fault injected into `ScriptedBackend.init`:
# a ValueError for the statement "boom", every other init answered as usual
STDIO_WITH_INIT_FAULT = """
import sys
from sketchprove.prover import wire
real_init = wire.ScriptedBackend.init
def init(self, base, statement):
    if statement == "boom":
        raise ValueError("injected fault")
    return real_init(self, base, statement)
wire.ScriptedBackend.init = init
sys.exit(wire.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("transport", ["tcp", "stdio"])
def test_server_answers_its_own_fault_and_keeps_serving(server, tmp_path, monkeypatch, capfd, transport):
    frames = [{"id": 1, "cmd": "init", "theory": "Main", "statement": "boom"},
              {"id": 2, "cmd": "init", "theory": "Main", "statement": 'have c1: "first goal"'},
              {"id": 3, "cmd": "quit"}]
    data = b"".join(json.dumps(frame).encode() + b"\n" for frame in frames)
    if transport == "tcp":
        real_init = ScriptedBackend.init

        def init(backend, base, statement):
            if statement == "boom":
                raise ValueError("injected fault")
            return real_init(backend, base, statement)

        monkeypatch.setattr(ScriptedBackend, "init", init)
        host, _, port = server.address.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            conn.sendall(data)
            out = conn.makefile("rb").read()
        stderr = capfd.readouterr().err
    else:
        script_path = write_script(tmp_path, WIRE_SCRIPT, "stdio_script.json")
        child = subprocess.run(
            [sys.executable, "-c", STDIO_WITH_INIT_FAULT, "--script", script_path, "--stdio"],
            input=data, capture_output=True, timeout=60,
        )
        assert child.returncode == 0
        out, stderr = child.stdout, child.stderr.decode()
    replies = [json.loads(line) for line in out.splitlines()]
    assert replies[0] == {"id": 1, "status": "fail", "reason": "internal error: ValueError: injected fault"}
    assert replies[1]["id"] == 2 and replies[1]["status"] == "ok" and replies[1]["state_id"]
    assert replies[2] == {"id": 3, "status": "ok", "elapsed_ms": 0}
    assert len(stderr.splitlines()) == 1 and "internal error: ValueError: injected fault" in stderr


@pytest.mark.parametrize("content, message", [
    pytest.param(b"[]", "the script must be an object", id="not-an-object"),
    pytest.param(DEEP.encode(), "not valid JSON: nested too deep", id="nested-too-deep"),
    pytest.param(b'{"schema": "\xff"}', "cannot read prover script {}: not UTF-8 (byte 12)", id="not-utf-8"),
])
@pytest.mark.parametrize("serve", [["--stdio"], ["--port", "0"]], ids=["stdio", "port"])
def test_reference_server_reports_a_bad_script_in_one_line(tmp_path, serve, content, message):
    script_path = tmp_path / "script.json"
    script_path.write_bytes(content)
    child = subprocess.run(
        [sys.executable, "-m", "sketchprove.prover", "--script", str(script_path), *serve],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 1 and child.stdout == ""
    assert child.stderr.splitlines() == [
        f"error[infra]: bad prover script {script_path}: {message.format(script_path)}"
    ]


# -- any one change to a reference reply: the same result, or a lost session ---------

PROPERTY_SCRIPT = {**WIRE_SCRIPT, "rules": [
    *WIRE_SCRIPT["rules"],
    {"match": {"kind": "exact", "pattern": "slow goal"}, "outcome": {"kind": "timeout", "ms": 5}},
]}
# each command's inputs: init statements, sketches to prove (all gaps close, a
# gap fails, a gap's tactics time out, the final check fails), proofs to check
VARIANTS = {
    "init": ['shows "x + 0 = x"'],
    "cascade": [
        SKETCH,
        SKETCH.replace("show ?thesis", 'have c2: "never" sledgehammer\n  show ?thesis'),
        SKETCH.replace("first goal", "slow goal"),
        SKETCH.replace('"G"', '"poison"'),
    ],
    "check": ['theorem t: shows "G"\n  by auto\n', 'theorem t: shows "poison"\n  by auto\n'],
}


def _outcome(cmd, session, variant):
    """The result class of `cmd`: an init's status, each gap's result class
    (with the proof's), or the whole-proof verdict's class."""
    if cmd == "init":
        with session.exclusive() as backend:
            return backend.init("Main", variant).status
    if cmd == "check":
        return type(verify_full(session, variant))
    result = prove_sketch(session, parse_sketch(variant))
    per_gap = result.per_gap if isinstance(result, FullProofResult) else result.partial
    return type(result), tuple(type(gap) for gap in per_gap)


@pytest.fixture(scope="module")
def property_server(tmp_path_factory):
    server = WireServer(write_script(tmp_path_factory.mktemp("property"), PROPERTY_SCRIPT)).start()
    session = open_session(ExternalSpec(server.address), FAST)
    expected = {(cmd, variant): _outcome(cmd, session, variant)
                for cmd, variants in VARIANTS.items() for variant in variants}
    session.close()
    assert {expected[cmd, v] for cmd, v in expected if cmd == "cascade"} == {
        (FullProofResult, (Closed, Closed)), (SketchFailure, (Closed, Failed)),
        (SketchFailure, (Failed,)), (SketchFailure, (Closed, Closed))}
    yield server, expected
    server.stop()


_REPLY_FIELDS = ("id", "status", "elapsed_ms", "state_id", "reconstruction", "reason", "results", "extra")
_RESULT_FIELDS = ("kind", "closing_step", "tactic_index", "elapsed_ms", "state_id", "attempts", "extra")
# paths to a field of the reply, of a gap result, or of a failed attempt
_FIELD_PATHS = [(name,) for name in _REPLY_FIELDS] + [
    ("results", i, name) for i in range(2) for name in _RESULT_FIELDS]
_VALUE_PATHS = _FIELD_PATHS + [("results", i) for i in range(2)] + [
    ("results", i, "attempts", j, *k) for i in range(2) for j in range(2) for k in [(), (0,), (1,)]]
_ENUM_PATHS = [("status",)] + [("results", i, "kind") for i in range(2)] + [
    ("results", i, "attempts", j, 1) for i in range(2) for j in range(2)]
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=True), st.integers(-5, 5), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
_NEST = "\x00nest\x00"


def _reply_mutation():
    """One change to a reply, as a tuple `_mutated` applies."""
    return st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(_FIELD_PATHS)),
        st.tuples(st.just("add"), st.sampled_from(_FIELD_PATHS), _ANY_VALUE),
        st.tuples(st.just("swap type"), st.sampled_from(_VALUE_PATHS), _ANY_VALUE),
        st.tuples(st.just("out of range"), st.sampled_from(_FIELD_PATHS),
                  st.integers(max_value=-1) | st.integers(min_value=len(FAST.tactic_list))),
        st.tuples(st.just("unknown"), st.sampled_from(_ENUM_PATHS),
                  st.sampled_from(["maybe", "OK", "", "closed ", "Timeout"])),
        st.tuples(st.just("results"), st.sampled_from(["more", "fewer", "zero"])),
        st.tuples(st.just("nest"), st.sampled_from(_VALUE_PATHS),
                  st.sampled_from([1, 2, 50, 500, 900, 950, 980, 990, 1000, 2000, 100_000])),
        st.tuples(st.just("line"), st.sampled_from([b"[1]", b"7", b'"ok"', b"null", b"", DEEP.encode()])),
        st.tuples(st.just("truncate"), st.integers(0, 10**4)),
        st.tuples(st.just("not utf-8"), st.integers(0, 10**4), st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])),
    )


def _mutated(reply, mutation):
    """The reply line with `mutation` applied; a change that does not fit
    the reply (a path it lacks, a swap to the same type) leaves it as is."""
    what, *how = mutation
    line = json.dumps(reply).encode()
    if what == "line":
        return how[0]
    if what == "truncate":
        return line[: how[0] % len(line)]
    if what == "not utf-8":
        at = how[0] % (len(line) + 1)
        return line[:at] + how[1] + line[at:]
    reply = json.loads(line)  # a copy
    if what == "results":
        results = reply.get("results")
        if isinstance(results, list) and results:
            reply["results"] = {"more": results + results[-1:], "fewer": results[:-1], "zero": []}[how[0]]
        return json.dumps(reply).encode()
    *parents, last = how[0]
    holder = reply
    for step in parents:
        try:
            holder = holder[step]
        except (KeyError, IndexError, TypeError):
            return line
    present = last in holder if isinstance(holder, dict) else 0 <= last < len(holder)
    old = holder[last] if present else None
    if what == "drop" and present:
        del holder[last]
    elif what == "add" and not present and isinstance(holder, dict):
        holder[last] = how[1]
    elif what == "swap type" and present and type(old) is not type(how[1]):
        holder[last] = how[1]
    elif what in ("out of range", "unknown") and present and type(old) is type(how[1]):
        holder[last] = how[1]
    elif what == "nest" and present:
        holder[last] = _NEST
        depth = how[1]
        nested = "[" * depth + json.dumps(old) + "]" * depth
        return json.dumps(reply).replace(json.dumps(_NEST), nested).encode()
    return json.dumps(reply).encode()


@settings(max_examples=250, deadline=None)
@given(cmd=st.sampled_from(sorted(VARIANTS)), pick=st.integers(0, 3), mutation=_reply_mutation())
# an encoded lone surrogate in a closing step: not UTF-8, so a lost session
@example(cmd="cascade", pick=0, mutation=("not utf-8", 3584, b"\xed\xa0\x80"))
def test_a_changed_reply_gives_the_same_result_or_a_lost_session(property_server, cmd, pick, mutation):
    server, expected = property_server
    variant = VARIANTS[cmd][pick % len(VARIANTS[cmd])]
    # the first init opens the session, so the one after it is changed
    bridge = RelayBridge(server.address, mutate=(cmd, 2 if cmd == "init" else 1,
                                                 lambda reply: _mutated(reply, mutation)))
    sessions = SessionProvider(lambda: open_session(ExternalSpec(bridge.address), FAST))
    try:
        session = sessions.get()
        session.memo = ProverMemo(parse_sketch(SKETCH).header, verdicts={"seen": Valid()})
        try:
            outcome = _outcome(cmd, session, variant)
        except SessionDead:
            assert session.state is SessionState.DEAD
            assert not session.memo.gaps and not session.memo.verdicts
            reopened = sessions.get()
            assert reopened is not session and reopened.state is SessionState.IDLE
            outcome = _outcome(cmd, reopened, variant)
        assert outcome == expected[cmd, variant]
    finally:
        sessions.close()
        bridge.close()


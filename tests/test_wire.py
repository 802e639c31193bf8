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

from conftest import minimal_script, retained_bytes
from sketchprove.prover import (
    Closed,
    ExternalSpec,
    FullProofResult,
    Invalid,
    ProverConfig,
    ProverSession,
    ProverState,
    ScriptedBackend,
    SessionDead,
    SessionState,
    Valid,
    WireBackend,
    WireServer,
    close_gap,
    load_script,
    open_session,
    prove_sketch,
    run_cascade,
    verify_full,
)
from sketchprove.prover.wire import _serve_connection, encode_gap_result
from sketchprove.scheduler import baseline_sketch
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
# the context prove_sketch sends for SKETCH's first gap
FIRST_CONTEXT = render_segments(parse_sketch(SKETCH))[0].rstrip() + "\n"


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
    result = close_gap(session, FIRST_CONTEXT)
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
        close_gap(session, FIRST_CONTEXT)
    assert session.state is SessionState.DEAD
    with pytest.raises(SessionDead):
        close_gap(session, FIRST_CONTEXT)  # stays dead until reopened
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
    assert sent[2] == ("resume", {"state": closed.state_id, "text": "\n  show ?thesis using c1\n"})
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
        return {"status": "ok", "result": {"kind": "closed", "closing_step": "by auto",
                                           "tactic_index": 0, "elapsed_ms": 0, "state_id": "s2"}}

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
        close_gap(session, FIRST_CONTEXT)
    assert [cmd for cmd, _ in sent] == ["cascade"]
    assert session.state is SessionState.DEAD
    session.close()


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
            return {"status": "ok", "result": closed}  # no state_id
        return {"status": "ok", "state_id": "s1"}

    session = ProverSession(WireBackend(fake_bridge(answer)), FAST)
    with pytest.raises(SessionDead, match="no state_id"):
        close_gap(session, FIRST_CONTEXT)
    assert session.state is SessionState.DEAD
    session.close()


@pytest.mark.parametrize("closer", ["step", "hammer"])
def test_step_by_step_closing_reply_without_state_id_is_a_lost_session(closer):
    # the step protocol's closing replies, read by run_cascade over the wire
    def answer(frame):
        if frame["cmd"] == "step" and closer == "hammer":
            return {"status": "fail", "reason": "step does not close the goal"}
        if frame["cmd"] in ("step", "hammer"):
            return {"status": "ok", "reconstruction": "by (metis assms)"}  # no state_id
        return {"status": "ok", "state_id": "s1"}

    backend = WireBackend(fake_bridge(answer))
    sent = counting_commands(backend)
    with pytest.raises(SessionDead, match="no state_id"):
        run_cascade(backend, "Main", FIRST_CONTEXT, FAST)
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

    assert [cmd for cmd, _ in sent] == ["cascade"] * 200 + ["check", "quit"]
    context_bytes = sum(size(fields["text"]) for cmd, fields in sent if cmd == "cascade")
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
        {"cmd": "cascade", "state": "s2", "text": "\n  show ?thesis using c1\n",
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
])
def test_wire_reply_with_a_badly_typed_field_is_a_lost_session(fields):
    line = json.dumps({"id": 1, **fields})
    backend = WireBackend(fake_bridge(lambda frame: line))
    with pytest.raises(SessionDead):
        backend.step("by auto", 50)
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
    backend = WireBackend(fake_bridge(lambda frame: {"status": "ok", "result": result}))
    got = backend.cascade("Main", FIRST_CONTEXT, FAST)
    assert encode_gap_result(got) == result
    backend.quit()


@pytest.mark.parametrize("reply", [
    {"status": "ok"},
    {"status": "ok", "result": None},
    {"status": "ok", "result": []},
    {"status": "ok", "result": "closed"},
    {"status": "ok", "result": {}},
    {"status": "ok", "result": {"kind": "proved", "elapsed_ms": 0}},
    {"status": "ok", "result": {**CLOSED, "closing_step": None}},
    {"status": "ok", "result": {**CLOSED, "tactic_index": "0"}},
    {"status": "ok", "result": {**CLOSED, "tactic_index": False}},
    {"status": "ok", "result": {**CLOSED, "state_id": 2}},
    {"status": "ok", "result": {**CLOSED, "elapsed_ms": "3"}},
    {"status": "ok", "result": {"kind": "failed", "attempts": "auto", "elapsed_ms": 0}},
    {"status": "ok", "result": {"kind": "failed", "attempts": [["auto"]], "elapsed_ms": 0}},
    {"status": "ok", "result": {"kind": "failed", "attempts": [["auto", 1]], "elapsed_ms": 0}},
    {"status": "ok", "result": {"kind": "failed", "attempts": []}},
    {"status": "ok", "result": {"kind": "timed_out", "elapsed_ms": float("nan")}},
    {"status": "fail", "reason": "bad frame: 'tactics' must be a list"},
    {"status": "timeout"},
])
def test_wire_cascade_reply_without_a_well_formed_result_is_a_lost_session(reply):
    # never a KeyError or TypeError, and never a verdict on the gap
    session = ProverSession(WireBackend(fake_bridge(lambda frame: reply)), FAST)
    with pytest.raises(SessionDead):
        close_gap(session, FIRST_CONTEXT)
    assert session.state is SessionState.DEAD
    session.close()


def cascade_frame(req_id, drop=(), **fields):
    """A `cascade` frame with `fields` changed and the fields in `drop` left out."""
    frame = {"id": req_id, "cmd": "cascade", "theory": "Main", "text": "", "tactics": ["auto"],
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
    (cascade_frame(12, text=4), 12),
    (cascade_frame(13, drop=("tactic_timeout_ms",)), 13),
]


@pytest.mark.parametrize("transport", ["tcp", "stdio"])
def test_server_answers_bad_frames_and_keeps_serving(server, tmp_path, transport):
    good = cascade_frame(20, text='shows "x + 0 = x"', tactics=["auto", "simp", "blast"])
    lines = [line for line, _ in BAD_FRAMES] + [good, b'{"id": 21, "cmd": "quit"}']
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
    *bad, answered, quit_reply = replies
    assert [reply["id"] for reply in bad] == [req_id for _, req_id in BAD_FRAMES]
    assert all(reply["status"] == "fail" and reply["reason"].startswith("bad frame") for reply in bad)
    assert answered["id"] == 20 and answered["result"]["kind"] == "closed"
    assert answered["result"]["closing_step"] == "by blast"
    assert quit_reply == {"id": 21, "status": "ok", "elapsed_ms": 0}

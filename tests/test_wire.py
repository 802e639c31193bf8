import json
import sys

import pytest

from conftest import minimal_script
from sketchprove.prover import (
    Closed,
    ExternalSpec,
    FullProofResult,
    Invalid,
    ProverConfig,
    ProverSession,
    SessionDead,
    SessionState,
    Valid,
    WireBackend,
    WireServer,
    close_gap,
    direct_prove,
    open_session,
    prove_sketch,
    sketch_prefix,
    verify_full,
)
from sketchprove.sketch import extract_gaps, parse_sketch

FAST = ProverConfig(tactic_timeout_ms=50, hammer_timeout_ms=600, per_gap_budget_ms=2000)


@pytest.fixture()
def server(tmp_path):
    script = minimal_script(
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
    path = tmp_path / "wire_script.json"
    path.write_text(json.dumps(script))
    server = WireServer(str(path)).start()
    yield server
    server.stop()


SKETCH = (
    'theorem t: shows "G"\n'
    "proof -\n"
    '  have c1: "first goal" sledgehammer\n'
    "  show ?thesis using c1 sledgehammer\n"
    "qed\n"
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
    ast = parse_sketch(SKETCH)
    site = extract_gaps(ast)[0]
    result = close_gap(session, site, sketch_prefix(ast, site))
    assert isinstance(result, Closed) and result.tactic_index == 0


def test_wire_direct_prove(server):
    session = open_session(ExternalSpec(server.address), FAST)
    verdict = direct_prove(session, 'theorem t:\n  shows "x + 0 = x"')
    assert isinstance(verdict, Valid)
    assert "by blast" in verdict.proof_text


def test_wire_whole_proof_check(server):
    session = open_session(ExternalSpec(server.address), FAST)
    good = 'theorem t: shows "G"\nproof -\n  show ?thesis by auto\nqed\n'
    assert isinstance(verify_full(session, good), Valid)
    poisoned = 'theorem t: shows "G"\nproof -\n  (* poison *)\n  show ?thesis by auto\nqed\n'
    verdict = verify_full(session, poisoned)
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
        reader = conn.makefile("r")
        reader.readline()  # the open_session handshake
        conn.sendall(b'{"id": 1, "status": "ok", "state_id": "s0", "elapsed_ms": 0}\n')
        reader.readline()  # next command: drop the connection instead of answering
        conn.close()
        listener.close()

    threading.Thread(target=one_shot_then_hang_up, daemon=True).start()
    session = open_session(ExternalSpec(f"127.0.0.1:{port}"), FAST)
    ast = parse_sketch(SKETCH)
    site = extract_gaps(ast)[0]
    with pytest.raises(SessionDead):
        close_gap(session, site, sketch_prefix(ast, site))
    assert session.state is SessionState.DEAD
    with pytest.raises(SessionDead):
        close_gap(session, site, sketch_prefix(ast, site))  # stays dead until reopened


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
    verdict = direct_prove(session, 'theorem t:\n  shows "x + 0 = x"')
    assert isinstance(verdict, Valid)
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
    holder.get("conn") and holder["conn"].close()
    listener.close()


@pytest.mark.parametrize("transport", ["tcp", "stdio"])
def test_wire_check_full_is_one_round_trip(server, tmp_path, transport):
    if transport == "tcp":
        backend = WireBackend(server.address)
    else:
        script_path = tmp_path / "stdio_script.json"
        script_path.write_text(json.dumps(minimal_script(verify={"reject_substrings": ["poison"]})))
        backend = WireBackend(
            f"stdio:{sys.executable} -m sketchprove.prover --script {script_path} --stdio"
        )
    sent = []
    roundtrip = backend._roundtrip

    def counting(cmd, *args, **fields):
        sent.append(cmd)
        return roundtrip(cmd, *args, **fields)

    backend._roundtrip = counting
    good = 'theorem t: shows "G"\nproof -\n  show ?thesis by auto\nqed\n'
    assert backend.check_full(good, 600).status == "ok"
    assert sent == ["check"]
    # a whole-proof check is independent of the goal the connection holds
    backend.init("Main", 'shows "x + 0 = x"')
    reply = backend.check_full(good.replace("by auto", "(* poison *) by auto"), 600)
    assert reply.status == "fail" and "poison" in reply.reason
    assert sent == ["check", "init", "check"]
    backend.quit()


def test_wire_check_unknown_to_the_bridge_is_a_lost_session():
    # a bridge without `check` must surface as an infrastructure failure,
    # not quietly turn every closed sketch into an invalid proof
    import socket
    import threading

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def bridge_without_check():
        conn, _ = listener.accept()
        with conn, conn.makefile("r") as reader, conn.makefile("w") as writer:
            for line in reader:
                frame = json.loads(line)
                reply = {"id": frame["id"], "status": "ok", "elapsed_ms": 0}
                if frame["cmd"] == "check":
                    reply = {"id": frame["id"], "status": "fail", "elapsed_ms": 0,
                             "reason": "unknown command 'check'"}
                writer.write(json.dumps(reply) + "\n")
                writer.flush()
                if frame["cmd"] == "quit":
                    return

    threading.Thread(target=bridge_without_check, daemon=True).start()
    session = ProverSession(WireBackend(f"127.0.0.1:{port}"), FAST)
    with pytest.raises(SessionDead, match="does not support 'check'"):
        verify_full(session, 'theorem t: shows "G"\nproof -\n  show ?thesis by auto\nqed\n')
    assert session.state is SessionState.DEAD
    session.close()
    listener.close()

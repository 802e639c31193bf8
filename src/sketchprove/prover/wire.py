"""Wire protocol for external prover backends.

Frames are newline-delimited JSON over a local TCP socket or a child
process's standard streams; only a line feed ends a frame. Every request carries a monotonically
increasing id echoed by the response.

Commands:
    {"id": n, "cmd": "init", "theory": t, "statement": s}
    {"id": n, "cmd": "resume", "state": s, "text": t}
    {"id": n, "cmd": "step", "text": s, "timeout_ms": ms}
    {"id": n, "cmd": "hammer", "timeout_ms": ms}
    {"id": n, "cmd": "check", "text": s, "timeout_ms": ms}
    {"id": n, "cmd": "cascade", "theory": t | "state": s, "texts": [c, ...],
     "tactics": [tactic, ...], "tactic_timeout_ms": ms,
     "hammer_timeout_ms": ms, "budget_ms": ms}
    {"id": n, "cmd": "quit"}

Responses:
    {"id": n, "status": "ok", "state_id": s, "reconstruction": r?, "elapsed_ms": ms}
    {"id": n, "status": "fail", "reason": r, "elapsed_ms": ms}
    {"id": n, "status": "timeout", "elapsed_ms": ms}
    {"id": n, "status": "ok", "results": [g, ...], "elapsed_ms": ms}   (to `cascade`)

where each gap result `g` of a cascade is one of
    {"kind": "closed", "closing_step": s, "tactic_index": i | null,
     "elapsed_ms": ms, "state_id": s}
    {"kind": "failed", "attempts": [[tactic or "sledgehammer", outcome], ...],
     "elapsed_ms": ms}
    {"kind": "timed_out", "elapsed_ms": ms}

Every reply's `status` is one of "ok", "fail" and "timeout", and a failed
attempt's `outcome` is "fail" or "timeout". Every `ms` a reply or a gap
result carries is a non-negative integer number of milliseconds, and a
closed gap's `tactic_index` (when not null) indexes the `tactics` the
cascade frame sent.

`init` starts a fresh context: it replays the statement (a theorem header
plus any proof text up to the goal) and discards whatever goal the
connection held before. `resume` does the same on top of `state`, the
`state_id` of an earlier ok reply on this connection, and is answered like
`init`: a client resumes each gap of a sketch from the state in which the
previous gap closed, sending only the text between the two gaps. Every ok
reply carries a `state_id`. `step` and `hammer` work on the goal of the
latest init or resume. `check` is a whole-proof check: the text is a
complete theory-level proof, checked end to end and independently of the
current goal.

`cascade` closes a run of consecutive gaps in one round trip. `texts` is
a nonempty list of gap contexts. The bridge replays the first on top of
`theory` or `state` (as `init` or `resume` would), runs the tactics in
order under `tactic_timeout_ms` each and then the hammer under
`hammer_timeout_ms`, never starting an attempt that could overrun
`budget_ms`; each later context resumes from the state in which the
previous gap closed. It stops after the first gap that does not close,
and after a gap whose closing step the proof text cannot hold (the
sketch grammar's `closing_step_text` rejects it), and answers with
`results`, one per gap attempted, in order. A one-gap cascade is a list
of one. A closed gap names the state its closing step left in
`state_id`, where the next gap resumes; `tactic_index` is null when the
hammer closed it, and then `closing_step` is its reconstruction. A context
the prover refuses fails with the one attempt `["init", status]`. The
reference server runs `run_cascades`, the client's own loop, on its
scripted backend. A bridge may answer fewer results than that, and the
client sends the rest as its next `cascade`. A bridge that does not apply
the closing-step rule only wastes prover work after such a gap: the client
fails the sketch there and discards the later results. The client waits
for each reply for the prover time its command allows (for `cascade`, the
per-gap budget times the number of texts) plus a grace of `REPLY_GRACE_S`.

A server answers any other command with status "fail" and the reason
"unknown command ...", a `resume` or `cascade` from a state it never
issued with the reason "unknown state ...", and a frame it cannot read (not
UTF-8, not a JSON object with an id and a cmd, or a field of the wrong
type, or `texts` that is not a nonempty list of strings) with the reason
"bad frame ..."; a frame whose answer fails inside the server itself
gets the reason "internal error: <type>: <message>" and one line on the
server's standard error. It keeps serving after each. A client treats an
"unknown command" or "unknown state" answer to `resume`, `step`, `hammer`,
`check` or `cascade`, any failed `cascade`, an ok `step` or `hammer` reply
or a closed cascade result without a `state_id`, an ok `hammer` reply
without a `reconstruction`, `results` that is not a nonempty list no
longer than `texts`, a result after one that is not closed, a missing or
unknown `status` or failed-attempt outcome, a negative `elapsed_ms`, a
`tactic_index` outside the `tactics` sent, and a reply that is not a
well-formed object, as a lost session, not as an invalid proof or a failed
gap. A resumed text the prover refuses fails its gap, as a refused `init`
does; a new session whose first `init` fails, for any reason, could not
connect.

Run the reference server (scripted rules behind the wire protocol) with:
    python -m sketchprove.prover --script rules.json --port 9777
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import select
import shlex
import socket
import socketserver
import subprocess
import sys
import threading
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import IO, Sequence

from ..errors import decode_json
from .config import (
    BackendReply,
    Closed,
    ConnectError,
    Failed,
    GapResult,
    ProverConfig,
    ProverState,
    ScriptError,
    SessionDead,
    TimedOut,
    run_cascades,
)
from .scripted import ScriptedBackend, load_script

# A reply may take this long beyond the prover time the command allows.
REPLY_GRACE_S = 30.0

# The statuses a reply may carry, and the outcomes of a failed attempt
# (tuples, so that `in` compares a value of any JSON type without hashing).
_STATUSES = ("ok", "fail", "timeout")
_FAILED_OUTCOMES = ("fail", "timeout")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ms(value: object) -> int:
    """A reply's elapsed time in whole milliseconds, never negative: the
    client charges it to the per-gap budget and writes it into records."""
    number = _is_int(value) or isinstance(value, float) and math.isfinite(value)
    if number and value >= 0:  # type: ignore[operator]
        return int(value)  # type: ignore[arg-type]
    raise SessionDead(f"elapsed_ms is not a non-negative number: {value!r}")


# A cascade reply's gap results, each written from its template as
# `json.dumps` writes the object: its fields in this order, and every string
# escaped by `encode_basestring_ascii`, the escaper `json.dumps` uses
_CLOSED = (
    '{"kind": "closed", "closing_step": %s, "tactic_index": %s, "elapsed_ms": %d, "state_id": %s}'
)
_FAILED = '{"kind": "failed", "attempts": [%s], "elapsed_ms": %d}'
_TIMED_OUT = '{"kind": "timed_out", "elapsed_ms": %d}'


def encode_gap_result(result: GapResult) -> str:
    """One gap's object in the `results` of a reply to `cascade`, as JSON text."""
    if type(result) is Closed:
        index = result.tactic_index
        return _CLOSED % (
            _quote(result.closing_step), "null" if index is None else index,
            result.elapsed_ms, _quote(result.state_id),
        )
    if type(result) is Failed:
        attempts = ", ".join(
            f"[{_quote(tactic)}, {_quote(outcome)}]" for tactic, outcome in result.attempts)
        return _FAILED % (attempts, result.elapsed_ms)
    return _TIMED_OUT % result.elapsed_ms


def decode_gap_result(raw: object, tactics: int) -> GapResult:
    """One gap result of a reply to a `cascade` that sent `tactics` tactic
    names; anything else, a `tactic_index` outside them included, raises
    SessionDead.

    A client decodes one result per gap, so each field is checked by its
    exact type (`type(x) is int`, not `isinstance`). `json.loads` makes
    only exact dicts, lists, strs, ints, floats, bools and None, so on a
    decoded reply that is the same test, and it tells a bool from an int
    in one step. A plain non-negative int `elapsed_ms` is taken as it is;
    only any other value goes through `_ms`."""
    if type(raw) is not dict:
        raise SessionDead(f"a cascade reply carries no result object: {raw!r:.120}")
    kind, ms = raw.get("kind"), raw.get("elapsed_ms")
    if kind == "closed":
        step, index, state_id = raw.get("closing_step"), raw.get("tactic_index"), raw.get("state_id")
        if state_id is None:  # the next gap resumes there
            raise SessionDead("an ok closing reply carries no state_id")
        if type(step) is str and type(state_id) is str and (
            index is None or type(index) is int and 0 <= index < tactics
        ):
            return Closed(step, index, ms if type(ms) is int and ms >= 0 else _ms(ms), state_id)
    elif kind == "failed":
        attempts = raw.get("attempts")
        if type(attempts) is list and all(
            type(a) is list and len(a) == 2 and type(a[0]) is str and a[1] in _FAILED_OUTCOMES
            for a in attempts
        ):
            return Failed(
                tuple(map(tuple, attempts)), ms if type(ms) is int and ms >= 0 else _ms(ms)
            )
    elif kind == "timed_out":
        return TimedOut(ms if type(ms) is int and ms >= 0 else _ms(ms))
    raise SessionDead(f"malformed cascade result: {json.dumps(raw)[:120]}")


def decode_gap_results(raw: object, sent: int, tactics: int) -> list[GapResult]:
    """The gap results of a reply to a `cascade` of `sent` contexts and
    `tactics` tactic names: a nonempty list, no longer than the contexts
    sent, in which only the last result may be open. Anything else raises
    SessionDead."""
    if type(raw) is not list or not 0 < len(raw) <= sent:
        raise SessionDead(
            f"a cascade of {sent} contexts needs a list of 1 to {sent} results: {json.dumps(raw)[:120]}"
        )
    results = [decode_gap_result(item, tactics) for item in raw]
    if any(type(result) is not Closed for result in results[:-1]):
        raise SessionDead("a cascade reply goes on past a gap that did not close")
    return results


class WireBackend:
    """Client side of the wire protocol; address is "host:port" for TCP or
    "stdio:<command line>" for a child process. Every round trip has a
    reply deadline on both transports; a reply that misses it raises
    SessionDead."""

    def __init__(self, address: str, connect_timeout_s: float = 5.0):
        self.address = address
        self._lock = threading.Lock()
        self._req_id = 0
        self._proc: subprocess.Popen | None = None
        self._broken = False  # the last round trip got no well-formed reply
        self._inbox = bytearray()  # bytes read past the last complete frame
        try:
            if address.startswith("stdio:"):
                command = shlex.split(address[len("stdio:") :])
                self._proc = subprocess.Popen(
                    command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
                )
                self._writer: IO[bytes] = self._proc.stdin  # type: ignore[assignment]
                self._reader: IO[bytes] = self._proc.stdout  # type: ignore[assignment]
            else:
                host, _, port = address.rpartition(":")
                sock = socket.create_connection(
                    (host or "127.0.0.1", int(port)), timeout=connect_timeout_s
                )
                sock.settimeout(None)
                self._sock = sock
                self._writer = sock.makefile("wb", buffering=0)
                self._reader = sock.makefile("rb", buffering=0)
        except (OSError, ValueError) as exc:
            raise ConnectError(address, str(exc)) from None
        # Both streams are unbuffered, so a reply is either in `_inbox` or
        # still unread on the descriptor, where poll sees it.
        self._poll = select.poll()
        self._poll.register(self._reader.fileno(), select.POLLIN)

    def _send(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[self._writer.write(view) :]

    def _read_frame(self, deadline: float) -> bytes:
        """The next newline-terminated frame, or b"" when the peer closed
        the stream; raises TimeoutError when none is complete by
        `deadline` (a time.monotonic() value)."""
        while True:
            end = self._inbox.find(b"\n") + 1
            if end:
                frame = bytes(self._inbox[:end])
                del self._inbox[:end]
                return frame
            wait_ms = (deadline - time.monotonic()) * 1000
            if wait_ms <= 0 or not self._poll.poll(wait_ms):
                raise TimeoutError
            chunk = self._reader.read(65536)
            if not chunk:
                return b""
            self._inbox += chunk

    def _roundtrip(self, cmd: str, reply_timeout_s: float, **fields) -> dict:
        with self._lock:
            self._req_id += 1
            req_id = self._req_id
            frame = {"id": req_id, "cmd": cmd, **fields}
            self._broken = True  # until the reply arrives and echoes req_id
            started = time.monotonic()
            try:
                self._send(json.dumps(frame).encode() + b"\n")
                # an unresponsive bridge must not stall the gap budget
                line = self._read_frame(started + reply_timeout_s)
            except TimeoutError:
                raise SessionDead(
                    f"backend did not answer {cmd!r} within {reply_timeout_s:.0f}s"
                ) from None
            except (OSError, ValueError) as exc:
                raise SessionDead(str(exc)) from None
            if not line:
                raise SessionDead("backend closed the connection")
            reply = decode_json(line, lambda _: SessionDead(f"unparseable frame: {line[:120]!r}"))
            if not isinstance(reply, dict):
                raise SessionDead(f"frame is not a JSON object: {line[:120]!r}")
            if reply.get("id") != req_id:
                raise SessionDead(
                    f"response id {reply.get('id')} does not echo request id {req_id}"
                )
            reply.setdefault("elapsed_ms", int((time.monotonic() - started) * 1000))
            self._broken = False
            return reply

    def _command(self, cmd: str, prover_ms: int = 0, **fields) -> tuple[BackendReply, object]:
        """Send `cmd`, waiting `prover_ms` plus `REPLY_GRACE_S` for the reply,
        and return the reply and its `results`. A malformed reply raises
        SessionDead, as does an "unknown command" or "unknown state" failure
        of any command but the handshake `init` (a ConnectError there)."""
        raw = self._roundtrip(cmd, reply_timeout_s=prover_ms / 1000 + REPLY_GRACE_S, **fields)
        status = raw.get("status")
        texts = [raw.get(key) for key in ("state_id", "reconstruction", "reason")]
        if status not in _STATUSES or not all(t is None or isinstance(t, str) for t in texts):
            raise SessionDead(f"malformed reply: {json.dumps(raw)[:120]}")
        reply = BackendReply(status, _ms(raw.get("elapsed_ms", 0)), *texts)
        reason = reply.reason or ""
        if cmd != "init" and status == "fail" and reason.startswith(("unknown command", "unknown state")):
            # a bridge that cannot run `cmd` must not turn its answers into verdicts
            raise SessionDead(f"backend does not support {cmd!r}: {reason}")
        return reply, raw.get("results")

    def init(self, base: str | ProverState, statement: str) -> BackendReply:
        if isinstance(base, ProverState):
            return self._command("resume", state=base.state_id, text=statement)[0]
        return self._command("init", theory=base, statement=statement)[0]

    def step(self, text: str, timeout_ms: int) -> BackendReply:
        return self._command("step", timeout_ms, text=text, timeout_ms=timeout_ms)[0]

    def hammer(self, timeout_ms: int) -> BackendReply:
        return self._command("hammer", timeout_ms, timeout_ms=timeout_ms)[0]

    def check_full(self, proof_text: str, timeout_ms: int) -> BackendReply:
        return self._command("check", timeout_ms, text=proof_text, timeout_ms=timeout_ms)[0]

    def cascade(
        self, base: str | ProverState, contexts: Sequence[str], config: ProverConfig
    ) -> list[GapResult]:
        """`run_cascades(self, base, contexts, config)` in one round trip: the
        bridge runs the cascades next to the prover. Its reply deadline is
        the per-gap budget for each context plus the grace."""
        where = {"state": base.state_id} if isinstance(base, ProverState) else {"theory": base}
        reply, results = self._command(
            "cascade", len(contexts) * config.per_gap_budget_ms,
            **where, texts=contexts, tactics=config.tactic_list,
            tactic_timeout_ms=config.tactic_timeout_ms,
            hammer_timeout_ms=config.hammer_timeout_ms, budget_ms=config.per_gap_budget_ms,
        )
        if reply.status != "ok":
            raise SessionDead(f"backend could not run the cascade: {reply.reason or reply.status}")
        return decode_gap_results(results, len(contexts), len(config.tactic_list))

    def quit(self) -> None:
        """End the conversation and release the socket or child process;
        any later command raises SessionDead. A conversation that already
        broke gets no `quit` frame, since its peer may never answer."""
        try:
            if not self._broken:
                self._roundtrip("quit", reply_timeout_s=5.0)
        except SessionDead:
            pass
        finally:
            if self._proc is not None:
                self._proc.terminate()
                try:
                    self._proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
            for stream in (self._writer, self._reader):
                with contextlib.suppress(OSError):
                    stream.close()
            if self._proc is None:
                self._sock.close()


class _BadFrame(Exception):
    """A frame the server cannot act on; it is answered, not fatal."""


def _field(frame: dict, name: str, kind: type, default: object = None):
    """`frame[name]` (or `default`), checked to be a `kind`; an int must be positive."""
    value = frame.get(name, default)
    if not isinstance(value, kind) or kind is int and (isinstance(value, bool) or value <= 0):
        wanted = "a positive integer" if kind is int else f"a {kind.__name__}"
        raise _BadFrame(f"{name!r} must be {wanted}")
    return value


def _cascade_config(frame: dict) -> ProverConfig:
    tactics = _field(frame, "tactics", list)
    if not tactics or not all(isinstance(t, str) and t for t in tactics):
        raise _BadFrame("'tactics' must be a nonempty list of tactic names")
    return ProverConfig(
        tactic_list=tuple(tactics),
        tactic_timeout_ms=_field(frame, "tactic_timeout_ms", int),
        hammer_timeout_ms=_field(frame, "hammer_timeout_ms", int),
        per_gap_budget_ms=_field(frame, "budget_ms", int),
    )


def _answer(backend: ScriptedBackend, frame: dict) -> str:
    """The reply to one well-formed frame, as the JSON text of an object
    without its id."""
    cmd = frame["cmd"]
    try:
        if cmd == "cascade":
            if "state" in frame:
                base: str | ProverState = ProverState(_field(frame, "state", str))
            else:
                base = _field(frame, "theory", str, "Main")
            texts = _field(frame, "texts", list)
            if not texts or not all(isinstance(text, str) for text in texts):
                raise _BadFrame("'texts' must be a nonempty list of gap contexts")
            results = run_cascades(backend, base, texts, _cascade_config(frame))
            return '{"status": "ok", "results": [%s], "elapsed_ms": %d}' % (
                ", ".join(map(encode_gap_result, results)), sum(r.elapsed_ms for r in results)
            )
        if cmd == "init":
            theory = _field(frame, "theory", str, "Main")
            reply = backend.init(theory, _field(frame, "statement", str, ""))
        elif cmd == "resume":
            state = ProverState(_field(frame, "state", str))
            reply = backend.init(state, _field(frame, "text", str, ""))
        elif cmd == "step":
            reply = backend.step(_field(frame, "text", str, ""), _field(frame, "timeout_ms", int))
        elif cmd == "hammer":
            reply = backend.hammer(_field(frame, "timeout_ms", int))
        elif cmd == "check":
            text = _field(frame, "text", str, "")
            reply = backend.check_full(text, _field(frame, "timeout_ms", int))
        elif cmd == "quit":
            reply = BackendReply("ok", 0)
        else:
            reply = BackendReply("fail", 0, reason=f"unknown command {cmd!r}")
    except SessionDead as exc:  # a resume or cascade from a state never issued
        reply = BackendReply("fail", 0, reason=exc.detail)
    payload: dict = {"status": reply.status, "elapsed_ms": reply.elapsed_ms}
    for key in ("state_id", "reconstruction", "reason"):
        value = getattr(reply, key)
        if value is not None:
            payload[key] = value
    return json.dumps(payload)


def _serve_connection(backend: ScriptedBackend, reader: IO[str], writer: IO[str]) -> None:
    for line in reader:
        line = line.strip(" \t\r\n")  # JSON whitespace: any other line gets a reply
        if not line:
            continue
        req_id = cmd = None
        try:
            frame = decode_json(line, _BadFrame)
            req_id = frame.get("id") if isinstance(frame, dict) else None
            if req_id is None or not isinstance(frame.get("cmd"), str):
                raise _BadFrame("a frame is a JSON object with an id and a cmd")
            cmd = frame["cmd"]
            reply = _answer(backend, frame)
        except _BadFrame as exc:
            reply = json.dumps({"status": "fail", "reason": f"bad frame: {exc}"})
        except Exception as exc:  # a fault of the server's own: answered and logged, not fatal
            reason = f"internal error: {type(exc).__name__}: {exc}"
            print(f"wire server: {cmd!r} frame {req_id!r}: {reason}", file=sys.stderr, flush=True)
            reply = json.dumps({"status": "fail", "reason": reason})
        # the id goes first, as in a reply written whole by `json.dumps`
        writer.write(f'{{"id": {json.dumps(req_id)}, {reply[1:]}\n')
        writer.flush()
        if cmd == "quit":
            return


class WireServer:
    """Reference TCP server: the scripted prover behind the wire protocol.
    Each connection gets an independent scripted session."""

    def __init__(self, script_path: str, host: str = "127.0.0.1", port: int = 0):
        script = load_script(script_path)

        class Handler(socketserver.StreamRequestHandler):
            wbufsize = -1  # buffered writes; the text wrapper flushes per frame

            def handle(self) -> None:
                import io

                backend = ScriptedBackend(script)
                # bytes that are not UTF-8 make a bad frame, not a dropped connection,
                # and only a line feed ends a frame (JSON allows a carriage return)
                reader = io.TextIOWrapper(self.rfile, "utf-8", "surrogateescape", "\n")
                writer = io.TextIOWrapper(self.wfile, encoding="utf-8", write_through=True)
                try:
                    _serve_connection(backend, reader, writer)
                except (BrokenPipeError, ConnectionResetError, ValueError):
                    # only the streams raise here (`_serve_connection` answers its
                    # own faults): the client went away mid-conversation
                    pass

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

            def handle_error(self, request, client_address) -> None:
                pass  # disconnects during teardown are routine

        self._server = Server((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "WireServer":
        # a short poll, so that stop() returns promptly
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="scripted prover behind the wire protocol")
    parser.add_argument("--script", required=True, help="prover script JSON")
    parser.add_argument("--port", type=int, default=0, help="TCP port (0 picks one)")
    parser.add_argument("--stdio", action="store_true", help="serve on stdin/stdout instead")
    args = parser.parse_args(argv)

    try:
        if args.stdio:
            backend = ScriptedBackend(load_script(args.script))
            sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
            _serve_connection(backend, sys.stdin, sys.stdout)
            return 0
        server = WireServer(args.script, port=args.port)
    except ScriptError as exc:
        print(f"error[infra]: {exc}", file=sys.stderr)
        return exc.exit_code
    print(f"listening on {server.address}", flush=True)
    try:
        server._server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

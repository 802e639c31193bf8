"""Wire protocol for external prover backends.

Frames are newline-delimited JSON over a local TCP socket or a child
process's standard streams. Every request carries a monotonically
increasing id echoed by the response.

Commands:
    {"id": n, "cmd": "init", "theory": t, "statement": s}
    {"id": n, "cmd": "resume", "state": s, "text": t}
    {"id": n, "cmd": "step", "text": s, "timeout_ms": ms}
    {"id": n, "cmd": "hammer", "timeout_ms": ms}
    {"id": n, "cmd": "check", "text": s, "timeout_ms": ms}
    {"id": n, "cmd": "quit"}

Responses:
    {"id": n, "status": "ok", "state_id": s, "reconstruction": r?, "elapsed_ms": ms}
    {"id": n, "status": "fail", "reason": r, "elapsed_ms": ms}
    {"id": n, "status": "timeout", "elapsed_ms": ms}

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

A server answers any other command with status "fail" and the reason
"unknown command ...", and a `resume` from a state it never issued with
the reason "unknown state ...". A client treats either answer to `check`
or `resume`, and an ok `step` or `hammer` reply without a `state_id`, as a
lost session, not as an invalid proof or a failed gap. A resumed text the
prover refuses fails its gap, as a refused `init` does.

Run the reference server (scripted rules behind the wire protocol) with:
    python -m sketchprove.prover --script rules.json --port 9777
"""

from __future__ import annotations

import argparse
import contextlib
import json
import select
import shlex
import socket
import socketserver
import subprocess
import sys
import threading
import time
from typing import IO

from .config import BackendReply, ConnectError, ProverState, SessionDead
from .scripted import ScriptedBackend, load_script


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

    def _roundtrip(self, cmd: str, reply_timeout_s: float = 30.0, **fields) -> dict:
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
            try:
                reply = json.loads(line)
            except ValueError:  # not JSON, or not UTF-8
                raise SessionDead(f"unparseable frame: {line[:120]!r}") from None
            if reply.get("id") != req_id:
                raise SessionDead(
                    f"response id {reply.get('id')} does not echo request id {req_id}"
                )
            reply.setdefault("elapsed_ms", int((time.monotonic() - started) * 1000))
            self._broken = False
            return reply

    @staticmethod
    def _to_reply(raw: dict) -> BackendReply:
        return BackendReply(
            status=raw.get("status", "fail"),
            elapsed_ms=int(raw.get("elapsed_ms", 0)),
            state_id=raw.get("state_id"),
            reconstruction=raw.get("reconstruction"),
            reason=raw.get("reason"),
        )

    @staticmethod
    def _supported(cmd: str, reply: BackendReply) -> BackendReply:
        # a bridge that cannot run `cmd` must not turn its answers into verdicts
        reason = reply.reason or ""
        if reply.status == "fail" and reason.startswith(("unknown command", "unknown state")):
            raise SessionDead(f"backend does not support {cmd!r}: {reason}")
        return reply

    def init(self, base: str | ProverState, statement: str) -> BackendReply:
        if not isinstance(base, ProverState):
            return self._to_reply(self._roundtrip("init", theory=base, statement=statement))
        reply = self._to_reply(self._roundtrip("resume", state=base.state_id, text=statement))
        return self._supported("resume", reply)

    def step(self, text: str, timeout_ms: int) -> BackendReply:
        return self._to_reply(
            self._roundtrip(
                "step", reply_timeout_s=timeout_ms / 1000 + 30, text=text, timeout_ms=timeout_ms
            )
        )

    def hammer(self, timeout_ms: int) -> BackendReply:
        return self._to_reply(
            self._roundtrip("hammer", reply_timeout_s=timeout_ms / 1000 + 30, timeout_ms=timeout_ms)
        )

    def check_full(self, proof_text: str, timeout_ms: int) -> BackendReply:
        reply = self._to_reply(
            self._roundtrip(
                "check", reply_timeout_s=timeout_ms / 1000 + 30, text=proof_text, timeout_ms=timeout_ms
            )
        )
        return self._supported("check", reply)

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


def _serve_connection(backend: ScriptedBackend, reader: IO[str], writer: IO[str]) -> None:
    for line in reader:
        line = line.strip()
        if not line:
            continue
        try:
            frame = json.loads(line)
            cmd = frame["cmd"]
            req_id = frame["id"]
        except (json.JSONDecodeError, KeyError):
            writer.write(json.dumps({"id": None, "status": "fail", "reason": "bad frame"}) + "\n")
            writer.flush()
            continue
        if cmd == "quit":
            writer.write(json.dumps({"id": req_id, "status": "ok", "elapsed_ms": 0}) + "\n")
            writer.flush()
            return
        if cmd == "init":
            reply = backend.init(frame.get("theory", "Main"), frame.get("statement", ""))
        elif cmd == "resume":
            try:
                reply = backend.init(ProverState(str(frame.get("state"))), frame.get("text", ""))
            except SessionDead as exc:
                reply = BackendReply("fail", 0, reason=exc.detail)
        elif cmd == "step":
            reply = backend.step(frame.get("text", ""), int(frame.get("timeout_ms", 0)))
        elif cmd == "hammer":
            reply = backend.hammer(int(frame.get("timeout_ms", 0)))
        elif cmd == "check":
            reply = backend.check_full(frame.get("text", ""), int(frame.get("timeout_ms", 0)))
        else:
            reply = BackendReply("fail", 0, reason=f"unknown command {cmd!r}")
        payload = {"id": req_id, "status": reply.status, "elapsed_ms": reply.elapsed_ms}
        if reply.state_id is not None:
            payload["state_id"] = reply.state_id
        if reply.reconstruction is not None:
            payload["reconstruction"] = reply.reconstruction
        if reply.reason is not None:
            payload["reason"] = reply.reason
        writer.write(json.dumps(payload) + "\n")
        writer.flush()


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
                reader = io.TextIOWrapper(self.rfile, encoding="utf-8")
                writer = io.TextIOWrapper(self.wfile, encoding="utf-8", write_through=True)
                try:
                    _serve_connection(backend, reader, writer)
                except (BrokenPipeError, ConnectionResetError, ValueError):
                    pass  # client went away mid-conversation

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

    if args.stdio:
        backend = ScriptedBackend(load_script(args.script))
        _serve_connection(backend, sys.stdin, sys.stdout)
        return 0
    server = WireServer(args.script, port=args.port)
    print(f"listening on {server.address}", flush=True)
    try:
        server._server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

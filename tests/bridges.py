"""Test bridges on local ports, between a WireBackend and a prover.

`serve_backend` puts one in-process backend behind the reference server's
frame loop. `RelayBridge` sits between a client and a reference server: it
counts the frames it relays, can tag the state ids it hands out, can
misbehave on one `cascade` frame, and can send one reply changed.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
from collections import Counter
from typing import Callable

from sketchprove.prover.wire import _serve_connection

FAULTS = ("close", "wrong_id", "garbage", "stall")


def _listener() -> tuple[socket.socket, str]:
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    return listener, f"127.0.0.1:{listener.getsockname()[1]}"


def serve_backend(backend) -> str:
    """Serve one connection with `backend` behind the reference server's
    frame loop; returns its address."""
    listener, address = _listener()

    def serve():
        conn, _ = listener.accept()
        listener.close()
        with conn, conn.makefile("r", encoding="utf-8") as reader, \
                conn.makefile("w", encoding="utf-8") as writer:
            with contextlib.suppress(OSError):
                _serve_connection(backend, reader, writer)

    threading.Thread(target=serve, daemon=True).start()
    return address


class RelayBridge:
    """Relays each connection to the server at `upstream`, one frame and
    its reply at a time. It counts the commands it relays, logs each
    `cascade` frame's base ("theory" or "state") and number of gap
    contexts, and prefixes every state id it hands out with `tag`
    (stripping it again from the states clients send). With a `fault`,
    the `at`-th cascade frame is not relayed: the bridge closes the
    connection, answers with a wrong id, answers with a line that is not
    JSON, or stalls. With `one_gap`, each cascade frame is relayed with its
    first gap context only, so its reply is short whenever the client sent
    more, and the client sends the rest as a resumed frame. With `mutate`,
    a triple (cmd, n, change), the reply to the n-th `cmd` frame (counted
    over all connections) goes out as the line `change(reply)`."""

    def __init__(
        self, upstream: str, fault: str | None = None, at: int = 1, tag: str = "",
        one_gap: bool = False, mutate: tuple[str, int, Callable[[dict], bytes]] | None = None,
    ):
        assert fault is None or fault in FAULTS
        self.upstream = upstream
        self.fault = fault
        self.at = at
        self.tag = tag
        self.one_gap = one_gap
        self.mutate = mutate
        self.commands: Counter = Counter()
        self.cascade_bases: list[str] = []
        self.cascade_texts: list[int] = []
        self._listener, self.address = _listener()
        self._conns: list[socket.socket] = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # closed
            self._conns.append(conn)
            threading.Thread(target=self._relay, args=(conn,), daemon=True).start()

    def _retag(self, reply: dict) -> None:
        results = reply.get("results")
        for holder in [reply, *(results if isinstance(results, list) else [])]:
            if isinstance(holder, dict) and isinstance(holder.get("state_id"), str):
                holder["state_id"] = self.tag + holder["state_id"]

    def _relay(self, conn: socket.socket) -> None:
        host, _, port = self.upstream.rpartition(":")
        up = socket.create_connection((host, int(port)))
        self._conns.append(up)
        reader, writer = conn.makefile("rb"), conn.makefile("wb")
        up_reader, up_writer = up.makefile("rb"), up.makefile("wb")
        with contextlib.suppress(OSError, ValueError):
            for line in reader:
                frame = json.loads(line)
                cmd = frame["cmd"]
                self.commands[cmd] += 1
                if cmd == "cascade":
                    self.cascade_bases.append("state" if "state" in frame else "theory")
                    self.cascade_texts.append(len(frame["texts"]))
                    if self.fault is not None and len(self.cascade_bases) == self.at:
                        if self.fault == "close":
                            break
                        if self.fault == "wrong_id":
                            writer.write(json.dumps({"id": frame["id"] + 1, "status": "ok"}).encode())
                            writer.write(b"\n")
                        elif self.fault == "garbage":
                            writer.write(b"garbage\n")
                        writer.flush()
                        continue  # a stalled bridge answers nothing
                if "state" in frame:
                    frame["state"] = frame["state"].removeprefix(self.tag)
                if cmd == "cascade" and self.one_gap:
                    frame["texts"] = frame["texts"][:1]
                up_writer.write(json.dumps(frame).encode() + b"\n")
                up_writer.flush()
                reply = json.loads(up_reader.readline())
                self._retag(reply)
                line = json.dumps(reply).encode()
                if self.mutate is not None and self.mutate[:2] == (cmd, self.commands[cmd]):
                    line = self.mutate[2](reply)
                writer.write(line + b"\n")
                writer.flush()
        for stream in (reader, writer, up_reader, up_writer):
            with contextlib.suppress(OSError):
                stream.close()
        conn.close()
        up.close()

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes the accepting thread
        self._listener.close()
        for conn in self._conns:
            with contextlib.suppress(OSError):
                conn.close()

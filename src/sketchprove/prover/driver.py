"""Gap-closing driver: the tactic cascade with hammer fallback.

Each open conjecture is attacked by trying the configured quick tactics in
order under a short per-step timeout, then falling back to the hammer with
its long timeout. A strict per-gap wall budget is enforced: an attempt is
never started if its timeout could overrun the budget. Sketches are closed
gap by gap in document order: each gap resumes from the prover state in
which the previous gap closed, and a fully closed sketch gets one final
end-to-end verification.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

from ..sketch import (
    GAP_TOKEN,
    GapSite,
    InvalidSite,
    SketchAst,
    check_no_cheat,
    closing_step_text,
    extract_gaps,
    render_segments,
)
from .config import (
    Backend,
    BackendReply,
    Closed,
    ConnectError,
    Failed,
    GapResult,
    HAMMER_NAME,
    Invalid,
    ProverConfig,
    ProverState,
    SessionBusy,
    SessionDead,
    TimedOut,
    Valid,
    step_text,
)
from .scripted import ScriptedBackend, load_script, new_session_id
from .wire import WireBackend


@dataclass(frozen=True)
class ScriptedSpec:
    script_path: str


@dataclass(frozen=True)
class ExternalSpec:
    address: str


BackendSpec = Union[ScriptedSpec, ExternalSpec]


class SessionState(Enum):
    IDLE = "idle"
    BUSY = "busy"
    DEAD = "dead"


class ProverSession:
    """One prover conversation; exactly one command in flight at a time."""

    def __init__(self, backend: Backend, config: ProverConfig, session_id: str | None = None):
        self.session_id = session_id or new_session_id()
        self.backend = backend
        self.config = config
        self.state = SessionState.IDLE
        self._closed = False

    @contextlib.contextmanager
    def exclusive(self) -> Iterator[Backend]:
        if self.state is SessionState.DEAD:
            raise SessionDead("session is dead; reopen it")
        if self.state is SessionState.BUSY:
            raise SessionBusy(self.session_id)
        self.state = SessionState.BUSY
        try:
            yield self.backend
        except SessionDead:
            self.state = SessionState.DEAD
            raise
        else:
            self.state = SessionState.IDLE

    def close(self) -> None:
        """End the conversation; closing a closed session does nothing."""
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(SessionDead):
            self.backend.quit()
        self.state = SessionState.DEAD


def open_session(spec: BackendSpec, config: ProverConfig) -> ProverSession:
    """Connect a backend and initialize the theory context."""
    if isinstance(spec, ScriptedSpec):
        backend: Backend = ScriptedBackend(load_script(spec.script_path))
    else:
        backend = WireBackend(spec.address)
    session = ProverSession(backend, config)
    with session.exclusive() as b:
        reply = b.init(config.theory, "")
        if reply.status != "ok":
            raise ConnectError(getattr(spec, "address", "scripted"), reply.reason or "init failed")
    return session


def _gap_context(text_before_gap: str) -> str:
    return text_before_gap.rstrip() + "\n"


def _closing_state(reply: BackendReply) -> str:
    if reply.state_id is None:
        # the next gap resumes from this state, so the reply must name it
        raise SessionDead("an ok closing reply carries no state_id")
    return reply.state_id


def close_gap(
    session: ProverSession, context: str, base: ProverState | None = None
) -> GapResult:
    """Run the cascade on the open conjecture that `context`, replayed on
    top of `base` (the configured theory when None), ends in. Wall time never
    exceeds the per-gap budget: attempts that could overrun are not
    started. A context the backend refuses fails the gap without a step,
    since a step would run against whatever goal it held before."""
    config = session.config
    with session.exclusive() as backend:
        reply = backend.init(config.theory if base is None else base, context)
        if reply.status != "ok":
            return Failed((("init", reply.status),), 0)
        elapsed = 0
        attempts: list[tuple[str, str]] = []
        for index, tactic in enumerate(config.tactic_list):
            if elapsed + config.tactic_timeout_ms > config.per_gap_budget_ms:
                return TimedOut(elapsed)
            reply = backend.step(step_text(tactic), config.tactic_timeout_ms)
            elapsed += reply.elapsed_ms
            if reply.status == "ok":
                return Closed(step_text(tactic), index, elapsed, _closing_state(reply))
            attempts.append((tactic, reply.status))
        if elapsed + config.hammer_timeout_ms > config.per_gap_budget_ms:
            return TimedOut(elapsed)
        reply = backend.hammer(config.hammer_timeout_ms)
        elapsed += reply.elapsed_ms
        if reply.status == "ok" and reply.reconstruction:
            return Closed(reply.reconstruction, None, elapsed, _closing_state(reply))
        attempts.append((HAMMER_NAME, reply.status))
        return Failed(tuple(attempts), elapsed)


@dataclass(frozen=True)
class FullProofResult:
    proof_text: str
    per_gap: tuple[GapResult, ...]


@dataclass(frozen=True)
class SketchFailure:
    failed_site: GapSite | None  # None: the whole proof failed (cheat gate or final check)
    partial: tuple[GapResult, ...]
    reason: str


def _cheat_reason(text: str) -> str | None:
    """Why the cheat gate refuses `text`, or None when it is clean."""
    report = check_no_cheat(text)
    if report.clean:
        return None
    return "cheating keyword: " + ", ".join(sorted({kw for kw, _ in report.offending}))


def prove_sketch(session: ProverSession, ast: SketchAst) -> FullProofResult | SketchFailure:
    """Close all gaps in document order, so later gaps see earlier
    closures; abort on the first gap that does not close, or that closes
    with a step the proof text cannot hold. A fully closed sketch must also
    pass end-to-end verification. A sketch the cheat gate refuses fails as
    a whole proof before any backend call, like a failed final check.

    The sketch is rendered once into the segments between its gaps. The
    first gap starts from the theory with the first segment; each later gap
    resumes from the state in which the previous gap closed and sends only
    its own segment, so the text sent per gap does not grow with the
    sketch. A segment ends with its gap's whole head line, so the backend
    finds the same goal as in the full prefix."""
    segments = render_segments(ast)
    cheat = _cheat_reason(GAP_TOKEN.join(segments))
    if cheat is not None:
        return SketchFailure(None, (), f"cheat gate: {cheat}")

    per_gap: list[GapResult] = []
    pieces: list[str] = []
    base: ProverState | None = None
    for site, segment in zip(extract_gaps(ast), segments):
        result = close_gap(session, _gap_context(segment), base)
        if not isinstance(result, Closed):
            per_gap.append(result)
            kind = "timed out" if isinstance(result, TimedOut) else "failed"
            return SketchFailure(site, tuple(per_gap), f"gap {kind}: {site.proposition}")
        try:
            pieces += (segment, closing_step_text(result.closing_step))
        except InvalidSite as exc:
            # the proof text cannot hold the step, so the gap stays open
            per_gap.append(Failed((("closing_step", "unparseable"),), result.elapsed_ms))
            return SketchFailure(site, tuple(per_gap), f"{exc.reason} (gap: {site.proposition})")
        per_gap.append(result)
        base = ProverState(result.state_id)

    proof_text = "".join(pieces) + segments[-1]
    verdict = verify_full(session, proof_text)
    if isinstance(verdict, Invalid):
        return SketchFailure(None, tuple(per_gap), f"final check: {verdict.reason}")
    return FullProofResult(proof_text, tuple(per_gap))


def verify_full(session: ProverSession, proof_text: str) -> Valid | Invalid:
    """End-to-end acceptance of a complete proof. Proofs with cheating
    keywords are Invalid outright; the backend is never consulted."""
    cheat = _cheat_reason(proof_text)
    if cheat is not None:
        return Invalid(cheat)
    with session.exclusive() as backend:
        reply = backend.check_full(proof_text, session.config.hammer_timeout_ms)
    if reply.status == "ok":
        return Valid(proof_text)
    if reply.status == "timeout":
        return Invalid("verification timed out")
    return Invalid(reply.reason or "backend rejected the proof")


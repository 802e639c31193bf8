"""Gap-closing driver: the tactic cascade with hammer fallback.

Each open conjecture is attacked by trying the configured quick tactics in
order under a short per-step timeout, then falling back to the hammer with
its long timeout. A strict per-gap wall budget is enforced: an attempt is
never started if its timeout could overrun the budget. Sketches are closed
gap by gap in document order: each gap resumes from the prover state in
which the previous gap closed, and a fully closed sketch gets one final
end-to-end verification.

The cascade is `run_cascades`, one implementation for every backend, run
over a run of consecutive gaps: each gap resumes where the previous one
closed, and the run stops after the first gap that does not close, or
whose closing step the proof text cannot hold. The wire client sends a
whole run as one `cascade` frame, which the bridge answers by running
`run_cascades` next to the prover; `wire.py` specifies the frame, its
reply deadline and how a bridge may answer. In-process backends, and any
backend that only speaks `init`/`step`/`hammer`, are driven one command at
a time by the same `run_cascades`.

Every sketch of a problem states the same theorem, and sketches of one
draft often share their opening steps, so a session memoises its prover
work (`ProverMemo`): a gap context it has already closed, failed or timed
out, and a proof text it has already checked, cost no backend call. The
memo is exact for a deterministic checker: a context is keyed by the state
it resumes from, so equal keys replay the same prover work. A memoised
`TimedOut` is replayed, not retried. The memo holds one theorem's work at a
time, and a dead session drops it, so no state id outlives its connection.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence, Union

from ..slots import _slot_init
from ..sketch import (
    GAP_TOKEN,
    GapSite,
    InvalidSite,
    SketchAst,
    TheoremHeader,
    check_no_cheat,
    closing_step_text,
    extract_gaps,
    render_header,
    render_segments,
)
from .config import (
    Backend,
    Closed,
    ConnectError,
    Failed,
    GapResult,
    Invalid,
    ProverConfig,
    ProverState,
    SessionBusy,
    SessionDead,
    TimedOut,
    Valid,
    _tuple_new,
    run_cascades,
)
from .scripted import ScriptedBackend, load_script
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


@dataclass
class ProverMemo:
    """Prover work already done on a session for the theorem `header`:
    gap results keyed by (the state the context resumes from, or None for
    the theory; the context), and whole-proof verdicts keyed by proof
    text. A Closed result's `state_id` is where the next gap resumes.

    It also holds `header_lines`, the header's canonical lines, rendered
    once when the memo is made, so the header is rendered once per theorem
    per session and dropped with the rest of the memo. Every sketch proved
    on the memo has an equal header, and equal headers render equally."""

    header: TheoremHeader | None = None
    gaps: dict[tuple[ProverState | None, str], GapResult] = field(default_factory=dict)
    verdicts: dict[str, Valid | Invalid] = field(default_factory=dict)
    header_lines: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.header_lines = () if self.header is None else render_header(self.header)


class ProverSession:
    """One prover conversation; exactly one command in flight at a time.
    A command that raises, a lost connection or anything else, leaves the
    session dead, since its conversation is then in an unknown state; a
    dead or closed session drops its memo."""

    def __init__(self, backend: Backend, config: ProverConfig):
        self.backend = backend
        self.config = config
        self.state = SessionState.IDLE
        self.memo = ProverMemo()
        self._closed = False

    @contextlib.contextmanager
    def exclusive(self) -> Iterator[Backend]:
        if self.state is SessionState.DEAD:
            raise SessionDead("session is dead; reopen it")
        if self.state is SessionState.BUSY:
            raise SessionBusy()
        self.state = SessionState.BUSY
        try:
            yield self.backend
        except BaseException:
            # a lost connection, or a command that raised and left the
            # conversation in an unknown state: its state ids die with it
            self.state = SessionState.DEAD
            self.memo = ProverMemo()
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
        self.memo = ProverMemo()


def open_session(spec: BackendSpec, config: ProverConfig) -> ProverSession:
    """Connect a backend and initialize the theory context. A handshake
    that fails closes the connection, since no caller gets the session."""
    if isinstance(spec, ScriptedSpec):
        backend: Backend = ScriptedBackend(load_script(spec.script_path))
    else:
        backend = WireBackend(spec.address)
    session = ProverSession(backend, config)
    try:
        with session.exclusive() as b:
            reply = b.init(config.theory, "")
        if reply.status != "ok":
            raise ConnectError(getattr(spec, "address", "scripted"), reply.reason or "init failed")
    except BaseException:
        session.close()
        raise
    return session


def close_gap(
    session: ProverSession, contexts: Sequence[str], base: ProverState | None = None
) -> list[GapResult]:
    """Run the cascade on a run of consecutive gaps (`run_cascades`): the
    first of `contexts` replayed on top of `base` (the configured theory
    when None), each later one resumed where the previous gap closed.
    Returns one result per gap attempted, at least one. A backend with a
    `cascade` command runs the whole run next to the prover in one call and
    may answer fewer results; any other backend is driven one command at a
    time."""
    config = session.config
    start = config.theory if base is None else base
    with session.exclusive() as backend:
        cascade = getattr(backend, "cascade", None)
        if cascade is not None:
            return cascade(start, contexts, config)
        return run_cascades(backend, start, contexts, config)


# The outcomes are slotted and built through `_slot_init`, as the gap
# results are, since `prove_sketch` builds one per call, a memo hit included.
@_slot_init
@dataclass(frozen=True, slots=True)
class FullProofResult:
    proof_text: str
    per_gap: tuple[GapResult, ...]

    @property
    def gaps_total(self) -> int:
        return len(self.per_gap)


@_slot_init
@dataclass(frozen=True, slots=True)
class SketchFailure:
    failed_site: GapSite | None  # None: the whole proof failed (cheat gate or final check)
    partial: tuple[GapResult, ...]
    reason: str
    gaps_total: int  # the sketch's gaps, whether reached or not


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

    The sketch is rendered once into the segments between its gaps. Its
    header's lines come from the memo (`ProverMemo.header_lines`), so the
    header is rendered once per theorem per session, not per call: exact,
    since every sketch proved on the memo has an equal header, and equal
    headers render equally. The first gap starts from the theory with the
    first segment; each later gap resumes from the state in which the
    previous gap closed and sends only its own segment, so the text sent
    per gap does not grow with the sketch. A segment ends with its gap's
    whole head line, so the backend finds the same goal as in the full
    prefix.

    Work already in the session's memo is not sent again: a gap whose
    (base, context) was seen earlier in this theorem gets the memoised
    result, elapsed time included, and the next gap resumes from its
    memoised state; a proof text already checked gets its memoised
    verdict. This is exact for a deterministic checker, and a memoised
    TimedOut is replayed, not retried. A sketch of another theorem drops
    the memo first, even one the cheat gate then refuses, so the memo
    holds one theorem's work; a dead session drops it too.

    Each gap's context (its segment up to the gap, trailing space cut) is
    built once per call. At the first gap the memo does not hold, every
    remaining context goes to the prover in one `close_gap` call, since
    each later gap resumes from a state the memo has not seen. The walk
    goes on through the results that come back, memoising each under its
    own (base, context) as it reaches it, so none is looked up again and
    each gap's next state is built once. A reply that stops at a closed
    gap leaves the next gap a miss, so the rest goes out as the next run.
    Results after a gap whose closing step the proof cannot hold are never
    reached, so they are not memoised: only a walk through that gap, which
    fails there, could look them up.

    Either outcome carries `gaps_total`, the sketch's gap count: one less
    than the number of segments of the one render, so neither this call
    nor its caller walks the tree for it. The tree is walked for its gap
    sites (`extract_gaps`) only to name the site of a gap that does not
    close, or whose closing step the proof cannot hold, so a sketch whose
    gaps all close is never walked.

    The cheat gate scans the whole text once, per call: the rendered
    sketch, its segments joined by gap tokens. A text without the letters
    of either keyword passes at once, with no scan (`check_no_cheat`):
    exact, since no comment, string or word boundary can make a keyword
    out of a text without them. The final check scans only the closing
    steps spliced into the gaps, joined by line breaks, and so gives the
    verdict and reason `verify_full` would give on the proof text. That
    is exact because every piece is lexically closed: a rendered segment
    and a step that `closing_step_text` accepts each hold whole comments
    and string literals only, so none runs across a boundary, and a
    segment ends in a space before its gap and starts with a line break
    after it, so word boundaries at the splice points are the same as
    between the joined steps. The segments passed the gate, so the
    proof text holds exactly the cheat words of its steps."""
    memo = session.memo
    if memo.header != ast.header:
        memo = session.memo = ProverMemo(ast.header)
    segments = render_segments(ast, memo.header_lines)
    gaps = len(segments) - 1
    cheat = _cheat_reason(GAP_TOKEN.join(segments))
    if cheat is not None:
        return SketchFailure(None, (), f"cheat gate: {cheat}", gaps)

    known = memo.gaps
    contexts = [segment.rstrip() + "\n" for segment in segments[:-1]]
    per_gap: list[GapResult] = []
    pieces: list[str] = []  # each gap's segment, then its closing step
    base: ProverState | None = None
    fresh: Iterator[GapResult] = iter(())  # this call's latest results, not yet walked
    for index, context in enumerate(contexts):
        result = next(fresh, None)
        if result is not None:
            known[base, context] = result
        else:
            result = known.get((base, context))
            if result is None:
                fresh = iter(close_gap(session, contexts[index:], base))
                result = known[base, context] = next(fresh)
        if not isinstance(result, Closed):
            per_gap.append(result)
            site = extract_gaps(ast)[index]
            kind = "timed out" if isinstance(result, TimedOut) else "failed"
            return SketchFailure(site, tuple(per_gap), f"gap {kind}: {site.proposition}", gaps)
        try:
            pieces += (segments[index], closing_step_text(result.closing_step))
        except InvalidSite as exc:
            # the proof text cannot hold the step, so the gap stays open
            per_gap.append(Failed((("closing_step", "unparseable"),), result.elapsed_ms))
            site = extract_gaps(ast)[index]
            return SketchFailure(
                site, tuple(per_gap), f"{exc.reason} (gap: {site.proposition})", gaps
            )
        per_gap.append(result)
        base = _tuple_new(ProverState, (result.state_id,))

    proof_text = "".join(pieces) + segments[-1]
    verdict = memo.verdicts.get(proof_text)
    if verdict is None:
        # the segments passed the gate above, so only the steps are scanned
        cheat = _cheat_reason("\n".join(pieces[1::2]))
        verdict = Invalid(cheat) if cheat is not None else _check_full(session, proof_text)
        memo.verdicts[proof_text] = verdict
    if isinstance(verdict, Invalid):
        return SketchFailure(None, tuple(per_gap), f"final check: {verdict.reason}", gaps)
    return FullProofResult(proof_text, tuple(per_gap))


def verify_full(session: ProverSession, proof_text: str) -> Valid | Invalid:
    """End-to-end acceptance of a complete proof. The whole of `proof_text`
    is scanned for cheating keywords, since nothing is known of where it
    came from; a proof that holds one is Invalid outright, and the backend
    is never consulted. Otherwise the backend checks it (`_check_full`)."""
    cheat = _cheat_reason(proof_text)
    if cheat is not None:
        return Invalid(cheat)
    return _check_full(session, proof_text)


def _check_full(session: ProverSession, proof_text: str) -> Valid | Invalid:
    """The backend's whole-proof check of a text the cheat gate passed."""
    with session.exclusive() as backend:
        reply = backend.check_full(proof_text, session.config.hammer_timeout_ms)
    if reply.status == "ok":
        return Valid()
    if reply.status == "timeout":
        return Invalid("verification timed out")
    return Invalid(reply.reason or "backend rejected the proof")


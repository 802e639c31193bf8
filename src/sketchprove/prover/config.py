"""Prover cascade configuration, the cascade itself, result types, and errors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, Sequence, Union

from ..errors import InfraError
from ..slots import _slot_init
from ..sketch import InvalidSite, closing_step_text

# Quick closing tactics tried in order before falling back to the hammer.
DEFAULT_TACTICS = (
    "auto",
    "simp",
    "blast",
    "fastforce",
    "force",
    "eval",
    "presburger",
    "sos",
    "arith",
    "linarith",
    "auto simp: field_simps",
)

HAMMER_NAME = "sledgehammer"


@dataclass(frozen=True)
class ProverConfig:
    tactic_list: tuple[str, ...] = DEFAULT_TACTICS
    tactic_timeout_ms: int = 10_000
    hammer_timeout_ms: int = 120_000
    per_gap_budget_ms: int = 11 * 10_000 + 120_000 + 5_000
    theory: str = "Main"

    def __post_init__(self) -> None:
        if not self.tactic_list:
            raise ValueError("tactic_list must not be empty")
        if min(self.tactic_timeout_ms, self.hammer_timeout_ms, self.per_gap_budget_ms) <= 0:
            raise ValueError("all timeouts must be positive")


# The gap results are slotted and built through `_slot_init`, since a client
# builds one per gap of every cascade reply it decodes.
@_slot_init
@dataclass(frozen=True, slots=True)
class Closed:
    closing_step: str
    tactic_index: int | None  # None: closed by the hammer
    elapsed_ms: int
    # the backend's state after the closing step; the next gap resumes there
    state_id: str | None = field(default=None, compare=False)


@_slot_init
@dataclass(frozen=True, slots=True)
class Failed:
    attempts: tuple[tuple[str, str], ...]  # (tactic or hammer name, outcome)
    elapsed_ms: int = 0


@_slot_init
@dataclass(frozen=True, slots=True)
class TimedOut:
    elapsed_ms: int


GapResult = Union[Closed, Failed, TimedOut]


@dataclass(frozen=True)
class Valid:
    """The final check accepted the whole proof."""


@dataclass(frozen=True)
class Invalid:
    reason: str = ""


@dataclass
class ConnectError(InfraError):
    address: str
    detail: str

    def __str__(self) -> str:
        return f"cannot reach prover backend at {self.address}: {self.detail}"


@dataclass
class ScriptError(InfraError):
    path: str
    message: str

    def __str__(self) -> str:
        return f"bad prover script {self.path}: {self.message}"


@dataclass
class SessionDead(InfraError):
    detail: str

    def __str__(self) -> str:
        return f"prover backend lost: {self.detail}"


class SessionBusy(Exception):
    def __str__(self) -> str:
        return "the session already has a command in flight"


class ProverState(NamedTuple):
    """A state named by the `state_id` of an earlier ok reply on the same
    connection: a context can resume there instead of replaying its text.
    A named tuple, so that building and hashing one (a memo key part) run
    in C; it never equals a theory name, which is a str."""

    state_id: str


# Builds a named tuple from all of its fields in C, as the named tuple's own
# `_make` does: calling `BackendReply(...)` or `ProverState(...)` first runs
# its Python-level `__new__`, which doubles the cost of a build (a reply is
# built per command, a state per closed gap)
_tuple_new = tuple.__new__


class BackendReply(NamedTuple):
    """One backend command's answer; a named tuple, built once per init,
    step and hammer."""

    status: str  # ok | fail | timeout
    elapsed_ms: int = 0
    state_id: str | None = None
    reconstruction: str | None = None
    reason: str | None = None


class Backend(Protocol):
    """One prover conversation. `init`, `step`, `hammer` and `check_full`
    answer with a `BackendReply`; all methods may raise SessionDead.

    A backend may also offer `cascade(base, contexts, config) ->
    list[GapResult]`, which answers what `run_cascades(backend, base,
    contexts, config)` would in one call; `close_gap` uses it when it is
    there. Its answer is one result per gap attempted, in order, and at
    least one: it may stop short of where `run_cascades` stops (the caller
    sends the rest again) but never goes on past a gap that did not close.
    One that goes on past a closed gap whose closing step
    `closing_step_text` rejects only wastes prover work, since the caller
    fails the sketch at that gap and discards the rest."""

    def init(self, base: str | ProverState, statement: str) -> BackendReply:
        """Start a fresh context, discarding the previous goal: replay
        `statement` on top of `base`, a theory name or an earlier state.
        A state the backend does not know raises SessionDead."""
        ...

    def step(self, text: str, timeout_ms: int) -> BackendReply: ...

    def hammer(self, timeout_ms: int) -> BackendReply: ...

    def check_full(self, proof_text: str, timeout_ms: int) -> BackendReply: ...

    def quit(self) -> None: ...


def _closing_state(reply: BackendReply) -> str:
    if reply.state_id is None:
        # the next gap resumes from this state, so the reply must name it
        raise SessionDead("an ok closing reply carries no state_id")
    return reply.state_id


def _fits_the_proof(closing_step: str) -> bool:
    try:
        closing_step_text(closing_step)
    except InvalidSite:
        return False
    return True


def run_cascades(
    backend: Backend, base: str | ProverState, contexts: Sequence[str], config: ProverConfig
) -> list[GapResult]:
    """Run the cascade, one backend command at a time, on a run of
    consecutive gaps: the first of `contexts` replayed on top of `base` (a
    theory name or an earlier state), each later one resumed from the state
    in which the previous gap closed. Each gap tries the tactics in order,
    then the hammer. Wall time per gap never exceeds the per-gap budget:
    attempts that could overrun are not started. A context the backend
    refuses fails the gap without a step, since a step would run against
    whatever goal it held before. An ok closing reply without a state_id,
    and an ok hammer reply without a reconstruction, raise SessionDead.

    Returns one result per gap attempted. Stops after the first gap that
    does not close, and after a gap whose closing step the proof text
    cannot hold (`closing_step_text` rejects it), since the sketch fails at
    either. The config is read, and each tactic's closing step rendered,
    once per run rather than per gap."""
    tactic_ms, hammer_ms = config.tactic_timeout_ms, config.hammer_timeout_ms
    # an attempt starts only while the gap's elapsed time is at most its limit
    tactic_limit = config.per_gap_budget_ms - tactic_ms
    hammer_limit = config.per_gap_budget_ms - hammer_ms
    steps = [
        (index, tactic, f"by ({tactic})" if " " in tactic else f"by {tactic}")
        for index, tactic in enumerate(config.tactic_list)
    ]
    init, step, hammer = backend.init, backend.step, backend.hammer
    results: list[GapResult] = []
    for context in contexts:
        reply = init(base, context)
        if reply.status != "ok":
            results.append(Failed((("init", reply.status),), 0))
            break
        elapsed = 0
        attempts: list[tuple[str, str]] = []
        for index, tactic, text in steps:
            if elapsed > tactic_limit:
                result: GapResult = TimedOut(elapsed)
                break
            reply = step(text, tactic_ms)
            elapsed += reply.elapsed_ms
            if reply.status == "ok":
                result = Closed(text, index, elapsed, _closing_state(reply))
                break
            attempts.append((tactic, reply.status))
        else:
            if elapsed > hammer_limit:
                result = TimedOut(elapsed)
            else:
                reply = hammer(hammer_ms)
                elapsed += reply.elapsed_ms
                if reply.status != "ok":
                    attempts.append((HAMMER_NAME, reply.status))
                    result = Failed(tuple(attempts), elapsed)
                elif not reply.reconstruction:
                    # a failed attempt's outcome is "fail" or "timeout", never "ok"
                    raise SessionDead("an ok hammer reply carries no reconstruction")
                else:
                    result = Closed(reply.reconstruction, None, elapsed, _closing_state(reply))
        results.append(result)
        if type(result) is not Closed or not _fits_the_proof(result.closing_step):
            break
        base = _tuple_new(ProverState, (result.state_id,))
    return results


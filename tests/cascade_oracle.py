"""Test-side cascade: the gap cascade run one tactic at a time by a
function call per gap, over a scripted prover that reads its latency and
issues each reply and state through helpers, and gap results encoded as
dicts for `json.dumps`. It is the plain form that `run_cascades`,
`ScriptedBackend` and the reference server's result template are checked
against: same results, elapsed times, state ids, sleeps and reply text.

It reads a state id with `int()` as written, so an id past Python's
digit limit raises ValueError here; the package's backend answers it as
an unknown state, and the tests check that case on their own."""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Sequence

from sketchprove.prover.config import (
    HAMMER_NAME,
    BackendReply,
    Closed,
    Failed,
    GapResult,
    ProverConfig,
    ProverState,
    SessionDead,
    TimedOut,
)
from sketchprove.prover.scripted import Outcome, ProverScript, Rule, extract_goal
from sketchprove.sketch import InvalidSite, closing_step_text

_STATE_ID_RE = re.compile(r"s([1-9][0-9]*)")


def step_text(tactic: str) -> str:
    return f"by ({tactic})" if " " in tactic else f"by {tactic}"


def _closing_state(reply: BackendReply) -> str:
    if reply.state_id is None:
        raise SessionDead("an ok closing reply carries no state_id")
    return reply.state_id


def run_cascade(backend, base: str | ProverState, context: str, config: ProverConfig) -> GapResult:
    reply = backend.init(base, context)
    if reply.status != "ok":
        return Failed((("init", reply.status),), 0)
    elapsed = 0
    attempts: list[tuple[str, str]] = []
    for index, tactic in enumerate(config.tactic_list):
        if elapsed + config.tactic_timeout_ms > config.per_gap_budget_ms:
            return TimedOut(elapsed)
        text = step_text(tactic)
        reply = backend.step(text, config.tactic_timeout_ms)
        elapsed += reply.elapsed_ms
        if reply.status == "ok":
            return Closed(text, index, elapsed, _closing_state(reply))
        attempts.append((tactic, reply.status))
    if elapsed + config.hammer_timeout_ms > config.per_gap_budget_ms:
        return TimedOut(elapsed)
    reply = backend.hammer(config.hammer_timeout_ms)
    elapsed += reply.elapsed_ms
    if reply.status == "ok":
        if not reply.reconstruction:
            raise SessionDead("an ok hammer reply carries no reconstruction")
        return Closed(reply.reconstruction, None, elapsed, _closing_state(reply))
    attempts.append((HAMMER_NAME, reply.status))
    return Failed(tuple(attempts), elapsed)


def _fits_the_proof(closing_step: str) -> bool:
    try:
        closing_step_text(closing_step)
    except InvalidSite:
        return False
    return True


def run_cascades(
    backend, base: str | ProverState, contexts: Sequence[str], config: ProverConfig
) -> list[GapResult]:
    results: list[GapResult] = []
    for context in contexts:
        result = run_cascade(backend, base, context, config)
        results.append(result)
        if not isinstance(result, Closed) or not _fits_the_proof(result.closing_step):
            break
        base = ProverState(result.state_id)
    return results


def _matches(rule: Rule, goal: str) -> bool:
    if rule.kind == "exact":
        return goal == rule.pattern
    if rule.kind == "substring":
        return rule.pattern in goal
    return fnmatchcase(goal, rule.pattern)


def outcome_for(script: ProverScript, goal: str) -> Outcome:
    for rule in script.rules:
        if _matches(rule, goal):
            return rule.outcome
    return script.default


@dataclass
class ScriptedBackend:
    script: ProverScript
    _ordinal: int = 0
    _states: int = 0
    _outcome: Outcome = field(init=False)

    def __post_init__(self) -> None:
        self._outcome = outcome_for(self.script, "")

    def _reply(
        self, status: str, elapsed_ms: int, state_id: str | None = None,
        reconstruction: str | None = None, reason: str | None = None,
    ) -> BackendReply:
        if self.script.latency.real_sleep and elapsed_ms > 0:
            time.sleep(elapsed_ms / 1000.0)
        return BackendReply(status, elapsed_ms, state_id, reconstruction, reason)

    def _next_state(self) -> str:
        self._states += 1
        return f"s{self._states}"

    def _issued(self, state_id: str) -> bool:
        issued = _STATE_ID_RE.fullmatch(state_id)
        return issued is not None and int(issued.group(1)) <= self._states

    def init(self, base: str | ProverState, statement: str) -> BackendReply:
        if isinstance(base, ProverState):
            if not self._issued(base.state_id):
                raise SessionDead(f"unknown state {base.state_id!r}")
        self._outcome = outcome_for(self.script, extract_goal(statement))
        self._ordinal = 0
        return BackendReply("ok", 0, self._next_state())

    def step(self, text: str, timeout_ms: int) -> BackendReply:
        outcome = self._outcome
        ordinal = self._ordinal
        self._ordinal += 1
        cost = min(self.script.latency.step_ms, timeout_ms)
        if outcome.kind == "timeout":
            burn = timeout_ms if outcome.ms is None else min(outcome.ms, timeout_ms)
            return self._reply("timeout", burn)
        if outcome.kind == "tactic" and ordinal == outcome.index:
            return self._reply("ok", cost, self._next_state())
        return self._reply("fail", cost, None, None, "step does not close the goal")

    def hammer(self, timeout_ms: int) -> BackendReply:
        outcome = self._outcome
        cost = min(self.script.latency.hammer_ms, timeout_ms)
        if outcome.kind == "hammer":
            return self._reply("ok", cost, self._next_state(), outcome.step)
        if outcome.kind == "timeout":
            burn = timeout_ms if outcome.ms is None else min(outcome.ms, timeout_ms)
            return self._reply("timeout", burn)
        return self._reply("fail", cost, None, None, "no prover found a proof")

    def check_full(self, proof_text: str, timeout_ms: int) -> BackendReply:
        reason = self.script.verify_accepts(proof_text)
        cost = min(self.script.latency.step_ms, timeout_ms)
        if reason is None:
            return self._reply("ok", cost, self._next_state())
        return self._reply("fail", cost, None, None, reason)

    def quit(self) -> None:
        pass


def encode_gap_result(result: GapResult) -> dict:
    """One gap's object in the `results` of a reply to `cascade`."""
    if isinstance(result, Closed):
        return {"kind": "closed", "closing_step": result.closing_step,
                "tactic_index": result.tactic_index, "elapsed_ms": result.elapsed_ms,
                "state_id": result.state_id}
    if isinstance(result, Failed):
        return {"kind": "failed", "attempts": [list(a) for a in result.attempts],
                "elapsed_ms": result.elapsed_ms}
    return {"kind": "timed_out", "elapsed_ms": result.elapsed_ms}

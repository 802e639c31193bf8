"""Rule-scripted mock prover for deterministic tests.

A script file decides, per goal, how the cascade plays out: which tactic
closes it, whether the hammer rescues it with a reconstruction step, or
whether everything fails or times out. First matching rule wins and a
default outcome is mandatory, so every goal has a scripted answer.

Script schema (JSON):

    {
      "schema": "prover-script/1",
      "rules": [
        {"match": {"kind": "substring", "pattern": "4 * x = 168"},
         "outcome": {"kind": "tactic", "index": 0}},
        {"match": {"kind": "exact", "pattern": "?thesis"},
         "outcome": {"kind": "hammer", "step": "by (metis assms)"}},
        {"match": {"kind": "glob", "pattern": "*mod 9*"},
         "outcome": {"kind": "timeout", "ms": 50}}
      ],
      "default": {"kind": "fail"},
      "verify": {"default": "accept", "reject_substrings": []},
      "latency": {"step_ms": 0, "hammer_ms": 0, "real_sleep": false}
    }

Outcome kinds: tactic (the index-th cascade attempt succeeds), hammer (all
tactics fail, the hammer returns `step`), fail, timeout (steps time out,
optionally after `ms`).

`ScriptedBackend` answers each `init`, `step`, `hammer` and `check_full`
from a script; `run_cascades` drives it one command at a time, in process
and behind the reference wire server alike.
"""

from __future__ import annotations

import functools
import re
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

from ..errors import decode_json, read_text
from .config import BackendReply, ProverState, ScriptError, SessionDead, _tuple_new

SCRIPT_SCHEMA = "prover-script/1"

_MATCH_KINDS = ("exact", "substring", "glob")
_OUTCOME_KINDS = ("tactic", "hammer", "fail", "timeout")


@dataclass(frozen=True)
class Outcome:
    kind: str
    index: int | None = None
    step: str | None = None
    ms: int | None = None


@dataclass(frozen=True)
class Rule:
    kind: str
    pattern: str
    outcome: Outcome


@dataclass(frozen=True)
class Latency:
    step_ms: int = 0
    hammer_ms: int = 0
    real_sleep: bool = False


@dataclass(frozen=True)
class ProverScript:
    rules: tuple[Rule, ...]
    default: Outcome
    verify_default_accept: bool = True
    verify_reject_substrings: tuple[str, ...] = ()
    latency: Latency = Latency()

    def outcome_for(self, goal: str) -> Outcome:
        for rule in self.rules:
            kind, pattern = rule.kind, rule.pattern
            if (
                goal == pattern if kind == "exact"
                else pattern in goal if kind == "substring"
                else fnmatchcase(goal, pattern)
            ):
                return rule.outcome
        return self.default

    def verify_accepts(self, proof_text: str) -> str | None:
        """Returns a rejection reason, or None when the proof is accepted."""
        for marker in self.verify_reject_substrings:
            if marker in proof_text:
                return f"rejected: contains {marker!r}"
        return None if self.verify_default_accept else "rejected by default"


def _parse_outcome(raw: object, path: str, where: str) -> Outcome:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ScriptError(path, f"{where}: outcome must be an object with a 'kind'")
    kind = raw["kind"]
    if kind not in _OUTCOME_KINDS:
        raise ScriptError(path, f"{where}: unknown outcome kind {kind!r}")
    if kind == "tactic":
        index = raw.get("index")
        if not isinstance(index, int) or index < 0:
            raise ScriptError(path, f"{where}: tactic outcome needs index >= 0")
        return Outcome("tactic", index=index)
    if kind == "hammer":
        step = raw.get("step")
        if not isinstance(step, str) or not step.strip():
            raise ScriptError(path, f"{where}: hammer outcome needs a step text")
        return Outcome("hammer", step=step)
    if kind == "timeout":
        ms = raw.get("ms")
        if ms is not None and (not isinstance(ms, int) or ms < 0):
            raise ScriptError(path, f"{where}: timeout ms must be >= 0")
        return Outcome("timeout", ms=ms)
    return Outcome("fail")


def _object(raw: object, path: str, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ScriptError(path, f"{where} must be an object")
    return raw


def load_script(path: str | Path) -> ProverScript:
    path = str(path)
    fail = functools.partial(ScriptError, path)
    raw = decode_json(read_text(path, "prover script", fail), fail)
    if _object(raw, path, "the script").get("schema") != SCRIPT_SCHEMA:
        raise ScriptError(path, f"schema must be {SCRIPT_SCHEMA!r}")
    if "default" not in raw:
        raise ScriptError(path, "a default outcome is required")
    entries = raw.get("rules", [])
    if not isinstance(entries, list):
        raise ScriptError(path, "rules must be a list")
    rules = []
    for i, entry in enumerate(entries):
        match = _object(entry, path, f"rule {i}").get("match")
        if not isinstance(match, dict) or match.get("kind") not in _MATCH_KINDS:
            raise ScriptError(path, f"rule {i}: match kind must be one of {_MATCH_KINDS}")
        pattern = match.get("pattern")
        if not isinstance(pattern, str):
            raise ScriptError(path, f"rule {i}: match pattern must be a string")
        outcome = _parse_outcome(entry.get("outcome"), path, f"rule {i}")
        rules.append(Rule(match["kind"], pattern, outcome))
    verify = _object(raw.get("verify", {}), path, "verify")
    rejects = verify.get("reject_substrings", [])
    if not isinstance(rejects, list) or not all(isinstance(marker, str) for marker in rejects):
        raise ScriptError(path, "verify: reject_substrings must be a list of strings")
    latency = _object(raw.get("latency", {}), path, "latency")
    costs = latency.get("step_ms", 0), latency.get("hammer_ms", 0)
    real_sleep = latency.get("real_sleep", False)
    if not all(type(ms) is int and ms >= 0 for ms in costs) or type(real_sleep) is not bool:
        raise ScriptError(path, "latency: step_ms, hammer_ms must be ints >= 0, real_sleep a bool")
    return ProverScript(
        rules=tuple(rules),
        default=_parse_outcome(raw["default"], path, "default"),
        verify_default_accept=verify.get("default", "accept") == "accept",
        verify_reject_substrings=tuple(rejects),
        latency=Latency(*costs, real_sleep),
    )


_QUOTED_RE = re.compile(r'"([^"]*)"')
_TARGET_RE = re.compile(r"\?[A-Za-z_][A-Za-z0-9_']*")
_STATE_ID_RE = re.compile(r"s([1-9][0-9]*)")


def extract_goal(statement: str) -> str:
    """Matcher input for a proof context: the quoted proposition on the last
    nonblank line, a ?thesis/?case target, or the raw line itself."""
    lines = statement.rstrip().splitlines()
    if not lines:
        return ""
    last = lines[-1].strip()
    quoted = _QUOTED_RE.findall(last)
    if quoted:
        return quoted[-1]
    target = _TARGET_RE.search(last)
    if target:
        return target.group(0)
    return last


@dataclass
class ScriptedBackend:
    """In-process Backend that answers from a ProverScript. Elapsed times
    are logical (derived from the script), so replayed runs agree; with
    real_sleep the backend also sleeps them away for wall-clock tests.

    Each reply is built where it is answered. State ids are issued in
    order, s1 to s{n}, so a state is known by its number and no per-state
    memory is needed; a resume from any other id raises SessionDead."""

    script: ProverScript
    _ordinal: int = 0
    _states: int = 0
    _outcome: Outcome = field(init=False)  # the current goal's rule, found once per init
    # the script's latency, read once
    _step_ms: int = field(init=False)
    _hammer_ms: int = field(init=False)
    _sleeps: bool = field(init=False)

    def __post_init__(self) -> None:
        self._outcome = self.script.outcome_for("")  # a step before any init
        latency = self.script.latency
        self._step_ms, self._hammer_ms, self._sleeps = (
            latency.step_ms, latency.hammer_ms, latency.real_sleep
        )

    def init(self, base: str | ProverState, statement: str) -> BackendReply:
        # a resume from the id issued last, the next gap's usual base, needs no parse
        if isinstance(base, ProverState) and not (
            self._states and base.state_id == f"s{self._states}"
        ):
            issued = _STATE_ID_RE.fullmatch(base.state_id)
            digits = issued[1] if issued else ""
            # more digits than n has were never issued, and may be more than int() reads
            if not digits or len(digits) > len(str(self._states)) or int(digits) > self._states:
                raise SessionDead(f"unknown state {base.state_id!r}")
        self._outcome = self.script.outcome_for(extract_goal(statement))
        self._ordinal = 0
        self._states += 1
        return _tuple_new(BackendReply, ("ok", 0, f"s{self._states}", None, None))

    def step(self, text: str, timeout_ms: int) -> BackendReply:
        outcome = self._outcome
        ordinal = self._ordinal
        self._ordinal = ordinal + 1
        cost = self._step_ms if self._step_ms < timeout_ms else timeout_ms
        if outcome.kind == "timeout":
            burn = timeout_ms if outcome.ms is None else min(outcome.ms, timeout_ms)
            reply = _tuple_new(BackendReply, ("timeout", burn, None, None, None))
        elif outcome.kind == "tactic" and ordinal == outcome.index:
            self._states += 1
            reply = _tuple_new(BackendReply, ("ok", cost, f"s{self._states}", None, None))
        else:
            reply = _tuple_new(
                BackendReply, ("fail", cost, None, None, "step does not close the goal"))
        return _slept(reply) if self._sleeps else reply

    def hammer(self, timeout_ms: int) -> BackendReply:
        outcome = self._outcome
        cost = self._hammer_ms if self._hammer_ms < timeout_ms else timeout_ms
        if outcome.kind == "hammer":
            self._states += 1
            reply = _tuple_new(BackendReply, ("ok", cost, f"s{self._states}", outcome.step, None))
        elif outcome.kind == "timeout":
            burn = timeout_ms if outcome.ms is None else min(outcome.ms, timeout_ms)
            reply = _tuple_new(BackendReply, ("timeout", burn, None, None, None))
        else:
            reply = _tuple_new(BackendReply, ("fail", cost, None, None, "no prover found a proof"))
        return _slept(reply) if self._sleeps else reply

    def check_full(self, proof_text: str, timeout_ms: int) -> BackendReply:
        reason = self.script.verify_accepts(proof_text)
        cost = self._step_ms if self._step_ms < timeout_ms else timeout_ms
        if reason is None:
            self._states += 1
            reply = _tuple_new(BackendReply, ("ok", cost, f"s{self._states}", None, None))
        else:
            reply = _tuple_new(BackendReply, ("fail", cost, None, None, reason))
        return _slept(reply) if self._sleeps else reply

    def quit(self) -> None:
        """Nothing to release: the backend holds no per-call state."""


def _slept(reply: BackendReply) -> BackendReply:
    """`reply`, once its elapsed time is slept away (for a script with real_sleep)."""
    if reply.elapsed_ms > 0:
        time.sleep(reply.elapsed_ms / 1000.0)
    return reply


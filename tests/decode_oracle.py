"""Test-side cascade result decoder: one gap result of a `cascade` reply
decoded the plain way, with `isinstance` checks and a helper call for every
elapsed time, as the oracle the exact-type `decode_gap_result` of
`sketchprove.prover.wire` is checked against."""

from __future__ import annotations

import json
import math

from sketchprove.prover import Closed, Failed, GapResult, SessionDead, TimedOut

_FAILED_OUTCOMES = ("fail", "timeout")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ms(value: object) -> int:
    number = _is_int(value) or isinstance(value, float) and math.isfinite(value)
    if number and value >= 0:  # type: ignore[operator]
        return int(value)  # type: ignore[arg-type]
    raise SessionDead(f"elapsed_ms is not a non-negative number: {value!r}")


def decode_gap_result(raw: object, tactics: int) -> GapResult:
    """One gap result of a reply to a `cascade` that sent `tactics` tactic
    names; anything else, a `tactic_index` outside them included, raises
    SessionDead."""
    if not isinstance(raw, dict):
        raise SessionDead(f"a cascade reply carries no result object: {raw!r:.120}")
    kind = raw.get("kind")
    if kind == "closed":
        step, index, state_id = raw.get("closing_step"), raw.get("tactic_index"), raw.get("state_id")
        if state_id is None:  # the next gap resumes there
            raise SessionDead("an ok closing reply carries no state_id")
        if isinstance(step, str) and isinstance(state_id, str) and (
            index is None or _is_int(index) and 0 <= index < tactics
        ):
            return Closed(step, index, _ms(raw.get("elapsed_ms")), state_id)
    elif kind == "failed":
        attempts = raw.get("attempts")
        if isinstance(attempts, list) and all(
            isinstance(a, list) and len(a) == 2 and isinstance(a[0], str)
            and a[1] in _FAILED_OUTCOMES
            for a in attempts
        ):
            return Failed(tuple((a[0], a[1]) for a in attempts), _ms(raw.get("elapsed_ms")))
    elif kind == "timed_out":
        return TimedOut(_ms(raw.get("elapsed_ms")))
    raise SessionDead(f"malformed cascade result: {json.dumps(raw)[:120]}")

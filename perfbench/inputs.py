"""Seeded input generators.

Everything the package receives in a benchmark run is built here from the
workload seed: the large synthetic sketches with the prover script that
closes them, the latency-injecting copy of the fixture prover script, and
the per-request delays of the fake completion endpoint. The same seed
always gives the same inputs.

The seed moves *where* work sits (which gap needs which tactic, where the
nested blocks and case splits fall, which request waits longest), not how
much work there is: every large sketch has the same number of gaps, blocks,
comments and tactic tiers, and the endpoint delays have a fixed mean. So
figures from different seeds are comparable.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass

N_TACTICS = 11  # the cascade length of the package's default tactic list
HAMMER_STEPS = (
    "by (metis assms)",
    "by (smt (z3) add.commute mult.commute)",
    "by (metis mod_mult_self2 add_0)",
)

# Tier mix of every large sketch, per 100 tagged gaps: cascade index -> count,
# then "H" (closed by the hammer after all 11 tactics fail).
_TIER_MIX = {0: 30, 1: 15, 2: 10, 3: 8, 4: 6, 5: 5, 6: 4, 7: 4, 8: 3, 9: 3, 10: 2, "H": 10}

_PROPS = (
    "x + {n} = {n} + x",
    "(a - b) * (a + b) = a*a - b*b + {n} - {n}",
    "{n} * (k + 1) = {n} * k + {n}",
    "gcd (n + {n}) n dvd {n}",
    "(n * n + {n}) mod 4 \\<in> {{{n} mod 4, ({n} + 1) mod 4}}",
    "0 \\<le> (x - {n})^2",
    "''sorry'' \\<noteq> ''oops'' \\<and> {n} = {n}",
    "abs (x + {n}) \\<le> abs x + {n}",
)
_COMMENTS = (
    "this step needs no sorry",
    "expand the square (* inner remark: never oops *) and regroup",
    "reduce modulo 4",
    "a \"quoted\" sorry inside a comment is not a cheat",
    "the cross terms cancel",
)


@dataclass(frozen=True)
class LargeSketch:
    text: str
    gaps: int


def _tier_tag(tier) -> str:
    return "tierHH" if tier == "H" else f"tier{tier:02d}"


class _SketchWriter:
    """Writes one sketch of declarative steps; every gap carries a tier tag
    in its proposition (or is a `show ?thesis`, closed by tactic 0)."""

    def __init__(self, rng: random.Random, tiers: list):
        self.rng = rng
        self.tiers = tiers
        self.lines: list[str] = []
        self.labels = 0
        self.gaps = 0

    def label(self) -> str:
        self.labels += 1
        return f"c{self.labels}"

    def prop(self, tag: str) -> str:
        return f"{tag} \\<and> " + self.rng.choice(_PROPS).format(n=self.rng.randrange(1000))

    def comment(self, ind: str) -> None:
        self.lines.append(f"{ind}(* {self.rng.choice(_COMMENTS)} *)")

    def gap_step(self, ind: str, chain: bool) -> None:
        head = "then " if chain else ""
        uses = " using h0" if self.rng.random() < 0.3 else ""
        tier = self.tiers.pop()
        self.lines.append(f'{ind}{head}have {self.label()}: "{self.prop(_tier_tag(tier))}"{uses} sledgehammer')
        self.gaps += 1

    def closed_step(self, ind: str) -> None:
        self.lines.append(f'{ind}have {self.label()}: "{self.prop("done")}" by auto')

    def show_thesis(self, ind: str) -> None:
        self.lines.append(f"{ind}then show ?thesis sledgehammer")
        self.gaps += 1

    def nested(self, ind: str, depth: int) -> None:
        """A have step proved by its own proof block: 3 gaps, plus the gaps
        of one more nested block at depth 1."""
        self.lines.append(f'{ind}have {self.label()}: "{self.prop("nest")}"')
        self.lines.append(f"{ind}proof -")
        inner = ind + "  "
        self.gap_step(inner, chain=False)
        if depth == 0:
            self.nested(inner, depth + 1)
        self.gap_step(inner, chain=True)
        self.show_thesis(inner)
        self.lines.append(f"{ind}qed")

    def cases(self, ind: str) -> None:
        """A case split: 2 gaps per case, labels of one case invisible in
        the other."""
        self.lines.append(f'{ind}have {self.label()}: "{self.prop("split")}"')
        self.lines.append(f'{ind}proof (cases "even a")')
        for i, name in enumerate(("True", "False")):
            if i:
                self.lines.append(f"{ind}next")
            self.lines.append(f"{ind}case {name}")
            self.gap_step(ind + "  ", chain=False)
            self.show_thesis(ind + "  ")
        self.lines.append(f"{ind}qed")


# One sketch is this many units, shuffled; the counts fix the gap total.
_UNITS = {"plain": 100, "closed": 30, "nested": 10, "cases": 10}
_UNIT_GAPS = {"plain": 1, "closed": 0, "nested": 6, "cases": 4}
_UNIT_STEPS = {"plain": 1, "closed": 1, "nested": 8, "cases": 5}  # have/show lines
# Comments are interleaved with the steps at the rate of the sketches in
# fixtures/sketches: 59 comments over 107 steps.
COMMENTS_PER_STEP = 59 / 107


def units_for(gaps: int) -> dict[str, int]:
    """Unit counts for a sketch of `gaps` gaps (the final show adds one):
    the reference mix scaled to size."""
    scale = (gaps - 1) / sum(_UNITS[k] * _UNIT_GAPS[k] for k in _UNITS)
    counts = {k: max(1, round(v * scale)) for k, v in _UNITS.items()}
    structured = sum(counts[k] * _UNIT_GAPS[k] for k in ("nested", "cases"))
    counts["plain"] = gaps - 1 - structured
    if counts["plain"] < 0:
        raise ValueError(f"{gaps} gaps is too small for the unit mix")
    return counts


def large_sketch(seed: int, index: int, gaps: int) -> LargeSketch:
    """One synthetic sketch with exactly `gaps` gaps. Its structure and the
    placement of tactic tiers depend on (seed, index); the unit mix and the
    tier mix do not."""
    rng = random.Random(f"large_sketch|{seed}|{index}")
    counts = units_for(gaps)
    tagged = gaps - 1 - counts["nested"] * 2 - counts["cases"] * 2  # show ?thesis gaps carry no tag
    tiers: list = []
    for tier, share in _TIER_MIX.items():
        tiers += [tier] * round(share * tagged / 100)
    while len(tiers) < tagged:
        tiers.append(0)
    del tiers[tagged:]
    rng.shuffle(tiers)

    units = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(units)
    steps = 1 + sum(_UNIT_STEPS[kind] * n for kind, n in counts.items())  # the final show too
    for _ in range(round(COMMENTS_PER_STEP * steps)):
        units.insert(rng.randrange(len(units) + 1), "comment")
    w = _SketchWriter(rng, tiers)
    w.lines += [
        f"theorem large_{seed}_{index}:",
        "  fixes a :: int and n :: nat and x :: real",
        "  assumes h0: \"0 \\<le> x \\<and> ''sorry'' = ''sorry''\"",
        '  shows "P a n x"',
        "proof -",
    ]
    for kind in units:
        if kind == "plain":
            w.gap_step("  ", chain=rng.random() < 0.3)
        elif kind == "closed":
            w.closed_step("  ")
        elif kind == "comment":
            w.comment("  ")
        elif kind == "nested":
            w.nested("  ", 0)
        else:
            w.cases("  ")
    w.show_thesis("  ")
    w.lines.append("qed")
    assert not w.tiers and w.gaps == gaps
    return LargeSketch("\n".join(w.lines) + "\n", gaps)


def large_sketch_script(seed: int) -> dict:
    """Prover script that closes every gap of `large_sketch`: each tier tag
    names the cascade index that succeeds, or the hammer step."""
    rng = random.Random(f"large_script|{seed}")
    rules = [
        {"match": {"kind": "substring", "pattern": _tier_tag(k)},
         "outcome": {"kind": "tactic", "index": k}}
        for k in range(N_TACTICS)
    ]
    rules.append({"match": {"kind": "substring", "pattern": _tier_tag("H")},
                  "outcome": {"kind": "hammer", "step": rng.choice(HAMMER_STEPS)}})
    rules.append({"match": {"kind": "exact", "pattern": "?thesis"},
                  "outcome": {"kind": "tactic", "index": 0}})
    return {
        "schema": "prover-script/1",
        "rules": rules,
        "default": {"kind": "fail"},
        "verify": {"default": "accept", "reject_substrings": []},
    }


# Latency injected into the live_latency copy of the fixture script. The
# timeout rule ("9 * 999") gets a small burn too; left at its default it
# would sleep the full 10 s tactic timeout on every step. The delays are
# long enough for waiting to set a replay's wall time even on a slow host:
# at a third of them, client and server CPU moved throughput by up to 25 %.
LIVE_STEP_MS = 3
LIVE_HAMMER_MS = 9
LIVE_TIMEOUT_MS = 6


def live_script(fixture_script: dict) -> dict:
    script = copy.deepcopy(fixture_script)
    script["latency"] = {"step_ms": LIVE_STEP_MS, "hammer_ms": LIVE_HAMMER_MS, "real_sleep": True}
    for rule in script["rules"]:
        if rule["outcome"]["kind"] == "timeout":
            rule["outcome"]["ms"] = LIVE_TIMEOUT_MS
    return script


ENDPOINT_DELAY_MS = 30.0
ENDPOINT_JITTER = 0.25  # each request waits ENDPOINT_DELAY_MS * (1 +- ENDPOINT_JITTER)


def endpoint_delay_s(seed: int, prompt: str) -> float:
    """Fixed per-request delay of the fake endpoint: a function of the seed
    and the prompt, uniform around ENDPOINT_DELAY_MS."""
    digest = hashlib.sha256(f"{seed}|{prompt}".encode("utf-8")).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    return ENDPOINT_DELAY_MS * (1 + ENDPOINT_JITTER * (2 * u - 1)) / 1000.0


def write_json(path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")

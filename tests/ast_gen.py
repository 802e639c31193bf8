"""Seeded random sketch-AST generator.

The generator space is the set of ASTs the canonical renderer can represent
faithfully: propositions without double quotes, comments without comment
delimiters, identifiers that lex as identifiers, and standalone comments
only where the parser would not re-attach them to a following step (i.e. at
the end of a statement run).
"""

from __future__ import annotations

import random

from sketchprove.sketch.nodes import (
    AssumeStep,
    Comment,
    Gap,
    HaveStep,
    Justification,
    Nested,
    ObtainStep,
    ProofBlock,
    ProofNode,
    ShowStep,
    SketchAst,
    TheoremHeader,
)

_PROP_WORDS = [
    "x", "y", "n", "a + b", "2 * k", "gcd m n = 1", "0 \\<le> x",
    "x^2 - 4*x + 5", "(a - b) * (a + b)", "n mod 4 = 0", "even (n + 2)",
    "abs x + 1 > 0", "f z = 11 - 3*z", "?P \\<longrightarrow> ?Q",
]
_COMMENT_WORDS = [
    "it suffices to show the bound", "complete the square", "by the Euclidean step",
    "substitute back", "the cross terms cancel", "reduce modulo 4",
]
_TACTICS = [
    "by auto", "by simp", "by blast", "by (auto simp: field_simps)",
    "by (smt (z3) gcd.commute gcd_add2)", "by presburger", "by fastforce",
]
_SORTS = ["real", "nat", "int", "complex", "'a list"]
_METHODS = [None, "-", "(induct n)", '(cases "even a")']
_CHAINS = [None, None, None, "then", "also", "finally"]


class AstGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._counter = 0

    def ident(self, prefix: str = "c") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def prop(self) -> str:
        r = self.rng
        base = r.choice(_PROP_WORDS)
        if r.random() < 0.3:
            base = f"{base} + {r.randrange(100)}"
        return base

    def facts(self) -> tuple[str, ...]:
        r = self.rng
        if r.random() < 0.5:
            return ()
        return tuple(r.choice(["assms", "h0", "c1", "gcd_add1", "power_mod"])
                     for _ in range(r.randint(1, 3)))

    def comment(self) -> str:
        return self.rng.choice(_COMMENT_WORDS)

    def justification(self, depth: int) -> Justification:
        r = self.rng
        roll = r.random()
        if roll < 0.4:
            return Gap()
        if roll < 0.85 or depth >= 2:
            return _tactic(r)
        return Nested(self.block(depth + 1))

    def step(self, depth: int) -> ProofNode:
        r = self.rng
        roll = r.random()
        comment = self.comment() if r.random() < 0.3 else None
        chain = r.choice(_CHAINS)
        if roll < 0.5:
            return HaveStep(
                label=self.ident() if r.random() < 0.6 else None,
                proposition=self.prop(),
                uses=self.facts(),
                unfolds=("power2_eq_square",) if r.random() < 0.15 else (),
                justification=self.justification(depth),
                chain=chain,
                preceding_comment=comment,
            )
        if roll < 0.7:
            return ShowStep(
                target=r.choice(["?thesis", "?case", self.prop()]),
                uses=self.facts(),
                unfolds=(),
                justification=self.justification(depth),
                chain=chain,
                preceding_comment=comment,
            )
        if roll < 0.85:
            n_vars = r.randint(1, 2)
            return ObtainStep(
                bound_vars=tuple(self.ident("k") for _ in range(n_vars)),
                label=self.ident() if r.random() < 0.4 else None,
                proposition=self.prop(),
                uses=self.facts(),
                unfolds=(),
                justification=self.justification(depth),
                chain=chain,
                preceding_comment=comment,
            )
        return AssumeStep(
            label=self.ident("h") if r.random() < 0.7 else None,
            proposition=self.prop(),
            preceding_comment=comment,
        )

    def statement_run(self, depth: int) -> tuple[ProofNode, ...]:
        r = self.rng
        nodes: list[ProofNode] = [self.step(depth) for _ in range(r.randint(1, 4))]
        # standalone comments are only representable at the end of a run
        for _ in range(r.randint(0, 2)):
            if r.random() < 0.25:
                nodes.append(Comment(self.comment()))
        return tuple(nodes)

    def block(self, depth: int) -> ProofBlock:
        r = self.rng
        if depth < 2 and r.random() < 0.25:
            case_names = r.choice([("True", "False"), ("0", "(Suc n)")])
            leading = (Comment(self.comment()),) if r.random() < 0.3 else ()
            return ProofBlock(
                method='(cases "even a")' if case_names[0] == "True" else "(induct n)",
                children=leading,
                cases=tuple((name, self.statement_run(depth)) for name in case_names),
            )
        return ProofBlock(
            method=r.choice(_METHODS),
            children=self.statement_run(depth),
            cases=(),
        )

    def header(self) -> TheoremHeader:
        r = self.rng
        fixes = []
        used = set()
        for _ in range(r.randint(0, 3)):
            var = r.choice(["a", "b", "x", "y", "n", "m", "k"])
            if var in used:
                continue
            used.add(var)
            fixes.append((var, r.choice(_SORTS)))
        assumes = tuple(
            (self.ident("h") if r.random() < 0.6 else None, self.prop())
            for _ in range(r.randint(0, 2))
        )
        return TheoremHeader(
            name=self.ident("thm_") if r.random() < 0.8 else None,
            fixes=tuple(fixes),
            assumes=assumes,
            shows=self.prop(),
        )

    def sketch(self) -> SketchAst:
        r = self.rng
        header = self.header()
        roll = r.random()
        if roll < 0.08:
            return SketchAst(header, (), None)  # statement only
        if roll < 0.2:
            just = Gap() if r.random() < 0.5 else _tactic(r)
            comments = (Comment(self.comment()),) if r.random() < 0.2 else ()
            return SketchAst(header, comments, just)
        body: list[ProofNode] = [self.block(0)]
        for _ in range(r.randint(0, 1)):
            if r.random() < 0.3:
                body.append(Comment(self.comment()))
        return SketchAst(header, tuple(body), None)


def _tactic(rng: random.Random):
    from sketchprove.sketch.nodes import Tactic

    return Tactic(rng.choice(_TACTICS))


def generate(count: int, seed: int = 20_24) -> list[SketchAst]:
    gen = AstGen(seed)
    return [gen.sketch() for _ in range(count)]

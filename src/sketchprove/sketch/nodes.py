"""AST for declarative proof sketches.

Nodes are immutable and compare structurally. A sketch is a theorem header
plus a proof body, where any step's justification may be an open gap, a
concrete closing tactic, or a nested proof block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

from ..slots import _slot_init

# Rendered for every Gap justification; parse_sketch also accepts the
# figure-style markers "<...>", "ATP" and "<ATP> ... </ATP>".
GAP_TOKEN = "sledgehammer"


@_slot_init
@dataclass(frozen=True, slots=True)
class Gap:
    """Open conjecture: justification left for an automated prover."""


@_slot_init
@dataclass(frozen=True, slots=True)
class Tactic:
    """Concrete closing step, e.g. 'by auto' or 'by (smt (z3) foo bar)'."""

    text: str


@_slot_init
@dataclass(frozen=True, slots=True)
class Nested:
    """Justification by a nested proof ... qed block."""

    block: "ProofBlock"


Justification = Union[Gap, Tactic, Nested]


@_slot_init
@dataclass(frozen=True, slots=True)
class TheoremHeader:
    name: str | None
    fixes: tuple[tuple[str, str], ...]
    assumes: tuple[tuple[str | None, str], ...]
    shows: str

    def __post_init__(self) -> None:
        if not self.shows:
            raise ValueError("theorem header must state a goal")
        names = [v for v, _ in self.fixes]
        if len(names) != len(set(names)):
            raise ValueError("duplicate fixed variable names: %r" % (names,))


@_slot_init
@dataclass(frozen=True, slots=True)
class HaveStep:
    label: str | None
    proposition: str
    uses: tuple[str, ...]
    unfolds: tuple[str, ...]
    justification: Justification
    chain: str | None = None
    preceding_comment: str | None = None


@_slot_init
@dataclass(frozen=True, slots=True)
class ShowStep:
    target: str
    uses: tuple[str, ...]
    unfolds: tuple[str, ...]
    justification: Justification
    chain: str | None = None
    preceding_comment: str | None = None


@_slot_init
@dataclass(frozen=True, slots=True)
class ObtainStep:
    bound_vars: tuple[str, ...]
    label: str | None
    proposition: str
    uses: tuple[str, ...]
    unfolds: tuple[str, ...]
    justification: Justification
    chain: str | None = None
    preceding_comment: str | None = None


@_slot_init
@dataclass(frozen=True, slots=True)
class AssumeStep:
    """Local assumption inside a block; carries no justification."""

    label: str | None
    proposition: str
    preceding_comment: str | None = None


@_slot_init
@dataclass(frozen=True, slots=True)
class Comment:
    text: str


@_slot_init
@dataclass(frozen=True, slots=True)
class ProofBlock:
    method: str | None
    children: tuple["ProofNode", ...]
    cases: tuple[tuple[str, tuple["ProofNode", ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.cases and self.children and not _only_comments(self.children):
            raise ValueError("a block with cases may only hold leading comments")

    def indexed_children(self) -> tuple["ProofNode", ...]:
        """Children in document order, case bodies flattened after any
        leading comments. GapSite paths index into this sequence."""
        if not self.cases:
            return self.children
        flat = list(self.children)
        for _, body in self.cases:
            flat.extend(body)
        return tuple(flat)


ProofNode = Union[HaveStep, ShowStep, ObtainStep, AssumeStep, Comment, ProofBlock]
StepNode = (HaveStep, ShowStep, ObtainStep)


def _only_comments(nodes: tuple[ProofNode, ...]) -> bool:
    return all(isinstance(n, Comment) for n in nodes)


@_slot_init
@dataclass(frozen=True, slots=True)
class SketchAst:
    """Parsed sketch. `root_justification` holds the whole-theorem closing
    step when the proof is a bare justification instead of a block (or None
    for a statement-only sketch)."""

    header: TheoremHeader
    body: tuple[ProofNode, ...] = ()
    root_justification: Justification | None = None

    def __post_init__(self) -> None:
        if self.root_justification is not None and any(
            not isinstance(n, Comment) for n in self.body
        ):
            raise ValueError("proof body and direct closing step are exclusive")


class GapSite(NamedTuple):
    """One open conjecture: where it sits (its `walk` path, or () for the
    whole theorem) and what it claims. The facts in scope are left to the
    prover: they hold in the state the gap starts from. A named tuple, since
    `extract_gaps` builds one per gap of every sketch it walks."""

    path: tuple[int, ...]
    label: str | None
    proposition: str


@dataclass
class InvalidSite(Exception):
    reason: str

    def __str__(self) -> str:
        return self.reason


def walk(ast: SketchAst) -> Iterator[tuple[tuple[int, ...], ProofNode]]:
    """Document-order traversal yielding (path, node) pairs. A node's
    addressable children are a block's `indexed_children`, or the block of
    a step justified by a nested proof (one child).

    One loop over a stack of (parent path, pending children) pairs: a node
    with children pushes them and the loop descends at once, so every pair
    is yielded by this one generator, however deep the nesting."""
    stack = [((), enumerate(ast.body))]
    while stack:
        prefix, pending = stack[-1]
        for i, node in pending:
            path = prefix + (i,)
            yield path, node
            if isinstance(node, ProofBlock):
                children = node.indexed_children()
            elif isinstance(node, StepNode) and isinstance(node.justification, Nested):
                children = (node.justification.block,)
            else:
                continue
            if children:
                stack.append((path, enumerate(children)))
                break
        else:
            stack.pop()

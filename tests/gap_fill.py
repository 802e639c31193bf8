"""Test-side gap filling: close one gap of a sketch AST by rebuilding the
tree, as the oracle that spliced proof texts are checked against."""

from __future__ import annotations

from dataclasses import replace

from sketchprove.sketch import (
    Gap,
    GapSite,
    InvalidSite,
    Nested,
    ProofBlock,
    ProofNode,
    SketchAst,
    StepNode,
    Tactic,
    closing_step_text,
)


def fill(ast: SketchAst, site: GapSite, closing_step: str) -> SketchAst:
    """`ast` with the gap at `site` justified by `closing_step`'s canonical
    text. Raises InvalidSite when the step is not a concrete closing step or
    `site.path` no longer addresses a gap."""
    tactic = Tactic(closing_step_text(closing_step))
    if site.path == ():
        if not isinstance(ast.root_justification, Gap):
            raise InvalidSite(f"path {list(site.path)} does not address a gap")
        return replace(ast, root_justification=tactic)
    try:
        return replace(ast, body=_fill_in(ast.body, site.path, tactic))
    except LookupError:
        raise InvalidSite(f"path {list(site.path)} does not address a gap") from None


def _fill_in(nodes: tuple[ProofNode, ...], path: tuple[int, ...], tactic: Tactic):
    """`nodes` (the children a `walk` path indexes) with the gap at `path`
    filled; LookupError when there is none."""
    index, rest = path[0], path[1:]
    node = nodes[index]
    if rest:
        node = _fill_below(node, rest, tactic)
    elif isinstance(node, StepNode) and isinstance(node.justification, Gap):
        node = replace(node, justification=tactic)
    else:
        raise LookupError(path)
    return nodes[:index] + (node,) + nodes[index + 1 :]


def _fill_below(node: ProofNode, path: tuple[int, ...], tactic: Tactic) -> ProofNode:
    if isinstance(node, ProofBlock):
        flat = _fill_in(node.indexed_children(), path, tactic)
        start = len(node.children)
        cases = []
        for name, body in node.cases:
            cases.append((name, flat[start : start + len(body)]))
            start += len(body)
        return replace(node, children=flat[: len(node.children)], cases=tuple(cases))
    if isinstance(node, StepNode) and isinstance(node.justification, Nested):
        (block,) = _fill_in((node.justification.block,), path, tactic)
        return replace(node, justification=Nested(block))
    raise LookupError(path)

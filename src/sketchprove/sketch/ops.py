"""Gap extraction, gap and comment counts, and comment stripping."""

from __future__ import annotations

from dataclasses import replace as _replace

from .nodes import (
    AssumeStep,
    Comment,
    Gap,
    GapSite,
    Nested,
    ProofBlock,
    ProofNode,
    ShowStep,
    SketchAst,
    StepNode,
    walk,
)


def extract_gaps(ast: SketchAst) -> list[GapSite]:
    """Open conjectures in document order: the theorem itself when its
    whole proof is a gap, then each step justified by a gap, at its `walk`
    path."""
    sites: list[GapSite] = []
    if isinstance(ast.root_justification, Gap):
        sites.append(GapSite((), None, ast.header.shows))
    for path, node in walk(ast):
        if isinstance(node, StepNode) and isinstance(node.justification, Gap):
            if isinstance(node, ShowStep):
                sites.append(GapSite(path, None, node.target))
            else:
                sites.append(GapSite(path, node.label, node.proposition))
    return sites


def count_gaps(ast: SketchAst) -> int:
    return len(extract_gaps(ast))


def strip_comments(ast: SketchAst) -> SketchAst:
    """Drop standalone comment nodes and step annotations; everything else,
    gaps included, is untouched."""

    def strip_nodes(nodes: tuple[ProofNode, ...]) -> tuple[ProofNode, ...]:
        return tuple(
            strip_node(node) for node in nodes if not isinstance(node, Comment)
        )

    def strip_node(node: ProofNode) -> ProofNode:
        if isinstance(node, ProofBlock):
            return _replace(
                node,
                children=strip_nodes(node.children),
                cases=tuple((name, strip_nodes(body)) for name, body in node.cases),
            )
        if isinstance(node, StepNode):
            just = node.justification
            if isinstance(just, Nested):
                block = strip_node(just.block)
                assert isinstance(block, ProofBlock)
                just = Nested(block)
            return _replace(node, preceding_comment=None, justification=just)
        if isinstance(node, AssumeStep):
            return _replace(node, preceding_comment=None)
        return node

    return _replace(ast, body=strip_nodes(ast.body))


def count_comments(ast: SketchAst) -> int:
    """Standalone comment nodes plus attached step annotations."""
    return sum(
        isinstance(node, Comment) or getattr(node, "preceding_comment", None) is not None
        for _, node in walk(ast)
    )

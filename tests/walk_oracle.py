"""Test-side sketch walk: the document-order traversal written the plain
way, one recursive generator per nesting level, as the oracle the one-loop
`walk` of `sketchprove.sketch.nodes` is checked against."""

from __future__ import annotations

from typing import Iterator

from sketchprove.sketch.nodes import Nested, ProofBlock, ProofNode, SketchAst, StepNode


def child_nodes(node: ProofNode) -> tuple[ProofNode, ...]:
    """Addressable children of a node (nested justification blocks count as
    a single child)."""
    if isinstance(node, ProofBlock):
        return node.indexed_children()
    if isinstance(node, StepNode) and isinstance(node.justification, Nested):
        return (node.justification.block,)
    return ()


def walk(ast: SketchAst) -> Iterator[tuple[tuple[int, ...], ProofNode]]:
    """Document-order traversal yielding (path, node) pairs."""

    def visit(nodes: tuple[ProofNode, ...], prefix: tuple[int, ...]):
        for i, node in enumerate(nodes):
            path = prefix + (i,)
            yield path, node
            yield from visit(child_nodes(node), path)

    yield from visit(ast.body, ())

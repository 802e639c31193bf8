"""Test-side renderer: the sketch body rendered the plain way, in two passes,
as the oracle the one-pass `sketchprove.sketch.render.render_segments` is
checked against. The first pass appends the body's lines with a None marker
where each gap token goes; the second splits the lines at the markers. The
header's lines come from the package's `render_header`, which both share."""

from __future__ import annotations

import re
from typing import Sequence

from sketchprove.sketch import render_header
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
    Tactic,
)

_INDENT = "  "


def _render_inline(head: str, just: Justification, out: list[str | None]) -> None:
    if isinstance(just, Gap):
        out.extend((head, None))
    elif isinstance(just, Tactic):
        out.append(head + just.text)
    else:
        raise TypeError(f"not an inline justification: {just!r}")


def _step_clauses(uses: tuple[str, ...], unfolds: tuple[str, ...]) -> str:
    text = ""
    if uses:
        text += " using " + " ".join(uses)
    if unfolds:
        text += " unfolding " + " ".join(unfolds)
    return text


def _render_node(node: ProofNode, level: int, out: list[str | None]) -> None:
    ind = _INDENT * level
    if isinstance(node, Comment):
        out.append(f"{ind}(* {node.text} *)")
        return
    if isinstance(node, ProofBlock):
        _render_block(node, level, out)
        return
    if isinstance(node, AssumeStep):
        if node.preceding_comment is not None:
            out.append(f"{ind}(* {node.preceding_comment} *)")
        prefix = f"{node.label}: " if node.label else ""
        out.append(f'{ind}assume {prefix}"{node.proposition}"')
        return

    if node.preceding_comment is not None:
        out.append(f"{ind}(* {node.preceding_comment} *)")
    head = f"{node.chain} " if node.chain else ""
    if isinstance(node, HaveStep):
        prefix = f"{node.label}: " if node.label else ""
        line = f'{head}have {prefix}"{node.proposition}"'
    elif isinstance(node, ShowStep):
        # a target is written bare only when it lexes as one `?name` token
        bare = re.fullmatch(r"\?[A-Za-z_][A-Za-z0-9_']*", node.target)
        target = node.target if bare else f'"{node.target}"'
        line = f"{head}show {target}"
    elif isinstance(node, ObtainStep):
        prefix = f"{node.label}: " if node.label else ""
        line = f'{head}obtain {" ".join(node.bound_vars)} where {prefix}"{node.proposition}"'
    else:
        raise TypeError(f"unknown node: {node!r}")
    line += _step_clauses(node.uses, node.unfolds)

    if isinstance(node.justification, Nested):
        out.append(ind + line)
        _render_block(node.justification.block, level, out)
    else:
        _render_inline(ind + line + " ", node.justification, out)


def _render_block(block: ProofBlock, level: int, out: list[str | None]) -> None:
    ind = _INDENT * level
    out.append(f"{ind}proof {block.method}" if block.method else f"{ind}proof")
    for child in block.children:
        _render_node(child, level + 1, out)
    for i, (name, body) in enumerate(block.cases):
        if i > 0:
            out.append(f"{ind}next")
        out.append(f"{ind}case {name}")
        for child in body:
            _render_node(child, level + 1, out)
    out.append(f"{ind}qed")


def render_segments(ast: SketchAst, header_lines: Sequence[str] | None = None) -> list[str]:
    """The canonical text between gap tokens, in document order."""
    out: list[str | None] = []
    for node in ast.body:
        _render_node(node, 0, out)
    if ast.root_justification is not None:
        _render_inline(_INDENT, ast.root_justification, out)
    segments: list[str] = []
    lines = list(render_header(ast.header) if header_lines is None else header_lines)
    for line in out:
        if line is None:
            segments.append("\n".join(lines))
            lines = [""]  # the next line starts after the gap's line break
        else:
            lines.append(line)
    segments.append("\n".join(lines) + "\n")
    return segments

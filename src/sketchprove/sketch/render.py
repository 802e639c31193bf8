"""Canonical text rendering for sketch ASTs.

Reparsing the output yields a structurally equal AST. Gap justifications
render as the canonical gap token; figure-style markers never survive a
round trip.
"""

from __future__ import annotations

import re
from typing import Sequence

from .parser import QIDENT, RESERVED
from .nodes import (
    GAP_TOKEN,
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
    TheoremHeader,
)

_INDENT = "  "


def render_header(header: TheoremHeader) -> tuple[str, ...]:
    """The canonical lines of a theorem header, which holds no gap. Equal
    headers render to equal lines."""
    title = "theorem"
    if header.name:
        title += f" {header.name}:"
    out = [title]
    if header.fixes:
        groups: list[tuple[list[str], str]] = []
        for var, sort in header.fixes:
            if groups and groups[-1][1] == sort:
                groups[-1][0].append(var)
            else:
                groups.append(([var], sort))
        rendered = " and ".join(
            "%s :: %s" % (" ".join(vs), _quote_sort(sort)) for vs, sort in groups
        )
        out.append(f"{_INDENT}fixes {rendered}")
    for i, (label, prop) in enumerate(header.assumes):
        keyword = "assumes" if i == 0 else f"{_INDENT}and"
        prefix = f"{label}: " if label else ""
        out.append(f'{_INDENT}{keyword} {prefix}"{prop}"')
    out.append(f'{_INDENT}shows "{header.shows}"')
    return tuple(out)


def _quote_sort(sort: str) -> str:
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_'.]*", sort) and sort not in RESERVED:
        return sort
    return f'"{sort}"'


def _end_line(head: str, just: Justification, lines: list[str], segments: list[str]) -> None:
    """Append a line ending in an inline justification. A gap line ends at
    `head`, where the gap token goes, and closes the current segment."""
    kind = type(just)
    if kind is Gap:
        lines.append(head)
        segments.append("\n".join(lines))
        lines[:] = [""]  # the next line starts after the gap's line break
    elif kind is Tactic:
        lines.append(head + just.text)
    else:
        raise TypeError(f"not an inline justification: {just!r}")


def _render_nodes(
    nodes: Sequence[ProofNode], ind: str, lines: list[str], segments: list[str]
) -> None:
    for node in nodes:
        kind = type(node)
        if kind is HaveStep:
            prefix = f"{node.label}: " if node.label else ""
            line = f'have {prefix}"{node.proposition}"'
        elif kind is ShowStep:
            target = node.target if QIDENT.fullmatch(node.target) else f'"{node.target}"'
            line = f"show {target}"
        elif kind is ObtainStep:
            prefix = f"{node.label}: " if node.label else ""
            line = f'obtain {" ".join(node.bound_vars)} where {prefix}"{node.proposition}"'
        elif kind is Comment:
            lines.append(f"{ind}(* {node.text} *)")
            continue
        elif kind is ProofBlock:
            _render_block(node, ind, lines, segments)
            continue
        elif kind is AssumeStep:
            if node.preceding_comment is not None:
                lines.append(f"{ind}(* {node.preceding_comment} *)")
            prefix = f"{node.label}: " if node.label else ""
            lines.append(f'{ind}assume {prefix}"{node.proposition}"')
            continue
        else:
            raise TypeError(f"unknown node: {node!r}")

        if node.preceding_comment is not None:
            lines.append(f"{ind}(* {node.preceding_comment} *)")
        line = f"{ind}{node.chain} {line}" if node.chain else ind + line
        if node.uses:
            line += " using " + " ".join(node.uses)
        if node.unfolds:
            line += " unfolding " + " ".join(node.unfolds)
        if type(node.justification) is Nested:
            lines.append(line)
            _render_block(node.justification.block, ind, lines, segments)
        else:
            _end_line(line + " ", node.justification, lines, segments)


def _render_block(block: ProofBlock, ind: str, lines: list[str], segments: list[str]) -> None:
    lines.append(f"{ind}proof {block.method}" if block.method else f"{ind}proof")
    inner = ind + _INDENT
    _render_nodes(block.children, inner, lines, segments)
    for i, (name, body) in enumerate(block.cases):
        if i > 0:
            lines.append(f"{ind}next")
        lines.append(f"{ind}case {name}")
        _render_nodes(body, inner, lines, segments)
    lines.append(f"{ind}qed")


def render_segments(ast: SketchAst, header_lines: Sequence[str] | None = None) -> list[str]:
    """The canonical text between gap tokens, in document order: one more
    segment than the sketch has gaps, the k-th gap sitting right after
    segment k. `header_lines`, when given, must be `render_header(ast.header)`;
    a caller that proves many sketches of one theorem renders it once.

    One pass over the tree: lines are appended to the current segment, and
    each gap, the root gap included, closes it."""
    segments: list[str] = []
    lines = list(render_header(ast.header) if header_lines is None else header_lines)
    _render_nodes(ast.body, "", lines, segments)
    if ast.root_justification is not None:
        _end_line(_INDENT, ast.root_justification, lines, segments)
    segments.append("\n".join(lines) + "\n")
    return segments


def serialize(ast: SketchAst) -> str:
    """Render the AST to canonical sketch text ending with a newline."""
    return GAP_TOKEN.join(render_segments(ast))


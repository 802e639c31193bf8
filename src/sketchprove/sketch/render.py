"""Canonical text rendering for sketch ASTs.

Reparsing the output yields a structurally equal AST. Gap justifications
render as the canonical gap token; figure-style markers never survive a
round trip.
"""

from __future__ import annotations

import re
from typing import Sequence

from .parser import RESERVED
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


def _render_inline(head: str, just: Justification, out: list[str | None]) -> None:
    """Append a line ending in an inline justification. A gap line ends at
    `head` and is followed by a None marker where the gap token goes."""
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
        target = node.target if node.target.startswith("?") else f'"{node.target}"'
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
    """The canonical text between gap tokens, in document order: one more
    segment than the sketch has gaps, the k-th gap sitting right after
    segment k. `header_lines`, when given, must be `render_header(ast.header)`;
    a caller that proves many sketches of one theorem renders it once."""
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


def serialize(ast: SketchAst) -> str:
    """Render the AST to canonical sketch text ending with a newline."""
    return GAP_TOKEN.join(render_segments(ast))


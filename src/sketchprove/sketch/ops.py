"""Gap extraction and sketch transformations."""

from __future__ import annotations

from dataclasses import dataclass, replace as _replace
from functools import lru_cache
from typing import Iterable, Iterator

from .nodes import (
    AssumeStep,
    Comment,
    Gap,
    GapSite,
    HaveStep,
    Nested,
    ObtainStep,
    ProofBlock,
    ProofNode,
    ShowStep,
    SketchAst,
    StepNode,
    Tactic,
    replace_at,
)
from .parser import ParseError, parse_sketch

Path = tuple[int, ...]


@dataclass
class InvalidSite(Exception):
    path: Path
    reason: str

    def __str__(self) -> str:
        return f"{self.reason} (path {list(self.path)})"


def _indexed(block: ProofBlock, path: Path) -> Iterator[tuple[Path, ProofNode, bool]]:
    """Block children as (path, node, starts_case_scope) triples."""
    for i, node in enumerate(block.children):
        yield path + (i,), node, False
    offset = len(block.children)
    for _, body in block.cases:
        for j, node in enumerate(body):
            yield path + (offset + j,), node, j == 0
        offset += len(body)


def _site_for(step: ProofNode, path: Path, scope: tuple[str, ...]) -> GapSite:
    if isinstance(step, ShowStep):
        return GapSite(path, None, step.target, scope, step.preceding_comment)
    assert isinstance(step, (HaveStep, ObtainStep))
    return GapSite(path, step.label, step.proposition, scope, step.preceding_comment)


def extract_gaps(ast: SketchAst) -> list[GapSite]:
    """Open conjectures in document order. Each site's facts_in_scope lists
    the assumption and step labels visible at that point; sibling cases do
    not see each other's labels."""
    sites: list[GapSite] = []
    header_labels = [label for label, _ in ast.header.assumes if label]

    if isinstance(ast.root_justification, Gap):
        sites.append(GapSite((), None, ast.header.shows, tuple(header_labels), None))

    def visit(pairs: Iterable[tuple[Path, ProofNode]], scope: list[str]) -> None:
        for path, node in pairs:
            if isinstance(node, StepNode):
                if isinstance(node.justification, Gap):
                    sites.append(_site_for(node, path, tuple(scope)))
                elif isinstance(node.justification, Nested):
                    visit_block(node.justification.block, path + (0,), list(scope))
                if getattr(node, "label", None):
                    scope.append(node.label)  # type: ignore[arg-type]
            elif isinstance(node, AssumeStep):
                if node.label:
                    scope.append(node.label)
            elif isinstance(node, ProofBlock):
                visit_block(node, path, list(scope))

    def visit_block(block: ProofBlock, path: Path, scope: list[str]) -> None:
        current = scope
        entry = tuple(scope)
        run: list[tuple[Path, ProofNode]] = []
        for child_path, node, starts_case in _indexed(block, path):
            if starts_case:
                visit(run, current)
                run = []
                current = list(entry)
            run.append((child_path, node))
        visit(run, current)

    visit([((i,), node) for i, node in enumerate(ast.body)], header_labels.copy())
    return sites


def count_gaps(ast: SketchAst) -> int:
    return len(extract_gaps(ast))


# Only steps that repeat gain from the cache: a cascade tactic's step (one
# of a fixed list) always does, a hammer reconstruction usually does not.
@lru_cache(maxsize=1024)
def closing_step_text(text: str) -> str:
    """The canonical text a gap holds once `text` closes it, as the sketch
    renders it. Raises InvalidSite when `text` is not a concrete closing step."""
    try:
        probe = parse_sketch(f'theorem t: shows "True"\n  {text}\n')
    except ParseError as exc:
        raise InvalidSite((), f"closing step does not parse: {exc}") from None
    just = probe.root_justification
    if not isinstance(just, Tactic):
        raise InvalidSite((), "closing step must be a concrete justification")
    return just.text


def fill_gap(ast: SketchAst, site: GapSite, closing_step: str) -> SketchAst:
    """Replace the Gap addressed by `site` with a concrete closing step.
    Raises InvalidSite when the path no longer addresses a gap."""
    tactic = Tactic(closing_step_text(closing_step))
    if site.path == ():
        if not isinstance(ast.root_justification, Gap):
            raise InvalidSite(site.path, "path does not address a gap")
        return _replace(ast, root_justification=tactic, spans={})
    try:
        node = ast.child_at(site.path)
    except KeyError:
        raise InvalidSite(site.path, "path does not address a node") from None
    if not isinstance(node, StepNode) or not isinstance(node.justification, Gap):
        raise InvalidSite(site.path, "path does not address a gap")
    return replace_at(ast, site.path, _replace(node, justification=tactic))


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

    return _replace(ast, body=strip_nodes(ast.body), spans={})


def count_comments(ast: SketchAst) -> int:
    """Standalone comment nodes plus attached step annotations."""
    total = 0

    def visit(nodes: Iterable[ProofNode]) -> None:
        nonlocal total
        for node in nodes:
            if isinstance(node, Comment):
                total += 1
            elif isinstance(node, ProofBlock):
                visit(node.children)
                for _, body in node.cases:
                    visit(body)
            elif isinstance(node, (AssumeStep,) + StepNode):
                if node.preceding_comment is not None:
                    total += 1
                if isinstance(node, StepNode) and isinstance(node.justification, Nested):
                    visit((node.justification.block,))

    visit(ast.body)
    return total


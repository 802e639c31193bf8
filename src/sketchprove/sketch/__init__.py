"""Declarative proof sketch grammar: parse, transform, serialize."""

from .cheat import CheatReport, check_no_cheat
from .nodes import (
    GAP_TOKEN,
    AssumeStep,
    Comment,
    Gap,
    GapSite,
    HaveStep,
    InvalidSite,
    Justification,
    Nested,
    ObtainStep,
    ProofBlock,
    ProofNode,
    ShowStep,
    SketchAst,
    StepNode,
    Tactic,
    TheoremHeader,
    walk,
)
from .ops import count_comments, count_gaps, extract_gaps, strip_comments
from .parser import ParseError, closing_step_text, parse_sketch
from .render import render_header, render_segments, serialize

__all__ = [
    "GAP_TOKEN",
    "AssumeStep",
    "CheatReport",
    "Comment",
    "Gap",
    "GapSite",
    "HaveStep",
    "InvalidSite",
    "Justification",
    "Nested",
    "ObtainStep",
    "ParseError",
    "ProofBlock",
    "ProofNode",
    "ShowStep",
    "SketchAst",
    "StepNode",
    "Tactic",
    "TheoremHeader",
    "check_no_cheat",
    "closing_step_text",
    "count_comments",
    "count_gaps",
    "extract_gaps",
    "parse_sketch",
    "render_header",
    "render_segments",
    "serialize",
    "strip_comments",
    "walk",
]

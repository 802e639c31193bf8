"""Prompt construction for the drafting and sketching stages.

Builds few-shot prompts from a pool of worked examples, with category
filtering by problem name, uniform example selection, and the ablation
modes that strip comments, informal proofs, or open gaps from the shown
examples.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Protocol, Sequence

from .errors import ConfigError, decode_json, read_text
from .sketch import count_comments, count_gaps, parse_sketch, serialize, strip_comments
from .sketch.parser import ParseError


class Category(str, Enum):
    ALGEBRA = "algebra"
    NUMBER_THEORY = "numbertheory"
    UNKNOWN = "unknown"


class PromptMode(str, Enum):
    FULL = "full"
    NO_COMMENTS = "no-comments"
    NO_INFORMAL_PROOF = "no-informal"
    FULL_PROOF = "full-proof"


@dataclass
class PoolTooSmall(ConfigError):
    needed: int
    available: int

    def __str__(self) -> str:
        return f"need {self.needed} examples, only {self.available} eligible"


@dataclass
class MissingFullProof(ConfigError):
    quad_id: str

    def __str__(self) -> str:
        return f"example {self.quad_id!r} has no gap-free full proof"


@dataclass
class PoolFormatError(ConfigError):
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class ExampleQuad:
    id: str
    category: Category
    informal_statement: str
    informal_proof: str
    formal_statement: str
    formal_sketch: str
    full_proof: str | None = None


@dataclass(frozen=True)
class ExamplePool:
    """The worked examples, with the tables requests read: each category's
    examples, and each example's block per mode once a request shows it."""

    quads: tuple[ExampleQuad, ...]
    _blocks: dict[PromptMode, dict[str, str]] = field(
        init=False, repr=False, compare=False, default_factory=lambda: {m: {} for m in PromptMode}
    )
    _lock: threading.Lock = field(init=False, repr=False, compare=False, default_factory=threading.Lock)

    def __post_init__(self) -> None:
        ids = [q.id for q in self.quads]
        if len(ids) != len(set(ids)):
            raise PoolFormatError("duplicate example ids in pool")
        object.__setattr__(self, "_ids", frozenset(ids))
        object.__setattr__(self, "_by_category", {
            c: tuple(q for q in self.quads if c is Category.UNKNOWN or q.category is c)
            for c in Category
        })

    def of_category(self, category: Category) -> tuple[ExampleQuad, ...]:
        return self._by_category[category]

    def blocks(self, quads: Sequence[ExampleQuad], mode: PromptMode) -> list[str]:
        """The block each of this pool's `quads` shows in `mode`
        (`example_block`), rendered once per pool. An example that
        `shown_sketch` refuses raises on every request that shows it."""
        table = self._blocks[mode]
        for quad in quads:
            if quad.id not in table:
                with self._lock:
                    if quad.id not in table:
                        table[quad.id] = example_block(quad, mode)
        return [table[quad.id] for quad in quads]


@dataclass(frozen=True)
class PromptConfig:
    k_examples: int = 3
    mode: PromptMode = PromptMode.FULL
    rng_seed: int = 0
    max_prompt_chars: int | None = None

    def __post_init__(self) -> None:
        if self.k_examples < 1:
            raise ValueError("k_examples must be >= 1")


POOL_FIELDS = (
    "id",
    "category",
    "informal_statement",
    "informal_proof",
    "formal_statement",
    "formal_sketch",
)


def load_pool(path: str | Path) -> ExamplePool:
    """Load the example pool from its JSON document and check the quad
    invariants (sketch parses, has gaps and in-line comments; any full
    proof parses gap-free). Every error names the file."""
    def fail(message: str) -> PoolFormatError:
        return PoolFormatError(f"{path}: {message}")

    raw = decode_json(read_text(path, "pool file", ConfigError), lambda why: fail(f"pool file is {why}"))
    if not isinstance(raw, list):
        raise fail("pool document must be a list of examples")
    quads = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise fail(f"pool entry {i} is not an object")
        missing = [f for f in POOL_FIELDS if f not in entry]
        if missing:
            raise fail(f"pool entry {i} missing fields: {missing}")
        mistyped = [f for f in POOL_FIELDS if not isinstance(entry[f], str)]
        if not isinstance(entry.get("full_proof", ""), (str, type(None))):
            mistyped.append("full_proof")
        if mistyped:
            raise fail(f"pool entry {i} fields are not strings: {mistyped}")
        try:
            category = Category(entry["category"])
        except ValueError:
            raise fail(f"pool entry {i} has unknown category {entry['category']!r}") from None
        quad = ExampleQuad(
            id=entry["id"],
            category=category,
            informal_statement=entry["informal_statement"],
            informal_proof=entry["informal_proof"],
            formal_statement=entry["formal_statement"],
            formal_sketch=entry["formal_sketch"],
            full_proof=entry.get("full_proof"),
        )
        _validate_quad(quad, fail)
        quads.append(quad)
    return ExamplePool(tuple(quads))


def _validate_quad(quad: ExampleQuad, fail: Callable[[str], PoolFormatError]) -> None:
    try:
        ast = parse_sketch(quad.formal_sketch)
    except ParseError as exc:
        raise fail(f"example {quad.id!r}: sketch does not parse: {exc}") from None
    if count_gaps(ast) < 1:
        raise fail(f"example {quad.id!r}: sketch has no open gap")
    if count_comments(ast) < 1:
        raise fail(f"example {quad.id!r}: sketch has no in-line comment")
    if quad.full_proof is not None:
        try:
            full = parse_sketch(quad.full_proof)
        except ParseError as exc:
            raise fail(f"example {quad.id!r}: full proof does not parse: {exc}") from None
        if count_gaps(full) != 0:
            raise fail(f"example {quad.id!r}: full proof still has gaps")


def infer_category(problem_name: str) -> Category:
    """Categorize by name substring; ambiguous or uninformative names give
    UNKNOWN."""
    has_algebra = "algebra" in problem_name
    has_numtheory = "numbertheory" in problem_name
    if has_algebra and not has_numtheory:
        return Category.ALGEBRA
    if has_numtheory and not has_algebra:
        return Category.NUMBER_THEORY
    return Category.UNKNOWN


def select_examples(
    pool: ExamplePool,
    problem_id: str,
    category: Category,
    config: PromptConfig,
    rng: random.Random,
) -> list[ExampleQuad]:
    """Sample k distinct examples uniformly without replacement from the
    category-restricted pool, never including the problem being solved."""
    eligible = pool.of_category(category)
    if problem_id in pool._ids:
        eligible = [q for q in eligible if q.id != problem_id]
    if len(eligible) < config.k_examples:
        raise PoolTooSmall(config.k_examples, len(eligible))
    return rng.sample(eligible, config.k_examples)


def shown_sketch(quad: ExampleQuad, mode: PromptMode) -> str:
    """The formal text one example shows in an ablation mode: its sketch,
    its sketch without comments, or its gap-free full proof."""
    if mode is PromptMode.FULL:
        return quad.formal_sketch
    if mode is PromptMode.FULL_PROOF:
        if quad.full_proof is None:
            raise MissingFullProof(quad.id)
        return quad.full_proof
    return serialize(strip_comments(parse_sketch(quad.formal_sketch)))


class HasProblemFields(Protocol):
    informal_statement: str
    formal_statement: str


def _layout(problem: HasProblemFields, informal_proof: str, mode: PromptMode) -> str:
    """The sections of an example or of the target, up to the heading the
    formal text follows; the informal proof is left out in the mode that
    shows none."""
    parts = [f"Informal Statement:\n{problem.informal_statement.rstrip()}"]
    if mode is not PromptMode.NO_INFORMAL_PROOF:
        parts.append(f"Informal Proof:\n{informal_proof.rstrip()}")
    parts.append(f"Formal Statement:\n{problem.formal_statement.rstrip()}")
    parts.append("Formal Proof:" if mode is PromptMode.FULL_PROOF else "Formal Proof Sketch:")
    return "\n\n".join(parts)


def example_block(quad: ExampleQuad, mode: PromptMode) -> str:
    """One example as a sketch prompt shows it in `mode`."""
    return f"{_layout(quad, quad.informal_proof, mode)}\n{shown_sketch(quad, mode).rstrip()}"


def build_sketch_prompt(
    blocks: Sequence[str],
    problem: HasProblemFields,
    draft: str,
    config: PromptConfig,
) -> str:
    """Assemble the sketching prompt: the example blocks rendered for the
    mode (`example_block`), then the target problem up to the point where
    the model must continue with the sketch. Whole examples are dropped
    from the front if a character budget is set and exceeded."""
    if not blocks:
        raise ValueError("at least one example is required")
    target = _layout(problem, draft, config.mode)
    for start in range(len(blocks) + 1):
        prompt = "\n\n".join([*blocks[start:], target]) + "\n"
        if config.max_prompt_chars is None or len(prompt) <= config.max_prompt_chars:
            break
    return prompt


DRAFT_CUE = "Proof:"


def build_draft_prompt(problem: HasProblemFields) -> str:
    """Prompt for sampling informal proof drafts: the target statement and
    the cue, with no examples."""
    return f"{problem.informal_statement.rstrip()}\n\n{DRAFT_CUE}"

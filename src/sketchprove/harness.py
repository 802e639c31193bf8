"""Datasets, attempt records, and evaluation artifacts.

Datasets are line-delimited JSON with a schema-version header line. Attempt
records stream out one JSON object per line (schema-versioned, append-safe)
and every aggregate here (rates, curves, budget grids) is recomputable from
that stream alone. Real timestamps never enter the stream; they live in a
sidecar manifest so replayed runs produce byte-identical records.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .prompting import Category

logger = logging.getLogger(__name__)

DATASET_SCHEMA = "problems/1"
RECORDS_SCHEMA = "attempts/1"
MANIFEST_SCHEMA = "manifest/1"

REFERENCE_SPLIT_SIZES = (244, 244)  # the full benchmark; desk corpora are smaller


class Split(str, Enum):
    VALID = "valid"
    TEST = "test"


class FailureStage(str, Enum):
    DRAFT = "draft"
    PROMPT_BUILD = "prompt_build"
    PARSE = "parse"
    PROVE = "prove"
    VERIFY = "verify"
    INFRA = "infra"
    NOT_RUN = "not_run"


@dataclass
class SchemaError(Exception):
    line: int
    field_name: str
    message: str = ""

    def __str__(self) -> str:
        detail = f": {self.message}" if self.message else ""
        return f"line {self.line}, field {self.field_name!r}{detail}"


@dataclass
class DuplicateId(Exception):
    problem_id: str

    def __str__(self) -> str:
        return f"duplicate problem id {self.problem_id!r}"


@dataclass
class MissingResults(Exception):
    problem_ids: tuple[str, ...]

    def __str__(self) -> str:
        return f"no results for problems: {', '.join(self.problem_ids)}"


@dataclass
class CoverageError(Exception):
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class Problem:
    id: str
    split: Split
    category: Category
    informal_statement: str
    informal_proof: str | None
    formal_statement: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("problem id must be nonempty")
        if not self.formal_statement:
            raise ValueError(f"problem {self.id!r}: formal_statement must be nonempty")


@dataclass(frozen=True)
class AttemptRecord:
    problem_id: str
    draft_index: int
    sketch_index: int
    parse_ok: bool
    gaps_total: int
    gaps_closed: int
    success: bool
    failure_stage: FailureStage | None
    wall_ms: int
    prompt_seed: int

    def __post_init__(self) -> None:
        if self.gaps_closed > self.gaps_total:
            raise ValueError("gaps_closed cannot exceed gaps_total")
        if self.success and not (
            self.parse_ok and self.gaps_closed == self.gaps_total and self.failure_stage is None
        ):
            raise ValueError("successful attempts must parse, close all gaps, and carry no stage")
        if not self.success and self.failure_stage is None:
            raise ValueError("failed attempts must carry a failure stage")


@dataclass(frozen=True)
class ProblemResult:
    problem_id: str
    attempts: tuple[AttemptRecord, ...]
    solved: bool
    first_success_index: int | None
    draft_shortfall: int = 0
    infra_error: str | None = None

    def __post_init__(self) -> None:
        successes = [i for i, a in enumerate(self.attempts) if a.success]
        if self.solved != bool(successes):
            raise ValueError("solved flag disagrees with attempt records")
        expected_first = successes[0] if successes else None
        if self.first_success_index != expected_first:
            raise ValueError("first_success_index disagrees with attempt records")

    @classmethod
    def from_attempts(
        cls,
        problem_id: str,
        attempts: Sequence[AttemptRecord],
        infra_error: str | None = None,
    ) -> "ProblemResult":
        attempts = tuple(attempts)
        successes = [i for i, a in enumerate(attempts) if a.success]
        shortfall = sum(1 for a in attempts if a.failure_stage is FailureStage.DRAFT)
        return cls(
            problem_id=problem_id,
            attempts=attempts,
            solved=bool(successes),
            first_success_index=successes[0] if successes else None,
            draft_shortfall=shortfall,
            infra_error=infra_error,
        )


# -- dataset ----------------------------------------------------------------

_DATASET_FIELDS = ("id", "split", "category", "informal_statement", "formal_statement")


def load_dataset(path: str | Path) -> list[Problem]:
    """Load and validate a problem dataset. Rejects duplicate ids and
    malformed records; merely reports split sizes (the reference benchmark
    has 244 per split, desk corpora are smaller)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise SchemaError(1, "schema_version", "empty dataset file")
    header = _parse_json_line(lines[0], 1)
    if header.get("schema_version") != DATASET_SCHEMA:
        raise SchemaError(1, "schema_version", f"expected {DATASET_SCHEMA!r}")

    problems: list[Problem] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = _parse_json_line(line, lineno)
        for fname in _DATASET_FIELDS:
            if not record.get(fname):
                raise SchemaError(lineno, fname, "missing or empty")
        try:
            split = Split(record["split"])
        except ValueError:
            raise SchemaError(lineno, "split", f"unknown split {record['split']!r}") from None
        try:
            category = Category(record["category"])
        except ValueError:
            raise SchemaError(
                lineno, "category", f"unknown category {record['category']!r}"
            ) from None
        if record["id"] in seen:
            raise DuplicateId(record["id"])
        seen.add(record["id"])
        problems.append(
            Problem(
                id=record["id"],
                split=split,
                category=category,
                informal_statement=record["informal_statement"],
                informal_proof=record.get("informal_proof"),
                formal_statement=record["formal_statement"],
            )
        )
    counts = (
        sum(1 for p in problems if p.split is Split.VALID),
        sum(1 for p in problems if p.split is Split.TEST),
    )
    logger.info("loaded %d problems (valid=%d, test=%d)", len(problems), *counts)
    if counts != REFERENCE_SPLIT_SIZES:
        logger.warning(
            "split sizes %s differ from the %s reference benchmark", counts, REFERENCE_SPLIT_SIZES
        )
    return problems


def save_dataset(problems: Iterable[Problem], path: str | Path) -> None:
    out = [json.dumps({"schema_version": DATASET_SCHEMA}, sort_keys=True)]
    for p in problems:
        out.append(
            json.dumps(
                {
                    "id": p.id,
                    "split": p.split.value,
                    "category": p.category.value,
                    "informal_statement": p.informal_statement,
                    "informal_proof": p.informal_proof,
                    "formal_statement": p.formal_statement,
                },
                sort_keys=True,
                ensure_ascii=True,
            )
        )
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def _parse_json_line(line: str, lineno: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(lineno, "<line>", f"not valid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise SchemaError(lineno, "<line>", "record must be a JSON object")
    return record


# -- metrics ------------------------------------------------------------------


def success_rate(
    results: Sequence[ProblemResult], problems: Sequence[Problem], split: Split
) -> Fraction:
    """Solved fraction over one split, as an exact rational."""
    ids = [p.id for p in problems if p.split is split]
    by_id = {r.problem_id: r for r in results}
    missing = tuple(i for i in ids if i not in by_id)
    if missing:
        raise MissingResults(missing)
    if not ids:
        return Fraction(0)
    solved = sum(1 for i in ids if by_id[i].solved)
    return Fraction(solved, len(ids))


def split_tally(
    results: Sequence[ProblemResult], problems: Sequence[Problem]
) -> list[tuple[Split, int, int, Fraction]]:
    """(split, solved, total, exact rate) for each split, in Split order.
    Raises MissingResults naming every problem that has no result."""
    covered = {r.problem_id for r in results}
    missing = tuple(p.id for p in problems if p.id not in covered)
    if missing:
        raise MissingResults(missing)
    tally = []
    for split in Split:
        rate = success_rate(results, problems, split)
        total = sum(1 for p in problems if p.split is split)
        tally.append((split, int(rate * total), total, rate))
    return tally


def format_rate(rate: Fraction) -> str:
    """One-decimal percentage, e.g. Fraction(39, 100) -> '39.0%'."""
    return f"{float(rate) * 100:.1f}%"


@dataclass(frozen=True)
class Curve:
    points: tuple[int, ...]  # points[k-1]: problems solved within first k attempts

    def __post_init__(self) -> None:
        if any(b < a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("cumulative curve must be non-decreasing")


def cumulative_curve(
    results: Sequence[ProblemResult],
    max_attempts: int,
    problems: Sequence[Problem] | None = None,
    split: Split | None = None,
) -> Curve:
    """points[k-1] = problems whose first success lies within the first k
    attempts. Combined over splits by default; pass `problems` and `split`
    for a per-split curve."""
    if split is not None:
        if problems is None:
            raise ValueError("per-split curves need the problem list")
        wanted = {p.id for p in problems if p.split is split}
        results = [r for r in results if r.problem_id in wanted]
    firsts = [r.first_success_index for r in results if r.first_success_index is not None]
    points = tuple(sum(1 for f in firsts if f < k) for k in range(1, max_attempts + 1))
    return Curve(points)


def budget_grid(
    cached_attempts: Sequence[AttemptRecord],
    draft_counts: Sequence[int],
    sketch_counts: Sequence[int],
    budget_cap: int,
) -> list[list[int | None]]:
    """Solved counts per (drafts per problem, sketches per draft) cell,
    regrouped from one full-run attempt cache. Cells over the budget cap are
    None. Raises CoverageError when the cache does not cover a cell."""
    if any(a.failure_stage is FailureStage.NOT_RUN for a in cached_attempts):
        raise CoverageError("cache contains early-stopped (not run) attempts")
    per_problem: dict[str, dict[tuple[int, int], bool]] = {}
    for a in cached_attempts:
        per_problem.setdefault(a.problem_id, {})[(a.draft_index, a.sketch_index)] = a.success

    grid: list[list[int | None]] = []
    for d in draft_counts:
        row: list[int | None] = []
        for s in sketch_counts:
            if d * s > budget_cap:
                row.append(None)
                continue
            solved = 0
            for problem_id, cells in per_problem.items():
                hit = False
                for di in range(d):
                    for si in range(s):
                        if (di, si) not in cells:
                            raise CoverageError(
                                f"cache does not cover draft {di}, sketch {si} "
                                f"for problem {problem_id!r} (cell {d}x{s})"
                            )
                        hit = hit or cells[(di, si)]
                solved += hit
            row.append(solved)
        grid.append(row)
    return grid


# -- export / import ----------------------------------------------------------

_RECORD_FIELDS = (
    "problem_id",
    "draft_index",
    "sketch_index",
    "parse_ok",
    "gaps_total",
    "gaps_closed",
    "success",
    "failure_stage",
    "wall_ms",
    "prompt_seed",
)


def record_to_json(record: AttemptRecord) -> str:
    payload = {name: getattr(record, name) for name in _RECORD_FIELDS}
    payload["failure_stage"] = (
        record.failure_stage.value if record.failure_stage is not None else None
    )
    payload["schema_version"] = RECORDS_SCHEMA
    return json.dumps(payload, sort_keys=True, ensure_ascii=True)


def export_records(results: Sequence[ProblemResult], path: str | Path) -> None:
    """Records stream: one schema-versioned JSON record per line, in problem
    order then plan order. Byte-stable for identical results."""
    lines = [record_to_json(a) for r in results for a in r.attempts]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def import_attempts(path: str | Path) -> list[AttemptRecord]:
    records = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        raw = _parse_json_line(line, lineno)
        if raw.get("schema_version") != RECORDS_SCHEMA:
            raise SchemaError(lineno, "schema_version", f"expected {RECORDS_SCHEMA!r}")
        stage = raw.get("failure_stage")
        records.append(
            AttemptRecord(
                problem_id=raw["problem_id"],
                draft_index=int(raw["draft_index"]),
                sketch_index=int(raw["sketch_index"]),
                parse_ok=bool(raw["parse_ok"]),
                gaps_total=int(raw["gaps_total"]),
                gaps_closed=int(raw["gaps_closed"]),
                success=bool(raw["success"]),
                failure_stage=FailureStage(stage) if stage is not None else None,
                wall_ms=int(raw["wall_ms"]),
                prompt_seed=int(raw["prompt_seed"]),
            )
        )
    return records


def import_records(path: str | Path) -> list[ProblemResult]:
    """Rebuild per-problem results from a records stream; attempts are
    regrouped by problem in stream order."""
    grouped: dict[str, list[AttemptRecord]] = {}
    for record in import_attempts(path):
        grouped.setdefault(record.problem_id, []).append(record)
    return [
        ProblemResult.from_attempts(problem_id, attempts)
        for problem_id, attempts in grouped.items()
    ]


def export_table_csv(
    results: Sequence[ProblemResult], problems: Sequence[Problem], path: str | Path
) -> None:
    tally = split_tally(results, problems)  # before the file opens, so a gap leaves no table
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["split", "solved", "total", "fraction", "percent"])
        for split, solved, total, rate in tally:
            writer.writerow(
                [split.value, solved, total, f"{solved}/{total}", format_rate(rate)]
            )


def export_curve_csv(curve: Curve, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["attempts", "problems_solved"])
        for k, value in enumerate(curve.points, start=1):
            writer.writerow([k, value])


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(
    path: str | Path,
    config: dict,
    created_at: str,
    timings_ms: dict | None = None,
    infra_errors: dict[str, str] | None = None,
) -> None:
    """Sidecar for a run: effective config (and its hash), wall-clock
    timestamps, and per-problem infrastructure failures. Everything
    time-dependent lives here, not in the records stream."""
    payload = {
        "schema_version": MANIFEST_SCHEMA,
        "created_at": created_at,
        "config": config,
        "config_hash": config_hash(config),
        "timings_ms": timings_ms or {},
        "infra_errors": infra_errors or {},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

"""Datasets, attempt records, and evaluation artifacts.

Datasets are line-delimited JSON with a schema-version header line. Attempt
records stream out one JSON object per line (schema-versioned, append-safe)
and every aggregate here (rates, curves, budget grids) is recomputable from
that stream alone. Real timestamps never enter the stream; they live in a
sidecar manifest so replayed runs produce byte-identical records.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import logging
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, decode_json, read_text
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
class SchemaError(ConfigError):
    line: int
    field_name: str
    message: str
    path: str

    def __str__(self) -> str:
        return f"line {self.line}, field {self.field_name!r}: {self.message} (in {self.path})"


@dataclass
class DuplicateId(ConfigError):
    problem_id: str
    path: str

    def __str__(self) -> str:
        return f"duplicate problem id {self.problem_id!r} in {self.path}"


@dataclass
class MissingResults(ConfigError):
    problem_ids: tuple[str, ...]

    def __str__(self) -> str:
        return f"no results for problems: {', '.join(self.problem_ids)}"


@dataclass
class CoverageError(ConfigError):
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
    """One problem's attempt records in plan order and, if it aborted, why;
    everything else derives from them."""

    problem_id: str
    attempts: tuple[AttemptRecord, ...]
    infra_error: str | None = None

    @property
    def solved(self) -> bool:
        return self.first_success_index is not None

    @property
    def first_success_index(self) -> int | None:
        return next((i for i, a in enumerate(self.attempts) if a.success), None)


# -- dataset ----------------------------------------------------------------

_DATASET_FIELDS = ("id", "split", "category", "informal_statement", "formal_statement")


def load_dataset(path: str | Path) -> list[Problem]:
    """Load and validate a problem dataset. Rejects duplicate ids and
    malformed records; merely reports split sizes (the reference benchmark
    has 244 per split, desk corpora are smaller)."""
    path = str(path)
    lines = read_text(path, "dataset file", ConfigError).split("\n")  # not at a U+2028 in a string
    if lines == [""]:
        raise SchemaError(1, "schema_version", "empty dataset file", path)
    header = _parse_json_line(lines[0], 1, path)
    if header.get("schema_version") != DATASET_SCHEMA:
        raise SchemaError(1, "schema_version", f"expected {DATASET_SCHEMA!r}", path)

    problems: list[Problem] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = _parse_json_line(line, lineno, path)
        for fname in _DATASET_FIELDS:
            if not record.get(fname) or not isinstance(record[fname], str):
                raise SchemaError(lineno, fname, "expected a nonempty string", path)
        if not isinstance(record.get("informal_proof", ""), (str, type(None))):
            raise SchemaError(lineno, "informal_proof", "expected a string or null", path)
        try:
            split = Split(record["split"])
        except ValueError:
            raise SchemaError(lineno, "split", f"unknown split {record['split']!r}", path) from None
        try:
            category = Category(record["category"])
        except ValueError:
            raise SchemaError(lineno, "category", f"unknown category {record['category']!r}", path) from None
        if record["id"] in seen:
            raise DuplicateId(record["id"], path)
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
        _warn_split_sizes(counts)
    return problems


@functools.cache
def _warn_split_sizes(counts: tuple[int, int]) -> None:
    """Warns once per process for each pair of split sizes: a desk corpus
    is loaded by every run and replay, and one warning says it all."""
    logger.warning(
        "split sizes %s differ from the %s reference benchmark", counts, REFERENCE_SPLIT_SIZES
    )


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


def _parse_json_line(line: str, lineno: int, path: str) -> dict:
    record = decode_json(line, lambda why: SchemaError(lineno, "<line>", why, path))
    if not isinstance(record, dict):
        raise SchemaError(lineno, "<line>", "record must be a JSON object", path)
    return record


# -- metrics ------------------------------------------------------------------


def split_tally(
    results: Sequence[ProblemResult], problems: Sequence[Problem]
) -> list[tuple[Split, int, int]]:
    """(split, solved, total) for each split, in Split order, counted in one
    pass over the problems. Raises MissingResults naming every problem that
    has no result, in dataset order."""
    solved_by_id = {r.problem_id: r.solved for r in results}
    counts = {split: [0, 0] for split in Split}
    missing = []
    for p in problems:
        if p.id not in solved_by_id:
            missing.append(p.id)
            continue
        counts[p.split][0] += solved_by_id[p.id]
        counts[p.split][1] += 1
    if missing:
        raise MissingResults(tuple(missing))
    return [(split, solved, total) for split, (solved, total) in counts.items()]


def format_rate(solved: int, total: int) -> str:
    """One-decimal percentage, e.g. (39, 100) -> '39.0%'; no problems is 0.0%."""
    return f"{solved / total * 100 if total else 0.0:.1f}%"


def cumulative_curve(results: Sequence[ProblemResult], max_attempts: int) -> tuple[int, ...]:
    """[k-1] = problems whose first success lies within the first k attempts,
    over every split."""
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    firsts = [r.first_success_index for r in results if r.first_success_index is not None]
    return tuple(sum(1 for f in firsts if f < k) for k in range(1, max_attempts + 1))


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

# every record field but `failure_stage`, a stage value or null
_RECORD_TYPES = {
    "problem_id": str, "draft_index": int, "sketch_index": int, "parse_ok": bool,
    "gaps_total": int, "gaps_closed": int, "success": bool, "wall_ms": int, "prompt_seed": int,
}


# a record's line: the fields in sorted order, as `json.dumps(...,
# sort_keys=True, ensure_ascii=True)` writes them
_RECORD_LINE = (
    '{"draft_index": %d, "failure_stage": %s, "gaps_closed": %d, "gaps_total": %d, '
    '"parse_ok": %s, "problem_id": %s, "prompt_seed": %d, '
    f'"schema_version": "{RECORDS_SCHEMA}", '
    '"sketch_index": %d, "success": %s, "wall_ms": %d}'
)


def record_to_json(record: AttemptRecord) -> str:
    stage = record.failure_stage
    return _RECORD_LINE % (
        record.draft_index, "null" if stage is None else f'"{stage.value}"',
        record.gaps_closed, record.gaps_total, "true" if record.parse_ok else "false",
        encode_basestring_ascii(record.problem_id), record.prompt_seed, record.sketch_index,
        "true" if record.success else "false", record.wall_ms,
    )


def export_records(results: Sequence[ProblemResult], path: str | Path) -> None:
    """Records stream: one schema-versioned JSON record per line, in problem
    order then plan order. Byte-stable for identical results."""
    lines = [record_to_json(a) for r in results for a in r.attempts]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def import_attempts(path: str | Path) -> list[AttemptRecord]:
    """The attempt records of a records stream, in stream order. A line
    with a missing or mistyped field raises SchemaError, an unreadable file
    ConfigError."""
    path, records = str(path), []
    for lineno, line in enumerate(read_text(path, "records file", ConfigError).split("\n"), 1):
        if not line.strip():
            continue
        raw = _parse_json_line(line, lineno, path)
        if raw.get("schema_version") != RECORDS_SCHEMA:
            raise SchemaError(lineno, "schema_version", f"expected {RECORDS_SCHEMA!r}", path)
        for name, kind in _RECORD_TYPES.items():
            if type(raw.get(name)) is not kind:  # a bool is no int here
                raise SchemaError(lineno, name, f"expected {kind.__name__}", path)
        stage = raw.get("failure_stage", "")
        if stage is not None and stage not in [s.value for s in FailureStage]:
            raise SchemaError(lineno, "failure_stage", "expected a stage or null", path)
        records.append(AttemptRecord(
            **{name: raw[name] for name in _RECORD_TYPES},
            failure_stage=None if stage is None else FailureStage(stage),
        ))
    return records


def import_records(path: str | Path) -> list[ProblemResult]:
    """Rebuild per-problem results from a records stream; attempts are
    regrouped by problem in stream order."""
    grouped: dict[str, list[AttemptRecord]] = {}
    for record in import_attempts(path):
        grouped.setdefault(record.problem_id, []).append(record)
    return [ProblemResult(problem_id, tuple(attempts)) for problem_id, attempts in grouped.items()]


def export_table_csv(tally: Sequence[tuple[Split, int, int]], path: str | Path) -> None:
    """The `split_tally` rows as a CSV table."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["split", "solved", "total", "fraction", "percent"])
        for split, solved, total in tally:
            writer.writerow(
                [split.value, solved, total, f"{solved}/{total}", format_rate(solved, total)]
            )


def export_curve_csv(points: Sequence[int], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["attempts", "problems_solved"])
        for k, value in enumerate(points, start=1):
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

import json
import logging
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from sketchprove import harness
from sketchprove.harness import (
    AttemptRecord,
    CoverageError,
    DuplicateId,
    FailureStage,
    MissingResults,
    Problem,
    ProblemResult,
    SchemaError,
    Split,
    budget_grid,
    config_hash,
    cumulative_curve,
    export_curve_csv,
    export_records,
    export_table_csv,
    format_rate,
    import_attempts,
    import_records,
    load_dataset,
    record_to_json,
    save_dataset,
    split_tally,
    write_manifest,
)
from sketchprove.prompting import Category


def _attempt(pid, draft, sketch, success, stage=None, seed=0):
    return AttemptRecord(
        problem_id=pid,
        draft_index=draft,
        sketch_index=sketch,
        parse_ok=success,
        gaps_total=1 if success else 0,
        gaps_closed=1 if success else 0,
        success=success,
        failure_stage=None if success else (stage or FailureStage.PROVE),
        wall_ms=0,
        prompt_seed=seed,
    )


def _result(pid, outcomes):
    attempts = [
        _attempt(pid, i // 2, i % 2, ok) for i, ok in enumerate(outcomes)
    ]
    return ProblemResult(pid, tuple(attempts))


# -- dataset ------------------------------------------------------------------


def test_mini_corpus_loads(problems):
    assert len(problems) == 20
    assert sum(1 for p in problems if p.split is Split.VALID) == 10
    assert sum(1 for p in problems if p.split is Split.TEST) == 10
    categories = {p.category for p in problems}
    assert categories == {Category.ALGEBRA, Category.NUMBER_THEORY, Category.UNKNOWN}


def test_dataset_missing_field_rejected(tmp_path):
    lines = [
        json.dumps({"schema_version": "problems/1"}),
        json.dumps({"id": "p1", "split": "valid", "category": "algebra",
                    "informal_statement": "s", "informal_proof": "p"}),
    ]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines))
    with pytest.raises(SchemaError) as exc:
        load_dataset(path)
    assert exc.value.field_name == "formal_statement"
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "field, value",
    [("id", 5), ("informal_statement", ["s"]), ("formal_statement", True), ("informal_proof", 5)],
)
def test_dataset_field_of_another_type_rejected(tmp_path, field, value):
    record = {"id": "p1", "split": "valid", "category": "algebra",
              "informal_statement": "s", "informal_proof": "p", "formal_statement": "t"}
    path = tmp_path / "typed.jsonl"
    path.write_text("\n".join([json.dumps({"schema_version": "problems/1"}),
                               json.dumps(record | {field: value})]))
    with pytest.raises(SchemaError) as exc:
        load_dataset(path)
    assert (exc.value.line, exc.value.field_name) == (2, field)


def test_dataset_duplicate_id_rejected(tmp_path):
    record = {"id": "p1", "split": "valid", "category": "algebra",
              "informal_statement": "s", "informal_proof": "p", "formal_statement": "t"}
    path = tmp_path / "dup.jsonl"
    path.write_text("\n".join([json.dumps({"schema_version": "problems/1"}),
                               json.dumps(record), json.dumps(record)]))
    with pytest.raises(DuplicateId):
        load_dataset(path)


def test_dataset_round_trip(tmp_path, problems):
    path = tmp_path / "copy.jsonl"
    save_dataset(problems, path)
    assert load_dataset(path) == problems


def test_dataset_lines_end_only_at_a_line_feed(tmp_path, problems):
    # JSON allows U+2028, U+2029 and U+0085 unescaped inside a string
    statement = "x\u2028y\u2029z\x85w"
    record = {"id": "p1", "split": "valid", "category": "algebra",
              "informal_statement": statement, "formal_statement": "t"}
    path = tmp_path / "unescaped.jsonl"
    path.write_text(json.dumps({"schema_version": "problems/1"}) + "\n"
                    + json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    assert [p.informal_statement for p in load_dataset(path)] == [statement]


def test_dataset_header_required(tmp_path):
    path = tmp_path / "nohdr.jsonl"
    path.write_text(json.dumps({"id": "p1"}))
    with pytest.raises(SchemaError):
        load_dataset(path)


# -- rates --------------------------------------------------------------------


def _mini_problems(n_valid, n_test):
    problems = []
    for i in range(n_valid):
        problems.append(Problem(f"v{i}", Split.VALID, Category.UNKNOWN, "s", None, "t"))
    for i in range(n_test):
        problems.append(Problem(f"t{i}", Split.TEST, Category.UNKNOWN, "s", None, "t"))
    return problems


def test_split_tally_zero_and_all():
    problems = _mini_problems(10, 0)
    losing = [_result(p.id, [False]) for p in problems]
    assert split_tally(losing, problems) == [(Split.VALID, 0, 10), (Split.TEST, 0, 0)]
    winning = [_result(p.id, [True]) for p in problems]
    assert split_tally(winning, problems) == [(Split.VALID, 10, 10), (Split.TEST, 0, 0)]


def test_split_tally_exact_count():
    problems = _mini_problems(3, 0)
    results = [_result("v0", [True]), _result("v1", [False]), _result("v2", [False])]
    assert split_tally(results, problems) == [(Split.VALID, 1, 3), (Split.TEST, 0, 0)]
    assert format_rate(1, 3) == "33.3%"


def test_split_tally_missing_results():
    problems = _mini_problems(2, 0)
    with pytest.raises(MissingResults) as exc:
        split_tally([_result("v0", [True])], problems)
    assert exc.value.problem_ids == ("v1",)


def test_golden_rates_match_hand_count(problems):
    results = import_records(FIXTURES / "golden" / "records.jsonl")
    assert split_tally(results, problems) == [(Split.VALID, 8, 10), (Split.TEST, 7, 10)]


def test_format_rate_is_the_exact_rate_rounded_to_one_decimal():
    # every count of the paper's 244-problem split; `solved * 100 / total`
    # would differ, e.g. at 23 of 80
    for total in range(245):
        for solved in range(total + 1):
            exact = f"{float(Fraction(solved, total)) * 100:.1f}%" if total else "0.0%"
            assert format_rate(solved, total) == exact, (solved, total)


_OUTCOMES = [None, FailureStage.PROVE, FailureStage.DRAFT, FailureStage.NOT_RUN, FailureStage.INFRA]


@settings(max_examples=200, deadline=None)
@given(
    drawn=st.lists(
        st.tuples(
            st.sampled_from(Split),
            st.booleans(),  # covered by a result
            st.lists(st.sampled_from(_OUTCOMES), max_size=6),  # None is a success
        ),
        max_size=12,
    ),
    max_attempts=st.integers(1, 8),
    order=st.randoms(use_true_random=False),
)
def test_tally_and_curve_match_a_brute_force_count(drawn, max_attempts, order):
    problems, results = [], []
    for i, (split, covered, outcomes) in enumerate(drawn):
        pid = f"p{i}"
        problems.append(Problem(pid, split, Category.UNKNOWN, "s", None, "t"))
        if covered:
            attempts = [
                _attempt(pid, k // 2, k % 2, stage is None, stage) for k, stage in enumerate(outcomes)
            ]
            results.append(ProblemResult(pid, tuple(attempts)))
    order.shuffle(results)
    solved = {r.problem_id: any(a.success for a in r.attempts) for r in results}

    missing = tuple(p.id for p in problems if p.id not in solved)
    if missing:
        with pytest.raises(MissingResults) as exc:
            split_tally(results, problems)
        assert exc.value.problem_ids == missing
    else:
        assert split_tally(results, problems) == [
            (
                split,
                sum(solved[p.id] for p in problems if p.split is split),
                sum(p.split is split for p in problems),
            )
            for split in Split
        ]
    assert cumulative_curve(results, max_attempts) == tuple(
        sum(any(a.success for a in r.attempts[:k]) for r in results)
        for k in range(1, max_attempts + 1)
    )


# -- curves --------------------------------------------------------------------


def test_curve_immediate_success():
    results = [_result("p", [True, False, False, False, False])]
    assert cumulative_curve(results, 5) == (1, 1, 1, 1, 1)


def test_curve_no_successes():
    results = [_result("p", [False] * 5)]
    assert cumulative_curve(results, 5) == (0, 0, 0, 0, 0)


def test_curve_bounded_and_monotone(problems):
    results = import_records(FIXTURES / "golden" / "records.jsonl")
    curve = cumulative_curve(results, 10)
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert curve[-1] <= len(problems)


def test_curve_matches_brute_force_recount():
    results = import_records(FIXTURES / "golden" / "records.jsonl")
    curve = cumulative_curve(results, 10)
    raw = import_attempts(FIXTURES / "golden" / "records.jsonl")
    by_problem: dict[str, list] = {}
    for record in raw:
        by_problem.setdefault(record.problem_id, []).append(record)
    for k in range(1, 11):
        solved = 0
        for records in by_problem.values():
            ordered = sorted(records, key=lambda r: (r.draft_index, r.sketch_index))
            solved += any(r.success for r in ordered[:k])
        assert curve[k - 1] == solved


def test_curves_of_each_splits_results_sum_to_the_combined_curve(problems):
    results = import_records(FIXTURES / "golden" / "records.jsonl")
    split_of = {p.id: p.split for p in problems}
    valid, test = (
        cumulative_curve([r for r in results if split_of[r.problem_id] is split], 10)
        for split in Split
    )
    combined = cumulative_curve(results, 10)
    assert [v + t for v, t in zip(valid, test)] == list(combined)
    assert (valid[-1], test[-1]) == (8, 7)  # the whole plan: each split's solved count


def test_curve_needs_an_attempt():
    with pytest.raises(ValueError, match="max_attempts must be at least 1, got 0"):
        cumulative_curve([], 0)


# -- budget grid ------------------------------------------------------------------


def test_grid_corner_equals_total_solved():
    attempts = import_attempts(FIXTURES / "golden" / "records.jsonl")
    results = import_records(FIXTURES / "golden" / "records.jsonl")
    grid = budget_grid(attempts, [1, 2, 3, 4, 5], [1, 2], budget_cap=100)
    total_solved = sum(1 for r in results if r.solved)
    assert grid[-1][-1] == total_solved


def test_grid_first_cell_counts_first_attempt_successes():
    attempts = import_attempts(FIXTURES / "golden" / "records.jsonl")
    grid = budget_grid(attempts, [1], [1], budget_cap=100)
    firsts = sum(
        1 for a in attempts if a.draft_index == 0 and a.sketch_index == 0 and a.success
    )
    assert grid[0][0] == firsts


def test_grid_monotone_both_axes():
    attempts = import_attempts(FIXTURES / "golden" / "records.jsonl")
    drafts, sketches = [1, 2, 3, 4, 5], [1, 2]
    grid = budget_grid(attempts, drafts, sketches, budget_cap=100)
    for i in range(len(drafts)):
        for j in range(len(sketches)):
            if i + 1 < len(drafts):
                assert grid[i + 1][j] >= grid[i][j]
            if j + 1 < len(sketches):
                assert grid[i][j + 1] >= grid[i][j]


def test_grid_budget_cap_masks_cells():
    attempts = import_attempts(FIXTURES / "golden" / "records.jsonl")
    grid = budget_grid(attempts, [1, 5], [1, 2], budget_cap=5)
    assert grid[1][1] is None  # 5 x 2 = 10 > 5
    assert grid[1][0] is not None


def test_grid_coverage_error_on_truncated_cache():
    attempts = [a for a in import_attempts(FIXTURES / "golden" / "records.jsonl")
                if not (a.problem_id == "algebra_g01" and a.draft_index == 4)]
    with pytest.raises(CoverageError, match="algebra_g01"):
        budget_grid(attempts, [1, 2, 3, 4, 5], [1, 2], budget_cap=100)


def test_grid_rejects_early_stopped_records():
    attempts = [
        _attempt("p", 0, 0, True),
        AttemptRecord("p", 0, 1, False, 0, 0, False, FailureStage.NOT_RUN, 0, 0),
    ]
    with pytest.raises(CoverageError, match="early-stopped"):
        budget_grid(attempts, [1], [1, 2], budget_cap=10)


# -- record invariants ---------------------------------------------------------------


def test_attempt_record_invariants():
    with pytest.raises(ValueError):
        AttemptRecord("p", 0, 0, False, 1, 2, False, FailureStage.PROVE, 0, 0)  # closed > total
    with pytest.raises(ValueError):
        AttemptRecord("p", 0, 0, False, 1, 1, True, None, 0, 0)  # success without parse
    with pytest.raises(ValueError):
        AttemptRecord("p", 0, 0, True, 1, 1, True, FailureStage.PROVE, 0, 0)  # success with stage
    with pytest.raises(ValueError):
        AttemptRecord("p", 0, 0, True, 1, 0, False, None, 0, 0)  # failure without stage


def test_problem_result_invariants():
    # solved and first_success_index derive from the attempts, so a result
    # cannot disagree with its own records; the draft records are counted inline
    good = _attempt("p", 0, 0, True)
    bad = _attempt("p", 0, 1, False)
    short = _attempt("p", 1, 0, False, stage=FailureStage.DRAFT)
    cases = [
        ((), False, None, 0),
        ((bad, short), False, None, 1),
        ((good, bad), True, 0, 0),
        ((bad, short, good, good), True, 2, 1),
    ]
    for attempts, solved, first, shortfall in cases:
        result = ProblemResult("p", attempts)
        undrafted = sum(a.failure_stage is FailureStage.DRAFT for a in result.attempts)
        assert (result.solved, result.first_success_index, undrafted) == (solved, first, shortfall)


# -- export / import -------------------------------------------------------------------


def test_records_round_trip(tmp_path):
    results = [_result("p1", [False, True, False]), _result("p2", [False] * 3)]
    path = tmp_path / "records.jsonl"
    export_records(results, path)
    assert import_records(path) == results


def test_records_export_is_byte_stable(tmp_path):
    results = import_records(FIXTURES / "golden" / "records.jsonl")
    out = tmp_path / "again.jsonl"
    export_records(results, out)
    assert out.read_bytes() == (FIXTURES / "golden" / "records.jsonl").read_bytes()


def _dumped_record(record):
    """A record's line as one `json.dumps` of its fields writes it: the
    oracle for the line template."""
    payload = {
        "problem_id": record.problem_id, "draft_index": record.draft_index,
        "sketch_index": record.sketch_index, "parse_ok": record.parse_ok,
        "gaps_total": record.gaps_total, "gaps_closed": record.gaps_closed,
        "success": record.success,
        "failure_stage": None if record.failure_stage is None else record.failure_stage.value,
        "wall_ms": record.wall_ms, "prompt_seed": record.prompt_seed,
        "schema_version": "attempts/1",
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=True)


@st.composite
def _any_record(draw):
    stage = draw(st.sampled_from([None, *FailureStage]))
    gaps_total = draw(st.integers())
    return AttemptRecord(
        # all of Unicode, lone surrogates, quotes and control characters included
        problem_id=draw(st.text(st.one_of(
            st.characters(exclude_categories=()),
            st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
            st.sampled_from('"\\\x00\x1f\x7f\u2028'),
        ))),
        draft_index=draw(st.integers()),
        sketch_index=draw(st.integers()),
        parse_ok=stage is None or draw(st.booleans()),
        gaps_total=gaps_total,
        gaps_closed=gaps_total if stage is None else gaps_total - draw(st.integers(0)),
        success=stage is None,
        failure_stage=stage,
        wall_ms=draw(st.integers()),
        prompt_seed=draw(st.one_of(st.integers(0, 2**64 - 1), st.integers())),
    )


@settings(max_examples=400, deadline=None)
@given(record=_any_record())
def test_a_record_line_is_the_json_dump_of_its_fields(record):
    assert record_to_json(record) == _dumped_record(record)


def test_every_stage_has_its_record_line():
    for stage in [None, *FailureStage]:
        record = _attempt("p\u00e9", -1, 10**30, stage is None, stage)
        assert record_to_json(record) == _dumped_record(record)


def test_curve_csv_row_count(tmp_path):
    path = tmp_path / "curve.csv"
    export_curve_csv((1, 2, 2), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "attempts,problems_solved"
    assert len(lines) == 4


def test_table_csv(tmp_path, problems):
    results = import_records(FIXTURES / "golden" / "records.jsonl")
    path = tmp_path / "table.csv"
    export_table_csv(split_tally(results, problems), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "split,solved,total,fraction,percent"
    assert lines[1] == "valid,8,10,8/10,80.0%"
    assert lines[2] == "test,7,10,7/10,70.0%"


def test_manifest_excludes_timestamps_from_config_hash(tmp_path):
    config = {"seed": 7, "jobs": 2}
    write_manifest(tmp_path / "m1.json", config, created_at="2026-01-01T00:00:00Z")
    write_manifest(tmp_path / "m2.json", config, created_at="2026-02-02T00:00:00Z")
    m1 = json.loads((tmp_path / "m1.json").read_text())
    m2 = json.loads((tmp_path / "m2.json").read_text())
    assert m1["config_hash"] == m2["config_hash"] == config_hash(config)
    assert m1["created_at"] != m2["created_at"]


def test_split_size_warning_is_logged_once_per_process(caplog):
    harness._warn_split_sizes.cache_clear()  # an earlier test may have loaded the corpus
    with caplog.at_level(logging.WARNING, logger="sketchprove.harness"):
        for _ in range(2):
            assert len(load_dataset(FIXTURES / "datasets" / "mini.jsonl")) == 20
    warned = [r for r in caplog.records if "split sizes" in r.getMessage()]
    assert len(warned) == 1 and "(10, 10)" in warned[0].getMessage()

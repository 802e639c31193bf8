"""Tests of the benchmark itself, on the tiny mode of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def run(workload: str, *extra: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_prints_with_its_unit(workload, trace, kind):
    proc = run(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        line = rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$"
        assert re.search(line, proc.stdout, re.MULTILINE), name
    assert "ops_failed_frac = 0.000000" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_corrupted_record_fails_the_run(workload):
    proc = run(workload, "--corrupt")
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] == 1
    assert "ops_failed_frac = 0.000000" not in proc.stdout
    assert f"check failed: {workload} " in proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_second_seed_passes_every_check(workload):
    proc = run(workload, seed=2)
    assert proc.returncode == 0, proc.stderr
    assert result_of(proc)["correct"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("golden_replay", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert proc.stdout.strip() == ""


def test_inputs_depend_only_on_the_seed():
    import inputs

    a, b = inputs.large_sketch(5, 3, 200), inputs.large_sketch(5, 3, 200)
    assert a == b and a.gaps == 200
    assert inputs.large_sketch(6, 3, 200).text != a.text
    assert inputs.endpoint_delay_s(5, "p") == inputs.endpoint_delay_s(5, "p")


def test_large_sketches_exercise_scopes_comments_and_strings():
    import inputs
    from sketchprove.sketch import check_no_cheat, count_gaps, parse_sketch

    sketch = inputs.large_sketch(1, 0, 200)
    assert count_gaps(parse_sketch(sketch.text)) == 200
    assert check_no_cheat(sketch.text).clean
    for marker in ("proof (cases", "    proof -", "(* ", "''sorry''", "sorry *)"):
        assert marker in sketch.text


def test_spans_nest_and_share_the_operation_id():
    import spans

    rec = spans.SpanRecorder()
    rec.call("bench.sketch", lambda: rec.call("sketch.parse", lambda: rec.call("sketch.cheat", int)))
    by_name = {s[1]: s for s in rec.spans}
    root, parse, cheat = by_name["bench.sketch"], by_name["sketch.parse"], by_name["sketch.cheat"]
    assert root[4] is None and parse[4] == root[0] and cheat[4] == parse[0]
    assert root[5] == parse[5] == cheat[5] == root[0]
    metrics = spans.layer_metrics(rec, ops=1, experiments=1, wall_s=1.0, overhead_frac=0.0)
    assert metrics["sketch.parse.calls_per_attempt"] == (1.0, "count/op")
    assert 0 < metrics["sketch.share"][0] < 1


def test_host_scale_normalises_rates_and_verdicts():
    from array import array

    import run
    from workloads import OpResult

    op = OpResult(seconds=2.0, attempted=10, ran=10, gaps_closed=20,
                  verdict_s=array("d", [0.5]), host_scale=2.0)
    assert run._rates([op]) == (10.0, 20.0)
    assert run._rates([op], normalised=False) == (5.0, 10.0)
    assert run._verdicts_ms([op]) == [250.0]

"""`tools/bench.py` summarises `perfbench/run.py` result lines into the
figures of a `BENCH_<N>.json`; fed canned lines, it gives known medians and
quartiles, and keeps only the four sketch layers of a scaling report. Run
with a fake runner, it starts every child with no bytecode writing, and it
refuses a checkout that holds bytecode caches before it starts any."""

import importlib.util
import json
import subprocess

import pytest

from conftest import REPO


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_tool", REPO / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_line(attempts_per_s, verdict_ms, failed=0):
    """One `run.py --workload all` result line, as it prints it."""
    metrics = {
        "golden_replay.attempts_per_s": {"value": attempts_per_s, "unit": "1/s"},
        "large_sketch.verdict_ms.p50": {"value": verdict_ms, "unit": "ms"},
        "large_sketch.peak_rss_mb": {"value": 26.0, "unit": "MB"},
        "live_latency.attempts_per_s": {"value": 120.0, "unit": "1/s"},
    }
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics})


RUN_TEXT = """\
workload golden_replay  seed 1  trace 0  jobs 1
  before normalising: setup_s = 0.2, attempts_per_s = 4311.9; host_scale median 2.11
  attempts_per_s = 9145.71 1/s
workload large_sketch  seed 1  trace 0  jobs 1
  before normalising: setup_s = 0.5, verdict_ms.p50 = 1.98; host_scale median 0.75
workload live_latency  seed 1  trace 0  jobs 2
  before normalising: setup_s = 0.45
"""

SCALING = {
    "seed": 1, "cap_s": 20.0, "prove_sketch_skipped": [],
    "rows": [
        {"function": fn, "gaps": gaps, "seconds": gaps * 1e-6, "calls": 9, "peak_rss_added_mb": 0.1}
        for fn in ("parse_sketch", "check_no_cheat", "extract_gaps", "serialize", "prove_sketch")
        for gaps in (100, 1000)
    ],
    "growth_exp": {
        "sketch.parse_sketch.growth_exp": 1.05, "sketch.check_no_cheat.growth_exp": 1.0,
        "sketch.extract_gaps.growth_exp": 1.03, "sketch.serialize.growth_exp": 0.99,
        "prover.prove_sketch.growth_exp": 1.01,
    },
}


def test_summary_of_canned_run_lines():
    bench = _load_bench()
    runs = [json.loads(_run_line(a, v, f)) for a, v, f in
            [(100.0, 4.0, 0), (300.0, 5.0, 1), (200.0, 4.4, 0), (400.0, 4.2, 0), (500.0, 6.0, 2)]]
    scales = [bench.host_scales(RUN_TEXT)] * len(runs)
    summary = bench.summarise(runs, scales, SCALING)
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (500, 3, False)
    attempts = summary["workloads"]["golden_replay"]["attempts_per_s"]
    assert attempts == {"unit": "1/s", "median": 300.0, "q1": 200.0, "q3": 400.0,
                        "values": [100.0, 300.0, 200.0, 400.0, 500.0]}
    verdict = summary["workloads"]["large_sketch"]["verdict_ms.p50"]
    assert (verdict["unit"], verdict["median"], verdict["q1"], verdict["q3"]) == ("ms", 4.4, 4.2, 5.0)
    assert summary["workloads"]["large_sketch"]["peak_rss_mb"]["median"] == 26.0
    assert summary["workloads"]["golden_replay"]["host_scale"]["median"] == 2.11
    assert summary["workloads"]["large_sketch"]["host_scale"]["median"] == 0.75
    # live_latency is not normalised, so it prints no host scale
    assert summary["workloads"]["live_latency"] == {
        "attempts_per_s": {"unit": "1/s", "median": 120.0, "q1": 120.0, "q3": 120.0,
                           "values": [120.0] * 5}}
    scaling = summary["scaling"]
    assert scaling["growth_exp"] == {
        name: k for name, k in SCALING["growth_exp"].items() if not name.startswith("prover.")}
    assert {row["function"] for row in scaling["rows"]} == {
        "parse_sketch", "check_no_cheat", "extract_gaps", "serialize"}
    assert len(scaling["rows"]) == 8


@pytest.mark.parametrize("values, expected", [([7.0], (7.0, 7.0, 7.0)), ([1.0, 3.0], (1.5, 2.0, 2.5))])
def test_quartiles_of_one_or_two_runs(values, expected):
    got = _load_bench().quartiles(values)
    assert (got["q1"], got["median"], got["q3"]) == expected


def _checkout(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1}))
    return tmp_path


def test_every_child_runs_without_writing_bytecode(tmp_path, monkeypatch):
    bench = _load_bench()
    monkeypatch.setattr(bench, "ROOT", tmp_path)  # where BENCH_<N>.json is written
    envs = []

    def runner(command, cwd, env=None, **kwargs):
        envs.append(env)
        line = json.dumps(SCALING) if command[1].endswith("scaling.py") else _run_line(100.0, 4.0)
        return subprocess.CompletedProcess(command, 0, RUN_TEXT + line + "\n")

    assert bench.main(["--pr", "1", "--runs", "2", "--repo", str(_checkout(tmp_path))], runner) == 0
    assert len(envs) == 3 and all(env["PYTHONDONTWRITEBYTECODE"] == "1" for env in envs)
    assert json.loads((tmp_path / "BENCH_1.json").read_text())["runs"] == 2


def test_a_checkout_holding_bytecode_caches_is_refused_before_any_run(tmp_path):
    repo = _checkout(tmp_path)
    (repo / "src" / "pkg" / "__pycache__").mkdir()
    (repo / "perfbench" / "__pycache__").mkdir()
    started = []
    with pytest.raises(SystemExit) as exc:
        _load_bench().main(["--pr", "1", "--repo", str(repo)], lambda *a, **k: started.append(a))
    assert "perfbench/__pycache__ src/pkg/__pycache__" in str(exc.value)
    assert started == []

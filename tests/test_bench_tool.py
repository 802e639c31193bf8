"""`tools/bench.py` summarises `perfbench/run.py` result lines into the
figures of a `BENCH_<N>.json`; fed canned lines, it gives known medians and
quartiles, and keeps only the four sketch layers of a scaling report. Run
with a fake runner, it starts every child with no bytecode writing, and it
refuses a checkout that holds bytecode caches before it starts any. With
`--against`, it alternates `git archive` checkouts of the parent and HEAD
of a scratch repository, parent first in odd pairs, and writes a `pairs`
section whose statistics are checked on canned lines."""

import importlib.util
import json
import subprocess
from pathlib import Path

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


BENCHMARK = {
    "run_seconds": 1,
    "end_to_end": [
        {"name": "attempts_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "verdict_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    ],
}


def test_pairs_of_canned_run_lines():
    bench = _load_bench()
    parent = [json.loads(_run_line(a, v)) for a, v in [(100.0, 4.0), (110.0, 5.0), (90.0, 4.4), (105.0, 4.2)]]
    change = [json.loads(_run_line(a, v)) for a, v in [(150.0, 3.0), (100.0, 5.5), (160.0, 3.1), (155.0, 3.2)]]
    del change[2]["metrics"]["live_latency.attempts_per_s"]
    pairs = bench.paired(parent, change, BENCHMARK)
    assert (pairs["pairs"], pairs["attempted"], pairs["failed"]) == (
        4, {"parent": 400, "change": 400}, {"parent": 0, "change": 0})
    assert pairs["incomplete"] == ["live_latency.attempts_per_s"]
    attempts = pairs["workloads"]["golden_replay"]["attempts_per_s"]
    assert attempts["parent"] == [100.0, 110.0, 90.0, 105.0]
    assert (attempts["parent_median"], attempts["change_median"]) == (102.5, 152.5)
    assert attempts["parent_iqr"] == [97.5, 106.25]
    assert attempts["change_rel"] == pytest.approx(50 / 102.5)
    assert (attempts["wins"], attempts["gain_beyond_parent_iqr"], attempts["within_bound"]) == (3, True, True)
    verdict = pairs["workloads"]["large_sketch"]["verdict_ms.p50"]
    assert (verdict["better"], verdict["bound"], verdict["wins"]) == ("lower", 0.25, 3)
    assert verdict["change_median"] == pytest.approx(3.15) and verdict["within_bound"] is True
    # a metric 10 % worse is outside a 5 % bound, and wins no pair
    heavier = [json.loads(_run_line(100.0, 4.0)) for _ in range(2)]
    for run in heavier:
        run["metrics"]["large_sketch.peak_rss_mb"]["value"] = 28.6
    lighter = [json.loads(_run_line(100.0, 4.0))] * 2
    rss = bench.paired(lighter, heavier, BENCHMARK)["workloads"]["large_sketch"]["peak_rss_mb"]
    assert rss["change_rel"] == pytest.approx(0.1)
    assert (rss["wins"], rss["gain_beyond_parent_iqr"], rss["within_bound"]) == (0, False, False)


def _git_repo(tmp_path, *commits):
    """A git repository whose history is `commits`, each a marker text
    written with a checkout's layout; returns its path."""
    repo = _checkout(tmp_path / "repo")
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
    for marker in commits:
        (repo / "src" / "pkg" / "marker").write_text(marker)
        subprocess.run(git + ["add", "-A"], cwd=repo, check=True)
        subprocess.run(git + ["commit", "-q", "-m", marker], cwd=repo, check=True)
    return repo


def test_against_alternates_archived_checkouts_of_the_parent_and_head(tmp_path, monkeypatch):
    bench = _load_bench()
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(bench, "ROOT", out)
    repo = _git_repo(tmp_path, "parent", "change")
    (repo / "src" / "pkg" / "marker").write_text("uncommitted")  # not measured
    order, envs = [], []

    def runner(command, cwd, env=None, **kwargs):
        marker = (Path(cwd) / "src" / "pkg" / "marker").read_text()
        envs.append(env)
        if command[1].endswith("scaling.py"):
            order.append(f"scaling {marker}")
            return subprocess.CompletedProcess(command, 0, json.dumps(SCALING) + "\n")
        order.append(marker)
        line = _run_line(200.0, 4.0) if marker == "change" else _run_line(100.0, 5.0)
        return subprocess.CompletedProcess(command, 0, RUN_TEXT + line + "\n")

    argv = ["--pr", "3", "--repo", str(repo), "--against", "HEAD~1", "--runs", "3"]
    assert bench.main(argv, runner) == 0
    assert order == ["parent", "change", "change", "parent", "parent", "change", "scaling change"]
    assert all(env["PYTHONDONTWRITEBYTECODE"] == "1" for env in envs)
    written = json.loads((out / "BENCH_3.json").read_text())
    head = subprocess.run(["git", "rev-parse", "HEAD", "HEAD~1"], cwd=repo, capture_output=True, text=True)
    commit, parent = head.stdout.split()
    assert (written["commit"], written["dirty"], written["runs"]) == (commit, False, 3)
    assert written["workloads"]["golden_replay"]["attempts_per_s"]["values"] == [200.0] * 3
    pairs = written["pairs"]
    assert (pairs["against"], pairs["pairs"]) == (parent, 3)
    attempts = pairs["workloads"]["golden_replay"]["attempts_per_s"]
    assert (attempts["parent"], attempts["change"], attempts["wins"]) == ([100.0] * 3, [200.0] * 3, 3)
    assert attempts["within_bound"] is True and attempts["bound"] == 0.25
    assert json.loads((repo / "BENCHMARK.json").read_text()) == BENCHMARK  # read, never written


def test_against_refuses_a_commit_holding_bytecode_caches_before_any_run(tmp_path):
    repo = _git_repo(tmp_path, "parent")
    (repo / "perfbench" / "__pycache__").mkdir()
    (repo / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"stale")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run(git + ["add", "-f", "perfbench"], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "cache"], cwd=repo, check=True)
    started = []
    with pytest.raises(SystemExit) as exc:
        _load_bench().main(["--pr", "1", "--repo", str(repo), "--against", "HEAD~1", "--runs", "1"],
                           lambda *a, **k: started.append(a))
    assert "perfbench/__pycache__" in str(exc.value) and started == []


def test_against_an_unknown_revision_is_refused(tmp_path):
    repo = _git_repo(tmp_path, "parent")
    with pytest.raises(SystemExit, match="has no commit nosuchrev"):
        _load_bench().main(["--pr", "1", "--repo", str(repo), "--against", "nosuchrev"], None)

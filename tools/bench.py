#!/usr/bin/env python3
"""Write `BENCH_<N>.json`: the benchmark's end-to-end figures and the sketch
layers' scaling exponents for one checkout, in one command.

    python3 tools/bench.py --pr 8                   # this checkout
    python3 tools/bench.py --pr 7 --repo ../parent  # another checkout
    python3 tools/bench.py --pr 8 --runs 3          # fewer runs, wider quartiles

It runs `perfbench/run.py --workload all` K times (seed 1, for the
`run_seconds` that checkout's `BENCHMARK.json` sets) and
`perfbench/scaling.py` once (seed 1), each on the checkout named by
`--repo` (by default the one this file is in), and writes the file into
the root of the checkout this file is in.
The file holds the commit (and whether the tree had uncommitted changes),
the Python version, the operations attempted and failed over all runs, and
for every workload and end-to-end metric its median and quartiles over the
runs, with each run's value. Of the scaling report it keeps the rows and
growth exponents of `parse_sketch`, `check_no_cheat`, `extract_gaps` and
`serialize`; the `prove_sketch` row is left out, since it times only
session memo hits. Standard library only. Nothing here is a gate: the
bounds stay in `BENCHMARK.json`.

Every child runs with `PYTHONDONTWRITEBYTECODE=1`, and a checkout that
holds a `__pycache__` under `src/` or `perfbench/` is refused: bytecode
left by an earlier run, possibly of other sources, would change what the
first run's setup costs. (`PYTHONPYCACHEPREFIX` is not used instead: it
also makes every standard-library import compile from source.)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SCALED = ("parse_sketch", "check_no_cheat", "extract_gaps", "serialize")
_WORKLOAD = re.compile(r"^workload (\S+)")
_HOST_SCALE = re.compile(r"host_scale median ([0-9.eE+-]+)")


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method), and the values themselves."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def host_scales(stdout: str) -> dict[str, float]:
    """Each workload's median `host_scale`, read from `run.py`'s text lines."""
    scales, workload = {}, None
    for line in stdout.splitlines():
        if match := _WORKLOAD.match(line):
            workload = match[1]
        elif workload and (match := _HOST_SCALE.search(line)):
            scales[workload] = float(match[1])
    return scales


def summarise(runs: list[dict], scales: list[dict[str, float]], scaling: dict) -> dict:
    """The figures of `BENCH_<N>.json` from the JSON result lines of
    `run.py --workload all` (one per run), each run's host scales, and the
    JSON result line of `scaling.py`."""
    workloads: dict[str, dict] = {}
    names = sorted({name for run in runs for name in run["metrics"]})
    for name in names:
        workload, _, metric = name.partition(".")
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        unit = next(run["metrics"][name]["unit"] for run in runs if name in run["metrics"])
        workloads.setdefault(workload, {})[metric] = {"unit": unit, **quartiles(values)}
    for workload in workloads:
        values = [s[workload] for s in scales if workload in s]
        if values:
            workloads[workload]["host_scale"] = {"unit": "", **quartiles(values)}
    return {
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "correct": all(run["correct"] for run in runs),
        "workloads": workloads,
        "scaling": {
            "seed": scaling["seed"],
            "growth_exp": {f"sketch.{fn}.growth_exp": scaling["growth_exp"][f"sketch.{fn}.growth_exp"]
                           for fn in SCALED},
            "rows": [{key: row[key] for key in ("function", "gaps", "seconds", "calls")}
                     for row in scaling["rows"] if row["function"] in SCALED],
        },
    }


def bytecode_caches(repo: Path) -> list[str]:
    """The `__pycache__` directories under the checkout's `src/` and
    `perfbench/`, relative to it."""
    return sorted(
        str(path.relative_to(repo))
        for top in ("src", "perfbench")
        for path in (repo / top).rglob("__pycache__")
    )


def _result_line(command: list[str], repo: Path, run=subprocess.run) -> tuple[dict, str]:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = run(command, cwd=repo, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"error: {' '.join(command)} exited {proc.returncode}")
    return json.loads(lines[-1]), proc.stdout


def _git(repo: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None, run=subprocess.run) -> int:
    """`run` starts each child, as `subprocess.run` does."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--runs", type=int, default=5, help="runs of every workload (default 5)")
    parser.add_argument("--repo", type=Path, default=ROOT, help="the checkout to measure")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    if caches := bytecode_caches(repo):
        raise SystemExit(f"error: remove the bytecode caches in {repo} first: {' '.join(caches)}")
    seconds = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    python = sys.executable
    runs, scales = [], []
    for k in range(args.runs):
        print(f"run {k + 1} of {args.runs}", file=sys.stderr, flush=True)
        result, stdout = _result_line(
            [python, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
             "--seconds", str(seconds)], repo, run)
        runs.append(result)
        scales.append(host_scales(stdout))
    print("scaling report", file=sys.stderr, flush=True)
    scaling, _ = _result_line([python, "perfbench/scaling.py", "--seed", str(SEED)], repo, run)
    status = _git(repo, "status", "--porcelain")
    bench = {
        "pr": args.pr,
        "commit": _git(repo, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "seed": SEED,
        "seconds": seconds,
        "runs": args.runs,
        **summarise(runs, scales, scaling),
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

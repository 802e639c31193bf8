#!/usr/bin/env python3
"""Write `BENCH_<N>.json`: the benchmark's end-to-end figures and the sketch
layers' scaling exponents for one checkout, in one command.

    python3 tools/bench.py --pr 8                   # this checkout
    python3 tools/bench.py --pr 7 --repo ../parent  # another checkout
    python3 tools/bench.py --pr 8 --runs 3          # fewer runs, wider quartiles
    python3 tools/bench.py --pr 8 --against HEAD~1 --runs 10  # HEAD paired with its parent

It runs `perfbench/run.py --workload all` `--runs` times (seed 1, for the
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
session memo hits. Standard library only, with `git` and `tar` for
`--against`. Nothing here is a gate: the bounds stay in `BENCHMARK.json`.

Every child runs with `PYTHONDONTWRITEBYTECODE=1`, and a checkout that
holds a `__pycache__` under `src/` or `perfbench/` is refused: bytecode
left by an earlier run, possibly of other sources, would change what the
first run's setup costs. (`PYTHONPYCACHEPREFIX` is not used instead: it
also makes every standard-library import compile from source.)

With `--against REV`, the commits REV (the parent) and HEAD (the change)
of `--repo`'s git history are each extracted with `git archive` into a
temporary directory, so the working tree's uncommitted edits are not
measured. `--runs` pairs of runs alternate them, the parent first in
odd pairs, and the change's runs give the figures above (its scaling
report too). The file then also holds a `pairs` section: per workload and
metric, each side's runs, both medians, the parent's quartiles, the
relative change of the median, in how many pairs the change did better,
and, for an end-to-end metric of `BENCHMARK.json`, whether the change's
median is worse than the parent's by no more than its bound. The bounds
are read from the change's `BENCHMARK.json`, never written.
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
import tempfile
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


def checkout(repo: Path, rev: str, dest: Path) -> str:
    """Extract `git archive` of commit `rev` of `repo` into `dest`; returns
    the commit's hash."""
    commit = _git(repo, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    if not commit:
        raise SystemExit(f"error: {repo} has no commit {rev}")
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=repo,
                         stdout=subprocess.PIPE, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return commit


def paired(parent: list[dict], change: list[dict], benchmark: dict) -> dict:
    """The `pairs` section from the result lines of the parent's and the
    change's runs, run k of each side making pair k. A metric missing from
    any run is listed under `incomplete` and not compared."""
    ends = {end["name"]: end for end in benchmark["end_to_end"]}
    workloads: dict[str, dict] = {}
    names = {name for run in parent + change for name in run["metrics"]}
    complete = sorted(name for name in names if all(name in run["metrics"] for run in parent + change))
    for name in complete:
        workload, _, metric = name.partition(".")
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        base, q = quartiles(before), quartiles(after)
        end = ends.get(metric, {})
        better, bound = end.get("better"), end.get("bound")
        sign = {"lower": -1, "higher": 1}.get(better)
        rel = (q["median"] - base["median"]) / base["median"] if base["median"] else None
        entry = {
            "unit": parent[0]["metrics"][name]["unit"],
            "better": better,
            "parent": before,
            "change": after,
            "parent_median": base["median"],
            "change_median": q["median"],
            "parent_iqr": [base["q1"], base["q3"]],
            "change_rel": rel,
            "wins": None if sign is None else sum(sign * (a - b) > 0 for b, a in zip(before, after)),
            "gain_beyond_parent_iqr": None if sign is None else
                sign * (q["median"] - base["median"]) > base["q3"] - base["q1"],
            "bound": bound,
            "within_bound": None if bound is None or rel is None else -sign * rel <= bound,
        }
        workloads.setdefault(workload, {})[metric] = entry
    return {
        "pairs": len(parent),
        "order": "parent first in odd pairs",
        "attempted": {"parent": sum(r["attempted"] for r in parent), "change": sum(r["attempted"] for r in change)},
        "failed": {"parent": sum(r["failed"] for r in parent), "change": sum(r["failed"] for r in change)},
        "incomplete": sorted(names - set(complete)),
        "workloads": workloads,
    }


def main(argv: list[str] | None = None, run=subprocess.run) -> int:
    """`run` starts each child, as `subprocess.run` does."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs of every workload, or pairs of runs with --against (default 5)")
    parser.add_argument("--repo", type=Path, default=ROOT, help="the checkout to measure")
    parser.add_argument("--against", metavar="REV", help="pair HEAD's runs with this commit's")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        if args.against:
            parent_dir, measured = Path(tmp) / "parent", Path(tmp) / "change"
            against = checkout(repo, args.against, parent_dir)
            commit, dirty = checkout(repo, "HEAD", measured), False
            sides = [("parent", parent_dir), ("change", measured)]
        else:
            measured, against = repo, None
            status = _git(repo, "status", "--porcelain")
            commit, dirty = _git(repo, "rev-parse", "HEAD"), None if status is None else bool(status)
            sides = [("change", measured)]
        for _, checkout_dir in sides:
            if caches := bytecode_caches(checkout_dir):
                raise SystemExit(f"error: remove the bytecode caches in {checkout_dir} first: {' '.join(caches)}")
        benchmark = json.loads((measured / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = benchmark["run_seconds"]
        runs: dict[str, list[dict]] = {side: [] for side, _ in sides}
        scales = []
        for k in range(args.runs):
            # the parent first in odd pairs (k counts from 0)
            for side, checkout_dir in sides if k % 2 == 0 else sides[::-1]:
                print(f"run {k + 1} of {args.runs}: {side}", file=sys.stderr, flush=True)
                result, stdout = _result_line(
                    [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
                     "--seconds", str(seconds)], checkout_dir, run)
                runs[side].append(result)
                if side == "change":
                    scales.append(host_scales(stdout))
        print("scaling report", file=sys.stderr, flush=True)
        scaling, _ = _result_line(
            [sys.executable, "perfbench/scaling.py", "--seed", str(SEED)], measured, run)
        bench = {
            "pr": args.pr,
            "commit": commit,
            "dirty": dirty,
            "python": platform.python_version(),
            "seed": SEED,
            "seconds": seconds,
            "runs": args.runs,
            **summarise(runs["change"], scales, scaling),
        }
        if against:
            bench["pairs"] = {"against": against, **paired(runs["parent"], runs["change"], benchmark)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

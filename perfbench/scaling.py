"""Scaling report: how the sketch and prover layers grow with sketch size.

    python3 perfbench/scaling.py [--seed 1]

Kept out of the end-to-end workloads. For parse_sketch, check_no_cheat,
extract_gaps and serialize at 100, 1k and 8k gaps, and for prove_sketch
(in-process scripted prover) at doubling sizes up to the largest that
finishes within PROVE_CAP_S, it reports the time of one call and the peak
resident memory the call adds, each measured in a fresh process. It fits a
growth exponent per function (time ~ gaps^k) by least squares on log-log
points. Prints a table, writes .perfbench_work/scaling.json, and ends with
the report as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SKETCH_SIZES = (100, 1000, 8000)
PROVE_SIZES = (100, 200, 400, 800, 1600, 3200, 8000)
FUNCTIONS = ("parse_sketch", "check_no_cheat", "extract_gaps", "serialize")
MIN_TIMED_S = 0.5  # repeat fast calls until this much time has passed; report the median
SKETCH_TIMEOUT_S = 120
PROVE_CAP_S = 20  # largest expected time of one prove_sketch call
CHILD_START_S = 5  # a prove_sketch child may take this long beyond the cap to start and build its input


def _measure(fn: str, gaps: int, seed: int) -> dict:
    """Child side: build the input, then time `fn` on it."""
    import inputs
    from sketchprove.prover import ProverConfig, ScriptedSpec, open_session, prove_sketch
    from sketchprove.sketch import check_no_cheat, extract_gaps, parse_sketch, serialize
    from workloads import WORK

    text = inputs.large_sketch(seed, 0, gaps).text
    if fn == "prove_sketch":
        WORK.mkdir(exist_ok=True)
        script = WORK / f"scaling_script_{seed}.json"
        inputs.write_json(script, inputs.large_sketch_script(seed))
        session = open_session(ScriptedSpec(str(script)), ProverConfig())
        ast = parse_sketch(text)
        call = lambda: prove_sketch(session, ast)  # noqa: E731
    elif fn in ("parse_sketch", "check_no_cheat"):
        target = parse_sketch if fn == "parse_sketch" else check_no_cheat
        call = lambda: target(text)  # noqa: E731
    else:
        ast = parse_sketch(text)
        target = extract_gaps if fn == "extract_gaps" else serialize
        call = lambda: target(ast)  # noqa: E731

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = []
    started = time.perf_counter()
    while not samples or (time.perf_counter() - started < MIN_TIMED_S and len(samples) < 50):
        t = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples.sort()
    return {
        "function": fn,
        "gaps": gaps,
        "seconds": samples[len(samples) // 2],
        "calls": len(samples),
        "peak_rss_added_mb": (after - before) / 1024,
    }


def growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(gaps)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _run_child(fn: str, gaps: int, seed: int, timeout_s: float) -> dict | None:
    """One measurement in a fresh process; None when it runs past the timeout."""
    command = [sys.executable, str(Path(__file__)), "--child", fn, str(gaps), "--seed", str(seed)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"{fn} at {gaps} gaps failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(seed: int) -> dict:
    rows = []
    for fn in FUNCTIONS:
        for gaps in SKETCH_SIZES:
            row = _run_child(fn, gaps, seed, SKETCH_TIMEOUT_S)
            if row is None:
                raise RuntimeError(f"{fn} at {gaps} gaps took longer than {SKETCH_TIMEOUT_S} s")
            rows.append(row)
    skipped = []
    proved: list[dict] = []
    for gaps in PROVE_SIZES:
        if len(proved) >= 2:
            k = growth_exponent([(r["gaps"], r["seconds"]) for r in proved[-2:]])
            predicted = proved[-1]["seconds"] * (gaps / proved[-1]["gaps"]) ** k
            if predicted > PROVE_CAP_S:
                skipped.append(gaps)
                continue
        row = _run_child("prove_sketch", gaps, seed, PROVE_CAP_S + CHILD_START_S)
        if row is None:
            skipped.append(gaps)
            continue
        proved.append(row)
    rows += proved

    exponents = {}
    for fn, layer in [(f, "sketch") for f in FUNCTIONS] + [("prove_sketch", "prover")]:
        points = [(r["gaps"], r["seconds"]) for r in rows if r["function"] == fn]
        exponents[f"{layer}.{fn}.growth_exp"] = growth_exponent(points)
    return {"seed": seed, "cap_s": PROVE_CAP_S, "rows": rows, "prove_sketch_skipped": skipped,
            "growth_exp": exponents}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scaling report for the sketch and prover layers")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", nargs=2, metavar=("FUNCTION", "GAPS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sketchprove" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    from workloads import WORK, pin_to_one_cpu

    pin_to_one_cpu()
    if args.child:
        print(json.dumps(_measure(args.child[0], int(args.child[1]), args.seed)))
        return 0
    result = report(args.seed)
    for r in result["rows"]:
        print(f"{r['function']:15s} {r['gaps']:6d} gaps  {r['seconds'] * 1000:10.2f} ms"
              f"  (median of {r['calls']})  +{r['peak_rss_added_mb']:.1f} MB peak RSS")
    if result["prove_sketch_skipped"]:
        print(f"prove_sketch skipped at {result['prove_sketch_skipped']} gaps "
              f"(expected over the {PROVE_CAP_S} s cap)")
    for name, k in result["growth_exp"].items():
        print(f"{name} = {k:.3f}")
    WORK.mkdir(exist_ok=True)
    (WORK / "scaling.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

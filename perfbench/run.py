"""sketchprove benchmark: one workload per run, or all three in turn.

    python3 perfbench/run.py --workload golden_replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With --trace 0 the run reports the end-to-end metrics, the timed ones on
the CPU-bound workloads normalised for host speed (see calibration_s).
With --trace 1 it alternates untraced and traced operations and reports
the per-layer metrics, the tracing overhead among them, and writes the
spans out when it ends. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed output check is
named on standard error and makes the exit code 1; a missing package
source makes it 2, with no result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("golden_replay", "large_sketch", "live_latency")
SETUP_REPEATS = 9
SPAN_CAP = 150_000  # spans kept in memory; once reached, the remaining operations run untraced
# calibration_s() on the reference VM (2 vCPUs, Python 3.11) at its fastest
# steady speed; it turns host-normalised rates back into reference 1/s.
CALIBRATION_REF_S = 0.00069
CALIBRATION_RUNS = 4

# End-to-end metrics, in BENCHMARK.json order, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "attempts_per_s": "1/s",
    "gaps_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    parser.add_argument(
        "--corrupt", action="store_true",
        help="corrupt one output record, to show that the checks catch it",
    )
    return parser.parse_args(argv)


def measure_setup(args: argparse.Namespace, repeats: int) -> tuple[list[float], list[float]]:
    """Set-up time from process start to the first timed call: each sample
    is a fresh interpreter that imports the package, sets the workload up
    (including any wire server and sessions) and reports ready. Set-up is
    CPU work on every workload, so each sample is also given divided by the
    host_scale that calibration_s() measures right after it. Returns the
    normalised samples and the raw ones."""
    samples, raw = [], []
    command = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        raw.append(time.perf_counter() - started)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {args.workload} failed")
        samples.append(raw[-1] * CALIBRATION_REF_S / calibration_s())
    return samples, raw


# A fixed text shaped like a sketch's steps, for calibration_s.
_CALIBRATION_TEXT = "\n".join(
    f'  have c{i}: "x + {i} = {i} + x" using h{i % 7} (* note {i} *) by auto' for i in range(400)
)


def _calibration_once() -> int:
    steps = []
    for line in _CALIBRATION_TEXT.splitlines():
        m = re.match(r'\s*have (\w+): "([^"]*)"', line)
        if m:
            steps.append({"label": m.group(1), "prop": m.group(2), "rest": line[m.end():].strip().split()})
    text = "".join(f"{step['label']}:{step['prop']};" for step in steps)
    return len(text) + sum(text.find("(*", k) for k in range(0, len(text), 997))


def calibration_s() -> float:
    """Time of a fixed pure-Python computation that uses nothing from the
    package, text parsing of the kind the package does (regex matches,
    splits, small dicts, joins, finds): a probe of how fast the host runs
    right now. Of the kernels tried it tracked the package's speed best.
    Mean of CALIBRATION_RUNS runs, with the garbage collector off so that
    the size of the workload's heap does not change it."""
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(CALIBRATION_RUNS):
            _calibration_once()
        return (time.perf_counter() - started) / CALIBRATION_RUNS
    finally:
        gc.enable()


def _one_op(workload, rec):
    if rec is None:
        return workload.op()
    rec.install()
    try:
        return workload.op(rec)
    finally:
        rec.uninstall()


def run_ops(workload, rec, seconds: float):
    """One untimed warm-up operation, then operations until `seconds` have
    passed: at least one, and with a recorder every second one traced until
    SPAN_CAP spans are held. On a CPU-bound workload calibration_s() runs
    before the first operation and after each one; an operation's
    host_scale is the mean of the two around it over CALIBRATION_REF_S. An
    operation that raises is a failed operation and ends the loop."""
    timed = {False: [], True: []}
    failures: list[str] = []
    attempted = 0
    before = calibration_s() if workload.cpu_bound else 0.0
    min_timed = 1 if rec is None else 2
    i = -1  # the warm-up
    started = time.perf_counter()
    while i < min_timed or time.perf_counter() - started < seconds:
        traced = rec is not None and i >= 0 and i % 2 == 1 and len(rec.spans) < SPAN_CAP
        try:
            result = _one_op(workload, rec if traced else None)
        except Exception:  # an infra error: report it and stop
            traceback.print_exc()
            failures.append(f"{workload.name} operation {i + 1}: raised (traceback above)")
            attempted += 1
            break
        failures += result.failures
        attempted += result.attempted
        if workload.cpu_bound:
            after = calibration_s()
            result.host_scale = (before + after) / 2 / CALIBRATION_REF_S
            before = after
        if i < 0:
            started = time.perf_counter()
        elif traced or rec is None or len(rec.spans) < SPAN_CAP:
            timed[traced].append(result)  # untraced ones only while paired with traced ones
        i += 1
    return timed, failures, attempted


def _rates(results, normalised: bool = True) -> tuple[float, float]:
    """Median over operations of attempts and of gaps closed per second,
    each scaled by its operation's host_scale unless `normalised` is off."""
    def scale(r):
        return r.host_scale if normalised else 1.0

    return (
        statistics.median(r.attempted / r.seconds * scale(r) for r in results),
        statistics.median(r.gaps_closed / r.seconds * scale(r) for r in results),
    )


def _verdicts_ms(results, normalised: bool = True) -> list[float]:
    return sorted(v * 1000 / (r.host_scale if normalised else 1.0) for r in results for v in r.verdict_s)


def e2e_metrics(setup_samples: list[float], results) -> dict[str, tuple[float, str]]:
    # read first: the sample lists built below grow with the run's speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempts_per_s, gaps_per_s = _rates(results)
    values = {
        "setup_s": statistics.median(setup_samples),
        "attempts_per_s": attempts_per_s,
        "gaps_per_s": gaps_per_s,
        "verdict_ms.p50": statistics.median(_verdicts_ms(results)),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def raw_lines(raw_setup: list[float], results) -> list[str]:
    """The verdict sample count, with p90 when there are ten samples beyond
    it, and the timed figures before host normalisation."""
    verdicts = _verdicts_ms(results)
    lines = [f"  verdict samples: {len(verdicts)}"
             + (f", verdict_ms.p90 = {verdicts[int(0.9 * len(verdicts))]:.6g} ms" if len(verdicts) >= 100 else "")]
    raw = f"  before normalising: setup_s = {statistics.median(raw_setup):.6g}"
    if any(r.host_scale != 1.0 for r in results):
        attempts, gaps = _rates(results, normalised=False)
        raw += (f", attempts_per_s = {attempts:.6g}, gaps_per_s = {gaps:.6g},"
                f" verdict_ms.p50 = {statistics.median(_verdicts_ms(results, False)):.6g};"
                f" host_scale median {statistics.median(r.host_scale for r in results):.4g}")
    return lines + [raw]


def traced_metrics(rec, timed: dict, args: argparse.Namespace) -> dict[str, tuple[float, str]]:
    import spans
    from workloads import WORK

    traced = timed[True]
    overhead = 1 - _rates(traced)[1] / _rates(timed[False])[1]
    ops = sum(r.ran for r in traced)
    experiments = len(traced) if args.workload != "large_sketch" else 1
    metrics = spans.layer_metrics(rec, ops, experiments, sum(r.seconds for r in traced), overhead)
    WORK.mkdir(exist_ok=True)
    rec.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return metrics


def run_one(args: argparse.Namespace) -> tuple[dict, list[str], list[str]]:
    import spans
    from workloads import WORK, WORKLOADS

    workload = WORKLOADS[args.workload](WORK / args.workload, args.seed, args.tiny, args.corrupt)
    workload.generate()
    setup_samples, raw_setup = ([], []) if args.trace else measure_setup(args, 1 if args.tiny else SETUP_REPEATS)
    rec = spans.SpanRecorder() if args.trace else None
    try:
        missing = rec.install() if rec else []
        try:
            workload.setup(rec)
        finally:
            if rec:
                rec.uninstall()
        workload.ready()
        timed, failures, attempted = run_ops(workload, rec, args.seconds)
    finally:
        workload.close()

    failed = min(len(failures), attempted)
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs {workload.jobs}"]
    lines += [f"  note: not wrapped (renamed?): {name}" for name in missing]
    lines.append(f"  ops_failed_frac = {failed / attempted:.6f} ({failed}/{attempted})")
    metrics: dict[str, tuple[float, str]] = {}
    if timed[False] and (timed[True] or not rec):
        if rec:
            metrics = traced_metrics(rec, timed, args)
        else:
            metrics = e2e_metrics(setup_samples, timed[False])
            lines += raw_lines(raw_setup, timed[False])
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines, failures


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process (so peak RSS is per workload)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        command += ["--tiny"] * args.tiny + ["--corrupt"] * args.corrupt
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        out = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not out:
            return proc.returncode or 2
        print("\n".join(out[:-1]), flush=True)
        code = max(code, proc.returncode)
        result = json.loads(out[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sketchprove" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS, pin_to_one_cpu

    if WORKLOADS[args.workload].cpu_bound:
        pin_to_one_cpu()
    result, lines, failures = run_one(args)
    print("\n".join(lines))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

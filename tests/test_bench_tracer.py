"""The benchmark's span recorder (`perfbench/spans.py`) wraps package
functions by module and name, and skips a target it cannot find. A rename
of a wrapped function would so zero a per-layer number without failing
anything; this test keeps the set of targets it cannot find from growing."""

import importlib
import importlib.util

from conftest import REPO

# targets that no longer exist; the recorder's table still names them
STALE_TARGETS = {
    "sketchprove.scheduler.check_no_cheat",
    "sketchprove.scheduler.serialize",
    "sketchprove.sketch.ops.parse_sketch",
    "sketchprove.prover.driver.fill_gap",
    "sketchprove.prover.driver.serialize",
    "sketchprove.prover.driver.sketch_prefix",
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_finds_every_target_but_the_stale_ones():
    spans = _load_spans()
    owners = []
    for where, attr, _ in spans.WRAPPED:
        module_name, _, cls = where.partition(":")
        owner = importlib.import_module(module_name)
        owners.append((owner if not cls else getattr(owner, cls), attr))
    before = [vars(owner).get(attr) for owner, attr in owners]
    recorder = spans.SpanRecorder()
    try:
        missing = recorder.install()
    finally:
        recorder.uninstall()
    assert set(missing) <= STALE_TARGETS
    assert [vars(owner).get(attr) for owner, attr in owners] == before

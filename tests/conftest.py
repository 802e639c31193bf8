from __future__ import annotations

import gc
import sys
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def sketch_files() -> list[Path]:
    return sorted((FIXTURES / "sketches").glob("*.thy"))


@pytest.fixture(scope="session")
def fig2_text() -> str:
    return (FIXTURES / "sketches" / "algebra_binomnegdiscrineq_10alt28asqp1.thy").read_text()


@pytest.fixture(scope="session")
def fig3_text() -> str:
    return (FIXTURES / "sketches" / "imo_1959_p1.thy").read_text()


@pytest.fixture(scope="session")
def pool():
    from sketchprove.prompting import load_pool

    return load_pool(FIXTURES / "pool" / "examples.json")


@pytest.fixture(scope="session")
def problems():
    from sketchprove.harness import load_dataset

    return load_dataset(FIXTURES / "datasets" / "mini.jsonl")


@pytest.fixture(scope="session")
def golden_config() -> dict:
    import json

    return json.loads((FIXTURES / "golden" / "config.json").read_text())


@pytest.fixture()
def scripted_session_factory(tmp_path):
    """Factory of prover-session factories over an inline script dict."""
    import json as _json

    from sketchprove.prover import ProverConfig, ScriptedSpec, open_session

    def make(script: dict, config: ProverConfig | None = None, name: str = "script.json"):
        path = tmp_path / name
        path.write_text(_json.dumps(script))
        return lambda: open_session(ScriptedSpec(str(path)), config or ProverConfig())

    return make


def minimal_script(rules: list | None = None, default: dict | None = None, **extra) -> dict:
    script = {
        "schema": "prover-script/1",
        "rules": rules or [],
        "default": default or {"kind": "fail"},
    }
    script.update(extra)
    return script


class RecordingBackend:
    """`Backend` proxy that logs each call as (command, text sent): init or
    resume with its context, step with its tactic, check_full with the
    proof, hammer and quit with ""."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[str, str]] = []

    def init(self, base, statement):
        from sketchprove.prover import ProverState

        self.calls.append(("resume" if isinstance(base, ProverState) else "init", statement))
        return self.inner.init(base, statement)

    def step(self, text, timeout_ms):
        self.calls.append(("step", text))
        return self.inner.step(text, timeout_ms)

    def hammer(self, timeout_ms):
        self.calls.append(("hammer", ""))
        return self.inner.hammer(timeout_ms)

    def check_full(self, proof_text, timeout_ms):
        self.calls.append(("check_full", proof_text))
        return self.inner.check_full(proof_text, timeout_ms)

    def quit(self):
        self.calls.append(("quit", ""))
        return self.inner.quit()


def recording(session):
    """`session` with its backend wrapped in a RecordingBackend, whose log
    starts after the session was opened."""
    session.backend = RecordingBackend(session.backend)
    return session


def memo_state_ids(session) -> set[str]:
    """Every state id in the session's memo: the bases gaps resumed from
    and the states closed gaps left."""
    from sketchprove.prover import Closed

    memo = session.memo
    return {base.state_id for base, _ in memo.gaps if base is not None} | {
        result.state_id for result in memo.gaps.values() if isinstance(result, Closed)
    }


def retained_bytes(root) -> int:
    """Bytes of every object reachable from `root`, each counted once;
    classes, modules and functions are left out."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total

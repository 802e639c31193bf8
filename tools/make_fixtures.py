#!/usr/bin/env python3
"""Regenerate the bundled fixtures.

Builds, deterministically and in dependency order:
  fixtures/pool/examples.json      example pool (sketches + metadata + full proofs)
  fixtures/datasets/mini.jsonl     20-problem desk corpus (10 valid / 10 test)
  fixtures/prover/script.json      scripted prover rules for the corpus
  fixtures/cache/completions.jsonl canned draft/sketch completions (record mode)
  fixtures/golden/records.jsonl    records stream of the reference replay run
  fixtures/golden/records_baseline.jsonl  direct-prover baseline records
  fixtures/golden/config.json      the exact configuration of the golden run

Rerunning must reproduce the cache and golden files byte for byte.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sketchprove.harness import Problem, Split, export_records, save_dataset  # noqa: E402
from sketchprove.llm import CacheMode, CompletionCache, CompletionClient  # noqa: E402
from sketchprove.prompting import PromptConfig, infer_category, load_pool  # noqa: E402
from sketchprove.prover import ProverConfig, ScriptedSpec, open_session  # noqa: E402
from sketchprove.scheduler import (  # noqa: E402
    BudgetPolicy,
    DraftSource,
    PipelineComponents,
    SessionProvider,
    run_experiment,
)
from sketchprove.sketch import (  # noqa: E402
    SketchAst,
    closing_step_text,
    extract_gaps,
    parse_sketch,
    render_segments,
    serialize,
)

FIXTURES = ROOT / "fixtures"

EXPERIMENT_SEED = 7
POLICY = dict(drafts_per_problem=5, sketches_per_draft=2, total_budget=100)


# -- example pool ---------------------------------------------------------------


def statement_text(ast: SketchAst) -> str:
    """The theorem statement of a sketch, without its proof."""
    return serialize(SketchAst(ast.header))


def build_pool() -> None:
    meta = json.loads((FIXTURES / "pool" / "pool_meta.json").read_text(encoding="utf-8"))
    quads = []
    for entry in meta:
        sketch_text = (FIXTURES / "sketches" / f"{entry['id']}.thy").read_text(encoding="utf-8")
        ast = parse_sketch(sketch_text)
        # each gap holds its step's canonical text, as prove_sketch splices it
        segments = render_segments(ast)
        steps = entry["fill_steps"]
        assert len(steps) == len(segments) - 1, f"{entry['id']}: one fill step per gap"
        full_proof = "".join(
            segment + closing_step_text(step) for segment, step in zip(segments, steps)
        ) + segments[-1]
        quads.append(
            {
                "id": entry["id"],
                "category": entry["category"],
                "informal_statement": entry["informal_statement"],
                "informal_proof": entry["informal_proof"],
                "formal_statement": statement_text(ast),
                "formal_sketch": sketch_text,
                "full_proof": full_proof,
            }
        )
    out = FIXTURES / "pool" / "examples.json"
    out.write_text(json.dumps(quads, indent=2, ensure_ascii=True) + "\n", encoding="utf-8")
    load_pool(out)  # sanity: must satisfy every pool invariant
    print(f"pool: {len(quads)} examples -> {out}")


# -- desk corpus ----------------------------------------------------------------

GOOD, BAD, PARSE_ERROR, CHEAT, VERIFY_REJECT = "good", "bad", "parse_error", "cheat", "verify_reject"


@dataclass
class Spec:
    id: str
    split: Split
    kind: str  # algebra | numbertheory | imo | pool
    n: int = 0  # algebra constant
    m: int = 0  # numbertheory constant (m = 9*q + r)
    q: int = 0
    r: int = 0
    a: int = 0  # imo odd offset
    behavior: dict[int, str] = field(default_factory=dict)  # draft index -> sketch kind
    baseline: bool = False
    duplicate_drafts: bool = False
    tactic_index: int = 0  # cascade position that closes the good have-gap
    hammer_step: str | None = None  # closes via hammer instead when set

    def sketch_kind(self, draft_index: int) -> str:
        return self.behavior.get(draft_index, GOOD)


def corpus() -> list[Spec]:
    v, t = Split.VALID, Split.TEST
    return [
        Spec("algebra_g01", v, "algebra", n=140, baseline=True, tactic_index=0),
        Spec("algebra_g02", v, "algebra", n=141, behavior={0: BAD}, tactic_index=1),
        Spec("algebra_g03", v, "algebra", n=142, behavior={0: PARSE_ERROR, 1: PARSE_ERROR},
             baseline=True, tactic_index=2),
        Spec("algebra_g04", v, "algebra", n=143, behavior={i: BAD for i in range(5)}),
        Spec("algebra_g05", v, "algebra", n=144, behavior={0: CHEAT}, tactic_index=3),
        Spec("numbertheory_g01", v, "numbertheory", m=463, q=51, r=4, baseline=True,
             hammer_step="by (smt (z3) mod_mult_self3)"),
        Spec("numbertheory_g02", v, "numbertheory", m=473, q=52, r=5,
             behavior={0: VERIFY_REJECT}, hammer_step="by (metis mod_mult_self2)"),
        Spec("numbertheory_g03", v, "numbertheory", m=479, q=53, r=2, behavior={0: BAD},
             duplicate_drafts=True, tactic_index=6),
        Spec("numbertheory_g04", v, "numbertheory", m=493, q=54, r=7,
             behavior={i: BAD for i in range(5)}),
        Spec("imo_g01", v, "imo", a=131, behavior={0: BAD, 1: BAD, 2: BAD}, tactic_index=6),
        Spec("algebra_t01", t, "algebra", n=145, baseline=True, tactic_index=4),
        Spec("algebra_t02", t, "algebra", n=146, behavior={0: BAD, 1: BAD}, tactic_index=10),
        Spec("algebra_t03", t, "algebra", n=147, behavior={i: BAD for i in range(5)}),
        Spec("algebra_sqdiff_factor", t, "pool", tactic_index=0),
        Spec("algebra_t04", t, "algebra", n=148, behavior={i: BAD for i in range(4)},
             tactic_index=5),
        Spec("numbertheory_t01", t, "numbertheory", m=496, q=55, r=1, behavior={0: BAD},
             tactic_index=8),
        Spec("numbertheory_t02", t, "numbertheory", m=512, q=56, r=8,
             behavior={i: BAD for i in range(5)}),
        Spec("numbertheory_gcd_consecutive", t, "pool", baseline=True, tactic_index=3),
        Spec("numbertheory_t03", t, "numbertheory", m=516, q=57, r=3,
             hammer_step="by (metis mod_mult_self1)"),
        Spec("imo_t01", t, "imo", a=133, behavior={i: BAD for i in range(5)}),
    ]


def _pool_entry(pool_id: str) -> dict:
    meta = json.loads((FIXTURES / "pool" / "pool_meta.json").read_text(encoding="utf-8"))
    return next(e for e in meta if e["id"] == pool_id)


def statement_for(spec: Spec) -> str:
    if spec.kind == "algebra":
        return (
            f"theorem {spec.id}:\n  fixes x :: real\n"
            f'  assumes h0: "x + 7 = {spec.n}"\n  shows "x = {spec.n - 7}"\n'
        )
    if spec.kind == "numbertheory":
        return f'theorem {spec.id}:\n  shows "({spec.m}::nat) mod 9 = {spec.r}"\n'
    if spec.kind == "imo":
        return f'theorem {spec.id}:\n  fixes n :: nat\n  shows "(2*n + {spec.a}) mod 2 = 1"\n'
    sketch = (FIXTURES / "sketches" / f"{spec.id}.thy").read_text(encoding="utf-8")
    return statement_text(parse_sketch(sketch))


def good_gap_prop(spec: Spec) -> str:
    if spec.kind == "algebra":
        return f"x = {spec.n} - 7"
    if spec.kind == "numbertheory":
        return f"({spec.m}::nat) = 9 * {spec.q} + {spec.r}"
    return f"odd (2*n + {spec.a})"


def sketch_for(spec: Spec, kind: str) -> str:
    if spec.kind == "pool":
        return (FIXTURES / "sketches" / f"{spec.id}.thy").read_text(encoding="utf-8")
    statement = statement_for(spec).rstrip()
    if kind == PARSE_ERROR:
        return statement + "\nproof -\n  have ((( oops\nqed\n"
    if spec.kind == "algebra":
        prop = good_gap_prop(spec) if kind != BAD else f"x = {spec.n} + 1"
        comment = "isolate x on the left"
    elif spec.kind == "numbertheory":
        if kind == BAD:
            bad = f"({spec.m}::nat) = 9 * 999 + {spec.r}" if spec.id == "numbertheory_g04" \
                else f"({spec.m}::nat) = 8 * {spec.q} + {spec.r}"
            prop = bad
        else:
            prop = good_gap_prop(spec)
        comment = f"exhibit the decomposition of {spec.m}"
    else:
        prop = good_gap_prop(spec) if kind != BAD else f"even (2*n + {spec.a})"
        comment = "the shifted term is odd"
    closing = "sorry" if kind == CHEAT else "sledgehammer"
    lines = [statement, "proof -"]
    if kind == VERIFY_REJECT:
        lines.append("  (* bridge hack *)")
    lines += [
        f"  (* {comment} *)",
        f'  have c0: "{prop}" sledgehammer',
        f"  then show ?thesis using c0 {closing}",
        "qed",
    ]
    return "\n".join(lines) + "\n"


def drafts_for(spec: Spec) -> list[str]:
    texts = [
        f"Rearrange the hypothesis and simplify. (problem {spec.id}, variant {k})"
        for k in range(POLICY["drafts_per_problem"])
    ]
    if spec.duplicate_drafts:
        # only two distinct drafts survive deduplication
        return [texts[0], texts[1], texts[0], texts[1], texts[0]]
    return texts


def build_dataset(specs: list[Spec]) -> list[Problem]:
    problems = []
    for spec in specs:
        if spec.kind == "pool":
            entry = _pool_entry(spec.id)
            informal_statement = entry["informal_statement"]
            informal_proof = entry["informal_proof"]
        else:
            lhs = {
                "algebra": f"Given that $x + 7 = {spec.n}$, find $x$. Show that it is ${spec.n - 7}$.",
                "numbertheory": f"Determine the remainder of ${spec.m}$ modulo $9$. Show that it is ${spec.r}$.",
                "imo": f"Show that $2n + {spec.a}$ is odd for every natural number $n$.",
            }
            informal_statement = lhs[spec.kind]
            informal_proof = "Apply the obvious simplification step by step."
        problems.append(
            Problem(
                id=spec.id,
                split=spec.split,
                category=infer_category(spec.id),
                informal_statement=informal_statement,
                informal_proof=informal_proof,
                formal_statement=statement_for(spec).rstrip(),
            )
        )
    save_dataset(problems, FIXTURES / "datasets" / "mini.jsonl")
    print(f"dataset: {len(problems)} problems -> fixtures/datasets/mini.jsonl")
    return problems


# -- prover script ----------------------------------------------------------------


def build_script(specs: list[Spec]) -> None:
    rules: list[dict] = []
    for spec in specs:
        if spec.kind == "pool":
            # close every gap of the shipped pool sketch, in order
            sketch = (FIXTURES / "sketches" / f"{spec.id}.thy").read_text(encoding="utf-8")
            for site in extract_gaps(parse_sketch(sketch)):
                if site.proposition.startswith("?"):
                    continue  # the shared ?thesis rule handles it
                rules.append(
                    {
                        "match": {"kind": "exact", "pattern": site.proposition},
                        "outcome": {"kind": "tactic", "index": spec.tactic_index},
                    }
                )
            if spec.baseline:
                shows = parse_sketch(sketch).header.shows
                rules.append(
                    {
                        "match": {"kind": "exact", "pattern": shows},
                        "outcome": {"kind": "hammer", "step": "by (smt (z3) gcd_add1)"},
                    }
                )
            continue
        if spec.id == "numbertheory_g04":
            rules.append(
                {
                    "match": {"kind": "substring", "pattern": "9 * 999"},
                    "outcome": {"kind": "timeout"},
                }
            )
        if any(kind == GOOD for kind in (spec.sketch_kind(i) for i in range(5))) or not spec.behavior:
            outcome = (
                {"kind": "hammer", "step": spec.hammer_step}
                if spec.hammer_step
                else {"kind": "tactic", "index": spec.tactic_index}
            )
            rules.append(
                {"match": {"kind": "exact", "pattern": good_gap_prop(spec)}, "outcome": outcome}
            )
        if spec.baseline:
            shows = {
                "algebra": f"x = {spec.n - 7}",
                "numbertheory": f"({spec.m}::nat) mod 9 = {spec.r}",
                "imo": f"(2*n + {spec.a}) mod 2 = 1",
            }[spec.kind]
            rules.append(
                {
                    "match": {"kind": "exact", "pattern": shows},
                    "outcome": {"kind": "hammer", "step": "by (smt (z3) verit_arith)"},
                }
            )
    rules.append(
        {
            "match": {"kind": "exact", "pattern": "?thesis"},
            "outcome": {"kind": "hammer", "step": "by (metis assms)"},
        }
    )
    # trivial goals close immediately (keeps live smoke tests against the
    # reference server honest)
    rules.append(
        {"match": {"kind": "exact", "pattern": "True"}, "outcome": {"kind": "tactic", "index": 0}}
    )
    script = {
        "schema": "prover-script/1",
        "rules": rules,
        "default": {"kind": "fail"},
        "verify": {"default": "accept", "reject_substrings": ["bridge hack"]},
        "latency": {"step_ms": 0, "hammer_ms": 0, "real_sleep": False},
    }
    out = FIXTURES / "prover" / "script.json"
    out.write_text(json.dumps(script, indent=2) + "\n", encoding="utf-8")
    print(f"prover script: {len(rules)} rules -> {out}")


# -- canned completions -------------------------------------------------------------


def make_transport(specs: list[Spec], problems: list[Problem]):
    by_statement = {statement_for(s).rstrip(): s for s in specs}
    drafts = {s.id: drafts_for(s) for s in specs}

    def transport(url: str, headers: dict, payload: dict, timeout_s: float):
        prompt: str = payload["prompt"]
        if prompt.rstrip().endswith("Proof:"):  # drafting cue
            statement = prompt[: prompt.rfind("\n\nProof:")].split("\n\n")[-1]
            spec = next(
                s
                for s, p in zip(specs, problems)
                if p.informal_statement.rstrip() == statement.strip()
            )
            texts = drafts[spec.id][: payload["n"]]
            return 200, {"choices": [{"text": t} for t in texts]}
        # sketching: identify the target problem and which draft is shown
        tail = prompt[prompt.rfind("Formal Statement:\n") + len("Formal Statement:\n") :]
        statement = tail[: tail.rfind("\n\nFormal Proof Sketch:")]
        spec = by_statement[statement.strip()]
        shown_draft = None
        for i, text in enumerate(drafts[spec.id]):
            if text in prompt:
                shown_draft = i
                break
        assert shown_draft is not None, f"no canned draft found in prompt for {spec.id}"
        sketch = sketch_for(spec, spec.sketch_kind(shown_draft))
        return 200, {"choices": [{"text": sketch}]}

    return transport


# -- golden run ---------------------------------------------------------------------


def golden_config() -> dict:
    return {
        "dataset_path": "fixtures/datasets/mini.jsonl",
        "pool_path": "fixtures/pool/examples.json",
        "cache_file": "fixtures/cache/completions.jsonl",
        "prover": "scripted:fixtures/prover/script.json",
        "endpoint_id": "default",
        "drafts": POLICY["drafts_per_problem"],
        "sketches_per_draft": POLICY["sketches_per_draft"],
        "budget": POLICY["total_budget"],
        "stop_on_first_success": False,
        "draft_source": "model",
        "k_examples": 3,
        "mode": "full",
        "seed": EXPERIMENT_SEED,
    }


def components_for(mode: CacheMode, transport=None) -> PipelineComponents:
    pool = load_pool(FIXTURES / "pool" / "examples.json")
    cache = CompletionCache(FIXTURES / "cache" / "completions.jsonl")
    kwargs = dict(endpoint_id="default", mode=mode, cache=cache)
    if mode is CacheMode.RECORD:
        kwargs.update(endpoint_url="canned://local", transport=transport)
    client = CompletionClient(**kwargs)
    spec = ScriptedSpec(str(FIXTURES / "prover" / "script.json"))
    provider = SessionProvider(lambda: open_session(spec, ProverConfig()))
    return PipelineComponents(
        pool=pool, client=client, sessions=provider, prompt_config=PromptConfig(k_examples=3)
    )


def main() -> int:
    build_pool()
    specs = corpus()
    problems = build_dataset(specs)
    build_script(specs)

    cache_path = FIXTURES / "cache" / "completions.jsonl"
    if cache_path.exists():
        cache_path.unlink()

    policy = BudgetPolicy(
        drafts_per_problem=POLICY["drafts_per_problem"],
        sketches_per_draft=POLICY["sketches_per_draft"],
        total_budget=POLICY["total_budget"],
        stop_on_first_success=False,
        draft_source=DraftSource.MODEL,
    )
    record = components_for(CacheMode.RECORD, make_transport(specs, problems))
    recorded = run_experiment(problems, policy, record, parallelism=1, experiment_seed=EXPERIMENT_SEED)
    print(f"cache: {len(CompletionCache(cache_path))} completions -> {cache_path}")

    # record-mode wall times include real endpoint latency; replay is the
    # deterministic reference, so compare replay against replay
    replayed = run_experiment(
        problems, policy, components_for(CacheMode.REPLAY), parallelism=1, experiment_seed=EXPERIMENT_SEED
    )
    again = run_experiment(
        problems, policy, components_for(CacheMode.REPLAY), parallelism=1, experiment_seed=EXPERIMENT_SEED
    )
    assert again == replayed, "two sequential replays disagree"
    assert {r.problem_id: r.solved for r in recorded} == {
        r.problem_id: r.solved for r in replayed
    }, "replay changes outcomes relative to the recorded run"
    parallel = run_experiment(
        problems, policy, components_for(CacheMode.REPLAY), parallelism=8, experiment_seed=EXPERIMENT_SEED
    )
    assert parallel == replayed, "parallel replay disagrees with sequential replay"

    export_records(replayed, FIXTURES / "golden" / "records.jsonl")
    baseline = run_experiment(
        problems, None, components_for(CacheMode.REPLAY), parallelism=1, experiment_seed=EXPERIMENT_SEED
    )
    export_records(baseline, FIXTURES / "golden" / "records_baseline.jsonl")
    (FIXTURES / "golden" / "config.json").write_text(
        json.dumps(golden_config(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    solved = {r.problem_id for r in replayed if r.solved}
    base_solved = {r.problem_id for r in baseline if r.solved}
    print(f"golden: pipeline solves {len(solved)}/20, baseline solves {len(base_solved)}/20")
    assert base_solved < solved, "baseline must solve a strict subset"
    print("golden records -> fixtures/golden/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

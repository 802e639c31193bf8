"""Command-line entry point.

One subcommand per pipeline stage (draft, sketch, prove) plus the full
experiment loop (run) and evaluation outputs (eval, curve). `draft` samples
`drafts` per problem with the pipeline's own `scheduler.sample_drafts`, and
`sketch` builds its request with `scheduler.sketch_request` and the same
prompt settings as `run`, so both use `run`'s cached completions and
`--show-prompt` prints what `run` sends for that (problem, draft, sketch
index). Values resolve as: built-in defaults, then the --config file, then
explicit flags; the effective configuration is echoed into the run manifest
together with its hash. Exit codes: 0 success, 1 infrastructure failure, 2
configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from contextlib import closing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import harness
from .llm import (
    CacheMiss,
    CacheMode,
    CompletionCache,
    CompletionClient,
    EndpointError,
    Timeout,
    cache_mode_from_env,
)
from .prompting import (
    MissingFullProof,
    PoolFormatError,
    PoolTooSmall,
    PromptConfig,
    PromptMode,
    load_pool,
)
from .prover import (
    Closed,
    ConnectError,
    ExternalSpec,
    FullProofResult,
    ProverConfig,
    ScriptError,
    ScriptedSpec,
    SessionDead,
    open_session,
    prove_sketch,
)
from .scheduler import (
    BudgetExceeded,
    BudgetPolicy,
    DraftSource,
    PipelineComponents,
    SessionProvider,
    derive_seed,
    infra_failures,
    run_experiment,
    sample_drafts,
    sketch_request,
)
from .sketch import count_gaps, parse_sketch
from .sketch.parser import ParseError

EXIT_OK = 0
EXIT_INFRA = 1
EXIT_CONFIG = 2


@dataclass
class CliConfig:
    dataset_path: str = "fixtures/datasets/mini.jsonl"
    pool_path: str = "fixtures/pool/examples.json"
    cache_mode: str = "replay"
    cache_file: str = "fixtures/cache/completions.jsonl"
    endpoint_url: str | None = None
    endpoint_id: str = "default"
    auth_env: str = "COMPLETION_API_KEY"
    prover: str = "scripted:fixtures/prover/script.json"
    drafts: int = 5
    sketches_per_draft: int = 2
    budget: int = 100
    stop_on_first_success: bool = True
    draft_source: str = "model"
    k_examples: int = 3
    mode: str = "full"
    max_prompt_chars: int | None = None
    tactic_timeout_ms: int = 10_000
    hammer_timeout_ms: int = 120_000
    per_gap_budget_ms: int = 235_000
    out: str = "out"
    seed: int = 0
    jobs: int = 1

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class ConfigError(Exception):
    pass


def _load_config(config_file: str | None, flag_values: dict) -> CliConfig:
    """defaults <- config file <- flags, rejecting unknown keys."""
    known = {f.name for f in dataclasses.fields(CliConfig)}
    merged: dict = {}
    if config_file:
        try:
            raw = json.loads(Path(config_file).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(raw)
    merged.update({k: v for k, v in flag_values.items() if v is not None and k in known})
    try:
        return CliConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc))


def _build_client(config: CliConfig) -> CompletionClient:
    mode = CacheMode(config.cache_mode)
    cache = CompletionCache(config.cache_file) if mode is not CacheMode.LIVE else None
    return CompletionClient(
        endpoint_url=config.endpoint_url,
        endpoint_id=config.endpoint_id,
        auth_env=config.auth_env,
        mode=mode,
        cache=cache,
    )


def _prover_spec(config: CliConfig):
    kind, _, rest = config.prover.partition(":")
    if kind == "scripted" and rest:
        return ScriptedSpec(rest)
    if kind == "external" and rest:
        return ExternalSpec(rest)
    raise ConfigError(f"--prover must be scripted:<path> or external:<addr>, got {config.prover!r}")


def _prover_config(config: CliConfig) -> ProverConfig:
    return ProverConfig(
        tactic_timeout_ms=config.tactic_timeout_ms,
        hammer_timeout_ms=config.hammer_timeout_ms,
        per_gap_budget_ms=config.per_gap_budget_ms,
    )


def _prompt_config(config: CliConfig) -> PromptConfig:
    return PromptConfig(
        k_examples=config.k_examples,
        mode=PromptMode(config.mode),
        rng_seed=config.seed,
        max_prompt_chars=config.max_prompt_chars,
    )


def _components(config: CliConfig) -> PipelineComponents:
    pool = load_pool(config.pool_path)
    client = _build_client(config)
    spec = _prover_spec(config)
    prover_config = _prover_config(config)
    provider = SessionProvider(lambda: open_session(spec, prover_config))
    return PipelineComponents(
        pool=pool, client=client, sessions=provider, prompt_config=_prompt_config(config)
    )


def _policy(config: CliConfig) -> BudgetPolicy:
    return BudgetPolicy(
        drafts_per_problem=config.drafts,
        sketches_per_draft=config.sketches_per_draft,
        total_budget=config.budget,
        stop_on_first_success=config.stop_on_first_success,
        draft_source=DraftSource(config.draft_source),
    )


def _problems_by_id(config: CliConfig) -> dict:
    return {p.id: p for p in harness.load_dataset(config.dataset_path)}


# -- commands -----------------------------------------------------------------


def cmd_draft(config: CliConfig, args: argparse.Namespace) -> int:
    problems = _problems_by_id(config)
    wanted = args.problem_ids.split(",") if args.problem_ids else sorted(problems)
    missing = [pid for pid in wanted if pid not in problems]
    if missing:
        raise ConfigError(f"unknown problem ids: {missing}")
    out_dir = Path(config.out) / "drafts"
    if config.drafts <= 0:
        print("drafts=0: nothing to sample")
        return EXIT_OK
    with closing(_build_client(config)) as client:
        for pid in wanted:
            drafts, sampled = sample_drafts(client, problems[pid], config.drafts)
            target = out_dir / pid
            target.mkdir(parents=True, exist_ok=True)
            for i, text in enumerate(drafts):
                (target / f"draft_{i:04d}.txt").write_text(text, encoding="utf-8")
            print(f"{pid}: {len(drafts)} drafts ({sampled - len(drafts)} duplicates dropped)")
    return EXIT_OK


def cmd_sketch(config: CliConfig, args: argparse.Namespace) -> int:
    problems = _problems_by_id(config)
    if args.problem_id not in problems:
        raise ConfigError(f"unknown problem id {args.problem_id!r}")
    problem = problems[args.problem_id]
    draft_file = Path(config.out) / "drafts" / args.problem_id / f"draft_{args.draft_id:04d}.txt"
    if not draft_file.exists():
        raise ConfigError(f"draft not found: {draft_file} (run the draft command first)")
    draft = draft_file.read_text(encoding="utf-8")

    pool = load_pool(config.pool_path)
    seed = derive_seed(config.seed, problem.id, args.draft_id, args.sketch_index)
    with closing(_build_client(config)) as client:
        request = sketch_request(pool, problem, draft, _prompt_config(config), seed, client.endpoint_id)
        if args.show_prompt:
            print("--- prompt ---")
            print(request.prompt)
            print("--- end prompt ---")
        response = client.complete(request)
    sketch_text = response.completions[0]
    print(sketch_text)
    try:
        ast = parse_sketch(sketch_text)
    except ParseError as exc:
        print(f"parse: FAILED ({exc})")
        return EXIT_OK  # the report conveys the failure; only infra errors are nonzero
    print(f"parse: ok, gaps: {count_gaps(ast)}")
    return EXIT_OK


def cmd_prove(config: CliConfig, args: argparse.Namespace) -> int:
    try:
        text = Path(args.sketch_file).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read sketch file: {exc}")
    try:
        ast = parse_sketch(text)
    except ParseError as exc:
        print(f"parse: FAILED ({exc})")
        return EXIT_OK
    session = open_session(_prover_spec(config), _prover_config(config))
    try:
        outcome = prove_sketch(session, ast)
    finally:
        session.close()
    if isinstance(outcome, FullProofResult):
        print(f"proved: {len(outcome.per_gap)} gaps closed")
        print(outcome.proof_text)
    else:
        # a whole-proof failure names its check (cheat gate or final check) in its reason
        where = "" if outcome.failed_site is None else f" (gap {list(outcome.failed_site.path)})"
        print(f"not proved{where}: {outcome.reason}")
        closed = sum(1 for r in outcome.partial if isinstance(r, Closed))
        print(f"gaps closed before failure: {closed}")
    return EXIT_OK


def cmd_run(config: CliConfig, args: argparse.Namespace) -> int:
    problems = harness.load_dataset(config.dataset_path)
    components = _components(config)
    policy = None if args.baseline else _policy(config)
    started = time.monotonic()
    with closing(components.client):
        results = run_experiment(
            problems, policy, components, parallelism=config.jobs, experiment_seed=config.seed
        )
    elapsed_ms = int((time.monotonic() - started) * 1000)

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / ("records_baseline.jsonl" if args.baseline else "records.jsonl")
    harness.export_records(results, records_path)
    failures = infra_failures(results)
    harness.write_manifest(
        out_dir / "manifest.json",
        config=config.as_dict() | {"baseline": args.baseline},
        created_at=datetime.now(timezone.utc).isoformat(),
        timings_ms={"total": elapsed_ms},
        infra_errors=failures,
    )
    for split, solved, total, rate in harness.split_tally(results, problems):
        print(f"{split.value}: {solved}/{total} solved ({harness.format_rate(rate)})")
    print(f"records: {records_path}")
    attempts = [a for r in results for a in r.attempts]
    infra = sum(a.failure_stage is harness.FailureStage.INFRA for a in attempts)
    if infra:
        print(
            f"attempts failed on infrastructure errors: {infra} of {len(attempts)}",
            file=sys.stderr,
        )
    if failures:
        print(f"problems aborted on infrastructure errors: {sorted(failures)}", file=sys.stderr)
    return EXIT_INFRA if infra or failures else EXIT_OK


def cmd_eval(config: CliConfig, args: argparse.Namespace) -> int:
    problems = harness.load_dataset(config.dataset_path)
    results = harness.import_records(args.records)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "table.csv"
    harness.export_table_csv(results, problems, table_path)
    for split, solved, total, rate in harness.split_tally(results, problems):
        print(f"{split.value}: {solved}/{total} ({harness.format_rate(rate)})")
    print(f"table: {table_path}")
    return EXIT_OK


def cmd_curve(config: CliConfig, args: argparse.Namespace) -> int:
    results = harness.import_records(args.records)
    curve = harness.cumulative_curve(results, args.max_attempts)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "curve.csv"
    harness.export_curve_csv(curve, curve_path)
    print(f"curve: {curve_path} ({len(curve.points)} rows, final value {curve.points[-1] if curve.points else 0})")
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchprove",
        description="draft, sketch, and prove: informal proofs to checked formal proofs",
    )
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--dataset", dest="dataset_path", help="problem dataset (JSONL)")
    parser.add_argument("--pool", dest="pool_path", help="example pool (JSON)")
    parser.add_argument("--cache-mode", dest="cache_mode", choices=["live", "record", "replay"])
    parser.add_argument("--cache-file", dest="cache_file", help="completion cache (JSONL)")
    parser.add_argument("--endpoint-url", dest="endpoint_url", help="completion endpoint URL")
    parser.add_argument("--endpoint-id", dest="endpoint_id", help="endpoint id for cache keys")
    parser.add_argument("--auth-env", dest="auth_env", help="env var holding the API token")
    parser.add_argument("--prover", help="scripted:<path> or external:<addr>")
    parser.add_argument("--drafts", type=int, help="drafts per problem")
    parser.add_argument("--sketches-per-draft", dest="sketches_per_draft", type=int)
    parser.add_argument("--budget", type=int, help="total attempts per problem")
    parser.add_argument(
        "--no-early-stop",
        dest="stop_on_first_success",
        action="store_const",
        const=False,
        help="run the whole plan even after a success",
    )
    parser.add_argument("--draft-source", dest="draft_source", choices=["human", "model"])
    parser.add_argument("--k-examples", dest="k_examples", type=int)
    parser.add_argument("--mode", choices=[m.value for m in PromptMode])
    parser.add_argument("--seed", type=int, help="experiment seed")
    parser.add_argument("--jobs", type=int, help="parallel workers")
    parser.add_argument("--out", help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p_draft = sub.add_parser("draft", help="sample informal proof drafts")
    p_draft.add_argument("--problem-ids", help="comma-separated ids (default: all)")
    p_draft.set_defaults(func=cmd_draft)

    p_sketch = sub.add_parser("sketch", help="autoformalize one draft into a sketch")
    p_sketch.add_argument("--problem-id", required=True)
    p_sketch.add_argument("--draft-id", type=int, default=0)
    p_sketch.add_argument("--sketch-index", type=int, default=0)
    p_sketch.add_argument("--show-prompt", action="store_true")
    p_sketch.set_defaults(func=cmd_sketch)

    p_prove = sub.add_parser("prove", help="close the gaps of a sketch file")
    p_prove.add_argument("sketch_file")
    p_prove.set_defaults(func=cmd_prove)

    p_run = sub.add_parser("run", help="full pipeline over the dataset")
    p_run.add_argument(
        "--baseline", action="store_true",
        help="direct baseline: each statement proved as a one-gap sketch",
    )
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="success-rate tables from a records stream")
    p_eval.add_argument("--records", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_curve = sub.add_parser("curve", help="cumulative success curve CSV")
    p_curve.add_argument("--records", required=True)
    p_curve.add_argument("--max-attempts", dest="max_attempts", type=int, default=100)
    p_curve.set_defaults(func=cmd_curve)

    return parser


_CONFIG_FLAGS = {f.name for f in dataclasses.fields(CliConfig)}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items() if k in _CONFIG_FLAGS}
    if args.cache_mode is None and "DSP_CACHE_MODE" in os.environ:
        flag_values["cache_mode"] = cache_mode_from_env().value
    try:
        config = _load_config(args.config, flag_values)
        return args.func(config, args)
    except (
        ConfigError,
        BudgetExceeded,
        PoolFormatError,
        PoolTooSmall,
        MissingFullProof,
        harness.SchemaError,
        harness.DuplicateId,
        harness.MissingResults,
        ValueError,
    ) as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        EndpointError,
        CacheMiss,
        Timeout,
        ConnectError,
        ScriptError,
        SessionDead,
        OSError,
    ) as exc:
        print(f"error[infra]: {exc}", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    raise SystemExit(main())

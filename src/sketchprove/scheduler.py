"""Attempt budgeting and pipeline orchestration.

A budget policy splits the per-problem attempt cap into a drafts-per-problem
by sketches-per-draft grid, enumerated draft-major with one stable prompt
seed per entry. Problems run through draft -> sketch -> prove, recording one
attempt per grid entry; a worker pool runs problems in parallel with one
prover session per worker, and results are a pure function of inputs, seed,
caches, and scripts, independent of worker count.
"""

from __future__ import annotations

import hashlib
import logging
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .harness import AttemptRecord, FailureStage, Problem, ProblemResult
from .llm import (
    CacheMiss,
    CompletionClient,
    CompletionRequest,
    EndpointError,
    Timeout,
    dedup,
    draft_preset,
    sketch_preset,
)
from .prompting import (
    ExamplePool,
    MissingFullProof,
    PoolTooSmall,
    PromptConfig,
    PromptMode,
    apply_mode,
    build_draft_prompt,
    build_sketch_prompt,
    infer_category,
    select_examples,
)
from .prover import (
    CheatViolation,
    Closed,
    FullProofResult,
    ProverSession,
    SessionDead,
    SessionState,
    Valid,
    direct_prove,
    prove_sketch,
)
from .sketch import count_gaps, parse_sketch
from .sketch.parser import ParseError

logger = logging.getLogger(__name__)


class DraftSource(str, Enum):
    HUMAN = "human"
    MODEL = "model"


@dataclass
class BudgetExceeded(Exception):
    planned: int
    budget: int

    def __str__(self) -> str:
        return f"plan of {self.planned} attempts exceeds the budget of {self.budget}"


@dataclass(frozen=True)
class BudgetPolicy:
    drafts_per_problem: int
    sketches_per_draft: int
    total_budget: int = 100
    stop_on_first_success: bool = True
    draft_source: DraftSource = DraftSource.MODEL

    def __post_init__(self) -> None:
        if self.drafts_per_problem < 1 or self.sketches_per_draft < 1:
            raise ValueError("draft and sketch counts must be >= 1")
        if self.total_budget < 1:
            raise ValueError("total_budget must be >= 1")
        if self.draft_source is DraftSource.HUMAN and self.drafts_per_problem != 1:
            raise ValueError("a human informal proof is a single draft")


@dataclass(frozen=True)
class AttemptPlan:
    entries: tuple[tuple[int, int, int], ...]  # (draft_index, sketch_index, prompt_seed)


def derive_seed(experiment_seed: int, problem_id: str, draft_index: int, sketch_index: int) -> int:
    """Stable per-attempt seed; no global RNG state involved."""
    payload = f"{experiment_seed}|{problem_id}|{draft_index}|{sketch_index}"
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_plan(policy: BudgetPolicy, experiment_seed: int, problem_id: str) -> AttemptPlan:
    """Draft-major enumeration of the full attempt grid."""
    planned = policy.drafts_per_problem * policy.sketches_per_draft
    if planned > policy.total_budget:
        raise BudgetExceeded(planned, policy.total_budget)
    entries = tuple(
        (d, s, derive_seed(experiment_seed, problem_id, d, s))
        for d in range(policy.drafts_per_problem)
        for s in range(policy.sketches_per_draft)
    )
    return AttemptPlan(entries)


class SessionProvider:
    """One prover session per worker thread; a dead session is replaced on
    the next request."""

    def __init__(self, factory: Callable[[], ProverSession]):
        self._factory = factory
        self._local = threading.local()

    def get(self) -> ProverSession:
        session = getattr(self._local, "session", None)
        if session is None or session.state is SessionState.DEAD:
            session = self._factory()
            self._local.session = session
        return session


@dataclass
class PipelineComponents:
    pool: ExamplePool
    client: CompletionClient
    sessions: SessionProvider
    prompt_config: PromptConfig
    draft_examples: tuple[tuple[str, str], ...] = ()
    draft_max_tokens: int = 1024
    max_session_reopens: int = 2


def _skipped(problem_id: str, entry: tuple[int, int, int], stage: FailureStage) -> AttemptRecord:
    draft_index, sketch_index, seed = entry
    return AttemptRecord(
        problem_id=problem_id,
        draft_index=draft_index,
        sketch_index=sketch_index,
        parse_ok=False,
        gaps_total=0,
        gaps_closed=0,
        success=False,
        failure_stage=stage,
        wall_ms=0,
        prompt_seed=seed,
    )


def _obtain_drafts(
    problem: Problem, policy: BudgetPolicy, components: PipelineComponents
) -> list[str]:
    if policy.draft_source is DraftSource.HUMAN:
        if not problem.informal_proof:
            raise ValueError(f"problem {problem.id!r}: human draft source needs an informal proof")
        return [problem.informal_proof]
    if components.prompt_config.mode is PromptMode.NO_INFORMAL_PROOF:
        # this ablation never shows the draft, so don't sample any
        return [""]
    prompt = build_draft_prompt(problem, components.draft_examples)
    request = CompletionRequest(
        prompt=prompt,
        config=draft_preset(n=policy.drafts_per_problem, max_tokens=components.draft_max_tokens),
        endpoint_id=components.client.endpoint_id,
    )
    response = components.client.complete(request)
    return dedup(response.completions)


def _run_attempt(
    problem: Problem,
    draft: str,
    entry: tuple[int, int, int],
    components: PipelineComponents,
    session: ProverSession,
) -> AttemptRecord:
    """One (draft, sketch) attempt. Raises SessionDead for the caller's
    reopen logic; every other failure becomes a stage-tagged record."""
    draft_index, sketch_index, seed = entry
    config = components.prompt_config

    def failed(stage: FailureStage, parse_ok=False, gaps_total=0, gaps_closed=0, wall_ms=0):
        return AttemptRecord(
            problem_id=problem.id,
            draft_index=draft_index,
            sketch_index=sketch_index,
            parse_ok=parse_ok,
            gaps_total=gaps_total,
            gaps_closed=gaps_closed,
            success=False,
            failure_stage=stage,
            wall_ms=wall_ms,
            prompt_seed=seed,
        )

    try:
        examples = select_examples(
            components.pool, problem.id, infer_category(problem.id), config, random.Random(seed)
        )
        shown = [apply_mode(quad, config.mode) for quad in examples]
        prompt = build_sketch_prompt(shown, problem, draft, config)
    except (PoolTooSmall, MissingFullProof) as exc:
        logger.warning("problem %s: prompt build failed: %s", problem.id, exc)
        return failed(FailureStage.PROMPT_BUILD)

    request = CompletionRequest(
        prompt=prompt, config=sketch_preset(), endpoint_id=components.client.endpoint_id
    )
    try:
        response = components.client.complete(request)
    except (CacheMiss, EndpointError, Timeout) as exc:
        logger.warning("problem %s: sketch completion failed: %s", problem.id, exc)
        return failed(FailureStage.INFRA)
    wall_ms = response.latency_ms

    try:
        ast = parse_sketch(response.completions[0])
    except ParseError:
        return failed(FailureStage.PARSE, wall_ms=wall_ms)

    gaps_total = count_gaps(ast)
    try:
        outcome = prove_sketch(session, ast)
    except CheatViolation:
        # invalid regardless of what a prover would say; it was never consulted
        return failed(FailureStage.VERIFY, parse_ok=True, gaps_total=gaps_total, wall_ms=wall_ms)
    if isinstance(outcome, FullProofResult):
        wall_ms += sum(r.elapsed_ms for r in outcome.per_gap if isinstance(r, Closed))
        return AttemptRecord(
            problem_id=problem.id,
            draft_index=draft_index,
            sketch_index=sketch_index,
            parse_ok=True,
            gaps_total=gaps_total,
            gaps_closed=gaps_total,
            success=True,
            failure_stage=None,
            wall_ms=wall_ms,
            prompt_seed=seed,
        )
    closed = sum(1 for r in outcome.partial if isinstance(r, Closed))
    wall_ms += sum(r.elapsed_ms for r in outcome.partial)
    stage = FailureStage.VERIFY if outcome.failed_site is None else FailureStage.PROVE
    return failed(stage, parse_ok=True, gaps_total=gaps_total, gaps_closed=closed, wall_ms=wall_ms)


def run_problem(
    problem: Problem,
    policy: BudgetPolicy,
    components: PipelineComponents,
    experiment_seed: int = 0,
) -> ProblemResult:
    """Execute the attempt plan for one problem. Early stop (when enabled)
    marks the remaining entries as NotRun; infrastructure trouble aborts the
    problem with an error note instead of fake attempt records."""
    plan = make_plan(policy, experiment_seed, problem.id)
    try:
        drafts = _obtain_drafts(problem, policy, components)
    except (CacheMiss, EndpointError, Timeout) as exc:
        logger.error("problem %s: drafting failed: %s", problem.id, exc)
        return ProblemResult.from_attempts(problem.id, [], infra_error=f"draft stage: {exc}")

    attempts: list[AttemptRecord] = []
    solved = False
    reopens = 0
    for entry in plan.entries:
        if solved and policy.stop_on_first_success:
            attempts.append(_skipped(problem.id, entry, FailureStage.NOT_RUN))
            continue
        if entry[0] >= len(drafts):
            attempts.append(_skipped(problem.id, entry, FailureStage.DRAFT))
            continue
        while True:
            session = components.sessions.get()
            try:
                record = _run_attempt(problem, drafts[entry[0]], entry, components, session)
                break
            except SessionDead as exc:
                reopens += 1
                logger.warning(
                    "problem %s: prover session lost (%s), reopen %d", problem.id, exc, reopens
                )
                if reopens > components.max_session_reopens:
                    return ProblemResult.from_attempts(
                        problem.id, attempts, infra_error=f"prover session lost: {exc}"
                    )
        attempts.append(record)
        solved = solved or record.success
    return ProblemResult.from_attempts(problem.id, attempts)


def run_problem_direct(problem: Problem, components: PipelineComponents) -> ProblemResult:
    """Baseline mode: one direct cascade attempt on the formal statement,
    no drafting or sketching."""
    reopens = 0
    while True:
        session = components.sessions.get()
        try:
            verdict = direct_prove(session, problem.formal_statement)
            break
        except SessionDead as exc:
            reopens += 1
            if reopens > components.max_session_reopens:
                return ProblemResult.from_attempts(
                    problem.id, [], infra_error=f"prover session lost: {exc}"
                )
    ok = isinstance(verdict, Valid)
    record = AttemptRecord(
        problem_id=problem.id,
        draft_index=0,
        sketch_index=0,
        parse_ok=True,
        gaps_total=1,
        gaps_closed=1 if ok else 0,
        success=ok,
        failure_stage=None if ok else FailureStage.PROVE,
        wall_ms=0,
        prompt_seed=0,
    )
    return ProblemResult.from_attempts(problem.id, [record])


def run_experiment(
    problems: Sequence[Problem],
    policy: BudgetPolicy | None,
    components: PipelineComponents,
    parallelism: int = 1,
    experiment_seed: int = 0,
) -> list[ProblemResult]:
    """Run the pipeline (or, with policy=None, the direct baseline) over a
    problem list with a bounded worker pool. Results come back in input
    order and do not depend on the worker count."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def run_one(problem: Problem) -> ProblemResult:
        if policy is None:
            return run_problem_direct(problem, components)
        return run_problem(problem, policy, components, experiment_seed)

    if parallelism == 1 or len(problems) <= 1:
        return [run_one(p) for p in problems]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(run_one, problems))


def infra_failures(results: Sequence[ProblemResult]) -> dict[str, str]:
    """Partial-failure report: problems that aborted on infrastructure
    errors, with the reason."""
    return {r.problem_id: r.infra_error for r in results if r.infra_error is not None}

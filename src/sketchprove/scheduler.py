"""Attempt budgeting and pipeline orchestration.

A budget policy splits the per-problem attempt cap into a drafts-per-problem
by sketches-per-draft grid, enumerated draft-major with one stable prompt
seed per entry. Problems run through draft -> sketch -> prove, recording one
attempt per grid entry; a worker pool runs problems in parallel with one
prover session per worker, and results are a pure function of inputs, seed,
caches, and scripts, independent of worker count.

A sketch prompt depends only on the problem, the draft and the entry's
seed, so while a worker proves one attempt it keeps the next
`max_in_flight` sketch requests in flight at the endpoint. It still
consumes their completions in plan order (so record mode writes the cache
in plan order), and an early stop cancels the requests not yet started.

`sample_drafts` and `sketch_request` build each LLM stage's request for the
pipeline and for the CLI's `draft` and `sketch` alike, so all of them use
the same cache keys. The direct baseline proves the formal statement as a
sketch whose whole proof is one gap, so both arms prove and record through
`_prove_attempt`, and both run their prover work through one reopen loop: a
lost session is replaced and the proof run again (never the completion
request), until the problem's reopen budget is spent and the problem aborts
as an infrastructure error.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import logging
import random
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence, TypeVar

from .harness import AttemptRecord, FailureStage, Problem, ProblemResult
from .llm import (
    CacheMiss,
    CompletionClient,
    CompletionRequest,
    CompletionResponse,
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
    Closed,
    FullProofResult,
    ProverSession,
    SessionDead,
    SessionState,
    prove_sketch,
)
from .sketch import Gap, SketchAst, count_gaps, parse_sketch
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
    """One prover session per worker thread; a dead session is closed and
    replaced on the next request, and `close` closes every open one."""

    def __init__(self, factory: Callable[[], ProverSession]):
        self._factory = factory
        self._local = threading.local()
        self._lock = threading.Lock()  # worker threads open sessions concurrently
        self._open: set[ProverSession] = set()

    def get(self) -> ProverSession:
        session = getattr(self._local, "session", None)
        if session is None or session.state is SessionState.DEAD:
            if session is not None:
                session.close()  # a dead stdio backend still has a child process
            replaced, session = session, self._factory()
            with self._lock:
                self._open.discard(replaced)
                self._open.add(session)
            self._local.session = session
        return session

    def close(self) -> None:
        with self._lock:
            sessions, self._open = self._open, set()
        for session in sessions:
            session.close()


@dataclass
class PipelineComponents:
    pool: ExamplePool
    client: CompletionClient
    sessions: SessionProvider
    prompt_config: PromptConfig
    max_session_reopens: int = 2


def _attempt_record(
    problem_id: str,
    entry: tuple[int, int, int],
    stage: FailureStage | None,
    parse_ok: bool = False,
    gaps_total: int = 0,
    gaps_closed: int = 0,
    wall_ms: int = 0,
) -> AttemptRecord:
    """The record of one plan entry; a stage of None marks a success."""
    draft_index, sketch_index, seed = entry
    return AttemptRecord(
        problem_id=problem_id,
        draft_index=draft_index,
        sketch_index=sketch_index,
        parse_ok=parse_ok,
        gaps_total=gaps_total,
        gaps_closed=gaps_closed,
        success=stage is None,
        failure_stage=stage,
        wall_ms=wall_ms,
        prompt_seed=seed,
    )


T = TypeVar("T")


def _on_session(
    problem_id: str,
    components: PipelineComponents,
    reopens: Iterator[int],
    work: Callable[[ProverSession], T],
) -> T:
    """Run `work` on the worker's prover session, reopening a lost session
    and running it again. `reopens` numbers the problem's reopens; the loss
    that spends its budget raises SessionDead."""
    while True:
        try:
            return work(components.sessions.get())
        except SessionDead as exc:
            reopen = next(reopens)
            logger.warning(
                "problem %s: prover session lost (%s), reopen %d", problem_id, exc, reopen
            )
            if reopen > components.max_session_reopens:
                raise


def _session_lost(
    problem_id: str, attempts: Sequence[AttemptRecord], exc: SessionDead
) -> ProblemResult:
    return ProblemResult(problem_id, tuple(attempts), infra_error=f"prover session lost: {exc}")


def sample_drafts(client: CompletionClient, problem: Problem, n: int) -> tuple[list[str], int]:
    """Sample `n` informal drafts for a problem. Returns the distinct drafts
    in sampling order and the number of completions the endpoint gave."""
    request = CompletionRequest(
        prompt=build_draft_prompt(problem),
        config=draft_preset(n=n),
        endpoint_id=client.endpoint_id,
    )
    completions = client.complete(request).completions
    return dedup(completions), len(completions)


def sketch_request(
    pool: ExamplePool, problem: Problem, draft: str, config: PromptConfig, seed: int, endpoint_id: str
) -> CompletionRequest:
    """The sketching request for one draft. Its prompt holds k examples drawn
    with the plan entry's seed, rewritten for the ablation mode, then the
    target problem. Raises PoolTooSmall or MissingFullProof when the pool
    cannot supply them."""
    examples = select_examples(
        pool, problem.id, infer_category(problem.id), config, random.Random(seed)
    )
    shown = [apply_mode(quad, config.mode) for quad in examples]
    prompt = build_sketch_prompt(shown, problem, draft, config)
    return CompletionRequest(prompt=prompt, config=sketch_preset(), endpoint_id=endpoint_id)


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
    return sample_drafts(components.client, problem, policy.drafts_per_problem)[0]


def _prove_attempt(
    problem_id: str, entry: tuple[int, int, int], ast: SketchAst, session: ProverSession,
    wall_ms: int = 0,
) -> AttemptRecord:
    """Prove a parsed sketch and record the outcome, adding each gap's
    prover time to the `wall_ms` spent before. A whole-proof failure (cheat
    gate or final check) records `verify`, a gap that stays open `prove`."""
    gaps_total = count_gaps(ast)
    outcome = prove_sketch(session, ast)
    if isinstance(outcome, FullProofResult):
        stage, per_gap = None, outcome.per_gap
    else:
        stage = FailureStage.VERIFY if outcome.failed_site is None else FailureStage.PROVE
        per_gap = outcome.partial
    return _attempt_record(
        problem_id, entry, stage,
        parse_ok=True,
        gaps_total=gaps_total,
        gaps_closed=sum(1 for r in per_gap if isinstance(r, Closed)),
        wall_ms=wall_ms + sum(r.elapsed_ms for r in per_gap),
    )


# a plan entry's sketch request and what `submit` gave for it, or its
# record when it needs no completion
Fetched = AttemptRecord | tuple[CompletionRequest, Future[CompletionResponse] | None]


def _fetch_sketches(
    problem: Problem, drafts: Sequence[str], entries: Sequence[tuple[int, int, int]],
    components: PipelineComponents,
) -> Iterator[Fetched]:
    """Each plan entry's `Fetched`, in plan order: a record when the entry
    has no such draft or no prompt. Keeps the client's `fetch_ahead` later
    entries started, so their completions arrive while this one is proved;
    closing the generator cancels the requests not yet started."""
    client = components.client

    def start(entry: tuple[int, int, int]) -> Fetched:
        if entry[0] >= len(drafts):
            return _attempt_record(problem.id, entry, FailureStage.DRAFT)
        try:
            request = sketch_request(
                components.pool, problem, drafts[entry[0]], components.prompt_config, entry[2],
                client.endpoint_id,
            )
        except (PoolTooSmall, MissingFullProof) as exc:
            logger.warning("problem %s: prompt build failed: %s", problem.id, exc)
            return _attempt_record(problem.id, entry, FailureStage.PROMPT_BUILD)
        return request, client.submit(request)

    upcoming = map(start, entries)
    started = deque(itertools.islice(upcoming, client.fetch_ahead))
    try:
        for fetched in upcoming:
            started.append(fetched)
            yield started.popleft()
        while started:
            yield started.popleft()
    finally:
        for fetched in started:
            if isinstance(fetched, tuple) and fetched[1] is not None:
                fetched[1].cancel()


def _run_attempt(
    problem_id: str,
    entry: tuple[int, int, int],
    fetched: Fetched,
    components: PipelineComponents,
    reopens: Iterator[int],
) -> AttemptRecord:
    """One (draft, sketch) attempt: collect its completion, parse it and
    prove it, reopening a lost session for the proof alone. Raises
    SessionDead once the problem's reopen budget is spent; every other
    failure becomes a stage-tagged record."""
    if isinstance(fetched, AttemptRecord):
        return fetched
    request, future = fetched
    try:
        response = components.client.collect(request, future)
    except (CacheMiss, EndpointError, Timeout) as exc:
        logger.warning("problem %s: sketch completion failed: %s", problem_id, exc)
        return _attempt_record(problem_id, entry, FailureStage.INFRA)
    try:
        ast = parse_sketch(response.completions[0])
    except ParseError:
        return _attempt_record(problem_id, entry, FailureStage.PARSE, wall_ms=response.latency_ms)
    return _on_session(
        problem_id, components, reopens,
        lambda session: _prove_attempt(problem_id, entry, ast, session, response.latency_ms),
    )


def run_problem(
    problem: Problem,
    policy: BudgetPolicy,
    components: PipelineComponents,
    experiment_seed: int = 0,
) -> ProblemResult:
    """Execute the attempt plan for one problem, in plan order, with later
    sketch completions fetched ahead. Early stop (when enabled) marks the
    remaining entries as NotRun; infrastructure trouble aborts the problem
    with an error note instead of fake attempt records."""
    plan = make_plan(policy, experiment_seed, problem.id)
    try:
        drafts = _obtain_drafts(problem, policy, components)
    except (CacheMiss, EndpointError, Timeout) as exc:
        logger.error("problem %s: drafting failed: %s", problem.id, exc)
        return ProblemResult(problem.id, (), infra_error=f"draft stage: {exc}")

    attempts: list[AttemptRecord] = []
    reopens = itertools.count(1)
    with contextlib.closing(_fetch_sketches(problem, drafts, plan.entries, components)) as fetches:
        for entry, fetched in zip(plan.entries, fetches):
            try:
                record = _run_attempt(problem.id, entry, fetched, components, reopens)
            except SessionDead as exc:
                return _session_lost(problem.id, attempts, exc)
            attempts.append(record)
            if record.success and policy.stop_on_first_success:
                break
    attempts += (
        _attempt_record(problem.id, entry, FailureStage.NOT_RUN)
        for entry in plan.entries[len(attempts):]
    )
    return ProblemResult(problem.id, tuple(attempts))


def baseline_sketch(formal_statement: str) -> SketchAst:
    """The direct baseline's sketch: the statement's theorem with its whole
    proof left as one gap. Raises ParseError when the statement does not
    parse."""
    return SketchAst(parse_sketch(formal_statement).header, root_justification=Gap())


def run_problem_direct(problem: Problem, components: PipelineComponents) -> ProblemResult:
    """Baseline mode: one attempt that proves the formal statement as a
    one-gap sketch, with no drafting or sketching. Its record is made by
    the pipeline's rule: `prove` when the gap stays open, `verify` when the
    cheat gate or the final check refuses the proof, and a `wall_ms` of the
    prover's time. A statement that does not parse fails as `parse`."""
    entry = (0, 0, 0)
    try:
        ast = baseline_sketch(problem.formal_statement)
    except ParseError:
        return ProblemResult(problem.id, (_attempt_record(problem.id, entry, FailureStage.PARSE),))
    try:
        record = _on_session(
            problem.id, components, itertools.count(1),
            lambda session: _prove_attempt(problem.id, entry, ast, session),
        )
    except SessionDead as exc:
        return _session_lost(problem.id, [], exc)
    return ProblemResult(problem.id, (record,))


def run_experiment(
    problems: Sequence[Problem],
    policy: BudgetPolicy | None,
    components: PipelineComponents,
    parallelism: int = 1,
    experiment_seed: int = 0,
) -> list[ProblemResult]:
    """Run the pipeline (or, with policy=None, the direct baseline) over a
    problem list with a bounded worker pool. Results come back in input
    order and do not depend on the worker count. Every prover session the
    run opened is closed when it returns or raises."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def run_one(problem: Problem) -> ProblemResult:
        if policy is None:
            return run_problem_direct(problem, components)
        return run_problem(problem, policy, components, experiment_seed)

    try:
        if parallelism == 1 or len(problems) <= 1:
            return [run_one(p) for p in problems]
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(run_one, problems))
    finally:
        components.sessions.close()


def infra_failures(results: Sequence[ProblemResult]) -> dict[str, str]:
    """Partial-failure report: problems that aborted on infrastructure
    errors, with the reason."""
    return {r.problem_id: r.infra_error for r in results if r.infra_error is not None}

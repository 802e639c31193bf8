"""Attempt budgeting and pipeline orchestration.

A budget policy splits the per-problem attempt cap into a drafts-per-problem
by sketches-per-draft grid, enumerated draft-major with one stable prompt
seed per entry. Problems run through draft -> sketch -> prove, recording one
attempt per grid entry; a worker pool runs problems in parallel with one
prover session per worker, and results are a pure function of inputs, seed,
caches, and scripts, independent of worker count.

Each problem's endpoint requests go through one queue. When a worker takes
a problem, the draft requests of the next `parallelism` problems start too,
and each draft's completion starts that problem's first `1 + max_in_flight`
sketch requests. The worker that reaches the problem collects its drafts,
then each entry's completion in plan order (so record mode writes the cache
in plan order), keeping the next `max_in_flight` entries started under
early stop, so a problem costs at most `1 + max_in_flight` sketch requests,
or with no early stop, where every completion will be used, the whole rest
of its plan. An endpoint slot builds each sketch prompt only when it sends
it. Closing the queue, after a success, an abort or an error, cancels the
requests not yet started and drops the answers not collected.

A sketch must state the problem's own theorem: one whose header differs
from the parsed formal statement is refused before any prover work, since
a weakened statement (say, an added false assumption) would count as a
proof of something else. Each distinct completion is parsed once per
problem; a repeat still goes through `prove_sketch`, which the session
memo answers and which counts the sketch's gaps for its record.

`draft_request` and `sketch_request` build each LLM stage's request for
the pipeline and for the CLI's `draft` and `sketch` alike, so all of them
use the same cache keys. The direct baseline proves the formal statement
as a sketch whose whole proof is one gap, so both arms prove and record
through `_prove_attempt`, and both run their prover work through one
reopen loop: a lost session is replaced and the proof run again (never the
completion request), until the problem's reopen budget is spent and the
problem aborts as an infrastructure error.
"""

from __future__ import annotations

import contextlib
import functools
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

from .errors import ConfigError
from .harness import AttemptRecord, FailureStage, Problem, ProblemResult
from .llm import (
    CompletionClient,
    CompletionError,
    CompletionRequest,
    CompletionResponse,
    Sent,
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
from .sketch import Gap, SketchAst, TheoremHeader, count_gaps, parse_sketch
from .sketch.parser import ParseError

logger = logging.getLogger(__name__)


class DraftSource(str, Enum):
    HUMAN = "human"
    MODEL = "model"


@dataclass
class BudgetExceeded(ConfigError):
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


def derive_seed(experiment_seed: int, problem_id: str, draft_index: int, sketch_index: int) -> int:
    """Stable per-attempt seed; no global RNG state involved."""
    payload = f"{experiment_seed}|{problem_id}|{draft_index}|{sketch_index}"
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_plan(
    policy: BudgetPolicy, experiment_seed: int, problem_id: str
) -> tuple[tuple[int, int, int], ...]:
    """Draft-major enumeration of the full attempt grid: one entry
    (draft_index, sketch_index, prompt_seed) per attempt."""
    planned = policy.drafts_per_problem * policy.sketches_per_draft
    if planned > policy.total_budget:
        raise BudgetExceeded(planned, policy.total_budget)
    return tuple(
        (d, s, derive_seed(experiment_seed, problem_id, d, s))
        for d in range(policy.drafts_per_problem)
        for s in range(policy.sketches_per_draft)
    )


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


def draft_request(problem: Problem, n: int, endpoint_id: str) -> CompletionRequest:
    """The request for `n` informal drafts of a problem."""
    return CompletionRequest(
        prompt=build_draft_prompt(problem), config=draft_preset(n=n), endpoint_id=endpoint_id
    )


def sample_drafts(client: CompletionClient, problem: Problem, n: int) -> tuple[list[str], int]:
    """Sample `n` informal drafts for a problem. Returns the distinct drafts
    in sampling order and the number of completions the endpoint gave."""
    completions = client.complete(draft_request(problem, n, client.endpoint_id)).completions
    return dedup(completions), len(completions)


def sketch_request(
    pool: ExamplePool, problem: Problem, draft: str, config: PromptConfig, seed: int, endpoint_id: str
) -> CompletionRequest:
    """The sketching request for one draft. Its prompt holds k examples drawn
    with the plan entry's seed, in the blocks the pool renders for the
    ablation mode, then the target problem. Raises PoolTooSmall or
    MissingFullProof when the pool cannot supply them."""
    examples = select_examples(
        pool, problem.id, infer_category(problem.id), config, random.Random(seed)
    )
    prompt = build_sketch_prompt(pool.blocks(examples, config.mode), problem, draft, config)
    return CompletionRequest(prompt=prompt, config=sketch_preset(), endpoint_id=endpoint_id)


def _prove_attempt(
    problem_id: str, entry: tuple[int, int, int], ast: SketchAst, session: ProverSession,
    wall_ms: int = 0,
) -> AttemptRecord:
    """Prove a parsed sketch and record the outcome, adding each gap's
    prover time to the `wall_ms` spent before. A whole-proof failure (cheat
    gate or final check) records `verify`, a gap that stays open `prove`.
    The gap count is the one `prove_sketch` walked for, not a walk of its
    own."""
    outcome = prove_sketch(session, ast)
    if isinstance(outcome, FullProofResult):
        stage, per_gap = None, outcome.per_gap
    else:
        stage = FailureStage.VERIFY if outcome.failed_site is None else FailureStage.PROVE
        per_gap = outcome.partial
    return _attempt_record(
        problem_id, entry, stage,
        parse_ok=True,
        gaps_total=outcome.gaps_total,
        gaps_closed=sum(1 for r in per_gap if isinstance(r, Closed)),
        wall_ms=wall_ms + sum(r.elapsed_ms for r in per_gap),
    )


class _ProblemQueue:
    """One problem's endpoint requests: its draft request (none when its
    drafts need no endpoint), then its plan entries' sketch requests,
    started and handed to its worker in plan order. Both the draft's
    completion and the worker call `start` with the plan index to start up
    to: the completion `1 + max_in_flight`, and the worker `1 + ahead` past
    the entry it hands over, where `ahead` is the client's `max_in_flight`
    unless no early stop can waste a completion and it is the whole plan.
    `close` cancels what was started and not handed over; nothing starts
    after it."""

    def __init__(
        self, problem: Problem, policy: BudgetPolicy, components: PipelineComponents,
        seed: int, lock: threading.Lock,
    ):
        self.entries = make_plan(policy, seed, problem.id)  # raises BudgetExceeded first
        self._problem, self._policy, self._components = problem, policy, components
        self._lock = lock  # guards the fields below; one per run, so queues start in turn
        self._started: deque[tuple[Callable[[], CompletionRequest], Future[Sent] | None]] = deque()
        self._next = 0  # every entry before it is started; all but the `_started` handed over
        self._closed = False
        self._draft = self._draft_future = None
        if (
            policy.draft_source is DraftSource.MODEL
            and components.prompt_config.mode is not PromptMode.NO_INFORMAL_PROOF
        ):
            self._draft = functools.partial(
                draft_request, problem, policy.drafts_per_problem, components.client.endpoint_id
            )
            self._draft_future = components.client.submit(self._draft)

    def start_on_draft(self) -> None:
        """Start the first entries once the draft request has completed,
        unless it failed or was cancelled: entries 0 to `max_in_flight`, as
        the worker may have taken some before the future runs its callbacks."""

        def drafted(future: Future[Sent]) -> None:
            if not future.cancelled() and future.exception() is None:
                drafts = dedup(future.result()[0].completions)
                self.start(drafts, 1 + self._components.client.max_in_flight)

        if self._draft_future is not None:
            self._draft_future.add_done_callback(drafted)

    def start(self, drafts: list[str], end: int) -> None:
        """Start the entries before plan index `end` not started yet, in
        plan order. Entries are draft-major, so those with no such draft are
        the plan's tail and never start."""
        components = self._components
        with self._lock:
            while (
                not self._closed and self._next < min(end, len(self.entries))
                and self.entries[self._next][0] < len(drafts)
            ):
                entry = self.entries[self._next]
                build = functools.partial(
                    sketch_request, components.pool, self._problem, drafts[entry[0]],
                    components.prompt_config, entry[2], components.client.endpoint_id,
                )
                self._started.append((build, components.client.submit(build)))
                self._next += 1

    def __iter__(self) -> Iterator[tuple[tuple[int, int, int], AttemptRecord | CompletionResponse]]:
        """For the worker: learn the problem's drafts, then hand over each
        plan entry and its outcome in plan order: its completion, or the
        record of an entry that got none (no such draft, no prompt, or a
        failed request). The drafts are the completions of the draft request
        (whose failure raises CompletionError), the human informal proof,
        or one empty draft in the ablation that never shows a draft."""
        problem, client = self._problem, self._components.client
        if self._draft is not None:
            drafts = dedup(client.collect(self._draft, self._draft_future).completions)
        elif self._policy.draft_source is DraftSource.HUMAN:
            if not problem.informal_proof:
                raise ValueError(f"problem {problem.id!r}: human draft source needs an informal proof")
            drafts = [problem.informal_proof]
        else:
            drafts = [""]
        ahead = client.max_in_flight if self._policy.stop_on_first_success else len(self.entries)
        for index, entry in enumerate(self.entries):
            if entry[0] >= len(drafts):
                yield entry, _attempt_record(problem.id, entry, FailureStage.DRAFT)
                continue
            self.start(drafts, index + 1 + ahead)
            with self._lock:
                build, future = self._started.popleft()
            try:
                outcome = client.collect(build, future)
            except (PoolTooSmall, MissingFullProof) as exc:
                logger.warning("problem %s: prompt build failed: %s", problem.id, exc)
                outcome = _attempt_record(problem.id, entry, FailureStage.PROMPT_BUILD)
            except CompletionError as exc:
                logger.warning("problem %s: sketch completion failed: %s", problem.id, exc)
                outcome = _attempt_record(problem.id, entry, FailureStage.INFRA)
            yield entry, outcome

    def close(self) -> None:
        with self._lock:
            self._closed = True
            left, self._started = self._started, deque()
        for future in (self._draft_future, *(future for _, future in left)):
            if future is not None:
                future.cancel()
        self._draft_future = None  # its done-callback refers back to this queue


def _run_attempt(
    problem_id: str,
    entry: tuple[int, int, int],
    outcome: AttemptRecord | CompletionResponse,
    components: PipelineComponents,
    reopens: Iterator[int],
    statement: TheoremHeader | None,
    parses: dict[str, SketchAst | None],
) -> AttemptRecord:
    """One (draft, sketch) attempt from its queue outcome: a completion is
    parsed (or found in `parses`, the problem's parse of each completion
    seen, None for one that does not parse) and proved, reopening a lost
    session for the proof alone. A sketch whose theorem header is not
    exactly `statement`, the header of the problem's formal statement (None
    when that does not parse), proves another theorem: it fails as `verify`
    before any backend call, like a sketch the cheat gate refuses. Raises
    SessionDead once the problem's reopen budget is spent; every other
    failure becomes a stage-tagged record."""
    if isinstance(outcome, AttemptRecord):
        return outcome
    text = outcome.completions[0]
    if text not in parses:
        try:
            parses[text] = parse_sketch(text)
        except ParseError:
            parses[text] = None
    ast = parses[text]
    if ast is None:
        return _attempt_record(problem_id, entry, FailureStage.PARSE, wall_ms=outcome.latency_ms)
    if ast.header != statement:
        return _attempt_record(
            problem_id, entry, FailureStage.VERIFY, parse_ok=True, gaps_total=count_gaps(ast),
            wall_ms=outcome.latency_ms,
        )
    return _on_session(
        problem_id, components, reopens,
        lambda session: _prove_attempt(problem_id, entry, ast, session, outcome.latency_ms),
    )


@functools.cache
def _statement_header(formal_statement: str) -> TheoremHeader | None:
    """The theorem header of a formal statement, or None when it does not
    parse; each statement is parsed once per process."""
    try:
        return parse_sketch(formal_statement).header
    except ParseError:
        return None


def run_problem(
    problem: Problem,
    policy: BudgetPolicy,
    components: PipelineComponents,
    experiment_seed: int = 0,
    queue: _ProblemQueue | None = None,
) -> ProblemResult:
    """Execute the attempt plan for one problem, in plan order, with later
    sketch completions fetched ahead through `queue`, the problem's queue
    (`run_experiment` makes and starts it ahead, a direct call its own).
    Early stop (when enabled)
    marks the remaining entries as NotRun; infrastructure trouble aborts
    the problem with an error note instead of fake attempt records. Only a
    sketch of the problem's own theorem header is proved; no sketch proves
    a statement that does not parse."""
    statement = _statement_header(problem.formal_statement)
    if queue is None:
        queue = _ProblemQueue(problem, policy, components, experiment_seed, threading.Lock())
        queue.start_on_draft()
    attempts: list[AttemptRecord] = []
    reopens = itertools.count(1)
    parses: dict[str, SketchAst | None] = {}
    with contextlib.closing(queue):
        try:
            for entry, outcome in queue:
                record = _run_attempt(
                    problem.id, entry, outcome, components, reopens, statement, parses
                )
                attempts.append(record)
                if record.success and policy.stop_on_first_success:
                    break
        except CompletionError as exc:  # only the draft request's failure reaches here
            logger.error("problem %s: drafting failed: %s", problem.id, exc)
            return ProblemResult(problem.id, (), infra_error=f"draft stage: {exc}")
        except SessionDead as exc:
            return _session_lost(problem.id, attempts, exc)
    attempts += (
        _attempt_record(problem.id, entry, FailureStage.NOT_RUN)
        for entry in queue.entries[len(attempts):]
    )
    return ProblemResult(problem.id, tuple(attempts))


def baseline_sketch(formal_statement: str) -> SketchAst:
    """The direct baseline's sketch: the statement's theorem with its whole
    proof left as one gap. Raises ParseError when the statement does not
    parse."""
    header = _statement_header(formal_statement)
    if header is None:
        parse_sketch(formal_statement)  # raises its ParseError
    return SketchAst(header, root_justification=Gap())


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
    order and do not depend on the worker count. A problem's endpoint
    work starts when a worker takes the problem `parallelism` places
    before it (see the module docstring). Every prover session the run
    opened is closed, and every request started ahead that no worker
    took is cancelled, when it returns or raises."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    lock = threading.Lock()  # guards `ahead` and every queue's fields, so queues start in turn
    ahead: dict[int, _ProblemQueue] = {}  # made, not taken yet
    next_index = 0  # every problem before it has a queue

    def run_one(index: int) -> ProblemResult:
        nonlocal next_index
        problem = problems[index]
        if policy is None:
            return run_problem_direct(problem, components)
        # make this queue and those of the next `parallelism` problems if
        # they are not made yet; a plan over budget raises BudgetExceeded
        # before any request starts
        with lock:
            made = [
                _ProblemQueue(p, policy, components, experiment_seed, lock)
                for p in problems[next_index:index + parallelism + 1]
            ]
            ahead.update(zip(itertools.count(next_index), made))
            next_index += len(made)
            queue = ahead.pop(index)
        for queued in made:  # once every draft request is queued ahead of them
            queued.start_on_draft()
        return run_problem(problem, policy, components, experiment_seed, queue)

    try:
        # no pool for one worker: a one-thread pool replayed the golden run in
        # process 7-8 % slower pinned to one CPU and 15-31 % slower unpinned
        # (2 vCPUs, Python 3.11; two series of 8 and 40 alternating runs)
        if parallelism == 1 or len(problems) <= 1:
            return [run_one(i) for i in range(len(problems))]
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(run_one, range(len(problems))))
    finally:
        for queue in ahead.values():  # no worker runs now to take one
            queue.close()
        components.sessions.close()


def infra_failures(results: Sequence[ProblemResult]) -> dict[str, str]:
    """Partial-failure report: problems that aborted on infrastructure
    errors, with the reason."""
    return {r.problem_id: r.infra_error for r in results if r.infra_error is not None}

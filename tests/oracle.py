"""Test-side sequential reference for the scheduler: one problem at a time,
one request at a time, as the oracle `run_experiment` is checked against.

It shares the pipeline's building blocks (`make_plan`, `sketch_request`,
`parse_sketch`, `prove_sketch`, `CompletionClient.complete`) but none of
its orchestration: no request is started ahead, every completion is parsed
afresh, and every attempt is proved on a fresh prover session, so no memo
or parse cache carries over. It does not model a lost prover session: a
memo-free run makes other backend calls than the scheduler does, so those
faults stay with the `DyingBackend` tests."""

from __future__ import annotations

from typing import Callable, Sequence

from sketchprove.harness import AttemptRecord, FailureStage, Problem, ProblemResult
from sketchprove.llm import CompletionClient, CompletionError
from sketchprove.prompting import ExamplePool, MissingFullProof, PoolTooSmall, PromptConfig
from sketchprove.prover import Closed, FullProofResult, ProverSession, prove_sketch
from sketchprove.scheduler import BudgetPolicy, make_plan, sample_drafts, sketch_request
from sketchprove.sketch import count_gaps, parse_sketch
from sketchprove.sketch.parser import ParseError


def run_reference(
    problems: Sequence[Problem], policy: BudgetPolicy, pool: ExamplePool,
    client: CompletionClient, prompt_config: PromptConfig,
    open_session: Callable[[], ProverSession], experiment_seed: int,
) -> list[ProblemResult]:
    """Each problem's result, for a policy whose drafts come from the
    endpoint. Every `wall_ms` is 0."""
    return [
        _reference_problem(p, policy, pool, client, prompt_config, open_session, experiment_seed)
        for p in problems
    ]


def _record(problem_id, entry, stage, parse_ok=False, gaps_total=0, gaps_closed=0):
    draft_index, sketch_index, prompt_seed = entry
    return AttemptRecord(
        problem_id, draft_index, sketch_index, parse_ok, gaps_total, gaps_closed,
        stage is None, stage, 0, prompt_seed,
    )


def _reference_problem(problem, policy, pool, client, prompt_config, open_session, seed):
    try:
        drafts, _ = sample_drafts(client, problem, policy.drafts_per_problem)
    except CompletionError as exc:
        return ProblemResult(problem.id, (), infra_error=f"draft stage: {exc}")
    try:
        statement = parse_sketch(problem.formal_statement).header
    except ParseError:
        statement = None
    attempts = []
    for entry in make_plan(policy, seed, problem.id):
        if policy.stop_on_first_success and any(a.success for a in attempts):
            attempts.append(_record(problem.id, entry, FailureStage.NOT_RUN))
            continue
        stage, *counts = _attempt(
            problem, entry, drafts, statement, pool, client, prompt_config, open_session
        )
        attempts.append(_record(problem.id, entry, stage, *counts))
    return ProblemResult(problem.id, tuple(attempts))


def _attempt(problem, entry, drafts, statement, pool, client, prompt_config, open_session):
    """An entry's failure stage (None for a success), whether its sketch
    parsed, and its gap counts."""
    draft_index, _, prompt_seed = entry
    if draft_index >= len(drafts):
        return (FailureStage.DRAFT,)
    try:
        request = sketch_request(
            pool, problem, drafts[draft_index], prompt_config, prompt_seed, client.endpoint_id
        )
    except (PoolTooSmall, MissingFullProof):
        return (FailureStage.PROMPT_BUILD,)
    try:
        text = client.complete(request).completions[0]
    except CompletionError:
        return (FailureStage.INFRA,)
    try:
        ast = parse_sketch(text)
    except ParseError:
        return (FailureStage.PARSE,)
    if ast.header != statement:
        return FailureStage.VERIFY, True, count_gaps(ast)
    session = open_session()
    try:
        outcome = prove_sketch(session, ast)
    finally:
        session.close()
    if isinstance(outcome, FullProofResult):
        stage, per_gap = None, outcome.per_gap
    else:
        stage = FailureStage.VERIFY if outcome.failed_site is None else FailureStage.PROVE
        per_gap = outcome.partial
    return stage, True, outcome.gaps_total, sum(1 for r in per_gap if isinstance(r, Closed))

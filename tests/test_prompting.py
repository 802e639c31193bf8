import dataclasses
import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from sketchprove.harness import Problem, Split
from sketchprove.prompting import (
    Category,
    ExamplePool,
    ExampleQuad,
    MissingFullProof,
    PoolFormatError,
    PoolTooSmall,
    PromptConfig,
    PromptMode,
    build_draft_prompt,
    build_sketch_prompt,
    example_block,
    infer_category,
    load_pool,
    select_examples,
    shown_sketch,
)
from sketchprove.scheduler import derive_seed, sketch_request
from sketchprove.sketch import count_comments, count_gaps, parse_sketch


@pytest.mark.parametrize(
    "name,expected",
    [
        ("algebra_binomnegdiscrineq_10alt28asqp1", Category.ALGEBRA),
        ("mathd_numbertheory_551", Category.NUMBER_THEORY),
        ("imo_1959_p1", Category.UNKNOWN),
        ("algebra_numbertheory_mix", Category.UNKNOWN),
        ("", Category.UNKNOWN),
    ],
)
def test_infer_category(name, expected):
    assert infer_category(name) is expected


def test_pool_shape(pool):
    assert len(pool.quads) == 20
    assert len(pool.of_category(Category.ALGEBRA)) == 10
    assert len(pool.of_category(Category.NUMBER_THEORY)) == 10
    assert len(pool.of_category(Category.UNKNOWN)) == 20


def test_pool_validation_rejects_gapless_sketch(tmp_path):
    entry = {
        "id": "algebra_bad",
        "category": "algebra",
        "informal_statement": "s",
        "informal_proof": "p",
        "formal_statement": 'theorem algebra_bad:\n  shows "True"',
        "formal_sketch": 'theorem algebra_bad: shows "True"\nproof -\n  (* n *)\n  show ?thesis by auto\nqed\n',
    }
    path = tmp_path / "pool.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(PoolFormatError, match="no open gap"):
        load_pool(path)


def test_pool_validation_rejects_commentless_sketch(tmp_path):
    entry = {
        "id": "algebra_bad",
        "category": "algebra",
        "informal_statement": "s",
        "informal_proof": "p",
        "formal_statement": 'theorem algebra_bad:\n  shows "True"',
        "formal_sketch": 'theorem algebra_bad: shows "True"\nproof -\n  show ?thesis sledgehammer\nqed\n',
    }
    path = tmp_path / "pool.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(PoolFormatError, match="no in-line comment"):
        load_pool(path)


@pytest.mark.parametrize(
    "field, value", [("id", 1), ("informal_proof", None), ("formal_sketch", 5), ("full_proof", 5)]
)
def test_pool_validation_rejects_a_field_that_is_not_a_string(tmp_path, field, value):
    entry = json.loads((FIXTURES / "pool" / "examples.json").read_text())[0]
    path = tmp_path / "pool.json"
    path.write_text(json.dumps([entry | {field: value}]))
    with pytest.raises(PoolFormatError, match=f"pool entry 0 fields are not strings: \\['{field}'\\]"):
        load_pool(path)


# -- selection -----------------------------------------------------------------


def test_selection_respects_category(pool):
    config = PromptConfig(k_examples=3)
    picked = select_examples(pool, "algebra_new", Category.ALGEBRA, config, random.Random(1))
    assert len(picked) == 3
    assert all(q.category is Category.ALGEBRA for q in picked)


def test_selection_excludes_the_problem_itself(pool):
    config = PromptConfig(k_examples=3)
    target = pool.quads[0].id
    for seed in range(200):
        picked = select_examples(pool, target, Category.ALGEBRA, config, random.Random(seed))
        assert all(q.id != target for q in picked)


def test_selection_unknown_category_uses_whole_pool(pool):
    config = PromptConfig(k_examples=3)
    seen = set()
    for seed in range(300):
        for q in select_examples(pool, "imo_x", Category.UNKNOWN, config, random.Random(seed)):
            seen.add(q.category)
    assert seen == {Category.ALGEBRA, Category.NUMBER_THEORY}


def test_selection_too_small_pool(pool):
    config = PromptConfig(k_examples=10)
    with pytest.raises(PoolTooSmall):
        # excluding the target leaves 9 algebra quads
        select_examples(pool, pool.of_category(Category.ALGEBRA)[0].id, Category.ALGEBRA, config, random.Random(0))


def test_selection_deterministic_per_seed(pool):
    config = PromptConfig(k_examples=3)
    a = select_examples(pool, "x", Category.ALGEBRA, config, random.Random(42))
    b = select_examples(pool, "x", Category.ALGEBRA, config, random.Random(42))
    assert [q.id for q in a] == [q.id for q in b]


def test_selection_frequencies_uniform(pool):
    """Inclusion frequency of each eligible quad must match uniform sampling
    without replacement (k/N = 3/10), checked against a chi-square bound."""
    config = PromptConfig(k_examples=3)
    trials = 1000
    counts = Counter()
    for seed in range(trials):
        for q in select_examples(pool, "algebra_unseen", Category.ALGEBRA, config, random.Random(seed)):
            counts[q.id] += 1
    eligible = pool.of_category(Category.ALGEBRA)
    assert len(eligible) == 10
    expected = trials * 3 / 10
    for quad in eligible:
        assert abs(counts[quad.id] / trials - 0.3) <= 0.05
    chi_square = sum((counts[q.id] - expected) ** 2 / expected for q in eligible)
    assert chi_square < 27.88  # df=9 critical value at alpha=0.001


# -- ablation modes ----------------------------------------------------------------


def test_shown_sketch_full_is_the_sketch(pool):
    quad = pool.quads[0]
    assert shown_sketch(quad, PromptMode.FULL) == quad.formal_sketch


def test_shown_sketch_no_comments(pool):
    quad = pool.quads[0]
    ast = parse_sketch(shown_sketch(quad, PromptMode.NO_COMMENTS))
    assert count_comments(ast) == 0
    assert count_gaps(ast) == count_gaps(parse_sketch(quad.formal_sketch))
    assert f"Informal Proof:\n{quad.informal_proof.rstrip()}" in example_block(quad, PromptMode.NO_COMMENTS)


def test_example_block_no_informal_proof(pool):
    quad = pool.quads[0]
    block = example_block(quad, PromptMode.NO_INFORMAL_PROOF)
    assert "Informal Proof:" not in block
    assert quad.informal_proof.rstrip() not in block
    assert count_comments(parse_sketch(shown_sketch(quad, PromptMode.NO_INFORMAL_PROOF))) == 0


def test_shown_sketch_full_proof(pool):
    quad = pool.quads[0]
    shown = shown_sketch(quad, PromptMode.FULL_PROOF)
    assert count_gaps(parse_sketch(shown)) == 0
    assert example_block(quad, PromptMode.FULL_PROOF).endswith(f"Formal Proof:\n{shown.rstrip()}")


def test_shown_sketch_full_proof_missing():
    quad = ExampleQuad(
        id="algebra_x",
        category=Category.ALGEBRA,
        informal_statement="s",
        informal_proof="p",
        formal_statement="t",
        formal_sketch="irrelevant",
        full_proof=None,
    )
    with pytest.raises(MissingFullProof):
        shown_sketch(quad, PromptMode.FULL_PROOF)
    with pytest.raises(MissingFullProof):
        example_block(quad, PromptMode.FULL_PROOF)


def test_mode_soundness_over_whole_pool(pool):
    for quad in pool.quads:
        assert count_comments(parse_sketch(shown_sketch(quad, PromptMode.NO_COMMENTS))) == 0
        assert "Informal Proof:" not in example_block(quad, PromptMode.NO_INFORMAL_PROOF)
        assert count_comments(parse_sketch(shown_sketch(quad, PromptMode.NO_INFORMAL_PROOF))) == 0
        assert count_gaps(parse_sketch(shown_sketch(quad, PromptMode.FULL_PROOF))) == 0


# -- prompt assembly ----------------------------------------------------------------


class FakeProblem:
    informal_statement = "Show that one plus one is two."
    formal_statement = 'theorem onepone:\n  shows "1 + 1 = 2"'


def test_sketch_prompt_counts(pool):
    examples = list(pool.quads[:3])
    blocks = [example_block(q, PromptMode.FULL) for q in examples]
    prompt = build_sketch_prompt(blocks, FakeProblem(), "Add one to one.", PromptConfig())
    assert prompt.count("Informal Statement:") == 4
    assert prompt.count("Informal Proof:") == 4
    assert prompt.count("Formal Statement:") == 4
    assert prompt.count("Formal Proof Sketch:") == 4
    # three complete example sketches, then the target's open slot
    assert prompt.rstrip().endswith("Formal Proof Sketch:")
    for quad in examples:
        assert quad.formal_sketch.rstrip() in prompt


def test_sketch_prompt_no_informal_sections(pool):
    blocks = [example_block(q, PromptMode.NO_INFORMAL_PROOF) for q in pool.quads[:3]]
    config = PromptConfig(mode=PromptMode.NO_INFORMAL_PROOF)
    prompt = build_sketch_prompt(blocks, FakeProblem(), "ignored draft", config)
    assert prompt.count("Informal Proof:") == 0
    assert "ignored draft" not in prompt


def test_sketch_prompt_deterministic(pool):
    blocks = [example_block(q, PromptMode.FULL) for q in pool.quads[3:6]]
    first = build_sketch_prompt(blocks, FakeProblem(), "d", PromptConfig())
    second = build_sketch_prompt(blocks, FakeProblem(), "d", PromptConfig())
    assert first == second


def test_sketch_prompt_drops_whole_examples_when_over_budget(pool):
    examples = list(pool.quads[:3])
    blocks = [example_block(q, PromptMode.FULL) for q in examples]
    unbounded = build_sketch_prompt(blocks, FakeProblem(), "d", PromptConfig())
    config = PromptConfig(max_prompt_chars=len(unbounded) - 1)
    prompt = build_sketch_prompt(blocks, FakeProblem(), "d", config)
    assert prompt.count("Formal Proof Sketch:") == 3  # dropped exactly one example
    assert examples[0].formal_sketch.rstrip() not in prompt
    assert examples[1].formal_sketch.rstrip() in prompt


def test_full_proof_mode_uses_complete_proof_header(pool):
    blocks = [example_block(q, PromptMode.FULL_PROOF) for q in pool.quads[:3]]
    prompt = build_sketch_prompt(blocks, FakeProblem(), "d", PromptConfig(mode=PromptMode.FULL_PROOF))
    assert prompt.count("Formal Proof:") == 4
    assert "Formal Proof Sketch:" not in prompt
    assert "sledgehammer" not in prompt


def _rebuilt_prompt(quads, problem, draft, config, seed):
    """A sketch prompt as it was built before the pool kept tables: the
    eligible examples filtered and every shown example rendered per
    request. The oracle for `sketch_request`."""
    category = infer_category(problem.id)
    eligible = [
        q for q in quads
        if (category is Category.UNKNOWN or q.category is category) and q.id != problem.id
    ]
    if len(eligible) < config.k_examples:
        raise PoolTooSmall(config.k_examples, len(eligible))
    examples = random.Random(seed).sample(eligible, config.k_examples)
    return build_sketch_prompt([example_block(q, config.mode) for q in examples], problem, draft, config)


def _outcome(build):
    try:
        return build()
    except (PoolTooSmall, MissingFullProof) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(PromptMode),
    seed=st.integers(0, 2**64 - 1),
    k=st.integers(1, 11),
    budget=st.one_of(st.none(), st.integers(0, 6000)),
    target=st.integers(-20, 19),  # a golden problem, or (negative) a pool example itself
    lacking=st.sets(st.integers(0, 19), max_size=4),  # examples without a full proof
)
def test_a_sketch_request_shows_the_examples_a_per_request_rewrite_shows(
    problems, pool, mode, seed, k, budget, target, lacking
):
    quads = tuple(
        dataclasses.replace(q, full_proof=None) if i in lacking else q for i, q in enumerate(pool.quads)
    )
    fresh = ExamplePool(quads)  # its tables start empty
    if target >= 0:
        problem = problems[target]
    else:
        quad = quads[target]
        problem = Problem(
            quad.id, Split.VALID, quad.category, quad.informal_statement, None, quad.formal_statement
        )
    config = PromptConfig(k_examples=k, mode=mode, max_prompt_chars=budget)
    expected = _outcome(lambda: _rebuilt_prompt(quads, problem, "a draft", config, seed))
    for _ in range(2):  # the first request fills the pool's tables, the second reads them
        got = _outcome(lambda: sketch_request(fresh, problem, "a draft", config, seed, "ep").prompt)
        assert got == expected


# One SHA-256 per ablation mode over every prompt `sketch_request` builds for
# the golden plan entries of the 20 fixture problems, each prompt followed by
# a NUL byte. Recorded before the prompt layout was written once for the
# examples and the target, so a refactor of the layout must keep them.
PINNED_PROMPTS = {
    PromptMode.FULL: "b7583d17ee92eeed199ae3c3643b4376589639c232a52613bdb69f73085a5417",
    PromptMode.NO_COMMENTS: "8910cb97e9b4fe7376d2794528a0eb68d4c98c1e6d26c164a73851a0e5e975af",
    PromptMode.NO_INFORMAL_PROOF: "062220d3b585fa638cda48f115062ce269ee1b1ad0349eba18a75220a17dc0c3",
    PromptMode.FULL_PROOF: "c77a952984a62a094c77bfdece8f93a0e753dd1786fc95ddcf5d3bc5ac75f055",
}


@pytest.mark.parametrize("mode", PromptMode)
def test_every_ablation_prompt_of_the_golden_plan_is_pinned(problems, pool, golden_config, mode):
    cfg = golden_config
    assert len(problems) == 20
    drafts = [f"Draft {d}: add {d} to both sides, then simplify.\n\n" for d in range(cfg["drafts"])]
    # a budget that drops examples from most prompts of every mode, but not all
    config = PromptConfig(k_examples=cfg["k_examples"], mode=mode, max_prompt_chars=1800)
    digest = hashlib.sha256()
    shown = Counter()
    for problem in problems:
        for d in range(cfg["drafts"]):
            for s in range(cfg["sketches_per_draft"]):
                seed = derive_seed(cfg["seed"], problem.id, d, s)
                prompt = sketch_request(pool, problem, drafts[d], config, seed, cfg["endpoint_id"]).prompt
                shown[prompt.count("Informal Statement:") - 1] += 1
                digest.update(prompt.encode("utf-8") + b"\0")
    assert shown[3] and sum(shown.values()) > shown[3]
    assert digest.hexdigest() == PINNED_PROMPTS[mode]


def test_draft_prompt_zero_shot():
    prompt = build_draft_prompt(FakeProblem())
    assert prompt == "Show that one plus one is two.\n\nProof:"


def test_prompt_config_validation():
    with pytest.raises(ValueError):
        PromptConfig(k_examples=0)

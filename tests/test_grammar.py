import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ast_gen import AstGen, generate
from sketchprove.sketch import (
    GAP_TOKEN,
    Gap,
    HaveStep,
    Nested,
    ParseError,
    ProofBlock,
    SketchAst,
    StepNode,
    Tactic,
    TheoremHeader,
    check_no_cheat,
    count_comments,
    count_gaps,
    extract_gaps,
    fill_gap,
    parse_sketch,
    render_segments,
    serialize,
    strip_comments,
    walk,
)
from sketchprove.sketch.ops import InvalidSite


# -- parsing the transcribed figures -------------------------------------------


def test_binomial_sketch_structure(fig2_text):
    ast = parse_sketch(fig2_text)
    blocks = [n for n in ast.body if isinstance(n, ProofBlock)]
    assert len(blocks) == 1
    outer = blocks[0]
    assert outer.method == "-"
    c0 = outer.children[0]
    assert isinstance(c0, HaveStep) and c0.label == "c0"
    assert isinstance(c0.justification, Nested)
    assert len(extract_gaps(ast)) == 7


def test_binomial_sketch_gap_sites(fig2_text):
    sites = extract_gaps(parse_sketch(fig2_text))
    assert sites[0].label == "c1"
    assert sites[-1].proposition == "?thesis"
    # c2's gap sees c1; the outer show sees only c0
    assert "c1" in sites[1].facts_in_scope
    assert sites[-1].facts_in_scope == ("c0",)
    # comments attach to the step they precede
    assert sites[0].preceding_comment.startswith("observe that")


def test_minimal_header_only():
    ast = parse_sketch('theorem t: shows "True"')
    assert ast.header.name == "t"
    assert ast.header.shows == "True"
    assert ast.body == ()
    assert count_gaps(ast) == 0


def test_imo_proof_five_tactic_steps(fig3_text):
    ast = parse_sketch(fig3_text)
    assert count_gaps(ast) == 0
    tactics = [
        n.justification.text
        for _, n in walk(ast)
        if isinstance(n, StepNode) and isinstance(n.justification, Tactic)
    ]
    assert len(tactics) == 5
    assert tactics.count("by auto") == 3
    assert tactics[-1] == "by blast"
    assert tactics[3].startswith("by (smt (z3) BitM_plus_one")
    assert "semiring_norm(3)" in tactics[3]


def test_all_fixture_sketches_parse(sketch_files):
    assert len(sketch_files) >= 20
    for path in sketch_files:
        ast = parse_sketch(path.read_text())
        assert parse_sketch(serialize(ast)) == ast, path.name


def test_figure_markers_normalize():
    text = 'theorem t: shows "P"\nproof -\n  have c0: "Q" <...>\n  show ?thesis ATP\nqed\n'
    ast = parse_sketch(text)
    assert count_gaps(ast) == 2
    rendered = serialize(ast)
    assert "<...>" not in rendered and "ATP" not in rendered
    assert rendered.count("sledgehammer") == 2


def test_atp_span_with_content_is_a_tactic():
    text = 'theorem t: shows "P"\nproof -\n  show ?thesis <ATP> by  (auto\n  simp: x) </ATP>\nqed\n'
    ast = parse_sketch(text)
    assert count_gaps(ast) == 0
    step = ast.body[0].children[0]
    assert step.justification == Tactic("by (auto simp: x)")


# -- serialization ---------------------------------------------------------------


def test_roundtrip_of_figure_sketch(fig2_text):
    ast = parse_sketch(fig2_text)
    assert parse_sketch(serialize(ast)) == ast


def test_serialize_direct_construction():
    ast = SketchAst(
        header=TheoremHeader("t", (), (), "P"),
        body=(
            ProofBlock(
                "-",
                (HaveStep("c1", "x + 1 = 2", (), (), Gap()),),
            ),
        ),
    )
    text = serialize(ast)
    assert "c1" in text and "x + 1 = 2" in text
    assert text.count("sledgehammer") == 1
    assert parse_sketch(text) == ast


def test_roundtrip_generated_asts():
    for ast in generate(50, seed=5):
        assert parse_sketch(serialize(ast)) == ast


# -- gap extraction and filling ---------------------------------------------------


def test_gap_free_proof_has_no_sites(fig3_text):
    assert extract_gaps(parse_sketch(fig3_text)) == []


def test_fill_gap_counts_down(fig2_text):
    ast = parse_sketch(fig2_text)
    site = extract_gaps(ast)[0]
    filled = fill_gap(ast, site, "by auto")
    assert count_gaps(filled) == 6
    assert count_gaps(ast) == 7  # original untouched


def test_fill_all_gaps_removes_token(fig2_text):
    ast = parse_sketch(fig2_text)
    while gaps := extract_gaps(ast):
        ast = fill_gap(ast, gaps[0], "by auto")
    assert "sledgehammer" not in serialize(ast)
    assert extract_gaps(ast) == []


def test_fill_order_stability(fig2_text):
    ast = parse_sketch(fig2_text)
    before = extract_gaps(ast)
    filled = fill_gap(ast, before[2], "by simp")
    after = extract_gaps(filled)
    assert [s.path for s in after] == [s.path for s in before if s.path != before[2].path]


def test_stale_site_rejected(fig2_text):
    ast = parse_sketch(fig2_text)
    site = extract_gaps(ast)[0]
    filled = fill_gap(ast, site, "by auto")
    with pytest.raises(InvalidSite):
        fill_gap(filled, site, "by auto")


def test_fill_rejects_non_step_text(fig2_text):
    ast = parse_sketch(fig2_text)
    site = extract_gaps(ast)[0]
    with pytest.raises(InvalidSite):
        fill_gap(ast, site, "((not a step")
    with pytest.raises(InvalidSite):
        fill_gap(ast, site, "sledgehammer")  # a gap is not a closing step


def test_root_justification_gap():
    ast = parse_sketch('theorem t: "1 + 1 = 2"\n  sledgehammer\n')
    (site,) = extract_gaps(ast)
    assert site.path == ()
    assert site.proposition == "1 + 1 = 2"
    filled = fill_gap(ast, site, "by auto")
    assert count_gaps(filled) == 0
    assert "by auto" in serialize(filled)


# -- comment stripping --------------------------------------------------------------


def test_strip_comments_on_figure(fig2_text):
    ast = parse_sketch(fig2_text)
    assert count_comments(ast) == 5
    stripped = strip_comments(ast)
    assert count_comments(stripped) == 0
    assert count_gaps(stripped) == 7
    assert "(*" not in serialize(stripped)


def test_strip_comments_idempotent(fig2_text):
    ast = parse_sketch(fig2_text)
    once = strip_comments(ast)
    assert strip_comments(once) == once


def test_strip_comment_free_is_identity():
    ast = parse_sketch('theorem t: shows "P"\nproof -\n  show ?thesis by auto\nqed\n')
    assert strip_comments(ast) == ast


# -- cheat detection -----------------------------------------------------------------


def test_figure_proof_is_clean(fig3_text):
    assert check_no_cheat(fig3_text).clean


def test_bare_sorry_detected():
    report = check_no_cheat("show ?thesis sorry")
    assert not report.clean
    assert report.offending[0][0] == "sorry"
    assert report.offending[0][1] == len("show ?thesis ")


def test_keyword_inside_comment_is_fine():
    assert check_no_cheat("(* sorry is forbidden *) by auto").clean
    assert check_no_cheat('(* nested (* oops *) still comment *) by simp').clean


def test_keyword_inside_string_is_fine():
    assert check_no_cheat('have c0: "sorry oops" by auto').clean


def test_word_boundaries():
    assert check_no_cheat("unsorry sorrying oopsy").clean
    assert not check_no_cheat("by auto oops").clean


def test_multibyte_offsets_are_bytes():
    text = '(* déjà *) sorry'
    report = check_no_cheat(text)
    assert not report.clean
    assert report.offending[0][1] == len(text.encode("utf-8")) - len("sorry".encode())


# -- parser robustness ----------------------------------------------------------------


def test_parse_error_carries_offset_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse_sketch('theorem t:\n  fixes x\n  shows "P"')
    assert exc.value.offset == len("theorem t:\n  fixes x\n  ".encode())
    assert "::" in exc.value.expected


def test_parser_total_on_arbitrary_bytes():
    rng = random.Random(99)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        try:
            parse_sketch(blob)
        except ParseError:
            pass  # the only permitted failure


def test_parser_handles_deep_nesting_without_crashing():
    text = 'theorem t: shows "P"\n' + 'proof -\n  have c: "x"\n' * 300
    with pytest.raises(ParseError):
        parse_sketch(text)


def test_large_input_parses_quickly():
    step = '  have c{0}: "x + {0} = {0} + x and some longer padding text" using h0 sledgehammer\n'
    body = "".join(step.format(i) for i in range(13_000))
    text = f'theorem big: assumes h0: "P"\n  shows "Q"\nproof -\n{body}  show ?thesis sledgehammer\nqed\n'
    assert len(text.encode()) > 1_000_000
    started = time.monotonic()
    ast = parse_sketch(text)
    elapsed = time.monotonic() - started
    assert count_gaps(ast) == 13_001
    assert elapsed < 1.0


def test_spans_cover_source_and_do_not_overlap(fig2_text):
    ast = parse_sketch(fig2_text)
    total = len(fig2_text.encode())
    by_parent: dict[tuple, list[tuple]] = {}
    for path, span in ast.spans.items():
        assert 0 <= span[0] <= span[1] <= total
        by_parent.setdefault(path[:-1], []).append((path[-1], span))
    for siblings in by_parent.values():
        siblings.sort()
        for (_, a), (_, b) in zip(siblings, siblings[1:]):
            assert a[1] <= b[0], "sibling spans overlap"


def test_fill_gaps_inside_case_bodies():
    text = (
        'theorem t:\n  fixes a :: int\n  shows "P a"\n'
        'proof (cases "even a")\n'
        "case True\n"
        '  have c0: "Q a" sledgehammer\n'
        "  then show ?thesis sledgehammer\n"
        "next\n"
        "case False\n"
        "  then show ?thesis sledgehammer\n"
        "qed\n"
    )
    ast = parse_sketch(text)
    sites = extract_gaps(ast)
    assert len(sites) == 3
    assert sites[0].label == "c0"
    # sibling cases never see each other's labels
    assert "c0" in sites[1].facts_in_scope
    assert "c0" not in sites[2].facts_in_scope
    for _ in range(3):
        ast = fill_gap(ast, extract_gaps(ast)[0], "by auto")
    assert count_gaps(ast) == 0
    assert "sledgehammer" not in serialize(ast)
    assert parse_sketch(serialize(ast)) == ast


def test_gap_conservation_on_generated_asts():
    for ast in generate(120, seed=77):
        gaps = extract_gaps(ast)
        if not gaps:
            continue
        filled = fill_gap(ast, gaps[0], "by auto")
        remaining = extract_gaps(filled)
        assert len(remaining) == len(gaps) - 1
        assert [s.path for s in remaining] == [s.path for s in gaps[1:]]


def test_strip_comments_idempotent_on_generated_asts():
    for ast in generate(80, seed=78):
        once = strip_comments(ast)
        assert count_comments(once) == 0
        assert strip_comments(once) == once
        assert count_gaps(once) == count_gaps(ast)


def test_atp_span_with_garbage_is_rejected():
    text = 'theorem t: shows "P"\nproof -\n  show ?thesis <ATP> lorem(ipsum </ATP>\nqed\n'
    with pytest.raises(ParseError, match="closing step"):
        parse_sketch(text)


# -- segment rendering ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_serialize_joins_segments_with_gap_tokens(seed):
    ast = AstGen(seed).sketch()
    segments = render_segments(ast)
    assert serialize(ast) == GAP_TOKEN.join(segments)
    gaps = extract_gaps(ast)
    assert len(segments) == len(gaps) + 1
    # gap k sits right after segment k: filling it alone renders there
    for k, site in enumerate(gaps):
        filled = serialize(fill_gap(ast, site, "by auto"))
        before = GAP_TOKEN.join(segments[: k + 1])
        assert filled == before + "by auto" + GAP_TOKEN.join(segments[k + 1 :])

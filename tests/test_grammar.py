import random
import re
import sys
import time
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from ast_gen import AstGen, generate
from conftest import FIXTURES
from gap_fill import fill
from tokenize_oracle import tokenize as tokenize_oracle
from walk_oracle import walk as walk_oracle
from sketchprove.sketch import cheat
from sketchprove.sketch import (
    GAP_TOKEN,
    CheatReport,
    Comment,
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
    closing_step_text,
    count_comments,
    count_gaps,
    extract_gaps,
    parse_sketch,
    render_segments,
    serialize,
    strip_comments,
    walk,
)
from sketchprove.sketch import ops
from sketchprove.sketch.nodes import InvalidSite
from sketchprove.sketch.parser import MAX_BLOCK_DEPTH, _RawParseError, _tokenize


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
    with pytest.raises(AttributeError):
        sites[0].path = ()
    assert sites == extract_gaps(parse_sketch(fig2_text))
    assert len(set(sites)) == len(sites)


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
    # the span holds the closing step's canonical text, so it round-trips
    for span, canonical in (
        ("<ATP> by  (auto\n  simp: x) </ATP>", "by (auto simp: x)"),
        ("<ATP>by(auto)</ATP>", "by (auto)"),
    ):
        ast = parse_sketch(f'theorem t: shows "P"\nproof -\n  show ?thesis {span}\nqed\n')
        assert count_gaps(ast) == 0
        step = ast.body[0].children[0]
        assert step.justification == Tactic(canonical)
        assert parse_sketch(serialize(ast)) == ast


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


# -- gap extraction and filling (filled by the test-side oracle) ------------------


def test_gap_free_proof_has_no_sites(fig3_text):
    assert extract_gaps(parse_sketch(fig3_text)) == []


def test_fill_gap_counts_down(fig2_text):
    ast = parse_sketch(fig2_text)
    site = extract_gaps(ast)[0]
    filled = fill(ast, site, "by auto")
    assert count_gaps(filled) == 6
    assert count_gaps(ast) == 7  # original untouched


def test_fill_all_gaps_removes_token(fig2_text):
    ast = parse_sketch(fig2_text)
    while gaps := extract_gaps(ast):
        ast = fill(ast, gaps[0], "by auto")
    assert "sledgehammer" not in serialize(ast)
    assert extract_gaps(ast) == []


def test_fill_order_stability(fig2_text):
    ast = parse_sketch(fig2_text)
    before = extract_gaps(ast)
    filled = fill(ast, before[2], "by simp")
    after = extract_gaps(filled)
    assert [s.path for s in after] == [s.path for s in before if s.path != before[2].path]


def test_stale_site_rejected(fig2_text):
    ast = parse_sketch(fig2_text)
    site = extract_gaps(ast)[0]
    filled = fill(ast, site, "by auto")
    with pytest.raises(InvalidSite):
        fill(filled, site, "by auto")


def test_fill_rejects_non_step_text():
    with pytest.raises(InvalidSite, match="does not parse"):
        closing_step_text("((not a step")
    with pytest.raises(InvalidSite, match="concrete"):
        closing_step_text("sledgehammer")  # a gap is not a closing step


def test_root_justification_gap():
    ast = parse_sketch('theorem t: "1 + 1 = 2"\n  sledgehammer\n')
    (site,) = extract_gaps(ast)
    assert site.path == ()
    assert site.proposition == "1 + 1 = 2"
    filled = fill(ast, site, "by auto")
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


def _blank_comments_and_strings(text: str) -> str:
    """Oracle: `text` with every comment and string literal, delimiters
    included, turned into spaces; unterminated ones run to the end."""
    out = list(text)
    depth, in_string, i = 0, False, 0
    while i < len(text):
        start = i
        if in_string:
            in_string = text[i] != '"'
            i += 1
        elif text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif depth:
            i += 1
        elif text[i] == '"':
            in_string = True
            i += 1
        else:
            i += 1
            continue
        out[start:i] = " " * (i - start)
    return "".join(out)


# delimiters twice over, so nested and unterminated comments come up often
CHEAT_ALPHABET = ["(*", "(*", "*)", "*)", '"', "sorry", "oops", "(", ")", "*", "a_9", " ",
                  "\u00e9", "\u65e5", "\U0001f600"]
# lone surrogates: a str may hold one (a JSON escape decodes to it), and a
# byte offset counts it as the three bytes "surrogatepass" encodes it to
SURROGATES = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)


def _byte_len(text):
    return len(text.encode("utf-8", "surrogatepass"))


def _oracle_report(text):
    blank = _blank_comments_and_strings(text)
    expected = tuple(
        (match.group(1), _byte_len(text[: match.start()]))
        for match in re.finditer(r"\b(sorry|oops)\b", blank)
    )
    return CheatReport(not expected, expected)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(CHEAT_ALPHABET) | SURROGATES, max_size=30).map("".join))
def test_cheat_gate_matches_blanking_oracle(text):
    assert check_no_cheat(text) == _oracle_report(text)


# keyword fragments next to the delimiters, so that words split by a
# comment or a string (`sor(* *)ry`, `so"rr"y`) and texts that hold no
# keyword at all, which pass without the scan, both come up often
FRAGMENT_ALPHABET = ["so", "rr", "y", "oo", "ps", "(*", "*)", '"', " ", "a", "\n"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENT_ALPHABET), max_size=30).map("".join))
def test_cheat_gate_matches_blanking_oracle_on_keyword_fragments(text):
    assert check_no_cheat(text) == _oracle_report(text)


@pytest.mark.parametrize("text, scanned", [
    ('theorem t: shows "P"\nproof -\n  (* so rr y *)\n  show ?thesis by auto\nqed\n', False),
    ('sor(* *)ry so"rr"y oo ps', False),
    ("", False),
    ('"sorry"', True),
    ("(* oops *)", True),
    ("by auto sorry", True),
])
def test_only_a_text_holding_a_keyword_is_scanned(monkeypatch, text, scanned):
    searched = []

    class Recording:
        def search(self, source, pos):
            searched.append(pos)
            return real.search(source, pos)

    real = cheat._EVENT_RE
    monkeypatch.setattr(cheat, "_EVENT_RE", Recording())
    assert check_no_cheat(text) == _oracle_report(text)
    assert bool(searched) is scanned


@pytest.mark.parametrize(
    "text, expected",
    [
        ('"x"sorry', (("sorry", 3),)),
        ("(* c *)oops", (("oops", 7),)),
        ('sorry"x"', (("sorry", 0),)),
        ("oops(* c *)", (("oops", 0),)),
        ("by auto sorry", (("sorry", 8),)),
        ('"x" oops', (("oops", 4),)),
        ('"x"sorry"y"(* c *)oops', (("sorry", 3), ("oops", 18))),
        ('"x"sorryx', ()),
        ("(* c *)xoops", ()),
        ('"sorry"', ()),
        ("(* oops", ()),
    ],
)
def test_keywords_next_to_strings_comments_and_the_end(text, expected):
    assert check_no_cheat(text) == CheatReport(not expected, expected)


def test_cheat_scan_stays_linear_without_comments():
    # a scan that looks ahead to the next comment at every string is
    # quadratic here: about 5 s on a 2-vCPU VM, against about 13 ms
    steps = "".join(f'  have c{i}: "x = {i}" by auto\n' for i in range(16_000))
    text = f'theorem t: shows "P"\nproof -\n{steps}  show ?thesis sorry\nqed\n'
    started = time.monotonic()
    report = check_no_cheat(text)
    elapsed = time.monotonic() - started
    assert report.offending == (("sorry", len(text) - len("sorry\nqed\n")),)
    assert elapsed < 1.0


def test_parse_stays_linear():
    # 16k steps, each after a comment (one in four nested): a descent that
    # rescans or copies the token list per step is quadratic here. Linear,
    # it takes about 0.2 s on a 2-vCPU VM
    comments = ("(* step {0} *)", "(* outer (* inner {0} *) *)", "(* no sorry {0} *)", '(* a "{0}" *)')
    steps = "".join(
        f'  {comments[i % 4].format(i)}\n  have c{i}: "x = {i}" using h0 sledgehammer\n'
        for i in range(16_000)
    )
    text = f'theorem t: assumes h0: "P"\n  shows "Q"\nproof -\n{steps}  show ?thesis sorry\nqed\n'
    started = time.monotonic()
    ast = parse_sketch(text)
    elapsed = time.monotonic() - started
    assert count_gaps(ast) == 16_000 and count_comments(ast) == 16_000
    assert elapsed < 2.0


def test_a_lone_surrogate_counts_three_bytes_in_an_offset():
    assert check_no_cheat("\ud800 sorry").offending == (("sorry", 4),)
    with pytest.raises(ParseError) as exc:
        parse_sketch('theorem t: shows "P"\nproof -\n  (* \ud800 *)\n  have c: "Q" sledgehammer\nqed qed\n')
    assert exc.value.offset == len('theorem t: shows "P"\nproof -\n  (* \ud800 *)\n  have c: "Q" sledgehammer\nqed ') + 2


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


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except _RawParseError as exc:
        return ("error", exc.pos, exc.message)


# sketch syntax, strays that only opaque regions hold, and Unicode letters,
# digits and spaces that \s and [A-Za-z] treat differently
TOKEN_ALPHABET = [
    "(*", "*)", '"', "<ATP>", "</ATP>", "<...>", "::", ":", "?x", "?", "0", "42", "\u0663",
    "'", ".", "-", "(", ")", "<", "*", "have", "c_1", " ", "\t", "\n", "\r\n",
    "\u00e9", "\u65e5", "\U0001d538", "\u00a0", "\u2003", "\u3000",
]


@settings(max_examples=800, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_ALPHABET) | SURROGATES, max_size=40).map("".join))
def test_tokenizer_matches_two_match_oracle(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(tokenize_oracle, text)


def test_tokenizer_matches_oracle_on_fixture_sketches(sketch_files):
    for path in sketch_files:
        text = path.read_text()
        assert _tokenize(text) == tokenize_oracle(text)


def test_nodes_are_frozen_and_compare_by_type_and_fields():
    step = HaveStep("c1", "x = 1", ("h0",), (), Tactic("by auto"), "then", "note")
    with pytest.raises(FrozenInstanceError):
        step.label = "c2"
    same = HaveStep("c1", "x = 1", ("h0",), (), Tactic("by auto"), chain="then", preceding_comment="note")
    assert step == same and hash(step) == hash(same)
    assert step != replace(step, chain=None)
    assert Tactic("sorry") != Comment("sorry") and Gap() == Gap()
    assert replace(step, label=None) == HaveStep(None, "x = 1", ("h0",), (), Tactic("by auto"), "then", "note")
    with pytest.raises(ValueError):  # construction still validates
        TheoremHeader(None, (("x", "nat"), ("x", "int")), (), "P")
    with pytest.raises(ValueError):
        SketchAst(TheoremHeader(None, (), (), "P"), (step,), Gap())


# -- the flat-loop parser against the plain descent ----------------------------------

_FIXTURE_TEXTS = [path.read_text() for path in sorted((FIXTURES / "sketches").glob("*.thy"))]

_LARGE_PROPS = (
    "x + {n} = {n} + x", "0 \\<le> (x - {n})^2", "''sorry'' \\<noteq> ''oops'' \\<and> {n} = {n}",
    "(n * n + {n}) mod 4 \\<in> {{{n} mod 4, ({n} + 1) mod 4}}",
)
_LARGE_COMMENTS = (
    "this step needs no sorry", "expand the square (* inner remark: never oops *) and regroup",
    'a "quoted" sorry inside a comment is not a cheat', "reduce modulo 4",
)
_LARGE_JUSTIFICATIONS = (
    "sledgehammer", "sledgehammer", "sledgehammer", "by auto", "<...>", "ATP",
    "<ATP> by (simp add: algebra_simps) </ATP>", "<ATP> </ATP>", "by (smt (z3) foo bar)",
)


def _large_shaped_text(rng: random.Random, units: int) -> str:
    """A sketch shaped like the benchmark's large ones, at a smaller size:
    labelled steps with `using`, chains, comments holding strings, nested
    comments and cheat words, nested proofs, case splits, the figure
    markers, obtain and assume."""
    lines = ['theorem big:', '  fixes x :: real and n k :: nat', '  assumes h0: "P" and "Q"',
             '  shows "R"', "proof -"]
    labels = iter(range(1, 10**6))

    def prop():
        return rng.choice(_LARGE_PROPS).format(n=rng.randrange(1000))

    def step(ind):
        if rng.random() < 0.55:
            lines.append(f"{ind}(* {rng.choice(_LARGE_COMMENTS)} *)")
        roll = rng.random()
        head = "then " if rng.random() < 0.3 else ""
        clauses = " using h0 c1" if rng.random() < 0.3 else ""
        clauses += " unfolding power2_eq_square" if rng.random() < 0.1 else ""
        just = rng.choice(_LARGE_JUSTIFICATIONS)
        if roll < 0.6:
            lines.append(f'{ind}{head}have c{next(labels)}: "{prop()}"{clauses} {just}')
        elif roll < 0.7:
            lines.append(f'{ind}{head}obtain k{next(labels)} m where o: "{prop()}"{clauses} {just}')
        elif roll < 0.8:
            lines.append(f'{ind}assume a{next(labels)}: "{prop()}"')
        elif roll < 0.9:
            lines.append(f'{ind}have c{next(labels)}: "{prop()}"')
            lines.append(f"{ind}proof -")
            step(ind + "  ")
            lines.append(f"{ind}  then show ?thesis sledgehammer")
            lines.append(f"{ind}qed")
        else:
            lines.append(f'{ind}have c{next(labels)}: "{prop()}"')
            lines.append(f'{ind}proof (cases "even n")')
            for name in ("True", "(Suc m)"):
                if name != "True":
                    lines.append(f"{ind}next")
                lines.append(f"{ind}case {name}")
                step(ind + "  ")
                lines.append(f"{ind}  show ?case by simp")
            lines.append(f"{ind}qed")

    for _ in range(units):
        step("  ")
    lines += ["  then show ?thesis sledgehammer", "qed", ""]
    return "\n".join(lines)


def _nested_text(blocks: int) -> str:
    """`blocks` proof blocks, each but the outermost justifying a step."""
    inner = 'have c: "x"\nproof -\n' * (blocks - 1)
    return f'theorem t: shows "P"\nproof -\n{inner}show ?thesis sledgehammer\n' + "qed\n" * blocks


def _ast_or_error(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("error", exc.offset, exc.message, exc.expected)


def _assert_parses_like_oracle(text):
    """An equal AST, or an equal (offset, message, expected) error, parsed
    and compared under the default recursion limit."""
    got, want = _ast_or_error(parse_sketch, text), _ast_or_error(parse_oracle.parse_sketch, text)
    assert got == want, text


PARSE_INSERTS = ('"', "(*", "by", "qed", ":", "sorry")

# One step or block per error the step-level descent can raise, and a few
# that parse; each goes into a proof block of its own.
PARSE_ERROR_STEPS = (
    'have c1 "x" sledgehammer', "have c1: x sledgehammer", 'have "x" using sledgehammer',
    'have "x" using h0 unfolding by auto', 'have "x" by sorry', 'have "x" by "y"', 'have "x" by',
    'have "x" by (auto', 'have "x" <ATP> by auto', 'have "x" <ATP> apply auto </ATP>',
    'have "x"', 'have "x" qed', "show x sledgehammer", 'obtain where "x" sledgehammer',
    'obtain k "x" sledgehammer', 'obtain k where k: sledgehammer', 'then assume "x"', "assume x",
    'then then have "x" sledgehammer', 'foo "x"', '"x"', "(* a *) (* b *)",
    'have "x" sledgehammer next', 'have "x" proof (cases x) case True next qed',
    'have "x" proof - case (Suc n) show ?case sorry qed', 'have "x" proof case qed',
    'also obtain k m where o: "x" using a b unfolding c <...>', "show ?case oops",
    'have "x" using a using b unfolding c d <...>',
)


@st.composite
def parse_inputs(draw):
    """A generated, fixture, large-shaped, deeply nested or error-step
    sketch text: as is, with one character or word deleted, or with one of
    PARSE_INSERTS or a lone surrogate inserted, bare or between spaces; and
    half the time with a lone surrogate in its first string, so that an
    error after it has its byte offset measured across it."""
    source = draw(st.sampled_from(("generated", "fixture", "large", "nested", "error_step")))
    if source == "generated":
        text = serialize(AstGen(draw(st.integers(0, 2**32))).sketch())
    elif source == "fixture":
        text = draw(st.sampled_from(_FIXTURE_TEXTS))
    elif source == "large":
        text = _large_shaped_text(random.Random(draw(st.integers(0, 2**32))), draw(st.integers(1, 40)))
    elif source == "nested":
        text = _nested_text(draw(st.integers(MAX_BLOCK_DEPTH - 2, MAX_BLOCK_DEPTH + 2)))
    else:
        text = _error_step_text(draw(st.sampled_from(PARSE_ERROR_STEPS)))
    mutation = draw(st.sampled_from(("none", "delete", "delete_word", "insert")))
    words = [m.span() for m in re.finditer(r"\S+", text)]
    if mutation == "delete" and text:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + text[at + 1 :]
    elif mutation == "delete_word" and words:
        start, end = draw(st.sampled_from(words))
        text = text[:start] + text[end:]
    elif mutation == "insert":
        at = draw(st.integers(0, len(text)))
        pad = draw(st.sampled_from(("", " ")))
        text = text[:at] + pad + draw(st.sampled_from(PARSE_INSERTS) | SURROGATES) + pad + text[at:]
    if draw(st.booleans()):
        at = text.find('"') + 1
        text = text[:at] + draw(SURROGATES) + text[at:]
    return text


def _error_step_text(step: str) -> str:
    return f'theorem t: shows "P"\nproof -\n  {step}\n  show ?thesis sledgehammer\nqed\n'


@settings(max_examples=1000, deadline=None)
@given(parse_inputs())
def test_parser_matches_plain_descent_oracle(text):
    _assert_parses_like_oracle(text)


def test_a_case_after_proof_steps_is_a_parse_error():
    # the steps and the case belong to one block, which may hold only
    # comments before its cases; this was a ValueError from the AST node
    text = (
        'theorem t: shows "P"\nproof -\n  have c: "Q" sledgehammer\n'
        '  case True\n    show ?case by simp\n  qed\n'
    )
    with pytest.raises(ParseError, match="may only hold leading comments") as raised:
        parse_sketch(text)
    assert raised.value.offset == text.index("case True")
    _assert_parses_like_oracle(text)


def test_parser_matches_plain_descent_oracle_on_fixture_sketches():
    for text in _FIXTURE_TEXTS:
        assert parse_sketch(text) == parse_oracle.parse_sketch(text)


@pytest.mark.parametrize("step", PARSE_ERROR_STEPS)
def test_parser_matches_plain_descent_oracle_on_each_step_error(step):
    _assert_parses_like_oracle(_error_step_text(step))


def test_parser_matches_plain_descent_oracle_at_the_nesting_limit():
    # the last depth that parses and the first that does not
    for blocks in (MAX_BLOCK_DEPTH, MAX_BLOCK_DEPTH + 1):
        _assert_parses_like_oracle(_nested_text(blocks))
    assert count_gaps(parse_sketch(_nested_text(MAX_BLOCK_DEPTH))) == 1
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_sketch(_nested_text(MAX_BLOCK_DEPTH + 1))


def test_the_deepest_tree_the_parser_accepts_compares_hashes_and_prints():
    # under the default recursion limit, with pytest's own frames below
    assert sys.getrecursionlimit() == 1000
    text = _nested_text(MAX_BLOCK_DEPTH)
    ast, again = parse_sketch(text), parse_sketch(text)
    assert ast == again and hash(ast) == hash(again)
    assert repr(ast).count("ProofBlock(") == MAX_BLOCK_DEPTH
    # unequal only in the innermost step, so the comparison walks every block
    assert ast != parse_sketch(text.replace("sledgehammer", "by simp"))


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
    tracemalloc.start()
    try:
        assert count_gaps(ast) == 13_001
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 20_000_000  # gap sites copy nothing per gap


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
    for _ in range(3):
        ast = fill(ast, extract_gaps(ast)[0], "by auto")
    assert count_gaps(ast) == 0
    assert "sledgehammer" not in serialize(ast)
    assert parse_sketch(serialize(ast)) == ast


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_gap_conservation_on_generated_asts(seed):
    ast = AstGen(seed).sketch()
    gaps = extract_gaps(ast)
    if gaps:
        remaining = extract_gaps(fill(ast, gaps[0], "by auto"))
        assert [s.path for s in remaining] == [s.path for s in gaps[1:]]
    filled = ast
    for site in reversed(gaps):
        filled = fill(filled, site, "by auto")
    assert extract_gaps(filled) == []
    assert filled == parse_sketch("by auto".join(render_segments(ast)))
    # each gap now holds the step; every node with no gap below it is kept
    gap_paths = {site.path for site in gaps}
    before, after = list(walk(ast)), list(walk(filled))
    assert [path for path, _ in after] == [path for path, _ in before]
    for (path, old), (_, new) in zip(before, after):
        if path in gap_paths:
            assert new == replace(old, justification=Tactic("by auto"))
        elif not any(gap[: len(path)] == path for gap in gap_paths):
            assert new == old


def _assert_walk_matches_oracle(ast):
    """The same (path, node) list, and the same results from the two ops
    that share the walk when they run on the oracle instead."""
    assert list(walk(ast)) == list(walk_oracle(ast))
    got = extract_gaps(ast), count_comments(ast)
    with mock.patch.object(ops, "walk", walk_oracle):
        assert (extract_gaps(ast), count_comments(ast)) == got


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32))
def test_walk_matches_recursive_oracle_on_generated_asts(seed):
    _assert_walk_matches_oracle(AstGen(seed).sketch())


def test_walk_matches_recursive_oracle_on_fixture_sketches(sketch_files):
    for path in sketch_files:
        _assert_walk_matches_oracle(parse_sketch(path.read_text()))


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
        filled = serialize(fill(ast, site, "by auto"))
        before = GAP_TOKEN.join(segments[: k + 1])
        assert filled == before + "by auto" + GAP_TOKEN.join(segments[k + 1 :])


def test_each_fixture_sketch_renders_one_segment_more_than_its_gaps(sketch_files):
    # `prove_sketch` takes its gap count from the render, not from a walk
    asts = [parse_sketch(path.read_text()) for path in sketch_files]
    asts.append(parse_sketch('theorem t: shows "G"\n  sledgehammer\n'))  # the whole proof a gap
    asts.append(parse_sketch('theorem t: shows "G"\n'))  # a statement alone
    assert sum(len(extract_gaps(ast)) for ast in asts) > len(asts)
    for ast in asts:
        assert len(render_segments(ast)) - 1 == len(extract_gaps(ast))

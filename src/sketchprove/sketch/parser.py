"""Recursive-descent parser for declarative proof sketches.

The grammar covers the constructs the pipeline actually emits and consumes:
theorem headers (fixes/assumes/shows), proof/qed blocks with optional method
and case lists, have/show/obtain/assume steps with then/also/finally chain
prefixes, using/unfolding clauses, comments, and open-gap markers. Anything
else is a ParseError with a byte offset and the expected-token set; the
parser never raises anything else, no matter the input bytes. Proof
blocks nest at most MAX_BLOCK_DEPTH (50) deep: the AST's dataclass `==`,
`hash` and `repr` recurse up to about ten frames per block, so every tree
the parser accepts can be compared, hashed and printed under Python's
default recursion limit (1000) with half of it left to the caller.

Tokenizing is one regex pass: each token, with the whitespace before it,
costs one match, and only a comment's end is found outside the pattern
(`comment_end`, since comments nest). A token is a plain tuple.

The descent keeps one method per grammar rule. The rules that run once
per step or token (a statement run, a step, its `using` clauses and its
justification) unpack the token tuples in place with a local cursor,
instead of a `peek`/`advance` call per token, and every gap shares one
`Gap`; the header and block structure keep the small token helpers. Both
raise the same errors, at the same offsets, as a descent that makes a
method call per token (kept in the tests as the reference).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .nodes import (
    AssumeStep,
    Comment,
    Gap,
    HaveStep,
    InvalidSite,
    Justification,
    Nested,
    ObtainStep,
    ProofBlock,
    ProofNode,
    ShowStep,
    SketchAst,
    Tactic,
    TheoremHeader,
)

MAX_BLOCK_DEPTH = 50

RESERVED = frozenset(
    """theorem fixes assumes shows and proof qed have show obtain assume
    where using unfolding by then also finally case next sledgehammer
    sorry oops""".split()
)
CHAIN_WORDS = ("then", "also", "finally")
GAP_WORDS = frozenset({"sledgehammer", "ATP"})
_STEP_WORDS = frozenset({"have", "show", "obtain", "assume"})
_RUN_END = frozenset({"qed", "case", "next"})  # words that end a block's statement run


@dataclass
class ParseError(Exception):
    offset: int
    message: str
    expected: frozenset[str] = frozenset()

    def __str__(self) -> str:
        text = f"{self.message} at byte {self.offset}"
        if self.expected:
            text += " (expected: %s)" % ", ".join(sorted(self.expected))
        return text


# A token is a plain tuple, (kind, text, start, end): kind is ident |
# number | string | qident | symbol | comment | other | eof, and start and
# end are character offsets into the source. A plain tuple, not a named
# one, since a large sketch has thousands and the parser unpacks each.
_Token = tuple[str, str, int, int]


# One match per token, the whitespace before it included. `quote` is an
# unterminated string; `other` is any other non-space character (strays
# survive only inside opaque regions, method parentheses and <ATP> spans; the
# parser rejects them elsewhere). It is \S, not `.`, so trailing whitespace
# fails to match instead of backtracking into a token. Group names are token
# kinds, except the three groups the loop handles itself.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<ident>[A-Za-z_][A-Za-z0-9_'.]*)
      | (?P<comment_open>\(\*)
      | (?P<string>"[^"]*")
      | (?P<quote>")
      | (?P<symbol><ATP>|</ATP>|<\.\.\.>|::|:|\(|\)|-)
      | (?P<qident>\?[A-Za-z_][A-Za-z0-9_']*)
      | (?P<number>[0-9]+)
      | (?P<other>\S)
    )""",
    re.VERBOSE,
)

_VERBATIM_KINDS = frozenset({"ident", "symbol", "qident", "number", "other"})


def comment_end(source: str, open_pos: int) -> int:
    """Where the possibly nested (* ... *) comment opened at `open_pos`
    ends: just past its closing marker, or -1 when it is unterminated."""
    depth = 1
    pos = open_pos + 2
    while depth:
        next_open = source.find("(*", pos)
        next_close = source.find("*)", pos)
        if next_close == -1:
            return -1
        if next_open != -1 and next_open < next_close:
            depth += 1
            pos = next_open + 2
        else:
            depth -= 1
            pos = next_close + 2
    return pos


class _RawParseError(Exception):
    """Internal: carries character offsets; converted to byte offsets at the
    parse_sketch boundary."""

    def __init__(self, pos: int, message: str, expected: tuple[str, ...] = ()):
        self.pos = pos
        self.message = message
        self.expected = frozenset(expected)


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    match_at = _TOKEN_RE.match
    pos = 0
    while (match := match_at(source, pos)) is not None:
        kind = match.lastgroup
        pos = match.end()
        text = match[kind]
        if kind in _VERBATIM_KINDS:
            append((kind, text, pos - len(text), pos))
        elif kind == "string":
            append(("string", text[1:-1], pos - len(text), pos))
        elif kind == "comment_open":
            start = pos - 2
            pos = comment_end(source, start)
            if pos == -1:
                raise _RawParseError(start, "unterminated comment")
            append(("comment", source[start + 2 : pos - 2].strip(), start, pos))
        else:
            raise _RawParseError(pos - 1, "unterminated string literal")
    n = len(source)
    append(("eof", "", n, n))
    return tokens


_GAP = Gap()  # a gap has no fields, so every gap shares this one


def _squash(text: str) -> str:
    return " ".join(text.split())


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    # -- token plumbing, for the header and block structure ------------------
    # advance() never moves past the eof sentinel, so self.i always indexes
    # a valid token.

    def at_kind(self, kind: str) -> bool:
        return self.tokens[self.i][0] == kind

    def advance(self) -> str:
        """Consume the next token; returns its text."""
        kind, text, _, _ = self.tokens[self.i]
        if kind != "eof":
            self.i += 1
        return text

    def at_ident(self, *words: str) -> bool:
        kind, text, _, _ = self.tokens[self.i]
        return kind == "ident" and text in words

    def at_symbol(self, sym: str) -> bool:
        kind, text, _, _ = self.tokens[self.i]
        return kind == "symbol" and text == sym

    def take_name(self) -> str | None:
        """Consume an identifier that is not a reserved word; returns its
        text, or None (consuming nothing) when the next token is not one."""
        kind, text, _, _ = self.tokens[self.i]
        if kind != "ident" or text in RESERVED:
            return None
        self.i += 1
        return text

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> _RawParseError:
        return _RawParseError(self.tokens[self.i][2], message, expected)

    def expect_ident(self, word: str) -> None:
        if not self.at_ident(word):
            raise self.fail(f"expected keyword '{word}'", (word,))
        self.i += 1

    def expect_string(self, what: str) -> str:
        """Consume a string literal; returns its text."""
        if not self.at_kind("string"):
            raise self.fail(f"expected quoted {what}", ('"..."',))
        return self.advance()

    # -- header ------------------------------------------------------------

    def parse_header(self) -> TheoremHeader:
        self.expect_ident("theorem")
        name = self.take_name()
        if name is not None and self.at_symbol(":"):
            self.advance()
        fixes: list[tuple[str, str]] = []
        assumes: list[tuple[str | None, str]] = []
        shows: str | None = None

        if self.at_kind("string"):
            shows = self.advance()
        else:
            while True:
                if self.at_ident("fixes"):
                    self.advance()
                    self.parse_fixes_groups(fixes)
                elif self.at_ident("assumes"):
                    self.advance()
                    self.parse_assumes_items(assumes)
                elif self.at_ident("shows"):
                    self.advance()
                    shows = self.expect_string("goal proposition")
                    break
                else:
                    raise self.fail(
                        "expected header clause", ("fixes", "assumes", "shows")
                    )
        if shows is None:
            raise self.fail("theorem header lacks a goal", ("shows",))
        try:
            return TheoremHeader(name, tuple(fixes), tuple(assumes), shows)
        except ValueError as exc:
            raise self.fail(str(exc))

    def parse_fixes_groups(self, out: list[tuple[str, str]]) -> None:
        while True:
            variables = []
            while (name := self.take_name()) is not None:
                variables.append(name)
            if not variables:
                raise self.fail("expected fixed variable name", ("identifier",))
            if not self.at_symbol("::"):
                raise self.fail("expected sort annotation", ("::",))
            self.advance()
            sort = self.advance() if self.at_kind("string") else self.take_name()
            if sort is None:
                raise self.fail("expected sort", ("identifier", '"..."'))
            out.extend((v, sort) for v in variables)
            if self.at_ident("and"):
                self.advance()
                continue
            return

    def parse_assumes_items(self, out: list[tuple[str | None, str]]) -> None:
        while True:
            out.append((self.parse_optional_label(), self.expect_string("assumption")))
            if self.at_ident("and"):
                self.advance()
                continue
            return

    # -- proof body --------------------------------------------------------

    def parse_paren_group(self) -> str:
        """Consume a balanced ( ... ) token run; returns the raw text with
        whitespace runs collapsed."""
        if not self.at_symbol("("):
            raise self.fail("expected parenthesized text", ("(",))
        tokens = self.tokens
        i = self.i
        start = tokens[i][2]
        depth = 0
        while True:
            kind, text, _, end = tokens[i]
            if kind == "eof":
                raise _RawParseError(start, "unbalanced parenthesis")
            i += 1
            if kind == "symbol" and text == "(":
                depth += 1
            elif kind == "symbol" and text == ")":
                depth -= 1
                if depth == 0:
                    self.i = i
                    return _squash(self.source[start:end])

    def parse_optional_label(self) -> str | None:
        """A `name:` label: an identifier that is not reserved, then ':'."""
        kind, name, _, _ = self.tokens[self.i]
        if kind != "ident" or name in RESERVED:
            return None
        kind, colon, _, _ = self.tokens[self.i + 1]  # an ident is never the eof sentinel
        if kind != "symbol" or colon != ":":
            return None
        self.i += 2
        return name

    def at_justification(self) -> bool:
        return (
            self.at_symbol("<...>")
            or self.at_symbol("<ATP>")
            or self.at_ident("by", "proof", "sorry", "oops")
            or self.at_ident(*GAP_WORDS)
        )

    # -- steps and justifications --------------------------------------------
    # The methods below run once per step or token of a sketch, so they
    # read `self.tokens` directly with a local cursor, writing it back to
    # `self.i` before they call out or return.

    def parse_justification(self, depth: int) -> Justification:
        tokens = self.tokens
        i = self.i
        kind, text, start, _ = tokens[i]
        if kind == "ident":
            if text in GAP_WORDS:
                self.i = i + 1
                return _GAP
            if text == "by":
                kind, method, method_start, _ = tokens[i + 1]
                if kind == "ident" and method not in RESERVED:
                    self.i = i + 2
                elif kind == "symbol" and method == "(":
                    self.i = i + 1
                    method = self.parse_paren_group()
                else:
                    raise _RawParseError(
                        method_start, "expected proof method", ("identifier", "(")
                    )
                return Tactic("by " + method)
            if text == "sorry" or text == "oops":
                self.i = i + 1
                return Tactic(text)
            if text == "proof":
                return Nested(self.parse_block(depth))
        elif kind == "symbol":
            if text == "<...>":
                self.i = i + 1
                return _GAP
            if text == "<ATP>":
                return self.parse_atp_span()
        raise _RawParseError(
            start, "expected justification", ("by", "proof", "sledgehammer", "<...>", "<ATP>")
        )

    def parse_atp_span(self) -> Justification:
        """An <ATP> ... </ATP> span: a gap when empty, else the closing step
        its squashed text holds."""
        tokens = self.tokens
        i = self.i
        open_start = tokens[i][2]
        i += 1
        inner_start = inner_end = tokens[i][2]
        while True:
            kind, text, _, end = tokens[i]
            if kind == "symbol" and text == "</ATP>":
                break
            if kind == "eof":
                raise _RawParseError(open_start, "unterminated <ATP> span")
            inner_end = end
            i += 1
        self.i = i + 1
        inner = _squash(self.source[inner_start:inner_end])
        if not inner:
            return _GAP
        try:
            return Tactic(closing_step_text(inner))
        except InvalidSite:
            raise _RawParseError(
                open_start, "<ATP> span does not hold a closing step"
            ) from None

    def parse_using_clauses(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Any run of `using`/`unfolding` clauses, each naming at least one
        fact that is not a reserved word."""
        tokens = self.tokens
        i = self.i
        uses: list[str] = []
        unfolds: list[str] = []
        kind, keyword, _, _ = tokens[i]
        while kind == "ident" and (keyword == "using" or keyword == "unfolding"):
            names = uses if keyword == "using" else unfolds
            before = len(names)
            i += 1
            kind, keyword, start, _ = tokens[i]
            while kind == "ident" and keyword not in RESERVED:
                names.append(keyword)
                i += 1
                kind, keyword, _, _ = tokens[i]
            if len(names) == before:
                raise _RawParseError(start, "expected fact name", ("identifier",))
        self.i = i
        return tuple(uses), tuple(unfolds)

    def parse_step(self, depth: int, comment: str | None) -> ProofNode:
        tokens = self.tokens
        i = self.i
        kind, keyword, start, _ = tokens[i]
        chain = None
        if kind == "ident" and keyword in CHAIN_WORDS:
            chain = keyword
            i += 1
            kind, keyword, start, _ = tokens[i]
        if kind != "ident" or keyword not in _STEP_WORDS:
            raise _RawParseError(
                start, "expected proof step", ("have", "show", "obtain", "assume")
            )
        i += 1
        if keyword == "show":
            kind, target, start, _ = tokens[i]
            if kind != "qident" and kind != "string":
                raise _RawParseError(start, "expected show target", ("?thesis", "?case", '"..."'))
            self.i = i + 1
            uses, unfolds = self.parse_using_clauses()
            just = self.parse_justification(depth)
            return ShowStep(target, uses, unfolds, just, chain, comment)
        if keyword == "obtain":
            bound = []
            kind, name, start, _ = tokens[i]
            while kind == "ident" and name not in RESERVED:
                bound.append(name)
                i += 1
                kind, name, start, _ = tokens[i]
            if not bound:
                raise _RawParseError(start, "expected bound variable", ("identifier",))
            if kind != "ident" or name != "where":
                raise _RawParseError(start, "expected keyword 'where'", ("where",))
            i += 1
        elif keyword == "assume" and chain is not None:
            raise _RawParseError(start, "assume does not take a chain prefix")
        self.i = i
        label = self.parse_optional_label()
        kind, prop, start, _ = tokens[self.i]
        if kind != "string":
            what = "assumption" if keyword == "assume" else "proposition"
            raise _RawParseError(start, f"expected quoted {what}", ('"..."',))
        self.i += 1
        if keyword == "assume":
            return AssumeStep(label, prop, comment)
        uses, unfolds = self.parse_using_clauses()
        just = self.parse_justification(depth)
        if keyword == "have":
            return HaveStep(label, prop, uses, unfolds, just, chain, comment)
        return ObtainStep(tuple(bound), label, prop, uses, unfolds, just, chain, comment)

    def parse_statements(self, depth: int) -> list[ProofNode]:
        """Parse a statement run until the end of input or a word that ends
        a block's run (`qed`, `case`, `next`); attaches a comment to the
        step right after it, otherwise keeps it standalone."""
        tokens = self.tokens
        nodes: list[ProofNode] = []
        pending: str | None = None  # a comment not yet attached or kept
        while True:
            kind, text, _, _ = tokens[self.i]
            if kind == "comment":
                if pending is not None:
                    nodes.append(Comment(pending))
                pending = text
                self.i += 1
            elif kind == "eof" or kind == "ident" and text in _RUN_END:
                if pending is not None:
                    nodes.append(Comment(pending))
                return nodes
            else:
                nodes.append(self.parse_step(depth, pending))
                pending = None

    def parse_case_name(self) -> str:
        kind, text, _, _ = self.tokens[self.i]
        if (kind == "ident" or kind == "number") and text not in RESERVED:
            return self.advance()
        if self.at_symbol("("):
            return self.parse_paren_group()
        raise self.fail("expected case name", ("identifier", "("))

    def parse_block(self, depth: int) -> ProofBlock:
        if depth >= MAX_BLOCK_DEPTH:
            raise self.fail("proof nesting too deep")
        self.expect_ident("proof")
        method = None
        if self.at_symbol("-"):
            self.advance()
            method = "-"
        elif self.at_symbol("("):
            method = self.parse_paren_group()

        children = self.parse_statements(depth + 1)
        if self.at_ident("case") and not all(isinstance(n, Comment) for n in children):
            raise self.fail("a block with cases may only hold leading comments", ("qed",))
        cases: list[tuple[str, tuple[ProofNode, ...]]] = []
        while self.at_ident("case"):
            self.advance()
            name = self.parse_case_name()
            body = self.parse_statements(depth + 1)
            cases.append((name, tuple(body)))
            if self.at_ident("next"):
                self.advance()
                if not self.at_ident("case"):
                    raise self.fail("expected another case after 'next'", ("case",))
        if self.at_ident("next"):
            raise self.fail("'next' outside a case list", ("qed",))
        self.expect_ident("qed")
        return ProofBlock(method, tuple(children), tuple(cases))

    # -- entry point ---------------------------------------------------------

    def parse(self) -> SketchAst:
        header = self.parse_header()
        body: list[ProofNode] = []
        root_just: Justification | None = None

        def take_comments() -> None:
            while self.at_kind("comment"):
                body.append(Comment(self.advance()))

        take_comments()
        if self.at_ident("proof"):
            body.append(self.parse_block(0))
        elif self.at_justification():
            root_just = self.parse_justification(0)
        take_comments()
        if not self.at_kind("eof"):
            raise self.fail("trailing input after proof", ("end of input",))
        return SketchAst(header, tuple(body), root_just)


def parse_sketch(source: str | bytes) -> SketchAst:
    """Parse sketch text into an AST. Raises ParseError (with a byte offset
    and expected-token set) on any malformed input; never anything else."""
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(exc.start, "invalid UTF-8") from None
    else:
        text = source
    try:
        return _Parser(text).parse()
    except _RawParseError as exc:
        # a lone surrogate is text too: it counts its three UTF-8 bytes
        offset = len(text[: exc.pos].encode("utf-8", "surrogatepass"))
        raise ParseError(offset, exc.message, exc.expected) from None
    except RecursionError:
        raise ParseError(0, "input nests too deeply") from None


# Only steps that repeat gain from the cache: a cascade tactic's step (one
# of a fixed list) always does, a hammer reconstruction usually does not.
@lru_cache(maxsize=1024)
def closing_step_text(text: str) -> str:
    """The canonical text a gap holds once `text` closes it, as the sketch
    renders it; an <ATP> span holds the same. Raises InvalidSite when `text`
    is not a concrete closing step."""
    try:
        probe = parse_sketch(f'theorem t: shows "True"\n  {text}\n')
    except ParseError as exc:
        raise InvalidSite(f"closing step does not parse: {exc}") from None
    just = probe.root_justification
    if not isinstance(just, Tactic):
        raise InvalidSite("closing step must be a concrete justification")
    return just.text

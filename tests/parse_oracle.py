"""Test-side parser: the sketch grammar's recursive descent written the
plain way, a method call per token (`peek`, `advance`, `at_ident`,
`expect_string`) over the oracle tokenizer, as the reference the flat-loop
descent of `sketchprove.sketch.parser` is checked against. It builds the
package's node classes, so the two ASTs compare with `==`."""

from __future__ import annotations

from tokenize_oracle import _Token, tokenize
from sketchprove.sketch.nodes import (
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
from sketchprove.sketch.parser import (
    CHAIN_WORDS,
    GAP_WORDS,
    MAX_BLOCK_DEPTH,
    RESERVED,
    ParseError,
    _RawParseError,
)


def _squash(text: str) -> str:
    return " ".join(text.split())


class Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.i = 0

    # -- token plumbing ----------------------------------------------------
    # advance() never moves past the eof sentinel, so self.i always indexes
    # a valid token.

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at_ident(self, *words: str) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == "ident" and tok.text in words

    def at_symbol(self, sym: str) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == "symbol" and tok.text == sym

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> _RawParseError:
        return _RawParseError(self.peek().start, message, frozenset(expected))

    def expect_ident(self, word: str) -> _Token:
        if not self.at_ident(word):
            raise self.fail(f"expected keyword '{word}'", (word,))
        return self.advance()

    def expect_string(self, what: str) -> _Token:
        if self.peek().kind != "string":
            raise self.fail(f"expected quoted {what}", ('"..."',))
        return self.advance()

    # -- header ------------------------------------------------------------

    def parse_header(self) -> TheoremHeader:
        self.expect_ident("theorem")
        name = None
        if self.peek().kind == "ident" and self.peek().text not in RESERVED:
            name = self.advance().text
            if self.at_symbol(":"):
                self.advance()
        fixes: list[tuple[str, str]] = []
        assumes: list[tuple[str | None, str]] = []
        shows: str | None = None

        if self.peek().kind == "string":
            shows = self.advance().text
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
                    shows = self.expect_string("goal proposition").text
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
            raise _RawParseError(self.peek().start, str(exc))

    def parse_fixes_groups(self, out: list[tuple[str, str]]) -> None:
        while True:
            variables = []
            while self.peek().kind == "ident" and self.peek().text not in RESERVED:
                variables.append(self.advance().text)
            if not variables:
                raise self.fail("expected fixed variable name", ("identifier",))
            if not self.at_symbol("::"):
                raise self.fail("expected sort annotation", ("::",))
            self.advance()
            tok = self.peek()
            if tok.kind == "string":
                sort = self.advance().text
            elif tok.kind == "ident" and tok.text not in RESERVED:
                sort = self.advance().text
            else:
                raise self.fail("expected sort", ("identifier", '"..."'))
            out.extend((v, sort) for v in variables)
            if self.at_ident("and"):
                self.advance()
                continue
            return

    def parse_assumes_items(self, out: list[tuple[str | None, str]]) -> None:
        while True:
            out.append((self.parse_optional_label(), self.expect_string("assumption").text))
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
        start = self.peek().start
        depth = 0
        while True:
            tok = self.advance()
            if tok.kind == "eof":
                raise _RawParseError(start, "unbalanced parenthesis")
            if tok.kind == "symbol" and tok.text == "(":
                depth += 1
            elif tok.kind == "symbol" and tok.text == ")":
                depth -= 1
                if depth == 0:
                    return _squash(self.source[start : tok.end])

    def parse_fact_names(self) -> tuple[str, ...]:
        facts = []
        while self.peek().kind == "ident" and self.peek().text not in RESERVED:
            facts.append(self.advance().text)
        if not facts:
            raise self.fail("expected fact name", ("identifier",))
        return tuple(facts)

    def at_justification(self) -> bool:
        return (
            self.at_symbol("<...>")
            or self.at_symbol("<ATP>")
            or self.at_ident("by", "proof", "sorry", "oops")
            or self.at_ident(*GAP_WORDS)
        )

    def parse_justification(self, depth: int) -> Justification:
        if self.at_symbol("<...>"):
            self.advance()
            return Gap()
        if self.at_ident(*GAP_WORDS):
            self.advance()
            return Gap()
        if self.at_symbol("<ATP>"):
            open_tok = self.advance()
            inner_start = self.peek().start
            inner_end = inner_start
            while not self.at_symbol("</ATP>"):
                if self.peek().kind == "eof":
                    raise _RawParseError(open_tok.start, "unterminated <ATP> span")
                inner_end = self.advance().end
            self.advance()
            inner = _squash(self.source[inner_start:inner_end])
            if not inner:
                return Gap()
            try:
                return Tactic(closing_step_text(inner))
            except InvalidSite:
                raise _RawParseError(
                    open_tok.start, "<ATP> span does not hold a closing step"
                ) from None
        if self.at_ident("sorry", "oops"):
            return Tactic(self.advance().text)
        if self.at_ident("by"):
            start = self.advance().start
            if self.at_symbol("("):
                method = self.parse_paren_group()
            elif self.peek().kind == "ident" and self.peek().text not in RESERVED:
                method = self.advance().text
            else:
                raise self.fail("expected proof method", ("identifier", "("))
            return Tactic(_squash(self.source[start : start + 2]) + " " + method)
        if self.at_ident("proof"):
            return Nested(self.parse_block(depth))
        raise self.fail(
            "expected justification",
            ("by", "proof", "sledgehammer", "<...>", "<ATP>"),
        )

    def parse_using_clauses(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        uses: list[str] = []
        unfolds: list[str] = []
        while self.at_ident("using", "unfolding"):
            keyword = self.advance().text
            names = self.parse_fact_names()
            (uses if keyword == "using" else unfolds).extend(names)
        return tuple(uses), tuple(unfolds)

    def parse_optional_label(self) -> str | None:
        """A `name:` label: an identifier that is not reserved, then ':'."""
        tok = self.tokens[self.i]
        if tok.kind != "ident" or tok.text in RESERVED:
            return None
        colon = self.tokens[self.i + 1]  # an ident is never the eof sentinel
        if colon.kind != "symbol" or colon.text != ":":
            return None
        self.i += 2
        return tok.text

    def parse_step(self, depth: int, comment: str | None) -> ProofNode:
        tok = self.peek()
        chain = None
        if tok.kind == "ident" and tok.text in CHAIN_WORDS:
            chain = self.advance().text
            tok = self.peek()
        keyword = tok.text if tok.kind == "ident" else None
        if keyword == "have":
            self.advance()
            label = self.parse_optional_label()
            prop = self.expect_string("proposition").text
            uses, unfolds = self.parse_using_clauses()
            just = self.parse_justification(depth)
            node: ProofNode = HaveStep(label, prop, uses, unfolds, just, chain, comment)
        elif keyword == "show":
            self.advance()
            tok = self.peek()
            if tok.kind == "qident":
                target = self.advance().text
            elif tok.kind == "string":
                target = self.advance().text
            else:
                raise self.fail("expected show target", ("?thesis", "?case", '"..."'))
            uses, unfolds = self.parse_using_clauses()
            just = self.parse_justification(depth)
            node = ShowStep(target, uses, unfolds, just, chain, comment)
        elif keyword == "obtain":
            self.advance()
            bound = []
            while self.peek().kind == "ident" and self.peek().text not in RESERVED:
                bound.append(self.advance().text)
            if not bound:
                raise self.fail("expected bound variable", ("identifier",))
            self.expect_ident("where")
            label = self.parse_optional_label()
            prop = self.expect_string("proposition").text
            uses, unfolds = self.parse_using_clauses()
            just = self.parse_justification(depth)
            node = ObtainStep(tuple(bound), label, prop, uses, unfolds, just, chain, comment)
        elif keyword == "assume":
            if chain is not None:
                raise _RawParseError(tok.start, "assume does not take a chain prefix")
            self.advance()
            label = self.parse_optional_label()
            prop = self.expect_string("assumption").text
            node = AssumeStep(label, prop, comment)
        else:
            raise self.fail(
                "expected proof step", ("have", "show", "obtain", "assume")
            )
        return node

    def parse_statements(self, depth: int, stop_words: tuple[str, ...]) -> list[ProofNode]:
        """Parse a statement run until one of `stop_words`; attaches a comment
        to the step right after it, otherwise keeps it standalone."""
        nodes: list[ProofNode] = []
        pending: str | None = None  # a comment not yet attached or kept

        while True:
            tok = self.peek()
            at_end = tok.kind == "eof" or (tok.kind == "ident" and tok.text in stop_words)
            if pending is not None and (at_end or tok.kind == "comment"):
                nodes.append(Comment(pending))
                pending = None
            if at_end:
                return nodes
            if tok.kind == "comment":
                pending = self.advance().text
                continue
            nodes.append(self.parse_step(depth, pending))
            pending = None

    def parse_case_name(self) -> str:
        tok = self.peek()
        if tok.kind in ("ident", "number") and tok.text not in RESERVED:
            return self.advance().text
        if self.at_symbol("("):
            return self.parse_paren_group()
        raise self.fail("expected case name", ("identifier", "("))

    def parse_block(self, depth: int) -> ProofBlock:
        if depth >= MAX_BLOCK_DEPTH:
            raise _RawParseError(self.peek().start, "proof nesting too deep")
        self.expect_ident("proof")
        method = None
        if self.at_symbol("-"):
            self.advance()
            method = "-"
        elif self.at_symbol("("):
            method = self.parse_paren_group()

        children = self.parse_statements(depth + 1, ("qed", "case", "next"))
        if self.at_ident("case") and not all(isinstance(n, Comment) for n in children):
            raise self.fail("a block with cases may only hold leading comments", ("qed",))
        cases: list[tuple[str, tuple[ProofNode, ...]]] = []
        while self.at_ident("case"):
            self.advance()
            name = self.parse_case_name()
            body = self.parse_statements(depth + 1, ("qed", "case", "next"))
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
            while self.peek().kind == "comment":
                body.append(Comment(self.advance().text))

        take_comments()
        if self.at_ident("proof"):
            body.append(self.parse_block(0))
        elif self.at_justification():
            root_just = self.parse_justification(0)
        take_comments()
        if self.peek().kind != "eof":
            raise self.fail("trailing input after proof", ("end of input",))
        return SketchAst(header, tuple(body), root_just)


def parse_sketch(text: str) -> SketchAst:
    """The oracle's `parse_sketch` on text (not bytes)."""
    try:
        return Parser(text).parse()
    except _RawParseError as exc:
        offset = len(text[: exc.pos].encode("utf-8", "surrogatepass"))
        raise ParseError(offset, exc.message, exc.expected) from None
    except RecursionError:
        raise ParseError(0, "input nests too deeply") from None


def closing_step_text(text: str) -> str:
    try:
        probe = parse_sketch(f'theorem t: shows "True"\n  {text}\n')
    except ParseError as exc:
        raise InvalidSite(f"closing step does not parse: {exc}") from None
    just = probe.root_justification
    if not isinstance(just, Tactic):
        raise InvalidSite("closing step must be a concrete justification")
    return just.text

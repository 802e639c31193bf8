"""Test-side tokenizer: the sketch tokenizer written the plain way, one
whitespace match and one token match per step, as the oracle the one-pattern
tokenizer of `sketchprove.sketch.parser` is checked against."""

from __future__ import annotations

import re
from typing import NamedTuple

from sketchprove.sketch.parser import _RawParseError, comment_end


class _Token(NamedTuple):
    """A token with named fields; equal to the parser's plain token tuple."""

    kind: str
    text: str
    start: int
    end: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment_open>\(\*)
      | (?P<string>"[^"]*")
      | (?P<atp_open><ATP>)
      | (?P<atp_close></ATP>)
      | (?P<gapmark><\.\.\.>)
      | (?P<coloncolon>::)
      | (?P<colon>:)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<qident>\?[A-Za-z_][A-Za-z0-9_']*)
      | (?P<number>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_'.]*)
      | (?P<dash>-)
    """,
    re.VERBOSE,
)

_SYMBOL_GROUPS = {
    "atp_open": "<ATP>",
    "atp_close": "</ATP>",
    "gapmark": "<...>",
    "coloncolon": "::",
    "colon": ":",
    "lparen": "(",
    "rparen": ")",
    "dash": "-",
}


def tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            if source[pos] == '"':
                raise _RawParseError(pos, "unterminated string literal")
            tokens.append(_Token("other", source[pos], pos, pos + 1))
            pos += 1
            continue
        kind = match.lastgroup
        if kind == "ws":
            pos = match.end()
            continue
        if kind == "comment_open":
            end = comment_end(source, pos)
            if end == -1:
                raise _RawParseError(pos, "unterminated comment")
            tokens.append(_Token("comment", source[pos + 2 : end - 2].strip(), pos, end))
            pos = end
            continue
        if kind == "string":
            tokens.append(_Token("string", match.group()[1:-1], pos, match.end()))
        elif kind in ("ident", "number", "qident"):
            tokens.append(_Token(kind, match.group(), pos, match.end()))
        else:
            tokens.append(_Token("symbol", _SYMBOL_GROUPS[kind], pos, match.end()))
        pos = match.end()
    tokens.append(_Token("eof", "", n, n))
    return tokens

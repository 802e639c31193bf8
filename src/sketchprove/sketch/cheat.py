"""Detection of proof-invalidating escape keywords.

`sorry` and `oops` exit a proof without completing it; a proof text that
contains either as a standalone word outside comments and string literals
must never be reported valid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .parser import comment_end

CHEAT_KEYWORDS = ("sorry", "oops")

_KEYWORDS = "|".join(CHEAT_KEYWORDS)
_KEYWORD_RE = re.compile(rf"\b({_KEYWORDS})\b")
# Each match is one event: a comment opener, a whole string literal (an
# unterminated one runs to the end), or a keyword candidate. The candidate
# has no \b of its own, so the search can skip ahead by first character;
# _KEYWORD_RE then confirms the word boundaries.
_EVENT_RE = re.compile(rf'\(\*|"[^"]*"?|{_KEYWORDS}')


@dataclass(frozen=True)
class CheatReport:
    clean: bool
    offending: tuple[tuple[str, int], ...]  # (keyword, byte offset)


_CLEAN = CheatReport(True, ())


def check_no_cheat(source: str) -> CheatReport:
    """Scan `source` for cheat keywords outside comments and strings, in one
    regex pass: each search finds the next comment, string or keyword.

    A text that holds neither keyword as a substring gets the one shared
    clean report at once, without the scan. That is exact: a keyword
    match, inside a comment or string or not, needs its letters in a row,
    so no comment, string or word boundary can make one out of a text
    without them."""
    if "sorry" not in source and "oops" not in source:  # CHEAT_KEYWORDS, spelled out
        return _CLEAN
    offending: list[tuple[str, int]] = []
    search = _EVENT_RE.search
    pos = char_pos = byte_pos = 0
    while (match := search(source, pos)) is not None:
        start = match.start()
        first = source[start]
        if first == "(":
            pos = comment_end(source, start)
            if pos == -1:  # unterminated: the rest of the input is comment
                break
            continue
        if first != '"' and (keyword := _KEYWORD_RE.match(source, start)) is not None:
            # measured as a ParseError offset is: a lone surrogate counts 3 bytes
            byte_pos += len(source[char_pos:start].encode("utf-8", "surrogatepass"))
            char_pos = start
            offending.append((keyword.group(1), byte_pos))
        pos = match.end()
    return CheatReport(not offending, tuple(offending))

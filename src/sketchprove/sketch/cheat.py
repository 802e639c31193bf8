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

_KEYWORD_RE = re.compile(rf"\b({'|'.join(CHEAT_KEYWORDS)})\b")


@dataclass(frozen=True)
class CheatReport:
    clean: bool
    offending: tuple[tuple[str, int], ...]  # (keyword, byte offset)


def check_no_cheat(source: str) -> CheatReport:
    """Scan `source` for cheat keywords outside comments and strings."""
    offending: list[tuple[str, int]] = []
    pos = 0
    n = len(source)
    while pos < n:
        next_comment = source.find("(*", pos)
        next_string = source.find('"', pos)
        boundaries = [b for b in (next_comment, next_string) if b != -1]
        boundary = min(boundaries) if boundaries else n
        for match in _KEYWORD_RE.finditer(source, pos, boundary):
            byte_offset = len(source[: match.start()].encode("utf-8"))
            offending.append((match.group(1), byte_offset))
        if boundary == n:
            break
        if boundary == next_comment:
            end = comment_end(source, boundary)
            pos = n if end == -1 else end  # unterminated: rest of input is comment
        else:
            close = source.find('"', boundary + 1)
            pos = n if close == -1 else close + 1
    return CheatReport(not offending, tuple(offending))


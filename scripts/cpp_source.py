"""Shared source model for the repo's two C++ checkers.

lint_invariants.py (per-line regex rules) and analyze_semantics.py
(whole-program structural rules) read the tree through this one module:
the same directory walk, the same comment/string stripper, the same
per-file views, and the same `file:line: [rule] message` violation
format. A construct one tool treats as code the other cannot treat as
prose.
"""

from __future__ import annotations

import re
from pathlib import Path

RAW_STRING_OPEN = re.compile(r'R"([^ ()\\\t\v\f\n]{0,16})\(')


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string and char literals, preserving newlines
    (and therefore line numbers) so rule hits report real locations.

    C++ raw string literals (R"( ... )", with an optional delimiter as in
    R"delim( ... )delim") are handled as a unit: their payload may contain
    unescaped quotes and backslashes, so feeding them through the ordinary
    string state machine desyncs it — the embedded `"` would terminate the
    literal early and everything after it would be classified as code
    (false positives) or swallowed as string (false negatives)."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == "R" and nxt == '"' and not (
                    i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")):
                m = RAW_STRING_OPEN.match(text, i)
                if m:
                    # Blank everything up to and including the matching
                    # )delim" terminator; newlines survive (raw strings may
                    # span lines and line numbers must stay stable). An
                    # unterminated raw string blanks to EOF, like an
                    # unterminated block comment.
                    close = ")" + m.group(1) + '"'
                    end = text.find(close, m.end())
                    end = n if end == -1 else end + len(close)
                    for ch in text[i:end]:
                        out.append(ch if ch == "\n" else " ")
                    i = end
                else:
                    # R"..." that is not a valid raw-string opener (e.g. a
                    # delimiter over 16 chars): treat R as ordinary code and
                    # let the quote start a normal string.
                    out.append(c)
                    i += 1
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string / char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    """1-based line number of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1


class SourceFile:
    """One file in three views: `raw` (markers and waivers live in
    comments), `code` (comments and literals blanked, same offsets and
    line numbers), and their per-line splits."""

    def __init__(self, path: Path, rel: str):
        self.path = path
        self.rel = rel  # repo-relative, '/'-separated: what rules match on
        self.raw = path.read_text(encoding="utf-8", errors="replace")
        self.code = strip_comments_and_strings(self.raw)
        self.code_lines = self.code.splitlines()
        self.raw_lines = self.raw.splitlines()


class Violation:
    def __init__(self, rel: str, line: int, rule: str, message: str):
        self.rel, self.line, self.rule, self.message = rel, line, rule, message

    def __str__(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


def walk(root: Path, dirs, suffixes) -> list:
    """Every file under root/<dir> (for each dir in `dirs`, in order,
    missing dirs skipped) whose suffix is in `suffixes`, sorted within
    each dir."""
    out = []
    for rel_dir in dirs:
        base = root / rel_dir
        if not base.is_dir():
            continue
        out.extend(path for path in sorted(base.rglob("*"))
                   if path.is_file() and path.suffix in suffixes)
    return out

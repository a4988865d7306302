"""Count the code lines of each module under ``src/effgravity``.

A code line is a physical line that holds at least one token other than a
comment, a docstring (a string that stands alone as a statement) or the
layout tokens of blank lines and indentation. A statement that spans
several lines counts each line that holds one of its tokens.

Run from anywhere: ``python tests/count_code_lines.py [package directory]``.
It prints one ``lines path`` row per module and then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "effgravity"
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
# tokens after which a string starts a statement of its own
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Number of code lines in the Python file ``path``."""
    with open(path, "rb") as handle:
        # comments never count, and a string after a comment-only line still
        # starts a statement
        tokens = [
            token
            for token in tokenize.tokenize(handle.readline)
            if token.type not in (tokenize.NL, tokenize.COMMENT)
        ]
    lines: set[int] = set()
    for i, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        if (
            token.type == tokenize.STRING
            and tokens[i - 1].type in _STATEMENT_START
            and tokens[i + 1].type == tokenize.NEWLINE
        ):
            continue  # a docstring or another bare string statement
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path.relative_to(package.parent)}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

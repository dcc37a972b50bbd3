"""Size of the emdkit sources: the ``wc -l`` total of ``src/emdkit/*.py``,
and the same lines classed by ``tokenize`` as code, docstring, comment or
blank, so that a deletion of code can be told apart from a thinned
docstring; then the same for each module. A line holding any code token
is code; a string statement (a docstring, or a string standing alone)
makes its lines docstring.

    python benchmarks/src_size.py
"""

import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "emdkit"

#: Tokens that carry no code: where a statement may start, and line layout.
_STARTS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_LAYOUT = _STARTS | {tokenize.NL, tokenize.ENDMARKER}


def line_kinds(path: Path) -> list[str]:
    """``code``, ``docstring``, ``comment`` or ``blank`` for each line of ``path``."""
    source = path.read_bytes()
    tokens = list(tokenize.tokenize(io.BytesIO(source).readline))
    found = [set() for _ in range(len(source.splitlines()) + 1)]
    before = tokenize.ENCODING  # the last token before this one, comments and NL aside
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type != tokenize.NL:
                before = tok.type
            continue
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif (tok.type == tokenize.STRING and before in _STARTS
              and tokens[i + 1].type == tokenize.NEWLINE):
            kind = "docstring"
        else:
            kind = "code"
        if tok.type != tokenize.COMMENT:
            before = tok.type
        for row in range(tok.start[0], tok.end[0] + 1):
            found[row].add(kind)
    return [next((k for k in ("code", "docstring", "comment") if k in kinds), "blank")
            for kinds in found[1:]]


def _summary(name: str, kinds: Counter) -> str:
    return (f"{name}: {sum(kinds.values())} lines = {kinds['code']} code"
            f" + {kinds['docstring']} docstring + {kinds['comment']} comment"
            f" + {kinds['blank']} blank")


def main() -> int:
    modules = {path.name: Counter(line_kinds(path)) for path in sorted(SRC.glob("*.py"))}
    print(_summary(str(SRC), sum(modules.values(), Counter())))
    for name, kinds in modules.items():
        print("  " + _summary(name, kinds))
    return 0


if __name__ == "__main__":
    sys.exit(main())

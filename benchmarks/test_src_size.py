"""``src_size.line_kinds`` on a small sample holding each kind of line.

    python -m pytest benchmarks/test_src_size.py
"""

import textwrap

from src_size import line_kinds

SAMPLE = textwrap.dedent('''\
    """A module docstring
    over two lines."""

    # a comment
    x = 1  # code with a comment
    s = """a code string
    over two lines"""
    f(
        "a string argument",
    )


    def g():
        """A function docstring."""
        "a string standing alone"
        return """two
    lines"""
''')

KINDS = ["docstring", "docstring",
         "blank",
         "comment",
         "code",
         "code", "code",
         "code", "code", "code",
         "blank", "blank",
         "code",
         "docstring",
         "docstring",
         "code", "code"]


def test_each_line_is_classed(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert line_kinds(path) == KINDS
    assert len(KINDS) == len(SAMPLE.splitlines())

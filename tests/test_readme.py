"""The README's Library example runs as written.

Its one fenced `python` block is executed line by line. A line of the
form `expr  # value: ...` must evaluate to `value`, with the same `repr`,
so an int the README shows is an int and a `Fraction` a `Fraction`.
"""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_shows_what_it_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1, "README should hold one fenced python block"
    namespace: dict = {}
    checked = 0
    for line in blocks[0].splitlines():
        code, marked, comment = line.partition("  # ")
        if not marked:
            exec(code, namespace)
            continue
        expected = eval(comment.split(":", 1)[0], {"Fraction": Fraction})
        assert repr(eval(code, namespace)) == repr(expected), line
        checked += 1
    assert checked == 11

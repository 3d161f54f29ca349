"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_as_documented():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    code = blocks[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    lines = printed.getvalue().splitlines()
    assert len(lines) == len(prints)
    for source, line in zip(prints, lines):
        if "#" in source:
            assert line == source.split("#", 1)[1].strip(), source

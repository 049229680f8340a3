"""The README's library example runs and prints what its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

EIC = "X^2 - E[X^2] - 2*E[X]*(X - E[X])"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_its_comments_state(capsys):
    block = _library_example()
    for value in (EIC, "75/64", "17/8"):
        assert f"# {value}" in block
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # the gradient first, then its trace; the plug-in estimate, its
    # standard error and the one-step estimate last
    assert printed[0] == EIC
    assert printed[-3] == "75/64"
    assert printed[-1] == "17/8"

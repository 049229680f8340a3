"""The README's library example runs and prints what its comments state,
and each inline input stated beside an exit code ends in that code."""

import re
from pathlib import Path

import pytest

from eicalg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

EIC = "X^2 - E[X^2] - 2*E[X]*(X - E[X])"

SIMULATE = ["simulate", "--estimand", "E[X]", "--n", "20", "--replicates", "2"]

# Inline README inputs that have an exit code beside them: the text the
# README quotes (its line breaks read as spaces), a command line that runs
# it, and the stated code.
EXIT_EXAMPLES = [
    ("`E[X]^1001`", ["derive", "E[X]^1001"], 2),
    ("`E[X^20000]`", ["derive", "E[X^20000]"], 2),
    ("`X²`", ["parse-check", "E[X²]"], 2),
    ("`E[X]*10^5000`", ["derive", "E[X]*10^5000"], 2),
    ("`E[X]*7^9999999`", ["derive", "E[X]*7^9999999"], 2),
    ("`7^99999999`", ["parse-check", "7^99999999"], 2),
    ("`E[X + Z - Z]`", ["estimate", "E[X + Z - Z]", "--data", "xy.csv"], 3),
    (
        "`exp(E[X])` with `E[X] = 1500`",
        ["estimate", "exp(E[X])", "--data", "x1500.csv", "--mode", "float"],
        3,
    ),
    ("(`E[X^400]` with X = 10, 20)", ["estimate", "E[X^400]", "--data", "x10-20.csv"], 3),
    ("(`1/0`)", ["estimate", "E[X]", "--data", "xy.csv", "--split", "1/0"], 2),
    (
        "`--points 4 --span 1000`",
        [*SIMULATE, "--family", "gaussian-grid", "--mean", "0", "--sd", "1",
         "--points", "4", "--span", "1000"],
        2,
    ),
    (
        "`uniform-grid --high 1e400`",
        [*SIMULATE, "--family", "uniform-grid", "--low", "0", "--high", "1e400",
         "--points", "3"],
        3,
    ),
    (
        "`gaussian-grid --span 1e400`",
        [*SIMULATE, "--family", "gaussian-grid", "--mean", "0", "--sd", "1",
         "--span", "1e400"],
        3,
    ),
    ('`"levle"`', ["simulate", "--config", "levle.json"], 2),
    (
        "`--mean 3` with `--family bernoulli`",
        [*SIMULATE, "--family", "bernoulli", "--p", "0.5", "--mean", "3"],
        2,
    ),
    ("`Var(X)` on a cell with 2,500 decimal places", ["estimate", "Var(X)", "--data", "long.csv"], 3),
    (
        "`--support 0.333...,1` with 2,500 decimal places",
        [*SIMULATE, "--family", "discrete", "--support", f"0.{'3' * 2500},1",
         "--weights", "0.5,0.5"],
        3,
    ),
]

@pytest.fixture(autouse=True)
def config_and_long_cell(tmp_path):
    """The two files of the examples above that the test itself does not
    write: a config with a misspelled key, and a cell of 2,500 decimals."""
    (tmp_path / "levle.json").write_text(
        '{"family": "bernoulli", "params": {"p": "0.5"}, "estimand": "E[X]", "n": 20,'
        ' "replicates": 2, "seed": 0, "levle": 0.5}'
    )
    (tmp_path / "long.csv").write_text(f"X\n0.{'3' * 2500}\n1\n")


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


@pytest.mark.parametrize(
    "quoted, argv, code", EXIT_EXAMPLES, ids=[q.strip("(`)") for q, _, _ in EXIT_EXAMPLES]
)
def test_inline_example_ends_in_its_exit_code(capsys, tmp_path, monkeypatch, quoted, argv, code):
    assert quoted in " ".join(README.read_text(encoding="utf-8").split())
    monkeypatch.chdir(tmp_path)
    (tmp_path / "xy.csv").write_text("X,Y\n1,2\n3,5\n")
    (tmp_path / "x1500.csv").write_text("X\n1500\n")
    (tmp_path / "x10-20.csv").write_text("X\n10\n20\n")
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err

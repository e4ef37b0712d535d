"""The README's `capacity` and `sweep` examples, run through the CLI."""

import shlex
from pathlib import Path

import pytest

from jcchannel.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list:
    """(argv, shown output lines) of each README block running capacity or sweep."""
    # fences alternate: every second part is the body of a code block
    parts = README.read_text(encoding="utf-8").split("```")
    out = []
    for block in parts[1::2]:
        _, first, *shown = block.splitlines()  # the fence's info string comes first
        if first.startswith(("$ jcchannel capacity ", "$ jcchannel sweep ")):
            out.append((shlex.split(first)[2:], shown))
    return out


EXAMPLES = _examples()


def test_readme_has_capacity_and_sweep_examples():
    assert sorted({argv[0] for argv, _ in EXAMPLES}) == ["capacity", "sweep"]


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_output(argv, shown, capsys):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in shown:
        if line == "...":
            continue
        if line.endswith("..."):
            assert any(out.startswith(line[:-3]) for out in lines), line
        else:
            assert line in lines, line

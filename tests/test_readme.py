"""The README's `capacity`, `sweep` and `verify full` examples, run through the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from jcchannel.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks() -> list:
    """Lines of each README code block, without the fence's info string."""
    # fences alternate: every second part is the body of a code block
    parts = README.read_text(encoding="utf-8").split("```")
    return [block.splitlines()[1:] for block in parts[1::2]]


def _examples() -> list:
    """(argv, shown output lines) of each README block running capacity or sweep."""
    return [
        (shlex.split(first)[2:], shown)
        for first, *shown in _blocks()
        if first.startswith(("$ jcchannel capacity ", "$ jcchannel sweep "))
    ]


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


def _mask_seconds(lines) -> list:
    return [re.sub(r"\(\d+\.\d\ds\)", "(N.NNs)", line) for line in lines]


def test_readme_verify_full_block(capsys):
    shown = next(shown for first, *shown in _blocks() if first == "$ jcchannel verify full")
    assert main(["verify", "full"]) == 0
    # the block shows one run: only the seconds may differ
    assert _mask_seconds(capsys.readouterr().out.splitlines()) == _mask_seconds(shown)

"""README.md's examples run as written: every ```python block, in one
namespace and in the order the README shows them, and every ``$ qtmkit …``
line of a ```sh block, whose standard output must be the lines shown under
it."""

import re
import shlex
from pathlib import Path

import pytest

from qtmkit.cli import main

README = Path(__file__).parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", TEXT,
                      re.DOTALL | re.MULTILINE)


def test_readme_python_examples_run():
    assert blocks("python")
    namespace: dict = {}
    for block in blocks("python"):
        exec(compile(block, str(README), "exec"), namespace)


#: Each ``$ qtmkit`` command with the output lines shown under it, up to a
#: blank line, the next command or the end of the block.
CLI_EXAMPLES = [
    (command, output)
    for block in blocks("sh")
    for command, output in re.findall(r"^\$ qtmkit (.*)\n((?:[^$\n].*\n)*)",
                                      block, re.MULTILINE)
]


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) >= 3


@pytest.mark.parametrize("command, output", CLI_EXAMPLES,
                         ids=[command for command, _ in CLI_EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(command, output, capsys):
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, output, "")

"""The README's library tour runs; its CLI examples and the cli module's parse."""

import re
import shlex
from pathlib import Path

import pytest

from graphonlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})


@pytest.mark.parametrize(
    "text, pattern",
    [(README.read_text(), r"## CLI\n\n```\n(.*?)```"), (cli.__doc__, r"Usage examples:\n(.*?)\n\n")],
    ids=["README", "cli"],
)
def test_cli_examples_parse(text, pattern):
    block = re.search(pattern, text, re.S).group(1)
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
    ]
    assert len(commands) > 5
    parser = cli.build_parser()
    for argv in commands:
        assert argv[0] == "graphonlab", argv
        parser.parse_args(argv[1:])

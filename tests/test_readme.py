"""The README's library tour runs and its CLI examples parse."""

import re
import shlex
from pathlib import Path

from graphonlab.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})


def test_cli_examples_parse():
    block = re.search(r"## CLI\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
    ]
    assert len(commands) > 5
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "graphonlab", argv
        parser.parse_args(argv[1:])

"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})

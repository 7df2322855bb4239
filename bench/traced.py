"""Run one graphonlab CLI call under the span tracer and write its spans.

Usage: python3 bench/traced.py SPANS.json -- CLI ARGUMENTS...

Behaves like `python -m graphonlab CLI ARGUMENTS...` (same output, same
exit status) and writes the spans as JSON when the call ends.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    skipped = tracer.install()
    from graphonlab import cli

    try:
        return cli.main(argv)
    finally:
        Path(out).write_text(json.dumps(tracer.dump(skipped)))


if __name__ == "__main__":
    sys.exit(main())

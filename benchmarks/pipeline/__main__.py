"""``python -m benchmarks.pipeline`` (or ``python benchmarks/pipeline``)."""

import sys
from pathlib import Path

if not __package__:
    # run as a directory: make the repository root importable, and keep this
    # directory's own module names (trace, ...) from shadowing the stdlib
    here = Path(__file__).resolve().parent
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != here]
    sys.path.insert(0, str(here.parents[1]))

from benchmarks.pipeline.cli import main

if __name__ == "__main__":
    sys.exit(main())

"""Traced stand-in for `python -m qbridge ARGS` (or `import qbridge` alone).

Installs the span wrappers, runs `qbridge.cli.main`, and writes the
spans to the file named by BENCH_TRACE_OUT at exit.
"""

from __future__ import annotations

import json
import os
import sys

import qbridge.cli
from spans import Tracer


def main() -> int:
    tracer = Tracer().install()
    tracer.begin_op(0)
    code = 0
    try:
        if len(sys.argv) > 1:
            code = qbridge.cli.main(sys.argv[1:])
    finally:
        tracer.end_op()
        sys.stdout.flush()
        with open(os.environ["BENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

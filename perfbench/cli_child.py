"""Run one lipfree CLI command with spans and LP counting, for the traced run.

    python3 perfbench/cli_child.py SPANS_JSON -- <lipfree cli arguments>

Behaves like ``python -m lipfree.cli``: the report goes to standard
output and the exit code is the CLI's. The spans, LP counters and the
time taken by ``import lipfree.cli`` are written to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from spans import Tracer


def main() -> int:
    spans_path = Path(sys.argv[1])
    argv = sys.argv[3:] if sys.argv[2:3] == ["--"] else sys.argv[2:]
    tracer = Tracer()
    # the counter imports scipy.optimize, which is part of lipfree's import cost
    started = time.perf_counter()
    tracer.install_lp_counter()
    import lipfree.cli

    import_s = time.perf_counter() - started
    tracer.wrap_layers()
    tracer.enabled = True
    try:
        code = lipfree.cli.run(argv)
    finally:
        tracer.enabled = False
        spans_path.write_text(json.dumps({
            "import_s": import_s,
            "spans": tracer.spans,
            "lp": [tracer.lp_calls, tracer.lp_busy_s, tracer.lp_cols],
        }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Traced stand-in for ``python -m repro``.

Usage: ``python perfbench/launcher.py SPANS_OUT [repro arguments...]``

Times ``import repro.cli`` as the ``cli.import`` span, installs the
same layer wrappers the in-process workloads use, then calls
``repro.cli.main`` exactly as ``python -m repro`` does. The spans are
written to SPANS_OUT when ``main`` returns or raises, so a traced run
keeps the untraced run's one-process-per-command layout.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans


def main() -> int:
    out = Path(sys.argv[1])
    tracer = spans.Tracer()
    with tracer.span("cli.import"):
        import repro.cli
    spans.install(tracer)
    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())

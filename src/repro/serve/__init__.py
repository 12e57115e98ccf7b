"""``repro serve``: a long-lived async evaluation service.

The traffic-serving layer over the evaluation core: one warm
:class:`~repro.eval.engine.EngineContext` (shared memoization + one
persistent cache) behind a stdlib-only asyncio HTTP server, with
request coalescing so identical concurrent specs evaluate once, and
NDJSON event streams byte-compatible with
``repro all --stream --format json``.

Public surface:

* :class:`~repro.serve.server.EvaluationService` — the service object
  (tests drive ``start()``/``aclose()`` directly);
* :func:`~repro.serve.server.serve` — the blocking CLI entry point;
* :mod:`~repro.serve.protocol` — spec validation + canonical digests;
* :mod:`~repro.serve.coalescing` — the in-flight run broker.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.serve.coalescing import InflightRun, RunBroker
    from repro.serve.server import DEFAULT_PORT, EvaluationService, serve
else:
    from repro import _lazy

    __getattr__, __dir__ = _lazy.attach(__name__, {
        "coalescing": ("InflightRun", "RunBroker"),
        "server": ("DEFAULT_PORT", "EvaluationService", "serve"),
    })

__all__ = [
    "DEFAULT_PORT",
    "EvaluationService",
    "InflightRun",
    "RunBroker",
    "serve",
]

"""Defaults the CLI prints in its help texts.

They live apart from the service and the job queue that use them, so
building the argument parser loads neither asyncio nor the queue.
"""

#: Default TCP port of ``repro serve`` (pass 0 to bind any free port).
DEFAULT_PORT = 8765

#: Default seconds a claim's lease lasts before the cell counts as
#: stale and may be reclaimed; workers renew well within this.
DEFAULT_LEASE_S = 60.0

#: Default cells per ``claim_batch``.
DEFAULT_BATCH_SIZE = 64

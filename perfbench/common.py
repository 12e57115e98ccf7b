"""Shared helpers: run configuration, statistics, child processes, RSS.

Everything here is stdlib-only so the benchmark's own files import
quickly; the program under test (``src/repro``) is imported by the
workload modules, never here.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: The checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, servers and traces. Ignored by git and
#: removed piecewise by each workload.
WORK = ROOT / ".bench_work"

#: How many samples the tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 5


def child_env() -> Dict[str, str]:
    """Environment for ``python -m repro`` children: the checkout's
    ``src`` on the path, nothing else changed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CACHE_DIR", None)
    return env


@dataclass
class RunConfig:
    """What one workload run is asked to do."""

    seed: int
    seconds: float
    #: A :class:`spans.Tracer` when this half of the run is traced.
    tracer: Optional[object] = None
    #: Whether to measure ``setup_s`` (skipped in the traced halves).
    measure_setup: bool = True
    work: Path = WORK


@dataclass
class Outcome:
    """Everything a workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Human-readable descriptions of failed output checks.
    problems: List[str] = field(default_factory=list)
    #: name -> (value, unit): the workload's own named metrics.
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: The five end-to-end metrics every workload reports.
    e2e: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Workload property report lines.
    properties: List[str] = field(default_factory=list)
    #: Extra per-layer values only the workload can measure.
    layer_extra: Dict[str, float] = field(default_factory=dict)
    #: (start_ns, end_ns, request id or None) per timed operation.
    ops: List[Tuple[int, int, Optional[str]]] = field(default_factory=list)
    #: Span files written by traced child processes.
    span_files: List[Path] = field(default_factory=list)
    digest: str = ""

    def fail(self, message: str) -> None:
        self.problems.append(message)


@contextlib.contextmanager
def untraced(tracer: Any) -> Iterator[None]:
    """Pause ``tracer`` (if any) while the benchmark checks outputs, so
    its own calls into the program are not charged to the layers."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


# --- statistics ---------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def tail(values: Sequence[float],
         beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The tail percentile: at least ``beyond`` samples lie above it,
    and at least one in ten.

    Returns ``(value, percentile, samples)``. With ``n`` sorted samples
    and ``b = max(beyond, n // 10)`` the value is the one at index
    ``n - b - 1``, so ``b`` samples lie beyond it; its percentile is
    the share of samples at or below that index. The one-in-ten cap
    keeps the tail at p90 or below on large runs: higher percentiles
    rested on a dozen samples that garbage-collection pauses and the
    shared VM's stalls decided, and did not repeat across seeds. With
    ``beyond`` or fewer
    samples the maximum is returned at 100. Infinite samples (failed
    requests) sort last and count as beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan"), float("nan"), 0
    if n <= beyond:
        return ordered[-1], 100.0, n
    index = n - max(beyond, n // 10) - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def digest_bytes(chunks: Sequence[bytes]) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(len(chunk).to_bytes(8, "little"))
        hasher.update(chunk)
    return hasher.hexdigest()[:16]


# --- processes ----------------------------------------------------------


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def wait_child(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Reap ``proc`` within ``timeout`` seconds (killing it after) and
    return ``(exit code, peak RSS in MB)`` from its own rusage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return code, usage.ru_maxrss / 1024.0


def run_child(argv: List[str], timeout: float = 120.0
              ) -> Tuple[int, bytes, bytes, float, int, int]:
    """Run one child to completion with pipes.

    Returns ``(code, stdout, stderr, wall seconds, start_ns, end_ns)``;
    the wall runs from spawn to reaped exit.
    """
    start_ns = time.perf_counter_ns()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    end_ns = time.perf_counter_ns()
    return (proc.returncode, out, err, (end_ns - start_ns) / 1e9,
            start_ns, end_ns)


def repro_argv(spans_out: Optional[Path] = None) -> List[str]:
    """How to start ``repro``: ``python -m repro`` as a user does, or,
    when ``spans_out`` is given, the traced launcher writing there."""
    if spans_out is None:
        return [python(), "-m", "repro"]
    return [python(), str(ROOT / "perfbench" / "launcher.py"), str(spans_out)]


def probe_setup(workload: str, seed: int) -> float:
    """Median wall of fresh interpreters that import the workload's
    modules and build its seeded inputs (``run.py --setup-probe``)."""
    walls = []
    for _ in range(SETUP_REPEATS):
        code, _, err, wall, *_ = run_child([
            python(), str(ROOT / "perfbench" / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed),
        ])
        if code != 0:
            raise RuntimeError(
                f"set-up probe for {workload} exited {code}: "
                f"{err.decode(errors='replace')[-2000:]}"
            )
        walls.append(wall)
    return median(walls)


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any reaped child so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def stop_child(proc: subprocess.Popen, timeout: float = 15.0
               ) -> Tuple[int, float]:
    """Ask a server child to drain (SIGINT), then reap it. No poll()
    first: it would reap the child before ``wait_child`` reads its
    rusage."""
    try:
        os.kill(proc.pid, signal.SIGINT)
    except ProcessLookupError:
        pass
    return wait_child(proc, timeout)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def format_value(value: float) -> str:
    return f"{value:.6g}"


def python() -> str:
    return sys.executable

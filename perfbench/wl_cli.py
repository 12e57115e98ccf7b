"""cli-session: a researcher iterating on one cache dir.

Fresh ``python -m repro`` processes, one at a time (closed loop, one
client). Each seeded cycle runs ``list``, a warm ``all``, one artifact
in one format, a warm ``sweep --model``, one small novel grid that
writes to the cache, and ``cache stats``. Set-up pre-fills the cache
with ~10k entries so that cache size relative to the working set
shows. Import, argument parsing, cache load and decode, and rendering
dominate here; the cost models do almost nothing.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
import inputs

NAME = "cli-session"
#: The program runs in child processes, which the launcher traces;
#: this process only prepares and checks, untraced.
IN_PROCESS = False
GOLDEN_ALL = common.ROOT / "tests" / "golden" / "all.txt"
_TIMING = re.compile(rb" in \d+\.\d+s")


def _prefill(directory: Path, seed: int) -> None:
    """~10k cache entries: seeded grids plus every model sweep the
    session will replay warm."""
    from repro.dnn.models import get_model
    from repro.energy.estimator import Estimator
    from repro.eval import cache as cache_mod
    from repro.eval import experiments
    from repro.eval.engine import SweepEngine

    estimator = Estimator()
    engine = SweepEngine(
        estimator,
        cache=cache_mod.PersistentCache.for_estimator(directory, estimator),
    )
    for grid in inputs.cli_prefill(seed):
        engine.sweep(designs=inputs.DESIGNS, a_degrees=grid["a"],
                     b_degrees=grid["b"], m=grid["mk"], k=grid["mk"],
                     n=grid["n"])
    for model in inputs.MODELS:
        experiments.sweep_model(get_model(model), ctx=engine)
    engine.close()


class _Expected:
    """Reference stdout computed in-process (no cache), memoized."""

    def __init__(self) -> None:
        self._memo: Dict[Tuple[str, ...], bytes] = {}

    def get(self, argv: List[str]) -> bytes:
        key = tuple(argv)
        if key not in self._memo:
            import repro.cli

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = repro.cli.main(list(argv))
            if code != 0:
                raise RuntimeError(f"reference run of {argv} exited {code}")
            self._memo[key] = buffer.getvalue().encode()
        return self._memo[key]


def _table(stdout: bytes) -> bytes:
    """A sweep's rendered table, without its run summary line."""
    return stdout.rstrip(b"\n").rpartition(b"\n\n")[0]


def _check(command: List[str], stdout: bytes, expected: _Expected,
           entries_start: int) -> str:
    """Empty when the command's output is right, else why not."""
    kind = command[0]
    if kind == "all":
        if stdout != GOLDEN_ALL.read_bytes():
            return "all: stdout differs from tests/golden/all.txt"
    elif kind in ("list", "artifact"):
        if stdout != expected.get(command):
            return f"{' '.join(command)}: stdout differs from in-process"
    elif kind == "sweep":
        if _table(stdout) != _table(expected.get(command)):
            return f"{' '.join(command)}: table differs from in-process"
        if command[1] == "--model" and b" 0 workloads evaluated" not in stdout:
            return f"{' '.join(command)}: warm model sweep evaluated"
    elif kind == "cache":
        match = re.search(rb"total entries: (\d+)", stdout)
        if match is None or int(match.group(1)) < entries_start:
            return "cache stats: entry count missing or shrank"
    return ""


def _argv(command: List[str], cache_dir: Path,
          spans_out: Optional[Path] = None) -> List[str]:
    tail = [] if command[0] == "list" else ["--cache-dir", str(cache_dir)]
    return common.repro_argv(spans_out) + command + tail


def _label(command: List[str]) -> str:
    if command[0] == "sweep":
        return "sweep-model" if command[1] == "--model" else "sweep-grid"
    return command[0]


def _normalized(stdout: bytes, cache_dir: Path) -> bytes:
    return _TIMING.sub(b"", stdout.replace(str(cache_dir).encode(), b"<dir>"))


def run(cfg: common.RunConfig) -> common.Outcome:
    from repro.eval import cache as cache_mod

    out = common.Outcome()
    expected = _Expected()
    base = common.fresh_dir(cfg.work / "cli-base")
    _prefill(base, cfg.seed)
    golden = GOLDEN_ALL.read_bytes()

    # Set-up: the first cold `repro all` against the pre-filled cache,
    # repeated on fresh copies; the last copy is the session's cache.
    setup_walls = []
    session = cfg.work / "cli-session"
    for _ in range(common.SETUP_REPEATS if cfg.measure_setup else 1):
        shutil.rmtree(session, ignore_errors=True)
        shutil.copytree(base, session)
        code, stdout, err, wall, *_ = common.run_child(
            _argv(["all"], session)
        )
        if code != 0 or stdout != golden:
            out.fail(f"set-up cold all: exit {code} or stdout differs "
                     f"from golden: {err.decode(errors='replace')[-500:]}")
        setup_walls.append(wall)
    stats = cache_mod.cache_stats(session)
    entries_start, bytes_start = stats["total_entries"], sum(
        entry["bytes"] for entry in stats["files"]
    )

    walls: Dict[str, List[float]] = {}
    all_walls: List[float] = []
    # Per-cycle commands per second: their median shrugs off a stall
    # of the host.
    cycle_rates: List[float] = []
    first_cycle: List[bytes] = []
    if cfg.tracer is not None:
        spans_dir = common.fresh_dir(cfg.work / "spans")
    deadline = time.perf_counter() + cfg.seconds
    cycle = 0
    while cycle == 0 or time.perf_counter() < deadline:
        commands = inputs.cli_cycle(cfg.seed, cycle)
        cycle_s = 0.0
        for command in commands:
            spans_out = None
            if cfg.tracer is not None:
                spans_out = spans_dir / f"cli-{len(out.span_files)}.json"
                out.span_files.append(spans_out)
            code, stdout, err, wall, start, end = common.run_child(
                _argv(command, session, spans_out)
            )
            out.attempted += 1
            out.ops.append((start, end, None))
            all_walls.append(wall * 1e3)
            cycle_s += wall
            walls.setdefault(_label(command), []).append(wall * 1e3)
            problem = (
                f"{' '.join(command)}: exit {code}: "
                f"{err.decode(errors='replace')[-500:]}"
                if code != 0 else _check(command, stdout, expected,
                                         entries_start)
            )
            if problem:
                out.failed += 1
                out.fail(problem)
            if cycle == 0:
                first_cycle.append(_normalized(stdout, session))
        cycle_rates.append(len(commands) / cycle_s)
        cycle += 1
    shutil.rmtree(base, ignore_errors=True)
    shutil.rmtree(session, ignore_errors=True)

    tail_ms, tail_pct, samples = common.tail(all_walls)
    out.digest = common.digest_bytes(first_cycle)
    out.named = {
        "cli.cmd_p50_ms": (common.median(all_walls), "ms"),
        "cli.cmd_tail_ms": (tail_ms, "ms"),
        "cli.list_p50_ms": (common.median(walls["list"]), "ms"),
        "cli.all_warm_p50_ms": (common.median(walls["all"]), "ms"),
    }
    out.e2e = {
        "setup_s": (common.median(setup_walls), "s"),
        "peak_rss_mb": (common.children_peak_rss_mb(), "MB"),
        "throughput_per_s": (common.median(cycle_rates), "1/s"),
        "op_p50_ms": out.named["cli.cmd_p50_ms"],
        "op_tail_ms": (tail_ms, "ms"),
    }
    out.properties = [
        f"cycles: {cycle} of {len(inputs.cli_cycle(cfg.seed, 0))} commands",
        "p50 per command: " + ", ".join(
            f"{label} {common.median(values):.1f} ms"
            for label, values in walls.items()
        ),
        f"cache at session start: {entries_start} entries, "
        f"{bytes_start} bytes",
        f"op = one command process, spawn to exit; tail = "
        f"p{tail_pct:.1f} of {samples} samples",
    ]
    return out

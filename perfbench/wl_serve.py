"""serve-mixed: one ``repro serve`` process under an open-loop load.

One load-generator process keeps at most ``CONNECTIONS`` (the host's
two cores) requests in flight. Requests are due at seeded times at a
fixed offered rate per phase; each is timed from when it was due, so
waiting for a free connection counts. After one untimed
``{"artifacts": "all"}`` warm-up come the ``low`` and ``high`` phases.
The mix is ~50% single-artifact reads (warm), ~20% a few popular sweep
specs (warm hits, coalesced when concurrent) and ~30% novel grids
(cold evaluations and cache writes beside the reads). Only here do the
HTTP/spec/broker layer and write-read contention in one process show.

Rates: closed-loop capacity with two connections measured 105-157
req/s on a 2-core host, so ``low`` (20 req/s) is light load and
``high`` (45 req/s) loads the server enough that a change in capacity
moves latency. 60 req/s sat closer to the knee, but there the shared
host's stalls were amplified into run-to-run swings of 2x in p50.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import shutil
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import common
import inputs

NAME = "serve-mixed"
#: The program runs in child processes, which the launcher traces;
#: this process only prepares and checks, untraced.
IN_PROCESS = False
RATES = (("low", 20.0), ("high", 45.0))
CONNECTIONS = 2
#: A request slower than this, or failed, misses the latency limit.
LIMIT_MS = 500.0
REQUEST_TIMEOUT_S = 60.0
#: Requests whose payloads feed the output digest.
DIGEST_REQUESTS = 40


def _spawn(cache_dir: Path, log: Path, spans_out: Optional[Path]
           ) -> Tuple[subprocess.Popen, int, float]:
    """Start the server; returns (process, port, seconds from spawn to
    the first 200 on /v1/health)."""
    start = time.perf_counter()
    with open(log, "wb") as stderr:
        proc = subprocess.Popen(
            common.repro_argv(spans_out)
            + ["serve", "--port", "0", "--cache-dir", str(cache_dir)],
            cwd=common.ROOT, env=common.child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
    port = None
    deadline = start + 60.0
    while port is None:
        text = log.read_text(errors="replace")
        marker = "serving on http://127.0.0.1:"
        if marker in text:
            port = int(text.split(marker, 1)[1].split()[0])
        elif proc.poll() is not None:
            raise RuntimeError(f"server exited at start: {text[-2000:]}")
        elif time.perf_counter() > deadline:
            common.stop_child(proc)
            raise RuntimeError(f"server did not start: {text[-2000:]}")
        else:
            time.sleep(0.002)
    while True:
        try:
            status, _ = _get(port, "/v1/health")
            if status == 200:
                break
        except OSError:
            pass
        if time.perf_counter() > deadline:
            common.stop_child(proc)
            raise RuntimeError("server never answered /v1/health")
        time.sleep(0.002)
    return proc, port, time.perf_counter() - start


def _get(port: int, path: str) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _request_bytes(request: Dict[str, Any]) -> bytes:
    body = json.dumps(request["body"]).encode()
    return (
        f"POST {request['path']} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"X-Bench-Request: {request['id']}\r\nConnection: close\r\n\r\n"
    ).encode() + body


async def _send(port: int, request: Dict[str, Any]) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(_request_bytes(request))
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def _phase(port: int, requests: List[Dict[str, Any]]
                 ) -> Tuple[float, List[Dict[str, Any]]]:
    """Offer ``requests`` at their due times; returns (phase wall from
    start to the last completion, per-request records)."""
    slots = asyncio.Semaphore(CONNECTIONS)
    origin = time.perf_counter()

    async def one(request: Dict[str, Any]) -> Dict[str, Any]:
        due = origin + request["due"]
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        async with slots:
            sent = time.perf_counter()
            try:
                raw = await asyncio.wait_for(_send(port, request),
                                             REQUEST_TIMEOUT_S)
                error = ""
            except (OSError, asyncio.TimeoutError) as exc:
                raw, error = b"", f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
        return {"request": request, "due": due, "sent": sent, "done": done,
                "raw": raw, "error": error}

    records = await asyncio.gather(*(one(request) for request in requests))
    wall = max(
        max(record["done"] for record in records) - origin,
        max(request["due"] for request in requests),
    )
    return wall, list(records)


def _parse(raw: bytes) -> Tuple[int, List[bytes]]:
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, []
    return status, [line for line in body.split(b"\n") if line]


class _Verifier:
    """Checks streams against the same artifacts and sweeps computed
    in-process (one uncached engine shared across checks)."""

    def __init__(self) -> None:
        from repro.eval.artifacts import ARTIFACTS, RunPlan
        from repro.eval.engine import EngineContext

        self.ctx = EngineContext.create()
        self.results = RunPlan.from_names(
            ARTIFACTS.names(), self.ctx
        ).run().results
        self._sweeps: Dict[str, Any] = {}

    def artifact_line(self, obj: Dict[str, Any]) -> bytes:
        from repro.eval.artifacts import ArtifactFinished, finished_event_line
        from repro.eval.engine import EngineStats

        stats = obj["stats"]
        event = ArtifactFinished(
            name=obj["artifact"], index=0, total=1,
            result=self.results[obj["artifact"]],
            stats=EngineStats(hits=stats["hits"], misses=stats["misses"],
                              disk_hits=stats["disk_hits"]),
            wall_time_s=0.0,
        )
        return finished_event_line(event).encode()

    def sweep_payload(self, body: Dict[str, Any]) -> Any:
        from repro.eval import experiments
        from repro.serve import protocol

        spec = protocol.parse_sweep_spec(body)
        if spec.digest not in self._sweeps:
            if spec.kind == "model":
                result = experiments.sweep_model(
                    spec.model, designs=spec.designs, degrees=spec.degrees,
                    ctx=self.ctx, profile=spec.profile,
                )
            else:
                result = self.ctx.engine.sweep(
                    designs=spec.designs, a_degrees=spec.a_degrees,
                    b_degrees=spec.b_degrees,
                    m=spec.size, k=spec.size, n=spec.size,
                )
            self._sweeps[spec.digest] = json.loads(
                json.dumps(result.to_payload())
            )
        return self._sweeps[spec.digest]

    def check(self, request: Dict[str, Any], raw: bytes
              ) -> Tuple[str, Optional[Dict[str, Any]], List[bytes]]:
        """(problem or "", finished-event stats, canonical payloads)."""
        status, lines = _parse(raw)
        if status != 200:
            return f"status {status}", None, []
        try:
            objects = [json.loads(line) for line in lines]
        except ValueError:
            return "undecodable stream line", None, []
        if any(obj.get("event") == "error" for obj in objects):
            return "error frame in stream", None, []
        if not objects or objects[-1].get("event") != "finished":
            return "stream did not end in a finished event", None, []
        payloads = []
        for line, obj in zip(lines, objects):
            if "event" in obj:
                continue
            if request["path"] == "/v1/artifacts":
                if line != self.artifact_line(obj):
                    return (f"artifact line for {obj.get('artifact')} "
                            f"differs from finished_event_line"), None, []
            elif obj.get("payload") != self.sweep_payload(request["body"]):
                return "sweep payload differs from in-process", None, []
            payloads.append(json.dumps(obj["payload"], sort_keys=True).encode())
        return "", objects[-1]["stats"], payloads


def run(cfg: common.RunConfig) -> common.Outcome:
    out = common.Outcome()
    server_dir = common.fresh_dir(cfg.work / "serve")
    log = server_dir / "server.log"
    spans_out = None
    if cfg.tracer is not None:
        spans_out = common.fresh_dir(cfg.work / "spans") / "serve.json"
        out.span_files.append(spans_out)

    # Set-up: spawn to the first 200 on /v1/health, repeated on fresh
    # cache dirs; the last server is the one measured.
    setup_walls = []
    proc = None
    for attempt in range(common.SETUP_REPEATS if cfg.measure_setup else 1):
        if proc is not None:
            common.stop_child(proc)
        cache_dir = common.fresh_dir(server_dir / f"cache{attempt}")
        proc, port, wall = _spawn(cache_dir, log, spans_out)
        setup_walls.append(wall)

    verifier = _Verifier()
    phases: Dict[str, Tuple[float, List[Dict[str, Any]]]] = {}
    try:
        warmup = {"id": "warmup", "path": "/v1/artifacts",
                  "body": {"artifacts": "all"}, "kind": "artifact"}
        raw = asyncio.run(_send(port, warmup))
        problem, _, _ = verifier.check(warmup, raw)
        if problem:
            out.fail(f"warm-up: {problem}")
        for phase, rate in RATES:
            requests = inputs.serve_requests(cfg.seed, phase, rate,
                                             cfg.seconds / len(RATES))
            phases[phase] = asyncio.run(_phase(port, requests))
        status, body = _get(port, "/v1/stats")
        if status != 200:
            out.fail(f"/v1/stats answered {status}")
        server_stats = json.loads(body) if status == 200 else {}
    finally:
        code, peak_rss = common.stop_child(proc)
    if code != 0:
        out.fail(f"server exited {code} on SIGINT")

    latencies: Dict[str, List[float]] = {}
    late: Dict[str, List[float]] = {}
    novel_misses = novel_requests = ok_in_limit = 0
    digest_chunks: List[bytes] = []
    for phase, (wall, records) in phases.items():
        for record in records:
            request = record["request"]
            out.attempted += 1
            out.ops.append((int(record["due"] * 1e9), int(record["done"] * 1e9),
                            request["id"]))
            problem = record["error"]
            stats = None
            payloads: List[bytes] = []
            if not problem:
                problem, stats, payloads = verifier.check(request, record["raw"])
            latency = (record["done"] - record["due"]) * 1e3
            if problem:
                out.failed += 1
                out.fail(f"{request['id']} {request['path']}: {problem}")
                latency = float("inf")
            elif latency <= LIMIT_MS:
                ok_in_limit += 1
            latencies.setdefault(phase, []).append(latency)
            late.setdefault(phase, []).append(
                (record["sent"] - record["due"]) * 1e3
            )
            if request["kind"] == "novel" and stats is not None:
                novel_misses += stats["misses"]
                novel_requests += stats["requests"]
            if phase == RATES[0][0] and int(
                request["id"].rsplit("-", 1)[1]
            ) < DIGEST_REQUESTS:
                digest_chunks.extend(payloads or [b"failed"])
    shutil.rmtree(server_dir, ignore_errors=True)

    pooled = [value for phase, _ in RATES for value in latencies[phase]]
    tail_ms, tail_pct, samples = common.tail(pooled)
    broker = server_stats.get("server", {})
    joined = broker.get("coalesced_requests", 0)
    started = broker.get("runs_started", 0)
    coalesced = joined / (joined + started) if joined + started else 0.0
    all_late = [value for phase, _ in RATES for value in late[phase]]
    out.digest = common.digest_bytes(digest_chunks)
    phase_s = sum(wall for wall, _ in phases.values())
    for phase, rate in RATES:
        phase_tail, pct, n = common.tail(latencies[phase])
        out.named[f"serve.{phase}.p50_ms"] = (
            common.median(latencies[phase]), "ms"
        )
        out.named[f"serve.{phase}.tail_ms"] = (phase_tail, "ms")
        late_tail, late_pct, _ = common.tail(late[phase])
        out.properties.append(
            f"phase {phase}: {rate:g} req/s offered, {n} requests, tail = "
            f"p{pct:.1f}; generator lateness p50 "
            f"{common.median(late[phase]):.3f} ms, p{late_pct:.1f} "
            f"{late_tail:.3f} ms"
        )
    out.e2e = {
        "setup_s": (common.median(setup_walls), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "throughput_per_s": (ok_in_limit / phase_s, "1/s"),
        "op_p50_ms": (common.median(pooled), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
    }
    out.properties += [
        f"novel-request cell miss share: "
        f"{novel_misses / max(1, novel_requests):.4f} "
        f"({novel_misses} of {novel_requests} pair requests)",
        f"coalesced share: {coalesced:.4f} ({joined} joined, "
        f"{started} runs started)",
        f"op = one request, due to last byte, both phases; tail = "
        f"p{tail_pct:.1f} of {samples} samples; limit {LIMIT_MS:g} ms",
    ]
    out.layer_extra = {
        "serve.coalesced_ratio": coalesced,
        "loadgen.late_ms": common.tail(all_late)[0],
    }
    return out

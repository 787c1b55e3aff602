#!/usr/bin/env python3
"""Served end-to-end benchmark of the ARM2GC reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload arm-hamming160 --seed 1 \\
        --seconds 25 --trace 0

A real :class:`repro.serve.GarbleServer` runs in its own process
(``server_main.py``, two workers, extension OT); this process is the
evaluator and drives it over TCP through ``repro.api.connect`` in a
closed loop, one or two client threads, each with a stable client id.
Every session is checked against an oracle and its garbled non-XOR
count against count mode on the same inputs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a
separate traced session window plus the per-layer calls of
``layers.py`` and prints the per-layer metrics.  ``--workload all``
runs every workload in turn.  The last line of standard output is the
JSON result; the exit code is 0 only when every session verified.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-traces"

#: Server launches per untraced run; ``setup_s`` is their median.
SETUPS = 3
TAIL_PERCENTILE = 90
#: Client-side retry budget: one reconnect, so a dead server fails a
#: session in bounded time instead of stalling the run.
CLIENT_ATTEMPTS = 2
#: A window in which the hypervisor stole more than this share of the
#: machine's CPU time measured the host, not the program: it is
#: measured once more and the calmer of the two windows is kept.
STEAL_LIMIT = 0.02


@dataclass
class Session:
    phase: str
    value: Any
    latency_s: float
    end: float
    error: Optional[str] = None
    outputs: List[int] = field(default_factory=list)
    nonxor: int = -1
    wire_bytes: int = 0
    reconnects: int = 0
    checkpoints: int = 0
    wait_s: float = 0.0
    sid: str = ""


@dataclass
class Window:
    """One closed-loop measurement window."""

    sessions: List[Session]
    elapsed: float
    client_cpu_s: float
    server_cpu_s: float
    steal_s: float


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def one_session(side, client, value, phase: str) -> Session:
    sid = f"{phase}-{uuid.uuid4().hex[:16]}"
    check = side.expected(value)
    t0 = perf_counter()
    try:
        res = side.call(client, value, sid)
        error = check(res.outputs)
    except Exception as exc:  # a failed session is a measured outcome
        res, error = None, f"{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    s = Session(phase, value, t1 - t0, t1, error=error, sid=sid)
    if res is not None:
        s.outputs = list(res.outputs)
        s.nonxor = res.stats.garbled_nonxor
        s.wire_bytes = res.sent.payload_bytes + res.received.payload_bytes
        s.reconnects = res.reconnects
        s.checkpoints = len(res.checkpoint_cycles)
        s.wait_s = res.received.wait_seconds
    return s


class Bench:
    """One run of one workload."""

    def __init__(self, workload: str, seed: int, side_cls=None) -> None:
        import programs

        self.wl = programs.WORKLOADS[workload]
        self.seed = seed
        self.side = (side_cls or programs.EvaluatorSide)(self.wl, seed)
        self.rngs = [self.side.rng(i) for i in range(self.wl.clients)]
        self.sessions: List[Session] = []
        self.unclean_exits = 0
        self.server = None
        self.clients: list = []
        self.stats: dict = {}
        self.tail: Optional[dict] = None
        self.steal_s: Optional[float] = None

    # -- load ---------------------------------------------------------------

    def _threads(self, body) -> None:
        """Run ``body(i)`` on one thread per client and wait for all."""
        errors: list = []

        def guarded(i):
            try:
                body(i)
            except BaseException as exc:
                errors.append(exc)
                raise

        threads = [threading.Thread(target=guarded, args=(i,), daemon=True)
                   for i in range(self.wl.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        if errors or any(t.is_alive() for t in threads):
            raise RuntimeError(f"client thread failed: {errors}")

    def closed_loop(self, seconds: float, phase: str) -> tuple:
        """Each client sends its next session when the last one ends,
        until ``seconds`` have passed.  Returns (sessions, elapsed)."""
        per_thread: List[List[Session]] = [[] for _ in self.clients]
        start = perf_counter()
        deadline = start + seconds

        def body(i):
            while perf_counter() < deadline:
                value = self.side.next_input(self.rngs[i])
                per_thread[i].append(
                    one_session(self.side, self.clients[i], value, phase))

        self._threads(body)
        done = [s for group in per_thread for s in group]
        self.sessions += done
        return done, max(s.end for s in done) - start

    def window(self, seconds: float) -> Window:
        """A closed loop of ``seconds`` with its CPU and host-steal
        figures."""
        from procs import steal_seconds

        steal0 = steal_seconds()
        server0 = self.server.cpu_seconds()
        client0 = time.process_time()
        sessions, elapsed = self.closed_loop(seconds, "window")
        return Window(sessions, elapsed, time.process_time() - client0,
                      self.server.cpu_seconds() - server0,
                      steal_seconds() - steal0)

    def setup(self) -> float:
        """Launch a server and bring every client to its first verified
        result; returns the seconds that took."""
        from procs import ServerProcess
        from repro import api

        t0 = perf_counter()
        server = ServerProcess(self.wl.name, self.seed, SRC)
        try:
            self.side.prepare()
            server.wait_ready()
        except BaseException:
            server.kill()
            raise
        self.server = server
        self.clients = [
            api.connect(("127.0.0.1", server.port), ot="extension",
                        client_id=f"perfbench-{i}",
                        max_attempts=CLIENT_ATTEMPTS)
            for i in range(self.wl.clients)
        ]
        first: List[Session] = []

        def body(i):
            value = self.side.next_input(self.rngs[i])
            first.append(
                one_session(self.side, self.clients[i], value, "setup"))

        self._threads(body)
        self.sessions += first
        return perf_counter() - t0

    def stop_server(self) -> None:
        if self.server is not None:
            self.unclean_exits += self.server.stop()
            self.server = None

    # -- verification -------------------------------------------------------

    def verify_counts(self) -> None:
        """Every verified session must also match count mode on the
        same inputs: garbled non-XOR count and output bits."""
        cache: Dict[Any, tuple] = {}
        for s in self.sessions:
            if s.error is not None:
                continue
            key = repr(s.value)
            if key not in cache:
                cache[key] = self.side.count_mode(s.value)
            nonxor, bits = cache[key]
            if s.nonxor != nonxor:
                s.error = f"garbled_nonxor {s.nonxor} != count mode {nonxor}"
            elif s.outputs != bits:
                s.error = "outputs differ from the local simulator"

    @property
    def failed(self) -> int:
        return sum(s.error is not None for s in self.sessions)

    # -- the two kinds of run -----------------------------------------------

    def end_to_end(self, seconds: float) -> Dict[str, tuple]:
        setups = []
        for i in range(SETUPS):
            setups.append(self.setup())
            if i < SETUPS - 1:
                self.stop_server()
        win = self.window(seconds)
        ncpu = len(os.sched_getaffinity(0))
        if win.steal_s > STEAL_LIMIT * ncpu * win.elapsed:
            # Every session of both windows is still verified.
            again = self.window(seconds)
            win, dropped = sorted((win, again), key=lambda w: w.steal_s)
            for s in dropped.sessions:
                s.phase = "disturbed"
        self.steal_s = round(win.steal_s, 2)
        window = win.sessions
        server_rss = self.server.peak_rss_mb()
        self.stats = self.clients[0].stats()
        self.stop_server()
        self.verify_counts()
        n = len(window)
        ok = [s for s in window if s.error is None] or window
        lat = [1e3 * s.latency_s for s in window]
        tail = percentile(lat, TAIL_PERCENTILE)
        self.tail = {"percentile": TAIL_PERCENTILE, "samples": n,
                     "beyond": sum(x > tail for x in lat)}
        return {
            "setup_s": (statistics.median(setups), "s"),
            "sessions_per_s": (sum(s.error is None for s in window)
                               / win.elapsed, "1/s"),
            "session_p50_ms": (percentile(lat, 50), "ms"),
            f"session_p{TAIL_PERCENTILE}_ms": (
                percentile(lat, TAIL_PERCENTILE), "ms"),
            "garbled_nonxor": (statistics.median(s.nonxor for s in ok),
                               "count"),
            "wire_kb_per_session": (
                statistics.median(s.wire_bytes for s in ok) / 1024, "KiB"),
            "client_cpu_ms_per_session": (1e3 * win.client_cpu_s / n, "ms"),
            "server_cpu_ms_per_session": (1e3 * win.server_cpu_s / n, "ms"),
            # Read after verification on purpose: on psi-hash16x32 the
            # window-only peak is bimodal (the client's per-session plan
            # leak against collector timing); the count-mode pass lifts
            # it to one steady level.
            "client_peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
            "server_peak_rss_mb": (server_rss, "MiB"),
        }

    def per_layer(self, seconds: float) -> Dict[str, tuple]:
        import layers
        import programs
        from spans import Tracer

        self.setup()
        # Untraced and traced blocks in ABBA order, so a drift in host
        # speed during the run does not read as tracing overhead.
        tracer = Tracer()
        plain, traced = [], []
        for block in ("untraced", "traced", "traced", "untraced"):
            if block == "traced":
                tracer.install()
            try:
                done, _ = self.closed_loop(seconds / 4, block)
            finally:
                tracer.uninstall()
            (traced if block == "traced" else plain).extend(done)
        client = self.clients[0]
        rtts = []
        for _ in range(5):
            t0 = perf_counter()
            stats = client.stats()
            rtts.append(perf_counter() - t0)
        self.stats = stats
        self.stop_server()
        self.verify_counts()
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{self.wl.name}-seed{self.seed}.jsonl")

        window = plain + traced
        ids = {s.sid for s in window}
        walls = [r["wall_ms"] for r in stats.get("sessions", ())
                 if r.get("session") in ids] or [0]
        hits, misses = stats["material_hits"], stats["material_misses"]
        out: Dict[str, tuple] = {
            "session.checkpoints": (
                statistics.median(s.checkpoints for s in window), "count"),
            "session.reconnects": (sum(s.reconnects for s in window),
                                   "count"),
            "serve.server_wall_ms": (statistics.median(walls), "ms"),
            "serve.stats_rtt_ms": (1e3 * statistics.median(rtts), "ms"),
            "serve.material_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "serve.rejects": (sum(stats[k] for k in (
                "rejected_busy", "rejected_error", "rejected_overload",
                "handshake_rejects")), "count"),
        }
        for name, ms in tracer.medians_ms().items():
            out[f"trace.{name}_ms"] = (ms, "ms")
        out["trace.recv_wait_ms"] = (
            1e3 * statistics.median(s.wait_s for s in traced), "ms")
        p50_plain = percentile([s.latency_s for s in plain], 50)
        p50_traced = percentile([s.latency_s for s in traced], 50)
        out["trace.overhead_pct"] = (100.0 * (p50_traced / p50_plain - 1),
                                     "%")

        wnet = layers.WorkloadNet(self.side)
        out.update(layers.setup_layers(wnet))
        out.update(layers.sweep_layers(
            wnet, programs.server_config(self.wl).checkpoint_every))
        garbler, material = layers.garbler_layers(wnet, self.seed)
        out.update(garbler)
        out.update(layers.codec_layers(material))
        out.update(layers.ot_layers(wnet.bob_bits))
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None


def environment(bench: Bench) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import cryptography
        crypto_version = cryptography.__version__
    except ImportError:
        crypto_version = None
    counts: Dict[str, int] = {}
    for s in bench.sessions:
        counts[s.phase] = counts.get(s.phase, 0) + 1
    return {
        "workload": bench.wl.name,
        "seed": bench.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cryptography": crypto_version,
        "pool": bench.stats.get("pool"),
        "sessions": counts,
        "tail": bench.tail,
        # Host contention over the window: the largest source of spread.
        "steal_s": bench.steal_s,
        "unclean_exits": bench.unclean_exits,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            side_cls=None) -> dict:
    """Measure one workload; returns the result object."""
    bench = Bench(workload, seed, side_cls)
    try:
        metrics = (bench.per_layer(seconds) if trace
                   else bench.end_to_end(seconds))
    finally:
        bench.close()
    failed = bench.failed
    attempted = len(bench.sessions)
    env = environment(bench)
    env["failed_ratio"] = failed / attempted
    env["errors"] = sorted({s.error for s in bench.sessions if s.error})[:5]
    print(json.dumps({"env": env}), flush=True)
    for name, (value, unit) in metrics.items():
        print(f"  {workload:16s} {name:28s} {value:14.4f} {unit}")
    return {
        "correct": failed == 0 and bench.unclean_exits == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, one after the other."""
    import programs

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in programs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace",
             str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1]) if lines else {"correct": False}
        total["correct"] &= proc.returncode == 0 and result["correct"]
        total["attempted"] += result.get("attempted", 0)
        total["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            total["metrics"][f"{name}/{metric}"] = value
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still stops its server tree (Bench.close).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import programs

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    elif args.workload in programs.WORKLOADS:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(programs.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer figures: timed calls into each layer's public functions.

Run only by the traced run, after the served windows, on the
workload's own netlist and seeded inputs, so the untraced end-to-end
runs never pay for them.  Each figure is a median over repetitions.
"""

from __future__ import annotations

import random
import statistics
import threading
from time import perf_counter
from typing import Callable, Dict

import programs


def _median_time(fn: Callable[[], object], reps: int = 3,
                 budget_s: float = 2.0) -> float:
    """Median wall seconds of ``fn()`` over up to ``reps`` calls (at
    least one; stops early once ``budget_s`` is spent)."""
    times = []
    spent = 0.0
    while len(times) < reps and (not times or spent < budget_s):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
        spent += times[-1]
    return statistics.median(times)


class WorkloadNet:
    """Builder and inputs of the netlist a workload serves."""

    def __init__(self, side: programs.EvaluatorSide) -> None:
        wl = side.workload
        if wl.program == "hamming160":
            arm = side.arm or programs.ArmProgram()
            self.arm = arm
            self.cycles = arm.cycles
            self.public_init = arm.public_init
            self.alice = ()
            self.alice_init = arm.init_bits(side.server_value,
                                            arm.bench.alice_words)
            self.bob_bits = 32 * arm.bench.bob_words
        else:
            from repro.net.cli import _registry

            self.arm = None
            self.entry = _registry()[wl.program]
            _net, self.cycles = self.entry.build()
            self.public_init = ()
            self.alice = self.entry.alice_source(side.server_value,
                                                 self.cycles)
            self.alice_init = ()
            bob = self.entry.bob_source(0, self.cycles)
            self.bob_bits = len(bob(0) if callable(bob) else bob)

    def build(self):
        """A fresh netlist object (no cached compiled plan)."""
        if self.arm is not None:
            return _build_cpu(self.arm.layout())
        return self.entry.build()[0]


def setup_layers(wnet: WorkloadNet) -> Dict[str, tuple]:
    from repro.arm import GarbledMachine
    from repro.cc import compile_c
    from repro.core.plan import warm_plan
    from repro.programs import REGISTRY

    source = REGISTRY["hamming160"].source
    words = compile_c(source).words
    layout = programs.arm_layout(REGISTRY["hamming160"])
    nets = [wnet.build() for _ in range(3)]
    return {
        "cc.compile_ms": (1e3 * _median_time(lambda: compile_c(source)),
                          "ms"),
        # GarbledMachine caches the processor netlist per memory layout,
        # so a cold construction is the processor build plus the load.
        "arm.build_ms": (1e3 * (
            _median_time(lambda: _build_cpu(layout))
            + _median_time(lambda: GarbledMachine(words, **layout))
        ), "ms"),
        "circuit.build_ms": (1e3 * _median_time(wnet.build), "ms"),
        "plan.compile_ms": (
            1e3 * _median_time(lambda: warm_plan(nets.pop())), "ms"),
    }


def _build_cpu(layout: dict):
    """The processor netlist, built afresh (``GarbledMachine`` caches it)."""
    from repro.arm import MachineConfig, build_cpu

    return build_cpu(MachineConfig(**layout))[0]


def sweep_layers(wnet: WorkloadNet, checkpoint_every: int) -> Dict[str, tuple]:
    """Count-mode sweep per cycle, and engine snapshots at the
    session's checkpoint cadence."""
    from repro.core.backend import CountingBackend
    from repro.core.plan import make_engine, warm_plan

    net = wnet.build()
    warm_plan(net)
    step_s, snap_s = [], []
    for rep in range(3):
        eng = make_engine(net, CountingBackend(rep),
                          public_init=wnet.public_init)
        t0 = perf_counter()
        snap_s.append(_timed(eng.snapshot))
        for i in range(wnet.cycles):
            t = perf_counter()
            eng.step((), final=(i == wnet.cycles - 1))
            step_s.append(perf_counter() - t)
            done = i + 1
            if done % checkpoint_every == 0 or done == wnet.cycles:
                snap_s.append(_timed(eng.snapshot))
        if perf_counter() - t0 > 2.0:
            break
    return {
        "plan.sweep_ms_per_cycle": (1e3 * statistics.median(step_s), "ms"),
        "engine.snapshot_ms": (1e3 * statistics.median(snap_s), "ms"),
    }


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def garbler_layers(wnet: WorkloadNet, seed: int) -> Dict[str, tuple]:
    """Half-gate garble/evaluate and the label hash on the workload's
    own AND-like gate types, plus one epoch of offline material."""
    from repro.circuit.gates import and_decomposition
    from repro.core.plan import warm_plan
    from repro.gc.garble import (evaluate_gate, garble_gate, random_delta,
                                 random_label)
    from repro.gc.hashing import hash_labels
    from repro.gc.material import build_material

    net = wnet.build()
    rng = random.Random(f"{seed}:layers")
    tts = [tt for tt in net.gate_tt if and_decomposition(tt) is not None]
    gates = [tts[i % len(tts)] for i in range(4000)]
    delta = random_delta(rng)
    zeros = [(random_label(rng), random_label(rng)) for _ in gates]
    bits = [(rng.getrandbits(1), rng.getrandbits(1)) for _ in gates]

    t0 = perf_counter()
    tables = [garble_gate(tt, a0, b0, delta, gid)[1]
              for gid, (tt, (a0, b0)) in enumerate(zip(gates, zeros))]
    garble_s = perf_counter() - t0
    active = [(a0 ^ (delta if x else 0), b0 ^ (delta if y else 0))
              for (a0, b0), (x, y) in zip(zeros, bits)]
    t0 = perf_counter()
    for gid, (tt, (a, b), table) in enumerate(zip(gates, active, tables)):
        evaluate_gate(tt, a, b, table, gid)
    eval_s = perf_counter() - t0
    pairs = [(random_label(rng), i) for i in range(4000)]
    t0 = perf_counter()
    hash_labels(pairs)
    hash_s = perf_counter() - t0

    warm_plan(net)
    material = []

    def build():
        material.append(build_material(
            net, wnet.cycles, alice=wnet.alice, alice_init=wnet.alice_init,
            public_init=wnet.public_init, ot=programs.OT,
        ))

    material_s = _median_time(build)
    return {
        "gc.garble_ns_per_gate": (1e9 * garble_s / len(gates), "ns"),
        "gc.eval_ns_per_gate": (1e9 * eval_s / len(gates), "ns"),
        "gc.hash_ns_per_label": (1e9 * hash_s / len(pairs), "ns"),
        "material.build_ms": (1e3 * material_s, "ms"),
    }, material[-1]


def codec_layers(material) -> Dict[str, tuple]:
    """Codec throughput on the session's own ``tables`` payloads."""
    from repro.net.codec import decode, encode

    batches = [[keys, blob] for keys, blob in material.cycle_tables]
    encoded = [encode(b) for b in batches]
    nbytes = sum(len(e) for e in encoded)

    def enc():
        for b in batches:
            encode(b)

    def dec():
        for e in encoded:
            decode(e)

    reps = max(1, min(200, (1 << 22) // max(nbytes, 1)))

    def many(fn):
        return lambda: [fn() for _ in range(reps)]

    mb = reps * nbytes / 1e6
    return {
        "codec.encode_mb_s": (mb / _median_time(many(enc)), "MB/s"),
        "codec.decode_mb_s": (mb / _median_time(many(dec)), "MB/s"),
    }


def ot_layers(n: int) -> Dict[str, tuple]:
    """IKNP OT extension for ``n`` choice bits over ``channel_pair``:
    once with a fresh base phase, once re-using the exported base."""
    from repro.gc.channel import channel_pair
    from repro.gc.ot_extension import OTExtensionReceiver, OTExtensionSender

    rng = random.Random("ot")
    msgs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(n)]
    choices = [rng.getrandbits(1) for _ in range(n)]

    def run(sender_base=None, receiver_base=None, salt=b"iknp"):
        a, b = channel_pair(timeout=60.0)
        sender = OTExtensionSender(a, group="modp512", base=sender_base,
                                   salt=salt)
        receiver = OTExtensionReceiver(b, group="modp512",
                                       base=receiver_base, salt=salt)
        errors = []

        def send():
            try:
                for m0, m1 in msgs:
                    sender.send(m0, m1)
            except Exception as exc:  # surfaced after join
                errors.append(exc)
                a.abort()

        t = threading.Thread(target=send)
        t0 = perf_counter()
        t.start()
        got = [receiver.receive(c) for c in choices]
        t.join(timeout=60.0)
        elapsed = perf_counter() - t0
        if errors or t.is_alive():
            raise RuntimeError(f"OT extension failed: {errors}")
        if got != [m[c] for m, c in zip(msgs, choices)]:
            raise RuntimeError("OT extension delivered wrong messages")
        return elapsed, sender, receiver

    fresh, sender, receiver = run()
    s_base, r_base = sender.export_base(), receiver.export_base()
    cached = [run(s_base, r_base, salt=b"bench%d" % i)[0] for i in range(3)]
    fresh_s = statistics.median([fresh] + [run()[0] for _ in range(2)])
    cached_s = statistics.median(cached)
    return {
        "ot.base_ms": (1e3 * max(fresh_s - cached_s, 0.0), "ms"),
        "ot.ext_us_per_ot": (1e6 * cached_s / n, "us"),
    }

"""The benchmark's three served workloads: what is served, what a
session sends, and what the answer must be.

Both halves of the deployment import this module: the server launcher
(``server_main.py``) builds the garbler-side :class:`ServeProgram` from
it, and the benchmark process builds the evaluator side.  Every input
derives from the run's ``--seed``; the program itself only ever sees
the generated operands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

M32 = 0xFFFFFFFF

#: Settings every workload shares (the rest stay ServeConfig defaults).
SERVER_WORKERS = 2
OT = "extension"


@dataclass(frozen=True)
class Workload:
    """One served workload and its load shape."""

    name: str
    #: Program name in the server's table (and in the client hello).
    program: str
    clients: int
    pool: str
    precompute: bool


#: Why these three: see README.md ("Workloads").
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("arm-hamming160", "hamming160", clients=1, pool="auto",
                 precompute=False),
        Workload("psi-hash16x32", "psi-hash16x32", clients=1,
                 pool="process", precompute=False),
        Workload("serve-sum32", "sum32", clients=2, pool="process",
                 precompute=True),
    )
}


def _rng(seed: int, *scope: Any) -> random.Random:
    return random.Random(":".join(str(s) for s in (seed,) + scope))


# -- the ARM program --------------------------------------------------------


def arm_layout(bench) -> dict:
    """Memory layout of a :class:`repro.programs.BenchProgram`."""
    return dict(
        alice_words=bench.alice_words, bob_words=bench.bob_words,
        output_words=bench.output_words, data_words=bench.data_words,
        imem_words=bench.imem_words,
    )


class ArmProgram:
    """``hamming160`` compiled by ``repro.cc`` onto a ``GarbledMachine``."""

    def __init__(self) -> None:
        from repro.arm import GarbledMachine
        from repro.cc import compile_c
        from repro.circuit.bits import pack_words
        from repro.programs import REGISTRY

        self.bench = REGISTRY["hamming160"]
        self.words = compile_c(self.bench.source).words
        self.machine = GarbledMachine(self.words, **self.layout())
        cfg = self.machine.config
        imem = self.machine.program + [0] * (
            cfg.imem_words - len(self.machine.program)
        )
        self.public_init = pack_words(imem, 32)
        cycles, independent = self.machine.required_cycles(
            [0] * cfg.alice_words, [0] * cfg.bob_words
        )
        if not independent:
            raise RuntimeError("hamming160 cycle count depends on inputs")
        self.cycles = cycles

    def layout(self) -> dict:
        return arm_layout(self.bench)

    def init_bits(self, words: List[int], n: int) -> List[int]:
        from repro.circuit.bits import pack_words

        return pack_words(list(words) + [0] * (n - len(words)), 32)


# -- per-workload operands, calls and oracles --------------------------------


class EvaluatorSide:
    """Evaluator-side view of one workload at one seed.

    ``next_input(rng)`` draws a session operand, ``call`` runs the
    session through the public client handle, ``expected`` is the
    oracle's answer and ``count_mode`` the paper's gate count from
    ``repro.api.run(mode="local")`` on the same inputs.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.server_value = server_value(workload, seed)
        self.arm: Optional[ArmProgram] = None
        self._local_net = None

    # Evaluator-side set-up: the ARM program is compiled and loaded
    # once; registry circuits are rebuilt by ServeClient.run itself.
    def prepare(self) -> None:
        if self.workload.program == "hamming160":
            from repro.core.plan import warm_plan

            self.arm = ArmProgram()
            warm_plan(self.arm.machine.net)

    def rng(self, thread: int) -> random.Random:
        return _rng(self.seed, self.workload.name, "client", thread)

    def next_input(self, rng: random.Random):
        if self.arm is not None:
            n = self.arm.bench.bob_words
            return [rng.getrandbits(32) for _ in range(n)]
        return rng.getrandbits(32)

    def call(self, client, value, session_id: str):
        if self.arm is not None:
            arm = self.arm
            return client.submit(
                self.workload.program,
                arm.machine.net,
                bob_init=arm.init_bits(value, arm.bench.bob_words),
                public_init=arm.public_init,
                cycles=arm.cycles,
                session_id=session_id,
            )
        return client.run(self.workload.program, value,
                          session_id=session_id)

    def expected(self, value) -> Callable[[List[int]], Optional[str]]:
        """A checker for one session's decoded output bits: returns an
        error string, or ``None`` when the output is right."""
        prog = self.workload.program
        if self.arm is not None:
            from repro.circuit.bits import unpack_words

            want = self.arm.bench.oracle(self.server_value, value)

            def check(bits):
                got = unpack_words(bits, 32)[: len(want)]
                return None if got == want else f"output {got} != {want}"

            return check
        if prog == "sum32":
            want = (self.server_value + value) & M32

            def check(bits):
                from repro.circuit.bits import bits_to_int

                got = bits_to_int(list(bits))
                return None if got == want else f"sum {got} != {want}"

            return check
        from repro.workloads import get_workload
        from repro.workloads.psi import query_seed, set_from_seed

        wl = get_workload(prog)
        want_bits = wl.oracle(self.server_value, value)
        mine = set(set_from_seed(wl.spec, self.server_value))
        theirs = set(set_from_seed(wl.spec, query_seed(value, 0)))

        def check(bits):
            if list(bits) != want_bits:
                return "PSI output bits differ from the set oracle"
            size = wl.decode_query(wl.split_outputs(bits)[0])["size"]
            if size != len(mine & theirs):
                return f"intersection size {size} != {len(mine & theirs)}"
            return None

        return check

    def count_mode(self, value) -> tuple:
        """``(garbled_nonxor, output bits)`` from count mode."""
        from repro import api

        if self.arm is not None:
            res = api.run(
                self.arm.words,
                {"alice": self.server_value, "bob": value},
                mode="local",
                machine_config=self.arm.layout(),
                cycles=self.arm.cycles,
            )
            return res.garbled_nonxor, list(res.outputs)
        from repro.net.cli import _registry

        entry = _registry()[self.workload.program]
        if self._local_net is None:
            self._local_net = entry.build()
        net, cycles = self._local_net
        res = api.run(
            net,
            {
                "alice": entry.alice_source(self.server_value, cycles),
                "bob": entry.bob_source(value, cycles),
            },
            mode="local",
            cycles=cycles,
        )
        return res.garbled_nonxor, list(res.outputs)


def server_value(workload: Workload, seed: int):
    """The garbler's operand: ARM words, or a set seed / addend."""
    rng = _rng(seed, workload.name, "server")
    if workload.program == "hamming160":
        from repro.programs import REGISTRY

        n = REGISTRY["hamming160"].alice_words
        return [rng.getrandbits(32) for _ in range(n)]
    return rng.getrandbits(32)


def server_program(workload: Workload, seed: int):
    """The garbler-side :class:`repro.serve.ServeProgram`."""
    value = server_value(workload, seed)
    if workload.program == "hamming160":
        from repro.serve import ServeProgram

        arm = ArmProgram()
        return ServeProgram(
            net=arm.machine.net,
            cycles=arm.cycles,
            alice_init=arm.init_bits(value, arm.bench.alice_words),
            public_init=arm.public_init,
        )
    from repro.serve import registry_program

    return registry_program(workload.program, value)


def server_config(workload: Workload):
    from repro.serve import ServeConfig

    return ServeConfig(
        workers=SERVER_WORKERS, ot=OT, pool=workload.pool,
        precompute=workload.precompute,
    )

"""The worker pool: pool resolution, cross-process resume via fd
passing, shared-memory counters, and the thread executor running the
same worker runtime in-process.

Most serve tests already run against the process pool implicitly
(``pool="auto"`` resolves to processes under pytest); this file pins
the executor-specific guarantees explicitly.
"""

import multiprocessing
import os
import threading

import pytest

from repro import api
from repro.net.cli import _registry
from repro.net.fault import FaultPlan, FaultRule, FaultyTransport
from repro.serve import make_server, run_loadgen, run_registry_session
from repro.serve.server import GarbleServer, ServeProgram, registry_program

SERVER_VALUE = 4321
CLIENT_VALUE = 1234


class TestPoolResolution:
    def test_auto_resolves_to_process_under_pytest(self):
        with make_server(["sum32"], value=1, port=0) as srv:
            assert srv.pool == "process"

    def test_explicit_thread_pool_still_works(self):
        with make_server(["sum32"], value=SERVER_VALUE, pool="thread",
                         port=0) as srv:
            assert srv.pool == "thread"
            res = run_registry_session(srv.host, srv.port, "sum32", 5,
                                       max_attempts=1)
            assert res.value == (SERVER_VALUE + 5) & 0xFFFFFFFF

    def test_unpicklable_programs_fall_back_to_threads(self):
        """Callable bit sources can't cross a process boundary: auto
        falls back to the thread pool, explicit process refuses."""
        base = registry_program("sum32", SERVER_VALUE)
        bits = list(base.alice)
        prog = ServeProgram(
            net=base.net, cycles=base.cycles,
            alice=lambda cycle: bits,  # unpicklable on purpose
        )
        srv = GarbleServer({"sum32": prog}, port=0)
        try:
            assert srv.pool == "thread"
        finally:
            srv.shutdown(drain=False)
        with pytest.raises(ValueError, match="picklable"):
            GarbleServer({"sum32": prog}, port=0, pool="process")

    def test_unknown_pool_rejected(self):
        with pytest.raises(ValueError, match="unknown pool"):
            make_server(["sum32"], value=1, port=0, pool="fibers")


class TestProcessPoolSessions:
    def test_sessions_run_in_worker_processes(self):
        """Results ship back over the control channel and the
        shared-memory counters settle, with the work done outside the
        parent process."""
        with make_server(["sum32"], value=SERVER_VALUE, workers=2,
                         pool="process", port=0) as srv:
            report = run_loadgen(
                srv.host, srv.port, "sum32", clients=4,
                server_value=SERVER_VALUE, max_attempts=1,
            )
            assert report.ok == 4 and report.failed == 0
            assert report.verify_errors == []
            srv.shutdown(drain=True)
            assert srv.stats.completed == 4
            assert srv.stats.active == 0
            # Every worker was a live child process of this one.
            assert all(p is not None and p.pid != os.getpid()
                       for p in srv._procs)

    def test_resume_crosses_the_process_boundary(self):
        """A redial's socket is fd-passed to the worker that owns the
        session; the resumed run is bit-identical to a clean one."""
        with make_server(["sum32-seq"], value=SERVER_VALUE, workers=2,
                         pool="process", checkpoint_every=4, timeout=5.0,
                         resume_window=5.0, port=0) as srv:
            assert srv.pool == "process"
            clean = run_registry_session(
                srv.host, srv.port, "sum32-seq", CLIENT_VALUE,
                session_id="pp-clean", max_attempts=1)

            def wrap(attempt, link):
                if attempt == 0:
                    return FaultyTransport(
                        link,
                        FaultPlan([FaultRule("disconnect",
                                             frame_index=30)]),
                    )
                return link

            faulted = run_registry_session(
                srv.host, srv.port, "sum32-seq", CLIENT_VALUE,
                session_id="pp-faulted", max_attempts=4, timeout=5.0,
                wrap=wrap)
            assert faulted.reconnects >= 1
            assert faulted.value == clean.value
            assert faulted.outputs == clean.outputs
            assert faulted.stats.garbled_nonxor == clean.stats.garbled_nonxor

            # The worker-side result made it back to the parent and
            # matches the client's decode bit for bit.
            srv.shutdown(drain=True)
            a = srv.session_result("pp-clean")
            b = srv.session_result("pp-faulted")
            assert a is not None and b is not None
            assert a.outputs == b.outputs == faulted.outputs
            assert b.reconnects >= 1

    def test_shutdown_reaps_every_worker(self):
        srv = make_server(["sum32"], value=1, workers=2, pool="process",
                          port=0).start()
        procs = list(srv._procs)
        assert all(p is not None for p in procs)
        srv.shutdown(drain=True)
        assert all(not p.is_alive() for p in procs)


class TestThreadExecutor:
    def test_thread_pool_matches_process_pool_and_simulator(self):
        """``pool="thread"`` runs the worker runtime in daemon threads:
        no child process is started, and a session's outputs and
        garbled non-XOR count are bit-identical to the process pool's
        and to the local simulator's on the same inputs."""
        entry = _registry()["sum32"]
        net, cycles = entry.build()
        ref = api.run(
            net,
            {"alice": entry.alice_source(SERVER_VALUE, cycles),
             "bob": entry.bob_source(CLIENT_VALUE, cycles)},
            cycles=cycles,
        )
        results = {}
        for pool in ("thread", "process"):
            with make_server(["sum32"], value=SERVER_VALUE, workers=2,
                             pool=pool, port=0) as srv:
                assert srv.pool == pool
                res = run_registry_session(
                    srv.host, srv.port, "sum32", CLIENT_VALUE,
                    session_id=f"{pool}-0", max_attempts=1)
                if pool == "thread":
                    assert multiprocessing.active_children() == []
                    assert all(isinstance(w, threading.Thread)
                               for w in srv._procs)
                srv.shutdown(drain=True)
                served = srv.session_result(f"{pool}-0")
                assert served is not None
                assert list(served.outputs) == list(res.outputs)
                assert srv.stats.completed == 1 and srv.stats.active == 0
            results[pool] = res
        for res in results.values():
            assert res.value == ref.value
            assert list(res.outputs) == list(ref.outputs)
            assert res.stats.garbled_nonxor == ref.stats.garbled_nonxor

"""The router tier: rendezvous affinity, fleet-stats aggregation and
drain-time session handoff through a live two-shard fleet."""

import gc
import socket
import sys
import threading
import time

import pytest

from repro import api
from repro.net.cli import _registry
from repro.serve import (
    ServeClient,
    LocalFleet,
    RouterConfig,
    SessionRouter,
    aggregate_shard_stats,
    fetch_fleet_stats,
    fetch_stats,
    registry_program,
    run_registry_session,
    run_session,
)
from repro.serve.fleet import rendezvous_rank, rendezvous_select

SERVER_VALUE = 1000


def _await(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.02)


class TestRendezvous:
    """The pure HRW routing function: determinism and the minimal-
    disruption property that makes shard join/leave cheap."""

    SHARDS = [("10.0.0.1", 9300), ("10.0.0.2", 9300),
              ("10.0.0.3", 9300), ("10.0.0.4", 9301)]
    KEYS = [f"digest-{i:04x}" for i in range(256)]

    def test_select_is_deterministic_and_order_independent(self):
        for key in self.KEYS[:16]:
            first = rendezvous_select(key, self.SHARDS)
            assert first == rendezvous_select(key, self.SHARDS)
            assert first == rendezvous_select(key, reversed(self.SHARDS))
            assert first in self.SHARDS

    def test_rank_is_a_permutation(self):
        ranked = rendezvous_rank("some-key", self.SHARDS)
        assert sorted(ranked) == sorted(self.SHARDS)
        assert ranked[0] == rendezvous_select("some-key", self.SHARDS)

    def test_empty_pool_selects_none(self):
        assert rendezvous_select("key", []) is None
        assert rendezvous_rank("key", []) == []

    def test_leave_moves_only_the_leavers_keys(self):
        """When a shard leaves, sessions owned by the survivors keep
        their owner — only the leaver's keys are re-routed."""
        before = {k: rendezvous_select(k, self.SHARDS) for k in self.KEYS}
        leaver = self.SHARDS[1]
        survivors = [s for s in self.SHARDS if s != leaver]
        for key, owner in before.items():
            after = rendezvous_select(key, survivors)
            if owner != leaver:
                assert after == owner, f"{key} moved off a live shard"
            else:
                assert after in survivors

    def test_join_steals_keys_only_for_itself(self):
        """When a shard joins, every key that moves, moves *to* the
        joiner — no shuffling between incumbents."""
        before = {k: rendezvous_select(k, self.SHARDS) for k in self.KEYS}
        joiner = ("10.0.0.9", 9300)
        grown = self.SHARDS + [joiner]
        moved = 0
        for key, owner in before.items():
            after = rendezvous_select(key, grown)
            if after != owner:
                assert after == joiner, f"{key} shuffled between incumbents"
                moved += 1
        # The joiner takes a non-trivial share (~1/5 of 256 keys).
        assert 0 < moved < len(self.KEYS)

    def test_spread_is_not_degenerate(self):
        owners = {rendezvous_select(k, self.SHARDS) for k in self.KEYS}
        assert owners == set(self.SHARDS)


class TestAggregate:
    def test_sums_additive_counters(self):
        snaps = [
            {"accepted": 3, "completed": 2, "failed": 0, "active": 1,
             "handed_off": 1},
            {"accepted": 5, "completed": 5, "failed": 1, "adopted": 1},
        ]
        agg = aggregate_shard_stats(snaps)
        assert agg["accepted"] == 8
        assert agg["completed"] == 7
        assert agg["failed"] == 1
        assert agg["handed_off"] == 1 and agg["adopted"] == 1
        assert agg["shards"] == 2

    def test_missing_and_malformed_fields_count_as_zero(self):
        agg = aggregate_shard_stats([{}, {"accepted": "not-a-number"}])
        assert agg["accepted"] == 0
        assert agg["shards"] == 2

    def test_empty_fleet_aggregates_to_zeroes(self):
        agg = aggregate_shard_stats([])
        assert agg["shards"] == 0
        assert all(v == 0 for k, v in agg.items() if k != "shards")


@pytest.fixture(scope="module")
def fleet():
    programs = {"sum32": registry_program("sum32", SERVER_VALUE)}
    with LocalFleet(programs, shards=2) as f:
        yield f


class TestRouterFleet:
    def test_sessions_route_and_match_local_simulator(self, fleet):
        entry = _registry()["sum32"]
        net, cycles = entry.build()
        for value in (7, 19, 255):
            res = run_registry_session(
                fleet.host, fleet.port, "sum32", value, max_attempts=1
            )
            ref = api.run(
                net,
                {"alice": entry.alice_source(SERVER_VALUE, cycles),
                 "bob": entry.bob_source(value, cycles)},
                cycles=cycles,
            )
            assert res.value == ref.value == (SERVER_VALUE + value) & 0xFFFFFFFF
            assert list(res.outputs) == list(ref.outputs)
            assert res.stats.garbled_nonxor == ref.stats.garbled_nonxor

    def test_digest_affinity_pins_a_program_to_one_shard(self, fleet):
        """Every session for the same program digest lands on the same
        shard: exactly one shard accepts sum32 traffic."""
        for i in range(3):
            run_registry_session(
                fleet.host, fleet.port, "sum32", 40 + i, max_attempts=1
            )
        snaps = [fetch_stats(h, p) for h, p in fleet.shard_addrs]
        owners = [s for s in snaps if s["accepted"] > 0]
        assert len(owners) == 1, [s["accepted"] for s in snaps]

    def test_router_stats_snapshot(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
        st = client.stats()
        assert st["routed_sessions"] >= 1
        assert st["rejected_error"] == 0
        assert len(st["shards"]) == 2
        assert all(s["healthy"] for s in st["shards"])
        # The effective config is echoed so operators can audit it.
        assert sorted(map(tuple, st["config"]["shards"])) == sorted(
            fleet.shard_addrs
        )

    def test_fleet_stats_matches_per_shard_aggregation(self, fleet):
        run_registry_session(fleet.host, fleet.port, "sum32", 3,
                             max_attempts=1)
        # Completion bookkeeping lands just after the client sees the
        # result — wait for the per-shard counters to go quiet.
        def settled():
            snaps = [fetch_stats(h, p) for h, p in fleet.shard_addrs]
            return all(s["active"] == 0 and s["queued"] == 0 for s in snaps)
        _await(settled, what="shard bookkeeping")

        snaps = [fetch_stats(h, p) for h, p in fleet.shard_addrs]
        expected = aggregate_shard_stats(snaps)
        fs = fetch_fleet_stats(fleet.host, fleet.port)
        assert fs["aggregate"] == expected
        assert fs["aggregate"]["shards"] == 2
        assert fs["aggregate"]["failed"] == 0
        assert len(fs["shards"]) == 2
        assert {s["id"] for s in fs["shards"]} == {
            "%s:%d" % addr for addr in fleet.shard_addrs
        }


class TestDrainHandoff:
    def test_forced_drain_handoff_is_bit_identical(self):
        """Drain the shard that owns an in-flight session mid-run: the
        session is checkpoint-transferred to the peer and finishes with
        outputs and gate counts bit-identical to the local simulator."""
        entry = _registry()["sum32-seq"]
        net, cycles = entry.build()
        bob = entry.bob_source(7, cycles)

        def slow_bob(cycle):
            # Stretch the session (~1.6s over 32 cycles) so the drain
            # reliably lands between checkpoints.
            time.sleep(0.05)
            return bob(cycle) if callable(bob) else bob

        ref = api.run(
            net,
            {"alice": entry.alice_source(SERVER_VALUE, cycles),
             "bob": entry.bob_source(7, cycles)},
            cycles=cycles,
        )

        programs = {"sum32-seq": registry_program("sum32-seq", SERVER_VALUE)}
        with LocalFleet(programs, shards=2) as fleet:
            box = {}

            def client_main():
                box["result"] = run_session(
                    fleet.host, fleet.port, "sum32-seq", net,
                    session_id="drain-handoff", bob=slow_bob, cycles=cycles,
                )

            t = threading.Thread(target=client_main)
            t.start()
            try:
                owner = {}

                def session_active():
                    for addr in fleet.shard_addrs:
                        if fetch_stats(*addr)["active"] >= 1:
                            owner["addr"] = addr
                            return True
                    return False
                _await(session_active, what="session to start")

                drain = ServeClient(fleet.host, fleet.port).drain(
                    shard=owner["addr"]
                )
                assert drain["draining"] is True
                assert drain["handoffs"] == 1
            finally:
                t.join(timeout=90)
            assert not t.is_alive(), "handed-off session never finished"

            result = box["result"]
            assert result.value == ref.value
            assert list(result.outputs) == list(ref.outputs)
            assert result.stats.garbled_nonxor == ref.stats.garbled_nonxor
            assert result.reconnects >= 1

            agg = fetch_fleet_stats(fleet.host, fleet.port)["aggregate"]
            assert agg["handed_off"] == 1
            assert agg["adopted"] == 1
            assert agg["completed"] == 1
            assert agg["failed"] == 0


class TestShardReload:
    """``op: "reload-shards"``: live membership swap with minimal
    disruption (ROADMAP item 2's config-reload deferral)."""

    def test_join_and_leave_with_minimal_disruption(self):
        from repro.serve import request_reload
        from repro.serve.config import ServeConfig
        from repro.serve.server import GarbleServer

        programs = {"sum32": registry_program("sum32", SERVER_VALUE)}
        with LocalFleet(programs, shards=2) as fleet:
            client = ServeClient(fleet.host, fleet.port)
            for i in range(2):
                res = run_registry_session(
                    fleet.host, fleet.port, "sum32", 10 + i,
                    max_attempts=1,
                )
                assert res.value == (SERVER_VALUE + 10 + i) & 0xFFFFFFFF
            owners = [a for a in fleet.shard_addrs
                      if fetch_stats(*a)["accepted"] > 0]
            assert len(owners) == 1
            owner = owners[0]
            other = next(a for a in fleet.shard_addrs if a != owner)
            pins_before = dict(fleet.router._pins)
            assert pins_before

            joiner = GarbleServer(
                programs,
                config=ServeConfig(pool="thread").replace(
                    host="127.0.0.1", port=0, fleet=True
                ),
            ).start()
            try:
                grown = list(fleet.shard_addrs) + [
                    ("127.0.0.1", joiner.port)
                ]
                ack = client.reload_shards(grown)
                assert ack["status"] == "ok"
                assert ack["added"] == 1 and ack["removed"] == 0
                assert ack["dropped_pins"] == 0
                assert [tuple(a) for a in ack["shards"]] == grown

                st = client.stats()
                assert st["shard_reloads"] == 1
                assert len(st["shards"]) == 3
                assert [tuple(a) for a in st["config"]["shards"]] \
                    == grown
                # Survivors kept their pins: redials stay sticky.
                for sid, addr in pins_before.items():
                    assert fleet.router._pins.get(sid) == addr

                # Minimal disruption: new sum32 sessions may stay on
                # the incumbent owner or move to the joiner, but never
                # shuffle onto the other incumbent.
                other_before = fetch_stats(*other)["accepted"]
                for i in range(2):
                    run_registry_session(
                        fleet.host, fleet.port, "sum32", 30 + i,
                        max_attempts=1,
                    )
                assert fetch_stats(*other)["accepted"] == other_before

                # Shrink: drop the original owner.  Its pins go, and
                # traffic re-routes to the survivors correctly.
                survivors = [a for a in grown if a != owner]
                ack2 = client.reload_shards(survivors)
                assert ack2["removed"] == 1
                assert ack2["dropped_pins"] >= 1
                assert all(addr != owner
                           for addr in fleet.router._pins.values())
                res = run_registry_session(
                    fleet.host, fleet.port, "sum32", 77, max_attempts=1
                )
                assert res.value == (SERVER_VALUE + 77) & 0xFFFFFFFF
                assert client.stats()["shard_reloads"] == 2
            finally:
                joiner.shutdown()

    def test_reload_rejects_bad_membership(self):
        from repro.serve import request_reload
        from repro.serve.client import _hello_exchange
        from repro.serve.handshake import ServeError

        programs = {"sum32": registry_program("sum32", SERVER_VALUE)}
        with LocalFleet(programs, shards=1) as fleet:
            with pytest.raises(ValueError):
                request_reload(fleet.host, fleet.port, [])
            # Malformed membership is a structured error reply
            # (surfaced client-side as ServeError), and the router
            # keeps routing afterwards.
            with pytest.raises(ServeError, match="reload-shards needs"):
                _hello_exchange(
                    fleet.host, fleet.port,
                    {"op": "reload-shards", "shards": "nonsense"},
                    timeout=10.0,
                )
            res = run_registry_session(
                fleet.host, fleet.port, "sum32", 5, max_attempts=1
            )
            assert res.value == (SERVER_VALUE + 5) & 0xFFFFFFFF
            assert client_stats_shards(fleet) == 1


def client_stats_shards(fleet) -> int:
    return len(ServeClient(fleet.host, fleet.port).stats()["shards"])


class TestRouterShutdown:
    def test_shutdown_awaits_in_flight_probe(self):
        """Stopping the router while a ``fleet-stats`` probe waits on a
        shard that never answers must cancel and await that probe on
        the live loop: a probe left pending past ``loop.close()``
        closes its writer from the garbage collector, on a closed
        loop."""
        shard = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        shard.bind(("127.0.0.1", 0))
        shard.listen(8)
        held = []
        probing = threading.Event()

        def silent_shard():
            # Refuse the readiness poll at once, then hold the next
            # probe's connection open without ever answering it.
            conn, _ = shard.accept()
            conn.close()
            conn, _ = shard.accept()
            held.append(conn)
            conn.recv(4096)  # the probe's hello: it now awaits a reply
            probing.set()

        def ask_fleet_stats(host, port):
            try:
                fetch_fleet_stats(host, port, timeout=10.0)
            except Exception:
                pass  # the router goes away before it can answer

        threading.Thread(target=silent_shard, daemon=True).start()
        unraisable = []
        previous = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            router = SessionRouter(RouterConfig(
                shards=(shard.getsockname()[:2],), poll_interval=60.0,
            )).start()
            asker = threading.Thread(
                target=ask_fleet_stats, args=(router.host, router.port),
                daemon=True,
            )
            asker.start()
            assert probing.wait(timeout=10.0), "no probe reached the shard"
            # No collection until the loop is closed, so a task left
            # pending cannot be reaped early by a lucky cycle sweep.
            gc.disable()
            try:
                router.shutdown()
            finally:
                gc.enable()
            assert not router._thread.is_alive()
            asker.join(timeout=10.0)
            del router
            gc.collect()
        finally:
            sys.unraisablehook = previous
            for conn in held:
                conn.close()
            shard.close()
        assert [repr(u.exc_value) for u in unraisable] == []

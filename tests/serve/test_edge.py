"""Adversarial-input hardening of the asyncio serve edge.

Every way a hostile (or merely broken) client can fail the handshake
must produce a structured ``serve-welcome`` reject plus a counter —
never an exception on the accept path, never a stalled admission
pipeline.  The failure classes under test mirror
:class:`repro.serve.handshake.HandshakeReject`: garbage bytes,
truncated hellos, oversized hellos, wrong tags, undecodable payloads
and aborts — plus the timer-driven ones (slow-loris handshake
deadline, idle timeout, idle shedding under overload) and the
drain-vs-handshake race.
"""

import threading
import time

import pytest

from repro.net.codec import encode
from repro.net.frame import (
    FRAME_ABORT,
    FRAME_DATA,
    FRAME_HEARTBEAT,
    encode_frame,
)
from repro.net.links import LinkClosed, LinkTimeout
from repro.net.tcp import connect_with_backoff
from repro.serve import make_server, run_loadgen
from repro.serve.handshake import (
    HELLO,
    WELCOME,
    HandshakeReject,
    HelloParser,
    recv_control,
)

SERVER_VALUE = 321


def _await(predicate, timeout=5.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


def _hello_frame(payload: dict) -> bytes:
    return encode_frame(FRAME_DATA, 1, HELLO, encode(payload))


def _dial(srv):
    return connect_with_backoff(srv.host, srv.port, attempts=4)


def _read_welcome(link, timeout=5.0) -> dict:
    tag, payload, _ = recv_control(link, timeout=timeout)
    assert tag == WELCOME
    assert isinstance(payload, dict)
    return payload


class TestHelloParser:
    """One regression test per parse-failure class."""

    def test_well_formed_hello_parses_with_leftover(self):
        hello = {"op": "session", "session": "s", "program": "sum32"}
        nxt = encode_frame(FRAME_DATA, 2, "net-hello", b"x")
        parser = HelloParser()
        assert parser.feed(_hello_frame(hello)[:7]) is None
        assert parser.started
        got, leftover = parser.feed(_hello_frame(hello)[7:] + nxt)
        assert got == hello
        assert leftover == nxt

    def test_garbage_bytes(self):
        parser = HelloParser()
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(b"\xff" * 16)
        assert exc.value.kind == "garbage"
        # Poisoned: even valid bytes are refused afterwards.
        with pytest.raises(HandshakeReject):
            parser.feed(_hello_frame({"op": "stats"}))

    def test_oversized_hello(self):
        parser = HelloParser(max_bytes=1024)
        big = _hello_frame({"op": "session", "session": "x" * 2048,
                            "program": "sum32"})
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(big)
        assert exc.value.kind == "oversized"

    def test_oversized_by_slow_accumulation(self):
        """The bound is on total bytes fed, not chunk size — a
        trickler cannot sneak past it."""
        parser = HelloParser(max_bytes=64)
        frame = _hello_frame({"session": "y" * 256})
        with pytest.raises(HandshakeReject) as exc:
            for i in range(0, len(frame), 16):
                parser.feed(frame[i:i + 16])
        assert exc.value.kind == "oversized"

    def test_wrong_tag(self):
        parser = HelloParser()
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(encode_frame(FRAME_DATA, 1, "net-hello",
                                     encode({})))
        assert exc.value.kind == "bad-tag"

    def test_undecodable_payload(self):
        parser = HelloParser()
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(encode_frame(FRAME_DATA, 1, HELLO, b"\x00\x01"))
        assert exc.value.kind == "malformed"

    def test_non_record_payload(self):
        parser = HelloParser()
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(encode_frame(FRAME_DATA, 1, HELLO,
                                     encode([1, 2, 3])))
        assert exc.value.kind == "malformed"

    def test_abort_frame(self):
        parser = HelloParser()
        with pytest.raises(HandshakeReject) as exc:
            parser.feed(encode_frame(FRAME_ABORT, 0, "abort", b""))
        assert exc.value.kind == "aborted"

    def test_heartbeat_is_skipped(self):
        parser = HelloParser()
        hb = encode_frame(FRAME_HEARTBEAT, 0, "hb", b"")
        hello = {"op": "stats"}
        assert parser.feed(hb) is None
        got, leftover = parser.feed(_hello_frame(hello))
        assert got == hello and leftover == b""


class TestEdgeRejects:
    """Over-the-wire: each failure class yields a structured reject
    and bumps ``handshake_rejects``."""

    def test_garbage_hello_gets_bad_hello_welcome(self):
        with make_server(["sum32"], value=1, port=0) as srv:
            link = _dial(srv)
            try:
                link.send_bytes(b"\xff" * 16)
                w = _read_welcome(link)
            finally:
                link.close()
            assert w["status"] == "bad-hello"
            assert w["error"] == "garbage"
            assert "retry_after_s" in w
            _await(lambda: srv.stats.handshake_rejects >= 1,
                   what="handshake_rejects counter")
            assert srv.stats.accepted == 0

    def test_oversized_hello_gets_bad_hello_welcome(self):
        with make_server(["sum32"], value=1, port=0,
                         max_hello_bytes=512) as srv:
            link = _dial(srv)
            try:
                link.send_bytes(_hello_frame(
                    {"op": "session", "session": "z" * 2048,
                     "program": "sum32"}))
                w = _read_welcome(link)
            finally:
                link.close()
            assert w["status"] == "bad-hello"
            assert w["error"] == "oversized"
            _await(lambda: srv.stats.handshake_rejects >= 1,
                   what="handshake_rejects counter")

    def test_truncated_hello_counts_as_reject(self):
        """Disconnecting mid-hello is a truncated handshake — counted,
        not raised."""
        with make_server(["sum32"], value=1, port=0) as srv:
            link = _dial(srv)
            frame = _hello_frame(
                {"op": "session", "session": "cut", "program": "sum32"})
            link.send_bytes(frame[: len(frame) // 2])
            time.sleep(0.1)  # let the edge enter the hello state
            link.close()
            _await(lambda: srv.stats.handshake_rejects >= 1,
                   what="handshake_rejects counter")
            assert srv.stats.accepted == 0

    def test_rejects_never_wedge_the_edge(self):
        """A burst of malformed hellos leaves the server fully able to
        admit real sessions."""
        with make_server(["sum32"], value=SERVER_VALUE, port=0) as srv:
            for payload in (b"\xff" * 8,
                            encode_frame(FRAME_DATA, 1, "nope", b""),
                            encode_frame(FRAME_ABORT, 0, "abort", b"")):
                link = _dial(srv)
                try:
                    link.send_bytes(payload)
                    _read_welcome(link)
                finally:
                    link.close()
            report = run_loadgen(srv.host, srv.port, "sum32", clients=2,
                                 server_value=SERVER_VALUE, max_attempts=1)
            assert report.ok == 2
            assert report.failed == 0 and report.busy == 0
            assert srv.stats.handshake_rejects >= 3


class TestSlowLoris:
    def test_slow_loris_rejected_while_loadgen_completes(self):
        """A client trickling its hello one byte at a time is rejected
        at the handshake deadline; concurrent well-behaved sessions
        are entirely unaffected."""
        with make_server(["sum32"], value=SERVER_VALUE, workers=2,
                         handshake_timeout=1.0, port=0) as srv:
            frame = _hello_frame(
                {"op": "session", "session": "loris", "program": "sum32"})
            link = _dial(srv)
            stop = threading.Event()

            def trickle():
                try:
                    for i in range(len(frame)):
                        if stop.is_set():
                            return
                        link.send_bytes(frame[i:i + 1])
                        time.sleep(0.05)
                except (LinkClosed, OSError):
                    pass  # the edge hung up on us — expected

            t = threading.Thread(target=trickle, daemon=True)
            t0 = time.monotonic()
            t.start()
            try:
                # The loadgen runs *while* the loris trickles.
                report = run_loadgen(
                    srv.host, srv.port, "sum32", clients=3,
                    server_value=SERVER_VALUE, max_attempts=1)
                assert report.ok == 3
                assert report.busy == 0 and report.failed == 0
                assert report.verify_errors == []
                w = _read_welcome(link, timeout=10.0)
                elapsed = time.monotonic() - t0
            finally:
                stop.set()
                t.join(timeout=5.0)
                link.close()
            assert w["status"] == "handshake-timeout"
            assert elapsed < 8.0  # deadline fired, not the full trickle
            assert srv.stats.handshake_timeouts >= 1
            assert srv.stats.handshake_rejects >= 1


class TestTimersAndOverload:
    def test_idle_connection_closed_at_idle_timeout(self):
        with make_server(["sum32"], value=1, port=0,
                         idle_timeout=0.3) as srv:
            link = _dial(srv)
            try:
                t0 = time.monotonic()
                w = _read_welcome(link, timeout=5.0)
                elapsed = time.monotonic() - t0
            finally:
                link.close()
            assert w["status"] == "idle-timeout"
            assert elapsed < 4.0
            _await(lambda: srv.stats.idle_timeouts >= 1,
                   what="idle_timeouts counter")

    def test_overload_sheds_oldest_idle_first(self):
        """At ``max_connections`` the oldest idle connection is shed
        (structured ``shed-idle``) to make room for the newcomer."""
        with make_server(["sum32"], value=1, port=0, max_connections=2,
                         idle_timeout=30.0) as srv:
            a, b = _dial(srv), _dial(srv)
            time.sleep(0.1)  # both registered as idle, a oldest
            c = _dial(srv)
            try:
                w = _read_welcome(a, timeout=5.0)
                assert w["status"] == "shed-idle"
                assert w["retry_after_s"] > 0
                _await(lambda: srv.stats.idle_shed >= 1,
                       what="idle_shed counter")
            finally:
                for link in (a, b, c):
                    link.close()

    def test_overload_rejects_when_nothing_sheddable(self):
        """Connections mid-hello are not sheddable; with the table
        full of them a newcomer gets a structured ``overloaded``
        reject with backoff guidance."""
        with make_server(["sum32"], value=1, port=0, max_connections=2,
                         handshake_timeout=30.0, idle_timeout=30.0) as srv:
            frame = _hello_frame(
                {"op": "session", "session": "part", "program": "sum32"})
            a, b = _dial(srv), _dial(srv)
            # One byte each: idle -> hello, now unsheddable.
            a.send_bytes(frame[:1])
            b.send_bytes(frame[:1])
            time.sleep(0.2)
            c = _dial(srv)
            try:
                w = _read_welcome(c, timeout=5.0)
                assert w["status"] == "overloaded"
                assert w["retry_after_s"] > 0
                _await(lambda: srv.stats.rejected_overload >= 1,
                       what="rejected_overload counter")
            finally:
                for link in (a, b, c):
                    link.close()


class TestDrainRace:
    def test_stalled_preadmission_connection_gets_draining_reject(self):
        """A client that connects and stalls before sending its hello
        must get a clean ``draining`` reject when ``request_shutdown``
        fires — not a hang until its socket times out."""
        srv = make_server(["sum32"], value=1, port=0).start()
        waiter = threading.Thread(target=srv.serve_forever, daemon=True)
        waiter.start()
        stalled = _dial(srv)
        frame = _hello_frame(
            {"op": "session", "session": "stall", "program": "sum32"})
        stalled.send_bytes(frame[:3])  # mid-hello, then silence
        time.sleep(0.1)
        try:
            srv.request_shutdown()
            t0 = time.monotonic()
            w = _read_welcome(stalled, timeout=5.0)
            assert w["status"] == "draining"
            assert time.monotonic() - t0 < 5.0
        finally:
            stalled.close()
            waiter.join(timeout=10.0)
            srv.shutdown()
        assert not waiter.is_alive()

    def test_connection_after_drain_gets_draining_reject(self):
        srv = make_server(["sum32"], value=1, port=0).start()
        try:
            srv._edge.begin_drain()
            try:
                link = connect_with_backoff(srv.host, srv.port, attempts=2)
            except (OSError, LinkClosed, LinkTimeout):
                return  # listener already closed: equally clean
            try:
                w = _read_welcome(link, timeout=5.0)
                assert w["status"] == "draining"
            except (LinkClosed, LinkTimeout):
                pass  # ditto — the race may close before the reject lands
            finally:
                link.close()
        finally:
            srv.shutdown()  # the early return must reap the workers too


class TestStatsEcho:
    def test_edge_config_echoed_in_stats(self):
        """The new CLI knobs land in the server config and come back
        in the ``op: "stats"`` payload."""
        from repro.serve import fetch_stats

        with make_server(["sum32"], value=1, port=0,
                         handshake_timeout=3.5, idle_timeout=7.0,
                         replay_ttl=9.0, max_connections=123) as srv:
            stats = fetch_stats(srv.host, srv.port)
            assert stats["handshake_timeout"] == 3.5
            assert stats["idle_timeout"] == 7.0
            assert stats["replay_ttl"] == 9.0
            assert stats["max_connections"] == 123
            assert stats["replay_buffered"] == 0
            for counter in ("handshake_rejects", "handshake_timeouts",
                            "idle_timeouts", "idle_shed", "replay_hits",
                            "replay_misses", "rejected_overload"):
                assert stats[counter] == 0

    def test_cli_flags_reach_the_server_config(self):
        import argparse

        from repro.serve.cli import add_serve_parser

        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers()
        add_serve_parser(sub)
        args = parser.parse_args(
            ["serve", "--handshake-timeout", "2.5", "--idle-timeout",
             "11", "--replay-ttl", "44", "--max-connections", "77"])
        assert args.handshake_timeout == 2.5
        assert args.idle_timeout == 11.0
        assert args.replay_ttl == 44.0
        assert args.max_connections == 77

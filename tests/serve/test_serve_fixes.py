"""Regression tests for the serve-path concurrency fixes.

Three races fixed alongside the process-pool tentpole:

* the reconnect router read ``sess.program``/``sess.state`` without
  the server lock, so a redial could be welcomed into a session that
  finished a microsecond later;
* a client vanishing between hello and welcome left its admitted
  queue entry behind, making a worker pick up a linkless session and
  burn a full resume window;
* session exceptions were swallowed wholesale (``except
  BaseException``), and the ``max_sessions`` check read ``completed``
  and ``failed`` as two unlocked loads.
"""

import threading
import time

import pytest

from repro.net.links import Link, LinkClosed, LinkTimeout, memory_link_pair
from repro.serve import ServeError, make_server, run_registry_session
from repro.serve.client import _hello_exchange
from repro.serve.handshake import HELLO, send_control
from repro.serve.worker import _WorkerSession

SERVER_VALUE = 5555


def _await(predicate, timeout=5.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


def _hello_bytes(sid: str, program: str) -> bytes:
    """The wire bytes of one hello control frame."""
    left, right = memory_link_pair()
    send_control(left, HELLO,
                 {"op": "session", "session": sid, "program": program})
    chunks = []
    try:
        while True:
            chunk = right.recv_bytes(timeout=0.05)
            if not chunk:
                break
            chunks.append(chunk)
    except LinkTimeout:
        pass
    return b"".join(chunks)


class _VanishingLink(Link):
    """Delivers a hello, then dies on the server's welcome write —
    the client that disconnects between hello and welcome."""

    def __init__(self, hello: bytes) -> None:
        self._chunks = [hello]
        self.closed = False

    def recv_bytes(self, timeout=None) -> bytes:
        if self._chunks:
            return self._chunks.pop(0)
        return b""

    def send_bytes(self, data: bytes) -> None:
        raise LinkClosed("client vanished before the welcome")

    def close(self) -> None:
        self.closed = True


class TestVanishDuringHandshake:
    def test_failed_welcome_unwinds_admission(self):
        """A client that vanishes between hello and welcome must not
        leave an admitted session behind: no accepted count, no
        session registry entry, and — the expensive failure mode — no
        worker stalled on a linkless session for a resume window."""
        with make_server(["sum32"], value=SERVER_VALUE, workers=1,
                         queue_depth=4, timeout=30.0, resume_window=30.0,
                         port=0) as srv:
            link = _VanishingLink(_hello_bytes("vanish-0", "sum32"))
            srv._handle_connection(link)

            assert srv.stats.accepted == 0
            assert srv.stats.completed == 0 and srv.stats.failed == 0
            assert "vanish-0" not in srv._sessions
            assert link.closed

            # The single worker must be free *now*: if the cancelled
            # session had reached it un-sealed, it would sit in
            # pop_link for the 30s resume window and this session
            # would time out.
            t0 = time.monotonic()
            res = run_registry_session(
                srv.host, srv.port, "sum32", 7,
                session_id="after-vanish", max_attempts=1, timeout=10.0)
            assert res.value == (SERVER_VALUE + 7) & 0xFFFFFFFF
            assert time.monotonic() - t0 < 10.0
            _await(lambda: srv.stats.completed == 1,
                   what="session bookkeeping")
            assert srv.stats.accepted == 1

    def test_cancelled_session_id_is_reusable(self):
        """The unwind removes the id from the registry, so the same
        client dialing back gets a fresh session, not a 'finished'
        reject."""
        with make_server(["sum32"], value=SERVER_VALUE, workers=1,
                         port=0) as srv:
            srv._handle_connection(
                _VanishingLink(_hello_bytes("retry-me", "sum32")))
            res = run_registry_session(
                srv.host, srv.port, "sum32", 9,
                session_id="retry-me", max_attempts=1, timeout=10.0)
            assert res.value == (SERVER_VALUE + 9) & 0xFFFFFFFF


class TestReconnectCompletionRace:
    def test_sealed_session_fails_push_and_pop_immediately(self):
        """After seal() a session's link mailbox accepts no links and
        wakes a blocked pop_link at once — a redial racing completion
        can neither stall a worker nor leak its socket."""
        sess = _WorkerSession("raced")
        left, _right = memory_link_pair()
        sess.seal()
        assert sess.push_link(left) is False
        t0 = time.monotonic()
        with pytest.raises(LinkClosed):
            sess.pop_link(5.0)
        assert time.monotonic() - t0 < 1.0

    def test_seal_wakes_blocked_pop(self):
        sess = _WorkerSession("blocked")
        woke = []

        def popper():
            try:
                sess.pop_link(10.0)
            except LinkClosed:
                woke.append(time.monotonic())

        t = threading.Thread(target=popper, daemon=True)
        t0 = time.monotonic()
        t.start()
        time.sleep(0.05)
        sess.seal()
        t.join(timeout=2.0)
        assert woke and woke[0] - t0 < 2.0

    def test_redial_racing_completion_gets_structured_answer(self):
        """Hammer redials at a session while it completes: every
        redial gets a live resume, a replayed result, or a structured
        'finished' reject — never a hang or a server-side crash."""
        with make_server(["sum32"], value=SERVER_VALUE, workers=2,
                         port=0) as srv:
            errors = []
            replays = []
            stop = threading.Event()

            def redialer():
                while not stop.is_set():
                    try:
                        w, link = _hello_exchange(
                            srv.host, srv.port,
                            {"op": "session", "session": "raced",
                             "program": "sum32"}, timeout=2.0)
                        # Live session: drop the link immediately (a
                        # dud redial the worker discards on arrival).
                        link.close()
                        status = w.get("status")
                        if status == "result":
                            # Redial landed after completion: the
                            # parked result came back instead.
                            replays.append(w)
                        elif status not in ("ok",):
                            errors.append(w)
                    except ServeError:
                        pass  # structured 'already finished' reject
                    except OSError:
                        pass  # listener closing during shutdown
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))

            t = threading.Thread(target=redialer, daemon=True)
            t.start()
            try:
                res = run_registry_session(
                    srv.host, srv.port, "sum32", 3,
                    session_id="raced", max_attempts=6, timeout=10.0)
                assert res.value == (SERVER_VALUE + 3) & 0xFFFFFFFF
                _await(lambda: srv.stats.completed == 1,
                       what="session completion")
            finally:
                stop.set()
                t.join(timeout=5.0)
            assert errors == []

            # The server stayed fully functional through the race.
            res2 = run_registry_session(
                srv.host, srv.port, "sum32", 4,
                session_id="after-race", max_attempts=1, timeout=10.0)
            assert res2.value == (SERVER_VALUE + 4) & 0xFFFFFFFF


class TestDoneAccounting:
    def test_max_sessions_counts_failures_too(self):
        """``max_sessions`` triggers on completed *plus* failed read
        as one snapshot: one doomed session and one good one reach a
        ``max_sessions=2`` server's auto-shutdown."""
        from repro.gc.channel import ChannelError
        from repro.net.fault import FaultPlan, FaultRule, FaultyTransport

        with make_server(["sum32-seq"], value=SERVER_VALUE, workers=1,
                         checkpoint_every=4, timeout=1.0,
                         resume_window=0.3, max_attempts=2,
                         max_sessions=2, port=0) as srv:
            def wrap(attempt, link):
                return FaultyTransport(
                    link,
                    FaultPlan([FaultRule("disconnect", frame_index=5)]),
                )

            with pytest.raises((ChannelError, LinkClosed, LinkTimeout)):
                run_registry_session(
                    srv.host, srv.port, "sum32-seq", 1,
                    session_id="doomed", max_attempts=2, timeout=1.0,
                    wrap=wrap)
            res = run_registry_session(
                srv.host, srv.port, "sum32-seq", 2,
                session_id="fine", max_attempts=2, timeout=10.0)
            assert res.value == (SERVER_VALUE + 2) & 0xFFFFFFFF
            # done_snapshot() == 2 (1 failed + 1 completed) must flip
            # the auto-shutdown switch; serve_forever returns.
            _await(lambda: srv._shutdown_requested.is_set(),
                   what="auto shutdown request")
            srv.shutdown(drain=True)
            assert srv.stats.failed == 1
            assert srv.stats.completed == 1

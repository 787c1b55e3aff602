"""Digest-affinity session router for a sharded serve fleet.

:class:`SessionRouter` is a lightweight asyncio tier that fronts N
independent :class:`~repro.serve.server.GarbleServer` shards.  It
terminates the ``serve-hello`` (reusing the edge's incremental
:class:`~repro.serve.handshake.HelloParser` and reject vocabulary),
decides where the session lives, and from then on is a dumb byte
splice — all protocol traffic flows through untouched, so the
cryptographic transcript between evaluator and garbler is exactly what
it would be point-to-point.

Routing policy:

* **Session affinity** — a hello naming a known session id routes to
  the shard already pinned for it (a bounded FIFO table), so redials
  and result probes find their worker.
* **Digest affinity** — a fresh session routes by rendezvous (HRW)
  hashing over the live, non-draining shard set, keyed by the
  *program digest* learned from shard stats polls (falling back to the
  program name before the first poll lands).  This is the same
  :func:`~repro.serve.fleet.rendezvous_select` a draining shard uses
  to pick adoption peers, so router routing and drain-time handoff
  agree without coordination; and because HRW moves only the keys a
  leaving shard owned, shard churn re-routes the minimum.
* **Health / backpressure** — a background task polls every shard's
  ``op: "stats"`` on ``poll_interval``; ``dead_after`` consecutive
  failures mark a shard dead (routed around until it answers again),
  and a draining shard stops receiving fresh sessions immediately.
  With no live shard the router answers the fleet-level structured
  ``busy`` reject with ``retry_after_s`` backoff guidance.
* **Fleet ops** — ``op: "fleet-stats"`` probes every shard live and
  answers the aggregated fleet view; ``op: "drain"`` tells one shard
  (named in the hello) to drain, handing it the rest of the live fleet
  as adoption peers, and relays the shard's answer.

The router holds no session state beyond the pin table: kill it and
restart it, and reconnects re-pin via rendezvous (same digest, same
shard) or the shard's ``moved`` redirect.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from time import monotonic
from typing import Dict, List, Optional, Tuple

from ..gc.channel import FrameCorruption
from ..net.codec import decode, encode
from ..net.frame import FRAME_DATA, FrameDecoder, encode_frame
from ..obs import NULL_OBS
from .config import RouterConfig
from .fleet import aggregate_shard_stats, rendezvous_select
from .handshake import HELLO, WELCOME, HandshakeReject, HelloParser

#: Router-side counters (reported by ``op: "stats"``).
ROUTER_COUNTERS = (
    "routed_sessions",
    "routed_results",
    "rejected_busy",
    "rejected_error",
    "handshake_rejects",
    "stats_probes",
    "fleet_probes",
    "drains",
    "shard_reloads",
    "poll_errors",
    "moved_pins",
)


def _frame(tag: str, payload) -> bytes:
    return encode_frame(FRAME_DATA, 1, tag, encode(payload))


class _ShardState:
    """Router-side view of one shard, updated by the poll task."""

    __slots__ = ("addr", "healthy", "draining", "fails", "snapshot",
                 "digests", "polled_at")

    def __init__(self, addr: Tuple[str, int]) -> None:
        self.addr = addr
        #: Optimistic until proven dead: the fleet must route before
        #: the first poll round completes.
        self.healthy = True
        self.draining = False
        self.fails = 0
        self.snapshot: Optional[dict] = None
        self.digests: Dict[str, str] = {}
        self.polled_at = 0.0

    @property
    def id(self) -> str:
        return "%s:%d" % self.addr

    def describe(self) -> dict:
        return {
            "id": self.id,
            "healthy": self.healthy,
            "draining": self.draining,
            "stats": self.snapshot,
        }


class _Splice(asyncio.Protocol):
    """Upstream half of a proxied session: bytes from the shard go to
    the client, with write-pressure propagated both ways."""

    def __init__(self, router: "SessionRouter") -> None:
        self.router = router
        self.transport = None
        self.peer = None  # the client-side transport

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        if self.peer is not None and not self.peer.is_closing():
            self.peer.write(data)

    def pause_writing(self) -> None:
        if self.peer is not None:
            try:
                self.peer.pause_reading()
            except RuntimeError:
                pass

    def resume_writing(self) -> None:
        if self.peer is not None:
            try:
                self.peer.resume_reading()
            except RuntimeError:
                pass

    def connection_lost(self, exc) -> None:
        if self.peer is not None and not self.peer.is_closing():
            self.peer.close()


class _ClientConn(asyncio.Protocol):
    """One downstream connection: hello parsing, then either a local
    control answer or a splice to the routed shard."""

    def __init__(self, router: "SessionRouter") -> None:
        self.router = router
        self._parser = HelloParser(max_bytes=router.config.max_hello_bytes)
        self.transport = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._upstream: Optional[_Splice] = None
        self._task: Optional[asyncio.Task] = None
        self.state = "hello"

    # -- lifecycle ----------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        router = self.router
        if len(router._conns) >= router.config.max_connections:
            self._reject({"status": "overloaded",
                          "reason": "router connection table is full",
                          "retry_after_s": router._retry_after(True)},
                         counter="rejected_busy")
            return
        router._conns[self] = None
        self._arm(router.config.idle_timeout)

    def connection_lost(self, exc) -> None:
        self._cancel_timer()
        self.router._conns.pop(self, None)
        if self._task is not None:
            self._task.cancel()
        if self._upstream is not None:
            up = self._upstream.transport
            if up is not None and not up.is_closing():
                up.close()

    def data_received(self, data: bytes) -> None:
        if self.state == "splice":
            up = self._upstream.transport if self._upstream else None
            if up is not None and not up.is_closing():
                up.write(data)
            return
        if self.state != "hello":
            return
        self._arm(self.router.config.handshake_timeout)
        try:
            done = self._parser.feed(data)
        except HandshakeReject as exc:
            self.router.bump("handshake_rejects")
            self._reject({"status": "bad-hello", "error": exc.kind,
                          "reason": exc.reason}, counter=None)
            return
        if done is None:
            return
        hello, leftover = done
        self.state = "routing"
        self._cancel_timer()
        self._task = self.router.loop.create_task(
            self._route(hello, leftover)
        )

    # -- write-pressure from the client side --------------------------

    def pause_writing(self) -> None:
        if self._upstream is not None and self._upstream.transport:
            try:
                self._upstream.transport.pause_reading()
            except RuntimeError:
                pass

    def resume_writing(self) -> None:
        if self._upstream is not None and self._upstream.transport:
            try:
                self._upstream.transport.resume_reading()
            except RuntimeError:
                pass

    # -- deadlines ----------------------------------------------------

    def _arm(self, timeout: Optional[float]) -> None:
        self._cancel_timer()
        if timeout is not None and timeout > 0:
            self._timer = self.router.loop.call_later(
                timeout, self._on_deadline
            )

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_deadline(self) -> None:
        self.router.bump("handshake_rejects")
        self._reject({"status": "handshake-timeout",
                      "reason": "hello incomplete at the deadline"},
                     counter=None)

    # -- replies ------------------------------------------------------

    def _reject(self, payload: dict, counter: Optional[str]) -> None:
        if counter is not None:
            self.router.bump(counter)
        self.state = "closed"
        self._cancel_timer()
        t = self.transport
        if t is not None and not t.is_closing():
            try:
                t.write(_frame(WELCOME, payload))
            except OSError:
                pass
            t.close()

    def _answer(self, payload: dict) -> None:
        self.state = "closed"
        t = self.transport
        if t is not None and not t.is_closing():
            try:
                t.write(_frame(WELCOME, payload))
            except OSError:
                pass
            t.close()

    # -- routing ------------------------------------------------------

    async def _route(self, hello: dict, leftover: bytes) -> None:
        router = self.router
        try:
            op = hello.get("op", "session")
            if op == "stats":
                router.bump("stats_probes")
                self._answer({"status": "stats",
                              "stats": router.stats_snapshot()})
                return
            if op == "fleet-stats":
                router.bump("fleet_probes")
                self._answer({"status": "fleet-stats",
                              **(await router.fleet_stats())})
                return
            if op == "drain":
                router.bump("drains")
                self._answer(await router.start_drain(hello))
                return
            if op == "reload-shards":
                self._answer(await router.reload_shards(hello))
                return
            sid = hello.get("session")
            if not isinstance(sid, str) or not sid:
                self._reject({"status": "error",
                              "reason": "hello carries no session id"},
                             counter="rejected_error")
                return
            shard = router.route(sid, hello)
            if shard is None:
                self._reject(
                    {"status": "busy",
                     "reason": "no live shard can take this session",
                     "retry_after_s": router._retry_after(True)},
                    counter="rejected_busy",
                )
                return
            try:
                await self._splice_to(shard, hello, leftover)
            except (OSError, asyncio.TimeoutError):
                router.unpin(sid, shard.addr)
                self._reject(
                    {"status": "busy",
                     "reason": f"shard {shard.id} is unreachable",
                     "retry_after_s": router._retry_after(True)},
                    counter="rejected_busy",
                )
                return
            router._streak = 0
            router.bump("routed_results" if op == "result"
                        else "routed_sessions")
        except asyncio.CancelledError:
            raise
        except Exception:
            self._reject({"status": "error",
                          "reason": "router internal error"},
                         counter="rejected_error")

    async def _splice_to(self, shard: _ShardState, hello: dict,
                         leftover: bytes) -> None:
        router = self.router
        self.transport.pause_reading()
        upstream = _Splice(router)
        await asyncio.wait_for(
            router.loop.create_connection(
                lambda: upstream, shard.addr[0], shard.addr[1]
            ),
            timeout=router.config.connect_timeout,
        )
        upstream.peer = self.transport
        self._upstream = upstream
        # Replay the hello verbatim (the shard re-terminates it) plus
        # any bytes of the next frame the parser already consumed.
        upstream.transport.write(_frame(HELLO, hello) + leftover)
        self.state = "splice"
        try:
            self.transport.resume_reading()
        except RuntimeError:
            pass


class SessionRouter:
    """Asyncio router fronting a fleet of garbling shards."""

    def __init__(self, config: RouterConfig, obs=NULL_OBS) -> None:
        if not config.shards:
            raise ValueError("a router needs at least one shard")
        self.config = config
        self.obs = obs
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.shards: List[_ShardState] = [
            _ShardState((str(h), int(p))) for h, p in config.shards
        ]
        self._by_addr = {s.addr: s for s in self.shards}
        #: sid -> shard addr, bounded FIFO (dict preserves insertion
        #: order; the oldest pin is evicted at capacity).
        self._pins: Dict[str, Tuple[str, int]] = {}
        self._counters = {name: 0 for name in ROUTER_COUNTERS}
        self._counter_lock = threading.Lock()
        self._conns: Dict[_ClientConn, None] = {}
        self._streak = 0
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((config.host, config.port))
        sock.listen(512)
        sock.setblocking(False)
        self._sock = sock
        self.host, self.port = sock.getsockname()[:2]
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop_requested = threading.Event()
        self._stopped = False
        self._poll_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "SessionRouter":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-router", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self.loop = loop
        try:
            self._server = loop.run_until_complete(
                loop.create_server(lambda: _ClientConn(self),
                                   sock=self._sock)
            )
            # One blocking poll round before announcing readiness:
            # routing prefers the program digest, and the digest map
            # comes from shard stats — without this, the first
            # sessions race the first poll and fall back to routing
            # by program name, which may hash to a different shard.
            loop.run_until_complete(self._poll_round())
            self._poll_task = loop.create_task(self._poll_loop())
            self._ready.set()
            loop.run_forever()
            for conn in list(self._conns):
                if conn.transport is not None:
                    conn.transport.close()
            self._server.close()
            # Cancel and await everything still pending (the poll loop,
            # in-flight shard probes, routing tasks) while the loop is
            # alive: a task left pending past loop.close() runs its
            # cleanup from the garbage collector, on a closed loop.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
            loop.run_until_complete(self._server.wait_closed())
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            self._ready.set()
            loop.close()

    def shutdown(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._stop_requested.set()
        loop = self.loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        else:
            self._sock.close()

    def request_shutdown(self) -> None:
        """Signal-handler-safe: ask :meth:`serve_forever` to return."""
        self._stop_requested.set()

    def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown` (or ``shutdown``)."""
        self._stop_requested.wait()
        self.shutdown()

    def __enter__(self) -> "SessionRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- counters -----------------------------------------------------

    def bump(self, name: str, n: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] += n
        if self.obs.enabled:
            self.obs.inc(f"router.{name}", n)

    def _retry_after(self, pressure: bool) -> float:
        if pressure:
            self._streak = min(self._streak + 1, 7)
        return round(min(5.0, 0.1 * (2 ** self._streak)), 3)

    def stats_snapshot(self) -> dict:
        with self._counter_lock:
            snap = dict(self._counters)
        snap.update(
            shards=[s.describe() for s in self.shards],
            pinned_sessions=len(self._pins),
            open_connections=len(self._conns),
            config=self.config.to_dict(),
        )
        return snap

    # -- routing policy -----------------------------------------------

    def _live(self, fresh: bool) -> List[Tuple[str, int]]:
        """Shard addresses eligible for routing; ``fresh`` excludes
        draining shards (they reject new sessions but must still see
        redials of the sessions they hold)."""
        return [
            s.addr for s in self.shards
            if s.healthy and not (fresh and s.draining)
        ]

    def _digest_for(self, program: Optional[str]) -> Optional[str]:
        if not isinstance(program, str):
            return None
        for s in self.shards:
            d = s.digests.get(program)
            if d:
                return d
        return None

    def route(self, sid: str, hello: dict) -> Optional[_ShardState]:
        """Pick the shard for this hello (loop thread only)."""
        pinned = self._pins.get(sid)
        if pinned is not None:
            shard = self._by_addr.get(pinned)
            if shard is not None and shard.healthy:
                return shard
        fresh = hello.get("op", "session") == "session" and pinned is None
        live = self._live(fresh=fresh)
        if not live:
            return None
        key = self._digest_for(hello.get("program")) \
            or hello.get("program") or sid
        if not isinstance(key, str):
            key = sid
        addr = rendezvous_select(key, live)
        if addr is None:
            return None
        self.pin(sid, addr)
        return self._by_addr[addr]

    def pin(self, sid: str, addr: Tuple[str, int]) -> None:
        pins = self._pins
        pins.pop(sid, None)
        pins[sid] = addr
        while len(pins) > self.config.route_table_size:
            pins.pop(next(iter(pins)))

    def unpin(self, sid: str, addr: Tuple[str, int]) -> None:
        if self._pins.get(sid) == addr:
            self._pins.pop(sid, None)

    # -- shard control probes -----------------------------------------

    async def _probe(self, addr: Tuple[str, int], hello: dict,
                     timeout: Optional[float] = None) -> dict:
        """One async hello/welcome exchange against a shard."""
        timeout = timeout or self.config.connect_timeout
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(addr[0], addr[1]), timeout=timeout
        )
        try:
            writer.write(_frame(HELLO, hello))
            await asyncio.wait_for(writer.drain(), timeout=timeout)
            decoder = FrameDecoder()
            deadline = monotonic() + max(timeout, 5.0)
            while True:
                chunk = await asyncio.wait_for(
                    reader.read(65536),
                    timeout=max(deadline - monotonic(), 0.01),
                )
                if not chunk:
                    raise OSError("shard closed during probe")
                for frame in decoder.feed(chunk):
                    if frame.ftype != FRAME_DATA or frame.tag != WELCOME:
                        continue  # heartbeats / stray frames
                    payload = decode(frame.payload)
                    if isinstance(payload, dict):
                        return payload
                    raise OSError("malformed welcome from shard")
        finally:
            writer.close()

    async def _poll_shard(self, shard: _ShardState) -> None:
        try:
            welcome = await self._probe(shard.addr, {"op": "stats"})
            stats = welcome.get("stats")
            if welcome.get("status") != "stats" \
                    or not isinstance(stats, dict):
                raise OSError(f"bad stats reply from {shard.id}")
        except (OSError, asyncio.TimeoutError, ValueError,
                FrameCorruption):
            shard.fails += 1
            self.bump("poll_errors")
            if shard.fails >= self.config.dead_after:
                shard.healthy = False
            return
        shard.fails = 0
        shard.healthy = True
        shard.draining = bool(stats.get("draining"))
        shard.snapshot = stats
        digests = stats.get("program_digests")
        if isinstance(digests, dict):
            shard.digests = {str(k): str(v) for k, v in digests.items()}
        shard.polled_at = monotonic()

    async def _poll_round(self) -> None:
        await asyncio.gather(*(self._poll_shard(s) for s in self.shards))

    async def _poll_loop(self) -> None:
        while True:
            await self._poll_round()
            await asyncio.sleep(self.config.poll_interval)

    async def fleet_stats(self) -> dict:
        """Live fleet aggregate: probe every shard now (a dead shard
        contributes its health flag and no stats)."""
        await asyncio.gather(*(self._poll_shard(s) for s in self.shards))
        members = [s.describe() for s in self.shards]
        snapshots = [s.snapshot for s in self.shards
                     if s.healthy and s.snapshot is not None]
        return {
            "router": self.stats_snapshot(),
            "shards": members,
            "aggregate": aggregate_shard_stats(snapshots),
        }

    async def start_drain(self, hello: dict) -> dict:
        """``op: "drain"``: drain the named shard, giving it the rest
        of the live fleet as adoption peers."""
        target = hello.get("shard")
        try:
            addr = (str(target[0]), int(target[1]))
        except (TypeError, ValueError, IndexError):
            self.bump("rejected_error")
            return {"status": "error",
                    "reason": "drain needs a shard: [host, port]"}
        shard = self._by_addr.get(addr)
        if shard is None:
            self.bump("rejected_error")
            return {"status": "error",
                    "reason": f"unknown shard {target!r}",
                    "shards": [list(s.addr) for s in self.shards]}
        peers = [list(s.addr) for s in self.shards
                 if s.addr != addr and s.healthy and not s.draining]
        # Mark draining immediately: fresh sessions must stop landing
        # on this shard even before the next poll confirms.
        shard.draining = True
        try:
            welcome = await self._probe(
                addr, {"op": "drain", "peers": peers}
            )
        except (OSError, asyncio.TimeoutError, FrameCorruption):
            return {"status": "error",
                    "reason": f"shard {shard.id} did not answer the "
                              "drain"}
        return welcome

    async def reload_shards(self, hello: dict) -> dict:
        """``op: "reload-shards"``: swap shard membership live.

        The hello's ``shards`` list is the complete new membership.
        Disruption is minimal by construction: surviving shards keep
        their :class:`_ShardState` (health, digest map, snapshot) and
        their pins, so sessions routed to them stay put; HRW hashing
        guarantees a key only ever *moves to a joiner*, never between
        survivors.  Pins to departed shards are dropped — those
        sessions re-route on their next dial (the departed shard is
        expected to be drained first; see ``op: "drain"``).  Joiners
        are polled before the reply so the digest map covers them
        immediately.
        """
        raw = hello.get("shards")
        try:
            addrs = [(str(h), int(p)) for h, p in raw]
        except (TypeError, ValueError):
            self.bump("rejected_error")
            return {"status": "error",
                    "reason": "reload-shards needs shards: "
                              "[[host, port], ...]"}
        seen: set = set()
        addrs = [a for a in addrs
                 if not (a in seen or seen.add(a))]
        if not addrs:
            self.bump("rejected_error")
            return {"status": "error",
                    "reason": "reload-shards needs at least one shard"}
        current = {s.addr for s in self.shards}
        added = [a for a in addrs if a not in current]
        removed = sorted(current - set(addrs))
        states = [self._by_addr.get(a) or _ShardState(a) for a in addrs]
        self.shards = states
        self._by_addr = {s.addr: s for s in states}
        gone = set(removed)
        dropped = [sid for sid, addr in self._pins.items()
                   if addr in gone]
        for sid in dropped:
            self._pins.pop(sid, None)
        # Keep the config echo (stats_snapshot) truthful about the
        # membership now in force.
        self.config = self.config.replace(shards=tuple(addrs))
        joiners = [s for s in states if s.polled_at == 0.0]
        if joiners:
            await asyncio.gather(
                *(self._poll_shard(s) for s in joiners)
            )
        self.bump("shard_reloads")
        return {
            "status": "ok",
            "shards": [list(a) for a in addrs],
            "added": len(added),
            "removed": len(removed),
            "dropped_pins": len(dropped),
        }

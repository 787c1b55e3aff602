"""`repro.serve`: a long-lived multi-session garbling server.

One :class:`GarbleServer` owns the garbler role for many concurrent
evaluator sessions.  The paper's premise — a fixed public circuit
garbled afresh per private input — makes this the natural scaling
unit: the netlists and their compiled
:class:`~repro.core.plan.CyclePlan` are built once per worker process
(or once per server for in-process workers) and shared read-only by
every session, so N concurrent sessions never pay N compiles.

Architecture::

    AsyncEdge (1 loop thread) ── hello parsed off-loop, per-state
         │                       deadlines, structured rejects
         │          new session ──> bounded accept queue ── dispatcher
         │                            │  (Full -> structured     │
         │                            │   "busy" reject)    idle worker?
         │                            │                          │
         │          reconnect ──── fd passed (SCM_RIGHTS) ──> workers
         │          stats probe ──> snapshot reply, close    (1 session
         └── result probe / redial of finished session        at a time)
                  └──> replay buffer (bounded, TTL'd)

* **Worker pool** — one session runtime, two executors.  Every
  session runs in :func:`repro.serve.worker.worker_main`, which the
  parent drives over a per-worker control channel
  (:mod:`repro.serve.ipc`); every (re)connected socket crosses to the
  owning worker as a file descriptor via ``socket.send_fds``, so
  checkpoint/resume routing, handoff, stats records and replay parking
  are the same code whichever executor runs the worker.
  ``pool="process"`` runs each worker in a forkserver process that
  rebuilds and pre-warms its own plans and material, so garbling runs
  on ``min(workers, cores)`` cores.  ``pool="thread"`` runs each
  worker in a daemon thread of the server (no child process at all)
  sharing the parent's plan cache and material caches; ``"auto"``
  picks it when the programs are not picklable (e.g. callable bit
  sources).
* **Admission control** — the accept queue is a bounded
  ``queue.Queue``; when it is full a new hello is answered with an
  immediate structured ``{"status": "busy", ...}`` welcome and the
  connection is closed.  Reconnects for live sessions bypass
  admission (they hold a worker already).  The ``accepted`` counter
  is bumped only once the welcome has actually reached the client; a
  client that vanishes mid-handshake has its queue entry cancelled so
  no worker burns a resume window on a linkless session.
* **Session lifecycle** — each admitted session runs the existing
  :class:`~repro.net.session.ResumableSession` state machine around a
  :class:`~repro.core.protocol.GarblerParty`; its ``connect`` callable
  pops from the worker's per-session link mailbox, which (re)connects
  feed.  A
  dropped evaluator redials the same server, names its session id in
  the hello, and resumes against the checkpoints the worker holds.
  Session state transitions and the ``completed``/``failed`` counters
  move together under the parent's lock, so a finished-counter
  observation implies the finished state is visible.
* **Stats** — counters live in one shared block
  (:mod:`multiprocessing.sharedctypes` array) written by both the
  parent (admission, rejects, probes) and the workers (the ``active``
  gauge and material counters); per-session
  records are shipped back over the control channel into the parent's
  ring and the obs layer (``serve.*`` counters, ``serve-session``
  trace events), and served over the wire to any ``op: "stats"``
  hello.
* **Drain** — :meth:`GarbleServer.shutdown` (wired to SIGTERM/SIGINT
  by the CLI) drains the edge (stops accepting; every connection that
  had not been admitted yet — including one still mid-hello — gets a
  structured ``draining`` reject instead of a hang), waits out the
  accept queue's task accounting (every admitted session gets exactly
  one ``task_done``, whether it completed, failed, was cancelled, or
  was discarded by a hard stop), then stops the workers.
* **Result replay** — every finished session's decoded output is
  parked in a bounded TTL'd :class:`~repro.serve.replay.ReplayBuffer`
  keyed by session id + evaluator identity; a client that died after
  the final frame redials (or sends ``op: "result"``) and recovers
  its result bit-identically instead of an ``already finished``
  dead end.
* **Per-session garbler inputs** — a program built with
  ``alice_by_key`` lets each hello pick its garbler operand by key
  (``garbler_key``), turning one :class:`ServeProgram` into a keyed
  lookup service instead of a single fixed operand.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket as socket_mod
import threading
from multiprocessing import sharedctypes
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..circuit.netlist import Netlist
from ..gc.channel import ChannelClosed, ChannelTimeout, FrameCorruption
from ..gc.ot import BaseOTCache
from ..net.links import Link, LinkClosed, LinkTimeout, PrefacedLink
from ..net.session import SessionResult, net_digest
from ..net.tcp import TcpLink, connect_with_backoff
from ..obs import NULL_OBS
from .config import ServeConfig
from .edge import AsyncEdge
from .fleet import aggregate_shard_stats, rendezvous_select
from .handshake import (
    HELLO,
    MAX_HELLO_BYTES,
    WELCOME,
    recv_control,
    send_control,
)
from .ipc import IpcClosed, MsgChannel
from .replay import DENIED, HIT, ReplayBuffer
from .worker import (
    STAT_FIELDS,
    build_material_caches,
    worker_main,
    worker_process,
)

BitSource = Union[Sequence[int], Callable[[int], Sequence[int]]]

_SENTINEL = object()

#: set_forkserver_preload must happen before the forkserver boots;
#: guard so repeated server construction doesn't re-set it.
_FORKSERVER_PRELOADED = False


def _forkserver_context():
    import multiprocessing as mp

    global _FORKSERVER_PRELOADED
    ctx = mp.get_context("forkserver")
    if not _FORKSERVER_PRELOADED:
        try:
            ctx.set_forkserver_preload(["repro.serve.worker"])
        except Exception:
            # Forkserver already running (or transiently unable to take
            # the preload): workers import lazily.  Do NOT latch the
            # flag — a later fresh forkserver context should retry the
            # preload instead of silently never getting it.
            pass
        else:
            _FORKSERVER_PRELOADED = True
    return ctx


def _main_module_spawnable() -> bool:
    """Whether worker processes can boot in this interpreter.

    Spawn/forkserver re-prepare ``__main__`` in the child from its
    module name or file path; a ``__main__`` that is neither (a stdin
    script, some embedded interpreters) makes every worker die during
    bootstrap, so ``pool="auto"`` must fall back to threads.
    """
    import sys

    main = sys.modules.get("__main__")
    if main is None:
        return True
    if getattr(getattr(main, "__spec__", None), "name", None):
        return True
    path = getattr(main, "__file__", None)
    if path is None:
        return True  # interactive: nothing to re-run, spawn skips it
    return os.path.exists(path)


@dataclass(frozen=True)
class ServeProgram:
    """One program the server is willing to garble.

    The server plays Alice, so the program bundles the circuit with
    the garbler-side inputs; the evaluator brings only its own private
    bits.  ``net`` is shared by every session over this program —
    engines never mutate the netlist, and the compiled plan cache is
    thread-safe — which is exactly what makes N sessions pay one
    compile per process.
    """

    net: Netlist
    cycles: int
    alice: BitSource = ()
    alice_init: Sequence[int] = ()
    public: BitSource = ()
    public_init: Sequence[int] = ()
    #: Optional per-session garbler inputs: a hello carrying
    #: ``garbler_key`` selects its operand from this table instead of
    #: the fixed ``alice`` source (a keyed lookup service rather than
    #: one operand for everybody).  Keyed sessions garble fresh — the
    #: recorded material transcripts bind the default operand.
    alice_by_key: Optional[Dict[str, BitSource]] = None


def registry_program(name: str, value: int = 0) -> ServeProgram:
    """Build a :class:`ServeProgram` from the bench-circuit registry
    (the same registry ``python -m repro party`` serves), with
    ``value`` as the garbler operand."""
    from ..net.cli import _registry

    entry = _registry()[name]
    net, cycles = entry.build()
    return ServeProgram(
        net=net, cycles=cycles, alice=entry.alice_source(value, cycles)
    )


def registry_keyed_program(
    name: str,
    values: Dict[str, int],
    value: int = 0,
) -> ServeProgram:
    """A registry program whose garbler operand is selected per
    session: a hello with ``garbler_key: k`` computes against
    ``values[k]``; a hello without a key uses ``value``."""
    from ..net.cli import _registry

    entry = _registry()[name]
    net, cycles = entry.build()
    return ServeProgram(
        net=net,
        cycles=cycles,
        alice=entry.alice_source(value, cycles),
        alice_by_key={
            k: entry.alice_source(v, cycles) for k, v in values.items()
        },
    )


class ServeStats:
    """Serve counters plus a ring of per-session records.

    The counters live in one synchronized
    :mod:`multiprocessing.sharedctypes` array that the parent and the
    workers both write (workers through ``worker._bump``).  The process
    pool allocates it from its forkserver context, so it is shared
    memory with a cross-process lock; the thread pool backs it with a
    ``threading.RLock`` and starts no helper process.  Field layout is
    :data:`~repro.serve.worker.STAT_FIELDS`; each field also reads as a
    plain attribute (``stats.completed``).
    """

    def __init__(self, block, keep_sessions: int = 64) -> None:
        self._block = block
        self._block_lock = block.get_lock()
        self._ring_lock = threading.Lock()
        self._recent: "deque" = deque(maxlen=keep_sessions)

    def bump(self, name: str, n: int = 1) -> None:
        i = STAT_FIELDS.index(name)
        with self._block_lock:
            self._block[i] += n

    def done_snapshot(self) -> int:
        """``completed + failed`` as one atomic read (the
        ``max_sessions`` trigger must not see a torn pair)."""
        with self._block_lock:
            return (self._block[STAT_FIELDS.index("completed")]
                    + self._block[STAT_FIELDS.index("failed")])

    def record_session(self, record: dict) -> None:
        with self._ring_lock:
            self._recent.append(dict(record))

    def snapshot(self) -> dict:
        """Codec-safe snapshot (ints / strings / lists / dicts only)."""
        with self._block_lock:
            snap = {name: self._block[i]
                    for i, name in enumerate(STAT_FIELDS)}
        with self._ring_lock:
            snap["sessions"] = [dict(r) for r in self._recent]
        return snap


def _stat_property(index: int) -> property:
    def get(self: ServeStats) -> int:
        with self._block_lock:
            return self._block[index]

    return property(get)


for _i, _name in enumerate(STAT_FIELDS):
    setattr(ServeStats, _name, _stat_property(_i))
del _i, _name


@dataclass
class _ServeSession:
    """Server-side record of one evaluator session."""

    id: str
    program: str
    prog: ServeProgram
    #: queued -> active -> done | failed; ``cancelled`` is the
    #: admission-unwind terminal (welcome never reached the client).
    state: str = "queued"
    result: Optional[SessionResult] = None
    error: Optional[BaseException] = None
    wall_seconds: float = 0.0
    #: Index of the worker running this session (None until
    #: dispatched; links arriving earlier wait in ``_pending``).
    owner: Optional[int] = None
    #: Client identity from the hello (material epoch audit trail and
    #: base-OT cache key); None for anonymous sessions.
    client: Optional[str] = None
    #: Sender-side base-OT material negotiated at welcome time (the
    #: decision is snapshotted here so welcome and dispatch agree).
    ot_base: Optional[tuple] = None
    #: Key into the program's ``alice_by_key`` table (per-session
    #: garbler inputs); None runs the program's fixed operand.
    garbler_key: Optional[str] = None
    #: Fleet handoff: the adoption bundle an ``op: "adopt"`` hello
    #: delivered (this shard continues a session a draining peer
    #: started); rides the worker's ``run`` message.
    bundle: Optional[dict] = None
    #: Where a handed-off session went — redials of this session are
    #: answered with a ``moved`` welcome naming this (host, port).
    peer: Optional[tuple] = None
    _pending: List[tuple] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _sealed: bool = False

    def seal(self) -> None:
        """Refuse further links and close the ones still waiting for
        dispatch, so a cancelled session never holds a socket."""
        with self._lock:
            self._sealed = True
            pending, self._pending = self._pending, []
        for link, _preface in pending:
            link.close()


class GarbleServer:
    """Multi-session garbling service (the garbler side, long-lived).

    Construct with the programs to serve, :meth:`start` the accept
    loop and worker pool, then either :meth:`serve_forever` (blocks
    until :meth:`request_shutdown`, e.g. from a signal handler) or
    drive clients directly in tests and call :meth:`shutdown`.

    ``pool`` selects the executor the workers run on: ``"process"``
    (one OS process per worker — true multi-core garbling),
    ``"thread"`` (one daemon thread per worker, in this process), or
    ``"auto"`` (default: processes when the programs can cross a
    process boundary, threads otherwise).  The session runtime is the
    same either way.
    """

    def __init__(
        self,
        programs: Dict[str, ServeProgram],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        queue_depth: int = 8,
        checkpoint_every: int = 4,
        timeout: Optional[float] = 30.0,
        resume_window: Optional[float] = None,
        max_attempts: int = 6,
        handshake_timeout: float = 5.0,
        idle_timeout: Optional[float] = 60.0,
        replay_ttl: float = 120.0,
        replay_capacity: int = 256,
        max_connections: int = 10_000,
        max_hello_bytes: int = MAX_HELLO_BYTES,
        ot: str = "simplest",
        ot_group: str = "modp512",
        engine: str = "compiled",
        heartbeat: Optional[float] = None,
        max_sessions: Optional[int] = None,
        pool: str = "auto",
        precompute: bool = True,
        material_depth: int = 2,
        fleet: bool = False,
        config: Optional[ServeConfig] = None,
        obs=NULL_OBS,
    ) -> None:
        if config is None:
            # Loose kwargs remain supported; they fold into the one
            # frozen config object that describes this server (and is
            # echoed verbatim in every ``op: "stats"`` reply).
            config = ServeConfig(
                host=host,
                port=port,
                workers=workers,
                queue_depth=queue_depth,
                checkpoint_every=checkpoint_every,
                timeout=timeout,
                resume_window=resume_window,
                max_attempts=max_attempts,
                handshake_timeout=handshake_timeout,
                idle_timeout=idle_timeout,
                replay_ttl=replay_ttl,
                replay_capacity=replay_capacity,
                max_connections=max_connections,
                max_hello_bytes=max_hello_bytes,
                ot=ot,
                ot_group=ot_group,
                engine=engine,
                heartbeat=heartbeat,
                max_sessions=max_sessions,
                pool=pool,
                precompute=precompute,
                material_depth=material_depth,
                fleet=fleet,
            )
        self.config = config
        if config.workers < 1:
            raise ValueError("workers must be >= 1")
        if config.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.programs = dict(programs)
        if not self.programs:
            raise ValueError("a server needs at least one program")
        self.workers = config.workers
        self.checkpoint_every = config.checkpoint_every
        self.timeout = config.timeout
        #: How long a worker waits for a dropped evaluator to redial
        #: before burning one of its reconnect attempts.
        self.resume_window = (
            config.timeout if config.resume_window is None
            else config.resume_window
        )
        self.max_attempts = config.max_attempts
        self.handshake_timeout = config.handshake_timeout
        self.idle_timeout = config.idle_timeout
        self.replay_ttl = config.replay_ttl
        self.max_connections = config.max_connections
        self._replay = ReplayBuffer(
            ttl=config.replay_ttl, capacity=config.replay_capacity
        )
        self.ot = config.ot
        self.ot_group = config.ot_group
        self.engine = config.engine
        self.heartbeat = config.heartbeat
        self.max_sessions = config.max_sessions
        #: Offline/online split: pre-garble ``material_depth`` delta
        #: epochs per program before serving, so admitted sessions
        #: replay cached material and the online path is evaluate+OT.
        self.precompute = config.precompute
        self.material_depth = config.material_depth
        #: Fleet mode: honor ``op: "drain"`` / ``op: "adopt"`` hellos.
        self.fleet = config.fleet
        #: Affinity keys: the router routes a program to shards by this
        #: digest, and a draining shard picks each session's adoption
        #: peer by the same rendezvous hash over the same key.
        self.program_digests = {
            name: net_digest(prog.net, prog.cycles)
            for name, prog in self.programs.items()
        }
        self._handoff_peers: List[tuple] = []
        #: Sender-side base-OT material per client identity (survives
        #: worker churn — the parent owns it, workers get it in the
        #: ``run`` message and return fresh exports with ``done``).
        self._client_bases = BaseOTCache()
        self.obs = obs
        self.pool = self._resolve_pool(config.pool)
        if self.pool == "process":
            self._ctx = _forkserver_context()
            self._stats_block = self._ctx.Array("l", len(STAT_FIELDS))
        else:
            # A threading lock, not a multiprocessing one: a semaphore
            # lock would start a resource-tracker process.  Reentrant,
            # like the default: the wrapper's item access locks again.
            self._stats_block = sharedctypes.Array(
                "l", len(STAT_FIELDS), lock=threading.RLock()
            )
        self.stats = ServeStats(self._stats_block)
        #: The thread pool's one offline phase, shared by every worker
        #: thread; process workers pre-garble their own (None here).
        self._materials: Optional[dict] = None
        if self.pool == "thread":
            self._materials = build_material_caches(
                self.programs, self._worker_config()
            )
            for cache in self._materials.values():
                self.stats.bump("material_epochs", cache.prewarm())
        #: Worker handles (processes or threads) and their channels.
        self._procs: List[Optional[object]] = [None] * self.workers
        self._chans: List[Optional[MsgChannel]] = [None] * self.workers
        #: Workers that completed their pre-warm at least once; a
        #: worker dying *before* ready means spawning is broken in
        #: this environment, and respawning would loop forever.
        self._worker_ready: List[bool] = [False] * self.workers
        #: Tokens of workers ready for a session (fed by "ready" and
        #: session-finished messages).
        self._idle: "queue.Queue" = queue.Queue()
        self._edge = AsyncEdge(
            self._edge_handshake,
            host=config.host,
            port=config.port,
            handshake_timeout=self.handshake_timeout,
            idle_timeout=config.idle_timeout,
            max_connections=config.max_connections,
            max_hello_bytes=config.max_hello_bytes,
            heartbeat=config.heartbeat,
            counter=self._edge_counter,
        )
        self.host, self.port = self._edge.host, self._edge.port
        self._queue: "queue.Queue" = queue.Queue(maxsize=config.queue_depth)
        self.queue_depth = config.queue_depth
        self._sessions: Dict[str, _ServeSession] = {}
        self._lock = threading.Lock()
        self._busy_streak = 0
        self._draining = False
        self._stopped = False
        self._shutdown_requested = threading.Event()
        self._threads: List[threading.Thread] = []
        self._started = False

    def _resolve_pool(self, pool: str) -> str:
        if pool == "thread":
            return "thread"
        if pool not in ("auto", "process"):
            raise ValueError(
                f"unknown pool {pool!r} (use 'auto', 'process' or 'thread')"
            )
        try:
            pickle.dumps(self.programs)
        except Exception as exc:
            if pool == "process":
                raise ValueError(
                    "pool='process' needs picklable programs (callable "
                    f"bit sources cannot cross the process boundary): {exc}"
                ) from exc
            return "thread"
        if not _main_module_spawnable():
            if pool == "process":
                raise ValueError(
                    "pool='process' cannot boot workers: __main__ is not "
                    "importable (run from a file or module, or use "
                    "pool='thread')"
                )
            return "thread"
        try:
            _forkserver_context()
        except Exception:
            if pool == "process":
                raise
            return "thread"
        return "process"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "GarbleServer":
        if self._started:
            return self
        self._started = True
        self._edge.start()
        for i in range(self.workers):
            self._spawn_worker(i)
        dispatch = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True,
        )
        dispatch.start()
        self._threads.append(dispatch)
        return self

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to drain and exit (signal-safe)."""
        self._shutdown_requested.set()

    def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown`, then drain and stop."""
        self._shutdown_requested.wait()
        self.shutdown(drain=True)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the server.

        ``drain=True`` (graceful, the SIGTERM path): stop accepting,
        let queued and active sessions run to completion, then stop
        the workers.  ``drain=False``: additionally discard queued
        sessions that no worker has picked up yet (their evaluators
        see EOF and fail on their side); active sessions still finish.
        """
        with self._lock:
            if self._stopped:
                return
            self._draining = True
        # Drain the edge first: stops accepting and answers every
        # connection still pre-admission (even mid-hello) with a
        # structured "draining" reject — no stalled-client hang.
        self._edge.begin_drain()
        if not drain:
            while True:
                try:
                    sess = self._queue.get_nowait()
                except queue.Empty:
                    break
                if sess is _SENTINEL:
                    self._queue.task_done()
                    continue
                with self._lock:
                    sess.state = "failed"
                    sess.error = ChannelClosed("server shut down")
                sess.seal()
                self._queue.task_done()
        # Wait for queued + active sessions to finish.  Task accounting
        # (one task_done per admitted session, wherever it ends) has no
        # gap between "popped from the queue" and "running", unlike
        # qsize()+active checks.
        q = self._queue
        with q.all_tasks_done:
            if timeout is None:
                while q.unfinished_tasks:
                    q.all_tasks_done.wait()
            else:
                endtime = perf_counter() + timeout
                while q.unfinished_tasks:
                    remaining = endtime - perf_counter()
                    if remaining <= 0:
                        break
                    q.all_tasks_done.wait(remaining)
        if self._started:
            # Unblock the dispatcher whichever queue it waits on.
            self._idle.put(_SENTINEL)
            self._queue.put(_SENTINEL)
        for chan in self._chans:
            if chan is not None:
                try:
                    chan.send({"type": "stop"})
                except IpcClosed:
                    pass
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=10.0)
        for chan in self._chans:
            if chan is not None:
                chan.close()
        for proc in self._procs:
            # A thread cannot be killed; a stuck process can.
            if proc is not None and proc.is_alive() \
                    and self.pool == "process":
                proc.terminate()
                proc.join(timeout=2.0)
        for t in self._threads:
            t.join(timeout=10.0)
        self._edge.stop()
        with self._lock:
            self._stopped = True
        self._shutdown_requested.set()
        if self.obs.enabled:
            self.obs.event("serve-shutdown", **self.counters())

    def __enter__(self) -> "GarbleServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=True)

    # -- introspection -------------------------------------------------------

    def counters(self) -> dict:
        snap = self.stats.snapshot()
        del snap["sessions"]
        return snap

    def stats_snapshot(self) -> dict:
        snap = self.stats.snapshot()
        snap.update(
            queued=self._queue.qsize(),
            queue_depth=self.queue_depth,
            workers=self.workers,
            pool=self.pool,
            draining=self._draining,
            programs=sorted(self.programs),
            handshake_timeout=self.handshake_timeout,
            idle_timeout=self.idle_timeout,
            replay_ttl=self.replay_ttl,
            replay_buffered=len(self._replay),
            max_connections=self.max_connections,
            fleet=self.fleet,
            config=self.config.to_dict(),
            program_digests=dict(self.program_digests),
        )
        return snap

    def fleet_stats_snapshot(self) -> dict:
        """Single-shard answer to ``op: "fleet-stats"``: the same shape
        the router aggregates, with this shard as the only member."""
        snap = self.stats_snapshot()
        return {
            "router": None,
            "shards": [{
                "id": f"{self.host}:{self.port}",
                "healthy": True,
                "draining": bool(snap.get("draining")),
                "stats": snap,
            }],
            "aggregate": aggregate_shard_stats([snap]),
        }

    def session_result(self, session_id: str) -> Optional[SessionResult]:
        with self._lock:
            sess = self._sessions.get(session_id)
        return None if sess is None else sess.result

    # -- accept path ---------------------------------------------------------

    def _edge_counter(self, name: str, n: int = 1) -> None:
        """Counter hook handed to the edge (runs on the loop thread)."""
        self.stats.bump(name, n)
        if self.obs.enabled:
            self.obs.inc(f"serve.{name}", n)

    def _edge_handshake(self, link: TcpLink, hello: dict,
                        leftover: bytes) -> None:
        """Edge handler: a fully parsed hello arriving off the loop.

        The welcome-ack deadline is a socket-level send timeout — a
        client that stops reading before its welcome turns into
        ``LinkClosed`` on the send, which the admission path already
        unwinds, instead of a stuck handshake thread."""
        link.settimeout(self.handshake_timeout)
        try:
            self._complete_handshake(link, hello, leftover)
        except (ChannelClosed, ChannelTimeout, FrameCorruption,
                LinkClosed, LinkTimeout, OSError):
            link.close()

    def _reject(self, link: Link, welcome: dict, counter: str) -> None:
        self.stats.bump(counter)
        if self.obs.enabled:
            self.obs.inc(f"serve.{counter}")
        send_control(link, WELCOME, welcome)
        link.close()

    def _retry_after(self, grew: bool) -> float:
        """Backoff guidance for busy/draining rejects: doubles with
        each consecutive reject, resets when admission succeeds."""
        with self._lock:
            if grew:
                self._busy_streak = min(self._busy_streak + 1, 8)
            streak = self._busy_streak
        return round(min(10.0, 0.1 * (2 ** max(streak - 1, 0))), 3)

    def _handle_connection(self, link: Link) -> None:
        """Blocking-read handshake for links that arrive outside the
        edge (tests drive this directly); the edge path parses the
        hello on the loop and enters at :meth:`_complete_handshake`."""
        tag, hello, leftover = recv_control(
            link, timeout=self.handshake_timeout
        )
        if tag != HELLO or not isinstance(hello, dict):
            raise FrameCorruption(f"expected {HELLO!r}, got {tag!r}")
        self._complete_handshake(link, hello, leftover)

    def _complete_handshake(self, link: Link, hello: dict,
                            leftover: bytes) -> None:
        op = hello.get("op", "session")
        if op == "stats":
            self.stats.bump("stats_probes")
            send_control(
                link, WELCOME,
                {"status": "stats", "stats": self.stats_snapshot()},
            )
            link.close()
            return
        if op == "fleet-stats":
            self.stats.bump("stats_probes")
            send_control(
                link, WELCOME,
                {"status": "fleet-stats", **self.fleet_stats_snapshot()},
            )
            link.close()
            return
        if op in ("drain", "adopt") and not self.fleet:
            self._reject(
                link,
                {"status": "error",
                 "reason": f"op {op!r} needs fleet mode (start the "
                           "server with fleet=True / --fleet)"},
                "rejected_error",
            )
            return
        if op == "drain":
            peers = hello.get("peers") or []
            try:
                handoffs = self.drain_handoff(
                    [(str(h), int(p)) for h, p in peers]
                )
            except (TypeError, ValueError):
                self._reject(
                    link,
                    {"status": "error",
                     "reason": "drain peers must be [host, port] pairs"},
                    "rejected_error",
                )
                return
            send_control(
                link, WELCOME,
                {"status": "ok", "draining": True, "handoffs": handoffs},
            )
            link.close()
            return
        if op == "adopt":
            self._handle_adopt(link, hello, leftover)
            return
        sid = hello.get("session")
        name = hello.get("program")
        if not isinstance(sid, str) or not sid:
            self._reject(
                link,
                {"status": "error", "reason": "hello carries no session id"},
                "rejected_error",
            )
            return
        if op == "result":
            self._answer_result_probe(link, hello, sid)
            return

        # Snapshot session + drain state under the lock: a worker
        # transitions sessions to done/failed under this same lock, so
        # the routing decision below never reads a torn state (the
        # old unlocked read could welcome a redial into a session that
        # sealed a microsecond later).
        with self._lock:
            sess = self._sessions.get(sid)
            draining = self._draining
            if sess is not None:
                sess_program, sess_state = sess.program, sess.state
                sess_peer = sess.peer
        if sess is None:
            # -- admission control for a brand-new session ----------------
            if draining:
                self._reject(
                    link,
                    {"status": "draining", "reason": "server is draining",
                     "retry_after_s": self._retry_after(grew=True)},
                    "rejected_busy",
                )
                return
            prog = self.programs.get(name)
            if prog is None:
                self._reject(
                    link,
                    {"status": "error",
                     "reason": f"unknown program {name!r}",
                     "programs": sorted(self.programs)},
                    "rejected_error",
                )
                return
            sess = _ServeSession(id=sid, program=name, prog=prog)
            client = hello.get("client")
            if isinstance(client, str) and client:
                sess.client = client
            gkey = hello.get("garbler_key")
            if gkey is not None:
                table = prog.alice_by_key
                if not isinstance(gkey, str) or table is None \
                        or gkey not in table:
                    known = sorted(table) if table else []
                    self._reject(
                        link,
                        {"status": "error",
                         "reason": f"unknown garbler key {gkey!r} for "
                                   f"program {name!r}",
                         "garbler_keys": known},
                        "rejected_error",
                    )
                    return
                sess.garbler_key = gkey
            # Base-OT reuse negotiation: a returning client that
            # advertises cached receiver material ("base_ot" in the
            # hello) gets "cached" back iff the server still holds the
            # matching sender side; otherwise "fresh" tells it to run
            # the base phase again.  Decided here, snapshotted on the
            # session, so the welcome and the worker dispatch agree
            # even if the cache churns in between.
            base_mode = None
            if self.ot == "extension":
                if sess.client is not None and hello.get("base_ot"):
                    sess.ot_base = self._client_bases.get(sess.client)
                base_mode = "cached" if sess.ot_base is not None else "fresh"
            with self._lock:
                try:
                    self._queue.put_nowait(sess)
                except queue.Full:
                    admitted = False
                else:
                    admitted = True
                    self._sessions[sid] = sess
            if not admitted:
                self._reject(
                    link,
                    {"status": "busy",
                     "reason": "accept queue is full",
                     "active": self.stats.active,
                     "queued": self._queue.qsize(),
                     "queue_depth": self.queue_depth,
                     "retry_after_s": self._retry_after(grew=True)},
                    "rejected_busy",
                )
                return
            with self._lock:
                self._busy_streak = 0
            welcome = {
                "status": "ok",
                "session": sid,
                "program": name,
                "cycles": prog.cycles,
                "checkpoint_every": self.checkpoint_every,
                "resumed": False,
            }
            if sess.garbler_key is not None:
                welcome["garbler_key"] = sess.garbler_key
            if base_mode is not None:
                welcome["base_ot"] = base_mode
            # Welcome before counting the admission: if the client
            # vanished between hello and welcome, unwind the queue
            # entry (the seal fails any worker that raced onto it
            # immediately) instead of leaving a linkless session to
            # burn a worker for a full resume window.
            try:
                send_control(link, WELCOME, welcome)
            except (ChannelClosed, LinkClosed, OSError):
                with self._lock:
                    sess.state = "cancelled"
                    self._sessions.pop(sid, None)
                sess.seal()
                link.close()
                return
            self.stats.bump("accepted")
            if self.obs.enabled:
                self.obs.inc("serve.accepted")
        else:
            # -- reconnect routing (on the locked snapshot) ----------------
            if sess_program != name:
                self._reject(
                    link,
                    {"status": "error",
                     "reason": f"session {sid!r} is bound to program "
                               f"{sess_program!r}"},
                    "rejected_error",
                )
                return
            if sess_state == "handed-off" and sess_peer is not None:
                # Drain-time handoff: the session now lives on a peer
                # shard.  Tell the evaluator where so it can redial
                # there and resume — this is what makes handoff work
                # even without a router in front.
                send_control(
                    link, WELCOME,
                    {"status": "moved", "session": sid,
                     "program": sess_program,
                     "peer": [sess_peer[0], sess_peer[1]]},
                )
                link.close()
                return
            if sess_state in ("done", "failed", "cancelled"):
                # A redial of a finished session is the replay path:
                # the client most likely died after the final frame
                # and wants its result back, not a re-run.
                status, entry = self._replay.fetch(sid, hello.get("client"))
                if status == HIT:
                    self.stats.bump("replay_hits")
                    if self.obs.enabled:
                        self.obs.inc("serve.replay_hits")
                    welcome = {"status": "result", "session": sid,
                               "program": sess_program}
                    welcome.update(entry.payload)
                    send_control(link, WELCOME, welcome)
                    link.close()
                    return
                self.stats.bump("replay_misses")
                if self.obs.enabled:
                    self.obs.inc("serve.replay_misses")
                if status == DENIED:
                    self._reject(
                        link,
                        {"status": "error",
                         "reason": f"session {sid!r} already finished; "
                                   "result replay denied: evaluator "
                                   "identity does not match"},
                        "rejected_error",
                    )
                    return
                self._reject(
                    link,
                    {"status": "unknown-session",
                     "reason": f"session {sid!r} already finished "
                               f"({sess_state}); no replayable result"},
                    "rejected_error",
                )
                return
            welcome = {
                "status": "ok",
                "session": sid,
                "program": name,
                "cycles": sess.prog.cycles,
                "checkpoint_every": self.checkpoint_every,
                "resumed": True,
            }
            if self.obs.enabled:
                self.obs.inc("serve.reconnects")
            # Welcome first, then feed the link: the worker writes to
            # the socket the moment it sees the link, and the welcome
            # must be the first thing the client reads.
            send_control(link, WELCOME, welcome)
        if not self._deliver_link(sess, link, leftover):
            link.close()  # finished between the snapshot and the push

    def _answer_result_probe(self, link: Link, hello: dict,
                             sid: str) -> None:
        """``op: "result"``: fetch a parked result without (re)joining
        the session.  Answers ``result`` (the parked payload),
        ``pending`` (session still running — retry), or a structured
        ``unknown-session`` reject."""
        status, entry = self._replay.fetch(sid, hello.get("client"))
        if status == HIT:
            self.stats.bump("replay_hits")
            if self.obs.enabled:
                self.obs.inc("serve.replay_hits")
            welcome = {"status": "result", "session": sid}
            welcome.update(entry.payload)
            send_control(link, WELCOME, welcome)
            link.close()
            return
        self.stats.bump("replay_misses")
        if self.obs.enabled:
            self.obs.inc("serve.replay_misses")
        if status == DENIED:
            self._reject(
                link,
                {"status": "error",
                 "reason": f"result replay for session {sid!r} denied: "
                           "evaluator identity does not match"},
                "rejected_error",
            )
            return
        with self._lock:
            sess = self._sessions.get(sid)
            state = None if sess is None else sess.state
            peer = None if sess is None else sess.peer
        if state == "handed-off" and peer is not None:
            send_control(
                link, WELCOME,
                {"status": "moved", "session": sid,
                 "peer": [peer[0], peer[1]]},
            )
            link.close()
            return
        if state in ("queued", "active"):
            send_control(
                link, WELCOME,
                {"status": "pending", "session": sid, "state": state,
                 "retry_after_s": self._retry_after(grew=False)},
            )
            link.close()
            return
        self._reject(
            link,
            {"status": "unknown-session",
             "reason": f"no replayable result for session {sid!r}"
                       + (f" (finished: {state})" if state else "")},
            "rejected_error",
        )

    def _park_replay(self, sess: _ServeSession,
                     payload: Optional[dict]) -> None:
        """Park a finished session's decoded result for redial
        recovery.  ``payload`` is None when the session died before
        the garbler ever decoded outputs — nothing to replay."""
        if payload is None or not self._replay.enabled:
            return
        self._replay.park(sess.id, sess.client, payload)

    def _deliver_link(self, sess: _ServeSession, link: Link,
                      leftover: bytes) -> bool:
        """Hand a (re)connected link to the worker that owns the
        session, by fd passing.  False if the session sealed."""
        with sess._lock:
            if sess._sealed:
                return False
            if sess.owner is None:
                # Not dispatched yet: the dispatcher flushes these to
                # the worker right after the "run" message.
                sess._pending.append((link, leftover))
                return True
            owner = sess.owner
        self._send_link(owner, sess.id, link, leftover)
        return True

    def _send_link(self, owner: int, sid: str, link: Link,
                   leftover: bytes) -> None:
        """fd-pass one connected socket to a worker.  ``send_fds``
        duplicates the descriptor into the message, so the parent
        detaches (not closes — ``close()`` would shut the connection
        down for the worker too) and drops its copy."""
        if isinstance(link, TcpLink):
            fd = link.detach()
        else:  # pragma: no cover - accept loop only produces TcpLinks
            link.close()
            return
        chan = self._chans[owner]
        try:
            if chan is not None:
                chan.send(
                    {"type": "link", "session": sid, "preface": leftover},
                    fds=[fd],
                )
        except IpcClosed:
            pass  # worker died; _on_worker_exit fails the session
        finally:
            os.close(fd)

    # -- fleet: drain-time session handoff -----------------------------------

    def drain_handoff(self, peers: Sequence[tuple]) -> int:
        """Begin a soft drain, handing active sessions to peer shards.

        Marks the server draining at the *admission* level only — new
        sessions are rejected with the structured ``draining`` welcome,
        but the edge keeps accepting connections so reconnects, result
        probes and ``moved`` redirects still flow (a hard edge drain
        would strand the evaluators we are about to redirect).  Every
        active session is signalled to stop at its next checkpoint
        boundary; each interrupted session's bundle is shipped to the
        peer that the rendezvous hash owns for its program digest —
        the same hash the router uses, so routing and handoff agree.
        Returns the number of sessions signalled (sessions that finish
        before their next boundary simply complete here).
        """
        cleaned = []
        for h, p in peers:
            addr = (str(h), int(p))
            if addr != (self.host, self.port):
                cleaned.append(addr)
        with self._lock:
            self._draining = True
            self._handoff_peers = cleaned
            active = [s for s in self._sessions.values()
                      if s.state == "active"]
        if self.obs.enabled:
            self.obs.inc("serve.drains")
        if not cleaned:
            return 0
        signalled = 0
        for sess in active:
            owner = sess.owner
            chan = self._chans[owner] if owner is not None else None
            if chan is None:
                continue
            try:
                chan.send({"type": "handoff", "session": sess.id})
            except IpcClosed:
                continue
            signalled += 1
        return signalled

    def _handle_adopt(self, link: Link, hello: dict,
                      leftover: bytes) -> None:
        """``op: "adopt"``: a draining peer hands over a mid-session
        checkpoint bundle.

        Three-phase exchange: the small hello is answered with an
        ``adopt-send`` welcome (the hello parser's byte cap is far
        below a material bundle, so the bundle cannot ride the hello),
        the peer then ships the pickled bundle as one ordinary control
        frame (the frame layer's cap applies), and the final welcome
        confirms the session is registered *before* the peer releases
        the evaluator — whose instant redial must never beat the
        bundle here.
        """
        sid = hello.get("session")
        name = hello.get("program")
        if not isinstance(sid, str) or not sid:
            self._reject(
                link,
                {"status": "error",
                 "reason": "adopt hello carries no session id"},
                "rejected_error",
            )
            return
        prog = self.programs.get(name)
        if prog is None:
            self._reject(
                link,
                {"status": "error",
                 "reason": f"unknown program {name!r}",
                 "programs": sorted(self.programs)},
                "rejected_error",
            )
            return
        if hello.get("digest") != self.program_digests[name]:
            self._reject(
                link,
                {"status": "error",
                 "reason": f"program {name!r} digest mismatch (fleet "
                           "shards must serve identical netlists)"},
                "rejected_error",
            )
            return
        with self._lock:
            known = sid in self._sessions
            draining = self._draining
        if draining:
            self._reject(
                link,
                {"status": "draining", "reason": "server is draining",
                 "retry_after_s": self._retry_after(grew=True)},
                "rejected_busy",
            )
            return
        if known:
            self._reject(
                link,
                {"status": "error",
                 "reason": f"session {sid!r} already exists here"},
                "rejected_error",
            )
            return
        send_control(link, WELCOME, {"status": "adopt-send",
                                     "session": sid})
        chan = PrefacedLink(link, leftover) if leftover else link
        tag, blob, _rest = recv_control(
            chan, timeout=max(self.handshake_timeout, 10.0)
        )
        if tag != "serve-bundle" or not isinstance(blob, (bytes, bytearray)):
            self._reject(
                link,
                {"status": "error",
                 "reason": f"expected a serve-bundle frame, got {tag!r}"},
                "rejected_error",
            )
            return
        try:
            bundle = pickle.loads(bytes(blob))
        except Exception:
            self._reject(
                link,
                {"status": "error",
                 "reason": "adoption bundle did not unpickle"},
                "rejected_error",
            )
            return
        if (not isinstance(bundle, dict)
                or bundle.get("session") != sid
                or bundle.get("program") != name):
            self._reject(
                link,
                {"status": "error",
                 "reason": "adoption bundle does not match its hello"},
                "rejected_error",
            )
            return
        sess = _ServeSession(id=sid, program=name, prog=prog)
        client = bundle.get("client")
        if isinstance(client, str) and client:
            sess.client = client
        gkey = bundle.get("garbler_key")
        if isinstance(gkey, str):
            sess.garbler_key = gkey
        base = bundle.get("ot_base")
        if base is not None:
            sess.ot_base = tuple(base)
        sess.bundle = bundle
        with self._lock:
            try:
                self._queue.put_nowait(sess)
            except queue.Full:
                admitted = False
            else:
                admitted = True
                self._sessions[sid] = sess
        if not admitted:
            self._reject(
                link,
                {"status": "busy",
                 "reason": "accept queue is full",
                 "retry_after_s": self._retry_after(grew=True)},
                "rejected_busy",
            )
            return
        with self._lock:
            self._busy_streak = 0
        try:
            send_control(link, WELCOME, {"status": "ok", "adopted": True,
                                         "session": sid})
        except (ChannelClosed, LinkClosed, OSError):
            # The peer vanished before the confirm; it will book the
            # handoff as failed and never release the evaluator toward
            # us, so unwind the admission (mirrors the welcome unwind
            # on the ordinary accept path).
            with self._lock:
                sess.state = "cancelled"
                self._sessions.pop(sid, None)
            sess.seal()
            link.close()
            return
        self.stats.bump("adopted")
        if self.obs.enabled:
            self.obs.inc("serve.adopted")
        link.close()

    def _adopt_on_peer(self, host: str, port: int, bundle: dict) -> bool:
        """Dialer side of the adoption exchange (see
        :meth:`_handle_adopt` for the three phases).  True iff the peer
        confirmed it registered the session."""
        try:
            blob = pickle.dumps(bundle)
        except Exception:
            return False
        link = None
        try:
            link = connect_with_backoff(host, port, attempts=3)
            send_control(link, HELLO, {
                "op": "adopt",
                "session": bundle["session"],
                "program": bundle["program"],
                "digest": bundle["digest"],
                "client": bundle.get("client"),
                "size": len(blob),
            })
            tag, welcome, leftover = recv_control(
                link, timeout=self.handshake_timeout
            )
            if (tag != WELCOME or not isinstance(welcome, dict)
                    or welcome.get("status") != "adopt-send"):
                return False
            chan = PrefacedLink(link, leftover) if leftover else link
            send_control(chan, "serve-bundle", blob)
            tag, welcome, _rest = recv_control(
                chan, timeout=max(self.handshake_timeout, 10.0)
            )
            return (tag == WELCOME and isinstance(welcome, dict)
                    and welcome.get("status") == "ok"
                    and bool(welcome.get("adopted")))
        except (ChannelClosed, ChannelTimeout, FrameCorruption,
                LinkClosed, LinkTimeout, OSError):
            return False
        finally:
            if link is not None:
                link.close()

    def _finish_handoff(self, index: int, msg: dict) -> None:
        """Apply a worker's handed-off outcome.

        Picks the adoption peer by the same rendezvous hash the router
        routes with, ships the bundle, flips the session state, *then*
        releases the worker — which holds the evaluator's link open
        until release, so the evaluator's redial can only observe the
        session after the peer has it (or after it is failed).
        """
        sid = msg["session"]
        bundle = msg.get("bundle")
        record = dict(msg.get("record") or {})
        with self._lock:
            sess = self._sessions.get(sid)
            peers = list(self._handoff_peers)
        ok, peer = False, None
        if bundle is not None and peers:
            peer = rendezvous_select(bundle["digest"], peers)
            if peer is not None:
                ok = self._adopt_on_peer(peer[0], peer[1], bundle)
        with self._lock:
            if sess is not None:
                if ok:
                    sess.state = "handed-off"
                    sess.peer = peer
                else:
                    sess.state = "failed"
                    sess.error = ChannelClosed(
                        "drain handoff failed: no peer adopted the "
                        "session"
                    )
                sess.wall_seconds = msg.get("wall", 0.0)
        self.stats.bump("handed_off" if ok else "failed")
        if not ok:
            record["state"] = "failed"
        chan = self._chans[index]
        try:
            if chan is not None:
                chan.send({"type": "handoff-release", "session": sid,
                           "ok": ok})
        except IpcClosed:
            pass
        if sess is not None:
            sess.seal()
        self.stats.record_session(record)
        if self.obs.enabled:
            self.obs.inc("serve.handed_off" if ok else "serve.failed")
            self.obs.event("serve-session", **record)
        self._queue.task_done()

    # -- worker pool ---------------------------------------------------------

    def _worker_config(self) -> dict:
        return {
            "checkpoint_every": self.checkpoint_every,
            "timeout": self.timeout,
            "resume_window": self.resume_window,
            "max_attempts": self.max_attempts,
            "ot": self.ot,
            "ot_group": self.ot_group,
            "engine": self.engine,
            "heartbeat": self.heartbeat,
            "precompute": self.precompute,
            "material_depth": self.material_depth,
        }

    def _spawn_worker(self, index: int) -> None:
        parent_sock, child_sock = socket_mod.socketpair(
            socket_mod.AF_UNIX, socket_mod.SOCK_STREAM
        )
        chan = MsgChannel(parent_sock)
        args = (index, child_sock, self._stats_block, self.programs,
                self._worker_config())
        name = f"serve-worker-{index}"
        if self.pool == "process":
            proc = self._ctx.Process(
                target=worker_process, args=args, name=name, daemon=True,
            )
            proc.start()
            child_sock.close()  # the worker holds the only live copy now
        else:
            # Same runtime in-process: the worker thread owns (and
            # closes) child_sock, shares the parent's obs and material.
            proc = threading.Thread(
                target=worker_main, args=args,
                kwargs={"obs": self.obs, "materials": self._materials},
                name=name, daemon=True,
            )
            proc.start()
        self._procs[index] = proc
        self._chans[index] = chan
        reader = threading.Thread(
            target=self._reader_loop, args=(index, chan),
            name=f"serve-reader-{index}", daemon=True,
        )
        reader.start()
        self._threads.append(reader)

    def _reader_loop(self, index: int, chan: MsgChannel) -> None:
        """Parent-side drain of one worker's control channel."""
        while True:
            try:
                msg, fds = chan.recv()
            except IpcClosed:
                self._on_worker_exit(index)
                return
            for fd in fds:  # pragma: no cover - workers never send fds
                os.close(fd)
            mtype = msg.get("type")
            if mtype == "ready":
                self._worker_ready[index] = True
                self._idle.put(index)
            elif mtype in ("done", "failed"):
                self._finish_session(msg)
                self._idle.put(index)
            elif mtype == "handed-off":
                self._finish_handoff(index, msg)
                self._idle.put(index)

    def _finish_session(self, msg: dict) -> None:
        """Apply a worker's session outcome: state transition and the
        terminal counter move together under the parent lock."""
        sid = msg["session"]
        ok = msg["type"] == "done"
        record = msg.get("record") or {}
        with self._lock:
            sess = self._sessions.get(sid)
            if sess is not None:
                # Park before the state flips: a redial that observes
                # the finished state must find the entry already there.
                self._park_replay(sess, msg.get("replay"))
                sess.state = "done" if ok else "failed"
                sess.result = msg.get("result")
                sess.wall_seconds = msg.get("wall", 0.0)
                if msg.get("error"):
                    sess.error = RuntimeError(msg["error"])
        self.stats.bump("completed" if ok else "failed")
        if sess is not None:
            sess.seal()
            # A worker that ran a fresh base-OT phase exports the
            # sender side so this client's next session can reuse it.
            export = msg.get("ot_base_export")
            if ok and export is not None and sess.client is not None:
                self._client_bases.put(sess.client, tuple(export))
        self.stats.record_session(record)
        if self.obs.enabled:
            if ok:
                self.obs.inc("serve.completed")
                gates = record.get("garbled_nonxor", 0)
                if gates > 0:
                    self.obs.inc("serve.gates", gates)
            else:
                self.obs.inc("serve.failed")
            self.obs.event("serve-session", **record)
        self._queue.task_done()
        if self.max_sessions is not None:
            if self.stats.done_snapshot() >= self.max_sessions:
                self.request_shutdown()

    def _on_worker_exit(self, index: int) -> None:
        """A worker's channel hit EOF.  During drain that is the
        normal exit; otherwise the worker died and its in-flight
        session (if any) must be failed and the worker replaced."""
        with self._lock:
            if self._draining or self._stopped:
                return
            owned = [
                s for s in self._sessions.values()
                if s.owner == index and s.state == "active"
            ]
            for sess in owned:
                sess.state = "failed"
                sess.error = ChannelClosed("worker died")
        for sess in owned:
            sess.seal()
            self.stats.bump("failed")
            self.stats.bump("active", -1)  # the dead worker cannot
            record = {
                "session": sess.id,
                "program": sess.program,
                "state": "failed",
                "wall_ms": -1,
                "garbled_nonxor": -1,
                "tables_sent": -1,
                "reconnects": -1,
                "epoch": -1,
            }
            self.stats.record_session(record)
            if self.obs.enabled:
                self.obs.inc("serve.failed")
                self.obs.event("serve-session", **record)
            self._queue.task_done()
        if not self._worker_ready[index]:
            return  # bootstrap is broken here; don't respawn-loop
        self._worker_ready[index] = False
        try:
            self._spawn_worker(index)
        except Exception:  # pragma: no cover - spawn failure at exit
            pass

    def _dispatch_loop(self) -> None:
        """Marry idle workers to admitted sessions, preserving the
        accept queue's admission semantics: a session leaves the queue
        only when a worker is ready to run it."""
        self.obs.set_thread_label("serve-dispatch")
        while True:
            tok = self._idle.get()
            if tok is _SENTINEL:
                return
            sess = None
            while sess is None:
                cand = self._queue.get()
                if cand is _SENTINEL:
                    self._queue.task_done()
                    return
                with self._lock:
                    if cand.state == "cancelled":
                        cancelled = True
                    else:
                        cancelled = False
                        cand.state = "active"
                if cancelled:
                    self._queue.task_done()
                    continue  # same worker token, next session
                sess = cand
            with sess._lock:
                sess.owner = tok
                pending, sess._pending = sess._pending, []
            chan = self._chans[tok]
            try:
                if chan is None:
                    raise IpcClosed("worker is gone")
                chan.send({"type": "run", "session": sess.id,
                           "program": sess.program,
                           "client": sess.client,
                           "ot_base": sess.ot_base,
                           "garbler_key": sess.garbler_key,
                           "bundle": sess.bundle})
            except IpcClosed:
                # Worker died between going idle and the handoff; fail
                # the session (the evaluator redials into an error).
                with self._lock:
                    sess.state = "failed"
                    sess.error = ChannelClosed("worker died")
                for link, _preface in pending:
                    link.close()
                sess.seal()
                self.stats.bump("failed")
                self._queue.task_done()
                continue
            for link, leftover in pending:
                self._send_link(tok, sess.id, link, leftover)


def make_server(
    circuits: Union[str, Sequence[str]],
    value: int = 0,
    **kwargs,
) -> GarbleServer:
    """Convenience: a server over registry circuits, all sharing one
    garbler operand.  Keyword arguments go to :class:`GarbleServer`."""
    names = [circuits] if isinstance(circuits, str) else list(circuits)
    programs = {name: registry_program(name, value) for name in names}
    return GarbleServer(programs, **kwargs)

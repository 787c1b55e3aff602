"""Serve worker: the one session runtime behind both executors.

``worker_main`` runs every session a
:class:`~repro.serve.server.GarbleServer` admits.  The pool only picks
the executor it runs on: ``pool="process"`` starts it in a forkserver
process (entry :func:`worker_process`; this module is importable and
preloadable), ``pool="thread"`` starts it in a daemon thread of the
server.  Either way it talks to the parent over one
:class:`~repro.serve.ipc.MsgChannel` socketpair, and every (re)connected
socket reaches it as a passed file descriptor.

At start the worker warms one compiled
:class:`~repro.core.plan.CyclePlan` — including the generated sweep —
per served program.  A process worker builds it in its *own*
interpreter and pre-garbles its own material pools; thread workers
share the parent's plan cache (one compile for all of them) and the
parent's material caches, so prewarm cost does not multiply by
``workers``.

Control flow:

* a **reader thread** drains the parent's control channel: ``run``
  registers a session and enqueues it for the main loop, ``link``
  adopts a passed-in socket fd (a fresh connect or a resume redial)
  and feeds it to the owning session's :class:`_WorkerSession`
  mailbox, ``handoff`` / ``handoff-release`` drive a drain-time
  handoff, ``stop`` ends the worker after the current session;
* the **main loop** runs one
  :class:`~repro.net.session.ResumableSession` at a time around a
  :class:`~repro.core.protocol.GarblerParty` (:func:`_run_one`) and
  ships the outcome (record plus the pickled
  :class:`~repro.net.session.SessionResult`) back to the parent, which
  owns all session bookkeeping.

Only the ``active`` gauge and the material counters live in the
shared counter block — the numbers admission control and stats need
*while* a session runs.  Terminal counters (``completed``/``failed``)
are bumped by the parent when it processes the outcome message,
keeping counter and session state transitions atomic under the
parent's lock (a client that has observed ``completed == n`` must see
those n sessions as finished).

A process worker ignores ``SIGINT``: a Ctrl-C against the CLI hits the
whole process group, and shutdown must flow through the parent's drain
so in-flight sessions finish.
"""

from __future__ import annotations

import queue
import signal
import socket
import threading
from time import perf_counter
from typing import Optional

from ..circuit.bits import bits_to_int
from ..core.plan import warm_plan
from ..core.protocol import GarblerParty, _expand_bits
from ..gc.material import MaterialCache, MaterialGarblerParty
from ..gc.ot_extension import OTExtensionSender, session_salt
from ..net.links import Link, LinkClosed, LinkTimeout, PrefacedLink
from ..net.session import ResumableSession, SessionHandoff, net_digest
from ..net.tcp import TcpLink
from ..obs import NULL_OBS
from .ipc import IpcClosed, MsgChannel

__all__ = ["STAT_FIELDS", "worker_main", "worker_process"]

#: Layout of the shared-memory counter block (one ``long`` per field).
#: Defined here — not in ``server`` — so the worker never imports the
#: server module (the parent imports the worker, not vice versa).
STAT_FIELDS = (
    "accepted",
    "rejected_busy",
    "rejected_error",
    "completed",
    "failed",
    "active",
    "stats_probes",
    "material_epochs",   # delta epochs garbled offline (prewarm + refill)
    "material_hits",     # sessions served from pre-garbled material
    "material_misses",   # sessions that garbled material synchronously
    "rejected_overload",  # connections refused at max_connections
    "handshake_rejects",  # malformed/truncated/oversized/timed-out hellos
    "handshake_timeouts",  # hellos that missed the handshake deadline
    "idle_timeouts",     # connections that never sent a byte in time
    "idle_shed",         # idle connections shed to admit newcomers
    "replay_hits",       # finished-session redials served from replay
    "replay_misses",     # redials whose result expired or never parked
    "handed_off",        # in-flight sessions transferred to a peer shard
    "adopted",           # sessions adopted from a draining peer shard
)

_IDX_ACTIVE = STAT_FIELDS.index("active")
_IDX_EPOCHS = STAT_FIELDS.index("material_epochs")
_IDX_HITS = STAT_FIELDS.index("material_hits")
_IDX_MISSES = STAT_FIELDS.index("material_misses")

_STOP = object()
_SEALED = object()


class _WorkerSession:
    """Link mailbox of one running session: (re)connects are pushed in
    by the reader thread and popped by the session's ``connect``; once
    sealed it refuses links and fails every pop at once."""

    __slots__ = ("id", "_links", "_lock", "_sealed", "handoff", "released")

    def __init__(self, sid: str) -> None:
        self.id = sid
        self._links: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._sealed = False
        #: Drain-time handoff request (set by a "handoff" control
        #: message); the session raises SessionHandoff at its next
        #: checkpoint boundary.
        self.handoff = threading.Event()
        #: Parent's acknowledgment that the adopting peer holds the
        #: bundle; only then may the evaluator's link be closed.
        self.released = threading.Event()

    def push_link(self, link: Link) -> bool:
        with self._lock:
            if self._sealed:
                return False
            self._links.put(link)
            return True

    def pop_link(self, timeout: Optional[float]) -> Link:
        try:
            item = self._links.get(timeout=timeout)
        except queue.Empty:
            raise LinkTimeout(
                f"session {self.id!r}: evaluator did not (re)connect "
                f"within {timeout}s"
            ) from None
        if item is _SEALED:
            self._links.put(item)  # later pops fail fast too
            raise LinkClosed(f"session {self.id!r} is sealed")
        return item

    def seal(self) -> None:
        with self._lock:
            self._sealed = True
            while True:
                try:
                    item = self._links.get_nowait()
                except queue.Empty:
                    break
                if item is not _SEALED:
                    item.close()
            # Wake (and permanently fail) any pop_link in flight so a
            # cancelled session never burns a full resume window.
            self._links.put(_SEALED)


def _bump_active(stats_block, n: int) -> None:
    with stats_block.get_lock():
        stats_block[_IDX_ACTIVE] += n


def _bump(stats_block, idx: int, n: int = 1) -> None:
    if n:
        with stats_block.get_lock():
            stats_block[idx] += n


def build_material_caches(programs: dict, config: dict) -> dict:
    """Offline phase: one :class:`MaterialCache` per served program,
    pre-garbled ``material_depth`` epochs deep.  A process worker builds
    its own; the thread pool builds one set in the parent that every
    worker thread shares (the class is thread-safe).  Returns ``{}``
    when precompute is off.
    """
    if not config.get("precompute"):
        return {}
    materials = {}
    for name, prog in programs.items():
        materials[name] = MaterialCache(
            prog.net,
            prog.cycles,
            alice=prog.alice,
            alice_init=prog.alice_init,
            public=prog.public,
            public_init=prog.public_init,
            ot_group=config["ot_group"],
            ot=config["ot"],
            engine=config["engine"],
            depth=config.get("material_depth", 2),
        )
    return materials


def _sender_ot_factory(config: dict, sid: str, ot_base):
    """Garbler-side OT factory for one serve session: session-unique
    PRG salt always, cached base material when the handshake agreed."""
    if config["ot"] != "extension":
        return None
    salt = session_salt(sid)

    def factory(chan):
        return OTExtensionSender(
            chan, group=config["ot_group"], base=ot_base, salt=salt
        )

    return factory


def _reader_loop(chan: MsgChannel, runq: "queue.Queue", sessions: dict,
                 lock: threading.Lock) -> None:
    """Drain the control channel; orderable because run/link/stop for
    one worker ride one SOCK_STREAM channel."""
    while True:
        try:
            msg, fds = chan.recv()
        except IpcClosed:
            runq.put(_STOP)
            return
        mtype = msg.get("type")
        if mtype == "run":
            sid = msg["session"]
            sess = _WorkerSession(sid)
            with lock:
                sessions[sid] = sess
            runq.put((sid, msg))
        elif mtype == "link":
            if not fds:
                continue
            link: Link = TcpLink.from_fd(fds[0])
            preface = msg.get("preface", b"")
            if preface:
                link = PrefacedLink(link, preface)
            with lock:
                sess = sessions.get(msg["session"])
            if sess is None or not sess.push_link(link):
                # Finished (or never assigned here) between the
                # parent's routing decision and delivery: the redial
                # sees EOF and the evaluator re-resolves via a fresh
                # hello.
                link.close()
        elif mtype == "handoff":
            with lock:
                sess = sessions.get(msg["session"])
            if sess is not None:
                sess.handoff.set()
        elif mtype == "handoff-release":
            with lock:
                sess = sessions.get(msg["session"])
            if sess is not None:
                sess.released.set()
        elif mtype == "stop":
            runq.put(_STOP)
            return


def make_garbler_party(name: str, prog, config: dict, run_msg: dict,
                       materials: dict, obs=NULL_OBS):
    """Build the garbler party for one admitted session.

    With pre-garbled material available this is a
    :class:`MaterialGarblerParty` consuming one cached delta epoch
    (keyed to the client identity from the handshake — the cache
    enforces that an epoch is never handed to two identities);
    otherwise a fresh :class:`GarblerParty`.  Either way the OT factory
    applies the session salt and any cached base-OT material the
    parent negotiated into the ``run`` message.  Returns
    ``(party, material_hit)`` where ``material_hit`` is ``None`` for
    fresh garbling, else whether the pool had an epoch ready.
    """
    sid = run_msg["session"]
    client = run_msg.get("client")
    ot_factory = _sender_ot_factory(config, sid, run_msg.get("ot_base"))
    gkey = run_msg.get("garbler_key")
    if gkey is not None:
        # Per-session garbler inputs: the hello picked its operand out
        # of the program's keyed table.  Keyed sessions garble fresh —
        # recorded material transcripts bind the default operand, so
        # replaying one here would leak (and compute) the wrong input.
        party = GarblerParty(
            prog.net,
            prog.cycles,
            _expand_bits(prog.net, "alice", prog.alice_by_key[gkey],
                         prog.alice_init, prog.cycles),
            public=prog.public,
            public_init=prog.public_init,
            ot_group=config["ot_group"],
            ot=config["ot"],
            obs=obs,
            engine=config["engine"],
            ot_factory=ot_factory,
        )
        return party, None
    cache = materials.get(name)
    if cache is not None:
        material, hit = cache.acquire(client)
        party = MaterialGarblerParty(
            material,
            ot_group=config["ot_group"],
            ot=config["ot"],
            ot_factory=ot_factory,
            obs=obs,
        )
        return party, hit
    party = GarblerParty(
        prog.net,
        prog.cycles,
        _expand_bits(prog.net, "alice", prog.alice, prog.alice_init,
                     prog.cycles),
        public=prog.public,
        public_init=prog.public_init,
        ot_group=config["ot_group"],
        ot=config["ot"],
        obs=obs,
        engine=config["engine"],
        ot_factory=ot_factory,
    )
    return party, None


def make_adopted_party(prog, config: dict, run_msg: dict, obs=NULL_OBS):
    """Rebuild the garbler party for a session adopted from a draining
    peer shard.

    The handoff bundle carries the peer's :class:`GarbledMaterial`
    (its epoch must match the checkpoints — the epoch guard in
    ``MaterialGarblerParty.restore`` enforces it) plus the original
    OT negotiation, so the rebuilt party is wire-compatible with the
    evaluator mid-session: same material transcript, same session
    salt, same base-OT view.  ``resume=True`` suppresses the
    init-label replay the evaluator already received.
    """
    bundle = run_msg["bundle"]
    ot_factory = _sender_ot_factory(
        config, run_msg["session"], bundle.get("ot_base")
    )
    return MaterialGarblerParty(
        bundle["material"],
        ot_group=config["ot_group"],
        ot=config["ot"],
        ot_factory=ot_factory,
        obs=obs,
        resume=True,
    )


def handoff_bundle(party, run_msg: dict, checkpoints: dict,
                   cycle: int) -> Optional[dict]:
    """Everything the adopting shard needs to finish this session
    bit-identically, or ``None`` when the session cannot hand off
    (only material-backed sessions can: a fresh party's labels are
    bound to in-process state the peer cannot reconstruct)."""
    material = getattr(party, "material", None)
    if material is None:
        return None
    return {
        "session": run_msg["session"],
        "program": run_msg["program"],
        "client": run_msg.get("client"),
        "garbler_key": run_msg.get("garbler_key"),
        "ot_base": run_msg.get("ot_base"),
        "digest": net_digest(party.net, party.cycles),
        "cycle": cycle,
        "checkpoints": dict(checkpoints),
        "material": material,
    }


def replay_payload(result, party) -> Optional[dict]:
    """Build the replay-buffer payload for a finished session.

    Prefers the full :class:`~repro.net.session.SessionResult`; a
    session that *failed* after the garbler decoded outputs (the
    evaluator died between the result frame and its goodbye — exactly
    the window replay exists for) falls back to the party's
    ``last_outputs`` stash.  ``None`` when no outputs were ever
    decoded: there is nothing truthful to replay.
    """
    if result is not None:
        return {
            "outputs": [int(b) for b in result.outputs],
            "value": result.value,
            "garbled_nonxor": result.stats.garbled_nonxor,
            "tables_sent": (
                result.tables_sent if result.tables_sent is not None else -1
            ),
        }
    outputs = getattr(party, "last_outputs", None)
    if outputs is None:
        return None
    stats = getattr(getattr(party, "engine", None), "stats", None)
    backend = getattr(party, "backend", None)
    return {
        "outputs": [int(b) for b in outputs],
        "value": bits_to_int(outputs),
        "garbled_nonxor": getattr(stats, "garbled_nonxor", -1),
        "tables_sent": getattr(backend, "tables_sent", -1),
    }


def exportable_ot_base(party, config: dict, run_msg: dict):
    """Sender-side base-OT material worth caching: only when this
    session ran a *fresh* base phase (nothing cached was supplied)."""
    if config["ot"] != "extension" or run_msg.get("ot_base") is not None:
        return None
    ot = getattr(party.backend, "_ot", None)
    export = getattr(ot, "export_base", None)
    return export() if export is not None else None


def _ship_handoff(chan: MsgChannel, sess: _WorkerSession, session,
                  party, run_msg: dict, handoff: SessionHandoff,
                  wall: float, stats_block) -> None:
    """Ship the handoff bundle to the parent and hold the evaluator's
    link open until the parent confirms the peer adopted it.

    The order is the whole point: if the link closed first, the
    evaluator's instant redial could reach the peer *before* the
    bundle does and be admitted as a brand-new session — correct
    output, but a fork the later adoption would collide with.  The
    evaluator stays blocked on the open link until ``released``.
    """
    bundle = handoff_bundle(party, run_msg, handoff.checkpoints,
                            handoff.cycle)
    record = {
        "session": sess.id,
        "program": run_msg["program"],
        "state": "handed-off",
        "wall_ms": int(wall * 1000),
        "garbled_nonxor": -1,
        "tables_sent": -1,
        "reconnects": session.reconnects,
        "epoch": (
            party.material_epoch
            if getattr(party, "material_epoch", None) is not None else -1
        ),
        "cycle": handoff.cycle,
    }
    try:
        chan.send({"type": "handed-off", "session": sess.id,
                   "record": record, "wall": wall, "bundle": bundle})
        sess.released.wait(timeout=60.0)
    except IpcClosed:
        pass  # parent gone; close out locally
    session.close()
    sess.seal()
    _bump_active(stats_block, -1)


def _run_one(chan: MsgChannel, sess: _WorkerSession, run_msg: dict,
             programs: dict, config: dict, stats_block,
             materials: dict, obs=NULL_OBS) -> None:
    """One session end-to-end.  ``Exception`` fails the session;
    ``KeyboardInterrupt``/``SystemExit`` fail it *and* propagate so
    interpreter shutdown is never swallowed."""
    _bump_active(stats_block, 1)
    t0 = perf_counter()
    name = run_msg["program"]
    result = None
    error: Optional[BaseException] = None
    reraise: Optional[BaseException] = None
    handoff: Optional[SessionHandoff] = None
    adopt = run_msg.get("bundle")
    if adopt is not None:
        party, material_hit = make_adopted_party(
            programs[name], config, run_msg, obs=obs
        ), None
    else:
        party, material_hit = make_garbler_party(
            name, programs[name], config, run_msg, materials, obs=obs
        )
    if material_hit is not None:
        _bump(stats_block, _IDX_HITS if material_hit else _IDX_MISSES)
        if not material_hit:
            _bump(stats_block, _IDX_EPOCHS)
    # Only material-backed sessions can hand off (a fresh party's
    # labels are bound to in-process state); leave the interrupt
    # unarmed otherwise and the session finishes here during drain.
    can_handoff = getattr(party, "material", None) is not None
    session = ResumableSession(
        party,
        connect=lambda: sess.pop_link(config["resume_window"]),
        checkpoint_every=config["checkpoint_every"],
        timeout=config["timeout"],
        max_attempts=config["max_attempts"],
        heartbeat_interval=config["heartbeat"],
        interrupt=sess.handoff.is_set if can_handoff else None,
        checkpoints=adopt["checkpoints"] if adopt is not None else None,
        obs=obs,
    )
    try:
        result = session.run()
    except SessionHandoff as exc:
        handoff = exc
    except Exception as exc:
        error = exc
    except BaseException as exc:
        error = exc
        reraise = exc
    finally:
        wall = perf_counter() - t0
        if handoff is not None:
            _ship_handoff(chan, sess, session, party, run_msg, handoff,
                          wall, stats_block)
            return
        sess.seal()
        _bump_active(stats_block, -1)
        state = "done" if error is None else "failed"
        record = {
            "session": sess.id,
            "program": name,
            "state": state,
            "wall_ms": int(wall * 1000),
            "garbled_nonxor": (
                result.stats.garbled_nonxor if result is not None else -1
            ),
            "tables_sent": (
                result.tables_sent
                if result is not None and result.tables_sent is not None
                else -1
            ),
            "reconnects": result.reconnects if result is not None else -1,
            "epoch": (
                result.material_epoch
                if result is not None and result.material_epoch is not None
                else -1
            ),
        }
        msg = {"type": state, "session": sess.id, "record": record,
               "wall": wall}
        if result is not None:
            msg["result"] = result
        replay = replay_payload(result, party)
        if replay is not None:
            msg["replay"] = replay
        if error is None:
            base = exportable_ot_base(party, config, run_msg)
            if base is not None:
                msg["ot_base_export"] = base
        if error is not None:
            msg["error"] = f"{type(error).__name__}: {error}"
        try:
            chan.send(msg)
        except IpcClosed:
            pass  # parent gone; nothing left to report to
    # Top the material pool back up *after* the outcome shipped: the
    # refill is the offline phase running between sessions, never on a
    # reporting path the client is waiting on.
    cache = materials.get(name)
    if cache is not None:
        _bump(stats_block, _IDX_EPOCHS, cache.refill())
    if reraise is not None:
        raise reraise


def worker_main(index: int, sock: socket.socket, stats_block,
                programs: dict, config: dict, obs=NULL_OBS,
                materials: Optional[dict] = None) -> None:
    """Run one worker over its end of the control socketpair until the
    parent says ``stop`` or goes away.

    ``materials`` is the thread pool's shared set of material caches
    (already pre-warmed by the parent); ``None`` makes the worker build
    and pre-warm its own, as a process worker must.  ``obs`` is the
    server's observability sink for in-process workers (a process
    worker cannot share one and runs with observability off)."""
    obs.set_thread_label(f"serve-worker-{index}")
    chan = MsgChannel(sock)
    # Pre-warm: one compiled plan (and generated sweep) per served
    # program, before the first session can be dispatched here.
    if config["engine"] == "compiled":
        for prog in programs.values():
            warm_plan(prog.net)
    if materials is None:
        # Offline phase: pre-garble material_depth delta epochs per
        # program before signalling ready, so the first admitted
        # session is already pure replay.
        materials = build_material_caches(programs, config)
        for cache in materials.values():
            _bump(stats_block, _IDX_EPOCHS, cache.prewarm())
    runq: "queue.Queue" = queue.Queue()
    sessions: dict = {}
    lock = threading.Lock()
    reader = threading.Thread(
        target=_reader_loop, args=(chan, runq, sessions, lock),
        name=f"serve-worker-{index}-reader", daemon=True,
    )
    reader.start()
    try:
        chan.send({"type": "ready", "index": index})
        while True:
            item = runq.get()
            if item is _STOP:
                return
            sid, run_msg = item
            with lock:
                sess = sessions[sid]
            try:
                _run_one(chan, sess, run_msg, programs, config,
                         stats_block, materials, obs)
            finally:
                with lock:
                    sessions.pop(sid, None)
    except IpcClosed:
        return  # the parent went away before this worker was ready
    finally:
        chan.close()


def worker_process(*args) -> None:
    """Entry point of one pool process (module-level so the forkserver
    can pickle the target by reference): :func:`worker_main` with
    ``SIGINT`` ignored."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    worker_main(*args)

"""Span tracing of the evaluator, from outside the program.

:class:`Tracer` replaces a fixed set of public entry points with
timing wrappers and records one span per call: ``(id, name, start,
end, parent id, session id)``.  The parent is the innermost traced
call open on the same thread; the session id is the ``session_id``
keyword of the enclosing client call.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

#: (module path, attribute holder, attribute, span name).  ServeClient
#: run/submit are the session roots and carry the session id.
ENTRY_POINTS = (
    ("repro.serve.client", "ServeClient", "run", "client_call"),
    ("repro.serve.client", "ServeClient", "submit", "client_call"),
    ("repro.net.session", "ResumableSession", "run", "session_run"),
    ("repro.core.protocol", "EvaluatorParty", "attach", "attach"),
    ("repro.core.protocol", "EvaluatorParty", "step_cycle", "step_cycle"),
    ("repro.core.protocol", "EvaluatorParty", "snapshot", "snapshot"),
    ("repro.core.protocol", "EvaluatorParty", "finish", "finish"),
    ("repro.gc.ot_extension", "OTExtensionReceiver", "receive",
     "ot_receive"),
    ("repro.core.protocol", None, "evaluate_gate", "evaluate_gate"),
    ("repro.net.transport", "FramedEndpoint", "send", "send"),
    ("repro.gc.channel", "Endpoint", "recv", "recv"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in ENTRY_POINTS))
ROOT = "client_call"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[tuple] = []

    def _wrap(self, fn, name: str):
        spans, ids, local = self.spans, self._ids, self._local
        root = name == ROOT

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if root:
                local.session = kwargs.get("session_id")
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent,
                              getattr(local, "session", None)))

        return traced

    def install(self) -> None:
        import importlib

        for modname, holder, attr, name in ENTRY_POINTS:
            mod = importlib.import_module(modname)
            owner = mod if holder is None else getattr(mod, holder)
            own = attr in vars(owner)
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, name))
            self._undo.append((owner, attr, orig, own))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig, own = self._undo.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def self_times_ms(self) -> Dict[str, Dict[str, float]]:
        """Per session: span name -> self time in ms (duration minus
        the time covered by its child spans)."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, _name, t0, t1, parent, _sess in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: dict.fromkeys(SPAN_NAMES, 0.0)
        )
        for sid, name, t0, t1, _parent, sess in self.spans:
            if sess is not None:
                out[sess][name] += (t1 - t0 - child_time[sid]) * 1e3
        return dict(out)

    def medians_ms(self) -> Dict[str, float]:
        per_session = list(self.self_times_ms().values())
        return {
            name: statistics.median(s[name] for s in per_session)
            for name in SPAN_NAMES
        } if per_session else dict.fromkeys(SPAN_NAMES, 0.0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, sess in self.spans:
                fh.write(json.dumps([sid, name, round(t0, 7), round(t1, 7),
                                     parent, sess]) + "\n")

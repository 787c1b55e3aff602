"""The server as an OS process tree, measured from outside via /proc.

:class:`ServerProcess` launches ``server_main.py``, waits for its
ready line, samples CPU time and peak RSS summed over the server, its
forkserver and worker processes, and on :meth:`stop` drains the
server and waits until every process of the tree has exited.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[list]:
    """Fields of /proc/<pid>/stat after the command name (field 3 on)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    return raw[raw.rindex(b")") + 2:].split()


def _identity(pid: int) -> Optional[Tuple[int, int]]:
    """``(pid, start time)``: stable across pid reuse."""
    f = _stat_fields(pid)
    return None if f is None else (pid, int(f[19]))


def process_tree(root: int) -> Set[int]:
    """``root`` and all its live descendants."""
    children: Dict[int, list] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        f = _stat_fields(int(entry))
        if f is not None:
            children.setdefault(int(f[1]), []).append(int(entry))
    tree, todo = set(), [root]
    while todo:
        pid = todo.pop()
        if pid in tree:
            continue
        tree.add(pid)
        todo.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids) -> float:
    """User + system CPU seconds summed over ``pids``."""
    total = 0
    for pid in pids:
        f = _stat_fields(pid)
        if f is not None:
            total += int(f[11]) + int(f[12])
    return total / CLK_TCK


def peak_rss_mb(pids) -> float:
    """Peak resident set (VmHWM) summed over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def steal_seconds() -> float:
    """CPU time the hypervisor ran other guests while this machine's
    CPUs wanted to run (``steal`` of /proc/stat, all CPUs)."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / CLK_TCK


class ServerProcess:
    """One launched ``server_main.py`` and everything it spawned."""

    def __init__(self, workload: str, seed: int, src: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_main.py"),
             "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env,
        )
        self._lines: "queue.Queue" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        #: Every process seen in the tree, by (pid, start time).
        self.seen: Set[Tuple[int, int]] = set()
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the server prints its ready line."""
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            line = ""
        if not line:
            raise RuntimeError("server exited or timed out before ready")
        self.port = json.loads(line)["port"]

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def tree(self) -> Set[int]:
        pids = process_tree(self.proc.pid)
        for pid in pids:
            ident = _identity(pid)
            if ident is not None:
                self.seen.add(ident)
        return pids

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.tree())

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.tree())

    def _alive(self) -> Set[Tuple[int, int]]:
        """Processes of the tree still running (zombies count as gone:
        an orphan's reaping is up to whatever init the host runs)."""
        alive = set()
        for pid, start in self.seen:
            f = _stat_fields(pid)
            if f is not None and int(f[19]) == start and f[0] != b"Z":
                alive.add((pid, start))
        return alive

    def stop(self, timeout: float = 30.0) -> int:
        """Drain and stop the server; wait for the whole tree to exit.

        Returns the number of unclean exits: processes of the tree that
        had to be killed, plus the server itself if it exited with an
        error.  0 means a clean shutdown.
        """
        self.tree()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5.0)
        deadline = time.monotonic() + 15.0
        while self._alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        strays = self._alive()
        for pid, _ in strays:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return len(strays) + (self.proc.returncode != 0)

    def kill(self) -> None:
        """Hard stop (error paths only)."""
        for pid in self.tree():
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()

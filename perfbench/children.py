"""Child processes of a benchmark run: tied to the run, reaped at its end.

The benchmark starts ``repro serve`` and the peak-RSS child itself, and
the program starts more on its behalf: the parallel engine's worker
pool and ``multiprocessing``'s resource tracker, which the shared-memory
transport starts on first use and which otherwise outlives every
caller.  :func:`stop_children` runs when a run ends, on every path out
of it, and leaves no child of the benchmark process behind.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import sys
import time

__all__ = ["child_setup", "live_children", "stop_children"]

_PR_SET_PDEATHSIG = 1
# Resolved here, not in the forked child, where loading a library is unsafe.
_PRCTL = ctypes.CDLL(None, use_errno=True).prctl if sys.platform.startswith("linux") else None
# Seconds a child has to exit after SIGTERM before it is killed.
GRACE_SECONDS = 5.0


def child_setup() -> None:
    """``preexec_fn`` of every child the benchmark starts.

    SIGINT is reset to its default, so a child of a run started as a
    background job, which inherits SIGINT ignored, still stops on it;
    on Linux the child is killed when the benchmark dies, even by
    SIGKILL.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if _PRCTL is not None:
        _PRCTL(_PR_SET_PDEATHSIG, signal.SIGKILL)


def live_children() -> list[int]:
    """Pids whose parent is this process, zombies included (Linux ``/proc``)."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name in parentheses may hold spaces; fields follow it.
        fields = stat[stat.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return sorted(pids)


def stop_children() -> list[int]:
    """Stop the resource tracker, then terminate and reap every other child.

    Returns the pids that were still there after the tracker stopped:
    each is a process the benchmark or the program failed to stop.
    """
    from multiprocessing import resource_tracker

    # The tracker ignores SIGTERM; closing its pipe makes it exit.
    resource_tracker._resource_tracker._stop()
    leftover = live_children()
    for pid in leftover:
        _signal(pid, signal.SIGTERM)
    pending = set(leftover)
    deadline = time.monotonic() + GRACE_SECONDS
    while pending and time.monotonic() < deadline:
        pending = {pid for pid in pending if not _reaped(pid)}
        if pending:
            time.sleep(0.01)
    for pid in pending:
        _signal(pid, signal.SIGKILL)
        _reaped(pid, block=True)
    return leftover


def _signal(pid: int, signum: int) -> None:
    with contextlib.suppress(ProcessLookupError):  # it has exited already
        os.kill(pid, signum)


def _reaped(pid: int, block: bool = False) -> bool:
    try:
        done, _ = os.waitpid(pid, 0 if block else os.WNOHANG)
    except ChildProcessError:
        return True
    return done == pid

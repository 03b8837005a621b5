"""Peak memory of a process, read from ``/proc``, and reaping of child processes."""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def become_subreaper() -> None:
    """Adopt every orphaned descendant, so :func:`reap_children` can wait for it.

    A process whose parent exits first (the ``multiprocessing`` resource
    tracker of a server, a worker of a killed server) is then handed to
    this process instead of to init. Does nothing where ``prctl`` is
    missing.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_children() -> None:
    """Stop the ``multiprocessing`` resource tracker, then wait for every child.

    Register it with :mod:`atexit` before ``multiprocessing`` is imported,
    so it runs after ``multiprocessing`` has released its semaphores. The
    tracker otherwise outlives this process until it reads end of file on
    its pipe, which happens only after this process has exited.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
    reap_children()


def _children() -> list[int]:
    """Pids whose parent is this process."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # The command name may hold spaces; the fields after it do not.
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            out.append(int(entry))
    return out


def reap_children(timeout_s: float = 20.0) -> None:
    """Wait until this process has no child left; SIGKILL those alive after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)

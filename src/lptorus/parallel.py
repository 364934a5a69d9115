"""``fork_map``: the one parallel primitive, on forked processes."""

from __future__ import annotations

import os
import pickle
import resource
import signal
import sys
import threading


def fork_map(fn, items) -> tuple[list, int, float]:
    """``[fn(item) for item in items]`` in input order, the processes used,
    and the largest peak RSS of this call's children in MiB (0.0 if none).

    One process per usable CPU, no more than there are items, but one alone
    off Linux or while another Python thread lives (a fork copies only the
    calling thread).  This process runs the first of the contiguous shares;
    each other runs in an ``os.fork``ed child, which pipes back only its
    pickled results or exception and its own ``RUSAGE_SELF`` maxrss (KiB on
    Linux).  The first exception in input order re-raises here; every child
    is reaped.
    """
    items = list(items)
    count = 1
    if sys.platform == "linux" and threading.active_count() == 1:
        count = max(1, min(len(items), len(os.sched_getaffinity(0))))
    shares = [items[len(items) * i // count : len(items) * (i + 1) // count] for i in range(count)]
    children = []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child exits here, never returning into the caller
                try:
                    try:
                        values = [fn(item) for item in share]
                        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        data = pickle.dumps((True, values, kib))
                    except BaseException as exc:
                        data = pickle.dumps((False, exc, 0))
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)  # nothing written: the parent raises
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [fn(item) for item in shares[0]]
        peak_mb = 0.0
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if not data:
                raise RuntimeError(f"a fork_map worker exited with status {code} and no result")
            ok, value, kib = pickle.loads(data)
            if not ok:
                raise value
            results += value
            peak_mb = max(peak_mb, kib / 1024.0)
        return results, count, peak_mb
    finally:  # after an error, kill the children still running
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

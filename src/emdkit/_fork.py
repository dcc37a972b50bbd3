"""Forked helper processes for work cut into independent shares.

One rule says when forking may pay, and one in-order map, ``ordered``,
runs the work of the noise band's lockstep batches and of the CLI's CSV
spans and chunks. MEMD relays one running sum through its direction
shares, so it runs its own protocol on ``forked``.
Each child talks to the caller through a pair of pipes, one pickled
object at a time, sends a result or the exception it raised, and leaves
through ``os._exit``; the caller kills and reaps every child in
``finally``, whether it returns or raises.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from contextlib import contextmanager, suppress

#: Longest signal worked on in forked children: past it OpenBLAS runs
#: ``np.dot`` on its own threads, and a forked band ran 2-3x slower. Text
#: work (formatting and parsing CSV) calls no ``np.dot``, so its callers
#: pass a length of 0.
MAX_LENGTH = 10_000


def worker_count(length: int, shares: int) -> int:
    """Processes that may share work on signals of ``length`` samples cut
    into at most ``shares`` shares: one per CPU this process may run on, or
    1 where fork is missing, unsafe (another thread runs) or does not pay."""
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and length <= MAX_LENGTH and threading.active_count() == 1):
        return max(1, min(len(os.sched_getaffinity(0)), shares))
    return 1


def shares(count: int, workers: int) -> list[range]:
    """``range(count)`` cut into ``workers`` contiguous, near-equal shares."""
    return [range(count * w // workers, count * (w + 1) // workers) for w in range(workers)]


class Pipe:
    """One end of a caller-child connection: pickled objects each way."""

    def __init__(self, pid: int, read_fd: int, write_fd: int):
        self.pid = pid
        self._in = open(read_fd, "rb")
        self._out = open(write_fd, "wb")

    def send(self, obj) -> None:
        try:
            pickle.dump(obj, self._out, pickle.HIGHEST_PROTOCOL)
            self._out.flush()
        except BrokenPipeError:
            raise self._died() from None

    def recv(self):
        """The next object; an exception that was sent is raised here."""
        try:
            out = pickle.load(self._in)
        except EOFError:
            raise self._died() from None
        if isinstance(out, Exception):
            raise out
        return out

    def _died(self) -> ChildProcessError:
        return ChildProcessError(f"forked process {self.pid} died")

    def close(self) -> None:
        self._in.close()
        with suppress(OSError):  # bytes left unsent to a child that is gone
            self._out.close()


@contextmanager
def forked(serve, shares):
    """Fork one child per share, which runs ``serve(pipe, share)`` and
    exits; yields the caller's pipe to each child, in share order."""
    children: list[Pipe] = []
    try:
        for share in shares:
            down = up = ()
            try:
                down = os.pipe()
                up = os.pipe()
                pid = os.fork()
            except BaseException:  # no child holds these pipes
                for fd in down + up:
                    os.close(fd)
                raise
            if pid == 0:  # the child never returns
                try:
                    for pipe in children:
                        pipe.close()
                    os.close(down[1])
                    os.close(up[0])
                    serve(Pipe(os.getppid(), down[0], up[1]), share)
                finally:
                    os._exit(0)
            os.close(down[0])
            os.close(up[1])
            children.append(Pipe(pid, up[0], down[1]))
        yield children
    finally:
        for pipe in children:  # stop any child still working or waiting
            pipe.close()
            os.kill(pipe.pid, signal.SIGKILL)
            os.waitpid(pipe.pid, 0)


@contextmanager
def ordered(fn, items, workers: int):
    """Yields ``fn(item)`` for each of the sequence ``items``, in item order.
    Item k runs in the caller when ``k % workers == 0``, and otherwise in
    forked helper ``k % workers``, which sends each result, or the exception
    it raised, as soon as it is made; an exception is raised at its own
    item's place. Leaving the block kills and reaps every helper."""

    def serve(pipe, w):
        for item in items[w::workers]:
            try:
                out = fn(item)
            except Exception as exc:
                out = exc
            pipe.send(out)

    with forked(serve, range(1, workers)) as helpers:
        yield (helpers[k % workers - 1].recv() if k % workers else fn(item)
               for k, item in enumerate(items))

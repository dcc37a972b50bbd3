"""The fork module's in-order map and its clean-up when a fork fails."""

import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from emdkit import _fork

from conftest import no_child_left

ITEMS = list(range(7))


def tagged(item):
    """The item and the process that computed it."""
    return item, os.getpid()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_results_come_back_in_item_order(cpus, forks, k):
    cpus(k)
    workers = _fork.worker_count(0, len(ITEMS))
    with _fork.ordered(tagged, ITEMS, workers) as results:
        got = list(results)
    assert workers == k and len(forks) == k - 1
    assert [item for item, _ in got] == ITEMS
    # Item i runs in the caller when i % k == 0, otherwise in helper i % k.
    pids = [os.getpid(), *forks]
    assert [pid for _, pid in got] == [pids[i % k] for i in ITEMS]
    no_child_left()


@pytest.mark.parametrize("failing, first", [
    ({3}, 3),  # the caller's item
    ({4}, 4),  # helper 1's item
    ({1, 3}, 1),  # a helper's error before the caller's
    ({6, 7}, 6),  # the caller's error before a helper's
    ({5, 4}, 4),  # two helpers' errors
])
def test_error_is_raised_at_its_items_place(failing, first):
    def fn(item):
        if item in failing:
            raise ValueError(f"item {item}")
        return item

    got = []
    with pytest.raises(ValueError, match=f"^item {first}$"):
        with _fork.ordered(fn, list(range(9)), 3) as results:
            for r in results:
                got.append(r)
    assert got == list(range(first))
    no_child_left()


def stalls_after_the_first(item):
    if item:
        time.sleep(60)
    return item


def test_leaving_after_the_first_result_stops_every_helper():
    start = time.monotonic()
    with _fork.ordered(stalls_after_the_first, ITEMS, 3) as results:
        assert next(results) == 0
    assert time.monotonic() - start < 30
    no_child_left()


def test_leaving_through_an_exception_stops_every_helper():
    start = time.monotonic()
    with pytest.raises(KeyError):
        with _fork.ordered(stalls_after_the_first, ITEMS, 3) as results:
            next(results)
            raise KeyError("caller")
    assert time.monotonic() - start < 30
    no_child_left()


def test_dead_helper_is_reported():
    caller = os.getpid()

    def dies_in_helpers(item):
        if os.getpid() != caller:
            os._exit(0)
        return item

    with pytest.raises(ChildProcessError) as exc:
        with _fork.ordered(dies_in_helpers, ITEMS, 2) as results:
            list(results)
    assert re.fullmatch(r"forked process \d+ died", str(exc.value))
    no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_fork_leaks_no_descriptor(monkeypatch):
    fork, calls = os.fork, []

    def fails_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fails_second)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="Resource temporarily unavailable"):
        with _fork.forked(lambda pipe, share: None, range(3)):
            pass
    assert len(calls) == 2
    assert len(os.listdir("/proc/self/fd")) == before
    no_child_left()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="no helper forks on one CPU")
def test_helpers_close_their_pipes(tmp_path):
    # A helper that left its pipe files open made the interpreter warn as
    # it dropped them, once per noise-band and CSV-writing helper.
    code = textwrap.dedent(f"""
        import os
        import numpy as np
        from pathlib import Path
        from emdkit import cli, white_noise_band
        forks, fork = [], os.fork

        def counted():
            forks.append(fork())
            return forks[-1]

        os.fork = counted
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])  # one helper each
        white_noise_band(1024, trials=50)
        v = np.arange(cli._FORK_SHARE_VALUES, dtype=float)
        cli._write(Path({str(tmp_path)!r}), {{"t.csv": cli._Table("a,b", [v, v])}})
        assert len(forks) == 2, forks
    """)
    src = str(Path(_fork.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", code],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")

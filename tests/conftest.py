import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import emdkit
from emdkit import SampledSignal


def sine(freq: float, sample_rate: float, duration: float, amplitude: float = 1.0,
         phase: float = 0.0) -> SampledSignal:
    n = int(round(sample_rate * duration))
    t = np.arange(n) / sample_rate
    return SampledSignal(amplitude * np.sin(2 * np.pi * freq * t + phase), sample_rate)


def fft_peak_hz(x: SampledSignal) -> float:
    """Frequency of the largest FFT magnitude bin (DC excluded)."""
    spectrum = np.abs(np.fft.rfft(x.samples))
    spectrum[0] = 0.0
    freqs = np.fft.rfftfreq(x.n, x.dt)
    return float(freqs[int(np.argmax(spectrum))])


def fresh_process(code: str) -> int:
    """Exit status of ``python -c code`` in a fresh interpreter that imports
    this emdkit."""
    src = str(Path(emdkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def traced_peak_mb(fn, *args) -> float:
    """Peak traced memory, in MiB, of ``fn(*args)`` above what is already
    allocated."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def dense_grid(h) -> np.ndarray:
    """The [freq][time] grid of a Hilbert spectrum's non-zero cells, zero
    elsewhere."""
    f, t, e = h.cells
    grid = np.zeros((h.freq_bins.size, h.time_bins.size))
    grid[f, t] = e
    return grid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns to the parent, in order."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes ``os.sched_getaffinity`` report k CPUs."""
    def fake(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    return fake


def no_child_left():
    """Assert that this process has no child, exited or running."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

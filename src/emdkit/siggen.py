"""Deterministic generators for the benchmark signal suite.

The band signals (LP/BP/HP/BS/AP) are 10 s multitone sums sampled at
150 Hz with a strong amplitude A1=100 and a weak amplitude A2=1 by
default. Two chirp presets exist: the wideband 0.1->50 Hz sweep and the
short 100->200 Hz sweep at 10 kHz used for time-frequency tracking.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import SampledSignal
from .emd import SiftConfig, emd
from .epemd import epemd
from .memd import MultivariateSignal
from .metrics import ortho_report


class SignalKind(enum.Enum):
    LP = "lp"
    BP = "bp"
    HP = "hp"
    BS = "bs"
    AP = "ap"
    AM = "am"
    FM = "fm"
    WGN = "wgn"
    CHIRP = "chirp"
    MULTITONE4 = "multitone4"


@dataclass(frozen=True)
class SignalSpec:
    kind: SignalKind
    a1: float = 100.0
    a2: float = 1.0
    sample_rate: float = 150.0
    duration: float = 10.0
    seed: int = 0
    # Chirp sweep endpoints; defaults give the wideband preset.
    f_start: float = 0.1
    f_end: float = 50.0
    # Zeros appended on each side (chirp padding experiment).
    pad_zeros: int = 0
    # Multitone noise level.
    noise_std: float = 0.1

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("duration must be > 0")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be > 0")


#: The short chirp preset: 0.3 s at 10 kHz sweeping 100 -> 200 Hz,
#: 50 zeros padded on each side.
CHIRP_TF_PRESET = SignalSpec(
    SignalKind.CHIRP,
    sample_rate=10_000.0,
    duration=0.3,
    f_start=100.0,
    f_end=200.0,
    pad_zeros=50,
)


#: The band signals, one row per kind: the tone count, then tone families
#: (amplitude field, base Hz, step); tone i = 1..count of a family sits at
#: base + step * i Hz. BS's low band deliberately starts at 1 Hz.
_BAND_TONES = {
    SignalKind.LP: (20, (("a2", 50, -1), ("a1", 1, 1))),
    SignalKind.BP: (20, (("a2", 50, -1), ("a1", 15, 1), ("a2", 1, 1))),
    SignalKind.HP: (20, (("a1", 50, -1), ("a2", 1, 1))),
    SignalKind.BS: (20, (("a1", 50, -1), ("a2", 15, 1), ("a1", 0, 1))),
    SignalKind.AP: (50, (("a1", 0, 1),)),
}


def _time_grid(spec: SignalSpec) -> np.ndarray:
    n = int(round(spec.sample_rate * spec.duration))
    return np.arange(n) / spec.sample_rate


def _tone_sum(t: np.ndarray, count: int, families) -> np.ndarray:
    """Tone by tone, i = 1..count: sum of amplitude * sin(2 pi (base + step i) t)."""
    return sum(sum(a * np.sin(2 * np.pi * (base + step * i) * t) for a, base, step in families)
               for i in range(1, count + 1))


def generate(spec: SignalSpec) -> SampledSignal:
    """Realize a univariate signal spec on its uniform grid."""
    t = _time_grid(spec)
    a1, a2 = spec.a1, spec.a2
    k = spec.kind
    if k in _BAND_TONES:
        count, families = _BAND_TONES[k]
        v = _tone_sum(t, count, [(getattr(spec, a), base, step) for a, base, step in families])
    elif k is SignalKind.AM:
        v = (1 + a2 * np.sin(2 * np.pi * 3 * t)) * (a1 * np.sin(2 * np.pi * 20 * t))
    elif k is SignalKind.FM:
        # Phase written with the bracket multiplied by t, kept as given.
        v = a1 * np.sin((2 * np.pi * 10 + 5 * np.sin(2 * np.pi * 3 * t)) * t)
    elif k is SignalKind.WGN:
        v = np.random.default_rng(spec.seed).standard_normal(t.size)
    elif k is SignalKind.CHIRP:
        rate = (spec.f_end - spec.f_start) / spec.duration
        phase = 2 * np.pi * (spec.f_start * t + 0.5 * rate * t**2)
        v = a1 * np.sin(phase)
        if spec.pad_zeros:
            pad = np.zeros(spec.pad_zeros)
            v = np.concatenate((pad, v, pad))
    elif k is SignalKind.MULTITONE4:
        raise ValueError("MULTITONE4 is multivariate; use generate_multitone4")
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {k}")
    return SampledSignal(v, spec.sample_rate)


MULTITONE4_FREQS = (4.0, 8.0, 16.0, 32.0)


def generate_multitone4(spec: SignalSpec):
    """The 4-variate benchmark: per channel, the sum of 4/8/16/32 Hz unit
    sines plus seeded Gaussian noise of standard deviation ``noise_std``."""
    t = _time_grid(spec)
    tones = sum(np.sin(2 * np.pi * f * t) for f in MULTITONE4_FREQS)
    rng = np.random.default_rng(spec.seed)
    channels = [
        SampledSignal(tones + rng.standard_normal(t.size) * spec.noise_std, spec.sample_rate)
        for _ in range(4)
    ]
    return MultivariateSignal(tuple(channels))


def sweep_io_t(fs_list, cfg: SiftConfig = SiftConfig()):
    """Decompose the 50-tone comb (the AP band signal) at each sampling
    rate with EMD and EPEMD and record both overall orthogonality indices."""
    rows = []
    for fs in fs_list:
        if fs <= 100:
            raise ValueError(f"fs={fs} aliases the 50 Hz content (need > 100)")
        x = generate(SignalSpec(SignalKind.AP, sample_rate=fs))
        io_emd = ortho_report(x, emd(x, cfg)).io_total
        io_ep = ortho_report(x, epemd(x, cfg)).io_total
        rows.append((float(fs), io_emd, io_ep))
    return rows

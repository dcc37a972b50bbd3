"""The lockstep row drivers against the single-signal path they batch.

``white_noise_band`` and ``eemd`` sift their trials as the rows of one
array, a batch at a time, with one envelope build per step for every row
still sifting. Every row must come out bit for bit as ``emd``/``epemd``
of that row alone, and the multi-block spline solve behind the batched
build must give each block the arithmetic it gets when solved alone.
"""

import logging
import platform
import sys
import textwrap
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_process
from emdkit import (EemdConfig, NoEnvelopeError, SampledSignal, SiftConfig, Variant,
                    build_envelopes, cubic_spline, eemd, emd, epemd, orthogonal_variants,
                    white_noise_band)
from emdkit.emd import _trial_rng
from emdkit.envelope import (_envelope_knots, _envelopes, _grid_pair,
                             _natural_second_derivatives)
from emdkit.gsom import GRAM_SCHMIDT_VARIANTS
from emdkit.significance import _decompose_variant

CONFIGS = (SiftConfig(), SiftConfig(max_imfs=2), SiftConfig(max_sift_iterations=1),
           SiftConfig(sd_threshold=0.05, max_sift_iterations=7))


def _row(kind, n, rng):
    t = np.arange(n)
    noise = rng.standard_normal(n)
    return {
        "noise": noise,
        "plateaus": np.round(noise * rng.uniform(0.3, 3.0)),
        "huge": np.ldexp(noise, 1000),
        "tiny": np.ldexp(noise, -1000),
        "subnormal": np.ldexp(noise, -1060),
        "constant": np.full(n, rng.standard_normal()),
        "monotone": np.cumsum(np.abs(noise)),
        "tone": np.sin(2 * np.pi * rng.uniform(0.02, 0.3) * t) + 0.1 * noise,
        # its residue after the tone falls below the normal range
        "faint tone": np.ldexp(np.sin(2 * np.pi * rng.uniform(0.02, 0.3) * t), -1020),
    }[kind]


KINDS = ("noise", "plateaus", "huge", "tiny", "subnormal", "constant", "monotone", "tone",
         "faint tone")


def _assert_same(batch, alone):
    assert batch.variant is alone.variant
    assert len(batch.imfs) == len(alone.imfs)
    for a, b in zip(batch.components, alone.components, strict=True):
        assert a.samples.tobytes() == b.samples.tobytes()
    assert batch.diagnostics == alone.diagnostics


def _check_rows(rows, cfg, rate=1.0):
    for variant in (Variant.EMD, Variant.EPEMD) + GRAM_SCHMIDT_VARIANTS:
        for d, alone in zip(_decompose_variant(rows, variant, cfg, rate),
                            _one_trial_at_a_time(rows, variant, cfg, rate), strict=True):
            _assert_same(d, alone)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.sampled_from([8, 9, 13, 64, 257, 1024, 2048]),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
       cfg=st.sampled_from(CONFIGS), seed=st.integers(0, 2**32 - 1))
def test_rows_match_each_row_alone(n, kinds, cfg, seed):
    rng = np.random.default_rng(seed)
    _check_rows(np.array([_row(k, n, rng) for k in kinds]), cfg, rate=rng.uniform(0.5, 500.0))


@pytest.mark.parametrize("n", [8, 2048])
@pytest.mark.parametrize("cfg", CONFIGS)
def test_every_kind_in_one_batch(n, cfg):
    # Rows that end at different IMF counts, some at once, share each step.
    rng = np.random.default_rng(n)
    rows = np.array([_row(k, n, rng) for k in KINDS + KINDS[:2]])
    counts = {len(d.imfs) for d in _decompose_variant(rows, Variant.EMD, cfg, 1.0)}
    assert 0 in counts and len(counts) > 1
    _check_rows(rows, cfg)


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("variant, alone", [(Variant.EMD, emd), (Variant.EPEMD, epemd)])
def test_rows_log_every_sift_as_emd_does(variant, alone, cfg, caplog):
    # Each sift that ends in a mode, however it is driven, logs its count:
    # EPEMD's rows, whose stage replaces each pair, as epemd of the row.
    rng = np.random.default_rng(11)
    rows = np.array([_row(k, 300, rng) for k in KINDS])
    caplog.set_level(logging.DEBUG, logger="emdkit.emd")
    _decompose_variant(rows, variant, cfg, 1.0)
    batch = Counter(r.getMessage() for r in caplog.records)
    caplog.clear()
    for v in rows:
        alone(SampledSignal(v, 1.0), cfg)
    assert batch == Counter(r.getMessage() for r in caplog.records)
    assert sum(batch.values()) > len(KINDS)


def test_envelope_rows_match_build_envelopes():
    rng = np.random.default_rng(3)
    built, knots = [], []
    for v in (_row(k, 300, rng) for k in KINDS):
        try:
            knots.append(_envelope_knots(v))
            built.append(v)
        except NoEnvelopeError:
            with pytest.raises(NoEnvelopeError):
                build_envelopes(v)
    assert len(built) == 7
    pairs, means = _envelopes(knots, 300)
    for v, pair, mean in zip(built, pairs, means, strict=True):
        env = build_envelopes(v)
        assert pair[0].tobytes() == env.upper.tobytes()
        assert pair[1].tobytes() == env.lower.tobytes()
        assert mean.tobytes() == env.mean.tobytes()


def _blocks(rng, k):
    """``k`` knot blocks of 3 to 12 knots (one interior equation and up):
    strictly increasing whole or fractional abscissae, values that are
    sometimes a few integers, so runs of +-0.0 occur."""
    ts, ys = [], []
    for _ in range(k):
        size = int(rng.choice([3, 4, 4, *range(5, 13)]))
        steps = rng.integers(1, 6, size - 1) if rng.random() < 0.5 else rng.uniform(0.01, 5.0, size - 1)
        ts.append(np.cumsum(np.concatenate(([rng.uniform(-20, 20)], steps))))
        ys.append(rng.standard_normal(size) if rng.random() < 0.5 else
                  np.round(rng.standard_normal(size)) * rng.choice([-1.0, 1.0]))
    return ts, ys


@pytest.mark.parametrize("k", [1, 2, 3, 17])
def test_block_solve_matches_each_block_alone(k):
    rng = np.random.default_rng(k)
    for _ in range(300):
        ts, ys = _blocks(rng, k)
        t, y = np.concatenate(ts), np.concatenate(ys)
        starts = np.cumsum([b.size for b in ts])[:-1].tolist()
        m = _natural_second_derivatives(t[1:] - t[:-1], y, starts)
        want = [_natural_second_derivatives(b[1:] - b[:-1], v) for b, v in zip(ts, ys)]
        assert m.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 17])
def test_grid_blocks_match_one_spline_each(k):
    # Whole-number knots covering the grid 0...n-1, some past its ends.
    rng = np.random.default_rng(100 + k)
    for _ in range(100):
        n = int(rng.integers(4, 60))
        ts, ys = [], []
        for _ in range(k):
            size = int(rng.integers(3, min(n, 12)))
            inner = np.sort(rng.choice(np.arange(1, n - 1), size - 2, replace=False))
            ts.append(np.concatenate(([-rng.integers(0, 4)], inner,
                                      [n - 1 + rng.integers(0, 4)])).astype(float))
            ys.append(np.round(rng.standard_normal(size)) if rng.random() < 0.5
                      else rng.standard_normal(size))
        grid = np.arange(n, dtype=float)
        want = np.concatenate([cubic_spline(t, v, grid) for t, v in zip(ts, ys)])
        assert _grid_pair(ts, ys, n).tobytes() == want.tobytes()


def _one_trial_at_a_time(rows, decomposer, cfg, sample_rate):
    out = []
    for v in rows:
        x = SampledSignal(v, sample_rate)
        if decomposer is Variant.EPEMD:
            out.append(epemd(x, cfg))
        elif decomposer is Variant.EMD:
            out.append(emd(x, cfg))
        else:
            out.append(orthogonal_variants(emd(x, cfg), decomposer))
    return out


@pytest.mark.parametrize("decomposer", (Variant.EMD, Variant.EPEMD) + GRAM_SCHMIDT_VARIANTS)
def test_band_matches_a_per_trial_loop(decomposer, monkeypatch):
    cfg = SiftConfig(max_imfs=6)
    band = white_noise_band(200, decomposer, trials=50, seed=9, sample_rate=4.0, cfg=cfg)
    monkeypatch.setattr("emdkit.significance._decompose_variant", _one_trial_at_a_time)
    ref = white_noise_band(200, decomposer, trials=50, seed=9, sample_rate=4.0, cfg=cfg)
    for a, b in ((band.period_grid, ref.period_grid), (band.lower_5th, ref.lower_5th),
                 (band.upper_95th, ref.upper_95th)):
        assert a.tobytes() == b.tobytes()


def _reference_eemd(x, scfg, ecfg):
    """The ensemble as one ``emd`` per trial, summed in trial order."""
    k = 0 if 0 < np.abs(x.samples).max() < np.finfo(float).tiny else \
        -np.frexp(np.abs(x.samples).max())[1]
    xs = np.ldexp(x.samples, k)
    sigma = ecfg.noise_stddev_ratio * float(np.std(xs))
    imf_acc, res_acc = np.zeros((0, x.n)), np.zeros(x.n)
    for i in range(ecfg.ensemble_size):
        d = emd(x.with_samples(xs + _trial_rng(ecfg.rng_seed, i).standard_normal(x.n) * sigma), scfg)
        if len(d.imfs) > len(imf_acc):
            imf_acc = np.vstack((imf_acc, np.zeros((len(d.imfs) - len(imf_acc), x.n))))
        for j, imf in enumerate(d.imfs):
            imf_acc[j] += imf.samples
        res_acc += d.residue.samples
    return [np.ldexp(a / ecfg.ensemble_size, -k) for a in (*imf_acc, res_acc)]


@pytest.mark.parametrize("n", [9, 300, 5000])
@pytest.mark.parametrize("kind", ["noise", "plateaus", "huge", "tone", "constant"])
def test_eemd_matches_a_per_trial_loop(n, kind):
    rng = np.random.default_rng(n)
    x = SampledSignal(_row(kind, n, rng), 2.0)
    scfg = SiftConfig(max_imfs=5)
    ecfg = EemdConfig(ensemble_size=6 if n == 5000 else 20, rng_seed=n)
    d = eemd(x, scfg, ecfg)
    want = _reference_eemd(x, scfg, ecfg)
    assert [c.samples.tobytes() for c in d.components] == [w.tobytes() for w in want]


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's heap trimming in Linux minor page faults")
def test_band_steps_keep_their_heap_pages():
    # _extract_rows keeps each step's envelope pairs referenced until the
    # next build. Freed at once, glibc gave their pages back to the OS and
    # every step faulted them in again: 42-44k minor faults per serial band
    # instead of 3-7k. A fresh interpreter, as a long session's heap can
    # hide the cliff.
    code = textwrap.dedent("""
        import resource, sys
        from emdkit import Variant, _fork, white_noise_band
        _fork.worker_count = lambda length, shares: 1  # serial
        white_noise_band(1024, Variant.EMD, 100)  # warm
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        white_noise_band(1024, Variant.EMD, 100)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(faults, "minor faults in a warm serial band", file=sys.stderr)
        sys.exit(faults >= 12_000)
    """)
    assert fresh_process(code) == 0


class _FirstBatch(Exception):
    pass


@pytest.mark.parametrize("module, run", [
    ("emdkit.emd", lambda x: eemd(x, ecfg=EemdConfig(ensemble_size=10**7))),
    ("emdkit.significance", lambda x: white_noise_band(x.n, trials=10**7)),
])
def test_batch_plan_holds_no_memory(monkeypatch, cpus, module, run):
    # The lockstep batches are planned as a range of first rows. As a list
    # of one range per batch, 10**7 trials of 1,024 samples held 143.7 MiB
    # before the first trial ran. The run stops when its first batch of
    # 8 rows would be sifted.
    cpus(1)
    mod, batches = sys.modules[module], []

    def stop(rows, *args):
        batches.append(len(rows))
        raise _FirstBatch

    monkeypatch.setattr(mod, "_extract_rows", stop)
    x = SampledSignal(np.random.default_rng(0).standard_normal(1024), 1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(_FirstBatch):
            run(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert batches == [8] and peak < 2**20, f"{peak / 2**20:.1f} MiB"

import threading
import time

import numpy as np
import pytest

from emdkit import (
    ConfidenceBand,
    PeriodUndefinedError,
    RankDeficiencyError,
    SampledSignal,
    SiftConfig,
    Variant,
    emd,
    imf_statistics,
    significance_test,
    white_noise_band,
)
from emdkit.emd import _trial_rng
from emdkit.gsom import GRAM_SCHMIDT_VARIANTS
from conftest import no_child_left, sine


class TestImfStatistics:
    def test_sine_period(self):
        pt = imf_statistics(sine(10.0, 1000.0, 1.0, phase=0.1))
        assert pt.mean_period == pytest.approx(0.1, abs=1.0 / 1000.0)

    def test_white_noise_energy_density(self, rng):
        n = 4096
        x = SampledSignal(rng.standard_normal(n), 1.0)
        pt = imf_statistics(x)
        assert pt.energy_density == pytest.approx(1.0, abs=3.0 / np.sqrt(n))

    def test_dc_signal_rejected(self):
        with pytest.raises(PeriodUndefinedError):
            imf_statistics(SampledSignal(np.full(64, 2.0), 8.0))

    def test_too_short(self):
        with pytest.raises(ValueError):
            imf_statistics(SampledSignal(np.array([1.0, -1.0, 1.0, -1.0]), 1.0))


@pytest.fixture(scope="module")
def band():
    return white_noise_band(4096, Variant.EMD, trials=50, seed=0)


class TestWhiteNoiseBand:

    def test_determinism(self, band):
        again = white_noise_band(4096, Variant.EMD, trials=50, seed=0)
        np.testing.assert_array_equal(band.period_grid, again.period_grid)
        np.testing.assert_array_equal(band.lower_5th, again.lower_5th)
        np.testing.assert_array_equal(band.upper_95th, again.upper_95th)

    def test_percentile_ordering(self, band):
        assert np.all(band.lower_5th <= band.upper_95th)
        assert np.all(np.diff(band.period_grid) > 0)

    def test_energy_scaling_law(self, band):
        # Energy density times period stays roughly constant for noise
        # components: the log-log slope of energy vs period is near -1.
        log_t = np.log2(band.period_grid)
        log_e = np.log2((band.lower_5th + band.upper_95th) / 2)
        slope = np.polyfit(log_t, log_e, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.3)

    def test_band_converges_with_trials(self):
        a = white_noise_band(2048, Variant.EMD, trials=50, seed=0)
        b = white_noise_band(2048, Variant.EMD, trials=200, seed=0)
        shared = min(a.period_grid.size, b.period_grid.size)
        # Compare on the first few shared octaves where both are dense.
        for k in range(min(4, shared)):
            assert b.upper_95th[k] == pytest.approx(a.upper_95th[k], rel=0.2)

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            white_noise_band(1024, trials=10)

    @pytest.mark.parametrize("length", [2, 5, 7])
    def test_too_short_rejected_before_any_trial(self, monkeypatch, length):
        # imf_statistics needs 8 samples, so no trial below that can count.
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("emdkit.significance._decompose_variant", no_trial)
        with pytest.raises(ValueError, match=f"at least 8 samples, got {length}$"):
            white_noise_band(length, trials=50)

    def test_shortest_length_accepted(self):
        band = white_noise_band(8, trials=50)
        assert band.noise_length == 8 and band.ensemble_size == 50


def _band_bytes(band):
    return b"".join(a.tobytes() for a in (band.period_grid, band.lower_5th, band.upper_95th))


class TestForkedBand:
    # 50 trials at 512 samples make 4 lockstep batches of 16 rows, so up
    # to 4 workers share them: batch k goes to process k mod W, where the
    # caller is process 0.

    @pytest.mark.parametrize("decomposer", (Variant.EMD, Variant.EPEMD) + GRAM_SCHMIDT_VARIANTS)
    def test_band_bytes_do_not_depend_on_the_worker_count(self, forks, cpus, decomposer):
        bands = []
        for k in (1, 2, 3):
            cpus(k)
            bands.append(_band_bytes(white_noise_band(512, decomposer, 50, seed=4,
                                                      sample_rate=2.0)))
        assert len(forks) == 0 + 1 + 2
        assert bands[1] == bands[0] and bands[2] == bands[0]
        no_child_left()

    @pytest.mark.parametrize("trial, error", [(31, RankDeficiencyError(7)),
                                              (0, RankDeficiencyError(7)),
                                              (0, KeyboardInterrupt())])
    def test_failed_trial_raises_as_in_a_serial_run(self, monkeypatch, forks, cpus, trial,
                                                    error):
        # Trial 31 falls in batch 1, a helper's at 2 and at 3 CPUs; trial 0
        # in batch 0, this process's own. When this process fails first,
        # the helper stuck on trial 31 is stopped, not waited for.
        def failing_rng(seed, t):
            if t == trial:
                raise error
            if t == 31:
                time.sleep(60)
            return _trial_rng(seed, t)

        monkeypatch.setattr("emdkit.significance._trial_rng", failing_rng)
        raised = []
        start = time.monotonic()
        for k in (1, 2, 3):
            cpus(k)
            with pytest.raises(type(error)) as exc:
                white_noise_band(512, Variant.EMD, 50)
            raised.append((type(exc.value), str(exc.value)))
        assert time.monotonic() - start < 30
        assert len(forks) == 3 and raised == [(type(error), str(error))] * 3
        no_child_left()

    @pytest.mark.parametrize("length, trials, forked", [(10_000, 50, 1), (10_001, 50, 0),
                                                         (128, 64, 0), (128, 65, 1)])
    def test_forks_only_below_the_blas_threshold_and_past_one_batch(
            self, forks, cpus, length, trials, forked):
        # At 128 samples a lockstep batch holds 64 rows.
        cpus(2)
        white_noise_band(length, trials=trials, cfg=SiftConfig(max_imfs=1, max_sift_iterations=1))
        assert len(forks) == forked

    @pytest.mark.parametrize("decomposer", [Variant.EEMD, Variant.MEMD, Variant.EPMEMD])
    def test_unsupported_decomposer_rejected_before_any_fork(self, forks, cpus,
                                                             decomposer):
        cpus(2)
        with pytest.raises(ValueError, match=f"^unsupported decomposer {decomposer}$"):
            white_noise_band(1024, decomposer)
        assert forks == []

    def test_no_fork_while_another_thread_runs(self, forks, cpus):
        cpus(2)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            white_noise_band(512, trials=50, cfg=SiftConfig(max_imfs=1))
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and forks == []


class TestSignificanceTest:
    def test_noise_mostly_inside_own_band(self):
        band = white_noise_band(4096, Variant.EMD, trials=100, seed=0)
        rng = np.random.default_rng(99)
        decisions = []
        for _ in range(5):
            x = SampledSignal(rng.standard_normal(4096), 1.0)
            pts = significance_test(emd(x), band)
            decisions.extend(p.inside_bounds for p in pts if p.inside_bounds is not None)
        assert np.mean(decisions) >= 0.75

    def test_strong_tone_flagged_above_band(self, rng):
        band = white_noise_band(4096, Variant.EMD, trials=100, seed=0)
        t = np.arange(4096)
        x = SampledSignal(10.0 * np.sin(2 * np.pi * t / 100.0)
                          + 0.1 * rng.standard_normal(4096), 1.0)
        pts = significance_test(emd(x), band)
        # The tone carrier (period ~100 samples) must lie outside.
        carrier = [p for p in pts
                   if p.inside_bounds is not None and 50 < p.mean_period < 200]
        assert carrier and any(not p.inside_bounds for p in carrier)

    def test_scaling_invariance(self, rng):
        band = white_noise_band(2048, Variant.EMD, trials=50, seed=0)
        x = SampledSignal(rng.standard_normal(2048), 1.0)
        d1 = emd(x)
        d2 = emd(100.0 * x)
        r1 = significance_test(d1, band)
        r2 = significance_test(d2, band)
        assert [p.inside_bounds for p in r1] == [p.inside_bounds for p in r2]

    def test_trend_component_marked_not_applicable(self):
        band = ConfidenceBand(np.array([1.0, 2.0]), np.array([0.1, 0.1]),
                              np.array([1.0, 1.0]), 50, 64)
        from emdkit import Decomposition

        trend = SampledSignal(np.linspace(1.0, 2.0, 64), 8.0)
        d = Decomposition((trend,), trend.with_samples(np.zeros(64)), Variant.EMD)
        pts = significance_test(d, band)
        assert pts[0].inside_bounds is None

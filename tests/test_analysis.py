import math

import numpy as np
import pytest

import maxfilt as mf
from maxfilt.analysis import (Warp, apply_warp, bank_frobenius,
                              diffeo_stability_experiment, estimate_lipschitz,
                              gaussian_bump, band_limited_signal, make_warp,
                              random_bank, sample_point, separation_test,
                              stability_sweep, theil_sen_slope)
from conftest import sign_group


class TestLipschitz:
    def test_upper_estimate_below_frobenius_ceiling(self):
        group = sign_group(3)
        bank = random_bank(group, 40, rng_seed=0)
        report = estimate_lipschitz(group, bank, samples=2000, rng_seed=1)
        assert report.theory_upper == pytest.approx(math.sqrt(40.0), rel=1e-12)
        assert report.upper_est <= math.sqrt(40.0) + 1e-6
        assert 0.0 < report.lower_est <= report.upper_est

    def test_duplicated_bank_scales_by_sqrt_k(self):
        group = sign_group(3)
        bank = random_bank(group, 10, rng_seed=2)
        single = estimate_lipschitz(group, bank, samples=300, rng_seed=3)
        double = estimate_lipschitz(group, bank + bank, samples=300, rng_seed=3)
        assert double.upper_est == pytest.approx(math.sqrt(2) * single.upper_est, rel=1e-9)
        assert double.lower_est == pytest.approx(math.sqrt(2) * single.lower_est, rel=1e-9)

    def test_theory_delta_attached_for_finite_groups(self):
        group = sign_group(3)
        bank = random_bank(group, 8, rng_seed=4)
        report = estimate_lipschitz(group, bank, samples=50, rng_seed=5)
        assert report.theory_delta == pytest.approx(mf.random_bank_parameters(2, 3)[1])

    def test_lower_positive_at_bank_size_64(self):
        group = sign_group(3)
        for seed in range(5):
            bank = random_bank(group, 64, rng_seed=seed)
            report = estimate_lipschitz(group, bank, samples=500, rng_seed=100 + seed)
            assert report.lower_est > 0.0

    def test_empty_bank_rejected(self):
        with pytest.raises(mf.ValidationError):
            estimate_lipschitz(sign_group(2), [], samples=10, rng_seed=0)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        group = mf.CyclicShift(4)
        with pytest.raises(mf.ValidationError, match="samples"):
            estimate_lipschitz(group, random_bank(group, 2, rng_seed=0), samples, rng_seed=0)


class TestSeparation:
    def test_negative_trials_rejected(self):
        group = mf.CyclicShift(4)
        bank = random_bank(group, 2, rng_seed=0)
        with pytest.raises(mf.ValidationError, match="trials"):
            separation_test(group, bank, trials=-5, rng_seed=0)
        report = separation_test(group, bank, trials=0, rng_seed=0)
        assert (report.checked, report.violations) == (0, 0)

    def test_cyclic_with_double_dimension_bank(self):
        group = mf.CyclicShift(4)
        bank = random_bank(group, 8, rng_seed=6)
        report = separation_test(group, bank, trials=2000, rng_seed=7)
        assert report.violations == 0
        assert report.checked > 1900

    def test_single_template_fails_to_separate(self):
        # tie the single sorted template against two sorted vectors with equal
        # projection: distinct orbits, identical feature
        group = mf.FullPermutation(3)
        z = random_bank(group, 1, rng_seed=8)[0]
        sz = np.sort(z.vector)[::-1]
        x = np.array([3.0, 2.0, 1.0])
        w = np.array([sz[1], -sz[0], 0.0])          # orthogonal to sz
        y = x + 0.1 * w
        assert np.all(np.diff(y) < 0)               # still strictly sorted
        assert mf.quotient_distance(group, x, y) > 1e-6
        gap = abs(mf.filter_bank_apply(group, [z], x)[0]
                  - mf.filter_bank_apply(group, [z], y)[0])
        assert gap <= 1e-9

    def test_same_orbit_features_collapse(self):
        group = mf.CyclicShift(6)
        bank = random_bank(group, 5, rng_seed=9)
        rng = np.random.default_rng(10)
        for _ in range(25):
            x = rng.standard_normal(6)
            gx = np.roll(x, int(rng.integers(6)))
            gap = np.max(np.abs(mf.filter_bank_apply(group, bank, x)
                                - mf.filter_bank_apply(group, bank, gx)))
            assert gap <= 1e-9


class TestWarp:
    def test_target_slope_hit_exactly_on_grid(self):
        warp = make_warp(grid=128, target_slope=0.3, n_modes=3, rng_seed=0)
        assert warp.slope() == pytest.approx(0.3, rel=1e-12)

    def test_integer_shift_is_exact_roll(self):
        f = np.random.default_rng(1).standard_normal(64)
        warp = Warp(grid=64, offset=5.0)
        np.testing.assert_array_equal(apply_warp(f, warp), np.roll(f, 5))

    def test_interpolation_matches_manual(self):
        f = np.array([0.0, 1.0, 2.0, 3.0])
        warp = Warp(grid=4, offset=0.5)
        # midpoints between circular neighbors: f(x - 1/2)
        np.testing.assert_allclose(apply_warp(f, warp),
                                   [1.5, 0.5, 1.5, 2.5], atol=1e-12)


class TestStability:
    def test_pure_integer_shift_gap_zero(self):
        grid = 128
        h = gaussian_bump(grid, width=4.0)
        f = band_limited_signal(grid, max_freq=8, rng_seed=2)
        report = diffeo_stability_experiment(h, f, Warp(grid=grid, offset=7.0), grid)
        assert report.distortion_size == 0.0
        assert report.filter_gap <= 1e-6 * np.linalg.norm(h) * np.linalg.norm(f)
        assert report.ratio == 0.0

    def test_zero_warp_gap_zero(self):
        grid = 64
        h = gaussian_bump(grid, width=3.0)
        f = band_limited_signal(grid, max_freq=6, rng_seed=3)
        report = diffeo_stability_experiment(h, f, Warp(grid=grid), grid)
        assert report.filter_gap == 0.0

    def test_slope_cap_enforced(self):
        grid = 64
        h = gaussian_bump(grid, width=3.0)
        f = band_limited_signal(grid, max_freq=6, rng_seed=4)
        warp = make_warp(grid, target_slope=0.7, n_modes=2, rng_seed=5)
        with pytest.raises(mf.ValidationError):
            diffeo_stability_experiment(h, f, warp, grid)

    def test_sweep_shows_no_growth_trend(self):
        grid = 256
        h = gaussian_bump(grid, width=6.0)
        slopes = list(np.linspace(0.01, 0.5, 20))
        sweep = stability_sweep(h, grid, slopes, n_modes=3, rng_seed=6)
        assert sweep["trend_slope"] <= 0.1
        for report in sweep["reports"]:
            assert report.ratio >= 0.0 and math.isfinite(report.ratio)


class TestHelpers:
    def test_theil_sen_recovers_line(self):
        xs = np.arange(10.0)
        ys = 3.0 * xs + 1.0
        assert theil_sen_slope(xs, ys) == pytest.approx(3.0)

    def test_bank_frobenius(self):
        group = mf.CyclicShift(5)
        bank = random_bank(group, 9, rng_seed=11)
        assert bank_frobenius(bank) == pytest.approx(3.0, rel=1e-12)

    def test_sample_point_shapes(self):
        rng = np.random.default_rng(12)
        assert sample_point(mf.LeftOrthogonal(2, 7), rng).shape == (2, 7)
        assert sample_point(mf.SlidingWindowShift(3, 4, 5), rng).shape == (3, 4, 5)
        assert np.iscomplexobj(sample_point(mf.PhaseCircle(4), rng))

import math

import numpy as np
import pytest

import maxfilt as mf
from maxfilt import analysis
from maxfilt.analysis import (Warp, apply_warp, bank_frobenius,
                              diffeo_stability_experiment, estimate_lipschitz,
                              gaussian_bump, band_limited_signal, make_warp,
                              random_bank, sample_point, separation_test,
                              stability_sweep, theil_sen_slope)
from conftest import permutation_matrices, sign_group


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

    @staticmethod
    def per_pair_extremes(group, bank, samples, rng_seed):
        """The ratios one pair at a time, in draw order, each block's
        distances and features taken as the estimator takes them."""
        rng = np.random.default_rng(rng_seed)
        lower, upper, argmin_pair, argmax_pair, used = math.inf, -math.inf, None, None, 0
        for xs, ys in analysis._pair_blocks(group, samples, rng):
            dists = mf.quotient_distances(group, xs, ys)
            kept = np.flatnonzero(dists > 1e-8)
            if not len(kept):
                continue
            feats = mf.bank_values(group, bank, [xs[i] for i in kept] + [ys[i] for i in kept])
            for j, i in enumerate(kept):
                used += 1
                ratio = float(np.linalg.norm(feats[j] - feats[len(kept) + j])) / float(dists[i])
                if ratio < lower:
                    lower, argmin_pair = ratio, (xs[i], ys[i])
                if ratio > upper:
                    upper, argmax_pair = ratio, (xs[i], ys[i])
        return lower, upper, used, argmin_pair, argmax_pair

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("group, templates, samples", [
        (mf.CyclicShift(256), 64, 100), (mf.FullPermutation(8), 12, 60),
        (mf.SignFlips(5), 8, 60), (mf.FullOrthogonal(3), 4, 40),
        (mf.ColumnPermutation(2, 4), 6, 40), (mf.ShiftAndConjugate(6), 8, 40),
        (mf.SlidingWindowShift(2, 3, 8), 5, 40)], ids=lambda v: getattr(v, "kind", None))
    def test_extremes_match_a_per_pair_loop(self, group, templates, samples, seed):
        bank = random_bank(group, templates, rng_seed=seed)
        report = estimate_lipschitz(group, bank, samples, rng_seed=50 + seed)
        lower, upper, used, argmin_pair, argmax_pair = self.per_pair_extremes(
            group, bank, samples, 50 + seed)
        assert (repr(report.lower_est), repr(report.upper_est), report.samples) == \
            (repr(lower), repr(upper), used)
        for got, want in ((report.argmin_pair, argmin_pair), (report.argmax_pair, argmax_pair)):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_first_extremes_across_blocks(self, monkeypatch):
        # Three pairs drawn over and over, two to a block: every ratio recurs
        # in later blocks, and the report names the first draw of each extreme.
        # Each recurrence is scaled by a power of two, which tags its draws
        # and leaves every ratio's bits unchanged.
        group = mf.CyclicShift(8)
        bank = random_bank(group, 3, rng_seed=0)
        base = [sample_point(group, np.random.default_rng(s)) for s in range(6)]
        drawn = []

        def cycling_draw(group, lead, rng):
            for _ in range(math.prod(lead)):
                drawn.append(base[len(drawn) % 6] * 2.0 ** (len(drawn) // 6))
            return np.reshape(drawn[len(drawn) - math.prod(lead):], lead + group.shape)

        def draw_indices(*pairs):
            return [next(k for k, p in enumerate(drawn) if np.array_equal(p, x))
                    for x, _ in pairs]
        monkeypatch.setattr(analysis, "_standard_normal", cycling_draw)
        monkeypatch.setattr(analysis, "_PAIR_BLOCK", 4 * group.dim)
        report = estimate_lipschitz(group, bank, 9, rng_seed=0)
        got = draw_indices(report.argmin_pair, report.argmax_pair)
        drawn.clear()
        lower, upper, used, argmin_pair, argmax_pair = self.per_pair_extremes(group, bank, 9, 0)
        assert got == draw_indices(argmin_pair, argmax_pair)
        assert max(got) < 6 and report.samples == used == 9
        assert (report.lower_est, report.upper_est) == (lower, upper)

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


def reference_separation_test(group, bank, trials, rng_seed):
    """separation_test as it was before pairs were decided early: the exact
    distance of every pair and all the bank's features of every pair with
    d > 1e-6, with pairs drawn in the same blocks and order, a point at a
    time through ``analysis._standard_normal`` (where tests patch the draw)."""
    if trials < 0:
        raise mf.ValidationError(f"trials must be non-negative, got {trials}")
    rng = np.random.default_rng(rng_seed)
    report = analysis.SeparationReport(trials=trials, checked=0, violations=0)
    block = max(1, analysis._PAIR_BLOCK // (2 * group.dim))
    for start in range(0, trials, block):
        pairs = [(analysis._standard_normal(group, (), rng),
                  analysis._standard_normal(group, (), rng))
                 for _ in range(min(block, trials - start))]
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        kept = np.flatnonzero(mf.quotient_distances(group, xs, ys) > 1e-6)
        if not len(kept):
            continue
        feats = mf.bank_values(group, bank, [xs[i] for i in kept] + [ys[i] for i in kept])
        for j, i in enumerate(kept):
            report.checked += 1
            gap = float(np.max(np.abs(feats[j] - feats[len(kept) + j])))
            if gap <= report.threshold:
                report.violations += 1
                if len(report.violating_pairs) < 8:
                    report.violating_pairs.append((xs[i], ys[i]))
    return report


KINDS = {
    "enumerated": mf.Enumerated(tuple(permutation_matrices(3))),
    "cyclic": mf.CyclicShift(6),
    "perm": mf.FullPermutation(5),
    "signedperm": mf.SignedPermutation(4),
    "signflips": mf.SignFlips(5),
    "orth": mf.FullOrthogonal(3),
    "leftorth": mf.LeftOrthogonal(2, 4),
    "colperm": mf.ColumnPermutation(2, 4),
    "phase": mf.PhaseCircle(3),
    "shiftconj": mf.ShiftAndConjugate(5),
    "patchperm": mf.PatchPermutation(((2, 0), (4, 1, 3), (5,))),
    "window": mf.SlidingWindowShift(2, 2, 5),
}


def assert_same_separation(group, bank, trials, rng_seed):
    got = separation_test(group, bank, trials, rng_seed)
    want = reference_separation_test(group, bank, trials, rng_seed)
    assert (got.checked, got.violations) == (want.checked, want.violations)
    assert got.to_dict() == want.to_dict()
    assert len(got.violating_pairs) == len(want.violating_pairs)
    for (gx, gy), (wx, wy) in zip(got.violating_pairs, want.violating_pairs):
        assert np.array_equal(gx, wx) and np.array_equal(gy, wy)
    return want


def vectors(bank):
    return [t.vector for t in bank]


def point_by_point(group, rng):
    """A point drawn as one call per part: its real parts, then its
    imaginary parts."""
    x = rng.standard_normal(group.shape)
    return x + 1j * rng.standard_normal(group.shape) if group.dtype is complex else x


class TestPairBlocks:
    """Each block of pairs is one draw, equal to its points drawn one at a time."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_blocks_repeat_point_draws(self, kind, monkeypatch):
        # Blocks of 3, 3 and 1 pairs, and sample_point, against the per-point draw.
        group = KINDS[kind]
        monkeypatch.setattr(analysis, "_PAIR_BLOCK", 6 * group.dim)
        block_rng, point_rng, sample_rng = (np.random.default_rng(60) for _ in range(3))
        blocks = list(analysis._pair_blocks(group, 7, block_rng))
        assert [(len(X), len(Y)) for X, Y in blocks] == [(3, 3), (3, 3), (1, 1)]
        for X, Y in blocks:
            for pair in zip(X, Y):
                for got in pair:
                    want = point_by_point(group, point_rng)
                    for x in (got, sample_point(group, sample_rng)):
                        assert x.dtype == want.dtype and np.array_equal(x, want)
        after = [rng.standard_normal(5) for rng in (block_rng, point_rng, sample_rng)]
        assert np.array_equal(after[0], after[1]) and np.array_equal(after[2], after[1])

    @pytest.mark.parametrize("kind", ["cyclic", "phase", "window"])
    def test_reported_pairs_are_copies(self, kind, monkeypatch):
        group = KINDS[kind]
        blocks, pair_blocks = [], analysis._pair_blocks

        def recorded_blocks(*args):
            for X, Y in pair_blocks(*args):
                blocks.extend((X, Y))
                yield X, Y

        monkeypatch.setattr(analysis, "_pair_blocks", recorded_blocks)
        lip = estimate_lipschitz(group, random_bank(group, 4, 62), 40, rng_seed=63)
        sep = separation_test(group, [np.zeros(group.shape)] * 2, 40, rng_seed=64)
        kept = [*lip.argmin_pair, *lip.argmax_pair] + [a for p in sep.violating_pairs for a in p]
        assert len(kept) == 4 + 2 * 8 and len(blocks) == 4
        assert not any(np.shares_memory(a, B) for a in kept for B in blocks)


class TestCountRule:
    """Counts are integers at or above their floor; anything else is a
    ValidationError that names the setting."""

    @pytest.mark.parametrize("trials", [True, 2.5, -1, "3"])
    def test_trials(self, trials):
        group = mf.CyclicShift(4)
        with pytest.raises(mf.ValidationError, match="trials must be a non-negative integer"):
            separation_test(group, random_bank(group, 2, rng_seed=0), trials, rng_seed=0)

    @pytest.mark.parametrize("samples", [True, 2.5, 0, np.float64(3.0)])
    def test_samples(self, samples):
        group = mf.CyclicShift(4)
        with pytest.raises(mf.ValidationError, match="samples must be a positive integer"):
            estimate_lipschitz(group, random_bank(group, 2, rng_seed=0), samples, rng_seed=0)

    @pytest.mark.parametrize("n", [True, 2.5, -1])
    def test_bank_size(self, n):
        with pytest.raises(mf.ValidationError, match="n must be a non-negative integer"):
            random_bank(mf.CyclicShift(4), n, 0)

    # The same rule for the package's other counts and sizes.
    CALLS = {
        "coding-n": ("n", lambda v: mf.make_color_coding(v, 1, 0)),
        "coding-k": ("k", lambda v: mf.make_color_coding(4, v, 0)),
        "sphere-n": ("n", lambda v: mf.random_sphere_templates(v, 3, 0)),
        "sphere-d": ("d", lambda v: mf.random_sphere_templates(2, v, 0)),
        "uniformity-k": ("k", lambda v: mf.projective_uniformity_estimate(np.eye(3), v, 5, 0)),
        "uniformity-probes": ("num_probes",
                              lambda v: mf.projective_uniformity_estimate(np.eye(3), 1, v, 0)),
        "indicator-grid": ("grid", lambda v: mf.indicator_templates([[0]], grid=v)),
        "patch-side": ("side", lambda v: mf.PatchPermutation.square(v, (4, 4))),
    }

    @pytest.mark.parametrize("value", [True, 2.0, 8.7, 0])
    @pytest.mark.parametrize("call", CALLS.values(), ids=list(CALLS))
    def test_other_counts(self, call, value):
        name, run = call
        with pytest.raises(mf.ValidationError,
                           match=f"^{name} must be a positive integer, got {value!r}$"):
            run(value)

    def test_numpy_integers_count(self):
        group = mf.CyclicShift(4)
        bank = random_bank(group, np.int64(2), 0)
        assert len(bank) == 2
        report = separation_test(group, bank, np.int32(5), rng_seed=1)
        assert report.to_dict()["trials"] == 5 and type(report.trials) is int
        assert estimate_lipschitz(group, bank, np.int64(5), rng_seed=1).samples <= 5

    def test_empty_bank_is_checked_before_the_count(self):
        with pytest.raises(mf.ValidationError, match="filter bank is empty"):
            estimate_lipschitz(mf.CyclicShift(4), [], samples=0, rng_seed=0)

    def test_empty_bank_is_checked_at_zero_trials(self):
        with pytest.raises(mf.ValidationError, match="filter bank is empty"):
            separation_test(mf.CyclicShift(4), [], trials=0, rng_seed=0)


class TestSeparationEarlyDecisions:
    """separation_test against the full evaluation it replaced, on every kind."""

    @pytest.mark.parametrize("trials", [0, 1, 50])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_random_banks(self, kind, trials):
        group = KINDS[kind]
        for k, seed in ((1, 0), (3, 1), (2 * group.dim, 2)):
            assert_same_separation(group, random_bank(group, k, seed), trials, 10 + seed)

    @pytest.mark.parametrize("trials", [0, 1, 50])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_planted_collisions(self, kind, trials):
        group = KINDS[kind]
        # An all-zero bank: every checked pair is a violation.
        want = assert_same_separation(group, [np.zeros(group.shape)] * 4, trials, 20)
        assert want.violations == want.checked == trials
        assert len(want.violating_pairs) == min(8, trials)
        # One zero template among random ones.
        bank = [np.zeros(group.shape)] + vectors(random_bank(group, 3, 21))
        assert_same_separation(group, bank, trials, 22)

    @pytest.mark.parametrize("trials", [0, 1, 50])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_gaps_straddling_the_threshold(self, kind, trials):
        # Unit pairs give gaps of about the bank's scale: on both sides of 1e-9.
        group = KINDS[kind]
        bank = vectors(random_bank(group, 2 * group.dim, 30))
        for scale in (1e-10, 3e-10, 1e-9, 3e-9):
            want = assert_same_separation(group, [scale * z for z in bank], trials, 31)
            if trials == 50 and scale == 1e-9:
                assert 0 < want.violations < want.checked

    @pytest.mark.parametrize("trials", [0, 1, 50])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_distances_straddling_1e_6(self, kind, trials, monkeypatch):
        # Draws scaled (by about 3e-7) so that the median pair distance is 1e-6.
        group = KINDS[kind]
        rng = np.random.default_rng(40)
        pairs = [(sample_point(group, rng), sample_point(group, rng)) for _ in range(64)]
        scale = 1e-6 / np.median(mf.quotient_distances(group, *zip(*pairs)))
        draw = analysis._standard_normal
        monkeypatch.setattr(analysis, "_standard_normal",
                            lambda g, lead, r: scale * draw(g, lead, r))
        for k, seed in ((1, 41), (2 * group.dim, 42)):
            want = assert_same_separation(group, random_bank(group, k, seed), trials, seed)
            if trials == 50:
                assert 0 < want.checked < trials

    def test_gaps_within_the_margin_decide_nothing_early(self, monkeypatch):
        # With z = e1 the feature is max(x), and these gaps are exact: each
        # passes its threshold (1e-9, then ‖z‖·1e-6) by less than an ulp of
        # 1, far less than the rounding margin, so the first pair must take
        # all the bank's features and the second its exact distance.
        group, ulp = mf.FullPermutation(3), np.spacing(1.0)
        x = np.array([1.0, 0.0, -1.0])
        y_gap = np.array([1.0 + np.ceil(1e-9 / ulp) * ulp, 1e-5, -1.0])
        y_dist = np.array([1.0 + np.ceil(1e-6 / ulp) * ulp, 0.0, -1.0])
        rows = count_rows(monkeypatch)
        draws = iter([x, y_gap, x, y_dist])
        monkeypatch.setattr(analysis, "_standard_normal", lambda g, lead, r: np.reshape(
            [next(draws) for _ in range(math.prod(lead))], lead + g.shape))
        got = separation_test(group, [np.eye(3)[0]], trials=2, rng_seed=0)
        assert rows == {"distances": [2], "features": [2]}
        draws = iter([x, y_gap, x, y_dist])
        want = reference_separation_test(group, [np.eye(3)[0]], trials=2, rng_seed=0)
        assert (got.checked, got.violations) == (want.checked, want.violations) == (2, 0)

    def test_few_templates_and_no_distances_on_random_pairs(self, monkeypatch):
        group = mf.ColumnPermutation(3, 48)
        bank = random_bank(group, 4, rng_seed=50)
        rows, evaluations = count_rows(monkeypatch), []
        evaluate = mf.FilterBank.evaluate

        def counted_evaluate(self, X, nx):
            out = evaluate(self, X, nx)
            evaluations.append(out[0].shape)        # (inputs, templates)
            return out

        monkeypatch.setattr(mf.FilterBank, "evaluate", counted_evaluate)
        report = separation_test(group, bank, trials=6, rng_seed=51)
        assert (report.checked, report.violations) == (6, 0)
        assert sum(rows["distances"]) == 0
        assert evaluations and (12, 4) not in evaluations
        assert evaluations[0] == (12, 1)

    def test_zero_bank_takes_the_exact_path(self, monkeypatch):
        group = mf.ColumnPermutation(2, 4)
        rows = count_rows(monkeypatch)
        report = separation_test(group, [np.zeros(group.shape)] * 5, trials=30, rng_seed=52)
        assert report.checked == report.violations == 30
        assert rows == {"distances": [30], "features": [60]}


def count_rows(monkeypatch):
    """Record the rows of each ``quotient_distances`` call and each
    evaluation of all the bank's features (``FilterBank.values``) that
    ``separation_test`` makes."""
    rows = {"distances": [], "features": []}
    quotient_distances, values = analysis.quotient_distances, mf.FilterBank.values

    def counted_distances(group, X, Y):
        rows["distances"].append(len(X))
        return quotient_distances(group, X, Y)

    def counted_values(self, xs):
        rows["features"].append(len(xs))
        return values(self, xs)

    monkeypatch.setattr(analysis, "quotient_distances", counted_distances)
    monkeypatch.setattr(mf.FilterBank, "values", counted_values)
    return rows


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

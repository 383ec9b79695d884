import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e
from scipy import special, stats

import maxfilt as mf
from maxfilt.templates import (_P_LOW, _QA, _QB, _QC, _QD, _half_grid_quantiles,
                               _hermite_grid, banded_circulant, gmm_classifier,
                               hermite_value, indicator_signal, normal_quantile,
                               sorted_gaussian_kernel, thompson_distance,
                               unit_sphere_vectors)


def scalar_quantile_core(p):
    """Reference: Acklam's approximation plus one Halley step, one Python
    float at a time with ``math`` functions."""
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        num = ((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5]
        den = (((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0
        x = num / den
    else:
        q = p - 0.5
        r = q * q
        num = ((((_QA[0] * r + _QA[1]) * r + _QA[2]) * r + _QA[3]) * r + _QA[4]) * r + _QA[5]
        den = ((((_QB[0] * r + _QB[1]) * r + _QB[2]) * r + _QB[3]) * r + _QB[4]) * r + 1.0
        x = q * num / den
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def scalar_normal_quantile(ps):
    """Reference: the quantile of each entry by the scalar core, mirrored
    around 1/2."""
    out = []
    for p in np.asarray(ps, dtype=float).tolist():
        if p == 0.5:
            out.append(0.0)
        elif p > 0.5:
            out.append(-scalar_quantile_core(1.0 - p))
        else:
            out.append(scalar_quantile_core(p))
    return np.array(out)


def reference_hermite_grid(degree, d, u):
    """The cell averages of p_n(Q(y)) as _hermite_grid forms them, from the
    half-grid quantiles u given by the caller."""
    if degree == 0:
        return np.ones(d)
    half = (d + 1) // 2
    g = np.zeros(half + 1)
    g[1:] = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * hermite_value(degree - 1, u)
    vals = d * (g[:-1] - g[1:])
    out = np.empty(d)
    out[:half] = vals
    out[d - half:] = ((-1.0) ** degree) * vals[::-1]
    if d % 2 == 1:
        out[d // 2] = 2.0 * d * g[half - 1] if degree % 2 == 0 else 0.0
    return out


def assert_same_bits(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestNormalQuantile:
    def test_matches_reference_to_1e12(self):
        ps = np.concatenate([np.geomspace(1e-9, 0.5, 3000),
                             1.0 - np.geomspace(1e-9, 0.499, 3000)])
        err = np.max(np.abs(normal_quantile(ps) - special.ndtri(ps)))
        assert err <= 1e-12

    def test_antisymmetry(self):
        ps = np.linspace(0.01, 0.49, 50)
        np.testing.assert_allclose(normal_quantile(1.0 - ps), -normal_quantile(ps),
                                   atol=2e-15)
        assert normal_quantile(0.5) == 0.0

    def test_domain_errors(self):
        for bad in (0.0, 1.0, float("nan"), [0.3, float("nan")], np.array([[0.2], [np.nan]])):
            with pytest.raises(mf.ValidationError):
                normal_quantile(bad)

    def test_bit_identical_to_scalar_reference(self):
        tails = np.geomspace(1e-300, 0.5, 4000)
        near_edges = []
        for edge in (_P_LOW, 1.0 - _P_LOW):
            below = above = edge
            for _ in range(16):
                below = np.nextafter(below, 0.0)
                above = np.nextafter(above, 1.0)
                near_edges += [below, above]
            near_edges.append(edge)
        dyadic = [np.arange(1, 4 ** level) / 4 ** level for level in range(1, 9)]
        lower = np.concatenate([tails, near_edges, [0.5]] + dyadic)
        mirrored = 1.0 - lower[1.0 - lower < 1.0]
        ps = np.concatenate([lower, mirrored])
        assert_same_bits(normal_quantile(ps), scalar_normal_quantile(ps))
        grid = np.array([[0.1, 0.9], [0.5, 1e-20]])
        assert_same_bits(normal_quantile(grid), scalar_normal_quantile(grid.ravel()).reshape(2, 2))

    def test_scalar_in_python_float_out(self):
        for p in (1e-300, _P_LOW, 0.3, 0.5, 0.75, 1.0 - 1e-12):
            q = normal_quantile(p)
            assert type(q) is float
            assert_same_bits(q, scalar_normal_quantile([p])[0])


class TestHermite:
    def test_low_degree_values(self):
        assert [hermite_value(n, 2.0) for n in range(4)] == [1.0, 2.0, 3.0, 2.0]

    def test_degree_four_at_zero(self):
        # p4 = x^4 - 6 x^2 + 3
        assert hermite_value(4, 0.0) == 3.0

    def test_matches_numpy_hermite_e(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-4, 4, size=20)
        for n in range(9):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            np.testing.assert_allclose(hermite_value(n, xs),
                                       hermite_e.hermeval(xs, coeffs), rtol=1e-12)

    def test_orthogonality_under_gaussian_weight(self):
        nodes, weights = hermite_e.hermegauss(24)
        norm = 1.0 / math.sqrt(2.0 * math.pi)
        for m in range(6):
            for n in range(6):
                integral = norm * np.sum(weights * hermite_value(m, nodes)
                                         * hermite_value(n, nodes))
                expected = math.factorial(n) if m == n else 0.0
                assert abs(integral - expected) <= 1e-8 * max(1.0, expected)

    def test_antiderivative_identity(self):
        # integral_0^x p_{n+1}(Q(y)) dy = -phi(Q(x)) p_n(Q(x))
        m = 200_000
        ys = (np.arange(m) + 0.5) / m
        for n in range(4):
            vals = hermite_value(n + 1, normal_quantile(ys))
            cumulative = np.cumsum(vals) / m
            for x_idx in (m // 4, m // 2, (3 * m) // 4):
                x = (x_idx + 0.5) / m
                qx = normal_quantile(x)
                expected = -math.exp(-0.5 * qx * qx) / math.sqrt(2 * math.pi) \
                    * hermite_value(n, qx)
                assert cumulative[x_idx] == pytest.approx(expected, abs=5e-4)


class TestHermiteTemplate:
    def test_degree_zero_is_all_ones(self):
        t = mf.hermite_template(mf.HermiteSpec(degree=0, length=7))
        np.testing.assert_array_equal(t.vector, np.ones(7))

    def test_degree_one_small_grid(self):
        # Cell averages of p_1(Q) = Q over thirds of [0, 1]: the integral of
        # Q(y) over [0, 1/3] is -phi(Q(1/3)), so the end cells are +-3 phi(Q(1/3)).
        t = mf.hermite_template(mf.HermiteSpec(degree=1, length=3))
        q = normal_quantile(1.0 / 3.0)
        end = 3.0 * math.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(t.vector, [-end, 0.0, end], rtol=1e-14, atol=0.0)
        assert t.vector[1] == 0.0

    def test_middle_entry_exactly_zero(self):
        t = mf.hermite_template(mf.HermiteSpec(degree=1, length=9))
        assert t.vector[4] == 0.0

    def test_degree_cap(self):
        with pytest.raises(mf.ValidationError):
            mf.hermite_template(mf.HermiteSpec(degree=17, length=8))

    def test_integer_degree_and_length_required(self):
        for degree, length in ((2, 8.0), (2.5, 8), (2.0, 8), (2, "8"), (True, 8)):
            with pytest.raises(mf.ValidationError):
                mf.HermiteSpec(degree, length)
        spec = mf.HermiteSpec(np.int64(2), np.int32(8))
        assert_same_bits(mf.hermite_template(spec).vector, _hermite_grid(2, 8))

    def test_cached_grid_read_only_template_a_copy(self):
        # texture_features reads the shared cached grid; templates own theirs.
        for degree in (0, 3):
            grid = _hermite_grid(degree, 16)
            assert not grid.flags.writeable
            with pytest.raises(ValueError):
                grid[0] = 1.0
            t = mf.hermite_template(mf.HermiteSpec(degree=degree, length=16))
            t.vector[0] += 1.0
            assert t.vector[0] != grid[0]
        # One quantile table per length, shared by every degree.
        u = _half_grid_quantiles(16)
        assert not u.flags.writeable
        assert _half_grid_quantiles(16) is u

    def test_grids_match_scalar_reference_quantiles(self):
        lengths = [1, 2, 3, 7, 10, 999, 1001] + [4 ** level for level in range(9)]
        for d in lengths:
            half = (d + 1) // 2
            u = scalar_normal_quantile(np.minimum(np.arange(1, half + 1) / d, 0.5))
            for degree in range(17):
                assert_same_bits(_hermite_grid(degree, d), reference_hermite_grid(degree, d, u))

    def test_parity_symmetry(self):
        for degree in (2, 3):
            v = mf.hermite_template(mf.HermiteSpec(degree=degree, length=10)).vector
            sign = (-1.0) ** degree
            np.testing.assert_array_equal(v, sign * v[::-1])


class TestKernelEigenRelation:
    def test_residuals_small_and_ordered(self):
        # Calibrated bounds for the midpoint-rule discretization at M = 2000; the
        # exact eigen-relation is continuous, so residuals shrink with M
        # (checked below) but grow with the degree's edge weight.
        _, op = sorted_gaussian_kernel(2000)
        bounds = [0.002, 0.006, 0.02, 0.03, 0.05, 0.06]
        for n, bound in enumerate(bounds):
            v = _hermite_grid(n, 2000)
            resid = np.linalg.norm(op @ v - v / (n + 1)) / np.linalg.norm(v)
            assert resid <= bound

    def test_residual_decreases_with_grid(self):
        res = []
        for m in (1000, 2000, 4000):
            _, op = sorted_gaussian_kernel(m)
            v = _hermite_grid(5, m)
            res.append(np.linalg.norm(op @ v - v / 6.0) / np.linalg.norm(v))
        assert res[2] < res[1] < res[0]


class TestSortedGaussianEigenvectors:
    def test_sample_covariance_matches_discretized_eigenfunctions(self):
        # reduced-size check of the covariance-eigenvector regularity; edge
        # deviations grow with the degree, so the low degrees are pinned
        d, n = 500, 5000
        rng = np.random.default_rng(77)
        draws = rng.standard_normal((n, d))
        draws.sort(axis=1)
        centered = draws - draws.mean(axis=0)
        cov = (centered.T @ centered) / (n - 1)
        _, vecs = np.linalg.eigh(cov)
        vecs = vecs[:, ::-1]
        for k in range(4):
            v = _hermite_grid(k, d)
            align = abs(vecs[:, k] @ v) / (np.linalg.norm(vecs[:, k]) * np.linalg.norm(v))
            assert align >= 0.95


class TestSphereTemplates:
    def test_unit_norms(self):
        bank = mf.random_sphere_templates(64, 5, rng_seed=0)
        for t in bank:
            assert np.linalg.norm(t.vector) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_one_gives_signs(self):
        bank = mf.random_sphere_templates(32, 1, rng_seed=1)
        assert set(np.concatenate([t.vector for t in bank]).tolist()) <= {-1.0, 1.0}

    def test_coordinate_projection_second_moment(self):
        vecs = unit_sphere_vectors(100_000, 10, np.random.default_rng(2))
        second_moment = float(np.mean(vecs[:, 0] ** 2))
        assert second_moment == pytest.approx(0.1, abs=0.01)

    def test_determinism_per_seed(self):
        a = mf.random_sphere_templates(4, 6, rng_seed=9)
        b = mf.random_sphere_templates(4, 6, rng_seed=9)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.vector, tb.vector)

    def test_rotation_invariance_chi_square(self):
        vecs = unit_sphere_vectors(4000, 6, np.random.default_rng(3))
        u1 = np.zeros(6); u1[0] = 1.0
        u2 = np.zeros(6); u2[1] = 1.0
        a, b = vecs @ u1, vecs @ u2
        edges = np.quantile(np.concatenate([a, b]), np.linspace(0, 1, 11))
        edges[0], edges[-1] = -np.inf, np.inf
        oa, _ = np.histogram(a, bins=edges)
        ob, _ = np.histogram(b, bins=edges)
        chi2 = float(np.sum((oa - ob) ** 2 / (oa + ob)))
        pvalue = stats.chi2.sf(chi2, df=len(oa) - 1)
        assert pvalue > 0.001


class TestBankParameters:
    def test_small_case_formula(self):
        n_min, delta = mf.random_bank_parameters(1, 1)
        expected_delta = math.sqrt(math.pi / 128.0 / (2.0 + 3.0 * math.log(4.0)))
        assert delta == pytest.approx(expected_delta, rel=1e-15)
        assert n_min == math.ceil(12.0 * math.log(2.0 / expected_delta + 1.0))

    def test_delta_decreases_in_group_order(self):
        deltas = [mf.random_bank_parameters(m, 4)[1] for m in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_high_precision_recomputation(self):
        import mpmath

        mpmath.mp.dps = 50
        m, d = 2, 3
        delta_hp = mpmath.sqrt(mpmath.pi / (128 * m ** 4)
                               / (2 * d + 3 * mpmath.log(4 * m ** 2)))
        n_hp = mpmath.ceil(12 * m ** 2 * d * mpmath.log(2 / delta_hp + 1))
        n_min, delta = mf.random_bank_parameters(m, d)
        assert delta == pytest.approx(float(delta_hp), rel=1e-14)
        assert n_min == int(n_hp)

    def test_factorial_group_order_does_not_overflow(self):
        import mpmath

        m, d = math.factorial(64), 64
        n_min, delta = mf.random_bank_parameters(m, d)
        with mpmath.workdps(250):
            big = mpmath.mpf(m)
            delta_hp = mpmath.sqrt(mpmath.pi / (128 * big ** 4)
                                   / (2 * d + 3 * mpmath.log(4 * big ** 2)))
            n_hp = mpmath.ceil(12 * big ** 2 * d * mpmath.log(2 / delta_hp + 1))
            assert isinstance(n_min, int)
            assert 0.0 < delta < 1e-180
            assert abs(delta / delta_hp - 1) < 1e-12
            assert abs(n_min / n_hp - 1) < 1e-12


class TestProjectiveUniformity:
    def test_standard_basis_upper_bound(self):
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        est = mf.projective_uniformity_estimate(basis, k=1, num_probes=500, rng_seed=0)
        # 1-D oracle over angles: smallest |<z_i, x>| vanishes on the axes
        thetas = np.linspace(0, 2 * np.pi, 100_000, endpoint=False)
        oracle = np.min(np.minimum(np.abs(np.cos(thetas)), np.abs(np.sin(thetas))))
        assert est <= 2 ** -0.5 + 1e-12
        assert est == pytest.approx(oracle, abs=1e-4)

    def test_top_statistic_bounded_by_norm(self):
        z = np.array([0.6, 0.8])
        est = mf.projective_uniformity_estimate([z, z], k=2, num_probes=100, rng_seed=1)
        assert est <= np.linalg.norm(z) + 1e-12

    def test_duplicates_shift_order_statistic(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(4)
        single = mf.projective_uniformity_estimate([z], k=1, num_probes=200, rng_seed=5)
        double = mf.projective_uniformity_estimate([z, z], k=2, num_probes=200, rng_seed=5)
        assert double == pytest.approx(single, rel=1e-12)


class TestIndicatorTemplates:
    def test_self_score_is_set_size(self):
        sets = [[0, 1], [0, 2]]
        bank = mf.indicator_templates(sets, grid=32)
        for s, t in zip(sets, bank):
            x = indicator_signal(s, 32)
            value = mf.max_filter(mf.CyclicShift(32), t.vector, x).value
            # exhaustive shift oracle
            oracle = max(float(t.vector @ np.roll(x, a)) for a in range(32))
            assert value == pytest.approx(oracle, abs=1e-12)
            assert value == pytest.approx(len(s), abs=1e-12)

    def test_cross_scores_strictly_below(self):
        sets = [[0, 1], [0, 2]]
        bank = mf.indicator_templates(sets, grid=32)
        for i, t in enumerate(bank):
            for j, s in enumerate(sets):
                if i == j:
                    continue
                cross = mf.max_filter(mf.CyclicShift(32), t.vector, indicator_signal(s, 32)).value
                assert cross < len(sets[i]) - 1e-9

    def test_single_cell_structure(self):
        bank = mf.indicator_templates([[1]], grid=16)
        v = bank[0].vector
        assert v[1] == 1.0
        ball = [i for i in range(16) if min(i, 16 - i) <= 3]
        for i in range(16):
            if i == 1:
                continue
            assert v[i] == (-1.0 if i in ball else 0.0)

    def test_oversized_ball_rejected(self):
        with pytest.raises(mf.ValidationError):
            mf.indicator_templates([[0, 7]], grid=16)   # radius 7, ball 21 > 16


class TestThompsonDistance:
    def test_diagonal_example(self):
        assert thompson_distance(np.diag([1.0, 1.0]), np.diag([4.0, 1.0])) == \
            pytest.approx(math.log(4.0), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)); a = a @ a.T + 4 * np.eye(4)
        b = rng.standard_normal((4, 4)); b = b @ b.T + 4 * np.eye(4)
        assert thompson_distance(a, b) == pytest.approx(thompson_distance(b, a), rel=1e-10)

    def test_not_positive_definite_rejected(self):
        with pytest.raises(mf.ValidationError):
            thompson_distance(np.diag([1.0, -1.0]), np.eye(2))


class TestGMMClassifier:
    def test_diagonal_case(self):
        n, c = 32, 1.0
        clf = gmm_classifier(np.eye(n), math.exp(2 * c) * np.eye(n), contrast=c)
        meta = clf.metadata
        k = meta["k"]
        assert k == int(math.floor(math.sqrt(n / 2)))
        assert np.all(clf.template[k:] == 0.0)
        ratio = meta["var_high"] / meta["var_low"]
        assert ratio == pytest.approx(math.exp(2 * c), rel=1e-9)
        assert ratio >= math.exp(c)
        assert meta["theta1"] <= meta["theta2"]

    def test_threshold_order_on_random_banded_instances(self):
        rng = np.random.default_rng(6)
        n = 128
        for _ in range(10):
            a = banded_circulant(n, [2.0, 0.4])
            scale = float(rng.uniform(10.0, 50.0))
            b = banded_circulant(n, [scale * 2.0, scale * 0.3, scale * 0.1])
            clf = gmm_classifier(a, b, contrast=1.0)
            assert clf.metadata["theta1"] <= clf.metadata["theta2"]

    def test_swapped_orientation(self):
        n = 128
        a = 30.0 * np.eye(n)
        b = np.eye(n)
        clf = gmm_classifier(a, b, contrast=1.0)
        assert clf.metadata["swapped"]
        # draws from the dominant (first) component score above threshold
        rng = np.random.default_rng(7)
        draws = math.sqrt(30.0) * rng.standard_normal((500, n))
        preds = clf.predict(draws)
        assert np.mean(preds == "A") > 0.9

    def test_quick_accuracy(self):
        n, c = 256, 3.0
        a = banded_circulant(n, [1.0, 0.2])
        b = math.exp(2 * c) * banded_circulant(n, [1.0, 0.1, 0.05, 0.02])
        assert thompson_distance(a[:11, :11], b[:11, :11]) >= c
        clf = gmm_classifier(a, b, contrast=c)
        rng = np.random.default_rng(8)
        la, lb = np.linalg.cholesky(a), np.linalg.cholesky(b)
        xa = rng.standard_normal((2000, n)) @ la.T
        xb = rng.standard_normal((2000, n)) @ lb.T
        acc = 0.5 * (np.mean(clf.predict(xa) == "A") + np.mean(clf.predict(xb) == "B"))
        assert acc >= 0.9

    def test_contrast_too_low_rejected(self):
        with pytest.raises(mf.ValidationError):
            gmm_classifier(np.eye(32), 1.5 * np.eye(32), contrast=1.0)

    def test_low_contrast_parameter_rejected(self):
        with pytest.raises(mf.ValidationError):
            gmm_classifier(np.eye(32), 4.0 * np.eye(32), contrast=0.5)

    def test_not_circulant_rejected(self):
        m = np.eye(32)
        m[0, 0] = 2.0
        with pytest.raises(mf.ValidationError):
            gmm_classifier(m, 40.0 * np.eye(32), contrast=1.0)

    def test_bandwidth_exceeds_window_rejected(self):
        n = 32                                   # k = 4
        a = banded_circulant(n, [3.0] + [0.1] * 5)   # bandwidth 5 > 4
        with pytest.raises(mf.ValidationError):
            gmm_classifier(a, 40.0 * np.eye(n), contrast=1.0)


class TestSortedGaussianMoments:
    def test_central_order_statistic_means(self):
        # Edge order statistics deviate by O(1) more; the O(1/d) expansion is
        # a statement about the central bulk, tested on the middle 80%.
        d, reps = 1000, 2000
        draws = np.random.default_rng(9).standard_normal((reps, d))
        draws.sort(axis=1)
        emp = draws.mean(axis=0)
        qs = normal_quantile(np.arange(1, d + 1) / (d + 1))
        cut = d // 10
        assert np.max(np.abs(emp - qs)[cut:d - cut]) <= 5.0 / d

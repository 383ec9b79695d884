import dataclasses
import itertools
import math
import os
import re

import numpy as np
import pytest

import maxfilt as mf


class TestCyclic:
    def test_single_spike(self):
        z = np.array([1.0, 0.0, 0.0, 0.0])
        x = np.array([0.0, 0.0, 0.0, 7.0])
        expected = max(float(z @ np.roll(x, a)) for a in range(4))
        assert expected == 7.0
        assert mf.max_filter(mf.CyclicShift(4), z, x).value == pytest.approx(expected, abs=1e-12)

    def test_self_filter_is_norm_squared_with_zero_shift_witness(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(16)
        res = mf.max_filter(mf.CyclicShift(16), x, x)
        assert res.value == pytest.approx(float(x @ x), rel=1e-12)
        assert 0 in res.witnesses

    @pytest.mark.parametrize("n", [8, 37, 256, 4096])
    def test_fft_matches_naive(self, n):
        # The oracle forms every shift's inner product directly.
        rng = np.random.default_rng(n)
        z, x = rng.standard_normal(n), rng.standard_normal(n)
        fast = mf.max_filter(mf.CyclicShift(n), z, x)
        slow = mf.brute_force_max_filter(mf.CyclicShift(n), z, x)
        assert fast.value == pytest.approx(slow.value, abs=1e-9)
        assert fast.witnesses == slow.witnesses

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_cosine_template_reads_spectrum(self, k):
        n = 32
        t = np.arange(n)
        z = np.cos(2 * np.pi * k * t / n)
        rng = np.random.default_rng(k)
        x = rng.standard_normal(n)
        # independent oracle straight from the DFT: the correlation at shift a
        # is Re(e^{2 pi i k a / n} X_k)
        xk = np.sum(x * np.exp(-2j * np.pi * k * t / n))
        expected = max(np.real(np.exp(2j * np.pi * k * a / n) * xk) for a in range(n))
        assert mf.max_filter(mf.CyclicShift(n), z, x).value == pytest.approx(expected, abs=1e-8)

    def test_cosine_template_on_shifted_cosine_gives_half_n_scale(self):
        n, k = 32, 3
        t = np.arange(n)
        z = np.cos(2 * np.pi * k * t / n)
        x = 2.5 * np.cos(2 * np.pi * k * (t - 4) / n)
        xk = abs(np.sum(x * np.exp(-2j * np.pi * k * t / n)))
        assert xk == pytest.approx(2.5 * n / 2, rel=1e-12)
        assert mf.max_filter(mf.CyclicShift(n), z, x).value == pytest.approx(xk, abs=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(mf.DimensionMismatch):
            mf.max_filter(mf.CyclicShift(4), np.zeros(4), np.zeros(5))


class TestSortPermutation:
    def test_top_entry(self):
        res = mf.max_filter(mf.FullPermutation(3), [1.0, 0.0, 0.0], [3.0, 1.0, 2.0])
        expected = max(sum(np.array([1.0, 0, 0]) * np.array([3.0, 1, 2])[list(p)])
                       for p in itertools.permutations(range(3)))
        assert res.value == pytest.approx(expected) == 3.0

    def test_all_ones_gives_sum(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(9)
        res = mf.max_filter(mf.FullPermutation(9), np.ones(9), x)
        assert res.value == pytest.approx(float(x.sum()), rel=1e-12)

    def test_prefix_template_gives_top_two_sum(self):
        z = np.array([1.0, 1.0, 0.0])
        x = np.array([5.0, -1.0, 2.0])
        expected = max(sum(z[i] * x[p[i]] for i in range(3))
                       for p in itertools.permutations(range(3)))
        assert expected == 7.0
        assert mf.max_filter(mf.FullPermutation(3), z, x).value == pytest.approx(expected)

    def test_witness_realizes_value(self):
        rng = np.random.default_rng(2)
        z, x = rng.standard_normal(7), rng.standard_normal(7)
        res = mf.max_filter(mf.FullPermutation(7), z, x)
        perm = res.witnesses[0]
        assert float(z @ x[perm]) == pytest.approx(res.value, rel=1e-12)
        assert sorted(perm) == list(range(7))


class TestSignedPermutation:
    def test_basis_template_gives_sup_norm(self):
        res = mf.max_filter(mf.SignedPermutation(3), [1.0, 0.0, 0.0], [-3.0, 1.0, 2.0])
        assert res.value == pytest.approx(3.0)

    def test_sign_flips_give_one_norm(self):
        res = mf.max_filter(mf.SignFlips(3), np.ones(3), [-1.0, 2.0, -3.0])
        assert res.value == pytest.approx(6.0)

    def test_dim_two_enumeration(self):
        z = np.array([2.0, 1.0])
        x = np.array([-1.0, -4.0])
        best = -np.inf
        for p in itertools.permutations(range(2)):
            for s in itertools.product([-1.0, 1.0], repeat=2):
                best = max(best, sum(z[i] * s[i] * x[p[i]] for i in range(2)))
        assert best == 9.0
        assert mf.max_filter(mf.SignedPermutation(2), z, x).value == pytest.approx(best)

    def test_witness_realizes_value(self):
        rng = np.random.default_rng(4)
        z, x = rng.standard_normal(6), rng.standard_normal(6)
        res = mf.max_filter(mf.SignedPermutation(6), z, x)
        perm, signs = res.witnesses[0]
        assert float(z @ (signs * x[perm])) == pytest.approx(res.value, rel=1e-12)


class TestOrthogonal:
    def test_unit_template(self):
        res = mf.max_filter(mf.FullOrthogonal(3), [1.0, 0.0, 0.0], [1.0, 2.0, 2.0])
        assert res.value == pytest.approx(3.0)

    def test_zero_template(self):
        assert mf.max_filter(mf.FullOrthogonal(3), np.zeros(3), [1.0, 2.0, 2.0]).value == 0.0

    def test_norm_product(self):
        res = mf.max_filter(mf.FullOrthogonal(2), [2.0, 0.0], [0.0, 5.0])
        assert res.value == pytest.approx(10.0)

    def test_witness_is_orthogonal_and_achieves_value(self):
        rng = np.random.default_rng(6)
        z, x = rng.standard_normal(4), rng.standard_normal(4)
        res = mf.max_filter(mf.FullOrthogonal(4), z, x)
        g = res.witnesses[0]
        np.testing.assert_allclose(g.T @ g, np.eye(4), atol=1e-12)
        assert float(z @ (g @ x)) == pytest.approx(res.value, rel=1e-12)


class TestLeftOrthogonal:
    def test_identity_pair(self):
        res = mf.max_filter(mf.LeftOrthogonal(2, 2), np.eye(2), np.eye(2))
        assert res.value == pytest.approx(2.0)

    def test_self_pair_gives_frobenius_squared(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 6))
        res = mf.max_filter(mf.LeftOrthogonal(2, 6), x, x)
        assert res.value == pytest.approx(float(np.sum(x * x)), rel=1e-12)

    def test_nilpotent_product(self):
        z = np.array([[1.0, 0.0], [0.0, 0.0]])
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        res = mf.max_filter(mf.LeftOrthogonal(2, 2), z, x)
        oracle = mf.brute_force_max_filter(mf.LeftOrthogonal(2, 2), z, x,
                                           resolution=10_000)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.value == pytest.approx(oracle.value, abs=1e-5)

    def test_witness_is_orthogonal_and_achieves_value(self):
        rng = np.random.default_rng(9)
        z, x = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        res = mf.max_filter(mf.LeftOrthogonal(3, 5), z, x)
        r = res.witnesses[0]
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-10)
        assert float(np.sum(z * (r @ x))) == pytest.approx(res.value, rel=1e-10)


class TestColumnPermutation:
    def test_shuffled_copy_recovers_frobenius(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 6))
        shuffle = rng.permutation(6)
        z = x[:, shuffle]
        res = mf.max_filter(mf.ColumnPermutation(3, 6), z, x)
        assert res.value == pytest.approx(float(np.sum(x * x)), rel=1e-10)
        # applying the witness to x undoes the shuffle
        np.testing.assert_array_equal(x[:, res.witnesses[0]], z)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_enumeration(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            z = rng.standard_normal((3, n))
            x = rng.standard_normal((3, n))
            best = max(sum(float(z[:, j] @ x[:, p[j]]) for j in range(n))
                       for p in itertools.permutations(range(n)))
            res = mf.max_filter(mf.ColumnPermutation(3, n), z, x)
            assert res.value == pytest.approx(best, abs=1e-9)

    def test_assignment_solver_matches_scipy_at_scale(self):
        from scipy.optimize import linear_sum_assignment
        from maxfilt._assignment import max_profit_assignment

        rng = np.random.default_rng(11)
        for n in (10, 25, 40):
            for _ in range(5):
                profit = rng.standard_normal((n, n)) * rng.uniform(0.1, 50)
                value, col = max_profit_assignment(profit)
                rows, cols = linear_sum_assignment(-profit)
                expected = float(profit[rows, cols].sum())
                assert value == pytest.approx(expected, rel=1e-12)
                assert sorted(col.tolist()) == list(range(n))

    def test_single_row_reduces_to_sorting(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            z = rng.standard_normal((1, 7))
            x = rng.standard_normal((1, 7))
            a = mf.max_filter(mf.ColumnPermutation(1, 7), z, x).value
            b = mf.max_filter(mf.FullPermutation(7), z[0], x[0]).value
            assert a == pytest.approx(b, abs=1e-12)


def scalar_min_cost_assignment(cost):
    """Reference: the same shortest-augmenting-path Hungarian solver indexing
    numpy arrays one scalar at a time."""
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = np.inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col = np.empty(n, dtype=int)
    col[p[1:] - 1] = np.arange(n)
    return col


def assignment_profits(n, rng):
    """A real matrix, a tie-heavy integer matrix and a rank-one matrix."""
    return [rng.standard_normal((n, n)) * rng.uniform(0.1, 50),
            rng.integers(-2, 3, size=(n, n)).astype(float),
            np.outer(rng.standard_normal(n), rng.standard_normal(n))]


class TestAssignmentSolver:
    @pytest.mark.parametrize("n", [1, 2, 8, 48, 100])
    def test_matches_scipy(self, n):
        from scipy.optimize import linear_sum_assignment
        from maxfilt._assignment import max_profit_assignment

        rng = np.random.default_rng(300 + n)
        for profit in assignment_profits(n, rng):
            value, col = max_profit_assignment(profit)
            rows, cols = linear_sum_assignment(profit, maximize=True)
            expected = float(profit[rows, cols].sum())
            assert sorted(col.tolist()) == list(range(n))
            if np.array_equal(profit, np.round(profit)):
                assert value == expected
            else:
                assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 48])
    def test_same_columns_as_scalar_reference(self, n):
        # same scan order and tie rule: identical columns, ties included
        from maxfilt._assignment import min_cost_assignment

        rng = np.random.default_rng(400 + n)
        for _ in range(10 if n < 48 else 1):
            for profit in assignment_profits(n, rng):
                np.testing.assert_array_equal(min_cost_assignment(-profit),
                                              scalar_min_cost_assignment(-profit))

    def test_all_equal_profits_give_identity(self):
        from maxfilt._assignment import max_profit_assignment

        for n in (1, 4, 9):
            value, col = max_profit_assignment(np.full((n, n), 2.5))
            assert col.tolist() == list(range(n))
            assert value == 2.5 * n

    def test_non_finite_cost_rejected(self):
        from maxfilt._assignment import min_cost_assignment

        for bad in (np.nan, np.inf):
            cost = np.zeros((3, 3))
            cost[1, 2] = bad
            with pytest.raises(ValueError):
                min_cost_assignment(cost)


def batch_profits(n, per_kind, rng):
    """A stack of real, tie-heavy integer, rank-one, all-zero and 1e8-scaled
    profit matrices, ``per_kind`` of each, interleaved."""
    kinds = [lambda: rng.standard_normal((n, n)),
             lambda: rng.integers(-2, 3, size=(n, n)).astype(float),
             lambda: np.outer(rng.standard_normal(n), rng.standard_normal(n)),
             lambda: np.zeros((n, n)),
             lambda: rng.standard_normal((n, n)) * 1e8]
    return np.stack([make() for _ in range(per_kind) for make in kinds])


class TestBatchedAssignment:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 48])
    def test_same_columns_as_list_and_scalar_solvers(self, n):
        # Batches on both sides of the crossover: the list solver below it,
        # lockstep at and above it.
        from maxfilt._assignment import (_LOCKSTEP_MIN_ENTRIES, _LOCKSTEP_MIN_PER_COLUMN,
                                         max_profit_assignment, max_profit_assignments)

        rng = np.random.default_rng(500 + n)
        crossover = min(-(-_LOCKSTEP_MIN_ENTRIES // n), _LOCKSTEP_MIN_PER_COLUMN * n)
        for size in (crossover - 1, crossover, 2 * crossover):
            profits = batch_profits(n, -(-size // 5), rng)[:size]
            values, cols = max_profit_assignments(profits)
            assert values.shape == (size,) and cols.shape == (size, n)
            for b, profit in enumerate(profits):
                value, col = max_profit_assignment(profit)
                np.testing.assert_array_equal(cols[b], col)
                assert values[b] == value
            # The numpy-scalar reference is slow at n = 48: check one of each kind.
            for b in range(size if n < 48 else 5):
                np.testing.assert_array_equal(cols[b], scalar_min_cost_assignment(-profits[b]))

    @pytest.mark.parametrize("n", [1, 2, 8, 48])
    @pytest.mark.parametrize("size", [40, 41, 97])
    def test_problems_finishing_rows_at_different_steps(self, n, size, monkeypatch):
        # Lockstep problems add their rows independently: an all-zero matrix
        # takes one step per row, the others many more, so in one stack
        # problems finish rows, and whole solves, at very different steps.
        from maxfilt import _assignment
        from maxfilt._assignment import max_profit_assignment, max_profit_assignments

        monkeypatch.setattr(_assignment, "_LOCKSTEP_MIN_ENTRIES", 0)   # lockstep at any size
        rng = np.random.default_rng(540 + 100 * n + size)
        kinds = [lambda: np.zeros((n, n)),
                 lambda: rng.standard_normal((n, n)) * 1e8,
                 lambda: np.outer(rng.standard_normal(n), rng.standard_normal(n)),
                 lambda: rng.integers(-2, 3, size=(n, n)).astype(float)]
        stacks = [np.stack([kinds[k]() for k in rng.integers(0, 4, size)]),
                  np.stack([kinds[1]()] + [kinds[0]() for _ in range(size - 1)]),
                  np.stack([kinds[0]()] + [kinds[3]() for _ in range(size - 1)])]
        for profits in stacks:
            values, cols = max_profit_assignments(profits)
            for b, profit in enumerate(profits):
                value, col = max_profit_assignment(profit)
                np.testing.assert_array_equal(cols[b], col)
                assert values[b] == value
            # The numpy-scalar reference is slow at n = 48: check the first and
            # last problems (the odd one out of the second and third stacks).
            for b in range(size) if n < 48 else (0, size - 1):
                np.testing.assert_array_equal(cols[b], scalar_min_cost_assignment(-profits[b]))

    def test_non_finite_entry_anywhere_rejected(self):
        from maxfilt._assignment import _LOCKSTEP_MIN_ENTRIES, max_profit_assignments

        for size in (3, _LOCKSTEP_MIN_ENTRIES // 4 + 5):
            for bad in (np.nan, np.inf, -np.inf):
                profits = np.zeros((size, 4, 4))
                profits[size - 1, 2, 3] = bad
                with pytest.raises(ValueError):
                    max_profit_assignments(profits)

    @pytest.mark.parametrize("size, n, lockstep", [
        (4, 48, False), (6, 48, False), (7, 48, True), (16, 48, True), (48, 48, True),
        (16, 8, False), (39, 8, False), (40, 8, True), (48, 8, True), (100, 8, True),
        (3, 100, False), (4, 100, True), (5, 100, True),
        (24, 4, False), (32, 4, True), (64, 4, True), (6, 1, False), (7, 1, True)])
    def test_solver_chosen_by_stack_entries(self, size, n, lockstep, monkeypatch):
        # Lockstep overtakes the list solver near B * n = 320 from n = 8 up,
        # and near B = 7n below.
        from maxfilt import _assignment

        calls = []
        solve = _assignment._lockstep_min_cost
        monkeypatch.setattr(_assignment, "_lockstep_min_cost",
                            lambda cost: calls.append(cost.shape) or solve(cost))
        _assignment.max_profit_assignments(np.zeros((size, n, n)))
        assert calls == ([(size, n, n)] if lockstep else [])

    def test_shape_checked_and_empty_batch(self):
        from maxfilt._assignment import max_profit_assignments

        with pytest.raises(ValueError):
            max_profit_assignments(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            max_profit_assignments(np.zeros((3, 3)))
        values, cols = max_profit_assignments(np.zeros((0, 3, 3)))
        assert values.shape == (0,) and cols.shape == (0, 3)

    @pytest.mark.parametrize("n_inputs", [2, 30])
    def test_bank_argmax_first_witness_matches_max_filter(self, n_inputs):
        # 2 x 4 = 8 pairs go to the list solver, 30 x 4 = 120 to lockstep.
        group = mf.ColumnPermutation(2, 6)
        rng = np.random.default_rng(520 + n_inputs)
        Z = rng.integers(-1, 2, size=(4, 2, 6)).astype(float)
        X = np.concatenate([rng.integers(-1, 2, size=(n_inputs // 2, 2, 6)).astype(float),
                            rng.standard_normal((n_inputs - n_inputs // 2, 2, 6))])
        values, cols = mf.bank_argmax(group, Z, X)
        for n, x in enumerate(X):
            for k, z in enumerate(Z):
                res = mf.max_filter(group, z, x)
                assert values[n, k] == res.value
                np.testing.assert_array_equal(cols[n, k], res.witnesses[0])
                oracle = mf.brute_force_max_filter(group, z, x)
                assert any(np.array_equal(cols[n, k], w) for w in oracle.witnesses)


def colperm_profits(k, n, size, rng):
    """A stack of rank-k column-permutation profit matrices ``z.T @ x``, as a
    colperm bank forms them: real pairs interleaved with all-zero inputs,
    tie-heavy integer pairs and 1e8-scaled inputs."""
    z = rng.standard_normal((k, n))
    z_int = rng.integers(-2, 3, size=(k, n)).astype(float)
    X = rng.standard_normal((size, k, n))
    kind = np.arange(size) % 4
    X[kind == 1] = 0.0
    X[kind == 2] = rng.integers(-2, 3, size=X[kind == 2].shape)
    X[kind == 3] *= 1e8
    Z = np.where((kind == 2)[:, None, None], z_int, z)
    return np.matmul(np.swapaxes(Z, -1, -2), X)


class TestAssignmentAtTrafficShapes:
    """The stacks that colperm banks solve: rank-2 pairs at n = 8 in chunks of
    2,048, and rank-3 pairs at n = 48 in stacks of 48."""

    @pytest.mark.parametrize("k, n, size", [(2, 8, 2048), (3, 48, 48)])
    def test_lockstep_equals_list_and_scalar_solvers(self, k, n, size, monkeypatch):
        from maxfilt import _assignment

        calls = []
        solve = _assignment._lockstep_min_cost
        monkeypatch.setattr(_assignment, "_lockstep_min_cost",
                            lambda cost: calls.append(cost.shape) or solve(cost))
        profits = colperm_profits(k, n, size, np.random.default_rng(700 + n))
        values, cols = _assignment.max_profit_assignments(profits)
        assert calls == [(size, n, n)]
        for b, profit in enumerate(profits):
            value, col = _assignment.max_profit_assignment(profit)
            np.testing.assert_array_equal(cols[b], col)
            assert values[b] == value
        # The numpy-scalar reference is slow: a sample of every kind.
        for b in range(0, size, 29) if n < 48 else range(4):
            np.testing.assert_array_equal(cols[b], scalar_min_cost_assignment(-profits[b]))

    def test_list_solver_equals_scalar_reference_on_rank_three(self):
        from maxfilt._assignment import min_cost_assignment

        for profit in colperm_profits(3, 48, 4, np.random.default_rng(748)):
            np.testing.assert_array_equal(min_cost_assignment(-profit),
                                          scalar_min_cost_assignment(-profit))


class TestLockstepWalks:
    """A lockstep step where at most ``_SCALAR_WALK_MAX`` problems reach a free
    column walks their paths one at a time; one where more do walks them
    together.  Cutoffs 0 (every walk on arrays), 1, 3, the default and
    unbounded (every walk one at a time) must all give the scalar
    reference's columns and the list solver's potentials."""

    CUTOFFS = (0, 1, 3, None, 10**6)

    @staticmethod
    def stacks(n, rng):
        """Stacks where one problem, several problems or every problem
        reaches a free column in the same step."""
        kinds = {"colperm": lambda: colperm_profits(3, n, 1, rng)[0],
                 "integer": lambda: rng.integers(-2, 3, size=(n, n)).astype(float),
                 "zero": lambda: np.zeros((n, n)),
                 "constant": lambda: np.full((n, n), 2.5)}
        out = [np.stack([make()]) for make in kinds.values()]               # B = 1
        out.append(colperm_profits(3, n, 12, rng))      # real, zero, integer, 1e8
        out.append(np.stack([kinds[k]() for k in rng.choice(list(kinds), 15)]))
        out.append(np.stack([kinds["zero"]() for _ in range(10)]))          # all at once
        out.append(np.stack([kinds["constant"]() for _ in range(11)]))
        return out

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 48])
    def test_both_walks_give_the_reference_columns_and_duals(self, n, monkeypatch):
        from maxfilt import _assignment

        duals = []
        monkeypatch.setattr(_assignment, "_dual_hook", lambda *d: duals.append(d))
        default = _assignment._SCALAR_WALK_MAX
        for profits in self.stacks(n, np.random.default_rng(900 + n)):
            duals.clear()
            want = []
            for profit in profits:
                _assignment.max_profit_assignment(profit)
                want.append(duals[-1][1:])
            # The numpy-scalar reference is slow at n = 48: the first three.
            for b in range(len(profits) if n < 48 else min(3, len(profits))):
                np.testing.assert_array_equal(want[b][0], scalar_min_cost_assignment(-profits[b]))
            for cutoff in self.CUTOFFS:
                monkeypatch.setattr(_assignment, "_SCALAR_WALK_MAX",
                                    default if cutoff is None else cutoff)
                duals.clear()
                cols = _assignment._lockstep_min_cost(-profits)
                (_, hook_cols, u, v), = duals
                np.testing.assert_array_equal(hook_cols, cols)
                for b, (col, u_list, v_list) in enumerate(want):
                    np.testing.assert_array_equal(cols[b], col)
                    # equal as numbers: at most the sign of a zero differs
                    assert np.array_equal(u[b], u_list) and np.array_equal(v[b], v_list)


# LP duality for the assignment problem: potentials u, v with every reduced
# cost cost[i, j] - u[i] - v[j] >= 0, and = 0 on the matched pairs, prove the
# matching optimal.  The solvers' potentials are sums of rounded increments,
# so both conditions hold to within CERTIFICATE_UNITS units of n·ε·max|C|;
# the worst seen on these stacks is 0.08 units.
CERTIFICATE_UNITS = 1.0


def certifies(cost, cols, u, v):
    """For each problem of a (..., n, n) stack, whether the potentials certify
    ``cols`` optimal to within ``CERTIFICATE_UNITS``."""
    n = cost.shape[-1]
    reduced = cost - u[..., :, None] - v[..., None, :]
    matched = np.take_along_axis(reduced, cols[..., None], -1)[..., 0]
    worst = np.maximum(-reduced.min(axis=(-2, -1)), np.abs(matched).max(axis=-1))
    unit = n * np.finfo(float).eps * np.abs(cost).max(axis=(-2, -1))
    return worst <= CERTIFICATE_UNITS * unit


class TestDualCertificates:
    @pytest.mark.parametrize("n", [48, 100])
    def test_both_solvers_certify_their_columns(self, n, monkeypatch):
        from maxfilt import _assignment

        duals = []
        monkeypatch.setattr(_assignment, "_dual_hook", lambda *d: duals.append(d))
        profits = colperm_profits(3, n, 48, np.random.default_rng(800 + n))
        cols = _assignment.max_profit_assignments(profits)[1]
        (cost, lock_cols, u, v), = duals             # one lockstep call
        np.testing.assert_array_equal(cost, -profits)
        np.testing.assert_array_equal(lock_cols, cols)
        assert certifies(cost, cols, u, v).all()
        # A planted error fails: real and 1e8-scaled pairs have one optimum,
        # and swapping two rows' columns leaves it.
        swapped = cols.copy()
        swapped[:, [0, 1]] = cols[:, [1, 0]]
        assert not certifies(cost, swapped, u, v)[np.arange(48) % 4 % 3 == 0].any()
        # The list solver, on every kind; both do the same float operations,
        # so they hold the same potentials.
        duals.clear()
        for b in range(48 if n < 100 else 12):
            _assignment.max_profit_assignment(profits[b])
            cost, col, u_list, v_list = duals[-1]
            np.testing.assert_array_equal(col, cols[b])
            assert certifies(cost, col, u_list, v_list)
            assert np.array_equal(u_list, u[b]) and np.array_equal(v_list, v[b])

    @pytest.mark.parametrize("n", [48, 100])
    def test_colperm_bank_paired_and_single_paths_are_certified(self, n, monkeypatch):
        from maxfilt import _assignment

        duals = []
        monkeypatch.setattr(_assignment, "_dual_hook", lambda *d: duals.append(d))
        group = mf.ColumnPermutation(3, n)
        rng = np.random.default_rng(860 + n)
        Z, X = rng.standard_normal((4, 3, n)), rng.standard_normal((12, 3, n))
        mf.bank_argmax(group, Z, X)
        mf.quotient_distances(group, *rng.standard_normal((2, 48, 3, n)))
        mf.max_filter(group, Z[0], X[0])
        assert sum(len(cols) if cols.ndim == 2 else 1 for _, cols, _, _ in duals) == 48 + 48 + 1
        for cost, cols, u, v in duals:
            assert certifies(cost, cols, u, v).all()


class TestPhase:
    def test_unit_example(self):
        res = mf.max_filter(mf.PhaseCircle(2), [1.0 + 0j, 0j], [1j, 0j])
        assert res.value == pytest.approx(1.0)
        assert res.witnesses[0] == pytest.approx(-1j)

    def test_zero_input(self):
        assert mf.max_filter(mf.PhaseCircle(2), [1.0 + 1j, 2j], [0j, 0j]).value == 0.0

    def test_random_matches_grid(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            res = mf.max_filter(mf.PhaseCircle(3), z, x)
            oracle = mf.brute_force_max_filter(mf.PhaseCircle(3), z, x, resolution=10_000)
            assert res.value == pytest.approx(oracle.value, abs=1e-6)
            assert res.value >= oracle.value - 1e-12


class TestShiftConjugate:
    def test_rotated_shifted_copy(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x = np.exp(0.7j) * np.roll(z, 3)
        res = mf.max_filter(mf.ShiftAndConjugate(8), z, x)
        assert res.value == pytest.approx(float(np.real(np.vdot(z, z))), rel=1e-10)

    def test_reflected_copy(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        res = mf.max_filter(mf.ShiftAndConjugate(8), z, np.conj(z))
        assert res.value == pytest.approx(float(np.real(np.vdot(z, z))), rel=1e-10)

    def test_random_matches_enumeration(self):
        rng = np.random.default_rng(16)
        thetas = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
        for _ in range(5):
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            best = -np.inf
            for conj in (False, True):
                base = np.conj(x) if conj else x
                for a in range(6):
                    w = np.vdot(z, np.roll(base, a))
                    best = max(best, np.max(np.real(np.exp(1j * thetas) * w)))
            res = mf.max_filter(mf.ShiftAndConjugate(6), z, x)
            assert res.value == pytest.approx(best, abs=1e-5)

    def test_witness_realizes_value(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        res = mf.max_filter(mf.ShiftAndConjugate(6), z, x)
        g = mf.ShiftAndConjugate(6)
        for w in res.witnesses:
            val = float(np.real(np.vdot(z, mf.apply_witness(g, w, x))))
            assert val == pytest.approx(res.value, abs=1e-9)


class TestPatchPermutation:
    def test_single_patch_equals_sorting(self):
        rng = np.random.default_rng(18)
        z, x = rng.standard_normal(6), rng.standard_normal(6)
        whole = (tuple(range(6)),)
        assert mf.max_filter(mf.PatchPermutation(whole), z, x).value == pytest.approx(
            mf.max_filter(mf.FullPermutation(6), z, x).value, rel=1e-12)

    def test_two_patch_example(self):
        z = np.array([1.0, 0.0, 1.0, 0.0])
        x = np.array([2.0, 5.0, -1.0, -2.0])
        patches = ((0, 1), (2, 3))
        best = -np.inf
        for p1 in itertools.permutations(range(2)):
            for p2 in itertools.permutations(range(2)):
                val = z[0] * x[p1[0]] + z[1] * x[p1[1]] \
                    + z[2] * x[2 + p2[0]] + z[3] * x[2 + p2[1]]
                best = max(best, val)
        assert best == 4.0
        assert mf.max_filter(mf.PatchPermutation(patches), z, x).value == pytest.approx(best)

    def test_within_patch_shuffle_is_same_orbit(self):
        rng = np.random.default_rng(19)
        z = rng.standard_normal(8)
        x = z.copy()
        x[0:4] = z[rng.permutation(4)]
        x[4:8] = z[4 + rng.permutation(4)]
        patches = (tuple(range(4)), tuple(range(4, 8)))
        res = mf.max_filter(mf.PatchPermutation(patches), z, x)
        assert res.value == pytest.approx(float(z @ z), rel=1e-12)

    def test_bad_tiling_rejected(self):
        with pytest.raises(mf.ValidationError):
            mf.max_filter(mf.PatchPermutation(((0, 1), (1, 2, 3))), np.zeros(4), np.zeros(4))


class TestSlidingWindow:
    def test_planted_slice(self):
        rng = np.random.default_rng(20)
        c, w, t = 2, 3, 5
        z = np.zeros((c, w, t))
        motif = rng.standard_normal((c, w))
        z[:, :, 1] = motif
        x = np.zeros((c, w, t))
        x[:, :, 4] = motif
        res = mf.max_filter(mf.SlidingWindowShift(c, w, t), z, x)
        assert res.value == pytest.approx(float(np.sum(motif ** 2)), rel=1e-12)
        shift = res.witnesses[0]
        assert (1 - shift) % t == 4

    def test_matches_shift_enumeration(self):
        rng = np.random.default_rng(21)
        c, w, t = 2, 3, 4
        z = np.zeros((c, w, t))
        z[:, :, 0] = rng.standard_normal((c, w))
        x = rng.standard_normal((c, w, t))
        expected = max(float(np.sum(z * np.roll(x, a, axis=2))) for a in range(t))
        res = mf.max_filter(mf.SlidingWindowShift(c, w, t), z, x)
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_zero_template(self):
        res = mf.max_filter(mf.SlidingWindowShift(1, 2, 3), np.zeros((1, 2, 3)), np.ones((1, 2, 3)))
        assert res.value == 0.0

    def test_multi_slice_template_matches_oracle(self):
        # Full-tensor templates (as quotient_distance passes them): real,
        # tie-heavy integer and periodic operands, zero inputs and templates.
        rng = np.random.default_rng(22)
        group = mf.SlidingWindowShift(2, 3, 6)
        base = rng.integers(-1, 2, size=(2, 3, 2)).astype(float)
        periodic = np.tile(base, (1, 1, 3))
        cases = [(rng.standard_normal(group.shape), rng.standard_normal(group.shape)),
                 (rng.integers(-1, 2, group.shape).astype(float),
                  rng.integers(-1, 2, group.shape).astype(float)),
                 (periodic, np.roll(periodic, 1, axis=2)),
                 (rng.standard_normal(group.shape), np.zeros(group.shape)),
                 (np.zeros(group.shape), rng.standard_normal(group.shape)),
                 (1e4 * rng.standard_normal(group.shape), rng.standard_normal(group.shape))]
        for z, x in cases:
            res = mf.max_filter(group, z, x)
            oracle = mf.brute_force_max_filter(group, z, x)
            assert res.value == pytest.approx(oracle.value, rel=1e-12, abs=1e-12)
            assert sorted(res.witnesses) == oracle.witnesses
            g = res.witnesses[0]
            assert float(np.sum(z * np.roll(x, g, axis=2))) == pytest.approx(res.value, abs=1e-9)

    def test_mixed_bank_matches_per_call(self):
        rng = np.random.default_rng(23)
        group = mf.SlidingWindowShift(2, 2, 5)
        Z = rng.integers(-1, 2, size=(4, 2, 2, 5)).astype(float)
        Z[1] = 0.0
        Z[2, :, :, [0, 1, 3, 4]] = 0.0               # on slice 2 only
        X = rng.integers(-1, 2, size=(6, 2, 2, 5)).astype(float)
        X[0] = 0.0
        values, shifts = mf.bank_argmax(group, Z, X)
        for n, x in enumerate(X):
            for k, z in enumerate(Z):
                res = mf.max_filter(group, z, x)
                assert values[n, k] == pytest.approx(res.value, abs=1e-12)
                assert shifts[n, k] == res.witnesses[0]

    def test_training_keeps_single_slice_templates(self):
        group = mf.SlidingWindowShift(1, 2, 3)
        with pytest.raises(mf.ValidationError):
            mf.bank_subgradient(group, [np.ones((1, 2, 3))], [np.ones((1, 2, 3))],
                                np.zeros((1, 1), dtype=int), np.ones((1, 1)))


def shift_matrices(n):
    return tuple(np.roll(np.eye(n), a, axis=0) for a in range(n))


class TestTiesAgainstOracle:
    # Integer operands of period 4 along the shift axis tie exactly at every
    # fourth shift: every witness the oracle lists, max_filter lists too.
    @pytest.mark.parametrize("seed", range(6))
    def test_cyclic_and_enumerated_in_oracle_order(self, seed):
        rng = np.random.default_rng(600 + seed)
        for group in (mf.CyclicShift(12), mf.Enumerated(shift_matrices(12))):
            z = np.tile(rng.integers(-3, 4, 4), 3).astype(float)
            x = np.tile(rng.integers(-3, 4, 4), 3).astype(float)
            for zz, xx in ((z, x), (z, z), (np.zeros(12), x)):
                res = mf.max_filter(group, zz, xx)
                oracle = mf.brute_force_max_filter(group, zz, xx)
                assert res.value == pytest.approx(oracle.value, abs=1e-9)
                assert res.witnesses == oracle.witnesses
                assert len(res.witnesses) >= 3

    @pytest.mark.parametrize("seed", range(6))
    def test_window_as_a_set(self, seed):
        rng = np.random.default_rng(700 + seed)
        group = mf.SlidingWindowShift(2, 2, 12)
        slab = rng.integers(-2, 3, (2, 2, 4)).astype(float)
        single = np.zeros(group.shape)
        single[:, :, 5] = slab[:, :, 0]
        for z in (np.tile(slab, 3), single):
            x = np.tile(rng.integers(-2, 3, (2, 2, 4)), 3).astype(float)
            res = mf.max_filter(group, z, x)
            oracle = mf.brute_force_max_filter(group, z, x)
            assert res.value == pytest.approx(oracle.value, abs=1e-9)
            assert sorted(res.witnesses) == oracle.witnesses
            assert len(res.witnesses) >= 3

    # The oracle of shiftconj searches a phase grid for one witness, so the
    # tie list is checked against every (shift, flag) correlation formed
    # directly.  Gaussian-integer signals of period 3 tie exactly at every
    # third shift; a real input ties under both flags too.
    @pytest.mark.parametrize("seed", range(6))
    def test_shift_conjugate_lists_every_tie(self, seed):
        rng = np.random.default_rng(800 + seed)
        n = 12
        group = mf.ShiftAndConjugate(n)

        def periodic(imag=1):
            return np.tile(rng.integers(-2, 3, 3) + imag * 1j * rng.integers(-2, 3, 3), n // 3)
        for z, x in ((periodic(), periodic()), (periodic(), periodic(imag=0))):
            res = mf.max_filter(group, z, x)
            corr = {(a, flag): np.vdot(z, np.roll(np.conj(x) if flag else x, a))
                    for flag in (False, True) for a in range(n)}
            best = max(abs(w) for w in corr.values())
            assert res.value == pytest.approx(best, rel=1e-12)
            tol = mf.core.tie_tolerance(z, x)
            want = [key for key, w in corr.items() if abs(w) >= best - tol]
            assert [(a, flag) for a, flag, _ in res.witnesses] == want
            assert len(want) >= (4 if x.imag.any() else 8)
            for a, flag, phase in res.witnesses:
                assert (type(a), type(flag), type(phase)) == (int, bool, complex)
                w = corr[a, flag]
                assert phase == pytest.approx(np.conj(w) / abs(w), abs=1e-12)
                assert np.real(np.vdot(z, mf.apply_witness(group, (a, flag, phase), x))) == \
                    pytest.approx(best, rel=1e-12)

    def test_shift_conjugate_zero_template_lists_each_shift_and_flag_once(self):
        # Every element attains 0 at a zero template; max_filter lists each
        # (shift, flag) once with phase 1, where witness_set stands four
        # phases in for the circle.
        n = 5
        group = mf.ShiftAndConjugate(n)
        x = np.random.default_rng(9).standard_normal(n) * (1 + 2j)
        res = mf.max_filter(group, np.zeros(n, complex), x)
        assert res.value == 0.0
        assert res.witnesses == [(a, flag, 1 + 0j) for flag in (False, True) for a in range(n)]
        assert all(type(p) is complex for _, _, p in res.witnesses)
        assert len(mf.witness_set(group, np.zeros(n, complex), x)) == 4 * 2 * n


def test_kinds_do_not_branch_on_the_descriptor_type():
    # Per-kind code lives in the kind records; type tests on ``group`` are the
    # brute-force oracle's 12 branches plus the CLI's check of a user spec.
    # The pattern is the one the benchmark's code counts use.
    root = os.path.dirname(mf.__file__)
    count = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    count += len(re.findall(r"isinstance\(group\b", fh.read()))
    assert count <= 13


# kind -> (group, dtype, shape, dim, group_order): the operand space each
# descriptor states, and the order of its group, pinned exactly.
SPACES = {
    "enumerated": (mf.Enumerated((np.eye(2), np.diag([1.0, -1.0]))), float, (2,), 2, 2),
    "cyclic": (mf.CyclicShift(6), float, (6,), 6, 6),
    "perm": (mf.FullPermutation(5), float, (5,), 5, 120),
    "signedperm": (mf.SignedPermutation(4), float, (4,), 4, 384),
    "signflips": (mf.SignFlips(3), float, (3,), 3, 8),
    "orth": (mf.FullOrthogonal(2), float, (2,), 2, None),
    "leftorth": (mf.LeftOrthogonal(np.int64(2), 7), float, (2, 7), 14, None),
    "colperm": (mf.ColumnPermutation(3, 4), float, (3, 4), 12, 24),
    "phase": (mf.PhaseCircle(4), complex, (4,), 8, None),
    "shiftconj": (mf.ShiftAndConjugate(9), complex, (9,), 18, None),
    "patchperm": (mf.PatchPermutation(((2, 0), (1, 3, 4))), float, (5,), 5, 12),
    "window": (mf.SlidingWindowShift(2, 3, 8), float, (2, 3, 8), 48, 8),
}


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_descriptor_states_its_operand_space(kind):
    group, dtype, shape, dim, order = SPACES[kind]
    assert group.kind == kind and set(SPACES) == set(mf.groups.KINDS)
    assert (group.dtype, group.shape, group.dim, mf.group_order(group)) == (dtype, shape, dim, order)
    assert type(group.dim) is int and all(type(s) is int for s in group.shape)
    operands = mf.core.as_operands(group, [np.zeros(shape, dtype)])
    assert operands.dtype == dtype and operands.shape == (1,) + shape


def test_kind_record_leaves_the_operand_space_to_the_descriptor():
    fields = {f.name for f in dataclasses.fields(mf.groups.Kind)}
    assert len(fields) == 13 and not fields & {"dtype", "shape", "layout"}
    assert not any(hasattr(mf.groups.Kind, name) for name in ("dtype", "shape", "layout"))
    for cls in mf.groups.DESCRIPTORS.values():
        if issubclass(cls, mf.core._Sizes):    # a size descriptor is its fields
            assert not {"dim", "shape"} & set(vars(cls))

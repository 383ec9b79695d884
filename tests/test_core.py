import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import maxfilt as mf
from conftest import permutation_matrices, sign_group


class TestMaxFilter:
    def test_orthogonal_gives_norm_product(self):
        g = mf.FullOrthogonal(3)
        z = np.array([0.0, 1.0, 0.0])
        assert mf.max_filter(g, z, [1.0, 2.0, 2.0]).value == pytest.approx(3.0, abs=1e-12)

    def test_sign_group_gives_abs(self):
        g = sign_group(2)
        res = mf.max_filter(g, [1.0, 0.0], [-2.0, 5.0])
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_permutation_group_picks_top_entry(self):
        g = mf.Enumerated(tuple(permutation_matrices(3)))
        z = np.array([1.0, 0.0, 0.0])
        x = np.array([3.0, 1.0, 2.0])
        # independent enumeration over all six relabelings
        expected = max(z @ p @ x for p in permutation_matrices(3))
        assert expected == 3.0
        assert mf.max_filter(g, z, x).value == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(mf.DimensionMismatch):
            mf.max_filter(mf.CyclicShift(4), [1.0, 0.0], [1.0, 0.0, 0.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(mf.ValidationError):
            mf.max_filter(mf.CyclicShift(2), [np.nan, 0.0], [1.0, 0.0])

    def test_witness_achieves_value(self):
        rng = np.random.default_rng(7)
        g = mf.CyclicShift(6)
        z, x = rng.standard_normal(6), rng.standard_normal(6)
        res = mf.max_filter(g, z, x)
        for w in res.witnesses:
            assert z @ mf.apply_witness(g, w, x) == pytest.approx(res.value, abs=1e-9)


class TestQuotientDistance:
    def test_same_point_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        assert mf.quotient_distance(mf.FullPermutation(5), x, x) == 0.0

    def test_sign_orbit_collapses(self):
        assert mf.quotient_distance(sign_group(1), [1.0], [-1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_permuted_copy_is_zero_and_zero_vector_gives_norm(self):
        g = mf.Enumerated(tuple(permutation_matrices(3)))
        x = np.array([1.0, 2.0, 3.0])
        assert mf.quotient_distance(g, x, [3.0, 1.0, 2.0]) == pytest.approx(0.0, abs=1e-9)
        # min over all six relabelings of ||x - P 0|| is just ||x||
        expected = min(np.linalg.norm(x - p @ np.zeros(3)) for p in permutation_matrices(3))
        assert expected == pytest.approx(np.sqrt(14.0))
        assert mf.quotient_distance(g, x, np.zeros(3)) == pytest.approx(expected, abs=1e-12)


class TestFilterBank:
    def test_single_template(self):
        g = mf.CyclicShift(4)
        z = np.array([1.0, 0.0, 0.0, 0.0])
        x = np.array([0.0, 2.0, 0.0, 0.0])
        feats = mf.filter_bank_apply(g, [z], x)
        assert feats.shape == (1,)
        assert feats[0] == pytest.approx(mf.max_filter(g, z, x).value)

    def test_self_template_gives_norm_squared(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6)
        feats = mf.filter_bank_apply(mf.FullPermutation(6), [x], x)
        assert feats[0] == pytest.approx(float(x @ x), rel=1e-12)

    def test_same_orbit_gives_identical_features(self):
        g = mf.CyclicShift(4)
        bank = [t.vector for t in mf.random_sphere_templates(8, 4, rng_seed=11)]
        x = np.array([1.0, 0.0, 0.0, 0.0])
        x2 = np.array([0.0, 1.0, 0.0, 0.0])
        # same orbit: x2 is a one-step shift, verified by enumerating all four
        assert any(np.allclose(np.roll(x, a), x2) for a in range(4))
        np.testing.assert_allclose(mf.filter_bank_apply(g, bank, x),
                                   mf.filter_bank_apply(g, bank, x2), atol=1e-12)

    def test_empty_bank_rejected(self):
        with pytest.raises(mf.ValidationError):
            mf.filter_bank_apply(mf.CyclicShift(4), [], np.zeros(4))


class TestBruteForceOracle:
    def test_cyclic_enumeration(self):
        res = mf.brute_force_max_filter(mf.CyclicShift(4), [1.0, 0.0, 0.0, 0.0],
                                        [0.0, 0.0, 5.0, 0.0])
        assert res.value == pytest.approx(5.0, abs=1e-12)
        assert 2 in res.witnesses
        assert not res.approximate

    def test_permutation_enumeration(self):
        z = np.array([1.0, 1.0, 0.0])
        x = np.array([2.0, -1.0, 3.0])
        expected = max(sum(z[i] * x[p[i]] for i in range(3))
                       for p in itertools.permutations(range(3)))
        assert expected == 5.0
        res = mf.brute_force_max_filter(mf.FullPermutation(3), z, x)
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_phase_grid_is_flagged_approximate(self):
        res = mf.brute_force_max_filter(mf.PhaseCircle(2), [1.0 + 0j, 0.0],
                                        [1j, 0.0], resolution=10_000)
        assert res.approximate
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_enumeration_cap(self):
        with pytest.raises(mf.EnumerationCapExceeded):
            mf.brute_force_max_filter(mf.FullPermutation(9), np.zeros(9), np.zeros(9))

    @pytest.mark.parametrize("at_cap, past_cap, message, cap", [
        (mf.FullPermutation(8), mf.FullPermutation(9),
         "permutation enumeration capped at d <= 8", 2_000_000),
        (mf.SignedPermutation(6), mf.SignedPermutation(7),
         "signed permutation enumeration capped at d <= 6", 2_000_000),
        (mf.SignFlips(16), mf.SignFlips(17), "sign-flip enumeration capped at d <= 16", 2_000_000),
        (mf.ColumnPermutation(2, 8), mf.ColumnPermutation(2, 9),
         "column permutation enumeration capped at n <= 8", 2_000_000),
        (mf.PatchPermutation((tuple(range(8)), (8,))), mf.PatchPermutation((tuple(range(9)),)),
         "patch enumeration capped at 8 cells per patch", 2_000_000),
        # 3! * 3! = 36 elements in all: at cap=36, and one past it at cap=35.
        (mf.PatchPermutation(((0, 1, 2), (3, 4, 5))), mf.PatchPermutation(((0, 1, 2), (3, 4, 5))),
         "patch enumeration exceeds cap 35", 36),
    ])
    def test_every_enumeration_cap(self, at_cap, past_cap, message, cap):
        rng = np.random.default_rng(0)
        z, x = rng.standard_normal(at_cap.shape), rng.standard_normal(at_cap.shape)
        res = mf.brute_force_max_filter(at_cap, z, x, cap=cap)
        assert res.value == pytest.approx(mf.max_filter(at_cap, z, x).value, rel=1e-12)
        past_cap_kwargs = {"cap": 35} if cap == 36 else {}
        with pytest.raises(mf.EnumerationCapExceeded) as info:
            mf.brute_force_max_filter(past_cap, np.zeros(past_cap.shape),
                                      np.zeros(past_cap.shape), **past_cap_kwargs)
        assert str(info.value) == message

    def test_independent_of_the_fast_paths(self, monkeypatch):
        # With every record's fast forms and tie enumerations made to raise,
        # the oracle gives what it gives with them.
        from test_engine import GROUPS, LEVELS
        from maxfilt import groups

        rng = np.random.default_rng(21)
        pairs = []
        for group in GROUPS.values():
            for dyadic in (False, True):
                z, x = (mf.analysis.sample_point(group, rng) for _ in range(2))
                if dyadic:       # exact ties
                    z, x = (rng.choice(LEVELS, size=v.shape).astype(v.dtype) for v in (z, x))
                pairs.append((group, z, x))

        def results():
            return [mf.brute_force_max_filter(g, z, x, resolution=64) for g, z, x in pairs]

        def encode(w):
            if isinstance(w, tuple):
                return tuple(encode(v) for v in w)
            return (np.asarray(w).dtype.str, np.asarray(w).tolist()) if isinstance(w, np.ndarray) \
                else (type(w).__name__, w)

        expected = results()

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle reached a fast path")
        for name, kind in groups.KINDS.items():
            monkeypatch.setitem(groups.KINDS, name, dataclasses.replace(
                kind, bank=refuse, pairs=refuse, images=refuse, witnesses=refuse))
        got = results()
        assert len(got) == 24
        for want, have in zip(expected, got):
            assert have.value == want.value and have.approximate == want.approximate
            assert [encode(w) for w in have.witnesses] == [encode(w) for w in want.witnesses]


class TestEnumeratedValidation:
    def test_not_closed_rejected(self):
        theta = 0.3
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        with pytest.raises(mf.ValidationError):
            mf.Enumerated((np.eye(2), rot))

    def test_not_orthogonal_rejected(self):
        with pytest.raises(mf.ValidationError):
            mf.Enumerated((np.eye(2) * 2.0,))

    def test_valid_group_accepted(self):
        g = mf.Enumerated(tuple(permutation_matrices(3)))
        assert g.order == 6


class TestDescriptorSizes:
    SIZED = [mf.CyclicShift, mf.FullPermutation, mf.SignedPermutation, mf.SignFlips,
             mf.FullOrthogonal, mf.PhaseCircle, mf.ShiftAndConjugate]

    @pytest.mark.parametrize("bad", ["8", 8.0, True, 0, -2, None])
    def test_sizes_must_be_positive_integers(self, bad):
        for cls in self.SIZED:
            with pytest.raises(mf.ValidationError, match="positive integer"):
                cls(bad)
        for args in ((bad, 3), (3, bad)):
            with pytest.raises(mf.ValidationError):
                mf.LeftOrthogonal(*args)
            with pytest.raises(mf.ValidationError):
                mf.ColumnPermutation(*args)
        with pytest.raises(mf.ValidationError):
            mf.SlidingWindowShift(2, bad, 5)

    def test_numpy_integers_are_kept_as_ints(self):
        group = mf.SlidingWindowShift(np.int64(2), np.int32(3), np.uint8(5))
        assert group == mf.SlidingWindowShift(2, 3, 5)
        assert [type(v) for v in (group.c, group.w, group.t)] == [int, int, int]
        assert type(mf.CyclicShift(np.int64(6)).n) is int


class TestOperandValidation:
    @pytest.mark.parametrize("group", [mf.CyclicShift(1000), mf.PhaseCircle(1000)],
                             ids=lambda g: g.kind)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_last_block_rejected(self, group, bad):
        # Finiteness is checked a block of rows at a time; the stack spans
        # three blocks and only its last entry is bad.
        rows = 2 * mf.core._BULK // 1000 + 1
        stack = np.ones((rows, 1000), dtype=complex if group.kind == "phase" else float)
        assert np.array_equal(mf.core.as_operands(group, stack), stack)
        stack[-1, -1] = bad
        with pytest.raises(mf.ValidationError, match="NaN or infinity"):
            mf.core.as_operands(group, stack)
        if group.kind == "phase":
            stack[-1, -1] = complex(1.0, bad)
            with pytest.raises(mf.ValidationError, match="NaN or infinity"):
                mf.core.as_operands(group, stack)

    def test_complex_operand_on_a_real_group_rejected(self):
        # The imaginary parts are not dropped: every entry point refuses.
        group, z = mf.CyclicShift(3), np.array([1.0, 2.0, 3.0])
        with pytest.raises(mf.ValidationError, match="complex"):
            mf.max_filter(group, [1 + 1j, 2, 3], z)
        with pytest.raises(mf.ValidationError, match="complex"):
            mf.bank_values(group, [[1 + 5j, 2, 3]], [z])
        with pytest.raises(mf.ValidationError, match="complex"):
            mf.quotient_distance(group, [1 + 1j, 2, 3], z)

    def test_real_operands_on_complex_groups_keep_their_values(self):
        z, x = [1.0, 2.0, 3.0], [1.0, 0.0, 1.0]
        assert mf.max_filter(mf.PhaseCircle(3), z, x).value == pytest.approx(4.0)
        assert mf.max_filter(mf.ShiftAndConjugate(3), z, x).value == pytest.approx(5.0)
        stack = np.ones((4, 3))
        assert mf.core.as_operands(mf.CyclicShift(3), stack) is stack     # not copied

    def test_check_holds_one_block_at_a_time(self):
        # One bool per entry of a block, not of the whole 8-block stack.
        group = mf.CyclicShift(1000)
        stack = np.ones((8 * mf.core._BULK // 1000, 1000))
        tracemalloc.start()
        try:
            mf.core.as_operands(group, stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * mf.core._BULK

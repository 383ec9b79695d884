import dataclasses
import itertools
import re
import time

import numpy as np
import pytest

import maxfilt as mf
from maxfilt import groups
from maxfilt.calculus import default_tie_tolerance, directional_derivative, subgradient, witness_set
from conftest import draw_operand, draw_window_template, sign_group


# One instance per kind, small enough for the oracle to enumerate and for
# the tie set of zero operands to stay under the enumeration cap.
WITNESS_GROUPS = {
    "enumerated": sign_group(3),
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
    "window": mf.SlidingWindowShift(2, 3, 5),
}


def integer_operand(group, rng):
    """Entries in {-2, ..., 2}: products are exact, so ties are exact."""
    dtype, shape = group.dtype, group.shape
    x = rng.integers(-2, 3, shape).astype(float)
    return x + 1j * rng.integers(-2, 3, shape) if dtype is complex else x


def witness_inputs(group, rng):
    """(x, y) pairs: random, integer with repeated entries, y = g x (an exact
    tie with the identity's orbit), zero operands, constant and periodic
    templates against integer inputs, and 1e8-norm operands."""
    pairs = [(draw_operand(group, rng), draw_operand(group, rng)) for _ in range(3)]
    for _ in range(4):
        x = integer_operand(group, rng)
        pairs += [(x, integer_operand(group, rng)),
                  (x, mf.apply_witness(group, mf.random_element(group, rng), x))]
    zero = np.zeros_like(draw_operand(group, rng))
    pairs += [(zero, draw_operand(group, rng)), (draw_operand(group, rng), zero), (zero, zero)]
    periodic = np.indices(group.shape).sum(axis=0) % 2 + zero
    pairs += [(zero + 1, integer_operand(group, rng)), (periodic, integer_operand(group, rng)),
              (periodic, periodic)]
    x = integer_operand(group, rng)
    pairs += [(1e8 * draw_operand(group, rng), draw_operand(group, rng)),
              (1e8 * x, 1e8 * mf.apply_witness(group, mf.random_element(group, rng), x))]
    return pairs


def witness_key(g):
    """A hashable form of a witness of the finite kinds."""
    if isinstance(g, tuple):
        return tuple(witness_key(part) for part in g)
    return tuple(np.asarray(g).ravel().tolist())


# Per-witness references, one apply_witness call and one np.vdot per witness,
# which the calculus's single images call must equal bit for bit.
def reference_subdifferential(group, x, y):
    return [mf.apply_witness(group, g, y) for g in witness_set(group, x, y)]


def reference_subgradient(group, x, y, selection):
    if selection == "first":
        return mf.apply_witness(group, mf.max_filter(group, x, y).witnesses[0], y)
    return np.mean(reference_subdifferential(group, x, y), axis=0)


def reference_directional_derivative(group, x, y, v):
    v = mf.core.as_operand(group, v)
    return max(float(np.real(np.vdot(v, image)))
               for image in reference_subdifferential(group, x, y))


def same_array(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def finite_difference(group, x, y, v, t=1e-6):
    up = mf.max_filter(group, np.asarray(x) + t * np.asarray(v), y).value
    dn = mf.max_filter(group, np.asarray(x) - t * np.asarray(v), y).value
    return (up - dn) / (2 * t)


class TestWitnessSet:
    def test_sign_group_positive_alignment(self):
        g = sign_group(3)
        ws = witness_set(g, [1.0, 0.0, 0.0], [2.0, 0.0, 0.0])
        assert ws == [0]                     # only the identity

    def test_sign_group_tie(self):
        g = sign_group(2)
        ws = witness_set(g, [1.0, 0.0], [0.0, 3.0])
        assert ws == [0, 1]                  # orthogonal pair: both elements

    def test_cyclic_double_tie(self):
        ws = witness_set(mf.CyclicShift(4), [1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        assert sorted(ws) == [0, 2]

    def test_permutation_generic_unique(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        ws = witness_set(mf.FullPermutation(6), x, y)
        assert len(ws) == 1
        assert float(x @ y[ws[0]]) == pytest.approx(
            mf.max_filter(mf.FullPermutation(6), x, y).value, rel=1e-12)

    def test_permutation_tie_block(self):
        # two equal template entries leave a 2-element witness set
        x = np.array([1.0, 1.0, 0.0])
        y = np.array([3.0, 2.0, -1.0])
        ws = witness_set(mf.FullPermutation(3), x, y)
        assert len(ws) == 2
        vals = {float(x @ y[p]) for p in ws}
        assert all(v == pytest.approx(5.0) for v in vals)

    def test_tie_cap_raises(self):
        with pytest.raises(mf.EnumerationCapExceeded):
            witness_set(mf.FullPermutation(10), np.ones(10), np.ones(10))

    @pytest.mark.parametrize("cap", [-2, -1, 2.5, 3.0, "3", None, True])
    def test_bad_cap_rejected(self, cap):
        # A negative cap is not a tie set too large: the error names the cap.
        x = np.arange(4.0)
        with pytest.raises(mf.ValidationError, match=re.escape(f"max_witnesses must be a "
                                                               f"non-negative integer, got {cap!r}")):
            witness_set(mf.FullPermutation(4), x, x, max_witnesses=cap)

    def test_integer_caps_accepted(self):
        x = np.arange(4.0)
        assert len(witness_set(mf.FullPermutation(4), x, x, max_witnesses=np.int64(1))) == 1
        with pytest.raises(mf.EnumerationCapExceeded, match="larger than cap 0"):
            witness_set(mf.FullPermutation(4), x, x, max_witnesses=0)

    @pytest.mark.parametrize("group", [
        mf.FullPermutation(6), mf.SignedPermutation(4), mf.SignFlips(8),
        mf.ColumnPermutation(1, 8), mf.PatchPermutation(((0, 1, 2, 3), (4, 5, 6)))],
        ids=lambda g: g.kind)
    def test_every_enumerating_kind_keeps_the_cap(self, group):
        # A zero template ties every element, far more than 100 of them.
        with pytest.raises(mf.EnumerationCapExceeded):
            witness_set(group, np.zeros(group.shape), np.ones(group.shape), max_witnesses=100)
        assert len(witness_set(group, np.zeros(group.shape), np.ones(group.shape),
                               max_witnesses=mf.group_order(group))) == mf.group_order(group)

    @staticmethod
    def cap_cases():
        """(group, x, y, size of the witness set) on the kinds whose set is
        the tie list or shiftconj's ``witnesses`` form: zero templates,
        constant windows and periodic inputs."""
        rng = np.random.default_rng(11)
        shifts = mf.Enumerated(tuple(np.roll(np.eye(3), a, axis=0) for a in range(3)))
        window = mf.SlidingWindowShift(2, 3, 5)
        single = draw_window_template(window, rng)
        constant = np.repeat(rng.standard_normal((2, 3, 1)), 5, axis=2)
        shiftconj = mf.ShiftAndConjugate(4)
        return [
            (mf.CyclicShift(6), np.zeros(6), rng.standard_normal(6), 6),
            (mf.CyclicShift(6), np.tile([1.0, 0.0], 3), np.eye(6)[0], 3),
            (shifts, np.zeros(3), rng.standard_normal(3), 3),
            (shifts, np.ones(3), rng.standard_normal(3), 3),
            (window, np.zeros(window.shape), rng.standard_normal(window.shape), 5),
            (window, single, constant, 5),
            # every (shift, flag) ties, each with the four phase representatives
            (shiftconj, np.zeros(4, dtype=complex), draw_operand(shiftconj, rng), 32),
            (shiftconj, np.array([1, 0, 1, 0], dtype=complex), np.eye(4)[0] + 0j, 4),
        ]

    def test_tie_lists_keep_the_cap(self):
        for group, x, y, size in self.cap_cases():
            assert len(witness_set(group, x, y)) == size, group.kind
            for cap in (size, size + 1):
                assert len(witness_set(group, x, y, max_witnesses=cap)) == size, group.kind
            with pytest.raises(mf.EnumerationCapExceeded, match="larger than cap"):
                witness_set(group, x, y, max_witnesses=size - 1)
        with pytest.raises(mf.EnumerationCapExceeded):            # the default cap, 4096
            witness_set(mf.CyclicShift(5000), np.zeros(5000), np.ones(5000))

    # Past enumeration scale (n > 8) the set is the assignment optimum alone.
    @pytest.mark.parametrize("k, n", [(2, 9), (3, 12)])
    def test_colperm_past_enumeration_is_the_first_witness(self, k, n):
        group = mf.ColumnPermutation(k, n)
        x, y = np.random.default_rng(n).standard_normal((2, k, n))
        for y in (y, x):
            wits = mf.witness_set(group, x, y)
            first = mf.bank_argmax(group, [x], [y])[1][0, 0]
            assert len(wits) == 1 and wits[0].dtype == first.dtype
            assert np.array_equal(wits[0], first)

    def test_optimum_survives_zero_tolerance_at_scale(self):
        # the enumerator reproduces the optimum's own summation order, so the
        # in-order pairing is never pruned, even with no slack at all
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(500), rng.standard_normal(500)
        ws = witness_set(mf.FullPermutation(500), x, y, tol=0.0)
        assert len(ws) == 1
        best = mf.max_filter(mf.FullPermutation(500), x, y).value
        assert float(x @ y[ws[0]]) == pytest.approx(best, rel=1e-12)

    def test_phase_degenerate_returns_symmetric_reps(self):
        ws = witness_set(mf.PhaseCircle(2), [1.0 + 0j, 0j], [0j, 1.0 + 0j])
        assert len(ws) == 4
        assert abs(sum(ws)) <= 1e-12

    def test_every_witness_achieves_max(self):
        rng = np.random.default_rng(1)
        for group in WITNESS_GROUPS.values():
            for x, y in witness_inputs(group, rng):
                best = mf.max_filter(group, x, y).value
                tol = default_tie_tolerance(x, y)
                wits = witness_set(group, x, y)
                assert wits, group.kind
                for g in wits:
                    val = float(np.real(np.vdot(x, mf.apply_witness(group, g, y))))
                    assert val >= best - 2 * tol, group.kind

    # Kinds whose oracle lists every witness within the tie tolerance: at the
    # core's tolerance, and on integer operands at 2.5, between the scores,
    # so that near-ties spend a budget.  With the cap at the oracle's count,
    # or one above, the sets are equal; one below, witness_set raises.
    @pytest.mark.parametrize("kind", ["enumerated", "cyclic", "perm", "signedperm",
                                      "signflips", "colperm", "window"])
    def test_witness_set_is_the_oracles_tie_set(self, kind):
        group = WITNESS_GROUPS[kind]
        rng = np.random.default_rng(2)
        cases = [(x, y, mf.core.tie_tolerance(x, y)) for x, y in witness_inputs(group, rng)]
        cases += [(integer_operand(group, rng), integer_operand(group, rng), 2.5)
                  for _ in range(4)]
        for x, y, tol in cases:
            oracle = groups.kind_of(group).oracle(group, x, y, tol, 64, 2_000_000)
            want = {witness_key(g) for g in oracle.witnesses}
            for cap in (len(want), len(want) + 1, 4096):
                got = [witness_key(g) for g in witness_set(group, x, y, tol=tol,
                                                           max_witnesses=cap)]
                assert len(got) == len(set(got)) and set(got) == want
            with pytest.raises(mf.EnumerationCapExceeded,
                               match=f"{kind} tie set larger than cap {len(want) - 1}$"):
                witness_set(group, x, y, tol=tol, max_witnesses=len(want) - 1)

    @staticmethod
    def patch_products(group, x, y, tol):
        """Reference: every product of per-patch permutations whose per-patch
        shortfalls from the patch optimum sum to at most tol."""
        options = []
        for patch in group.patches:
            idx = np.asarray(patch)
            scores = {p: float(x[idx] @ y[idx][list(p)])
                      for p in itertools.permutations(range(len(idx)))}
            best = max(scores.values())
            options.append([(idx[list(p)], best - v) for p, v in scores.items()])
        found = set()
        for combo in itertools.product(*options):
            if sum(deficit for _, deficit in combo) <= tol:
                perm = np.empty(len(x), dtype=int)
                for patch, (image, _) in zip(group.patches, combo):
                    perm[list(patch)] = image
                found.add(witness_key(perm))
        return found

    def test_patch_witnesses_are_the_products_of_patch_ties(self):
        rng = np.random.default_rng(12)
        group = mf.PatchPermutation(((2, 0), (4, 1, 3), (5, 6, 7, 8)))
        # The first patch's swap falls 2 short of its best (x = 0, 1 against
        # y = 0, 2): with tol 2.5 it leaves 0.5, so the later patches may
        # then only tie exactly.
        spent = (np.array([0, 1, 1, 1, 0, 2, 2, 0, 0.0]), np.array([0, 1, 2, 3, 1, 1, 1, 0, 2.0]))
        cases = [(*spent, 2.5)]
        for _ in range(6):
            x = rng.integers(-1, 2, 9).astype(float)
            y = rng.integers(-2, 3, 9).astype(float)
            cases += [(x, y, 0.5), (x, y, 2.5), (np.zeros(9), y, 0.5)]
        for x, y, tol in cases:
            want = self.patch_products(group, x, y, tol)
            for cap in (len(want), len(want) + 1):
                got = [witness_key(g) for g in witness_set(group, x, y, tol=tol,
                                                           max_witnesses=cap)]
                assert len(got) == len(set(got)) and set(got) == want
            with pytest.raises(mf.EnumerationCapExceeded, match="patchperm tie set larger"):
                witness_set(group, x, y, tol=tol, max_witnesses=len(want) - 1)
        wide, narrow = (self.patch_products(group, *spent, tol) for tol in (2.5, 0.5))
        assert len(wide) > len(narrow)
        # Every first-patch pairing within tol completes: the later patches'
        # best pairings cost nothing, even where rounding puts the first
        # patch's deficit a hair above tol.
        group = mf.PatchPermutation(((0, 1, 2), (3, 4, 5), (6, 7)))
        head = np.asarray(group.patches[0])
        for _ in range(5):
            x = rng.standard_normal(8) * np.array([1e3] * 3 + [1.0] * 3 + [1e-3] * 2)
            y = rng.standard_normal(8)
            for _, deficit in groups._tie_pairings(x[head], y[head], np.inf):
                for tol in deficit + np.spacing(deficit) * np.arange(-2, 3):
                    got = {witness_key(g[head]) for g in witness_set(group, x, y, tol=tol)}
                    want = {witness_key(head[p]) for p, _ in
                            groups._tie_pairings(x[head], y[head], tol)}
                    assert got == want

    def test_two_large_zero_patches_raise_at_the_default_cap(self):
        group = mf.PatchPermutation((tuple(range(12)), tuple(range(12, 24))))
        start = time.perf_counter()
        with pytest.raises(mf.EnumerationCapExceeded):
            witness_set(group, np.zeros(24), np.random.default_rng(13).standard_normal(24))
        assert time.perf_counter() - start < 1.0

    def test_orthogonal_zero_input_gives_the_identity(self):
        for x, y in ((np.zeros(3), np.ones(3)), (np.ones(3), np.zeros(3))):
            ws = witness_set(mf.FullOrthogonal(3), x, y)
            assert len(ws) == 1 and np.array_equal(ws[0], np.eye(3))


class TestDirectionalDerivative:
    def test_sign_group_smooth_point(self):
        g = sign_group(2)
        x, y, v = [1.0, 0.0], [2.0, 1.0], [0.5, -0.3]
        assert directional_derivative(g, x, y, v) == pytest.approx(0.5 * 2 - 0.3 * 1)

    def test_sign_group_tie_takes_max(self):
        g = sign_group(2)
        x, y = [1.0, 0.0], [0.0, 3.0]
        v = [0.0, 1.0]
        # tie between +-identity: derivative is max(<v, y>, <v, -y>)
        assert directional_derivative(g, x, y, v) == pytest.approx(3.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(mf.ValidationError):
            directional_derivative(sign_group(2), [1.0, 0.0], [1.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("group", [
        sign_group(3), mf.CyclicShift(6), mf.FullPermutation(5),
        mf.SignedPermutation(4), mf.SignFlips(5), mf.FullOrthogonal(3),
        mf.ColumnPermutation(2, 4), mf.LeftOrthogonal(2, 4), mf.PhaseCircle(3),
        mf.ShiftAndConjugate(5),
    ], ids=lambda g: g.kind)
    def test_matches_central_differences_at_generic_points(self, group):
        rng = np.random.default_rng(abs(hash(group.kind)) % 2 ** 31)
        for _ in range(25):
            x = draw_operand(group, rng)
            y = draw_operand(group, rng)
            v = draw_operand(group, rng)
            dd = directional_derivative(group, x, y, v)
            fd = finite_difference(group, x, y, v)
            ny, nv = np.linalg.norm(y), np.linalg.norm(v)
            assert abs(dd - fd) <= 1e-4 * (1 + ny * nv)

    def test_window_group_on_support_slice(self):
        group = mf.SlidingWindowShift(2, 3, 4)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = np.zeros(group.shape)
            x[:, :, 1] = rng.standard_normal((2, 3))
            y = draw_operand(group, rng)
            v = np.zeros(group.shape)
            v[:, :, 1] = rng.standard_normal((2, 3))
            dd = directional_derivative(group, x, y, v)
            fd = finite_difference(group, x, y, v)
            assert abs(dd - fd) <= 1e-4 * (1 + np.linalg.norm(y) * np.linalg.norm(v))

    def test_forward_and_backward_differences_agree_off_ties(self):
        group = mf.FullPermutation(5)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y, v = (rng.standard_normal(5) for _ in range(3))
            dd = directional_derivative(group, x, y, v)
            t = 1e-6
            fx = mf.max_filter(group, x, y).value
            forward = (mf.max_filter(group, x + t * v, y).value - fx) / t
            backward = (fx - mf.max_filter(group, x - t * v, y).value) / t
            scale = 1e-4 * (1 + np.linalg.norm(y) * np.linalg.norm(v))
            assert abs(forward - dd) <= scale
            assert abs(backward - dd) <= scale

    def test_equals_sup_over_witness_images(self):
        group = mf.CyclicShift(8)
        rng = np.random.default_rng(3)
        x, y, v = (rng.standard_normal(8) for _ in range(3))
        dd = directional_derivative(group, x, y, v)
        images = [mf.apply_witness(group, g, y) for g in witness_set(group, x, y)]
        assert dd == pytest.approx(max(float(v @ u) for u in images), rel=1e-12)


class TestSubgradient:
    def test_sign_group_first(self):
        g = sign_group(2)
        u = subgradient(g, [1.0, 0.0], [2.0, 1.0], "first")
        np.testing.assert_allclose(u, [2.0, 1.0])

    def test_tie_average_is_zero(self):
        g = sign_group(2)
        u = subgradient(g, [1.0, 0.0], [0.0, 3.0], "average")
        np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-12)

    def test_unknown_selection(self):
        with pytest.raises(mf.ValidationError):
            subgradient(sign_group(2), [1.0, 0.0], [1.0, 1.0], "median")

    @pytest.mark.parametrize("group", [
        sign_group(3), mf.CyclicShift(6), mf.FullPermutation(5),
        mf.SignedPermutation(4), mf.SignFlips(5), mf.FullOrthogonal(3),
        mf.ColumnPermutation(2, 4), mf.LeftOrthogonal(2, 4),
    ], ids=lambda g: g.kind)
    def test_subgradient_inequality(self, group):
        rng = np.random.default_rng(abs(hash(group.kind + "sub")) % 2 ** 31)
        for _ in range(10):
            x = draw_operand(group, rng)
            y = draw_operand(group, rng)
            for selection in ("first", "average"):
                u = subgradient(group, x, y, selection)
                fx = mf.max_filter(group, x, y).value
                for _ in range(20):
                    h = draw_operand(group, rng)
                    fxh = mf.max_filter(group, np.asarray(x) + h, y).value
                    gain = float(np.real(np.vdot(h, u)))
                    assert fxh >= fx + gain - 1e-9 * (1 + np.linalg.norm(y)
                                                      * (np.linalg.norm(x) + np.linalg.norm(h)))

    def test_generator_norms_match_input(self):
        rng = np.random.default_rng(4)
        for group in [mf.CyclicShift(6), mf.FullPermutation(5), mf.SignedPermutation(4)]:
            x, y = draw_operand(group, rng), draw_operand(group, rng)
            sub = mf.subdifferential(group, x, y)
            assert sub.hull_note and len(sub.generators) >= 1
            for image in sub.generators:
                assert np.linalg.norm(image) == pytest.approx(np.linalg.norm(y), abs=1e-12)

    def test_sorted_alignment_subgradient(self):
        group = mf.FullPermutation(6)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        u = subgradient(group, x, y, "first")
        fx = mf.max_filter(group, x, y).value
        for _ in range(100):
            h = rng.standard_normal(6)
            assert mf.max_filter(group, x + h, y).value >= fx + float(h @ u) - 1e-9

    def test_window_group_subgradient(self):
        group = mf.SlidingWindowShift(2, 3, 5)
        rng = np.random.default_rng(6)
        x = draw_window_template(group, rng)
        y = draw_operand(group, rng)
        u = subgradient(group, x, y, "first")
        assert np.linalg.norm(u) == pytest.approx(np.linalg.norm(y), abs=1e-12)
        fx = mf.max_filter(group, x, y).value
        slice_idx = int(np.flatnonzero(np.abs(x).sum(axis=(0, 1)))[0])
        for _ in range(20):
            h = np.zeros(group.shape)
            h[:, :, slice_idx] = rng.standard_normal((2, 3))
            assert mf.max_filter(group, x + h, y).value >= \
                fx + float(np.sum(h * u)) - 1e-9


class TestOneImagesCall:
    @pytest.mark.parametrize("kind", sorted(WITNESS_GROUPS))
    def test_equal_to_the_per_witness_loops(self, kind):
        group = WITNESS_GROUPS[kind]
        rng = np.random.default_rng(7)
        for x, y in witness_inputs(group, rng):
            got = mf.subdifferential(group, x, y).generators
            want = reference_subdifferential(group, x, y)
            assert len(got) == len(want) and all(map(same_array, got, want))
            for selection in ("first", "average"):
                assert same_array(subgradient(group, x, y, selection),
                                  reference_subgradient(group, x, y, selection))
            for v in (draw_operand(group, rng), integer_operand(group, rng) + 3):
                assert directional_derivative(group, x, y, v) == \
                    reference_directional_derivative(group, x, y, v)

    def test_one_images_call_on_a_six_way_tie(self, monkeypatch):
        # Six equal entries of x tie perm:8 at 6! = 720 witnesses.
        group = mf.FullPermutation(8)
        x, y = [1.0] * 6 + [2.0, 3.0], np.arange(8.0)
        record = groups.KINDS["perm"]
        calls = []

        def images(group, W, X):
            calls.append(np.shape(W)[:2])
            return record.images(group, W, X)
        monkeypatch.setitem(groups.KINDS, "perm", dataclasses.replace(record, images=images))
        assert len(mf.subdifferential(group, x, y).generators) == 720
        subgradient(group, x, y, "average")
        directional_derivative(group, x, y, np.ones(8))
        subgradient(group, x, y, "first")
        assert calls == [(1, 720)] * 3 + [(1, 1)]

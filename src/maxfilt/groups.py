"""Specialized max filtering algorithms, and one record per group kind.

Every kind is defined once, by a :class:`Kind` record in :data:`KINDS`
keyed by the descriptor's ``kind``; the engine in :mod:`maxfilt.core`
reaches the kinds only through it.

A record's bulk form ``bank(group, Z)`` evaluates a whole bank of K
templates ``Z`` against many inputs at once, in the best known complexity
for its group: FFT cross-correlation for circular shifts, sorting for
(signed/patch) permutations, SVD for one-sided orthogonal actions, linear
assignment (solved in lockstep over the whole stack of profit matrices) for
column permutations.  It does the bank's share of the work once and returns
``evaluate(X, tol)`` for chunks of N inputs; ``tol`` holds the (N, K) tie
tolerances, or is None when only values are wanted.  ``evaluate`` returns
the (N, K) values and, unless ``tol`` is None, the first witness of every
pair stacked over leading (N, K) axes (a tuple of such arrays for tuple
witnesses); ``images(group, W, X)`` maps stacked witnesses back to ``g x``.
:func:`maxfilt.core.max_filter` is the bulk form at N = K = 1 with a scalar
``tol``: the kinds that pick a witness by the tolerance (cyclic, enumerated,
window, shiftconj) then stack every witness within it, in index order, over
axes (1, m) (see :func:`_first_within`); the others stack their one witness
over axes (1, 1).

The paired form ``pairs(group, Z, X, tol)`` matches row i of Z against row
i of X only and returns, stacked over a leading (N,) axis, the first
witness of every pair; ``tol`` holds the (N,) tie tolerances.  It is built
from the helpers of the kind's bulk form and is reached through
:func:`maxfilt.core.quotient_distances`.

The record also holds the kind's tie enumeration for
:func:`maxfilt.calculus.witness_set` (``witnesses(group, x, y, tol)``: an
iterable of every witness within tol, which never raises for its size;
``witness_set`` alone caps it; by default the bulk form's tie list), its
spec grammar (``cyclic:N``, read by :func:`from_spec`), its
brute-force oracle (the independent reference behind
:func:`maxfilt.core.brute_force_max_filter`, built from none of the forms
above) and, for sliding windows, the single-slice template
convention with the training form that keeps it (:class:`WindowSlices`:
templates trained, and differentiated, as the one slice each lives on).
Random operands and templates are drawn here too, in the kind's layout
(:func:`sample_point`, :func:`random_template`).  Adding a kind takes a descriptor in :mod:`maxfilt.core` (a
member of ``GroupAction``, which also states the operand space) and one
``KINDS`` entry here.
"""

from __future__ import annotations

import itertools
import json
import math
import typing
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._assignment import max_profit_assignments
from .core import (Enumerated, EnumerationCapExceeded, FilterResult, GroupAction,
                   NumericFailure, PatchPermutation, SlidingWindowShift, ValidationError,
                   _chunk_rows, _evaluate, _haar_orthogonal, _tie_list,
                   _vector_norms, _WholeTemplates)


def _first_within(scores: np.ndarray, tol) -> tuple:
    """Max over the last axis, and the index of the first score within tol of
    it.  A scalar tol marks the scores of one pair: the indices are then
    every one within tol, in index order, as a (1, m) row."""
    best = scores.max(axis=-1)
    if tol is None:
        return best, None
    if getattr(tol, "ndim", 0) == 0:
        return best, np.flatnonzero(scores >= best.item() - tol)[None]
    return best, np.argmax(scores >= (best - tol)[..., None], axis=-1)


def _unit_phase(w: np.ndarray) -> np.ndarray:
    """conj(w) / |w|, the phase c maximizing Re(c w); 1 where w vanishes."""
    mag = np.abs(w)
    safe = mag > 1e-300
    return np.where(safe, np.conj(w) / np.where(safe, mag, 1.0), 1.0 + 0j)


# ---------------------------------------------------------------------------
# Circular shifts
# ---------------------------------------------------------------------------

def cyclic_scorer(Z: np.ndarray):
    """X -> scores[..., a] = <Z, roll(X, a)> along the last axis, the leading
    axes of Z and X broadcast (X[:, None] against a bank Z gives every pair;
    equal leading axes give row against row): one real FFT of Z (taken here,
    once) and one of X, at the exact signal length (no zero-padding) so the
    correlation wraps at exactly n."""
    fz, n = np.fft.rfft(Z), Z.shape[-1]
    return lambda X: np.fft.irfft(fz * np.conj(np.fft.rfft(X)), n=n)


def cyclic_bank(group, Z):
    scores = cyclic_scorer(Z)
    return lambda X, tol: _first_within(scores(X[:, None]), tol)


def cyclic_pairs(group, Z, X, tol):
    return _first_within(cyclic_scorer(Z)(X), tol)[1]


# ---------------------------------------------------------------------------
# Permutation families (sorting)
# ---------------------------------------------------------------------------

def _descending_order(V: np.ndarray, patches=None) -> np.ndarray:
    """Stable descending order of each row of V, within each patch when
    patches are given; ties keep their position in the row (patch)."""
    if patches is None:
        return np.argsort(-V, axis=-1, kind="stable")
    cat = np.concatenate([np.asarray(p) for p in patches])
    seg = np.repeat(np.arange(len(patches)), [len(p) for p in patches])
    return cat[np.lexsort((-V[..., cat], np.broadcast_to(seg, V.shape)), axis=-1)]


def _rank_matcher(Z: np.ndarray, patches):
    """Pair the r-th largest entries of every template and input (within each
    patch): values by one matmul of the sorted rows; witness ``p`` with
    ``p[iz[r]] = ix[r]`` so that ``g x = x[p]``.  The bank is sorted here,
    once."""
    iz = _descending_order(Z, patches)
    zs = Z[np.arange(len(Z))[:, None], iz].T
    rank = np.argsort(iz, axis=-1)          # inverse permutation: rank[iz[r]] = r

    def evaluate(X, tol):
        ix = _descending_order(X, patches)
        values = X[np.arange(len(X))[:, None], ix] @ zs
        return values, None if tol is None else ix[:, rank]
    return evaluate


def sort_bank(group, Z):
    """Full and patch permutations: sort every row once, then one matmul."""
    return _rank_matcher(Z, getattr(group, "patches", None))


def sort_pairs(group, Z, X, tol):
    """The witness of :func:`_rank_matcher`, row against row."""
    patches = getattr(group, "patches", None)
    rank = np.argsort(_descending_order(Z, patches), axis=-1)
    return np.take_along_axis(_descending_order(X, patches), rank, axis=-1)


def signed_sort_bank(group, Z):
    """<sort(|z|), sort(|x|)>; each matched pair signed to contribute |z_i||x_j|."""
    match = _rank_matcher(np.abs(Z), None)
    sign_z = np.sign(Z)[None]

    def evaluate(X, tol):
        values, perm = match(np.abs(X), tol)
        if perm is None:
            return values, None
        return values, (perm, _matched_signs(sign_z, np.take_along_axis(X[:, None], perm, -1)))
    return evaluate


def _matched_signs(sign_z: np.ndarray, matched_x: np.ndarray) -> np.ndarray:
    """Signs making every matched pair contribute |z_i||x_j|; +1 at zeros."""
    signs = sign_z * np.sign(matched_x)
    signs[signs == 0] = 1.0
    return signs


def signed_sort_pairs(group, Z, X, tol):
    perm = sort_pairs(group, np.abs(Z), np.abs(X), tol)
    return perm, _matched_signs(np.sign(Z), np.take_along_axis(X, perm, -1))


def sign_flips_bank(group, Z):
    """sum |z_i x_i| by a matmul of absolute values; witness = sign vector."""
    abs_z = np.abs(Z).T

    def evaluate(X, tol):
        values = np.abs(X) @ abs_z
        return values, None if tol is None else sign_flips_pairs(group, Z[None], X[:, None], tol)
    return evaluate


def sign_flips_pairs(group, Z, X, tol):
    """The sign vector aligning X with Z entry by entry (+1 where either is 0)."""
    return np.where(Z * X >= 0, 1.0, -1.0)


def _tie_pairings(x, y, tol):
    """Every permutation perm with sum x[i] * y[perm[i]] >= max - tol, lazily,
    as ``(perm, deficit)`` pairs: the deficit is max minus that sum, both
    summed serially in rank order of the descending sorts, so the in-order
    pairing's deficit is exactly 0.  Future completions are bounded by the
    rearrangement inequality, so the search is exact."""
    ox = np.argsort(-x, kind="stable")
    oy = np.argsort(-y, kind="stable")
    xs, ys = x[ox], y[oy]
    d = len(xs)
    # Serial left-to-right sum: the in-order pairing's bound below repeats the
    # exact same operation sequence, so the optimum survives any tol >= 0.
    best = 0.0
    for r in range(d):
        best += xs[r] * ys[r]

    # `remaining` holds unassigned y-ranks in descending y order, so the best
    # completion of a partial pairing is the in-order (rearrangement) pairing.
    # Pinning a smaller y value to the current (largest remaining) x slot can
    # only lower the optimum, so bounds are non-increasing along `remaining`
    # and the candidate scan may stop at the first pruned position.  Explicit
    # stack (depth-first), so the depth is not limited by Python recursion.
    stack = [((), list(range(d)), 0.0)]
    while stack:
        prefix, remaining, acc = stack.pop()
        r = len(prefix)
        if r == d:
            perm = np.empty(d, dtype=int)
            perm[ox] = oy[list(prefix)]
            yield perm, best - acc
            continue
        survivors = []
        for pos, s in enumerate(remaining):
            rem2 = remaining[:pos] + remaining[pos + 1:]
            bound = acc + xs[r] * ys[s]
            for off, t in enumerate(rem2):
                bound += xs[r + 1 + off] * ys[t]
            if bound < best - tol:
                break
            survivors.append((prefix + (s,), rem2, acc + xs[r] * ys[s]))
        stack.extend(reversed(survivors))   # keep in-order exploration first


def _sign_flips_within(contrib: np.ndarray, budget: float):
    """Sign vectors aligning each product contrib[i] (+1 at zero) except on
    a set of flipped entries whose costs 2|contrib[i]| sum to at most
    ``budget``: depth-first from the unflipped vector, cheapest flips first."""
    base = np.where(contrib >= 0, 1.0, -1.0)
    costs = 2.0 * np.abs(contrib)
    order = np.argsort(costs, kind="stable")

    def rec(idx, budget, flips):
        signs = base.copy()
        signs[flips] *= -1.0
        yield signs
        for j in range(idx, len(order)):
            c = costs[order[j]]
            if c > budget:
                break
            yield from rec(j + 1, budget - c, flips + [order[j]])
    return rec(0, budget, [])


def sort_witnesses(group, x, y, tol):
    """Every permutation within tol of the optimum, from the tie pairings."""
    return (perm for perm, _ in _tie_pairings(x, y, tol))


def _signed_perm_witnesses(group, x, y, tol):
    """(perm, signs) within tol: each tie pairing of |x| and |y| with the
    sign flips its deficit leaves room for.  Distinct pairings give distinct
    perms and distinct flip sets distinct signs, so no witness repeats."""
    for perm, deficit in _tie_pairings(np.abs(x), np.abs(y), tol):
        for signs in _sign_flips_within(x * y[perm], max(0.0, tol - deficit)):
            yield perm.copy(), signs


def _patch_witnesses(group, x, y, tol):
    """Products of per-patch tie permutations whose deficits sum to at most
    tol: each patch's ties within the budget the earlier patches leave."""
    def rec(patches, budget, perm):
        if not patches:
            yield perm.copy()
            return
        idx = np.asarray(patches[0])
        for local, deficit in _tie_pairings(x[idx], y[idx], budget):
            perm[idx] = idx[local]
            # A deficit that passed the patch's own test may round a hair
            # above the budget; the later patches' best pairings still fit.
            yield from rec(patches[1:], max(0.0, budget - deficit), perm)
    return rec(group.patches, tol, np.empty(len(x), dtype=int))


# ---------------------------------------------------------------------------
# Orthogonal actions
# ---------------------------------------------------------------------------

def orthogonal_bank(group, Z):
    """|z| |x| for every pair; witness: the reflection sending x/|x| to
    z/|z|, or the identity when either vanishes or the two coincide."""
    nz = np.linalg.norm(Z, axis=-1)

    def evaluate(X, tol):
        nx = np.linalg.norm(X, axis=-1)
        values = nx[:, None] * nz[None, :]
        if tol is None:
            return values, None
        return values, _reflections(Z, nz, X[:, None], nx[:, None])
    return evaluate


def _reflections(Z, nz, X, nx) -> np.ndarray:
    """The reflection sending X/|X| to Z/|Z| (norms nx, nz given; leading
    axes broadcast), or the identity where either vanishes or they coincide."""
    eye = np.eye(Z.shape[-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        w = X / nx[..., None] - Z / nz[..., None]
        nw = np.linalg.norm(w, axis=-1)
        w = w / nw[..., None]
    reflect = (nx > 0) & (nz > 0) & (nw > 1e-14)
    return np.where(reflect[..., None, None], eye - 2.0 * w[..., :, None] * w[..., None, :], eye)


def orthogonal_pairs(group, Z, X, tol):
    return _reflections(Z, np.linalg.norm(Z, axis=-1), X, np.linalg.norm(X, axis=-1))


def left_orthogonal_bank(group, Z):
    """Nuclear norm of X[n] Z[k]^T by stacked SVDs of the k x k products;
    witness: the orthogonal polar factor R = V U^T, so that <z, R x> equals
    the sum of singular values."""
    zt = np.swapaxes(Z, -1, -2)[None]
    return lambda X, tol: _polar(np.matmul(X[:, None], zt), tol is not None)


def _polar(P: np.ndarray, witnesses: bool) -> tuple:
    """Nuclear norms of the stacked k x k matrices P and, if asked, their
    orthogonal polar factors R = V U^T (so that <z, R x> = |x z^T|_*)."""
    try:
        u, s, vt = np.linalg.svd(P)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"SVD did not converge: {exc}") from exc
    if not witnesses:
        return s.sum(axis=-1), None
    return s.sum(axis=-1), np.swapaxes(vt, -1, -2) @ np.swapaxes(u, -1, -2)


def left_orthogonal_pairs(group, Z, X, tol):
    return _polar(np.matmul(X, np.swapaxes(Z, -1, -2)), True)[1]


def column_permutation_bank(group, Z):
    """Maximum-profit linear assignment for every pair, profit[j, i] =
    <z_col_j, x_col_i>: the chunk's (N, K) profit matrices are formed by one
    broadcast matmul (the same products as ``z.T @ x``, bit for bit, which an
    einsum is not) and solved by one batched call; witness ``p`` satisfies
    ``g x = x[:, p]``."""
    zt = np.swapaxes(Z, -1, -2)[None]

    def evaluate(X, tol):
        profits = np.matmul(zt, X[:, None])
        values, cols = max_profit_assignments(profits.reshape((-1,) + profits.shape[2:]))
        values = values.reshape(profits.shape[:2])
        return values, None if tol is None else cols.reshape(profits.shape[:3])
    return evaluate


def column_permutation_pairs(group, Z, X, tol):
    """One (N, n, n) stack of profit matrices, one per row, for one solve."""
    return max_profit_assignments(np.matmul(np.swapaxes(Z, -1, -2), X))[1]


def _colperm_witnesses(group, x, y, tol):
    """Every column permutation within tol, by enumeration up to n = 8.
    Beyond enumeration scale only the paired form's assignment optimum is
    reported; tie enumeration for degenerate assignment polytopes is not."""
    if group.n > 8:
        return list(column_permutation_pairs(group, x[None], y[None], tol))
    profit = x.T @ y
    n = group.n
    perms = np.array(list(itertools.permutations(range(n))))
    vals = profit[np.arange(n), perms].sum(axis=1)
    ties = np.flatnonzero(vals >= vals.max() - tol)
    return (perms[i].copy() for i in ties)


# ---------------------------------------------------------------------------
# Complex kinds
# ---------------------------------------------------------------------------

def phase_bank(group, Z):
    """|z^* x| for every pair; witness is the optimal unit phase c, since
    <z, c x> = Re(c z^* x) peaks at c = conj(w)/|w|."""
    conj_z = np.conj(Z).T

    def evaluate(X, tol):
        w = X @ conj_z
        return np.abs(w), None if tol is None else _unit_phase(w)
    return evaluate


def phase_pairs(group, Z, X, tol):
    """z^* x row against row, by the same dot product as ``X @ conj_z``."""
    return _unit_phase(np.matmul(X[:, None, :], np.conj(Z)[:, :, None])[:, 0, 0])


# Where every phase attains the maximum (a vanishing correlation), four
# evenly spread phases stand in for the circle: their mean, 0, is in the hull.
_PHASE_REPS = (complex(1), complex(0, 1), complex(-1), complex(0, -1))


def _phases_within(w, tol) -> list:
    """The unit phase c maximizing Re(c w), or :data:`_PHASE_REPS` where
    |w| <= tol, so that every phase is within tol of the maximum."""
    if abs(w) <= tol:
        return list(_PHASE_REPS)
    return [complex(np.conj(w) / abs(w))]


def shift_conjugate_scorer(Z: np.ndarray):
    """X -> scores[..., c, a] = Z^* roll(Y, a) with Y = X for c = 0 and
    Y = conj(X) for c = 1, the leading axes of Z and X broadcast as in
    :func:`cyclic_scorer`: one FFT of Z (taken here, once) and one call for
    the FFTs of conj(X) and X."""
    fz = np.fft.fft(np.conj(Z))[..., None, :]
    return lambda X: np.fft.ifft(fz * np.conj(np.fft.fft(np.stack([np.conj(X), X], axis=-2))))


def _shift_conjugate_first(corr: np.ndarray, tol) -> tuple:
    """Best |score| over the (..., 2, n) scores and, unless tol is None, the
    first (shift, conjugation flag, unit phase) within tol of it."""
    n = corr.shape[-1]
    corr = corr.reshape(corr.shape[:-2] + (2 * n,))
    best, first = _first_within(np.abs(corr), tol)
    if first is None:
        return best, None
    rows = np.arange(0, corr.size, 2 * n).reshape(corr.shape[:-1])   # where each pair starts
    w = corr.reshape(-1)[rows + first]
    return best, (first % n, first >= n, _unit_phase(w))


def shift_conjugate_bank(group, Z):
    scores = shift_conjugate_scorer(Z)
    return lambda X, tol: _shift_conjugate_first(scores(X[:, None]), tol)


def shift_conjugate_pairs(group, Z, X, tol):
    return _shift_conjugate_first(shift_conjugate_scorer(Z)(X), tol)[1]


def _shift_conjugate_witnesses(group, x, y, tol):
    """(shift, conjugation flag, unit phase) in order of (flag, shift), as
    ``max_filter`` lists them, with the phases of :func:`_phases_within`."""
    corr_plain, corr_conj = shift_conjugate_scorer(x)(y)
    best = max(float(np.abs(corr_plain).max()), float(np.abs(corr_conj).max()))
    for conj_flag, corr in ((False, corr_plain), (True, corr_conj)):
        for a in np.flatnonzero(np.abs(corr) >= best - tol):
            yield from ((int(a), conj_flag, c) for c in _phases_within(corr[a], tol))


# ---------------------------------------------------------------------------
# Sliding windows
# ---------------------------------------------------------------------------

def window_scores(S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """scores[n, k, p] = <S[k], X[n][:, :, p]> for template slices S (K, c, w)
    and inputs X (N, c, w, T), as one matmul."""
    c, w, t = X.shape[1:]
    return np.matmul(S.reshape(len(S), c * w), X.reshape(len(X), c * w, t))


def window_scorer(Z: np.ndarray) -> tuple:
    """``(scores, t0)``: ``t0[k]`` is the first slice template Z[k] occupies
    (0 for a zero template) and X -> scores[n, k, p] = <Z[k], roll(X[n],
    t0[k] - p)> along the slice axis, so that shift ``(t0[k] - p) mod T``
    is the witness of slice position p.

    A template on a single slice is matched by :func:`window_scores` (one
    matmul of the slices), templates that occupy several slices by
    :func:`_correlation_scorer`.
    """
    occupied = _occupied_slices(Z)                             # (K, T)
    t0 = occupied.argmax(axis=1)
    multi = np.flatnonzero(occupied.sum(axis=1) > 1)
    single = np.flatnonzero(occupied.sum(axis=1) <= 1)
    slices = Z[single, :, :, t0[single]]
    if len(multi) == 0:
        return (lambda X: window_scores(slices, X)), t0
    correlate = _correlation_scorer(Z[multi])[0]

    def scores(X):
        out = np.empty((len(X), len(Z), Z.shape[-1]))
        out[:, single] = window_scores(slices, X)
        out[:, multi] = correlate(X[:, None])
        return out
    return scores, t0


def _occupied_slices(Z: np.ndarray) -> np.ndarray:
    """occupied[..., t]: whether template Z has a nonzero entry on slice t."""
    return np.abs(Z).sum(axis=(-3, -2)) > 0


def _correlation_scorer(Z: np.ndarray) -> tuple:
    """:func:`window_scorer` by circular correlation along the slice axis, the
    leading axes of Z and X broadcast as in :func:`cyclic_scorer`: one real
    FFT along T of Z (taken here, once) and of X, summed over c and w."""
    t = Z.shape[-1]
    t0 = _occupied_slices(Z).argmax(axis=-1)
    fz = np.fft.rfft(Z, axis=-1)
    back = (t0[..., None] - np.arange(t)) % t                  # shift of each position

    def scores(X):
        fx = np.conj(np.fft.rfft(X, axis=-1))
        corr = np.fft.irfft(np.einsum("...cwf,...cwf->...f", fz, fx), n=t)
        return np.take_along_axis(corr, np.broadcast_to(back, corr.shape), axis=-1)
    return scores, t0


def sliding_window_bank(group, Z):
    return _shift_of_first(*window_scorer(Z))


def _shift_of_first(scores, t0):
    """The bulk form of a window scorer ``(scores, t0)``: the witness of a
    pair is the shift ``(t0 - p) mod T`` of its first position p within tol."""
    def evaluate(X, tol):
        best, first = _first_within(scores(X), tol)
        return best, None if first is None else (t0 - first) % X.shape[-1]
    return evaluate


def sliding_window_pairs(group, Z, X, tol):
    """The witnesses of :func:`_correlation_scorer`, row against row."""
    return _shift_of_first(*_correlation_scorer(Z))(X, tol)[1]


# Window templates live on a single slice: training keeps them there, so
# random templates start on slice 0 and a subgradient step only ever touches
# each template's own slice.

class WindowSlices:
    """What a training run, or :func:`maxfilt.core.bank_subgradient`, keeps
    for a bank of window templates Z: each template is the (c, w) slice it
    lives on, ``params[k] = Z[k][:, :, t0[k]]``, and only :meth:`templates`
    builds (c, w, T) tensors.  The slices are found in one pass over the
    bank; a template on several slices is a ValidationError.  Values,
    witnesses and subgradients are those of the bulk form and of the whole
    tensors' subgradient restricted to each template's slice, bit for bit."""

    def __init__(self, group, Z):
        occupied = _occupied_slices(Z)
        if np.any(occupied.sum(axis=1) > 1):
            raise ValidationError("sliding-window template must be supported on a single slice")
        self.t0 = occupied.argmax(axis=1)             # 0 for a zero template
        self.params = Z[np.arange(len(Z)), :, :, self.t0]
        self._whole = np.zeros(Z.shape)               # for the template norms
        self._step = _chunk_rows(group, len(Z), kind_of(group).width)

    def templates(self, S: np.ndarray) -> np.ndarray:
        Z = np.zeros(self._whole.shape)
        Z[np.arange(len(S)), :, :, self.t0] = S
        return Z

    def evaluate(self, S: np.ndarray, X: np.ndarray, nx) -> tuple:
        if not np.isfinite(S).all():
            raise ValidationError("operand contains NaN or infinity")
        norms = None
        if nx is not None:
            # The norms of the whole tensors: a norm of the slice alone is
            # the same number, but BLAS may sum it in another order.
            self._whole[np.arange(len(S)), :, :, self.t0] = S
            norms = _vector_norms(self._whole)
        return _evaluate(_shift_of_first(lambda x: window_scores(S, x), self.t0),
                         norms, self._step, X, nx)

    def subgradient(self, S: np.ndarray, X: np.ndarray, witnesses, coef: np.ndarray):
        """Per template, the sum over n of ``coef[n, k]`` times the slice of
        X[n] that the witness matches with slice t0[k]."""
        used = np.flatnonzero(np.any(coef != 0, axis=1))
        positions = (self.t0 - np.asarray(witnesses)[used]) % X.shape[-1]
        return np.einsum("nk,nkcw->kcw", coef[used], X[used[:, None], :, :, positions])


def _window_template(group, rng):
    """A unit-norm random template on slice 0."""
    z = np.zeros(group.shape)
    slab = rng.standard_normal((group.c, group.w))
    z[:, :, 0] = slab / np.linalg.norm(slab)
    return z


# ---------------------------------------------------------------------------
# Explicit finite groups
# ---------------------------------------------------------------------------

def _pulled_back(mats: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """M_g^T Z[k] for every template and element: (K, |G|, d)."""
    return np.einsum("gij,ki->kgj", mats, Z)


def enumerated_scorer(mats: np.ndarray, Z: np.ndarray):
    """X -> scores[n, k, g] = <Z[k], M_g X[n]>: one matmul against the
    M_g^T Z[k], formed here, once."""
    gz = _pulled_back(mats, Z).reshape(-1, Z.shape[-1]).T
    return lambda X: (X @ gz).reshape(len(X), len(Z), len(mats))


def enumerated_bank(group, Z):
    scores = enumerated_scorer(np.stack(group.matrices), Z)
    return lambda X, tol: _first_within(scores(X), tol)


def enumerated_pairs(group, Z, X, tol):
    scores = np.matmul(_pulled_back(np.stack(group.matrices), Z), X[:, :, None])[..., 0]
    return _first_within(scores, tol)[1]


# ---------------------------------------------------------------------------
# Witness images, element samplers and the kind records
# ---------------------------------------------------------------------------

def _gather_last(X: np.ndarray, idx) -> np.ndarray:
    """X[n][..., idx[n, k]] for every pair: (N, K) + X.shape[1:]."""
    return np.take_along_axis(X[:, None], np.asarray(idx, dtype=int), axis=-1)


def _roll_last(X: np.ndarray, shifts) -> np.ndarray:
    """roll(X[n], shifts[n, k]) along the last axis for every pair."""
    s = np.asarray(shifts, dtype=int)
    t = X.shape[-1]
    return _gather_last(X, (np.arange(t) - s.reshape(s.shape + (1,) * (X.ndim - 1))) % t)


def _shift_conjugate_images(group, W, X):
    shift, conj, phase = W
    y = np.where(np.asarray(conj, dtype=bool)[..., None], np.conj(X)[:, None], X[:, None])
    s = np.asarray(shift, dtype=int)
    t = X.shape[-1]
    rolled = np.take_along_axis(y, (np.arange(t) - s[..., None]) % t, axis=-1)
    return np.asarray(phase, dtype=complex)[..., None] * rolled


def _unit_complex(rng: np.random.Generator) -> complex:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(theta), math.sin(theta))


def _shift_conjugate_element(group, rng):
    """(shift, conjugation flag, unit phase), the phase drawn first."""
    phase = _unit_complex(rng)
    return int(rng.integers(group.n)), bool(rng.integers(2)), phase


def _patch_element(group, rng):
    perm = np.arange(group.dim)
    for p in group.patches:
        idx = np.asarray(p)
        perm[idx] = idx[rng.permutation(len(p))]
    return perm


# ---------------------------------------------------------------------------
# Brute-force oracle: max over g of <z, g x> by enumeration or search
# ---------------------------------------------------------------------------

# Entries per block of element images, about what one image of a large operand holds.
_ORACLE_BLOCK = 1 << 14


def _enumerator(elements, act, capped=None):
    """The oracle of a finite kind whose witnesses are all elements within tol
    of the best, in order: ``elements(group)`` maps indices i < order to the
    stacked witnesses (None: i itself), ``act(group, W, x)`` gives their images
    g x, and ``capped = (field, limit, what)`` refuses a field past limit."""

    def oracle(group, z, x, tol, resolution, cap):
        if capped is not None and getattr(group, capped[0]) > capped[1]:
            raise EnumerationCapExceeded("{2} enumeration capped at {0} <= {1}".format(*capped))
        take = (lambda i: i) if elements is None else elements(group)
        best, found, step = -np.inf, [], max(1, _ORACLE_BLOCK // z.size)
        for start in range(0, group.order, step):
            W = take(np.arange(start, min(start + step, group.order)))
            scores = act(group, W, x).reshape(-1, z.size) @ z.ravel()
            best = max(best, float(scores.max()))     # keep what is within tol so far
            found += [(scores[i], _unstack(W, i)) for i in np.flatnonzero(scores >= best - tol)]
        return FilterResult(value=best, witnesses=[w for s, w in found if s >= best - tol])
    return oracle


def _unstack(W, i):
    """Witness i of a stacked block: a Python int, an array, or a tuple of arrays."""
    if isinstance(W, tuple):
        return tuple(w[i].copy() for w in W)
    return W[i].item() if W.ndim == 1 else W[i].copy()


def _table(items):
    """Index arrays -> rows of the items, stacked once."""
    return np.array(list(items)).__getitem__


def _signed_permutations(group):
    """Element i is (perm i // 2^d, signs i % 2^d): perm-major, sign-minor."""
    perms = np.array(list(itertools.permutations(range(group.d))))
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=group.d)))
    return lambda i: (perms[i // len(signs)], signs[i % len(signs)])


def _roll(group, W, x):
    """roll(x, a) along the last axis for every shift a in W."""
    t = x.shape[-1]
    return np.moveaxis(x[..., (np.arange(t) - W[:, None]) % t], -2, 0)


def _patch_oracle(group, z, x, tol, resolution, cap):
    """One witness: the first best permutation of each patch, patch by patch."""
    if any(len(p) > 8 for p in group.patches):
        raise EnumerationCapExceeded("patch enumeration capped at 8 cells per patch")
    if group.order > cap:
        raise EnumerationCapExceeded(f"patch enumeration exceeds cap {cap}")
    best_perm, value = np.arange(group.dim), 0.0
    for idx in map(np.asarray, group.patches):
        sub_perms = np.array(list(itertools.permutations(range(len(idx)))))
        vals = x[idx][sub_perms] @ z[idx]
        j = int(np.argmax(vals))
        value += float(vals[j])
        best_perm[idx] = idx[sub_perms[j]]
    return FilterResult(value=value, witnesses=[best_perm])


def _phase_search(correlations):
    """The oracle of a kind whose elements are unit phases c after maps m,
    ``correlations(group, z, x)`` yielding ``(key, z^* m x)`` for each m: the
    first best Re(c z^* m x) on a grid of ``resolution`` phases, witness c
    where the key is None, else ``key + (c,)``."""

    def oracle(group, z, x, tol, resolution, cap):
        phases = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False))
        best, wit = -np.inf, None
        for key, w in correlations(group, z, x):
            vals = np.real(phases * w)
            i = int(np.argmax(vals))
            if vals[i] > best:
                c = complex(phases[i])
                best, wit = float(vals[i]), c if key is None else key + (c,)
        return FilterResult(value=best, witnesses=[wit], approximate=True)
    return oracle


def _orthogonal_search(score):
    """The oracle of a kind acting by O(d), d = ``group.shape[0]``, with
    <z, q x> = ``score(z, q, x)``: exact for d = 1, a dense O(2) grid for
    d = 2, else the first best of random orthogonal q and -q (lower bounds)."""

    def oracle(group, z, x, tol, resolution, cap):
        d = group.shape[0]
        best, wit = -np.inf, None
        if d == 2:
            # score is linear in the matrix, so each O(2) branch traces a pure
            # sinusoid over the angle grid; four base evaluations suffice.
            thetas = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
            cos, sin = np.cos(thetas), np.sin(thetas)
            rotations = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.0, -1.0], [1.0, 0.0]]))
            reflections = (np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
            for a, b in (rotations, reflections):
                vals = score(z, a, x) * cos + score(z, b, x) * sin
                i = int(np.argmax(vals))
                if vals[i] > best:
                    best, wit = float(vals[i]), cos[i] * a + sin[i] * b
            return FilterResult(value=best, witnesses=[wit], approximate=True)
        rng = np.random.default_rng(resolution)
        candidates = (np.array([[1.0]]), np.array([[-1.0]])) if d == 1 else (
            c for _ in range(resolution) for q in [_haar_orthogonal(d, rng)] for c in (q, -q))
        for q in candidates:
            v = score(z, q, x)
            if v > best:
                best, wit = v, q
        return FilterResult(value=best, witnesses=[wit], approximate=d > 1)
    return oracle


# ---------------------------------------------------------------------------
# Spec grammar: "kind:rest", as the CLI's --group takes it
# ---------------------------------------------------------------------------

# Descriptor class per kind, from the members of ``GroupAction``.
DESCRIPTORS = {cls.kind: cls for cls in typing.get_args(GroupAction)}


def _size(text: str) -> int:
    """A size as the grammar writes it, in ASCII digits (``int`` also takes
    signs, spaces, underscores and other scripts' digits)."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"size {text!r} is not written in digits 0-9")
    return int(text)


def _sizes(rest: str) -> list:
    return [_size(p) for p in rest.split("x")]


def _patches_from_spec(rest, channels):
    side, grid = rest.split("@")
    return PatchPermutation.square(_size(side), tuple(_sizes(grid)))


def _window_from_spec(rest, channels):
    sizes = _sizes(rest)
    if len(sizes) == 2:
        if channels is None:
            raise ValidationError("window spec w x T needs channel count from the input data")
        sizes = [channels] + sizes
    if len(sizes) != 3:
        raise ValidationError("window spec must be WxT or CxWxT")
    return SlidingWindowShift(*sizes)


def _enumerated_from_file(rest, channels):
    with open(rest, "r", encoding="utf-8") as fh:
        mats = json.load(fh)
    return Enumerated(tuple(np.asarray(m, dtype=float) for m in mats))


def from_spec(name: str, rest: str, channels: Optional[int] = None):
    """The descriptor of kind ``name`` that ``rest`` (the spec after its
    colon) names: by the record's ``parse``, or else the sizes split on
    ``x`` in field order.  TypeError or ValueError for a malformed ``rest``."""
    parse = KINDS[name].parse
    return parse(rest, channels) if parse is not None else DESCRIPTORS[name](*_sizes(rest))


def _unit_sample_point(group, rng):
    z = sample_point(group, rng)
    return z / np.linalg.norm(z)


@dataclass(frozen=True)
class Kind:
    """One group kind, defined once; :data:`KINDS` maps each descriptor's
    ``kind`` to its record.  The operand space (``dtype``, ``shape`` and
    ``dim``) and the group's ``order`` are the descriptor's own; the record
    holds what the algorithms need.

    * ``spec``: the grammar of the kind's spec string, such as ``cyclic:N``;
      ``parse(rest, channels)`` reads the part after the colon where the
      default of :func:`from_spec` does not.
    * ``bank``, ``pairs`` and ``images``: the bulk form, the paired form and
      the witness images (see the module docstring).
    * ``witnesses(group, x, y, tol)``: :func:`maxfilt.calculus.witness_set`,
      an iterable of every witness within tol (tie blocks expanded, lazily
      where they can grow large), or representatives of a continuum; by
      default the bulk form's tie list at tol.  It never raises for the
      set's size; ``witness_set`` applies the cap.
    * ``element(group, rng)``: a random element in witness encoding (Haar
      for continuous kinds).
    * ``oracle(group, z, x, tol, resolution, cap)``: :func:`maxfilt.core.brute_force_max_filter`
      on validated operands.  An independent reference, it calls no record's
      ``bank``, ``pairs``, ``images`` or ``witnesses``, nor their helpers.
    * ``width(group)``: elements the bulk form's arrays hold per (input,
      template) pair; ``paired_width`` the same per pair of the paired form,
      where that differs.
    * ``witness_keys``: JSON names of the parts of a tuple witness.
    * ``template(group, rng)``: a random unit-norm template; by default a
      normalized :func:`sample_point` (window: on slice 0).
    * ``training(group, Z)``: what a training run, or
      :func:`maxfilt.core.bank_subgradient`, keeps for validated templates
      Z.  ``params`` is the array that is trained, standing for the
      templates ``templates(P)``; ``evaluate(P, X, nx)`` is
      :meth:`maxfilt.core.FilterBank.evaluate` on them and
      ``subgradient(P, X, witnesses, coef)`` the bank subgradient, shaped
      as P.  Templates are trained whole by default; window templates as
      the one slice each lives on (:class:`WindowSlices`).
    """

    spec: str
    bank: Callable
    pairs: Callable
    images: Callable
    element: Callable
    oracle: Callable
    witnesses: Callable = lambda group, x, y, tol: _tie_list(kind_of(group), group, x, y, tol)[1]
    width: Callable = lambda group: group.dim
    paired_width: Optional[Callable] = None
    witness_keys: tuple = ()
    parse: Optional[Callable] = None
    template: Callable = _unit_sample_point
    training: Callable = _WholeTemplates


KINDS = {
    "enumerated": Kind(
        "enumerated:FILE.json", enumerated_bank, enumerated_pairs,
        lambda group, W, X: np.matmul(
            np.stack(group.matrices)[np.asarray(W, dtype=int)], X[:, None, :, None])[..., 0],
        lambda group, rng: int(rng.integers(group.order)),
        _enumerator(None, lambda group, W, x: np.stack(group.matrices)[W] @ x),
        width=lambda group: group.dim * (1 + group.order), parse=_enumerated_from_file),
    "cyclic": Kind(
        "cyclic:N", cyclic_bank, cyclic_pairs, lambda group, W, X: _roll_last(X, W),
        lambda group, rng: int(rng.integers(group.n)), _enumerator(None, _roll)),
    "perm": Kind(
        "perm:D", sort_bank, sort_pairs, lambda group, W, X: _gather_last(X, W),
        lambda group, rng: rng.permutation(group.d),
        _enumerator(lambda group: _table(itertools.permutations(range(group.d))),
                    lambda group, W, x: x[W], ("d", 8, "permutation")),
        witnesses=sort_witnesses),
    "signedperm": Kind(
        "signedperm:D", signed_sort_bank, signed_sort_pairs,
        lambda group, W, X: np.asarray(W[1], dtype=float) * _gather_last(X, W[0]),
        lambda group, rng: (rng.permutation(group.d), rng.choice([-1.0, 1.0], size=group.d)),
        _enumerator(_signed_permutations, lambda group, W, x: W[1] * x[W[0]],
                    ("d", 6, "signed permutation")),
        witnesses=_signed_perm_witnesses, witness_keys=("perm", "signs")),
    "signflips": Kind(
        "signflips:D", sign_flips_bank, sign_flips_pairs,
        lambda group, W, X: np.asarray(W, dtype=float) * X[:, None],
        lambda group, rng: rng.choice([-1.0, 1.0], size=group.d),
        _enumerator(lambda group: _table(itertools.product([-1.0, 1.0], repeat=group.d)),
                    lambda group, W, x: W * x, ("d", 16, "sign-flip")),
        witnesses=lambda group, x, y, tol: _sign_flips_within(x * y, tol)),
    "orth": Kind(
        "orth:D", orthogonal_bank, orthogonal_pairs,
        lambda group, W, X: np.matmul(np.asarray(W, dtype=float), X[:, None, :, None])[..., 0],
        lambda group, rng: _haar_orthogonal(group.d, rng),
        _orthogonal_search(lambda z, q, x: float(z @ (q @ x)))),
    "leftorth": Kind(
        "leftorth:KxN", left_orthogonal_bank, left_orthogonal_pairs,
        lambda group, W, X: np.matmul(np.asarray(W, dtype=float), X[:, None]),
        lambda group, rng: _haar_orthogonal(group.k, rng),
        _orthogonal_search(lambda z, q, x: float(np.sum(z * (q @ x))))),
    "colperm": Kind(
        "colperm:KxN", column_permutation_bank, column_permutation_pairs,
        lambda group, W, X: _gather_last(X, np.asarray(W)[:, :, None, :]),
        lambda group, rng: rng.permutation(group.n),
        _enumerator(lambda group: _table(itertools.permutations(range(group.n))),
                    lambda group, W, x: np.swapaxes(x[:, W], 0, 1),
                    ("n", 8, "column permutation")),
        witnesses=_colperm_witnesses,
        width=lambda group: group.n * group.n),   # its profit matrices
    "phase": Kind(
        "phase:R", phase_bank, phase_pairs,
        lambda group, W, X: np.asarray(W, dtype=complex)[..., None] * X[:, None],
        lambda group, rng: _unit_complex(rng),
        _phase_search(lambda group, z, x: [(None, np.vdot(z, x))]),
        witnesses=lambda group, x, y, tol: _phases_within(np.vdot(x, y), tol)),
    "shiftconj": Kind(
        "shiftconj:N", shift_conjugate_bank, shift_conjugate_pairs, _shift_conjugate_images,
        _shift_conjugate_element,
        _phase_search(lambda group, z, x: (
            ((a, conj), np.vdot(z, np.roll(np.conj(x) if conj else x, a)))
            for conj in (False, True) for a in range(group.n))),
        witnesses=_shift_conjugate_witnesses, witness_keys=("shift", "conjugate", "phase")),
    "patchperm": Kind(
        "patchperm:S@HxW", sort_bank, sort_pairs, lambda group, W, X: _gather_last(X, W),
        _patch_element, _patch_oracle, witnesses=_patch_witnesses, parse=_patches_from_spec),
    # The bulk form holds a pair's scores (input chunks are views); the paired
    # form correlates whole operands along the slice axis, so a pair holds
    # its operands and their c*w*(T/2+1) complex FFT entries (two float64 each).
    "window": Kind(
        "window:[C]xWxT", sliding_window_bank, sliding_window_pairs,
        lambda group, W, X: _roll_last(X, W), lambda group, rng: int(rng.integers(group.t)),
        _enumerator(None, _roll), width=lambda group: group.t,
        paired_width=lambda group: group.dim + 2 * group.c * group.w * (group.t // 2 + 1),
        parse=_window_from_spec, template=_window_template,
        training=WindowSlices),
}


def kind_of(group) -> Kind:
    """The record of the group's kind; ValidationError for anything else."""
    kind = KINDS.get(getattr(group, "kind", None))
    if kind is None:
        raise ValidationError(f"unsupported group action: {group!r}")
    return kind


def _standard_normal(group, lead: tuple, rng: np.random.Generator) -> np.ndarray:
    """Standard normal operands of shape ``lead + group.shape`` in one
    ``rng.standard_normal`` call.  A complex kind's draw has one more axis
    after ``lead``: the real parts of each point, then its imaginary parts."""
    if group.dtype is not complex:
        return rng.standard_normal(lead + group.shape)
    re, im = np.moveaxis(rng.standard_normal(lead + (2,) + group.shape), len(lead), 0)
    return re + 1j * im


def sample_point(group, rng: np.random.Generator) -> np.ndarray:
    """Standard normal draw in the group's operand layout; a complex draw
    takes its real parts first (:func:`_standard_normal` at one point)."""
    return _standard_normal(group, (), rng)


def random_template(group, rng: np.random.Generator) -> np.ndarray:
    """One unit-norm random template shaped for the group's ambient space:
    the kind record's ``template`` (sliding-window templates start on slice
    0; every other kind's is a normalized :func:`sample_point`)."""
    return kind_of(group).template(group, rng)

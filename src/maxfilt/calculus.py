"""Directional derivatives and subgradients of max filters in the template.

The max filter is convex in the template; its subdifferential at x is the
convex hull of {g y : g maximizing <x, g y>}.  ``witness_set`` enumerates the
maximizer set exactly for finite/structured kinds (tie blocks expanded under
a cap) and returns canonical finite representatives for continuous kinds,
whose degenerate tie sets are infinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .core import (ColumnPermutation, EnumerationCapExceeded, FullOrthogonal, FullPermutation,
                   LeftOrthogonal, PatchPermutation, PhaseCircle, ShiftAndConjugate,
                   SignedPermutation, SignFlips, ValidationError,
                   apply_witness, as_operand, inner, max_filter, norm)

_PHASE_REPS = (complex(1), complex(0, 1), complex(-1), complex(0, -1))


@dataclass
class SubgradientSet:
    """Generators of the subdifferential: the witness images g y.

    The full subdifferential is their convex hull (hull_note marks that the
    set itself lists only the generators, not the hull).
    """

    generators: list
    hull_note: bool = True


def default_tie_tolerance(x, y) -> float:
    # Looser than the core witness tolerance: training loops hit near-ties
    # constantly, and averaging needs them grouped stably.
    return 1e-7 * (1.0 + norm(x) * norm(y))


def witness_set(group, x, y, tol: float | None = None, max_witnesses: int = 4096) -> list:
    """All g with <x, g y> >= max - tol, in per-kind witness encoding.

    Continuous kinds return the analytic maximizer; when that set is a
    continuum (zero inputs, vanishing correlations) a small symmetric set of
    representatives stands in for it, so that averaging still lands in the
    hull.
    """
    x = as_operand(group, x)
    y = as_operand(group, y)
    if tol is None:
        tol = default_tie_tolerance(x, y)

    if group.kind in ("enumerated", "cyclic", "window"):
        return groups.KINDS[group.kind].ties(group, x, y, tol)[1]

    if isinstance(group, SignFlips):
        return _sign_flip_witnesses(x, y, tol, max_witnesses)

    if isinstance(group, FullPermutation):
        pairings = _tie_pairings(x, y, tol, max_witnesses)
        return [_pairing_to_perm(pairing) for pairing in pairings]

    if isinstance(group, SignedPermutation):
        return _signed_perm_witnesses(x, y, tol, max_witnesses)

    if isinstance(group, PatchPermutation):
        return _patch_witnesses(group, x, y, tol, max_witnesses)

    if isinstance(group, ColumnPermutation):
        if group.n <= 8:
            return _colperm_witnesses(group, x, y, tol)
        # Beyond enumeration scale only the assignment optimum is reported; tie
        # enumeration for degenerate assignment polytopes is not attempted.
        return max_filter(group, x, y).witnesses

    if isinstance(group, PhaseCircle):
        w = np.vdot(x, y)
        if abs(w) <= tol:
            return list(_PHASE_REPS)
        return [complex(np.conj(w) / abs(w))]

    if isinstance(group, FullOrthogonal):
        if norm(x) == 0 or norm(y) == 0:
            return [np.eye(group.d)]
        return max_filter(group, x, y).witnesses

    if isinstance(group, LeftOrthogonal):
        return max_filter(group, x, y).witnesses

    if isinstance(group, ShiftAndConjugate):
        return _shift_conjugate_witnesses(x, y, tol)

    raise ValidationError(f"witness enumeration unsupported for {group!r}")


def directional_derivative(group, x, y, v) -> float:
    """One-sided derivative of t -> max_filter(x + t v, y) at t = 0+.

    Equals the maximum of <v, g y> over the witness set.
    """
    v = as_operand(group, v)
    if norm(v) == 0:
        raise ValidationError("direction must be nonzero")
    wits = witness_set(group, x, y)
    return max(inner(v, apply_witness(group, g, y)) for g in wits)


def subdifferential(group, x, y, tol: float | None = None) -> SubgradientSet:
    """The subdifferential at x of the max filter against y, as its generators."""
    wits = witness_set(group, x, y, tol=tol)
    return SubgradientSet(generators=[apply_witness(group, g, y) for g in wits])


def subgradient(group, x, y, selection: str = "first") -> np.ndarray:
    """A member of the subdifferential at x of the max filter against y.

    ``first`` returns the image of the deterministic first witness (cheap,
    valid everywhere; the training default).  ``average`` returns the mean of
    all witness images, a hull point useful for diagnostics at ties.
    """
    if selection == "first":
        # Any single maximizer is a valid subgradient, so the specialized
        # evaluation's first witness suffices; no tie enumeration needed.
        result = max_filter(group, x, y)
        return apply_witness(group, result.witnesses[0], y)
    if selection == "average":
        wits = witness_set(group, x, y)
        images = [apply_witness(group, g, y) for g in wits]
        return np.mean(images, axis=0)
    raise ValidationError(f"unknown selection {selection!r}")


# ---------------------------------------------------------------------------
# Tie enumeration machinery
# ---------------------------------------------------------------------------

def _sign_flip_witnesses(x, y, tol, cap):
    contrib = x * y
    base_signs = np.where(contrib >= 0, 1.0, -1.0)
    costs = 2.0 * np.abs(contrib)
    order = np.argsort(costs, kind="stable")
    out = []

    def rec(idx, budget, flips):
        if len(out) >= cap:
            raise EnumerationCapExceeded("sign-flip tie set larger than cap")
        signs = base_signs.copy()
        signs[flips] *= -1.0
        out.append(signs)
        for j in range(idx, len(order)):
            c = costs[order[j]]
            if c > budget:
                break
            rec(j + 1, budget - c, flips + [order[j]])

    rec(0, tol, [])
    return out


def _tie_pairings(x, y, tol, cap):
    """All rank pairings rho with sum xs[r] * ys[rho(r)] >= max - tol, where
    xs, ys are the descending sorts.  Future completions are bounded by the
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
    pairings = []

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
            if len(pairings) >= cap:
                raise EnumerationCapExceeded("permutation tie set larger than cap")
            pairings.append(list(prefix))
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
    return [(ox, oy, p) for p in pairings]


def _pairing_to_perm(pairing):
    ox, oy, rho = pairing
    perm = np.empty(len(ox), dtype=int)
    for r, s in enumerate(rho):
        perm[ox[r]] = oy[s]
    return perm


def _signed_perm_witnesses(x, y, tol, cap):
    ax, ay = np.abs(x), np.abs(y)
    pairings = _tie_pairings(ax, ay, tol, cap)
    best = float(np.sort(ax) @ np.sort(ay))
    out = []
    for pairing in pairings:
        perm = _pairing_to_perm(pairing)
        matched = x * y[perm]
        deficit = best - float(np.abs(x) @ np.abs(y[perm]))
        base_signs = np.where(matched >= 0, 1.0, -1.0)
        costs = 2.0 * np.abs(matched)
        order = np.argsort(costs, kind="stable")

        def rec(idx, budget, flips):
            if len(out) >= cap:
                raise EnumerationCapExceeded("signed permutation tie set larger than cap")
            signs = base_signs.copy()
            signs[flips] *= -1.0
            out.append((perm.copy(), signs))
            for j in range(idx, len(order)):
                c = costs[order[j]]
                if c > budget:
                    break
                rec(j + 1, budget - c, flips + [order[j]])

        rec(0, max(0.0, tol - deficit), [])
    # Deduplicate (identical (perm, signs) can arise from equal-value pairings).
    seen = set()
    unique = []
    for perm, signs in out:
        key = (tuple(perm.tolist()), tuple(signs.tolist()))
        if key not in seen:
            seen.add(key)
            unique.append((perm, signs))
    return unique


def _patch_witnesses(group, x, y, tol, cap):
    per_patch = []
    base = 0.0
    for p in group.patches:
        idx = np.asarray(p)
        sub = max_filter(FullPermutation(len(idx)), x[idx], y[idx])
        base += sub.value
        local = _tie_pairings(x[idx], y[idx], tol, cap)
        locals_perm = []
        for pairing in local:
            perm = _pairing_to_perm(pairing)
            deficit = sub.value - float(x[idx] @ y[idx][perm])
            locals_perm.append((perm, deficit))
        per_patch.append((idx, locals_perm))
    out = []

    def rec(pi, budget, acc):
        if len(out) >= cap:
            raise EnumerationCapExceeded("patch permutation tie set larger than cap")
        if pi == len(per_patch):
            perm = np.empty(len(x), dtype=int)
            for idx, local_perm in acc:
                perm[idx] = idx[local_perm]
            out.append(perm)
            return
        idx, options = per_patch[pi]
        for perm, deficit in options:
            if deficit <= budget:
                rec(pi + 1, budget - deficit, acc + [(idx, perm)])

    rec(0, tol, [])
    return out


def _colperm_witnesses(group, x, y, tol):
    import itertools

    profit = x.T @ y
    n = group.n
    perms = np.array(list(itertools.permutations(range(n))))
    vals = profit[np.arange(n), perms].sum(axis=1)
    best = vals.max()
    return [perms[i].copy() for i in np.flatnonzero(vals >= best - tol)]


def _shift_conjugate_witnesses(x, y, tol):
    corr_plain, corr_conj = groups.shift_conjugate_scorer(x)(y)
    best = max(float(np.abs(corr_plain).max()), float(np.abs(corr_conj).max()))
    out = []
    for conj_flag, corr in ((False, corr_plain), (True, corr_conj)):
        for a in np.flatnonzero(np.abs(corr) >= best - tol):
            w = corr[a]
            if abs(w) <= tol:
                out.extend((int(a), conj_flag, c) for c in _PHASE_REPS)
            else:
                out.append((int(a), conj_flag, complex(np.conj(w) / abs(w))))
    return out

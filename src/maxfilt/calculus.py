"""Directional derivatives and subgradients of max filters in the template.

The max filter is convex in the template; its subdifferential at x is the
convex hull of {g y : g maximizing <x, g y>}.  ``witness_set`` looks the
maximizer set up in the kind's record (:mod:`maxfilt.groups`): exact for
finite/structured kinds (tie blocks expanded under a cap), canonical finite
representatives for continuous kinds, whose degenerate tie sets are
infinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .core import (EnumerationCapExceeded, ValidationError, _tie_list, apply_witness,
                   as_operand, inner, max_filter, norm)


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

    The kind record's ``witnesses`` form gives the set where it has one;
    the other kinds give the tie list of ``max_filter`` taken at ``tol``.
    Continuous kinds return the analytic maximizer; when that set is a
    continuum (zero inputs, vanishing correlations) a small symmetric set of
    representatives stands in for it, so that averaging still lands in the
    hull.  Every kind raises EnumerationCapExceeded where the set holds more
    than ``max_witnesses``.
    """
    x = as_operand(group, x)
    y = as_operand(group, y)
    if tol is None:
        tol = default_tie_tolerance(x, y)
    kind = groups.kind_of(group)
    if kind.witnesses is not None:
        wits = kind.witnesses(group, x, y, tol, max_witnesses)
    else:
        wits = _tie_list(kind, group, x, y, tol)[1]
    if len(wits) > max_witnesses:
        raise EnumerationCapExceeded(f"{group.kind} tie set of {len(wits)} larger than cap "
                                     f"{max_witnesses}")
    return wits


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

"""Directional derivatives and subgradients of max filters in the template.

The max filter is convex in the template; its subdifferential at x is the
convex hull of {g y : g maximizing <x, g y>}.  ``witness_set`` looks the
maximizer set up in the kind's record (:mod:`maxfilt.groups`): exact for
finite/structured kinds (tie blocks expanded, up to one cap), canonical finite
representatives for continuous kinds, whose degenerate tie sets are
infinite.  Each function below maps its whole witness list to the images
g y in one call of the kind's ``images``, as :func:`maxfilt.core.apply_witness`
does for one witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import groups
from .core import (EnumerationCapExceeded, ValidationError, _require_integer,
                   _witness_images, apply_witness, as_operand, max_filter, norm)


@dataclass
class SubgradientSet:
    """Generators of the subdifferential: the witness images g y.

    The full subdifferential is their convex hull (hull_note marks that the
    set itself lists only the generators, not the hull).
    """

    generators: list
    hull_note: bool = True


def default_tie_tolerance(x, y) -> float:
    # 100 times the core tie tolerance: the tie enumerators sum in their own
    # order, so exact ties can round apart by more than the core allows, and a
    # witness set needs them grouped stably.  (Training reads no witness set.)
    return 1e-7 * (1.0 + norm(x) * norm(y))


def witness_set(group, x, y, tol: float | None = None, max_witnesses: int = 4096) -> list:
    """All g with <x, g y> >= max - tol, in per-kind witness encoding.

    The kind record's ``witnesses`` form enumerates the set; by default it
    is the tie list of ``max_filter`` taken at ``tol``.  Continuous kinds
    return the analytic maximizer; when that set is a continuum (zero
    inputs, vanishing correlations) a small symmetric set of representatives
    stands in for it, so that averaging still lands in the hull.  The cap is applied here alone, for every kind: at most
    ``max_witnesses + 1`` witnesses are drawn, and EnumerationCapExceeded is
    raised if there were more than ``max_witnesses``.  A cap that is not a
    non-negative integer raises ValidationError.
    """
    max_witnesses = _require_integer("max_witnesses", max_witnesses, 0)
    x = as_operand(group, x)
    y = as_operand(group, y)
    if tol is None:
        tol = default_tie_tolerance(x, y)
    found = groups.kind_of(group).witnesses(group, x, y, tol)
    wits = list(itertools.islice(found, max_witnesses + 1))
    if len(wits) > max_witnesses:
        raise EnumerationCapExceeded(f"{group.kind} tie set larger than cap {max_witnesses}")
    return wits


def directional_derivative(group, x, y, v) -> float:
    """One-sided derivative of t -> max_filter(x + t v, y) at t = 0+.

    Equals the maximum of <v, g y> over the witness set.
    """
    v = as_operand(group, v)
    if norm(v) == 0:
        raise ValidationError("direction must be nonzero")
    images = _witness_images(group, witness_set(group, x, y), y)
    # Stacked (1, d) @ (d, 1) blocks take np.vdot's BLAS dot; a gemv rounds otherwise.
    dots = np.conj(v).reshape(1, 1, -1) @ images.reshape(len(images), -1, 1)
    return float(np.real(dots).max())


def subdifferential(group, x, y, tol: float | None = None) -> SubgradientSet:
    """The subdifferential at x of the max filter against y, as its generators."""
    wits = witness_set(group, x, y, tol=tol)
    return SubgradientSet(generators=list(_witness_images(group, wits, y)))


def subgradient(group, x, y, selection: str = "first") -> np.ndarray:
    """A member of the subdifferential at x of the max filter against y.

    ``first`` returns the image of the deterministic first witness (cheap,
    valid everywhere; the training default).  ``average`` returns the mean of
    all witness images, a hull point useful for diagnostics at ties.
    """
    if selection == "first":
        # Any single maximizer is a valid subgradient, so the specialized
        # evaluation's first witness suffices; no tie enumeration needed.
        return apply_witness(group, max_filter(group, x, y).witnesses[0], y)
    if selection == "average":
        return np.mean(subdifferential(group, x, y).generators, axis=0)
    raise ValidationError(f"unknown selection {selection!r}")

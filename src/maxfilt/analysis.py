"""Empirical verification harness: bilipschitz estimation for filter banks,
orbit-separation trials, and a discretized diffeomorphism-stability
experiment on the circle.

Estimates here are Monte Carlo, never certificates; the theoretical upper
bound (the bank's Frobenius norm) is a hard ceiling the estimator must not
exceed, while the lower bound is reported alongside the sample-size
prescription so users can see how far desk scale sits from the guarantee
regime.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (CyclicShift, FilterBank, GroupAction, ValidationError, _bank_operands,
                   _require_integer, _vector_norms, group_order, max_filter,
                   quotient_distances)
# The random draws live beside the kind records; they stay names of this
# module too, and _pair_blocks draws through this module's _standard_normal.
from .groups import _standard_normal, random_template, sample_point  # noqa: F401
from .templates import Template, random_bank_log_delta

# Elements held per block of random pairs while their features are evaluated.
_PAIR_BLOCK = 1_000_000

# Rounding margin of separation_test's early decisions, in units of
# n·ε·‖z‖·max(‖x‖, ‖y‖), n the real dimension.  Every bulk form rounds a
# feature within a few such units of the exact max filter (a dot product of
# length n per group element, or an FFT, sort or SVD of that size), whatever
# else shares its call; the distance a witness gives rounds within a few
# n·ε·max(‖x‖, ‖y‖).  A template's gap is compared with its threshold
# through four features (x and y, in a template chunk and in the full bank)
# and, for the distance, one rounded distance times ‖z‖: 64 units cover all
# five with room to spare, so a gap past its threshold by the margin is past
# it in the full evaluation too.
_MARGIN_UNITS = 64


def bank_frobenius(bank: Sequence) -> float:
    return math.sqrt(sum(float(np.linalg.norm(getattr(t, "vector", t))) ** 2 for t in bank))


def random_bank(group: GroupAction, n: int, rng_seed: int) -> list:
    """n unit-norm random templates (see :func:`random_template`)."""
    rng = np.random.default_rng(rng_seed)
    return [Template(vector=random_template(group, rng), group_kind=group.kind,
                     label=f"bank-{i}") for i in range(_require_integer("n", n, 0))]


def _pair_blocks(group: GroupAction, count: int, rng: np.random.Generator):
    """Draw ``count`` random pairs (x, y) in order, x before y, and yield them
    a block at a time as ``(X, Y)``: views of one :func:`_standard_normal`
    draw of ``(m, 2)`` points, with the numbers, and the ``rng`` state after,
    of 2m :func:`sample_point` calls."""
    block = max(1, _PAIR_BLOCK // (2 * group.dim))
    for start in range(0, count, block):
        pairs = _standard_normal(group, (min(block, count - start), 2), rng)
        yield pairs[:, 0], pairs[:, 1]


@dataclass
class LipschitzReport:
    lower_est: float
    upper_est: float
    argmin_pair: tuple
    argmax_pair: tuple
    samples: int
    theory_delta: Optional[float] = None
    theory_upper: Optional[float] = None
    theory_log_delta: Optional[float] = None    # natural log; finite where delta underflows

    def to_dict(self) -> dict:
        return {"lower_est": self.lower_est, "upper_est": self.upper_est,
                "samples": self.samples, "theory_delta": self.theory_delta,
                "theory_log_delta": self.theory_log_delta,
                "theory_upper": self.theory_upper}


def estimate_lipschitz(group: GroupAction, bank: Sequence, samples: int,
                       rng_seed: int) -> LipschitzReport:
    """Sample ratio ||Phi(x) - Phi(y)|| / d([x], [y]) over random pairs
    with d > 1e-8.

    Reports the extremes, with the first pair in draw order that attains
    each, together with the guaranteed ceiling (the bank Frobenius norm)
    and, for finite groups, the lower-bound constant the random-bank
    prescription would certify at its own (astronomical) sample size.
    Pairs are drawn a block at a time (:func:`_pair_blocks`): the quotient
    distances of a block take one paired engine call, and the features of
    its pairs kept one more, on the bank prepared once; the reported pairs
    are copies.  An empty bank, then a ``samples`` that is not a positive
    integer, is a ValidationError.
    """
    prepared = FilterBank(group, bank)
    samples = _require_integer("samples", samples, 1)
    rng = np.random.default_rng(rng_seed)
    lower, upper = math.inf, -math.inf
    argmin_pair = argmax_pair = None
    used = 0
    for X, Y in _pair_blocks(group, samples, rng):
        dists = quotient_distances(group, X, Y)
        kept = np.flatnonzero(dists > 1e-8)
        if not len(kept):
            continue
        feats = prepared.evaluate(np.concatenate([X[kept], Y[kept]]), None)[0]
        ratios = _vector_norms(feats[:len(kept)] - feats[len(kept):]) / dists[kept]
        used += len(kept)
        i, j = ratios.argmin(), ratios.argmax()
        if ratios[i] < lower:
            lower, argmin_pair = float(ratios[i]), (X[kept[i]].copy(), Y[kept[i]].copy())
        if ratios[j] > upper:
            upper, argmax_pair = float(ratios[j]), (X[kept[j]].copy(), Y[kept[j]].copy())
    if used == 0:
        raise ValidationError("degenerate sampler: every pair fell in one orbit")
    order = group_order(group)
    theory_delta = theory_log_delta = None
    if order is not None:
        theory_log_delta = random_bank_log_delta(order, group.dim)
        theory_delta = math.exp(theory_log_delta)
    return LipschitzReport(lower_est=lower, upper_est=upper,
                           argmin_pair=argmin_pair, argmax_pair=argmax_pair,
                           samples=used, theory_delta=theory_delta,
                           theory_upper=bank_frobenius(bank),
                           theory_log_delta=theory_log_delta)


@dataclass
class SeparationReport:
    trials: int
    checked: int
    violations: int
    threshold: float = 1e-9
    violating_pairs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"trials": self.trials, "checked": self.checked,
                "violations": self.violations, "threshold": self.threshold}


def separation_test(group: GroupAction, bank: Sequence, trials: int,
                    rng_seed: int) -> SeparationReport:
    """Count distinct-orbit pairs whose feature vectors collide.

    A pair is checked when its quotient distance exceeds 1e-6, and it is a
    violation when it is checked and its feature gap (sup norm over the
    bank) stays within the threshold.  Expected zero for banks of
    sufficient size.

    Most pairs are decided by a few templates, through the max filter's
    Lipschitz bound |<<z, x>> - <<z, y>>| <= ‖z‖·d([x], [y]).  The templates
    go in chunks of 1, 4, 16, ... on the pairs still open, and a template
    whose gap g exceeds
      * the threshold plus the margin m rules out a violation;
      * ‖z‖·1e-6 plus m proves d > 1e-6;
    with m = ``_MARGIN_UNITS``·n·ε·‖z‖·max(‖x‖, ‖y‖), so that each decision is
    the one the full evaluation makes.  A pair is closed once both hold.
    The exact distance is taken only where no template proved it, and all
    the bank's features only for checked pairs no template separated: only
    those can be violations.  Each chunk's bank, and the whole bank, is
    prepared once, on first use.  Pairs are drawn as for
    :func:`estimate_lipschitz`, and ``violating_pairs`` keeps copies of the
    first 8 violations in draw order.  A ``trials`` that is not a
    non-negative integer, then an empty bank (also at 0 trials), is a
    ValidationError.
    """
    trials = _require_integer("trials", trials, 0)
    min_dist = 1e-6
    rng = np.random.default_rng(rng_seed)
    report = SeparationReport(trials=trials, checked=0, violations=0)
    Z = _bank_operands(group, bank)
    if trials == 0:
        return report
    norms = _vector_norms(Z)
    prepared = functools.cache(lambda lo, hi: FilterBank(group, Z[lo:hi]))  # on first use
    for X, Y in _pair_blocks(group, trials, rng):
        # The margin per unit of template norm, per pair.
        unit = (_MARGIN_UNITS * group.dim * np.finfo(float).eps
                * np.maximum(_vector_norms(X), _vector_norms(Y)))
        separated = np.zeros(len(X), dtype=bool)    # a gap rules out a violation
        far = np.zeros(len(X), dtype=bool)          # a gap proves d > min_dist
        open_ = np.arange(len(X))
        lo = 0
        while lo < len(Z) and len(open_):
            hi = min(len(Z), 4 * lo + 1)            # chunks of 1, 4, 16, ... templates
            F = prepared(lo, hi).evaluate(np.concatenate([X[open_], Y[open_]]), None)[0]
            gap = np.abs(F[:len(open_)] - F[len(open_):])
            margin = unit[open_, None] * norms[lo:hi]
            separated[open_] |= np.any(gap > report.threshold + margin, axis=1)
            far[open_] |= np.any(gap > norms[lo:hi] * min_dist + margin, axis=1)
            open_ = open_[~(separated[open_] & far[open_])]
            lo = hi
        unproved = np.flatnonzero(~far)
        if len(unproved):
            far[unproved] = quotient_distances(group, X[unproved], Y[unproved]) > min_dist
        suspects = np.flatnonzero(far & ~separated)
        if len(suspects):
            F = prepared(0, len(Z)).values(np.concatenate([X[suspects], Y[suspects]]))
            gaps = np.max(np.abs(F[:len(suspects)] - F[len(suspects):]), axis=1)
            hits = suspects[gaps <= report.threshold]
            report.violations += len(hits)
            report.violating_pairs += [(X[i].copy(), Y[i].copy())
                                       for i in hits[:8 - len(report.violating_pairs)]]
        report.checked += int(np.count_nonzero(far))
    return report


# ---------------------------------------------------------------------------
# Diffeomorphic distortion on the discrete circle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Warp:
    """Smooth displacement field tau(t) = offset + sum_j a_j sin(2 pi j t / grid + phi_j)."""

    grid: int
    offset: float = 0.0
    amplitudes: tuple = ()
    phases: tuple = ()

    def displacement(self) -> np.ndarray:
        t = np.arange(self.grid)
        tau = np.full(self.grid, self.offset)
        for j, (a, ph) in enumerate(zip(self.amplitudes, self.phases), start=1):
            tau += a * np.sin(2.0 * math.pi * j * t / self.grid + ph)
        return tau

    def slope(self) -> float:
        """max |tau'| evaluated analytically on the grid."""
        t = np.arange(self.grid)
        deriv = np.zeros(self.grid)
        for j, (a, ph) in enumerate(zip(self.amplitudes, self.phases), start=1):
            deriv += a * (2.0 * math.pi * j / self.grid) \
                * np.cos(2.0 * math.pi * j * t / self.grid + ph)
        return float(np.max(np.abs(deriv)))


def make_warp(grid: int, target_slope: float, n_modes: int, rng_seed: int) -> Warp:
    """Random band-limited warp scaled to hit the requested max |tau'| exactly
    on the grid."""
    if target_slope < 0:
        raise ValidationError("target slope must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    amps = rng.standard_normal(n_modes) / np.arange(1, n_modes + 1)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_modes)
    raw = Warp(grid=grid, amplitudes=tuple(amps), phases=tuple(phases))
    s = raw.slope()
    if s == 0:
        raise ValidationError("degenerate warp draw")
    scale = target_slope / s
    return Warp(grid=grid, amplitudes=tuple(a * scale for a in amps),
                phases=tuple(phases))


def apply_warp(f: np.ndarray, warp: Warp) -> np.ndarray:
    """Distortion operator: (L f)(t) = f(t - tau(t)) by circular linear
    interpolation.  Integer constant displacements reduce to exact rolls, so
    translation equivariance is preserved for true group elements."""
    f = np.asarray(f, dtype=float)
    n = len(f)
    if warp.grid != n:
        raise ValidationError("warp grid does not match signal length")
    pos = np.arange(n) - warp.displacement()
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    return (1.0 - frac) * f[i0 % n] + frac * f[(i0 + 1) % n]


@dataclass
class StabilityReport:
    distortion_size: float
    filter_gap: float
    ratio: float

    def to_dict(self) -> dict:
        return {"distortion_size": self.distortion_size,
                "filter_gap": self.filter_gap, "ratio": self.ratio}


def diffeo_stability_experiment(h: np.ndarray, f: np.ndarray, warp: Warp,
                                grid: int) -> StabilityReport:
    """Gap between the translation max filter of f and of its warped version,
    normalized by ||f|| times the warp's Jacobian proxy max |tau'| <= 1/2."""
    h = np.asarray(h, dtype=float)
    f = np.asarray(f, dtype=float)
    if len(h) != grid or len(f) != grid:
        raise ValidationError("signals must live on the declared grid")
    slope = warp.slope()
    if slope > 0.5 + 1e-12:
        raise ValidationError(f"warp slope {slope:.3f} exceeds the 1/2 cap")
    base = max_filter(CyclicShift(grid), h, f).value
    warped = max_filter(CyclicShift(grid), h, apply_warp(f, warp)).value
    gap = abs(base - warped)
    nf = float(np.linalg.norm(f))
    ratio = gap / (nf * slope) if slope > 0 and nf > 0 else 0.0
    return StabilityReport(distortion_size=slope, filter_gap=gap, ratio=ratio)


def gaussian_bump(grid: int, width: float, center: Optional[int] = None) -> np.ndarray:
    """Localized template on the circle; decays fast enough that its
    translates barely overlap themselves."""
    c = grid // 2 if center is None else center
    t = np.arange(grid)
    dist = np.minimum(np.abs(t - c), grid - np.abs(t - c))
    return np.exp(-0.5 * (dist / width) ** 2)


def band_limited_signal(grid: int, max_freq: int, rng_seed: int) -> np.ndarray:
    """Random real signal with spectrum supported on frequencies <= max_freq."""
    rng = np.random.default_rng(rng_seed)
    spec = np.zeros(grid // 2 + 1, dtype=complex)
    m = min(max_freq, grid // 2)
    spec[1:m + 1] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = np.fft.irfft(spec, n=grid)
    return f / np.linalg.norm(f) * math.sqrt(grid)


def theil_sen_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Median of pairwise slopes; robust trend estimate."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slopes = []
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if xs[j] != xs[i]:
                slopes.append((ys[j] - ys[i]) / (xs[j] - xs[i]))
    if not slopes:
        raise ValidationError("need at least two distinct x values")
    return float(np.median(slopes))


def stability_sweep(h: np.ndarray, grid: int, slopes: Sequence[float], n_modes: int,
                    rng_seed: int, f: Optional[np.ndarray] = None) -> dict:
    """Run the stability experiment across a sweep of distortion sizes.

    One random warp shape is drawn and rescaled to each requested slope, so
    the sweep isolates the dependence on distortion size; the Theil-Sen slope
    of ratio against distortion is the trend statistic used to certify no
    growth."""
    if f is None:
        f = band_limited_signal(grid, max_freq=max(4, grid // 16), rng_seed=rng_seed + 1)
    top = max(slopes)
    base = make_warp(grid, target_slope=top, n_modes=n_modes, rng_seed=rng_seed)
    reports = []
    for s in slopes:
        warp = Warp(grid=grid,
                    amplitudes=tuple(a * (s / top) for a in base.amplitudes),
                    phases=base.phases)
        reports.append(diffeo_stability_experiment(h, f, warp, grid))
    trend = theil_sen_slope([r.distortion_size for r in reports],
                            [r.ratio for r in reports])
    return {"reports": reports, "trend_slope": trend}

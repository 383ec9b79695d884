"""Template generation: random sphere banks, Hermite-eigenfunction surrogates
for the symmetric group, indicator-set templates on cyclic grids, and
variance-contrast classifiers for mixtures of stationary Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import CyclicShift, ValidationError, _require_integer, bank_values


@dataclass(eq=False)
class Template:
    """A vector in the ambient space plus group binding and support metadata."""

    vector: np.ndarray
    group_kind: Optional[str] = None
    support: Optional[tuple] = None
    label: str = ""

    def __post_init__(self):
        vec = np.asarray(self.vector)
        if self.support is not None:
            support = tuple(int(i) for i in self.support)
            nonzero = set(np.flatnonzero(np.abs(vec).ravel()).tolist())
            if not nonzero.issubset(support):
                raise ValidationError("support does not cover all nonzero entries")
            self.support = support
        self.vector = vec

    def to_dict(self) -> dict:
        """The template document: ``vector`` as :func:`to_jsonable` writes it
        (a real vector as floats), plus ``shape`` for a matrix or tensor."""
        vec = np.asarray(self.vector)
        vec = vec if np.iscomplexobj(vec) else np.asarray(vec, dtype=float)
        doc = {"group_kind": self.group_kind, "vector": to_jsonable(vec),
               "support": list(self.support) if self.support is not None else None,
               "label": self.label}
        if vec.ndim > 1:
            doc["shape"] = list(vec.shape)
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "Template":
        """The template :meth:`to_dict` wrote.  Without ``shape`` a list of
        ``[re, im]`` pairs is a complex vector."""
        shape = data.get("shape")
        vec = array_from_jsonable(data["vector"], ndim=1 if shape is None else len(shape))
        if shape is not None and vec.shape != tuple(shape):
            raise ValidationError(f"template vector of shape {vec.shape} "
                                  f"does not match its shape {tuple(shape)}")
        support = data.get("support")
        return cls(vector=vec, group_kind=data.get("group_kind"),
                   support=tuple(support) if support is not None else None,
                   label=data.get("label", ""))


def to_jsonable(value):
    """``value`` in JSON types: arrays as nested lists, complex numbers as
    ``[re, im]`` pairs (one level deeper in an array), numpy scalars as
    Python ones, tuples as lists, dicts by value, anything else by ``repr``."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return np.stack((value.real, value.imag), axis=-1).tolist()
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def array_from_jsonable(data, dtype=None, ndim: int = 1) -> np.ndarray:
    """The ``ndim``-axis array :func:`to_jsonable` wrote, whose complex
    entries are ``[re, im]`` pairs one level deeper.  ``dtype`` says which:
    float reads every list as real, complex requires the pairs, and None
    takes lists ``ndim + 1`` deep whose last has length 2 for pairs.  Unless
    ``dtype`` is float, the older ``{"complex": true, "re": [...], "im":
    [...]}`` object is read too."""
    if dtype is not float and isinstance(data, dict) and data.get("complex"):
        return np.asarray(data["re"]) + 1j * np.asarray(data["im"])
    arr = np.asarray(data, dtype=float)
    pairs = arr.ndim == ndim + 1 and arr.shape[-1] == 2
    if dtype is complex and not pairs:
        raise ValidationError("complex operand must be a list of [re, im] pairs")
    if dtype is float or not pairs:
        return arr
    return np.ascontiguousarray(arr).view(complex)[..., 0]


# ---------------------------------------------------------------------------
# Random sphere banks
# ---------------------------------------------------------------------------

def unit_sphere_vectors(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d) array of independent uniform draws from the unit sphere."""
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_sphere_templates(n: int, d: int, rng_seed: int) -> list:
    """n templates drawn uniformly from S^{d-1}; deterministic per seed."""
    n = _require_integer("n", n, 1)
    d = _require_integer("d", d, 1)
    rng = np.random.default_rng(rng_seed)
    vecs = unit_sphere_vectors(n, d, rng)
    return [Template(vector=vecs[i], label=f"sphere-{i}") for i in range(n)]


def random_bank_log_delta(m: int, d: int) -> float:
    """Natural log of the guaranteed lower Lipschitz bound delta of
    :func:`random_bank_parameters`; finite for group orders whose delta
    underflows a float (from about m = 100! on)."""
    if m < 1 or d < 1:
        raise ValidationError("need m, d >= 1")
    log_m = math.log(m)
    return 0.5 * (math.log(math.pi / 128.0) - 4.0 * log_m
                  - math.log(2.0 * d + 3.0 * (math.log(4.0) + 2.0 * log_m)))


def random_bank_parameters(m: int, d: int) -> tuple:
    """Sample-size prescription for a random bank over a finite group of
    order m in dimension d: returns (n_min, delta) where delta is the
    guaranteed lower Lipschitz bound and n_min the smallest bank size the
    guarantee asks for.  The prescribed n is astronomically large at desk
    scale; this is reporting, not something tests can realize.

    Group orders such as 64! overflow a float, so delta is formed through its
    logarithm (``math.log`` accepts the integer m however large) and n_min as an
    exact integer.
    """
    from fractions import Fraction      # on first use: no other caller needs it

    log_delta = random_bank_log_delta(m, d)
    delta = math.exp(log_delta)
    log_ratio = math.log(2.0) - log_delta + math.log1p(delta / 2.0)     # log(2/delta + 1)
    n_min = math.ceil(Fraction(log_ratio) * 12 * m * m * d)
    return n_min, delta


def projective_uniformity_estimate(templates: Sequence, k: int, num_probes: int,
                                   rng_seed: int) -> float:
    """Monte Carlo upper bound on the best uniformity constant: min over unit
    probes of the k-th smallest |<z_i, x>|.  Probes include random directions,
    each normalized +-z_j, and the coordinate axes.  An estimate, never a
    certificate.
    """
    vecs = np.stack([np.asarray(getattr(t, "vector", t), dtype=float) for t in templates])
    n, d = vecs.shape
    k = _require_integer("k", k, 1)
    if k > n:
        raise ValidationError("need 1 <= k <= number of templates")
    num_probes = _require_integer("num_probes", num_probes, 1)
    rng = np.random.default_rng(rng_seed)
    probes = [unit_sphere_vectors(num_probes, d, rng)]
    norms = np.linalg.norm(vecs, axis=1)
    nz = vecs[norms > 0] / norms[norms > 0, None]
    if len(nz):
        probes.append(nz)
        probes.append(-nz)
    probes.append(np.eye(d))
    probes = np.concatenate(probes, axis=0)
    corr = np.abs(probes @ vecs.T)                       # (P, n)
    kth = np.sort(corr, axis=1)[:, k - 1]
    return float(kth.min())


# ---------------------------------------------------------------------------
# Standard normal quantile
# ---------------------------------------------------------------------------

# Acklam's rational approximation, then one Halley refinement against the
# erfc-based CDF; |error| <= 1e-12 on [1e-9, 1 - 1e-9].
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)
_P_LOW = 0.02425


def _elementwise(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) applied to each entry of the 1-D float array ``a``."""
    return np.fromiter(map(fn, a.tolist()), dtype=float, count=a.size)


def _quantile_core(p: np.ndarray) -> np.ndarray:
    """Q(p) for a 1-D array with 0 < p <= 1/2.

    The rational parts use only numpy ``+ - * /`` and ``sqrt``, which are
    correctly rounded, and the transcendentals go through ``math`` one entry
    at a time (numpy has no ``erfc``, and its SIMD ``exp``/``log`` may round
    differently on another CPU), so each entry equals the scalar evaluation
    of the same formulas bit for bit.
    """
    x = np.empty_like(p)
    low = p < _P_LOW
    q = np.sqrt(-2.0 * _elementwise(math.log, p[low]))
    num = ((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5]
    den = (((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0
    x[low] = num / den
    q = p[~low] - 0.5
    r = q * q
    num = ((((_QA[0] * r + _QA[1]) * r + _QA[2]) * r + _QA[3]) * r + _QA[4]) * r + _QA[5]
    den = ((((_QB[0] * r + _QB[1]) * r + _QB[2]) * r + _QB[3]) * r + _QB[4]) * r + 1.0
    x[~low] = q * num / den
    # Halley refinement using Phi(x) = erfc(-x / sqrt(2)) / 2.
    err = 0.5 * _elementwise(math.erfc, -x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * _elementwise(math.exp, 0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def normal_quantile(p) -> float | np.ndarray:
    """Inverse standard normal CDF, antisymmetric by construction around 1/2.

    Evaluates the whole array at once; a scalar argument gives a Python float.
    """
    arr = np.asarray(p, dtype=float)
    flat = arr.ravel()
    if not np.all((flat > 0.0) & (flat < 1.0)):             # also rejects NaN
        raise ValidationError("quantile argument must lie strictly inside (0, 1)")
    upper = flat > 0.5
    out = _quantile_core(np.where(upper, 1.0 - flat, flat))
    out[upper] = -out[upper]
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Probabilist's Hermite polynomials and eigenfunction templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermiteSpec:
    """Degree and discretization length for an eigenfunction template."""

    degree: int
    length: int

    def __post_init__(self):
        _require_integer("degree", self.degree, 0)
        _require_integer("length", self.length, 1)
        if self.degree > 16:
            raise ValidationError("degree capped at 16 by quantile accuracy")


def hermite_value(degree: int, x) -> float | np.ndarray:
    """p_n(x) via the three-term recurrence p_{m+1} = x p_m - m p_{m-1}."""
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for m in range(degree):
        prev, cur = cur, x * cur - m * prev
    return float(cur) if cur.ndim == 0 else cur


@lru_cache(maxsize=32)
def _half_grid_quantiles(length: int) -> np.ndarray:
    """u_j = Q(j/d) for j = 1..ceil(d/2), with d = length, clipped at Q(1/2) = 0;
    cached and read-only: every degree at one length shares it."""
    half = (length + 1) // 2
    u = normal_quantile(np.minimum(np.arange(1, half + 1) / length, 0.5))
    u.flags.writeable = False
    return u


@lru_cache(maxsize=256)
def _hermite_grid(degree: int, length: int) -> np.ndarray:
    """The cells of :func:`hermite_template`, cached and read-only: callers
    share one array per (degree, length)."""
    d = length
    if degree == 0:
        out = np.ones(d)
        out.flags.writeable = False
        return out
    # Cell averages of p_n(Q(y)) over [(j-1)/d, j/d]: since
    # (phi p_{n-1})' = -phi p_n, each is d [g(u_{j-1}) - g(u_j)] with
    # g = phi p_{n-1}, u_j = Q(j/d) and g(-inf) = 0.
    half = (d + 1) // 2
    u = _half_grid_quantiles(d)
    g = np.zeros(half + 1)
    g[1:] = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * hermite_value(degree - 1, u)
    vals = d * (g[:-1] - g[1:])
    out = np.empty(d)
    out[:half] = vals
    # Mirror with the parity of the degree so the grid is exactly symmetric.
    out[d - half:] = ((-1.0) ** degree) * vals[::-1]
    if d % 2 == 1:
        # The middle cell is symmetric about 1/2, where g has the parity of n - 1.
        out[d // 2] = 2.0 * d * g[half - 1] if degree % 2 == 0 else 0.0
    out.flags.writeable = False
    return out


def hermite_template(spec: HermiteSpec) -> Template:
    """Discretized eigenfunction: the average of p_n(Q(y)) over each of the
    d cells [(i-1)/d, i/d], i = 1..d, one cell per sorted coordinate.

    Entries follow the grid order (ascending quantiles); pair them with
    ascending-sorted data, or reverse for descending-sort conventions (the
    value only changes sign for odd degrees).
    """
    vec = _hermite_grid(spec.degree, spec.length).copy()
    return Template(vector=vec, group_kind="perm", label=f"hermite-{spec.degree}")


def sorted_gaussian_kernel(m_points: int) -> tuple:
    """Discretized covariance kernel of sorted Gaussian coordinates.

    Returns (grid, L) where grid = (i-1/2)/m for i = 1..m, the midpoints of
    the cells [(i-1)/m, i/m], and L applies the integral operator with kernel
    min(x,y)(1-max(x,y)) Q'(x) Q'(y) by the midpoint rule (weights 1/m).
    """
    m = m_points
    grid = (np.arange(1, m + 1) - 0.5) / m
    q = normal_quantile(grid)
    qprime = np.sqrt(2.0 * math.pi) * np.exp(0.5 * q * q)
    xi = grid[:, None]
    yj = grid[None, :]
    kernel = np.minimum(xi, yj) * (1.0 - np.maximum(xi, yj)) * np.outer(qprime, qprime)
    return grid, kernel / m


# ---------------------------------------------------------------------------
# Indicator-set templates on a cyclic grid
# ---------------------------------------------------------------------------

def _circular_distance(idx: np.ndarray, length: int) -> np.ndarray:
    m = np.mod(idx, length)
    return np.minimum(m, length - m)


def indicator_templates(sets: Sequence[Sequence[int]], grid: int) -> list:
    """Discrete translation-group classifiers: +1 on S_i, -1 on the rest of a
    radius-3r ball around the origin, 0 outside, where r bounds every S_i.

    Each template scores its own set strictly above every other distinct
    orbit under the cyclic shift group.
    """
    length = _require_integer("grid", grid, 1)
    sets = [np.asarray(sorted(set(int(i) % length for i in s)), dtype=int) for s in sets]
    if any(len(s) == 0 for s in sets):
        raise ValidationError("indicator sets must be nonempty")
    r = max(int(_circular_distance(s, length).max()) for s in sets)
    ball_r = 3 * r
    if 2 * ball_r + 1 > length:
        raise ValidationError("radius-3r ball does not fit on the grid")
    positions = np.arange(length)
    ball = _circular_distance(positions, length) <= ball_r
    out = []
    for i, s in enumerate(sets):
        vec = np.zeros(length)
        vec[ball] = -1.0
        vec[s] = 1.0
        out.append(Template(vector=vec, group_kind="cyclic", label=f"indicator-{i}"))
    return out


def indicator_signal(s: Sequence[int], grid: int) -> np.ndarray:
    vec = np.zeros(int(grid))
    vec[np.asarray(list(s), dtype=int) % int(grid)] = 1.0
    return vec


# ---------------------------------------------------------------------------
# Mixture-of-stationary-Gaussians classifier
# ---------------------------------------------------------------------------

def matrix_inverse_sqrt(m: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Symmetric inverse square root; fails loudly near singularity."""
    m = np.asarray(m, dtype=float)
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    if vals.min() <= floor:
        raise ValidationError(f"matrix not positive definite (min eigenvalue {vals.min():.3e})")
    return (vecs / np.sqrt(vals)) @ vecs.T


def thompson_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Part metric on positive definite matrices: max |log eig(A^{-1/2} B A^{-1/2})|."""
    isq = matrix_inverse_sqrt(a)
    vals = np.linalg.eigvalsh(isq @ np.asarray(b, dtype=float) @ isq)
    if vals.min() <= 0:
        raise ValidationError("second matrix is not positive definite")
    return float(np.max(np.abs(np.log(vals))))


def banded_circulant(n: int, coeffs: Sequence[float]) -> np.ndarray:
    """Symmetric circulant matrix with first row coeffs[|i - j| mod-distance]."""
    coeffs = np.asarray(coeffs, dtype=float)
    w = len(coeffs) - 1
    if 2 * w + 1 > n:
        raise ValidationError("bandwidth too large for matrix size")
    first = np.zeros(n)
    first[0] = coeffs[0]
    for d in range(1, w + 1):
        first[d] = coeffs[d]
        first[n - d] = coeffs[d]
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return first[idx]


def circulant_bandwidth(a: np.ndarray, tol: float = 0.0) -> int:
    n = a.shape[0]
    first = a[0]
    w = 0
    for d in range(1, n // 2 + 1):
        if abs(first[d]) > tol or abs(first[n - d]) > tol:
            w = d
    return w


def _check_circulant(a: np.ndarray) -> None:
    n = a.shape[0]
    first = a[0]
    for i in range(1, n):
        if np.max(np.abs(a[i] - np.roll(first, i))) > 1e-10:
            raise ValidationError("matrix is not circulant")


@dataclass(eq=False)
class GMMClassifier:
    """Single-filter threshold classifier for a two-component stationary mixture.

    ``predict`` compares the cyclic-shift max filter value against the
    threshold; values above it vote for the higher-variance component
    ("B" unless the construction swapped roles).
    """

    template: np.ndarray
    threshold: float
    metadata: dict

    def scores(self, draws: np.ndarray) -> np.ndarray:
        draws = np.atleast_2d(np.asarray(draws, dtype=float))
        return bank_values(CyclicShift(len(self.template)), [self.template], draws)[:, 0]

    def predict(self, draws: np.ndarray) -> np.ndarray:
        high, low = ("A", "B") if self.metadata["swapped"] else ("B", "A")
        scores = self.scores(draws)
        return np.where(scores > self.threshold, high, low)


def gmm_classifier(a: np.ndarray, b: np.ndarray, contrast: float) -> GMMClassifier:
    """Build the template-plus-threshold classifier for N(0, A) vs N(0, B).

    Both covariances must be positive definite circulants of bandwidth at
    most k = floor(sqrt(n/2)), with leading k x k submatrices at Thompson
    distance >= contrast > log 2.  The template lives on the first k
    coordinates; the threshold sits halfway between the two tail bounds.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if contrast <= math.log(2.0):
        raise ValidationError("contrast must exceed log 2")
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValidationError("covariances must be square and equally sized")
    _check_circulant(a)
    _check_circulant(b)
    k = int(math.floor(math.sqrt(n / 2.0)))
    w = max(circulant_bandwidth(a), circulant_bandwidth(b))
    if w > k:
        raise ValidationError(f"bandwidth {w} exceeds window size {k}")
    ak = a[:k, :k]
    bk = b[:k, :k]
    dist = thompson_distance(ak, bk)
    if dist < contrast:
        raise ValidationError(f"Thompson distance {dist:.4f} below required contrast {contrast}")

    for swapped in (False, True):
        isq = matrix_inverse_sqrt(ak)
        vals, vecs = np.linalg.eigh(isq @ bk @ isq)
        if swapped or math.log(vals.max()) >= contrast:
            break
        # The A-dominant direction carries the contrast; swap roles.
        a, b, ak, bk = b, a, bk, ak
    v = vecs[:, -1]
    zk = isq @ v
    z = np.zeros(n)
    z[:k] = zk

    var_a = float(z @ a @ z)
    var_b = float(z @ b @ z)
    c1 = 2.0 * math.sqrt(math.exp(contrast) / 2.0)
    c2 = 2.0 / math.sqrt(math.exp(contrast) / 2.0)
    theta1 = math.sqrt(c1 * var_a * math.log(n))
    theta2 = math.sqrt(0.5 * c2 * var_b * math.log(n))
    meta = {"theta1": theta1, "theta2": theta2, "c1": c1, "c2": c2,
            "contrast": contrast, "k": k, "w": w, "swapped": swapped,
            "var_low": var_a, "var_high": var_b}
    return GMMClassifier(template=z, threshold=(theta1 + theta2) / 2.0, metadata=meta)

"""Ambient-space data model and the generic max filtering evaluation contract.

A group action is described by a tagged, immutable descriptor, which also
states the operand space (``dtype``, ``shape`` and ``dim``) and the group's
``order``; everything else about its kind (the specialized algorithms, the
sampler and the brute-force oracle) sits in one record,
``groups.KINDS[group.kind]``.
``brute_force_max_filter`` validates the operands and hands them to the
record's oracle, which enumerates group elements (or searches a dense
parameter grid for continuous kinds) and is the independent reference
everything else is tested against.

Conventions
-----------
* Real kinds act on 1-D float arrays; ``PhaseCircle`` and ``ShiftAndConjugate``
  act on 1-D complex arrays with the real inner product ``Re(z^* x)``;
  ``LeftOrthogonal`` / ``ColumnPermutation`` act on (k, n) matrices with the
  Frobenius inner product; ``SlidingWindowShift`` acts on (c, w, T) tensors.
* Witnesses are per-kind lightweight encodings (shift offset, permutation
  array, orthogonal matrix, unit phase, ...); ``apply_witness`` materializes
  the group element's action on a vector.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np


class ValidationError(ValueError):
    """Input violates a structural precondition (shape, finiteness, group spec)."""


class DimensionMismatch(ValidationError):
    """Operand dimensions do not match the group's ambient space."""


class NumericFailure(RuntimeError):
    """A numerical routine failed to converge or produced non-finite output."""


class EnumerationCapExceeded(ValidationError):
    """Requested enumeration is larger than the configured cap."""


def _require_integer(name: str, value, floor: int) -> int:
    """``value`` as a Python int: the one rule for counts and sizes.  Bools,
    floats and other non-integers are a ValidationError naming ``name``, and
    so is a value below ``floor`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < floor:
        kind = ("non-negative", "positive")[floor]
        raise ValidationError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Group action descriptors
# ---------------------------------------------------------------------------

class _Space:
    """Base of every descriptor, which also names the operand space V the
    group acts on: one operand is an array of ``dtype`` and ``shape``, and
    ``dim`` is the real dimension of V (a complex entry counts twice).
    ``order`` is the number of group elements, None for continuous groups."""

    dtype = float
    order = None

    @property
    def shape(self) -> tuple:
        return (self.dim,)


class _Sizes(_Space):
    """Base of the descriptors whose fields are all sizes: positive integers,
    numpy ones kept as Python ints; bools, floats and strings are rejected.
    The fields, in order, are the operand's ``shape``; a complex kind says
    so by ``dtype = complex``.  Both are taken once per descriptor."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _require_integer(
                f"{type(self).__name__}.{f.name}", getattr(self, f.name), 1))

    @functools.cached_property
    def shape(self) -> tuple:
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    @functools.cached_property
    def dim(self) -> int:
        return math.prod(self.shape) * (2 if self.dtype is complex else 1)


@dataclass(frozen=True, eq=False)
class Enumerated(_Space):
    """Explicit finite list of orthogonal matrices, closed under product/inverse."""

    matrices: tuple
    kind: ClassVar[str] = "enumerated"
    order = property(lambda self: len(self.matrices))

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=float) for m in self.matrices)
        if not mats:
            raise ValidationError("enumerated group needs at least one matrix")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise ValidationError("enumerated group matrices must share shape")
            if np.max(np.abs(m.T @ m - np.eye(d))) > 1e-10:
                raise ValidationError("enumerated group matrix is not orthogonal")
        # Closure under product and inverse; inverse = transpose for orthogonal
        # matrices.  O(m^2 d^3) once at construction so per-call cost stays O(md).
        def member(m):
            return any(np.max(np.abs(m - g)) <= 1e-8 for g in mats)

        for a in mats:
            if not member(a.T):
                raise ValidationError("enumerated group not closed under inverse")
            for b in mats:
                if not member(a @ b):
                    raise ValidationError("enumerated group not closed under product")
        object.__setattr__(self, "matrices", mats)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


@dataclass(frozen=True)
class CyclicShift(_Sizes):
    """Circular translations of a length-n real signal."""

    n: int
    kind: ClassVar[str] = "cyclic"
    order = property(lambda self: self.n)


@dataclass(frozen=True)
class FullPermutation(_Sizes):
    """All d! coordinate permutations."""

    d: int
    kind: ClassVar[str] = "perm"
    order = property(lambda self: math.factorial(self.d))


@dataclass(frozen=True)
class SignedPermutation(_Sizes):
    """Permutations composed with per-coordinate sign flips."""

    d: int
    kind: ClassVar[str] = "signedperm"
    order = property(lambda self: math.factorial(self.d) * 2 ** self.d)


@dataclass(frozen=True)
class SignFlips(_Sizes):
    """Diagonal +-1 matrices."""

    d: int
    kind: ClassVar[str] = "signflips"
    order = property(lambda self: 2 ** self.d)


@dataclass(frozen=True)
class FullOrthogonal(_Sizes):
    """The whole orthogonal group O(d)."""

    d: int
    kind: ClassVar[str] = "orth"


@dataclass(frozen=True)
class LeftOrthogonal(_Sizes):
    """O(k) acting on the left of (k, n) matrices (landmark rotations/reflections)."""

    k: int
    n: int
    kind: ClassVar[str] = "leftorth"


@dataclass(frozen=True)
class ColumnPermutation(_Sizes):
    """S_n permuting the columns of (k, n) matrices (point-cloud relabeling)."""

    k: int
    n: int
    kind: ClassVar[str] = "colperm"
    order = property(lambda self: math.factorial(self.n))


@dataclass(frozen=True)
class PhaseCircle(_Sizes):
    """Global unit-modulus phase on a length-r complex vector."""

    r: int
    kind: ClassVar[str] = "phase"
    dtype = complex


@dataclass(frozen=True)
class ShiftAndConjugate(_Sizes):
    """Cyclic shifts x unit phase x optional conjugation on complex signals.

    Realizes O(2) x C_n on planar closed curves encoded as complex vectors.
    """

    n: int
    kind: ClassVar[str] = "shiftconj"
    dtype = complex


@dataclass(frozen=True, eq=False)
class PatchPermutation(_Space):
    """Independent permutations within each patch of a fixed index partition."""

    patches: tuple
    kind: ClassVar[str] = "patchperm"
    order = property(lambda self: math.prod(math.factorial(len(p)) for p in self.patches))

    def __post_init__(self):
        patches = tuple(tuple(int(i) for i in p) for p in self.patches)
        if not patches or any(len(p) == 0 for p in patches):
            raise ValidationError("patches must be nonempty")
        flat = sorted(i for p in patches for i in p)
        if flat != list(range(len(flat))):
            raise ValidationError("patches must tile the index set exactly once")
        object.__setattr__(self, "patches", patches)

    @property
    def dim(self) -> int:
        return sum(len(p) for p in self.patches)

    @classmethod
    def square(cls, side: int, grid: tuple) -> "PatchPermutation":
        """Partition of a (h, w) pixel grid (row-major) into side x side blocks."""
        h, w = grid
        side = _require_integer("side", side, 1)
        if h % side or w % side:
            raise ValidationError("patch side must be positive and divide both grid dimensions")
        patches = []
        for bi in range(0, h, side):
            for bj in range(0, w, side):
                patches.append(tuple((bi + r) * w + (bj + c)
                                     for r in range(side) for c in range(side)))
        return cls(tuple(patches))


@dataclass(frozen=True)
class SlidingWindowShift(_Sizes):
    """Circular shifts of the T slices of a (c, w, T) windowed tensor."""

    c: int
    w: int
    t: int
    kind: ClassVar[str] = "window"
    order = property(lambda self: self.t)


GroupAction = (
    Enumerated | CyclicShift | FullPermutation | SignedPermutation | SignFlips
    | FullOrthogonal | LeftOrthogonal | ColumnPermutation | PhaseCircle
    | ShiftAndConjugate | PatchPermutation | SlidingWindowShift
)


@dataclass
class FilterResult:
    """Max filter value together with the witnessing group element(s).

    ``witnesses`` holds per-kind encodings of every maximizer found within the
    tie tolerance; ``approximate`` marks grid/sampling lower bounds from the
    brute-force oracle on continuous groups.
    """

    value: float
    witnesses: list = field(default_factory=list)
    approximate: bool = False


def tie_tolerance(z, x) -> float:
    """Relative tie tolerance for witness collection under float64 roundoff."""
    return float(_tie_tolerance(np.linalg.norm(z), np.linalg.norm(x)))


def _tie_tolerance(norm_z, norm_x):
    return 1e-9 * (1.0 + norm_z * norm_x)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def as_operands(group: GroupAction, xs) -> np.ndarray:
    """Stack a sequence of operands into one (N, ...) array, validating shape
    and finiteness (a block of rows at a time, so the check's temporary stays
    within ``_BULK`` entries)."""
    dtype, shape = group.dtype, group.shape
    try:
        arr = np.asarray(xs)
        if arr.dtype.kind != "c" or dtype is complex:    # complex on a real group: below
            arr = arr.astype(dtype, copy=False)
    except ValueError as exc:
        raise DimensionMismatch(f"operands do not all have shape {shape}") from exc
    if arr.dtype != dtype:
        raise ValidationError(f"complex operand for the real group {group.kind}")
    if arr.shape == (0,):                       # an empty sequence: no rows
        arr = arr.reshape((0,) + shape)
    if arr.shape[1:] != shape or arr.ndim != len(shape) + 1:
        raise DimensionMismatch(f"expected operands of shape {shape}, got {arr.shape[1:]}")
    step = max(1, _BULK // math.prod(shape))
    for s in range(0, len(arr), step):
        if not np.isfinite(arr[s:s + step]).all():
            raise ValidationError("operand contains NaN or infinity")
    return arr


def as_operand(group: GroupAction, x) -> np.ndarray:
    """Coerce ``x`` to the array layout the group acts on, validating shape."""
    return as_operands(group, [x])[0]


def norm(x) -> float:
    return float(np.linalg.norm(np.asarray(x)))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def max_filter(group: GroupAction, z, x) -> FilterResult:
    """Evaluate ``max_{g in G} <z, g x>`` by the kind's bulk form at N = K = 1.

    ``z`` is the template, ``x`` the input; both must live in the group's
    ambient space.  The kinds that pick a witness by the tie tolerance
    (cyclic, enumerated, window, shiftconj) list every witness within
    :func:`tie_tolerance`, in index order; the others give their one
    witness.  This tie list is not capped: on those four kinds a zero
    template lists every element.  Scalar witness parts are Python ``int``,
    ``bool`` and ``complex``.
    """
    kind = groups.kind_of(group)
    z = as_operand(group, z)
    x = as_operand(group, x)
    value, witnesses = _tie_list(kind, group, z, x, tie_tolerance(z, x))
    return FilterResult(value=value, witnesses=witnesses)


def _tie_list(kind, group: GroupAction, z: np.ndarray, x: np.ndarray, tol: float) -> tuple:
    """``(value, witnesses)`` of validated operands: the bulk form of the
    record ``kind`` at N = K = 1 with the scalar tie tolerance ``tol``,
    which stacks its witnesses over axes (1, m)."""
    values, wit = kind.bank(group, z[None])(x[None], tol)
    if isinstance(wit, tuple):
        return float(values[0, 0]), list(zip(*map(_unstacked, wit)))
    return float(values[0, 0]), _unstacked(wit)


def _unstacked(w: np.ndarray) -> list:
    """The witness parts stacked over axes (1, m): Python scalars where a
    part is one, else views of the arrays."""
    return w[0].tolist() if w.ndim == 2 else list(w[0])


# ---------------------------------------------------------------------------
# Batched filter-bank engine
# ---------------------------------------------------------------------------

# Elements per bulk array: the engine works through the inputs in chunks of
# rows so that no array it builds holds much more than this (1 MB of float64;
# an FFT kernel keeps a few such arrays at once).
_BULK = 1 << 17


def _bank_operands(group: GroupAction, bank) -> np.ndarray:
    """Stacked template vectors; ``Template`` objects must match the kind."""
    if len(bank) == 0:
        raise ValidationError("filter bank is empty")
    vecs = []
    for t in bank:
        kind = getattr(t, "group_kind", None)
        if kind is not None and kind != group.kind:
            raise ValidationError(f"template bound to group kind {kind!r}, not {group.kind!r}")
        vecs.append(getattr(t, "vector", t))
    return as_operands(group, vecs)


def _chunk_rows(group: GroupAction, n_templates: int, width) -> int:
    """Rows per chunk when each (row, template) pair holds ``width(group)``
    elements (a width of the kind's record)."""
    return max(1, _BULK // (n_templates * width(group)))


def _by_part(f, *ws):
    """``f(*ws)`` for stacked witnesses ``ws``; for tuple witnesses, the
    tuple of ``f`` applied to their parts, part by part."""
    if isinstance(ws[0], tuple):
        return tuple(f(*parts) for parts in zip(*ws))
    return f(*ws)


class FilterBank:
    """A filter bank prepared once for any number of inputs: the templates
    are validated, the kind's bulk form is built and the (K,) template norms
    are taken here.  It keeps only what the bulk form holds (FFTs, sorted
    rows, window slices; the templates where the form uses them whole).
    Inputs are validated per call; their norms only when witnesses are asked."""

    def __init__(self, group: GroupAction, bank):
        kind = groups.kind_of(group)
        Z = _bank_operands(group, bank)
        self.group = group
        self._bulk = kind.bank(group, Z)
        self._norms = _vector_norms(Z)
        self._step = _chunk_rows(group, len(Z), kind.width)

    def values(self, xs) -> np.ndarray:
        """See :func:`bank_values`."""
        return self.evaluate(as_operands(self.group, xs), None)[0]

    def argmax(self, xs) -> tuple:
        """See :func:`bank_argmax`."""
        X = as_operands(self.group, xs)
        return self.evaluate(X, _vector_norms(X))

    def evaluate(self, X: np.ndarray, nx) -> tuple:
        """``(values, witnesses)`` on validated inputs X, chunk by chunk.  ``nx``
        holds the row norms of X for the tie tolerances (callers that evaluate
        the same inputs again take them once); ``None`` asks for values only."""
        return _evaluate(self._bulk, self._norms, self._step, X, nx)


def _evaluate(bulk, norms: np.ndarray, step: int, X: np.ndarray, nx) -> tuple:
    """:meth:`FilterBank.evaluate` of the bulk form ``bulk`` of templates
    with norms ``norms``, ``step`` rows of X at a time."""
    values, wits = [], []
    for s in range(0, max(len(X), 1), step):
        tol = None if nx is None else _tie_tolerance(norms[None, :], nx[s:s + step, None])
        v, w = bulk(X[s:s + step], tol)
        values.append(v)
        wits.append(w)
    wits = None if nx is None else _by_part(lambda *c: np.concatenate(c), *wits)
    return np.concatenate(values), wits


def bank_values(group: GroupAction, bank, xs) -> np.ndarray:
    """(N, K) matrix with entry [n, k] = max_filter(group, bank[k], xs[n]).value,
    evaluated in bulk (see :mod:`maxfilt.groups`)."""
    return FilterBank(group, bank).values(xs)


def bank_argmax(group: GroupAction, bank, xs) -> tuple:
    """``(values, witnesses)``: the values of :func:`bank_values` and, per pair,
    the first witness ``max_filter(group, bank[k], xs[n])`` lists (same tie
    tolerance, same order).  Witnesses are stacked over leading (N, K) axes
    in the kind's encoding; tuple witnesses come as a tuple of such arrays."""
    return FilterBank(group, bank).argmax(xs)


def bank_subgradient(group: GroupAction, bank, xs, witnesses, coef) -> np.ndarray:
    """Per template k, ``sum_n coef[n, k] g_nk xs[n]`` for the witnesses
    g_nk of ``bank_argmax(group, bank, xs)``: a subgradient in the templates
    of ``sum_n coef[n, k] Phi_k(xs[n])`` where ``coef >= 0``.

    The sum is formed by the kind record's ``training``: sliding-window
    templates must stay on one slice, so only each template's own slice of
    the sum is formed (the rest is zero), and a template on several slices
    is a ValidationError.
    """
    Z = _bank_operands(group, bank)
    X = as_operands(group, xs)
    run = groups.kind_of(group).training(group, Z)
    return run.templates(run.subgradient(run.params, X, witnesses,
                                         np.asarray(coef, dtype=float)))


class _WholeTemplates:
    """What a training run keeps for a bank of templates Z trained whole,
    the default ``training`` of a kind record (see :mod:`maxfilt.groups`):
    ``params`` is Z itself, and every evaluation prepares the bank of the
    templates it is given."""

    def __init__(self, group: GroupAction, Z: np.ndarray):
        self.group = group
        self.params = Z

    def templates(self, Z: np.ndarray) -> np.ndarray:
        return Z

    def evaluate(self, Z: np.ndarray, X: np.ndarray, nx) -> tuple:
        return FilterBank(self.group, Z).evaluate(X, nx)

    def subgradient(self, Z: np.ndarray, X: np.ndarray, witnesses, coef: np.ndarray):
        """:func:`bank_subgradient` on validated operands: the witness
        images of the rows with a nonzero coef, a chunk at a time."""
        kind = groups.kind_of(self.group)
        used = np.flatnonzero(np.any(coef != 0, axis=1))
        out = np.zeros(Z.shape, dtype=np.result_type(Z, X))
        step = _chunk_rows(self.group, len(Z), kind.width)
        for s in range(0, len(used), step):
            idx = used[s:s + step]
            images = kind.images(self.group, _by_part(lambda c: c[idx], witnesses), X[idx])
            out += np.einsum("nk,nk...->k...", coef[idx], images)
        return out


def filter_bank_apply(group: GroupAction, bank: Sequence, x) -> np.ndarray:
    """Feature vector with entry i = max_filter(group, bank[i], x).value."""
    return FilterBank(group, bank).values([x])[0]


def _vector_norms(v: np.ndarray) -> np.ndarray:
    """``norm(v[i])`` for every i, bit for bit: the same BLAS dot product of
    each flattened row with itself (a sum along an axis rounds otherwise)."""
    flat = v.reshape(len(v), math.prod(v.shape[1:]))
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return np.sqrt(sum(np.matmul(p[:, None, :], p[:, :, None])[:, 0, 0] for p in parts))


def quotient_distances(group: GroupAction, X, Y) -> np.ndarray:
    """(N,) array with entry i = ||X[i] - g Y[i]||, where g is the first
    witness ``max_filter(group, X[i], Y[i])`` lists (same tie tolerance, same
    order): the metric on orbits, row against row.

    Equal to sqrt(|x|^2 - 2 max_filter(x, y) + |y|^2), but formed from the
    witness so that nearby orbits do not lose their distance to
    cancellation.  Each chunk of rows goes through the kind's paired form in
    one call (see :mod:`maxfilt.groups`).
    """
    kind = groups.kind_of(group)
    X = as_operands(group, X)
    Y = as_operands(group, Y)
    if len(X) != len(Y):
        raise DimensionMismatch(f"{len(X)} operands paired with {len(Y)}")
    out = np.empty(len(X))
    step = _chunk_rows(group, 1, kind.paired_width or kind.width)
    for s in range(0, len(X), step):
        x, y = X[s:s + step], Y[s:s + step]
        w = kind.pairs(group, x, y, _tie_tolerance(_vector_norms(x), _vector_norms(y)))
        images = kind.images(group, _by_part(lambda c: c[:, None], w), y)
        out[s:s + step] = _vector_norms(x - images[:, 0])
    return out


def quotient_distance(group: GroupAction, x, y) -> float:
    """Metric on orbits: ``quotient_distances`` of the one pair (x, y)."""
    return float(quotient_distances(group, [x], [y])[0])


# ---------------------------------------------------------------------------
# Witness application / element sampling
# ---------------------------------------------------------------------------

def apply_witness(group: GroupAction, witness, x) -> np.ndarray:
    """Materialize ``g x`` for one witness ``g``: :func:`_witness_images` at m = 1."""
    return _witness_images(group, [witness], x)[0]


def _witness_images(group: GroupAction, witnesses: list, x) -> np.ndarray:
    """The (m, ...) images ``g x`` of a non-empty list of m witnesses in the
    kind's encoding, stacked over axes (1, m) for one call of its ``images``."""
    stacked = _by_part(lambda *c: np.asarray(c)[None], *witnesses)
    return groups.kind_of(group).images(group, stacked, as_operand(group, x)[None])[0]


def random_element(group: GroupAction, rng: np.random.Generator):
    """Draw a random group element in witness encoding (Haar for continuous kinds)."""
    return groups.kind_of(group).element(group, rng)


def _haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def group_order(group: GroupAction) -> Optional[int]:
    """Number of elements for finite kinds; None for continuous groups."""
    groups.kind_of(group)                       # ValidationError for anything else
    return group.order


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_max_filter(group: GroupAction, z, x, *, resolution: int = 10_000,
                           cap: int = 2_000_000) -> FilterResult:
    """Exact max over all enumerated elements; grid/sampling lower bound for
    continuous kinds (flagged ``approximate``).  Test oracle only: slow on
    purpose and independent of the specialized paths (the kind record's
    ``oracle``, see :mod:`maxfilt.groups`).
    """
    z = as_operand(group, z)
    x = as_operand(group, x)
    return groups.kind_of(group).oracle(group, z, x, tie_tolerance(z, x), resolution, cap)


# The kind records in ``groups`` are built from the descriptors above.
from . import groups  # noqa: E402

"""Max filtering on weighted graphs under vertex relabeling.

Templates are small weighted trees in post-order labeling; evaluation against
an n-vertex graph runs the color-set dynamic program of color coding (Alon,
Yuster and Zwick, J. ACM 1995), vectorized over a family of random
colorings: each tree vertex keeps one table per color subset of its subtree's
size, so an edge costs C(k, |subtree|) max-plus steps rather than one per
color permutation.  The DP runs only on the covering sub-family: the
colorings that are the first in the family to be rainbow on some k-subset of
the graph's vertices, found once per coding by a bit-parallel scan (about 1
in 8 of the k e^k ln n colorings at the benchmark's sizes).  Value and
witness are those of the whole family.  The result is exact whenever the
family has the rainbow property, and a lower bound otherwise, flagged
``approximate``: also when the subsets are too many to scan.  The value
convention matches the Frobenius inner product of the zero-padded template
against the conjugated graph (each unordered edge counted twice), which is
what the injection oracle computes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import FilterResult, ValidationError, _require_integer


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Symmetric zero-diagonal adjacency matrix."""

    adj: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValidationError("adjacency matrix must be square")
        if not np.all(np.isfinite(adj)):
            raise ValidationError("adjacency matrix must be finite")
        if np.max(np.abs(adj - adj.T)) > 0:
            raise ValidationError("adjacency matrix must be symmetric")
        if np.max(np.abs(np.diag(adj))) > 0:
            raise ValidationError("adjacency matrix must have zero diagonal")
        object.__setattr__(self, "adj", adj)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def to_dict(self) -> dict:
        edges = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                w = self.adj[u, v]
                if w != 0:
                    edges.append([u, v, float(w)])
        return {"n": self.n, "edges": edges}

    @classmethod
    def from_dict(cls, data: dict) -> "WeightedGraph":
        """Read ``{"n": n, "edges": [[u, v, w], ...]}`` as JSON gives it: an int
        n >= 1, int endpoints in [0, n) and int or float weights."""
        if not (isinstance(data, dict) and "n" in data and "edges" in data):
            raise ValidationError("graph must be a JSON object with keys n and edges")
        n, edges = data["n"], data["edges"]
        if type(n) is not int or n < 1 or not isinstance(edges, list):
            raise ValidationError(f"graph needs an integer n >= 1 and a list of edges, got n = {n!r}")
        adj = np.zeros((n, n))
        for edge in edges:
            if not (isinstance(edge, list) and len(edge) == 3 and type(edge[2]) in (int, float)
                    and all(type(x) is int and 0 <= x < n for x in edge[:2])):
                raise ValidationError(f"graph edge {edge!r} is not [u, v, weight] with integer "
                                      f"u, v in [0, {n}) and a numeric weight")
            u, v, w = edge
            adj[u, v] = adj[v, u] = float(w)
        return cls(adj)

    @classmethod
    def cycle(cls, n: int, weight: float = 1.0) -> "WeightedGraph":
        adj = np.zeros((n, n))
        for u in range(n):
            v = (u + 1) % n
            adj[u, v] = adj[v, u] = weight
        return cls(adj)

    @classmethod
    def disjoint_union(cls, *graphs: "WeightedGraph") -> "WeightedGraph":
        n = sum(g.n for g in graphs)
        adj = np.zeros((n, n))
        off = 0
        for g in graphs:
            adj[off:off + g.n, off:off + g.n] = g.adj
            off += g.n
        return cls(adj)


@dataclass(frozen=True, eq=False)
class TreeTemplate:
    """Weighted tree on k vertices whose labeling is a post-order traversal:
    every vertex u < k-1 has exactly one neighbor with a larger label."""

    adj: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=float)
        graph = WeightedGraph(adj)         # symmetry / zero-diagonal / finiteness
        object.__setattr__(self, "adj", graph.adj)
        validate_post_order(self)          # also establishes tree-ness

    @property
    def k(self) -> int:
        return self.adj.shape[0]

    def to_dict(self) -> dict:
        return WeightedGraph(self.adj).to_dict()

    @classmethod
    def from_dict(cls, data: dict) -> "TreeTemplate":
        return cls(WeightedGraph.from_dict(data).adj)

    @classmethod
    def path(cls, k: int, weight: float = 1.0) -> "TreeTemplate":
        adj = np.zeros((k, k))
        for u in range(k - 1):
            adj[u, u + 1] = adj[u + 1, u] = weight
        return cls(adj)


def validate_post_order(tree: TreeTemplate) -> list:
    """Return [(u, parent_u)] for every non-root vertex, parent_u > u.

    Raises if any vertex below the root has a number of later neighbors
    different from one; together with the edge count this certifies both
    tree-ness and post-order labeling.
    """
    adj = np.asarray(tree.adj, dtype=float)
    k = adj.shape[0]
    pairs = []
    for u in range(k - 1):
        later = np.flatnonzero(adj[u, u + 1:]) + u + 1
        if len(later) != 1:
            raise ValidationError(
                f"vertex {u} has {len(later)} later neighbors; labeling is not post-order")
        pairs.append((u, int(later[0])))
    return pairs


@dataclass(frozen=True, eq=False)
class ColorCoding:
    """Family of colorings [n] -> [k], drawn so that every k-subset of
    vertices is likely rainbow under at least one member (``cover[1]`` says
    whether it is).

    The family as drawn is the definition; :func:`mf_tree_dp` runs on its
    :attr:`cover` alone, found on first use and kept.  ``colorings`` is a
    read-only copy of the array given, so the cover cannot go stale."""

    n: int
    k: int
    colorings: np.ndarray    # (N, n) ints in [0, k)

    def __post_init__(self):
        colorings = np.array(self.colorings)
        colorings.flags.writeable = False
        object.__setattr__(self, "colorings", colorings)

    @property
    def size(self) -> int:
        return self.colorings.shape[0]

    @functools.cached_property
    def cover(self) -> tuple:
        """``(kept, exact)``: the covering sub-family, i.e. the indices,
        ascending, of the colorings that are the first in the family to be
        rainbow on some k-subset (:func:`_first_rainbow`), and whether every
        k-subset is covered.  Where C(n, k) exceeds N·n·2^k the scan is
        skipped: every coloring is kept and ``exact`` is False."""
        # The scan's arrays hold one entry per k-subset, the DP's tables
        # N·n·2^k at most: scan only while the first does not outgrow the second.
        if math.comb(self.n, self.k) <= self.size * self.n * 2 ** self.k:
            kept, exact = _first_rainbow(self.colorings, self.k)
        else:
            kept, exact = np.arange(self.size), False
        kept.flags.writeable = False
        return kept, exact


def coding_size(n: int, k: int, multiplier: float = 1.0) -> int:
    """ceil(k e^k log n) random colorings suffice with positive probability."""
    if not (math.isfinite(multiplier) and multiplier > 0):
        raise ValidationError(f"coding multiplier must be positive and finite, "
                              f"got {multiplier!r}")
    return max(1, math.ceil(k * math.exp(k) * math.log(n) * multiplier))


def is_rainbow_family(colorings: np.ndarray, n: int, k: int) -> bool:
    """Exhaustively check that every k-subset of [n] is rainbow (colors 0 to
    k-1 once each) under some coloring."""
    return _first_rainbow(np.asarray(colorings)[:, :n], k)[1]


def _first_rainbow(colorings, k):
    """Return the indices, ascending, of the colorings that are the first in
    the family to be rainbow (all k colors once) on some k-subset of the
    vertices, and whether every k-subset is rainbow under some coloring.

    Bit-parallel over blocks of 64 colorings: bit i of a uint64 word stands
    for coloring ``start + i``.  A vertex pair's word has the bits of the
    colorings that give its two vertices different colors in [0, k), built
    from one one-hot word per (color, vertex).  A k-subset's word is the AND
    of its pairs' words, formed level by level while the first block
    enumerates the subsets.  The lowest set bit of each nonzero word is that
    subset's first rainbow coloring; only the subsets still uncovered are
    carried into the next block, which ANDs their pair words directly.
    """
    big_n, n = colorings.shape
    kept, members = [], None
    for start in range(0, big_n, 64):
        block = colorings[start:start + 64]
        onehot = np.zeros((k, n, 64), dtype=bool)
        onehot[..., :len(block)] = block.T == np.arange(k)[:, None, None]
        oh = np.packbits(onehot, axis=2, bitorder="little").view("<u8")[..., 0]   # (k, n)
        single = np.bitwise_or.reduce(oh, axis=0)
        same = np.zeros((n, n), dtype=oh.dtype)
        for row in oh:
            same |= row[:, None] & row
        diff = (single[:, None] & single & ~same).ravel()      # diff[u·n + v]
        if members is None:
            # Level by level, each subset S extended by every v > max(S) in
            # lexicographic order: subset i is members[:, parent[i]] ∪ {v[i]}.
            members, word = np.empty((0, n), dtype=int), single
            parent = v = np.arange(n)
            for _ in range(1, k):
                members = np.vstack([members[:, parent], v])
                counts = n - 1 - v
                parent = np.repeat(np.arange(len(v)), counts)
                v = np.arange(len(parent)) + np.repeat(v + 1 + counts - np.cumsum(counts), counts)
                word = np.repeat(word, counts)
                for u in members:
                    word &= diff[np.repeat(u * n, counts) + v]
            zero = word == 0
            members = np.vstack([members[:, parent[zero]], v[zero]])
        else:
            word = single[members[0]]
            for i, j in itertools.combinations(range(k), 2):
                word &= diff[members[i] * n + members[j]]
            members = members[:, word == 0]
        first = np.bitwise_or.reduce(word & np.negative(word))
        bits = np.unpackbits(np.array([first], dtype="<u8").view(np.uint8), bitorder="little")
        kept.extend((start + np.flatnonzero(bits)).tolist())
        if not members.shape[1]:
            break
    covered = math.comb(n, k) == 0 if members is None else not members.shape[1]
    return np.array(kept, dtype=int), covered


def make_color_coding(n: int, k: int, rng_seed: int, multiplier: float = 1.0) -> ColorCoding:
    """Draw ceil(k e^k log n) uniform colorings, once, from the first child
    of ``SeedSequence(rng_seed)``.

    The coding's :attr:`ColorCoding.cover` is found on its first use.  A
    family that misses some k-subset is kept as drawn: :func:`mf_tree_dp`
    then reports its value ``approximate``.
    """
    n = _require_integer("n", n, 1)
    k = _require_integer("k", k, 1)
    if k > n:
        raise ValidationError("need n >= k >= 1")
    size = coding_size(n, k, multiplier)
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed).spawn(1)[0])
    return ColorCoding(n=n, k=k, colorings=rng.integers(0, k, size=(size, n)))


def mf_tree_dp(tree: TreeTemplate, graph: WeightedGraph, coding: ColorCoding,
               return_stats: bool = False):
    """Color-coding dynamic program for the tree-template max filter.

    Color-set recursion of Alon, Yuster and Zwick, vectorized over the N
    colorings: every tree vertex u keeps one (N, n) table per color subset S
    with |S| = |subtree(u)|, holding the best placement of subtree(u) on
    distinct colors S with u at each graph vertex.  Vertices are processed in
    post-order; each tree edge (u, parent) costs one sparse max-plus step
    per color subset of u (see :func:`_color_set_dp`), whose result merges
    into every disjoint subset of the parent's partial table by union.
    Colorful placements are injective, and the maximum over colorings is
    exact when the family is rainbow on some optimal placement, a lower bound
    otherwise.  The returned
    value is twice the DP optimum, converting the per-edge sum into the
    symmetric Frobenius inner product of the zero-padded template with the
    conjugated graph.  A coloring leaving a color empty contributes -inf.

    The DP runs on the covering sub-family, the coding's
    :attr:`ColorCoding.cover`: the colorings that are the first in the family
    to be rainbow on some k-subset, found on the coding's first use.  They
    cover exactly the k-subsets the whole family covers and each
    coloring's row is computed alone, so the maximum is the whole family's
    float.  The first kept coloring reaching it is the whole family's first:
    an earlier one would reach it on some image S, and the first coloring
    rainbow on S is kept and comes no later.  ``approximate`` is set unless
    the scan ran and found every k-subset covered, i.e. unless the value is
    verified exact.

    Witness: the injection of tree vertices into graph vertices realizing the
    optimum, traced back through the winning coloring's row of the DP's own
    tables.

    ``return_stats`` adds ``{"pairs", "colorings", "color_sets"}``: the
    (coloring, parent vertex, child vertex) terms of the whole family's dense
    max-plus steps (``color_sets × colorings × n²``; the sub-family's sparse
    steps evaluate far fewer), the family's size, and the number of child
    color subsets processed.
    """
    a = tree.adj
    b = graph.adj
    k, n = tree.k, graph.n
    if coding.n != n or coding.k != k:
        raise ValidationError("color coding shape does not match tree/graph")
    if n < k:
        raise ValidationError("graph must have at least as many vertices as the tree")
    edges = validate_post_order(tree)

    kept, exact = coding.cover
    if not len(kept):
        raise ValidationError("no coloring assigns every color; coding unusable")
    history = []
    root, color_sets = _color_set_dp(a, b, edges, coding.colorings[kept], k, history)
    root_scores = root.max(axis=1)
    i = int(np.argmax(root_scores))
    best_val = float(root_scores[i])
    if not np.isfinite(best_val):
        raise ValidationError("no coloring assigns every color; coding unusable")

    sigma = _traceback(a, b, edges, root, history, i)
    result = FilterResult(value=2.0 * best_val, witnesses=[sigma], approximate=not exact)
    if return_stats:
        big_n = coding.size
        stats = {"pairs": color_sets * big_n * n * n, "colorings": big_n,
                 "color_sets": color_sets}
        return result, stats
    return result


def _color_set_dp(a, b, edges, colorings, k, history=None):
    """Return the root's full-color-set (N, n) table and the number of child
    color subsets processed.

    Tables are dicts from a color-subset bitmask to an (N, n) array.  The
    max-plus step ``best[i, x] = max_y child[i, y] + w[y, x]`` keeps only the
    terms that can decide a maximum.  A column x with no negative weight
    keeps the y with ``w[y, x] > 0`` and the child's row maximum: a zero
    weight gives ``child + 0.0 == child``, at most that maximum, and a
    positive one a sum at least ``child``.  A column with a negative weight
    keeps all n terms.  Kept terms are the dense step's float sums and
    ``max`` is exact, so the tables equal the dense step's bit for bit (none
    holds -0.0, as the leaves are +0.0).  The step runs on a vertex-major
    copy of the child table, with the row maxima as row n, one slot at a
    time: slot j holds the j-th term of each column that has one, a prefix
    of the columns once they are ordered by term count, so no temporary
    exceeds (n, N).  Every step is elementwise per coloring, so row i of
    each table is the DP of coloring i alone.  With ``history`` a list, each
    edge appends (child table, parent table before the merge) for the
    traceback: references to tables the DP built, not copies.
    """
    big_n, n = colorings.shape
    leaf = {1 << c: np.where(colorings == c, 0.0, -np.inf) for c in range(k)}
    tables = [leaf] * k
    color_sets = 0
    for u, pu in edges:
        w = a[u, pu] * b
        neg = (w < 0).any(axis=0)
        keep = np.vstack([(w > 0) | neg, ~neg])     # terms (y, x); y = n: row maximum
        order = np.argsort(-keep.sum(axis=0), kind="stable")
        in_slot = np.arange(n + 1)[:, None] < keep.sum(axis=0)[order]
        ys = np.argsort(~keep[:, order], axis=0, kind="stable")[in_slot]
        ws = np.vstack([w, np.zeros(n)])[ys, np.broadcast_to(order, in_slot.shape)[in_slot]]
        ws, ends = ws[:, None], np.unique(np.cumsum(in_slot.sum(axis=1))).tolist()
        merged = {}
        for t, child in tables[u].items():
            ext = np.empty((n + 1, big_n))
            ext[:n] = child.T
            ext[n] = ext[:n].max(axis=0)
            acc = ext[ys[:n]] + ws[:n]
            for lo, hi in zip(ends, ends[1:]):
                np.maximum(acc[:hi - lo], ext[ys[lo:hi]] + ws[lo:hi], out=acc[:hi - lo])
            best = acc.T[:, np.argsort(order)]
            for s, part in tables[pu].items():
                if s & t:
                    continue
                r = s | t
                if r in merged:
                    np.maximum(merged[r], part + best, out=merged[r])
                else:
                    merged[r] = part + best
        if history is not None:
            history.append((tables[u], tables[pu]))
        color_sets += len(tables[u])
        tables[pu] = merged
    return tables[k - 1][(1 << k) - 1], color_sets


def _traceback(a, b, edges, root, history, i):
    """Walk the edges back from the root through row i of the tables that
    :func:`_color_set_dp` returned (``root``) and kept (``history``), taking
    at each edge the first (subset split, child vertex) that attains the
    parent's table entry."""
    k = len(edges) + 1
    sigma = np.full(k, -1, dtype=int)
    colors = [0] * k
    sigma[k - 1] = int(np.argmax(root[i]))
    colors[k - 1] = (1 << k) - 1
    for (u, pu), (child, part) in zip(reversed(edges), reversed(history)):
        x, r = sigma[pu], colors[pu]
        w = a[u, pu] * b[:, x]
        best = -np.inf
        for t, table in child.items():
            s = r & ~t
            if t & ~r or s not in part:
                continue
            vals = part[s][i, x] + (table[i] + w)
            y = int(np.argmax(vals))
            if vals[y] > best:
                best, sigma[u], colors[u] = vals[y], y, t
        colors[pu] = r & ~colors[u]
    return sigma


def injection_value(tree: TreeTemplate, graph: WeightedGraph, sigma) -> float:
    """Value of a specific placement: 2 * sum over tree edges of A_e * B_sigma(e)."""
    sigma = np.asarray(sigma, dtype=int)
    total = 0.0
    for u, pu in validate_post_order(tree):
        total += tree.adj[u, pu] * graph.adj[sigma[u], sigma[pu]]
    return 2.0 * total


def brute_force_tree_filter(tree: TreeTemplate, graph: WeightedGraph) -> float:
    """Exact optimum over all injective placements of the tree (n <= 8 only).

    Equals the zero-padded-template max filter over the conjugation action.
    """
    k, n = tree.k, graph.n
    if n > 8:
        raise ValidationError("injection enumeration capped at n <= 8")
    if n < k:
        raise ValidationError("graph must have at least as many vertices as the tree")
    edges = validate_post_order(tree)
    perms = np.array(list(itertools.permutations(range(n), k)))
    total = np.zeros(len(perms))
    for u, pu in edges:
        total += tree.adj[u, pu] * graph.adj[perms[:, u], perms[:, pu]]
    return 2.0 * float(total.max())


def graph_isomorphism_certificate(a1: WeightedGraph, a2: WeightedGraph) -> str:
    """Exact isomorphism check at n <= 8 by enumerating conjugations.

    Two weighted graphs are isomorphic exactly when the max filter between
    them matches both squared Frobenius norms.
    """
    if a1.n != a2.n:
        return "non-isomorphic"
    n = a1.n
    if n > 8:
        raise ValidationError("isomorphism certificate capped at n <= 8")
    n1 = float(np.sum(a1.adj ** 2))
    n2 = float(np.sum(a2.adj ** 2))
    tol = 1e-9 * (1.0 + math.sqrt(n1 * n2))
    if abs(n1 - n2) > tol:
        return "non-isomorphic"
    best = -np.inf
    for perm in itertools.permutations(range(n)):
        p = np.asarray(perm)
        val = float(np.sum(a1.adj * a2.adj[np.ix_(p, p)]))
        if val > best:
            best = val
        if abs(best - n1) <= tol:
            return "isomorphic"
    return "isomorphic" if abs(best - n1) <= tol and abs(best - n2) <= tol else "non-isomorphic"

"""Exact O(n^3) solver for the square linear assignment problem.

Potential-based Hungarian algorithm in shortest-augmenting-path form
(Jonker and Volgenant, 1987).  Each row is added in index order by a
Dijkstra-like search over the columns not yet in its alternating tree,
scanned in increasing index; ties resolve to the first column found in that
order, so the result is a deterministic function of the cost matrix.
Handles arbitrary finite real costs.

Two forms of the same algorithm:

* :func:`min_cost_assignment` solves one matrix on Python lists and floats
  (``cost.tolist()``): at these sizes per-element numpy scalar indexing costs
  more than the arithmetic it does.
* :func:`max_profit_assignments` solves a stack of B matrices in lockstep:
  the potentials, matching and search state of every problem are rows of
  (B, n + 1) arrays, and each Dijkstra step is one set of array operations
  over all unfinished problems.  Rows are independent: a problem whose
  search reaches a free column augments in that step and starts its next
  row in the next one, whatever row the others are on, and it drops out by
  index compaction only after its last row.  Every update is the scalar
  code's elementwise float operation, and ``argmin`` keeps the first-column
  tie rule, so the columns are identical to :func:`min_cost_assignment`'s.
  Small stacks go to the list solver instead (see ``_LOCKSTEP_MIN_ENTRIES``).
"""

from __future__ import annotations

import math

import numpy as np

# Stacks of B problems of size n with B * n below this are solved one matrix
# at a time by the list solver.  Lockstep pays numpy's per-operation overhead
# (some 20 array operations per Dijkstra step) whatever the stack, so it only
# wins once that overhead is spread over enough problems and columns.
# Measured on a 2-core Xeon VM (one process, BLAS on one thread, best of 5-7,
# standard normal profits), lockstep overtakes the list solver near B * n =
# 440 at n = 8 (B = 55), 500 at n = 48 (B = 10), 450 at n = 100 and n = 450
# (B = 1); near 200 at n = 4 and 580 at n = 16.  Single calls and bank probes
# (n = 8, B = 16; n = 48, B <= 6) stay on the list solver, and bank chunks
# (B in the hundreds at n = 8, 48 at n = 48) run in lockstep.
_LOCKSTEP_MIN_ENTRIES = 450


def _finite_square_stack(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` as float with shape (B, n, n), rejecting NaN and infinity."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"{what} matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} matrix must be finite")
    return a


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Return ``col`` of row assignments minimizing ``sum cost[i, col[i]]``."""
    cost = _finite_square_stack(np.asarray(cost, dtype=float)[None], "cost")[0]
    n = cost.shape[0]
    rows = cost.tolist()
    INF = math.inf
    # 1-based potentials; p[j] = row matched to column j (0 = none).
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [0]                        # columns in the tree, in order reached
        free = list(range(1, n + 1))      # the rest, in scan order
        while True:
            i0 = p[j0]
            row = rows[i0 - 1]
            ui0 = u[i0]
            delta = INF
            j1 = -1
            for j in free:
                cur = row[j - 1] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
            used.append(j0)
            free.remove(j0)
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col = np.empty(n, dtype=int)
    for j in range(1, n + 1):
        col[p[j] - 1] = j - 1
    return col


def _lockstep_min_cost(cost: np.ndarray) -> np.ndarray:
    """Columns of :func:`min_cost_assignment` for every matrix of a finite
    (B, n, n) stack, all solved at once.

    The arrays mirror the scalar code's lists, one row per problem still
    adding rows: ``u`` (by row), ``v``, ``p``, ``way`` and ``minv`` (by
    column, 0 = the virtual column).  ``minv`` holds +inf on the columns
    already in the tree, which the scalar code skips, so one ``argmin`` finds
    the first free column of least reduced cost.  Each problem adds its rows
    at its own pace: one that reaches a free column augments along its path
    in that step and starts its next row in the following one, and it drops
    out once it has added its last row.
    """
    B, n, _ = cost.shape
    m = n + 1
    rows = np.zeros((B, m, m))
    rows[:, 1:, 1:] = cost
    rows = rows.reshape(B * m, m)           # row i of problem b is rows[b * m + i]
    cols = np.empty((B, n), dtype=int)
    idx = np.arange(B if n else 0)          # the problems still adding rows
    ar = idx.copy()
    u, v, minv = (np.zeros((len(idx), m)) for _ in range(3))
    p, way = np.zeros((2, len(idx), m), dtype=np.intp)
    used, in_tree = np.zeros((2, len(idx), m), dtype=bool)    # in_tree: rows p[j] of used j
    i, j0, i0 = np.zeros((3, len(idx)), dtype=np.intp)        # i: the row being added
    done = np.ones(len(idx), dtype=bool)    # problems that start their next row
    while len(idx):
        g = ar[done]
        i[g] += 1
        p[g, 0] = i0[g] = i[g]
        j0[g] = 0
        minv[g] = np.inf
        used[g] = False
        used[g, 0] = True
        in_tree[g] = False
        in_tree[g, i[g]] = True
        cur = rows[idx * m + i0] - u[ar, i0][:, None]
        cur -= v
        np.putmask(cur, used, np.inf)
        better = cur < minv
        np.putmask(minv, better, cur)
        np.copyto(way, j0[:, None], where=better)
        j0 = minv.argmin(axis=1)
        delta = minv[ar, j0][:, None]
        np.putmask(u, in_tree, u + delta)
        np.putmask(v, used, v - delta)
        minv -= delta
        i0 = p[ar, j0]
        used[ar, j0] = True
        minv[ar, j0] = np.inf
        in_tree[ar, i0] = True
        done = i0 == 0
        # Augment each problem that reached a free column along its path, on
        # flat views of p and way; a path that has reached column 0 stays
        # there (way[:, 0] is never written, so p[0] = p[0]).
        base, j = ar[done] * m, j0[done]
        flat_p, flat_way = p.ravel(), way.ravel()
        while j.any():
            at = base + j
            j = flat_way[at]
            flat_p[at] = flat_p[base + j]
        last = done & (i == n)
        if last.any():
            cols[idx[last, None], p[last, 1:] - 1] = np.arange(n)
            keep = ~last
            idx, u, v, p, way, minv, used, in_tree, i, j0, i0, done = (
                a[keep] for a in (idx, u, v, p, way, minv, used, in_tree, i, j0, i0, done))
            ar = np.arange(len(idx))
    return cols


def max_profit_assignments(profits) -> tuple:
    """Maximize ``sum profits[b, i, cols[b, i]]`` for every matrix of a
    (B, n, n) stack; returns ``(values (B,), cols (B, n))``.

    The columns equal :func:`max_profit_assignment`'s on each matrix.  Raises
    ``ValueError`` when any entry of the stack is NaN or infinite.
    """
    profits = _finite_square_stack(profits, "profit")
    if profits.shape[0] * profits.shape[1] < _LOCKSTEP_MIN_ENTRIES:
        values = np.empty(len(profits))
        cols = np.empty(profits.shape[:2], dtype=int)
        for b, profit in enumerate(profits):
            values[b], cols[b] = max_profit_assignment(profit)
        return values, cols
    cols = _lockstep_min_cost(-profits)
    values = np.take_along_axis(profits, cols[..., None], -1)[..., 0].sum(axis=-1)
    return values, cols


def max_profit_assignment(profit: np.ndarray) -> tuple:
    """Maximize ``sum profit[i, col[i]]``; returns (value, col)."""
    profit = np.asarray(profit, dtype=float)
    col = min_cost_assignment(-profit)
    value = float(profit[np.arange(profit.shape[0]), col].sum())
    return value, col

"""Exact O(n^3) solver for the square linear assignment problem.

Potential-based Hungarian algorithm in shortest-augmenting-path form
(Jonker and Volgenant, 1987).  Each row is added in index order by a
Dijkstra-like search over the columns not yet in its alternating tree,
scanned in increasing index; ties resolve to the first column found in that
order, so the result is a deterministic function of the cost matrix.  The
search runs on Python lists and floats (``cost.tolist()``): at these sizes
per-element numpy scalar indexing costs more than the arithmetic it does.
Handles arbitrary finite real costs.
"""

from __future__ import annotations

import math

import numpy as np


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Return ``col`` of row assignments minimizing ``sum cost[i, col[i]]``."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
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


def max_profit_assignment(profit: np.ndarray) -> tuple:
    """Maximize ``sum profit[i, col[i]]``; returns (value, col)."""
    profit = np.asarray(profit, dtype=float)
    col = min_cost_assignment(-profit)
    value = float(profit[np.arange(profit.shape[0]), col].sum())
    return value, col

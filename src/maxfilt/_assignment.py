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
  more than the arithmetic it does.  A Dijkstra step is one pass over the
  free columns and one over the tree: the textbook third pass,
  ``minv[j] -= delta`` on the free columns, is done by the next step's scan
  as it reads ``minv[j]``, the same subtraction on the same operands.
* :func:`max_profit_assignments` solves a stack of B matrices in lockstep:
  the potentials, matching and search state of every problem are rows of
  arrays, and each Dijkstra step is one set of some 20 array operations over
  all unfinished problems (see :func:`_lockstep_min_cost`): reduced costs
  are taken against ``v`` with -inf on the tree's columns, which keeps those
  columns out of the search, and ``way`` moves by one masked write.
  Rows are independent: a problem whose search reaches a free column
  augments in that step and searches for its next row from the following
  one, whatever row the others are on, and it drops out by index compaction
  only after its last row.  A step where few problems augment walks their
  paths one at a time on Python ints; more walk together on arrays (see
  ``_SCALAR_WALK_MAX``).  Small stacks go to the list solver instead (see
  ``_LOCKSTEP_MIN_ENTRIES``).

Both forms give every element the scalar code's float operations in its
order and keep the first-column tie rule, so their columns, and their
potentials, are equal.
"""

from __future__ import annotations

import math

import numpy as np

# A stack of B problems of size n runs in lockstep when B * n reaches
# _LOCKSTEP_MIN_ENTRIES or B reaches _LOCKSTEP_MIN_PER_COLUMN * n; smaller
# stacks are solved one matrix at a time by the list solver.  Lockstep pays
# numpy's per-operation overhead (some 20 array operations per Dijkstra step)
# whatever the stack, so it only wins once that is spread over enough
# problems and columns; at small n, where a list solve is mostly call
# overhead, fewer problems suffice.  Measured on a 2-core Xeon VM (one
# process, BLAS on one thread, standard normal profits, best of 7, median of
# three sweeps), lockstep overtakes the list solver near:
#
#     n      1    2    3    4    5    6    7    8   12   16   24   32   48   64  100
#     B      7   16   21   28   37   38   36   40   31   23   11    7    4    3    2
#     B*n    7   32   62  111  185  229  251  323  371  364  269  230  186  190  191
#
# From n = 24 up the rule starts lockstep late: the list solver keeps B <= 6
# at n = 48 and B <= 3 at n = 100, 5-30% slower there.  Single calls and
# bank probes (n = 8, B = 16; n = 48, B = 4) stay on the list solver; the
# separation stacks (n = 8, B = 200; n = 48, B = 12) and bank chunks run in
# lockstep.
_LOCKSTEP_MIN_ENTRIES = 320
_LOCKSTEP_MIN_PER_COLUMN = 7

# In a lockstep step where at most _SCALAR_WALK_MAX problems reach a free
# column, each walks its augmenting path and restarts its row on Python ints
# and basic indexing (about 2.5 us a problem, plus 2 us a step); more walk
# together on arrays (20-50 us a step, growing with the path length and the
# number of problems still adding rows).  Whole lockstep solves of rank-3
# colperm stacks (B = 64, 200 and 800 at n = 8; 24 and 128 at n = 16; 4, 12
# and 48 at n = 48; 4 and 24 at n = 100), median of 9 interleaved runs in
# each of two sweeps, same machine, time over the best cutoff's:
#
#     cutoff        0     1     2     4     8    16   all
#     geo. mean  1.23  1.11  1.06  1.03  1.02  1.03  1.31
#     worst      1.57  1.26  1.14  1.10  1.11  1.15  3.04
_SCALAR_WALK_MAX = 8

# Test hook: when set, each solver calls it with ``(cost, cols, u, v)`` (one
# matrix, or a stack with a leading axis) so tests can check the duals.
_dual_hook = None


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
    rows = [[0.0] + row for row in cost.tolist()]     # 1-based, like the columns
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
        delta = 0.0
        while True:
            i0 = p[j0]
            row = rows[i0 - 1]
            ui0 = u[i0]
            last, delta, j1 = delta, INF, -1
            for j in free:
                # The last step's ``minv[j] -= delta``, done as this scan reads minv[j].
                mj = minv[j] - last
                cur = row[j] - ui0 - v[j]
                if cur < mj:
                    mj = cur
                    way[j] = j0
                minv[j] = mj
                if mj < delta:
                    delta = mj
                    j1 = j
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
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
    if _dual_hook is not None:
        _dual_hook(cost, col, np.array(u[1:]), np.array(v[1:]))
    return col


def _lockstep_min_cost(cost: np.ndarray) -> np.ndarray:
    """Columns of :func:`min_cost_assignment` for every matrix of a finite
    (B, n, n) stack, all solved at once.

    Each of the A problems still adding rows owns one row of each state
    array; index 0 is the virtual column (and row 0 of ``u`` is unused):

    * ``uv`` (A, 2(n+1)): the potentials, ``u`` by row then ``v`` by column.
      ``v`` of the virtual column is -inf: no dual reads it, and the updates
      below leave it -inf;
    * ``sign`` (A, 2(n+1)): +1 on the rows of the alternating tree, -1 on its
      columns, 0 elsewhere;
    * ``minv``, ``vm``, ``p`` and ``way`` (A, n+1), by column.  ``minv``
      holds +inf on the tree's columns, which the scalar code skips, so one
      ``argmin`` finds the first free column of least reduced cost.  ``vm``
      is ``v`` on the free columns and -inf on the tree's columns: it is
      copied from ``v`` when a row starts (the virtual column's -inf comes
      with it), and a column that joins the tree gets -inf.

    Per-problem reads and writes are flat ``take``/``put`` at offsets fixed
    between compactions.  A problem that reaches a free column augments
    along its path and starts its next row by copying a precomputed fresh
    row of ``sign``.  When at most ``_SCALAR_WALK_MAX`` problems reach one in
    a step, each walks its path and restarts on Python ints and basic
    indexing; more walk together, a few array operations per edge of the
    longest of their paths.

    Why each step is the scalar code's arithmetic, element for element:

    * ``cur - vm`` is ``cur - v`` exactly on a free column and +inf on a tree
      column, so it never beats ``minv``: the scalar skip.
    * ``minimum(cur, minv)`` is ``cur`` where ``cur < minv`` and a value equal
      to ``minv`` elsewhere; ``way`` takes ``j0`` by one masked write on the
      same ``cur < minv`` mask.
    * ``uv += delta * sign`` adds ``delta * 1 = delta`` to a tree row's ``u``
      and ``delta * -1 = -delta`` to a tree column's ``v``, exactly
      ``u + delta`` and ``v - delta``; elsewhere it adds a zero.

    Where two choices are equal numbers, and where a zero is added, at most
    the sign of a zero differs from the scalar code, and no comparison sees
    it: the columns are the same.
    """
    B, n, _ = cost.shape
    m, w = n + 1, 2 * (n + 1)
    cols = np.empty((B, n), dtype=int)
    if not (B and n):
        return cols
    rows = np.zeros((B, m, m))
    rows[:, 1:, 1:] = cost
    rows = rows.reshape(B * m, m)           # row i of problem b is rows[b * m + i]
    # fresh[i] is the sign row of a problem starting row i: the tree holds row
    # i and the virtual column; row n + 1 only pads problems that are done.
    fresh = np.eye(m + 1, w)
    fresh[:, m] = -1.0
    inf_row = np.full(m, np.inf)            # minv of a row start
    ar = np.arange(B)
    idx = ar                                # the problems still adding rows
    uv = np.zeros((B, w))
    uv[:, m] = -np.inf
    sign = fresh[np.ones(B, dtype=np.intp)]
    minv = np.tile(inf_row, (B, 1))
    vm = uv[:, m:].copy()
    p, way = np.zeros((2, B, m), dtype=np.intp)
    p[:, 0] = 1                             # the row being added
    i0 = np.ones(B, dtype=np.intp)          # the tree row scanned next
    j0 = np.zeros(B, dtype=np.intp)
    duals = None if _dual_hook is None else np.empty((B, w))
    while True:
        # Flat offsets of each problem's state rows, and flat views.
        A = len(idx)
        off_m, off_w = ar[:A] * m, ar[:A] * w
        off_v = off_m + m                   # from minv's flat index to v's in uv
        row_at, u_at = idx * m, off_w + i0
        v = uv[:, m:]
        uv_f, sign_f, minv_f, vm_f, p_f, way_f = (
            a.ravel() for a in (uv, sign, minv, vm, p, way))
        while True:
            cur = rows.take(row_at + i0, axis=0)
            cur -= uv_f.take(u_at)[:, None]
            cur -= vm
            better = cur < minv
            np.minimum(cur, minv, out=minv)
            np.copyto(way, j0[:, None], where=better)
            j0 = minv.argmin(axis=1)
            at = off_m + j0
            delta = minv_f.take(at)
            uv += delta[:, None] * sign
            minv -= delta[:, None]
            minv_f.put(at, np.inf)
            vm_f.put(at, -np.inf)
            sign_f.put(at + off_v, -1.0)
            i0 = p_f.take(at)
            u_at = off_w + i0
            sign_f.put(u_at, 1.0)
            reached = A - np.count_nonzero(i0)
            if not reached:
                continue
            # Augment each problem that reached a free column along its path,
            # then start its next row: row n + 1 marks a problem that is done.
            if reached <= _SCALAR_WALK_MAX:
                top = 0                     # the highest row started
                for a in (i0 == 0).nonzero()[0].tolist():
                    o, back, j = a * m, way[a].tolist(), int(j0[a])
                    while j:
                        j1 = back[j]
                        p_f[o + j] = p_f[o + j1]
                        j = j1
                    ig = int(p_f[o]) + 1
                    p_f[o] = i0[a] = ig
                    j0[a] = 0
                    minv[a] = inf_row
                    vm[a] = v[a]
                    sign[a] = fresh[ig]
                    top = max(top, ig)
                u_at = off_w + i0
                if top > n:
                    break
                continue
            # A path that has reached column 0 stays there (way[:, 0] stays
            # 0, so p[0] = p[0]).
            g = np.flatnonzero(i0 == 0)
            base = off_m[g]
            at = base + j0[g]
            while True:
                j = way_f.take(at)
                path = base + j
                p_f.put(at, p_f.take(path))
                if not j.any():
                    break
                at = path
            ig = p_f.take(base) + 1
            i0[g] = ig
            j0[g] = 0
            u_at = off_w + i0
            p_f.put(base, ig)
            minv[g] = inf_row
            vm[g] = v[g]
            sign[g] = fresh[ig]
            if ig.max() > n:
                break
        last = p[:, 0] > n
        done = idx[last]
        cols[done[:, None], p[last, 1:] - 1] = np.arange(n)
        if duals is not None:
            duals[done] = uv[last]
        keep = ~last
        if not keep.any():
            break
        idx, uv, sign, minv, vm, p, way, i0, j0 = (
            a[keep] for a in (idx, uv, sign, minv, vm, p, way, i0, j0))
    if duals is not None:
        _dual_hook(cost, cols, duals[:, 1:m], duals[:, m + 1:])
    return cols


def max_profit_assignments(profits) -> tuple:
    """Maximize ``sum profits[b, i, cols[b, i]]`` for every matrix of a
    (B, n, n) stack; returns ``(values (B,), cols (B, n))``.

    The columns equal :func:`max_profit_assignment`'s on each matrix.  Raises
    ``ValueError`` when any entry of the stack is NaN or infinite.
    """
    profits = _finite_square_stack(profits, "profit")
    B, n = profits.shape[:2]
    if B * n < _LOCKSTEP_MIN_ENTRIES and B < _LOCKSTEP_MIN_PER_COLUMN * n:
        values = np.empty(B)
        cols = np.empty((B, n), dtype=int)
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

"""Linear programming with exact rational results.

Two routes to an optimal basic solution of  max c.x  s.t.  A x <= b, x in box:

* a dense tableau simplex over Fractions (Bland's rule), for small systems;
* a float solve (scipy HiGHS) that only locates the optimal active set, then
  purification rounds over Fractions: one elimination picks an independent
  basis among the tight rows and solves it for the vertex, every constraint
  is checked exactly, and a second elimination solves the dual on that basis.

Both produce exact rational solutions; the second also reports whether the
optimality certificate closed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog


class LPError(RuntimeError):
    pass


_MAX_PIVOTS = 20000  # simplex_max gives up after this many pivots
_FEAS_TOL = 1e-7     # relative float residual under which a row counts as tight


# ---------------------------------------------------------------------------
# Exact dense simplex:  max c.x  s.t.  A x <= b, x >= 0, with b >= 0
# ---------------------------------------------------------------------------

def simplex_max(c: Sequence[Fraction], a_ub: Sequence[Sequence[Fraction]],
                b_ub: Sequence[Fraction]) -> Tuple[List[Fraction], Fraction]:
    """Textbook tableau simplex with Bland's rule; requires b_ub >= 0 so the
    all-slack basis is feasible. Returns (x, objective)."""
    m, n = len(a_ub), len(c)
    if any(b < 0 for b in b_ub):
        raise LPError("simplex_max requires nonnegative right-hand sides")
    tab = [[Fraction(x) for x in row] + [Fraction(0)] * m + [Fraction(b_ub[i])]
           for i, row in enumerate(a_ub)]
    for i in range(m):
        tab[i][n + i] = Fraction(1)
    cost = [-Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))

    for _ in range(_MAX_PIVOTS):
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            x = [Fraction(0)] * n
            for i, bv in enumerate(basis):
                if bv < n:
                    x[bv] = tab[i][-1]
            return x, cost[-1]
        ratios = [(tab[i][-1] / tab[i][col], basis[i], i)
                  for i in range(m) if tab[i][col] > 0]
        if not ratios:
            raise LPError("LP is unbounded")
        _, _, row = min(ratios)  # min ratio, then lowest basis index: Bland
        piv = tab[row][col]
        tab[row] = [v / piv for v in tab[row]]
        for i in range(m):
            if i != row and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[row])]
        if cost[col] != 0:
            f = cost[col]
            cost = [v - f * w for v, w in zip(cost, tab[row])]
        basis[row] = col
    raise LPError("pivot limit exceeded")


# ---------------------------------------------------------------------------
# Exact basis selection and solve
# ---------------------------------------------------------------------------

def _solve_rows(rows: List[List[Fraction]], rhs: List[Fraction]
                ) -> Tuple[List[int], Optional[List[Fraction]]]:
    """Pick the first independent rows in order and solve  rows[kept] . x = rhs[kept].

    Each row is reduced, right-hand side included, against the rows kept
    before it and kept if a nonzero coefficient remains; once there are as
    many as columns, back-substitution gives x. Returns (kept, x), with x
    None when the rows span fewer dimensions than the columns.
    """
    width = len(rows[0]) if rows else 0
    kept: List[int] = []
    reduced: List[Tuple[int, List[Fraction]]] = []  # (pivot column, row scaled to pivot 1)
    for idx, row in enumerate(rows):
        vec = list(row) + [rhs[idx]]
        for pcol, w in reduced:
            f = vec[pcol]
            if f:
                vec = [v - f * u if u else v for v, u in zip(vec, w)]
        pcol = next((j for j in range(width) if vec[j]), None)
        if pcol is None:
            continue
        inv = 1 / vec[pcol]
        reduced.append((pcol, [v * inv if v else v for v in vec]))
        kept.append(idx)
        if len(kept) == width:
            break
    if not kept or len(kept) < width:
        return kept, None
    # a kept row is zero at the pivots kept before it, so solve from the last
    x = [Fraction(0)] * width
    for pcol, w in reversed(reduced):
        x[pcol] = w[width] - sum(u * x[j] for j, u in enumerate(w[:width]) if u and j != pcol)
    return kept, x


@dataclass
class VertexResult:
    x: List[Fraction]
    objective: Fraction
    certified: bool


def certified_vertex(c: List[Fraction], rows: List[List[Fraction]], rhs: List[Fraction]
                     ) -> VertexResult:
    """Exact optimal vertex of  max c.x  s.t.  rows[i].x >= rhs[i].

    A float LP (HiGHS) locates the optimum; its tight rows, largest float dual
    first, are the candidates. A round solves the first independent ones for
    the vertex in one exact elimination, checks every row exactly and solves
    the dual on that basis; at most 12 rounds drop the most negative
    multiplier until all are nonnegative, which certifies the vertex.
    """
    n = len(c)
    a = np.array([[float(v) for v in row] for row in rows])
    b = np.array([float(v) for v in rhs])
    res = linprog(c=-np.array([float(v) for v in c]), A_ub=-a, b_ub=-b,
                  bounds=[(None, None)] * n, method="highs")
    if not res.success:
        raise LPError(f"float LP failed: {res.message}")
    resid = a @ res.x - b
    scale = 1.0 + np.abs(b)
    duals = res.ineqlin.marginals
    candidates = sorted((i for i in range(len(rows)) if resid[i] <= _FEAS_TOL * scale[i]),
                        key=lambda i: -abs(float(duals[i])))

    best: Optional[VertexResult] = None
    for _ in range(12):
        sel, x = _solve_rows([rows[i] for i in candidates], [rhs[i] for i in candidates])
        if x is None:
            break
        if any(sum(r * v for r, v in zip(rows[i], x) if r) < rhs[i] for i in range(len(rows))):
            break
        objective = sum(ci * xi for ci, xi in zip(c, x))
        # KKT for max c.x over A x >= b: c + A^T y = 0 with y >= 0 on tight
        # rows; nonnegative multipliers close the certificate, otherwise
        # purify by dropping the worst row and re-selecting. The basis is
        # independent, so its transpose always has a solution.
        basis = [candidates[i] for i in sel]
        _, y = _solve_rows([list(col) for col in zip(*(rows[i] for i in basis))], [-v for v in c])
        best = best or VertexResult(x, objective, False)
        if all(v >= 0 for v in y):
            return VertexResult(x, objective, True)
        worst = min(range(n), key=lambda r: y[r])
        candidates = [i for i in candidates if i != basis[worst]]
    if best is None:
        raise LPError("could not resolve an exact vertex from the float optimum")
    return best

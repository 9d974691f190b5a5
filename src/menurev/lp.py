"""Linear programming with exact rational results.

Constraints arrive as sparse integer rows: each row is a map {column: int},
a positive multiple of the constraint it stands for, with an integer
right-hand side. Positive row scaling changes neither the feasible set, nor
which rows are independent, nor the sign of a multiplier or a ratio test, so
every choice below is the one the same rows over Fractions would make. Two
routes lead to an exact optimal basic solution of  max c.x:

* `simplex_max`, a fraction-free tableau simplex with Bland's rule over
  A x <= b, x >= 0, for small systems. Its tableau is condensed: row i
  stores only the n nonbasic columns, the right-hand side and d_i > 0, the
  coefficient of its basic variable: n + 2 entries where a row of the full
  tableau has n + m + 1;
* `certified_vertex`, a float solve of  A x >= b  that only locates the
  optimal vertex x, then integer arithmetic at x: one
  fraction-free elimination solves a basis of float-tight rows for x, every
  row is checked once, and degenerate Bland pivots over the exactly tight
  rows change the basis, never x, until its dual is nonnegative: the
  certificate it returns. It raises LPError where it cannot certify x.

The float solve (`linprog`) drives HiGHS through `scipy.optimize._highspy._core`,
the binding `scipy.optimize.linprog` drives, with the model and the options
(presolve on, dual simplex, no output) that `linprog(method="highs")` passes,
so its floats are scipy's to the bit without scipy's per-call Python layer.
The rows keep their sparse form: their entries over the scales reach HiGHS
row by row, in the order the rows hold them, and HiGHS builds from them the
column-major model, rows ascending in each column, that scipy builds from a
dense matrix; the float residuals are summed from the same entries, so no
rows x columns matrix is built. The binding is loaded from its extension
file, so `scipy.optimize` itself, some 300 modules, is never imported for it.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from importlib import machinery, util
from itertools import chain, count
from math import gcd
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .rational import over_common_denominator


class LPError(RuntimeError):
    pass


_MAX_PIVOTS = 20000  # simplex_max gives up after this many pivots
_FEAS_TOL = 1e-7     # relative float residual under which a row counts as tight

Row = Dict[int, int]  # column -> nonzero integer coefficient


@dataclass
class VertexResult:
    x: List[Fraction]
    objective: Fraction
    rounds: int = field(default=0, compare=False)  # bases whose dual was solved, or simplex pivots
    stages: Dict[str, float] = field(default_factory=dict, compare=False)  # seconds per stage
    dual: Dict[int, Fraction] = field(default_factory=dict, compare=False)  # basis row -> multiplier
    certified = True  # both routes return an optimum they certified or raise LPError


def _dot(c: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    return sum((ci * xi for ci, xi in zip(c, x) if ci), Fraction(0))


# ---------------------------------------------------------------------------
# Exact condensed simplex:  max c.x  s.t.  A x <= b, x >= 0, with b >= 0
# ---------------------------------------------------------------------------

def simplex_max(c: Sequence[Fraction], a_ub: Sequence[Row], b_ub: Sequence[int]
                ) -> VertexResult:
    """Tableau simplex with Bland's rule; requires b_ub >= 0 so the all-slack
    basis is feasible.

    The tableau is condensed (Tucker's form): it stores only the n nonbasic
    columns, `cols` naming the variable in each and `basic` the variable of
    each row; the slacks are variables n..n+m-1. Row i holds the nonbasic
    coefficients, the right-hand side and d_i > 0, the coefficient of its
    basic variable, which every other row holds as 0. So row i is the full
    Fraction tableau row times d_i, a primitive integer vector once the
    zeros are put back: every sign and ratio the Fraction tableau would test
    is read off integers. The cost row holds a positive multiple of the
    reduced costs and the objective.

    A pivot (r, s) swaps p = T[r][s] with d_r, so the leaving variable takes
    column s. Each other row with f = T[i][s] != 0 becomes
    (p/g) row_i - (f/g) row_r with g = gcd(p, f): column s takes
    -(f/g) d_r, d_i becomes (p/g) d_i, and the row is divided by its gcd
    (fraction-free, as in Bareiss's elimination). The cost row is updated
    the same way. Only the rows with f != 0 change, each over row r's
    nonzero entries. The entering column is the lowest-labelled one with a
    negative reduced cost, the leaving row the minimum ratio with the lowest
    basic label among ties: Bland's rule, so the pivots end, and they are
    the full tableau's pivots.
    """
    start = perf_counter()
    m, n = len(a_ub), len(c)
    if any(b < 0 for b in b_ub):
        raise LPError("simplex_max requires nonnegative right-hand sides")
    _, cost = over_common_denominator(c)
    # row i: coefficients at 0..n-1, the right-hand side at n, d_i at n + 1;
    # the cost row tab[m] has no d
    tab = [[0] * n + [b, 1] for b in b_ub] + [[-v for v in cost] + [0]]
    for vec, row in zip(tab, a_ub):
        for j, v in row.items():
            vec[j] = v
    cols = list(range(n))
    basic = list(range(n, n + m))

    for pivots in range(_MAX_PIVOTS):
        reduced = tab[m]
        col = min((j for j in range(n) if reduced[j] < 0), key=cols.__getitem__, default=None)
        if col is None:
            x = [Fraction(0)] * n
            for vec, bv in zip(tab, basic):
                if bv < n:
                    x[bv] = Fraction(vec[n], vec[n + 1])
            return VertexResult(x, _dot(c, x), pivots,
                                {"simplex": perf_counter() - start})
        hits = [(i, vec) for i, vec in enumerate(tab) if vec[col]]
        # min ratio rhs/entry over positive entries, then lowest basic label: Bland
        row, top, bottom = None, 0, 1  # the best ratio so far is top / bottom
        for i, vec in hits:
            a = vec[col]
            if a > 0 and i < m:
                here, there = vec[n] * bottom, top * a
                if row is None or here < there or (here == there and basic[i] < basic[row]):
                    row, top, bottom = i, vec[n], a
        if row is None:
            raise LPError("LP is unbounded")
        prow = tab[row]
        p = prow[col]
        # the leaving variable takes column col; d_r sits out of the combination
        prow[col], prow[n + 1] = prow[n + 1], 0
        support = [(j, w) for j, w in enumerate(prow) if w]
        for i, vec in hits:
            if i == row:
                continue
            f = vec[col]
            g = gcd(p, f)
            q, f = p // g, f // g
            vec[col] = 0
            if q != 1:
                vec = [q * v for v in vec]
            for j, w in support:
                vec[j] -= f * w
            g = gcd(*vec)
            tab[i] = [v // g for v in vec] if g > 1 else vec
        prow[n + 1] = p
        cols[col], basic[row] = basic[row], cols[col]
    raise LPError("pivot limit exceeded")


# ---------------------------------------------------------------------------
# Exact basis selection and solve
# ---------------------------------------------------------------------------

def _solve_rows(rows: Sequence[Row], rhs: Sequence[int], width: int
                ) -> Tuple[List[int], Optional[List[Fraction]]]:
    """Pick the first independent rows in order and solve  rows[kept] . x = rhs[kept].

    Each row is reduced fraction-free, right-hand side included, against the
    rows kept before it and kept if a nonzero coefficient remains, with its
    pivot at the lowest such column; once there are as many as columns,
    back-substitution gives x. Returns (kept, x), with x None when the rows
    span fewer dimensions than the columns.
    """
    kept: List[int] = []
    reduced: List[Tuple[int, Row]] = []  # (pivot column, primitive row; rhs at key width)
    for idx, row in enumerate(rows):
        vec = dict(row)
        if rhs[idx]:
            vec[width] = rhs[idx]
        for pcol, w in reduced:
            f = vec.get(pcol)
            if f:
                p = w[pcol]
                g = gcd(p, f)
                p, f = p // g, f // g
                if p != 1:
                    vec = {j: p * v for j, v in vec.items()}
                for j, u in w.items():
                    v = vec.get(j, 0) - f * u
                    if v:
                        vec[j] = v
                    else:
                        del vec[j]
        cols = [j for j in vec if j < width]
        if not cols:
            continue
        g = gcd(*vec.values())
        if g > 1:
            vec = {j: v // g for j, v in vec.items()}
        reduced.append((min(cols), vec))
        kept.append(idx)
        if len(kept) == width:
            break
    if not kept or len(kept) < width:
        return kept, None
    # a kept row is zero at the pivots kept before it, so solve from the last;
    # x[j] = num[j] / den over one common denominator
    num = [0] * width
    den = 1
    for pcol, w in reversed(reduced):
        total = w.get(width, 0) * den - sum(u * num[j] for j, u in w.items()
                                            if j != pcol and j != width)
        p = w[pcol]
        if p < 0:
            p, total = -p, -total
        g = gcd(total, p)
        if p != g:
            q = p // g
            den *= q
            num = [q * v for v in num]
        num[pcol] = total // g
    return kept, [Fraction(v, den) for v in num]


_BINDING = "scipy.optimize._highspy._core"  # HiGHS's pybind11 binding in scipy
_SCIPY = "scipy>=1.17,<1.18"  # the releases whose binding the float solve was checked on


def _load_binding():
    """The module `_BINDING`: the one in sys.modules if there is one, else
    loaded from its extension file in scipy's directory and registered there,
    so a later `import scipy.optimize` reuses it. Importing the binding by
    name would first run scipy/optimize/__init__.py, about 300 modules;
    top-level `scipy` is light. ImportError if the entry is None (the import
    system's "blocked") or there is no such file."""
    if _BINDING in sys.modules:
        if sys.modules[_BINDING] is None:
            raise ModuleNotFoundError(f"import of {_BINDING} halted; None in sys.modules")
        return sys.modules[_BINDING]
    import scipy
    files = (Path(root, "optimize", "_highspy", "_core" + suffix)
             for root in scipy.__path__ for suffix in machinery.EXTENSION_SUFFIXES)
    path = next((f for f in files if f.is_file()), None)
    if path is None:
        raise ModuleNotFoundError(f"no extension file for {_BINDING} under {scipy.__path__}")
    spec = util.spec_from_file_location(_BINDING, path)
    core = sys.modules[_BINDING] = util.module_from_spec(spec)
    spec.loader.exec_module(core)
    return core


@cache
def _highs():
    """scipy's HiGHS binding and the options that `scipy.optimize.linprog`
    (method "highs", default options) sets, built once. Only the float solve
    uses scipy, so the binding is loaded on first use, without
    `scipy.optimize` (`_load_binding`)."""
    try:
        core = _load_binding()
    except ImportError as exc:
        raise ImportError(f"the float LP solve needs {_SCIPY}, whose HiGHS "
                          f"binding {_BINDING} it drives") from exc
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = 1  # dual simplex
    options.highs_debug_level = 0
    options.output_flag = False
    options.log_to_console = False
    return core, options


def linprog(c: np.ndarray, start: np.ndarray, index: np.ndarray, value: np.ndarray,
            b_ub: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """min c.x  s.t.  A x <= b_ub, x free, by HiGHS through scipy's binding.

    A is row-major without zeros: row i holds value[start[i]:start[i + 1]]
    at the columns index[start[i]:start[i + 1]], in any order. HiGHS turns
    it into its column-major model, rows ascending in each column, so the
    model, the options and so the floats are those of
    `scipy.optimize.linprog(c, A, b_ub, bounds=(None, None), method="highs")`:
    free columns, rows (-inf, b_ub], presolve on, dual simplex, no output.
    Returns x and the row duals (scipy's `ineqlin.marginals`); LPError
    naming HiGHS's model status unless that is optimal.
    """
    core, options = _highs()
    m, n = len(b_ub), len(c)
    model = core.HighsLp()
    model.num_col_ = n
    model.num_row_ = m
    model.col_cost_ = c
    model.col_lower_ = np.full(n, -core.kHighsInf)
    model.col_upper_ = np.full(n, core.kHighsInf)
    model.row_lower_ = np.full(m, -core.kHighsInf)
    model.row_upper_ = b_ub
    matrix = model.a_matrix_
    matrix.format_ = core.MatrixFormat.kRowwise
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.start_ = start
    matrix.index_ = index
    matrix.value_ = value
    solver = core._Highs()
    error = core.HighsStatus.kError
    if solver.passOptions(options) == error or solver.passModel(model) == error:
        status = core.HighsModelStatus.kModelError
    else:
        solver.run()
        status = solver.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        raise LPError(f"float LP failed: model status is {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual)


def certified_vertex(c: List[Fraction], rows: Sequence[Row], rhs: Sequence[int],
                     scale: Sequence[int]) -> VertexResult:
    """Certified optimal vertex of  max c.x  s.t.  rows[i].x >= rhs[i].

    rows[i] and rhs[i] are the constraint times scale[i] > 0. A float LP
    (HiGHS) on the unscaled constraints, handed over as their nonzeros row by
    row in the order each row holds them, locates the optimum. A row counts
    as tight there if its residual, summed from those entries, is at most
    _FEAS_TOL (1 + |b_i|).
    The first independent rows tight there, largest float dual first, are
    the basis solved for x. Every row is checked once at x; then, while the
    basis dual has a negative multiplier, the lowest such basis row leaves
    and the lowest exactly tight row blocking the edge it opens enters
    (Bland's rule, so the pivots end). LPError if the float solve fails, or
    if x is no feasible vertex or is not optimal.
    """
    n, m = len(c), len(rows)
    _highs()  # a first import is not charged to the float solve
    start = perf_counter()
    # int / int true division rounds correctly, as float(Fraction) does; the
    # entries are divided in Python and streamed into arrays row by row, in
    # the order the rows hold them (no list of floats to raise the peak memory)
    sizes = [len(row) for row in rows]
    size = sum(sizes)
    row_start = np.zeros(m + 1, np.intp)
    np.cumsum(sizes, out=row_start[1:])
    at_col = np.fromiter(chain.from_iterable(rows), np.intp, size)
    value = np.fromiter((v / s for row, s in zip(rows, scale) for v in row.values()),
                        float, size)
    b = np.array([r / s for r, s in zip(rhs, scale)])
    float_x, duals = linprog(c=-np.array([float(v) for v in c]), start=row_start,
                             index=at_col, value=-value, b_ub=-b)
    resid = np.bincount(np.repeat(np.arange(m), sizes), value * float_x[at_col], m) - b
    tol = _FEAS_TOL * (1.0 + np.abs(b))
    candidates = sorted((i for i in range(m) if resid[i] <= tol[i]),
                        key=lambda i: -abs(float(duals[i])))
    c_den, cost = over_common_denominator(c)
    neg_c = [-v for v in cost]
    stages = {"float": perf_counter() - start}

    start = perf_counter()
    sel, x = _solve_rows([rows[i] for i in candidates], [rhs[i] for i in candidates], n)
    stages["vertex"] = perf_counter() - start
    if x is None:
        raise LPError("could not resolve an exact vertex from the float optimum")
    start = perf_counter()
    x_den, xn = over_common_denominator(x)
    slack = [sum(v * xn[j] for j, v in row.items()) - r * x_den for row, r in zip(rows, rhs)]
    stages["check"] = perf_counter() - start
    if min(slack) < 0:
        raise LPError("the exact vertex at the float optimum is infeasible")
    tight = [i for i, s in enumerate(slack) if not s]
    basis = [candidates[k] for k in sel]
    start = perf_counter()
    for rounds in count(1):
        # KKT: c + A_B^T y = 0, y >= 0. Solved on the integer rows against
        # -c times c_den, so an unscaled row's y is scale / c_den times its z
        columns: List[Row] = [{} for _ in range(n)]
        for k, i in enumerate(basis):
            for j, v in rows[i].items():
                columns[j][k] = v
        _, z = _solve_rows(columns, neg_c, n)
        negative = [i for i, v in zip(basis, z) if v < 0]
        if not negative:
            stages["dual"] = perf_counter() - start
            return VertexResult(x, _dot(c, x), rounds, stages,
                                {i: v * scale[i] / c_den for i, v in zip(basis, z)})
        # the edge d with A_B d = e_leave raises c.x; a tight row with a.d < 0 blocks it
        leave = min(negative)
        _, d = _solve_rows([rows[i] for i in basis], [int(i == leave) for i in basis], n)
        _, dn = over_common_denominator(d)
        enter = next((i for i in tight if i not in basis
                      and sum(v * dn[j] for j, v in rows[i].items()) < 0), None)
        if enter is None:
            raise LPError("the exact vertex at the float optimum is not optimal")
        basis[basis.index(leave)] = enter

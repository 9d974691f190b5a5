from fractions import Fraction as F

import pytest

from menurev import lp
from menurev.instances import load_distribution
from menurev.lp import LPError, certified_vertex, simplex_max, _solve_rows
from menurev.randomized import lp_optimal


def test_simplex_small_lp():
    # max 3x + 2y st x + y <= 4, x <= 2, y <= 3
    x, obj = simplex_max([F(3), F(2)],
                         [[F(1), F(1)], [F(1), F(0)], [F(0), F(1)]],
                         [F(4), F(2), F(3)])
    assert obj == 10 and x == [F(2), F(2)]


def test_simplex_degenerate_lp_terminates():
    # redundant constraints force degenerate pivots; Bland must still finish
    x, obj = simplex_max([F(1), F(1)],
                         [[F(1), F(0)], [F(1), F(0)], [F(1), F(1)]],
                         [F(1), F(1), F(2)])
    assert obj == 2


def test_simplex_unbounded():
    with pytest.raises(LPError, match="unbounded"):
        simplex_max([F(1)], [[F(-1)]], [F(0)])


def test_simplex_rejects_negative_rhs():
    with pytest.raises(LPError, match="nonnegative"):
        simplex_max([F(1)], [[F(1)]], [F(-1)])


def test_solve_rows():
    kept, sol = _solve_rows([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
    assert kept == [0, 1] and sol == [F(1), F(3)]
    assert _solve_rows([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)])[1] is None


def test_solve_rows_skips_dependent_row():
    # x + 2y = 5, 2x + 4y = 10 (dependent, skipped), x + 3y = 7
    kept, sol = _solve_rows([[F(1), F(2)], [F(2), F(4)], [F(1), F(3)]],
                            [F(5), F(10), F(7)])
    assert kept == [0, 2]
    assert sol == [F(1), F(2)]


def test_certified_vertex_simple():
    # max x + y st x <= 2, y <= 3, x >= 0, y >= 0  (rows in >= form)
    rows = [[F(-1), F(0)], [F(0), F(-1)], [F(1), F(0)], [F(0), F(1)]]
    rhs = [F(-2), F(-3), F(0), F(0)]
    res = certified_vertex([F(1), F(1)], rows, rhs)
    assert res.x == [F(2), F(3)]
    assert res.objective == 5
    assert res.certified


def test_certified_vertex_degenerate():
    # three constraints meet at the optimum (2, 2): x<=2, y<=2, x+y<=4
    rows = [[F(-1), F(0)], [F(0), F(-1)], [F(-1), F(-1)], [F(1), F(0)], [F(0), F(1)]]
    rhs = [F(-2), F(-2), F(-4), F(0), F(0)]
    res = certified_vertex([F(1), F(2)], rows, rhs)
    assert res.objective == 6
    assert res.certified


def test_vertex_path_agrees_with_simplex_on_random_lps():
    # max c.x over A x <= b, 0 <= x <= 1: both solvers must agree exactly
    import random

    rng = random.Random(41)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        c = [F(rng.randint(1, 9)) for _ in range(n)]
        a_ub = [[F(rng.randint(0, 6)) for _ in range(n)] for _ in range(m)]
        b_ub = [F(rng.randint(1, 12)) for _ in range(m)]
        box = [[F(1) if j == i else F(0) for j in range(n)] for i in range(n)]
        _, simplex_obj = simplex_max(c, a_ub + box, b_ub + [F(1)] * n)
        rows = [[-v for v in row] for row in a_ub]          # A x <= b as -A x >= -b
        rhs = [-v for v in b_ub]
        rows += [[F(1) if j == i else F(0) for j in range(n)] for i in range(n)]
        rhs += [F(0)] * n
        rows += [[F(-1) if j == i else F(0) for j in range(n)] for i in range(n)]
        rhs += [F(-1)] * n
        res = certified_vertex(c, rows, rhs)
        assert res.objective == simplex_obj
        assert res.certified


def test_example7_purifies_over_several_rounds(monkeypatch):
    # the float optimum of the 36-type lottery LP is degenerate: the first
    # basis's dual has negative multipliers, so rows are dropped until the
    # certificate closes; each round calls _solve_rows twice
    calls = []
    real = lp._solve_rows
    monkeypatch.setattr(lp, "_solve_rows", lambda *a: calls.append(1) or real(*a))
    out = lp_optimal(load_distribution("example7_distribution"), method="float-guided-exact")
    assert len(calls) > 2
    assert out.certified
    assert out.revenue == F(30614162731, 440673750)

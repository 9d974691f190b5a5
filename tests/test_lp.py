import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from itertools import permutations
from math import lcm
from pathlib import Path

import numpy as np
import pytest

import reference
from menurev import cli, lp
from menurev.instances import load_distribution
from menurev.lp import LPError, certified_vertex, simplex_max, _solve_rows
from menurev.model import JointDistribution, SingleItemDistribution, product, uniform
from menurev.randomized import _System, _lp_simplex, lp_optimal

from conftest import oracle_simplex

EXAMPLE7_REVENUE = F(30614162731, 440673750)


def integer_rows(rows, rhs):
    """Dense Fraction rows in the form lp takes: (rows, rhs, scale), each row a
    sparse {column: int} map, row and right-hand side times scale, the lcm of
    their denominators."""
    out, out_rhs, scale = [], [], []
    for row, b in zip(rows, rhs):
        d = lcm(*(F(v).denominator for v in row), F(b).denominator)
        out.append({j: int(v * d) for j, v in enumerate(row) if v})
        out_rhs.append(int(b * d))
        scale.append(d)
    return out, out_rhs, scale


def dense_lp_rows(values, n):
    """The revenue LP's IC rows, IR rows and box pairs (x >= 0, -x >= -1) in >=
    form as dense Fraction rows, built entry by entry; columns are x, then
    payments."""
    t_count = len(values)
    width = t_count * n + t_count
    rows, rhs = [], []
    for t, v in enumerate(values):
        for s in range(t_count):
            if s != t:
                row = [F(0)] * width
                for i in range(n):
                    row[t * n + i] += v[i]
                    row[s * n + i] -= v[i]
                row[t_count * n + t] -= 1
                row[t_count * n + s] += 1
                rows.append(row)
                rhs.append(F(0))
    for t, v in enumerate(values):
        row = [F(0)] * width
        for i in range(n):
            row[t * n + i] += v[i]
        row[t_count * n + t] -= 1
        rows.append(row)
        rhs.append(F(0))
    for col in range(t_count * n):
        for sign in (1, -1):
            row = [F(0)] * width
            row[col] = F(sign)
            rows.append(row)
            rhs.append(F(0) if sign == 1 else F(-1))
    return rows, rhs


def seeded_distributions(seed, count):
    """Joint distributions on 1-3 items with fractional values, so that the
    integer rows carry scales other than 1."""
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % 3
        types = rng.randint(2, (6, 4, 3)[n - 1])
        values = set()
        while len(values) < types:
            values.add(tuple(F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(n)))
        weights = [rng.randint(1, 6) for _ in values]
        yield JointDistribution.from_pairs(
            n, ((v, F(w, sum(weights))) for v, w in zip(sorted(values), weights)))


def correlated_distributions(seed, type_counts):
    """2-item joint distributions with each count of distinct valuations in
    0..8, drawn as the lottery benchmark draws its small LPs."""
    rng = random.Random(seed)
    for types in type_counts:
        values = set()
        while len(values) < types:
            values.add((rng.randint(0, 8), rng.randint(0, 8)))
        weights = [rng.randint(1, 6) for _ in values]
        yield JointDistribution.from_pairs(
            2, ((v, F(w, sum(weights))) for v, w in zip(sorted(values), weights)))


def test_simplex_small_lp():
    # max 3x + 2y st x + y <= 4, x <= 2, y <= 3
    res = simplex_max([F(3), F(2)], *integer_rows(
        [[F(1), F(1)], [F(1), F(0)], [F(0), F(1)]], [F(4), F(2), F(3)])[:2])
    assert res.objective == 10 and res.x == [F(2), F(2)]


def test_simplex_degenerate_lp_terminates():
    # redundant constraints force degenerate pivots; Bland must still finish
    res = simplex_max([F(1), F(1)], *integer_rows(
        [[F(1), F(0)], [F(1), F(0)], [F(1), F(1)]], [F(1), F(1), F(2)])[:2])
    assert res.objective == 2


# the classic cycling examples: degenerate systems built to make the
# largest-coefficient rule cycle (Beale 1955; Kuhn, as given by Chvatal 1983)
BEALE_1955 = ([F(3, 4), F(-20), F(1, 2), F(-6)],
              [[F(1, 4), F(-8), F(-1), F(9)], [F(1, 2), F(-12), F(-1, 2), F(3)],
               [F(0), F(0), F(1), F(0)]],
              [F(0), F(0), F(1)])
KUHN_CHVATAL_1983 = ([F(2), F(3), F(-1), F(-12)],
                     [[F(-2), F(-9), F(1), F(9)], [F(1, 3), F(1), F(-1, 3), F(-2)],
                      [F(2), F(3), F(-1), F(-12)]],
                     [F(0), F(0), F(2)])


@pytest.mark.parametrize("system", [BEALE_1955, KUHN_CHVATAL_1983], ids=["beale", "kuhn"])
def test_simplex_matches_fraction_oracle_on_cycling_examples(system):
    c, a_ub, b_ub = system
    res = simplex_max(c, *integer_rows(a_ub, b_ub)[:2])
    assert (res.x, res.objective, res.rounds) == oracle_simplex(c, a_ub, b_ub)
    if system is BEALE_1955:
        assert (res.x, res.objective, res.rounds) == ([F(1), F(0), F(1), F(0)], F(5, 4), 6)


def test_simplex_pivot_limit(monkeypatch):
    # Beale's system takes 6 pivots and stops on the 7th pass
    c, a_ub, b_ub = BEALE_1955
    a_int, b_int, _ = integer_rows(a_ub, b_ub)
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 7)
    assert simplex_max(c, a_int, b_int).rounds == 6
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 6)
    with pytest.raises(LPError, match="^pivot limit exceeded$"):
        simplex_max(c, a_int, b_int)


def test_simplex_unbounded():
    with pytest.raises(LPError, match="unbounded"):
        simplex_max([F(1)], *integer_rows([[F(-1)]], [F(0)])[:2])


def test_simplex_rejects_negative_rhs():
    with pytest.raises(LPError, match="nonnegative"):
        simplex_max([F(1)], *integer_rows([[F(1)]], [F(-1)])[:2])


def _random_system(rng, degenerate):
    n, m = rng.randint(1, 5), rng.randint(1, 6)
    if degenerate:
        # few distinct entries, zero and repeated right-hand sides and rows
        # repeated at other scales: many tied ratios for Bland to break
        c = [F(rng.randint(0, 3)) for _ in range(n)]
        a_ub = [[F(rng.choice([0, 0, 1, 1, 2])) for _ in range(n)] for _ in range(m)]
        b_ub = [F(rng.choice([0, 1, 1, 2])) for _ in range(m)]
        for _ in range(rng.randint(0, 3)):
            i, f = rng.randrange(len(a_ub)), F(rng.randint(1, 3), rng.randint(1, 3))
            a_ub.append([f * v for v in a_ub[i]])
            b_ub.append(f * b_ub[i])
    else:
        c = [F(rng.randint(-2, 9), rng.randint(1, 4)) for _ in range(n)]
        a_ub = [[F(rng.randint(-3, 8), rng.randint(1, 5)) for _ in range(n)] for _ in range(m)]
        b_ub = [F(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(m)]
    return c, a_ub, b_ub


def _run(solve, *args):
    try:
        return solve(*args)
    except LPError as e:
        return str(e)


def test_simplex_matches_fraction_oracle_on_random_systems():
    # the fraction-free tableau makes the Fraction tableau's pivots: same x,
    # objective and pivot count, and the same LPError where it fails
    rng = random.Random(20261018)
    outcomes = []
    for k in range(250):
        c, a_ub, b_ub = _random_system(rng, degenerate=k % 5 >= 3)
        want = _run(oracle_simplex, c, a_ub, b_ub)
        got = _run(simplex_max, c, *integer_rows(a_ub, b_ub)[:2])
        if not isinstance(got, str):
            got = (got.x, got.objective, got.rounds)
        assert got == want
        outcomes.append(want)
    solved = [o for o in outcomes if not isinstance(o, str)]
    assert len(solved) > 150 and any(o[2] > 2 for o in solved)
    assert "LP is unbounded" in outcomes
    for a_ub, b_ub in (([[F(-1), F(1, 2)]], [F(3)]), ([[F(1), F(1)]], [F(-1, 2)])):
        with pytest.raises(LPError) as err:
            simplex_max([F(1), F(0)], *integer_rows(a_ub, b_ub)[:2])
        assert str(err.value) == _run(oracle_simplex, [F(1), F(0)], a_ub, b_ub)


def oracle_checked_pivots(monkeypatch, dists):
    """Pivot counts of `_lp_simplex` on each distribution, its sparse integer
    system checked row by row to be the dense rows times L, the lcm of the
    coordinate denominators (IC and IR rows), or times 1 (box rows), and
    its result against the oracle on the dense rows."""
    calls = []
    real = lp.simplex_max
    monkeypatch.setattr(lp, "simplex_max", lambda *a: calls.append((a, real(*a))) or calls[-1][1])
    pivots = []
    for dist in dists:
        values = [v for v, _ in dist.atoms]
        calls.clear()
        _lp_simplex(_System.full(dist))
        (c, sparse_a, sparse_b), got = calls[0]
        nx = len(values) * dist.n
        rows, rhs = dense_lp_rows(values, dist.n)
        box = len(rows) - 2 * nx
        keep = [r for r in range(len(rows)) if r < box or (r - box) % 2]
        a_ub = [[-a for a in rows[r]] for r in keep]
        b_ub = [-rhs[r] for r in keep]
        times = [dist.integer_atoms.scale if r < box else 1 for r in keep]
        assert sparse_a == [{j: a * m for j, a in enumerate(row) if a} for row, m in zip(a_ub, times)]
        assert sparse_b == [b * m for b, m in zip(b_ub, times)]
        assert all(type(a) is int for row in sparse_a for a in row.values())
        assert oracle_simplex(c, a_ub, b_ub) == (got.x, got.objective, got.rounds)
        pivots.append(got.rounds)
    return pivots


def test_simplex_matches_fraction_oracle_on_lp_systems(monkeypatch):
    # 1-3 items with fractional values
    oracle_checked_pivots(monkeypatch, seeded_distributions(7, 60))


def test_simplex_matches_fraction_oracle_on_correlated_lp_systems(monkeypatch):
    # 2 items with 5, 6, 7 and 8 types, the last past 100 pivots
    assert max(oracle_checked_pivots(monkeypatch, correlated_distributions(34, range(5, 9)))) > 100


def test_solve_rows():
    kept, sol = _solve_rows([{0: 2, 1: 1}, {0: 1, 1: 3}], [5, 10], 2)
    assert kept == [0, 1] and sol == [F(1), F(3)]
    assert _solve_rows([{0: 1, 1: 2}, {0: 2, 1: 4}], [1, 2], 2)[1] is None


def test_solve_rows_skips_dependent_row():
    # x + 2y = 5, 2x + 4y = 10 (dependent, skipped), x + 3y = 7
    kept, sol = _solve_rows([{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 1, 1: 3}], [5, 10, 7], 2)
    assert kept == [0, 2]
    assert sol == [F(1), F(2)]


def test_certified_vertex_simple():
    # max x + y st x <= 2, y <= 3, x >= 0, y >= 0  (rows in >= form)
    rows = [[F(-1), F(0)], [F(0), F(-1)], [F(1), F(0)], [F(0), F(1)]]
    rhs = [F(-2), F(-3), F(0), F(0)]
    res = certified_vertex([F(1), F(1)], *integer_rows(rows, rhs))
    assert res.x == [F(2), F(3)]
    assert res.objective == 5
    assert res.certified


def test_certified_vertex_degenerate():
    # three constraints meet at the optimum (2, 2): x<=2, y<=2, x+y<=4
    rows = [[F(-1), F(0)], [F(0), F(-1)], [F(-1), F(-1)], [F(1), F(0)], [F(0), F(1)]]
    rhs = [F(-2), F(-2), F(-4), F(0), F(0)]
    res = certified_vertex([F(1), F(2)], *integer_rows(rows, rhs))
    assert res.objective == 6
    assert res.certified


def test_vertex_path_agrees_with_simplex_on_random_lps():
    # max c.x over A x <= b, 0 <= x <= 1: both solvers must agree exactly
    rng = random.Random(41)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        c = [F(rng.randint(1, 9)) for _ in range(n)]
        a_ub = [[F(rng.randint(0, 6)) for _ in range(n)] for _ in range(m)]
        b_ub = [F(rng.randint(1, 12)) for _ in range(m)]
        box = [[F(1) if j == i else F(0) for j in range(n)] for i in range(n)]
        simplex_obj = simplex_max(c, *integer_rows(a_ub + box, b_ub + [F(1)] * n)[:2]).objective
        rows = [[-v for v in row] for row in a_ub]          # A x <= b as -A x >= -b
        rhs = [-v for v in b_ub]
        rows += [[F(1) if j == i else F(0) for j in range(n)] for i in range(n)]
        rhs += [F(0)] * n
        rows += [[F(-1) if j == i else F(0) for j in range(n)] for i in range(n)]
        rhs += [F(-1)] * n
        res = certified_vertex(c, *integer_rows(rows, rhs))
        assert res.objective == simplex_obj
        assert res.certified


def full_system(dist):
    """The full LP's (c, rows, rhs, scale), as `_System.full` writes it;
    `lp_optimal` solves exchangeable distributions such as example 7 over
    their orbits instead."""
    system = _System.full(dist)
    return system.c, system.rows, system.rhs, system.scale


def loop_float_rows(rows, rhs, scale, width):
    """The float system of certified_vertex, one matrix entry stored at a time."""
    a = np.zeros((len(rows), width))
    for i, (row, s) in enumerate(zip(rows, scale)):
        for j, v in row.items():
            a[i, j] = v / s
    return a, np.array([r / s for r, s in zip(rhs, scale)])


def dense_matrix(problem):
    """The matrix of an lp.linprog problem, rebuilt dense from its rows."""
    a = np.zeros((len(problem["b_ub"]), len(problem["c"])))
    a[np.repeat(np.arange(a.shape[0]), np.diff(problem["start"])), problem["index"]] = \
        problem["value"]
    return a


def scipy_problem(problem):
    """An lp.linprog problem as scipy.optimize.linprog takes it."""
    return {"c": problem["c"], "A_ub": dense_matrix(problem), "b_ub": problem["b_ub"]}


def test_float_problem_matches_dense_fraction_rows(monkeypatch):
    # HiGHS gets the float matrix that float() of the dense Fraction rows gives,
    # and that storing each entry in a loop gives, bit for bit, as the row
    # scan of that dense matrix, so it reports the same tight rows and duals;
    # a row holds its entries in the order the builder wrote them, so they are
    # sorted by column before the comparison
    seen = {}
    real = lp.linprog
    monkeypatch.setattr(lp, "linprog", lambda *a, **k: seen.update(k) or real(*a, **k))
    dists = [load_distribution("example7_distribution"), *seeded_distributions(11, 24)]
    for k, dist in enumerate(dists):
        out = certified_vertex(*full_system(dist))
        values = [v for v, _ in dist.atoms]
        rows, rhs = dense_lp_rows(values, dist.n)
        a = -np.array([[float(v) for v in row] for row in rows])
        b = -np.array([float(v) for v in rhs])
        loop_a, loop_b = loop_float_rows(*full_system(dist)[1:], len(values) * (dist.n + 1))
        got = dense_matrix(seen)
        for want_a, want_b in ((a, b), (-loop_a, -loop_b)):
            assert got.shape == want_a.shape
            # + 0.0 turns the negated zeros, which HiGHS never gets, into 0.0
            assert got.tobytes() == (want_a + 0.0).tobytes()
            assert seen["b_ub"].tobytes() == want_b.tobytes()
            start = np.concatenate(([0], np.cumsum(np.count_nonzero(want_a, axis=1))))
            assert seen["start"].tobytes() == start.tobytes()
            for i, row in enumerate(want_a):
                at = slice(start[i], start[i + 1])
                order = np.argsort(seen["index"][at], kind="stable")
                (cols,) = np.nonzero(row)
                assert seen["index"][at][order].tobytes() == cols.tobytes()
                assert seen["value"][at][order].tobytes() == row[cols].tobytes()
        if k == 0:
            assert (out.objective, out.certified, out.rounds) == (EXAMPLE7_REVENUE, True, 2)


def float_problems(monkeypatch, systems):
    """The (c, start, index, value, b_ub) that certified_vertex hands to
    lp.linprog for each (c, rows, rhs, scale), recorded without solving."""
    seen = []

    def record(**problem):
        seen.append(problem)
        raise LPError("float LP failed: recorded")

    monkeypatch.setattr(lp, "linprog", record)
    for system in systems:
        with pytest.raises(LPError, match="float LP failed: recorded"):
            certified_vertex(*system)
    monkeypatch.undo()
    return seen


def test_binding_matches_scipy_linprog_bit_for_bit(monkeypatch):
    # lp.linprog drives scipy's HiGHS binding with the model and options of
    # scipy.optimize.linprog(method="highs"): x and the row duals are the
    # same floats, so the candidate order, every pivot and the result are too
    from scipy.optimize import linprog as scipy_linprog

    dist7 = load_distribution("example7_distribution")
    orbits = _System.orbits(dist7)
    systems = [full_system(dist7), (orbits.c, orbits.rows, orbits.rhs, orbits.scale),
               *map(full_system, seeded_distributions(11, 24)),
               *map(full_system, rescaled_example7())]
    problems = float_problems(monkeypatch, systems)
    assert len(problems) == 66 and dense_matrix(problems[1]).shape == (738, 57)
    for k, problem in enumerate(problems):
        x, duals = lp.linprog(**problem)
        want = scipy_linprog(**scipy_problem(problem), bounds=(None, None), method="highs")
        assert (k, want.status) == (k, 0)
        assert x.tobytes() == want.x.tobytes()
        assert duals.tobytes() == want.ineqlin.marginals.tobytes()


def test_highs_writes_nothing(capfd):
    # HiGHS logs from C++, so the check is at the file descriptors; the same
    # solver with HiGHS's default options shows that the capture sees it
    core, _ = lp._highs()
    loud = core._Highs()
    loud.passModel(core.HighsLp())
    loud.run()
    assert "Running HiGHS" in capfd.readouterr().out
    assert lp_optimal(load_distribution("example7_distribution")).certified
    assert capfd.readouterr() == ("", "")
    cli.main(["reproduce", "example-7", "--format", "json"])
    out, err = capfd.readouterr()
    assert err == "" and json.loads(out)


@pytest.mark.parametrize("rows, rhs, status", [
    ([{0: 1}, {0: -1}], [1, 0], "Infeasible"),  # x >= 1 and -x >= 0
    ([{0: 1}], [1], "Unbounded"),  # max x with x >= 1
], ids=["infeasible", "unbounded"])
def test_highs_failures_are_typed(rows, rhs, status, monkeypatch):
    system = ([F(1)], rows, rhs, [1] * len(rows))
    (problem,) = float_problems(monkeypatch, [system])
    assert dense_matrix(problem).tolist() == [[-v for v in row.values()] for row in rows]
    for solve in (lambda: lp.linprog(**problem), lambda: certified_vertex(*system)):
        with pytest.raises(LPError, match=f"^float LP failed: model status is {status}$"):
            solve()


def test_missing_binding_names_the_scipy_range(monkeypatch):
    # the range in pyproject.toml is the scipy releases checked against
    # test_binding_matches_scipy_linprog_bit_for_bit
    required = re.search(r'"(scipy>=[\d.]+,<[\d.]+)"',
                         (Path(__file__).parents[1] / "pyproject.toml").read_text()).group(1)
    lp._highs.cache_clear()
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    try:
        with pytest.raises(ImportError, match=rf"needs {re.escape(required)},"):
            lp._highs()
    finally:
        lp._highs.cache_clear()


def test_float_stage_peaks_below_the_dense_matrix():
    # the rows reach HiGHS and the residuals as their nonzero entries: on a
    # 49-type non-exchangeable full system, everything certified_vertex
    # allocates at once stays below one rows x columns float matrix
    dist = product([uniform(range(1, 8)), uniform(range(2, 15, 2))])
    system = full_system(dist)
    rows, width = len(system[1]), len(system[0])
    assert (rows, width) == (2597, 147)
    lp._highs()
    tracemalloc.start()
    try:
        out = certified_vertex(*system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.certified
    assert peak < rows * width * 8


def test_certified_vertex_ignores_row_scaling():
    # a row times k > 0 with its scale times k is the same constraint: the
    # float problem, the basis, every pivot and the vertex stay
    dist = load_distribution("example7_distribution")
    c, rows, rhs, scale = full_system(dist)
    want = certified_vertex(c, rows, rhs, scale)
    rng = random.Random(5)
    ks = [rng.randint(1, 60) for _ in rows]
    got = certified_vertex(c, [{j: k * v for j, v in row.items()} for k, row in zip(ks, rows)],
                           [k * r for k, r in zip(ks, rhs)], [k * s for k, s in zip(ks, scale)])
    assert (got, got.rounds) == (want, want.rounds) and want.rounds == 2


def rescaled_example7(count=40):
    """Example 7 with each type's values times a factor drawn from
    {1, 1/2, 2/3, 3/2, 5/4, 7/3} (seed 1), one distribution per draw."""
    dist7 = load_distribution("example7_distribution")
    rng = random.Random(1)
    factors = [[rng.choice([F(1), F(1, 2), F(2, 3), F(3, 2), F(5, 4), F(7, 3)])
                for _ in dist7.atoms] for _ in range(count)]
    return [JointDistribution.from_pairs(2, [(tuple(q * f for q in v), p)
                                             for f, (v, p) in zip(fs, dist7.atoms)])
            for fs in factors]


def test_pivots_on_rescaled_example7():
    # rows get scales other than 1, and bases see several negative
    # multipliers, so the row that leaves depends on multiplying the dual back
    # by the scales; the counts and revenues are those of Fraction elimination
    draws = rescaled_example7(12)
    want = {1: (3, F(371047, 4050)), 11: (3, F(204871290034887943, 2660505297817500))}
    for k, (rounds, revenue) in want.items():
        out = lp_optimal(draws[k], method="float-guided-exact")
        assert (out.rounds, out.revenue, out.certified) == (rounds, revenue, True)


def test_every_rescaled_example7_draw_certifies_at_its_vertex(monkeypatch):
    # the float-guided vertex is optimal on every draw, so `auto` must
    # certify it without the exact simplex, which runs for many minutes on
    # LPs of this size
    def no_fallback(*args):
        raise AssertionError("auto fell back to the exact simplex")

    monkeypatch.setattr(lp, "simplex_max", no_fallback)
    for k, dist in enumerate(rescaled_example7()):
        out = lp_optimal(dist)
        assert (k, out.method, out.certified) == (k, "float-guided-exact", True)


@pytest.mark.parametrize("draw", [None, 0, 2])
def test_dual_certifies_the_vertex_on_its_own(draw):
    # against the dense Fraction rows: x is feasible, every basis row is
    # tight, y >= 0 and sum y_i a_i = -c, so c.x is optimal by weak duality
    dist = load_distribution("example7_distribution") if draw is None \
        else rescaled_example7(draw + 1)[draw]
    values = [v for v, _ in dist.atoms]
    c, *system = full_system(dist)
    assert c == [F(0)] * (len(values) * dist.n) + [p for _, p in dist.atoms]
    res = certified_vertex(c, *system)
    rows, rhs = dense_lp_rows(values, dist.n)
    lhs = [sum(a * x for a, x in zip(row, res.x) if a) for row in rows]
    assert all(v >= b for v, b in zip(lhs, rhs))
    assert len(res.dual) == len(c) and all(lhs[i] == rhs[i] for i in res.dual)
    assert all(y >= 0 for y in res.dual.values())
    assert [sum(y * rows[i][j] for i, y in res.dual.items()) for j in range(len(c))] == \
        [-v for v in c]
    assert res.certified and res.objective == -sum(y * rhs[i] for i, y in res.dual.items())


def test_example7_certifies_after_one_pivot(monkeypatch):
    # the float optimum of the 36-type lottery LP is degenerate: the first
    # basis's dual has a negative multiplier, and one pivot at the vertex
    # closes the certificate; x, the two duals and the edge are one
    # _solve_rows call each
    calls = []
    real = lp._solve_rows
    system = full_system(load_distribution("example7_distribution"))
    monkeypatch.setattr(lp, "_solve_rows", lambda *a: calls.append(1) or real(*a))
    out = certified_vertex(*system)
    assert len(calls) == 4
    assert out.certified
    assert out.objective == EXAMPLE7_REVENUE
    assert out.rounds == 2


def test_lp_outcome_reports_rounds_and_stages():
    dist = next(seeded_distributions(3, 1))
    guided = lp_optimal(dist, method="float-guided-exact")
    simplex = lp_optimal(dist, method="exact-simplex")
    assert set(guided.stages) == {"float", "vertex", "check", "dual"}
    assert set(simplex.stages) == {"simplex"}
    assert guided.rounds >= 1 and simplex.rounds >= 1
    assert all(v >= 0 for v in (*guided.stages.values(), *simplex.stages.values()))
    # the observability fields take no part in equality
    assert guided == lp_optimal(dist, method="float-guided-exact")


def run_fresh(code):
    """The standard output of `code`, run in a fresh interpreter on these sources."""
    src = str(Path(lp.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # scipy is first imported by the first float solve, not with menurev
    assert run_fresh("import sys, menurev; print('scipy' in sys.modules)") == "False"


SOLVE_EXAMPLE7 = """
import importlib.util, sys
from menurev import lp
loads, load = [], importlib.util.module_from_spec
importlib.util.module_from_spec = lambda spec: loads.append(spec.name) or load(spec)
from menurev.instances import load_distribution
from menurev.randomized import lp_optimal
seen, solve = [], lp.linprog
lp.linprog = lambda **problem: seen.append(problem) or solve(**problem)
assert lp_optimal(load_distribution("example7_distribution")).certified
core = sys.modules[lp._BINDING]
"""


def test_binding_loads_without_scipy_optimize():
    # the binding comes from its extension file and is registered, so a later
    # import of scipy.optimize reuses it, and scipy's linprog on example 7's
    # orbit system, through that same module, gives the same floats
    out = run_fresh(SOLVE_EXAMPLE7 + """
import numpy as np
p = seen[0]
a = np.zeros((len(p["b_ub"]), len(p["c"])))  # the matrix, rebuilt dense from its rows
a[np.repeat(np.arange(a.shape[0]), np.diff(p["start"])), p["index"]] = p["value"]
print("scipy.optimize" in sys.modules, core is lp._highs()[0], a.shape)
from scipy.optimize import linprog
import scipy.optimize._highspy._core as imported
wrapper = sys.modules["scipy.optimize._highspy._highs_wrapper"]
x, duals = solve(**p)
want = linprog(p["c"], A_ub=a, b_ub=p["b_ub"], bounds=(None, None), method="highs")
print(imported is core, wrapper._h is core, x.tobytes() == want.x.tobytes(),
      duals.tobytes() == want.ineqlin.marginals.tobytes(), loads)
""")
    assert out.splitlines() == ["False True (738, 57)",
                                "True True True True ['scipy.optimize._highspy._core']"]


def test_binding_reuses_scipy_optimize_module():
    # scipy.optimize imported first: the float solve takes its binding and
    # loads no second copy
    out = run_fresh("import sys, scipy.optimize; scipy_core = sys.modules["
                    "'scipy.optimize._highspy._core']" + SOLVE_EXAMPLE7 +
                    "print(core is scipy_core, lp._highs()[0] is scipy_core, loads)")
    assert out == "True True []"


def test_missing_extension_file_names_the_scipy_range():
    # the same ImportError as a blocked binding (test_missing_binding_names_the_scipy_range)
    out = run_fresh("""
import sys
from importlib import machinery
from menurev import lp
machinery.EXTENSION_SUFFIXES = []
try:
    lp._highs()
except ImportError as exc:
    print(exc, exc.__cause__, lp._BINDING in sys.modules, sep="\\n")
""")
    message, cause, registered = out.splitlines()
    assert message == (f"the float LP solve needs {lp._SCIPY}, whose HiGHS binding "
                       "scipy.optimize._highspy._core it drives")
    assert cause.startswith("no extension file for scipy.optimize._highspy._core under ")
    assert registered == "False"


def relabeled(v, i):
    """v with items i and i + 1 swapped."""
    return v[:i] + (v[i + 1], v[i]) + v[i + 2:]


def assert_symmetric(dist, mech):
    # swapping two adjacent items (they generate every relabeling) maps each
    # type's allocation and payment onto its image's
    index = {v: t for t, (v, _) in enumerate(dist.atoms)}
    for t, (v, _) in enumerate(dist.atoms):
        for i in range(dist.n - 1):
            s = index[relabeled(v, i)]
            assert mech.allocations[s] == relabeled(mech.allocations[t], i)
            assert mech.payments[s] == mech.payments[t]


def exchangeable_distributions(seed, count):
    """IID products and symmetrized correlated joints on 2 and 3 items, with
    fractional values and repeated coordinates."""
    rng = random.Random(seed)
    for k in range(count):
        n = 2 + k % 2
        if k % 4 < 2:
            support = rng.sample(range(12), rng.randint(1, 4 if n == 2 else 3))
            weights = [rng.randint(1, 5) for _ in support]
            part = SingleItemDistribution.from_pairs(
                [(F(v, rng.choice([1, 1, 2, 3])), F(w, sum(weights)))
                 for v, w in zip(support, weights)])
            yield product([part] * n)
        else:
            weight = {}
            for _ in range(rng.randint(1, 4 if n == 2 else 2)):
                v = tuple(F(rng.randint(0, 9), rng.choice([1, 2])) for _ in range(n))
                w = rng.randint(1, 6)
                for image in permutations(v):
                    weight[image] = w
            total = sum(weight.values())
            yield JointDistribution.from_pairs(n, [(v, F(w, total)) for v, w in weight.items()])


def test_orbit_path_matches_the_full_system_on_exchangeable_instances():
    # the lifted orbit optimum is symmetric, IC and IR by the reference
    # oracle, and earns the full system's certified optimum
    for dist in exchangeable_distributions(41, 40):
        out = lp_optimal(dist, method="float-guided-exact")
        assert "lift" in out.stages and out.method == "float-guided-exact"
        assert out.revenue == certified_vertex(*full_system(dist)).objective
        mech = out.mechanism
        types = [v for v, _ in dist.atoms]
        assert reference.ic_ir_violations(types, mech.allocations, mech.payments) == []
        assert_symmetric(dist, mech)


def symmetric_projection(dist):
    """Per full column (x_t,i for each type t and item i, then p_t), the orbit
    LP's column that it becomes at symmetric points: one y per (orbit,
    distinct value), the orbits in order of their first type and the values
    ascending, then one payment per orbit."""
    types = [v for v, _ in dist.atoms]
    orbit = {r: k for k, r in enumerate(dict.fromkeys(tuple(sorted(v)) for v in types))}
    y = {}
    for r in orbit:
        for a in r:
            y.setdefault((r, a), len(y))
    return ([y[tuple(sorted(v)), a] for v in types for a in v]
            + [len(y) + orbit[tuple(sorted(v))] for v in types])


def identity_projection(dist):
    """The full system's own columns: x_t,i at t n + i, then p_t."""
    return list(range(len(dist.atoms) * (dist.n + 1)))


def test_system_rows_are_their_named_full_rows():
    # each row, over its scale, is the full row it is named by, written in
    # Fractions from the values and projected on the system's columns: the
    # orbit system's at symmetric points, the full system's through the
    # identity; per row type, the IC rows are the distinct nonzero
    # projections, each once, and the box rows are one pair per distinct
    # column, named by its first coordinate; the lift reads y through the
    # same projection
    rng = random.Random(5)
    exchangeable = [load_distribution("example4_distribution"),
                    load_distribution("example7_distribution"),
                    *exchangeable_distributions(17, 24)]
    cases = [*((d, _System.orbits, symmetric_projection) for d in exchangeable),
             *((d, _System.full, identity_projection) for d in seeded_distributions(19, 24))]
    same_orbit = merged = 0
    for dist, build, projection in cases:
        n, types = dist.n, [v for v, _ in dist.atoms]
        t_count, nx = len(types), len(types) * dist.n
        proj = projection(dist)
        system = build(dist)

        def project(full):
            out = {}
            for j, a in full:
                out[proj[j]] = out.get(proj[j], 0) + a
            return {j: a for j, a in out.items() if a}

        def ic(t, s):
            v = types[t]
            return project([*((t * n + i, a) for i, a in enumerate(v)),
                            *((s * n + i, -a) for i, a in enumerate(v)),
                            (nx + t, -1), (nx + s, 1)])

        c = [F(0)] * len(system.c)
        for j, a in enumerate([F(0)] * nx + [p for _, p in dist.atoms]):
            c[proj[j]] += a
        assert system.c == c
        got_ic, got_box = {}, []
        for row, d, b, (kind, t, *rest) in zip(system.rows, system.scale, system.rhs,
                                              system.names):
            if kind == "ic":
                (s,) = rest
                want, want_b = ic(t, s), 0
                got_ic.setdefault(t, []).append(frozenset(want.items()))
                same_orbit += proj[nx + t] == proj[nx + s]
            elif kind == "ir":
                want = project([*((t * n + i, a) for i, a in enumerate(types[t])), (nx + t, -1)])
                want_b = 0
            else:
                (i,) = rest
                want, want_b = project([(t * n + i, kind)]), min(kind, 0)
                got_box.append((t, i, kind))
            assert {j: F(a, d) for j, a in row.items()} == want
            assert F(b, d) == want_b
        row_types = [t for kind, t, *_ in system.names if kind == "ir"]
        assert got_box == [(t, i, sign) for t in row_types for i in range(n)
                           if proj[t * n + i] not in proj[t * n:t * n + i] for sign in (1, -1)]
        assert list(got_ic) == [t for t in row_types if t in got_ic]
        for t, rows in got_ic.items():
            projected = (ic(t, s) for s in range(t_count) if s != t)
            assert len(set(rows)) == len(rows)
            assert set(rows) == {frozenset(r.items()) for r in projected if r}
            merged += len(rows) < t_count - 1
        if build is _System.full:
            assert row_types == list(range(t_count)) and len(got_ic) == t_count
        y = [F(rng.randint(0, 99), rng.randint(1, 9)) for _ in system.c]
        mech = system.lift(y)
        assert mech.allocations == tuple(tuple(y[proj[t * n + i]] for i in range(n))
                                         for t in range(t_count))
        assert mech.payments == tuple(y[proj[nx + t]] for t in range(t_count))
    assert same_orbit and merged


def spy_systems(monkeypatch, edit=lambda k, res: res):
    """Record the row count of each system `certified_vertex` solves, and pass
    the k-th result through edit(k, result)."""
    sizes = []
    real = lp.certified_vertex

    def spy(c, rows, *rest):
        sizes.append((len(rows), len(c)))
        return edit(len(sizes) - 1, real(c, rows, *rest))

    monkeypatch.setattr(lp, "certified_vertex", spy)
    return sizes


def test_non_exchangeable_and_one_item_inputs_take_the_full_path(monkeypatch):
    # one mirrored mass changed breaks exchangeability; one item has none
    sizes = spy_systems(monkeypatch)
    iid = product([uniform([1, 2, 4])] * 2)
    (v, p), (w, q) = iid.atoms[1], iid.atoms[3]
    assert w == (v[1], v[0])
    near = JointDistribution.from_pairs(
        2, [(u, p + F(1, 90) if u == v else q - F(1, 90) if u == w else r) for u, r in iid.atoms])
    assert "lift" in lp_optimal(iid).stages
    dists = [near, *(d for d in seeded_distributions(3, 12) if d.n == 1),
             product([uniform([1, 2])])]
    for dist in dists:
        sizes.clear()
        out = lp_optimal(dist)
        t = len(dist.atoms)
        assert "lift" not in out.stages
        assert sizes == [(t * (t - 1) + t + 2 * t * dist.n, t * (dist.n + 1))]


def test_perturbed_orbit_multiplier_is_rejected_and_the_full_path_certifies(monkeypatch):
    dist = product([uniform([1, 3, 4])] * 2)
    want = lp_optimal(dist)
    orbits = _System.orbits(dist)
    res = certified_vertex(orbits.c, orbits.rows, orbits.rhs, orbits.scale)
    assert orbits.certifies(res)
    for k, y in res.dual.items():
        for bad in (y + F(1, 7), -F(1, 7)):
            mutated = dataclasses.replace(res, dual={**res.dual, k: bad})
            assert not orbits.certifies(mutated)

    def perturb(k, res):
        if k == 0:
            row = next(i for i, y in res.dual.items() if y)
            res.dual[row] += F(1, 1000)
        return res

    sizes = spy_systems(monkeypatch, perturb)
    out = lp_optimal(dist)
    assert sizes == [(len(orbits.rows), len(orbits.c)), (9 * 8 + 9 + 36, 27)]
    assert "lift" not in out.stages
    assert (out.revenue, out.certified, out.method) == (want.revenue, True, "float-guided-exact")


def test_each_method_tries_its_systems_in_order(monkeypatch):
    # every float solve fails: float-guided-exact tries the orbit system, then
    # the full one, and raises the full system's error; auto tries the same
    # two, then the exact simplex; exact-simplex builds no orbit system and
    # makes no float solve
    dist = product([uniform([1, 3, 4])] * 2)
    simplex = lp_optimal(dist, method="exact-simplex")
    orbits = _System.orbits(dist)
    tried = [(len(orbits.rows), len(orbits.c)), (9 * 8 + 9 + 36, 27)]
    built, sizes = [], []

    def fail(c, rows, *rest):
        sizes.append((len(rows), len(c)))
        raise LPError(f"stand-in failure {len(sizes)}")

    build = _System.orbits.__func__
    monkeypatch.setattr(_System, "orbits",
                        classmethod(lambda cls, d: built.append(d) or build(cls, d)))
    monkeypatch.setattr(lp, "certified_vertex", fail)
    with pytest.raises(LPError, match="^stand-in failure 2$"):
        lp_optimal(dist, method="float-guided-exact")
    assert (built, sizes) == ([dist], tried)
    built.clear()
    sizes.clear()
    out = lp_optimal(dist)
    assert (built, sizes) == ([dist], tried)
    assert (out.method, out.revenue, out.certified) == ("exact-simplex", simplex.revenue, True)
    assert set(out.stages) == {"simplex"}
    built.clear()
    sizes.clear()
    assert lp_optimal(dist, method="exact-simplex") == simplex
    assert (built, sizes) == ([], [])


def test_example7_lp_takes_the_orbit_path(monkeypatch):
    # 21 orbits: 36 allocation variables and 21 payments, 645 IC rows after
    # the diagonal types' stabilizer merges, 21 IR rows and 36 box pairs
    sizes = spy_systems(monkeypatch)
    dist = load_distribution("example7_distribution")
    out = lp_optimal(dist)
    assert sizes == [(738, 57)]
    assert (out.revenue, out.method, out.certified, out.rounds) == \
        (EXAMPLE7_REVENUE, "float-guided-exact", True, 2)
    assert set(out.stages) == {"float", "vertex", "check", "dual", "lift"}
    mech = out.mechanism
    assert reference.ic_ir_violations([v for v, _ in dist.atoms], mech.allocations,
                                      mech.payments) == []
    assert_symmetric(dist, mech)


def test_example4_certifies_through_the_orbit_path():
    # 3 IID items, 125 types in 35 orbits, each checked against 6 relabelings
    dist = load_distribution("example4_distribution")
    start = time.perf_counter()
    out = lp_optimal(dist)
    elapsed = time.perf_counter() - start
    assert (out.revenue, out.method, out.certified) == (F(253, 40), "float-guided-exact", True)
    assert "lift" in out.stages
    assert_symmetric(dist, out.mechanism)
    assert elapsed < 0.3

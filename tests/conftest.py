import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct

import numpy as np
import pytest

import reference
from menurev import Menu, all_bundles, continuous
from menurev.instances import load_distribution, load_menu
from menurev.lp import _MAX_PIVOTS, LPError
from menurev.model import SingleItemDistribution
from menurev.rational import over_common_denominator


@pytest.fixture
def rng():
    return random.Random(987123)


@pytest.fixture(scope="session")
def example4():
    return load_distribution("example4_distribution")


@pytest.fixture(scope="session")
def example4_menu():
    return load_menu("example4_menu")


@pytest.fixture(scope="session")
def example5():
    return load_distribution("example5_eps100")


@pytest.fixture(scope="session")
def example6():
    return load_distribution("example6_eps10")


def oracle_search(dist, constraint, grid, monotone=False):
    """Brute force by plain loops, no pruning: every grid menu of the class
    (`reference.in_class`) scored by `reference.revenue`; returns
    (best_menu, revenue, examined). With `monotone`, the classes other than
    additive and bundle-only keep only bundle-monotone menus, the menus a
    pruned search counts."""
    order = all_bundles(dist.n)

    def bundle_monotone(prices):
        table = dict(zip(order, prices))
        return all(table[s] <= table[t] for s in order for t in order if set(s) < set(t))

    if constraint == "additive":
        candidates = (
            tuple(sum((combo[i - 1] for i in b), Fraction(0)) for b in order)
            for combo in iproduct(*(grid.prices[i] for i in range(dist.n))))
    elif constraint == "bundle-only":
        candidates = (tuple(q for _ in order) for q in grid.prices[-1])
    else:
        candidates = (p for p in iproduct(*grid.prices)
                      if (not monotone or bundle_monotone(p))
                      and reference.in_class(dict(zip(order, p)), constraint))
    best_menu = best_rev = None
    examined = 0
    for prices in candidates:
        examined += 1
        rev = reference.revenue(dict(zip(order, prices)), dist.atoms)
        if best_rev is None or rev > best_rev:
            best_menu, best_rev = Menu(dist.n, prices), rev
    return best_menu, best_rev, examined


def oracle_feasible_cells(layout, prices):
    """Flat mesh indices of the feasible menus of the block whose fixed
    columns cost `prices`, from a mask over the full mesh: every term
    p[a] + p[b] >= p[c] + p[d] tested at every cell, p[-1] = 0."""
    mesh = np.meshgrid(*layout.axes, indexing="ij", sparse=True)
    cols = [0] * (layout.width + 1)
    for group, arr in zip(layout.groups, mesh):
        for c in group:
            cols[c] = arr
    for c, p in zip(layout.fixed, prices):
        cols[c] = p
    mask = np.ones(layout.shape, dtype=bool)
    for a, b, c, d in layout.terms:
        mask &= (cols[a] + cols[b]) >= (cols[c] + cols[d])
    return np.flatnonzero(mask)


def floor_to_dyadic(x: float, bits: int = 20) -> Fraction:
    """Largest multiple of 2**-bits that is <= x (exact for binary64 inputs)."""
    scale = 1 << bits
    return Fraction(math.floor(Fraction(x) * scale), scale)


def oracle_er_discretize(r, params):
    """Independent ER discretization in Fractions: floor each float grid point
    to a multiple of 2^-20, tails min(1, r / g), masses their differences."""
    n = params.grid_points
    ratio = (params.cap / r) ** (1.0 / (n - 1))
    values = []
    for k in range(n):
        g = floor_to_dyadic(r * ratio**k, 20)
        if not values or g > values[-1]:
            values.append(g)
    tails = [min(Fraction(1), Fraction(r) / g) for g in values] + [Fraction(0)]
    pairs = [(g, tails[k] - tails[k + 1]) for k, g in enumerate(values) if tails[k] > tails[k + 1]]
    return SingleItemDistribution.from_pairs(pairs)


def oracle_bundle_sweep(d1, d2):
    """Independent bundle-price sweep: every pair by descending exact sum,
    equal sums in flat index order (a stable argsort of the negated integer
    sums over the lcm of all denominators), masses accumulated in that order;
    returns (brev, brev_price)."""
    scale = math.lcm(*(v.denominator for v in d1.support + d2.support))
    s1, s2 = ([int(v * scale) for v in d.support] for d in (d1, d2))
    dtype = np.int64 if s1[-1] + s2[-1] < 1 << 63 else object
    exact = np.add.outer(np.array(s1, dtype=dtype), np.array(s2, dtype=dtype)).ravel()
    order = np.argsort(-exact, kind="stable")
    v1 = np.array([float(v) for v, _ in d1.atoms])
    w1 = np.array([float(p) for _, p in d1.atoms])
    v2 = np.array([float(v) for v, _ in d2.atoms])
    w2 = np.array([float(p) for _, p in d2.atoms])
    sums = np.add.outer(v1, v2).ravel()[order]
    mass = np.multiply.outer(w1, w2).ravel()[order]
    revenue = sums * np.cumsum(mass)
    i = int(np.argmax(revenue))
    return float(revenue[i]), float(sums[i])


def bundle_price_sweep(d1, d2):
    """The equal-revenue reports' bundle-price sweep on any two distributions:
    `continuous._sweep` with the values scaled by the lcm of their
    denominators; returns (brev, brev_price)."""
    _, ab = over_common_denominator(d1.support + d2.support)
    v1, w1, v2, w2 = (np.array([float(atom[k]) for atom in d.atoms]) for d in (d1, d2) for k in (0, 1))
    return continuous._sweep(ab[:len(v1)], v1, w1, ab[len(v1):], v2, w2)


def oracle_simplex(c, a_ub, b_ub):
    """Independent exact simplex: a dense Fraction tableau with Bland's rule
    over  max c.x  s.t.  a_ub x <= b_ub, x >= 0, b_ub >= 0, with dense rows;
    returns (x, objective, pivots)."""
    m, n = len(a_ub), len(c)
    if any(b < 0 for b in b_ub):
        raise LPError("simplex_max requires nonnegative right-hand sides")
    tab = [[Fraction(x) for x in row] + [Fraction(0)] * m + [Fraction(b_ub[i])]
           for i, row in enumerate(a_ub)]
    for i in range(m):
        tab[i][n + i] = Fraction(1)
    cost = [-Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))

    for pivots in range(_MAX_PIVOTS):
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            x = [Fraction(0)] * n
            for i, bv in enumerate(basis):
                if bv < n:
                    x[bv] = tab[i][-1]
            return x, cost[-1], pivots
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


def combine_allocations(allocs, rule):
    """Fold per-item allocation probabilities across several picks, in Fractions."""
    if rule not in ("capped", "independent"):
        raise ValueError(f"unknown combination rule {rule!r}")
    combined = list(allocs[0])
    for alloc in allocs[1:]:
        for i in range(len(combined)):
            if rule == "capped":
                combined[i] = min(Fraction(1), combined[i] + alloc[i])
            else:
                combined[i] = 1 - (1 - combined[i]) * (1 - alloc[i])
    return tuple(combined)


def oracle_false_name_utility(m, v, picks, rule):
    """Utility of a multiset of lottery picks: the Fraction fold of their
    allocations, valued at v, less every payment."""
    entries = [m.entries[i] for i in picks]
    combined = combine_allocations([e.allocation for e in entries], rule)
    return (sum((x * q for x, q in zip(v, combined)), Fraction(0))
            - sum((e.payment for e in entries), Fraction(0)))


def oracle_best_deviation(m, v, rule, k):
    """(picks, utility) of the first best multiset of at most k picks, sizes
    1..k, each in combinations_with_replacement order."""
    best = None
    for size in range(1, k + 1):
        for picks in combinations_with_replacement(range(len(m.entries)), size):
            u = oracle_false_name_utility(m, v, picks, rule)
            if best is None or u > best[1]:
                best = picks, u
    return best

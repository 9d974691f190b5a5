import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from menurev import Menu, all_bundles, expected_revenue, revenue_at
from menurev.instances import load_distribution, load_menu
from menurev.model import is_submodular, is_symmetric_menu
from menurev.search import canonical_constraint


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


def oracle_search(dist, constraint, grid):
    """Independent brute force: plain loops, no pruning, rational evaluation;
    returns (best_menu, revenue, examined)."""
    constraint = canonical_constraint(constraint)
    order = all_bundles(dist.n)
    if constraint == "additive":
        candidates = (
            tuple(sum((combo[i - 1] for i in b), Fraction(0)) for b in order)
            for combo in iproduct(*(grid.prices[i] for i in range(dist.n))))
    elif constraint == "bundle-only":
        candidates = (tuple(q for _ in order) for q in grid.prices[-1])
    else:
        def keep(prices):
            menu = Menu(dist.n, prices)
            if constraint == "submodular":
                return is_submodular(menu)
            if constraint == "symmetric":
                return is_symmetric_menu(menu)
            if constraint == "symmetric-and-submodular":
                return is_symmetric_menu(menu) and is_submodular(menu)
            return True

        candidates = (p for p in iproduct(*grid.prices) if keep(p))
    best_menu = best_rev = None
    examined = 0
    for prices in candidates:
        examined += 1
        menu = Menu(dist.n, prices)
        rev = expected_revenue(menu, dist)
        if best_rev is None or rev > best_rev:
            best_menu, best_rev = menu, rev
    return best_menu, best_rev, examined


def oracle_monotone(m, grid):
    """Independent monotonicity audit: every ordered pair of sorted distinct
    points in a plain loop; returns (low, high, revenue_low, revenue_high)
    tuples in (i, j) order."""
    points = sorted(set(tuple(v) for v in grid))
    revenues = [revenue_at(m, v) for v in points]
    violations = []
    for i, lo in enumerate(points):
        for j, hi in enumerate(points):
            if i == j or not all(x <= y for x, y in zip(lo, hi)):
                continue
            if revenues[j] < revenues[i]:
                violations.append((lo, hi, revenues[i], revenues[j]))
    return violations

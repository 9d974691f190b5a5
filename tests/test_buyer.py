import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from menurev import (
    JointDistribution,
    Menu,
    all_bundles,
    buyer_choice,
    check_monotone,
    expected_revenue,
    menu2,
    monotonicity_grid,
    revenue_at,
    sale_probabilities,
)
from menurev import buyer
from menurev.instances import random_menu, random_submodular_menu, random_valuation_grid
from menurev.model import bundle_value

from conftest import oracle_monotone


def test_tie_breaks_toward_higher_payment():
    out = buyer_choice(menu2(1, 10, 100), (F(1), F(1)))
    assert out.bundle == (1,) and out.payment == 1 and out.utility == 0


def test_zero_valuation_buys_nothing():
    out = buyer_choice(menu2(3, 5, 7), (F(0), F(0)))
    assert out.bundle == () and out.payment == 0


def test_bundle_wins_payment_tie():
    out = buyer_choice(menu2(4, 100, 104), (F(100), F(100)))
    assert out.bundle == (1, 2) and out.payment == 104 and out.utility == 96


def test_revenue_at_examples():
    m = menu2(5, 1, 10)
    assert revenue_at(m, (F(5), F(0))) == 5
    assert revenue_at(m, (F(5), F(9, 2))) == 1
    assert revenue_at(m, (F(0), F(0))) == 0


def test_expected_revenue_examples(example4, example4_menu, example6):
    assert expected_revenue(example4_menu, example4) == F(6293, 1000)
    assert expected_revenue(menu2(1, 10, 100), example6) == F(61, 25)
    point = JointDistribution.from_pairs(2, [((0, 0), 1)])
    assert expected_revenue(menu2(3, 4, 5), point) == 0


def test_sale_probabilities(example6):
    sales = sale_probabilities(menu2(1, 10, 100), example6)
    assert sales[(1, 2)] == F(1, 100)
    assert sales[(2,)] == F(1, 20)
    assert sales[(1,)] == F(89, 100) + F(1, 20)
    assert sum(sales.values()) == 1


def test_choice_dominates_every_bundle(rng):
    for _ in range(150):
        n = rng.randint(1, 3)
        m = random_menu(rng, n)
        for v in random_valuation_grid(rng, n, 8):
            out = buyer_choice(m, v)
            assert out.utility >= 0
            for b in all_bundles(n):
                assert out.utility >= bundle_value(v, b) - m.price(b)


def test_revenue_linear_in_mixture(rng):
    for _ in range(40):
        m = random_menu(rng, 2)
        atoms1 = [((F(rng.randint(0, 9)), F(rng.randint(0, 9))), F(1, 4)) for _ in range(4)]
        atoms2 = [((F(rng.randint(0, 9)), F(rng.randint(0, 9))), F(1, 3)) for _ in range(3)]
        d1 = JointDistribution.from_pairs(2, atoms1)
        d2 = JointDistribution.from_pairs(2, atoms2)
        lam = F(rng.randint(1, 5), 6)
        mixed = {}
        for v, p in d1.atoms:
            mixed[v] = mixed.get(v, F(0)) + lam * p
        for v, p in d2.atoms:
            mixed[v] = mixed.get(v, F(0)) + (1 - lam) * p
        dm = JointDistribution.from_pairs(2, mixed.items())
        assert expected_revenue(m, dm) == \
            lam * expected_revenue(m, d1) + (1 - lam) * expected_revenue(m, d2)


@given(st.integers(1, 7), st.integers(0, 200), st.integers(0, 200), st.integers(0, 400),
       st.integers(0, 60), st.integers(0, 60))
def test_scaling_invariance(scale, a, b, c, v1, v2):
    m = menu2(F(a, 4), F(b, 4), F(c, 4))
    scaled = menu2(m.a * scale, m.b * scale, m.c * scale)
    v = (F(v1, 3), F(v2, 3))
    sv = (v[0] * scale, v[1] * scale)
    assert buyer_choice(scaled, sv).bundle == buyer_choice(m, v).bundle
    assert revenue_at(scaled, sv) == scale * revenue_at(m, v)


def test_monotonicity_violation_reported():
    m = menu2(5, 1, 10)
    report = check_monotone(m, monotonicity_grid(m))
    assert not report.ok
    assert any(v.low == (F(5), F(0)) and v.high == (F(5), F(9, 2))
               and v.revenue_low == 5 and v.revenue_high == 1
               for v in report.violations)


def test_single_item_menu_monotone():
    m = Menu.from_sequence(1, (5,))
    grid = [(F(k, 2),) for k in range(14)]
    assert check_monotone(m, grid).ok


def test_monotonicity_grid_includes_support():
    m = menu2(2, 3, 4)
    grid = monotonicity_grid(m, support=[(F(17),), (F(19),)])
    assert any(v[0] == 17 for v in grid)
    assert any(v[1] == 19 for v in grid)


@pytest.mark.parametrize("support", [[(F(1),), (F(2),), (F(3),)], [(F(1),)], []])
def test_monotonicity_grid_rejects_support_not_per_item(support):
    with pytest.raises(ValueError, match="support"):
        monotonicity_grid(menu2(2, 3, 4), support=support)


def _violations(m, grid):
    return [(v.low, v.high, v.revenue_low, v.revenue_high)
            for v in check_monotone(m, grid).violations]


def _arbitrary_menus(rng, count):
    """2-item menus with any prices, supermodular ones included, and grids
    that take in a few support points."""
    for _ in range(count):
        m = menu2(rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 16))
        support = [[F(rng.randint(0, 24), 2) for _ in range(rng.randint(0, 2))]
                   for _ in range(2)]
        yield m, monotonicity_grid(m, support=support)


def _point_sets(rng, count):
    """Menus on 1-3 items with unsorted, non-product point sets; some points
    repeat, once as Fractions and once with int coordinates equal to them."""
    for _ in range(count):
        n = rng.randint(1, 3)
        m = random_menu(rng, n, 10)
        points = []
        for _ in range(rng.randint(1, 60)):
            v = tuple(F(rng.randint(0, 16), rng.choice((1, 2))) for _ in range(n))
            points.append(v)
            if rng.random() < 0.3:
                points.append(tuple(int(x) if x.denominator == 1 else x for x in v))
        yield m, points


def test_check_monotone_matches_pair_loop_submodular():
    rng = random.Random(31)
    for _ in range(5):
        m = random_submodular_menu(rng)
        grid = monotonicity_grid(m)
        assert _violations(m, grid) == oracle_monotone(m, grid) == []


def test_check_monotone_matches_pair_loop_arbitrary_menus():
    violating = 0
    for m, grid in _arbitrary_menus(random.Random(32), 14):
        expected = oracle_monotone(m, grid)
        assert _violations(m, grid) == expected
        violating += bool(expected)
    assert violating >= 2


def test_check_monotone_matches_pair_loop_point_sets():
    violating = 0
    for m, points in _point_sets(random.Random(33), 60):
        expected = oracle_monotone(m, points)
        assert _violations(m, points) == expected
        violating += bool(expected)
    assert violating >= 5
    assert check_monotone(menu2(1, 2, 3), []).violations == ()


def test_check_monotone_row_blocks(monkeypatch):
    """Blocks of a few rows give the same list; the witness's 225 points make
    56 blocks of 4 rows and a last block of 1."""
    cases = [(menu2(5, 1, 10), monotonicity_grid(menu2(5, 1, 10)))]
    cases += _point_sets(random.Random(34), 20)
    expected = [oracle_monotone(m, grid) for m, grid in cases]
    monkeypatch.setattr(buyer, "_BLOCK_PAIRS", 1000)
    assert [_violations(m, grid) for m, grid in cases] == expected
    assert len(expected[0]) > 0

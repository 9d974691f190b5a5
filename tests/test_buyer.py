import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from menurev import (
    JointDistribution,
    Menu,
    all_bundles,
    check_monotone,
    expected_revenue,
    expected_revenues,
    menu2,
    monotonicity_grid,
    revenue_at,
    sale_probabilities,
)
from menurev import buyer
from menurev.instances import random_menu, random_submodular_menu, random_valuation_grid

import reference


def _value(v, bundle):
    return sum(v[i - 1] for i in bundle)


def _outcome(m, v):
    """(bundle, payment, utility) of the buyer at v by `batch_choice`; the
    payment is `_price_paid` of the chosen option and must be `revenue_at`."""
    option = buyer.batch_choice(m, (v,)).options[0]
    bundle = (((),) + all_bundles(m.n))[option]
    payment = buyer._price_paid(m, option)
    assert revenue_at(m, v) == payment
    return bundle, payment, _value(v, bundle) - payment


def test_tie_breaks_toward_higher_payment():
    bundle, payment, utility = _outcome(menu2(1, 10, 100), (F(1), F(1)))
    assert bundle == (1,) and payment == 1 and utility == 0


def test_zero_valuation_buys_nothing():
    bundle, payment, _ = _outcome(menu2(3, 5, 7), (F(0), F(0)))
    assert bundle == () and payment == 0


def test_bundle_wins_payment_tie():
    bundle, payment, utility = _outcome(menu2(4, 100, 104), (F(100), F(100)))
    assert bundle == (1, 2) and payment == 104 and utility == 96


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
            _, _, utility = _outcome(m, v)
            assert utility >= 0
            for b in all_bundles(n):
                assert utility >= _value(v, b) - m.price(b)


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
    scaled = menu2(*(p * scale for p in m.prices))
    v = (F(v1, 3), F(v2, 3))
    sv = (v[0] * scale, v[1] * scale)
    assert _outcome(scaled, sv)[0] == _outcome(m, v)[0]
    assert revenue_at(scaled, sv) == scale * revenue_at(m, v)


def test_monotonicity_violation_reported():
    m = menu2(5, 1, 10)
    report = check_monotone(m, monotonicity_grid(m))
    assert not report.ok
    assert any(v.low == (F(5), F(0)) and v.high == (F(5), F(9, 2))
               and v.revenue_low == 5 and v.revenue_high == 1
               for v in report.violations)


def test_single_item_menu_monotone():
    m = Menu(1, (5,))
    grid = [(F(k, 2),) for k in range(14)]
    assert check_monotone(m, grid).ok


def _violations(m, grid):
    return [(v.low, v.high, v.revenue_low, v.revenue_high)
            for v in check_monotone(m, grid).violations]


def _arbitrary_menus(rng, count):
    """2-item menus with any prices, supermodular ones included, and their
    audit grids with a few extra points, one coordinate of each on the grid."""
    for _ in range(count):
        m = menu2(rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 16))
        grid = monotonicity_grid(m)
        axis = sorted({x for x, _ in grid})
        extra = [(F(rng.randint(0, 24), 2), rng.choice(axis)) for _ in range(rng.randint(0, 2))]
        extra += [(rng.choice(axis), F(rng.randint(0, 24), 2)) for _ in range(rng.randint(0, 2))]
        yield m, grid + extra


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
        assert _violations(m, grid) == reference.monotonicity_violations(m.as_dict(), grid) == []


def test_check_monotone_matches_pair_loop_arbitrary_menus():
    violating = 0
    for m, grid in _arbitrary_menus(random.Random(32), 14):
        expected = reference.monotonicity_violations(m.as_dict(), grid)
        assert _violations(m, grid) == expected
        violating += bool(expected)
    assert violating >= 2


def test_check_monotone_matches_pair_loop_point_sets():
    violating = 0
    for m, points in _point_sets(random.Random(33), 60):
        expected = reference.monotonicity_violations(m.as_dict(), points)
        assert _violations(m, points) == expected
        violating += bool(expected)
    assert violating >= 5
    assert check_monotone(menu2(1, 2, 3), []).violations == ()


def _distinct_points(rng, n, count, lattice, include=()):
    """`count` distinct points, unsorted: the points `include` and the rest
    drawn from an n-item lattice. About a fifth repeat, once as Fractions and
    once with int coordinates equal to them."""
    pool = [v for v in itertools.product(lattice, repeat=n) if v not in include]
    points = list(include) + rng.sample(pool, count - len(include))
    points += [tuple(int(x) if x.denominator == 1 else x for x in v)
               for v in rng.sample(points, count // 5)]
    rng.shuffle(points)
    assert len(set(points)) == count
    return points


def _embedded_witness(rng):
    """A 3-item menu that prices items 1 and 2 and their bundle like
    (5,1,10) times s, and every bundle with item 3 at 100, with the pair
    (5,0,0)s -> (5,9/2,0)s whose revenue falls from 5s to s; returns the
    menu and that violation as the pair loop lists it."""
    s = F(rng.randint(1, 3), rng.choice((1, 2)))
    prices = {(1,): 5 * s, (2,): s, (1, 2): 10 * s}
    m = Menu(3, tuple(prices.get(b, F(100)) for b in all_bundles(3)))
    return m, ((5 * s, F(0), F(0)), (5 * s, F(9, 2) * s, F(0)), 5 * s, s)


# (items, lattice per axis): each lattice has at least 129 points in all
_EDGE_LATTICES = [(1, [F(k, 4) for k in range(160)]),
                  (2, [F(k, 2) for k in range(17)]),
                  (3, [F(k, 2) for k in range(9)])]


def test_check_monotone_at_bit_word_edges():
    """Point sets whose distinct counts sit at the edges of 64-bit words (63,
    64, 65, 128 and 129 points) and the (5,1,10) witness grid match the pair
    loop. The 1-item menus cannot violate; the 2- and 3-item sets hold a
    (5,1,10) witness pair and its menu."""
    rng = random.Random(34)
    cases = [(menu2(5, 1, 10), monotonicity_grid(menu2(5, 1, 10)))]
    for count in (63, 64, 65, 128, 129):
        for n, lattice in _EDGE_LATTICES:
            if n == 1:
                m, witness = random_menu(rng, 1, 10), ()
            elif n == 2:
                m, witness = menu2(5, 1, 10), ((F(5), F(0)), (F(5), F(9, 2)))
            else:
                m, witness = _embedded_witness(rng)
            cases.append((m, _distinct_points(rng, n, count, lattice, witness[:2])))
    for m, points in cases:
        expected = reference.monotonicity_violations(m.as_dict(), points)
        assert _violations(m, points) == expected
        assert bool(expected) == (m.n > 1)


def test_check_monotone_matches_pair_loop_large_point_sets():
    """Seeded 3-item point sets of 150-300 points against the pair loop.
    Additive menus (revenue is a sum of item prices bought one by one) have
    no violation; menus that embed the (5,1,10) witness always have one."""
    rng = random.Random(35)
    lattice = [F(k, 2) for k in range(17)]
    for draw in range(12):
        kind = ("additive", "witness", "random")[draw % 3]
        count = rng.randint(150, 300)
        if kind == "additive":
            item = [F(rng.randint(0, 16), 2) for _ in range(3)]
            m, witness = Menu(3, tuple(sum(item[i - 1] for i in b)
                                       for b in all_bundles(3))), ()
        elif kind == "witness":
            m, witness = _embedded_witness(rng)
        else:
            m, witness = random_menu(rng, 3, 10), ()
        points = _distinct_points(rng, 3, count, lattice, witness[:2])
        expected = reference.monotonicity_violations(m.as_dict(), points)
        assert _violations(m, points) == expected
        if kind == "additive":
            assert expected == []
        if kind == "witness":
            assert witness in expected


# ---------------------------------------------------------------------------
# The integer batch evaluator against reference.choice
# ---------------------------------------------------------------------------

def _deciding_rule(m, v):
    """Which rule of the tie-break picks v's option: the utility, the payment,
    the size, or the lexicographic order of the tied bundles."""
    options = [((), F(0))] + list(zip(all_bundles(m.n), m.prices))
    rows = [(_value(v, b) - p, p, len(b), b) for b, p in options]
    for level, rule in enumerate(("utility", "payment", "size")):
        top = max(r[level] for r in rows)
        rows = [r for r in rows if r[level] == top]
        if len(rows) == 1:
            return rule
    return "lexicographic"


def _tie_heavy_cases(rng, count, scale=1):
    """Menus on 1-4 items with prices and values on a coarse lattice, so
    utilities, payments, sizes and whole keys tie often; some prices are 0
    and some valuations are all 0. Bundles of one size often share a price and
    items often share a value. Everything is multiplied by `scale`."""
    def lattice():
        return F(rng.randint(0, 6), 2)

    for _ in range(count):
        n = rng.randint(1, 4)
        shared = [lattice() for _ in range(n + 1)]
        m = Menu(n, tuple(rng.choice((shared[len(b)], lattice())) * scale
                          for b in all_bundles(n)))
        points = []
        for _ in range(rng.randint(1, 30)):
            x = lattice()
            points.append(tuple(rng.choice((x, lattice())) * scale for _ in range(n)))
        points.append(tuple(F(0) for _ in range(n)))
        yield m, points


def _assert_matches_reference(m, points):
    chosen = buyer.batch_choice(m, points)
    assert len(chosen.options) == len(chosen.payments) == len(points)
    bundles = ((),) + all_bundles(m.n)
    for i, v in enumerate(points):
        bundle, payment = reference.choice(m.as_dict(), v)
        assert bundles[chosen.options[i]] == bundle, (m, v)
        assert F(chosen.payments[i], chosen.scale) == payment, (m, v)
        assert chosen.points[i] == tuple(x * chosen.scale for x in v)
    return chosen


@pytest.mark.parametrize("scale", [F(1), F(1, 1 << 40), F(1 << 40, 3 ** 1900 + 2)])
def test_batch_choice_matches_buyer_choice_on_ties(scale):
    """Tie-heavy menus on 1-4 items: on the plain lattice, on a 2^-40 lattice,
    and with every number over a denominator of more than 3,000 bits."""
    rng = random.Random(41)
    rules = {}
    for m, points in _tie_heavy_cases(rng, 120, scale):
        _assert_matches_reference(m, points)
        for v in points:
            rule = _deciding_rule(m, v)
            rules[rule] = rules.get(rule, 0) + 1
    assert set(rules) == {"utility", "payment", "size", "lexicographic"}
    assert min(rules.values()) >= 20


def test_batch_choice_on_mixed_denominators():
    """Prices and coordinates on unrelated denominators, nudged by 2^-40 and by
    one part in 3^1900 across the breakpoints of the menu."""
    rng = random.Random(42)
    tiny = (F(1, 1 << 40), F(1, 3 ** 1900))
    for _ in range(60):
        n = rng.randint(1, 3)
        m = Menu(n, tuple(F(rng.randint(0, 40), rng.choice((1, 3, 7))) for _ in all_bundles(n)))
        points = []
        for _ in range(12):
            base = [F(rng.randint(0, 20), rng.choice((1, 2, 5))) for _ in range(n)]
            points.append(tuple(base))
            points.append(tuple(x + rng.choice((-1, 0, 1)) * rng.choice(tiny) for x in base))
            points.append(tuple(abs(x) for x in points[-1]))
        _assert_matches_reference(m, points)


def test_batch_choice_int_and_fraction_coordinates():
    """Ints, and other rationals such as numpy integers, give the choices of
    the Fractions of the same value."""
    rng = random.Random(43)
    for m, points in _tie_heavy_cases(rng, 40):
        ints = [tuple(int(x) if x.denominator == 1 else x for x in v) for v in points]
        numpy_ints = [tuple(np.int64(x) if type(x) is int else x for x in v) for v in ints]
        assert any(type(x) is int for v in ints for x in v)
        a = buyer.batch_choice(m, points)
        for other in (ints, numpy_ints):
            b = buyer.batch_choice(m, other)
            assert (a.scale, a.points, a.options, a.payments) == \
                (b.scale, b.points, b.options, b.payments)
        _assert_matches_reference(m, ints)
    assert buyer.batch_choice(menu2(1, 2, 3), []).options == []


def _random_joint(rng, n, atoms):
    """Correlated joint distribution on a coarse lattice, with probabilities
    over unrelated denominators, some of them large."""
    weights = {}
    for _ in range(atoms):
        v = tuple(F(rng.randint(0, 8), rng.choice((1, 2, 3))) for _ in range(n))
        weights[v] = weights.get(v, 0) + F(rng.randint(1, 9), rng.choice((1, 7, 3 ** 40)))
    total = sum(weights.values())
    return JointDistribution.from_pairs(n, ((v, w / total) for v, w in weights.items()))


def test_expected_revenue_and_sale_probabilities_match_buyer_choice():
    rng = random.Random(44)
    for _ in range(80):
        n = rng.randint(1, 4)
        dist = _random_joint(rng, n, rng.randint(1, 40))
        m = Menu(n, tuple(F(rng.randint(0, 16), rng.choice((1, 2, 3))) for _ in all_bundles(n)))
        assert expected_revenue(m, dist) == reference.menu_revenue(m, dist.atoms)
        sold = {b: F(0) for b in ((),) + all_bundles(n)}
        for v, p in dist.atoms:
            sold[reference.choice(m.as_dict(), v)[0]] += p
        sales = sale_probabilities(m, dist)
        assert sales == sold and list(sales) == list(sold)


def test_expected_revenues_match_one_menu_at_a_time():
    """Menus whose price denominators differ from each other and from the
    atoms', with repeats, scored together and one by one."""
    rng = random.Random(46)
    for _ in range(60):
        n = rng.randint(1, 3)
        dist = _random_joint(rng, n, rng.randint(1, 30))
        menus = [Menu(n, tuple(F(rng.randint(0, 16), rng.choice((1, 5, 11, 2 ** 45)))
                               for _ in all_bundles(n))) for _ in range(rng.randint(1, 5))]
        menus += rng.sample(menus, rng.randint(0, len(menus)))
        rng.shuffle(menus)
        revenues = expected_revenues(menus, dist)
        assert revenues == [expected_revenue(m, dist) for m in menus]
        assert revenues == [reference.menu_revenue(m, dist.atoms) for m in menus]
    assert expected_revenues([], dist) == []
    with pytest.raises(ValueError, match="menu has 2 items but distribution has 1"):
        expected_revenues([menu2(1, 1, 2)], JointDistribution(1, (((F(1),), F(1)),)))
    # 4 items, prices from a few values so that bundles share a price, menus
    # repeated, and atoms on a coarse lattice so that utilities tie
    bundles = ((),) + all_bundles(4)
    rng = random.Random(47)
    for _ in range(12):
        dist = _random_joint(rng, 4, rng.randint(1, 30))
        shared = [F(rng.randint(0, 8), rng.choice((1, 2, 3))) for _ in range(3)]
        menus = [Menu(4, tuple(rng.choice(shared) for _ in all_bundles(4)))
                 for _ in range(rng.randint(1, 4))]
        menus += rng.sample(menus, rng.randint(1, len(menus)))
        revenues = expected_revenues(menus, dist)
        assert revenues == [reference.menu_revenue(m, dist.atoms) for m in menus]
        for m in menus[:2]:
            options = buyer.batch_choice(m, [v for v, _ in dist.atoms]).options
            assert [bundles[k] for k in options] == [
                reference.choice(m.as_dict(), v)[0] for v, _ in dist.atoms]


def test_bundle_columns_are_built_once_per_call(monkeypatch):
    """`expected_revenues` sums the bundle columns once, whatever the number
    of menus; `_choose` only reads them."""
    calls = []
    build = buyer._bundle_columns

    def spy(n, scaled, unit):
        calls.append(n)
        return build(n, scaled, unit)

    monkeypatch.setattr(buyer, "_bundle_columns", spy)
    rng = random.Random(48)
    dist = _random_joint(rng, 3, 20)
    menus = [Menu(3, tuple(F(rng.randint(0, 12), 2) for _ in all_bundles(3))) for _ in range(9)]
    for count in (1, 2, 9):
        calls.clear()
        assert expected_revenues(menus[:count], dist) == [
            reference.menu_revenue(m, dist.atoms) for m in menus[:count]]
        assert calls == [3]
    calls.clear()
    buyer.batch_choice(menus[0], [v for v, _ in dist.atoms])
    assert calls == [3]


_MENU = menu2(1, 1, 2)


@pytest.mark.parametrize("evaluate", [
    lambda v: revenue_at(_MENU, v),
    lambda v: expected_revenue(_MENU, JointDistribution(2, ((v, F(1)),))),
    lambda v: check_monotone(_MENU, [(F(0), F(0)), v]),
], ids=["revenue_at", "expected_revenue", "check_monotone"])
def test_bad_valuations_raise(evaluate):
    for v, where in [((1.5, F(1, 2)), r"value\[0\] = 1\.5 is a float"),
                     ((F(1), "1/2"), r"value\[1\] = '1/2' is a str"),
                     ((F(1), True), r"value\[1\] = True is a bool"),
                     ((F(1), None), r"value\[1\] = None is a NoneType")]:
        with pytest.raises(ValueError, match=rf"valuation \(.*\): {where}, not a rational"):
            evaluate(v)
    with pytest.raises(ValueError, match=r"^valuation has 3 entries for a 2-item menu$"):
        evaluate((F(1), F(2), F(3)))
    with pytest.raises(ValueError, match="valuation has 1 entries for a 2-item menu"):
        evaluate((F(1),))


def test_bad_coordinates_raise_at_evaluation_not_construction():
    # a distribution built directly is not checked; its first exact evaluation
    # reads `integer_atoms`, which raises, and caches nothing, so every later
    # evaluation raises again
    dist = JointDistribution(2, (((F(1), F(2)), F(1, 2)), ((F(1), 1.5), F(1, 2))))
    message = r"valuation \(Fraction\(1, 1\), 1\.5\): value\[1\] = 1\.5 is a float, not a rational"
    for evaluate in (lambda: dist.integer_atoms, lambda: expected_revenue(_MENU, dist),
                     lambda: expected_revenues([_MENU, _MENU], dist),
                     lambda: sale_probabilities(_MENU, dist), lambda: dist.integer_atoms):
        with pytest.raises(ValueError, match=message):
            evaluate()
    assert "integer_atoms" not in vars(dist)
    assert expected_revenues([], dist) == []  # no menu, no evaluation

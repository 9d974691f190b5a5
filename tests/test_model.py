import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import reference
from menurev import (
    Menu,
    all_bundles,
    candidate_grid,
    is_submodular,
    is_symmetric_menu,
    menu2,
    normalize,
    point_mass,
    product,
    revenue_at,
    uniform,
)
from menurev.instances import random_single_item
from menurev import model
from menurev.model import JointDistribution, SingleItemDistribution
from menurev.rational import ParseError

prices2 = st.lists(st.fractions(0, 20, max_denominator=4), min_size=3, max_size=3)


def test_bundle_order_is_size_then_lex():
    assert all_bundles(3) == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def test_menu_accessors_and_price():
    m = menu2(1, 2, F(7, 2))
    assert (m.a, m.b, m.c) == (F(1), F(2), F(7, 2))
    assert m.price([2, 1]) == F(7, 2)
    with pytest.raises(ValueError):
        Menu.from_sequence(2, (1, -1, 2))


def test_explicit_grid_rejects_repeated_bundle():
    # candidate_grid is the caller of bundle_table, which re-keys the grid
    dist = product([uniform([1, 2]), uniform([1, 2])])
    table = {(1,): [1], (2,): [2], (1, 2): [3]}
    grid = candidate_grid(dist, "explicit", explicit=table)
    assert grid.prices == ((F(1),), (F(2),), (F(3),))
    with pytest.raises(ValueError, match=r"\(2, 1\) repeats bundle \(1, 2\)"):
        candidate_grid(dist, "explicit", explicit={**table, (2, 1): [9]})


def test_submodular_examples():
    assert is_submodular(Menu.from_sequence(3, (5, 6, 6, 7, 7, 8, 9)))
    # p({1,2}) + p({1,3}) = 14 < p({1}) + p({1,2,3}) = 15
    assert not is_submodular(Menu.from_sequence(3, (6, 6, 6, 7, 7, 8, 9)))
    assert is_submodular(menu2(2, 3, 5))


def _tie_heavy_menu(rng, n):
    """Prices in 0..6: any prices, one price per size, or a budget-additive
    (hence submodular) menu; half of them with one price moved by 1."""
    order = all_bundles(n)
    kind = rng.randrange(3)
    if kind == 0:
        prices = [rng.randint(0, 6) for _ in order]
    elif kind == 1:
        by_size = [rng.randint(0, 6) for _ in range(n + 1)]
        prices = [by_size[len(b)] for b in order]
    else:
        weights, cap = [rng.randint(0, 3) for _ in range(n)], rng.randint(0, 6)
        prices = [min(cap, sum(weights[i - 1] for i in b)) for b in order]
    if rng.random() < 0.5:
        k = rng.randrange(len(prices))
        prices[k] = min(6, max(0, prices[k] + rng.choice((-1, 1))))
    return Menu.from_sequence(n, prices)


def test_class_predicates_match_reference():
    rng = random.Random(20261019)
    seen = {"submodular": [0, 0], "symmetric": [0, 0]}
    for _ in range(1500):
        m = _tie_heavy_menu(rng, rng.randint(1, 4))
        for cls, pred in (("submodular", is_submodular), ("symmetric", is_symmetric_menu)):
            got = pred(m)
            assert got == reference.in_class(m.as_dict(), cls), (cls, m)
            seen[cls][got] += 1
    assert all(min(counts) >= 50 for counts in seen.values()), seen


def test_is_submodular_stops_at_the_first_violation():
    # 16 items have 65,535 bundles and about 2.1 * 10^9 bundle pairs; the
    # first pair, {1} and {2}, fails, so the walk stops there and caches
    # no lattice
    n = 16
    prices = [F(1)] * ((1 << n) - 1)
    prices[all_bundles(n).index((1, 2))] = F(3)
    m = Menu(n, tuple(prices))
    cached = model._lattice_terms.cache_info().currsize
    t0 = time.perf_counter()
    assert not is_submodular(m)
    assert time.perf_counter() - t0 < 1
    assert model._lattice_terms.cache_info().currsize == cached


def test_symmetric_examples():
    assert is_symmetric_menu(Menu.from_sequence(3, (6, 6, 6, 7, 7, 7, 9)))
    assert not is_symmetric_menu(Menu.from_sequence(3, (6, 6, 6, 7, 7, 8, 9)))
    assert is_symmetric_menu(Menu.from_sequence(1, (4,)))


def test_normalize_examples():
    assert normalize(menu2(5, 1, 3)).prices == (F(3), F(1), F(3))
    assert normalize(menu2(1, 1, 3)).prices == (F(1), F(1), F(3))
    m = menu2(10, 10, 4)
    assert normalize(m).prices == (F(4), F(4), F(4))
    assert revenue_at(m, (F(5), F(0))) == revenue_at(normalize(m), (F(5), F(0))) == F(4)


@given(prices2, st.lists(st.tuples(st.fractions(0, 25, max_denominator=3),
                                   st.fractions(0, 25, max_denominator=3)),
                         min_size=1, max_size=12))
def test_normalize_idempotent_and_revenue_preserving(ps, points):
    m = menu2(*ps)
    nm = normalize(m)
    assert normalize(nm) == nm
    for v in points:
        assert revenue_at(m, v) == revenue_at(nm, v)


def test_uniform_merges_multiset():
    f = uniform([0, 1, 2, 2, 2, 2, 5, 6, 6, 6])
    assert f.support == (F(0), F(1), F(2), F(5), F(6))
    assert dict(f.atoms)[F(2)] == F(2, 5)
    assert sum(p for _, p in f.atoms) == 1


def test_product_examples():
    single = product([uniform([1, 2])])
    assert len(single.atoms) == 2 and all(p == F(1, 2) for _, p in single.atoms)
    pair = product([uniform([1, 3]), uniform([1, 3])])
    assert len(pair.atoms) == 4 and all(p == F(1, 4) for _, p in pair.atoms)


def test_product_cubed_mass(example4):
    assert len(example4.atoms) == 125
    assert sum(p for _, p in example4.atoms) == 1


def test_product_marginalization_roundtrip(rng):
    from menurev.instances import random_single_item
    parts = [random_single_item(rng), random_single_item(rng), random_single_item(rng)]
    joint = product(parts)
    for i, part in enumerate(parts):
        assert joint.marginal(i + 1) == part


def test_product_matches_joint_from_pairs():
    # the directly built atoms are those from_pairs gives over every
    # combination of the parts' atoms, in the same order
    rng = random.Random(2718)
    for _ in range(60):
        parts = [random_single_item(rng, max_atoms=5, max_value=12)
                 for _ in range(rng.randint(1, 3))]
        pairs = [(tuple(v for v, _ in combo), math.prod(p for _, p in combo))
                 for combo in itertools.product(*(d.atoms for d in parts))]
        want = JointDistribution.from_pairs(len(parts), pairs)
        got = product(parts)
        assert got == want and got.atoms == want.atoms


def test_product_rejects_noncanonical_parts():
    half = F(1, 2)
    for atoms, message in [
        (((F(1), half), (F(1), half)), "repeated value"),
        (((F(1), half), (F(1), F(1, 4)), (F(2), F(1, 4))), "repeated value"),
        (((F(1), half), (F(2), F(1, 3))), "mass"),
        (((F(1), F(0)), (F(2), F(1))), "positive"),
        (((F(-1), F(1)),), "nonnegative"),
        ((), "empty support"),
    ]:
        with pytest.raises(ValueError, match=message):
            product([uniform([1, 2]), SingleItemDistribution(atoms)])
    with pytest.raises(ValueError, match="zero distributions"):
        product([])
    with pytest.raises(ValueError, match="item count"):
        product([point_mass(1)] * 17)
    # distinct values out of order are sorted, as from_pairs sorts them
    unsorted = SingleItemDistribution(((F(2), half), (F(1), half)))
    assert product([unsorted, point_mass(3)]) == product([uniform([1, 2]), point_mass(3)])
    # int atoms of a directly built part come out as Fractions
    joint = product([SingleItemDistribution(((1, F(1)),)), point_mass(2)])
    assert joint.atoms == (((F(1), F(2)), F(1)),) and type(joint.atoms[0][0][0]) is F


@pytest.mark.parametrize("atoms, location, message", [
    (((F(1), F(1, 2)), (F(-2), F(1, 2))), "parts[1][1][0]", "must be nonnegative, got -2"),
    (((F(1), F(1, 2)), (F(2), F(0))), "parts[1][1][1]", "must be positive, got 0"),
    (((F(1), F(1, 2)), (F(2), F(1, 3))), "parts[1]", "mass 5/6 != 1"),
    (((F(1), F(1, 2)), (F(1), F(1, 2))), "parts[1]", "repeated value"),
], ids=["value", "prob", "mass", "repeated"])
def test_product_fault_names_the_part(atoms, location, message):
    with pytest.raises(ParseError) as err:
        product([uniform([1, 2]), SingleItemDistribution(atoms)])
    assert err.value.location == location
    assert str(err.value) == f"{location}: {message}"


def test_from_pairs_merges_one_shared_fraction():
    # one Fraction object passed for every atom: a repeated value adds its mass
    h = F(1, 2)
    assert SingleItemDistribution.from_pairs([(1, h), (1, h)]).atoms == ((F(1), F(1)),)
    with pytest.raises(ValueError, match="mass 3/2"):
        SingleItemDistribution.from_pairs([(1, h), (1, h), (2, h)])
    vs = [(1, 2), (1, 2), (3, 4), (1, 2)]
    p = F(1, len(vs))
    joint = JointDistribution.from_pairs(2, [(v, p) for v in vs])
    assert joint.atoms == (((F(1), F(2)), F(3, 4)), ((F(3), F(4)), F(1, 4)))
    with pytest.raises(ValueError, match="mass 5/4"):
        JointDistribution.from_pairs(2, [(v, p) for v in vs + [(5, 6)]])


def test_distribution_validation():
    with pytest.raises(ValueError, match="mass"):
        SingleItemDistribution.from_pairs([(1, F(1, 2)), (2, F(1, 3))])
    with pytest.raises(ValueError, match="positive"):
        SingleItemDistribution.from_pairs([(1, F(0)), (2, F(1))])
    with pytest.raises(ValueError, match="nonnegative"):
        SingleItemDistribution.from_pairs([(-1, F(1))])


def test_point_mass_and_tail():
    d = point_mass(F(3, 2))
    assert d.tail(F(3, 2)) == 1 and d.tail(F(2)) == 0
    u = uniform([1, 3])
    assert u.prob_in(F(1), F(2)) == F(1, 2)
    assert u.tail(F(2)) == F(1, 2)

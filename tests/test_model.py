from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from menurev import (
    Menu,
    all_bundles,
    is_subadditive,
    is_submodular,
    is_symmetric_menu,
    menu2,
    normalize,
    point_mass,
    product,
    revenue_at,
    uniform,
)
from menurev.model import (
    SingleItemDistribution,
    additive_menu,
    bundle_only_menu,
    is_additive_menu,
    is_bundle_only_menu,
    is_monotone_menu,
)

prices3 = st.lists(st.integers(0, 12), min_size=7, max_size=7)
prices2 = st.lists(st.fractions(0, 20, max_denominator=4), min_size=3, max_size=3)


def test_bundle_order_is_size_then_lex():
    assert all_bundles(3) == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def test_menu_accessors_and_price():
    m = menu2(1, 2, F(7, 2))
    assert (m.a, m.b, m.c) == (F(1), F(2), F(7, 2))
    assert m.price([2, 1]) == F(7, 2)
    with pytest.raises(ValueError):
        Menu.from_sequence(2, (1, -1, 2))


def test_menu_from_mapping_rejects_repeated_bundle():
    table = {(1,): 1, (2,): 2, (1, 2): 3}
    assert Menu.from_mapping(2, table).prices == (F(1), F(2), F(3))
    with pytest.raises(ValueError, match=r"\(2, 1\) repeats bundle \(1, 2\)"):
        Menu.from_mapping(2, {**table, (2, 1): 9})


def test_submodular_examples():
    assert is_submodular(Menu.from_sequence(3, (5, 6, 6, 7, 7, 8, 9)))
    # p({1,2}) + p({1,3}) = 14 < p({1}) + p({1,2,3}) = 15
    assert not is_submodular(Menu.from_sequence(3, (6, 6, 6, 7, 7, 8, 9)))
    assert is_submodular(menu2(2, 3, 5))


def test_subadditive_examples():
    assert not is_subadditive(menu2(1, 1, 3))
    assert is_subadditive(Menu.from_sequence(3, (6, 6, 6, 7, 7, 8, 9)))


def test_symmetric_examples():
    assert is_symmetric_menu(Menu.from_sequence(3, (6, 6, 6, 7, 7, 7, 9)))
    assert not is_symmetric_menu(Menu.from_sequence(3, (6, 6, 6, 7, 7, 8, 9)))
    assert is_symmetric_menu(Menu.from_sequence(1, (4,)))


@given(prices3)
def test_submodular_implies_subadditive(ps):
    m = Menu.from_sequence(3, ps)
    if is_submodular(m):
        assert is_subadditive(m)


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
    assert joint.is_product()


def test_joint_is_symmetric(example6):
    assert example6.is_symmetric()
    skew = product([uniform([1, 2]), uniform([1, 3])])
    assert not skew.is_symmetric()


def test_distribution_validation():
    with pytest.raises(ValueError, match="mass"):
        SingleItemDistribution.from_pairs([(1, F(1, 2)), (2, F(1, 3))])
    with pytest.raises(ValueError, match="positive"):
        SingleItemDistribution.from_pairs([(1, F(0)), (2, F(1))])
    with pytest.raises(ValueError, match="nonnegative"):
        SingleItemDistribution.from_pairs([(-1, F(1))])


def test_menu_helpers():
    add = additive_menu([2, 3])
    assert add.prices == (F(2), F(3), F(5)) and is_additive_menu(add)
    bun = bundle_only_menu(2, 7)
    assert bun.prices == (F(7), F(7), F(7)) and is_bundle_only_menu(bun)
    assert is_monotone_menu(add)
    assert not is_monotone_menu(menu2(5, 1, 3))


def test_point_mass_and_tail():
    d = point_mass(F(3, 2))
    assert d.tail(F(3, 2)) == 1 and d.tail(F(2)) == 0
    u = uniform([1, 3])
    assert u.prob_in(F(1), F(2)) == F(1, 2)
    assert u.tail(F(2)) == F(1, 2)

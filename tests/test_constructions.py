from fractions import Fraction as F

import pytest

from menurev import (
    expected_revenue,
    menu2,
    point_mass,
    product,
    sale_probabilities,
    submodularize2,
    symmetrize2,
    three_halves_decomposition,
    uniform,
    verify_dominance,
)
from menurev.instances import (
    random_correlated_joint,
    random_product_instance,
    random_single_item,
    random_submodular_menu,
    random_supermodular_menu,
)
from menurev.model import JointDistribution, is_submodular, is_symmetric_menu


def test_submodularize_keeps_item_prices():
    u = uniform([1, 3])
    cert = submodularize2(menu2(1, 1, 3), u, u)
    assert cert.branch == "item-prices"
    assert cert.best.prices == (F(1), F(1), F(2))
    assert cert.margin == F(1, 2)


def test_submodularize_bundle_margin_branch():
    cert = submodularize2(menu2(1, 1, 3), point_mass(10), uniform([1, 3]))
    assert cert.branch == "bundle-margin"
    assert cert.best.prices == (F(2), F(1), F(3))
    assert cert.margin >= 0


def test_submodularize_identity_on_submodular():
    u = uniform([1, 3])
    cert = submodularize2(menu2(2, 3, 4), u, u)
    assert cert.branch == "already-submodular"
    assert cert.best.prices == (F(2), F(3), F(4))
    assert cert.margin == 0


def test_submodularize_relabels_when_first_item_pricier():
    # item 2 is the cheap one, so the construction works on the relabeled menu
    # (1, 2, 4) with the uniform marginal and swaps the answer back
    cert = submodularize2(menu2(2, 1, 4), point_mass(10), uniform([1, 3]))
    assert cert.branch == "item-prices"
    assert cert.best.prices == (F(2), F(1), F(3))
    assert cert.margin == 0
    assert is_submodular(cert.best)


def test_symmetrize_averaging_case():
    # c <= 2a: the two symmetric menus average to the asymmetric revenue
    f = uniform([2, 3, 7])
    m = menu2(3, 4, 5)
    cert = symmetrize2(m, f)
    assert cert.branch == "c<=2a"
    dist = product([f, f])
    revs = [expected_revenue(x, dist) for x in cert.outputs]
    assert revs[0] + revs[1] == 2 * expected_revenue(m, dist)
    assert cert.margin >= 0


def test_symmetrize_identity():
    cert = symmetrize2(menu2(4, 4, 6), uniform([1, 5]))
    assert cert.branch == "identity"
    assert cert.best.prices == (F(4), F(4), F(6))


def test_symmetrize_high_anchor_branch():
    cert = symmetrize2(menu2(1, 4, 5), uniform([1, 5]))
    assert cert.branch == "c>2a-high"
    assert cert.best.prices == (F(4), F(4), F(8))
    assert cert.margin == 1
    assert all(is_symmetric_menu(m) for m in cert.outputs)


def test_symmetrize_low_anchor_branch():
    # mass concentrated low makes the doubled-cheap menu competitive
    f = uniform([1, 1, 1, 1, 6])
    cert = symmetrize2(menu2(1, 5, 6), f)
    assert cert.branch == "c>2a-low"
    assert cert.best.prices == (F(5), F(5), F(6))
    assert cert.margin == F(4, 25)


def test_symmetrize_supermodular_input_submodularized_first():
    cert = symmetrize2(menu2(1, 2, 9), uniform([1, 4]))
    assert is_symmetric_menu(cert.best)
    assert cert.margin >= 0


def test_three_halves_examples():
    add, bun = three_halves_decomposition(menu2(4, 4, 100))
    assert add.prices == (F(4), F(4), F(8))
    assert bun.prices == (F(192), F(192), F(192))
    add, bun = three_halves_decomposition(menu2(0, 0, 1))
    assert add.prices == (F(0), F(0), F(0)) and bun.prices == (F(2), F(2), F(2))
    add, bun = three_halves_decomposition(menu2(1, 2, 4))
    assert add.prices == (F(1), F(2), F(3)) and bun.prices == (F(5), F(5), F(5))
    assert is_submodular(add) and is_submodular(bun)


def test_three_halves_rejects_submodular():
    with pytest.raises(ValueError, match="supermodular"):
        three_halves_decomposition(menu2(2, 3, 5))


def test_verify_dominance(example5):
    best, margin = verify_dominance([menu2(4, 4, 8), menu2(192, 192, 192)],
                                    menu2(4, 4, 100), example5)
    assert best.prices == (F(4), F(4), F(8))
    assert margin == F(408, 100) - F(592, 100)
    same, zero = verify_dominance([menu2(1, 1, 2)], menu2(1, 1, 2),
                                  product([uniform([1, 3]), uniform([1, 3])]))
    assert zero == 0
    with pytest.raises(ValueError, match="empty"):
        verify_dominance([], menu2(1, 1, 2), example5)


def test_theorem_31_property(rng):
    for _ in range(300):
        d1, d2 = random_product_instance(rng)
        menu = random_supermodular_menu(rng)
        cert = submodularize2(menu, d1, d2)
        assert cert.margin >= 0
        assert is_submodular(cert.best)


def test_averaging_identity_on_correlated_symmetric(rng):
    # c <= 2a averaging holds beyond products, for any symmetric joint
    for _ in range(200):
        base = random_correlated_joint(rng, n=2)
        sym = {}
        for (v1, v2), p in base.atoms:
            sym[(v1, v2)] = sym.get((v1, v2), F(0)) + p / 2
            sym[(v2, v1)] = sym.get((v2, v1), F(0)) + p / 2
        dist = JointDistribution.from_pairs(2, sym.items())
        a = F(rng.randint(1, 10))
        b = a + F(rng.randint(1, 6))
        c = a + F(rng.randint(0, 6), 6) * a  # a <= c <= 2a
        if c < b:
            continue
        assert expected_revenue(menu2(a, a, c), dist) + expected_revenue(menu2(b, b, c), dist) \
            == 2 * expected_revenue(menu2(a, b, c), dist)


def test_reflection_identity_for_iid_products(rng):
    # region masses match their mirror images when items are exchangeable
    for _ in range(60):
        f = random_single_item(rng)
        dist = product([f, f])
        menu = random_submodular_menu(rng)
        sales = sale_probabilities(menu, dist)
        mirrored = sale_probabilities(menu.swap2(), dist)
        assert sales[(1,)] == mirrored[(2,)]
        assert sales[(2,)] == mirrored[(1,)]
        assert sales[(1, 2)] == mirrored[(1, 2)]


def test_certificate_serialization(example5):
    cert = submodularize2(menu2(1, 1, 3), uniform([1, 3]), uniform([1, 3]))
    doc = cert.to_json_dict()
    assert doc["branch"] == "item-prices"
    assert doc["best"] == ["1", "1", "2"]
    assert doc["margin"] == "1/2"

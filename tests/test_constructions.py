import hashlib
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from menurev import (
    CertificateError,
    constructions,
    expected_revenue,
    menu2,
    point_mass,
    product,
    sale_probabilities,
    submodularize2,
    symmetrize2,
    three_halves_decomposition,
    uniform,
)
from menurev.instances import (
    random_correlated_joint,
    random_menu,
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


def _falsify(monkeypatch, edit):
    """Make the evaluator the constructions call return edit(menus, revenues)."""
    real = constructions.expected_revenues
    monkeypatch.setattr(constructions, "expected_revenues",
                        lambda menus, dist: edit(menus, real(menus, dist)))


@pytest.mark.parametrize("build, edit, message", [
    # the output earns less than the input
    (lambda: submodularize2(menu2(1, 1, 3), uniform([1, 3]), uniform([1, 3])),
     lambda menus, revs: [revs[0], revs[0] - 1],
     r"branch 'item-prices': output .* earns .* < input"),
    # c <= 2a: the candidates no longer average to the input's revenue
    (lambda: symmetrize2(menu2(3, 4, 5), uniform([2, 3, 7])),
     lambda menus, revs: revs[:3] + [revs[3] + F(1, 9)],
     r"averaging identity failed for"),
    # c > 2a: the two candidates earn less than twice the input
    (lambda: symmetrize2(menu2(1, 4, 5), uniform([1, 5])),
     lambda menus, revs: revs[:2] + [F(0), F(0)],
     r"branch 'c>2a-high': .* < twice the revenue of"),
    # the original menu earns more than every candidate
    (lambda: symmetrize2(menu2(1, 4, 5), uniform([1, 5])),
     lambda menus, revs: [revs[0] + 100] + revs[1:],
     r"branch 'c>2a-high': no candidate beats input"),
], ids=["require_each", "averaging-identity", "c>2a-sum", "chain"])
def test_certificate_checks_fire_on_falsified_revenues(monkeypatch, build, edit, message):
    build()  # the true revenues certify
    _falsify(monkeypatch, edit)
    with pytest.raises(CertificateError, match=message):
        build()


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


def test_symmetrize_builds_one_product(monkeypatch):
    # the supermodular working menu is submodularized and certified on the
    # product that symmetrize2 built, and both certificates are still checked
    built = []
    monkeypatch.setattr(constructions, "product", lambda parts: built.append(parts) or product(parts))
    f = uniform([1, 4])
    m = menu2(1, 2, 9)
    cert = symmetrize2(m, f)
    assert len(built) == 1
    work = constructions.normalize(m)
    a, b, c = work.prices
    assert c > a + b
    sub = submodularize2(work, f, f)
    assert len(built) == 2
    assert cert == symmetrize2(m, f) and len(built) == 3
    real = constructions.expected_revenues
    monkeypatch.setattr(constructions, "expected_revenues",
                        lambda menus, dist: [r - 1 if menu == sub.best else r
                                             for menu, r in zip(menus, real(menus, dist))])
    with pytest.raises(CertificateError, match="earns"):
        symmetrize2(m, f)


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
        a, b, c = menu.prices
        mirrored = sale_probabilities(menu2(b, a, c), dist)
        assert sales[(1,)] == mirrored[(2,)]
        assert sales[(2,)] == mirrored[(1,)]
        assert sales[(1, 2)] == mirrored[(1, 2)]


def _certificate_fields(cert):
    return repr((cert.branch, cert.input_menu.prices, tuple(m.prices for m in cert.outputs),
                 cert.best.prices, cert.input_revenue, cert.output_revenues))


def test_certificates_pinned():
    # every field of 800 seeded certificates, digested: the branch, the input,
    # the candidates, the best menu and every revenue are pinned
    rng = random.Random(1)
    digest = hashlib.sha256()
    branches = {"submodularize2": Counter(), "symmetrize2": Counter()}
    for _ in range(400):
        d1 = random_single_item(rng, max_value=12)
        d2 = random_single_item(rng, max_value=12)
        m = random_menu(rng, 2, max_price=12)
        for name, cert in (("submodularize2", submodularize2(m, d1, d2)),
                           ("symmetrize2", symmetrize2(m, d1))):
            branches[name][cert.branch] += 1
            digest.update(_certificate_fields(cert).encode() + b"\n")
    assert set(branches["submodularize2"]) == {"already-submodular", "item-prices",
                                               "bundle-margin"}
    assert set(branches["symmetrize2"]) == {"identity", "normalized-symmetric", "c<=2a",
                                            "c>2a-low", "c>2a-high"}
    assert digest.hexdigest() == \
        "063e21622680cc13defab357d04be56d6c7ec9ecc89fcd4bc2413d3dbd984f5b"


def test_symmetrize_scores_a_supermodular_input_in_one_batch(monkeypatch):
    # the submodularized working menu is certified from the one batch that
    # scores the input and the candidates; certificates are unchanged
    batches = []
    real = constructions.expected_revenues
    monkeypatch.setattr(constructions, "expected_revenues",
                        lambda menus, dist: batches.append(len(menus)) or real(menus, dist))
    rng = random.Random(12)
    for _ in range(30):
        f = random_single_item(rng, max_atoms=4, max_value=9)
        m = random_supermodular_menu(rng)
        batches.clear()
        cert = symmetrize2(m, f)
        assert len(batches) == 1
        dist = product([f, f])
        assert cert.input_revenue == expected_revenue(m, dist)
        assert cert.output_revenues == tuple(expected_revenue(x, dist) for x in cert.outputs)

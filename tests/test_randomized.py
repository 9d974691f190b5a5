import dataclasses
import random
from fractions import Fraction as F

import pytest

from menurev import (
    candidate_grid,
    lp,
    point_mass,
    product,
    search_optimal,
    uniform,
)
from menurev.instances import load_distribution, load_randomized_menu, random_single_item
from menurev.randomized import (
    DirectMechanism,
    RandomizedMenu,
    best_false_name_deviation,
    combine_allocations,
    direct_from_menu,
    false_name_utility,
    is_false_name_proof_at,
    lp_optimal,
    parse_randomized_menu,
    randomized_menu_to_dict,
    rchoice,
    verify_ic_ir,
)

V4680 = (F(46), F(80))


@pytest.fixture(scope="module")
def hr_menu():
    return load_randomized_menu("example7_menu")


@pytest.fixture(scope="module")
def hr_dist():
    return load_distribution("example7_distribution")


def test_rchoice_reference_point(hr_menu):
    choice = rchoice(hr_menu, V4680)
    assert choice.entry.allocation == (F(35, 1187), F(5647, 5935))
    assert choice.entry.payment == F(90810, 1187)
    assert choice.utility == F(1152, 1187)


def test_rchoice_null_and_top(hr_menu):
    assert rchoice(hr_menu, (F(0), F(0))).index == 0
    top = rchoice(hr_menu, (F(100), F(100)))
    assert top.entry.allocation == (F(1), F(1))
    assert top.entry.payment == 126 and top.utility == 74


def test_null_entry_injected():
    m = RandomizedMenu.from_entries(2, [(("1/2", "1/2"), "3")])
    assert m.entries[0].allocation == (F(0), F(0)) and m.entries[0].payment == 0
    assert len(m.entries) == 2


def test_combination_rules_fold():
    a = [(F(1, 2), F(1, 4)), (F(1, 2), F(1, 4)), (F(1, 2), F(3, 4))]
    capped = combine_allocations(a, "capped")
    assert capped == (F(1), F(1))  # 3/2 and 5/4 both cap at 1
    indep = combine_allocations(a, "independent")
    assert indep == (F(7, 8), 1 - F(3, 4) * F(3, 4) * F(1, 4))
    # associativity/commutativity under permutation
    rng = random.Random(5)
    for _ in range(40):
        allocs = [tuple(F(rng.randint(0, 8), 8) for _ in range(2)) for _ in range(3)]
        for rule in ("capped", "independent"):
            base = combine_allocations(allocs, rule)
            shuffled = allocs[::-1]
            assert combine_allocations(shuffled, rule) == base


def test_false_name_reference_deviation(hr_menu):
    picks = [1, 2]  # the mirrored discount entries
    u = false_name_utility(hr_menu, V4680, picks, "independent")
    assert u == F(27243584, 15498659)
    assert u > F(1152, 1187)
    assert float(u) == pytest.approx(1.7578, abs=5e-4)


def test_false_name_single_pick_is_truthful(hr_menu):
    choice = rchoice(hr_menu, V4680)
    for rule in ("capped", "independent"):
        assert false_name_utility(hr_menu, V4680, [choice.index], rule) == choice.utility


def test_false_name_null_picks(hr_menu):
    assert false_name_utility(hr_menu, V4680, [0, 0], "independent") == 0


def test_best_deviation_beats_truthful(hr_menu):
    picks, best = best_false_name_deviation(hr_menu, V4680, "independent", 2)
    assert best > rchoice(hr_menu, V4680).utility
    assert len(picks) <= 2
    assert not is_false_name_proof_at(hr_menu, V4680, "independent", 2)
    with pytest.raises(ValueError, match="refused"):
        best_false_name_deviation(hr_menu, V4680, "independent", 4)


def test_deterministic_subadditive_menu_is_false_name_proof(rng):
    # 0/1 allocations with subadditive prices: one pick always suffices
    for a, b, c in ((2, 3, 4), (5, 5, 5), (1, 4, 4)):
        m = RandomizedMenu.from_entries(2, [
            ((1, 0), a), ((0, 1), b), ((1, 1), c)])
        for _ in range(25):
            v = (F(rng.randint(0, 8)), F(rng.randint(0, 8)))
            assert is_false_name_proof_at(m, v, "capped", 2)


def test_single_entry_menu_false_name_proof():
    m = RandomizedMenu.from_entries(1, [((1,), 5)])
    for val in (0, 4, 5, 9):
        assert is_false_name_proof_at(m, (F(val),), "capped", 2)


def test_budget_linear_cap_dominates_combined_picks(rng):
    # budget-linear pricing: p(pi) = min(B, sum pi_i * p_i); buying the folded
    # allocation directly is never worse than paying for two picks
    for _ in range(80):
        n = rng.randint(1, 3)
        prices = [F(rng.randint(1, 9)) for _ in range(n)]
        budget = F(rng.randint(2, 14))

        def bl_price(pi):
            return min(budget, sum(p * q for p, q in zip(prices, pi)))

        pis = [tuple(F(rng.randint(0, 4), 4) for _ in range(n)) for _ in range(6)]
        entries = [(pi, bl_price(pi)) for pi in pis]
        m = RandomizedMenu.from_entries(n, entries)
        for _ in range(6):
            i, j = rng.randrange(len(m.entries)), rng.randrange(len(m.entries))
            folded = combine_allocations(
                [m.entries[i].allocation, m.entries[j].allocation], "capped")
            assert m.entries[i].payment + m.entries[j].payment >= bl_price(folded)


def test_rchoice_utility_monotone_in_values(hr_menu, rng):
    for _ in range(40):
        v = (F(rng.randint(0, 90)), F(rng.randint(0, 90)))
        bump = (v[0] + F(rng.randint(0, 9)), v[1] + F(rng.randint(0, 9)))
        assert rchoice(hr_menu, bump).utility >= rchoice(hr_menu, v).utility


def test_verify_ic_ir_on_menu_induced_mechanism(hr_menu, hr_dist):
    mech = direct_from_menu(hr_menu, hr_dist)
    assert verify_ic_ir(mech, hr_dist).ok


def test_verify_ic_ir_catches_full_surplus_extraction():
    dist = product([uniform([1, 2])])
    mech = DirectMechanism(((F(1),), (F(1),)), (F(1), F(2)))
    report = verify_ic_ir(mech, dist)
    assert not report.ok
    assert any("IC" in v for v in report.violations)


def test_null_mechanism_always_ok(hr_dist):
    k = len(hr_dist.atoms)
    mech = DirectMechanism(tuple((F(0), F(0)) for _ in range(k)), tuple(F(0) for _ in range(k)))
    assert verify_ic_ir(mech, hr_dist).ok


def test_lp_point_mass():
    out = lp_optimal(product([point_mass(7)]))
    assert out.revenue == 7
    assert out.mechanism.allocations == ((F(1),),)
    assert out.certified


def test_lp_single_item_uniform():
    out = lp_optimal(product([uniform([1, 2])]))
    assert out.revenue == 1  # lotteries cannot beat a posted price here


def test_lp_paths_agree(rng):
    for _ in range(6):
        parts = [random_single_item(rng, max_atoms=2, max_value=6) for _ in range(2)]
        dist = product(parts)
        a = lp_optimal(dist, method="exact-simplex")
        b = lp_optimal(dist, method="float-guided-exact")
        assert a.revenue == b.revenue


def test_lp_auto_prefers_certified_float_vertex(rng):
    parts = [random_single_item(rng, max_atoms=2, max_value=6) for _ in range(2)]
    out = lp_optimal(product(parts))
    assert out.method == "float-guided-exact" and out.certified


def test_lp_auto_falls_back_on_uncertified_vertex(rng, monkeypatch):
    parts = [random_single_item(rng, max_atoms=2, max_value=6) for _ in range(2)]
    dist = product(parts)
    real = lp.certified_vertex
    monkeypatch.setattr(lp, "certified_vertex",
                        lambda *a, **k: dataclasses.replace(real(*a, **k), certified=False))
    assert not lp_optimal(dist, method="float-guided-exact").certified
    out = lp_optimal(dist)
    assert out.method == "exact-simplex" and out.certified
    assert out.revenue == lp_optimal(dist, method="exact-simplex").revenue


def test_lp_dominates_deterministic_search(rng):
    for _ in range(5):
        parts = [random_single_item(rng, max_atoms=2, max_value=5) for _ in range(2)]
        dist = product(parts)
        grid = candidate_grid(dist, "support-sums")
        drev = search_optimal(dist, "unrestricted", grid).revenue
        assert lp_optimal(dist).revenue >= drev


def test_lp_symmetric_instance_invariance(rng):
    # permuting the items of a symmetric instance changes nothing, and the
    # item-swapped optimal mechanism stays feasible with equal revenue
    f = random_single_item(rng, max_atoms=3, max_value=6)
    dist = product([f, f])
    out = lp_optimal(dist)
    swapped_atoms = {tuple(reversed(v)): p for v, p in dist.atoms}
    index = {v: i for i, (v, _) in enumerate(dist.atoms)}
    allocs = []
    pays = []
    for v, _ in dist.atoms:
        j = index[tuple(reversed(v))]
        allocs.append(tuple(reversed(out.mechanism.allocations[j])))
        pays.append(out.mechanism.payments[j])
    mirrored = DirectMechanism(tuple(allocs), tuple(pays))
    assert verify_ic_ir(mirrored, dist).ok
    assert mirrored.expected_revenue(dist) == out.revenue
    assert swapped_atoms == dict(dist.atoms)


def test_randomized_menu_json_roundtrip(hr_menu):
    doc = randomized_menu_to_dict(hr_menu)
    again = parse_randomized_menu(doc)
    assert again == hr_menu
    assert doc["entries"][0] == {"alloc": ["0", "0"], "pay": "0"}

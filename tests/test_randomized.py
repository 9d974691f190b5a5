import random
import re
from fractions import Fraction as F
from itertools import combinations_with_replacement

import numpy as np
import pytest

from menurev import (
    JointDistribution,
    candidate_grid,
    lp,
    point_mass,
    product,
    search_optimal,
    uniform,
)
from menurev.instances import load_distribution, load_randomized_menu, random_single_item
from menurev.randomized import (
    COMBINATION_RULES,
    DirectMechanism,
    RandomizedMenu,
    RChoice,
    best_false_name_deviation,
    direct_from_menu,
    false_name_utility,
    lp_optimal,
    rchoice,
    verify_ic_ir,
)

import reference
from conftest import combine_allocations, oracle_best_deviation, oracle_false_name_utility

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


def test_given_null_entry_keeps_its_index():
    # a null entry among the given ones stays where it is, so every given
    # entry keeps the index a caller's picks refer to
    m = RandomizedMenu.from_entries(2, [([1, 0], 3), ([0, 0], 0), ([0, 1], 2)])
    assert [(e.allocation, e.payment) for e in m.entries] == \
        [((1, 0), 3), ((0, 0), 0), ((0, 1), 2)]
    assert rchoice(m, (0, 0)).index == 1


def test_combination_rules_fold():
    a = [(F(1, 2), F(1, 4)), (F(1, 2), F(1, 4)), (F(1, 2), F(3, 4))]
    capped = combine_allocations(a, "capped")
    assert capped == (F(1), F(1))  # 3/2 and 5/4 both cap at 1
    indep = combine_allocations(a, "independent")
    assert indep == (F(7, 8), 1 - F(3, 4) * F(3, 4) * F(1, 4))
    m = RandomizedMenu.from_entries(2, [(x, 1) for x in a])
    for rule, want in (("capped", (F(1), F(1))), ("independent", indep)):
        assert false_name_utility(m, (4, 8), [1, 2, 3], rule) == 4 * want[0] + 8 * want[1] - 3
    with pytest.raises(ValueError, match="unknown combination rule 'capped-additive'"):
        false_name_utility(m, (4, 8), [1, 1], "capped-additive")
    with pytest.raises(ValueError, match="unknown combination rule 'capped-additive'"):
        best_false_name_deviation(m, (4, 8), "capped-additive", 2)
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
    with pytest.raises(ValueError, match="refused"):
        best_false_name_deviation(hr_menu, V4680, "independent", 4)


EXAMPLE7_DEVIATIONS = {
    "independent": [((1,), F(1152, 1187)), ((1, 1), F(313420544, 170485249)),
                    ((1, 1, 1), F(5802365004928, 2226025896193))],
    "capped": [((1,), F(1152, 1187)), ((1, 1), F(2304, 1187)), ((1, 1, 1), F(3456, 1187))],
}


@pytest.mark.parametrize("rule", sorted(EXAMPLE7_DEVIATIONS))
def test_example7_deviations_pinned(hr_menu, rule):
    # entry 1 ties the truthful choice (entry 6) at 1152/1187 and comes first
    for k, want in enumerate(EXAMPLE7_DEVIATIONS[rule], 1):
        assert best_false_name_deviation(hr_menu, V4680, rule, k) == want
        assert oracle_best_deviation(hr_menu, V4680, rule, k) == want
    assert false_name_utility(hr_menu, V4680, [2, 1], rule) == \
        oracle_false_name_utility(hr_menu, V4680, [1, 2], rule)


def _tied_menus(rng):
    """(menu, valuation, rule) on 1-3 items with 2-8 entries of allocations
    j/d. Each menu repeats its first entry and, from three entries on, offers
    the fold of its first two entries at their summed payment, so a pair ties
    a single pick: only the enumeration order decides which one is returned."""
    for trial in range(90):
        n, rule = 1 + trial % 3, COMBINATION_RULES[trial % 2]
        d = rng.choice((1, 2, 3, 4, 6, 7))
        entries = [([F(rng.randint(0, d), d) for _ in range(n)],
                    F(rng.randint(0, 24), rng.choice((1, 2, 5))))
                   for _ in range(rng.randint(1, 6))]
        (a, p), (b, q) = entries[0], entries[-1]
        entries.append((a, p))
        if len(entries) > 2:
            entries.append((combine_allocations([a, b], rule), p + q))
        v = tuple(F(rng.randint(0, 40), rng.choice((1, 3))) for _ in range(n))
        yield RandomizedMenu.from_entries(n, entries), v, rule


def test_deviation_search_matches_fraction_oracle():
    rng = random.Random(11)
    ties = {"at its size": 0, "by a larger positive one": 0}
    for m, v, rule in _tied_menus(rng):
        for k in (1, 2, 3):
            picks, best = oracle_best_deviation(m, v, rule, k)
            assert best_false_name_deviation(m, v, rule, k) == (picks, best)
            tied = [p for s in range(1, k + 1)
                    for p in combinations_with_replacement(range(len(m.entries)), s)
                    if p != picks and oracle_false_name_utility(m, v, p, rule) == best]
            ties["at its size"] += any(len(p) == len(picks) for p in tied)
            ties["by a larger positive one"] += best > 0 and any(len(p) > len(picks) for p in tied)
            some = [rng.randrange(len(m.entries)) for _ in range(k)]
            assert false_name_utility(m, v, some, rule) == \
                oracle_false_name_utility(m, v, some, rule)
    assert min(ties.values()) >= 20, ties  # the winner is tied in these many searches


def test_rchoice_matches_fraction_oracle():
    # each menu adds an entry tying a random one's utility at v with its own
    # allocation and payment, and repeats an entry, so both tie-breaks decide
    rng = random.Random(12)
    decided = {"by payment": 0, "by index": 0}
    for trial in range(300):
        n = 1 + trial % 3
        d = rng.choice((1, 2, 3, 4, 6, 7))
        v = tuple(F(rng.randint(0, 40), rng.choice((1, 3))) for _ in range(n))
        entries = [([F(rng.randint(0, d), d) for _ in range(n)],
                    F(rng.randint(0, 24), rng.choice((1, 2, 5))))
                   for _ in range(rng.randint(1, 6))]
        a, p = rng.choice(entries)
        b = [F(rng.randint(0, d), d) for _ in range(n)]
        q = p + sum(x * (y - z) for x, y, z in zip(v, b, a))
        if q >= 0:
            entries.append((b, q))
        entries.append(rng.choice(entries))
        m = RandomizedMenu.from_entries(n, entries)
        i, u = reference.lottery_pick(m.entries, v), reference.lottery_utility(m.entries, v)
        assert rchoice(m, v) == RChoice(i, m.entries[i], u)
        tied = [j for j, e in enumerate(m.entries) if j != i
                and sum((x * y for x, y in zip(v, e.allocation)), F(0)) - e.payment == u]
        decided["by payment"] += any(m.entries[j].payment != m.entries[i].payment for j in tied)
        decided["by index"] += any(m.entries[j] == m.entries[i] for j in tied)
    assert min(decided.values()) >= 20, decided


@pytest.mark.parametrize("v, message", [
    ((46,), "valuation: valuation has 1 entries, expected 2"),
    ((46.0, 80.0), "valuation[0]: expected int or string rational, got float"),
    ((46, -1), "valuation[1]: must be nonnegative, got -1"),
])
def test_deviation_checks_the_valuation(hr_menu, v, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        rchoice(hr_menu, v)
    with pytest.raises(ValueError, match=re.escape(message)):
        false_name_utility(hr_menu, v, [1, 2], "independent")
    with pytest.raises(ValueError, match=re.escape(message)):
        best_false_name_deviation(hr_menu, v, "capped", 2)


@pytest.mark.parametrize("picks, message", [
    ([-1], "picks[0]: no menu entry -1"),
    ([1, 11], "picks[1]: no menu entry 11"),
])
def test_false_name_utility_checks_picks(hr_menu, picks, message):
    assert len(hr_menu.entries) == 11
    with pytest.raises(ValueError, match=re.escape(message)):
        false_name_utility(hr_menu, V4680, picks, "capped")


def test_deterministic_subadditive_menu_is_false_name_proof(rng):
    # 0/1 allocations with subadditive prices: one pick always suffices
    for a, b, c in ((2, 3, 4), (5, 5, 5), (1, 4, 4)):
        m = RandomizedMenu.from_entries(2, [
            ((1, 0), a), ((0, 1), b), ((1, 1), c)])
        for _ in range(25):
            v = (F(rng.randint(0, 8)), F(rng.randint(0, 8)))
            assert best_false_name_deviation(m, v, "capped", 2)[1] == rchoice(m, v).utility


def test_single_entry_menu_false_name_proof():
    m = RandomizedMenu.from_entries(1, [((1,), 5)])
    for val in (0, 4, 5, 9):
        v = (F(val),)
        assert best_false_name_deviation(m, v, "capped", 2)[1] == rchoice(m, v).utility


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


@pytest.mark.parametrize("allocations, message", [
    (((F(1),), (F(1),)), "allocation 0 has length 1 for 2 items"),
    (((F(1), F(0)),), "mechanism has 1 allocations for 2 types"),
], ids=["short-allocation", "missing-allocation"])
def test_verify_ic_ir_rejects_misshapen_allocations(allocations, message):
    # zip would truncate a short allocation and miss a missing one
    dist = product([uniform([1, 2]), point_mass(3)])
    assert len(dist.atoms) == 2
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_ic_ir(DirectMechanism(allocations, (F(0), F(0))), dist)


_FLOAT_VALUE = JointDistribution(2, (((1.0, 3), F(1, 2)), ((2, 3), F(1, 2))))


@pytest.mark.parametrize("dist, allocations, payments, message", [
    (_FLOAT_VALUE, ((F(0), F(0)),) * 2, (F(0), F(0)),
     "valuation (1.0, 3): value[0] = 1.0 is a float"),
    (None, ((F(0), 0.5), (F(0), F(0))), (F(0), F(0)), "allocation 0: entry[1] = 0.5 is a float"),
    (None, ((F(0), F(0)),) * 2, (F(0), 1.5), "payment[1] = 1.5 is a float"),
], ids=["value", "allocation-entry", "payment"])
def test_verify_ic_ir_rejects_floats(dist, allocations, payments, message):
    # a float has no denominator to scale by: the fault is named, not an AttributeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, not a rational number$"):
        verify_ic_ir(DirectMechanism(allocations, payments),
                     dist or product([uniform([1, 2]), point_mass(3)]))


@pytest.mark.parametrize("method", ["auto", "float-guided-exact", "exact-simplex"])
def test_lp_rejects_float_coordinates(method):
    # every method writes its rows from the atoms' integer form, which names the fault
    with pytest.raises(ValueError, match=re.escape(
            "valuation (1.0, 3): value[0] = 1.0 is a float, not a rational number")):
        lp_optimal(_FLOAT_VALUE, method)


def _icir_oracle(d, dist):
    """Every IC/IR constraint checked in Fractions, one utility at a time."""
    types = [v for v, _ in dist.atoms]
    viol = []
    utility = [sum((x * q for x, q in zip(v, d.allocations[t])), F(0)) - d.payments[t]
               for t, v in enumerate(types)]
    for t, v in enumerate(types):
        if utility[t] < 0:
            viol.append(f"IR: type {t} has utility {utility[t]}")
        for s in range(len(types)):
            if s == t:
                continue
            other = sum((x * q for x, q in zip(v, d.allocations[s])), F(0)) - d.payments[s]
            if utility[t] < other:
                viol.append(f"IC: type {t} prefers report {s} ({utility[t]} < {other})")
    return not viol, tuple(viol)


def _random_mechanisms(rng):
    """(mechanism, distribution) pairs on unrelated denominators: menu-induced
    mechanisms (truthful), the same with nudged payments, and random ones."""
    for _ in range(60):
        n = rng.randint(1, 3)
        weights = {}
        for _ in range(rng.randint(1, 7)):
            v = tuple(F(rng.randint(0, 12), rng.choice((1, 2, 3, 7))) for _ in range(n))
            weights[v] = weights.get(v, 0) + rng.randint(1, 5)
        total = sum(weights.values())
        dist = JointDistribution.from_pairs(n, ((v, F(w, total)) for v, w in weights.items()))
        entries = [([F(rng.randint(0, q), q) for _ in range(n)],
                    F(rng.randint(0, 30), rng.choice((1, 4, 5))))
                   for q in (rng.choice((1, 2, 5, 9)) for _ in range(rng.randint(1, 5)))]
        truthful = direct_from_menu(RandomizedMenu.from_entries(n, entries), dist)
        yield truthful, dist
        nudged = [p + rng.choice((0, 0, F(1, 3), F(-1, 2), F(3, 2))) for p in truthful.payments]
        yield DirectMechanism(truthful.allocations, tuple(nudged)), dist
        allocs = tuple(tuple(F(rng.randint(0, 6), 6) for _ in range(n)) for _ in dist.atoms)
        pays = tuple(F(rng.randint(-2, 20), rng.choice((1, 3, 8))) for _ in dist.atoms)
        yield DirectMechanism(allocs, pays), dist


def test_verify_ic_ir_matches_fraction_loop():
    rng = random.Random(45)
    seen = {"ok": 0, "IR": 0, "IC": 0}
    for mech, dist in _random_mechanisms(rng):
        report = verify_ic_ir(mech, dist)
        assert (report.ok, report.violations) == _icir_oracle(mech, dist)
        seen["ok"] += report.ok
        for kind in ("IR", "IC"):
            seen[kind] += any(v.startswith(kind) for v in report.violations)
    assert min(seen.values()) >= 10, seen


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


def _float_lp(x, duals=(0.0,) * 8, success=True):
    """A stand-in for the float solve that returns the given point and duals,
    or raises as lp.linprog does on a failed solve."""
    def solve(*args, **kwargs):
        if not success:
            raise lp.LPError("float LP failed: model status is a stand-in failure")
        return np.array(x, float), np.array(duals, float)
    return solve


# One item, two equally likely types with values 1 and 2: columns x1, x2, p1,
# p2 and rows IC(1,2), IC(2,1), IR1, IR2, x1 >= 0, x1 <= 1, x2 >= 0, x2 <= 1.
@pytest.mark.parametrize("float_lp, message", [
    (_float_lp([0, 0, 0, 0], success=False), "float LP failed"),
    # every row slack: no basis to solve
    (_float_lp([0.3, 0.6, 0.1, 0.5]), "could not resolve an exact vertex"),
    # the largest duals pick x1 = 1, x2 = 0, p1 = 1, p2 = 0, which breaks IC(2,1)
    (_float_lp([1, 0, 1, 0], [0, 0, -5, -5, 0, -5, -5, 0]), "is infeasible"),
    # x = 0 is a feasible vertex with revenue 0 < 1
    (_float_lp([0, 0, 0, 0]), "is not optimal"),
], ids=["float-failed", "no-vertex", "infeasible", "not-optimal"])
def test_lp_auto_falls_back_on_each_vertex_error(float_lp, message, monkeypatch):
    dist = product([uniform([1, 2])])
    assert [v for v, _ in dist.atoms] == [(1,), (2,)]
    simplex = lp_optimal(dist, method="exact-simplex")
    monkeypatch.setattr(lp, "linprog", float_lp)
    with pytest.raises(lp.LPError, match=message):
        lp_optimal(dist, method="float-guided-exact")
    out = lp_optimal(dist)
    assert (out.method, out.revenue, out.certified) == ("exact-simplex", simplex.revenue, True)
    assert simplex.revenue == 1


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

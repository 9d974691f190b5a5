import itertools
import math
import random
import time
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

import reference
from conftest import oracle_feasible_cells, oracle_search
from menurev import (
    JointDistribution,
    Menu,
    candidate_grid,
    expected_revenue,
    gap_report,
    product,
    search_optimal,
    uniform,
)
from menurev.instances import load_distribution, random_correlated_joint, random_single_item
from menurev.model import all_bundles, is_submodular, is_symmetric_menu
from menurev import search
from menurev.rational import ParseError
from menurev.search import CandidateGrid, SearchError

# coprime near-2^31 probability denominators push the weight lcm past int64
_P, _Q = 2**31 - 1, 2**31 - 99


def _point_mass_joint(v1, v2):
    return JointDistribution.from_pairs(2, [((v1, v2), 1)])


def test_integer_grid_ranges(example4):
    grid = candidate_grid(example4, "integer-grid")
    assert [len(p) for p in grid.prices] == [7, 7, 7, 13, 13, 13, 19]
    assert grid.prices[0] == tuple(F(k) for k in range(7))
    assert grid.prices[-1][-1] == 18


def test_integer_grid_tops_per_bundle_size():
    # the singletons' own tops are 9 and 1; a symmetric menu prices both items
    # from their common candidates, so only a size-wide top of 9 lets it sell
    # (9, 9, 10), which earns 19/2, the optimum over an explicit 0..10 grid too
    dist = JointDistribution.from_pairs(2, [((9, 0), F(1, 2)), ((9, 1), F(1, 2))])
    grid = candidate_grid(dist, "integer-grid")
    assert grid.prices == (tuple(map(F, range(10))),) * 2 + (tuple(map(F, range(11))),)
    res = search_optimal(dist, "symmetric", grid)
    assert (res.best.prices, res.revenue) == ((9, 9, 10), F(19, 2))
    wide = candidate_grid(dist, "explicit", explicit={b: range(11) for b in all_bundles(2)})
    assert oracle_search(dist, "symmetric", wide)[:2] == (res.best, res.revenue)


def test_integer_grid_rejects_fractional_support():
    dist = product([uniform([F(1, 2), 1])])
    with pytest.raises(SearchError, match="non-integer"):
        candidate_grid(dist, "integer-grid")


@pytest.mark.parametrize("table, location", [
    ({(1,): ["-1"], (2,): [1], (1, 2): [2]}, "explicit['1'][0]"),
    ({(1,): [0], (2,): [1], (2, 1): [2, 0.5]}, "explicit['1,2'][1]"),
], ids=["negative", "float"])
def test_explicit_grid_price_fault_names_its_path(table, location):
    dist = product([uniform([1, 2]), uniform([1, 2])])
    with pytest.raises(ParseError) as got:
        candidate_grid(dist, "explicit", explicit=table)
    assert got.value.location == location


def test_support_sums_grid():
    dist = _point_mass_joint(3, 4)
    grid = candidate_grid(dist, "support-sums")
    assert grid.prices[2] == (F(0), F(3), F(4), F(7))


def test_explicit_grid_echoes_input():
    dist = _point_mass_joint(1, 2)
    grid = candidate_grid(dist, "explicit",
                          explicit={(1,): [1, 2], (2,): [2], (1, 2): [3, "7/2"]})
    assert grid.prices == ((F(1), F(2)), (F(2),), (F(3), F(7, 2)))


def test_unknown_grid_mode_is_refused():
    # CandidateGrid refuses the mode; candidate_grid adds no check of its own
    with pytest.raises(SearchError, match="unknown grid mode 'bogus'"):
        candidate_grid(_point_mass_joint(1, 2), "bogus")


def test_point_mass_full_surplus():
    dist = _point_mass_joint(3, 4)
    grid = candidate_grid(dist, "support-sums")
    res = search_optimal(dist, "unrestricted", grid)
    assert res.revenue == 7
    assert res.best.prices == (F(3), F(4), F(7))


def test_search_result_metadata(example5):
    grid = candidate_grid(example5, "support-sums")
    res = search_optimal(example5, "submodular", grid)
    assert res.constraint == "submodular"
    assert res.grid_mode == "support-sums"
    assert res.examined > 0 and res.elapsed >= 0
    assert is_submodular(res.best)
    doc = res.to_json_dict()
    assert doc["revenue"] == "102/25" and doc["revenue_decimal"] == "4.08"
    assert doc["pruned"] is res.pruned is False  # support sums are not monotone-closed
    assert doc["path"] == res.path == "int64"
    assert doc["rescored"] == res.rescored == 0  # int64 weights score every menu exactly
    assert doc["skipped"] == res.skipped == 13  # 13 of the 32 menus are bounded below the optimum
    assert doc["exchangeable"] is res.exchangeable is True  # the two items are IID
    assert doc["stages"] == {k: round(v, 6) for k, v in res.stages.items()}
    assert set(res.stages) == set(search.STAGES)
    assert all(v >= 0 for v in res.stages.values())
    assert sum(res.stages.values()) <= res.elapsed
    small = _point_mass_joint(3, 4)
    pruned = search_optimal(small, "submodular", candidate_grid(small, "integer-grid"))
    assert pruned.to_json_dict()["pruned"] is True


def test_constraint_alias(example5):
    grid = candidate_grid(example5, "support-sums")
    res = search_optimal(example5, "symmetric-and-submodular", grid)
    assert res.constraint == "symmetric-and-submodular"
    assert is_symmetric_menu(res.best) and is_submodular(res.best)
    # one spelling per constraint
    with pytest.raises(SearchError, match="unknown constraint 'symmetric-submodular'"):
        search_optimal(example5, "symmetric-submodular", grid)


def test_oracle_equivalence_random_instances():
    rng = random.Random(555)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 2)
        parts = [random_single_item(rng, max_atoms=3, max_value=6) for _ in range(n)]
        dist = product(parts)
        grid = candidate_grid(dist, "support-sums")
        combos = 1
        for ps in grid.prices:
            combos *= len(ps)
        if combos > 200:
            continue
        constraint = rng.choice(["unrestricted", "submodular", "symmetric",
                                 "additive", "bundle-only"])
        res = search_optimal(dist, constraint, grid)
        _, oracle_rev, _ = oracle_search(dist, constraint, grid)
        assert res.revenue == oracle_rev, (constraint, grid.prices)
        checked += 1


def test_oracle_equivalence_correlated_instances():
    rng = random.Random(20260813)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 2)
        if n == 1:
            dist = product([random_single_item(rng, max_atoms=3, max_value=6)])
        else:
            dist = random_correlated_joint(rng, n=2, max_atoms=3, max_value=6)
        grid = candidate_grid(dist, "support-sums")
        combos = 1
        for ps in grid.prices:
            combos *= len(ps)
        if combos > 200:
            continue
        constraint = rng.choice(["unrestricted", "submodular", "symmetric",
                                 "additive", "bundle-only"])
        res = search_optimal(dist, constraint, grid)
        _, oracle_rev, _ = oracle_search(dist, constraint, grid)
        assert res.revenue == oracle_rev, (constraint, grid.prices, res.revenue, oracle_rev)
        checked += 1


def test_pruning_matches_oracle_on_integer_grids():
    # integer grids are monotone-closed, so every search prunes; the oracle never does
    rng = random.Random(8080)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 3)
        if n == 3:
            dist = product([random_single_item(rng, max_atoms=2, max_value=1) for _ in range(3)])
        else:
            dist = random_correlated_joint(rng, n=n, max_atoms=3, max_value=4)
        grid = candidate_grid(dist, "integer-grid")
        if math.prod(len(ps) for ps in grid.prices) > 400:
            continue
        for constraint in search.CONSTRAINTS:
            res = search_optimal(dist, constraint, grid)
            assert res.pruned
            oracle_menu, oracle_rev, oracle_examined = oracle_search(dist, constraint, grid)
            assert (res.best, res.revenue) == (oracle_menu, oracle_rev), (constraint, dist.atoms)
            if constraint == "unrestricted" and max(grid.prices[0]) > 0:
                assert res.examined < oracle_examined  # pruning dropped menus
        checked += 1


def _closed_under_monotonization(grid):
    """Plain loop: for every bundle S within bundle T, each candidate of T up
    to the top candidate of S is a candidate of S."""
    order = all_bundles(grid.n)
    return all(p > max(grid.prices[i]) or p in grid.prices[i]
               for i, s in enumerate(order) for j, t in enumerate(order)
               if set(s) < set(t) for p in grid.prices[j])


def test_monotone_closure_rule_matches_subset_loop():
    # integer ranges are closed; a range less one candidate, or a few random
    # halves, may or may not be
    rng = random.Random(4711)
    halves = [F(k, 2) for k in range(13)]
    seen = [0, 0]
    for _ in range(300):
        n = rng.randint(2, 3)
        kind = rng.randrange(3)
        sets = [sorted(rng.sample(halves, rng.randint(1, 4))) if kind == 2
                else list(map(F, range(rng.randint(1, 7)))) for _ in all_bundles(n)]
        if kind == 1:
            ps = rng.choice(sets)
            if len(ps) > 1:
                ps.pop(rng.randrange(len(ps)))
        grid = CandidateGrid(n, "explicit", tuple(map(tuple, sets)))
        want = _closed_under_monotonization(grid)
        assert search._monotone_closure_holds(grid) == want, grid.prices
        dist = product([uniform([1, 2])] * n)
        assert search_optimal(dist, "bundle-only", grid).pruned == want, grid.prices
        seen[want] += 1
    assert min(seen) >= 50, seen


def test_monotone_closure_is_tested_over_all_pairs():
    # every one-element step is closed, but lowering p({1}) = 5 to the grand
    # bundle's 3 leaves the grid: 3 lies above the top of {1,2} and of {1,3},
    # so no step from {1} reaches it; pruning would drop the menus with
    # p({1}) = 5 although their monotonized twins are not on the grid
    grid = CandidateGrid(3, "explicit", ((F(0), F(5)),) + ((F(0),),) * 5 + ((F(3),),))
    assert not _closed_under_monotonization(grid)
    assert not search._monotone_closure_holds(grid)
    dist = product([uniform([1, 6])] * 3)
    assert not search_optimal(dist, "unrestricted", grid).pruned


def test_constraint_monotonicity_chain(rng):
    for _ in range(12):
        parts = [random_single_item(rng, max_atoms=3, max_value=8) for _ in range(2)]
        dist = product(parts)
        grid = candidate_grid(dist, "integer-grid")
        rev = {c: search_optimal(dist, c, grid).revenue
               for c in ("unrestricted", "submodular", "symmetric",
                         "symmetric-and-submodular", "additive", "bundle-only")}
        assert rev["unrestricted"] >= rev["submodular"] >= rev["symmetric-and-submodular"]
        assert rev["unrestricted"] >= rev["symmetric"] >= rev["symmetric-and-submodular"]
        assert rev["submodular"] >= rev["additive"]
        assert rev["submodular"] >= rev["bundle-only"]


def test_drev_equals_smdrev_on_integer_products(rng):
    # two independent items: the submodular class already contains an optimum
    for _ in range(12):
        parts = [random_single_item(rng, max_atoms=3, max_value=7) for _ in range(2)]
        dist = product(parts)
        grid = candidate_grid(dist, "integer-grid")
        drev = search_optimal(dist, "unrestricted", grid).revenue
        smdrev = search_optimal(dist, "submodular", grid).revenue
        assert drev == smdrev


def test_drev_at_most_1_2785_times_srev_on_products(rng):
    # the deterministic-vs-separate gap stays below the tight constant
    bound = F(12785, 10000)
    for _ in range(10):
        parts = [random_single_item(rng, max_atoms=4, max_value=9) for _ in range(2)]
        dist = product(parts)
        grid = candidate_grid(dist, "support-sums")
        drev = search_optimal(dist, "unrestricted", grid).revenue
        srev = search_optimal(dist, "additive", grid).revenue
        if srev > 0:
            assert drev <= bound * srev


def test_empty_feasible_set():
    dist = _point_mass_joint(1, 2)
    grid = CandidateGrid(2, "explicit", ((F(1),), (F(2),), (F(3),)))
    # symmetric requires a shared single price; the grids are disjoint
    with pytest.raises(SearchError, match="empty feasible set"):
        search_optimal(dist, "symmetric", grid)


def test_search_revenue_matches_evaluator(example6):
    grid = candidate_grid(example6, "support-sums")
    res = search_optimal(example6, "unrestricted", grid)
    assert res.revenue == expected_revenue(res.best, example6)
    assert res.revenue >= F(61, 25)


def test_lexicographic_tie_break():
    # every menu earns zero: the lexicographically smallest grid menu wins
    dist = _point_mass_joint(0, 0)
    grid = CandidateGrid(2, "explicit",
                         ((F(1), F(2)), (F(1), F(2)), (F(2), F(3))))
    res = search_optimal(dist, "unrestricted", grid)
    assert res.revenue == 0
    assert res.best.prices == (F(1), F(1), F(2))


def test_gap_report_fields(example5):
    grid = candidate_grid(example5, "support-sums")
    report = gap_report(example5, grid)
    assert report.results["drev"].revenue == 6
    assert report.results["smdrev"].revenue == F(102, 25)
    assert report.results["srev"].revenue == F(102, 25)
    assert report.results["brev"].revenue == 4
    assert report.ratios["drev/smdrev"] == F(25, 17)


def test_gap_report_single_item():
    dist = product([uniform([1, 2, 4])])
    grid = candidate_grid(dist, "integer-grid")
    report = gap_report(dist, grid)
    values = {name: r.revenue for name, r in report.results.items()}
    assert len(set(values.values())) == 1  # all classes coincide for one item


def _int64_scaled_joint(tiny, regular):
    """Atoms tiny[0], tiny[1] of probability 1/_P, 1/_Q; the regular
    (valuation, weight) atoms share the remaining mass in proportion to weight."""
    rest = 1 - F(1, _P) - F(1, _Q)
    total = sum(w for _, w in regular)
    pairs = [(tiny[0], F(1, _P)), (tiny[1], F(1, _Q))]
    return JointDistribution.from_pairs(2, pairs + [(v, rest * F(w, total)) for v, w in regular])


def test_scaled_weights_path_matches_oracle():
    # the weight lcm passes int64, forcing floor-scaled weights with exact re-scoring
    dist = _int64_scaled_joint([(3, 1), (1, 4)], [((2, 2), 1)])
    grid = candidate_grid(dist, "support-sums")
    res = search_optimal(dist, "unrestricted", grid)
    assert res.path == "int64-scaled"
    assert 0 < res.rescored <= res.examined and res.skipped > 0
    oracle_menu, oracle_rev, _ = oracle_search(dist, "unrestricted", grid)
    assert (res.best, res.revenue) == (oracle_menu, oracle_rev)
    assert res.revenue == expected_revenue(res.best, dist)


def _weighted_joint(n, weighted):
    total = sum(w for _, w in weighted)
    return JointDistribution.from_pairs(n, [(v, F(w, total)) for v, w in weighted])


def _int64_weights_instance(rng):
    # products of 1-2 random items with 1-3 atoms and values 0-6
    parts = [random_single_item(rng, max_atoms=3, max_value=6) for _ in range(rng.randint(1, 2))]
    dist = product(parts)
    return dist, candidate_grid(dist, "support-sums")


def _int64_scaled_instance(rng):
    # 2-4 random types with values 0-6 beside the two tiny-probability atoms
    vectors = rng.sample([(a, b) for a in range(7) for b in range(7)], rng.randint(2, 4) + 2)
    dist = _int64_scaled_joint(vectors[:2], [(v, rng.randint(1, 5)) for v in vectors[2:]])
    return dist, candidate_grid(dist, "support-sums")


def _bigint_keys_instance(rng):
    # 1-3 types with values in [0, 5] on a 2^-40 lattice: scaled keys pass int64
    vectors = {tuple(F(rng.randint(0, 5 << 40), 1 << 40) for _ in range(2))
               for _ in range(rng.randint(1, 3))}
    dist = _weighted_joint(2, [(v, rng.randint(1, 5)) for v in sorted(vectors)])
    return dist, candidate_grid(dist, "support-sums")


def _four_item_instance(rng):
    # 1-4 types with values 0-4; every bundle of size s may cost c * s, so the
    # symmetric and submodular classes are never empty
    vectors = {tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(rng.randint(1, 4))}
    dist = _weighted_joint(4, [(v, rng.randint(1, 5)) for v in sorted(vectors)])
    c = rng.randint(0, 2)
    explicit = {b: {c * len(b)} | set(rng.sample(range(2 * len(b) + 1), rng.choice([0, 0, 1])))
                for b in all_bundles(4)}
    return dist, candidate_grid(dist, "explicit", explicit=explicit)


# (menus examined, window rows rescored, menus skipped) of each search below
# on the scaled and big-int paths, in order
_SCREENED = {
    "int64-scaled": [
        (275, 1, 231), (80, 2, 43), (18, 1, 9), (16, 1, 0), (11, 1, 0), (220, 1, 165),
        (73, 1, 57), (20, 1, 10), (20, 1, 0), (11, 1, 0), (192, 1, 168), (115, 1, 85),
        (44, 1, 33), (24, 1, 0), (11, 1, 0), (120, 1, 80), (62, 1, 32), (39, 1, 26),
        (16, 1, 0), (12, 1, 0), (220, 1, 198), (125, 1, 46), (11, 1, 0), (24, 1, 0),
        (12, 1, 0), (200, 1, 190), (56, 1, 32), (22, 1, 11), (16, 1, 0), (9, 1, 0),
        (165, 2, 99), (62, 1, 32), (30, 1, 20), (20, 1, 0), (10, 1, 0), (160, 2, 80),
        (65, 1, 46), (22, 1, 11), (15, 2, 0), (11, 1, 0)],
    "bigint": [
        (81, 0, 72), (10, 0, 6), (16, 0, 0), (4, 0, 0), (4, 0, 0), (81, 0, 63), (45, 0, 15),
        (4, 0, 0), (16, 0, 0), (16, 0, 0), (256, 0, 192), (136, 0, 91), (16, 0, 0), (9, 0, 0),
        (4, 0, 0), (16, 0, 12), (136, 0, 91), (4, 0, 0), (4, 0, 0), (9, 0, 0), (16, 0, 12),
        (136, 0, 105), (16, 0, 0), (9, 0, 0), (16, 0, 0), (16, 0, 12), (45, 0, 15), (4, 0, 0),
        (9, 0, 0), (9, 0, 0), (16, 0, 12), (45, 0, 36), (4, 0, 0), (16, 0, 0), (9, 0, 0),
        (81, 0, 63), (45, 0, 28), (16, 0, 0), (4, 0, 0), (9, 0, 0)],
}


@pytest.mark.parametrize("make, path", [
    (_int64_weights_instance, "int64"),
    (_int64_scaled_instance, "int64-scaled"),
    (_bigint_keys_instance, "bigint"),
    (_four_item_instance, "int64"),
], ids=["int64-weights", "int64-scaled", "bigint-keys", "four-items"])
def test_search_differential_random_instances(make, path):
    rng = random.Random(4242)
    constraints = ["unrestricted", "submodular", "symmetric", "additive", "bundle-only"]
    checked = 0
    while checked < 40:
        dist, grid = make(rng)
        if math.prod(len(ps) for ps in grid.prices) > 300:
            continue
        constraint = constraints[checked % len(constraints)]
        res = search_optimal(dist, constraint, grid)
        assert res.path == path
        oracle_menu, oracle_rev, _ = oracle_search(dist, constraint, grid)
        assert (res.best, res.revenue) == (oracle_menu, oracle_rev), (constraint, dist.atoms)
        if path in _SCREENED:
            assert (res.examined, res.rescored, res.skipped) == _SCREENED[path][checked]
        checked += 1


def _small_values_instance(rng):
    # 4-7 random types with values 0-3 beside the two tiny-probability atoms
    vectors = rng.sample([(a, b) for a in range(4) for b in range(4)], rng.randint(4, 7) + 2)
    dist = _int64_scaled_joint(vectors[:2], [(v, rng.randint(1, 9)) for v in vectors[2:]])
    return dist, candidate_grid(dist, "support-sums")


# (constraint, tiny atoms, weighted atoms) whose exact winner's lower score
# falls below the best lower score: in the first, its block is bounded below
# that best; in the second, the best rises past it after it joins the window
_SLACK_NEEDED = [
    ("submodular", [(1, 0), (1, 1)], [((0, 0), 1), ((1, 2), 3), ((1, 3), 7), ((3, 2), 2)]),
    ("symmetric", [(2, 0), (2, 3)], [((0, 1), 9), ((0, 3), 2), ((1, 0), 2), ((3, 1), 4)]),
]


def test_small_scale_windows_match_oracle(monkeypatch):
    # a budget of 2^7 leaves a scale s = 2^7 // K - T near 10, so many menus
    # score within the slack D of the best lower score and the windows hold
    # many menus that do not tie; the exact rescoring must still find the
    # oracle's winner under every constraint
    monkeypatch.setattr(search, "_INT64_BUDGET", 1 << 7)
    windows, exact_best = [], search._exact_best

    def spy_best(inst, rows):
        assert 5 <= inst.scale < 100
        windows.append((inst, list(rows)))
        return exact_best(inst, windows[-1][1])

    monkeypatch.setattr(search, "_exact_best", spy_best)
    rng = random.Random(2718)
    instances = [(c, _int64_scaled_joint(tiny, weighted)) for c, tiny, weighted in _SLACK_NEEDED]
    while len(instances) < 42:
        dist, _ = _small_values_instance(rng)
        instances.append((search.CONSTRAINTS[len(instances) % 6], dist))
    untied = flipped = 0
    for constraint, dist in instances:
        grid = candidate_grid(dist, "support-sums")
        res = search_optimal(dist, constraint, grid)
        assert res.path == "int64-scaled" and res.rescored == len(windows[-1][1])
        assert (res.best, res.revenue) == oracle_search(dist, constraint, grid)[:2], constraint
        inst, rows = windows[-1]
        pay = search._payments(inst, search._fixed_key(inst, range(len(inst.order)), rows))
        exact, lower = search._exact_scores(inst, pay), pay @ inst.weights
        untied += int((exact < exact.max()).sum())
        flipped += int(lower[np.argmax(exact)] < lower.max())
    assert untied > 500 and flipped >= 2


def test_window_keeps_winner_that_flooring_costs_most_of_the_slack():
    # one item at V = 2^30: three types of value V - 3, V - 2, V - 1 whose
    # weights p_t * s fall just short of 4, and one of value V with the rest.
    # Price V - 3 sells to every type and wins by about 6e-9, but floors away
    # almost V per cheap type; price V sells to the last type only. Its lower
    # score beats the winner's by more than D / 2 of the slack D = T * (K - 1)
    V, q = 1 << 30, (1 << 61) - 1
    s = search._INT64_BUDGET // (V + 1) - 4
    cheap = [((v,), F(4 * q // s, q)) for v in (V - 3, V - 2, V - 1)]
    dist = JointDistribution.from_pairs(1, cheap + [((V,), 1 - sum(p for _, p in cheap))])
    grid = candidate_grid(dist, "explicit", explicit={(1,): [V - 3, V]})
    inst = search._Instance(dist, grid)
    assert (inst.path, inst.scale, inst.slack) == ("int64-scaled", s, 4 * V)
    every = range(len(inst.order))
    pay = search._payments(inst, search._fixed_key(inst, every, [(V - 3,), (V,)]))
    exact_win, exact_lose = search._exact_scores(inst, pay)
    lower_win, lower_lose = pay @ inst.weights
    assert exact_win > exact_lose and lower_lose - lower_win > inst.slack // 2
    res = search_optimal(dist, "unrestricted", grid)
    assert (res.best.prices, res.revenue) == ((V - 3,), V - 3)
    assert (res.best, res.revenue) == oracle_search(dist, "unrestricted", grid)[:2]


def test_tie_heavy_window_keeps_exact_winner():
    # prices above every value are never paid, so 9 menus tie exactly; the
    # window must hold them all and keep the lexicographically smallest winner
    dist = _int64_scaled_joint([(3, 1), (1, 4)], [((2, 2), 1)])
    grid = candidate_grid(dist, "explicit", explicit={
        (1,): [0, 1, 2, 3, 8, 9], (2,): [0, 1, 2, 4, 8, 9], (1, 2): [2, 3, 4, 5, 10, 11, 12]})
    res = search_optimal(dist, "unrestricted", grid)
    assert res.path == "int64-scaled"
    oracle_menu, oracle_rev, _ = oracle_search(dist, "unrestricted", grid)
    assert (res.best, res.revenue) == (oracle_menu, oracle_rev)
    assert res.rescored == 9


def test_four_item_fallback():
    dist = JointDistribution.from_pairs(4, [((1, 1, 1, 1), F(1, 2)),
                                            ((2, 1, 1, 2), F(1, 2))])
    explicit = {}
    for b in all_bundles(4):
        explicit[b] = [0, 1] if len(b) == 1 else [len(b)]
    grid = candidate_grid(dist, "explicit", explicit=explicit)
    res = search_optimal(dist, "unrestricted", grid)
    assert res.path == "int64"
    oracle_menu, oracle_rev, oracle_examined = oracle_search(dist, "unrestricted", grid)
    assert res.revenue == oracle_rev
    assert res.best == oracle_menu
    assert res.examined <= oracle_examined


def test_four_item_mesh_guard():
    # 5^11 mesh cells x 15 bundles would take gigabytes; refused before allocating
    dist = product([uniform([0, 1, 2])] * 4)
    grid = candidate_grid(dist, "integer-grid", max_price=4)
    with pytest.raises(SearchError, match="candidate grid too large"):
        search_optimal(dist, "unrestricted", grid)


@pytest.mark.parametrize("constraint", ["unrestricted", "submodular", "additive"])
def test_block_count_guard(constraint):
    # example 6 (eps 1/100) on its integer grid prices each item at 0..10^4:
    # 50,015,001 ascending single-price blocks, which the bound-ordered
    # layouts list with their bounds and the additive one scores one at a
    # time; refused before any is built. The symmetric search of the same
    # grid lists 10,001 blocks and still completes.
    dist = load_distribution("example6_eps100")
    grid = candidate_grid(dist, "integer-grid")
    t0 = time.perf_counter()
    with pytest.raises(SearchError, match="candidate grid too large"):
        search_optimal(dist, constraint, grid)
    assert time.perf_counter() - t0 < 5


def test_explicit_grid_rejects_ambiguous_keys():
    dist = _point_mass_joint(1, 2)
    base = {(1,): [1], (2,): [1], (1, 2): [3]}
    with pytest.raises(SearchError, match=r"\(3,\)"):
        candidate_grid(dist, "explicit", explicit={**base, (3,): [5]})
    with pytest.raises(SearchError, match=r"\(2, 1\)"):
        candidate_grid(dist, "explicit", explicit={**base, (2, 1): [4]})
    assert candidate_grid(dist, "explicit", explicit=base).prices == ((1,), (1,), (3,))


def test_max_price_caps_grids(example4):
    grid = candidate_grid(example4, "integer-grid", max_price=5)
    assert all(ps[-1] <= 5 for ps in grid.prices)
    dist = JointDistribution.from_pairs(2, [((3, 4), 1)])
    capped = candidate_grid(dist, "support-sums", max_price=4)
    assert capped.prices[2] == (F(0), F(3), F(4))


def test_fallback_on_huge_value_denominators():
    # int64 keys would overflow, so the search runs on Python-int arrays
    huge = F(2**40 + 1, 2**40)
    dist = JointDistribution.from_pairs(
        2, [((huge, 1), F(1, 2)), ((2, huge), F(1, 2))])
    grid = candidate_grid(dist, "support-sums")
    res = search_optimal(dist, "unrestricted", grid)
    assert res.path == "bigint" and res.skipped > 0
    oracle_menu, oracle_rev, _ = oracle_search(dist, "unrestricted", grid)
    assert res.revenue == oracle_rev
    assert res.best == oracle_menu


def test_symmetric_search_with_differing_size_grids():
    # per-size candidate sets intersect across same-size bundles
    dist = JointDistribution.from_pairs(
        3, [((1, 2, 3), F(1, 2)), ((3, 2, 1), F(1, 2))])
    grid = candidate_grid(dist, "support-sums")
    res = search_optimal(dist, "symmetric", grid)
    _, oracle_rev, _ = oracle_search(dist, "symmetric", grid)
    assert res.revenue == oracle_rev
    assert is_symmetric_menu(res.best)


def test_all_constraints_coincide_for_single_item():
    dist = product([uniform([2, 5, 11])])
    grid = candidate_grid(dist, "integer-grid")
    revenues = {c: search_optimal(dist, c, grid).revenue
                for c in ("unrestricted", "symmetric", "submodular",
                          "symmetric-and-submodular", "additive", "bundle-only")}
    assert len(set(revenues.values())) == 1


def test_unsellable_grid_returns_lex_smallest_zero_menu():
    dist = JointDistribution.from_pairs(2, [((1, 1), 1)])
    grid = candidate_grid(dist, "explicit",
                          explicit={(1,): [5, 9], (2,): [6], (1, 2): [7, 8]})
    res = search_optimal(dist, "unrestricted", grid)
    assert res.revenue == 0
    assert res.best.prices == (F(5), F(6), F(7))


def _cells(layout, heads, lo, hi):
    """Flat mesh indices, ascending, of the menus of head rows `heads` whose
    last-axis candidate lies in [lo, hi) of its row."""
    J = layout.shape[-1] if layout.axes else 1
    cells = [h * J + j for h, a, b in zip(heads, lo, hi) for j in range(a, b)]
    return np.array(cells, dtype=np.intp)


def _matrix_cells(layout, scores_at, idx):
    """The scores of the menus at flat mesh indices `idx` (ascending) from the
    (head rows x J) matrix that `scores_at(heads)` gives for their head rows."""
    J = layout.shape[-1]
    heads, row = np.unique(idx // J, return_inverse=True)
    return scores_at(heads)[row, idx % J]


def _table_payments(inst, layout, fixed_key, idx):
    """Each type's payment (column) under the menus at flat mesh indices
    `idx` of a block (row), straight from the key tables: the best of the
    fixed key and every axis's table row, mod K."""
    key = np.array(fixed_key, ndmin=2)
    if layout.axes:
        for tab, j in zip(layout.tables, np.unravel_index(idx, layout.shape)):
            key = np.maximum(key, tab[j])
    return search._payments(inst, key)


@pytest.mark.parametrize("den, dtype", [(4, np.int64), (1 << 40, object)], ids=["int64", "object"])
def test_block_kernel_matches_buyer_choice(den, dtype):
    # the key tables, the fixed columns and the all-fixed rescoring kernel
    # must reproduce the buyer's payment on random menus of every layout,
    # and the closed-form mesh kernel the weighted sum of those payments
    rng = random.Random(31)
    types = {tuple(F(rng.randint(0, 6 * den), den) for _ in range(3)) for _ in range(6)}
    dist = _weighted_joint(3, [(v, rng.randint(1, 5)) for v in sorted(types)])
    by_size = {s: [F(rng.randint(0, 6 * s * den), den) for _ in range(3)] for s in (1, 2, 3)}
    grid = candidate_grid(dist, "explicit", explicit={b: by_size[len(b)] for b in all_bundles(3)})
    inst = search._Instance(dist, grid)
    assert inst.dtype is dtype
    every = range(len(inst.order))
    checked = 0
    for constraint in search.CONSTRAINTS:
        layout = search._layout(inst, constraint, prune=False)
        for prices in itertools.islice(layout.blocks, 6):
            cells = math.prod(layout.shape)
            idx = np.array(rng.sample(range(cells), min(4, cells)))
            fixed_key = search._fixed_key(inst, layout.fixed, prices)
            pays = _table_payments(inst, layout, fixed_key, idx)
            for row, pay in zip(layout.rows(prices, idx), pays):
                prices = inst.menu_from_scaled(row).as_dict()
                want = [reference.choice(prices, v)[1] * inst.L for v, _ in dist.atoms]
                assert pay.tolist() == want, (constraint, row)
                alone = search._payments(inst, search._fixed_key(inst, every, row))
                assert alone.tolist() == want, (constraint, row)
                checked += 1
            if layout.axes:
                order = np.argsort(idx)
                scores = _matrix_cells(layout, lambda heads: search._mesh_scores(
                    inst, layout, fixed_key, heads), idx[order]).tolist()
                weights = inst.weights.tolist()
                want = [sum(int(q) * w for q, w in zip(pay, weights)) for pay in pays[order]]
                assert scores == want
    assert checked > 50


@pytest.mark.parametrize("K", [1, 2, 5, 1000])
def test_mesh_scores_match_direct_per_menu_scores(K):
    # seeded int64 layouts of 1-3 axes: the closed-form last axis must give
    # every menu the score (max(fixed key, table rows) mod K) @ w exactly,
    # also where a last-axis key ties the key over the other options
    rng = np.random.default_rng(K)
    ties = 0
    for _ in range(30):
        types = int(rng.integers(1, 20))
        axes = tuple(np.sort(rng.choice(K, size=int(rng.integers(1, min(K, 6) + 1)), replace=False))
                     for _ in range(int(rng.integers(1, 4))))
        tops = tuple(rng.integers(0, 2 * K, size=types) for _ in axes)
        tables = tuple((top[None, :] - axis[:, None]) * K + axis[:, None]
                       for top, axis in zip(tops, axes))
        built, thresholds = search._key_tables(K, axes, tops)
        assert all((a == b).all() for a, b in zip(built, tables))
        layout = search._Layout((), iter(()), tuple((g,) for g in range(len(axes))),
                                axes, tops, tables, thresholds, (), False)
        # fixed keys drawn from the table entries themselves make exact ties
        pool = np.concatenate([np.maximum(t, 0).ravel() for t in tables])
        fixed_key = rng.choice(pool, size=types)
        inst = SimpleNamespace(K=K, weights=rng.integers(1, 1000, size=types))
        cells = math.prod(layout.shape)
        idx = np.sort(rng.choice(cells, size=int(rng.integers(1, cells + 1)), replace=False))
        subs = np.unravel_index(idx, layout.shape)
        key = fixed_key[None, :]
        for tab, j in zip(tables[:-1], subs):
            key = np.maximum(key, tab[j])
        ties += int((tables[-1][subs[-1]] == key).sum())
        want = np.mod(np.maximum(key, tables[-1][subs[-1]]), K) @ inst.weights
        got = _matrix_cells(layout, lambda heads: search._mesh_scores(
            inst, layout, fixed_key, heads), idx)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert ties > 0


@pytest.mark.parametrize("K", [1, 2, 5, 1000])
def test_threshold_tables_give_threshold_of_maximum_key(K):
    # a head row's key is the maximum of the fixed key and the head axes'
    # table rows; its last-axis threshold, found directly by binary search,
    # must be the minimum of theirs, read from the threshold tables
    rng = np.random.default_rng(100 + K)
    from_fixed = from_tables = 0
    for _ in range(30):
        types = int(rng.integers(1, 20))
        axes = tuple(np.sort(rng.choice(K, size=int(rng.integers(1, min(K, 6) + 1)), replace=False))
                     for _ in range(int(rng.integers(2, 5))))
        tops = tuple(rng.integers(0, 2 * K, size=types) for _ in axes)
        tables, thresholds = search._key_tables(K, axes, tops)
        assert len(thresholds) == len(axes) - 1
        pool = np.concatenate([np.maximum(t, 0).ravel() for t in tables])
        fixed_key = rng.choice(pool, size=types)
        head_shape = tuple(len(a) for a in axes[:-1])
        subs = np.unravel_index(np.arange(math.prod(head_shape)), head_shape)
        edge = axes[-1] * (K - 1)
        key = fixed_key[None, :]
        got = np.searchsorted(edge, tops[-1] * K - fixed_key)[None, :]
        for tab, thr, j in zip(tables, thresholds, subs):
            key = np.maximum(key, tab[j])
            got = np.minimum(got, thr[j])
        want = np.searchsorted(edge, tops[-1] * K - key)
        assert got.tolist() == want.tolist()
        fixed = np.searchsorted(edge, tops[-1] * K - fixed_key)
        from_fixed += int((want == fixed).sum())
        from_tables += int((want < fixed).sum())
    assert from_fixed > 0 and from_tables > 0


def _fractional_grid_instance(rng, n, den):
    """1-3 types on n items with values in [0, 3] on a 1/den lattice, and an
    explicit grid of prices on a 1/(2 den) lattice in which every bundle may
    cost c per item, for one shared c, so that every class has menus and many
    feasibility terms hold with equality."""
    vectors = {tuple(F(rng.randint(0, 3 * den), den) for _ in range(n))
               for _ in range(rng.randint(1, 3))}
    dist = _weighted_joint(n, [(v, rng.randint(1, 5)) for v in sorted(vectors)])
    c = F(rng.randint(0, 4 * den), 2 * den)
    explicit = {b: sorted({c * len(b)} | {F(rng.randint(0, 8 * den * len(b)), 2 * den)
                                          for _ in range(rng.randint(0, 1 if n == 4 else 2))})
                for b in all_bundles(n)}
    return dist, candidate_grid(dist, "explicit", explicit=explicit)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("den, dtype", [(1, np.int64), (1 << 40, object)], ids=["int64", "object"])
def test_enumerated_ranges_match_full_mesh_mask(monkeypatch, n, den, dtype):
    # the head mask and the last-axis range [lo, hi) of every head row must
    # give exactly the cells of the full-mesh mask, block by block and in
    # order, for every constraint, pruned or not; every other instance takes
    # chunks of 5 head cells, one block or a few, so most chunks end before
    # the layout's last block
    rng = random.Random(80 + n + (den > 1))
    head_chunk = search._HEAD_CHUNK
    layouts = partial = 0
    for trial in range(8):
        monkeypatch.setattr(search, "_HEAD_CHUNK", 5 if trial % 2 else head_chunk)
        dist, grid = _fractional_grid_instance(rng, n, den)
        inst = search._Instance(dist, grid)
        assert inst.dtype is dtype
        for constraint in search.CONSTRAINTS:
            for prune in (False, True):
                layout = search._layout(inst, constraint, prune)
                if layout is None:
                    continue
                blocks = list(layout.blocks)
                want = {}
                for prices in blocks:
                    cells = oracle_feasible_cells(layout, prices)
                    if cells.size:
                        want[prices] = cells.tolist()
                got = [(prices, _cells(layout, *heads).tolist())
                       for prices, *heads in search._enumerate_blocks(layout, blocks)]
                assert got == list(want.items()), (constraint, prune, grid.prices)
                layouts += 1
                partial += any(len(c) < math.prod(layout.shape) for c in want.values())
    assert layouts > 50 and partial > 20


def _slab_bounds_per_cell(inst, layout, fixed_key):
    """The slab bounds in (blocks x J x T) form: every cell's folded key and
    utility, and one binary search per cell and head axis."""
    folded = len(layout.axes) > 1
    pay = np.maximum(layout.tables[-1] if folded else 0, fixed_key[:, None, :])
    util = pay // inst.K
    pay -= util * inst.K
    for axis, top in zip(layout.axes[:len(layout.axes) - folded], layout.tops):
        dearest = np.concatenate(([0], axis))[np.searchsorted(axis, top - util, side="right")]
        np.maximum(pay, dearest, out=pay)
    return np.broadcast_to(pay @ inst.weights, (len(pay), layout.shape[-1]))


def test_instance_scaling_is_charged_to_evaluate(monkeypatch):
    # scaling the instance runs on the stage clock, so a slow _Instance
    # shows in the "evaluate" stage and the stages stay within the wall time
    class SlowInstance(search._Instance):
        def __init__(self, dist, grid):
            time.sleep(0.2)
            super().__init__(dist, grid)

    dist = _weighted_joint(2, [((2, 2), 1), ((1, 3), 2)])
    grid = candidate_grid(dist, "integer-grid")
    monkeypatch.setattr(search, "_Instance", SlowInstance)
    res = search_optimal(dist, "unrestricted", grid)
    assert res.stages["evaluate"] >= 0.2
    assert sum(res.stages.values()) <= res.elapsed


def test_all_zero_grid_search():
    # every candidate price is 0, so K = 1 and every menu earns nothing
    dist = _weighted_joint(2, [((3, 1), 1), ((0, 2), 2)])
    grid = candidate_grid(dist, "explicit", explicit={(1,): [0], (2,): [0], (1, 2): [0]})
    for constraint in search.CONSTRAINTS:
        res = search_optimal(dist, constraint, grid)
        assert (res.best.prices, res.revenue, res.examined) == ((0, 0, 0), 0, 1)
    zero = _point_mass_joint(0, 0)
    res = search_optimal(zero, "unrestricted", candidate_grid(zero, "integer-grid"))
    assert (res.best.prices, res.revenue, res.path) == ((0, 0, 0), 0, "int64")


# (menu, revenue, menus examined, menus skipped) of example 4's integer-grid
# optimum per constraint; every constraint with singleton blocks over a mesh
# is bounded, the rest never skip
_EXAMPLE4 = {
    "unrestricted": ((6, 6, 6, 7, 7, 8, 9), F(6293, 1000), 2203095, 1890132),
    "symmetric": ((6, 6, 6, 7, 7, 7, 9), F(6291, 1000), 819, 574),
    "submodular": ((5, 6, 6, 7, 7, 8, 9), F(1573, 250), 13998, 5013),
    "symmetric-and-submodular": ((5, 5, 5, 7, 7, 7, 9), F(786, 125), 84, 30),
    "additive": ((5, 5, 5, 10, 10, 10, 15), F(6), 343, 0),
    "bundle-only": ((8, 8, 8, 8, 8, 8, 8), F(721, 125), 19, 0),
}


@pytest.mark.parametrize("constraint", sorted(_EXAMPLE4))
def test_example4_optimum_and_examined(example4, constraint):
    res = search_optimal(example4, constraint, candidate_grid(example4, "integer-grid"))
    assert (res.best.prices, res.revenue, res.examined, res.skipped) == _EXAMPLE4[constraint]
    assert res.path == "int64" and res.pruned and res.rescored == 0


def _visit_order(inst, layout):
    """The bounded search's blocks in visiting order, with each block's slab bounds."""
    blocks = list(layout.blocks)
    bounds = search._slab_bounds(inst, layout, search._fixed_key(inst, layout.fixed, blocks))
    by_block = dict(zip(blocks, bounds))
    return sorted(blocks, key=lambda p: (-int(by_block[p].max()), p)), by_block


def _small_product(rng, n):
    # n independent items of 1-2 atoms with values 0-2 (0-1 beyond two items)
    top = 2 if n == 2 else 1
    return product([random_single_item(rng, max_atoms=2, max_value=top) for _ in range(n)])


def _with_tiny_atom(dist):
    """`dist` with mass 1/(_P * _Q) moved to the all-zero valuation, so the
    weight lcm passes int64 and the search scales its weights."""
    tiny = F(1, _P * _Q)
    return JointDistribution.from_pairs(
        dist.n, [(v, p * (1 - tiny)) for v, p in dist.atoms] + [((0,) * dist.n, tiny)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slab_bounds_cover_every_menu(n):
    # each slab's bound is at least the score of every menu in it, feasible
    # or not, on every block of every bounded layout, and equals the bound
    # with one binary search per (block, slab, type) cell; a scaled score is
    # a lower bound within the slack of the exact score times s / W
    rng = random.Random(60 + n)
    bounded = tight = useful = 0
    for trial in range(10):
        if n == 4:
            dist, grid = _four_item_instance(rng)
        else:
            dist = _small_product(rng, n) if trial % 2 else random_correlated_joint(
                rng, n=n, max_atoms=4, max_value=3 if n == 2 else 2)
            grid = candidate_grid(dist, "integer-grid")
        for inst in search._Instance(dist, grid), search._Instance(_with_tiny_atom(dist), grid):
            assert inst.path == ("int64-scaled" if inst.slack else "int64")
            for constraint in search.CONSTRAINTS:
                layout = search._layout(inst, constraint, prune=False)
                if layout is None or not (layout.fixed and layout.axes):
                    continue
                cells = np.arange(math.prod(layout.shape))
                subs = np.unravel_index(cells, layout.shape)
                order, bounds = _visit_order(inst, layout)
                fixed_key = search._fixed_key(inst, layout.fixed, order)
                assert search._slab_bounds(inst, layout, fixed_key).tolist() == \
                    _slab_bounds_per_cell(inst, layout, fixed_key).tolist()
                top = 0
                for prices in order:
                    fixed_key = search._fixed_key(inst, layout.fixed, prices)
                    pay = _table_payments(inst, layout, fixed_key, cells)
                    scores = pay @ inst.weights
                    slab = bounds[prices][subs[-1]]
                    assert (scores <= slab).all(), (constraint, prices)
                    exact = pay.astype(object) @ inst.exact_weights
                    # lower <= exact * s / W < lower + D, and with D = 0 they are equal
                    over = exact * inst.scale - scores.astype(object) * inst.W
                    assert (over >= 0).all() and (over < max(inst.slack * inst.W, 1)).all()
                    tight += int((scores == slab).any())
                    top = max(top, scores.max())
                    bounded += 1
                # a useful bound puts some block entirely below the optimum
                useful += any(b.max() < top for b in bounds.values())
    assert bounded > 50 and tight > 0 and useful > 0


def _tie_heavy_instance(rng):
    # 1-3 types with values 0-3 on 2 or 3 items; each bundle may cost two low
    # prices or one no type can pay, so many menus tie exactly across blocks
    n = rng.choice([2, 2, 3])
    vectors = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))}
    dist = _weighted_joint(n, [(v, rng.randint(1, 3)) for v in sorted(vectors)])
    explicit = {b: sorted(set(rng.sample(range(3 * len(b) + 1), 2)) | {4 * len(b) + 5})
                for b in all_bundles(n)}
    return dist, candidate_grid(dist, "explicit", explicit=explicit)


def _integer_grid_instance(rng):
    n = rng.choice([2, 2, 3])
    dist = random_correlated_joint(rng, n=n, max_atoms=3, max_value=3 if n == 2 else 1)
    return dist, candidate_grid(dist, "integer-grid")


def _ties_out_of_order(dist, constraint, grid):
    """Whether the block visited first among those holding an optimum is not
    the lexicographically smallest of them, so the tie rule picks the winner."""
    inst = search._Instance(dist, grid)
    layout = search._layout(inst, constraint, search._monotone_closure_holds(grid))
    if layout is None or not (layout.fixed and layout.axes):
        return False
    order, _ = _visit_order(inst, layout)
    best = {}
    for prices, *heads in search._enumerate_blocks(layout, order):
        idx = _cells(layout, *heads)
        pay = _table_payments(inst, layout, search._fixed_key(inst, layout.fixed, prices), idx)
        best[prices] = (pay @ inst.weights).max()
    optimal = [p for p in best if best[p] == max(best.values())]
    return optimal[0] != min(optimal)


def test_bounded_search_differential_int64():
    # 1,000 int64 searches against the brute-force oracle: integer grids
    # (pruned), tie-heavy explicit grids and four-item grids, every constraint
    rng = random.Random(9191)
    makers = [_integer_grid_instance, _tie_heavy_instance, _tie_heavy_instance, _four_item_instance]
    checked = skipped = out_of_order = 0
    while checked < 1000:
        dist, grid = makers[checked % len(makers)](rng)
        if math.prod(len(ps) for ps in grid.prices) > 400:
            continue
        constraint = search.CONSTRAINTS[checked % len(search.CONSTRAINTS)]
        try:
            res = search_optimal(dist, constraint, grid)
        except SearchError:
            continue  # the symmetric classes of an explicit grid may be empty
        assert res.path == "int64"
        oracle_menu, oracle_rev, _ = oracle_search(dist, constraint, grid)
        assert (res.best, res.revenue) == (oracle_menu, oracle_rev), (constraint, dist.atoms)
        assert 0 <= res.skipped < res.examined
        skipped += res.skipped > 0
        out_of_order += _ties_out_of_order(dist, constraint, grid)
        checked += 1
    assert skipped > 100 and out_of_order > 10


def test_bounded_search_breaks_ties_across_blocks():
    # block (9, 9) has the higher bound and is visited first; its best menu
    # (9, 9, 2) earns 2, as does the lexicographically smaller (1, 1, 2) of
    # block (1, 1), which is bounded at exactly 2 and must still win. The
    # items are exchangeable, so block (9, 1), the twin of (1, 9), is not
    # searched, and (1, 9) counts its 2 menus twice
    dist = _weighted_joint(2, [((2, 2), 1), ((1, 1), 1)])
    grid = candidate_grid(dist, "explicit", explicit={(1,): [1, 9], (2,): [1, 9], (1, 2): [2, 4]})
    inst = search._Instance(dist, grid)
    order, bounds = _visit_order(inst, search._layout(inst, "unrestricted", prune=False))
    assert order == [(9, 9), (1, 1), (1, 9)]
    assert [bounds[p].max() for p in order] == [6, 4, 4]
    res = search_optimal(dist, "unrestricted", grid)
    assert res.best.prices == (1, 1, 2) and res.revenue == 2
    assert res.examined == 8 and res.skipped == 0 and res.exchangeable
    assert (res.best, res.revenue) == oracle_search(dist, "unrestricted", grid)[:2]


def test_chunked_rescoring_matches_per_row_scores(monkeypatch):
    # 3,721 of the 11,907 rows tie exactly at the optimum (among them every
    # row with both single prices above every value and the bundle at 4),
    # scored 7 rows per chunk
    dist = _int64_scaled_joint([(3, 1), (1, 4)], [((2, 2), 1)])
    high = list(range(8, 68))
    grid = candidate_grid(dist, "explicit", explicit={
        (1,): [0, 1, 3] + high, (2,): [0, 2, 4] + high, (1, 2): [2, 4, 5]})
    inst = search._Instance(dist, grid)
    assert inst.path == "int64-scaled"
    rows = list(itertools.product(*[[int(p) * inst.L for p in ps] for ps in grid.prices]))
    random.Random(5).shuffle(rows)
    every = range(len(inst.order))

    def per_row(row):
        pay = search._payments(inst, search._fixed_key(inst, every, row))
        return sum(int(q) * w for q, w in zip(pay, inst.exact_weights))

    want = [per_row(row) for row in rows]
    pay = search._payments(inst, search._fixed_key(inst, every, rows))
    assert search._exact_scores(inst, pay).tolist() == want
    top = max(want)
    assert sum(w == top for w in want) == 3721
    monkeypatch.setattr(search, "_CHUNK_BYTES", 7 * search._RESCORE_CELL_BYTES * len(inst.values))
    assert search._exact_best(inst, rows) == (top, min(r for r, w in zip(rows, want) if w == top))


def test_kernel_chunks_count_last_axis_candidates(monkeypatch):
    # 2 types and 40 grand-bundle candidates over a 3-item mesh: a chunk's
    # last-axis temporaries outweigh its per-type ones, and a budget of 3
    # head rows of (types + candidates + 1) cells must bound every chunk
    dist = _weighted_joint(3, [((4, 9, 2), 1), ((7, 1, 8), 2)])
    explicit = {b: [0, 2, 5, 9] for b in all_bundles(3)}
    explicit[(1, 2, 3)] = list(range(40))
    grid = candidate_grid(dist, "explicit", explicit=explicit)
    want = search_optimal(dist, "unrestricted", grid)
    inst = search._Instance(dist, grid)
    J = search._layout(inst, "unrestricted", prune=False).shape[-1]
    assert J == 40 and len(inst.weights) == 2
    cells = len(inst.weights) + J + 1
    monkeypatch.setattr(search, "_CHUNK_BYTES", 3 * cells * search._CELL_BYTES[np.int64])
    heads = []
    mesh_scores = search._mesh_scores

    def recording(inst, layout, fixed_key, rows):
        heads.append(len(rows))
        return mesh_scores(inst, layout, fixed_key, rows)

    monkeypatch.setattr(search, "_mesh_scores", recording)
    got = search_optimal(dist, "unrestricted", grid)
    assert max(heads) == 3 and len(heads) > 1
    assert (got.best, got.revenue, got.examined, got.skipped) == \
        (want.best, want.revenue, want.examined, want.skipped)


@pytest.mark.parametrize("nudge, path", [(0, "int64-scaled"), (F(1, 2**40), "bigint")],
                         ids=["int64-keys", "bigint-keys"])
def test_rescoring_scores_each_payment_vector_once(monkeypatch, nudge, path):
    # item-1 prices above every value are never paid, so the 16 window menus
    # share 2 payment vectors; (5, 3, 7) and (3, 3, 5) tie exactly, and the
    # lexicographically smallest, (3, 3, 5), pays by the later vector. A
    # 2^-40 nudge on never-paid bundle prices pushes the keys past int64,
    # where the scores are exact and nothing is rescored.
    dist = _int64_scaled_joint([(0, 0), (1, 1)], [((0, 3), 3), ((5, 2), 2), ((2, 5), 2)])
    high = list(range(8, 14))
    grid = candidate_grid(dist, "explicit", explicit={
        (1,): [0, 2, 3, 4, 5] + high, (2,): [0, 2, 3, 5] + high,
        (1, 2): [5, 7] + [h + nudge for h in high]})
    windows, scored = [], []
    exact_best, exact_scores = search._exact_best, search._exact_scores

    def spy_best(inst, rows):
        windows.append(list(rows))
        return exact_best(inst, windows[-1])

    def spy_scores(inst, pay):
        scored.append(len(pay))
        return exact_scores(inst, pay)

    monkeypatch.setattr(search, "_exact_best", spy_best)
    monkeypatch.setattr(search, "_exact_scores", spy_scores)
    res = search_optimal(dist, "unrestricted", grid)

    assert res.path == path
    oracle_menu, oracle_rev, oracle_examined = oracle_search(dist, "unrestricted", grid)
    assert (res.best, res.revenue, res.examined) == (oracle_menu, oracle_rev, oracle_examined)
    assert res.best.prices == (3, 3, 5)
    assert res.revenue == F(133738888182137624203, 32281800625753162421)
    if path == "bigint":
        assert (res.rescored, windows, scored) == (0, [], [])
        return
    assert res.rescored == len(windows[0]) == 16
    inst = search._Instance(dist, grid)
    every = range(len(inst.order))
    vectors = {row: tuple(search._payments(inst, search._fixed_key(inst, every, row)))
               for row in windows[0]}
    assert scored == [len(set(vectors.values()))] == [2]
    tied = sorted(set(vectors.values()))
    assert [reference.menu_revenue(Menu(2, p), dist.atoms)
            for p in [(5, 3, 7), (3, 3, 5)]] == [oracle_rev] * 2
    assert vectors[min(vectors)] == tied[1]
    assert min(vectors) == tuple(p * inst.L for p in (3, 3, 5))


# ---------------------------------------------------------------------------
# Exchangeable items
# ---------------------------------------------------------------------------

def _mirrored(dist):
    """`dist` symmetrized: each atom's mass spread evenly over its n! relabelings."""
    perms = list(itertools.permutations(range(dist.n)))
    return JointDistribution.from_pairs(dist.n, [(tuple(v[i] for i in s), p / len(perms))
                                                 for v, p in dist.atoms for s in perms])


def _iid_product(rng, n):
    part = random_single_item(rng, max_atoms=3 if n == 2 else 2, max_value=3 if n == 2 else 1)
    return product([part] * n)


def _mirrored_joint(rng, n):
    return _mirrored(random_correlated_joint(rng, n=n, max_atoms=3, max_value=3 if n == 2 else 1))


def _mirrored_bigint_joint(rng):
    # 1-2 mirrored types with values in [0, 3] on a 2^-40 lattice: scaled keys pass int64
    vectors = {tuple(F(rng.randint(0, 3 << 40), 1 << 40) for _ in range(2))
               for _ in range(rng.randint(1, 2))}
    return _mirrored(_weighted_joint(2, [(v, rng.randint(1, 5)) for v in sorted(vectors)]))


def _recording_blocks(monkeypatch):
    """Record, per search, whether its layout is ascending and the fixed
    prices of every block it enumerates."""
    seen, enumerate_blocks = [], search._enumerate_blocks

    def recording(layout, blocks):
        blocks = list(blocks)
        seen.append((layout.ascending, blocks))
        return enumerate_blocks(layout, blocks)

    monkeypatch.setattr(search, "_enumerate_blocks", recording)
    return seen


def _assert_matches_oracle(dist, grid, seen):
    """Search every constraint and compare (best, revenue, examined) with the
    oracle's; returns the results."""
    results = []
    for constraint in search.CONSTRAINTS:
        res = search_optimal(dist, constraint, grid)
        want = oracle_search(dist, constraint, grid, monotone=res.pruned)
        assert (res.best, res.revenue, res.examined) == want, (constraint, dist.atoms)
        assert res.to_json_dict()["exchangeable"] is res.exchangeable
        ascending, blocks = seen[-1]
        assert ascending == (res.exchangeable and constraint in
                             ("unrestricted", "submodular", "additive"))
        if res.exchangeable:
            assert all(list(p[:dist.n]) == sorted(p[:dist.n]) for p in blocks), constraint
        results.append(res)
    return results


def _swaps_keep_atoms(dist):
    """Whether each adjacent transposition of the items maps the atom set onto itself."""
    atoms = set(dist.atoms)
    return all({(v[:i] + (v[i + 1], v[i]) + v[i + 2:], p) for v, p in atoms} == atoms
               for i in range(dist.n - 1))


@pytest.mark.parametrize("path", ["int64", "int64-scaled", "bigint"])
def test_exchangeable_search_matches_oracle(monkeypatch, path):
    # seeded exchangeable instances (IID products of 2 and 3 items, mirrored
    # correlated joints) on integer and support-sums grids: only blocks with
    # ascending single prices are searched, each counted once per
    # arrangement, and every constraint still gives the oracle's optimum and
    # count; some optima have tied single prices, and some searched blocks
    # stand for more than one arrangement
    rng = random.Random({"int64": 11, "int64-scaled": 12, "bigint": 13}[path])
    seen = _recording_blocks(monkeypatch)
    makers = [lambda: _iid_product(rng, 2), lambda: _iid_product(rng, 3),
              lambda: _mirrored_joint(rng, 2), lambda: _mirrored_joint(rng, 3)]
    checked = tied = 0
    while checked < 12:
        if path == "bigint":
            dist, mode = _mirrored_bigint_joint(rng), "support-sums"
        else:
            dist, mode = makers[checked % 4](), ("integer-grid", "support-sums")[checked // 4 % 2]
            if path == "int64-scaled":
                dist = _with_tiny_atom(dist)
        grid = candidate_grid(dist, mode)
        # an all-zero point mass takes no tiny atom and every menu earns 0
        if grid.prices[-1][-1] == 0 or math.prod(len(ps) for ps in grid.prices) > 900:
            continue
        assert _swaps_keep_atoms(dist)
        for res in _assert_matches_oracle(dist, grid, seen):
            assert res.path == path and res.exchangeable
            singles = res.best.prices[:dist.n]
            tied += res.constraint == "unrestricted" and len(set(singles)) < dist.n
        checked += 1
    # a block whose first two single prices differ has more than one arrangement
    twins = sum(p[0] != p[1] for ascending, blocks in seen if ascending for p in blocks)
    assert tied > 0 and twins > 0


def test_search_without_exchangeable_items_matches_oracle(monkeypatch):
    # a mirrored joint with one off-diagonal atom's mass nudged, three items
    # of which only the first two are exchangeable, and an explicit grid whose
    # single axes differ: every block is searched, and counted once
    rng = random.Random(14)
    seen = _recording_blocks(monkeypatch)
    cases = []
    while len(cases) < 4:
        dist = _mirrored_joint(rng, 2)
        k = next((k for k, (v, _) in enumerate(dist.atoms) if v[0] != v[1]), None)
        if k is None:
            continue
        masses = [p * F(101, 100) if j == k else p for j, (_, p) in enumerate(dist.atoms)]
        nudged = JointDistribution.from_pairs(
            2, [(v, q / sum(masses)) for (v, _), q in zip(dist.atoms, masses)])
        cases.append((nudged, candidate_grid(nudged, "integer-grid")))
    a, b = uniform([0, 1]), uniform([1])
    partial = product([a, a, b])
    cases.append((partial, candidate_grid(partial, "integer-grid")))
    iid = product([uniform([0, 1, 2])] * 2)
    cases.append((iid, candidate_grid(iid, "explicit", explicit={
        (1,): [0, 1, 2], (2,): [0, 1, 3], (1, 2): [0, 1, 2, 3, 4]})))
    for dist, grid in cases:
        assert _swaps_keep_atoms(dist) == (dist is iid)
        for res in _assert_matches_oracle(dist, grid, seen):
            assert not res.exchangeable


def test_arrangements_count_distinct_orders():
    for prices in [(), (3,), (1, 1), (1, 2), (2, 2, 2), (1, 1, 2), (1, 2, 3), (0, 5, 0, 5)]:
        assert search._arrangements(prices) == len(set(itertools.permutations(prices)))


def test_exchangeable_check_never_asks_the_distribution():
    # the check runs on the scaled instance, in integers: the distribution
    # has no symmetry test of its own to ask
    dist = _mirrored(_weighted_joint(2, [((3, 1), 2), ((2, 2), 1), ((0, 3), 4)]))
    for mode in ("integer-grid", "support-sums"):
        res = search_optimal(dist, "unrestricted", candidate_grid(dist, mode))
        assert res.exchangeable

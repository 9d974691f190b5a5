import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import oracle_search
from menurev import (
    JointDistribution,
    buyer_choice,
    candidate_grid,
    expected_revenue,
    gap_report,
    product,
    search_optimal,
    uniform,
)
from menurev.instances import random_correlated_joint, random_single_item
from menurev.model import all_bundles, is_submodular, is_symmetric_menu
from menurev import search
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


def test_integer_grid_rejects_fractional_support():
    dist = product([uniform([F(1, 2), 1])])
    with pytest.raises(SearchError, match="non-integer"):
        candidate_grid(dist, "integer-grid")


def test_support_sums_grid():
    dist = _point_mass_joint(3, 4)
    grid = candidate_grid(dist, "support-sums")
    assert grid.prices[2] == (F(0), F(3), F(4), F(7))


def test_explicit_grid_echoes_input():
    dist = _point_mass_joint(1, 2)
    grid = candidate_grid(dist, "explicit",
                          explicit={(1,): [1, 2], (2,): [2], (1, 2): [3, "7/2"]})
    assert grid.prices == ((F(1), F(2)), (F(2),), (F(3), F(7, 2)))


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
    assert doc["stages"] == {k: round(v, 6) for k, v in res.stages.items()}
    assert set(res.stages) == set(search.STAGES)
    assert all(v >= 0 for v in res.stages.values())
    assert sum(res.stages.values()) <= res.elapsed
    small = _point_mass_joint(3, 4)
    pruned = search_optimal(small, "submodular", candidate_grid(small, "integer-grid"))
    assert pruned.to_json_dict()["pruned"] is True


def test_constraint_alias(example5):
    grid = candidate_grid(example5, "support-sums")
    res = search_optimal(example5, "symmetric-submodular", grid)
    assert res.constraint == "symmetric-and-submodular"
    assert is_symmetric_menu(res.best) and is_submodular(res.best)


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
    doc = report.to_json_dict()
    assert doc["ratios"]["drev/srev"]["exact"] == "25/17"


def test_gap_report_single_item():
    dist = product([uniform([1, 2, 4])])
    grid = candidate_grid(dist, "integer-grid")
    report = gap_report(dist, grid)
    values = {name: r.revenue for name, r in report.results.items()}
    assert len(set(values.values())) == 1  # all classes coincide for one item


def _float_path_joint(tiny, regular):
    """Atoms tiny[0], tiny[1] of probability 1/_P, 1/_Q; the regular
    (valuation, weight) atoms share the remaining mass in proportion to weight."""
    rest = 1 - F(1, _P) - F(1, _Q)
    total = sum(w for _, w in regular)
    pairs = [(tiny[0], F(1, _P)), (tiny[1], F(1, _Q))]
    return JointDistribution.from_pairs(2, pairs + [(v, rest * F(w, total)) for v, w in regular])


def test_float_screening_path_matches_oracle():
    # the weight lcm passes int64, forcing float screening with exact re-scoring
    dist = _float_path_joint([(3, 1), (1, 4)], [((2, 2), 1)])
    grid = candidate_grid(dist, "support-sums")
    res = search_optimal(dist, "unrestricted", grid)
    assert res.path == "float-screen"
    assert 0 < res.rescored <= res.examined
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


def _float_weights_instance(rng):
    # 2-4 random types with values 0-6 beside the two tiny-probability atoms
    vectors = rng.sample([(a, b) for a in range(7) for b in range(7)], rng.randint(2, 4) + 2)
    dist = _float_path_joint(vectors[:2], [(v, rng.randint(1, 5)) for v in vectors[2:]])
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


@pytest.mark.parametrize("make, path", [
    (_int64_weights_instance, "int64"),
    (_float_weights_instance, "float-screen"),
    (_bigint_keys_instance, "float-screen-bigint"),
    (_four_item_instance, "int64"),
], ids=["int64-weights", "float-weights", "bigint-keys", "four-items"])
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
        checked += 1


def test_tie_heavy_window_keeps_exact_winner():
    # prices above every value are never paid, so many menus tie exactly; the
    # window must rescore them all and keep the lexicographically smallest winner
    dist = _float_path_joint([(3, 1), (1, 4)], [((2, 2), 1)])
    grid = candidate_grid(dist, "explicit", explicit={
        (1,): [0, 1, 2, 3, 8, 9], (2,): [0, 1, 2, 4, 8, 9], (1, 2): [2, 3, 4, 5, 10, 11, 12]})
    res = search_optimal(dist, "unrestricted", grid)
    assert res.path == "float-screen"
    oracle_menu, oracle_rev, _ = oracle_search(dist, "unrestricted", grid)
    assert (res.best, res.revenue) == (oracle_menu, oracle_rev)
    assert res.rescored == 16


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
    assert res.path == "float-screen-bigint"
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


@pytest.mark.parametrize("den, dtype", [(4, np.int64), (1 << 40, object)], ids=["int64", "object"])
def test_block_kernel_matches_buyer_choice(den, dtype):
    # the key tables, the fixed columns and the all-fixed rescoring kernel
    # must reproduce the buyer's payment on random menus of every layout
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
            subs = np.unravel_index(idx, layout.shape) if layout.axes else ()
            fixed_key = search._fixed_key(inst, layout.fixed, prices)
            pays = search._payments(inst, fixed_key, layout.tables, subs)
            for row, pay in zip(layout.rows(prices, subs, len(idx) if subs else 1), pays):
                want = [buyer_choice(inst.menu_from_scaled(row), v).payment * inst.L
                        for v, _ in dist.atoms]
                assert pay.tolist() == want, (constraint, row)
                alone = search._payments(inst, search._fixed_key(inst, every, row), (), ())
                assert alone[0].tolist() == want, (constraint, row)
                checked += 1
    assert checked > 50


# (menu, menus examined) of example 4's integer-grid optimum per constraint
_EXAMPLE4 = {
    "symmetric": ((6, 6, 6, 7, 7, 7, 9), 819),
    "submodular": ((5, 6, 6, 7, 7, 8, 9), 13998),
    "symmetric-and-submodular": ((5, 5, 5, 7, 7, 7, 9), 84),
    "additive": ((5, 5, 5, 10, 10, 10, 15), 343),
    "bundle-only": ((8, 8, 8, 8, 8, 8, 8), 19),
}


@pytest.mark.parametrize("constraint", sorted(_EXAMPLE4))
def test_example4_optimum_and_examined(example4, constraint):
    res = search_optimal(example4, constraint, candidate_grid(example4, "integer-grid"))
    menu, examined = _EXAMPLE4[constraint]
    assert res.best.prices == menu
    assert res.examined == examined
    assert res.path == "int64" and res.pruned

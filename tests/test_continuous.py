import bisect
import itertools
import math
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import bundle_price_sweep, oracle_bundle_sweep, oracle_er_discretize
from menurev import continuous, rational
from menurev.continuous import (
    NumericParams,
    er_cap_sweep,
    er_discretize,
    numeric_gap_er,
    solve_w,
)
from menurev.instances import random_single_item
from menurev.model import SingleItemDistribution

FAST = NumericParams(cap=400.0, grid_points=400)


def test_solve_w_value_and_residual():
    w = solve_w()
    assert 1.2784 < w < 1.2785
    assert abs((w - 1) * math.exp(w) - 1) < 1e-12
    assert solve_w() == w  # deterministic


def test_w_bracket_signs():
    assert (1 - 1) * math.exp(1) - 1 < 0
    assert (2 - 1) * math.exp(2) - 1 > 0


def test_discretization_mass_and_domination():
    d = er_discretize(1.0, FAST)
    assert sum(q for _, q in d.atoms) == 1
    for v, _ in d.atoms[::17]:
        assert d.tail(v) <= min(F(1), F(1) / v)
    assert float(d.support[-1]) == pytest.approx(400.0, rel=1e-5)


def test_discretization_single_price_revenue():
    d = er_discretize(1.0, FAST)
    for p in (2.0, 10.0, 50.0):
        rev = float(F(p) * d.tail(F(p)))
        assert rev == pytest.approx(1.0, rel=0.02)


@pytest.mark.parametrize("r, cap, points", [
    (1.0, 1e4, 2400), (0.3, 100.0, 100), (1.1, 1e3, 1000), (7.77, 1e4, 600),
    (1e-3, 50.0, 300), (2.5, 1e7, 300), (1.0, 1e7, 2400),
])
def test_discretization_matches_fraction_oracle(r, cap, points):
    # the integer construction gives exactly the atoms of the Fraction one,
    # also for levels that are not dyadic and for grids too coarse to keep
    # every point apart
    params = NumericParams(cap=cap, grid_points=points)
    assert er_discretize(r, params) == oracle_er_discretize(r, params)
    rng = random.Random(f"{r}/{cap}")
    for _ in range(3):
        level = rng.uniform(0.01, 20.0)
        assert er_discretize(level, params) == oracle_er_discretize(level, params), level


def test_discretization_requires_cap_above_r():
    with pytest.raises(ValueError, match="cap"):
        er_discretize(500.0, FAST)
    with pytest.raises(ValueError, match="grid_points"):
        NumericParams(grid_points=50)


@pytest.mark.parametrize("field, value, message", [
    ("cap", math.inf, "cap must be finite"),
    ("cap", math.nan, "cap must be finite"),
    ("cap", "1e4", "cap must be a real number, got '1e4'"),
    ("cap", True, "cap must be a real number, got True"),
    ("grid_points", 1000.5, "grid_points must be an int, got 1000.5"),
    ("grid_points", 2.0 ** 70, r"grid_points must be an int, got 1\.1805916207174113e\+21"),
    ("grid_points", True, "grid_points must be an int, got True"),
])
def test_params_reject_bad_fields(field, value, message):
    with pytest.raises(ValueError, match=message):
        NumericParams(**{field: value})


def _scaled(d1, d2):
    """The values of d1 and d2 as integers over the lcm of all their denominators."""
    scale = math.lcm(*(v.denominator for v in d1.support + d2.support))
    return [int(v * scale) for v in d1.support], [int(v * scale) for v in d2.support]


def _sweep_regime(a, b):
    """The keys the sweep orders the pairs of the integer values a and b by:
    "packed" (the sum's distance below the top sum, then the flat index, in
    one int64), else the distance alone, in "int64" or in "python-int"."""
    top = a[-1] + b[-1]
    bits = (len(a) - 1).bit_length() + (len(b) - 1).bit_length()
    if (top + 1) << bits < 1 << 63:
        return "packed"
    return "int64" if top + 1 < 1 << 63 else "python-int"


# (cap, grid points, whether the sweep packs its keys); the grids that do not
# pack them order int64 distances
_SWEEP_GRIDS = [
    (1e4, 1000, True),
    (1e6, 1000, True),
    (1e7, 300, True),
    (1e7, 600, False),
    (1e9, 100, False),
]


def _sweep_levels(cap, points):
    rng = random.Random(f"{cap}/{points}")
    r = rng.randint(4, 32) / 8
    return [(r, r), (r, rng.choice([x / 8 for x in range(4, 33) if x != 8 * r]))]


@pytest.mark.parametrize("cap, points, packed", _SWEEP_GRIDS)
def test_bundle_sweep_matches_oracle_bit_for_bit(cap, points, packed):
    # equal levels sum symmetrically, so many pairs tie and only the flat
    # index orders them
    for r1, r2 in _sweep_levels(cap, points):
        params = NumericParams(cap=cap, grid_points=points)
        d1, d2 = er_discretize(r1, params), er_discretize(r2, params)
        assert _sweep_regime(*_scaled(d1, d2)) == ("packed" if packed else "int64")
        assert bundle_price_sweep(d1, d2) == oracle_bundle_sweep(d1, d2), (r1, r2)
        assert bundle_price_sweep(d2, d1) == oracle_bundle_sweep(d2, d1), (r2, r1)


def _tie_instances(unit):
    # integer values 1-40 make many equal sums of unequal masses, whose
    # accumulation order shows in the rounding
    def draw(rng):
        weights = {v * unit: rng.randint(1, 10**6) for v in rng.sample(range(1, 41), rng.randint(5, 30))}
        total = sum(weights.values())
        return SingleItemDistribution.from_pairs([(v, F(w, total)) for v, w in weights.items()])

    rng = random.Random(31)
    return [(draw(rng), draw(rng)) for _ in range(20)]


@pytest.mark.parametrize("unit, packed", [(1, True), (2**55, False)])
def test_bundle_sweep_orders_ties_by_flat_index(unit, packed):
    # scaled by 2^55 the keys no longer pack, and the sweep orders int64
    # distances
    for d1, d2 in _tie_instances(unit):
        assert _sweep_regime(*_scaled(d1, d2)) == ("packed" if packed else "int64")
        assert bundle_price_sweep(d1, d2) == oracle_bundle_sweep(d1, d2)


def _spy_buckets(monkeypatch):
    """Record the exact integer sums of every bucket the sweep takes, in its order."""
    buckets = []
    real = continuous._sweep_order

    def spy(a, b, mirrored):
        for i, j, tied in real(a, b, mirrored):
            buckets.append([a[k] + b[m] for k, m in zip(i.tolist(), j.tolist())])
            yield i, j, tied

    monkeypatch.setattr(continuous, "_sweep_order", spy)
    return buckets


def _check_buckets(buckets, d1, d2):
    # every bucket within the bound and the sums descending across buckets;
    # equal items are swept by their pairs i <= j, no equal sums parted;
    # returns how many boundaries fall between two pairs of equal sums
    n1, n2 = len(d1.atoms), len(d2.atoms)
    bound = max(continuous._BUCKET_PAIRS, min(n1, n2))
    assert len(buckets) > 1
    assert all(0 < len(b) <= bound for b in buckets)
    assert sum(len(b) for b in buckets) == (n1 * (n1 + 1) // 2 if d1 == d2 else n1 * n2)
    edges = [(x[-1], y[0]) for x, y in zip(buckets, buckets[1:])]
    assert all(last >= first for last, first in edges)
    split = sum(last == first for last, first in edges)
    assert d1 != d2 or split == 0
    return split


def _reversed_masses(d):
    """d's support with its masses in reverse order: another item, whose
    pairs with d tie wherever d's pairs with itself do."""
    return SingleItemDistribution(tuple(zip(d.support, [p for _, p in reversed(d.atoms)])))


@pytest.mark.parametrize("cap, points, packed", _SWEEP_GRIDS)
def test_bundle_sweep_in_many_buckets_matches_oracle(monkeypatch, cap, points, packed):
    # packed keys may part equal sums of unequal items between buckets; a
    # distance never, and the pairs i <= j of equal items never. The equal
    # level's support with reversed masses ties as the equal items do, but
    # takes the all-pairs order
    monkeypatch.setattr(continuous, "_BUCKET_PAIRS", 40)
    buckets = _spy_buckets(monkeypatch)
    split_ties = 0
    params = NumericParams(cap=cap, grid_points=points)
    for r1, r2 in _sweep_levels(cap, points):
        d1, d2 = er_discretize(r1, params), er_discretize(r2, params)
        assert _sweep_regime(*_scaled(d1, d2)) == ("packed" if packed else "int64")
        if r1 == r2:
            d2 = _reversed_masses(d1)
            pairs = [(d1, d1), (d1, d2), (d2, d1)]
        else:
            pairs = [(d1, d2), (d2, d1)]
        for a, b in pairs:
            buckets.clear()
            assert bundle_price_sweep(a, b) == oracle_bundle_sweep(a, b), (r1, r2)
            split_ties += _check_buckets(buckets, a, b)
    assert (split_ties > 0) == packed


@pytest.mark.parametrize("unit, packed", [(1, True), (2**55, False)])
def test_bundle_sweep_in_many_buckets_orders_ties(monkeypatch, unit, packed):
    monkeypatch.setattr(continuous, "_BUCKET_PAIRS", 40)
    buckets = _spy_buckets(monkeypatch)
    split_ties = 0
    for d1, d2 in _tie_instances(unit):
        buckets.clear()
        assert bundle_price_sweep(d1, d2) == oracle_bundle_sweep(d1, d2)
        if len(d1.atoms) * len(d2.atoms) > 40:
            split_ties += _check_buckets(buckets, d1, d2)
    assert (split_ties > 0) == packed


def test_bundle_sweep_orders_ties_in_python_ints(monkeypatch):
    # scaled by 2^70 the distances no longer fit int64: the sweep orders
    # Python ints, whole and in many buckets, and never parts equal sums
    for d1, d2 in _tie_instances(2**70):
        assert _sweep_regime(*_scaled(d1, d2)) == "python-int"
        assert bundle_price_sweep(d1, d2) == oracle_bundle_sweep(d1, d2)
    monkeypatch.setattr(continuous, "_BUCKET_PAIRS", 40)
    buckets = _spy_buckets(monkeypatch)
    split_ties = 0
    for d1, d2 in _tie_instances(2**70):
        buckets.clear()
        assert bundle_price_sweep(d1, d2) == oracle_bundle_sweep(d1, d2)
        if len(d1.atoms) * len(d2.atoms) > 40:
            split_ties += _check_buckets(buckets, d1, d2)
    assert split_ties == 0


# 1 to 30 beside 2^60 and 2^61: the keys do not pack, and their distances
# fall in two runs 2^60 apart
_GAPPED = (SingleItemDistribution.from_pairs([(2**60, F(1, 3)), (2**61, F(2, 3))]),
           SingleItemDistribution.from_pairs([(v, F(1, 30)) for v in range(1, 31)]))


def test_bundle_sweep_in_many_buckets_on_rounded_sums(monkeypatch):
    # thirds of 2^55 round in binary64, so pairs of one exact sum can have
    # unequal float sums, and 1 to 30 vanish beside 2^60 and 2^61, so pairs
    # of unequal sums can share a float sum: the exact sums order both, and
    # the buckets hold at most the bound
    monkeypatch.setattr(continuous, "_BUCKET_PAIRS", 10)
    buckets = _spy_buckets(monkeypatch)
    parted = 0
    for d1, d2 in _tie_instances(F(2**55, 3)):
        assert _sweep_regime(*_scaled(d1, d2)) == "int64"
        assert bundle_price_sweep(d1, d2) == oracle_bundle_sweep(d1, d2)
        exact = {x + y for x in d1.support for y in d2.support}
        parted += len({float(x) + float(y) for x in d1.support for y in d2.support}) > len(exact)
    assert parted > 0
    for a, b in (_GAPPED, _GAPPED[::-1]):
        buckets.clear()
        assert _sweep_regime(*_scaled(a, b)) == "int64"
        assert bundle_price_sweep(a, b) == oracle_bundle_sweep(a, b)
        assert sum(buckets, []) == sorted({x + y for x in a.support for y in b.support}, reverse=True)
        assert [len(x) for x in buckets] == [8, 8, 7, 7, 2, 8, 8, 8, 4]


def _unit_steps(unit, rng):
    """An item on consecutive multiples of `unit` with uneven masses: twice
    any inner value is the sum of several pairs, the diagonal pair last."""
    start = rng.randint(1, 20)
    weights = [rng.randint(1, 10**6) for _ in range(rng.randint(8, 40))]
    return SingleItemDistribution.from_pairs(
        [((start + k) * unit, F(w, sum(weights))) for k, w in enumerate(weights)])


def _spy_groups(monkeypatch):
    """Record, for every bucket of a mirrored sweep, its pairs' exact sums
    and whether each lies on the diagonal."""
    buckets = []
    real = continuous._sweep_order

    def spy(a, b, mirrored):
        for i, j, tied in real(a, b, mirrored):
            if mirrored:
                pairs = list(zip(i.tolist(), j.tolist()))
                assert all(k <= m for k, m in pairs)
                sums = [a[k] + b[m] for k, m in pairs]
                assert tied.tolist() == [False] + [x == y for x, y in zip(sums[1:], sums)]
                buckets.append([(x, k == m) for x, (k, m) in zip(sums, pairs)])
            yield i, j, tied

    monkeypatch.setattr(continuous, "_sweep_order", spy)
    return buckets


@pytest.mark.parametrize("bound", [1, 40])
@pytest.mark.parametrize("unit, regime", [(1, "packed"), (2**55, "int64"), (2**70, "python-int")])
def test_mirrored_sweep_matches_oracle_on_unit_steps(monkeypatch, unit, regime, bound):
    # equal items take their pairs i <= j, two slots each; a group of equal
    # sums of two or more pairs, here often closed by a diagonal pair, is
    # reordered in its bucket, and no group is parted between two buckets
    monkeypatch.setattr(continuous, "_BUCKET_PAIRS", bound)
    buckets = _spy_groups(monkeypatch)
    rng = random.Random(f"{unit}/{bound}")
    diagonal_last = 0
    for _ in range(12):
        d = _unit_steps(unit, rng)
        assert _sweep_regime(*_scaled(d, d)) == regime
        buckets.clear()
        assert bundle_price_sweep(d, d) == oracle_bundle_sweep(d, d)
        assert _check_buckets([[total for total, _ in x] for x in buckets], d, d) == 0
        for x in buckets:
            groups = [list(g) for _, g in itertools.groupby(x, key=lambda pair: pair[0])]
            diagonal_last += sum(len(g) > 1 and g[-1][1] for g in groups)
    assert diagonal_last > 0


def test_mirrored_sweep_on_rounded_sums(monkeypatch):
    # thirds of 2^55 round in binary64, so the pairs of one exact sum may
    # have unequal float sums: those groups are read at every slot, each at
    # its own price, as the all-pairs order reads them
    parted = 0
    for bound in (10, 1 << 15):
        monkeypatch.setattr(continuous, "_BUCKET_PAIRS", bound)
        rng = random.Random(bound)
        for _ in range(12):
            d = _unit_steps(F(2**55, 3), rng)
            assert _sweep_regime(*_scaled(d, d)) == "int64"
            assert bundle_price_sweep(d, d) == oracle_bundle_sweep(d, d)
            values = [float(v) for v in d.support]
            floats = {}
            for x, y in itertools.combinations_with_replacement(range(len(values)), 2):
                floats.setdefault(x + y, set()).add(values[x] + values[y])
            parted += any(len(f) > 1 for f in floats.values())
    assert parted > 0


def _spy_orders(monkeypatch):
    """Record whether each sweep took the mirrored order."""
    orders = []
    real = continuous._sweep_order
    monkeypatch.setattr(continuous, "_sweep_order",
                        lambda a, b, mirrored: orders.append(mirrored) or real(a, b, mirrored))
    return orders


def test_equal_items_take_the_mirrored_order(monkeypatch):
    # equal levels, equal grids and equal distributions, also as distinct
    # objects, sweep their pairs i <= j; unequal items, also a support shared
    # with unequal masses, sweep all pairs
    from menurev.cli import main
    orders = _spy_orders(monkeypatch)
    numeric_gap_er(1.5, 1.5, FAST)
    assert orders == [True, True]  # the report's sweep and the companion's
    orders.clear()
    er_cap_sweep(1.0, 1.0, caps=(50.0, 400.0), points=(150, 600))
    assert orders == [True, True]
    orders.clear()
    assert main(["reproduce", "er-gap"]) == 0
    assert orders == [True] * 4
    orders.clear()
    numeric_gap_er(1.5, _Unequal(1.5), FAST)
    grid = continuous._er_grid(1.0, FAST)
    continuous._grid_sweep(grid, ([*grid[0]], [*grid[1]]))
    d = er_discretize(1.0, FAST)
    bundle_price_sweep(d, er_discretize(1.0, FAST))
    assert orders == [True] * 4
    orders.clear()
    numeric_gap_er(1.0, 2.0, FAST)
    numeric_gap_er(1.0, 2.0, FAST, include_drev=False)
    bundle_price_sweep(d, er_discretize(2.0, FAST))
    bundle_price_sweep(d, _reversed_masses(d))
    assert orders == [False] * 5


def _bisection(keys, start, marks, cap):
    """The thresholds of a bisection of the sorted keys: each range [s, t)
    between consecutive marks that holds more than cap keys is halved at
    (s + t) // 2, the lower half first."""
    thresholds = [start]

    def visit(s, t):
        if bisect.bisect_left(keys, t) - bisect.bisect_left(keys, s) > cap:
            thresholds.append((s + t) // 2)
            visit(s, (s + t) // 2)
            visit((s + t) // 2, t)

    for s, t in zip([start] + marks, marks):
        thresholds.append(t)
        visit(s, t)
    return thresholds


def test_bundle_sweep_splits_buckets_at_integer_midpoints(monkeypatch):
    # the sample leaves buckets over the bound, and each is halved at the
    # integer midpoint of its thresholds until it holds at most the bound
    monkeypatch.setattr(continuous, "_BUCKET_PAIRS", 10)
    seen, real = [], continuous._buckets

    def recording(before, start, marks, cap):
        seen.append((start, marks, cap, []))
        return real(lambda t: seen[-1][3].append(t) or before(t), start, marks, cap)

    monkeypatch.setattr(continuous, "_buckets", recording)
    for a, b in (_GAPPED, _GAPPED[::-1]):
        seen.clear()
        assert bundle_price_sweep(a, b) == oracle_bundle_sweep(a, b)
        ((start, marks, cap, thresholds),) = seen
        x, y = _scaled(a, b)
        keys = sorted(x[-1] + y[-1] - p - q for p in x for q in y)
        assert thresholds == _bisection(keys, start, marks, cap)
        assert len(thresholds) > len(marks) + 1


def test_bundle_sweep_keeps_the_first_of_equal_revenues(monkeypatch):
    # prices 4 and 2 both earn exactly 2: the sweep reports the first, the
    # higher price, also when each pair is a bucket of its own
    monkeypatch.setattr(continuous, "_BUCKET_PAIRS", 1)
    d1 = SingleItemDistribution.from_pairs([(1, F(1, 2)), (3, F(1, 2))])
    d2 = SingleItemDistribution.from_pairs([(1, F(1))])
    assert bundle_price_sweep(d1, d2) == oracle_bundle_sweep(d1, d2) == (2.0, 4.0)


def test_bundle_sweep_memory_is_bounded():
    # the 2400-point sweep held all 5.76 million pairs at once, 176 MiB at
    # its peak; in buckets its temporaries stay a few MiB, with packed keys
    # (cap 1e4) and with int64 distances (cap 1e6)
    for cap, regime in ((1e4, "packed"), (1e6, "int64")):
        d = er_discretize(1.0, NumericParams(cap=cap, grid_points=2400))
        assert _sweep_regime(*_scaled(d, d)) == regime
        tracemalloc.start()
        try:
            bundle_price_sweep(d, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, cap


def test_er_gap_floats_are_pinned():
    # brev and its price at 2400 points, and the cap sweep's brev, as the
    # whole-array sweep computed them
    report = numeric_gap_er(1.0, 1.0, NumericParams(cap=1e4, grid_points=2400))
    assert (report.brev.hex(), report.brev_price.hex()) == ("0x1.46b195c939f0fp+1", "0x1.22fc9c0000000p+2")
    assert [r.brev.hex() for r in er_cap_sweep(1.0, 1.0)] == [
        "0x1.450db84114e13p+1", "0x1.463c8633c4c9ep+1", "0x1.46b195c939f0fp+1"]


@pytest.mark.parametrize("cap, points, regime, brev, price", [
    (1e4, 1000, "packed", "0x1.45e59a95fa08dp+1", "0x1.22471c0000000p+2"),
    (1e6, 1000, "packed", "0x1.45491ef67d981p+1", "0x1.239e740000000p+2"),
    (1e7, 1000, "int64", "0x1.44e3c264a79dfp+1", "0x1.2093480000000p+2"),
    (1e13, 300, "python-int", "0x1.3bbdd11eb5bcap+1", "0x1.2a14f80000000p+2"),
])
def test_er_gap_regimes_are_pinned(cap, points, regime, brev, price):
    # brev and its price at level 1, one report per key regime, as the
    # packed-key and float-sum sweeps computed them; the exact oracle agrees
    params = NumericParams(cap=cap, grid_points=points)
    report = numeric_gap_er(1.0, 1.0, params, include_drev=False)
    assert (report.brev.hex(), report.brev_price.hex()) == (brev, price)
    d = er_discretize(1.0, params)
    assert _sweep_regime(*_scaled(d, d)) == regime
    assert oracle_bundle_sweep(d, d) == (report.brev, report.brev_price)


def test_random_distribution_dominated_by_matching_er(rng):
    # any distribution with best single-price revenue r sits below the
    # level-r equal-revenue tail everywhere
    for _ in range(60):
        d = random_single_item(rng, max_atoms=5, max_value=30)
        r = max(v * d.tail(v) for v, _ in d.atoms)
        if r == 0:
            continue
        for v, _ in d.atoms:
            if v > 0:
                assert d.tail(v) <= min(F(1), r / v)


def test_numeric_gap_fast_params():
    report = numeric_gap_er(1.0, 1.0, FAST)
    w = solve_w()
    assert report.srev == 2.0
    assert report.brev <= 2 * w + 1e-9
    assert report.brev == pytest.approx(2 * w, rel=0.02)
    assert report.drev is not None
    assert abs(report.drev - report.brev) <= report.tolerance
    assert report.to_json_dict()["brev/srev"] == pytest.approx(report.brev / 2)


def test_tolerance_only_with_drev():
    # the tolerance is the companion grid's bound on |drev - brev|, so a report
    # without a companion carries none (at levels 200 that grid's ratio would
    # lie below 1); drev is the float of drev_exact
    assert numeric_gap_er(200.0, 200.0, NumericParams(cap=1e4, grid_points=300),
                          include_drev=False).tolerance is None
    sweep = er_cap_sweep(1.0, 1.0, caps=(50.0, 400.0), points=(150, 600))
    assert [(r.tolerance, r.drev, r.drev_exact) for r in sweep] == [(None, None, None)] * 2
    assert sweep[0].to_json_dict()["tolerance"] is None
    report = numeric_gap_er(1.0, 1.0, FAST)
    assert report.tolerance.hex() == "0x1.dc06bf8e08f66p-4"
    assert report.drev == float(report.drev_exact)


def test_asymmetric_levels():
    report = numeric_gap_er(1.0, 2.0, FAST, include_drev=False)
    assert report.srev == 3.0
    assert report.brev <= solve_w() * 3.0 + 1e-9


@pytest.mark.parametrize("cap, points, message", [
    ("400", 150, "^cap must be a real number, got '400'$"),
    (400.0, 150.9, "^grid_points must be an int, got 150.9$"),
])
def test_cap_sweep_checks_its_levels_as_given(cap, points, message):
    # the cap sweep hands each level to NumericParams unconverted, so a
    # string cap or a fractional point count is refused, not rounded
    with pytest.raises(ValueError, match=message):
        er_cap_sweep(1.0, 1.0, caps=(cap,), points=(points,))


def test_cap_sweep_climbs_toward_w():
    w = solve_w()
    sweep = er_cap_sweep(1.0, 1.0, caps=(50.0, 400.0), points=(150, 600))
    ratios = [r.brev_over_srev for r in sweep]
    assert ratios[0] < ratios[1] < w


class _Unequal(float):
    """A level that compares unequal to everything, so no discretization is shared."""

    def __eq__(self, other):
        return False

    __hash__ = float.__hash__


def _spy(monkeypatch, name):
    """Record the level of every call of continuous.<name>(r, params)."""
    calls = []
    real = getattr(continuous, name)
    monkeypatch.setattr(continuous, name, lambda r, p: calls.append(r) or real(r, p))
    return calls


def test_equal_levels_reuse_one_discretization(monkeypatch):
    grids = _spy(monkeypatch, "_er_grid")
    reused = numeric_gap_er(1.5, 1.5, FAST)
    assert len(grids) == 2  # the sweep's level and the companion's, once each
    recomputed = numeric_gap_er(1.5, _Unequal(1.5), FAST)
    assert len(grids) == 6
    assert replace(recomputed, r2=1.5) == reused


def test_reports_build_no_discretization(monkeypatch):
    # the sweeps read the integer grids and the companion is built from the
    # grid that gives its bundle price, so no report calls er_discretize
    discretized = _spy(monkeypatch, "er_discretize")
    numeric_gap_er(1.5, 2.0, FAST, include_drev=False)
    er_cap_sweep(1.0, 1.0, caps=(50.0, 400.0), points=(150, 600))
    numeric_gap_er(1.5, 1.5, FAST)
    numeric_gap_er(1.5, 2.0, FAST)
    assert discretized == []


def _recording_sweeps(monkeypatch):
    """Record the integer values, float values and float masses every sweep
    is given, and its last threshold: the top sum + 1, shifted above the
    index bits where the keys are packed and the items unequal (equal items
    count their thresholds in whole sums)."""
    seen = []
    real_sweep, real_buckets = continuous._sweep, continuous._buckets

    def sweep(a, v1, w1, b, v2, w2):
        seen.append([a, b] + [x.tobytes() for x in (v1, w1, v2, w2)])
        return real_sweep(a, v1, w1, b, v2, w2)

    def buckets(before, start, marks, cap):
        seen[-1].append(marks[-1])
        return real_buckets(before, start, marks, cap)

    monkeypatch.setattr(continuous, "_sweep", sweep)
    monkeypatch.setattr(continuous, "_buckets", buckets)
    return seen


@pytest.mark.parametrize("cap, points, packed", _SWEEP_GRIDS)
def test_grid_sweep_matches_distribution_sweep_bit_for_bit(monkeypatch, cap, points, packed):
    # the grid-fed sweep is given the very integers and floats that the
    # sweep of the discretized distributions computes from their Fractions,
    # so it takes the same keys and buckets, and reports the same floats
    seen = _recording_sweeps(monkeypatch)
    params = NumericParams(cap=cap, grid_points=points)
    for r1, r2 in _sweep_levels(cap, points):
        g1, g2 = continuous._er_grid(r1, params), continuous._er_grid(r2, params)
        d1, d2 = er_discretize(r1, params), er_discretize(r2, params)
        for (a, b), (x, y) in (((g1, g2), (d1, d2)), ((g2, g1), (d2, d1))):
            seen.clear()
            result = continuous._grid_sweep(a, b)
            assert result == bundle_price_sweep(x, y), (r1, r2)
            assert len(seen) == 2 and seen[0] == seen[1]
            ints, last = seen[0][:2], seen[0][-1]
            assert _sweep_regime(*ints) == ("packed" if packed else "int64")
            assert (last > ints[0][-1] + ints[1][-1] + 1) == (packed and r1 != r2)


# (level, cap, the one grid point G): every point of these grids floors to
# one multiple of 2^-20, and 0 and 4 share powers of two that 1 does not
_ONE_POINT_GRIDS = [(1e-9, 1e-7, 0), (2.0**-20, 1.5 * 2.0**-20, 1), (2.0**-18, 4.5 * 2.0**-20, 4)]


def test_grid_sweep_of_one_point_grids(monkeypatch):
    seen = _recording_sweeps(monkeypatch)
    grids, dists = [], []
    for r, cap, point in _ONE_POINT_GRIDS:
        params = NumericParams(cap=cap, grid_points=100)
        grids.append(continuous._er_grid(r, params))
        dists.append(er_discretize(r, params))
        assert grids[-1] == ([point], [(1, 1)])
        assert dists[-1].atoms == ((F(point, 1 << 20), F(1)),)
    for (g1, d1), (g2, d2) in itertools.product(zip(grids, dists), repeat=2):
        seen.clear()
        price = float(d1.support[0] + d2.support[0])
        assert continuous._grid_sweep(g1, g2) == bundle_price_sweep(d1, d2) == (price, price)
        assert len(seen) == 2 and seen[0] == seen[1]


def test_search_cap_is_checked_before_any_sweep(monkeypatch):
    grids = _spy(monkeypatch, "_er_grid")
    with pytest.raises(ValueError, match=r"^search_cap 100\.0 must exceed r 200\.0$"):
        numeric_gap_er(200.0, 200.0, NumericParams(cap=1e4, grid_points=300))
    with pytest.raises(ValueError, match=r"^search_cap 100\.0 must exceed r 100\.0$"):
        numeric_gap_er(1.0, 100.0, FAST)
    assert grids == []
    # the search cap bounds only the companion's levels
    assert numeric_gap_er(1.0, 100.0, FAST, include_drev=False).drev is None


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, True, "1"])
def test_non_finite_level_is_rejected(monkeypatch, level):
    # a bool or a string is no level either
    grids = _spy(monkeypatch, "_er_grid")
    message = (f"^r must be finite, got {level}$" if isinstance(level, float)
               else f"^r must be a real number, got {level!r}$")
    with pytest.raises(ValueError, match=message):
        er_discretize(level, FAST)
    for r1, r2 in ((1.0, level), (level, 1.0)):
        with pytest.raises(ValueError, match=message):
            numeric_gap_er(r1, r2, FAST)
        with pytest.raises(ValueError, match=message):
            er_cap_sweep(r1, r2)
    assert len(grids) == 1  # er_discretize's own, which raises on entry


def test_drev_search_of_the_report(monkeypatch):
    # the companion search that numeric_gap_er(1, 1) runs at any cap: menu,
    # revenue and counters; its 55-menu window holds one payment vector. The
    # items are exchangeable, so only blocks with ascending single prices are
    # searched; `examined` and `skipped` still count every feasible menu
    seen = []
    real = continuous.search_optimal
    monkeypatch.setattr(continuous, "search_optimal", lambda *a: seen.append(real(*a)) or seen[-1])
    report = numeric_gap_er(1.0, 1.0, NumericParams(cap=400.0, grid_points=400))
    (res,) = seen
    assert res.best.prices == (F(3681751, 1048576), F(3681751, 1048576), F(4720017, 1048576))
    assert res.revenue == report.drev_exact == F(
        32259053539899245792811998773154679333480279921981513834035028197766190230545856471305193054136431976451026,
        12855115960206617855235602079640855524293459849980007997730964984593755180839871572414612713591011520511295)
    assert res.exchangeable
    assert (res.examined, res.skipped, res.rescored, res.path) == (6253, 0, 55, "int64-scaled")


def test_er_report_scales_the_joint_atoms_once(monkeypatch):
    # the companion's 10^4 probabilities and 20,000 coordinates go over their
    # common denominators once, at the search's first read of the joint's
    # `integer_atoms`; the buyer's final check reads the same form
    sizes = []
    real = rational.over_common_denominator

    def spy(qs):
        qs = list(qs)
        sizes.append(len(qs))
        return real(qs)

    for name, module in list(sys.modules.items()):
        if name.startswith("menurev") and hasattr(module, "over_common_denominator"):
            monkeypatch.setattr(module, "over_common_denominator", spy)
    products = []
    real_product = continuous.product
    monkeypatch.setattr(continuous, "product",
                        lambda parts: products.append(real_product(parts)) or products[-1])
    report = numeric_gap_er(1.0, 1.0, FAST)
    assert report.drev_exact is not None
    (joint,) = products
    assert len(joint.atoms) == 10**4 and "integer_atoms" in vars(joint)
    assert sorted(size for size in sizes if size >= 10**4) == [10**4, 2 * 10**4]

import itertools
import math
import random
import re
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
from menurev.search import SearchError

prices2 = st.lists(st.fractions(0, 20, max_denominator=4), min_size=3, max_size=3)


def test_bundle_order_is_size_then_lex():
    assert all_bundles(3) == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def test_menu_accessors_and_price():
    m = menu2(1, 2, F(7, 2))
    assert m.prices == (F(1), F(2), F(7, 2))
    assert m.price([2, 1]) == F(7, 2)
    with pytest.raises(ValueError):
        Menu(2, (1, -1, 2))


class _Ratio(F):
    """A numbers.Rational that is not a Fraction."""


def test_menu_holds_fractions_and_rejects_the_rest():
    # Menu(n, prices) and menu2 are one construction: ints, Fractions and
    # other rationals are held as Fractions, and every fault names its bundle
    for m in (Menu(2, (1, F(3, 2), _Ratio(5, 2))), menu2(1, F(3, 2), _Ratio(5, 2))):
        assert m.prices == (F(1), F(3, 2), F(5, 2))
        assert [type(p) for p in m.prices] == [F] * 3
    assert menu2(1, 2, 3) == Menu(2, (1, 2, 3)) == Menu(2, (F(1), F(2), F(3)))
    for prices, message in [
        ((F(1), 2.5, 3), r"price of bundle \(2,\) = 2\.5 is a float, not a rational number"),
        ((1, 2, False), r"price of bundle \(1, 2\) = False is a bool, not a rational number"),
        (("1", 2, 3), r"price of bundle \(1,\) = '1' is a str, not a rational number"),
        ((1, _Ratio(-1, 2), 3), r"price of bundle \(2,\) must be nonnegative, got -1/2"),
        ((F(-3), 2, 3), r"price of bundle \(1,\) must be nonnegative, got -3"),
    ]:
        for build in (lambda: Menu(2, prices), lambda: menu2(*prices)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()
    for n, prices, message in [
        (2, (1, 2), "menu for 2 items needs 3 prices, got 2"),
        (1, (1, 2), "menu for 1 items needs 1 prices, got 2"),
        (3, (1,) * 8, "menu for 3 items needs 7 prices, got 8"),
        (0, (), r"item count must be in 1\.\.16, got 0"),
        (-1, (), r"item count must be in 1\.\.16, got -1"),
        (17, (), r"item count must be in 1\.\.16, got 17"),
        (2.0, (1, 2, 3), r"item count must be an int, got 2\.0"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Menu(n, prices)


@pytest.mark.parametrize("bundle, item", [
    ("1", "'1' is a str"), ((1.5,), r"1\.5 is a float"), ((True,), "True is a bool"),
    ((1.0,), r"1\.0 is a float"), ((2, True), "True is a bool"),
], ids=["str", "fractional-float", "bool", "whole-float", "int-and-bool"])
def test_bundle_items_must_be_ints(bundle, item):
    # a bundle's items are ints; a str, a float or a bool never stands for one
    with pytest.raises(ValueError, match=rf"^item {item}, not an int$"):
        menu2(1, 2, 3).price(bundle)
    dist = product([uniform([1, 3])] * 2)
    # first, so that the key (True,) or (1.0,) is kept when (1,) updates it
    explicit = {bundle: [3], (1,): [1], (2,): [1], (1, 2): [2]}
    shown = re.escape(repr(bundle))
    with pytest.raises(SearchError, match=rf"^explicit grid: bundle key {shown}: item {item}, "
                                          "not an int$"):
        candidate_grid(dist, "explicit", explicit=explicit)


def test_menu_rejects_non_rational_prices():
    for price, shown in [(1.5, r"1\.5 is a float"), (True, "True is a bool"),
                         ("1", "'1' is a str"), (None, "None is a NoneType")]:
        with pytest.raises(ValueError, match=rf"^price of bundle \(2,\) = {shown}, not a rational number$"):
            Menu(2, (F(1), price, F(3)))
    with pytest.raises(ValueError, match=r"^price of bundle \(1,\) = 1\.5 is a float"):
        Menu(2, (1.5, 2.0, 3.0))
    with pytest.raises(ValueError, match=r"^price of bundle \(1, 2\) must be nonnegative, got -1/2$"):
        Menu(2, (1, F(2), F(-1, 2)))
    assert Menu(2, (1, F(2), 3)).prices == (1, F(2), 3)


def test_explicit_grid_rejects_repeated_bundle():
    # candidate_grid is the caller of bundle_table, which re-keys the grid
    dist = product([uniform([1, 2]), uniform([1, 2])])
    table = {(1,): [1], (2,): [2], (1, 2): [3]}
    grid = candidate_grid(dist, "explicit", explicit=table)
    assert grid.prices == ((F(1),), (F(2),), (F(3),))
    with pytest.raises(ValueError, match=r"\(2, 1\) repeats bundle \(1, 2\)"):
        candidate_grid(dist, "explicit", explicit={**table, (2, 1): [9]})


def test_submodular_examples():
    assert is_submodular(Menu(3, (5, 6, 6, 7, 7, 8, 9)))
    # p({1,2}) + p({1,3}) = 14 < p({1}) + p({1,2,3}) = 15
    assert not is_submodular(Menu(3, (6, 6, 6, 7, 7, 8, 9)))
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
    return Menu(n, prices)


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
    # at 5 and 6 items the one-element steps stand in for 465 and 1,953
    # bundle pairs: each class predicate against the all-pairs statement
    seen = {"submodular": [0, 0], "monotone": [0, 0]}
    for _ in range(120):
        m = _tie_heavy_menu(rng, rng.randint(5, 6))
        order, p = all_bundles(m.n), (*m.prices, 0)
        got = is_submodular(m)
        assert got == reference.in_class(m.as_dict(), "submodular"), m
        seen["submodular"][got] += 1
        got = all(p[a] >= p[c] for a, _, c, _ in model._lattice_terms(m.n)[0])
        assert got == all(p[order.index(s)] <= p[order.index(t)]
                          for s in order for t in order if set(s) < set(t)), m
        seen["monotone"][got] += 1
    assert all(min(counts) >= 10 for counts in seen.values()), seen


def test_lattice_terms_are_the_one_element_steps():
    # the same statement in item tuples: per bundle S (or the empty one) and
    # items i < j outside it, (S+i, -1, S, -1) for nonempty S and
    # (S+i, S+j, S, S+i+j); at 1 and 2 items these are all the bundle pairs
    counts = {1: 0, 2: 3, 3: 15, 4: 52, 5: 155, 6: 426, 7: 1113}
    for n, count in counts.items():
        order = all_bundles(n)
        index = {frozenset(b): k for k, b in enumerate(order)} | {frozenset(): -1}
        monotone, submodular = set(), set()
        for s in map(frozenset, ((),) + order):
            outside = [i for i in range(1, n + 1) if i not in s]
            for i in outside:
                if s:
                    monotone.add((index[s | {i}], -1, index[s], -1))
                submodular |= {(index[s | {i}], index[s | {j}], index[s], index[s | {i, j}])
                               for j in outside if j > i}
        got = model._lattice_terms(n)
        assert sorted(got[0]) == sorted(monotone) and sorted(got[1]) == sorted(submodular), n
        assert len(got[0]) + len(got[1]) == count, n


def test_is_submodular_walks_only_the_one_element_steps():
    # the additive 10-item menu p(S) = |S| holds every one of the 11,520
    # steps, where the 522,753 bundle pairs took seconds; raising the grand
    # bundle by 1 breaks exactly the steps with |S| = 8
    n = 10
    order = all_bundles(n)
    prices = [F(len(b)) for b in order]
    t0 = time.perf_counter()
    assert is_submodular(Menu(n, tuple(prices)))
    assert time.perf_counter() - t0 < 1
    prices[-1] += 1
    t0 = time.perf_counter()
    assert not is_submodular(Menu(n, tuple(prices)))
    assert time.perf_counter() - t0 < 1
    p = (*prices, 0)
    broken = {len(order[c]) for a, b, c, d in model._lattice_steps(n)
              if b >= 0 and p[a] + p[b] < p[c] + p[d]}
    assert broken == {8}


def test_is_submodular_stops_at_the_first_violation():
    # 16 items have 65,535 bundles and about 2.5 * 10^6 one-element steps;
    # the first, from the empty bundle to {1} and {2}, fails, so the walk
    # stops there and caches no lattice
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
    assert is_symmetric_menu(Menu(3, (6, 6, 6, 7, 7, 7, 9)))
    assert not is_symmetric_menu(Menu(3, (6, 6, 6, 7, 7, 8, 9)))
    assert is_symmetric_menu(Menu(1, (4,)))


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


def _spy_from_pairs(monkeypatch):
    """The `where` of every `SingleItemDistribution.from_pairs` call from now on."""
    calls = []
    parse = SingleItemDistribution.from_pairs

    def spy(cls, pairs, where="distribution"):
        calls.append(where)
        return parse(pairs, where)

    monkeypatch.setattr(SingleItemDistribution, "from_pairs", classmethod(spy))
    return calls


def _joint_by_pairs(parts):
    """The product as `JointDistribution.from_pairs` builds it from all atom pairs."""
    return JointDistribution.from_pairs(len(parts), reference.product_atoms(*parts))


def test_product_checks_canonical_parts_in_one_pass(monkeypatch):
    """Canonical parts never reach `from_pairs`; every other part does, once,
    and gives the result or the located fault it gave before."""
    from menurev.continuous import NumericParams, _distribution, _er_grid
    rng = random.Random(35)
    canonical = [random_single_item(rng) for _ in range(40)]
    er = _distribution(_er_grid(1.0, NumericParams(100.0, 100)))
    calls = _spy_from_pairs(monkeypatch)
    for d1, d2 in zip(canonical[::2], canonical[1::2]):
        assert product([d1, d2]) == _joint_by_pairs([d1, d2])
    assert len(er.atoms) == 100 and product([er, canonical[0]]) == _joint_by_pairs([er, canonical[0]])
    assert calls == []

    h = F(1, 2)
    three, one, one_two = point_mass(3), point_mass(1), uniform([1, 2])
    for atoms, same_as in [
        (((1, h), (2, h)), one_two),  # int values
        (((F(1), 1),), one),  # an int mass
        (((F(2), h), (F(1), h)), one_two),  # distinct values out of order
    ]:
        calls.clear()
        joint = product([three, SingleItemDistribution(atoms)])
        assert calls == ["parts[1]"]
        assert joint == _joint_by_pairs([three, same_as])
        assert all(type(x) is F for vs, p in joint.atoms for x in (*vs, p))
    # a part given twice, as in an i.i.d. product, is checked once
    calls.clear()
    unsorted = SingleItemDistribution(((F(2), h), (F(1), h)))
    assert product([unsorted, unsorted]) == _joint_by_pairs([one_two, one_two])
    assert calls == ["parts[0]"]
    for atoms, location, message in [
        (((F(1), h), (1.5, h)), "parts[1][1][0]", "expected int or string rational, got float"),
        (((F(1), h), (F(1), h)), "parts[1]", "repeated value"),
        (((F(1), F(0)), (F(2), F(1))), "parts[1][0][1]", "must be positive, got 0"),
        (((F(1), h), (F(2), F(1, 3))), "parts[1]", "mass 5/6 != 1"),
        ((), "parts[1]", "empty support"),
    ]:
        calls.clear()
        with pytest.raises(ParseError) as err:
            product([three, SingleItemDistribution(atoms)])
        assert calls == ["parts[1]"]
        assert err.value.location == location and str(err.value) == f"{location}: {message}"


def _count_products(monkeypatch):
    """Count every product of two Fractions from now on, by `Fraction.__mul__`
    or by `model._times`."""
    count = [0]

    def counted(real):
        def mul(a, b):
            count[0] += 1
            return real(a, b)
        return mul

    monkeypatch.setattr(F, "__mul__", counted(F.__mul__))
    monkeypatch.setattr(model, "_times", counted(model._times))
    return count


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_product_of_repeated_parts(monkeypatch, copies):
    """Copies of one part, also as equal but distinct objects, give the atoms
    of the per-atom construction, with one probability object per multiset
    of atom indices, shared by all its orderings; mixed parts multiply every
    combination, as before."""
    rng = random.Random(36 + copies)
    parts = [random_single_item(rng, max_atoms=6, max_value=12) for _ in range(12)]
    count = _count_products(monkeypatch)
    for part, other in zip(parts[::2], parts[1::2]):
        n = len(part.atoms)
        twin = SingleItemDistribution(tuple(list(part.atoms)))
        assert twin == part and twin.atoms is not part.atoms
        for repeated in ([part] * copies, [part] + [twin] * (copies - 1)):
            joint = product(repeated)
            want = _joint_by_pairs(repeated)
            assert joint == want and joint.atoms == want.atoms
            masses = dict(joint.atoms)
            assert all(masses[vs] is p for v, p in joint.atoms for vs in itertools.permutations(v))
            assert len({id(p) for p in masses.values()}) == math.comb(n + copies - 1, copies)
        if other != part:
            mixed = [part] * (copies - 1) + [other]
            count[0] = 0
            joint = product(mixed)
            sizes = [len(d.atoms) for d in mixed]
            assert count[0] == sum(math.prod(sizes[:k]) for k in range(2, copies + 1))
            assert joint.atoms == _joint_by_pairs(mixed).atoms


def test_product_of_repeated_parts_checks_each_place():
    # a repeated part is checked, sorted or refused at its first place, as
    # any part is; equal parts that fail each report the first
    h = F(1, 2)
    unsorted = SingleItemDistribution(((F(2), h), (F(1), h)))
    assert product([unsorted] * 3) == _joint_by_pairs([uniform([1, 2])] * 3)
    twin = SingleItemDistribution(((F(2), h), (F(1), h)))
    assert product([unsorted, twin]) == _joint_by_pairs([uniform([1, 2])] * 2)
    bad = ((F(1), h), (F(2), F(1, 3)))
    for parts, location in [
        ([SingleItemDistribution(bad)] * 2, "parts[0]"),
        ([SingleItemDistribution(bad), SingleItemDistribution(bad)], "parts[0]"),
        ([point_mass(3), SingleItemDistribution(bad), SingleItemDistribution(bad)], "parts[1]"),
    ]:
        with pytest.raises(ParseError) as err:
            product(parts)
        assert err.value.location == location and str(err.value) == f"{location}: mass 5/6 != 1"


def _fractional_part(rng, max_atoms=5):
    """A canonical part with fractional values and masses over several primes."""
    values = set()
    for _ in range(rng.randint(1, max_atoms)):
        values.add(F(rng.randint(0, 40), rng.choice([1, 2, 3, 5, 7])))
    masses = [F(rng.randint(1, 9), rng.choice([1, 2, 3, 5, 11])) for _ in values]
    return SingleItemDistribution.from_pairs(
        [(v, m / sum(masses)) for v, m in zip(sorted(values), masses)])


def _integer_atom_cases():
    from menurev.continuous import NumericParams, _distribution, _er_grid
    rng = random.Random(40)
    d, e, f = (_fractional_part(rng) for _ in range(3))
    twin = SingleItemDistribution(tuple(list(d.atoms)))
    h = F(1, 2)
    # parts that fail the one-pass check go through from_pairs
    unsorted = SingleItemDistribution(((F(7, 2), h), (F(1, 3), h)))
    ints = SingleItemDistribution(((1, F(1, 3)), (4, F(2, 3))))
    companion = NumericParams(cap=100.0, grid_points=100)
    er1, er2 = (_distribution(_er_grid(r, companion)) for r in (1.0, 1.5))
    return {
        "one part": [d], "two unequal": [d, e], "three unequal": [d, e, f],
        "two equal": [d, d], "three equal": [d] * 3, "equal distinct objects": [d, twin, d],
        "mixed equal first": [d, d, e], "mixed equal apart": [d, e, d],
        "point masses": [point_mass(F(7, 3)), point_mass(0)],
        "point mass and part": [e, point_mass(5), e], "from_pairs unsorted": [unsorted, unsorted],
        "from_pairs ints": [ints, d, unsorted], "er companion": [er1, er1], "er unequal": [er1, er2],
    }


@pytest.mark.parametrize("case", list(_integer_atom_cases()))
def test_integer_atoms_match_the_fraction_atoms(case):
    # the integer form of a product's atoms is read from them, at the first
    # read and once; it agrees with the Fraction atoms, each over the lcm of
    # its kind's denominators, taken here by a running lcm
    parts = _integer_atom_cases()[case]
    joint = product(parts)
    assert "integer_atoms" not in vars(joint)  # product computes none
    form = joint.integer_atoms
    assert joint.integer_atoms is form
    scale = math.lcm(*(x.denominator for v, _ in joint.atoms for x in v))
    whole = math.lcm(*(p.denominator for _, p in joint.atoms))
    assert (form.scale, form.whole) == (scale, whole)
    assert [F(w, whole) for w in form.weights] == [p for _, p in joint.atoms]
    assert [tuple(F(y, scale) for y in ys) for ys in zip(*form.columns)] == [v for v, _ in joint.atoms]
    assert all(type(x) is int for x in (*form.weights, *itertools.chain(*form.columns)))
    assert form == JointDistribution(len(parts), joint.atoms).integer_atoms


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


@pytest.mark.parametrize("build, message", [
    (lambda: menu2(F(1), -1, 3), "price of bundle (2,) must be nonnegative, got -1"),
    (lambda: menu2(F(1), F(2), F(-3)), "price of bundle (1, 2) must be nonnegative, got -3"),
    (lambda: menu2("x", 2, 3), "price of bundle (1,) = 'x' is a str, not a rational number"),
    (lambda: menu2(1, True, 3), "price of bundle (2,) = True is a bool, not a rational number"),
    (lambda: Menu(2, [F(1), 2.5, 3]), "price of bundle (2,) = 2.5 is a float, not a rational number"),
    (lambda: Menu(3, [F(1), "1/0", *[F(1)] * 5]),
     "price of bundle (2,) = '1/0' is a str, not a rational number"),
], ids=["negative-int", "negative-fraction", "string", "bool", "float", "zero-denominator"])
def test_menu_from_sequence_parse_errors(build, message):
    # a menu built from a price sequence raises one ValueError form, naming the bundle
    with pytest.raises(ValueError) as err:
        build()
    assert (type(err.value), str(err.value)) == (ValueError, message)


def test_menu_from_sequence_checks_each_price_once(monkeypatch):
    # a Fraction is kept as it is, with no rationals check; any other price
    # is checked once and stored as a Fraction; the count is checked before
    # any price
    want = Menu(2, (F(1, 2), F(3), F(7, 2)))
    checked = []
    real = model._is_rational
    monkeypatch.setattr(model, "_is_rational", lambda p: checked.append(p) or real(p))
    m = menu2(F(1, 2), 3, _Ratio(7, 2))
    assert m == want and hash(m) == hash(want)
    assert [type(p) for p in m.prices] == [F] * 3
    assert checked == [3, _Ratio(7, 2)] and type(checked[1]) is _Ratio
    checked.clear()
    with pytest.raises(ValueError, match=r"^menu for 2 items needs 3 prices, got 2$"):
        Menu(2, [F(1), 2])
    with pytest.raises(ValueError, match=r"^menu for 2 items needs 3 prices, got 4$"):
        Menu(2, [F(1), F(2), -1, F(4)])
    assert checked == []

"""Buyer best response, exact expected revenue, and revenue-monotonicity audits.

Every revenue here goes through one integer rule, `_choose`: with the
prices and the coordinates scaled by one common multiple L of their
denominators, each option gets one Python-int key that orders it by
utility, then payment, then bundle size, then canonical bundle order, so
the largest key is the buyer's choice. The readable reference for that
tie-break is `choice` in `benchmark/reference.py`, which walks the bundles
of one valuation in Fractions and imports nothing from this package; the
tests compare this module against it.

`batch_choice` runs that rule for one menu over a batch of valuations;
`revenue_at`, `sale_probabilities`, `check_monotone` and
`regions.verify_against_buyer` read its result. `expected_revenues` scores
several menus on one distribution: it scales the atoms, their probabilities
(p_t * W, W the lcm of the probability denominators) and every menu's prices
once, runs the rule per menu and builds one Fraction per menu at the end.
`expected_revenue` is its one-menu case.

`check_monotone` compares the deduplicated batch points in Python-int
bitsets, one bit per point: per row, the points that pay less ANDed with,
per axis, the points at or above the row's coordinate.

The evaluator takes rational coordinates only (ints, Fractions or other
`numbers.Rational`): a float or any other coordinate raises ValueError
naming the valuation and the coordinate.

Every L and W above is taken by `rational.over_common_denominator`. That
helper and the rationals check `_coordinate_columns` are all that
`regions.regions_of` shares with this module. The module is plain Python
and imports no numpy, so the exact layers built on it (`constructions`,
`regions`) load none either.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import mul
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .model import (
    Bundle,
    JointDistribution,
    Menu,
    Valuation,
    _bundle_masks,
    all_bundles,
)
from .rational import RationalLike, over_common_denominator, parse_nonnegative


# ---------------------------------------------------------------------------
# The integer batch evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchChoice:
    """The buyer's choice at each valuation of a batch, in integers scaled by L.

    Option 0 is buying nothing and option k is `all_bundles(n)[k - 1]`.
    """

    scale: int  # L, a common multiple of every price and coordinate denominator
    prices: Tuple[int, ...]  # L times the price of each option, 0 for option 0
    points: List[Tuple[int, ...]]  # L times each valuation
    options: List[int]  # the option each valuation takes
    payments: List[int]  # L times each valuation's payment


def _price_paid(m: Menu, option: int) -> Fraction:
    """The menu price of an option, as the Fraction the menu holds."""
    return m.prices[option - 1] if option else Fraction(0)


def _coordinate_columns(n: int, points: Sequence[Valuation]) -> List[Sequence]:
    """The points' coordinates, one column per item, checked to be rationals."""
    if set(map(len, points)) - {n}:
        v = next(v for v in points if len(v) != n)
        raise ValueError(f"valuation has {len(v)} entries for a {n}-item menu")
    columns = list(zip(*points)) if points else [()] * n
    if set(map(type, chain.from_iterable(columns))) <= {int, Fraction}:
        return columns
    for v in points:
        for i, x in enumerate(v):
            if not isinstance(x, numbers.Rational) or isinstance(x, bool):
                raise ValueError(f"valuation {tuple(v)!r}: value[{i}] = {x!r} is a "
                                 f"{type(x).__name__}, not a rational number")
    return [tuple(map(Fraction, column)) for column in columns]


def _scaled(n: int, points: Sequence[Valuation],
            prices: Sequence[Fraction]) -> Tuple[int, List[List[int]], List[int]]:
    """L, the lcm of the denominators of every coordinate and price; L times
    each coordinate column; and L times each price."""
    columns = _coordinate_columns(n, points)
    scale, scaled = over_common_denominator(chain(chain.from_iterable(columns), prices))
    size = len(points)
    return scale, [scaled[i * size:(i + 1) * size] for i in range(n)], scaled[n * size:]


def _unit(n: int, top: int) -> int:
    """One unit of utility in the option keys, for L-scaled prices up to `top`."""
    return (top + 1) * (n + 1) << n


def _choose(n: int, prices: Sequence[int], values: List[List[int]], unit: int) -> List[int]:
    """The option each point takes: `prices` are L times each option's price
    (0 for option 0), `values` are L times each coordinate column times
    `unit`, and `unit` is at least `_unit(n, max(prices))`.

    Option k of a point with bundle value V_k and price P_k gets the key
    (V_k - P_k) * unit + (P_k * (n + 1) + |bundle|) * 2^n + 2^n - 1 - k.
    Utility, then payment, then size rank the options, and among equal
    keys the first in canonical order (the lexicographically smallest
    bundle) wins, so the largest key names the choice.
    """
    options_count = 1 << n
    sums: Dict[int, List[int]] = {}  # bundle mask -> unit times each point's bundle value
    best = repeat(options_count - 1)  # the key of option 0
    for k, mask in enumerate(_bundle_masks(n), start=1):
        low = mask & -mask
        column = values[low.bit_length() - 1]
        if mask != low:
            column = [a + b for a, b in zip(sums[mask ^ low], column)]
        sums[mask] = column
        price = prices[k]
        offset = ((price * (n + 1) + mask.bit_count()) * options_count
                  + options_count - 1 - k - price * unit)
        best = list(map(max, best, [s + offset for s in column]))
    return [~key & (options_count - 1) for key in best]


def batch_choice(m: Menu, points: Sequence[Valuation]) -> BatchChoice:
    """The buyer's choice at every point of a batch, in Python ints (see `_choose`)."""
    scale, scaled, prices = _scaled(m.n, points, m.prices)
    prices = (0, *prices)
    unit = _unit(m.n, max(prices))
    options = _choose(m.n, prices, [[x * unit for x in column] for column in scaled], unit)
    return BatchChoice(scale, prices, list(zip(*scaled)), options,
                       [prices[k] for k in options])


def revenue_at(m: Menu, v: Valuation) -> Fraction:
    """Seller payment at a single valuation."""
    return _price_paid(m, batch_choice(m, (v,)).options[0])


def _check_items(m: Menu, dist: JointDistribution) -> None:
    if m.n != dist.n:
        raise ValueError(f"menu has {m.n} items but distribution has {dist.n}")


def _option_totals(options: Iterable[int], weights: Sequence[int], count: int) -> List[int]:
    """Per option, the sum of the weights of the atoms that take it."""
    totals = [0] * count
    for k, w in zip(options, weights):
        totals[k] += w
    return totals


def expected_revenues(menus: Sequence[Menu], dist: JointDistribution) -> List[Fraction]:
    """`expected_revenue` of each menu, over one scaling of the atoms.

    The coordinate columns, one L for the atoms and every menu's prices, the
    scaled points, W and the atom weights are computed once; each menu then
    runs only the key loop of `_choose` and one weighted sum of payments.
    """
    for m in menus:
        _check_items(m, dist)
    if not menus:
        return []
    scale, scaled, flat = _scaled(
        dist.n, [v for v, _ in dist.atoms], [p for m in menus for p in m.prices])
    whole, weights = over_common_denominator(p for _, p in dist.atoms)
    size = len(menus[0].prices)
    prices = [(0, *flat[k:k + size]) for k in range(0, len(flat), size)]
    unit = _unit(dist.n, max(map(max, prices)))
    values = [[x * unit for x in column] for column in scaled]
    out = []
    for p in prices:
        totals = _option_totals(_choose(dist.n, p, values, unit), weights, len(p))
        out.append(Fraction(sum(map(mul, p, totals)), whole * scale))
    return out


def expected_revenue(m: Menu, dist: JointDistribution) -> Fraction:
    return expected_revenues([m], dist)[0]


def sale_probabilities(m: Menu, dist: JointDistribution) -> Dict[Bundle, Fraction]:
    """Probability that each bundle (including ()) is the one sold."""
    _check_items(m, dist)
    chosen = batch_choice(m, [v for v, _ in dist.atoms])
    whole, weights = over_common_denominator(p for _, p in dist.atoms)
    totals = _option_totals(chosen.options, weights, len(chosen.prices))
    return {b: Fraction(t, whole) for b, t in zip(((),) + all_bundles(m.n), totals)}


# ---------------------------------------------------------------------------
# Revenue monotonicity
# ---------------------------------------------------------------------------

class MonotonicityViolation(NamedTuple):
    """One violating pair; a tuple, which builds in half the time of a frozen dataclass."""

    low: Valuation
    high: Valuation
    revenue_low: Fraction
    revenue_high: Fraction


@dataclass(frozen=True)
class MonotonicityReport:
    violations: Tuple[MonotonicityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _at_least(values: Sequence[int]) -> Dict[int, int]:
    """Each value x mapped to the bitset of the positions p with values[p] >= x."""
    out: Dict[int, int] = {}
    acc = 0
    for p in sorted(range(len(values)), key=values.__getitem__, reverse=True):
        acc |= 1 << p
        out[values[p]] = acc  # the last write for x follows every value >= x
    return out


def check_monotone(m: Menu, grid: Sequence[Valuation]) -> MonotonicityReport:
    """Audit revenue monotonicity over every coordinatewise-comparable grid pair.

    The grid is evaluated once by `batch_choice`; its L-scaled integer points
    are deduplicated (the first-seen point stands for its duplicates) and
    sorted. Bit p of a Python int stands for sorted point p. Per axis, and
    for the integer payments, one sorted pass maps each value x to the set of
    points whose value is at least x; the payments' sets, complemented, give
    the points that pay less. Row i's violations are the points that pay
    less than i and lie at or above i on every axis: P*n big-int ANDs in
    all, with no pair table. Violations are listed in row-major (i, j) order
    of the sorted points.
    """
    grid = list(grid)
    chosen = batch_choice(m, grid)
    first: Dict[Tuple[int, ...], int] = {}
    for i, x in enumerate(chosen.points):
        first.setdefault(x, i)
    scaled = sorted(first)
    order = [first[x] for x in scaled]
    points = [tuple(grid[i]) for i in order]
    revenues = [_price_paid(m, chosen.options[i]) for i in order]
    payments = [chosen.payments[i] for i in order]
    everyone = (1 << len(points)) - 1
    pays_less = {x: everyone ^ s for x, s in _at_least(payments).items()}
    axes = [(axis, _at_least(axis)) for axis in zip(*scaled)]
    violations: List[MonotonicityViolation] = []
    for i, pay in enumerate(payments):
        bad = pays_less[pay]
        for axis, at_least in axes:
            if not bad:
                break
            bad &= at_least[axis[i]]
        while bad:
            low = bad & -bad
            bad ^= low
            j = low.bit_length() - 1
            violations.append(MonotonicityViolation(points[i], points[j],
                                                    revenues[i], revenues[j]))
    return MonotonicityReport(tuple(violations))


def monotonicity_grid(m: Menu,
                      support: Optional[Sequence[Iterable[RationalLike]]] = None
                      ) -> List[Valuation]:
    """Audit grid for a 2-item menu: region corner coordinates (and optional
    per-item support values), each plus/minus half the smallest gap between them.

    Support values are nonnegative ints, Fractions or rational strings; any
    other value raises ValueError naming it as support[i][k].

    Revenue is piecewise constant with breakpoints at the region boundaries.
    That violations then show up at corner points nudged across a boundary
    is an unproved assumption: the tests check it against the plain pair
    loop `reference.monotonicity_violations` on grids with extra support
    points, and deciding monotonicity exactly over all valuations is an
    open item of ROADMAP.md (item 5).
    """
    if m.n != 2:
        raise ValueError("monotonicity_grid is defined for 2-item menus")
    if support is not None and len(support) != 2:
        raise ValueError(f"support has {len(support)} sequences; "
                         "a 2-item menu needs one per item")
    a, b, c = m.prices
    base = {Fraction(0), a, b, c, c - a, c - b, a + b}
    axes: List[set] = [set(base), set(base)]
    if support is not None:
        for i, values in enumerate(support):
            axes[i] |= {parse_nonnegative(x, f"support[{i}][{k}]")
                        for k, x in enumerate(values)}
    per_axis: List[List[Fraction]] = []
    for axis in axes:
        coords = sorted(x for x in axis if x >= 0)
        gaps = [y - x for x, y in zip(coords, coords[1:]) if y > x]
        delta = min(gaps) / 2 if gaps else Fraction(1, 2)
        expanded = set(coords)
        for x in coords:
            expanded.add(x + delta)
            if x - delta >= 0:
                expanded.add(x - delta)
        expanded.add(max(coords) + 1 if coords else Fraction(1))
        per_axis.append(sorted(expanded))
    return [(x, y) for x in per_axis[0] for y in per_axis[1]]

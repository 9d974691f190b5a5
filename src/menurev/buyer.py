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
`revenue_at`, `check_monotone` and `regions.verify_against_buyer` read its
result. `expected_revenues` scores several menus on one distribution, and
`sale_probabilities` one menu: they read the distribution's integer form,
`dist.integer_atoms` (L_v-scaled coordinate columns and the
weights p_t * W, W the lcm of the probability denominators), put every
menu's prices over one denominator, with L the lcm of that and L_v, sum
each bundle's value column once (`_bundle_columns`, one column addition per
multi-item bundle), run the rule's key loop per menu and build the
Fractions at the end. `expected_revenue` is the one-menu case.

`check_monotone` compares the deduplicated batch points in Python-int
bitsets, one bit per point: per row, the points that pay less ANDed with,
per axis, the points at or above the row's coordinate.

The evaluator takes rational coordinates only (ints, Fractions or other
`numbers.Rational`): a float or any other coordinate raises ValueError
naming the valuation and the coordinate.

Every L and W above is taken by `rational.over_common_denominator`. The
search kernel reads the same integer atoms but no choice code: the rule
here is its independent final check, which trusts that one scaling rule,
tested on its own against Fraction arithmetic, for the atoms. That helper
and the rationals check `model._coordinate_columns` are all that
`regions.regions_of` shares with this module. The module is plain Python
and imports no numpy, so the exact layers built on it (`constructions`,
`regions`) load none either.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import mul
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .model import (
    Bundle,
    JointDistribution,
    Menu,
    Valuation,
    _bundle_masks,
    _coordinate_columns,
    all_bundles,
)
from .rational import over_common_denominator


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


def _bundle_columns(n: int, scaled: Sequence[Sequence[int]], unit: int) -> Dict[int, List[int]]:
    """Each bundle's mask mapped to `unit` times the sum of the bundle's
    integer coordinate columns `scaled`, in the order of `all_bundles(n)`;
    for columns over a divisor L_v of L, `unit` carries the factor L / L_v.
    A multi-item bundle's column is its lowest item's column added to the
    column of the bundle without that item, built before it in that order."""
    values = [[x * unit for x in column] for column in scaled]
    sums: Dict[int, List[int]] = {}
    for mask in _bundle_masks(n):
        low = mask & -mask
        column = values[low.bit_length() - 1]
        if mask != low:
            column = [a + b for a, b in zip(sums[mask ^ low], column)]
        sums[mask] = column
    return sums


def _choose(n: int, prices: Sequence[int], columns: Dict[int, List[int]], unit: int) -> List[int]:
    """The option each point takes: `prices` are L times each option's price
    (0 for option 0), `columns` are the points' `_bundle_columns` at `unit`,
    and `unit` is at least `_unit(n, max(prices))`.

    Option k of a point with bundle value V_k and price P_k gets the key
    (V_k - P_k) * unit + (P_k * (n + 1) + |bundle|) * 2^n + 2^n - 1 - k.
    Utility, then payment, then size rank the options, and among equal
    keys the first in canonical order (the lexicographically smallest
    bundle) wins, so the largest key names the choice.
    """
    options_count = 1 << n
    best = repeat(options_count - 1)  # the key of option 0
    for k, (mask, column) in enumerate(columns.items(), start=1):
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
    options = _choose(m.n, prices, _bundle_columns(m.n, scaled, unit), unit)
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


def _option_weights(menus: Sequence[Menu], dist: JointDistribution
                    ) -> Tuple[int, List[Tuple[int, ...]], List[List[int]]]:
    """(L, each menu's L-scaled option prices, each menu's `_option_totals`).

    The atoms are read from `dist.integer_atoms`, over L_v and W; the prices
    of every menu go over one common denominator, and L is the lcm of theirs
    and L_v. The bundle columns (`_bundle_columns`) are built once; each menu
    then runs only the key loop of `_choose` and one weighted sum per option.
    """
    atoms = dist.integer_atoms
    price_scale, flat = over_common_denominator(p for m in menus for p in m.prices)
    scale = math.lcm(atoms.scale, price_scale)
    flat = [x * (scale // price_scale) for x in flat]
    size = len(menus[0].prices)
    prices = [(0, *flat[k:k + size]) for k in range(0, len(flat), size)]
    unit = _unit(dist.n, max(map(max, prices)))
    columns = _bundle_columns(dist.n, atoms.columns, unit * (scale // atoms.scale))
    return scale, prices, [_option_totals(_choose(dist.n, p, columns, unit), atoms.weights, len(p))
                           for p in prices]


def expected_revenues(menus: Sequence[Menu], dist: JointDistribution) -> List[Fraction]:
    """`expected_revenue` of each menu, over one scaling of the prices and
    the distribution's own integer atoms (`_option_weights`); one Fraction
    per menu is built at the end."""
    for m in menus:
        _check_items(m, dist)
    if not menus:
        return []
    scale, prices, totals = _option_weights(menus, dist)
    whole = dist.integer_atoms.whole * scale
    return [Fraction(sum(map(mul, p, t)), whole) for p, t in zip(prices, totals)]


def expected_revenue(m: Menu, dist: JointDistribution) -> Fraction:
    return expected_revenues([m], dist)[0]


def sale_probabilities(m: Menu, dist: JointDistribution) -> Dict[Bundle, Fraction]:
    """Probability that each bundle (including ()) is the one sold."""
    _check_items(m, dist)
    _, _, (totals,) = _option_weights([m], dist)
    whole = dist.integer_atoms.whole
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


def monotonicity_grid(m: Menu) -> List[Valuation]:
    """Audit grid for a 2-item menu: region corner coordinates, each
    plus/minus half the smallest gap between them.

    Revenue is piecewise constant with breakpoints at the region boundaries.
    That violations then show up at corner points nudged across a boundary
    is an unproved assumption: the tests check it against the plain pair
    loop `reference.monotonicity_violations` on grids with extra points,
    and deciding monotonicity exactly over all valuations is an open item
    of ROADMAP.md (item 5).
    """
    if m.n != 2:
        raise ValueError("monotonicity_grid is defined for 2-item menus")
    a, b, c = m.prices
    coords = sorted(x for x in {Fraction(0), a, b, c, c - a, c - b, a + b} if x >= 0)
    gaps = [y - x for x, y in zip(coords, coords[1:])]
    delta = min(gaps) / 2 if gaps else Fraction(1, 2)
    axis = sorted({*coords, *(x + delta for x in coords),
                   *(x - delta for x in coords if x >= delta), coords[-1] + 1})
    return [(x, y) for x in axis for y in axis]

"""Buyer best response, exact expected revenue, and revenue-monotonicity audits."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    Bundle,
    JointDistribution,
    Menu,
    Valuation,
    all_bundles,
    bundle_value,
)


@dataclass(frozen=True)
class BuyerOutcome:
    bundle: Bundle  # () means nothing bought
    payment: Fraction
    utility: Fraction


def buyer_choice(m: Menu, v: Valuation) -> BuyerOutcome:
    """Utility-maximizing bundle for valuation v.

    Ties break toward the higher payment, then the larger bundle, then the
    lexicographically smallest item set, so the choice is deterministic.
    """
    if len(v) != m.n:
        raise ValueError(f"valuation has {len(v)} entries for a {m.n}-item menu")
    best: Tuple[Fraction, Fraction, int, Bundle] = (Fraction(0), Fraction(0), 0, ())
    best_bundle: Bundle = ()
    for bundle, price in zip(all_bundles(m.n), m.prices):
        u = bundle_value(v, bundle) - price
        cand = (u, price, len(bundle), bundle)
        if _prefer(cand, best):
            best = cand
            best_bundle = bundle
    return BuyerOutcome(best_bundle, best[1], best[0])


def _prefer(cand, incumbent) -> bool:
    if cand[0] != incumbent[0]:
        return cand[0] > incumbent[0]
    if cand[1] != incumbent[1]:
        return cand[1] > incumbent[1]
    if cand[2] != incumbent[2]:
        return cand[2] > incumbent[2]
    return cand[3] < incumbent[3]


def revenue_at(m: Menu, v: Valuation) -> Fraction:
    """Seller payment at a single valuation."""
    return buyer_choice(m, v).payment


def expected_revenue(m: Menu, dist: JointDistribution) -> Fraction:
    if m.n != dist.n:
        raise ValueError(f"menu has {m.n} items but distribution has {dist.n}")
    return sum((p * revenue_at(m, v) for v, p in dist.atoms), Fraction(0))


def sale_probabilities(m: Menu, dist: JointDistribution) -> Dict[Bundle, Fraction]:
    """Probability that each bundle (including ()) is the one sold."""
    if m.n != dist.n:
        raise ValueError(f"menu has {m.n} items but distribution has {dist.n}")
    out: Dict[Bundle, Fraction] = {(): Fraction(0)}
    for b in all_bundles(m.n):
        out[b] = Fraction(0)
    for v, p in dist.atoms:
        out[buyer_choice(m, v).bundle] += p
    return out


# ---------------------------------------------------------------------------
# Revenue monotonicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityViolation:
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


# Pairs compared in one numpy block of the audit; bounds its temporary arrays.
_BLOCK_PAIRS = 1 << 20


def _ranks(values: Sequence[Fraction]) -> np.ndarray:
    """Dense rank of each value: the ranks keep <, <= and == between the values."""
    index = {x: k for k, x in enumerate(sorted(set(values)))}
    return np.array([index[x] for x in values], dtype=np.int64)


def check_monotone(m: Menu, grid: Sequence[Valuation]) -> MonotonicityReport:
    """Audit revenue monotonicity over every coordinatewise-comparable grid pair.

    Revenue is evaluated once per distinct point, over the points in sorted
    order. Each coordinate axis and the revenues are then replaced by their
    dense integer ranks, so numpy compares exact ranks, never floats. Rows
    of the pair table go through numpy in blocks of about `_BLOCK_PAIRS`
    pairs: (i, j) violates when rev[j] < rev[i] and points[i] <= points[j]
    on every axis. Violations are listed in row-major (i, j) order of the
    sorted points.
    """
    points = sorted(set(tuple(v) for v in grid))
    revenues = [revenue_at(m, v) for v in points]
    rev = _ranks(revenues)
    axes = [_ranks(axis) for axis in zip(*points)]
    rows = max(1, _BLOCK_PAIRS // max(1, len(points)))
    violations: List[MonotonicityViolation] = []
    for start in range(0, len(points), rows):
        stop = start + rows
        bad = rev[None, :] < rev[start:stop, None]
        for axis in axes:
            bad &= axis[start:stop, None] <= axis[None, :]
        low, high = np.nonzero(bad)
        for i, j in zip((low + start).tolist(), high.tolist()):
            violations.append(MonotonicityViolation(points[i], points[j],
                                                    revenues[i], revenues[j]))
    return MonotonicityReport(tuple(violations))


def monotonicity_grid(m: Menu,
                      support: Optional[Sequence[Iterable[Fraction]]] = None) -> List[Valuation]:
    """Audit grid for a 2-item menu: region corner coordinates (and optional
    per-item support values), each plus/minus half the smallest gap between them.

    Revenue is piecewise constant with breakpoints at the region boundaries,
    so violations always show up at corner points nudged across a boundary.
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
            axes[i] |= {Fraction(x) for x in values}
    grid_points: List[Valuation] = []
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
    for x in per_axis[0]:
        for y in per_axis[1]:
            grid_points.append((x, y))
    return grid_points

"""Equal-revenue distribution analytics: the constant w, tail discretization,
and the numeric bundle-vs-separate revenue gap.

This module works in binary64 with explicit tolerances. Discretizations are
returned as exact-rational distributions whose grid values are dyadic
(denominator 2^20), so downstream float arithmetic on values and prices is
itself exact; only probability weights and the final reports are approximate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import SingleItemDistribution, product
from .rational import floor_to_dyadic
from .search import CandidateGrid, search_optimal

_DYADIC_BITS = 20


def solve_w(tol: float = 1e-12) -> float:
    """Root of (w - 1) * e^w = 1 on [1, 2]: bracketed bisection, Newton polish.

    The left side is strictly increasing on [1, 2] with f(1) = -1 and
    f(2) = e^2 - 1, so the root is unique.
    """

    def f(x: float) -> float:
        return (x - 1.0) * math.exp(x) - 1.0

    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    for _ in range(4):
        w -= f(w) / (w * math.exp(w))
    residual = abs(f(w))
    if residual >= tol:
        raise ArithmeticError(f"root polish did not converge: residual {residual}")
    return w


def er_tail(r: float, p: float) -> float:
    """Pr[v >= p] for the equal-revenue distribution at level r: min(1, r/p)."""
    if r <= 0 or p <= 0:
        raise ValueError("er_tail requires positive r and p")
    return min(1.0, r / p)


@dataclass(frozen=True)
class NumericParams:
    """Discretization and search controls for the numeric gap report."""

    cap: float = 1e4
    grid_points: int = 2000
    # the exact menu search runs on a coarser companion discretization
    search_cap: float = 100.0
    search_points: int = 100
    search_single_prices: int = 12
    search_bundle_prices: int = 36

    def __post_init__(self):
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        if self.grid_points < 100:
            raise ValueError("grid_points must be at least 100")
        if self.search_points < 100:
            raise ValueError("search_points must be at least 100")


def er_discretize(r: float, params: NumericParams) -> SingleItemDistribution:
    """Discretize the level-r equal-revenue tail on a geometric grid [r, cap].

    Atom k sits at the grid point g_k (rounded down to a dyadic rational) and
    carries the tail mass between consecutive grid points; the residual tail
    mass r/cap is parked at the cap. The result is stochastically dominated by
    the continuous tail everywhere and its masses sum to exactly 1.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if params.cap <= r:
        raise ValueError(f"cap {params.cap} must exceed r {r}")
    n = params.grid_points
    ratio = (params.cap / r) ** (1.0 / (n - 1))
    values: List[Fraction] = []
    last = None
    for k in range(n):
        g = floor_to_dyadic(r * ratio**k, _DYADIC_BITS)
        if last is not None and g <= last:
            continue
        values.append(g)
        last = g
    r_exact = Fraction(r)
    tails = [min(Fraction(1), r_exact / g) for g in values]
    pairs = []
    for k, g in enumerate(values):
        mass = (tails[k] - tails[k + 1]) if k + 1 < len(values) else tails[k]
        if mass > 0:
            pairs.append((g, mass))
    return SingleItemDistribution.from_pairs(pairs, "er_discretize")


@dataclass(frozen=True)
class ERGapReport:
    r1: float
    r2: float
    cap: float
    grid_points: int
    srev: float
    brev: float
    brev_price: float
    drev: Optional[float]
    drev_exact: Optional[Fraction]
    tolerance: float
    w_ref: float

    @property
    def brev_over_srev(self) -> float:
        return self.brev / self.srev

    @property
    def drev_over_srev(self) -> Optional[float]:
        return None if self.drev is None else self.drev / self.srev

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "r1": self.r1,
            "r2": self.r2,
            "cap": self.cap,
            "grid_points": self.grid_points,
            "srev": self.srev,
            "brev": self.brev,
            "brev_price": self.brev_price,
            "drev": self.drev,
            "brev/srev": self.brev_over_srev,
            "drev/srev": self.drev_over_srev,
            "tolerance": self.tolerance,
            "w": self.w_ref,
        }


def _bundle_price_sweep(d1: SingleItemDistribution,
                        d2: SingleItemDistribution) -> Tuple[float, float]:
    """(max over p of p * Pr[v1 + v2 >= p], argmax p) on the discretized product."""
    v1 = np.array([float(v) for v, _ in d1.atoms])
    w1 = np.array([float(p) for _, p in d1.atoms])
    v2 = np.array([float(v) for v, _ in d2.atoms])
    w2 = np.array([float(p) for _, p in d2.atoms])
    sums = np.add.outer(v1, v2).ravel()
    mass = np.multiply.outer(w1, w2).ravel()
    order = np.argsort(-sums, kind="stable")
    sums = sums[order]
    mass = np.cumsum(mass[order])
    revenue = sums * mass
    i = int(np.argmax(revenue))
    return float(revenue[i]), float(sums[i])


def _strided_subset(values: Sequence[Fraction], count: int) -> List[Fraction]:
    if len(values) <= count:
        return list(values)
    idx = np.linspace(0, len(values) - 1, count).round().astype(int)
    return [values[i] for i in sorted(set(idx.tolist()))]


def numeric_gap_er(r1: float, r2: float,
                   params: Optional[NumericParams] = None,
                   include_drev: bool = True) -> ERGapReport:
    """Numeric separate/bundle/deterministic revenue comparison for a pair of
    discretized equal-revenue distributions.

    srev is analytic (r1 + r2). brev sweeps every bundle price on the full
    discretized product. drev runs the exact grid search on a coarser
    companion discretization (same family, lower cap and resolution) whose
    price grid contains the companion's best bundle price, so drev >= that
    instance's brev by construction. The reported tolerance bounds
    |drev - brev| from the grid geometry: both numbers lie between
    w*(r1+r2)/ratio and w*(r1+r2), where ratio is the companion's grid ratio.
    """
    params = params or NumericParams()
    w = solve_w()
    srev = r1 + r2
    d1 = er_discretize(r1, params)
    d2 = er_discretize(r2, params)
    brev, brev_price = _bundle_price_sweep(d1, d2)

    drev = drev_exact = None
    search_ratio = (params.search_cap / min(r1, r2)) ** (1.0 / (params.search_points - 1))
    tolerance = w * srev * (1.0 - 1.0 / search_ratio) + 1e-6
    if include_drev:
        red = replace(params, cap=params.search_cap, grid_points=params.search_points)
        e1, e2 = er_discretize(r1, red), er_discretize(r2, red)
        joint = product([e1, e2])
        _, red_price = _bundle_price_sweep(e1, e2)
        anchor = Fraction(red_price)  # drev >= companion brev once this price is available
        singles1 = sorted(set(_strided_subset(e1.support, params.search_single_prices)) | {anchor})
        singles2 = sorted(set(_strided_subset(e2.support, params.search_single_prices)) | {anchor})
        pair_sums = sorted({a + b for a in _strided_subset(e1.support, 10)
                            for b in _strided_subset(e2.support, 10)})
        pair = sorted(set(_strided_subset(pair_sums, params.search_bundle_prices)) | {anchor})
        grid = CandidateGrid(2, "explicit", (tuple(singles1), tuple(singles2), tuple(pair)))
        result = search_optimal(joint, "unrestricted", grid)
        drev_exact = result.revenue
        drev = float(result.revenue)
    return ERGapReport(r1, r2, params.cap, params.grid_points, srev, brev, brev_price,
                       drev, drev_exact, tolerance, w)


def er_cap_sweep(r1: float = 1.0, r2: float = 1.0,
                 caps: Sequence[float] = (1e2, 1e3, 1e4),
                 points: Sequence[int] = (300, 1000, 2400)) -> List[ERGapReport]:
    """Gap reports across growing caps with resolution growing faster, so the
    discretizations refine and brev/srev climbs toward w from below."""
    if len(caps) != len(points):
        raise ValueError("caps and points must have equal length")
    out = []
    for cap, pts in zip(caps, points):
        params = NumericParams(cap=float(cap), grid_points=int(pts))
        out.append(numeric_gap_er(r1, r2, params, include_drev=False))
    return out

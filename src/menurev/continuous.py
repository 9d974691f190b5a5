"""Equal-revenue distribution analytics: the constant w, tail discretization,
and the numeric bundle-vs-separate revenue gap.

This module works in binary64 with explicit tolerances. Discretizations are
returned as exact-rational distributions whose grid values are dyadic
(denominator 2^20), so downstream float arithmetic on values and prices is
itself exact; only probability weights and the final reports are approximate.
They are built from integers: the scaled grid points floor(g * 2^20) come
exactly from each float point's integer ratio, and every tail and mass is a
ratio of integers, with no Fraction arithmetic before the atoms are made. A
report discretizes a level once when both items share it.
The bundle-price sweep orders the atom pairs by one int64 sort of exact keys
(the scaled sum's distance below the largest sum, then the pair's flat index)
and falls back to a stable argsort of the float sums only where those keys
would overflow int64; on these dyadic grids both give the same order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import SingleItemDistribution, product
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
        for name in ("cap", "search_cap"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.grid_points < 100:
            raise ValueError("grid_points must be at least 100")
        if self.search_points < 100:
            raise ValueError("search_points must be at least 100")
        for name in ("search_single_prices", "search_bundle_prices"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


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
    # G = floor(g * 2^20) for the float grid point g = num / den, whose
    # denominator is a power of two, so the floor is exact integer division
    grid: List[int] = []
    for k in range(n):
        num, den = (r * ratio**k).as_integer_ratio()
        g = (num << _DYADIC_BITS) // den
        if not grid or g > grid[-1]:
            grid.append(g)
    # each tail min(1, r / g) as an integer pair (a, b) with
    # a / b = min(1, rn * 2^20 / (rd * G)) for r = rn / rd; a zero tail ends it
    rn, rd = r.as_integer_ratio()
    rn <<= _DYADIC_BITS
    tails = [(1, 1) if rn >= rd * g else (rn, rd * g) for g in grid] + [(0, 1)]
    pairs = []
    for k, g in enumerate(grid):
        (a, b), (c, d) = tails[k], tails[k + 1]
        if a * d > c * b:
            pairs.append((Fraction(g, 1 << _DYADIC_BITS), Fraction(a * d - c * b, b * d)))
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
    """(max over p of p * Pr[v1 + v2 >= p], argmax p) on the discretized product.

    The atom pairs (i, j) are visited by descending sum, equal sums in flat
    index order, and their masses accumulated in that order. With the values
    scaled to integers a_i, b_j by the lcm of their denominators, the key
    ((top - a_i - b_j) << (ib + jb)) | (i << jb) | j sorts ascending into
    exactly that order; where it could overflow int64, a stable argsort of the
    negated float sums gives the pairs instead. The two orders agree whenever
    the float sums are exact, as on every dyadic `er_discretize` grid.
    """
    v1 = np.array([float(v) for v, _ in d1.atoms])
    w1 = np.array([float(p) for _, p in d1.atoms])
    v2 = np.array([float(v) for v, _ in d2.atoms])
    w2 = np.array([float(p) for _, p in d2.atoms])
    scale = math.lcm(*(v.denominator for v in d1.support + d2.support))
    a = [v.numerator * (scale // v.denominator) for v in d1.support]
    b = [v.numerator * (scale // v.denominator) for v in d2.support]
    top = a[-1] + b[-1]  # supports ascend
    ib, jb = (len(a) - 1).bit_length(), (len(b) - 1).bit_length()
    if (top + 1) << (ib + jb) < 1 << 63:
        rows = ((top - np.array(a, dtype=np.int64)) << (ib + jb)) | (np.arange(len(a)) << jb)
        cols = np.arange(len(b)) - (np.array(b, dtype=np.int64) << (ib + jb))
        keys = np.add.outer(rows, cols).ravel()
        keys.sort()
        j = keys & ((1 << jb) - 1)
        keys >>= jb
        keys &= (1 << ib) - 1
        i = keys
    else:
        i, j = np.divmod(np.argsort(-np.add.outer(v1, v2).ravel(), kind="stable"), len(b))
    # every index is in range; mode="clip" lets take write to `out` unbuffered
    sums = np.take(v1, i)
    mass = np.take(v2, j)
    sums += mass
    np.take(w1, i, out=mass, mode="clip")
    spare = i.view(np.float64)  # i is read no more
    np.take(w2, j, out=spare, mode="clip")
    mass *= spare
    np.cumsum(mass, out=mass)
    mass *= sums  # the revenue at each price
    k = int(np.argmax(mass))
    return float(mass[k]), float(sums[k])


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
    d2 = d1 if r2 == r1 else er_discretize(r2, params)
    brev, brev_price = _bundle_price_sweep(d1, d2)

    drev = drev_exact = None
    search_ratio = (params.search_cap / min(r1, r2)) ** (1.0 / (params.search_points - 1))
    tolerance = w * srev * (1.0 - 1.0 / search_ratio) + 1e-6
    if include_drev:
        red = replace(params, cap=params.search_cap, grid_points=params.search_points)
        e1 = er_discretize(r1, red)
        e2 = e1 if r2 == r1 else er_discretize(r2, red)
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

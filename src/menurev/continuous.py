"""Equal-revenue distribution analytics: the constant w, tail discretization,
and the numeric bundle-vs-separate revenue gap.

This module works in binary64 with explicit tolerances. Discretizations are
returned as exact-rational distributions whose grid values are dyadic
(denominator 2^20), so downstream float arithmetic on values and prices is
itself exact; only probability weights and the final reports are approximate.
They are built from integers: the scaled grid points floor(g * 2^20) come
exactly from each float point's integer ratio, and every tail and mass is a
ratio of integers, with no Fraction arithmetic before the atoms are made.
The reports make no atoms for their bundle-price grids: the sweep reads the
integer grid points and masses directly, and a report builds a level's grid
once when both items share it.
The bundle-price sweep walks the atom pairs by descending sum, equal sums in
flat index order, in buckets that are contiguous in that order and hold at
most 2^15 pairs each (min(n1, n2), if that is larger): over two 2400-point
grids its temporaries peak at about 2 MiB, where holding all 5.76 million
pairs at once took 176 MiB. The order is decided by exact integer keys on
every grid: a bucket is a range of keys (the scaled sum's distance below the
largest sum, with the pair's flat index packed below it where that fits
int64), ordered by a sort, or by a stable argsort where the index is not
packed. The running mass is carried from bucket to bucket, so brev and its
price are those of one sequential pass over all pairs, to the bit.
Two equal items, as at equal levels, are swept by their 2.88 million pairs
i <= j: pair (j, i) has the sum and mass of pair (i, j), so each pair
takes two slots of the running sum, placed as the all-pairs order adds
them, and the buckets count whole sums, so no group of equal sums is
parted between two of them. Its buckets hold about half the pairs, each
with two slots, and its temporaries peak at about 2.1 MiB.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import SingleItemDistribution, product
from .search import CandidateGrid, search_optimal

_DYADIC_BITS = 20

# an equal-revenue grid in integers: the scaled points G_k = floor(g_k * 2^20)
# and each atom's mass as a pair (num_k, den_k)
Grid = Tuple[List[int], List[Tuple[int, int]]]


def solve_w() -> float:
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
    if residual >= 1e-12:
        raise ArithmeticError(f"root polish did not converge: residual {residual}")
    return w


@dataclass(frozen=True)
class NumericParams:
    """Discretization controls for the numeric gap report."""

    cap: float = 1e4
    grid_points: int = 2000

    def __post_init__(self):
        if isinstance(self.cap, bool) or not isinstance(self.cap, numbers.Real):
            raise ValueError(f"cap must be a real number, got {self.cap!r}")
        if isinstance(self.grid_points, bool) or not isinstance(self.grid_points, numbers.Integral):
            raise ValueError(f"grid_points must be an int, got {self.grid_points!r}")
        if not math.isfinite(self.cap):
            raise ValueError(f"cap must be finite, got {self.cap}")
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        if self.grid_points < 100:
            raise ValueError("grid_points must be at least 100")


# the exact menu search runs on a coarser companion discretization, with this
# cap and grid points, and offers this many single and bundle prices
SEARCH_CAP = 100.0
SEARCH_POINTS = 100
SEARCH_SINGLE_PRICES = 12
SEARCH_BUNDLE_PRICES = 36


def _check_level(r: float) -> None:
    if isinstance(r, bool) or not isinstance(r, numbers.Real):
        raise ValueError(f"r must be a real number, got {r!r}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    if r <= 0:
        raise ValueError("r must be positive")


def _er_grid(r: float, params: NumericParams) -> Grid:
    """The atoms of `er_discretize` in integers: the points G_k strictly
    increase, and the masses num_k / den_k are positive and sum to exactly 1.
    """
    _check_level(r)
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
    points: List[int] = []
    masses: List[Tuple[int, int]] = []
    # the running total, reduced: it is 1 minus the next tail, so it stays small
    sn, sd = 0, 1
    for k, g in enumerate(grid):
        (a, b), (c, d) = tails[k], tails[k + 1]
        if a * d > c * b:
            num, den = a * d - c * b, b * d
            points.append(g)
            masses.append((num, den))
            sn, sd = sn * den + num * sd, sd * den
            q = math.gcd(sn, sd)
            sn, sd = sn // q, sd // q
    if sn != sd:
        raise ArithmeticError(f"er_discretize: mass {sn}/{sd} != 1")
    return points, masses


def _distribution(grid: Grid) -> SingleItemDistribution:
    """The canonical atoms of an `_er_grid` grid, built directly: the grid has
    made the checks of `SingleItemDistribution.from_pairs`."""
    points, masses = grid
    return SingleItemDistribution(tuple(
        (Fraction(g, 1 << _DYADIC_BITS), Fraction(num, den)) for g, (num, den) in zip(points, masses)))


def er_discretize(r: float, params: NumericParams) -> SingleItemDistribution:
    """Discretize the level-r equal-revenue tail on a geometric grid [r, cap].

    Atom k sits at the grid point g_k (rounded down to a dyadic rational) and
    carries the tail mass between consecutive grid points; the residual tail
    mass r/cap is parked at the cap. The result is stochastically dominated by
    the continuous tail everywhere and its masses sum to exactly 1.
    """
    return _distribution(_er_grid(r, params))


@dataclass(frozen=True)
class ERGapReport:
    r1: float
    r2: float
    cap: float
    grid_points: int
    srev: float
    brev: float
    brev_price: float
    drev_exact: Optional[Fraction]
    tolerance: Optional[float]  # None where no drev was computed
    w_ref: float

    @property
    def drev(self) -> Optional[float]:
        return None if self.drev_exact is None else float(self.drev_exact)

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


# the bundle-price sweep takes its atom pairs in buckets of at most this many
# (or min(n1, n2), if larger); a bucket's temporaries take about 50 bytes a
# pair, twice that for a pair i <= j of equal items, whose buckets hold half
_BUCKET_PAIRS = 1 << 15


def _grid_sweep(grid1: Grid, grid2: Grid) -> Tuple[float, float]:
    """`_sweep` on two `_er_grid` grids, to the bit as on their distributions'
    atoms with the values scaled by the lcm of their denominators: the values
    G / 2^20 have the lcm 2^(20 - s), s the trailing zero bits all G share (at
    most 20), so they scale to G >> s. G / 2^20 and num / den are the
    correctly rounded floats of the atoms."""
    (p1, m1), (p2, m2) = grid1, grid2
    low = reduce(or_, p1 + p2, 1 << _DYADIC_BITS)
    s = (low & -low).bit_length() - 1
    v1, v2 = (np.array(p, dtype=np.float64) / (1 << _DYADIC_BITS) for p in (p1, p2))
    w1, w2 = (np.array([num / den for num, den in m]) for m in (m1, m2))
    return _sweep([g >> s for g in p1], v1, w1, [g >> s for g in p2], v2, w2)


def _sweep(a: List[int], v1: np.ndarray, w1: np.ndarray,
           b: List[int], v2: np.ndarray, w2: np.ndarray) -> Tuple[float, float]:
    """(max over p of p * Pr[v1 + v2 >= p], argmax p) over the atom pairs of
    two items: values v and masses w as floats, and the values as integers
    a, b over one common denominator.

    The atom pairs (i, j) are visited by descending sum, equal sums in flat
    index order, and their masses accumulated in that order, one bucket of
    `_sweep_order` at a time: each bucket's cumulative sum starts from the
    last one's total, so the running float sum is the sequential one over all
    pairs, and the first strict maximum over the buckets is the first maximum
    over the whole sweep.

    Two equal items (the same integer values, float values and float masses,
    compared by value) give pair (i, j) and its mirror (j, i) the same sum
    and mass, so `_sweep_order` yields only the pairs i <= j, and
    `_mirror_slots` gives each two slots, which the cumulative sum adds in
    the order of the all-pairs sweep. The revenue is read at each pair's
    second slot, or, in a bucket where rounding parted the float sums of
    one group, at every slot; either way the first strict maximum is the
    all-pairs sweep's, to the bit. Unequal items take the all-pairs order.
    """
    mirrored = a == b and np.array_equal(v1, v2) and np.array_equal(w1, w2)
    best, price, carry = -math.inf, 0.0, 0.0
    for i, j, tied in _sweep_order(a, b, mirrored):
        sums = np.take(v1, i)
        mass = np.take(v2, j)
        sums += mass
        # every index is in range; mode="clip" lets take write to `out` unbuffered
        np.take(w1, i, out=mass, mode="clip")
        mass *= np.take(w2, j)
        revenue = mass
        if mirrored:
            sums, mass, revenue = _mirror_slots(i == j, tied, sums, mass)
        mass[0] += carry
        np.cumsum(mass, out=mass)
        carry = mass[-1]
        revenue *= sums  # the revenue at each price
        k = int(np.argmax(revenue))
        if revenue[k] > best:
            best, price = float(revenue[k]), float(sums[k])
    return best, price


def _mirror_slots(diagonal: np.ndarray, tied: np.ndarray, sums: np.ndarray,
                  mass: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masses of a bucket's pairs i <= j in two slots each, ordered as
    the all-pairs order adds them, the prices to read them at, and the view
    of the slots that are read.

    Slot 2q holds pair q and slot 2q + 1 its mirror, of mass 0.0 on the
    diagonal. In flat index order a group of k equal sums (tied[q]: pair q's
    sum is pair q - 1's) is its k pairs by i, then the mirrors of its
    off-diagonal pairs in reverse, so the slots 2g .. 2g + 2k - 1 of a group
    of k >= 2 starting at pair g are rewritten to its k masses, then its k
    mirror slots in reverse, the diagonal's empty slot first. The prices are
    the pairs' sums, read at their second slots: within a group the running
    sum never falls, so its last slot, a second slot, reads its most. Only
    where rounding gave the pairs of one group unequal float sums are the
    prices every slot's, moved with the masses, to be read at every slot.
    """
    slots = np.repeat(mass, 2)
    slots[1::2][diagonal] = 0.0
    if not tied.any():
        return sums, slots, slots[1::2]
    # the pairs of the groups of two or more: each one's group start g and size k
    member = tied.copy()
    member[:-1] |= tied[1:]
    q = np.flatnonzero(member)
    starts = np.flatnonzero(~tied[q])
    size = np.diff(starts, append=len(q))
    g, k = np.repeat(q[starts], size), np.repeat(size, size)
    ragged = not np.array_equal(sums[q], sums[g])
    # slot x < 2k of a group takes pair g + x, or the second slot of pair g + 2k - 1 - x
    x = np.repeat(2 * (q - g), 2)
    x[1::2] += 1
    g, k = np.repeat(g, 2), np.repeat(k, 2)
    source = np.where(x < k, 2 * (g + x), 2 * (g + 2 * k - x) - 1)
    target = 2 * g + x
    slots[target] = slots[source]
    if not ragged:
        return sums, slots, slots[1::2]
    sums = np.repeat(sums, 2)
    sums[target] = sums[source]
    return sums, slots, slots


def _sweep_order(a: List[int], b: List[int],
                 mirrored: bool) -> Iterator[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """The atom pairs (i, j) of the ascending integer values a and b by
    descending sum a_i + b_j, equal sums in flat index order, as index arrays
    of consecutive buckets of at most max(_BUCKET_PAIRS, min(n1, n2)) pairs,
    with None; or, where `mirrored` (the items are equal, so a == b), only
    the pairs i <= j, in the same order, with each pair's `tied` flag: its
    sum is the previous pair's in the bucket.

    Each pair has an exact integer key, rows[i] + cols[j], that ascends in
    that order; a bucket is the pairs whose keys lie in [s, t), and since
    both supports ascend, the pairs of a row i with keys below t are the
    columns j with -cols[j] > rows[i] - t, a suffix of the row, cut to
    j >= i where mirrored. Where it fits int64, the key is the packed
    ((top - a_i - b_j) << (ib + jb)) | (i << jb) | j, unique, and a bucket's
    keys are sorted in place. Otherwise the key is the distance top - a_i -
    b_j alone, in int64 while it fits and in Python ints beyond, and a
    stable argsort of a bucket's keys keeps equal sums in flat index order.
    The thresholds count keys, or, where mirrored, whole distances (keys
    >> shift), so no group of equal sums is parted between two buckets and
    `_mirror_slots` finds each group whole; a group holds at most
    ceil(n / 2) pairs i <= j, within the bound. Besides one bucket, the
    sweep holds only the per-row ranges and the thresholds' sample: every
    (bound / 32)-th pair in flat order, of which every 16th (every 32nd
    where mirrored, a pair i <= j standing for two) is a threshold.
    """
    n1, n2 = len(a), len(b)
    cap = max(_BUCKET_PAIRS, min(n1, n2))
    # thresholds from a strided sample of all pairs, about every cap / 2
    # pairs (pairs i <= j where mirrored); `_buckets` splits a bucket that
    # still holds more than cap pairs
    stride = max(1, cap // 32)
    si, sj = np.divmod(np.arange(0, n1 * n2, stride), n2)
    top = a[-1] + b[-1]  # supports ascend
    ib, jb = (n1 - 1).bit_length(), (n2 - 1).bit_length()
    packed = (top + 1) << (ib + jb) < 1 << 63
    shift = ib + jb if packed else 0
    dtype = np.int64 if (top + 1) << shift < 1 << 63 else object
    rows = (top - np.array(a, dtype=dtype)) << shift
    cols = -(np.array(b, dtype=dtype) << shift)
    if packed:
        rows |= np.arange(n1) << jb
        cols += np.arange(n2)
    neg = -cols
    # thresholds in units of 2^unit keys: whole distances where mirrored
    unit = shift if mirrored else 0
    first = np.arange(n1) if mirrored else 0  # each row's first column
    every = 32 if mirrored else 16
    sample = (np.sort(rows[si] + cols[sj]) >> unit)[every::every].tolist()
    bounds = _buckets(lambda t: np.maximum(np.searchsorted(neg, rows - (t << unit), side="right"), first),
                      0, sample + [((top + 1) << shift) >> unit], cap)
    for lo, hi in bounds:
        if packed:
            keys = np.repeat(rows, hi - lo)
            j = _columns(lo, hi)
            keys += np.take(cols, j)
            keys.sort()
            tied = _tied(keys >> (ib + jb)) if mirrored else None
            np.bitwise_and(keys, (1 << jb) - 1, out=j)
            keys >>= jb
            keys &= (1 << ib) - 1
            yield keys, j, tied
        else:
            i, j = np.repeat(np.arange(n1), hi - lo), _columns(lo, hi)
            keys = rows[i] + cols[j]
            order = np.argsort(keys, kind="stable")
            yield i[order], j[order], _tied(keys[order]) if mirrored else None


def _tied(distances: np.ndarray) -> np.ndarray:
    """Whether each of the sorted distances equals the one before it (False
    for the first)."""
    tied = np.zeros(len(distances), dtype=bool)
    np.equal(distances[1:], distances[:-1], out=tied[1:])
    return tied


def _buckets(before: Callable, start: int, marks: List[int],
             cap: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Row ranges (lo, hi) of consecutive buckets: row i of a bucket holds the
    pairs (i, j) with lo[i] <= j < hi[i].

    before(t) gives each row's first column among the pairs whose integer
    keys, in the caller's threshold unit (a key, or a whole distance), lie
    below threshold t; no key lies below `start`, and every key lies below
    the last of `marks`, the ascending thresholds. A bucket of more than
    `cap` pairs, between thresholds s and t, is split at (s + t) // 2: the
    callers' groups of equal keys hold at most `cap` pairs, so such a
    bucket spans two keys and both halves are narrower. Thresholds are
    never finer than the unit, so a mirrored sweep's groups of equal sums
    stay whole.
    """
    s, hi = start, before(start)
    pending = [(t, None) for t in reversed(marks)]
    while pending:
        t, lo = pending.pop()
        if lo is None:
            lo = before(t)
        size = int(hi.sum() - lo.sum())
        if size > cap:
            pending += [(t, lo), ((s + t) // 2, None)]
            continue
        if size:
            yield lo, hi
        s, hi = t, lo


def _columns(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The column j of every pair with lo[i] <= j < hi[i], in flat index order."""
    counts = hi - lo
    j = np.repeat(lo - np.cumsum(counts) + counts, counts)
    j += np.arange(len(j))
    return j


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
    Without drev there is no companion, and the tolerance is None.
    """
    params = params or NumericParams()
    _check_level(r1)
    _check_level(r2)
    if include_drev and SEARCH_CAP <= max(r1, r2):
        raise ValueError(f"search_cap {SEARCH_CAP} must exceed r {max(r1, r2)}")
    w = solve_w()
    srev = r1 + r2
    g1 = _er_grid(r1, params)
    g2 = g1 if r2 == r1 else _er_grid(r2, params)
    brev, brev_price = _grid_sweep(g1, g2)

    drev_exact = tolerance = None
    if include_drev:
        search_ratio = (SEARCH_CAP / min(r1, r2)) ** (1.0 / (SEARCH_POINTS - 1))
        tolerance = w * srev * (1.0 - 1.0 / search_ratio) + 1e-6
        red = NumericParams(cap=SEARCH_CAP, grid_points=SEARCH_POINTS)
        h1 = _er_grid(r1, red)
        h2 = h1 if r2 == r1 else _er_grid(r2, red)
        e1 = _distribution(h1)
        e2 = e1 if r2 == r1 else _distribution(h2)
        joint = product([e1, e2])
        _, red_price = _grid_sweep(h1, h2)
        anchor = Fraction(red_price)  # drev >= companion brev once this price is available
        singles1 = sorted(set(_strided_subset(e1.support, SEARCH_SINGLE_PRICES)) | {anchor})
        singles2 = sorted(set(_strided_subset(e2.support, SEARCH_SINGLE_PRICES)) | {anchor})
        pair_sums = sorted({a + b for a in _strided_subset(e1.support, 10)
                            for b in _strided_subset(e2.support, 10)})
        pair = sorted(set(_strided_subset(pair_sums, SEARCH_BUNDLE_PRICES)) | {anchor})
        grid = CandidateGrid(2, "explicit", (tuple(singles1), tuple(singles2), tuple(pair)))
        drev_exact = search_optimal(joint, "unrestricted", grid).revenue
    return ERGapReport(r1, r2, params.cap, params.grid_points, srev, brev, brev_price,
                       drev_exact, tolerance, w)


# the default levels of er_cap_sweep: (cap, grid_points)
SWEEP_CAPS = (1e2, 1e3, 1e4)
SWEEP_POINTS = (300, 1000, 2400)


def er_cap_sweep(r1: float = 1.0, r2: float = 1.0,
                 caps: Sequence[float] = SWEEP_CAPS,
                 points: Sequence[int] = SWEEP_POINTS) -> List[ERGapReport]:
    """Gap reports across growing caps with resolution growing faster, so the
    discretizations refine and brev/srev climbs toward w from below."""
    if len(caps) != len(points):
        raise ValueError("caps and points must have equal length")
    out = []
    for cap, pts in zip(caps, points):
        params = NumericParams(cap=cap, grid_points=pts)
        out.append(numeric_gap_er(r1, r2, params, include_drev=False))
    return out

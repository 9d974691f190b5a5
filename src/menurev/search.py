"""Exhaustive grid search for revenue-optimal menus under structural constraints.

The search is exact: results are reported as Fractions and the winning menu's
revenue is re-verified against the rational evaluator. Every instance, for any
number of items, runs on one engine: values and prices are scaled to integers
and menu blocks are evaluated with numpy, in int64 arrays, or in arrays of
Python ints where int64 keys would overflow. When atom probabilities have
denominators too large for int64 weights, or the keys are Python ints, the
block scores use float64 screening and every near-optimal candidate is
re-scored exactly as the integer sum of its payments times the atom weights
p_t * W (W the lcm of the probability denominators), with no Fraction buyer
per candidate, before the winner is declared. `SearchResult.path` names the
regime. Menus are enumerated in lexicographic price order (singletons first,
then pairs, then larger bundles) and ties break toward the lexicographically
smallest price vector.

A type buys the option with the largest key (v - p) * K + p, which ranks
utility first and breaks utility ties toward the higher price, and pays the
key mod K. `_layout` is the only reader of the constraint. It splits the
menus into blocks, whose singleton prices (every price, for additive menus)
are fixed and generated lazily, over a mesh with one axis per other bundle
(per bundle size, for symmetric menus), and lists the feasibility terms
p[a] + p[b] >= p[c] + p[d] of bundle monotonicity and submodularity. Each
axis has a key table, built once per search, holding every type's key at
every candidate price of the axis; a menu's keys are the block's fixed
maximum combined with one table row per axis by `maximum`. Price rows are
built only for chunk winners and the float-screening window. The window has
no size cap: it holds every menu within the cut below the best float score,
drops the rows below the cut whenever that score rises, and is rescored
exactly once, at the end.

Bundle-monotone pruning (p(S) <= p(T) for S within T) is applied only when the
candidate grids are closed under price monotonization, which holds for integer
grids; otherwise pruning is skipped so no grid optimum can be lost.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iproduct
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .buyer import expected_revenue
from .model import (
    Bundle,
    JointDistribution,
    Menu,
    all_bundles,
    bundle_table,
    bundle_value,
)
from .rational import RationalLike, decimal_with_flag, format_rational, parse_nonnegative

GRID_MODES = ("integer-grid", "support-sums", "explicit")

CONSTRAINTS = (
    "unrestricted",
    "symmetric",
    "submodular",
    "symmetric-and-submodular",
    "additive",
    "bundle-only",
)
_CONSTRAINT_ALIASES = {"symmetric-submodular": "symmetric-and-submodular"}

STAGES = ("mask", "evaluate", "rescore", "verify")

_INT64_BUDGET = 1 << 62
# bytes of the kernel's (rows, types) temporaries per evaluation chunk; a
# cell is the key, the gathered table row and the float or Python-int payment
_CHUNK_BYTES = 48 << 20
_CELL_BYTES = {np.int64: 24, object: 56}
_ROWS_BUDGET = 350_000_000  # mesh cells x bundles in one enumeration block


class SearchError(ValueError):
    pass


def canonical_constraint(name: str) -> str:
    resolved = _CONSTRAINT_ALIASES.get(name, name)
    if resolved not in CONSTRAINTS:
        raise SearchError(f"unknown constraint {name!r}; expected one of {CONSTRAINTS}")
    return resolved


@dataclass(frozen=True)
class CandidateGrid:
    """Per-bundle candidate price sets, in canonical bundle order, each sorted."""

    n: int
    mode: str
    prices: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.mode not in GRID_MODES:
            raise SearchError(f"unknown grid mode {self.mode!r}")
        if len(self.prices) != (1 << self.n) - 1:
            raise SearchError("grid must supply one price set per nonempty bundle")
        for b, ps in zip(all_bundles(self.n), self.prices):
            if not ps:
                raise SearchError(f"empty candidate set for bundle {b}")
            if list(ps) != sorted(set(ps)):
                raise SearchError(f"candidate set for bundle {b} must be sorted and duplicate-free")
            if ps[0] < 0:
                raise SearchError(f"negative candidate price for bundle {b}")

    def bundle_prices(self, bundle: Bundle) -> Tuple[Fraction, ...]:
        return self.prices[all_bundles(self.n).index(bundle)]


def candidate_grid(dist: JointDistribution, mode: str = "integer-grid",
                   explicit: Optional[Mapping[Iterable[int], Sequence[RationalLike]]] = None,
                   max_price: Optional[RationalLike] = None) -> CandidateGrid:
    """Build candidate price sets for every bundle.

    integer-grid: {0, 1, ..., ceil(max v(S))} per bundle; requires integer
    support values. support-sums: all sums of per-item support values (each
    item contributing one of its support values or 0). explicit: caller-given
    sets. `max_price` caps every bundle's candidates.
    """
    order = all_bundles(dist.n)
    cap = parse_nonnegative(max_price, "max_price") if max_price is not None else None
    sets: List[Tuple[Fraction, ...]] = []
    if mode == "integer-grid":
        for i in range(dist.n):
            for v in dist.support_values(i + 1):
                if v.denominator != 1:
                    raise SearchError(f"integer-grid requested but item {i + 1} has "
                                      f"non-integer support value {v}")
        for bundle in order:
            top = max(bundle_value(v, bundle) for v, _ in dist.atoms)
            hi = int(math.ceil(top))
            if cap is not None:
                hi = min(hi, int(cap))
            sets.append(tuple(Fraction(k) for k in range(hi + 1)))
    elif mode == "support-sums":
        supports = [tuple(dist.support_values(i + 1)) + (Fraction(0),) for i in range(dist.n)]
        for bundle in order:
            sums = {Fraction(0)}
            for combo in iproduct(*(supports[i - 1] for i in bundle)):
                sums.add(sum(combo, Fraction(0)))
            if cap is not None:
                sums = {s for s in sums if s <= cap} | {Fraction(0)}
            sets.append(tuple(sorted(sums)))
    elif mode == "explicit":
        if explicit is None:
            raise SearchError("explicit mode requires candidate sets")
        try:
            table = bundle_table(explicit, dist.n)
        except ValueError as exc:
            raise SearchError(f"explicit grid: {exc}") from None
        for bundle in order:
            if bundle not in table:
                raise SearchError(f"explicit grid missing bundle {bundle}")
            ps = sorted({parse_nonnegative(p, f"grid price for {bundle}") for p in table[bundle]})
            if cap is not None:
                ps = [p for p in ps if p <= cap] or [Fraction(0)]
            sets.append(tuple(ps))
    else:
        raise SearchError(f"unknown grid mode {mode!r}")
    return CandidateGrid(dist.n, mode, tuple(sets))


@dataclass(frozen=True)
class SearchResult:
    best: Menu
    revenue: Fraction
    examined: int
    constraint: str
    grid_mode: str
    elapsed: float
    pruned: bool
    path: str  # "int64", "float-screen" or "float-screen-bigint"
    rescored: int  # candidates scored exactly after float screening
    stages: Dict[str, float]  # seconds per stage, keyed by STAGES

    def to_json_dict(self) -> Dict[str, object]:
        dec = decimal_with_flag(self.revenue)
        return {
            "constraint": self.constraint,
            "grid": self.grid_mode,
            "menu": [format_rational(p) for p in self.best.prices],
            "revenue": format_rational(self.revenue),
            "revenue_decimal": dec,
            "menus_examined": self.examined,
            "pruned": self.pruned,
            "path": self.path,
            "rescored": self.rescored,
            "stages": {k: round(v, 6) for k, v in self.stages.items()},
            "wall_time_s": round(self.elapsed, 6),
        }


# ---------------------------------------------------------------------------
# Scaled instance
# ---------------------------------------------------------------------------

class _Instance:
    def __init__(self, dist: JointDistribution, grid: CandidateGrid):
        self.dist = dist
        self.grid = grid
        self.order = all_bundles(dist.n)
        denoms = {p.denominator for ps in grid.prices for p in ps}
        denoms |= {x.denominator for v, _ in dist.atoms for x in v}
        self.L = math.lcm(*denoms) if denoms else 1
        max_single = [int(ps[-1] * self.L) for ps, b in zip(grid.prices, self.order) if len(b) == 1]
        max_grid = max(int(ps[-1] * self.L) for ps in grid.prices)
        # additive menus price bundles at sums of single prices, which can
        # exceed every grid value, so K must cover them too
        self.K = max(max_grid, sum(max_single)) + 1
        items = [[x.numerator * (self.L // x.denominator) for x in v] for v, _ in dist.atoms]
        max_val = max((sum(row) for row in items), default=0)
        self.int_keys = (max_val + self.K + 1) * self.K < _INT64_BUDGET
        # Python ints stay exact where int64 keys would overflow
        self.dtype = np.int64 if self.int_keys else object
        # exact integer atom weights w_t = p_t * W, so revenue = sum(pay_t * w_t) / (W * L)
        self.W = math.lcm(*{p.denominator for _, p in dist.atoms})
        exact = [p.numerator * (self.W // p.denominator) for _, p in dist.atoms]
        self.exact_weights = np.array(exact, dtype=object)
        self.int_weights = self.int_keys and self.W * self.K < _INT64_BUDGET
        self.path = ("int64" if self.int_weights
                     else "float-screen" if self.int_keys else "float-screen-bigint")
        self.values = np.array([[sum(row[i - 1] for i in b) for b in self.order]
                                for row in items], dtype=self.dtype)
        if self.int_weights:
            self.weights = np.array(exact, dtype=np.int64)
        else:
            self.weights = np.array([float(p) for _, p in dist.atoms], dtype=np.float64)

    def menu_from_scaled(self, row: Sequence[int]) -> Menu:
        return Menu(self.dist.n, tuple(Fraction(int(p), self.L) for p in row))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _monotone_closure_holds(grid: CandidateGrid) -> bool:
    """Grids closed under lowering a price to a superset bundle's price."""
    order = all_bundles(grid.n)
    sets = [set(ps) for ps in grid.prices]
    for i, s in enumerate(order):
        cap = max(grid.prices[i])
        ss = set(s)
        for j, t in enumerate(order):
            if ss < set(t):
                if any(p <= cap and p not in sets[i] for p in grid.prices[j]):
                    return False
    return True


@lru_cache(maxsize=None)
def _lattice_terms(n: int) -> Tuple[Tuple[Tuple[int, int, int, int], ...], ...]:
    """(monotonicity terms, submodularity terms): index quadruples (a, b, c, d)
    for p[a] + p[b] >= p[c] + p[d], where -1 is the empty bundle, of price 0."""
    order = all_bundles(n)
    index = {b: i for i, b in enumerate(order)} | {(): -1}
    monotone, submodular = [], []
    for i, j in combinations(range(len(order)), 2):
        s, t = set(order[i]), set(order[j])
        if s < t:
            monotone.append((j, -1, i, -1))
        else:
            submodular.append((i, j, index[tuple(sorted(s & t))], index[tuple(sorted(s | t))]))
    return tuple(monotone), tuple(submodular)


@dataclass(frozen=True)
class _Layout:
    """How a constraint's menus split into blocks. The `fixed` columns take one
    price tuple per block from `blocks`, in lexicographic order; mesh axis g
    prices all of its `groups[g]` columns at one of its `axes[g]` candidates.
    `tables[g][j, t]` is the key (v - p) * K + p of the best column of group g
    for type t with the axis at candidate j. A menu is feasible when
    p[a] + p[b] >= p[c] + p[d] for every term (a, b, c, d), with p[-1] = 0."""

    fixed: Tuple[int, ...]
    blocks: Iterator[Tuple[int, ...]]
    groups: Tuple[Tuple[int, ...], ...]
    axes: Tuple[np.ndarray, ...]
    tables: Tuple[np.ndarray, ...]
    terms: Tuple[Tuple[int, int, int, int], ...]

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    @property
    def width(self) -> int:
        return len(self.fixed) + sum(map(len, self.groups))

    def rows(self, prices: Sequence[int], subs: Sequence[np.ndarray],
             count: int) -> List[Tuple[int, ...]]:
        """Scaled price rows of the `count` menus at mesh indices `subs` of the
        block whose fixed columns cost `prices`."""
        out = np.empty((count, self.width), dtype=object)
        for c, p in zip(self.fixed, prices):
            out[:, c] = p
        for group, axis, j in zip(self.groups, self.axes, subs):
            out[:, list(group)] = axis[j][:, None]
        return [tuple(int(x) for x in row) for row in out]


def _layout(inst: _Instance, constraint: str, prune: bool) -> Optional[_Layout]:
    """The constraint's blocks, key tables and feasibility terms, with the
    bundle-monotone terms only if `prune`; None when it admits no grid menu."""
    n, order = inst.dist.n, inst.order
    every = tuple(range(len(order)))
    grids = [np.array([int(p * inst.L) for p in ps], dtype=inst.dtype) for ps in inst.grid.prices]
    singles = [g.tolist() for g in grids[:n]]
    monotone, submodular = _lattice_terms(n)
    terms = monotone if prune else ()
    if constraint == "additive":
        # additive and bundle-only menus are bundle-monotone by construction
        fixed, groups, axes, terms = every, [], [], ()
        blocks = (tuple(sum(combo[i - 1] for i in b) for b in order)
                  for combo in iproduct(*singles))
    elif constraint == "bundle-only":
        # every bundle costs the grand-bundle price
        fixed, groups, axes, terms = (), [every], [grids[-1]], ()
        blocks = iter([()])
    elif constraint in ("unrestricted", "submodular"):
        fixed, groups, axes = every[:n], [(i,) for i in every[n:]], grids[n:]
        blocks = iproduct(*singles)
    else:
        # symmetric menus price all bundles of one size at a shared candidate
        by_size = [tuple(i for i in every if len(order[i]) == k) for k in range(1, n + 1)]
        shared = [sorted(set.intersection(*(set(grids[c].tolist()) for c in cols)))
                  for cols in by_size]
        if not all(shared):
            return None
        fixed, groups = every[:n], by_size[1:]
        axes = [np.array(ps, dtype=inst.dtype) for ps in shared[1:]]
        blocks = ((q,) * n for q in shared[0])
    if constraint in ("submodular", "symmetric-and-submodular"):
        terms += submodular
    tables = []
    for group, axis in zip(groups, axes):
        # columns sharing one price: the highest value among them is the best
        top = inst.values[:, list(group)].max(axis=1)
        tables.append((top[None, :] - axis[:, None]) * inst.K + axis[:, None])
    return _Layout(fixed, blocks, tuple(groups), tuple(axes), tuple(tables), terms)


def _enumerate_blocks(layout: _Layout) -> Iterator[Tuple[Tuple[int, ...], np.ndarray]]:
    """Yield (fixed prices, flat mesh indices of the block's feasible menus),
    every menu in lexicographic price order."""
    if math.prod(layout.shape) * layout.width > _ROWS_BUDGET:
        raise SearchError("candidate grid too large; supply a smaller explicit grid")
    mesh = np.meshgrid(*layout.axes, indexing="ij", sparse=True)
    cols: List[object] = [0] * (layout.width + 1)  # cols[-1] is the empty bundle
    for group, arr in zip(layout.groups, mesh):
        for c in group:
            cols[c] = arr
    for prices in layout.blocks:
        for c, p in zip(layout.fixed, prices):
            cols[c] = p
        mask = np.ones(layout.shape, dtype=bool)
        for a, b, c, d in layout.terms:
            mask &= (cols[a] + cols[b]) >= (cols[c] + cols[d])
        idx = np.flatnonzero(mask)
        if idx.size:
            yield prices, idx


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _fixed_key(inst: _Instance, cols: Sequence[int], prices: Sequence[int]) -> np.ndarray:
    """Per type, max(0, max over `cols` of (v - p) * K + p): the key of the
    best option among those columns, utility ties toward the higher price."""
    key = np.zeros(len(inst.values), dtype=inst.dtype)
    for c, p in zip(cols, prices):
        np.maximum(key, (inst.values[:, c] - p) * inst.K + p, out=key)
    return key


def _payments(inst: _Instance, fixed_key: np.ndarray, tables: Sequence[np.ndarray],
              subs: Sequence[np.ndarray]) -> np.ndarray:
    """Payment of each type (column) under each menu of a block (row): the
    best of the fixed key and each axis's table row at the menu's mesh index,
    mod K. With no tables the block is the one menu of `fixed_key`."""
    if not tables:
        key = fixed_key[None, :].copy()
    else:
        key = tables[0][subs[0]]
        np.maximum(key, fixed_key, out=key)
        for tab, j in zip(tables[1:], subs[1:]):
            np.maximum(key, tab[j], out=key)
    if key.dtype == object:
        return np.remainder(key, inst.K, out=key)
    # numpy divides int64 by a scalar several times faster than it takes remainders
    quot = key // inst.K
    quot *= inst.K
    key -= quot
    return key


class _StageClock:
    """Seconds per search stage; `lap` charges the time since the last lap."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] += now - self._last
        self._last = now


def search_optimal(dist: JointDistribution, constraint: str, grid: CandidateGrid) -> SearchResult:
    """Maximize exact expected revenue over all constraint-satisfying grid menus."""
    t0 = time.perf_counter()
    constraint = canonical_constraint(constraint)
    if grid.n != dist.n:
        raise SearchError(f"grid is for {grid.n} items but distribution has {dist.n}")

    inst = _Instance(dist, grid)
    prune = _monotone_closure_holds(grid)
    clock = _StageClock()
    best_menu, best_rev, examined, rescored = _search_vectorized(inst, constraint, prune, clock)
    if best_menu is None:
        raise SearchError(f"empty feasible set under constraint {constraint!r}")
    # the rational evaluator is the final authority on the reported revenue
    check = expected_revenue(best_menu, dist)
    if check != best_rev:
        raise AssertionError(f"internal revenue mismatch: {check} != {best_rev}")
    clock.lap("verify")
    return SearchResult(best_menu, best_rev, examined, constraint, grid.mode,
                        time.perf_counter() - t0, prune, inst.path, rescored, clock.seconds)


def _exact_best(inst: _Instance, rows: Iterable[Tuple[int, ...]]) -> Tuple[int, Tuple[int, ...]]:
    """(score, row) of the largest exact score, ties to the lexicographically smallest row."""
    every = range(len(inst.order))
    best = None
    for row in sorted(rows):
        pay = _payments(inst, _fixed_key(inst, every, row), (), ())[0]
        # sum_t pay_t * w_t, grouped by the few distinct payments
        score = sum(int(q) * inst.exact_weights[pay == q].sum() for q in np.unique(pay) if q)
        if best is None or score > best[0]:
            best = (score, row)
    return best


def _search_vectorized(inst: _Instance, constraint: str, prune: bool, clock: _StageClock):
    layout = _layout(inst, constraint, prune)
    clock.lap("evaluate")
    if layout is None:
        return None, None, 0, 0
    weights = inst.weights
    chunk_rows = max(1, _CHUNK_BYTES // (_CELL_BYTES[inst.dtype] * len(weights)))

    examined = 0
    best: Optional[Tuple[int, Tuple[int, ...]]] = None  # exact (score, row) on int64 weights
    top = -math.inf  # best float score when screening
    window: List[Tuple[float, Tuple[int, ...]]] = []  # rows within the cut below `top`

    for prices, idx in _enumerate_blocks(layout):
        clock.lap("mask")
        fixed_key = _fixed_key(inst, layout.fixed, prices)
        for lo in range(0, idx.size, chunk_rows):
            part = idx[lo:lo + chunk_rows]
            subs = np.unravel_index(part, layout.shape) if layout.axes else ()
            scores = _payments(inst, fixed_key, layout.tables, subs) @ weights
            examined += part.size
            i = int(np.argmax(scores))
            if inst.int_weights:
                if best is None or scores[i] > best[0]:
                    best = (int(scores[i]), layout.rows(prices, [s[i:i + 1] for s in subs], 1)[0])
                continue
            if scores[i] > top:
                top = float(scores[i])
                cut = top - 1e-9 * (abs(top) + 1.0)
                window = [w for w in window if w[0] >= cut]
            keep = np.nonzero(scores >= cut)[0]
            rows = layout.rows(prices, [s[keep] for s in subs], keep.size)
            window += zip(scores[keep].tolist(), rows)
        clock.lap("evaluate")

    if examined == 0:
        return None, None, 0, 0
    if not inst.int_weights:
        best = _exact_best(inst, [r for _, r in window])
        clock.lap("rescore")
    score, row = best
    return inst.menu_from_scaled(row), Fraction(score, inst.W * inst.L), examined, len(window)


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------

GAP_FIELDS = ("drev", "srev", "brev", "smdrev", "symdrev")
_GAP_CONSTRAINT = {
    "drev": "unrestricted",
    "srev": "additive",
    "brev": "bundle-only",
    "smdrev": "submodular",
    "symdrev": "symmetric",
}


@dataclass(frozen=True)
class GapReport:
    results: Dict[str, SearchResult]
    ratios: Dict[str, Fraction]

    def to_json_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for name in GAP_FIELDS:
            out[name] = self.results[name].to_json_dict()
        out["ratios"] = {
            key: {"exact": format_rational(q), "decimal": decimal_with_flag(q)}
            for key, q in sorted(self.ratios.items())
        }
        return out


def gap_report(dist: JointDistribution, grid: CandidateGrid) -> GapReport:
    """Optimal revenue per constraint class plus all pairwise revenue ratios."""
    results = {name: search_optimal(dist, _GAP_CONSTRAINT[name], grid)
               for name in GAP_FIELDS}
    ratios: Dict[str, Fraction] = {}
    for a in GAP_FIELDS:
        for b in GAP_FIELDS:
            if a != b and results[b].revenue != 0:
                ratios[f"{a}/{b}"] = results[a].revenue / results[b].revenue
    return GapReport(results, ratios)

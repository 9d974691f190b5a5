"""Exhaustive grid search for revenue-optimal menus under structural constraints.

The search is exact: results are reported as Fractions and the winning menu's
revenue is re-verified by `buyer.expected_revenue`, whose integer evaluator
shares no code with this kernel. Every instance runs on one engine, in
integers only: values and prices are scaled to integers, and menu blocks are
evaluated with numpy in int64 arrays, or in arrays of Python ints where int64
keys would overflow. A menu's score is sum_t w_t * pay_t for integer atom
weights w_t. They are exact, or floor-scaled where exact int64 scores would
overflow; a score is then a lower bound within an integer slack D of the
exact one (see `_Instance`). `SearchResult.path` names the regime: "int64",
"int64-scaled" or "bigint". Ties break toward the lexicographically smallest
price vector (singletons first, then pairs, then larger bundles).

A type buys the option with the largest key (v - p) * K + p, which ranks
utility first and breaks utility ties toward the higher price, and pays the
key mod K. `_layout` is the only reader of the constraint. It splits the menus
into blocks, whose singleton prices (every price, for additive menus) are
fixed and generated lazily, over a mesh with one axis per other bundle (per
bundle size, for symmetric menus), and lists the feasibility terms
p[a] + p[b] >= p[c] + p[d] of bundle monotonicity and submodularity: the
one-element steps `model._lattice_terms` caches, which admit the menus all
bundle pairs admit and which `model.is_submodular` also walks.
The head mesh is the mesh without its last axis, which is the grand bundle in
every layout that has terms; a cell of it is a head row of J menus, one per
last-axis candidate. Every term is linear in the last-axis price, so the
feasible menus of a head row are the candidates in one range [lo, hi), and
`examined` is the sum of hi - lo (`_enumerate_blocks`). The menus of a head
row are scored in closed form from key tables built once per search
(`_mesh_scores`). The caller masks the cells outside [lo, hi) and in skipped
slabs and takes the first maximum of the (head rows x J) score matrix, which
is the chunk's lexicographically smallest best menu. Additive blocks, which
have no mesh, and the exact rescoring take the payments key mod K directly.

Blocks that fix singleton prices over a mesh are searched by branch and bound
on every path: `_slab_bounds` bounds the score of every menu of a slab of the
grand-bundle axis, and blocks are visited in descending bound order, equal
bounds lexicographically. With best the incumbent's score, a slab or a menu
is live when its bound or score is at least best - D; no other can hold an
optimum, and `skipped` counts the feasible menus of the dead slabs. With
D = 0 the scores are exact: a chunk's first best menu is kept while it ties
best, and the lexicographically smallest kept wins, the menu lexicographic
enumeration finds. With D > 0 the live menus form a window, with no size
cap, which drops the menus below best - D as best rises and is rescored
exactly once, at the end (`_exact_best`). Additive and bundle-only layouts
enumerate their blocks in lexicographic order, unbounded.

Exchangeable items. When every relabeling of the items maps the instance
onto itself (`_exchangeable`: the atoms onto the atoms with equal exact
weights, and each bundle's candidates onto those of its image, checked in
integers for the adjacent transpositions, which generate the relabelings),
relabeling a menu so that its single prices ascend gives a twin that earns
the same revenue, is feasible exactly when the menu is, and has the same
floor-scaled score. Unless the single prices already ascend, the twin's
price vector is lexicographically smaller, so the lexicographically
smallest optimum lies in a block with ascending single prices, and the
`unrestricted`, `submodular` and `additive` layouts yield only those
(lex-leader symmetry breaking). `examined` and `skipped` count each such
block once per distinct arrangement of its single prices, n! / prod_k m_k!
for price multiplicities m_k, so `examined` still counts every feasible
menu. This is not the paper's theorem that two IID items have symmetric
optimal menus, which does not follow from the symmetry of the distribution:
relabeling maps optima to optima, and the search still ranges over every
asymmetric menu with ascending single prices.

Bundle-monotone pruning (p(S) <= p(T) for S within T) is applied only when the
candidate grids are closed under price monotonization, which holds for integer
grids; otherwise pruning is skipped so no grid optimum can be lost. Closure
is tested over all bundle pairs: closure along each step does not imply it.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, islice, product as iproduct
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .buyer import expected_revenue
from .model import (
    JointDistribution,
    Menu,
    _bundle_masks,
    _lattice_terms,
    all_bundles,
    bundle_table,
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

# "mask": the block bounds and the feasible last-axis range of every head row;
# "evaluate": scaling the instance, the key tables and the menu scores;
# "rescore": exact rescoring of the window; "verify": the buyer's own revenue
STAGES = ("mask", "evaluate", "rescore", "verify")

_INT64_BUDGET = 1 << 62
# bytes of the kernel's temporaries per evaluation chunk. A head row holds
# one cell per type (its key, a gathered table row, its threshold and its
# plain and weighted payment) and one per last-axis candidate and its end
# bucket (the bucketed weights and payments, their cumulative sums, the
# score matrix row and its mask of cells outside [lo, hi) or in skipped
# slabs). The peak traced by tracemalloc over one _mesh_scores call and its
# masking, per cell, was 27-33 bytes on int64 keys (10 to 10^4 types, 50 to
# 3000 candidates) and 30-48 on 80-bit Python-int keys; object cells are
# budgeted higher, since a Python int grows with its digits.
_CHUNK_BYTES = 48 << 20
_CELL_BYTES = {np.int64: 50, object: 160}
# an exactly rescored cell also holds its payment as a Python int and that
# payment's product with its exact weight, as the dot takes it
_RESCORE_CELL_BYTES = 160
# head cells (blocks x head-mesh cells) per enumeration chunk. Their
# feasibility temporaries, traced by tracemalloc over whole chunks, took 18
# to 36 bytes per cell on int64 prices (example 4 and a 4-item grid, the
# pruned unrestricted and submodular layouts) and 29 on Python-int prices,
# so a chunk takes a few MiB; larger chunks ran no faster.
_HEAD_CHUNK = 1 << 17
_ROWS_BUDGET = 350_000_000  # mesh cells x bundles in one enumeration block
# blocks of one search, each scored in its own pass or all listed with their
# bounds before any is scored: 501,501 blocks of a 2-item search raised peak
# RSS by 175 MiB, about 365 bytes per block, so the budget holds about 365 MiB
_BLOCKS_BUDGET = 1 << 20


class SearchError(ValueError):
    pass


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


def candidate_grid(dist: JointDistribution, mode: str = "integer-grid",
                   explicit: Optional[Mapping[Iterable[int], Sequence[RationalLike]]] = None,
                   max_price: Optional[RationalLike] = None) -> CandidateGrid:
    """Build candidate price sets for every bundle.

    integer-grid: {0, 1, ..., max v(S')} per bundle, S' over the bundles of
    its size, so a symmetric menu may price a size at any of its bundles'
    values; requires integer support values. support-sums: all sums of per-item support values (each
    item contributing one of its support values or 0). explicit: caller-given
    sets; a bad price raises ParseError at its path, e.g. `explicit['1,2'][0]`.
    `max_price` caps every bundle's candidates.
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
        # the top value of a size-k bundle is the sum of the k largest values
        tops = {k: max(sum(sorted(v)[dist.n - k:]) for v, _ in dist.atoms)
                for k in range(1, dist.n + 1)}
        for bundle in order:
            hi = int(tops[len(bundle)])
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
        from .serialize import bundle_key  # here, so that the other modes load no serialize
        try:
            table = bundle_table(explicit, dist.n)
        except ValueError as exc:
            raise SearchError(f"explicit grid: {exc}") from None
        for bundle in order:
            if bundle not in table:
                raise SearchError(f"explicit grid missing bundle {bundle}")
            where = f"explicit[{bundle_key(bundle)!r}]"
            ps = sorted({parse_nonnegative(p, f"{where}[{j}]")
                         for j, p in enumerate(table[bundle])})
            if cap is not None:
                ps = [p for p in ps if p <= cap] or [Fraction(0)]
            sets.append(tuple(ps))
    return CandidateGrid(dist.n, mode, tuple(sets))


@dataclass(frozen=True)
class SearchResult:
    best: Menu
    revenue: Fraction
    examined: int  # feasible menus, evaluated or skipped
    constraint: str
    grid_mode: str
    elapsed: float
    pruned: bool
    path: str  # "int64", "int64-scaled" (scores within a slack) or "bigint" (Python ints)
    rescored: int  # window menus scored exactly; 0 where every score is exact
    stages: Dict[str, float]  # seconds per stage, keyed by STAGES
    skipped: int  # feasible menus the revenue bound excluded without evaluation
    exchangeable: bool  # items interchangeable: only ascending single prices searched

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "constraint": self.constraint,
            "grid": self.grid_mode,
            "menu": [format_rational(p) for p in self.best.prices],
            "revenue": format_rational(self.revenue),
            "revenue_decimal": decimal_with_flag(self.revenue),
            "menus_examined": self.examined,
            "pruned": self.pruned,
            "path": self.path,
            "rescored": self.rescored,
            "skipped": self.skipped,
            "exchangeable": self.exchangeable,
            "stages": {k: round(v, 6) for k, v in self.stages.items()},
            "wall_time_s": round(self.elapsed, 6),
        }


# ---------------------------------------------------------------------------
# Scaled instance
# ---------------------------------------------------------------------------

class _Instance:
    """An instance in integers. Values and grid prices are scaled by L, the lcm
    of their denominators, and held in the keys' dtype: int64 where every key
    fits, Python ints otherwise. With W the lcm of the probability
    denominators, a menu's exact score sum_t p_t * W * pay_t is its revenue
    times W * L. `weights` holds w_t = floor(p_t * s), in the keys' dtype, so
    that lower = sum_t w_t * pay_t <= score * s / W <= lower + D for the
    slack D. On Python-int keys, or where W * K fits the int64 budget, s = W
    and D = 0. Otherwise s = budget // K - T and D = T * (K - 1): every lower
    score is at most s * (K - 1), so it stays below the budget with D added."""

    def __init__(self, dist: JointDistribution, grid: CandidateGrid):
        self.dist = dist
        self.grid = grid
        self.order = all_bundles(dist.n)
        coords = [x for v, _ in dist.atoms for x in v]
        denoms = {p.denominator for ps in grid.prices for p in ps} | {x.denominator for x in coords}
        self.L = _lcm(denoms)
        max_single = [int(ps[-1] * self.L) for ps, b in zip(grid.prices, self.order) if len(b) == 1]
        max_grid = max(int(ps[-1] * self.L) for ps in grid.prices)
        # additive menus price bundles at sums of single prices, which can
        # exceed every grid value, so K must cover them too
        self.K = max(max_grid, sum(max_single)) + 1
        items = _multiples(coords, self.L).reshape(len(dist.atoms), dist.n)
        max_val = max(items.sum(axis=1), default=0)
        # Python ints stay exact where int64 keys would overflow
        self.dtype = np.int64 if (max_val + self.K + 1) * self.K < _INT64_BUDGET else object
        incidence = [[int(i + 1 in b) for b in self.order] for i in range(dist.n)]
        self.values = items.astype(self.dtype) @ np.array(incidence, dtype=self.dtype)
        self.W = _lcm({p.denominator for _, p in dist.atoms})
        # the exact atom weights p_t * W
        self.exact_weights = _multiples([p for _, p in dist.atoms], self.W)
        T = len(dist.atoms)
        if self.dtype is object or self.W * self.K < _INT64_BUDGET:
            self.scale, self.slack = self.W, 0
            self.weights = self.exact_weights.astype(self.dtype)
            self.path = "int64" if self.dtype is np.int64 else "bigint"
        else:
            self.scale, self.slack = _INT64_BUDGET // self.K - T, T * (self.K - 1)
            self.weights = np.array([p.numerator * self.scale // p.denominator
                                     for _, p in dist.atoms], dtype=np.int64)
            self.path = "int64-scaled"
        self.exchangeable = _exchangeable(self)

    def menu_from_scaled(self, row: Sequence[int]) -> Menu:
        return Menu(self.dist.n, tuple(Fraction(int(p), self.L) for p in row))


def _exchangeable(inst: _Instance) -> bool:
    """Whether every relabeling of the items maps the instance onto itself.
    Adjacent transpositions generate the relabelings, so each of them must
    map the atoms, with their exact weights, onto the atoms and every
    bundle's candidates onto those of its image. The atoms are distinct, so
    sorting both sets of value rows pairs them up."""
    n = inst.dist.n
    cols = inst.values[:, :n]  # the singletons come first
    order = np.lexsort(cols.T[::-1])
    rows, weights = cols[order], inst.exact_weights[order]
    index = {b: k for k, b in enumerate(inst.order)}
    for i in range(1, n):
        swap = {i: i + 1, i + 1: i}
        if any(ps != inst.grid.prices[index[tuple(sorted(swap.get(x, x) for x in b))]]
               for b, ps in zip(inst.order, inst.grid.prices)):
            return False
        swapped = cols[:, [swap.get(x, x) - 1 for x in range(1, n + 1)]]
        image = np.lexsort(swapped.T[::-1])
        if not ((swapped[image] == rows).all() and (inst.exact_weights[image] == weights).all()):
            return False
    return True


def _arrangements(prices: Sequence[int]) -> int:
    """n! / prod_k m_k!, the distinct orders of n prices whose distinct
    values occur m_k times each."""
    return math.factorial(len(prices)) // math.prod(map(math.factorial, Counter(prices).values()))


def _lcm(ints: Iterable[int]) -> int:
    """The lcm, pairwise over a balanced tree so that most steps take small
    operands: a third of the time of a running lcm over 10^4 atoms."""
    xs = list(ints) or [1]
    while len(xs) > 1:
        xs = [math.lcm(*xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return xs[0]


def _multiples(xs: Sequence[Fraction], m: int) -> np.ndarray:
    """x * m as Python ints in an object array, for xs whose denominators
    divide m; m // d is taken once per distinct denominator d."""
    per = {d: m // d for d in {x.denominator for x in xs}}
    return np.array([x.numerator * per[x.denominator] for x in xs], dtype=object)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _monotone_closure_holds(grid: CandidateGrid) -> bool:
    """Grids closed under lowering a price to a superset bundle's price: for
    every bundle S within a bundle T, every candidate of T up to the top one of
    S is one of S. Every pair is tested: no one-element step says so of T = S+i+j
    when the candidate is above the tops of S+i and S+j."""
    masks = _bundle_masks(grid.n)
    below = {m: (ps[-1], set(ps)) for m, ps in zip(masks, grid.prices)}
    for mask, ps in zip(masks, grid.prices):
        sub = mask
        while sub := (sub - 1) & mask:  # the nonempty proper submasks, descending
            if any(p <= below[sub][0] and p not in below[sub][1] for p in ps):
                return False
    return True


@dataclass(frozen=True)
class _Layout:
    """How a constraint's menus split into blocks. The `fixed` columns take one
    price tuple per block from `blocks`, in lexicographic order; mesh axis g
    prices all of its `groups[g]` columns at one of its `axes[g]` candidates.
    `tops[g][t]` is type t's highest value among the columns of group g, and
    `tables[g][j, t]` the key (v - p) * K + p of that column with the axis at
    candidate j. For every axis g before the last, `thresholds[g][j, t]` is
    the number of last-axis candidates that type t prefers to that key (see
    `_key_tables`). A menu is feasible when p[a] + p[b] >= p[c] + p[d] for
    every term (a, b, c, d), with p[-1] = 0. With `ascending`, the blocks
    are those whose single prices (the first fixed columns) ascend, and each
    stands for its `_arrangements` of them."""

    fixed: Tuple[int, ...]
    blocks: Iterator[Tuple[int, ...]]
    groups: Tuple[Tuple[int, ...], ...]
    axes: Tuple[np.ndarray, ...]
    tops: Tuple[np.ndarray, ...]
    tables: Tuple[np.ndarray, ...]
    thresholds: Tuple[np.ndarray, ...]
    terms: Tuple[Tuple[int, int, int, int], ...]
    ascending: bool

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    @property
    def width(self) -> int:
        return len(self.fixed) + sum(map(len, self.groups))

    def rows(self, prices: Sequence[int], idx: np.ndarray) -> List[Tuple[int, ...]]:
        """Scaled price rows of the menus at flat mesh indices `idx` of the
        block whose fixed columns cost `prices`."""
        out = np.empty((len(idx), self.width), dtype=object)
        for c, p in zip(self.fixed, prices):
            out[:, c] = p
        subs = np.unravel_index(idx, self.shape) if self.axes else ()
        for group, axis, j in zip(self.groups, self.axes, subs):
            out[:, list(group)] = axis[j][:, None]
        return [tuple(int(x) for x in row) for row in out]


def _last_axis_threshold(K: int, axis: np.ndarray, top: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Per type, the number j* of candidates a of the last mesh axis that the
    type strictly prefers to an option of key k: a * (K - 1) < top * K - k,
    top its value for the axis's bundles. j* does not rise with k."""
    return np.searchsorted(axis * (K - 1), top * K - key)


def _key_tables(K: int, axes: Sequence[np.ndarray], tops: Sequence[np.ndarray]
                ) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
    """(key tables, threshold tables) of a mesh: per axis, the (candidates,
    types) keys (top - a) * K + a, and per axis before the last, the last-axis
    threshold of each of those keys."""
    tables = tuple((top[None, :] - axis[:, None]) * K + axis[:, None]
                   for top, axis in zip(tops, axes))
    thresholds = tuple(_last_axis_threshold(K, axes[-1], tops[-1], tab) for tab in tables[:-1])
    return tables, thresholds


def _layout(inst: _Instance, constraint: str, prune: bool) -> Optional[_Layout]:
    """The constraint's blocks, key tables and feasibility terms, with the
    bundle-monotone terms only if `prune`; None when it admits no grid menu."""
    n, order = inst.dist.n, inst.order
    every = tuple(range(len(order)))
    grids = [np.array([int(p * inst.L) for p in ps], dtype=inst.dtype) for ps in inst.grid.prices]
    singles = [g.tolist() for g in grids[:n]]
    monotone, submodular = _lattice_terms(n)
    terms = monotone if prune else ()
    # relabeling the items sorts a menu's single prices and keeps its revenue
    # and feasibility, so the lexicographically smallest optimum ascends
    ascending = inst.exchangeable and constraint in ("additive", "unrestricted", "submodular")
    combos = (combinations_with_replacement(singles[0], n) if ascending
              else iproduct(*singles))
    count = (math.comb(len(singles[0]) + n - 1, n) if ascending
             else math.prod(map(len, singles)))
    if constraint == "additive":
        # additive and bundle-only menus are bundle-monotone by construction
        fixed, groups, axes, terms = every, [], [], ()
        blocks = (tuple(sum(combo[i - 1] for i in b) for b in order) for combo in combos)
    elif constraint == "bundle-only":
        # every bundle costs the grand-bundle price
        fixed, groups, axes, terms, count = (), [every], [grids[-1]], (), 1
        blocks = iter([()])
    elif constraint in ("unrestricted", "submodular"):
        fixed, groups, axes = every[:n], [(i,) for i in every[n:]], grids[n:]
        blocks = combos
    else:
        # symmetric menus price all bundles of one size at a shared candidate
        by_size = [tuple(i for i in every if len(order[i]) == k) for k in range(1, n + 1)]
        shared = [sorted(set.intersection(*(set(grids[c].tolist()) for c in cols)))
                  for cols in by_size]
        if not all(shared):
            return None
        fixed, groups = every[:n], by_size[1:]
        axes = [np.array(ps, dtype=inst.dtype) for ps in shared[1:]]
        blocks, count = ((q,) * n for q in shared[0]), len(shared[0])
    if count > _BLOCKS_BUDGET or math.prod(map(len, axes)) * len(order) > _ROWS_BUDGET:
        raise SearchError("candidate grid too large; supply a smaller explicit grid")
    if constraint in ("submodular", "symmetric-and-submodular"):
        terms += submodular
    # columns sharing one price: the highest value among them is the best
    tops = tuple(inst.values[:, list(group)].max(axis=1) for group in groups)
    tables, thresholds = _key_tables(inst.K, axes, tops)
    return _Layout(fixed, blocks, tuple(groups), tuple(axes), tops, tables, thresholds, terms,
                   ascending)


def _enumerate_blocks(layout: _Layout, blocks: Iterable[Tuple[int, ...]]
                      ) -> Iterator[Tuple[Tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (fixed prices, heads, lo, hi) for each of `blocks` in turn that
    holds a feasible menu: `heads` are the flat indices, ascending, of the
    cells of the head mesh (the mesh axes before the last) that hold one, and
    the feasible menus of head row `heads[r]` are those whose last-axis
    candidate j lies in [lo[r], hi[r]).

    A term p[a] + p[b] >= p[c] + p[d] is linear in the last-axis price x:
    coef * x + rest >= 0, with coef the count of last-axis columns among a
    and b less that among c and d. A term with coef 0 tests a head cell, one
    with coef 1 (monotonicity: the grand bundle as a) bounds x from below, and
    one with coef -1 (submodularity: the grand bundle as the union d) from
    above, so one binary search per bound and head cell finds the range.
    Blocks are taken in chunks of about `_HEAD_CHUNK` head cells."""
    last = set(layout.groups[-1]) if layout.axes else set()
    J = layout.shape[-1] if layout.axes else 1
    by_coef: Dict[int, List[Tuple[List[int], List[int]]]] = {-1: [], 0: [], 1: []}
    for term in layout.terms:
        coef = sum(c in last for c in term[:2]) - sum(c in last for c in term[2:])
        if coef not in by_coef:
            raise AssertionError(f"feasibility term {term} has last-axis coefficient {coef}")
        by_coef[coef].append(([c for c in term[:2] if c not in last],
                              [c for c in term[2:] if c not in last]))
    head_shape = layout.shape[:-1]
    heads_per_block = math.prod(head_shape)
    step = max(1, _HEAD_CHUNK // heads_per_block)
    dtype = layout.axes[-1].dtype if layout.axes else object
    # a leading axis over the chunk's blocks, then one per head axis
    mesh = np.meshgrid(*layout.axes[:-1], indexing="ij", sparse=True)
    cols: Dict[int, object] = {-1: 0}  # -1 is the empty bundle
    for group, arr in zip(layout.groups, mesh):
        for c in group:
            cols[c] = arr[None]

    def rest(plus: List[int], minus: List[int]):
        return sum(cols[c] for c in plus) - sum(cols[c] for c in minus)

    blocks = iter(blocks)
    while part := list(islice(blocks, step)):
        full = (len(part),) + head_shape
        fixed = np.array(part, dtype=dtype).reshape(len(part), len(layout.fixed))
        for k, c in enumerate(layout.fixed):
            cols[c] = fixed[:, k].reshape((len(part),) + (1,) * len(head_shape))
        ok = np.ones(full, dtype=bool)
        for plus, minus in by_coef[0]:
            ok &= rest(plus, minus) >= 0
        lo, hi = 0, J
        if by_coef[1]:
            lower = reduce(np.maximum, (-rest(*t) for t in by_coef[1]))
            lo = np.searchsorted(layout.axes[-1], lower, side="left")
        if by_coef[-1]:
            upper = reduce(np.minimum, (rest(*t) for t in by_coef[-1]))
            hi = np.searchsorted(layout.axes[-1], upper, side="right")
        ok &= lo < hi
        ok = ok.reshape(len(part), heads_per_block)
        lo = np.broadcast_to(lo, full).reshape(len(part), heads_per_block)
        hi = np.broadcast_to(hi, full).reshape(len(part), heads_per_block)
        for b, prices in enumerate(part):
            heads = np.flatnonzero(ok[b])
            if heads.size:
                yield prices, heads, lo[b, heads], hi[b, heads]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _fixed_key(inst: _Instance, cols: Sequence[int], prices) -> np.ndarray:
    """Per type, max(0, max over `cols` of (v - p) * K + p): the key of the
    best option among those columns, utility ties toward the higher price.
    `prices` holds one price per column, or one row of them per menu, which
    gives one row of keys per menu."""
    prices = np.asarray(prices, dtype=inst.dtype)
    key = np.zeros(prices.shape[:-1] + (len(inst.values),), dtype=inst.dtype)
    for k, c in enumerate(cols):
        np.maximum(key, inst.values[:, c] * inst.K - prices[..., k, None] * (inst.K - 1), out=key)
    return key


def _payments(inst: _Instance, key: np.ndarray) -> np.ndarray:
    """Each type's payment under its key: key mod K, in a new array."""
    if key.dtype == object:
        return key % inst.K
    # numpy divides int64 by a scalar several times faster than it takes remainders
    pay = key // inst.K
    pay *= -inst.K
    pay += key
    return pay


def _mesh_scores(inst: _Instance, layout: _Layout, fixed_key: np.ndarray,
                 heads: np.ndarray) -> np.ndarray:
    """(len(heads), J): the score sum_t w_t * pay_t of every menu of the head
    rows at flat head-mesh indices `heads`, one column per last-axis
    candidate, in the block whose row of fixed keys is `fixed_key`.

    The menus of a head row share each type's key k_t over the fixed options
    and the head axes: the `maximum` of the fixed key and those axes' table
    rows. On the last axis, type t takes candidate a_j exactly when
    (top_t - a_j) * K + a_j > k_t, that is a_j * (K - 1) < top_t * K - k_t,
    so at every j below a threshold j*_t, and pays k_t mod K from j*_t on
    (where the two keys are equal, so are the two payments, so a tie may fall
    either way). j*_t does not rise with k_t, so the threshold of the maximum
    key is the minimum of the fixed key's threshold and the head axes'
    threshold-table rows. With the weights bucketed by j*_t, the score at j
    is a_j times the weight of the buckets above j plus the prefix sum of
    w_t * (k_t mod K) over the buckets up to j."""
    axis, weights = layout.axes[-1], inst.weights
    J, T = len(axis), len(fixed_key)
    key = fixed_key[None, :]
    cut = _last_axis_threshold(inst.K, axis, layout.tops[-1], fixed_key)[None, :]
    if len(layout.axes) > 1:
        subs = np.unravel_index(heads, layout.shape[:-1])
        for tab, thr, s in zip(layout.tables, layout.thresholds, subs):
            key = np.maximum(key, tab[s])
            cut = np.minimum(cut, thr[s])
    key = np.broadcast_to(key, (len(heads), T))
    cut = cut + np.arange(0, len(heads) * (J + 1), J + 1)[:, None]
    cut = cut.ravel()
    # exact integer sums, where bincount would give floats; add.at runs
    # fastest on a flat index and values of the same length
    takes = np.zeros(len(heads) * (J + 1), dtype=weights.dtype)
    np.add.at(takes, cut, np.tile(weights, len(heads)))
    stays = np.zeros_like(takes)
    np.add.at(stays, cut, (_payments(inst, key) * weights).ravel())
    takes = takes.reshape(-1, J + 1)
    scores = np.cumsum(takes[:, :0:-1], axis=1)[:, ::-1]
    scores *= axis
    scores += np.cumsum(stays.reshape(-1, J + 1)[:, :J], axis=1)
    return scores


def _slab_bounds(inst: _Instance, layout: _Layout, fixed_key: np.ndarray) -> np.ndarray:
    """(blocks, J): an upper bound on the score of every menu of each
    block whose row of fixed keys is given, per candidate of the last mesh
    axis (the grand bundle), whose table row is folded into the block's fixed
    options; with one axis, each block's one bound repeated.

    No menu of a slab leaves a type less utility u than those options give
    it, so the type pays what it pays there, or a candidate of another axis
    that is at most its value for that axis's bundles minus u. That dearest
    candidate falls as u rises, and u of the better of two options is the
    larger of theirs, so it is the smaller of the two options' own: one
    binary search per block and type, and one per slab and type."""
    folded = len(layout.axes) > 1
    keys = [fixed_key[:, None, :]] + [layout.tables[-1][None]] * folded
    utils = [k // inst.K for k in keys]
    pays = [k - u * inst.K for k, u in zip(keys, utils)]
    # equal keys pay alike, so a tie may take either payment
    pay = np.where(keys[0] >= keys[1], pays[0], pays[1]) if folded else pays[0]
    for axis, top in zip(layout.axes[:len(layout.axes) - folded], layout.tops):
        # the dearest affordable candidate, or 0 when there is none
        priced = np.concatenate(([0], axis))
        dearest = [priced[np.searchsorted(axis, top - u, side="right")] for u in utils]
        np.maximum(pay, reduce(np.minimum, dearest), out=pay)
    return np.broadcast_to(pay @ inst.weights, (len(pay), layout.shape[-1]))


def _exact_scores(inst: _Instance, pay: np.ndarray) -> np.ndarray:
    """Exact sum over t of pay[r, t] * w_t, as Python ints, for each row r."""
    return pay.astype(object) @ inst.exact_weights


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
    if constraint not in CONSTRAINTS:
        raise SearchError(f"unknown constraint {constraint!r}; expected one of {CONSTRAINTS}")
    if grid.n != dist.n:
        raise SearchError(f"grid is for {grid.n} items but distribution has {dist.n}")

    clock = _StageClock()  # scaling the instance is charged to "evaluate"
    inst = _Instance(dist, grid)
    prune = _monotone_closure_holds(grid)
    # own frame: its key tables are freed before the check (inlined, er-gap RSS read 61 MiB, not 56)
    best_menu, best_rev, examined, rescored, skipped = _search_vectorized(
        inst, constraint, prune, clock)
    if best_menu is None:
        raise SearchError(f"empty feasible set under constraint {constraint!r}")
    # the buyer's evaluator, independent of the kernel, is the final authority
    check = expected_revenue(best_menu, dist)
    if check != best_rev:
        raise AssertionError(f"internal revenue mismatch: {check} != {best_rev}")
    clock.lap("verify")
    return SearchResult(best_menu, best_rev, examined, constraint, grid.mode,
                        time.perf_counter() - t0, prune, inst.path, rescored, clock.seconds,
                        skipped, inst.exchangeable)


def _exact_best(inst: _Instance, rows: Iterable[Tuple[int, ...]]) -> Tuple[int, Tuple[int, ...]]:
    """(score, row) of the largest exact score, ties to the lexicographically smallest row."""
    every = range(len(inst.order))
    rows = sorted(rows)
    chunk_rows = max(1, _CHUNK_BYTES // (_RESCORE_CELL_BYTES * len(inst.values)))
    best = None
    for lo in range(0, len(rows), chunk_rows):
        part = rows[lo:lo + chunk_rows]
        pay = _payments(inst, _fixed_key(inst, every, part))
        # one exact score per distinct payment vector; object rows hash by
        # value as tuples, since their bytes are pointers
        as_key = tuple if pay.dtype == object else np.ndarray.tobytes
        slots: Dict[object, int] = {}
        inverse = [slots.setdefault(as_key(p), len(slots)) for p in pay]
        first = np.unique(inverse, return_index=True)[1]
        scores = _exact_scores(inst, pay[first])[inverse]
        i = int(np.argmax(scores))  # the first of equal scores
        if best is None or scores[i] > best[0]:
            best = (int(scores[i]), part[i])
    return best


def _search_vectorized(inst: _Instance, constraint: str, prune: bool, clock: _StageClock):
    layout = _layout(inst, constraint, prune)
    clock.lap("evaluate")
    if layout is None:
        return None, None, 0, 0, 0
    weights, D = inst.weights, inst.slack
    # a layout without a mesh has one head row of one candidate per block
    cell, J = _CELL_BYTES[inst.dtype], layout.shape[-1] if layout.axes else 1
    # a chunk holds the menus of at most chunk_rows head rows
    chunk_rows = max(1, _CHUNK_BYTES // (cell * (len(weights) + J + 1)))

    blocks: Iterable[Tuple[int, ...]] = layout.blocks
    bounds: Dict[Tuple[int, ...], np.ndarray] = {}
    if layout.fixed and layout.axes:
        # branch and bound: the block of highest bound first, equal bounds in
        # lexicographic order
        blocks = list(blocks)
        # a block's slab bounds take (J, types) cells, each holding about
        # twice the temporaries of a kernel cell
        step = max(1, _CHUNK_BYTES // (2 * cell * J * len(weights)))
        for lo in range(0, len(blocks), step):
            part = blocks[lo:lo + step]
            bounds.update(zip(part, _slab_bounds(inst, layout, _fixed_key(inst, layout.fixed, part))))
        blocks.sort(key=lambda p: (-int(bounds[p].max()), p))

    examined = skipped = 0
    # below best - D once any menu is scored, so it marks the cells not scored
    best = floor = -D - 1
    # (score, row) of live menus: with D = 0, chunk winners tied at best
    window: List[Tuple[int, Tuple[int, ...]]] = []
    candidates = np.arange(J)

    for prices, heads, lo, hi in _enumerate_blocks(layout, blocks):
        # a block counts once per arrangement of its single prices
        twins = _arrangements(prices[:inst.dist.n]) if layout.ascending else 1
        feasible = hi - lo
        examined += twins * int(feasible.sum())
        live = None
        if bounds and window:
            # slabs bounded below best - D cannot hold an optimum
            live = bounds[prices] >= best - D
            below = np.concatenate(([0], np.cumsum(live)))  # live slabs before each j
            kept = below[hi] - below[lo]
            skipped += twins * int((feasible - kept).sum())
            heads, lo, hi = heads[kept > 0], lo[kept > 0], hi[kept > 0]
        clock.lap("mask")
        if not heads.size:
            continue
        fixed_key = _fixed_key(inst, layout.fixed, prices)
        for r in range(0, heads.size, chunk_rows):
            part = slice(r, r + chunk_rows)
            if layout.axes:
                scores = _mesh_scores(inst, layout, fixed_key, heads[part])
            else:
                scores = (_payments(inst, fixed_key[None, :]) @ weights)[:, None]
            out = (candidates < lo[part, None]) | (candidates >= hi[part, None])
            if live is not None:
                out |= ~live
            scores[out] = floor
            scores = scores.ravel()
            i = int(np.argmax(scores))  # the first of equal scores
            score = int(scores[i])
            if score > best:
                best = score
                window = [w for w in window if w[0] >= best - D]
            if not D:
                # exact ties: blocks come in bound order, so the smallest row kept wins
                if score == best:
                    window.append((score, layout.rows(prices, [heads[r + i // J] * J + i % J])[0]))
                continue
            keep = np.flatnonzero(scores >= best - D)
            rows = layout.rows(prices, heads[r + keep // J] * J + keep % J)
            window += zip(scores[keep].tolist(), rows)
        clock.lap("evaluate")

    if examined == 0:
        return None, None, 0, 0, 0
    if D:
        score, row = _exact_best(inst, [w for _, w in window])
        clock.lap("rescore")
    else:
        score, row = best, min(w for _, w in window)
    return (inst.menu_from_scaled(row), Fraction(score, inst.W * inst.L), examined,
            len(window) if D else 0, skipped)


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


def gap_report(dist: JointDistribution, grid: CandidateGrid) -> GapReport:
    """Optimal revenue per constraint class plus all pairwise revenue ratios."""
    results = {name: search_optimal(dist, _GAP_CONSTRAINT[name], grid)
               for name in GAP_FIELDS}
    ratios = {f"{a}/{b}": results[a].revenue / results[b].revenue
              for a in GAP_FIELDS for b in GAP_FIELDS if a != b and results[b].revenue != 0}
    return GapReport(results, ratios)

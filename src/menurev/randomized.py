"""Lottery menus: buyer choice, false-name deviations, IC/IR checking, and the
revenue-maximization LP over finite type spaces.

False-name deviations (several picks bought under different identities)
are scored by one integer rule, `_ScaledPicks`, for one multiset and for the
exhaustive search alike; a Fraction is built only for the returned utility.

The revenue LP is convex and invariant under relabeling the items whenever
the distribution is exchangeable, so averaging an optimum over the n!
relabelings gives a symmetric optimum (Daskalakis and Weinberg, EC 2012).
The float-guided path therefore solves such an LP over one representative
type per orbit, and certifies the lifted optimum on the full system by the
orbit dual averaged over the relabelings (`_lp_solve`, `_Orbits`).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from math import factorial
from operator import mul
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from . import lp
from .model import JointDistribution, Valuation, as_valuation
from .rational import (ParseError, RationalLike, over_common_denominator, parse_nonnegative,
                       parse_rational)

COMBINATION_RULES = ("capped", "independent")

MAX_FALSE_NAME_PICKS = 3


@dataclass(frozen=True)
class MenuEntry:
    allocation: Tuple[Fraction, ...]  # per-item probability in [0, 1]
    payment: Fraction


@dataclass(frozen=True)
class RandomizedMenu:
    """Finite list of (allocation, payment) lottery options, always including
    the null option (zero allocation, zero payment) at index 0."""

    n: int
    entries: Tuple[MenuEntry, ...]

    @classmethod
    def from_entries(cls, n: int,
                     entries: Sequence[Tuple[Sequence[RationalLike], RationalLike]],
                     where: str = "entries") -> "RandomizedMenu":
        """The menu of the (allocation, payment) `entries`; a fault names its
        path below `where`, e.g. `entries[0].alloc[1]`."""
        parsed: List[MenuEntry] = []
        for i, (alloc, pay) in enumerate(entries):
            at = f"{where}[{i}].alloc"
            a = tuple(parse_rational(x, f"{at}[{j}]") for j, x in enumerate(alloc))
            if len(a) != n:
                raise ParseError(at, f"allocation length {len(a)} != {n}")
            for j, x in enumerate(a):
                if not 0 <= x <= 1:
                    raise ParseError(f"{at}[{j}]", f"must lie in [0, 1], got {x}")
            p = parse_nonnegative(pay, f"{where}[{i}].pay")
            parsed.append(MenuEntry(a, p))
        null = MenuEntry(tuple(Fraction(0) for _ in range(n)), Fraction(0))
        if null not in parsed:
            parsed.insert(0, null)
        return cls(n, tuple(parsed))


@dataclass(frozen=True)
class RChoice:
    index: int
    entry: MenuEntry
    utility: Fraction


def rchoice(m: RandomizedMenu, v: Sequence[RationalLike]) -> RChoice:
    """Utility-maximizing entry; ties toward higher payment, then lowest index.
    Each entry is scored as one pick, whose utility is the same under both
    combination rules."""
    scaled = _ScaledPicks(m, v, "capped", 1)
    utility = [scaled.score(state, 1) for _, state in scaled.multisets(1)]
    best = max(range(len(utility)), key=lambda i: (utility[i], scaled.pays[i]))
    return RChoice(best, m.entries[best], Fraction(utility[best], scaled.den))


class _ScaledPicks:
    """Multisets of menu picks scored in integers, for one valuation and rule.

    The allocations are scaled by L, the payments by P and the values by V,
    each the lcm of their denominators. A state after s picks is (the payments
    times P, one integer per item): under `independent` the miss probability
    prod(L - q) over L^s, so the item is allocated with L^s - prod(L - q) over
    L^s; under `capped` min(L, sum q) over L. `score` gives the utility of s <=
    k picks as an integer over the one denominator `den` = V * P * L^k, so any
    two multisets of at most k picks compare as integers.
    """

    def __init__(self, m: RandomizedMenu, v: Sequence[RationalLike], rule: str, k: int):
        if rule not in COMBINATION_RULES:
            raise ValueError(f"unknown combination rule {rule!r}")
        value_den, self.values = over_common_denominator(as_valuation(v, m.n, "valuation"))
        alloc_den, allocs = over_common_denominator(
            chain.from_iterable(e.allocation for e in m.entries))
        pay_den, self.pays = over_common_denominator(e.payment for e in m.entries)
        it = iter(allocs)
        allocs = [tuple(islice(it, m.n)) for _ in m.entries]
        self.cap = alloc_den
        self.independent = rule == "independent"
        # utility * den = P * L^(k-s) * (the items' value over V * L^s) - V * L^k * paid,
        # and under `independent` that value is L^s * sum(values) - values . miss
        if self.independent:
            self.factors = [tuple(alloc_den - q for q in a) for a in allocs]
            self.empty = (0, (1,) * m.n)
            self.base = pay_den * alloc_den ** k * sum(self.values)
            self.weight = [-pay_den * alloc_den ** (k - s) for s in range(k + 1)]
        else:
            self.factors = allocs
            self.empty = (0, (0,) * m.n)
            self.base = 0
            self.weight = [pay_den * alloc_den ** (k - 1)] * (k + 1)
        self.pay_weight = value_den * alloc_den ** k
        self.den = value_den * pay_den * alloc_den ** k

    def pick(self, state: Tuple[int, Tuple[int, ...]], e: int) -> Tuple[int, Tuple[int, ...]]:
        paid, items = state
        if self.independent:
            items = tuple(map(mul, items, self.factors[e]))
        else:
            items = tuple(min(self.cap, x + q) for x, q in zip(items, self.factors[e]))
        return paid + self.pays[e], items

    def score(self, state: Tuple[int, Tuple[int, ...]], s: int) -> int:
        paid, items = state
        return (self.base + self.weight[s] * sum(map(mul, self.values, items))
                - self.pay_weight * paid)

    def multisets(self, size: int, start: int = 0, picks: Tuple[int, ...] = (),
                  state: Optional[Tuple[int, Tuple[int, ...]]] = None):
        """(picks, state) for each multiset of `size` more picks from `start`
        on, in combinations_with_replacement order; a prefix is folded once."""
        state = self.empty if state is None else state
        for e in range(start, len(self.factors)):
            nxt = self.pick(state, e)
            if size == 1:
                yield picks + (e,), nxt
            else:
                yield from self.multisets(size - 1, e, picks + (e,), nxt)


def false_name_utility(m: RandomizedMenu, v: Sequence[RationalLike], picks: Sequence[int],
                       rule: str) -> Fraction:
    """Utility of submitting several menu picks under different identities.

    The buyer is non-adaptive: all picks are fixed upfront, the per-item
    allocation probabilities combine by `rule`, and every payment is due.
    """
    if not picks:
        raise ValueError("picks must be nonempty")
    for j, e in enumerate(picks):
        if isinstance(e, bool) or not isinstance(e, int) or not 0 <= e < len(m.entries):
            raise ValueError(f"picks[{j}]: no menu entry {e!r} "
                             f"(the menu has entries 0..{len(m.entries) - 1})")
    scaled = _ScaledPicks(m, v, rule, len(picks))
    state = scaled.empty
    for e in picks:
        state = scaled.pick(state, e)
    return Fraction(scaled.score(state, len(picks)), scaled.den)


def best_false_name_deviation(m: RandomizedMenu, v: Sequence[RationalLike], rule: str,
                              k: int = 2) -> Tuple[Tuple[int, ...], Fraction]:
    """Best multiset of at most k picks; exhaustive, so k is capped at 3. The
    sizes run 1..k, each in combinations_with_replacement order, and a later
    multiset wins only if strictly better, so the first best one is returned."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_FALSE_NAME_PICKS:
        raise ValueError(f"exhaustive enumeration beyond k={MAX_FALSE_NAME_PICKS} is refused")
    if len(m.entries) ** k > 2_000_000:
        raise ValueError("too many entry combinations to enumerate")
    scaled = _ScaledPicks(m, v, rule, k)
    best_picks: Tuple[int, ...] = (0,)
    best_u: Optional[int] = None
    for size in range(1, k + 1):
        for picks, state in scaled.multisets(size):
            u = scaled.score(state, size)
            if best_u is None or u > best_u:
                best_picks, best_u = picks, u
    return best_picks, Fraction(best_u, scaled.den)


# ---------------------------------------------------------------------------
# Direct mechanisms and the revenue LP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectMechanism:
    """Per-type allocation and payment, aligned with a distribution's atoms."""

    allocations: Tuple[Tuple[Fraction, ...], ...]
    payments: Tuple[Fraction, ...]

    def expected_revenue(self, dist: JointDistribution) -> Fraction:
        if len(self.payments) != len(dist.atoms):
            raise ValueError("mechanism and distribution have different type counts")
        return sum((p * pay for (_, p), pay in zip(dist.atoms, self.payments)), Fraction(0))


@dataclass(frozen=True)
class ICIRReport:
    ok: bool
    violations: Tuple[str, ...]


def verify_ic_ir(d: DirectMechanism, dist: JointDistribution) -> ICIRReport:
    """Check all pairwise truthfulness constraints and per-type rationality.

    The values, allocations and payments are scaled by L, the lcm of their
    denominators, so type t reporting s has the integer utility
    L^2 * (v_t . x_s - p_s); Fractions are built only for the messages.
    """
    types = [v for v, _ in dist.atoms]
    if len(types) != len(d.payments):
        raise ValueError("mechanism does not cover every type")
    scale, scaled = over_common_denominator(chain(
        chain.from_iterable(types), chain.from_iterable(d.allocations), d.payments))
    it = iter(scaled)
    values = [tuple(islice(it, len(v))) for v in types]
    allocations = [tuple(islice(it, len(x))) for x in d.allocations]
    payments = [p * scale for p in islice(it, len(d.payments))]
    square = scale * scale
    viol: List[str] = []
    for t, v in enumerate(values):
        utility = [sum(map(mul, v, x)) - p for x, p in zip(allocations, payments)]
        own = utility[t]
        if own < 0:
            viol.append(f"IR: type {t} has utility {Fraction(own, square)}")
        for s, other in enumerate(utility):
            if s != t and own < other:
                viol.append(f"IC: type {t} prefers report {s} "
                            f"({Fraction(own, square)} < {Fraction(other, square)})")
    return ICIRReport(not viol, tuple(viol))


def direct_from_menu(m: RandomizedMenu, dist: JointDistribution) -> DirectMechanism:
    """Assign every type of the distribution its chosen menu entry."""
    allocs, pays = [], []
    for v, _ in dist.atoms:
        choice = rchoice(m, v)
        allocs.append(choice.entry.allocation)
        pays.append(choice.entry.payment)
    return DirectMechanism(tuple(allocs), tuple(pays))


def menu_expected_payment(m: RandomizedMenu, dist: JointDistribution) -> Fraction:
    return direct_from_menu(m, dist).expected_revenue(dist)


@dataclass(frozen=True)
class LPOutcome:
    mechanism: DirectMechanism
    revenue: Fraction
    method: str
    rounds: int = field(default=0, compare=False)  # bases whose dual was solved, or simplex pivots
    stages: Dict[str, float] = field(default_factory=dict, compare=False)  # seconds per stage
    certified = True  # every method returns a certified optimum or raises


def _scaled_types(values: List[Valuation]) -> List[Tuple[int, List[Tuple[int, int]]]]:
    """Per type: (scale, [(item, integer value)] over the nonzero values), the
    scale the lcm of the denominators of the type's values."""
    scaled = []
    for v in values:
        d, ints = over_common_denominator(v)
        scaled.append((d, [(i, q) for i, q in enumerate(ints) if q]))
    return scaled


def _ic_row(d: int, vt: List[Tuple[int, int]], xt: Sequence[int], xs: Sequence[int],
            pt: int, ps: int) -> lp.Row:
    """IC(t -> s), v_t.(x_t - x_s) - p_t + p_s >= 0, times t's scale d, with
    xt and xs the columns of the two allocations and pt and ps those of the
    two payments. Entries on a shared column add up; zero sums are dropped."""
    row: lp.Row = {}
    for i, q in vt:
        j = xt[i]
        row[j] = row.get(j, 0) + q
    for i, q in vt:
        j = xs[i]
        row[j] = row.get(j, 0) - q
    row[pt] = row.get(pt, 0) - d
    row[ps] = row.get(ps, 0) + d
    return {j: a for j, a in row.items() if a} if 0 in row.values() else row


def _ir_row(d: int, vt: List[Tuple[int, int]], xt: Sequence[int], pt: int) -> lp.Row:
    """IR(t), v_t.x_t - p_t >= 0, times t's scale d, on the columns xt of
    t's allocation and pt of its payment. Entries on a shared column add up
    (the values in vt are positive, so no sum is zero)."""
    row: lp.Row = {}
    for i, q in vt:
        j = xt[i]
        row[j] = row.get(j, 0) + q
    row[pt] = -d
    return row


def _lp_rows(values: List[Valuation], n: int) -> Tuple[List[lp.Row], List[int], List[int]]:
    """The IC and IR constraints in >= form as sparse integer rows, the IC rows
    first; columns are x, then payments. Returns (rows, rhs, scale): a row of
    type t's constraints is that constraint times scale = the lcm of the
    denominators of t's values. The bounds 0 <= x <= 1 are the callers'."""
    t_count = len(values)
    nx = t_count * n
    x = [range(t * n, t * n + n) for t in range(t_count)]
    rows: List[lp.Row] = []
    scale: List[int] = []
    scaled = _scaled_types(values)
    for t, (d, vt) in enumerate(scaled):
        for s in range(t_count):
            if s != t:
                rows.append(_ic_row(d, vt, x[t], x[s], nx + t, nx + s))
                scale.append(d)
    for t, (d, vt) in enumerate(scaled):
        rows.append(_ir_row(d, vt, x[t], nx + t))
        scale.append(d)
    return rows, [0] * len(rows), scale


def _full_system(values: List[Valuation], mu: List[Fraction], n: int):
    """(c, rows, rhs, scale) of the full LP: the rows of `_lp_rows`, then per
    (t, i) the pair x >= 0, -x >= -1, of scale 1."""
    nx = len(values) * n
    rows, rhs, scale = _lp_rows(values, n)
    rows += [{col: sign} for col in range(nx) for sign in (1, -1)]
    return [Fraction(0)] * nx + list(mu), rows, rhs + [0, -1] * nx, scale + [1] * (2 * nx)


class _Orbits:
    """The types of an exchangeable distribution grouped by item relabeling,
    and the orbit LP over them.

    An orbit is represented by its sorted type r. A symmetric mechanism
    gives type s the allocation x_s,i = y(r, s_i), for r the representative
    of s: it depends only on the orbit and the value, so equal coordinates
    share a variable and the lift x_(pi r) = pi.x_r is well defined. The
    columns are one y per (orbit, distinct value), then one payment per
    orbit; the column map (`cols`, `pay`) gives each type the columns of
    its allocation and its payment. A full row restricted to symmetric
    points is that row written through the map, as `_ic_row` and `_ir_row`
    write it. The rows are IC(r -> s) for every type s, one per class of s
    under r's stabilizer (those rows coincide there), then IR(r), then per
    y the pair y >= 0, -y >= -1, each a box row of one coordinate of r,
    scaled as `_lp_rows` scales them. `literal` records each row's full row
    as its per-item labels, which relabelings permute, and its kind ("ic",
    "ir" or a box row's sign). Coordinates are the ranks of the values.
    """

    def __init__(self, ids: List[Tuple[int, ...]], reps: List[Tuple[int, ...]],
                 of_type: List[int], mass: List[Fraction],
                 scaled: List[Tuple[int, List[Tuple[int, int]]]], n: int):
        self.n, self.scaled = n, scaled
        self.index = index = {v: t for t, v in enumerate(ids)}
        column: List[Dict[int, int]] = []  # per orbit: value rank -> y column
        ny = 0
        for r in reps:
            column.append({})
            for a in r:
                if a not in column[-1]:
                    column[-1][a] = ny
                    ny += 1
        # the column map: per type, the y column of each coordinate, and the
        # payment column of its orbit
        self.cols = cols = [[column[k][a] for a in v] for v, k in zip(ids, of_type)]
        self.pay = pay = [ny + k for k in of_type]
        self.c = [Fraction(0)] * ny + mass
        ic, ir, box = [], [], []  # per row (row, scale, rhs, literal), in this order
        for k, r in enumerate(reps):
            t = index[r]
            d, vt = scaled[t]
            # r's stabilizer permutes the positions of equal values
            blocks = [[i for i in range(n) if r[i] == a] for a in column[k]] \
                if len(column[k]) < n else None
            seen = set()
            for s, v in enumerate(ids):
                if s == t:
                    continue
                if blocks:
                    key = tuple(tuple(sorted(v[i] for i in b)) for b in blocks)
                    if key in seen:
                        continue
                    seen.add(key)
                row = _ic_row(d, vt, cols[t], cols[s], pay[t], pay[s])
                if row:  # in r's own orbit the payments cancel, and the row may too
                    ic.append((row, d, 0, (tuple(zip(r, v)), "ic")))
            ir.append((_ir_row(d, vt, cols[t], pay[t]), d, 0, (r, "ir")))
            for a, j in column[k].items():
                first = r.index(a)
                labels = tuple((b, i == first) for i, b in enumerate(r))
                box += [({j: sign}, 1, min(sign, 0), (labels, sign)) for sign in (1, -1)]
        self.rows, self.scale, self.rhs, self.literal = map(list, zip(*ic, *ir, *box))

    @classmethod
    def of(cls, values: List[Valuation], mu: List[Fraction], n: int) -> Optional["_Orbits"]:
        """The orbits, or None unless every relabeling of the items maps the
        atoms onto atoms of equal mass: each sorted type's orbit must hold all
        its distinct arrangements, n! / prod(multiplicity!), at one mass."""
        rank = {a: i for i, a in enumerate(sorted(set(chain.from_iterable(values))))}
        ids = [tuple(map(rank.__getitem__, v)) for v in values]
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for t, v in enumerate(ids):
            groups.setdefault(tuple(sorted(v)), []).append(t)
        of_type = [0] * len(values)
        mass = []
        for k, (r, ts) in enumerate(groups.items()):
            arrangements = factorial(n)
            for m in Counter(r).values():
                arrangements //= factorial(m)
            if len(ts) != arrangements or len({ids[t] for t in ts}) != len(ts) \
                    or any(mu[t] != mu[ts[0]] for t in ts):
                return None
            for t in ts:
                of_type[t] = k
            mass.append(mu[ts[0]] * len(ts))
        return cls(ids, list(groups), of_type, mass, _scaled_types(values), n)

    def lift(self, y: List[Fraction]) -> DirectMechanism:
        """The symmetric mechanism of the orbit point y, read through the
        column map."""
        return DirectMechanism(tuple(tuple(y[j] for j in cols) for cols in self.cols),
                               tuple(y[j] for j in self.pay))

    def certifies(self, result: lp.VertexResult, mu: List[Fraction]) -> bool:
        """Whether the orbit dual, averaged over all relabelings, certifies
        the lifted point on the full system, checked in integers.

        Each orbit multiplier sits on its literal full row and is spread
        evenly over the distinct images of that row, its multiplier times
        |stabilizer| / n! on each: the average over the n! relabelings. The
        result must be y >= 0 with sum_i y_i a_i / scale_i = -c on every full
        column and -sum_i y_i b_i / scale_i = the orbit optimum, which with
        the lifted point feasible is optimality by weak duality. Only rows
        that carry a multiplier are built."""
        n, index, scaled = self.n, self.index, self.scaled
        t_count = len(self.pay)
        nx = t_count * n
        x = [range(t * n, t * n + n) for t in range(t_count)]
        spread = []  # (images, per-image multiplier of the integer row, kind)
        for k, y in result.dual.items():
            if y.numerator < 0:
                return False
            if y:
                labels, kind = self.literal[k]
                images = _relabelings(labels)
                spread.append((images, y / (len(images) * self.scale[k]), kind))
        den, factors = over_common_denominator(f for _, f, _ in spread)
        acc = [0] * (nx + t_count)
        bound = 0  # sum of factor * rhs over the image rows
        for (images, _, kind), f in zip(spread, factors):
            for image in images:
                if kind == "ic":
                    t, s = index[tuple(a for a, _ in image)], index[tuple(b for _, b in image)]
                    row = _ic_row(*scaled[t], x[t], x[s], nx + t, nx + s)
                elif kind == "ir":
                    t = index[image]
                    row = _ir_row(*scaled[t], x[t], nx + t)
                else:  # a box row of the marked coordinate, kind its sign
                    t = index[tuple(a for a, _ in image)]
                    row = {x[t][next(i for i, (_, m) in enumerate(image) if m)]: kind}
                    bound += f * min(kind, 0)
                for j, a in row.items():
                    acc[j] += f * a
        w_den, weights = over_common_denominator(mu)
        if any(acc[:nx]) or any(a * w_den != -w * den
                                for a, w in zip(acc[nx:], weights)):
            return False
        objective = result.objective
        return -bound * objective.denominator == objective.numerator * den


def _relabelings(labels: tuple) -> List[tuple]:
    """Each distinct sequence that a relabeling of the items makes of the
    per-item `labels`: the closure under swaps of adjacent items, which
    generate every relabeling."""
    seen = {labels}
    todo = [labels]
    while todo:
        cur = todo.pop()
        for i in range(len(cur) - 1):
            if cur[i] != cur[i + 1]:
                nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return list(seen)


def lp_optimal(dist: JointDistribution, method: str = "auto") -> LPOutcome:
    """Revenue-maximizing direct mechanism over the distribution's types.

    `exact-simplex` runs the exact rational simplex; `float-guided-exact`
    resolves the float optimum's vertex exactly and certifies it by
    degenerate pivots there (see lp.certified_vertex), or raises LPError.
    On an exchangeable distribution it does so on the orbit LP, and lifts
    and certifies the result on the full system (see `_lp_solve`).
    `auto` takes the float-guided vertex and falls back to the exact simplex
    where that raises LPError. No method returns an optimum it did not
    certify, and every one returns an exact rational solution verified
    against every IC/IR constraint.
    """
    if method != "auto":
        return _lp_solve(dist, method)
    try:
        return _lp_solve(dist, "float-guided-exact")
    except lp.LPError:
        pass  # no certified vertex at the float optimum
    return _lp_solve(dist, "exact-simplex")


def _lp_solve(dist: JointDistribution, method: str) -> LPOutcome:
    """One method's certified optimum, checked by `verify_ic_ir` and against
    its revenue.

    On `float-guided-exact`, a distribution with n >= 2 whose atoms every
    relabeling of the items maps onto atoms of equal mass is solved over
    its orbits (`_Orbits`). The LP is convex and invariant under the
    relabelings, so the average of an optimum's relabelings is a symmetric
    optimum (Daskalakis and Weinberg, EC 2012): the LP restricted to
    symmetric points, the orbit LP, has the full optimum. Its certified
    vertex is lifted to a symmetric mechanism x, and certified on the full
    system by the orbit dual y' averaged over the relabelings: each orbit
    row is a full row restricted to symmetric points, so y' on those rows
    matches -c on every symmetric direction. Averaging over the
    relabelings projects y'.A onto the symmetric directions, and -c is
    symmetric, so the averaged y has y.A = -c on every column, while
    y >= 0 and y.b = y'.b hold still. x is feasible and c.x = -y.b, so by
    weak duality x is optimal; `_Orbits.certifies` checks this in
    integers. If the orbit solve raises LPError, the certificate fails or
    the lift fails `verify_ic_ir`, the full system is solved instead.
    """
    values = [v for v, _ in dist.atoms]
    mu = [p for _, p in dist.atoms]
    n = dist.n

    if method == "exact-simplex":
        result = _lp_simplex(values, mu, n)
    elif method == "float-guided-exact":
        orbits = _Orbits.of(values, mu, n) if n >= 2 else None
        if orbits is not None:
            try:
                return _orbit_solve(dist, orbits, mu)
            except lp.LPError:
                pass  # no certificate over the orbits: solve the full system
        result = lp.certified_vertex(*_full_system(values, mu, n))
    else:
        raise ValueError(f"unknown LP method {method!r}")
    t_count, x = len(values), result.x
    mech = DirectMechanism(tuple(tuple(x[t * n + i] for i in range(n)) for t in range(t_count)),
                           tuple(x[t_count * n + t] for t in range(t_count)))
    return _checked(dist, mech, result, method)


def _orbit_solve(dist: JointDistribution, orbits: _Orbits, mu: List[Fraction]) -> LPOutcome:
    result = lp.certified_vertex(orbits.c, orbits.rows, orbits.rhs, orbits.scale)
    start = perf_counter()
    mech = orbits.lift(result.x)
    if not orbits.certifies(result, mu):
        raise lp.LPError("the averaged orbit dual does not certify the lifted mechanism")
    result.stages["lift"] = perf_counter() - start
    return _checked(dist, mech, result, "float-guided-exact")


def _checked(dist: JointDistribution, mech: DirectMechanism, result: lp.VertexResult,
             method: str) -> LPOutcome:
    report = verify_ic_ir(mech, dist)
    if not report.ok:
        raise lp.LPError(f"LP solution failed exact IC/IR checks: {report.violations[:3]}")
    if mech.expected_revenue(dist) != result.objective:
        raise AssertionError("objective/revenue mismatch in LP solution")
    return LPOutcome(mech, result.objective, method, result.rounds, result.stages)


def _lp_simplex(values: List[Valuation], mu: List[Fraction], n: int) -> lp.VertexResult:
    """Exact tableau simplex on the <= form of `_lp_rows`, then x <= 1. The
    simplex keeps every variable >= 0, so x needs no x >= 0 rows, and no
    optimum pays a negative price: values and allocations are nonnegative,
    so if min_s p_s = -eta < 0, IC toward s gives every type utility >= eta,
    and raising every payment by eta keeps IC and IR and earns eta more."""
    nx = len(values) * n
    rows, rhs, _ = _lp_rows(values, n)
    a_ub = [{j: -v for j, v in row.items()} for row in rows] + [{col: 1} for col in range(nx)]
    return lp.simplex_max([Fraction(0)] * nx + list(mu), a_ub, [-r for r in rhs] + [1] * nx)

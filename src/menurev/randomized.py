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
orbit dual averaged over the relabelings, where the one relabeling rule,
`JointDistribution._exchangeable`, holds. One class, `_System`, writes the
full system, the orbit LP and the simplex's system from
`JointDistribution.integer_atoms` through column maps, each row named by
the full row it stands for, and `lp_optimal` tries those systems in one
loop: the orbit LP, the full system, then under `auto` the exact simplex.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from operator import mul
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from . import lp
from .model import JointDistribution, _is_rational, as_valuation
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
    the null option (zero allocation, zero payment): `from_entries` puts it
    at index 0 when the entries lack it and keeps a given one where it is,
    so the entries keep their indices."""

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
    ValueError if the payments, the allocations or an allocation's entries
    do not match the distribution's types and items, or a value, allocation
    entry or payment is not a rational number. It reads the Fraction atoms,
    not `integer_atoms`, so it does not trust the LP rows' scaling.
    """
    types = [v for v, _ in dist.atoms]
    if len(types) != len(d.payments):
        raise ValueError("mechanism does not cover every type")
    if len(types) != len(d.allocations):
        raise ValueError(f"mechanism has {len(d.allocations)} allocations for {len(types)} types")
    for t, x in enumerate(d.allocations):
        if len(x) != dist.n:
            raise ValueError(f"allocation {t} has length {len(x)} for {dist.n} items")
    entries = [*chain.from_iterable(types), *chain.from_iterable(d.allocations), *d.payments]
    if not set(map(type, entries)) <= {int, Fraction}:
        for where, xs in chain(((f"valuation {tuple(v)!r}: value", v) for v in types),
                               ((f"allocation {t}: entry", x) for t, x in enumerate(d.allocations)),
                               [("payment", d.payments)]):
            for i, x in enumerate(xs):
                if not _is_rational(x):
                    raise ValueError(f"{where}[{i}] = {x!r} is a {type(x).__name__}, "
                                     "not a rational number")
    scale, scaled = over_common_denominator(entries)
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


def _ir_row(L: int, vt: List[Tuple[int, int]], xt: Sequence[int], pt: int) -> lp.Row:
    """IR(t), v_t.x_t - p_t >= 0, times L, on the columns xt of t's
    allocation and pt of its payment; vt holds (item, L v_t,i) over t's
    nonzero values. Entries on a shared column add up (the values in vt are
    positive, so no sum is zero)."""
    row: lp.Row = {}
    for i, q in vt:
        j = xt[i]
        row[j] = row.get(j, 0) + q
    row[pt] = -L
    return row


def _ic_row(ir: lp.Row, L: int, vt: List[Tuple[int, int]], xs: Sequence[int], ps: int
            ) -> lp.Row:
    """IC(t -> s), v_t.(x_t - x_s) - p_t + p_s >= 0, times L, written as
    IR(t) - v_t.x_s + L p_s: `ir` is t's IR row, xs the columns of s's
    allocation and ps that of its payment. Entries on a shared column add
    up; zero sums are dropped."""
    row = dict(ir)
    for i, q in vt:
        j = xs[i]
        row[j] = row.get(j, 0) - q
    row[ps] = row.get(ps, 0) + L
    return {j: a for j, a in row.items() if a} if 0 in row.values() else row


class _System:
    """The revenue LP (Conitzer and Sandholm, UAI 2002) in >= form, as
    sparse integer rows written from the distribution's integer atoms
    (`JointDistribution.integer_atoms`) through a column map.

    The map gives type t the columns `cols[t]` of its allocation and
    `pay[t]` of its payment; `c` is the objective. The rows are IC(t -> s)
    for each row type t and every other type s, then IR(t) for each row
    type, then per distinct column of each row type the box pair x >= 0,
    -x >= -1 of scale 1; every IC and IR row is scaled by L, the lcm of the
    coordinate denominators. Coordinates of t that share a column hold
    equal values, so IC(t -> s) depends on s only through its payment
    column and, per column of t, the multiset of s's columns at t's
    coordinates there: one row is written per class, for its first s. Each row
    is named by the full row it stands for: ("ic", t, s), ("ir", t), or
    (sign, t, i) for the box row of t's coordinate i, the first on its
    column. `types` holds each type's integer values, L times its
    coordinates.
    """

    def __init__(self, dist: JointDistribution, cols: Sequence[Sequence[int]],
                 pay: Sequence[int], c: List[Fraction], row_types: Sequence[int]):
        self.atoms, self.cols, self.pay, self.c = dist.integer_atoms, cols, pay, c
        L = self.L = self.atoms.scale
        self.types = list(zip(*self.atoms.columns))
        # per type, (item, integer value) over its nonzero values
        self.values = values = [[(i, q) for i, q in enumerate(v) if q] for v in self.types]
        rows: List[lp.Row] = []
        names: List[tuple] = []
        irs, boxes = [], []
        for t in row_types:
            vt = values[t]
            own = _ir_row(L, vt, cols[t], pay[t])
            irs.append(own)
            blocks: Dict[int, List[int]] = {}  # column -> t's coordinates on it
            for i, j in enumerate(cols[t]):
                blocks.setdefault(j, []).append(i)
            boxes.append(blocks)
            merge = len(blocks) < len(cols[t])
            seen = set()
            for s, xs in enumerate(cols):
                if s == t:
                    continue
                if merge:
                    key = (pay[s], *(tuple(sorted(xs[i] for i in b)) for b in blocks.values()))
                    if key in seen:
                        continue
                    seen.add(key)
                row = _ic_row(own, L, vt, xs, pay[s])
                if row:  # on a shared payment column the payments cancel, and the row may too
                    rows.append(row)
                    names.append(("ic", t, s))
        rows += irs
        names += (("ir", t) for t in row_types)
        scale = [L] * len(rows)
        rhs = [0] * len(rows)
        for t, blocks in zip(row_types, boxes):
            for j, (i, *_) in blocks.items():
                rows += ({j: 1}, {j: -1})
                scale += (1, 1)
                rhs += (0, -1)
                names += ((1, t, i), (-1, t, i))
        self.rows, self.scale, self.rhs, self.names = rows, scale, rhs, names

    @classmethod
    def full(cls, dist: JointDistribution) -> "_System":
        """The whole system, on the identity map: x_t,i at t n + i, then p_t."""
        t_count, n = len(dist.atoms), dist.n
        nx = t_count * n
        return cls(dist, [range(j, j + n) for j in range(0, nx, n)], range(nx, nx + t_count),
                   [Fraction(0)] * nx + [p for _, p in dist.atoms], range(t_count))

    @classmethod
    def orbits(cls, dist: JointDistribution) -> Optional["_System"]:
        """The system at symmetric points, or None unless n >= 2 and every
        relabeling of the items maps the atoms onto atoms of equal mass
        (`JointDistribution._exchangeable`), so that each sorted type's
        orbit holds all its arrangements at one mass.

        An orbit is represented by its sorted type r, a row type. A
        symmetric mechanism gives type s the allocation x_s,i = y(r, s_i),
        for r the representative of s: it depends only on the orbit and the
        value, so equal coordinates share a variable and the lift
        x_(pi r) = pi.x_r is well defined. The columns are one y per (orbit,
        distinct integer value), then one payment per orbit."""
        if dist.n < 2 or not dist._exchangeable:
            return None
        types = list(zip(*dist.integer_atoms.columns))
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for t, v in enumerate(types):
            groups.setdefault(tuple(sorted(v)), []).append(t)
        of_type = [0] * len(types)
        for k, ts in enumerate(groups.values()):
            for t in ts:
                of_type[t] = k
        y: Dict[Tuple[int, int], int] = {}  # (orbit, integer value) -> y column
        for k, r in enumerate(groups):
            for a in r:
                y.setdefault((k, a), len(y))
        index = {v: t for t, v in enumerate(types)}
        mass = [dist.atoms[ts[0]][1] * len(ts) for ts in groups.values()]
        return cls(dist, [[y[k, a] for a in v] for v, k in zip(types, of_type)],
                   [len(y) + k for k in of_type], [Fraction(0)] * len(y) + mass,
                   [index[r] for r in groups])

    def lift(self, y: List[Fraction]) -> DirectMechanism:
        """The mechanism of the point y, read through the column map."""
        return DirectMechanism(tuple(tuple(y[j] for j in cols) for cols in self.cols),
                               tuple(y[j] for j in self.pay))

    def certifies(self, result: lp.VertexResult) -> bool:
        """Whether the orbit dual, averaged over all relabelings, certifies
        the lifted point on the full system, checked in integers.

        Each orbit multiplier sits on the full row its row is named by and
        is spread evenly over the distinct images of that row, its
        multiplier times |stabilizer| / n! on each: the average over the n!
        relabelings. A row's images are those of its per-item labels: the
        integer value pairs of t and s for IC, t's integer values for IR,
        and t's with coordinate i marked for a box row. The result must be
        y >= 0 with sum_i y_i a_i / scale_i = -c on every full column and
        -sum_i y_i b_i / scale_i = the orbit optimum, which with the lifted
        point feasible is optimality by weak duality; the masses in c are
        the atoms' integer weights. Of the IC and box rows, only those that
        carry a multiplier are built, each IC row from its type's IR row."""
        types, values, L = self.types, self.values, self.L
        index = {v: t for t, v in enumerate(types)}
        t_count, n = len(types), len(types[0])
        nx = t_count * n
        x = [range(t * n, t * n + n) for t in range(t_count)]
        spread = []  # (images, per-image multiplier of the integer row, kind)
        for k, y in result.dual.items():
            if y.numerator < 0:
                return False
            if y:
                kind, t, *rest = self.names[k]
                if kind == "ic":
                    labels = tuple(zip(types[t], types[rest[0]]))
                elif kind == "ir":
                    labels = types[t]
                else:
                    labels = tuple((b, i == rest[0]) for i, b in enumerate(types[t]))
                images = _relabelings(labels)
                spread.append((images, y / (len(images) * self.scale[k]), kind))
        den, factors = over_common_denominator(f for _, f, _ in spread)
        irs = [_ir_row(L, values[t], x[t], nx + t) for t in range(t_count)]
        acc = [0] * (nx + t_count)
        bound = 0  # sum of factor * rhs over the image rows
        for (images, _, kind), f in zip(spread, factors):
            for image in images:
                if kind == "ic":
                    t, s = index[tuple(a for a, _ in image)], index[tuple(b for _, b in image)]
                    row = _ic_row(irs[t], L, values[t], x[s], nx + s)
                elif kind == "ir":
                    row = irs[index[image]]
                else:  # a box row of the marked coordinate, kind its sign
                    t = index[tuple(a for a, _ in image)]
                    row = {x[t][next(i for i, (_, m) in enumerate(image) if m)]: kind}
                    bound += f * min(kind, 0)
                for j, a in row.items():
                    acc[j] += f * a
        w_den, weights = self.atoms.whole, self.atoms.weights
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

    `exact-simplex` runs the exact rational simplex on the full system
    (`_lp_simplex`). `float-guided-exact` resolves the float optimum's vertex
    exactly and certifies it by degenerate pivots there
    (`lp.certified_vertex`), first on the orbit system where there is one,
    then on the full system, and raises the full system's LPError. `auto`
    runs `float-guided-exact` and falls back to the exact simplex where that
    raises LPError. Every result is read through its system's column map
    (`_System.lift`) and checked by `verify_ic_ir` and against its revenue,
    so no method returns an optimum it did not certify.

    The orbit system (`_System.orbits`) exists where n >= 2 and every
    relabeling of the items maps the atoms onto atoms of equal mass, by the
    rule the search reads too (`JointDistribution._exchangeable`). The LP is
    convex and invariant under the relabelings, so the average of an
    optimum's relabelings is a symmetric optimum (Daskalakis and Weinberg,
    EC 2012): the LP restricted to symmetric points, the orbit LP, has the
    full optimum. Its certified vertex is lifted to a symmetric mechanism x,
    and certified on the full system by the orbit dual y' averaged over the
    relabelings: each orbit row is a full row restricted to symmetric
    points, so y' on those rows matches -c on every symmetric direction.
    Averaging over the relabelings projects y'.A onto the symmetric
    directions, and -c is symmetric, so the averaged y has y.A = -c on every
    column, while y >= 0 and y.b = y'.b hold still. x is feasible and
    c.x = -y.b, so by weak duality x is optimal; `_System.certifies` checks
    this in integers, and its time is the `lift` stage. If the orbit solve
    raises LPError, the certificate fails or the lift fails `verify_ic_ir`,
    the full system is solved instead.
    """
    if method not in ("auto", "float-guided-exact", "exact-simplex"):
        raise ValueError(f"unknown LP method {method!r}")
    builds = (_System.orbits, _System.full) if method != "exact-simplex" else ()
    system = None
    for orbit, build in zip((True, False), builds):
        system = build(dist)
        if system is None:
            continue
        try:
            result = lp.certified_vertex(system.c, system.rows, system.rhs, system.scale)
            start = perf_counter()
            mech = system.lift(result.x)
            if orbit:
                if not system.certifies(result):
                    raise lp.LPError("the averaged orbit dual does not certify the lifted "
                                     "mechanism")
                result.stages["lift"] = perf_counter() - start
            return _checked(dist, mech, result, "float-guided-exact")
        except lp.LPError:
            if not orbit and method == "float-guided-exact":
                raise
    if system is None:  # exact-simplex, which builds no orbit system
        system = _System.full(dist)
    result = _lp_simplex(system)
    return _checked(dist, system.lift(result.x), result, "exact-simplex")


def _checked(dist: JointDistribution, mech: DirectMechanism, result: lp.VertexResult,
             method: str) -> LPOutcome:
    report = verify_ic_ir(mech, dist)
    if not report.ok:
        raise lp.LPError(f"LP solution failed exact IC/IR checks: {report.violations[:3]}")
    if mech.expected_revenue(dist) != result.objective:
        raise AssertionError("objective/revenue mismatch in LP solution")
    return LPOutcome(mech, result.objective, method, result.rounds, result.stages)


def _lp_simplex(system: _System) -> lp.VertexResult:
    """Exact tableau simplex on the system in <= form: every row negated but
    x >= 0, which the simplex keeps for every variable itself. No optimum
    pays a negative price, so p >= 0 loses nothing: values and allocations
    are nonnegative, so if min_s p_s = -eta < 0, IC toward s gives every
    type utility >= eta, and raising every payment by eta keeps IC and IR
    and earns eta more."""
    keep = [k for k, name in enumerate(system.names) if name[0] != 1]  # all but x >= 0
    return lp.simplex_max(system.c, [{j: -v for j, v in system.rows[k].items()} for k in keep],
                          [-system.rhs[k] for k in keep])

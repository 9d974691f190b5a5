"""Lottery menus: buyer choice, false-name deviations, IC/IR checking, and the
revenue-maximization LP over finite type spaces.

False-name deviations (several picks bought under different identities)
are scored by one integer rule, `_ScaledPicks`, for one multiset and for the
exhaustive search alike; a Fraction is built only for the returned utility.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from operator import mul
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


def _lp_rows(values: List[Valuation], n: int) -> Tuple[List[lp.Row], List[int], List[int]]:
    """The IC and IR constraints in >= form as sparse integer rows, the IC rows
    first; columns are x, then payments. Returns (rows, rhs, scale): a row of
    type t's constraints is that constraint times scale = the lcm of the
    denominators of t's values. The bounds 0 <= x <= 1 are the callers'."""
    t_count = len(values)
    nx = t_count * n
    rows: List[lp.Row] = []
    scale: List[int] = []
    scaled = []  # per type: (scale, [(item, integer value)] over nonzero values)
    for v in values:
        d, ints = over_common_denominator(v)
        scaled.append((d, [(i, q) for i, q in enumerate(ints) if q]))
    for t, (d, vt) in enumerate(scaled):
        for s in range(t_count):
            if s != t:
                row = {t * n + i: q for i, q in vt}
                row.update((s * n + i, -q) for i, q in vt)
                row[nx + t], row[nx + s] = -d, d
                rows.append(row)
                scale.append(d)
    for t, (d, vt) in enumerate(scaled):
        row = {t * n + i: q for i, q in vt}
        row[nx + t] = -d
        rows.append(row)
        scale.append(d)
    return rows, [0] * len(rows), scale


def lp_optimal(dist: JointDistribution, method: str = "auto") -> LPOutcome:
    """Revenue-maximizing direct mechanism over the distribution's types.

    `exact-simplex` runs the exact rational simplex; `float-guided-exact`
    resolves the float optimum's vertex exactly and certifies it by
    degenerate pivots there (see lp.certified_vertex), or raises LPError.
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
    values = [v for v, _ in dist.atoms]
    mu = [p for _, p in dist.atoms]
    t_count, n = len(values), dist.n

    if method == "exact-simplex":
        result = _lp_simplex(values, mu, n)
    elif method == "float-guided-exact":
        nx = t_count * n
        c = [Fraction(0)] * nx + list(mu)
        rows, rhs, scale = _lp_rows(values, n)
        # per (t, i), the pair x >= 0, -x >= -1, of scale 1
        rows += [{col: sign} for col in range(nx) for sign in (1, -1)]
        result = lp.certified_vertex(c, rows, rhs + [0, -1] * nx, scale + [1] * (2 * nx))
    else:
        raise ValueError(f"unknown LP method {method!r}")

    x = result.x
    allocs = tuple(tuple(x[t * n + i] for i in range(n)) for t in range(t_count))
    pays = tuple(x[t_count * n + t] for t in range(t_count))
    mech = DirectMechanism(allocs, pays)
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

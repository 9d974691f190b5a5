"""Lottery menus: buyer choice, false-name deviations, IC/IR checking, and the
revenue-maximization LP over finite type spaces."""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple, Union

from . import lp
from .model import JointDistribution, Valuation
from .rational import RationalLike, format_rational, parse_nonnegative, parse_rational

COMBINATION_RULES = ("capped-additive", "independent-lotteries")
_RULE_ALIASES = {"capped": "capped-additive", "independent": "independent-lotteries",
                 "independent-lotteries-nonadaptive": "independent-lotteries"}

MAX_FALSE_NAME_PICKS = 3


def canonical_rule(rule: str) -> str:
    resolved = _RULE_ALIASES.get(rule, rule)
    if resolved not in COMBINATION_RULES:
        raise ValueError(f"unknown combination rule {rule!r}")
    return resolved


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
                     entries: Sequence[Tuple[Sequence[RationalLike], RationalLike]]
                     ) -> "RandomizedMenu":
        parsed: List[MenuEntry] = []
        for i, (alloc, pay) in enumerate(entries):
            a = tuple(parse_rational(x, f"entries[{i}].alloc[{j}]") for j, x in enumerate(alloc))
            if len(a) != n:
                raise ValueError(f"entries[{i}]: allocation length {len(a)} != {n}")
            for j, x in enumerate(a):
                if not 0 <= x <= 1:
                    raise ValueError(f"entries[{i}].alloc[{j}] must lie in [0, 1], got {x}")
            p = parse_nonnegative(pay, f"entries[{i}].pay")
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


def _entry_utility(entry: MenuEntry, v: Valuation) -> Fraction:
    return sum((x * q for x, q in zip(v, entry.allocation)), Fraction(0)) - entry.payment


def rchoice(m: RandomizedMenu, v: Valuation) -> RChoice:
    """Utility-maximizing entry; ties toward higher payment, then lowest index."""
    if len(v) != m.n:
        raise ValueError(f"valuation has {len(v)} entries for an {m.n}-item menu")
    best_i, best_u = 0, None
    for i, entry in enumerate(m.entries):
        u = _entry_utility(entry, v)
        if best_u is None or u > best_u or (u == best_u and entry.payment > m.entries[best_i].payment):
            best_i, best_u = i, u
    return RChoice(best_i, m.entries[best_i], best_u)


def combine_allocations(allocs: Sequence[Sequence[Fraction]], rule: str) -> Tuple[Fraction, ...]:
    """Fold per-item allocation probabilities across several picks."""
    rule = canonical_rule(rule)
    n = len(allocs[0])
    combined = list(allocs[0])
    for alloc in allocs[1:]:
        for i in range(n):
            if rule == "capped-additive":
                combined[i] = min(Fraction(1), combined[i] + alloc[i])
            else:
                combined[i] = 1 - (1 - combined[i]) * (1 - alloc[i])
    return tuple(combined)


def false_name_utility(m: RandomizedMenu, v: Valuation, picks: Sequence[int],
                       rule: str) -> Fraction:
    """Utility of submitting several menu picks under different identities.

    The buyer is non-adaptive: all picks are fixed upfront, the per-item
    allocation probabilities combine by `rule`, and every payment is due.
    """
    if not picks:
        raise ValueError("picks must be nonempty")
    entries = [m.entries[i] for i in picks]
    combined = combine_allocations([e.allocation for e in entries], rule)
    total_value = sum((x * q for x, q in zip(v, combined)), Fraction(0))
    total_payment = sum((e.payment for e in entries), Fraction(0))
    return total_value - total_payment


def best_false_name_deviation(m: RandomizedMenu, v: Valuation, rule: str,
                              k: int = 2) -> Tuple[Tuple[int, ...], Fraction]:
    """Best multiset of at most k picks; exhaustive, so k is capped at 3."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_FALSE_NAME_PICKS:
        raise ValueError(f"exhaustive enumeration beyond k={MAX_FALSE_NAME_PICKS} is refused")
    if len(m.entries) ** k > 2_000_000:
        raise ValueError("too many entry combinations to enumerate")
    best_picks: Tuple[int, ...] = (0,)
    best_u: Optional[Fraction] = None
    for size in range(1, k + 1):
        for picks in combinations_with_replacement(range(len(m.entries)), size):
            u = false_name_utility(m, v, picks, rule)
            if best_u is None or u > best_u:
                best_picks, best_u = picks, u
    return best_picks, best_u


def is_false_name_proof_at(m: RandomizedMenu, v: Valuation, rule: str, k: int = 2) -> bool:
    _, best = best_false_name_deviation(m, v, rule, k)
    return best == rchoice(m, v).utility


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


def verify_ic_ir(d: DirectMechanism, dist: JointDistribution,
                 tol: Fraction = Fraction(0)) -> ICIRReport:
    """Check all pairwise truthfulness constraints and per-type rationality."""
    types = [v for v, _ in dist.atoms]
    if len(types) != len(d.payments):
        raise ValueError("mechanism does not cover every type")
    viol: List[str] = []
    utility = [sum((x * q for x, q in zip(v, d.allocations[t])), Fraction(0)) - d.payments[t]
               for t, v in enumerate(types)]
    for t, v in enumerate(types):
        if utility[t] < -tol:
            viol.append(f"IR: type {t} has utility {utility[t]}")
        for s in range(len(types)):
            if s == t:
                continue
            other = sum((x * q for x, q in zip(v, d.allocations[s])), Fraction(0)) - d.payments[s]
            if utility[t] < other - tol:
                viol.append(f"IC: type {t} prefers report {s} ({utility[t]} < {other})")
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
    certified: bool
    method: str


def _lp_rows(values: List[Valuation], n: int):
    """Rows of the IC/IR/box system in >= form: the IC rows, the IR rows, then
    for each (t, i) the pair x >= 0, -x >= -1; columns are x, then payments."""
    t_count = len(values)
    width = t_count * n + t_count

    def x_idx(t: int, i: int) -> int:
        return t * n + i

    def p_idx(t: int) -> int:
        return t_count * n + t

    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []

    def blank() -> List[Fraction]:
        return [Fraction(0)] * width

    for t, v in enumerate(values):
        for s in range(t_count):
            if s == t:
                continue
            row = blank()
            for i in range(n):
                row[x_idx(t, i)] += v[i]
                row[x_idx(s, i)] -= v[i]
            row[p_idx(t)] -= 1
            row[p_idx(s)] += 1
            rows.append(row)
            rhs.append(Fraction(0))
    for t, v in enumerate(values):
        row = blank()
        for i in range(n):
            row[x_idx(t, i)] += v[i]
        row[p_idx(t)] -= 1
        rows.append(row)
        rhs.append(Fraction(0))
    for t in range(t_count):
        for i in range(n):
            row = blank()
            row[x_idx(t, i)] = Fraction(1)
            rows.append(row)
            rhs.append(Fraction(0))
            row = blank()
            row[x_idx(t, i)] = Fraction(-1)
            rows.append(row)
            rhs.append(Fraction(-1))
    return rows, rhs


def lp_optimal(dist: JointDistribution, method: str = "auto") -> LPOutcome:
    """Revenue-maximizing direct mechanism over the distribution's types.

    `exact-simplex` runs the exact rational simplex; `float-guided-exact`
    resolves the float optimum's vertex exactly (see lp.certified_vertex) and
    may return it uncertified. `auto` takes the float-guided vertex when its
    certificate closes and falls back to the exact simplex otherwise, so it
    never returns an uncertified optimum. Every method returns an exact
    rational solution verified against every IC/IR constraint.
    """
    if method != "auto":
        return _lp_solve(dist, method)
    try:
        outcome = _lp_solve(dist, "float-guided-exact")
        if outcome.certified:
            return outcome
    except lp.LPError:
        pass  # no exact vertex at the float optimum
    return _lp_solve(dist, "exact-simplex")


def _lp_solve(dist: JointDistribution, method: str) -> LPOutcome:
    values = [v for v, _ in dist.atoms]
    mu = [p for _, p in dist.atoms]
    t_count, n = len(values), dist.n

    if method == "exact-simplex":
        x, obj = _lp_simplex(values, mu, n)
        certified = True
    elif method == "float-guided-exact":
        rows, rhs = _lp_rows(values, n)
        c = [Fraction(0)] * (t_count * n) + list(mu)
        result = lp.certified_vertex(c, rows, rhs)
        x, obj, certified = result.x, result.objective, result.certified
    else:
        raise ValueError(f"unknown LP method {method!r}")

    allocs = tuple(tuple(x[t * n + i] for i in range(n)) for t in range(t_count))
    pays = tuple(x[t_count * n + t] for t in range(t_count))
    mech = DirectMechanism(allocs, pays)
    report = verify_ic_ir(mech, dist)
    if not report.ok:
        raise lp.LPError(f"LP solution failed exact IC/IR checks: {report.violations[:3]}")
    if mech.expected_revenue(dist) != obj:
        raise AssertionError("objective/revenue mismatch in LP solution")
    return LPOutcome(mech, obj, certified, method)


def _lp_simplex(values: List[Valuation], mu: List[Fraction], n: int):
    """Exact tableau simplex on the <= form of `_lp_rows`, with payments split as
    p = p+ - p-; the simplex keeps every variable >= 0, so the x >= 0 rows go."""
    t_count = len(values)
    nx = t_count * n
    rows, rhs = _lp_rows(values, n)
    box = len(rows) - 2 * nx  # box rows alternate x >= 0 and -x >= -1
    keep = [r for r in range(len(rows)) if r < box or (r - box) % 2]
    a_ub = [[-a for a in rows[r]] + rows[r][nx:] for r in keep]
    b_ub = [-rhs[r] for r in keep]
    c = [Fraction(0)] * nx + list(mu) + [-m for m in mu]
    sol, obj = lp.simplex_max(c, a_ub, b_ub)
    x = sol[:nx] + [sol[nx + t] - sol[nx + t_count + t] for t in range(t_count)]
    return x, obj


# ---------------------------------------------------------------------------
# JSON for randomized menus
# ---------------------------------------------------------------------------

def parse_randomized_menu(source: Union[str, IO[str], Dict[str, Any]]) -> RandomizedMenu:
    if isinstance(source, dict):
        obj = source
    elif isinstance(source, str):
        obj = json.loads(source)
    else:
        obj = json.load(source)
    n = obj["items"]
    entries = [(e["alloc"], e["pay"]) for e in obj["entries"]]
    return RandomizedMenu.from_entries(n, entries)


def randomized_menu_to_dict(m: RandomizedMenu) -> Dict[str, Any]:
    return {
        "items": m.n,
        "entries": [
            {"alloc": [format_rational(x) for x in e.allocation],
             "pay": format_rational(e.payment)}
            for e in m.entries
        ],
    }

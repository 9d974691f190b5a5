"""Reference computations the benchmark checks menurev's outputs against.

Nothing here calls a menurev evaluator, search, construction or solver. The
functions read only plain data off menurev objects (`Menu.as_dict()`,
`JointDistribution.atoms`, `SingleItemDistribution.atoms`,
`CandidateGrid.prices`, `RandomizedMenu.entries`, `DirectMechanism` fields)
and recompute every answer with plain loops over Fractions.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Dict, List, Optional, Sequence, Tuple

Bundle = Tuple[int, ...]

def bundles(n: int) -> List[Bundle]:
    """Nonempty item sets of {1..n}, by size, then lexicographic."""
    return [b for size in range(1, n + 1) for b in combinations(range(1, n + 1), size)]


# ---------------------------------------------------------------------------
# Deterministic menus
# ---------------------------------------------------------------------------

def choice(prices: Dict[Bundle, Fraction], v: Sequence[Fraction]) -> Tuple[Bundle, Fraction]:
    """(bundle, payment) the buyer takes at valuation v.

    Highest utility wins; ties go to the higher payment, then the larger
    bundle, then the lexicographically smaller item set. Buying nothing has
    utility 0 and payment 0.
    """
    best_key = (Fraction(0), Fraction(0), 0)
    best: Bundle = ()
    for b, p in prices.items():
        key = (sum((v[i - 1] for i in b), Fraction(0)) - p, p, len(b))
        if key > best_key or (key == best_key and b < best):
            best_key, best = key, b
    return best, best_key[1]


def revenue(prices: Dict[Bundle, Fraction], atoms) -> Fraction:
    """Exact expected payment of a bundle-price table over (valuation, prob) atoms."""
    return sum((p * choice(prices, v)[1] for v, p in atoms), Fraction(0))


def menu_revenue(menu, atoms) -> Fraction:
    return revenue(menu.as_dict(), atoms)


def product_atoms(*parts) -> List[Tuple[Tuple[Fraction, ...], Fraction]]:
    """Atoms of the independent product of single-item distributions."""
    out = []
    for combo in product(*(d.atoms for d in parts)):
        out.append((tuple(v for v, _ in combo), math.prod((p for _, p in combo), start=Fraction(1))))
    return out


def in_class(prices: Dict[Bundle, Fraction], cls: str) -> bool:
    if cls == "unrestricted":
        return True
    if cls == "additive":
        return all(p == sum((prices[(i,)] for i in b), Fraction(0)) for b, p in prices.items())
    if cls == "bundle-only":
        return len(set(prices.values())) == 1
    if cls not in ("symmetric", "submodular", "symmetric-and-submodular"):
        raise ValueError(f"unknown class {cls!r}")
    if cls != "submodular" and \
            len({(len(b), p) for b, p in prices.items()}) != len({len(b) for b in prices}):
        return False  # a price that depends on more than the bundle's size
    if cls == "symmetric":
        return True

    def price(b) -> Fraction:
        return prices[b] if b else Fraction(0)

    return all(price(s) + price(t) >= price(tuple(sorted(set(s) & set(t))))
               + price(tuple(sorted(set(s) | set(t)))) for s in prices for t in prices)


def brute_force_optimum(atoms, n: int, grid_prices: Sequence[Sequence[Fraction]], cls: str) -> Fraction:
    """Best exact revenue over every menu of the class drawn from per-bundle
    candidate sets (given in `bundles(n)` order), by plain enumeration.

    `additive` prices each bundle at the sum of grid single prices and
    `bundle-only` prices every bundle at one grid grand-bundle price, as the
    search documents for those two classes.
    """
    order = bundles(n)
    if cls == "additive":
        tables = ({b: sum((combo[i - 1] for i in b), Fraction(0)) for b in order}
                  for combo in product(*grid_prices[:n]))
    elif cls == "bundle-only":
        tables = ({b: q for b in order} for q in grid_prices[-1])
    else:
        tables = (t for t in (dict(zip(order, combo)) for combo in product(*grid_prices))
                  if in_class(t, cls))
    return max(revenue(t, atoms) for t in tables)


def monotonicity_violations(prices: Dict[Bundle, Fraction], grid) -> List[tuple]:
    """(low, high, revenue_low, revenue_high) for every comparable grid pair
    low <= high (coordinatewise, distinct points) whose revenue falls."""
    points = sorted(set(tuple(v) for v in grid))
    pay = [choice(prices, v)[1] for v in points]
    out = []
    for i, lo in enumerate(points):
        for j, hi in enumerate(points):
            if i != j and pay[j] < pay[i] and all(x <= y for x, y in zip(lo, hi)):
                out.append((lo, hi, pay[i], pay[j]))
    return out


# ---------------------------------------------------------------------------
# Equal-revenue constant
# ---------------------------------------------------------------------------

def w_constant() -> float:
    """w with (w - 1) e^w = 1, as 1 + W(1/e): Newton's method on u e^u = 1/e."""
    target = math.exp(-1.0)
    u = 0.3
    for _ in range(50):
        step = (u * math.exp(u) - target) / ((u + 1.0) * math.exp(u))
        u -= step
        if abs(step) < 1e-16:
            break
    return 1.0 + u


# ---------------------------------------------------------------------------
# Lotteries and direct mechanisms
# ---------------------------------------------------------------------------

def _dot(v, q) -> Fraction:
    return sum((x * y for x, y in zip(v, q)), Fraction(0))


def ic_ir_violations(types: Sequence[Sequence[Fraction]], allocations, payments) -> List[str]:
    """Every broken IR, IC or probability-box constraint of a direct mechanism."""
    out = []
    util = [_dot(v, allocations[t]) - payments[t] for t, v in enumerate(types)]
    for t, v in enumerate(types):
        if any(not 0 <= q <= 1 for q in allocations[t]):
            out.append(f"box: type {t} allocation {allocations[t]}")
        if util[t] < 0:
            out.append(f"IR: type {t} utility {util[t]}")
        for s in range(len(types)):
            if s != t and util[t] < _dot(v, allocations[s]) - payments[s]:
                out.append(f"IC: type {t} prefers report {s}")
    return out


def lottery_pick(entries, v) -> int:
    """Index of the entry the buyer takes: highest utility, then higher payment,
    then lowest index."""
    best, best_key = 0, None
    for i, e in enumerate(entries):
        key = (_dot(v, e.allocation) - e.payment, e.payment)
        if best_key is None or key > best_key:
            best, best_key = i, key
    return best


def lottery_payment(entries, atoms) -> Fraction:
    return sum((p * entries[lottery_pick(entries, v)].payment for v, p in atoms), Fraction(0))


def lottery_utility(entries, v) -> Fraction:
    e = entries[lottery_pick(entries, v)]
    return _dot(v, e.allocation) - e.payment


def best_multipick_utility(entries, v, k: int) -> Fraction:
    """Best utility over multisets of at most k picks, with each item's
    allocation probabilities folded as independent lotteries."""
    best: Optional[Fraction] = None
    for size in range(1, k + 1):
        for picks in combinations_with_replacement(range(len(entries)), size):
            folded = []
            for i in range(len(v)):
                miss = Fraction(1)
                for j in picks:
                    miss *= 1 - entries[j].allocation[i]
                folded.append(1 - miss)
            u = _dot(v, folded) - sum((entries[j].payment for j in picks), Fraction(0))
            if best is None or u > best:
                best = u
    return best

"""Core data types: valuations, discrete distributions, and bundle-price menus.

Everything here is exact rational arithmetic (fractions.Fraction); values are
immutable after construction so instances can be shared freely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .rational import RationalLike, parse_nonnegative, parse_rational

MAX_ITEMS = 16  # menus carry 2^n - 1 prices; anything larger is out of scope

Bundle = Tuple[int, ...]  # sorted 1-based item indices
Valuation = Tuple[Fraction, ...]


@lru_cache(maxsize=None)
def all_bundles(n: int) -> Tuple[Bundle, ...]:
    """Nonempty bundles of {1..n} in canonical order: by size, then lexicographic."""
    if not 1 <= n <= MAX_ITEMS:
        raise ValueError(f"item count must be in 1..{MAX_ITEMS}, got {n}")
    masks = range(1, 1 << n)
    out = [tuple(i + 1 for i in range(n) if m >> i & 1) for m in masks]
    out.sort(key=lambda b: (len(b), b))
    return tuple(out)


def as_bundle(items: Iterable[int], n: int) -> Bundle:
    b = tuple(sorted(set(items)))
    if not b:
        raise ValueError("bundle must be nonempty")
    if b[0] < 1 or b[-1] > n:
        raise ValueError(f"bundle {b} out of range for {n} items")
    return b


def bundle_table(table: Mapping[Iterable[int], object], n: int) -> Dict[Bundle, object]:
    """`table` re-keyed by canonical bundles; a key out of range or naming the
    bundle of an earlier key raises ValueError."""
    out: Dict[Bundle, object] = {}
    for key, value in table.items():
        try:
            bundle = as_bundle(key, n)
        except ValueError as exc:
            raise ValueError(f"bundle key {key!r}: {exc}") from None
        if bundle in out:
            raise ValueError(f"bundle key {key!r} repeats bundle {bundle}")
        out[bundle] = value
    return out


def as_valuation(values: Sequence[RationalLike], n: int | None = None) -> Valuation:
    v = tuple(parse_nonnegative(x, f"value[{i}]") for i, x in enumerate(values))
    if n is not None and len(v) != n:
        raise ValueError(f"valuation has {len(v)} entries, expected {n}")
    return v


def bundle_value(v: Valuation, bundle: Bundle) -> Fraction:
    return sum((v[i - 1] for i in bundle), Fraction(0))


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleItemDistribution:
    """Finitely supported value distribution for one item, in canonical form:
    strictly increasing values, positive probabilities summing to exactly 1."""

    atoms: Tuple[Tuple[Fraction, Fraction], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[RationalLike, RationalLike]],
                   where: str = "distribution") -> "SingleItemDistribution":
        merged: Dict[Fraction, Fraction] = {}
        for i, (value, prob) in enumerate(pairs):
            v = parse_nonnegative(value, f"{where}: value[{i}]")
            p = parse_rational(prob, f"{where}: prob[{i}]")
            if p <= 0:
                raise ValueError(f"{where}: prob[{i}] must be positive, got {p}")
            merged[v] = merged.get(v, Fraction(0)) + p
        if not merged:
            raise ValueError(f"{where}: empty support")
        mass = sum(merged.values())
        if mass != 1:
            raise ValueError(f"{where}: mass {mass} != 1")
        return cls(tuple(sorted(merged.items())))

    @property
    def support(self) -> Tuple[Fraction, ...]:
        return tuple(v for v, _ in self.atoms)

    def tail(self, p: Fraction) -> Fraction:
        """Pr[v >= p]."""
        return sum((q for v, q in self.atoms if v >= p), Fraction(0))

    def prob_in(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Pr[lo <= v < hi]."""
        return sum((q for v, q in self.atoms if lo <= v < hi), Fraction(0))

    def mean(self) -> Fraction:
        return sum((v * q for v, q in self.atoms), Fraction(0))


def uniform(values: Sequence[RationalLike]) -> SingleItemDistribution:
    """Uniform draw from a multiset of values (duplicates weight their value)."""
    n = len(values)
    return SingleItemDistribution.from_pairs((v, Fraction(1, n)) for v in values)


def point_mass(value: RationalLike) -> SingleItemDistribution:
    return SingleItemDistribution.from_pairs([(value, 1)])


@dataclass(frozen=True)
class JointDistribution:
    """Finitely supported distribution over n-item valuation vectors."""

    n: int
    atoms: Tuple[Tuple[Valuation, Fraction], ...]

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Tuple[Sequence[RationalLike], RationalLike]],
                   where: str = "distribution") -> "JointDistribution":
        if not 1 <= n <= MAX_ITEMS:
            raise ValueError(f"{where}: item count must be in 1..{MAX_ITEMS}, got {n}")
        merged: Dict[Valuation, Fraction] = {}
        for i, (values, prob) in enumerate(pairs):
            v = as_valuation(values, n)
            p = parse_rational(prob, f"{where}: atoms[{i}].prob")
            if p <= 0:
                raise ValueError(f"{where}: atoms[{i}].prob must be positive, got {p}")
            merged[v] = merged.get(v, Fraction(0)) + p
        if not merged:
            raise ValueError(f"{where}: empty support")
        mass = sum(merged.values())
        if mass != 1:
            raise ValueError(f"{where}: mass {mass} != 1")
        return cls(n, tuple(sorted(merged.items())))

    def marginal(self, item: int) -> SingleItemDistribution:
        if not 1 <= item <= self.n:
            raise ValueError(f"item {item} out of range")
        acc: Dict[Fraction, Fraction] = {}
        for v, p in self.atoms:
            x = v[item - 1]
            acc[x] = acc.get(x, Fraction(0)) + p
        return SingleItemDistribution(tuple(sorted(acc.items())))

    def support_values(self, item: int) -> Tuple[Fraction, ...]:
        return self.marginal(item).support

    def is_product(self) -> bool:
        """True iff the joint factors exactly into its marginals."""
        marginals = [self.marginal(i + 1) for i in range(self.n)]
        if len(self.atoms) != math.prod(len(m.atoms) for m in marginals):
            return False
        probs = [dict(m.atoms) for m in marginals]
        return all(p == math.prod((probs[i][v[i]] for i in range(self.n)), start=Fraction(1))
                   for v, p in self.atoms)

    def is_symmetric(self) -> bool:
        """True iff the distribution is invariant under swapping any two items."""
        atom_set = set(self.atoms)
        for v, p in self.atoms:
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    w = list(v)
                    w[i], w[j] = w[j], w[i]
                    if (tuple(w), p) not in atom_set:
                        return False
        return True


def product(parts: Sequence[SingleItemDistribution]) -> JointDistribution:
    """Independent product of per-item distributions."""
    if not parts:
        raise ValueError("product of zero distributions")
    pairs = []
    for combo in iproduct(*(d.atoms for d in parts)):
        values = tuple(v for v, _ in combo)
        prob = math.prod((p for _, p in combo), start=Fraction(1))
        pairs.append((values, prob))
    return JointDistribution.from_pairs(len(parts), pairs)


# ---------------------------------------------------------------------------
# Menus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Menu:
    """Deterministic mechanism: one nonnegative price per nonempty bundle.

    Prices are stored in canonical bundle order (all_bundles); the empty
    bundle implicitly costs 0.
    """

    n: int
    prices: Tuple[Fraction, ...]

    def __post_init__(self):
        expected = (1 << self.n) - 1
        if len(self.prices) != expected:
            raise ValueError(f"menu for {self.n} items needs {expected} prices, got {len(self.prices)}")
        for b, p in zip(all_bundles(self.n), self.prices):
            if p < 0:
                raise ValueError(f"price of bundle {b} must be nonnegative, got {p}")

    @classmethod
    def from_sequence(cls, n: int, prices: Sequence[RationalLike]) -> "Menu":
        return cls(n, tuple(parse_nonnegative(p, f"price[{i}]") for i, p in enumerate(prices)))

    @classmethod
    def from_mapping(cls, n: int, prices: Mapping[Iterable[int], RationalLike]) -> "Menu":
        table = {b: parse_nonnegative(p, f"price of {b}") for b, p in bundle_table(prices, n).items()}
        order = all_bundles(n)
        missing = [b for b in order if b not in table]
        if missing:
            raise ValueError(f"missing prices for bundles {missing}")
        return cls(n, tuple(table[b] for b in order))

    def price(self, bundle: Iterable[int]) -> Fraction:
        b = as_bundle(bundle, self.n)
        return self.prices[_bundle_index(self.n)[b]]

    def as_dict(self) -> Dict[Bundle, Fraction]:
        return dict(zip(all_bundles(self.n), self.prices))

    # n=2 accessors matching the usual (a, b, c) notation
    @property
    def a(self) -> Fraction:
        self._require2()
        return self.prices[0]

    @property
    def b(self) -> Fraction:
        self._require2()
        return self.prices[1]

    @property
    def c(self) -> Fraction:
        self._require2()
        return self.prices[2]

    def _require2(self):
        if self.n != 2:
            raise ValueError("a/b/c accessors require a 2-item menu")

    def swap2(self) -> "Menu":
        """Relabel the two items of an n=2 menu."""
        self._require2()
        return Menu(2, (self.prices[1], self.prices[0], self.prices[2]))


@lru_cache(maxsize=None)
def _bundle_index(n: int) -> Dict[Bundle, int]:
    return {b: i for i, b in enumerate(all_bundles(n))}


def menu2(a: RationalLike, b: RationalLike, c: RationalLike) -> Menu:
    return Menu.from_sequence(2, (a, b, c))


def additive_menu(item_prices: Sequence[RationalLike]) -> Menu:
    """Menu pricing every bundle at the sum of its item prices."""
    n = len(item_prices)
    ps = [parse_nonnegative(p, f"price[{i}]") for i, p in enumerate(item_prices)]
    return Menu(n, tuple(sum((ps[i - 1] for i in b), Fraction(0)) for b in all_bundles(n)))


def bundle_only_menu(n: int, price: RationalLike) -> Menu:
    """Menu pricing every nonempty bundle at the same price (grand-bundle sale)."""
    q = parse_nonnegative(price, "price")
    return Menu(n, tuple(q for _ in all_bundles(n)))


def _price_with_empty(m: Menu, bundle: Bundle | Tuple[()]) -> Fraction:
    return Fraction(0) if not bundle else m.prices[_bundle_index(m.n)[bundle]]


def is_submodular(m: Menu) -> bool:
    """p(S) + p(T) >= p(S & T) + p(S | T) for all bundle pairs, with p(empty) = 0."""
    order = all_bundles(m.n)
    for s in order:
        ss = set(s)
        for t in order:
            ts = set(t)
            inter = tuple(sorted(ss & ts))
            union = tuple(sorted(ss | ts))
            if _price_with_empty(m, s) + _price_with_empty(m, t) < \
                    _price_with_empty(m, inter) + _price_with_empty(m, union):
                return False
    return True


def is_subadditive(m: Menu) -> bool:
    """p(S) + p(T) >= p(S | T) for all bundle pairs."""
    order = all_bundles(m.n)
    for s in order:
        ss = set(s)
        for t in order:
            union = tuple(sorted(ss | set(t)))
            if _price_with_empty(m, s) + _price_with_empty(m, t) < _price_with_empty(m, union):
                return False
    return True


def is_symmetric_menu(m: Menu) -> bool:
    """True iff the price depends only on bundle cardinality."""
    by_size: Dict[int, Fraction] = {}
    for b, p in zip(all_bundles(m.n), m.prices):
        if by_size.setdefault(len(b), p) != p:
            return False
    return True


def is_additive_menu(m: Menu) -> bool:
    singles = [m.price((i,)) for i in range(1, m.n + 1)]
    return all(p == sum((singles[i - 1] for i in b), Fraction(0))
               for b, p in zip(all_bundles(m.n), m.prices))


def is_bundle_only_menu(m: Menu) -> bool:
    return all(p == m.prices[0] for p in m.prices)


def is_monotone_menu(m: Menu) -> bool:
    """p(S) <= p(T) whenever S is a subset of T."""
    order = all_bundles(m.n)
    table = m.as_dict()
    for s in order:
        ss = set(s)
        for t in order:
            if ss < set(t) and table[s] > table[t]:
                return False
    return True


def normalize(m: Menu) -> Menu:
    """Cap each 2-item menu's single prices at the pair price.

    Buyer behavior (chosen bundle and payment) is unchanged at every
    valuation, so revenue is preserved pointwise.
    """
    if m.n != 2:
        raise ValueError("normalize is defined for 2-item menus")
    a, b, c = m.prices
    return Menu(2, (min(a, c), min(b, c), c))


def is_normalized2(m: Menu) -> bool:
    return m.n == 2 and m.c >= m.a and m.c >= m.b

"""Core data types: valuations, discrete distributions, and bundle-price menus.

Everything here is exact rational arithmetic (fractions.Fraction); values are
immutable after construction so instances can be shared freely.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from .rational import ParseError, RationalLike, parse_nonnegative, parse_rational

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


def as_valuation(values: Sequence[RationalLike], n: int, where: str) -> Valuation:
    v = tuple(parse_nonnegative(x, f"{where}[{i}]") for i, x in enumerate(values))
    if len(v) != n:
        raise ParseError(where, f"valuation has {len(v)} entries, expected {n}")
    return v


def bundle_value(v: Valuation, bundle: Bundle) -> Fraction:
    return sum((v[i - 1] for i in bundle), Fraction(0))


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def _merge(merged: Dict, value: object, prob: Fraction) -> None:
    """Add `prob` to the mass of `value`, hashing a new value once. A repeat
    is told by the dict not growing, not by object identity: callers may
    pass one shared Fraction for many atoms."""
    size = len(merged)
    prev = merged.setdefault(value, prob)
    if len(merged) == size:
        merged[value] = prev + prob


def _sorted_atoms(merged: Mapping, where: str) -> Tuple[Tuple[object, Fraction], ...]:
    """The merged atoms in value order, once their masses sum to exactly 1."""
    if not merged:
        raise ParseError(where, "empty support")
    mass = sum(merged.values())
    if mass != 1:
        raise ParseError(where, f"mass {mass} != 1")
    return tuple(sorted(merged.items()))


@dataclass(frozen=True)
class SingleItemDistribution:
    """Finitely supported value distribution for one item, in canonical form:
    strictly increasing values, positive probabilities summing to exactly 1."""

    atoms: Tuple[Tuple[Fraction, Fraction], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[RationalLike, RationalLike]],
                   where: str = "distribution") -> "SingleItemDistribution":
        """The distribution of the (value, probability) `pairs`; a fault names
        its path below `where`, e.g. `distribution[1][0]` for the second value."""
        merged: Dict[Fraction, Fraction] = {}
        for i, (value, prob) in enumerate(pairs):
            v = parse_nonnegative(value, f"{where}[{i}][0]")
            p = parse_rational(prob, f"{where}[{i}][1]")
            if p.numerator <= 0:
                raise ParseError(f"{where}[{i}][1]", f"must be positive, got {p}")
            _merge(merged, v, p)
        return cls(_sorted_atoms(merged, where))

    @property
    def support(self) -> Tuple[Fraction, ...]:
        return tuple(v for v, _ in self.atoms)

    def tail(self, p: Fraction) -> Fraction:
        """Pr[v >= p]."""
        return sum((q for v, q in self.atoms if v >= p), Fraction(0))

    def prob_in(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Pr[lo <= v < hi]."""
        return sum((q for v, q in self.atoms if lo <= v < hi), Fraction(0))


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
                   where: str = "atoms") -> "JointDistribution":
        """The distribution of the (valuation, probability) `pairs`; a fault
        names its path below `where`, e.g. `atoms[1].values[0]`."""
        if not 1 <= n <= MAX_ITEMS:
            raise ValueError(f"item count must be in 1..{MAX_ITEMS}, got {n}")
        merged: Dict[Valuation, Fraction] = {}
        for i, (values, prob) in enumerate(pairs):
            v = as_valuation(values, n, f"{where}[{i}].values")
            p = parse_rational(prob, f"{where}[{i}].prob")
            if p.numerator <= 0:
                raise ParseError(f"{where}[{i}].prob", f"must be positive, got {p}")
            _merge(merged, v, p)
        return cls(n, _sorted_atoms(merged, where))

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


def _canonical_atoms(d: SingleItemDistribution, where: str) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """The atoms of `d` in canonical form, checked as `from_pairs` checks its
    pairs, with no value repeated. A distribution built directly may hold any
    atoms; distinct values out of order are sorted."""
    atoms = SingleItemDistribution.from_pairs(d.atoms, where).atoms
    if len(atoms) != len(d.atoms):
        raise ParseError(where, "repeated value")
    return atoms


def product(parts: Sequence[SingleItemDistribution]) -> JointDistribution:
    """Independent product of per-item distributions.

    Each part is checked once and brought to canonical form, so the valuation
    vectors, taken in lexicographic order, are distinct and already sorted:
    the atoms are those `JointDistribution.from_pairs` would give, built
    directly."""
    if not parts:
        raise ValueError("product of zero distributions")
    if len(parts) > MAX_ITEMS:
        raise ValueError(f"distribution: item count must be in 1..{MAX_ITEMS}, got {len(parts)}")
    checked = [_canonical_atoms(d, f"parts[{k}]") for k, d in enumerate(parts)]
    atoms = [((v,), p) for v, p in checked[0]]
    for part in checked[1:]:
        atoms = [(vs + (v,), q * p) for vs, q in atoms for v, p in part]
    return JointDistribution(len(parts), tuple(atoms))


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


def _lattice_pairs(n: int) -> Iterator[Tuple[int, int, int, int]]:
    """One term (a, b, c, d), for p[a] + p[b] >= p[c] + p[d] with -1 the empty
    bundle of price 0, per pair of bundles i < j: monotonicity (j, -1, i, -1),
    the only terms with b = -1, when bundle i lies within bundle j, else
    submodularity (i, j, i & j, i | j). There are B^2 / 2 for B bundles; none is kept."""
    order = all_bundles(n)
    index = {b: i for i, b in enumerate(order)} | {(): -1}
    for i, j in combinations(range(len(order)), 2):
        s, t = set(order[i]), set(order[j])
        if s < t:
            yield j, -1, i, -1
        else:
            yield i, j, index[tuple(sorted(s & t))], index[tuple(sorted(s | t))]


@lru_cache(maxsize=None)
def _lattice_terms(n: int) -> Tuple[Tuple[Tuple[int, int, int, int], ...], ...]:
    """(monotonicity terms, submodularity terms) of `_lattice_pairs`, cached for the search."""
    terms = tuple(_lattice_pairs(n))
    return tuple(t for t in terms if t[1] < 0), tuple(t for t in terms if t[1] >= 0)


def is_submodular(m: Menu) -> bool:
    """p(S) + p(T) >= p(S & T) + p(S | T) for all bundle pairs, with p(empty) = 0."""
    p = (*m.prices, 0)
    return all(p[a] + p[b] >= p[c] + p[d] for a, b, c, d in _lattice_pairs(m.n) if b >= 0)


def is_symmetric_menu(m: Menu) -> bool:
    """True iff the price depends only on bundle cardinality."""
    by_size: Dict[int, Fraction] = {}
    for b, p in zip(all_bundles(m.n), m.prices):
        if by_size.setdefault(len(b), p) != p:
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

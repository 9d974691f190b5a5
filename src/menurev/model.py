"""Core data types: valuations, discrete distributions, and bundle-price menus.

Everything here is exact rational arithmetic (fractions.Fraction); values are
immutable after construction so instances can be shared freely.

A joint distribution also has one read-only integer form of its atoms,
`JointDistribution.integer_atoms` (`IntegerAtoms`: L and one column of
L-scaled coordinates per item, W and one weight p_t * W per atom), computed
at most once per object. The buyer's evaluator and the search both read it.
It is `rational.over_common_denominator` over the atoms, taken at the first
exact evaluation, so a distribution that is never evaluated pays nothing
for it. The search and the buyer's final check of its optimum thus trust
that one rule, tested on its own against Fraction arithmetic, for the
atoms' scaling; they share nothing else. The revenue LP writes its IC and
IR rows from the same integers, and the one relabeling rule that the
search's symmetry breaking and the orbit LP both read,
`JointDistribution._exchangeable`, is decided on them.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product as iproduct
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

from .rational import (
    ParseError,
    RationalLike,
    _lcm,
    over_common_denominator,
    parse_nonnegative,
    parse_rational,
)

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


@lru_cache(maxsize=None)
def _bundle_masks(n: int) -> Tuple[int, ...]:
    """The item bit mask (bit i - 1 for item i) of each bundle of `all_bundles(n)`."""
    return tuple(sum(1 << (i - 1) for i in b) for b in all_bundles(n))


def as_bundle(items: Iterable[int], n: int) -> Bundle:
    """The canonical bundle of `items`: sorted, each item once. ValueError if
    an item is not an int (bools excluded) or lies outside 1..n, or there is
    none."""
    items = tuple(items)
    for i in items:
        if isinstance(i, bool) or not isinstance(i, int):
            raise ValueError(f"item {i!r} is a {type(i).__name__}, not an int")
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


def _is_rational(p) -> bool:  # an int, a Fraction or another numbers.Rational, not a bool
    return type(p) is Fraction or type(p) is int or (
        isinstance(p, numbers.Rational) and not isinstance(p, bool))


def _coordinate_columns(n: int, points: Sequence[Valuation]) -> List[Sequence]:
    """The points' coordinates, one column per item, checked to be rationals."""
    if set(map(len, points)) - {n}:
        v = next(v for v in points if len(v) != n)
        raise ValueError(f"valuation has {len(v)} entries for a {n}-item menu")
    columns = list(zip(*points)) if points else [()] * n
    if set(map(type, chain.from_iterable(columns))) <= {int, Fraction}:
        return columns
    for v in points:
        for i, x in enumerate(v):
            if not _is_rational(x):
                raise ValueError(f"valuation {tuple(v)!r}: value[{i}] = {x!r} is a "
                                 f"{type(x).__name__}, not a rational number")
    return [tuple(map(Fraction, column)) for column in columns]


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


class IntegerAtoms(NamedTuple):
    """A joint distribution's atoms in integers, in atom order: L is the lcm
    of the coordinate denominators and W that of the probability denominators."""

    scale: int  # L
    columns: Tuple[Tuple[int, ...], ...]  # per item, L times each atom's coordinate
    whole: int  # W
    weights: Tuple[int, ...]  # W times each atom's probability


@dataclass(frozen=True)
class JointDistribution:
    """Finitely supported distribution over n-item valuation vectors."""

    n: int
    atoms: Tuple[Tuple[Valuation, Fraction], ...]

    @cached_property
    def integer_atoms(self) -> IntegerAtoms:
        """The atoms over their common denominators, computed once per object
        by `rational.over_common_denominator` at the first read, the first
        exact evaluation. A coordinate that is not a rational raises
        ValueError here, not at construction, and nothing is cached."""
        columns = _coordinate_columns(self.n, [v for v, _ in self.atoms])
        scale, flat = over_common_denominator(chain.from_iterable(columns))
        whole, weights = over_common_denominator(p for _, p in self.atoms)
        size = len(self.atoms)
        return IntegerAtoms(scale, tuple(tuple(flat[i * size:(i + 1) * size]) for i in range(self.n)),
                            whole, tuple(weights))

    @cached_property
    def _exchangeable(self) -> bool:
        """Whether every relabeling of the items maps the atoms onto atoms of
        equal mass, decided once per object on `integer_atoms`: each adjacent
        transposition (they generate the relabelings) must map every atom's
        row onto a row of the same weight, and no valuation may repeat."""
        atoms = self.integer_atoms
        cols = atoms.columns
        weight = dict(zip(zip(*cols), atoms.weights))
        if len(weight) < len(atoms.weights):
            return False
        return all(tuple(map(weight.get, zip(*cols[:i], cols[i + 1], cols[i], *cols[i + 2:])))
                   == atoms.weights for i in range(self.n - 1))

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


def _is_canonical(atoms) -> bool:
    """True iff `atoms`, in one pass, is a nonempty tuple of (value, mass)
    pairs of Fractions, values nonnegative and strictly increasing, masses
    positive and summing to exactly 1 in integers over their lcm: the atoms
    `SingleItemDistribution.from_pairs` returns for them, as they stand."""
    if type(atoms) is not tuple or not atoms:
        return False
    num, den = -1, 1  # the previous value, -1 before the first
    for v, p in atoms:
        if type(v) is not Fraction or type(p) is not Fraction:
            return False
        if v.numerator < 0 or p.numerator <= 0 or v.numerator * den <= num * v.denominator:
            return False
        num, den = v.numerator, v.denominator
    whole = _lcm({p.denominator for _, p in atoms})
    return sum(p.numerator * (whole // p.denominator) for _, p in atoms) == whole


def _canonical_atoms(d: SingleItemDistribution, where: str) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """The atoms of `d` in canonical form, checked as `from_pairs` checks its
    pairs, with no value repeated. Atoms that pass `_is_canonical` are
    returned as they are; only others go through `from_pairs`, which sorts
    distinct values out of order, turns ints into Fractions and raises the
    located fault. A distribution built directly may hold any atoms."""
    if _is_canonical(d.atoms):
        return d.atoms
    atoms = SingleItemDistribution.from_pairs(d.atoms, where).atoms
    if len(atoms) != len(d.atoms):
        raise ParseError(where, "repeated value")
    return atoms


def _times(p: Fraction, q: Fraction) -> Fraction:
    """p * q, built from the numerators and denominators with one
    normalization: about 30% faster than `Fraction.__mul__` on the masses of
    an ER discretization."""
    return Fraction(p.numerator * q.numerator, p.denominator * q.denominator)


def _repeated_masses(probs: Sequence[Fraction], k: int) -> List[Fraction]:
    """The mass of every index tuple of k independent copies of one part,
    the tuples in lexicographic order, each product taken once per multiset
    of indices and shared by all its orderings.

    Built one copy at a time. `canon` holds the flat index of each tuple's
    ascending ordering: (i, *s), with s ascending, is ascending where
    i <= s[0], and otherwise orders as (s[0], *ascending(i, *s[1:])). An
    ascending tuple's mass is probs[i] times its rest's; any other tuple
    takes the mass of its ascending ordering, which comes before it.
    """
    n = len(probs)
    table, canon = list(probs), list(range(n))
    for c in range(1, k):
        block, size = n ** (c - 1), n ** c
        canon = [i * size + f if i <= f // block else f // block * size + canon[i * block + f % block]
                 for i in range(n) for f in canon]
        masses: List[Fraction] = []
        for t, f in enumerate(canon):
            masses.append(_times(probs[t // size], table[t % size]) if f == t else masses[f])
        table = masses
    return table


def product(parts: Sequence[SingleItemDistribution]) -> JointDistribution:
    """Independent product of per-item distributions.

    Each part is checked once and brought to canonical form, so the valuation
    vectors, taken in lexicographic order, are distinct and already sorted:
    the atoms are those `JointDistribution.from_pairs` would give, built
    directly. A part is checked by one pass over its atoms (`_is_canonical`);
    only a part that fails it is re-parsed by `SingleItemDistribution.from_pairs`,
    which sorts it or raises the fault located under `parts[k]`. A part given
    more than once, as in an i.i.d. product, is checked at its first place.
    Where every part has the same atoms (compared by value), the i.i.d.
    product, each probability is computed once per multiset of atom indices
    (`_repeated_masses`): for two copies of a 100-atom part, 5,050 Fraction
    products instead of 10^4, with atoms `==` to the general construction.
    Every mass product, on either path, is one `_times`."""
    if not parts:
        raise ValueError("product of zero distributions")
    if len(parts) > MAX_ITEMS:
        raise ValueError(f"distribution: item count must be in 1..{MAX_ITEMS}, got {len(parts)}")
    by_part: Dict[int, Tuple[Tuple[Fraction, Fraction], ...]] = {}  # id(part) -> its atoms
    for k, d in enumerate(parts):
        if id(d) not in by_part:
            by_part[id(d)] = _canonical_atoms(d, f"parts[{k}]")
    checked = [by_part[id(d)] for d in parts]
    if all(c == checked[0] for c in checked[1:]):
        masses = _repeated_masses([p for _, p in checked[0]], len(parts))
        values = iproduct([v for v, _ in checked[0]], repeat=len(parts))
        return JointDistribution(len(parts), tuple(zip(values, masses)))
    atoms = [((v,), p) for v, p in checked[0]]
    for part in checked[1:]:
        atoms = [(vs + (v,), _times(q, p)) for vs, q in atoms for v, p in part]
    return JointDistribution(len(parts), tuple(atoms))


# ---------------------------------------------------------------------------
# Menus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Menu:
    """Deterministic mechanism: one nonnegative price per nonempty bundle.

    Prices are stored in canonical bundle order (all_bundles); the empty
    bundle implicitly costs 0. Each price is checked once, at construction:
    a Fraction is kept, an int or other `numbers.Rational` (not a bool) is
    stored as a Fraction, and a non-rational or negative price raises
    ValueError naming its bundle, as do a wrong price count and an item
    count outside 1..MAX_ITEMS.
    """

    n: int
    prices: Tuple[Fraction, ...]

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"item count must be an int, got {self.n!r}")
        bundles = all_bundles(self.n)  # ValueError unless 1 <= n <= MAX_ITEMS
        prices = tuple(self.prices)
        if len(prices) != len(bundles):
            raise ValueError(f"menu for {self.n} items needs {len(bundles)} prices, "
                             f"got {len(prices)}")
        checked = []
        for b, p in zip(bundles, prices):
            if type(p) is not Fraction:
                if not _is_rational(p):
                    raise ValueError(f"price of bundle {b} = {p!r} is a {type(p).__name__}, "
                                     "not a rational number")
                p = Fraction(p)
            if p.numerator < 0:  # a Fraction's sign, without a Fraction comparison
                raise ValueError(f"price of bundle {b} must be nonnegative, got {p}")
            checked.append(p)
        object.__setattr__(self, "prices", tuple(checked))

    def price(self, bundle: Iterable[int]) -> Fraction:
        b = as_bundle(bundle, self.n)
        return self.prices[_bundle_index(self.n)[b]]

    def as_dict(self) -> Dict[Bundle, Fraction]:
        return dict(zip(all_bundles(self.n), self.prices))


@lru_cache(maxsize=None)
def _bundle_index(n: int) -> Dict[Bundle, int]:
    return {b: i for i, b in enumerate(all_bundles(n))}


def menu2(a: numbers.Rational, b: numbers.Rational, c: numbers.Rational) -> Menu:
    """The 2-item menu (a, b, c): item 1 at a, item 2 at b, both at c."""
    return Menu(2, (a, b, c))


def _lattice_steps(n: int) -> Iterator[Tuple[int, int, int, int]]:
    """Terms (a, b, c, d) for p[a] + p[b] >= p[c] + p[d], bundles by canonical
    index, -1 the empty one of price 0: per set S and item i outside it,
    monotonicity (S+i, -1, S, -1) if S is nonempty, the only terms with b = -1,
    and per j > i outside S, submodularity (S+i, S+j, S, S+i+j). With p(empty) = 0
    these one-element steps admit exactly the prices all bundle pairs admit
    (Fujishige 2005; Schrijver 2003, Thm 44.1; monotonicity by transitivity)
    in n * 2^(n-1) - n + C(n, 2) * 2^(n-2) terms, not B^2 / 2; none is kept."""
    index = {m: k for k, m in enumerate(_bundle_masks(n))} | {0: -1}
    for s in range(1 << n):
        outside = [1 << i for i in range(n) if not s >> i & 1]
        for k, i in enumerate(outside):
            if s:
                yield index[s | i], -1, index[s], -1
            for j in outside[k + 1:]:
                yield index[s | i], index[s | j], index[s], index[s | i | j]


@lru_cache(maxsize=None)
def _lattice_terms(n: int) -> Tuple[Tuple[Tuple[int, int, int, int], ...], ...]:
    """(monotonicity terms, submodularity terms) of `_lattice_steps`, cached for
    the search's pruning; its grid closure test reads none, as a grid closed
    along every step need not be closed along every bundle pair."""
    terms = tuple(_lattice_steps(n))
    return tuple(t for t in terms if t[1] < 0), tuple(t for t in terms if t[1] >= 0)


def is_submodular(m: Menu) -> bool:
    """p(S) + p(T) >= p(S & T) + p(S | T) for all bundles, with p(empty) = 0,
    tested on the equivalent one-element steps p(S+i) + p(S+j) >= p(S) + p(S+i+j)
    of `_lattice_steps`, up to the first that fails; nothing is cached."""
    p = (*m.prices, 0)
    return all(p[a] + p[b] >= p[c] + p[d] for a, b, c, d in _lattice_steps(m.n) if b >= 0)


def is_symmetric_menu(m: Menu) -> bool:
    """True iff the price depends only on bundle cardinality."""
    return len({(len(b), p) for b, p in zip(all_bundles(m.n), m.prices)}) == m.n


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
    if m.n != 2:
        return False
    a, b, c = m.prices
    return c >= a and c >= b

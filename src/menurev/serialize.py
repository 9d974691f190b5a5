"""JSON input for distributions, menus, candidate grids and randomized (lottery) menus.

Rationals travel as strings ("3/4" or "0.75", converted exactly). Every
fault is a `ParseError` naming the JSON path of the offending field: the
validators of `model`, `randomized` and `rational` are handed the path of
what they read and raise at the fault, so nothing here rewrites a message.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import IO, TYPE_CHECKING, Any, Dict, List, Tuple, Union

from .model import (
    MAX_ITEMS,
    JointDistribution,
    Menu,
    SingleItemDistribution,
    all_bundles,
    product,
)
from .rational import ParseError, parse_nonnegative

if TYPE_CHECKING:  # importing randomized loads the LP stack
    from .randomized import RandomizedMenu


def _require(obj: Dict[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise ParseError(where, f"missing required field {key!r}")
    return obj[key]


def _load(source: Any, where: str) -> Dict[str, Any]:
    """The document's top-level object, from JSON text, a file or a parsed value."""
    obj = source
    try:
        if isinstance(source, str):
            obj = json.loads(source)
        elif hasattr(source, "read"):
            obj = json.load(source)
    except json.JSONDecodeError as exc:
        raise ParseError(where, f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(where, "top-level value must be an object")
    return obj


def _item_count(obj: Dict[str, Any], where: str) -> int:
    n = _require(obj, "items", where)
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"{where}.items", "item count must be an integer")
    if not 1 <= n <= MAX_ITEMS:
        raise ParseError(f"{where}.items", f"item count must be in 1..{MAX_ITEMS}, got {n}")
    return n


def parse_distribution(source: Union[str, IO[str], Dict[str, Any]]) -> JointDistribution:
    """Parse a distribution document; product-form inputs are expanded to the full joint."""
    obj = _load(source, "distribution")
    n = _item_count(obj, "distribution")
    kind = _require(obj, "kind", "distribution")
    if kind == "product":
        marginals = _require(obj, "marginals", "distribution")
        if not isinstance(marginals, list) or len(marginals) != n:
            raise ParseError("distribution.marginals", f"expected a list of {n} marginals")
        parts = []
        for i, entries in enumerate(marginals):
            where = f"distribution.marginals[{i}]"
            if not isinstance(entries, list) or not entries:
                raise ParseError(where, "expected a nonempty list of [value, prob] pairs")
            pairs = []
            for j, entry in enumerate(entries):
                if not isinstance(entry, list) or len(entry) != 2:
                    raise ParseError(f"{where}[{j}]", "expected a [value, prob] pair")
                pairs.append((entry[0], entry[1]))
            parts.append(SingleItemDistribution.from_pairs(pairs, where))
        return product(parts)
    if kind == "joint":
        atoms = _require(obj, "atoms", "distribution")
        if not isinstance(atoms, list) or not atoms:
            raise ParseError("distribution.atoms", "expected a nonempty list of atoms")
        pairs = []
        for i, atom in enumerate(atoms):
            where = f"distribution.atoms[{i}]"
            if not isinstance(atom, dict):
                raise ParseError(where, "expected an object with 'values' and 'prob'")
            values = _require(atom, "values", where)
            prob = _require(atom, "prob", where)
            if not isinstance(values, list):
                raise ParseError(f"{where}.values", "expected a list of values")
            pairs.append((values, prob))
        return JointDistribution.from_pairs(n, pairs, "distribution.atoms")
    raise ParseError("distribution.kind", f"unknown kind {kind!r} (expected 'product' or 'joint')")


def bundle_key(bundle) -> str:
    return ",".join(str(i) for i in bundle)


def _prices_by_bundle(obj: Dict[str, Any], where: str, n: int) -> Dict[Tuple[int, ...], Any]:
    """obj["prices"] keyed by bundle; its keys must be exactly the n-item bundles."""
    prices = _require(obj, "prices", where)
    if not isinstance(prices, dict):
        raise ParseError(f"{where}.prices", "expected an object mapping bundles to prices")
    order = all_bundles(n)
    expected = {bundle_key(b): b for b in order}
    table = {}
    for key, value in prices.items():
        if key not in expected:
            raise ParseError(f"{where}.prices[{key!r}]",
                             "bundle keys are comma-joined sorted item indices, e.g. '1,2'")
        table[expected[key]] = value
    missing = [bundle_key(b) for b in order if b not in table]
    if missing:
        raise ParseError(f"{where}.prices", f"missing bundles: {', '.join(missing)}")
    return table


def parse_menu(source: Union[str, IO[str], Dict[str, Any]]) -> Menu:
    obj = _load(source, "menu")
    n = _item_count(obj, "menu")
    table = _prices_by_bundle(obj, "menu", n)
    return Menu(n, tuple(parse_nonnegative(table[b], f"menu.prices[{bundle_key(b)!r}]")
                         for b in all_bundles(n)))


def parse_grid(source: Any, n: int) -> Dict[Tuple[int, ...], List[Fraction]]:
    """Candidate price lists by bundle from {"prices": {"1": [...], "1,2": [...]}}."""
    table = _prices_by_bundle(_load(source, "grid"), "grid", n)
    for bundle, prices in table.items():
        where = f"grid.prices[{bundle_key(bundle)!r}]"
        if not isinstance(prices, list) or not prices:
            raise ParseError(where, "expected a nonempty list of prices")
        table[bundle] = [parse_nonnegative(price, f"{where}[{j}]")
                         for j, price in enumerate(prices)]
    return table


def parse_randomized_menu(source: Union[str, IO[str], Dict[str, Any]]) -> RandomizedMenu:
    """Parse {"items": n, "entries": [{"alloc": [...], "pay": ...}, ...]}."""
    from .randomized import RandomizedMenu

    obj = _load(source, "randomized_menu")
    n = _item_count(obj, "randomized_menu")
    entries = _require(obj, "entries", "randomized_menu")
    if not isinstance(entries, list):
        raise ParseError("randomized_menu.entries", "expected a list of entries")
    pairs = []
    for i, entry in enumerate(entries):
        where = f"randomized_menu.entries[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(where, "expected an object with 'alloc' and 'pay'")
        alloc = _require(entry, "alloc", where)
        if not isinstance(alloc, list):
            raise ParseError(f"{where}.alloc", "expected a list of probabilities")
        pairs.append((alloc, _require(entry, "pay", where)))
    return RandomizedMenu.from_entries(n, pairs, "randomized_menu.entries")


def dumps(obj: Any) -> str:
    """JSON text as the command line writes it: indented, keys sorted, one final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

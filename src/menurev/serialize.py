"""JSON input/output for distributions and menus.

Rationals travel as strings ("3/4" or "0.75", converted exactly) and parse
errors carry the JSON path of the offending field.
"""
from __future__ import annotations

import json
from typing import IO, Any, Dict, Tuple, Union

from .model import (
    JointDistribution,
    Menu,
    SingleItemDistribution,
    all_bundles,
    product,
)
from .rational import format_rational


class ParseError(ValueError):
    """Malformed input; `location` is a JSON-path-like string."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


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


def parse_distribution(source: Union[str, IO[str], Dict[str, Any]]) -> JointDistribution:
    """Parse a distribution document; product-form inputs are expanded to the full joint."""
    obj = _load(source, "distribution")
    n = _require(obj, "items", "distribution")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("distribution.items", "item count must be an integer")
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
            try:
                parts.append(SingleItemDistribution.from_pairs(pairs, where))
            except ValueError as exc:
                raise ParseError(where, str(exc)) from None
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
        try:
            return JointDistribution.from_pairs(n, pairs, "distribution")
        except ValueError as exc:
            raise ParseError("distribution.atoms", str(exc)) from None
    raise ParseError("distribution.kind", f"unknown kind {kind!r} (expected 'product' or 'joint')")


def distribution_to_dict(dist: JointDistribution) -> Dict[str, Any]:
    return {
        "items": dist.n,
        "kind": "joint",
        "atoms": [
            {"values": [format_rational(x) for x in v], "prob": format_rational(p)}
            for v, p in dist.atoms
        ],
    }


def bundle_key(bundle) -> str:
    return ",".join(str(i) for i in bundle)


def _prices_by_bundle(obj: Dict[str, Any], where: str, n: int) -> Dict[Tuple[int, ...], Any]:
    """obj["prices"] keyed by bundle; its keys must be exactly the n-item bundles."""
    prices = _require(obj, "prices", where)
    if not isinstance(prices, dict):
        raise ParseError(f"{where}.prices", "expected an object mapping bundles to prices")
    try:
        order = all_bundles(n)
    except ValueError as exc:
        raise ParseError(f"{where}.items", str(exc)) from None
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
    n = _require(obj, "items", "menu")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("menu.items", "item count must be an integer")
    table = _prices_by_bundle(obj, "menu", n)
    try:
        return Menu.from_mapping(n, table)
    except ValueError as exc:
        raise ParseError("menu.prices", str(exc)) from None


def parse_grid(source: Any, n: int) -> Dict[Tuple[int, ...], list]:
    """Candidate price lists by bundle from {"prices": {"1": [...], "1,2": [...]}}."""
    table = _prices_by_bundle(_load(source, "grid"), "grid", n)
    for bundle, prices in table.items():
        if not isinstance(prices, list):
            raise ParseError(f"grid.prices[{bundle_key(bundle)!r}]", "expected a list of prices")
    return table


def menu_to_dict(m: Menu) -> Dict[str, Any]:
    return {
        "items": m.n,
        "prices": {bundle_key(b): format_rational(p) for b, p in zip(all_bundles(m.n), m.prices)},
    }


def dumps(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

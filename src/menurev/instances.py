"""Bundled benchmark instances and seeded random-instance generators."""
from __future__ import annotations

import json
import random
from fractions import Fraction
from importlib import resources
from typing import TYPE_CHECKING, List, Tuple

from .model import JointDistribution, Menu, SingleItemDistribution, menu2
from .serialize import parse_distribution, parse_menu, parse_randomized_menu

if TYPE_CHECKING:  # importing randomized loads the LP stack
    from .randomized import RandomizedMenu

BUNDLED = (
    "example4_distribution",
    "example4_menu",
    "example5_eps10",
    "example5_eps100",
    "example5_menu",
    "example6_eps10",
    "example6_eps100",
    "example6_menu",
    "example7_distribution",
    "example7_menu",
)


def _read(name: str) -> dict:
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled instance {name!r}")
    text = resources.files("menurev.data").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def load_distribution(name: str) -> JointDistribution:
    return parse_distribution(_read(name))


def load_menu(name: str) -> Menu:
    return parse_menu(_read(name))


def load_randomized_menu(name: str) -> RandomizedMenu:
    return parse_randomized_menu(_read(name))


# ---------------------------------------------------------------------------
# Random instances for the property suites (seeded, deterministic)
# ---------------------------------------------------------------------------

def random_single_item(rng: random.Random, max_atoms: int = 5,
                       max_value: int = 20) -> SingleItemDistribution:
    k = rng.randint(1, max_atoms)
    values = rng.sample(range(max_value + 1), k)
    weights = [rng.randint(1, 6) for _ in range(k)]
    total = sum(weights)
    return SingleItemDistribution.from_pairs(
        (v, Fraction(w, total)) for v, w in zip(values, weights))


def random_correlated_joint(rng: random.Random, n: int = 2, max_atoms: int = 6,
                            max_value: int = 20) -> JointDistribution:
    k = rng.randint(1, max_atoms)
    atoms = {}
    for _ in range(k):
        v = tuple(Fraction(rng.randint(0, max_value)) for _ in range(n))
        atoms[v] = atoms.get(v, 0) + rng.randint(1, 6)
    total = sum(atoms.values())
    return JointDistribution.from_pairs(
        n, ((v, Fraction(w, total)) for v, w in atoms.items()))


def random_fraction(rng: random.Random, max_num: int = 40, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_den))


def random_supermodular_menu(rng: random.Random, max_price: int = 30) -> Menu:
    """Strictly supermodular 2-item menu: c > a + b."""
    a = random_fraction(rng, max_price)
    b = random_fraction(rng, max_price)
    c = a + b + random_fraction(rng, max_price) + Fraction(1, rng.randint(1, 4))
    return menu2(a, b, c)


def random_submodular_menu(rng: random.Random, max_price: int = 30,
                           require_asymmetric: bool = False) -> Menu:
    """Normalized submodular 2-item menu: max(a, b) <= c <= a + b."""
    while True:
        a = random_fraction(rng, max_price)
        b = random_fraction(rng, max_price)
        if require_asymmetric and a == b:
            continue
        lo, hi = max(a, b), a + b
        if lo > hi:
            continue
        span = hi - lo
        c = lo + span * Fraction(rng.randint(0, 12), 12)
        return menu2(a, b, c)


def random_menu(rng: random.Random, n: int, max_price: int = 20) -> Menu:
    from .model import all_bundles
    return Menu(n, tuple(random_fraction(rng, max_price) for _ in all_bundles(n)))


def random_product_instance(rng: random.Random,
                            max_atoms: int = 5, max_value: int = 20
                            ) -> Tuple[SingleItemDistribution, SingleItemDistribution]:
    return (random_single_item(rng, max_atoms, max_value),
            random_single_item(rng, max_atoms, max_value))


def random_valuation_grid(rng: random.Random, n: int, count: int,
                          max_value: int = 25) -> List[Tuple[Fraction, ...]]:
    return [tuple(random_fraction(rng, max_value) for _ in range(n)) for _ in range(count)]

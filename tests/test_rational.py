import ast
import inspect
import math
import random
from fractions import Fraction as F

import pytest

from conftest import floor_to_dyadic
from menurev import product, rational, search, uniform
from menurev.rational import (
    decimal_with_flag,
    format_decimal,
    over_common_denominator,
    parse_rational,
)


def test_parse_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(7) == F(7)


def test_format_decimal_exact():
    assert format_decimal(F(6293, 1000)) == ("6.293", True)
    assert format_decimal(F(61, 25)) == ("2.44", True)
    assert format_decimal(F(-5, 2)) == ("-2.5", True)
    assert format_decimal(F(3)) == ("3", True)


def test_format_decimal_truncates_repeating_at_12_places():
    text, exact = format_decimal(F(1, 3))
    assert text == "0.333333333333" and len(text.split(".")[1]) == 12
    assert not exact
    assert decimal_with_flag(F(1, 3)) == "0.333333333333..."
    assert decimal_with_flag(F(1, 8)) == "0.125"


def test_floor_to_dyadic():
    assert floor_to_dyadic(1.0, 4) == 1
    assert floor_to_dyadic(1.03, 4) == F(16, 16)
    assert floor_to_dyadic(1.07, 4) == F(17, 16)
    x = 3.141592653589793
    d = floor_to_dyadic(x, 20)
    assert d <= F(x) < d + F(1, 1 << 20)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 5, 64, 1000, 10**4])
def test_tree_lcm_matches_running_lcm(size):
    # small denominators with many repeats, as the equal-revenue atoms have,
    # and a few large random ones beside them
    rng = random.Random(size)
    dens = [rng.randint(1, 3000) for _ in range(size)]
    dens[:size // 100] = [rng.getrandbits(80) + 1 for _ in range(size // 100)]
    rng.shuffle(dens)
    assert rational._lcm(dens) == math.lcm(*dens)
    assert rational._lcm(set(dens)) == math.lcm(*dens)


def _common_denominator_cases():
    rng = random.Random(5)
    mixed = [rng.choice([rng.randint(-9, 9), F(rng.randint(-50, 50), rng.randint(1, 12))])
             for _ in range(200)]
    repeated = [F(rng.randint(0, 99), 7) for _ in range(50)] + [F(1, 14), F(3, 28)]
    primes = [2**61 - 1, 2**31 - 1, 2**19 - 1, 1000003]  # lcm above 2^63
    wide = [F(rng.randint(1, p - 1), p) for p in primes] + [F(1, 6), 5]
    return {"empty": [], "one int": [7], "one fraction": [F(-3, 8)], "mixed": mixed,
            "repeated": repeated, "past int64": wide}


@pytest.mark.parametrize("case", list(_common_denominator_cases()))
def test_over_common_denominator_matches_fractions(case):
    qs = _common_denominator_cases()[case]
    scale, scaled = over_common_denominator(iter(qs))
    assert scale == math.lcm(*(F(q).denominator for q in qs))
    assert len(scaled) == len(qs)
    for q, x in zip(qs, scaled):
        assert type(x) is int and x == F(q) * scale
    if case == "past int64":
        assert scale >= 2**63


def test_search_scales_no_atoms_itself():
    # the search and the buyer both read the distribution's integer atoms;
    # the search takes no lcm of atoms and imports no scaling helper
    assert not hasattr(search, "_lcm")
    assert not hasattr(search, "over_common_denominator")
    tree = ast.parse(inspect.getsource(search))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("rational") for alias in node.names}
    assert not imported & {"_lcm", "over_common_denominator", "*"}
    dist = product([uniform([F(1, 2), 3]), uniform([1, F(5, 3), 4])])
    # a price denominator that the coordinates lack makes L = 5 * L_v
    grid = search.CandidateGrid(2, "explicit", ((F(0), F(1, 5)), (F(0), F(1)), (F(0), F(2))))
    inst = search._Instance(dist, grid)
    atoms = dist.integer_atoms
    assert inst.W is atoms.whole and list(inst.exact_weights) == list(atoms.weights)
    assert (atoms.scale, inst.L) == (6, 30)
    assert [list(column) for column in inst.values[:, :2].T] == [
        [x * (inst.L // atoms.scale) for x in column] for column in atoms.columns]

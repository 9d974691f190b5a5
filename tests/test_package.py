"""The package namespace: which submodules each entry point loads, and the
public surface that loading them on first access must keep."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import menurev
import reference

SRC = str(Path(menurev.__file__).resolve().parent.parent)
BENCH = str(Path(reference.__file__).resolve().parent)

# `menurev.__all__` as it stood when `import menurev` imported every submodule,
# less `buyer_choice` and `BuyerOutcome`: the Fraction reference evaluator is
# `reference.choice` in benchmark/, outside the package; and less the
# bundle-monotone menu predicate, which had no caller outside the tests
PUBLIC = [
    "COMBINATION_RULES", "CandidateGrid", "CertificateError", "ConstructionCertificate",
    "DirectMechanism", "ERGapReport", "GapReport", "JointDistribution", "LPOutcome",
    "Menu", "MenuEntry", "MonotonicityReport", "NumericParams", "ParseError",
    "RandomizedMenu", "RegionPartition2", "SearchResult", "SingleItemDistribution",
    "all_bundles", "best_false_name_deviation", "buyer", "candidate_grid",
    "check_monotone", "constructions", "continuous", "er_cap_sweep", "er_discretize",
    "expected_revenue", "expected_revenues", "false_name_utility", "gap_report",
    "is_submodular", "is_symmetric_menu", "lp", "lp_optimal", "menu2",
    "menu_expected_payment", "model", "monotonicity_grid", "normalize", "numeric_gap_er",
    "parse_distribution", "parse_menu", "point_mass", "product", "randomized", "rational",
    "rchoice", "region_partition_2", "regions", "render_ascii", "render_svg", "revenue_at",
    "sale_probabilities", "search", "search_optimal", "serialize", "solve_w",
    "submodularize2", "symmetrize2", "three_halves_decomposition", "uniform",
    "verify_ic_ir",
]


def _fresh(code: str, first: str = "import menurev"):
    """Run `code` in a new interpreter after `first`; returns the value it
    leaves in `out`, read back as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, BENCH] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = f"import json, sys\n{first}\n{code}\nprint(json.dumps(out))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LOADED = ("out = sorted(m for m in sys.modules if m == 'menurev' or m.startswith('menurev.'))"
          " + ['numpy'] * ('numpy' in sys.modules)")


@pytest.mark.parametrize("use, loaded", [
    ("", {"menurev"}),
    ("menurev.lp_optimal",
     {"menurev", "menurev.lp", "menurev.model", "menurev.randomized", "menurev.rational",
      "numpy"}),
    ("menurev.numeric_gap_er",
     {"menurev", "menurev.buyer", "menurev.continuous", "menurev.model", "menurev.rational",
      "menurev.search", "numpy"}),
    ("menurev.instances.load_distribution('example4_distribution')",
     {"menurev", "menurev.data", "menurev.instances", "menurev.model", "menurev.rational",
      "menurev.serialize"}),
    # the exact layers load no numpy, even when they run
    ("m = menurev.menu2(5, 1, 10)\nmenurev.check_monotone(m, menurev.monotonicity_grid(m))",
     {"menurev", "menurev.buyer", "menurev.model", "menurev.rational"}),
    ("d = menurev.uniform((1, 4))\nmenurev.submodularize2(menurev.menu2(1, 1, 3), d, d)",
     {"menurev", "menurev.buyer", "menurev.constructions", "menurev.model",
      "menurev.rational"}),
    ("menurev.region_partition_2(menurev.menu2(2, 3, 4))",
     {"menurev", "menurev.buyer", "menurev.model", "menurev.rational", "menurev.regions"}),
    # the one input fault type lives in the layer every validator imports
    ("menurev.ParseError", {"menurev", "menurev.rational"}),
], ids=["import", "lp_optimal", "numeric_gap_er", "load_distribution", "check_monotone",
        "submodularize2", "region_partition_2", "ParseError"])
def test_first_use_loads_only_its_layers(use, loaded):
    assert set(_fresh(f"{use}\n{LOADED}")) == loaded


def test_reference_oracle_loads_no_menurev():
    # the tests' oracle shares no code with the package it checks
    assert _fresh(LOADED, first="import reference") == []


def test_all_is_unchanged():
    assert menurev.__all__ == PUBLIC


def test_every_public_name_is_its_submodules_object():
    for name in PUBLIC:
        home = name if name in menurev._EXPORTS else menurev._HOME[name]
        module = importlib.import_module(f"menurev.{home}")
        expected = module if home == name else getattr(module, name)
        assert getattr(menurev, name) is expected, name


def test_one_parse_error_type():
    assert menurev.ParseError is menurev.rational.ParseError is menurev.serialize.ParseError
    assert issubclass(menurev.ParseError, ValueError)


def test_star_import_binds_every_name():
    out = _fresh("ns = {}\nexec('from menurev import *', ns)\n"
                 "out = sorted(k for k in ns if k != '__builtins__')")
    assert out == sorted(PUBLIC)


def test_submodule_resolves_on_first_access():
    # the exact-audit workload's first touch of the package may be this one
    out = _fresh("out = [menurev.regions.__name__, "
                 "menurev.regions.verify_against_buyer.__module__]")
    assert out == ["menurev.regions", "menurev.regions"]


def test_dir_lists_every_public_name():
    assert set(PUBLIC) | {"instances", "reproduce", "cli"} <= set(dir(menurev))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        menurev.no_such_name
    assert not hasattr(menurev, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from menurev import no_such_name", {})

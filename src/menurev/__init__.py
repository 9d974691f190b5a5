"""Revenue-optimal selling mechanisms for a single additive buyer over
finitely supported valuation distributions: exact evaluation, constructive
menu transformations, exhaustive grid search, equal-revenue analytics, and
lottery-menu tooling.

Importing the package loads none of its submodules (nor numpy). Each public
name, and each submodule, is imported on first access (PEP 562), so a
process compiles only the layers it uses.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines; the submodules listed here are
# public names too
_EXPORTS = {
    "buyer": ("MonotonicityReport", "check_monotone", "expected_revenue", "expected_revenues",
              "monotonicity_grid", "revenue_at", "sale_probabilities"),
    "constructions": ("CertificateError", "ConstructionCertificate", "submodularize2",
                      "symmetrize2", "three_halves_decomposition"),
    "continuous": ("ERGapReport", "NumericParams", "er_cap_sweep", "er_discretize",
                   "numeric_gap_er", "solve_w"),
    "lp": (),
    "model": ("JointDistribution", "Menu", "SingleItemDistribution", "all_bundles",
              "is_submodular", "is_symmetric_menu", "menu2", "normalize", "point_mass",
              "product", "uniform"),
    "randomized": ("COMBINATION_RULES", "DirectMechanism", "LPOutcome", "MenuEntry",
                   "RandomizedMenu", "best_false_name_deviation", "false_name_utility",
                   "lp_optimal", "menu_expected_payment", "rchoice", "verify_ic_ir"),
    "rational": ("ParseError",),
    "regions": ("RegionPartition2", "region_partition_2", "render_ascii", "render_svg"),
    "search": ("CandidateGrid", "GapReport", "SearchResult", "candidate_grid", "gap_report",
               "search_optimal"),
    "serialize": ("parse_distribution", "parse_menu"),
}
# submodules that also load on attribute access, but stay out of `__all__`
_OTHER_SUBMODULES = ("cli", "instances", "reproduce")

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS or name in _OTHER_SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_OTHER_SUBMODULES})

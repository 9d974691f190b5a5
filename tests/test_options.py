import dataclasses
import inspect
from functools import cached_property

import menurev

# Every defaulted parameter and dataclass field of the public callables, with
# the callers outside the tests that set it. A value that no caller sets is a
# constant, not an option: a new entry names its caller here.
OPTIONS = {
    "LPOutcome.rounds": "lp_optimal",
    "LPOutcome.stages": "lp_optimal",
    "NumericParams.cap": "reproduce.ER_GAP_PARAMS, menurev reproduce --cap, er_cap_sweep",
    "NumericParams.grid_points": "reproduce.ER_GAP_PARAMS, menurev reproduce --grid-points, er_cap_sweep",
    "best_false_name_deviation.k": "menurev reproduce --k, the lottery-lp workload (k = 3)",
    "candidate_grid.explicit": "menurev search --grid-file",
    "candidate_grid.max_price": "menurev search --max-price",
    "candidate_grid.mode": "menurev search --grid, reproduce",
    "er_cap_sweep.caps": "reproduce._er_gap",
    "er_cap_sweep.points": "reproduce._er_gap",
    "er_cap_sweep.r1": "reproduce._er_gap",
    "er_cap_sweep.r2": "reproduce._er_gap",
    "lp_optimal.method": "the lottery-lp benchmark workload",
    "numeric_gap_er.include_drev": "er_cap_sweep",
    "numeric_gap_er.params": "reproduce._er_gap, er_cap_sweep",
}

# Every public function, with a caller outside the tests: a command, a
# reproduction target, a benchmark workload or a library function. A name
# kept only for the tests says why. A new function names its caller here.
CALLERS = {
    "all_bundles": "model.Menu, serialize, search, buyer, regions",
    "best_false_name_deviation": "reproduce example-7, the lottery-lp workload",
    "candidate_grid": "menurev search, reproduce",
    "check_monotone": "reproduce, the exact-audit workload",
    "er_cap_sweep": "reproduce er-gap",
    "er_discretize": "the er-gap workload",
    "expected_revenue": "search_optimal, reproduce",
    "expected_revenues": "constructions",
    "false_name_utility": "reproduce example-7, its two-pick row",
    "gap_report": "the grid-search workload",
    "is_submodular": "reproduce",
    "is_symmetric_menu": "reproduce",
    "lp_optimal": "reproduce example-7, the lottery-lp workload",
    "menu2": "reproduce, constructions, instances",
    "menu_expected_payment": "reproduce example-7",
    "monotonicity_grid": "reproduce, the exact-audit workload",
    "normalize": "menurev plot, constructions",
    "numeric_gap_er": "reproduce er-gap, er_cap_sweep",
    "parse_distribution": "menurev eval, menurev search, instances",
    "parse_menu": "menurev eval, menurev plot, instances",
    "point_mass": "test constructor",
    "product": "serialize, constructions, numeric_gap_er",
    "rchoice": "reproduce example-7, direct_from_menu",
    "region_partition_2": "menurev plot",
    "render_ascii": "menurev plot --ascii",
    "render_svg": "menurev plot",
    "revenue_at": "the benchmark tracer, which wraps it",
    "sale_probabilities": "menurev eval",
    "search_optimal": "menurev search, reproduce, continuous",
    "solve_w": "reproduce, numeric_gap_er",
    "submodularize2": "reproduce, the exact-audit workload",
    "symmetrize2": "reproduce, the exact-audit workload",
    "three_halves_decomposition": "reproduce, the exact-audit workload",
    "uniform": "test constructor",
    "verify_ic_ir": "lp_optimal",
}

# Every public method and property of the public classes, leaving out
# exceptions and dataclass fields, with a caller outside the tests. A new
# method names its caller here.
METHODS = {
    "ConstructionCertificate.margin": "reproduce, its worst-margin rows",
    "DirectMechanism.expected_revenue": "menu_expected_payment, lp_optimal",
    "ERGapReport.brev_over_srev": "reproduce er-gap",
    "ERGapReport.drev": "reproduce er-gap",
    "ERGapReport.drev_over_srev": "ROADMAP item 1: the ER report's trace record",
    "ERGapReport.to_json_dict": "ROADMAP item 1: the ER report's trace record",
    "JointDistribution.from_pairs": "serialize.parse_distribution",
    "JointDistribution.integer_atoms": "expected_revenues, sale_probabilities, search_optimal",
    "JointDistribution.marginal": "JointDistribution.support_values",
    "JointDistribution.support_values": "candidate_grid",
    "Menu.as_dict": "regions, the benchmark reference",
    "Menu.price": "menurev eval",
    "MonotonicityReport.ok": "reproduce, the exact-audit workload",
    "RandomizedMenu.from_entries": "serialize",
    "RegionPartition2.polygons": "render_svg",
    "RegionPartition2.region_of": "the exact-audit workload",
    "RegionPartition2.regions_of": "verify_against_buyer, render_ascii",
    "SearchResult.to_json_dict": "menurev search --format json",
    "SingleItemDistribution.from_pairs": "serialize, uniform, point_mass, product",
    "SingleItemDistribution.prob_in": "constructions",
    "SingleItemDistribution.support": "JointDistribution.support_values, continuous",
    "SingleItemDistribution.tail": "constructions",
}


def _defaulted(obj):
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # an exception class that keeps the built-in signature
        return set()
    names = {p.name for p in params if p.default is not inspect.Parameter.empty}
    if dataclasses.is_dataclass(obj):
        names |= {f.name for f in dataclasses.fields(obj)
                  if f.default is not dataclasses.MISSING
                  or f.default_factory is not dataclasses.MISSING}
    return names


def test_every_option_is_listed():
    found = {f"{name}.{param}" for name in menurev.__all__
             if callable(getattr(menurev, name))
             for param in _defaulted(getattr(menurev, name))}
    assert found == set(OPTIONS)


def test_every_function_is_listed():
    found = {name for name in menurev.__all__
             if callable(getattr(menurev, name)) and not isinstance(getattr(menurev, name), type)}
    assert found == set(CALLERS)


def test_every_method_is_listed():
    found = set()
    for name in menurev.__all__:
        cls = getattr(menurev, name)
        if not isinstance(cls, type) or issubclass(cls, BaseException):
            continue
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        found |= {f"{name}.{attr}" for attr, member in vars(cls).items()
                  if not attr.startswith("_") and attr not in fields
                  and (inspect.isfunction(member)
                       or isinstance(member, (property, cached_property, classmethod,
                                              staticmethod)))}
    assert found == set(METHODS)

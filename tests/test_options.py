import dataclasses
import inspect

import menurev

# Every defaulted parameter and dataclass field of the public callables, with
# the callers outside the tests that set it. A value that no caller sets is a
# constant, not an option: a new entry names its caller here.
OPTIONS = {
    "LPOutcome.rounds": "lp_optimal",
    "LPOutcome.stages": "lp_optimal",
    "NumericParams.cap": "reproduce.ER_GAP_PARAMS, menurev reproduce --cap, er_cap_sweep",
    "NumericParams.grid_points": "reproduce.ER_GAP_PARAMS, menurev reproduce --grid-points, er_cap_sweep",
    "best_false_name_deviation.k": "menurev reproduce --k, is_false_name_proof_at",
    "candidate_grid.explicit": "menurev search --grid-file",
    "candidate_grid.max_price": "menurev search --max-price",
    "candidate_grid.mode": "menurev search --grid, reproduce",
    "er_cap_sweep.caps": "reproduce._er_gap",
    "er_cap_sweep.points": "reproduce._er_gap",
    "er_cap_sweep.r1": "reproduce._er_gap",
    "er_cap_sweep.r2": "reproduce._er_gap",
    "lp_optimal.method": "the lottery-lp benchmark workload",
    "monotonicity_grid.support": "the differential tests: it changes what is checked",
    "numeric_gap_er.include_drev": "er_cap_sweep",
    "numeric_gap_er.params": "reproduce._er_gap, er_cap_sweep",
    "verify_ic_ir.tol": "the differential tests: it changes what is checked",
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

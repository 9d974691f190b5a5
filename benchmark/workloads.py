"""The benchmark's four workloads: inputs made from a seed, the operations a
round runs, and the check applied to each operation's output.

An operation is one checked library call. `check(result, done)` returns the
list of problems found (empty when the output is right); `done` maps the
labels of the operations already run in this round to their results, for
checks that compare operations (class inclusions, LP path agreement).
`summary(result)` is the exact answer, compared across rounds of one run.

menurev is imported inside `build`, so `timed_setup` can include the import.
"""
from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Dict, List

import reference as ref

WORKLOADS = ("grid-search", "er-gap", "exact-audit", "lottery-lp")

# example-4 optima stated in the paper, with the class each optimum must lie in
EXAMPLE4_OPTIMA = {
    "unrestricted": Fraction(6293, 1000),
    "symmetric": Fraction(6291, 1000),
    "submodular": Fraction(6292, 1000),
    "symmetric-and-submodular": Fraction(6288, 1000),
}
# (narrower, wider): an optimum over the narrower class never beats the wider one
INCLUSIONS = (("symmetric", "unrestricted"), ("submodular", "unrestricted"),
              ("symmetric-and-submodular", "symmetric"),
              ("symmetric-and-submodular", "submodular"))
GAP_CLASSES = {"drev": "unrestricted", "srev": "additive", "brev": "bundle-only",
               "smdrev": "submodular", "symdrev": "symmetric"}
BUNDLED_GAP = ("example5_eps100", "example5_eps10", "example6_eps10", "example6_eps100")

SEEDED_GAP_INSTANCES = 6
SUITE_SIZE = 150  # instances per property suite (theorem 3.1, theorem 4.1, lemma 5)
AUDITED_MENUS = 4
AUDIT_GRID_POINTS = 400
SMALL_LPS = 12  # with 3, 4, 5, 3, 4, 5, ... types
ER_LEVELS = 3
DEVIATION_POINT = (Fraction(46), Fraction(80))
TRUTHFUL_UTILITY = Fraction(1152, 1187)


@dataclass
class Op:
    label: str
    group: str
    call: Callable[[], Any]
    check: Callable[[Any, Dict[str, Any]], List[str]]
    summary: Callable[[Any], Any]


@dataclass(frozen=True)
class Detail:
    """A workload-specific figure over the operations of one group: their
    summed seconds, or with `per` set, (operations / per) per second."""

    name: str
    unit: str
    per: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    min_rounds: int  # rounds a run makes even when --seconds has passed
    # the speed.py calibration task most like the code the operations spend
    # their time in
    calibration: str = "python"
    ops: List[Op] = field(default_factory=list)
    details: Dict[str, Detail] = field(default_factory=dict)


def _lazy(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Reference answers are computed on first use, inside a check, so they
    count neither toward set-up nor toward the timed operations."""
    return lru_cache(maxsize=None)(fn)


def timed_setup(name: str, seed: int):
    """Import menurev and build the workload; returns (workload, start, end),
    the set-up's interval of `time.perf_counter()`."""
    t0 = time.perf_counter()
    mr = importlib.import_module("menurev")
    work = build(mr, name, seed)
    return work, t0, time.perf_counter()


def build(mr, name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    # exact-audit repeats its 2-second round so each operation is timed at its
    # median; a round of the others takes 10-45 s, too long to repeat in a run
    make, min_rounds = {"grid-search": (_grid_search, 1), "er-gap": (_er_gap, 1),
                        "exact-audit": (_exact_audit, 4), "lottery-lp": (_lottery_lp, 1)}[name]
    return make(mr, Workload(name, seed, min_rounds), random.Random(f"{name}/{seed}"))


# ---------------------------------------------------------------------------
# Seeded generators (the program only sees what they produce)
# ---------------------------------------------------------------------------

def _fraction(rng, max_num=40, max_den=4) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_den))


def _single_item(mr, rng, max_atoms=5, max_value=20):
    k = rng.randint(1, max_atoms)
    values = rng.sample(range(max_value + 1), k)
    weights = [rng.randint(1, 6) for _ in range(k)]
    return mr.SingleItemDistribution.from_pairs(
        (v, Fraction(w, sum(weights))) for v, w in zip(values, weights))


def _correlated(mr, rng, types: int, max_value: int):
    """2-item joint distribution with exactly `types` distinct valuations."""
    values = set()
    while len(values) < types:
        values.add((rng.randint(0, max_value), rng.randint(0, max_value)))
    weights = [rng.randint(1, 6) for _ in values]
    return mr.JointDistribution.from_pairs(
        2, ((v, Fraction(w, sum(weights))) for v, w in zip(sorted(values), weights)))


def _supermodular_menu(mr, rng):
    a, b = _fraction(rng, 30), _fraction(rng, 30)
    return mr.menu2(a, b, a + b + _fraction(rng, 30) + Fraction(1, rng.randint(1, 4)))


def _submodular_menu(mr, rng, asymmetric=False):
    while True:
        a, b = _fraction(rng, 30), _fraction(rng, 30)
        if not (asymmetric and a == b):
            return mr.menu2(a, b, max(a, b) + min(a, b) * Fraction(rng.randint(0, 12), 12))


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def _search_problems(result, atoms, cls: str) -> List[str]:
    out = []
    table = result.best.as_dict()
    if not ref.in_class(table, cls):
        out.append(f"menu {result.best.prices} is not {cls}")
    recomputed = ref.revenue(table, atoms)
    if recomputed != result.revenue:
        out.append(f"reported revenue {result.revenue} but the menu earns {recomputed}")
    return out


def _search_summary(result):
    return (result.best.prices, result.revenue)


# ---------------------------------------------------------------------------
# grid-search
# ---------------------------------------------------------------------------

def _grid_search(mr, work: Workload, rng) -> Workload:
    load_distribution = importlib.import_module("menurev.instances").load_distribution
    dist4 = load_distribution("example4_distribution")
    grid4 = mr.candidate_grid(dist4, "integer-grid")
    for cls, want in EXAMPLE4_OPTIMA.items():
        def check(res, done, cls=cls, want=want):
            out = _search_problems(res, dist4.atoms, cls)
            if res.revenue != want:
                out.append(f"optimum {res.revenue} != paper's {want}")
            for narrow, wide in INCLUSIONS:
                other = done.get(f"example4/{wide}")
                if narrow == cls and other is not None and res.revenue > other.revenue:
                    out.append(f"{cls} optimum {res.revenue} beats {wide} {other.revenue}")
            return out

        work.ops.append(Op(f"example4/{cls}", "example4",
                           lambda cls=cls: mr.search_optimal(dist4, cls, grid4),
                           check, _search_summary))

    instances = [(name, load_distribution(name)) for name in BUNDLED_GAP]
    instances += [(f"seeded{i}", _correlated(mr, rng, rng.randint(2, 5), 8))
                  for i in range(SEEDED_GAP_INSTANCES)]
    for name, dist in instances:
        grid = mr.candidate_grid(dist, "support-sums")
        optima = _lazy(lambda dist=dist, grid=grid: {
            f: ref.brute_force_optimum(dist.atoms, 2, grid.prices, cls)
            for f, cls in GAP_CLASSES.items()})

        def check(rep, done, dist=dist, optima=optima):
            optima = optima()
            out = []
            for f, cls in GAP_CLASSES.items():
                res = rep.results[f]
                out += [f"{f}: {p}" for p in _search_problems(res, dist.atoms, cls)]
                if res.revenue != optima[f]:
                    out.append(f"{f} = {res.revenue}, brute force over the grid gives {optima[f]}")
            for key, q in rep.ratios.items():
                a, b = key.split("/")
                if q != rep.results[a].revenue / rep.results[b].revenue:
                    out.append(f"ratio {key} = {q} does not match its revenues")
            return out

        work.ops.append(Op(f"gap/{name}", "gap_reports",
                           lambda dist=dist, grid=grid: mr.gap_report(dist, grid), check,
                           lambda rep: tuple(_search_summary(rep.results[f]) for f in GAP_CLASSES)))
    work.details = {"example4": Detail("example4_s", "s")}
    work.calibration = "numpy"  # the int64 menu-evaluation kernel does nearly all the work
    return work


# ---------------------------------------------------------------------------
# er-gap
# ---------------------------------------------------------------------------

def _er_gap(mr, work: Workload, rng) -> Workload:
    w = ref.w_constant()
    params = mr.NumericParams(cap=1e4, grid_points=2400)

    def check_report(rep, done):
        out = []
        if rep.srev != 2.0:
            out.append(f"srev {rep.srev} != 2")
        if not abs(rep.brev - 2 * w) <= 0.01 * 2 * w:
            out.append(f"brev {rep.brev} not within 1% of 2w = {2 * w}")
        if not rep.brev < 2 * w:
            out.append(f"brev {rep.brev} reaches the continuous bound 2w")
        if rep.drev is None or rep.drev_exact is None or float(rep.drev_exact) != rep.drev:
            out.append(f"drev {rep.drev} / {rep.drev_exact} missing or inconsistent")
        elif not abs(rep.drev - rep.brev) <= rep.tolerance:
            out.append(f"|drev - brev| = {abs(rep.drev - rep.brev)} > tolerance {rep.tolerance}")
        if abs(rep.w_ref - w) > 1e-12:
            out.append(f"reported w {rep.w_ref} != {w}")
        return out

    def check_sweep(reports, done):
        ratios = [r.brev / r.srev for r in reports]
        out = []
        if len(ratios) != 3 or any(r.srev != 2.0 for r in reports):
            out.append(f"unexpected sweep {ratios}")
        if not all(x < y for x, y in zip(ratios, ratios[1:])):
            out.append(f"brev/srev does not rise across caps: {ratios}")
        if not all(x < w for x in ratios):
            out.append(f"brev/srev reaches w = {w}: {ratios}")
        return out

    work.ops.append(Op("er/report-drev", "er_gap",
                       lambda: mr.numeric_gap_er(1.0, 1.0, params), check_report,
                       lambda rep: (rep.brev, rep.drev_exact, rep.tolerance)))
    work.ops.append(Op("er/cap-sweep", "er_sweep",
                       lambda: mr.er_cap_sweep(1.0, 1.0), check_sweep,
                       lambda reps: tuple(r.brev for r in reps)))
    for i in range(ER_LEVELS):
        r = rng.randint(4, 32) / 8  # exact in binary, so Fraction(r) is the level itself

        def check_disc(d, done, r=r):
            values = [v for v, _ in d.atoms]
            out = []
            if sum((p for _, p in d.atoms), Fraction(0)) != 1:
                out.append("masses do not sum to exactly 1")
            if len(values) > params.grid_points or values != sorted(set(values)):
                out.append("support is not a strictly increasing grid of at most grid_points values")
            if any(v.denominator > 1 << 20 or v.denominator & (v.denominator - 1) for v in values):
                out.append("support values are not dyadic with denominator at most 2^20")
            tail = Fraction(0)
            for v, p in reversed(d.atoms):
                tail += p
                if tail != min(Fraction(1), Fraction(r) / v):
                    out.append(f"Pr[X >= {v}] = {tail} != min(1, r/v)")
                    break
            return out

        work.ops.append(Op(f"er/discretize-r{r}", "discretize",
                           lambda r=r: mr.er_discretize(r, params), check_disc,
                           lambda d: d.atoms))
    work.details = {"er_gap": Detail("er_gap_s", "s"), "er_sweep": Detail("er_sweep_s", "s")}
    return work


# ---------------------------------------------------------------------------
# exact-audit
# ---------------------------------------------------------------------------

def _certificate_problems(cert, atoms) -> List[str]:
    out = []
    base = ref.menu_revenue(cert.input_menu, atoms)
    if base != cert.input_revenue:
        out.append(f"input revenue {cert.input_revenue} != {base}")
    revs = [ref.menu_revenue(m, atoms) for m in cert.outputs]
    if revs != list(cert.output_revenues):
        out.append(f"candidate revenues {list(cert.output_revenues)} != {revs}")
    if cert.margin < 0 or max(revs) < base:
        out.append(f"negative margin {cert.margin}")
    if ref.menu_revenue(cert.best, atoms) != max(revs):
        out.append("best candidate is not the highest-revenue one")
    return out


def _exact_audit(mr, work: Workload, rng) -> Workload:
    for i in range(SUITE_SIZE):
        d1, d2 = _single_item(mr, rng), _single_item(mr, rng)
        menu = _supermodular_menu(mr, rng)

        def check(cert, done, d1=d1, d2=d2):
            out = _certificate_problems(cert, ref.product_atoms(d1, d2))
            a, b, c = cert.best.prices
            if c > a + b:
                out.append(f"output {cert.best.prices} is still supermodular")
            return out

        work.ops.append(Op(f"thm3.1/{i}", "certificates",
                           lambda m=menu, d1=d1, d2=d2: mr.submodularize2(m, d1, d2), check,
                           lambda cert: (cert.best.prices, cert.output_revenues)))
    for i in range(SUITE_SIZE):
        f = _single_item(mr, rng)
        menu = _submodular_menu(mr, rng, asymmetric=True)

        def check(cert, done, f=f):
            out = _certificate_problems(cert, ref.product_atoms(f, f))
            if cert.best.prices[0] != cert.best.prices[1]:
                out.append(f"output {cert.best.prices} is not symmetric")
            return out

        work.ops.append(Op(f"thm4.1/{i}", "certificates",
                           lambda m=menu, f=f: mr.symmetrize2(m, f), check,
                           lambda cert: (cert.best.prices, cert.output_revenues)))
    for i in range(SUITE_SIZE):
        dist = _correlated(mr, rng, rng.randint(1, 6), 20)
        menu = _supermodular_menu(mr, rng)

        def lemma5(m=menu, dist=dist):
            additive, bundle_only = mr.three_halves_decomposition(m)
            return (additive, bundle_only, mr.expected_revenue(additive, dist),
                    mr.expected_revenue(bundle_only, dist), mr.expected_revenue(m, dist))

        def check(res, done, m=menu, dist=dist):
            additive, bundle_only, r_add, r_bun, r_in = res
            a, b, c = m.prices
            out = []
            if additive.prices != (a, b, a + b) or set(bundle_only.prices) != {2 * c - a - b}:
                out.append(f"decomposition {additive.prices}, {bundle_only.prices} of {m.prices}")
            want = [ref.menu_revenue(x, dist.atoms) for x in (additive, bundle_only, m)]
            if [r_add, r_bun, r_in] != want:
                out.append(f"revenues {[r_add, r_bun, r_in]} != {want}")
            if want[0] + want[1] / 2 < want[2]:
                out.append(f"additive + half bundle-only {want[0] + want[1] / 2} < {want[2]}")
            return out

        work.ops.append(Op(f"lemma5/{i}", "certificates", lemma5, check,
                           lambda res: (res[2], res[3], res[4])))

    audited = []
    while len(audited) < AUDITED_MENUS:
        menu = _submodular_menu(mr, rng)
        grid = mr.monotonicity_grid(menu)
        if len(set(grid)) == AUDIT_GRID_POINTS:
            audited.append((menu, grid, None))
    witness = mr.menu2(5, 1, 10)
    witness_grid = mr.monotonicity_grid(witness)
    audited.append((witness, witness_grid, _lazy(
        lambda: ref.monotonicity_violations(witness.as_dict(), witness_grid))))
    for i, (menu, grid, expected) in enumerate(audited):
        def check_audit(report, done, expected=expected):
            found = {(v.low, v.high, v.revenue_low, v.revenue_high) for v in report.violations}
            if expected is None:
                return [] if report.ok else [f"{len(found)} violations on a submodular menu"]
            expected = expected()
            out = []
            if found != set(expected) or len(report.violations) != len(expected):
                out.append(f"{len(report.violations)} violations reported, {len(expected)} recounted")
            if ((Fraction(5), Fraction(0)), (Fraction(5), Fraction(9, 2)), 5, 1) not in found:
                out.append("the (5,0) -> (5,9/2) witness is missing")
            return out

        def check_regions(part, done, menu=menu, grid=grid):
            disagree, region_of = part
            table = menu.as_dict()
            wrong = [v for v in grid if region_of(v) != ref.choice(table, v)[0]]
            if disagree or wrong:
                return [f"{len(disagree)} points disagree with the buyer, "
                        f"{len(wrong)} with the reference choice"]
            return []

        label = "witness" if expected is not None else str(i)

        def regions(menu=menu, grid=grid):
            part = mr.region_partition_2(menu)
            return mr.regions.verify_against_buyer(part, grid), part.region_of

        work.ops.append(Op(f"audit/{label}", "audits",
                           lambda menu=menu, grid=grid: mr.check_monotone(menu, grid),
                           check_audit, lambda rep: len(rep.violations)))
        work.ops.append(Op(f"regions/{label}", "regions", regions, check_regions,
                           lambda part: len(part[0])))
    work.details = {"certificates": Detail("certificates_per_s", "1/s", per=1),
                    "audits": Detail("audits_per_s", "1/s", per=1)}
    return work


# ---------------------------------------------------------------------------
# lottery-lp
# ---------------------------------------------------------------------------

def _lp_problems(outcome, dist) -> List[str]:
    types = [v for v, _ in dist.atoms]
    mech = outcome.mechanism
    out = ref.ic_ir_violations(types, mech.allocations, mech.payments)[:3]
    paid = sum((p * pay for (_, p), pay in zip(dist.atoms, mech.payments)), Fraction(0))
    if paid != outcome.revenue:
        out.append(f"reported revenue {outcome.revenue} != expected payment {paid}")
    return out


def _lottery_lp(mr, work: Workload, rng) -> Workload:
    instances = importlib.import_module("menurev.instances")
    dist7 = instances.load_distribution("example7_distribution")
    menu7 = instances.load_randomized_menu("example7_menu")
    menu_payment = _lazy(lambda: ref.lottery_payment(menu7.entries, dist7.atoms))

    def check7(outcome, done):
        out = _lp_problems(outcome, dist7)
        if not outcome.certified or outcome.method != "float-guided-exact":
            out.append(f"not certified on the float-guided path ({outcome.method})")
        if outcome.revenue != menu_payment():
            out.append(f"LP revenue {outcome.revenue} != bundled menu's payment {menu_payment()}")
        return out

    work.ops.append(Op("lp/example7", "lp_example7", lambda: mr.lp_optimal(dist7), check7,
                       lambda o: o.revenue))
    for i in range(SMALL_LPS):
        dist = _correlated(mr, rng, 3 + i % 3, 8)
        for method in ("exact-simplex", "float-guided-exact"):
            def check(outcome, done, dist=dist, i=i, method=method):
                out = _lp_problems(outcome, dist)
                first = done.get(f"lp/small{i}/exact-simplex")
                if method != "exact-simplex" and first is not None \
                        and first.revenue != outcome.revenue:
                    out.append(f"paths disagree: {first.revenue} != {outcome.revenue}")
                return out

            work.ops.append(Op(f"lp/small{i}/{method}", "small_lps",
                               lambda dist=dist, method=method: mr.lp_optimal(dist, method),
                               check, lambda o: o.revenue))
    for k in (2, 3):
        def check_dev(res, done, k=k):
            best = ref.best_multipick_utility(menu7.entries, DEVIATION_POINT, k)
            truthful = ref.lottery_utility(menu7.entries, DEVIATION_POINT)
            picks, u = res
            out = []
            if u != best:
                out.append(f"best deviation {u} != brute force {best}")
            if not u > truthful or truthful != TRUTHFUL_UTILITY:
                out.append(f"deviation {u} does not beat truthful utility {truthful}")
            return out

        work.ops.append(Op(f"deviation/k{k}", "deviation",
                           lambda k=k: mr.best_false_name_deviation(
                               menu7, DEVIATION_POINT, "independent", k),
                           check_dev, lambda res: res))
    work.details = {"lp_example7": Detail("lp_example7_s", "s"),
                    "small_lps": Detail("small_lps_per_s", "1/s", per=2)}
    return work

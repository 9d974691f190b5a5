"""Tests of the benchmark itself: its checks catch small wrong answers, its
references agree with the paper's stated values, its tracer restores
what it wraps, and its speed sampler scales times by the speed it measures.

    python3 -m pytest benchmark/test_benchmark.py -q
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import menurev  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OFF = Fraction(1, 1000)


def _ops(name, seed, *labels):
    work = workloads.build(menurev, name, seed)
    work.ops = [op for op in work.ops if op.label in labels]
    assert len(work.ops) == len(labels)
    return work


def _failures(work):
    failures = []
    run.run_round(work, 0, None, {}, failures)
    return failures


def test_untouched_operations_pass():
    work = _ops("grid-search", 3, "gap/example5_eps100", "gap/example6_eps10", "gap/seeded0")
    assert _failures(work) == []


def test_revenue_off_by_a_thousandth_fails_a_gap_report(monkeypatch):
    real = menurev.gap_report

    def skewed(dist, grid):
        rep = real(dist, grid)
        drev = rep.results["drev"]
        rep.results["drev"] = dataclasses.replace(drev, revenue=drev.revenue + OFF)
        return rep

    monkeypatch.setattr(menurev, "gap_report", skewed)
    failures = _failures(_ops("grid-search", 3, "gap/example6_eps10"))
    assert [label for _, label, _ in failures] == ["gap/example6_eps10"]


def test_certificate_off_by_a_thousandth_fails(monkeypatch):
    real = menurev.submodularize2

    def skewed(m, d1, d2):
        cert = real(m, d1, d2)
        return dataclasses.replace(cert, input_revenue=cert.input_revenue - OFF)

    monkeypatch.setattr(menurev, "submodularize2", skewed)
    failures = _failures(_ops("exact-audit", 5, "thm3.1/0", "thm3.1/1"))
    assert [label for _, label, _ in failures] == ["thm3.1/0", "thm3.1/1"]


def test_lp_off_by_a_thousandth_fails(monkeypatch):
    real = menurev.lp_optimal

    def skewed(dist, method="auto"):
        out = real(dist, method)
        return dataclasses.replace(out, revenue=out.revenue + OFF) if method == "exact-simplex" \
            else out

    monkeypatch.setattr(menurev, "lp_optimal", skewed)
    work = _ops("lottery-lp", 2, "lp/small0/exact-simplex", "lp/small0/float-guided-exact")
    assert [label for _, label, _ in _failures(work)] == ["lp/small0/exact-simplex"]


def test_shifted_discretization_atom_fails(monkeypatch):
    real = menurev.er_discretize

    def skewed(r, params):
        d = real(r, params)
        (v, p), rest = d.atoms[0], d.atoms[1:]
        return menurev.SingleItemDistribution(((v + Fraction(1, 1 << 20), p),) + rest)

    monkeypatch.setattr(menurev, "er_discretize", skewed)
    work = workloads.build(menurev, "er-gap", 1)
    work.ops = [op for op in work.ops if op.group == "discretize"][:1]
    assert len(_failures(work)) == 1


def test_missed_monotonicity_witness_fails(monkeypatch):
    real = menurev.check_monotone

    def skewed(m, grid):
        rep = real(m, grid)
        return dataclasses.replace(rep, violations=rep.violations[1:])

    monkeypatch.setattr(menurev, "check_monotone", skewed)
    assert len(_failures(_ops("exact-audit", 1, "audit/witness"))) == 1


def test_references_match_stated_values():
    w = ref.w_constant()
    assert abs((w - 1) * math.exp(w) - 1) < 1e-14
    assert 1.2784 < w < 1.2785
    # ties go to the higher payment: at (1, 1) every option of (1, 1, 2) leaves utility 0
    assert ref.choice({(1,): Fraction(1), (2,): Fraction(1), (1, 2): Fraction(2)},
                      (Fraction(1), Fraction(1))) == ((1, 2), 2)
    from menurev.instances import load_distribution

    dist = load_distribution("example5_eps100")
    assert ref.menu_revenue(menurev.menu2(4, 4, 8), dist.atoms) == Fraction(408, 100)
    assert ref.menu_revenue(menurev.menu2(4, 4, 100), dist.atoms) == Fraction(592, 100)
    grid = menurev.candidate_grid(dist, "support-sums")
    assert ref.brute_force_optimum(dist.atoms, 2, grid.prices, "submodular") == Fraction(408, 100)


def _sampler(samples):
    """A python-task sampler holding (start, task seconds) samples taken 1 s apart."""
    sampler = speed.SpeedSampler("python")
    for t0, seconds in samples:
        sampler.starts.append(t0)
        sampler.seconds.append(seconds)
        sampler.weights.append(1.0)
        sampler.spent_until.append((sampler.spent_until or [0.0])[-1] + seconds)
    return sampler


def test_scaled_time_follows_the_measured_speed():
    ref_s = speed.TASKS["python"][1]
    # the machine runs at half speed from t = 10 on
    sampler = _sampler([(t, ref_s if t < 10 else 2 * ref_s) for t in range(20)])
    fast = sampler.scaled(0.5, 8.5)  # 8 samples inside, at full speed
    slow = sampler.scaled(10.5, 18.5)  # 8 samples inside, at half speed
    assert fast == pytest.approx(8 - 8 * ref_s)
    assert slow == pytest.approx((8 - 16 * ref_s) / 2)
    # an interval with fewer than MIN_SAMPLES = 5 samples borrows the nearest
    # ones: here those at 8 and 9 (full speed) and 10, 11 and 12 (half speed)
    assert speed.MIN_SAMPLES == 5
    assert sampler.speed(15.2, 15.3) == pytest.approx(0.5)
    assert sampler.speed(9.9, 10.1) == pytest.approx((2 * 1 + 3 * 0.5) / 5)


@pytest.mark.parametrize("kind", sorted(speed.TASKS))
def test_sampler_samples_while_started_and_restores_the_signal(kind):
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler(kind)
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 4 * speed.INTERVAL_S:
        speed.python_task()
    t1 = time.perf_counter()
    sampler.stop()
    assert len(sampler.starts) >= 3 and sampler.speed(t0, t1) > 0
    assert 0 < sampler.scaled(t0, t1) and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) in (before, signal.SIG_DFL)


def test_tracer_records_layers_and_restores_functions(tmp_path):
    from menurev.instances import load_distribution

    originals = (menurev.search_optimal, menurev.search.search_optimal,
                 menurev.buyer.revenue_at, menurev.lp.linprog)
    dist = load_distribution("example6_eps10")
    grid = menurev.candidate_grid(dist, "support-sums")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = [0, 0]
        rep = menurev.gap_report(dist, grid)
    finally:
        tracer.uninstall()
    assert (menurev.search_optimal, menurev.search.search_optimal,
            menurev.buyer.revenue_at, menurev.lp.linprog) == originals
    path = tmp_path / "trace.json"
    tracer.write(path, 1, tracer.overhead(1))
    metrics = {k: v["value"] for k, v in tracing.layer_metrics(path).items()}
    assert metrics["search.calls"] == 5
    assert metrics["search.menus"] == sum(r.examined for r in rep.results.values())
    assert metrics["search.grid_menus"] == 5 * math.prod(len(ps) for ps in grid.prices)
    assert metrics["search.rescored"] == 0
    assert metrics["buyer.revenue_calls"] == 5
    assert metrics["buyer.revenue_types"] == 5 * len(dist.atoms)
    assert metrics["lp.rows"] == 0 and metrics["trace.overhead_s"] > 0
    assert set(metrics) == set(tracing.LAYER_METRICS)


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "lottery-lp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "exact-audit",
                           "--seed", "4", "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    context = json.loads(lines[-2])["context"]
    assert context["seed"] == 4 and context["workload"] == "exact-audit"
    work = workloads.build(menurev, "exact-audit", 4)
    assert context["rounds"] == work.min_rounds
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(work.ops) * work.min_rounds
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in result["metrics"].values()) or trace

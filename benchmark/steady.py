"""Steadiness check: run a workload repeatedly and report each metric's spread.

    python3 benchmark/steady.py --workload lottery-lp --runs 10 [--sets 2] [--trace 0]

Each run uses its own seed (the first set takes seeds 1..runs, the second
the next `runs`). For every metric the command prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread,
the distance between the quartiles as a share of the median. With
`--trace 0` the end-to-end metrics are also held against BENCHMARK.json:
a spread is steady when it is below a third of the metric's bound, and
with two sets the second median may be worse than the first by at most
the bound (set-up time is held only to the second rule). The share of
failed operations must be the same in every run. The summary is written
to .bench_build/benchmark/steady-<workload>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build" / "benchmark"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    result["detail"] = info["detail"]
    result["context"] = info["context"]
    result["elapsed_s"] = elapsed
    return result


def describe(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    for k in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            runs.append(run_once(args.workload, seed, spec["run_seconds"], args.trace))
            print(f"set {k + 1} seed {seed}: run took {runs[-1]['elapsed_s']:.1f} s; " + json.dumps(
                {name: round(m["value"], 4) for name, m in runs[-1]["metrics"].items()
                 if name in bounds}), flush=True)
        sets.append(runs)

    ok = True
    summary = {"workload": args.workload, "trace": args.trace, "sets": [],
               "run_elapsed_s": [r["elapsed_s"] for runs in sets for r in runs]}
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
        ok = False
        print(f"failed shares differ or a run was not correct: {sorted(shares)}")
    for k, runs in enumerate(sets):
        table = {}
        for name in runs[0]["metrics"]:
            table[name] = describe([r["metrics"][name]["value"] for r in runs])
        for name in runs[0]["detail"]:
            table[name] = describe([r["detail"][name]["value"] for r in runs])
        summary["sets"].append(table)
        print(f"\nset {k + 1} ({len(runs)} runs, failed share {sorted(shares)})")
        print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  verdict")
        for name, d in table.items():
            verdict = ""
            if name in bounds and name != "setup_s":
                steady = d["spread"] < bounds[name]["bound"] / 3
                verdict = "steady" if steady else f"SPREAD > bound/3 ({bounds[name]['bound']})"
                ok = ok and steady
            print(f"{name:28} {d['median']:14.6g} {d['q1']:14.6g} {d['q3']:14.6g} "
                  f"{d['spread']:8.4f}  {verdict}")
    if len(sets) == 2:
        print("\nsecond set against the first")
        for name, m in bounds.items():
            if name not in summary["sets"][0]:
                continue
            a, b = summary["sets"][0][name]["median"], summary["sets"][1][name]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            within = worse <= m["bound"]
            ok = ok and within
            print(f"{name:28} {a:14.6g} -> {b:14.6g}  worse by {worse:+.4f} "
                  f"(bound {m['bound']}) {'ok' if within else 'REGRESSION'}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"steady-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; summary in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

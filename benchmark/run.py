"""Run one benchmark workload against the menurev sources of this checkout.

    python3 benchmark/run.py --workload grid-search --seed 1 --seconds 10 --trace 0

A run builds the workload's inputs from the seed, then runs whole rounds of
the same operations until `--seconds` have passed and the workload's
minimum number of rounds is done, checking every operation's output. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The line before it
holds the run's context (machine, library versions, seed, rounds) and the
workload-specific figures.

Times are per pass over the operations, each operation counted at its
median over the run's rounds, in seconds at the reference machine speed of
`speed.py`: the host's speed is sampled all through the untraced run, with
the calibration task the workload names, and each operation's time is
scaled by the speed measured while it ran. The context line also gives the
unscaled `raw_wall_s` and the run's mean `speed`. `correct` is false when
an operation gave a different answer in a later round of the same run. An
operation that raises, or whose output fails its check, counts as failed
and is listed on standard error.
"""
from __future__ import annotations

import os

# one thread per run: pin BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "benchmark"
SETUP_SAMPLES = 3  # set-ups timed per run: this process plus fresh interpreters


def _die(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _child_setup_seconds(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, in seconds at the reference speed."""
    code = ("import speed, workloads; sampler = speed.SpeedSampler('python'); sampler.start(); "
            f"_, a, b = workloads.timed_setup({workload!r}, {seed}); sampler.stop(); "
            "print(sampler.scaled(a, b))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH_DIR), str(SRC)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        _die(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _context(args, rounds: int) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "cores": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_round(work, index: int, tracer, verdicts: dict, failures: list):
    """Run every operation once; returns (the `time.perf_counter()` interval
    of each operation, consistent).

    The first round checks every output. In a later round an output whose
    exact answer (`op.summary`) equals the first round's keeps that verdict;
    one that differs is checked again and makes the run inconsistent.
    """
    done = {}
    intervals = []
    consistent = True
    for i, op in enumerate(work.ops):
        if tracer is not None:
            tracer.op = [index, i]
        t0 = time.perf_counter()
        try:
            result = op.call()
            raised = None
        except Exception as exc:  # a raising operation is a failed operation
            raised = [f"raised {type(exc).__name__}: {exc}"]
        intervals.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.op = None
        if raised:
            failures.append((index, op.label, raised))
            continue
        try:
            summary = op.summary(result)
            first = verdicts.get(op.label)
            if first is not None and first[0] == summary:
                problems = first[1]
            else:
                if first is not None:
                    consistent = False
                    print(f"round {index} {op.label}: answer differs from the first round",
                          file=sys.stderr)
                problems = op.check(result, done)
                verdicts.setdefault(op.label, (summary, problems))
        except Exception as exc:  # so is one whose output the check cannot read
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append((index, op.label, problems))
            continue
        done[op.label] = result
    return intervals, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "menurev" / "__init__.py").is_file():
        _die(f"no menurev sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")

    tracer = sampler = None
    if args.trace:
        import menurev
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op = "setup"
        work = workloads.build(menurev, args.workload, args.seed)
        tracer.op = None
    else:
        import speed
        setup_sampler = speed.SpeedSampler("python")
        setup_sampler.start()
        work, setup_start, setup_end = workloads.timed_setup(args.workload, args.seed)
        setup_sampler.stop()
        sampler = speed.SpeedSampler(work.calibration)
        sampler.start()
    import menurev
    if Path(menurev.__file__).resolve().parent != SRC / "menurev":
        _die(f"menurev was imported from {menurev.__file__}, not from {SRC}")

    failures: list = []
    verdicts: dict = {}
    rounds = []
    correct = True
    start = time.perf_counter()
    while len(rounds) < work.min_rounds or time.perf_counter() - start < args.seconds:
        intervals, consistent = run_round(work, len(rounds), tracer, verdicts, failures)
        rounds.append(intervals)
        correct = correct and consistent
    end = time.perf_counter()
    raw = [[b - a for a, b in r] for r in rounds]
    if sampler is not None:
        sampler.stop()
        times = [[sampler.scaled(a, b) for a, b in r] for r in rounds]
        setup = [setup_sampler.scaled(setup_start, setup_end)]
        setup += [_child_setup_seconds(args.workload, args.seed)
                  for _ in range(SETUP_SAMPLES - 1)]
    else:
        times = raw

    for index, label, problems in failures[:20]:
        print(f"FAIL round {index} {label}: {'; '.join(problems)}", file=sys.stderr)
    failed = len(failures)
    attempted = len(work.ops) * len(rounds)

    def per_op(round_times):  # each operation at its median over the run's rounds
        return [statistics.median(r[i] for r in round_times) for i in range(len(work.ops))]

    typical = per_op(times)
    details = {"wall_s": {"value": sum(typical), "unit": "s"},  # traced runs report it too
               "raw_wall_s": {"value": sum(per_op(raw)), "unit": "s"}}
    if sampler is not None:
        details["speed"] = {"value": sampler.speed(start, end), "unit": "1"}
    for group, detail in work.details.items():
        idx = [i for i, op in enumerate(work.ops) if op.group == group]
        value = sum(typical[i] for i in idx)
        if detail.per:
            value = len(idx) / detail.per / value
        details[detail.name] = {"value": value, "unit": detail.unit}

    if tracer is not None:
        tracer.uninstall()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path, len(rounds), tracer.overhead(len(rounds)))
        metrics = tracing.layer_metrics(path)
    else:
        metrics = {
            "wall_s": {"value": sum(typical), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
    print(json.dumps({"context": _context(args, len(rounds)), "detail": details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

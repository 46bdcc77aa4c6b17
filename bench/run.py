#!/usr/bin/env python3
"""Benchmark of fftcell, measured from outside through its public API.

    python3 bench/run.py --workload checkerboard-2d --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; fftcell is imported from its
``src`` directory and from nowhere else.  One run prepares the workload's
inputs from the seed (untimed), warms up, then repeats rounds of
``setups_per_round`` timed set-ups and one timed homogenization while the
next round is projected to end within ``--seconds``.  Every homogenization
is checked by ``check.py``.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  The full record, with every
sample and, when traced, the spans, is written to ``bench/out/``.
"""

import os
import sys
from pathlib import Path

# One thread per process, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
MIN_ROUNDS = 2

# The imports below need the checkout's fftcell; refuse to run without it.
if not (SRC / "fftcell" / "__init__.py").is_file():
    sys.exit(f"bench: no fftcell sources under {SRC}")
sys.path[:0] = [str(SRC), str(BENCH)]

import argparse
import json
import platform
import resource
import shutil
import statistics
import tempfile
from time import perf_counter

import numpy as np

import fftcell
from fftcell import SolverConfig, effective_tensor, load_voxel
from layers import (
    Tracer,
    duration,
    isolated_layers,
    median_s,
    peak_mb,
    retained_mb,
    single_solve,
    traced_homogenization,
    wrapper_cost_s,
)
from workloads import WORKLOADS, check_setup, prepare

if Path(fftcell.__file__).resolve().parent != (SRC / "fftcell").resolve():
    sys.exit(f"bench: imported fftcell from {fftcell.__file__}, not from {SRC}")


class Rounds:
    """Homogenizations attempted and failed, with the reasons."""

    def __init__(self, prepared):
        self.prepared = prepared
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.check_stats = []

    def homogenize(self, run):
        """Time ``run(field) -> (tensor, extra)`` and check the tensor;
        return ``(seconds, tensor, extra)``, or ``None`` if it raised or
        failed its check."""
        self.attempted += 1
        try:
            t0 = perf_counter()
            eff, extra = run(self.prepared.field)
            seconds = perf_counter() - t0
        except Exception as exc:  # a failed homogenization is counted, not fatal
            self.failed += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        failures, stats = self.prepared.checker.check(
            [r.solution.values for r in eff.per_case_reports], eff.matrix
        )
        self.check_stats.append(stats)
        if failures:
            self.failed += 1
            self.failures.extend(failures)
            return None
        return seconds, eff, extra


def plain_homogenization(prepared):
    return lambda field: (effective_tensor(field, prepared.cfg), None)


def timed_setups(prepared, count, times):
    """Time ``count`` set-ups; keep and check the last field."""
    for _ in range(count):
        t0 = perf_counter()
        field = prepared.setup()
        times.append(perf_counter() - t0)
    prepared.field = field
    return check_setup(field, prepared.checker)


def warm_up(prepared, w):
    """One untimed set-up and a two-iteration solve, so that one-time costs
    (FFT plans, first allocations) stay out of the timed rounds."""
    errors = timed_setups(prepared, 1, [])
    single_solve(prepared.field, SolverConfig(method=w.method, tol=w.tol, max_iter=2))
    return errors


def end_to_end(prepared, w, seconds):
    setup_errors = warm_up(prepared, w)
    rounds = Rounds(prepared)
    setup_times, solve_times, iterations = [], [], []
    start = perf_counter()
    while rounds.attempted < MIN_ROUNDS or (
        (perf_counter() - start) * (rounds.attempted + 1) / rounds.attempted <= seconds
    ):
        setup_errors += timed_setups(prepared, w.setups_per_round, setup_times)
        done = rounds.homogenize(plain_homogenization(prepared))
        if done:
            solve_times.append(done[0])
            iterations.append(sum(r.iterations for r in done[1].per_case_reports))
    if not solve_times:
        sys.exit("bench: every homogenization failed: " + "; ".join(rounds.failures[:3]))
    setup_s = statistics.median(setup_times)
    solve_s = statistics.median(solve_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "total_s": (setup_s + solve_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "iterations": (statistics.median(iterations), "count"),
    }
    samples = {"setup_s": setup_times, "solve_s": solve_times, "iterations": iterations}
    return rounds, setup_errors, metrics, samples, None


def per_layer(prepared, w, seconds):
    start = perf_counter()
    setup_errors = warm_up(prepared, w)
    tracer = Tracer()
    setup_layer = "material.load_voxel" if w.name == "spheres-3d" else "families.sample"
    setup_times = []
    for _ in range(max(w.setups_per_round, 3)):
        with tracer.span(setup_layer) as s:
            prepared.setup()
        setup_times.append(duration(s))
    metrics = {f"{setup_layer}_s": (statistics.median(setup_times), "s")}

    # The set-up layer that the workload does not use, timed in isolation.
    if w.name == "spheres-3d":
        with tracer.span("families.sample") as s:
            other = prepared.family.sample(prepared.spec)
        metrics["families.sample_s"] = (duration(s), "s")
    else:
        with tracer.span("material.load_voxel"):
            metrics["material.load_voxel_s"] = (median_s(lambda: load_voxel(prepared.voxel_path)), "s")
        other = load_voxel(prepared.voxel_path)
    setup_errors += check_setup(other, prepared.checker)
    del other

    metrics["material.field_mb"] = (retained_mb(prepared.setup), "MB")
    for name, value in isolated_layers(prepared.field, np.random.default_rng(prepared.seed)).items():
        metrics[name] = (value, "ms")
    metrics["solver.alloc_peak_mb"] = (
        peak_mb(lambda: single_solve(prepared.field, prepared.cfg)), "MB"
    )

    # Alternate untraced and traced homogenizations: the traced ones give the
    # layer breakdown.  The differences within pairs are kept, but they are
    # host noise (several % of a homogenization), far above what the wrappers
    # cost; the overhead metric is the calibrated cost per wrapped call times
    # the wrapped calls of one homogenization.
    rounds = Rounds(prepared)
    plain, traced = [], []
    budget = seconds - (perf_counter() - start)
    pairs_start = perf_counter()
    while not traced or (perf_counter() - pairs_start) * (len(traced) + 1) / len(traced) <= budget:
        if not traced and rounds.failed >= 2 * MIN_ROUNDS:
            sys.exit("bench: every homogenization failed: " + "; ".join(rounds.failures[:3]))
        a = rounds.homogenize(plain_homogenization(prepared))
        b = rounds.homogenize(lambda field: traced_homogenization(tracer, field, prepared.cfg))
        if a and b:
            plain.append(a[0])
            traced.append(b[2])
    # The breakdown of one homogenization, the median one, so that its parts
    # add up exactly.
    median = sorted(traced, key=lambda t: t["homogenize_s"])[(len(traced) - 1) // 2]
    metrics.update({
        "solver.solve_s": (median["solve_s"], "s"),
        "solver.iterations": (median["iterations"], "count"),
        "solver.iter_ms": (1e3 * median["solve_s"] / median["iterations"], "ms"),
        "solver.fft_calls": (median["fft_calls"], "count"),
        "solver.fft_mpoints": (median["fft_points"] / 1e6, "Mpt"),
        "solver.fft_s": (median["fft_s"], "s"),
        "solver.einsum_calls": (median["einsum_calls"], "count"),
        "solver.einsum_s": (median["einsum_s"], "s"),
        "solver.other_s": (median["other_s"], "s"),
        "homogenize.assemble_s": (median["assemble_s"], "s"),
        "trace.overhead_s": (
            wrapper_cost_s() * (median["fft_calls"] + median["einsum_calls"]), "s"
        ),
    })
    samples = {
        "setup_s": setup_times,
        "untraced_s": plain,
        "traced": traced,
        "paired_overhead_s": statistics.median(
            t["homogenize_s"] - p for t, p in zip(traced, plain)
        ),
    }
    return rounds, setup_errors, metrics, samples, tracer.spans


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        prepared = prepare(w, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        rounds, setup_errors, metrics, samples, spans = measure(prepared, w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = {
        "correct": not setup_errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    host = {"machine": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}
    record = dict(line, workload=w.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=host, input=prepared.description,
                  setup_errors=setup_errors, failures=rounds.failures,
                  checks=rounds.check_stats, samples=samples, spans=spans)
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))


if __name__ == "__main__":
    main()

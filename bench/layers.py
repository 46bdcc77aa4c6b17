"""Per-layer measurements: spans around calls into fftcell's modules, numpy
FFT and einsum counters inside solve spans, and isolated micro-timings of
public functions at the workload's grid.

Spans are recorded from the benchmark only: ``fftcell.homogenize.solve`` is
wrapped for the duration of a traced homogenization, and the ``numpy.fft``
and ``numpy.einsum`` attributes are wrapped for the duration of each solve
span.  fftcell's own files are not touched.
"""

from __future__ import annotations

import statistics
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import fftcell.homogenize
from fftcell import (
    GridField,
    LoadCase,
    ReferenceTensor,
    apply_A,
    apply_G0,
    dft_forward,
    dft_inverse,
    effective_tensor,
    l2_inner,
    solve_cg,
    solve_neumann,
)
from fftcell.solver import apply_system

FFT_NAMES = [n for n in np.fft.__all__ if "freq" not in n and "shift" not in n]
MB = 1e6


class Tracer:
    """Spans kept in memory: name, start, end, parent id and counters."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()


def duration(span):
    return span["end"] - span["start"]


def counted(counts, kind, fn):
    """``fn`` wrapped to add its calls, seconds and, for FFTs, the points
    transformed to ``counts``."""

    def wrapped(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        counts[kind + "_s"] += perf_counter() - t0
        counts[kind + "_calls"] += 1
        if kind == "fft":
            counts["fft_points"] += max(np.size(args[0]), out.size)
        return out

    return wrapped


def new_counts():
    return dict.fromkeys(("fft_calls", "fft_s", "fft_points", "einsum_calls", "einsum_s"), 0)


@contextmanager
def numpy_counters(counts):
    """Wrap numpy's FFT functions and einsum with ``counted``, adding to
    ``counts``; the originals come back on exit."""
    counts.update(new_counts())
    originals = {name: getattr(np.fft, name) for name in FFT_NAMES}
    einsum = np.einsum
    try:
        for name, fn in originals.items():
            setattr(np.fft, name, counted(counts, "fft", fn))
        np.einsum = counted(counts, "einsum", einsum)
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(np.fft, name, fn)
        np.einsum = einsum


def wrapper_cost_s(calls=20000, repeats=7):
    """Seconds that ``counted`` adds to one call: a wrapped and a plain
    trivial function, timed alternately, median of the differences."""
    x = np.zeros(3)

    def plain(a):
        return a

    wrapped = counted(new_counts(), "fft", plain)

    def loop(fn):
        t0 = perf_counter()
        for _ in range(calls):
            fn(x)
        return perf_counter() - t0

    return statistics.median(loop(wrapped) - loop(plain) for _ in range(repeats)) / calls


def traced_homogenization(tracer, field, cfg):
    """``effective_tensor`` inside a span, each solver call inside a child
    span carrying the numpy counters.  Returns the tensor and a breakdown."""
    inner = fftcell.homogenize.solve

    def solve(*args, **kwargs):
        with tracer.span("solver.solve") as s, numpy_counters(s["counts"]):
            return inner(*args, **kwargs)

    fftcell.homogenize.solve = solve
    try:
        with tracer.span("homogenize.effective_tensor") as top:
            eff = effective_tensor(field, cfg)
    finally:
        fftcell.homogenize.solve = inner
    solves = [s for s in tracer.spans if s["parent"] == top["id"]]
    if not solves or not all(s["counts"]["fft_calls"] for s in solves):
        raise RuntimeError(
            "no solver call or FFT was seen inside effective_tensor; the "
            "benchmark's spans no longer match fftcell's call structure"
        )
    total = {k: sum(s["counts"][k] for s in solves) for k in solves[0]["counts"]}
    solve_s = sum(duration(s) for s in solves)
    breakdown = {
        "homogenize_s": duration(top),
        "solve_s": solve_s,
        "fft_s": total["fft_s"],
        "einsum_s": total["einsum_s"],
        "other_s": solve_s - total["fft_s"] - total["einsum_s"],
        "assemble_s": duration(top) - solve_s,
        "fft_calls": total["fft_calls"],
        "fft_points": total["fft_points"],
        "einsum_calls": total["einsum_calls"],
        "iterations": sum(r.iterations for r in eff.per_case_reports),
    }
    return eff, breakdown


def median_s(fn, budget_s=0.3, min_reps=5):
    """Median wall time of ``fn()`` in seconds, repeated for ``budget_s``."""
    fn()
    times = []
    start = perf_counter()
    while len(times) < min_reps or perf_counter() - start < budget_s:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def retained_mb(build):
    """Bytes that the object returned by ``build()`` keeps alive, in MB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del obj
    return (after - before) / MB


def peak_mb(run):
    """Peak bytes allocated above the starting level while ``run()`` runs."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / MB


def isolated_layers(field, rng):
    """Micro-timings of public functions at the workload's grid."""
    spec = field.spec
    u = GridField(spec, rng.standard_normal((spec.dim,) + spec.shape))
    v = GridField(spec, rng.standard_normal((spec.dim,) + spec.shape))
    ref = ReferenceTensor.scalar(1.0, spec.dim)
    calls = {
        "material.apply_A_ms": lambda: apply_A(field, u),
        "transforms.dft_roundtrip_ms": lambda: dft_inverse(dft_forward(u)),
        "transforms.l2_inner_ms": lambda: l2_inner(u, v),
        "green.apply_G0_ms": lambda: apply_G0(u, ref),
        "solver.apply_system_ms": lambda: apply_system(field, u),
    }
    return {name: 1e3 * median_s(fn) for name, fn in calls.items()}


def single_solve(field, cfg):
    """One unit load case through the public solver function of ``cfg``."""
    load = LoadCase(tuple(np.eye(field.spec.dim)[0]))
    solver = solve_cg if cfg.method == "cg" else solve_neumann
    return solver(field, load, cfg)


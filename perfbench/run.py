"""Benchmark of cmvkit's verification workloads.

    python3 perfbench/run.py --workload site-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a cmvkit checkout; the library is imported from its
``src`` directory.  One process drives a closed loop: each case starts
when the previous one has returned, and BLAS runs on one thread.

``--trace 0`` measures end to end and prints cases_per_s, case_p50_ms,
case_p90_ms, setup_s and peak_rss_mb.  Every time in them is scaled by
a reference kernel timed right beside it (see reference.py), so that
they follow the program rather than the speed of a shared host.  ``--trace 1`` alternates untraced
and traced cycles and prints per-layer calls, total and self seconds per
cycle, with the ratios listed in perfbench/README.md.  The last line of
standard output is one JSON object; the lines before it, each starting
with ``#``, record the machine and the figures that are not metrics.
"""

from __future__ import annotations

import os

# must precede the first numpy import, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("site-sweep", "overlap-operator", "hessenberg-long", "campaign-mix")
SETUP_REPEATS = 5
SETUP_REFERENCE_CALLS = 5
TIMED_STREAM, WARMUP_STREAM, BASELINE_STREAM = 0, 1, 2
MAX_REPORTED_FAILURES = 5


def _import_library():
    """Import cmvkit from this checkout's src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "cmvkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no cmvkit sources under {src}")
    sys.path.insert(0, str(src))
    import cmvkit
    if Path(cmvkit.__file__).resolve().parent != (src / "cmvkit").resolve():
        raise SystemExit(f"error: imported cmvkit from {cmvkit.__file__}, not {src}")
    import workloads
    return workloads


def _openblas():
    """The loaded OpenBLAS library, or None when numpy uses another BLAS."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        if path.startswith("/"):
            return ctypes.CDLL(path)
    return None


def _blas_symbol(lib, suffix: str):
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", ""):
            fn = getattr(lib, prefix + suffix + tail, None)
            if fn is not None:
                return fn
    return None


def machine_record(args) -> dict:
    import numpy as np

    lib = _openblas()
    threads = version = None
    if lib is not None:
        get_threads = _blas_symbol(lib, "get_num_threads")
        get_config = _blas_symbol(lib, "get_config")
        if get_threads is not None:
            threads = int(get_threads())
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            version = get_config().decode()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "openblas": version, "blas_threads": threads,
    }


def setup(name: str, seed: int, workdir: Path):
    """Import, generate the warm-up inputs and run them; returns
    (workloads module, seconds taken, the same scaled by the reference
    kernel timed before and after)."""
    reference.warm_up()
    before = reference.median_seconds(SETUP_REFERENCE_CALLS)
    t0 = time.perf_counter()
    workloads = _import_library()
    make_cycle = workloads.WORKLOADS[name]
    warm = make_cycle(seed, WARMUP_STREAM, 0, workdir, shuffle=False)
    warm = warm[: workloads.WARMUP_CASES[name]]
    for case in warm:
        case.run()
    wall = time.perf_counter() - t0
    after = reference.median_seconds(SETUP_REFERENCE_CALLS)
    return workloads, wall, reference.scaled(wall, (before + after) / 2)


def child_setup_seconds(args) -> tuple[float, float]:
    """One set-up in a fresh interpreter: (wall, scaled) seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=os.getcwd(), capture_output=True, text=True,
                         timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return float(result["wall_s"]), float(result["setup_s"])


class Loop:
    """Runs cases one after another, timing and checking each.

    With ``scale`` set, the reference kernel runs after every case and
    ``latencies`` holds scaled times; ``raw_latencies`` always holds wall
    times."""

    def __init__(self, workloads, name, seed, workdir, tracer=None, scale=False):
        self.make_cycle = workloads.WORKLOADS[name]
        self.case_failed = workloads.CaseFailed
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.scale = scale
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.reference_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.worst_margin = 0.0

    def cycle(self, stream: int, index: int, traced: bool = False):
        """Generate one cycle, then run it; returns (cases, seconds spent in cases)."""
        cases = self.make_cycle(self.seed, stream, index, self.workdir)
        if traced:
            self.tracer.install()
        busy = 0.0
        try:
            for case in cases:
                if traced:
                    self.tracer.case_id = self.attempted
                busy += self.run_case(case)
        finally:
            if traced:
                self.tracer.uninstall()
        return cases, busy

    def run_case(self, case) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            margin = case.run()
        except Exception as exc:  # every failure is counted, none is skipped
            dt = time.perf_counter() - t0
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"case {self.attempted - 1} ({case.kind}) failed: {exc!r}", file=sys.stderr)
                if not isinstance(exc, self.case_failed):
                    traceback.print_exc(file=sys.stderr)
        else:
            dt = time.perf_counter() - t0
            self.worst_margin = max(self.worst_margin, margin)
        self.raw_latencies.append(dt)
        if self.scale:
            ref = reference.seconds()
            self.reference_s.append(ref)
            self.latencies.append(reference.scaled(dt, ref))
        else:
            self.latencies.append(dt)
        return dt


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(args, workloads, setup_samples, workdir):
    loop = Loop(workloads, args.workload, args.seed, workdir, scale=True)
    start = time.perf_counter()
    first_cycle, _ = loop.cycle(TIMED_STREAM, 0)
    index = 1
    while time.perf_counter() - start < args.seconds:
        loop.cycle(TIMED_STREAM, index)
        index += 1
    latencies = list(loop.latencies)
    raw = list(loop.raw_latencies)
    p50, _ = percentile(latencies, 50)
    p90, above = percentile(latencies, 90)
    if above < 10:
        print(f"warning: only {above} samples above the 90th percentile", file=sys.stderr)
    metrics = {
        "cases_per_s": (len(latencies) / sum(latencies), "1/s"),
        "case_p50_ms": (1e3 * p50, "ms"),
        "case_p90_ms": (1e3 * p90, "ms"),
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"cycles": index, "samples": len(latencies), "samples_above_p90": above,
             "setup_samples_s": [s for _, s in setup_samples],
             "unscaled": {"cases_per_s": len(raw) / sum(raw),
                          "case_p50_ms": 1e3 * percentile(raw, 50)[0],
                          "case_p90_ms": 1e3 * percentile(raw, 90)[0],
                          "setup_s": statistics.median(w for w, _ in setup_samples)},
             "reference_ms": {"p10": 1e3 * percentile(loop.reference_s, 10)[0],
                              "p50": 1e3 * percentile(loop.reference_s, 50)[0],
                              "p90": 1e3 * percentile(loop.reference_s, 90)[0]}}
    correct = True
    if args.workload == "campaign-mix":
        # reports must be byte-identical when the same configs run again
        before = [c.digest for c in first_cycle]
        for case in first_cycle:
            loop.run_case(case)
        repeated = before == [c.digest for c in first_cycle]
        notes["reports_repeat_identical"] = repeated
        notes["report_digest"] = hashlib.sha256(repr(before).encode()).hexdigest()
        correct = repeated
    notes.update(failed_frac=loop.failed / loop.attempted, worst_margin=loop.worst_margin)
    return metrics, notes, correct and loop.failed == 0, loop


def traced(args, workloads, workdir):
    import tracer as tracing

    tracer = tracing.Tracer()
    loop = Loop(workloads, args.workload, args.seed, workdir, tracer)
    plain_walls, traced_walls = [], []
    traced_cases = 0
    restored = True
    index = 0
    start = time.perf_counter()
    while index == 0 or time.perf_counter() - start < args.seconds:
        plain_walls.append(loop.cycle(BASELINE_STREAM, index)[1])
        cases, wall = loop.cycle(TIMED_STREAM, index, traced=True)
        traced_walls.append(wall)
        traced_cases += len(cases)
        restored = restored and tracing.is_restored()
        index += 1

    names, t0, t1, parent, _, nested = spans = tracer.arrays()
    metrics = {}
    totals = tracing.layer_totals(names, t0, t1, parent, nested)
    for name, (calls, total, own) in totals.items():
        metrics[f"{name}.calls"] = (calls / index, "count")
        metrics[f"{name}.total_s"] = (total / index, "s")
        metrics[f"{name}.self_s"] = (own / index, "s")
    steps = tracer.mobius_steps
    amplitudes_s = totals["spectral.first_return_amplitudes"][1]
    root = parent < 0
    metrics.update({
        "schur.mobius_step.useful_frac":
            (tracer.useful_mobius_steps / steps if steps else 0.0, "ratio"),
        "schur.alphas_validated_per_case": (tracer.alphas_validated / traced_cases, "count"),
        "linalg.is_unitary.calls_per_case":
            (totals["linalg.is_unitary"][0] / traced_cases, "count"),
        "spectral.crosscheck_ratio":
            (totals["spectral.resolvent_compression"][1] / amplitudes_s if amplitudes_s else 0.0,
             "ratio"),
        "verify.worst_margin": (loop.worst_margin, "ratio"),
        "trace.coverage_frac": (float((t1[root] - t0[root]).sum()) / sum(traced_walls), "ratio"),
        "trace.overhead_frac":
            (statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio"),
    })
    notes = {"cycles": index, "traced_cases": traced_cases, "spans": len(names),
             "mobius_steps": steps, "alphas_validated": tracer.alphas_validated,
             "wrappers_restored": restored, "failed_frac": loop.failed / loop.attempted,
             "spans_file": str(write_spans(args, spans))}
    return metrics, notes, loop.failed == 0 and restored, loop


def write_spans(args, spans) -> Path:
    import numpy as np

    names, t0, t1, parent, case, _ = spans
    out = Path.cwd() / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-{args.seed}.npz"
    np.savez_compressed(path, name=names.astype(str), start=t0, end=t1, parent=parent, case=case)
    return path.relative_to(Path.cwd())


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=Path.cwd()))
    try:
        workloads, setup_wall, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"wall_s": setup_wall, "setup_s": setup_s}))
            return 0
        env = machine_record(args)
        if env["blas_threads"] not in (1, None):
            print(f"error: BLAS runs {env['blas_threads']} threads, not 1", file=sys.stderr)
            return 3
        print("# env " + json.dumps(env, sort_keys=True))
        if args.trace:
            metrics, notes, correct, loop = traced(args, workloads, workdir)
        else:
            samples = [(setup_wall, setup_s)]
            samples += [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
            metrics, notes, correct, loop = end_to_end(args, workloads, samples, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# notes " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

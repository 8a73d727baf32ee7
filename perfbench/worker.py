"""One run of one workload, in a fresh process started by run.py.

Runs closed-loop passes over the workload's case list (one client; each case
starts when the previous one returns) for the requested number of seconds,
then prints one JSON line with timings, failures, the environment record and
each case's sizes. Untraced runs also time the set-up import in fresh
interpreters, spread over the run (SetupSampler). With --trace 1 it first runs
untraced passes for half the time, then installs the span wrappers and runs
traced passes for the rest of it (at least one); the spans are written to
perfbench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"          # relative to the checkout root
SETUP_SAMPLES = 15
SETUP_CODE = ("import time; t = time.perf_counter(); "
              "import cstorus.cli, cstorus.wgz, cstorus.heatkernel, cstorus.compactcheck; "
              "print(time.perf_counter() - t)")


def nproc():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def environment():
    import numpy as np
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np)}


def _blas_threads(np):
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class SetupSampler:
    """Import time of the CLI and the analytic modules, each sample in a fresh
    interpreter. The samples are due at evenly spaced times over the run and
    are taken between cases, so they see the same machine state as the
    passes; the time they take is left out of the pass timings."""

    def __init__(self, samples, seconds):
        self.start = time.perf_counter()
        self.due = [seconds * (i + 0.5) / samples for i in range(samples)]
        self.values = []

    def _sample(self):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        self.values.append(float(proc.stdout.strip().splitlines()[-1]))

    def take_due(self, finish=False):
        """Take the samples due by now (all that are left, if finish);
        return the wall and CPU seconds this process spent on them."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while self.due and (finish or wall0 - self.start >= self.due[0]):
            self.due.pop(0)
            self._sample()
        return time.perf_counter() - wall0, time.process_time() - cpu0


def run_pass(cases, tracer=None, sampler=None):
    """One closed-loop pass; returns wall and CPU seconds and per-case results."""
    from cases import Checks
    results = []
    skipped_wall = skipped_cpu = 0.0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
        for case in cases:
            if sampler is not None:
                wall, cpu = sampler.take_due()
                skipped_wall += wall
                skipped_cpu += cpu
            chk = Checks(case.layer)
            start = time.perf_counter()
            try:
                with (tracer.span("bench.case", case.name) if tracer
                      else contextlib.nullcontext()):
                    case.run(chk)
            except Exception as exc:      # a raising case fails; the run goes on
                chk.fail("raised", f"{type(exc).__name__}: {exc}")
            results.append((case, time.perf_counter() - start, chk))
    return {"wall": time.perf_counter() - wall0 - skipped_wall,
            "cpu": time.process_time() - cpu0 - skipped_cpu, "results": results}


def run_for(cases, seconds, tracer=None, sampler=None):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cases, tracer, sampler))
        if tracer is not None:
            passes[-1]["trace"] = tracer.take()
    return passes


def check_metrics(results):
    """Per-layer failed-check counts, worst residual/tolerance ratios and the
    CLI artifact tallies of one pass."""
    from tracing import LAYERS
    out = defaultdict(int)
    for layer in LAYERS:
        out[f"{layer}.failed"] = 0
        out[f"{layer}.residual_over_tol"] = 0.0
    out["cli.artifact_bytes"] = out["cli.unexpected_exits"] = 0
    for case, _, chk in results:
        for layer, _, value, tol, ok in chk.items:
            out[f"{layer}.failed"] += not ok
            if tol is not None:
                key = f"{layer}.residual_over_tol"
                out[key] = max(out[key], value / tol)
        if case.layer == "cli":
            out["cli.artifact_bytes"] += chk.record.get("artifact_bytes", 0)
            out["cli.unexpected_exits"] += not any(
                item[1] == "exit_code" and item[4] for item in chk.items)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import cstorus
    if Path(cstorus.__file__).resolve().parent != ROOT / "src" / "cstorus":
        sys.exit(f"imported cstorus from {cstorus.__file__}, not from this checkout")
    from cases import WORKLOADS

    workdir = OUT / f"inputs-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cases = WORKLOADS[args.workload](args.seed, str(workdir))
        if args.trace:
            start = time.perf_counter()
            plain = run_for(cases, args.seconds / 2)
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            traced = run_for(cases, args.seconds - (time.perf_counter() - start), tracer)
        else:
            sampler = SetupSampler(SETUP_SAMPLES, args.seconds)
            plain, traced = run_for(cases, args.seconds, sampler=sampler), []
            sampler.take_due(finish=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_results = [r for p in plain + traced for r in p["results"]]
    failures = [{"case": case.name, "checks": [item for item in chk.items if not item[4]]}
                for case, _, chk in all_results if not chk.ok]
    for failure in failures[:20]:
        print(f"FAILED {failure['case']}: {failure['checks']}", file=sys.stderr)
    latency = defaultdict(list)
    for case, seconds, _ in (r for p in plain for r in p["results"]):
        latency[case.name].append(seconds)
    out = {
        "env": environment(),
        "cases": [{"name": case.name, "layer": case.layer, "ok": chk.ok,
                   "median_s": statistics.median(latency[case.name]), **chk.record}
                  for case, _, chk in plain[0]["results"]],
        "pass_wall_s": [p["wall"] for p in plain],
        "pass_cpu_s": [p["cpu"] for p in plain],
        "case_s": [s for p in plain for _, s, _ in p["results"]],
        "attempted": len(all_results),
        "failed": len(failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": [] if traced else sampler.values,
    }
    if traced:
        from tracing import span_metrics, spans_json
        walls = [p["wall"] for p in traced]
        pick = traced[walls.index(statistics.median_low(walls))]
        layers = span_metrics(*pick["trace"])
        layers.update(check_metrics(pick["results"]))
        layers["trace.overhead_s"] = pick["wall"] - statistics.median(out["pass_wall_s"])
        out["layers"] = layers
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump([spans_json(p["trace"][0]) for p in traced], fh)
        out["trace_file"] = str(trace_file)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

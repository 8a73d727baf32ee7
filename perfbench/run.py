"""cstorus benchmark: one command, four closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; it benchmarks the sources under `src/`.
Each workload runs in its own fresh worker process (perfbench/worker.py).
With --trace 0 the last line of output is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, taken from a traced pass. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from worker import nproc

ROOT = Path(__file__).resolve().parent.parent
WORKER_TIMEOUT_S = 160


def child_env():
    """Environment for every child: the checkout's sources first on the
    path, and no more BLAS threads than CPUs available."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cpus = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in env and (not env[var].isdigit() or int(env[var]) > cpus):
            env[var] = str(cpus)
    return env


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def run_workload(workload, seed, seconds, trace, spec, env):
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    setup, walls, cpus = res["setup_s"], res["pass_wall_s"], res["pass_cpu_s"]
    cases = res["case_s"]
    values = {
        "setup_s": statistics.median(setup) if setup else None,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": res["peak_rss_mb"],
        "cmd_p50_s": quantile(cases, 50),
        "cmd_p90_s": quantile(cases, 90),
    }
    counts = {"setup_s": f"median of {len(setup)} fresh-process imports",
              "wall_s": f"median of {len(walls)} untraced passes",
              "cpu_s": f"median of {len(walls)} untraced passes",
              "peak_rss_mb": "worker process maximum",
              "cmd_p50_s": f"of {len(cases)} untraced case latencies",
              "cmd_p90_s": f"of {len(cases)} untraced case latencies, "
                           f"{sum(c > values['cmd_p90_s'] for c in cases)} beyond"}
    print(f"# workload {workload}, seed {seed}: closed loop, 1 client, "
          f"{len(res['cases'])} cases per pass, {len(walls)} untraced passes")
    print("# env " + json.dumps(res["env"]))
    print("# sizes " + json.dumps(res["cases"]))
    print(f"# failed_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} cases)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, note in counts.items():
        if values[name] is not None:
            print(f"# {name:<12} {values[name]:.6g} {units[name]}  ({note})")
    if trace:
        declared = spec["per_layer"]
        values.update(res["layers"])
        print(f"# trace spans written to {res['trace_file']}")
    else:
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cstorus" / "__init__.py").is_file() or not spec_path.is_file():
        sys.exit(f"{ROOT} is not a cstorus checkout (need src/cstorus and BENCHMARK.json)")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = child_env()
    for workload in names if args.workload == "all" else [args.workload]:
        run_workload(workload, args.seed, seconds, args.trace, spec, env)


if __name__ == "__main__":
    main()

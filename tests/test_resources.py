"""The resource model (errors.require): its predictions against the peak
RSS of CLI commands in fresh processes, and its refusals, one stderr line
each, made before anything of the refused size is allocated."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from cstorus.cli import main
from cstorus.errors import BYTE_BUDGET
from test_cli import over_budget_input  # noqa: F401 (a fixture)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# run in a fresh process: every charge is recorded, and the largest byte
# total of one charge is the command's predicted peak beyond the interpreter.
# The peak is VmHWM, the high-water RSS of the process's own memory map:
# ru_maxrss also counts the parent's RSS when the child was spawned
CHILD = """
import contextlib, os, re, sys
import cstorus.cli, cstorus.compactcheck, cstorus.heatkernel, cstorus.wgz
from cstorus import errors
predicted = [0]
def spy(label, **terms):
    predicted[0] = max(predicted[0], sum(v for k, v in terms.items() if not k.endswith("_ops")))
    errors.require(label, **terms)
for mod in list(sys.modules.values()):
    if mod is not errors and getattr(mod, "require", None) is errors.require:
        mod.require = spy
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = cstorus.cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1)) * 1024
print(code, predicted[0], peak)
"""


def _peak(argv, cwd):
    """(exit code, predicted bytes, peak RSS bytes) of one command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    assert done.returncode == 0, done.stderr
    return tuple(int(x) for x in done.stdout.split())


def _kernel_input(path, ys, profile):
    """A kernel input of short decimals (about 20 bytes a point)."""
    path.write_text(json.dumps({"y": ys, "values": [[round(profile(t), 6), 0.0] for t in ys]}))


# every CLI command, from the largest runs the tests gate down to small ones
SWEEP = [
    ["roots", "info", "--type", "A", "--rank", "500"],
    ["roots", "info", "--type", "E", "--rank", "8"],
    ["lattice", "enumerate", "--type", "A", "--rank", "1", "--level", "25000"],
    ["lattice", "enumerate", "--type", "A", "--rank", "3", "--level", "30"],
    ["lattice", "enumerate", "--type", "D", "--rank", "4", "--level", "8"],
    ["rep", "build", "--type", "A", "--rank", "1", "--level", "1294", "--sector", "0"],
    ["rep", "build", "--type", "E", "--rank", "8", "--level", "2", "--sector", "0"],
    ["rep", "verify", "--type", "A", "--rank", "1", "--level", "1023", "--sector", "0"],
    ["rep", "verify", "--type", "A", "--rank", "1", "--level", "1300", "--sector", "0"],
    ["rep", "verify", "--type", "A", "--rank", "4", "--level", "10", "--sector", "0"],
    ["rep", "verify", "--type", "A", "--rank", "5", "--level", "7", "--sector", "0"],
    ["rep", "verify", "--type", "A", "--rank", "40", "--level", "1", "--sector", "0"],
    ["wgz", "roundtrip", "--type", "A", "--rank", "1", "--level", "2", "--resolution", "1440",
     "--trials", "2"],
    ["wgz", "roundtrip", "--type", "A", "--rank", "2", "--level", "1", "--resolution", "30",
     "--box-radius", "2", "--trials", "2"],
    ["wgz", "roundtrip", "--type", "A", "--rank", "1", "--level", "2"],
    ["kernel", "heat", "--k", "2", "--s", "1.0", "--input", "heat.json"],
    ["kernel", "eta", "--k", "2", "--s", "1.0", "--sector", "1", "--generator", "S",
     "--input", "eta.json"],
    ["kernel", "verify", "--k", "2", "--s", "1.0", "--L", "128", "--grid-points", "4096"],
    ["kernel", "verify", "--k", "2", "--s", "1.0", "--L", "12", "--grid-points", "16384"],
    ["kernel", "verify", "--k", "2", "--s", "1.0", "--L", "6", "--grid-points", "401"],
    ["compare", "compact", "--type", "A", "--rank", "5", "--k", "1"],
    ["compare", "compact", "--type", "D", "--rank", "5", "--k", "1"],
    ["compare", "compact", "--type", "A", "--rank", "3", "--k", "17"],
    ["compare", "compact", "--type", "A", "--rank", "2", "--k", "3"],
]


def test_predictions_bound_the_measured_peaks(tmp_path):
    """Each command of SWEEP exits 0 or 1 in a fresh process, and where its
    peak RSS above the `roots info` baseline (same process set-up) exceeds
    20 MB, measured <= predicted <= 3 x measured.  The sweep holds today's
    largest accepted runs: `rep build` at dim 1295, `wgz roundtrip` at
    N = 1440, `kernel verify` at N = 4096 with L = 128, `rep verify` A1
    k=1300 (dim 1301), A4 k=10 and A5 k=7, the compact bridges A5 and D5
    at k = 1 and A3 at k = 17 (dim 1140).  The model
    counts one freed section that glibc may keep near its mmap threshold,
    so a round trip reads 1.2-1.7 x."""
    _kernel_input(tmp_path / "heat.json", [(i - 50_000) / 1000 for i in range(100_001)],
                  lambda t: math.exp(-math.pi * t * t))
    _kernel_input(tmp_path / "eta.json", [i / 1000 for i in range(100_001)],
                  lambda t: t * math.exp(-math.pi * t * t))
    start = time.monotonic()
    assert len(SWEEP) >= 20 and len({tuple(argv[:2]) for argv in SWEEP}) == 9
    _, _, baseline = _peak(["roots", "info", "--type", "A", "--rank", "1"], tmp_path)
    rows = []
    for argv in SWEEP:
        code, predicted, rss = _peak(argv, tmp_path)
        measured = rss - baseline
        rows.append((" ".join(argv), code, predicted / 2 ** 20, measured / 2 ** 20))
        assert code in (0, 1), rows[-1]
        if measured > 20 * 2 ** 20:
            assert measured <= predicted <= 3 * measured, rows[-1]
        assert predicted <= BYTE_BUDGET
    assert time.monotonic() - start < 60, rows


OVER_BUDGET = [
    (["rep", "build", "--type", "A", "--rank", "3", "--level", "60", "--sector", "0"],
     "weyl_orbits"),
    (["rep", "build", "--type", "A", "--rank", "5", "--level", "10", "--sector", "0"],
     "weyl_orbits"),
    (["kernel", "heat", "--k", "2", "--s", "1.0", "--input", None], "kernel_input"),
    (["kernel", "eta", "--k", "2", "--s", "1.0", "--sector", "0", "--generator", "S",
      "--input", None], "kernel_input"),
    (["wgz", "roundtrip", "--type", "A", "--rank", "1", "--level", "1", "--trials",
      "1000000000"], "roundtrip_ops"),
    (["roots", "info", "--type", "A", "--rank", "1000"], "root_data"),
    (["wgz", "roundtrip", "--type", "A", "--rank", "465", "--level", "1"], "smith_form_ops"),
    (["wgz", "roundtrip", "--type", "A", "--rank", "1", "--level", "10000000"], "quotient"),
    (["lattice", "enumerate", "--type", "A", "--rank", "3", "--level", "100"], "weyl_orbits"),
    (["rep", "verify", "--type", "C", "--rank", "20", "--level", "1", "--sector", "0"],
     "weyl_orbits"),
    (["lattice", "enumerate", "--type", "A", "--rank", "1", "--level", "200000"],
     "enumeration"),
    (["rep", "build", "--type", "A", "--rank", "1", "--level", "5000", "--sector", "0"],
     "sector_matrices"),
    (["compare", "compact", "--type", "A", "--rank", "1", "--k", "5000"], "sector_matrices"),
    (["wgz", "roundtrip", "--type", "A", "--rank", "1", "--level", "1", "--resolution",
      "100000"], "sections"),
    (["wgz", "roundtrip", "--type", "A", "--rank", "1", "--level", "1", "--box-radius",
      "100000"], "families"),
    (["wgz", "roundtrip", "--type", "E", "--rank", "8", "--level", "1", "--resolution", "2",
      "--box-radius", "0.1"], "families"),
    (["kernel", "verify", "--k", "2", "--s", "1.0", "--L", "1024", "--grid-points", "4096"],
     "basis_blocks"),
    (["kernel", "verify", "--k", "2", "--s", "1.0", "--L", "1", "--grid-points", "1000000"],
     "kernels"),
]


# the E8 grid is named apart from the A1 box that is also refused on families
@pytest.mark.parametrize("argv,term", OVER_BUDGET, ids=[
    " ".join(a[:2]) + " E8" * ("E" in a) + f" {t}" for a, t in OVER_BUDGET])
def test_over_budget_refusals_allocate_under_10_mb(capsys, over_budget_input, argv, term):
    """Exit 3 with one stderr line naming the term, its predicted size and
    the budget, and nothing on stdout, before 10 MB is allocated (tracemalloc
    from the call on): the 400 000-point kernel input is refused by its
    size on disk, before it is parsed."""
    argv = [str(over_budget_input) if a is None else a for a in argv]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and len(err.splitlines()) == 1, err
    unit = "operations" if term.endswith("_ops") else "bytes"
    budget = "1e+08" if unit == "operations" else f"{BYTE_BUDGET:.3g}"
    assert f": {term} needs " in err and f"{unit} of a predicted " in err, err
    assert err.rstrip().endswith(f"over the budget {budget} {unit}"), err
    assert peak < 10 * 2 ** 20, (peak, err)

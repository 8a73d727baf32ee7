"""Reference gate: a fixed list of CLI commands, rerun in process, must give
the artifacts committed in tests/reference/ (see the README there).

Labels, ints, strings, booleans and exit codes must match exactly; other
floats, the S and T entries among them, to 1e-12; a residual may move at
rounding level but not pass from one side of its tolerance to the other
(the `passed` flags and exit codes match) and must stay at most
max(10 x reference, 1e-13).  The error budgets `boundary_decay` and
`truncation_error`, which sit far below any absolute floor, must match to
1e-9 of the reference.  A check's name and bound must match exactly, and
its value by the rule of the payload key it names.

Regenerate the bundle after a change that means to move an artifact:

    PYTHONPATH=src python tests/test_reference.py
"""

import contextlib
import copy
import gzip
import io
import json
import math
import os
import tempfile
import time
from pathlib import Path

import pytest

from cstorus.cli import main

BUNDLE = Path(__file__).resolve().parent / "reference" / "artifacts.json.gz"
FLOAT_TOL = 1e-12
RESIDUAL_FACTOR, RESIDUAL_FLOOR = 10.0, 1e-13
RELATIVE_KEYS, RELATIVE_TOL = ("boundary_decay", "truncation_error"), 1e-9

# the finite_sweep workload of perfbench/cases.py: (family, rank, levels)
SWEEP = [("A", 1, range(1, 9)), ("A", 2, range(1, 6)), ("B", 2, range(1, 4)),
         ("G", 2, range(1, 4)), ("A", 1, [40]), ("A", 2, [12]), ("D", 4, [2]),
         ("F", 4, [1]), ("A", 3, [4])]
BRIDGES = [("A", 1, range(1, 7)), ("A", 2, range(1, 4))]


def commands():
    """The argv of every reference command, in bundle order."""
    argvs = []
    for fam, rank, levels in SWEEP:
        for k in levels:
            for sector in (0, 1):
                argvs.append(["rep", "build", "--type", fam, "--rank", str(rank),
                              "--level", str(k), "--sector", str(sector)])
    for fam, rank, levels in BRIDGES:
        argvs += [["compare", "compact", "--type", fam, "--rank", str(rank), "--k", str(k)]
                  for k in levels]
    types = dict.fromkeys((fam, rank) for fam, rank, _ in SWEEP)
    argvs += [["roots", "info", "--type", fam, "--rank", str(rank)] for fam, rank in types]
    argvs += [["lattice", "enumerate", "--type", fam, "--rank", str(rank), "--level", str(k)]
              for fam, rank, k in [("A", 1, 3), ("A", 2, 2), ("B", 2, 2), ("G", 2, 2),
                                   ("D", 4, 2), ("F", 4, 1)]]
    argvs += [["kernel", "heat", "--k", "2", "--s", "1.0", "--input", "heat_input.json"],
              ["kernel", "eta", "--k", "2", "--s", "1.0", "--sector", "1", "--generator", "T",
               "--input", "eta_input.json"],
              ["kernel", "verify", "--k", "2", "--s", "1.0", "--L", "6", "--grid-points", "401"],
              ["wgz", "roundtrip", "--type", "A", "--rank", "1", "--level", "2"],
              ["wgz", "roundtrip", "--type", "A", "--rank", "2", "--level", "1",
               "--resolution", "3", "--box-radius", "2"]]
    return argvs


def _write_inputs() -> None:
    """The kernel inputs, in the working directory under the names that the
    commands (and so the artifacts' config) give."""
    heat_y = [i / 10 - 6 for i in range(121)]
    eta_y = [i / 10 for i in range(41)]
    inputs = {
        "heat_input.json": (heat_y, [[math.exp(-math.pi * t * t), 0.3 * t * math.exp(-t * t)]
                                     for t in heat_y]),
        "eta_input.json": (eta_y, [[math.exp(-math.pi * t * t), 0.0] for t in eta_y]),
    }
    for name, (y, values) in inputs.items():
        with open(name, "w") as fh:
            json.dump({"y": y, "values": values}, fh)


def run_commands(workdir) -> list:
    """Every command run through cli.main in workdir: its argv, exit code
    and parsed artifact."""
    records = []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        _write_inputs()
        for argv in commands():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            records.append({"argv": argv, "exit": code, "artifact": json.loads(out.getvalue())})
    finally:
        os.chdir(previous)
    return records


def load_bundle() -> list:
    return json.loads(gzip.decompress(BUNDLE.read_bytes()))


def _is_residual(path: tuple) -> bool:
    """A float whose key, or its parent's, names a residual or an error."""
    keys = [p for p in path[-2:] if isinstance(p, str)]
    return any("residual" in key for key in keys) or (bool(keys) and keys[-1].endswith("_error"))


def differences(want, got, path=()) -> list:
    """Where got breaks the gate against the reference want, as one line per
    leaf: the JSON path and both values."""
    where = "/".join(map(str, path))
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        if path[-2:-1] == ("checks",):
            # a check: its value under the rule of the key it names
            same = (want["name"], want["bound"]) == (got["name"], got["bound"])
            return ([] if same else [f"{where}: {want!r} != {got!r}"]) + differences(
                want["value"], got["value"], path + (want["name"],))
        return [d for key in want for d in differences(want[key], got[key], path + (key,))]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in differences(a, b, path + (i,))]
    if type(want) is not type(got):
        return [f"{where}: {want!r} != {got!r}"]
    if isinstance(want, float):
        if path[-1] in RELATIVE_KEYS:
            ok = abs(got - want) <= RELATIVE_TOL * abs(want)
        elif _is_residual(path):
            ok = got <= max(RESIDUAL_FACTOR * want, RESIDUAL_FLOOR)
        else:
            ok = abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))
    else:
        ok = got == want
    return [] if ok else [f"{where}: {want!r} != {got!r}"]


def compare_records(want: list, got: list) -> list:
    if [r["argv"] for r in want] != [r["argv"] for r in got]:
        return ["the command list differs from the bundle's; regenerate it"]
    return [f"{' '.join(w['argv'])}: {d}" for w, g in zip(want, got)
            for d in differences({"exit": w["exit"], "artifact": w["artifact"]},
                                 {"exit": g["exit"], "artifact": g["artifact"]})]


@pytest.fixture(scope="module")
def reference():
    return load_bundle()


def test_commands_reproduce_the_reference_artifacts(reference, tmp_path):
    start = time.perf_counter()
    got = run_commands(tmp_path)
    elapsed = time.perf_counter() - start
    mismatches = compare_records(reference, got)
    assert not mismatches, "\n".join(mismatches[:20])
    assert elapsed <= 5.0


def _mutable(reference, wanted):
    """The first record that `wanted` accepts, and a deep copy of it to mutate."""
    want = next(r for r in reference if wanted(r))
    return [want], [copy.deepcopy(want)]


def _sector_of_dim_two(record) -> bool:
    return record["argv"][:2] == ["rep", "build"] and len(record["artifact"]["matrices"]["T"]) >= 2


def test_gate_fails_on_a_flipped_T_sign(reference):
    want, got = _mutable(reference, _sector_of_dim_two)
    mats = got[0]["artifact"]["matrices"]
    mats["T"] = [[-x for x in entry] for entry in mats["T"]]
    mismatches = compare_records(want, got)
    assert mismatches and all("matrices/T/" in m for m in mismatches)


def test_gate_fails_on_a_permuted_label(reference):
    want, got = _mutable(reference, _sector_of_dim_two)
    labels = got[0]["artifact"]["matrices"]["labels"]
    labels[0], labels[1] = labels[1], labels[0]
    mismatches = compare_records(want, got)
    assert mismatches and all("matrices/labels/" in m for m in mismatches)


def test_gate_bounds_residuals_by_ten_times_the_reference(reference):
    want, got = _mutable(reference, lambda r: r["argv"][:2] == ["wgz", "roundtrip"])
    rep = got[0]["artifact"]["roundtrip"]
    error = rep["parseval_relative_error"]
    rep["parseval_relative_error"] = 9.0 * error
    assert compare_records(want, got) == []
    rep["parseval_relative_error"] = 11.0 * max(error, 1e-13)
    assert len(compare_records(want, got)) == 1


def test_gate_compares_a_check_exactly_but_for_its_value(reference):
    """A check's name and bound match exactly; its value may move as the
    residual it names may: x 9 passes and x 11 fails, though the 1e-12
    rule of other floats would pass both."""
    want, got = _mutable(reference, lambda r: r["argv"][:2] == ["wgz", "roundtrip"])
    check = next(c for c in got[0]["artifact"]["checks"]
                 if c["name"] == "parseval_relative_error")
    value, bound = check["value"], check["bound"]
    check["value"] = 9.0 * value
    assert compare_records(want, got) == []
    check["value"] = 11.0 * max(value, 1e-13)
    assert len(compare_records(want, got)) == 1
    check.update(value=value, bound=math.nextafter(bound, 1.0))
    assert len(compare_records(want, got)) == 1
    check.update(bound=bound, name="roundtrip_residual")
    assert len(compare_records(want, got)) == 1


@pytest.mark.parametrize("command,section,key", [
    ("wgz", "roundtrip", "boundary_decay"), ("kernel", "samples", "truncation_error")])
def test_gate_compares_error_budgets_relatively(reference, command, section, key):
    """A budget far below the absolute floor (boundary_decay reads 7.7e-47)
    may move by rounding but not by a factor of ten."""
    want, got = _mutable(reference, lambda r: r["argv"][0] == command
                         and key in r["artifact"].get(section, {}))
    budget = got[0]["artifact"][section]
    value = budget[key]
    budget[key] = value * (1 + 1e-12)
    assert compare_records(want, got) == []
    budget[key] = value * 10
    mismatches = compare_records(want, got)
    assert len(mismatches) == 1 and f"{section}/{key}" in mismatches[0]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(run_commands(tmp), sort_keys=True, separators=(",", ":"))
    BUNDLE.parent.mkdir(exist_ok=True)
    BUNDLE.write_bytes(gzip.compress(text.encode(), mtime=0))
    print(f"wrote {BUNDLE} ({BUNDLE.stat().st_size} bytes, {len(commands())} commands)")

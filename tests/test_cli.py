"""CLI: exit codes, config files, deterministic JSON artifacts, file IO."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cstorus.cli import build_parser, main
from cstorus.finrep import SECTOR_DIM_CEILING
from cstorus.heatkernel import GRID_BASIS_CEILING, GRID_POINTS_CEILING
from cstorus.roots import RANK_CEILING
from cstorus.wgz import WGZ_ARRAY_CEILING


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_roots_info(capsys):
    code, doc = run(capsys, "roots", "info", "--type", "A", "--rank", "2")
    assert code == 0
    assert doc["roots"]["weyl_order"] == 6
    assert doc["config"]["command"] == "roots info"
    assert "version" in doc


@pytest.mark.parametrize("rank,order", [(7, 2_903_040), (8, 696_729_600)])
def test_roots_info_e7_e8(capsys, rank, order):
    code, doc = run(capsys, "roots", "info", "--type", "E", "--rank", str(rank))
    assert code == 0
    assert doc["roots"]["weyl_order"] == order


def test_rep_build_e8(capsys):
    code, doc = run(capsys, "rep", "build", "--type", "E", "--rank", "8",
                    "--level", "2", "--sector", "0")
    assert code == 0
    assert doc["verification"]["passed"] and doc["verification"]["dim"] == 3


def test_rep_build_over_dimension_ceiling_exits_resource(capsys):
    # |Z_k| = 100000 is within its ceiling; the 50001-dim sector is not
    code, out, err = run_err(capsys, "rep", "build", "--type", "A", "--rank", "1",
                             "--level", "50000", "--sector", "0")
    assert code == 3
    assert out == "" and "dimension 50001 exceeds the ceiling" in err


def test_invalid_type_exits_schema(capsys):
    code, _ = run(capsys, "roots", "info", "--type", "E", "--rank", "2")
    assert code == 2


def test_missing_required_flag_exits_schema(capsys):
    code, _ = run(capsys, "lattice", "enumerate", "--type", "A", "--rank", "1")
    assert code == 2


def test_lattice_enumerate(capsys):
    code, doc = run(capsys, "lattice", "enumerate", "--type", "A", "--rank", "1",
                    "--level", "3")
    assert code == 0
    assert doc["lattice"]["order"] == 6


def test_rep_build_worked_example(capsys):
    code, doc = run(capsys, "rep", "build", "--type", "A", "--rank", "1",
                    "--level", "2", "--sector", "1")
    assert code == 0
    assert doc["verification"]["passed"]
    s = doc["matrices"]["S"]
    assert len(s) == 1 and abs(complex(*s[0][0]) - 1) < 1e-12


def test_rep_verify_negative_control_exits_tolerance(capsys):
    code, doc = run(capsys, "rep", "verify", "--type", "A", "--rank", "2",
                    "--level", "2", "--sector", "0", "--convention", "theorem")
    assert code == 1
    assert not doc["verification"]["passed"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "A", "rank": 1, "level": 2, "sector": 0}))
    code, doc = run(capsys, "rep", "verify", "--config", str(cfg),
                    "--level", "3")
    assert code == 0
    assert doc["config"]["level"] == 3          # flag supersedes file
    assert doc["config"]["rank"] == 1


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    code, _ = run(capsys, "roots", "info", "--config", str(cfg),
                  "--type", "A", "--rank", "1")
    assert code == 2


def test_artifact_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["compare", "compact", "--type", "A", "--rank", "1",
                     "--k", "3", "--out", str(p)]) == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for d in docs:
        d["config"].pop("out")
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)
    doc = docs[0]
    assert doc["compact"]["passed"]
    assert abs(complex(*doc["compact"]["fitted_T_phase"]) - 1) < 1e-10


def test_wgz_roundtrip_artifact(tmp_path, capsys):
    code, doc = run(capsys, "wgz", "roundtrip", "--type", "A", "--rank", "1",
                    "--level", "1", "--resolution", "24", "--box-radius", "5.0",
                    "--trials", "3")
    assert code == 0
    assert doc["roundtrip"]["roundtrip_residual"] < 1e-6


def test_kernel_heat_file_io(tmp_path, capsys):
    y = np.linspace(-6, 6, 401)
    vals = np.exp(-math.pi * y ** 2).astype(complex)   # ground state at sigma = i
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"y": list(y),
                               "values": [[z.real, z.imag] for z in vals]}))
    dst = tmp_path / "out.json"
    code = main(["kernel", "heat", "--k", "2", "--s", "0.0",
                 "--input", str(src), "--out", str(dst)])
    assert code == 0
    doc = json.loads(dst.read_text())
    got = np.array([complex(re, im) for re, im in doc["samples"]["values"]])
    # ground state picks up the unit phase e^{-2kr/2} = q^{1/2} = e^{i pi/4}
    target = np.exp(1j * math.pi / 4) * vals
    assert np.abs(got - target).max() < 1e-6


def test_kernel_eta_file_io(tmp_path, capsys):
    y = np.linspace(0, 8, 401)
    vals = np.exp(-math.pi * y ** 2)
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"y": list(y),
                               "values": [[float(z), 0.0] for z in vals]}))
    code, doc = run(capsys, "kernel", "eta", "--k", "2", "--s", "0.0",
                    "--sector", "0", "--generator", "S", "--input", str(src))
    assert code == 0
    got = np.array([complex(re, im) for re, im in doc["samples"]["values"]])
    assert np.abs(got + 1j * vals).max() < 1e-5   # folded self-duality


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_exits_schema(tmp_path, capsys, target):
    """--out in a directory that does not exist, or naming a directory, is
    an invalid configuration (exit 2, one line), not a traceback."""
    code, out, err = run_err(capsys, "roots", "info", "--type", "A", "--rank", "1",
                             "--out", str(tmp_path / target))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1 and "cannot write" in err


def test_kernel_heat_bad_input_file(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("{\"y\": [0, 1]}")
    code, _ = run(capsys, "kernel", "heat", "--k", "2", "--s", "0.0",
                  "--input", str(src))
    assert code == 2


def test_kernel_verify_small(capsys):
    code, doc = run(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                    "--L", "6", "--grid-points", "1201", "--box-radius", "9.0")
    assert code == 0
    assert doc["conjugation"]["max_conjugation_residual"] < 1e-5


def test_kernel_verify_bad_sigma_exits_schema(capsys):
    code, _ = run(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                  "--sigma", "1-1i", "--L", "6")
    assert code == 2


def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ("kernel", "verify", "--k", "2", "--s", "nan", "--L", "6"),
    ("kernel", "verify", "--k", "2", "--s", "1.0", "--box-radius", "inf"),
    ("wgz", "roundtrip", "--type", "A", "--rank", "1", "--level", "1",
     "--tol=-inf"),
])
def test_non_finite_flag_exits_schema(capsys, argv):
    code, out, err = run_err(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_non_finite_config_value_exits_schema(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 2, "s": float("nan")}))   # bare NaN token
    code, out, err = run_err(capsys, "kernel", "verify", "--config", str(cfg))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1


def test_non_finite_artifact_exits_schema(tmp_path, capsys):
    y = np.linspace(-6, 6, 41)
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"y": list(y),
                               "values": [[float("nan"), 0.0]] * len(y)}))
    code, out, err = run_err(capsys, "kernel", "heat", "--k", "2", "--s", "0.0",
                             "--input", str(src))
    assert code == 2
    assert out == "" and "non-finite" in err


@pytest.mark.parametrize("y", [[0.0], [0.0, 0.5, 1.5, 2.0], [2.0, 1.0, 0.0],
                               [0.0, 0.0, 0.0]])
def test_kernel_heat_rejects_bad_grid(tmp_path, capsys, y):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"y": y, "values": [[1.0, 0.0]] * len(y)}))
    code, out, err = run_err(capsys, "kernel", "heat", "--k", "2", "--s", "0.0",
                             "--input", str(src))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1


def test_kernel_heat_rejects_values_off_the_grid(tmp_path, capsys):
    """One value per grid point: a longer values list exits 2 with one line."""
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"y": list(np.linspace(-1.0, 1.0, 8)),
                               "values": [[1.0, 0.0]] * 9}))
    code, out, err = run_err(capsys, "kernel", "heat", "--k", "2", "--s", "0.0",
                             "--input", str(src))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("level", ["abc", 2.7, True, [2]])
def test_config_field_of_wrong_type_exits_schema(tmp_path, capsys, level):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "A", "rank": 1, "level": level, "sector": 0}))
    code, out, err = run_err(capsys, "rep", "verify", "--config", str(cfg))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "level" in err


def test_config_integral_float_is_an_int(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "A", "rank": 1.0, "level": 2.0, "sector": 0,
                               "box_radius": 6}))
    code, doc = run(capsys, "rep", "verify", "--config", str(cfg))
    assert code == 0
    assert doc["config"]["level"] == 2 and isinstance(doc["config"]["level"], int)
    assert doc["config"]["box_radius"] == 6.0
    assert isinstance(doc["config"]["box_radius"], float)


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=4))


def _scalar_or(*valid):
    # half the draws valid, so that whole valid E6-E8 configs come up too
    return st.booleans().flatmap(lambda ok: st.sampled_from(valid) if ok else JSON_SCALARS)


def _exit_contract(code, out, err):
    """Exit 0-3: exit 0/1 with strict JSON on stdout and nothing on stderr,
    exit 2/3 with one stderr line and nothing on stdout."""
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json.loads(out, parse_constant=lambda tok: pytest.fail(f"bare {tok} in JSON"))
        assert err == ""
    else:
        assert out == "" and len(err.strip().splitlines()) == 1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(level=_scalar_or(1, 2, 3, 4), rank=_scalar_or(6, 7, 8), sector=_scalar_or(0, 1))
def test_config_scalars_keep_the_exit_contract(tmp_path, capsys, level, rank, sector):
    """Any JSON scalar for level, rank or sector exits 0-3: exit 0/1 with
    strict JSON on stdout, exit 2/3 with one stderr line. The E family is
    used because it is the one the orbit route opens; ranks other than
    6-8 are refused before any root system is built."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "E", "rank": rank, "level": level,
                               "sector": sector}))
    _exit_contract(*run_err(capsys, "rep", "verify", "--config", str(cfg)))


@pytest.mark.parametrize("command,rank,expected", [
    ("info", RANK_CEILING, 0), ("info", RANK_CEILING + 1, 3),
    ("verify", RANK_CEILING, 0), ("verify", RANK_CEILING + 1, 3)])
def test_rank_ceiling(capsys, command, rank, expected):
    argv = (("roots", "info") if command == "info"
            else ("rep", "verify", "--level", "1", "--sector", "0"))
    code, out, err = run_err(capsys, *argv, "--type", "A", "--rank", str(rank))
    assert code == expected
    if expected == 3:
        assert out == "" and f"ceiling {RANK_CEILING}" in err


@pytest.mark.parametrize("extra", [
    ("--box-radius", "0", "--grid-points", "8", "--L", "1"),
    ("--box-radius", "-5"),
    ("--grid-points", "8", "--L", "20"),
    ("--sigma", "1000000i", "--grid-points", "201"),
    ("--box-radius", "1000000", "--grid-points", "201"),
])
def test_kernel_verify_degenerate_grid_exits_schema(capsys, extra):
    code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0", *extra)
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("extra", [("--sigma", "100i"),
                                   ("--box-radius", "100", "--grid-points", "2001"),
                                   ("--box-radius", "100", "--L", "1", "--grid-points", "9")])
def test_kernel_verify_wide_gaussian_stays_finite(capsys, extra):
    """Each Mehler diagonal is one exp of its summed exponent, so a wide
    ground state or box neither overflows nor turns into NaN.  The box of
    radius 100 has 2001 points to resolve the Hermite basis; on 201 points
    it is refused (test_kernel_verify_unresolved_basis_exits_schema)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                                 "--L", "6", "--grid-points", "201", *extra)
    assert code in (0, 1) and err == ""
    doc = json.loads(out, parse_constant=lambda tok: pytest.fail(f"bare {tok} in JSON"))
    assert math.isfinite(doc["conjugation"]["max_relation_residual"])


@pytest.mark.parametrize("extra", [
    ("--L", "7", "--grid-points", "8", "--box-radius", "4", "--sigma", "0.3+1.1i"),
    ("--L", "6", "--grid-points", "201", "--box-radius", "10", "--sigma", "100i"),
    ("--L", "6", "--grid-points", "201", "--box-radius", "100")])
def test_kernel_verify_unresolved_basis_exits_schema(capsys, extra):
    """A Gram matrix over GRAM_CONDITION_CEILING is refused with one line
    naming its condition number, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0", *extra)
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1 and "condition number" in err


@pytest.mark.parametrize("command", ["verify", "heat", "eta"])
def test_kernel_grid_over_ceiling_exits_resource(tmp_path, capsys, command):
    """One point over the ceiling is refused before any kernel is applied."""
    n = GRID_POINTS_CEILING + 1
    if command == "verify":
        extra = ("--grid-points", str(n))
    else:
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"y": list(np.linspace(0.0, 8.0, n)),
                                   "values": [[1.0, 0.0]] * n}))
        extra = ("--input", str(src))
        if command == "eta":
            extra += ("--sector", "0", "--generator", "S")
    start = time.monotonic()
    code, out, err = run_err(capsys, "kernel", command, "--k", "2", "--s", "0.0", *extra)
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert out == "" and f"ceiling {GRID_POINTS_CEILING}" in err


@pytest.mark.parametrize("grid_points,L", [(1601, 1600), (4096, 129)])
def test_kernel_verify_basis_over_ceiling_exits_resource(capsys, grid_points, L):
    """grid_points * L over its ceiling is refused before any kernel or N x L
    block is built."""
    assert grid_points * L > GRID_BASIS_CEILING
    start = time.monotonic()
    code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                             "--L", str(L), "--grid-points", str(grid_points))
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"ceiling {GRID_BASIS_CEILING}" in err


def _not_a_large_grid(n):
    # grid sizes from 202 up to the ceiling are valid; left out to keep the
    # examples small
    return not (isinstance(n, (int, float)) and not isinstance(n, bool)
                and 201 < n <= GRID_POINTS_CEILING)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(L=_scalar_or(1, 6, 12), grid_points=_scalar_or(8, 100, 101, 201).filter(_not_a_large_grid),
       box_radius=_scalar_or(4.0, 10.0), s=_scalar_or(0.0, 1.0, -2.5),
       sigma=_scalar_or(None, "1i", "0.3+1.1i"))
def test_kernel_scalars_keep_the_exit_contract(tmp_path, capsys, L, grid_points,
                                               box_radius, s, sigma):
    """Any JSON scalar for the kernel verify fields exits 0-3: exit 0/1 with
    strict JSON on stdout, exit 2/3 with one stderr line, and no warning."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 2, "L": L, "grid_points": grid_points,
                               "box_radius": box_radius, "s": s, "sigma": sigma}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _exit_contract(*run_err(capsys, "kernel", "verify", "--config", str(cfg)))


def test_kernel_verify_chained_quadratures_past_float_range_exit_schema(capsys):
    """With a generic sigma every kernel exponent is imaginary, so no single
    kernel refuses a huge radius; the growth bound of the deepest chain of
    quadratures does, before any basis block and without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                                 "--L", "1", "--grid-points", "9", "--sigma", "0.3+1.1i",
                                 "--box-radius", "1e100")
        assert code == 2
        assert out == "" and len(err.strip().splitlines()) == 1 and "float range" in err
        code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                                 "--L", "1", "--grid-points", "9", "--sigma", "0.3+1.1i",
                                 "--box-radius", "100")
    # radius 100 is not refused: a finite artifact (9 points miss the
    # tolerance there, exit 1, as before the bound)
    assert code in (0, 1) and err == ""
    doc = json.loads(out, parse_constant=lambda tok: pytest.fail(f"bare {tok} in JSON"))
    assert math.isfinite(doc["conjugation"]["max_relation_residual"])


@pytest.mark.parametrize("argv", [
    ("--rank", "1", "--resolution", "100000"),
    ("--rank", "3", "--resolution", "16"),       # A3 k=1: 16^6 section samples
    ("--rank", "3"),
])
def test_wgz_grid_over_ceiling_exits_resource(capsys, argv):
    """Refused before any section or family array is allocated."""
    start = time.monotonic()
    code, out, err = run_err(capsys, "wgz", "roundtrip", "--type", "A", "--level", "1", *argv)
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert out == "" and f"ceiling {WGZ_ARRAY_CEILING}" in err
    assert len(err.strip().splitlines()) == 1


def _kernel_argv(tmp_path, command):
    if command == "verify":
        return ("kernel", "verify", "--k", "2", "--s", "1.0", "--L", "6",
                "--grid-points", "201")
    y = np.linspace(0.0, 8.0, 41)
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"y": list(y), "values": [[math.exp(-math.pi * t * t), 0.0]
                                                         for t in y]}))
    extra = ("--sector", "0", "--generator", "S") if command == "eta" else ()
    return ("kernel", command, "--k", "2", "--s", "0.0", "--input", str(src), *extra)


@pytest.mark.parametrize("command", ["verify", "heat", "eta"])
@pytest.mark.parametrize("family,expected", [
    (("--type", "Q", "--rank", "99"), 2), (("--type", "B", "--rank", "2"), 2),
    (("--type", "A", "--rank", "2"), 2), (("--rank", "3"), 2),
    (("--type", "A", "--rank", "1"), 0), ((), 0)])
def test_kernel_commands_accept_only_a1(tmp_path, capsys, command, family, expected):
    """The kernel commands are rank one; any other --type/--rank is refused
    instead of silently ignored."""
    code, out, err = run_err(capsys, *_kernel_argv(tmp_path, command), *family)
    assert code == expected
    if expected == 2:
        assert out == "" and len(err.strip().splitlines()) == 1
        assert "rank 1 only" in err
    else:
        assert err == ""


@pytest.mark.parametrize("radius", ["1e160", "1.3e154"])
def test_kernel_verify_huge_box_radius_exits_schema(capsys, radius):
    """A radius whose Gaussian exponent pi r^2 overflows is refused up front,
    without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                                 "--L", "6", "--grid-points", "8", "--box-radius", radius)
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1 and "box_radius" in err


def _quick_or_refused(quick, refused):
    # numbers between the two bounds are valid but slow; left out to keep
    # every example under a second
    return lambda v: not (isinstance(v, (int, float)) and not isinstance(v, bool)
                          and quick < v < refused)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(level=_scalar_or(1, 2, 3, 10 ** 6).filter(_quick_or_refused(3, 10 ** 4)),
       resolution=_scalar_or(8, 24, 64, 10 ** 5).filter(_quick_or_refused(64, 10 ** 4)),
       box_radius=_scalar_or(0.5, 2.0, 6.0, 1e5).filter(_quick_or_refused(6.0, 1e4)),
       trials=_scalar_or(1, 2, 3).filter(_quick_or_refused(5, math.inf)),
       seed=_scalar_or(-1, 0, 2 ** 64, 1.5))
def test_wgz_scalars_keep_the_exit_contract(tmp_path, capsys, level, resolution,
                                            box_radius, trials, seed):
    """Any JSON scalar for the wgz roundtrip fields exits 0-3: exit 0/1 with
    strict JSON on stdout, exit 2/3 with one stderr line."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "A", "rank": 1, "level": level,
                               "resolution": resolution, "box_radius": box_radius,
                               "trials": trials, "seed": seed}))
    _exit_contract(*run_err(capsys, "wgz", "roundtrip", "--config", str(cfg)))


def test_wgz_negative_seed_exits_schema(capsys):
    """A negative seed is an invalid configuration (exit 2, one line), not
    a traceback from the random generator."""
    code, out, err = run_err(capsys, "wgz", "roundtrip", "--type", "A", "--rank", "1",
                             "--level", "1", "--resolution", "24", "--trials", "2",
                             "--seed", "-1")
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1 and "seed" in err


@pytest.mark.parametrize("trials", ["-3", "0", "1"])
def test_wgz_fewer_than_two_trials_exits_schema(capsys, trials):
    """Parseval pairs consecutive families, so fewer than two trials is an
    invalid configuration (exit 2, one line), not a run of two."""
    code, out, err = run_err(capsys, "wgz", "roundtrip", "--type", "A", "--rank", "1",
                             "--level", "1", "--resolution", "24", "--trials", trials)
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1 and "trials" in err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# a --level call before a call that omits it, so state left in the shared
# parser would show as a missing exit 2
PARSER_SEQUENCE = [
    ("lattice", "enumerate", "--type", "A", "--rank", "2", "--level", "2"),
    ("rep", "build", "--type", "B", "--rank", "2", "--level", "2", "--sector", "1"),
    ("compare", "compact", "--type", "A", "--rank", "2", "--k", "2"),
    ("kernel", "verify", "--k", "2", "--s", "1.0", "--L", "4", "--grid-points", "101"),
    ("roots", "info", "--type", "G", "--rank", "2"),
    ("lattice", "enumerate", "--type", "A", "--rank", "1"),
    ("rep", "verify", "--type", "A", "--rank", "2", "--level", "2", "--sector", "0",
     "--convention", "theorem"),
    ("rep", "verify", "--type", "A", "--rank", "2", "--level", "2", "--sector", "0"),
]


def _python(*args):
    """Run python with args in a fresh process that imports cstorus from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def _solo(argv):
    return _python("-m", "cstorus.cli", *argv)


def test_one_parser_serves_every_call(capsys):
    """main reuses one parser: each call of a sequence in one process gives
    the exit code, stdout and stderr of the same command run alone in a
    fresh process, and the parser is built once."""
    for argv in PARSER_SEQUENCE:
        code, out, err = run_err(capsys, *argv)
        solo = _solo(argv)
        assert (code, out, err) == (solo.returncode, solo.stdout, solo.stderr), argv
    assert build_parser() is build_parser()
    assert build_parser.cache_info().misses == 1


SCRIPTS = sorted(Path(SRC).parent.joinpath("scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_script_imports_and_shows_help(script):
    """Each script under scripts/ imports what it uses from the package:
    --help runs every top-level import and exits 0."""
    done = _python(str(script), "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


@pytest.mark.parametrize("rank,k,dim", [(1, 5000, 5001), (2, 60, 1891), (3, 17, 1140)])
def test_compare_compact_over_dimension_ceiling_exits_resource(capsys, rank, k, dim):
    """The sector's dimension at level k + h is checked before the oracle
    allocates anything of that size."""
    start = time.monotonic()
    code, out, err = run_err(capsys, "compare", "compact", "--type", "A",
                             "--rank", str(rank), "--k", str(k))
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"dimension {dim} exceeds the ceiling {SECTOR_DIM_CEILING}" in err


def test_config_integer_past_the_digit_limit_exits_schema(tmp_path, capsys):
    """json.load refuses an integer literal of more than 4300 digits with a
    ValueError: a bad config file (exit 2, one line), as the same literal
    passed as --level already is."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"family": "A", "rank": 1, "level": 1' + "0" * 4400 + "}")
    code, out, err = run_err(capsys, "wgz", "roundtrip", "--config", str(cfg))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1 and "config" in err


def test_kernel_level_beyond_float_range_exits_schema(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "kernel", "verify", "--k", "1" + "0" * 400,
                                 "--s", "1.0", "--L", "4", "--grid-points", "101")
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("radius", ["1e10", "1e8", "1e150"])
def test_kernel_verify_wide_grid_at_l1_exits_schema(capsys, radius):
    """With L = 1 the Gram check cannot catch a wide grid; the Mehler
    diagonals, imaginary up to rounding, refuse it before any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                                 "--L", "1", "--grid-points", "9", "--box-radius", radius)
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1 and "too wide" in err


@pytest.mark.parametrize("command", ["heat", "eta"])
def test_kernel_apply_wide_input_grid_exits_schema(tmp_path, capsys, command):
    """A sample grid too wide for the kernel's exponents is refused without
    a warning."""
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"y": list(np.linspace(0.0, 1e160, 9)),
                               "values": [[1.0, 0.0]] * 9}))
    extra = ("--sector", "0", "--generator", "S") if command == "eta" else ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "kernel", command, "--k", "2", "--s", "0.0",
                                 "--input", str(src), *extra)
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1 and "too wide" in err


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=_scalar_or("A", "B", "D", "G"),
       rank=_scalar_or(1, 2, 3).filter(_quick_or_refused(3, RANK_CEILING + 1)),
       level=_scalar_or(1, 2, 3, 10 ** 6).filter(_quick_or_refused(3, 10 ** 6)))
def test_lattice_scalars_keep_the_exit_contract(tmp_path, capsys, family, rank, level):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": family, "rank": rank, "level": level}))
    _exit_contract(*run_err(capsys, "lattice", "enumerate", "--config", str(cfg)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=_scalar_or("A", "D", "B"),
       rank=_scalar_or(1, 2, 3).filter(_quick_or_refused(3, RANK_CEILING + 1)),
       level=_scalar_or(1, 2, 3, 10 ** 4).filter(_quick_or_refused(3, 10 ** 4)),
       convention=_scalar_or("lemma", "theorem"))
def test_compare_scalars_keep_the_exit_contract(tmp_path, capsys, family, rank, level,
                                                convention):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": family, "rank": rank, "level": level,
                               "convention": convention}))
    _exit_contract(*run_err(capsys, "compare", "compact", "--config", str(cfg)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["heat", "eta"]),
       level=_scalar_or(1, 2, 5, 10 ** 20), s=_scalar_or(0.0, 1.0, -2.5),
       branch=_scalar_or("principal", "flipped"), sector=_scalar_or(0, 1),
       generator=_scalar_or("S", "T"),
       radius=st.sampled_from([1.0, 8.0, 1e4, 1e10, 1e150]))
def test_kernel_apply_scalars_keep_the_exit_contract(tmp_path, capsys, command, level, s,
                                                     branch, sector, generator, radius):
    """kernel heat/eta under any JSON scalar for their fields, on a 41-point
    grid of any width, keep the exit contract without a warning."""
    src = tmp_path / "in.json"
    y = np.linspace(0.0 if command == "eta" else -radius, radius, 41)
    src.write_text(json.dumps({"y": list(y), "values": [[1.0, 0.5]] * len(y)}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": level, "s": s, "branch": branch, "sector": sector,
                               "generator": generator, "input": str(src)}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _exit_contract(*run_err(capsys, "kernel", command, "--config", str(cfg)))

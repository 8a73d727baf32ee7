"""CLI: exit codes, config files, deterministic JSON artifacts, file IO."""

import argparse
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cstorus import cli, compactcheck
from cstorus.cli import artifact_pieces, build_parser, main
from cstorus.errors import DomainError
from cstorus.heatkernel import K_MAX, verify_conjugation
from cstorus.roots import LieType, build_root_system
from test_compactcheck import fraction_shifted_weights
from test_finrep import alcove_points_bruteforce
from test_heatkernel import _dense_eta_apply
from test_lattice import fraction_quotient


def artifact_text(doc) -> str:
    return "".join(artifact_pieces(doc))


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
    # the orbits of |Z_k| = 100000 are within the budget; the 50001-dim sector is not
    code, out, err = run_err(capsys, "rep", "build", "--type", "A", "--rank", "1",
                             "--level", "50000", "--sector", "0")
    assert code == 3
    assert out == "" and "A1, k=50000: sector_matrices needs 4.7e+11 bytes" in err


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


LABEL_CASES = [("A", 1, 4), ("A", 2, 3), ("A", 3, 2), ("B", 2, 3), ("B", 3, 2), ("C", 2, 3),
               ("C", 3, 2), ("D", 4, 2), ("G", 2, 3), ("F", 4, 1), ("E", 6, 1)]


def _texts(points):
    """Exact points as the strings of their Fraction coordinates."""
    return [[str(x) for x in p] for p in points]


@pytest.mark.parametrize("fam,rank,k", LABEL_CASES)
def test_label_strings_are_the_fraction_oracle(capsys, fam, rank, k):
    """Every label string of `lattice enumerate`, of `rep build` in both
    sectors and of `compare compact` is str(Fraction) of the exact oracle's
    point: the alcove points, the reps of Z and the rho-shifted weights."""
    rs = build_root_system(LieType(fam, rank))
    level = ["--type", fam, "--rank", str(rank), "--level", str(k)]
    closed, opened = alcove_points_bruteforce(rs, k)
    _, doc = run(capsys, "lattice", "enumerate", *level)
    alcove = doc["lattice"]["alcove"]
    assert (alcove["closed"], alcove["open"]) == (_texts(closed), _texts(opened))
    assert doc["lattice"]["reps"] == _texts(fraction_quotient(rs, k).reps)
    for sector, points in ((0, closed), (1, opened)):
        _, doc = run(capsys, "rep", "build", *level, "--sector", str(sector))
        assert doc["matrices"]["labels"] == _texts(points)
    # the bridge's real limit: the orbits of Z at level k + h (E6 at k = 1 is
    # over the byte budget)
    if fam in "AD":
        _, doc = run(capsys, "compare", "compact", *level)
        shifted = alcove_points_bruteforce(rs, k + rs.dual_coxeter)[1]
        assert doc["compact"]["labels_sector"] == _texts(sorted(shifted, key=lambda p: (sum(p), p)))
        assert doc["compact"]["labels_oracle"] == _texts(fraction_shifted_weights(rs, k))


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


@pytest.mark.parametrize("command,key", [(("rep", "verify"), "box_radius"),
                                         (("roots", "info"), "level"),
                                         (("kernel", "heat"), "sector")])
def test_config_key_the_command_does_not_read_exits_schema(tmp_path, capsys, command, key):
    """Config keys are per command: the key of another command's flag is
    refused with one line, not echoed and ignored."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 2}))
    code, out, err = run_err(capsys, *command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: unknown config key {key!r} for {' '.join(command)}\n"


@pytest.mark.parametrize("argv", [
    ("roots", "info", "--type", "A", "--rank", "1", "--no-such-flag"),
    ("roots", "info", "--type", "A", "--rank", "x"),
    ("kernel", "eta", "--k", "2", "--s", "1.0", "--sector", "0", "--generator", "U",
     "--input", "in.json"),
    ("roots",),
    ("wgz", "roundtrip", "--type", "A", "--rank", "1", "--level", "1", "--res", "24"),
], ids=["unknown flag", "rank x", "generator U", "no subcommand", "abbreviated flag"])
def test_argparse_refusal_is_one_line(capsys, argv):
    """A refusal by the parser is one stderr line and exit 2, with nothing
    on stdout, like every other invalid configuration."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _command_parsers():
    """The parser of each (group, command)."""
    groups = _subcommands(build_parser())
    return {(group, name): parser
            for group in groups for name, parser in _subcommands(groups[group]).items()}


def _command_flags():
    """Per (group, command) of the parser, its flags but -h, --config and
    --out, each by its first spelling."""
    return {key: [a.option_strings[0] for a in parser._actions if a.option_strings
                  and a.option_strings[0] not in ("-h", "--config", "--out")]
            for key, parser in _command_parsers().items()}


# per command, an argv that gives an artifact, and per flag one value other
# than the base's or the default
_FLAG_BASE = {
    ("roots", "info"): "--type A --rank 1",
    ("lattice", "enumerate"): "--type A --rank 1 --level 3",
    ("rep", "build"): "--type A --rank 1 --level 3 --sector 0",
    ("rep", "verify"): "--type A --rank 1 --level 3 --sector 0",
    ("wgz", "roundtrip"): "--type A --rank 1 --level 1 --resolution 24 --box-radius 5.0 "
                          "--trials 2",
    ("kernel", "heat"): "--k 2 --s 1.0 --input heat.json",
    ("kernel", "eta"): "--k 2 --s 1.0 --sector 0 --generator S --input eta.json",
    ("kernel", "verify"): "--k 2 --s 1.0 --L 4 --grid-points 201",
    ("compare", "compact"): "--type A --rank 1 --k 3",
}
_FLAG_ALT = {"--type": "G", "--rank": "2", "--level": "4", "--k": "4", "--sector": "1",
             "--convention": "theorem", "--tol": "1e-30", "--resolution": "32",
             "--box-radius": "4.0", "--trials": "3", "--seed": "5", "--s": "2.5",
             "--branch": "flipped", "--sigma": "2i", "--L": "5", "--grid-points": "301",
             "--generator": "T", "--input": "other.json"}


def _flag_inputs(tmp_path, monkeypatch):
    """The sample files that _FLAG_BASE and _FLAG_ALT name, in the working directory."""
    monkeypatch.chdir(tmp_path)
    _sample_file(tmp_path / "heat.json", np.linspace(-6.0, 6.0, 121))
    _sample_file(tmp_path / "eta.json", np.linspace(0.0, 8.0, 81))
    (tmp_path / "other.json").write_text(json.dumps(
        {"y": [i / 10 for i in range(81)], "values": [[1.0 / (1 + i), 0.0] for i in range(81)]}))


def test_every_accepted_flag_is_read(tmp_path, capsys, monkeypatch):
    """For each command of the parser and each of its flags but --config and
    --out, one other value changes the exit code or the artifact outside its
    config echo and checks: no command accepts a setting it ignores."""
    _flag_inputs(tmp_path, monkeypatch)

    def outcome(argv):
        code, out, _ = run_err(capsys, *argv)
        doc = json.loads(out) if out else {}
        doc.pop("config", None)
        doc.pop("checks", None)
        return code, doc

    commands = _command_flags()
    assert commands.keys() == _FLAG_BASE.keys()
    for key, flags in commands.items():
        base = _FLAG_BASE[key].split()
        code, doc = outcome([*key, *base])
        assert code == 0 and doc, key
        for flag in flags:
            alt = _FLAG_ALT[flag]
            argv = [*key, *base]
            if flag in base:
                assert argv[argv.index(flag) + 1] != alt
                argv[argv.index(flag) + 1] = alt
            else:
                argv += [flag, alt]
            assert outcome(argv) != (code, doc), (key, flag)


# the commands whose artifacts hold checks, and the payload flag derived from them
_CHECKED = {("rep", "build"): "verification", ("rep", "verify"): "verification",
            ("wgz", "roundtrip"): None, ("kernel", "verify"): "conjugation",
            ("compare", "compact"): "compact"}


def test_config_echo_is_the_command_and_its_flags(tmp_path, capsys, monkeypatch):
    """Walking _COMMANDS: each artifact's config holds `command` and only
    the command's flags, each flag with a default among them, and only the
    commands with checks write a non-empty `checks`, each check repeating
    the payload value of the key it names."""
    _flag_inputs(tmp_path, monkeypatch)
    parsers = _command_parsers()
    assert parsers.keys() == cli._COMMANDS.keys()
    for key, (_, flags) in cli._COMMANDS.items():
        code, doc = run(capsys, *key, *_FLAG_BASE[key].split())
        assert code == 0, key
        config = doc["config"]
        assert config.pop("command") == " ".join(key)
        read = {a.dest for a in parsers[key]._actions if a.option_strings} - {"help", "config"}
        defaulted = {dest for _, dest, _, default, _ in cli._row(flags) if default is not None}
        assert defaulted <= config.keys() <= read, key
        assert {dest for _, dest, *_ in cli._row(flags)} == read, key
        assert bool(doc["checks"]) == (key in _CHECKED), key
        for check in doc["checks"]:
            assert [check["value"]] == [section[check["name"]] for section in doc.values()
                                        if isinstance(section, dict) and check["name"] in section]
    code, doc = run(capsys, "roots", "info", "--type", "A", "--rank", "1")
    assert doc["config"] == {"command": "roots info", "family": "A", "rank": 1}


@pytest.mark.parametrize("key", _CHECKED, ids=" ".join)
def test_a_check_past_its_bound_exits_1(tmp_path, capsys, monkeypatch, key):
    """Exit 1 exactly when some check's value is at or over its bound: the
    base argv passes every check, and --tol 1e-30 (compare compact, which
    has no --tol: one value patched up to its bound) fails one, the
    payload's `passed` flag with it."""
    _flag_inputs(tmp_path, monkeypatch)
    argv = [*key, *_FLAG_BASE[key].split()]
    code, doc = run(capsys, *argv)
    assert code == 0 and all(c["value"] < c["bound"] for c in doc["checks"])
    if key == ("compare", "compact"):
        real = compactcheck.bridge_checks
        monkeypatch.setattr(compactcheck, "bridge_checks", lambda rep: [
            {**c, "value": c["bound"]} if c["name"] == "residual_T" else c for c in real(rep)])
    else:
        argv += ["--tol", "1e-30"]
    code, doc = run(capsys, *argv)
    assert code == 1 and any(c["value"] >= c["bound"] for c in doc["checks"])
    if _CHECKED[key]:
        assert doc[_CHECKED[key]]["passed"] is False


def test_wgz_roundtrip_gates_quasi_periodicity(capsys):
    """The A2 grid whose round trip and Parseval pass but whose
    quasi-periodicity residual (7.2e-5) does not exits 1 at --tol 1e-6."""
    code, doc = run(capsys, "wgz", "roundtrip", "--type", "A", "--rank", "2", "--level", "1",
                    "--resolution", "3", "--box-radius", "2")
    assert code == 1
    failed = [c["name"] for c in doc["checks"] if not c["value"] < c["bound"]]
    assert failed == ["quasi_periodicity_residual"]
    assert doc["checks"][-1]["value"] == doc["roundtrip"]["quasi_periodicity_residual"]


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


@pytest.mark.parametrize("generator", ["S", "T"])
@pytest.mark.parametrize("sector", [0, 1])
@pytest.mark.parametrize("k, s", [(1, 4157.0), (1, 1e4), (1, -1e4), (2, 999.0), (2, -999.0)])
def test_kernel_eta_at_large_coupling(tmp_path, capsys, k, s, sector, generator):
    """kernel eta is accepted up to the supported |s| = 1e4 k and its
    samples match the hand-derived dense kernel to 1e-12 relative."""
    from cstorus.heatkernel import EtaKernelSpec, GridSamples1D, solve_params
    y = np.linspace(0.0, 5.0, 400)
    vals = (1 + y) * np.exp(-math.pi * y ** 2)
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"y": list(y), "values": [[float(z), 0.0] for z in vals]}))
    code, doc = run(capsys, "kernel", "eta", "--k", str(k), f"--s={s!r}",
                    "--sector", str(sector), "--generator", generator, "--input", str(src))
    assert code == 0
    got = np.array([complex(re, im) for re, im in doc["samples"]["values"]])
    spec = EtaKernelSpec(sector, generator, solve_params(k, s))
    want = _dense_eta_apply(GridSamples1D(y=y, values=vals + 0j), spec)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    cfg.write_text(json.dumps({"family": "A", "rank": 1.0, "level": 2.0, "box_radius": 6}))
    code, doc = run(capsys, "wgz", "roundtrip", "--config", str(cfg))
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
    ("info", 40, 0), ("info", 1000, 3), ("verify", 40, 0), ("verify", 100, 3)])
def test_rank_ceiling(capsys, command, rank, expected):
    """No rank ceiling: `roots info` is refused by its n^2 root data from
    rank 887, a level-1 `rep verify` by the (n + 1) n^2 |Z| steps of its
    Weyl orbits from rank 100, each before anything of that size is built."""
    argv = (("roots", "info") if command == "info"
            else ("rep", "verify", "--level", "1", "--sector", "0"))
    code, out, err = run_err(capsys, *argv, "--type", "A", "--rank", str(rank))
    assert code == expected
    if expected == 3:
        term = "root_data" if command == "info" else "weyl_orbits_ops"
        assert out == "" and err.startswith(f"resource error: A{rank}") and term in err


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


@pytest.fixture(scope="module")
def over_budget_input(tmp_path_factory):
    """A uniform 400 000-point grid on [0, 400) in 9 MB of JSON, over the
    byte budget by its size on disk."""
    path = tmp_path_factory.mktemp("input") / "wide.json"
    path.write_text(json.dumps({"y": [i / 1000 for i in range(400_000)],
                                "values": [[0.0, 0.0]] * 400_000}))
    return path


@pytest.mark.parametrize("command", ["verify", "heat", "eta"])
def test_kernel_grid_over_ceiling_exits_resource(over_budget_input, capsys, command):
    """A grid over the byte budget is refused before any kernel is applied:
    `kernel verify` by its kernels on 10^6 points, `kernel heat` and
    `kernel eta` by the size of their input on disk, before it is parsed."""
    if command == "verify":
        extra, term = ("--L", "1", "--grid-points", str(10 ** 6)), "kernels"
    else:
        extra, term = ("--input", str(over_budget_input)), "kernel_input"
        if command == "eta":
            extra += ("--sector", "0", "--generator", "S")
    start = time.monotonic()
    code, out, err = run_err(capsys, "kernel", command, "--k", "2", "--s", "0.0", *extra)
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1 and f": {term} needs " in err


@pytest.mark.parametrize("grid_points,L", [(1601, 1600), (4096, 1024)])
def test_kernel_verify_basis_over_ceiling_exits_resource(capsys, grid_points, L):
    """L x ceil(N/2) blocks over the byte budget are refused before any
    kernel or block is built (N = 4096 with L = 128 runs: test_resources)."""
    start = time.monotonic()
    code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                             "--L", str(L), "--grid-points", str(grid_points))
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"basis_blocks needs {320 * L * (grid_points + 1) // 2:.3g} bytes" in err


def _not_a_large_grid(n):
    # grid sizes from 202 up to 10^6, over the byte budget, are valid or
    # refused by L; left out to keep the examples small
    return not (isinstance(n, (int, float)) and not isinstance(n, bool)
                and 201 < n < 10 ** 6)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(L=_scalar_or(1, 6, 12), grid_points=_scalar_or(8, 100, 101, 201).filter(_not_a_large_grid),
       box_radius=_scalar_or(4.0, 10.0), s=_scalar_or(0.0, 1.0, -2.5),
       sigma=_scalar_or(None, "1i", "2i", "0.3+1.1i"))
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
    """With a generic sigma every kernel exponent is imaginary, so a huge
    radius, on which the chained quadratures would leave the float range,
    is refused by the one width rule: the rounding eps |c| (2r)^2 of a
    kernel's phase reaches 1.  One line, before any basis block and without
    a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                                 "--L", "1", "--grid-points", "9", "--sigma", "0.3+1.1i",
                                 "--box-radius", "1e100")
        assert code == 2
        assert out == "" and len(err.strip().splitlines()) == 1 and "too wide" in err
        code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                                 "--L", "1", "--grid-points", "9", "--sigma", "0.3+1.1i",
                                 "--box-radius", "100")
    # radius 100 is not refused: a finite artifact (9 points miss the
    # tolerance there, exit 1)
    assert code in (0, 1) and err == ""
    doc = json.loads(out, parse_constant=lambda tok: pytest.fail(f"bare {tok} in JSON"))
    assert math.isfinite(doc["conjugation"]["max_relation_residual"])


def _accepts_radius(radius, sigma):
    try:
        verify_conjugation(2, 1.0, sigma=sigma, L=1, grid_points=9, box_radius=radius)
    except DomainError as exc:
        assert "too wide" in str(exc)
        return False
    return True


@pytest.mark.parametrize("sigma, flag", [(None, ()), (0.3 + 1.1j, ("--sigma", "0.3+1.1i"))],
                         ids=["i b", "0.3+1.1i"])
def test_kernel_verify_widest_accepted_grid_stays_finite(capsys, sigma, flag):
    """On the widest grid the width rule accepts (k = 2, s = 1, 9 points,
    L = 1, found by bisection to 1e-9 relative), every artifact number is
    finite, with no warning and exit 0 or 1: the rule alone keeps every
    chain of quadratures in the float range."""
    lo, hi = 1e6, 1e8
    assert _accepts_radius(lo, sigma) and not _accepts_radius(hi, sigma)
    while hi / lo - 1 > 1e-9:
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if _accepts_radius(mid, sigma) else (lo, mid)
    assert 1e7 <= lo < 1.78e7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "kernel", "verify", "--k", "2", "--s", "1.0",
                                 "--L", "1", "--grid-points", "9", "--box-radius", repr(lo),
                                 *flag)
    assert code in (0, 1) and err == ""
    doc = json.loads(out, parse_constant=lambda tok: pytest.fail(f"bare {tok} in JSON"))

    def numbers(node):
        if isinstance(node, dict):
            return [x for v in node.values() for x in numbers(v)]
        if isinstance(node, list):
            return [x for v in node for x in numbers(v)]
        return [node] if isinstance(node, float) else []
    values = numbers(doc["conjugation"])
    assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("argv", [
    ("--rank", "1", "--resolution", "100000"),
    ("--rank", "3", "--resolution", "16"),       # A3 k=1: 16^6 section samples
    ("--rank", "3"),
])
def test_wgz_grid_over_ceiling_exits_resource(capsys, argv):
    """Refused by its sections or families before any section or family
    array is allocated."""
    start = time.monotonic()
    code, out, err = run_err(capsys, "wgz", "roundtrip", "--type", "A", "--level", "1", *argv)
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert out == "" and re.search(r": (sections|families) needs \S+ bytes of a predicted \S+, "
                                   r"over the budget 2.01e\+08 bytes$", err)
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


def test_kernel_singular_eta_symbol_exits_schema(tmp_path, capsys, monkeypatch):
    """A composed eta whose inner exponent is singular (here forced by
    Mehler symbols with C_m A_p = -pi^2) exits 2 with one line, never with
    a NaN artifact."""
    from cstorus import heatkernel
    monkeypatch.setattr(heatkernel, "_mehler_symbol",
                        lambda *args, **kwargs: (1j * math.pi, 2j, 1j * math.pi, 1.0))
    code, out, err = run_err(capsys, *_kernel_argv(tmp_path, "verify"))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1 and "singular" in err


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


# the resolution cases keep their bare-value ids
@pytest.mark.parametrize("key,value", [("resolution", "-5"), ("resolution", "0"),
                                       ("box_radius", "0"), ("box_radius", "-1")],
                         ids=["-5", "0", "box_radius=0", "box_radius=-1"])
def test_wgz_nonpositive_resolution_exits_schema(capsys, key, value):
    """A resolution below 1 or a box radius not above 0 is an invalid
    configuration (exit 2, one line naming the flag's key), not an artifact
    that records it or a refusal that names the grid fields derived from it."""
    code, out, err = run_err(capsys, "wgz", "roundtrip", "--type", "A", "--rank", "1",
                             "--level", "1", "--" + key.replace("_", "-"), value)
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1 and key in err, err


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


README = Path(SRC).parent / "README.md"


def test_readme_cli_examples_parse():
    """Every `cstorus ...` example in README's sh blocks parses with the
    shared parser, and README's flag table names, per command, the flags the
    parser accepts (but --config and --out) and the ones the command
    requires."""
    text = README.read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    examples = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("cstorus ")]
    assert len(examples) >= 9
    for line in examples:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
    rows = [line.split("|")[1:4] for line in text.splitlines() if line.startswith("| `")]
    documented = {}
    for names, required, read in rows:
        for name in re.findall(r"`([a-z ]+)`", names):
            documented[tuple(name.split())] = (re.findall(r"`(--[a-zA-Z-]+)`", required),
                                               re.findall(r"`(--[a-zA-Z-]+)`", read))
    for key, flags in _command_flags().items():
        required, read = documented.pop(key)
        assert sorted(required + read) == sorted(flags), key
        assert required == [f[:-1] for f in cli._COMMANDS[key][1].split() if f.endswith("!")], key
    assert not documented


def test_ci_workflow_parses():
    """The workflow is YAML that GitHub can load: a step name with an
    unquoted ": " in it makes the whole file invalid."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((Path(SRC).parent / ".github/workflows/tier1.yml").read_text())
    assert all("name" in step or "uses" in step for step in workflow["jobs"]["tests"]["steps"])


@pytest.mark.parametrize("convention,code", [("lemma", 0), ("theorem", 1)])
def test_modular_sweep_exits_1_on_a_failed_row(convention, code):
    """run_modular_sweep.py passes every row in the default convention and
    exits 0; the rejected theorem convention fails rows and exits 1."""
    script = Path(SRC).parent / "scripts" / "run_modular_sweep.py"
    done = _python(str(script), "--convention", convention)
    assert done.returncode == code, done.stderr
    assert ("FAIL" in done.stdout) == bool(code)
    assert done.stdout.splitlines()[0].split()[-1] == "Milgram"


@pytest.mark.parametrize("levels,code", [(["6", "12"], 0), (["6", "96"], 1)])
def test_truncation_sweep_exits_1_on_a_failed_row(levels, code):
    """run_truncation_sweep.py marks a row FAIL where its report has
    `passed` false, L = 96 on the default 1601-point grid of radius 10
    (faithful relations ~1e-2, over 10 x 1e-5), and then exits 1."""
    script = Path(SRC).parent / "scripts" / "run_truncation_sweep.py"
    done = _python(str(script), "--levels", *levels)
    assert done.returncode == code, done.stderr
    rows = done.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows if row.endswith("FAIL")] == levels[1:] * code


def test_compact_bridge_script_runs_rank_five():
    """run_compact_bridge.py passes every case, A5 and D5 at k = 1 among
    them, and exits 0."""
    done = _python(str(Path(SRC).parent / "scripts" / "run_compact_bridge.py"))
    assert done.returncode == 0, done.stderr
    rows = [row.split() for row in done.stdout.splitlines()[1:]]
    assert [row[:3] for row in rows if row[1] == "5"] == [["A", "5", "1"], ["D", "5", "1"]]
    assert not any("FAIL" in row for row in rows)


def test_modular_sweep_fails_a_row_on_its_milgram_residual(monkeypatch, capsys):
    """A Milgram residual above 1e-12 fails its (type, k) rows, and only
    those, and the sweep returns 1, though every relation passes."""
    spec = importlib.util.spec_from_file_location(
        "run_modular_sweep", Path(SRC).parent / "scripts" / "run_modular_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    milgram = sweep.milgram_residual
    monkeypatch.setattr(sweep, "SWEEP", [("A", 1, 3)])
    monkeypatch.setattr(sweep, "milgram_residual",
                        lambda rs, k: 2e-12 if k == 2 else milgram(rs, k))
    monkeypatch.setattr(sys, "argv", ["run_modular_sweep.py"])
    assert sweep.main() == 1
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split()[2] for row in rows if row.endswith("FAIL")] == ["2", "2"]
    assert len(rows) == 6


@pytest.mark.parametrize("rank,k,dim", [(1, 5000, 5001), (2, 60, 1891), (3, 19, 1540)])
def test_compare_compact_over_dimension_ceiling_exits_resource(capsys, rank, k, dim):
    """The sector's dimension at level k + h is charged from the alcove
    count before Z or the oracle allocates anything of that size."""
    start = time.monotonic()
    code, out, err = run_err(capsys, "compare", "compact", "--type", "A",
                             "--rank", str(rank), "--k", str(k))
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"sector_matrices needs {100 * dim * dim:.3g} bytes" in err


@pytest.mark.parametrize("fam,rank,order", [("A", 5, 100842), ("D", 5, 236196),
                                            ("E", 6, 14480427)])
def test_compare_compact_past_the_quotient_ceiling_exits_resource(capsys, fam, rank, order):
    """The bridge has no rank ceiling: at k = 1 the orbits of the quotient
    at level k + h set its cost.  A5 and D5 pass; E6, with 7 x 64 bytes for
    each of its 14 480 427 points, exits 3 with one line naming the term."""
    code, out, err = run_err(capsys, "compare", "compact", "--type", fam,
                             "--rank", str(rank), "--k", "1")
    if fam != "E":
        assert code == 0 and err == "" and json.loads(out)["compact"]["passed"]
        return
    assert code == 3
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"weyl_orbits needs {64 * 7 * order:.3g} bytes" in err


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


@pytest.mark.parametrize("level,code", [(8.98846567431158e+307, 2), (K_MAX * 2, 2),
                                        (int(K_MAX), 0)])
def test_kernel_verify_level_at_k_max(tmp_path, capsys, level, code):
    """kernel verify refuses a level past K_MAX, where 4k or the spectrum
    2k(l + 1/2) of its basis overflows, with exit 2 and one stderr line,
    and runs at K_MAX with no warning and a finite artifact."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": level, "s": 0.0, "L": 4, "grid_points": 101}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_err(capsys, "kernel", "verify", "--config", str(cfg))
    assert got[0] == code
    _exit_contract(*got)


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
       rank=_scalar_or(1, 2, 3).filter(_quick_or_refused(3, 1000)),
       level=_scalar_or(1, 2, 3, 10 ** 6).filter(_quick_or_refused(3, 10 ** 6)))
def test_lattice_scalars_keep_the_exit_contract(tmp_path, capsys, family, rank, level):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": family, "rank": rank, "level": level}))
    _exit_contract(*run_err(capsys, "lattice", "enumerate", "--config", str(cfg)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=_scalar_or("A", "D", "B"),
       rank=_scalar_or(1, 2, 3).filter(_quick_or_refused(3, 1000)),
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
# 2^1023: 2k overflowed in solve_params, a traceback and exit 1
@example(command="heat", level=8.98846567431158e+307, s=0.0, branch="principal", sector=0,
         generator="S", radius=1.0)
@example(command="eta", level=8.98846567431158e+307, s=0.0, branch="principal", sector=0,
         generator="S", radius=1.0)
def test_kernel_apply_scalars_keep_the_exit_contract(tmp_path, capsys, command, level, s,
                                                     branch, sector, generator, radius):
    """kernel heat/eta under any JSON scalar for their fields, on a 41-point
    grid of any width, keep the exit contract without a warning."""
    src = tmp_path / "in.json"
    y = np.linspace(0.0 if command == "eta" else -radius, radius, 41)
    src.write_text(json.dumps({"y": list(y), "values": [[1.0, 0.5]] * len(y)}))
    fields = {"level": level, "s": s, "branch": branch, "input": str(src)}
    if command == "eta":
        fields.update(sector=sector, generator=generator)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _exit_contract(*run_err(capsys, "kernel", command, "--config", str(cfg)))


# -- the artifact writer, byte for byte against json.dumps ---------------------

def _json_reference(o):
    """json.dumps(indent=2, sort_keys=True, allow_nan=False) of o, with each
    complex array spelled out as the nested [re, im] lists the CLI once built."""
    def plain(x):
        if isinstance(x, np.ndarray):
            return plain(x.tolist())
        if isinstance(x, complex):
            return [x.real, x.imag]
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        return x
    return json.dumps(plain(o), indent=2, sort_keys=True, allow_nan=False)


@pytest.fixture
def artifacts(monkeypatch):
    """The texts the CLI writes, each checked against json.dumps of its document."""
    texts = []

    def checked(doc):
        pieces = artifact_pieces(doc)
        text = "".join(pieces)
        assert text == _json_reference(doc)
        texts.append(text)
        return pieces
    monkeypatch.setattr(cli, "artifact_pieces", checked)
    return texts


def _sample_file(path, y):
    path.write_text(json.dumps({"y": list(y),
                                "values": [[math.exp(-math.pi * t * t), 0.25 * t] for t in y]}))
    return str(path)


def _benchmark_commands(tmp_path):
    """The command list of the benchmark's CLI workload (cli_small)."""
    heat = _sample_file(tmp_path / "heat.json", np.linspace(-6.0, 6.0, 201))
    eta = _sample_file(tmp_path / "eta.json", np.linspace(0.0, 8.0, 201))
    cmds = [["roots", "info", "--type", f, "--rank", str(n)]
            for f, n in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                         ("C", 2), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]]
    cmds += [["lattice", "enumerate", "--type", f, "--rank", str(n), "--level", str(k)]
             for f, n, k in [("A", 1, 3), ("A", 2, 2), ("B", 2, 2), ("G", 2, 2)]]
    cmds += [["rep", c, "--type", f, "--rank", str(n), "--level", str(k), "--sector", str(s)]
             for c, f, n, k, s in [("build", "A", 1, 2, 1), ("build", "A", 1, 3, 0),
                                   ("build", "A", 2, 3, 0), ("build", "B", 2, 2, 1),
                                   ("verify", "A", 1, 5, 0), ("verify", "A", 2, 4, 1),
                                   ("verify", "G", 2, 2, 0)]]
    cmds.append(["rep", "verify", "--type", "A", "--rank", "2", "--level", "2",
                 "--sector", "0", "--convention", "theorem"])
    cmds += [["compare", "compact", "--type", f, "--rank", str(n), "--k", str(k)]
             for f, n, k in [("A", 1, 3), ("A", 1, 5), ("A", 2, 2)]]
    cmds += [["kernel", "heat", "--k", "2", "--s", s, "--input", heat] for s in ("0.0", "1.0")]
    cmds += [["kernel", "eta", "--k", "2", "--s", "0.0", "--sector", str(sector),
              "--generator", g, "--input", eta] for sector in (0, 1) for g in ("S", "T")]
    cmds.append(["kernel", "verify", "--k", "2", "--s", "1.0", "--L", "6",
                 "--grid-points", "401"])
    cmds.append(["wgz", "roundtrip", "--type", "A", "--rank", "1", "--level", "1",
                 "--resolution", "24", "--box-radius", "5.0", "--trials", "3", "--seed", "7"])
    return cmds


def test_benchmark_commands_write_json_dumps_bytes(tmp_path, capsys, artifacts):
    """Every artifact command of the benchmark workload prints exactly
    json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) and a newline;
    the two refused commands print nothing."""
    cmds = _benchmark_commands(tmp_path)
    for argv in cmds:
        code, out, err = run_err(capsys, *argv)
        assert code in (0, 1), (argv, err)
        assert out == artifacts[-1] + "\n", argv
    for argv in (["roots", "info", "--type", "E", "--rank", "2"],
                 ["lattice", "enumerate", "--type", "A", "--rank", "1"]):
        code, out, _ = run_err(capsys, *argv)
        assert code == 2 and out == ""
    assert len(artifacts) == len(cmds)


def test_out_file_holds_the_printed_bytes(tmp_path, capsys, artifacts):
    path = tmp_path / "rep.json"
    assert main(["rep", "build", "--type", "A", "--rank", "2", "--level", "2",
                 "--sector", "0", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == artifacts[-1] + "\n"


def test_zero_dimensional_sector_writes_empty_matrices(capsys, artifacts):
    code, out, _ = run_err(capsys, "rep", "build", "--type", "A", "--rank", "1",
                           "--level", "1", "--sector", "1")
    assert code == 0 and out == artifacts[-1] + "\n"
    doc = json.loads(out)
    assert doc["matrices"]["S"] == doc["matrices"]["T"] == []
    assert '"S": [],' in out and '"T": [],' in out


@pytest.mark.parametrize("z", [
    np.array([[1 + 2j]]),
    np.array([[0.5 - 0.0j, -0.0 + 1e16j], [5e-324 - 1j, 1 / 3 + 2 ** -1074 * 1j]]),
    np.array([[0.5, 1j], [2, 3]], dtype=complex).T,       # not C-contiguous
    np.array([1j, -2.5]),
    np.zeros(0, dtype=complex),
    np.zeros((0, 0), dtype=complex),
    np.zeros((2, 0), dtype=complex),
    np.arange(12).reshape(2, 3, 2) * (1 + 0.5j),
], ids=["1x1", "2x2", "transposed", "vector", "empty", "0x0", "2x0", "2x3x2"])
def test_complex_arrays_write_their_re_im_pairs(z):
    for doc in (z, {"m": z, "n": [z, {"z": z}]}):
        assert artifact_text(doc) == _json_reference(doc)


_SCALARS = (st.none() | st.booleans()
            | st.integers(-2 ** 70, 2 ** 70) | st.sampled_from([2 ** 63, 2 ** 64 + 1, -2 ** 63 - 1])
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 1.5e300])
            | st.text() | st.sampled_from(["é", "ключ", "\u2028", "\ud800", "\x00\x1f", '"\\/\n\t']))
_KEYS = st.text() | st.sampled_from(["", "é", "\ud83d\ude00", "a\"b", "\n"])
_TREES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                  | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1)
                  | st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(tree=_TREES)
def test_artifact_text_is_json_dumps(tree):
    assert artifact_text(tree) == json.dumps(tree, indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["top", "float list", "pair row", "dict value"])
def test_non_finite_float_is_refused_in_every_position(bad, where):
    doc = {"top": bad,
           "float list": [1.0, 2.0, bad, math.nan],
           "pair row": np.array([[1.0, complex(0.5, bad)], [math.nan, 0]]),
           "dict value": {"a": [1, "b"], "c": {"d": bad}}}[where]
    with pytest.raises(ValueError) as got:
        artifact_text(doc)
    with pytest.raises(ValueError) as want:
        _json_reference(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("where", ["top", "float list", "pair row", "dict value"])
def test_non_finite_artifact_value_exits_schema_and_writes_nothing(tmp_path, capsys,
                                                                   monkeypatch, where):
    payload = {"top": math.inf,
               "float list": {"x": [0.5, -math.inf]},
               "pair row": {"x": np.array([[1j, complex(math.nan, 0)]])},
               "dict value": {"x": {"y": {"z": math.nan}}}}[where]
    monkeypatch.setattr(cli, "enumerate_report", lambda rs, k: payload)
    path = tmp_path / "out.json"
    argv = ["lattice", "enumerate", "--type", "A", "--rank", "1", "--level", "2"]
    for extra in ([], ["--out", str(path)]):
        code, out, err = run_err(capsys, *argv, *extra)
        assert code == 2 and out == "" and "non-finite" in err
        assert len(err.strip().splitlines()) == 1
    assert not path.exists()

"""Command-line entry point: root-system info, lattice enumeration, sector
matrix construction and verification, transform round-trip reports, heat and
conjugated-generator kernels, and the compact-theory comparison.

One table, `_COMMANDS`, gives each command's runner and the flags it reads
(required, or with a default of its own); `_FLAGS` gives each flag's type
and any other default.  The parser, the config keys, the requirement check
and the dispatch are built from them.  A runner returns its payload and its
checks (name, value, bound); `main` writes the artifact.

Artifacts are deterministic JSON embedding the command's resolved flags,
the library version and the checks.  Exit codes: 0 success, 1 some check's
value at or over its bound, 2 invalid configuration or domain (argparse
refusals among them, one stderr line each), 3 over a resource budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import (CSTorusError, ResourceLimitError, SchemaError, checks_below, require,
                     within_bounds)
from .finrep import Convention, rep_matrices, sector_dimension, verify_sl2z
from .lattice import enumerate_report
from .roots import LieType, build_root_system

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_SCHEMA = 2
EXIT_RESOURCE = 3


def _merge_config(args: argparse.Namespace, command: str, flags: str) -> dict:
    """Each of the command's flags that has a value: the command line's,
    else the config file's, else its default. A config key for no flag of
    the command, or a required flag left unset, is an invalid
    configuration; a JSON null leaves a flag without a default unset."""
    given = vars(args)
    base = {}
    if "config" in given:
        # ValueError covers malformed JSON and an integer literal past
        # Python's int-from-string digit limit
        try:
            with open(given["config"]) as fh:
                base = json.load(fh)
        except (OSError, ValueError) as e:
            raise SchemaError(f"cannot read config file {given['config']}: {e}")
        if not isinstance(base, dict):
            raise SchemaError("config file must contain a JSON object")
    row = _row(flags)
    known = {"command", *(key for _, key, *_ in row)}
    for key in base:
        if key not in known:
            raise SchemaError(f"unknown config key {key!r} for {command}")
    cfg, missing = {}, []
    for flag, key, kind, default, required in row:
        val = given.get(key, base.get(key, default))
        if val is not None or default is not None:
            cfg[key] = _checked(key, kind, val)
        elif required:
            missing.append(flag)
    if missing:
        raise SchemaError(f"{command} requires {' and '.join(missing)}")
    return cfg


_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _checked(key: str, kind: type, val):
    """`val` as the flag's type: an int flag takes an integral number, a
    float flag a finite number, a str flag a string."""
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    finite = number and abs(val) <= sys.float_info.max
    if kind is str and isinstance(val, str):
        return val
    if kind is int and number and (isinstance(val, int) or finite and val == int(val)):
        return int(val)
    if kind is float and finite:
        return float(val)
    raise SchemaError(f"{key} must be {_KINDS[kind]}, got {val!r}")


def _root_system(cfg: dict):
    return build_root_system(LieType(cfg["family"], cfg["rank"]))


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise SchemaError(f"cannot parse complex number {text!r}")


_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _finite(texts: list) -> list:
    """The float texts, or ValueError at the first non-finite one, as json raises it."""
    if not _NON_FINITE.isdisjoint(texts):
        bad = next(t for t in texts if t in _NON_FINITE)
        raise ValueError(f"Out of range float values are not JSON compliant: {bad}")
    return texts


def _write_items(items, write, out: list, nl: str) -> None:
    """A non-empty list, each item appended by write(item, out, nl) one level deeper."""
    inner = nl + "  "
    sep = "[" + inner
    for item in items:
        out.append(sep)
        write(item, out, inner)
        sep = "," + inner
    out.append(nl + "]")


def _write_pairs(z: np.ndarray, out: list, nl: str) -> None:
    """A C-contiguous complex array as nested lists of [re, im] pairs, one
    join per row of its last axis."""
    if len(z) == 0:
        out.append("[]")
    elif z.ndim > 1:
        _write_items(z, _write_pairs, out, nl)
    else:
        # between two pairs the text is "],[" across newlines, inside a
        # pair a comma and a newline
        inner = nl + "  "
        leaf = inner + "  "
        texts = iter(_finite(list(map(float.__repr__, z.view(float).tolist()))))
        pairs = map(("," + leaf).join, zip(texts, texts))
        out.append("[" + inner + "[" + leaf + (inner + "]," + inner + "[" + leaf).join(pairs)
                   + inner + "]" + nl + "]")


def _write(o, out: list, nl: str) -> None:
    """Append to out the text that json.dumps(o, indent=2, sort_keys=True,
    allow_nan=False) gives o at the depth whose newline and indent is nl;
    a complex ndarray is written as the nested [re, im] lists of its entries.
    A non-finite float raises ValueError, as in json."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_finite([float.__repr__(o)])[0])
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(o[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        try:
            texts = _finite(list(map(float.__repr__, o)))
        except TypeError:       # not all floats
            _write_items(o, _write, out, nl)
            return
        inner = nl + "  "
        out.append("[" + inner + ("," + inner).join(texts) + nl + "]")
    elif isinstance(o, np.ndarray) and o.dtype == complex and o.ndim:
        _write_pairs(np.ascontiguousarray(o), out, nl)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def artifact_pieces(doc) -> list:
    """The pieces of json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False), byte for byte once joined, for the JSON types and
    complex ndarrays. json's `indent` runs its pure-Python encoder one value
    at a time; here a list of floats is one join, and an array is written
    from its tolist() rows, one piece per row."""
    out = []
    _write(doc, out, "\n")
    return out


def _emit(config: dict, payload: dict, checks: list) -> None:
    """Build and check every piece, then write them and a newline to --out
    or stdout unjoined, so the text is held once."""
    doc = {"config": config, "version": __version__, **payload, "checks": checks}
    try:
        pieces = artifact_pieces(doc)
    except ValueError as e:
        raise SchemaError(f"artifact would contain a non-finite number: {e}")
    pieces.append("\n")
    if "out" in config:
        try:
            with open(config["out"], "w") as fh:
                fh.writelines(pieces)
        except OSError as e:
            raise SchemaError(f"cannot write the artifact to {config['out']}: {e}")
    else:
        sys.stdout.writelines(pieces)


def _load_samples(path: str):
    """The samples of a kernel input, charged at 32 bytes a byte on disk before
    it is parsed: a point costs 300-500 bytes and ~20 in short decimals."""
    from .heatkernel import GridSamples1D, check_uniform_grid
    try:
        require(path, kernel_input=32 * os.path.getsize(path))
        with open(path) as fh:
            doc = json.load(fh)
        y = np.asarray(doc["y"], dtype=float)
        vals = np.asarray([complex(re, im) for re, im in doc["values"]])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read grid samples from {path}: {e}")
    return GridSamples1D(y=check_uniform_grid(y), values=vals)


def _samples_payload(apply, cfg: dict, *args):
    """The payload and checks of apply(samples of --input, *args). An input
    near the float range overflows to non-finite values, which the artifact
    writer refuses (exit 2), so numpy's warnings are silenced around it."""
    samples = _load_samples(cfg["input"])
    with np.errstate(all="ignore"):
        g = apply(samples, *args)
    return {"samples": {"y": g.y.tolist(), "values": g.values,
                        "truncation_error": g.truncation_error}}, []


def _roots_info(cfg: dict):
    return {"roots": _root_system(cfg).summary()}, []


def _lattice_enumerate(cfg: dict):
    return {"lattice": enumerate_report(_root_system(cfg), cfg["level"])}, []


def _rep(cfg: dict, verify_only: bool):
    rs, k, sector = _root_system(cfg), cfg["level"], cfg["sector"]
    if not verify_only:     # S and its text: 16 + ~86 bytes an entry, 105-112 by VmHWM
        dim = sector_dimension(rs, k, sector)
        require(f"{rs.lie_type}, k={k}", sector_matrices=120 * dim * dim)
    mats = rep_matrices(rs, k, sector, convention=Convention.from_name(cfg["convention"]))
    rep = verify_sl2z(mats, tol=cfg["tol"])
    matrices = {} if verify_only else {"matrices": mats.to_json_dict()}
    return {"verification": rep.to_json_dict(), **matrices}, rep.checks


def _wgz_roundtrip(cfg: dict):
    from .wgz import roundtrip_report
    rep = roundtrip_report(_root_system(cfg), cfg["level"], cfg["resolution"],
                           cfg["box_radius"], trials=cfg["trials"], seed=cfg["seed"])
    return {"roundtrip": rep}, checks_below(cfg["tol"], **{key: rep[key] for key in (
        "roundtrip_residual", "parseval_relative_error", "quasi_periodicity_residual")})


def _kernel_params(cfg: dict) -> dict:
    """The k, s and branch keywords of solve_params and verify_conjugation;
    the kernel commands are rank one, so --type and --rank may only name A1."""
    family, rank = cfg.get("family"), cfg.get("rank")
    if family not in (None, "A") or rank not in (None, 1):
        raise SchemaError(f"kernel commands support type A rank 1 only, "
                          f"got type {family} rank {rank}")
    return {"k": cfg["level"], "s": cfg["s"], "branch": cfg["branch"]}


def _kernel_heat(cfg: dict):
    from .heatkernel import heat_apply, solve_params
    kernel = _kernel_params(cfg)        # refuses a type other than A1 before the input is read
    return _samples_payload(heat_apply, cfg, solve_params(**kernel))


def _kernel_eta(cfg: dict):
    from .heatkernel import EtaKernelSpec, eta_apply, solve_params
    spec = EtaKernelSpec(sector=cfg["sector"], generator=cfg["generator"],
                         params=solve_params(**_kernel_params(cfg)))
    return _samples_payload(eta_apply, cfg, spec)


def _kernel_verify(cfg: dict):
    from .heatkernel import conjugation_checks, verify_conjugation
    rep = verify_conjugation(**_kernel_params(cfg),
                             sigma=_parse_complex(cfg["sigma"]) if cfg.get("sigma") else None,
                             L=cfg["L"], tol=cfg["tol"], grid_points=cfg["grid_points"],
                             box_radius=cfg["box_radius"])
    return {"conjugation": rep}, conjugation_checks(rep)


def _compare_compact(cfg: dict):
    from .compactcheck import bridge_checks, compare_shifted
    rep = compare_shifted(_root_system(cfg), cfg["level"],
                          convention=Convention.from_name(cfg["convention"]))
    return {"compact": rep}, bridge_checks(rep)


# (group, command): its runner and the flags it reads, a required one marked
# "!" and a default of the command's own given after "=". Every command also
# reads --config and --out.
_REP_FLAGS = "--type! --rank! --level! --sector! --convention --tol=1e-10"
_COMMANDS = {
    ("roots", "info"): (_roots_info, "--type! --rank!"),
    ("lattice", "enumerate"): (_lattice_enumerate, "--type! --rank! --level!"),
    ("rep", "build"): (lambda cfg: _rep(cfg, verify_only=False), _REP_FLAGS),
    ("rep", "verify"): (lambda cfg: _rep(cfg, verify_only=True), _REP_FLAGS),
    ("wgz", "roundtrip"): (_wgz_roundtrip, "--type! --rank! --level! --resolution "
                           "--box-radius --trials --seed --tol=1e-6"),
    ("kernel", "heat"): (_kernel_heat, "--type --rank --k! --s! --branch --input!"),
    ("kernel", "eta"): (_kernel_eta, "--type --rank --k! --s! --branch --sector! "
                        "--generator! --input!"),
    ("kernel", "verify"): (_kernel_verify, "--type --rank --k! --s! --branch --sigma --L "
                           "--grid-points --box-radius --tol=1e-5"),
    ("compare", "compact"): (_compare_compact, "--type! --rank! --k! --convention"),
}

_GROUPS = {"roots": "root-system inspection", "lattice": "quotient and alcove enumeration",
           "rep": "finite sector matrices", "wgz": "lattice transform checks",
           "kernel": "heat and conjugated generator kernels", "compare": "compact-theory bridge"}

_LEVEL = {"dest": "level", "type": int, "help": "level"}
# add_argument's keywords per flag, "default" the value taken when neither
# the command line nor the config file sets it; --level and --k are one
# flag, spelt first as the table names it
_FLAGS = {
    "--config": {"help": "JSON config file; explicit flags supersede it"},
    "--out": {"help": "write the JSON artifact here instead of stdout"},
    "--type": {"dest": "family", "help": "Lie family letter, e.g. A"},
    "--level": _LEVEL, "--k": _LEVEL,
    **{flag: {"type": int, "default": default} for flag, default in [
        ("--rank", None), ("--sector", None), ("--resolution", 256), ("--trials", 20),
        ("--seed", 0), ("--L", 12), ("--grid-points", 1601)]},
    **{flag: {"type": float, "default": default} for flag, default in [
        ("--s", None), ("--tol", None), ("--box-radius", 6.0)]},
    "--sigma": {}, "--input": {},
    "--convention": {"choices": ["lemma", "theorem"], "default": "lemma"},
    "--branch": {"choices": ["principal", "flipped"], "default": "principal"},
    "--generator": {"choices": ["S", "T"]},
}
_ALIASES = {"--level": ("--k",), "--k": ("--level",)}


def _row(flags: str) -> list:
    """(flag, config key, type, default, required) per flag of a table row
    and --out."""
    row = []
    for entry in [*flags.split(), "--out"]:
        flag, _, default = entry.rstrip("!").partition("=")
        kw = _FLAGS[flag]
        kind = kw.get("type", str)
        row.append((flag, kw.get("dest", flag[2:].replace("-", "_")), kind,
                    kind(default) if default else kw.get("default"), entry.endswith("!")))
    return row


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusal is one stderr line and exit 2;
    add_subparsers gives the subcommand parsers the same class."""

    def error(self, message):
        self.exit(EXIT_SCHEMA, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from `_COMMANDS` on the first call and
    shared after it: a parser holds no state between parse_args calls, and
    building one costs far more than parsing with it. An unset flag is
    left out of the namespace, for the config file or its default to fill."""
    parser = _Parser(
        prog="cstorus",
        description="Exact and numerical genus-one quantum representation toolkit")
    groups = parser.add_subparsers(dest="command_group", required=True)
    commands = {}
    for (group, name), (_, flags) in _COMMANDS.items():
        if group not in commands:
            commands[group] = groups.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="command", required=True)
        q = commands[group].add_parser(name, allow_abbrev=False)
        for flag in ["--config", *(flag for flag, *_ in _row(flags))]:
            q.add_argument(flag, *_ALIASES.get(flag, ()),
                           **{**_FLAGS[flag], "default": argparse.SUPPRESS})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    key = (args.command_group, args.command)
    run, flags = _COMMANDS[key]
    command = " ".join(key)
    try:
        cfg = _merge_config(args, command, flags)
        payload, checks = run(cfg)
        _emit({"command": command, **cfg}, payload, checks)
        return EXIT_OK if within_bounds(checks) else EXIT_TOLERANCE
    except ResourceLimitError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except CSTorusError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())

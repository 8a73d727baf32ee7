"""Command-line entry point: root-system info, lattice enumeration, sector
matrix construction and verification, transform round-trip reports, heat and
conjugated-generator kernels, and the compact-theory comparison.

One table, `_COMMANDS`, gives each command's runner, the flags it reads
and which of them it requires; the parser, the config keys a command
accepts, the requirement check and the dispatch are built from it.  A
runner returns (payload, passed); `main` writes the artifact.

All artifacts are deterministic JSON embedding the resolved configuration and
the library version.  Exit codes: 0 success, 1 tolerance failure, 2 invalid
configuration or domain (argparse refusals among them, one stderr line each),
3 resource ceiling exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from . import __version__
from .errors import (CSTorusError, ResourceLimitError, SchemaError,
                     ToleranceError)
from .finrep import Convention, rep_matrices, verify_sl2z
from .lattice import enumerate_report
from .roots import LieType, build_root_system

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_SCHEMA = 2
EXIT_RESOURCE = 3


@dataclasses.dataclass
class RunConfig:
    """Resolved configuration of one CLI run; fully serializable."""
    command: str
    family: Optional[str] = None
    rank: Optional[int] = None
    level: Optional[int] = None
    sector: Optional[int] = None
    convention: str = "lemma"
    s: Optional[float] = None
    sigma: Optional[str] = None
    branch: str = "principal"
    L: int = 12
    resolution: int = 256
    box_radius: float = 6.0
    grid_points: int = 1601
    trials: int = 20
    seed: int = 0
    generator: Optional[str] = None
    tol: Optional[float] = None
    input: Optional[str] = None
    out: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


def _merge_config(args: argparse.Namespace, command: str, flags: list) -> RunConfig:
    """Start from a config file if given; explicit flags supersede it. A
    config key for no flag of the command, or a required flag ("!") left
    unset, is an invalid configuration."""
    base = {}
    if args.config:
        # ValueError covers malformed JSON and an integer literal past
        # Python's int-from-string digit limit
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, ValueError) as e:
            raise SchemaError(f"cannot read config file {args.config}: {e}")
        if not isinstance(base, dict):
            raise SchemaError("config file must contain a JSON object")
    cfg = RunConfig(command=command)
    keys = [_dest(flag) for flag in flags]
    for key, val in base.items():
        if key == "command":
            continue
        if key not in keys:
            raise SchemaError(f"unknown config key {key!r} for {command}")
        setattr(cfg, key, val)
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            setattr(cfg, key, val)
    for f in dataclasses.fields(RunConfig):
        setattr(cfg, f.name, _checked(f.name, f.type, getattr(cfg, f.name)))
    missing = [flag[:-1] for flag in flags
               if flag.endswith("!") and getattr(cfg, _dest(flag)) is None]
    if missing:
        raise SchemaError(f"{command} requires {' and '.join(missing)}")
    return cfg


_KINDS = {"int": "an integer", "float": "a finite number", "str": "a string"}


def _checked(key: str, declared: str, val):
    """`val` as the declared RunConfig type: an int field takes an integral
    number, a float field a finite number, a str field a string."""
    kind = declared.removeprefix("Optional[").rstrip("]")
    if val is None and kind != declared:
        return None
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    finite = number and abs(val) <= sys.float_info.max
    if kind == "str" and isinstance(val, str):
        return val
    if kind == "int" and number and (isinstance(val, int) or finite and val == int(val)):
        return int(val)
    if kind == "float" and finite:
        return float(val)
    raise SchemaError(f"{key} must be {_KINDS[kind]}, got {val!r}")


def _root_system(cfg: RunConfig):
    return build_root_system(LieType(cfg.family, cfg.rank))


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


def _emit(cfg: RunConfig, payload: dict) -> None:
    """Build and check every piece, then write them and a newline to --out
    or stdout unjoined, so the text is held once."""
    doc = {"config": cfg.to_json_dict(), "version": __version__}
    doc.update(payload)
    try:
        pieces = artifact_pieces(doc)
    except ValueError as e:
        raise SchemaError(f"artifact would contain a non-finite number: {e}")
    pieces.append("\n")
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.writelines(pieces)
        except OSError as e:
            raise SchemaError(f"cannot write the artifact to {cfg.out}: {e}")
    else:
        sys.stdout.writelines(pieces)


def _load_samples(path: str):
    from .heatkernel import GridSamples1D, check_uniform_grid
    try:
        with open(path) as fh:
            doc = json.load(fh)
        y = np.asarray(doc["y"], dtype=float)
        vals = np.asarray([complex(re, im) for re, im in doc["values"]])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read grid samples from {path}: {e}")
    return GridSamples1D(y=check_uniform_grid(y), values=vals)


def _samples_payload(g) -> dict:
    return {
        "y": g.y.tolist(),
        "values": g.values,
        "truncation_error": g.truncation_error,
    }


def _roots_info(cfg: RunConfig):
    return {"roots": _root_system(cfg).summary()}, True


def _lattice_enumerate(cfg: RunConfig):
    return {"lattice": enumerate_report(_root_system(cfg), cfg.level)}, True


def _rep(cfg: RunConfig, verify_only: bool):
    mats = rep_matrices(_root_system(cfg), cfg.level, cfg.sector,
                        convention=Convention.from_name(cfg.convention))
    rep = verify_sl2z(mats, tol=cfg.tol if cfg.tol is not None else 1e-10)
    payload = {"verification": rep.to_json_dict()}
    if not verify_only:
        payload["matrices"] = mats.to_json_dict()
    return payload, rep.passed


def _wgz_roundtrip(cfg: RunConfig):
    from .wgz import roundtrip_report
    rep = roundtrip_report(_root_system(cfg), cfg.level, cfg.resolution, cfg.box_radius,
                           trials=cfg.trials, seed=cfg.seed)
    tol = cfg.tol if cfg.tol is not None else 1e-6
    return {"roundtrip": rep}, (rep["roundtrip_residual"] < tol
                                and rep["parseval_relative_error"] < tol)


def _kernel_params(cfg: RunConfig) -> dict:
    """The k, s and branch keywords of solve_params and verify_conjugation;
    the kernel commands are rank one, so --type and --rank may only name A1."""
    if cfg.family not in (None, "A") or cfg.rank not in (None, 1):
        raise SchemaError(f"kernel commands support type A rank 1 only, "
                          f"got type {cfg.family} rank {cfg.rank}")
    return {"k": cfg.level, "s": cfg.s, "branch": cfg.branch}


def _kernel_heat(cfg: RunConfig):
    from .heatkernel import heat_apply, solve_params
    kernel = _kernel_params(cfg)        # refuses a type other than A1 before the input is read
    g = heat_apply(_load_samples(cfg.input), solve_params(**kernel))
    return {"samples": _samples_payload(g)}, True


def _kernel_eta(cfg: RunConfig):
    from .heatkernel import EtaKernelSpec, eta_apply, solve_params
    spec = EtaKernelSpec(sector=cfg.sector, generator=cfg.generator,
                         params=solve_params(**_kernel_params(cfg)))
    return {"samples": _samples_payload(eta_apply(_load_samples(cfg.input), spec))}, True


def _kernel_verify(cfg: RunConfig):
    from .heatkernel import verify_conjugation
    rep = verify_conjugation(**_kernel_params(cfg),
                             sigma=_parse_complex(cfg.sigma) if cfg.sigma else None,
                             L=cfg.L, tol=cfg.tol if cfg.tol is not None else 1e-5,
                             grid_points=cfg.grid_points, box_radius=cfg.box_radius)
    return {"conjugation": rep}, rep["passed"]


def _compare_compact(cfg: RunConfig):
    from .compactcheck import compare_shifted
    rep = compare_shifted(_root_system(cfg), cfg.level,
                          convention=Convention.from_name(cfg.convention))
    return {"compact": rep}, rep["passed"]


# (group, command): its runner and the flags it reads, a required one marked
# "!". Every command also reads --config and --out.
_REP_FLAGS = "--type! --rank! --level! --sector! --convention --tol"
_COMMANDS = {
    ("roots", "info"): (_roots_info, "--type! --rank!"),
    ("lattice", "enumerate"): (_lattice_enumerate, "--type! --rank! --level!"),
    ("rep", "build"): (lambda cfg: _rep(cfg, verify_only=False), _REP_FLAGS),
    ("rep", "verify"): (lambda cfg: _rep(cfg, verify_only=True), _REP_FLAGS),
    ("wgz", "roundtrip"): (_wgz_roundtrip, "--type! --rank! --level! --resolution "
                           "--box-radius --trials --seed --tol"),
    ("kernel", "heat"): (_kernel_heat, "--type --rank --k! --s! --branch --input!"),
    ("kernel", "eta"): (_kernel_eta, "--type --rank --k! --s! --branch --sector! "
                        "--generator! --input!"),
    ("kernel", "verify"): (_kernel_verify, "--type --rank --k! --s! --branch --sigma --L "
                           "--grid-points --box-radius --tol"),
    ("compare", "compact"): (_compare_compact, "--type! --rank! --k! --convention"),
}

_GROUPS = {"roots": "root-system inspection", "lattice": "quotient and alcove enumeration",
           "rep": "finite sector matrices", "wgz": "lattice transform checks",
           "kernel": "heat and conjugated generator kernels", "compare": "compact-theory bridge"}

_LEVEL = {"dest": "level", "type": int, "help": "level"}
# add_argument's keywords per flag; --level and --k are one flag, spelt
# first as the table names it
_FLAGS = {
    "--config": {"help": "JSON config file; explicit flags supersede it"},
    "--out": {"help": "write the JSON artifact here instead of stdout"},
    "--type": {"dest": "family", "help": "Lie family letter, e.g. A"},
    "--level": _LEVEL, "--k": _LEVEL,
    **dict.fromkeys("--rank --sector --resolution --trials --seed --L --grid-points".split(),
                    {"type": int}),
    **dict.fromkeys("--tol --box-radius --s".split(), {"type": float}),
    "--sigma": {}, "--input": {},
    "--convention": {"choices": ["lemma", "theorem"]},
    "--branch": {"choices": ["principal", "flipped"]},
    "--generator": {"choices": ["S", "T"]},
}
_ALIASES = {"--level": ("--k",), "--k": ("--level",)}


def _dest(flag: str) -> str:
    """The RunConfig field that a flag of the table sets."""
    flag = flag.rstrip("!")
    return _FLAGS[flag].get("dest", flag[2:].replace("-", "_"))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusal is one stderr line and exit 2;
    add_subparsers gives the subcommand parsers the same class."""

    def error(self, message):
        self.exit(EXIT_SCHEMA, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from `_COMMANDS` on the first call and
    shared after it: a parser holds no state between parse_args calls, and
    building one costs far more than parsing with it."""
    parser = _Parser(
        prog="cstorus",
        description="Exact and numerical genus-one quantum representation toolkit")
    groups = parser.add_subparsers(dest="command_group", required=True)
    commands = {}
    for (group, name), (_, flags) in _COMMANDS.items():
        if group not in commands:
            commands[group] = groups.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="command", required=True)
        q = commands[group].add_parser(name)
        for flag in ["--config", *flags.replace("!", "").split(), "--out"]:
            q.add_argument(flag, *_ALIASES.get(flag, ()), **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    key = (args.command_group, args.command)
    run, flags = _COMMANDS[key]
    try:
        cfg = _merge_config(args, " ".join(key), [*flags.split(), "--out"])
        payload, passed = run(cfg)
        _emit(cfg, payload)
        return EXIT_OK if passed else EXIT_TOLERANCE
    except ResourceLimitError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except ToleranceError as e:
        print(f"tolerance failure: {e}", file=sys.stderr)
        return EXIT_TOLERANCE
    except CSTorusError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())

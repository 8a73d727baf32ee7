"""Command-line entry point: root-system info, lattice enumeration, sector
matrix construction and verification, transform round-trip reports, heat and
conjugated-generator kernels, and the compact-theory comparison.

All artifacts are deterministic JSON embedding the resolved configuration and
the library version.  Exit codes: 0 success, 1 tolerance failure, 2 invalid
configuration or domain, 3 resource ceiling exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
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
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


def _merge_config(args: argparse.Namespace, command: str) -> RunConfig:
    """Start from a config file if given; explicit flags supersede it."""
    base = {}
    if getattr(args, "config", None):
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
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for key, val in base.items():
        if key == "command":
            continue
        if key not in fields:
            raise SchemaError(f"unknown config key {key!r}")
        setattr(cfg, key, val)
    for key in fields:
        if key == "command":
            continue
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    for f in dataclasses.fields(RunConfig):
        setattr(cfg, f.name, _checked(f.name, f.type, getattr(cfg, f.name)))
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
    if cfg.family is None or cfg.rank is None:
        raise SchemaError("this command requires --type and --rank")
    return build_root_system(LieType(cfg.family, cfg.rank))


def _require_level(cfg: RunConfig) -> int:
    if cfg.level is None:
        raise SchemaError("this command requires --level")
    return cfg.level


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise SchemaError(f"cannot parse complex number {text!r}")


def _emit(cfg: RunConfig, payload: dict) -> None:
    doc = {"config": cfg.to_json_dict(), "version": __version__}
    doc.update(payload)
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise SchemaError(f"artifact would contain a non-finite number: {e}")
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise SchemaError(f"cannot write the artifact to {cfg.out}: {e}")
    else:
        print(text)


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
        "y": [float(x) for x in g.y],
        "values": [[z.real, z.imag] for z in g.values],
        "truncation_error": g.truncation_error,
    }


def _cmd_roots_info(cfg: RunConfig) -> int:
    rs = _root_system(cfg)
    _emit(cfg, {"roots": rs.summary()})
    return EXIT_OK


def _cmd_lattice_enumerate(cfg: RunConfig) -> int:
    rs = _root_system(cfg)
    _emit(cfg, {"lattice": enumerate_report(rs, _require_level(cfg))})
    return EXIT_OK


def _cmd_rep(cfg: RunConfig, verify_only: bool) -> int:
    rs = _root_system(cfg)
    if cfg.sector is None:
        raise SchemaError("rep commands require --sector")
    mats = rep_matrices(rs, _require_level(cfg), cfg.sector,
                        convention=Convention.from_name(cfg.convention))
    tol = cfg.tol if cfg.tol is not None else 1e-10
    rep = verify_sl2z(mats, tol=tol)
    payload = {"verification": rep.to_json_dict()}
    if not verify_only:
        payload["matrices"] = mats.to_json_dict()
    _emit(cfg, payload)
    return EXIT_OK if rep.passed else EXIT_TOLERANCE


def _cmd_wgz_roundtrip(cfg: RunConfig) -> int:
    from .wgz import roundtrip_report
    rs = _root_system(cfg)
    rep = roundtrip_report(rs, _require_level(cfg), cfg.resolution, cfg.box_radius,
                           trials=cfg.trials, seed=cfg.seed)
    _emit(cfg, {"roundtrip": rep})
    tol = cfg.tol if cfg.tol is not None else 1e-6
    ok = rep["roundtrip_residual"] < tol and rep["parseval_relative_error"] < tol
    return EXIT_OK if ok else EXIT_TOLERANCE


def _require_rank_one(cfg: RunConfig) -> None:
    """The kernel commands are rank one: --type and --rank may only name A1."""
    if cfg.family not in (None, "A") or cfg.rank not in (None, 1):
        raise SchemaError(f"kernel commands support type A rank 1 only, "
                          f"got type {cfg.family} rank {cfg.rank}")


def _kernel_params(cfg: RunConfig):
    from .heatkernel import solve_params
    if cfg.level is None or cfg.s is None:
        raise SchemaError("kernel commands require --k and --s")
    return solve_params(cfg.level, cfg.s, branch=cfg.branch)


def _cmd_kernel_heat(cfg: RunConfig) -> int:
    from .heatkernel import heat_apply
    _require_rank_one(cfg)
    if not cfg.input:
        raise SchemaError("kernel heat requires --input")
    g = heat_apply(_load_samples(cfg.input), _kernel_params(cfg))
    _emit(cfg, {"samples": _samples_payload(g)})
    return EXIT_OK


def _cmd_kernel_eta(cfg: RunConfig) -> int:
    from .heatkernel import EtaKernelSpec, eta_apply
    _require_rank_one(cfg)
    if not cfg.input:
        raise SchemaError("kernel eta requires --input")
    if cfg.sector is None or cfg.generator is None:
        raise SchemaError("kernel eta requires --sector and --generator")
    spec = EtaKernelSpec(sector=cfg.sector, generator=cfg.generator,
                         params=_kernel_params(cfg))
    g = eta_apply(_load_samples(cfg.input), spec)
    _emit(cfg, {"samples": _samples_payload(g)})
    return EXIT_OK


def _cmd_kernel_verify(cfg: RunConfig) -> int:
    from .heatkernel import verify_conjugation
    _require_rank_one(cfg)
    if cfg.level is None or cfg.s is None:
        raise SchemaError("kernel verify requires --k and --s")
    sigma = _parse_complex(cfg.sigma) if cfg.sigma else None
    tol = cfg.tol if cfg.tol is not None else 1e-5
    rep = verify_conjugation(cfg.level, cfg.s, sigma=sigma, L=cfg.L,
                             tol=tol, grid_points=cfg.grid_points,
                             box_radius=cfg.box_radius, branch=cfg.branch)
    _emit(cfg, {"conjugation": rep})
    return EXIT_OK if rep["passed"] else EXIT_TOLERANCE


def _cmd_compare_compact(cfg: RunConfig) -> int:
    from .compactcheck import compare_shifted
    rs = _root_system(cfg)
    rep = compare_shifted(rs, _require_level(cfg),
                          convention=Convention.from_name(cfg.convention))
    _emit(cfg, {"compact": rep})
    return EXIT_OK if rep["passed"] else EXIT_TOLERANCE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it: a
    parser holds no state between parse_args calls, and building one costs
    far more than parsing with it."""
    parser = argparse.ArgumentParser(
        prog="cstorus",
        description="Exact and numerical genus-one quantum representation toolkit")
    sub = parser.add_subparsers(dest="command_group", required=True)

    def common(p, level_flag="--level"):
        p.add_argument("--config", help="JSON config file; explicit flags supersede it")
        p.add_argument("--type", dest="family", help="Lie family letter, e.g. A")
        p.add_argument("--rank", type=int)
        p.add_argument(level_flag, "--k" if level_flag == "--level" else "--level",
                       dest="level", type=int, help="level")
        p.add_argument("--tol", type=float)
        p.add_argument("--out", help="write the JSON artifact here instead of stdout")

    p_roots = sub.add_parser("roots", help="root-system inspection")
    sp = p_roots.add_subparsers(dest="command", required=True)
    common(sp.add_parser("info"))

    p_lat = sub.add_parser("lattice", help="quotient and alcove enumeration")
    sp = p_lat.add_subparsers(dest="command", required=True)
    common(sp.add_parser("enumerate"))

    p_rep = sub.add_parser("rep", help="finite sector matrices")
    sp = p_rep.add_subparsers(dest="command", required=True)
    for name in ("build", "verify"):
        q = sp.add_parser(name)
        common(q)
        q.add_argument("--sector", type=int)
        q.add_argument("--convention", choices=["lemma", "theorem"])

    p_wgz = sub.add_parser("wgz", help="lattice transform checks")
    sp = p_wgz.add_subparsers(dest="command", required=True)
    q = sp.add_parser("roundtrip")
    common(q)
    q.add_argument("--resolution", type=int)
    q.add_argument("--box-radius", dest="box_radius", type=float)
    q.add_argument("--trials", type=int)
    q.add_argument("--seed", type=int)

    p_ker = sub.add_parser("kernel", help="heat and conjugated generator kernels")
    sp = p_ker.add_subparsers(dest="command", required=True)
    for name in ("heat", "eta", "verify"):
        q = sp.add_parser(name)
        common(q, level_flag="--k")
        q.add_argument("--s", type=float)
        q.add_argument("--branch", choices=["principal", "flipped"])
        q.add_argument("--input")
        if name == "eta":
            q.add_argument("--sector", type=int)
            q.add_argument("--generator", choices=["S", "T"])
        if name == "verify":
            q.add_argument("--sigma")
            q.add_argument("--L", type=int)
            q.add_argument("--grid-points", dest="grid_points", type=int)
            q.add_argument("--box-radius", dest="box_radius", type=float)

    p_cmp = sub.add_parser("compare", help="compact-theory bridge")
    sp = p_cmp.add_subparsers(dest="command", required=True)
    q = sp.add_parser("compact")
    common(q, level_flag="--k")
    q.add_argument("--convention", choices=["lemma", "theorem"])
    return parser


_DISPATCH = {
    ("roots", "info"): _cmd_roots_info,
    ("lattice", "enumerate"): _cmd_lattice_enumerate,
    ("rep", "build"): lambda cfg: _cmd_rep(cfg, verify_only=False),
    ("rep", "verify"): lambda cfg: _cmd_rep(cfg, verify_only=True),
    ("wgz", "roundtrip"): _cmd_wgz_roundtrip,
    ("kernel", "heat"): _cmd_kernel_heat,
    ("kernel", "eta"): _cmd_kernel_eta,
    ("kernel", "verify"): _cmd_kernel_verify,
    ("compare", "compact"): _cmd_compare_compact,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    key = (args.command_group, args.command)
    try:
        cfg = _merge_config(args, command=" ".join(key))
        return _DISPATCH[key](cfg)
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

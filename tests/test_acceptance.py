"""End-to-end acceptance checks for the full pipeline, with the tolerances
and budgets the library commits to."""

import cmath
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cstorus.compactcheck import compare_shifted
from cstorus.finrep import Convention, rep_matrices, verify_sl2z
from cstorus.heatkernel import (GridSamples1D, heat_apply, hermite_function_table,
                                solve_params, uniform_grid, verify_conjugation)
from cstorus.lattice import quotient_group, weyl_orbits
from cstorus.roots import LieType, build_root_system
from cstorus.wgz import roundtrip_report
from fraction_oracle import det, mat
from test_compactcheck import su2_modular_data

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SWEEP = [("A", 1, 8), ("A", 2, 5), ("B", 2, 3), ("G", 2, 3)]
# rank >= 4 types, E7 and E8 included: orbit closure on Z, no Weyl enumeration
HIGH_RANK_SWEEP = [("D", 4, 2), ("F", 4, 2), ("E", 6, 2), ("E", 7, 2), ("E", 8, 2)]


def test_modular_relations_full_sweep_within_budget():
    """S^4 = Id, (ST)^3 = S^2, unitarity below 1e-10 across the family sweep,
    both sectors, in under 10 seconds."""
    start = time.monotonic()
    for fam, rank, kmax in SWEEP + HIGH_RANK_SWEEP:
        rs = build_root_system(LieType(fam, rank))
        for k in range(1, kmax + 1):
            for sector in (0, 1):
                rep = verify_sl2z(rep_matrices(rs, k, sector), tol=1e-10)
                assert rep.passed, (fam, rank, k, sector, rep.to_json_dict())
    assert time.monotonic() - start < 10.0


def test_dense_sectors_verify_back_to_back_within_budget():
    """Three back-to-back verify_sl2z calls at dims 41, 55 and 91 (A1 k=40
    sector 0, A2 k=12 sectors 1 and 0) in under 0.1 s. Their products stay
    on the calling thread; a call that wakes the BLAS thread pool once it has
    gone idle stalls for ~0.1 s."""
    mats = [rep_matrices(build_root_system(LieType(fam, rank)), k, sector)
            for fam, rank, k, sector in [("A", 1, 40, 0), ("A", 2, 12, 1), ("A", 2, 12, 0)]]
    assert [m.dim for m in mats] == [41, 55, 91]
    start = time.monotonic()
    for m in mats:
        assert verify_sl2z(m).passed
    assert time.monotonic() - start < 0.1


def test_quotient_orders_exact():
    """|Z_k| = k^n det(gram1) over the family sweep, k <= 8, in under 2 seconds."""
    start = time.monotonic()
    types = [(f, r) for f, r, _ in SWEEP] + [("A", 3), ("B", 3), ("C", 3), ("D", 4)]
    for fam, rank in types:
        rs = build_root_system(LieType(fam, rank))
        gram_det = det(mat(rs.gram1))
        for k in range(1, 9):
            assert quotient_group(rs, k).order == k ** rs.rank * gram_det
    a1 = build_root_system(LieType("A", 1))
    a2 = build_root_system(LieType("A", 2))
    for k in range(1, 9):
        assert quotient_group(a1, k).order == 2 * k
        assert quotient_group(a2, k).order == 3 * k ** 2
    assert time.monotonic() - start < 2.0


def test_rank_one_alcove_counts():
    rs = build_root_system(LieType("A", 1))
    for k in range(1, 13):
        orbits = weyl_orbits(rs, k)
        assert len(orbits.numerators) == k + 1
        assert orbits.interior.sum() == k - 1


def test_transform_roundtrip_and_parseval():
    """Forward/inverse round trip and Parseval at production resolution,
    at least 20 random inputs per level, under 5 seconds (about 30 times the
    0.13-0.17 s it takes on a 2-vCPU VM)."""
    start = time.monotonic()
    rs = build_root_system(LieType("A", 1))
    for k in (1, 2):
        rep = roundtrip_report(rs, k, 256, 6.0, trials=20, seed=0)
        assert rep["trials"] >= 20
        assert rep["roundtrip_residual"] < 1e-6
        assert rep["parseval_relative_error"] < 1e-6
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
def test_mehler_flow_eigenvalues(s):
    """Kernel quadrature reproduces the closed-form eigenfactor (i b)^{l+1/2}
    on every eigenfunction up to index 10."""
    k = 2
    p = solve_params(k, s)
    y = uniform_grid(6.0, 801)
    table = hermite_function_table(10, y, p.sigma)
    for l in range(11):
        f = GridSamples1D(y=y, values=table[l])
        out = heat_apply(f, p)
        target = (1j * p.b) ** (l + 0.5) * f.values
        assert np.abs(out.values - target).max() / np.abs(target).max() < 1e-6


def test_conjugated_generators_and_truncation_curve():
    """Two constructions of the conjugated generators agree below 1e-5 at
    L = 12; the faithfully composed relations hold below 1e-4; and the
    truncated-algebra residuals decrease monotonically as L grows, all four
    truncations in under 2 seconds."""
    start = time.monotonic()
    reports = {L: verify_conjugation(2, 1.0, L=L) for L in (6, 8, 10, 12)}
    elapsed = time.monotonic() - start
    final = reports[12]
    assert final["max_conjugation_residual"] < 1e-5
    assert final["max_relation_residual"] < 1e-4
    assert final["passed"]
    for key in final["truncated_relation_residuals"]:
        curve = [reports[L]["truncated_relation_residuals"][key]
                 for L in (6, 8, 10, 12)]
        assert all(a > b for a, b in zip(curve, curve[1:])), (key, curve)
    assert elapsed < 2.0


def test_compact_bridge():
    """Anti-invariant sector at shifted level matches the compact modular
    data: T exactly, S up to one global 4th root of unity, below 1e-10."""
    a1 = build_root_system(LieType("A", 1))
    for k in range(1, 7):
        rep = compare_shifted(a1, k)
        assert rep["passed"], rep
        assert abs(complex(*rep["fitted_T_phase"]) - 1) < 1e-10
        assert rep["dim"] == su2_modular_data(k).dim
    a2 = build_root_system(LieType("A", 2))
    for k in range(1, 4):
        rep = compare_shifted(a2, k)
        assert rep["passed"], rep
        assert abs(complex(*rep["fitted_T_phase"]) - 1) < 1e-10


def test_negative_controls_break_by_margin():
    """The rejected sign convention must fail the modular relations and the
    compact bridge by at least 1e-2 (it fails by order one)."""
    alt = Convention.from_name("theorem")
    a2 = build_root_system(LieType("A", 2))
    worst = 0.0
    for k in (2, 3):
        for sector in (0, 1):
            rep = verify_sl2z(rep_matrices(a2, k, sector, convention=alt))
            worst = max(worst, rep.residual_braid, rep.residual_s4)
    assert worst >= 1e-2
    a1 = build_root_system(LieType("A", 1))
    bridge = compare_shifted(a1, 3, convention=alt)
    assert max(bridge["residual_S"], bridge["residual_T"]) >= 1e-2


# a child's peak RSS in MB: VmHWM, the high-water mark of its own memory
# map (ru_maxrss also counts the parent's RSS when the child was spawned)
PEAK_MB = ("with open('/proc/self/status') as fh:\n"
           "    peak_mb = int(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1)) / 1024\n")

# `rep build` at dim 512 peaked at 73.3-74.3 MB by VmHWM (2-vCPU VM, fifteen
# runs; 109-123 MB by the ru_maxrss that counted the pytest parent), and at
# 58 MB with T written as its diagonal; the nested-list artifact it replaced
# peaked at 291 MB
REP_BUILD_512_PEAK_MB = 120


def test_rep_build_dim_512_artifact_memory(tmp_path):
    """`rep build` of a dim-512 sector (A1 k=511, sector 0) in a fresh
    process peaks below REP_BUILD_512_PEAK_MB, measured by the process
    itself, and writes an artifact that parses with dim 512."""
    out = tmp_path / "rep.json"
    child = ("import json, re, sys\n"
             "from cstorus.cli import main\n"
             "code = main(['rep', 'build', '--type', 'A', '--rank', '1', '--level', '511',\n"
             "             '--sector', '0', '--out', sys.argv[1]])\n"
             + PEAK_MB +
             "with open(sys.argv[1]) as fh:\n"
             "    doc = json.load(fh)\n"
             "print(code, peak_mb, doc['verification']['dim'], len(doc['matrices']['S']),\n"
             "      len(doc['matrices']['S'][-1]), len(doc['matrices']['T']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", child, str(out)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, peak_mb, *dims = done.stdout.split()
    assert code == "0"
    assert float(peak_mb) < REP_BUILD_512_PEAK_MB < 291
    assert dims == ["512"] * 4


# `wgz roundtrip` at N = 1440 (2 073 600 section samples) with 4 trials
# peaked at 108.0-108.2 MB by VmHWM (2-vCPU VM, fifteen fresh runs), two 33 MB
# sections; with a C x C half-angle table it peaked at 139.4-139.6 MB.  The
# round trip before that held a C x C buffer per inverse, C x C multipliers
# in the quasi-periodicity check and a third section, and peaked at 233 MB
WGZ_ROUNDTRIP_1440_PEAK_MB = 120


def test_wgz_roundtrip_at_the_array_ceiling_memory(tmp_path):
    """`wgz roundtrip` of A1 k=2 at resolution 1440 with 4 trials, in a
    fresh process, peaks below WGZ_ROUNDTRIP_1440_PEAK_MB, measured by the
    process itself, and passes its round trip and Parseval checks."""
    out = tmp_path / "roundtrip.json"
    child = ("import json, re, sys\n"
             "from cstorus.cli import main\n"
             "code = main(['wgz', 'roundtrip', '--type', 'A', '--rank', '1', '--level', '2',\n"
             "             '--resolution', '1440', '--box-radius', '6', '--trials', '4',\n"
             "             '--out', sys.argv[1]])\n"
             + PEAK_MB +
             "with open(sys.argv[1]) as fh:\n"
             "    rep = json.load(fh)['roundtrip']\n"
             "print(code, peak_mb, rep['divisions'], rep['roundtrip_residual'],\n"
             "      rep['parseval_relative_error'])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", child, str(out)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, peak_mb, divisions, roundtrip, parseval = done.stdout.split()
    assert code == "0" and divisions == "1440"
    assert float(peak_mb) < WGZ_ROUNDTRIP_1440_PEAK_MB < 233
    assert max(float(roundtrip), float(parseval)) < 1e-12

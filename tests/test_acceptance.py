"""End-to-end acceptance checks for the full pipeline, with the tolerances
and budgets the library commits to."""

import cmath
import time

import numpy as np
import pytest

from cstorus import exact
from cstorus.compactcheck import compare_shifted, su2_modular_data
from cstorus.finrep import Convention, rep_matrices, verify_sl2z
from cstorus.heatkernel import (GridSamples1D, heat_apply, hermite_function_table,
                                solve_params, uniform_grid, verify_conjugation)
from cstorus.lattice import alcove_points, quotient_group
from cstorus.roots import LieType, build_root_system
from cstorus.wgz import roundtrip_report
from test_heatkernel import HermiteExpansion, laplacian_diagonal, laplacian_explicit

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


def test_quotient_orders_exact():
    """|Z_k| = k^n det(gram1) over the family sweep, k <= 8, in under 2 seconds."""
    start = time.monotonic()
    types = [(f, r) for f, r, _ in SWEEP] + [("A", 3), ("B", 3), ("C", 3), ("D", 4)]
    for fam, rank in types:
        rs = build_root_system(LieType(fam, rank))
        det = exact.det(exact.mat(rs.gram1))
        for k in range(1, 9):
            assert quotient_group(rs, k).order == k ** rs.rank * det
    a1 = build_root_system(LieType("A", 1))
    a2 = build_root_system(LieType("A", 2))
    for k in range(1, 9):
        assert quotient_group(a1, k).order == 2 * k
        assert quotient_group(a2, k).order == 3 * k ** 2
    assert time.monotonic() - start < 2.0


def test_rank_one_alcove_counts():
    rs = build_root_system(LieType("A", 1))
    for k in range(1, 13):
        alc = alcove_points(rs, k)
        assert len(alc.closed_points) == k + 1
        assert len(alc.open_points) == k - 1


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


@pytest.mark.parametrize("n", [1, 2])
def test_laplacian_dual_paths(n):
    """Diagonal eigenvalue action through the production laplacian_spectrum
    vs the explicit differential operator of the test oracle, on random
    eigenfunction combinations, five random moduli."""
    rng = np.random.default_rng(7)
    k = 2
    for _ in range(5):
        sigma = complex(rng.normal(), abs(rng.normal()) + 0.3)
        coeffs = {}
        while len(coeffs) < 4:
            l = tuple(int(x) for x in rng.integers(0, 11, n))
            if sum(l) <= 10:
                coeffs[l] = complex(rng.normal(), rng.normal())
        f = HermiteExpansion(n=n, k=k, sigma=sigma, coeffs=coeffs)
        pts = rng.normal(size=(40, n))
        diag = laplacian_diagonal(f).evaluate(pts)
        explicit = laplacian_explicit(f).evaluate(pts)
        scale = max(1.0, float(np.abs(diag).max()))
        assert np.abs(diag - explicit).max() / scale < 1e-6


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

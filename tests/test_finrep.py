"""Finite sector matrices: phases, bases, operators, modular relations."""

import inspect
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
import pytest

from cstorus.errors import ResourceLimitError, SchemaError
from cstorus import finrep, lattice
from cstorus.finrep import (PHASE_DENOM, Convention, PhasePair,
                            SectorMatrices, phase_constants, rep_matrices,
                            unit_phase, verify_sl2z)
from cstorus.lattice import (QuotientGroup, WeylOrbits, quotient_group, quotient_order,
                             rho_shifted, weyl_orbits)
from cstorus.roots import LieType, RootSystem, build_root_system
from cstorus.wgz import GridFunctionFamily, GridSpec, apply_finite_fourier, prequantum_T
from fraction_oracle import (fraction_rows, highest_root, inverse, mat, mat_vec, pairing1,
                             weyl_apply)
from fraction_oracle import unit_phase as fraction_phase
from test_lattice import fraction_quotient, is_integral, vec_sub


# -- brute-force oracles: Weyl-group sums and full quotient-space operators --

@dataclass
class FiniteVector:
    quotient: QuotientGroup
    coefficients: np.ndarray   # complex, indexed like the fraction_quotient reps
    label: Tuple[Fraction, ...]


def symmetrized_basis(rs: RootSystem, k: int, orbits: WeylOrbits,
                      sector: int) -> List[FiniteVector]:
    """Orthonormal Weyl-(anti)symmetrized delta bases indexed by alcove points.

    Sector 0 symmetrizes over the closed alcove, sector 1 antisymmetrizes
    over the open alcove; each vector is renormalized to unit norm (points
    with a nontrivial stabilizer are not unit norm under the bare 1/sqrt|W|
    normalization).
    """
    quotient = orbits.quotient
    wg = rs.weyl_group()
    oracle = fraction_quotient(rs, k)
    rows = orbits.numerators[orbits.interior] if sector else orbits.numerators
    out: List[FiniteVector] = []
    for gamma in fraction_rows(rows, orbits.quotient.denom):
        coeff = [0] * quotient.order
        for w in wg.elements:
            idx = oracle.index_of(weyl_apply(w, gamma))
            coeff[idx] += w.determinant if sector == 1 else 1
        arr = np.asarray(coeff, dtype=complex)
        norm = np.linalg.norm(arr)
        assert norm > 0, "anti-invariant vector vanished on an interior point"
        out.append(FiniteVector(quotient=quotient, coefficients=arr / norm,
                                label=gamma))
    return out


def finite_fourier(rs: RootSystem, k: int) -> np.ndarray:
    """Unitary discrete Fourier matrix with kernel exp(2 pi i <a,b>_k)."""
    reps = fraction_quotient(rs, k).reps
    m = len(reps)
    out = np.empty((m, m), dtype=complex)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            out[i, j] = fraction_phase(k * pairing1(rs, a, b))
    return out / math.sqrt(m)


def finite_gauss(rs: RootSystem, k: int) -> np.ndarray:
    """Diagonal Gauss operator with entries exp(pi i <a,a>_k)."""
    diag = [fraction_phase(k * pairing1(rs, a, a) / 2) for a in fraction_quotient(rs, k).reps]
    return np.diag(diag)


def stabilizer_scan(rs: RootSystem, points) -> Tuple[int, ...]:
    """|{w in W : w(gamma) - gamma in the coroot lattice}| per point, by a
    scan over the whole Weyl group."""
    wg = rs.weyl_group()
    return tuple(sum(1 for w in wg.elements
                     if is_integral(vec_sub(weyl_apply(w, g), g)))
                 for g in points)


def alcove_points_bruteforce(rs: RootSystem, k: int):
    """Closed and open alcove points (kG)^{-1} n, exact, over the pairings
    n >= 0 with sum_i a_i n_i <= k taken from a sorted itertools.product."""
    a = [int(x) for x in highest_root(rs)]
    n = rs.rank
    basis = inverse(mat([[k * rs.gram1[i][j] for j in range(n)] for i in range(n)]))
    closed, opened = [], []
    for nvec in sorted(itertools.product(*[range(k // ai + 1) for ai in a])):
        height = sum(ai * ni for ai, ni in zip(a, nvec))
        if height > k:
            continue
        gamma = mat_vec(basis, tuple(Fraction(x) for x in nvec))
        closed.append(gamma)
        if all(ni >= 1 for ni in nvec) and height <= k - 1:
            opened.append(gamma)
    return tuple(closed), tuple(opened)


def rep_matrices_bruteforce(rs: RootSystem, k: int, sector: int,
                            phases: Optional[PhasePair] = None,
                            convention: Convention = Convention()) -> SectorMatrices:
    """Sector S and T matrices assembled entrywise from exact rational phase
    exponents, with a sum over the whole Weyl group per entry."""
    if phases is None:
        phases = phase_constants(rs)
    quotient = quotient_group(rs, k)
    closed, opened = alcove_points_bruteforce(rs, k)
    wg = rs.weyl_group()

    if sector == 0:
        points = closed
        stabs = stabilizer_scan(rs, points)
    else:
        points = opened
        stabs = tuple(1 for _ in points)  # interior points have trivial stabilizer

    use_det = convention.det_in_invariant == (sector == 0)
    dim = len(points)
    s = np.zeros((dim, dim), dtype=complex)
    root_z = math.sqrt(quotient.order)
    for a, (ga, sta) in enumerate(zip(points, stabs)):
        images = [(w.determinant if use_det else 1, weyl_apply(w, ga)) for w in wg.elements]
        for b, (gb, stb) in enumerate(zip(points, stabs)):
            acc = 0j
            for eps, wga in images:
                acc += eps * fraction_phase(-k * pairing1(rs, wga, gb))
            s[a, b] = acc / (root_z * math.sqrt(sta * stb))
    s *= fraction_phase(Fraction(-phases.j_exponent, PHASE_DENOM))

    t = np.zeros((dim, dim), dtype=complex)
    for a, ga in enumerate(points):
        q = (Fraction(-phases.omega_exponent, PHASE_DENOM)
             + convention.t_sign * k * pairing1(rs, ga, ga) / 2)
        t[a, a] = fraction_phase(q)

    # the labels as numerators over the exponent D of Z
    d = quotient.denom
    nums = [[d * x for x in ga] for ga in points]
    assert all(x.denominator == 1 for row in nums for x in row)
    labels = np.array([[int(x) for x in row] for row in nums], dtype=np.int64)
    return SectorMatrices(rs=rs, k=k, sector=sector, convention=convention,
                          labels=labels.reshape(dim, rs.rank), denom=d, s=s, t=t)


ORACLE_CASES = ([("A", 1, k) for k in range(1, 9)] + [("A", 2, k) for k in range(1, 6)]
                + [("B", 2, k) for k in range(1, 4)] + [("G", 2, k) for k in range(1, 4)]
                + [("A", 1, 40), ("A", 2, 12), ("D", 4, 2), ("F", 4, 1), ("A", 3, 4)])


@pytest.mark.parametrize("fam,rank,k", ORACLE_CASES)
def test_alcove_points_match_bruteforce(fam, rank, k):
    """Orbit-closure alcove points and stabilizers equal the exact
    enumeration and the scan over W."""
    rs = build_root_system(LieType(fam, rank))
    closed, opened = alcove_points_bruteforce(rs, k)
    orbits = weyl_orbits(rs, k)
    d = orbits.quotient.denom
    assert fraction_rows(orbits.numerators, d) == closed
    assert fraction_rows(orbits.numerators[orbits.interior], d) == opened
    assert orbits.stabilizer_sizes == stabilizer_scan(rs, closed)


@pytest.mark.parametrize("convention", ["lemma", "theorem"])
@pytest.mark.parametrize("fam,rank,k", ORACLE_CASES)
def test_orbit_route_matches_weyl_sum(fam, rank, k, convention):
    """The orbit sums on Z equal the per-entry sums over W, in both sectors;
    under 'theorem' the sector-0 orbits with an odd stabilizer give zero
    rows and columns."""
    rs = build_root_system(LieType(fam, rank))
    conv = Convention.from_name(convention)
    for sector in (0, 1):
        got = rep_matrices(rs, k, sector, convention=conv)
        want = rep_matrices_bruteforce(rs, k, sector, convention=conv)
        assert got.denom == want.denom and np.array_equal(got.labels, want.labels)
        assert got.s.shape == want.s.shape and got.t.shape == (got.dim,)
        assert np.abs(got.s - want.s).max(initial=0.0) < 1e-12
        assert np.abs(np.diag(got.t) - want.t).max(initial=0.0) < 1e-12


def test_unit_phase_exact_values():
    assert unit_phase(0, 1) == 1
    assert abs(unit_phase(1, 2) + 1) < 1e-15
    assert abs(unit_phase(1, 4) - 1j) < 1e-15
    assert abs(unit_phase(9, 4) - 1j) < 1e-15
    assert abs(unit_phase(-1, 4) + 1j) < 1e-15


def test_unit_phase_is_the_fraction_phase_bit_for_bit():
    """Every numerator and denominator of one rational, reduced or not, give
    the phase that the exact Fraction gives, to the last bit."""
    for num in range(-60, 61):
        for den in range(1, 50):
            want = fraction_phase(Fraction(num, den))
            for scale in (1, 6, 2 ** 40 + 3):
                assert unit_phase(scale * num, scale * den) == want, (num, den, scale)


def test_phase_constants_rank_one():
    rs = build_root_system(LieType("A", 1))
    pp = phase_constants(rs)
    assert abs(pp.j + 1j) < 1e-15                       # i^{-1}
    assert abs(pp.omega - np.exp(1j * math.pi / 4)) < 1e-15
    assert Fraction(pp.omega_exponent, PHASE_DENOM) == Fraction(1, 8)


PHASE_TYPES = ([("A", n) for n in range(1, 9)] + [(fam, n) for fam in "BC" for n in range(2, 8)]
               + [("D", n) for n in range(4, 9)] + [("E", n) for n in (6, 7, 8)]
               + [("F", 4), ("G", 2)])


@pytest.mark.parametrize("fam,rank", PHASE_TYPES)
def test_phase_cubic_constraint(fam, rank):
    """omega^3 = i^{n/2} j^{-1} exactly, and omega's exponent dim g / 24 (the
    strange formula) is <rho, rho>_1 / 2h with rho read from the level-1
    quotient."""
    rs = build_root_system(LieType(fam, rank))
    pp = phase_constants(rs)
    om, jq = (Fraction(x, PHASE_DENOM) for x in (pp.omega_exponent, pp.j_exponent))
    assert (3 * om - Fraction(rs.rank, 8) + jq).denominator == 1
    rho, d = rho_shifted(rs, [0] * rs.rank)
    assert om == Fraction(int(rho.sum()), d) / (2 * rs.dual_coxeter)
    target = unit_phase(rs.rank, 8) / pp.j
    assert abs(pp.omega ** 3 - target) < 1e-12


@pytest.mark.parametrize("rank", [17, 40])
def test_phase_constants_build_no_quotient(monkeypatch, rank):
    """C17..C40 have a level-1 quotient of 2^n points, over the byte
    budget; phase_constants needs none of it, only dim g = n (2n + 1)."""
    def refuse(*args, **kwargs):
        raise AssertionError("phase_constants built a quotient")

    monkeypatch.setattr(lattice, "quotient_group", refuse)
    pp = phase_constants(build_root_system(LieType("C", rank)))
    assert Fraction(pp.omega_exponent, PHASE_DENOM) == Fraction(rank * (2 * rank + 1), 24)
    assert Fraction(pp.j_exponent, PHASE_DENOM) == Fraction(-rank * rank, 4)


def test_phase_parameters_removed():
    """omega^3 = i^{n/2} j^{-1} holds by construction, so phase_constants has
    no tolerance to check it against, and rep_matrices takes no phases."""
    assert list(inspect.signature(phase_constants).parameters) == ["rs"]
    assert "phases" not in inspect.signature(rep_matrices).parameters


@pytest.mark.parametrize("fam,rank,k", [("A", 1, 4), ("A", 2, 2), ("B", 2, 3)])
def test_finite_fourier_unitary_order_four(fam, rank, k):
    rs = build_root_system(LieType(fam, rank))
    q = quotient_group(rs, k)
    f = finite_fourier(rs, k)
    eye = np.eye(q.order)
    assert np.abs(f.conj().T @ f - eye).max() < 1e-12
    f2 = f @ f
    assert np.abs(f2 @ f2 - eye).max() < 1e-12          # F^2 = parity, F^4 = Id


def test_symmetrized_bases_orthonormal_and_invariant():
    rs = build_root_system(LieType("A", 2))
    k = 3
    orbits = weyl_orbits(rs, k)
    wg = rs.weyl_group()
    oracle = fraction_quotient(rs, k)
    for sector in (0, 1):
        basis = symmetrized_basis(rs, k, orbits, sector)
        if not basis:
            continue
        b = np.stack([v.coefficients for v in basis], axis=1)
        gram = b.conj().T @ b
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-12
        # vectors transform with the right character under each reflection
        for w in wg.elements:
            perm = [oracle.index_of(weyl_apply(w, rep)) for rep in oracle.reps]
            for v in basis:
                moved = np.zeros_like(v.coefficients)
                moved[perm] = v.coefficients
                ch = w.determinant if sector == 1 else 1
                assert np.abs(moved - ch * v.coefficients).max() < 1e-12


@pytest.mark.parametrize("fam,rank,kmax", [("A", 1, 8), ("A", 2, 5), ("B", 2, 3), ("G", 2, 3)])
def test_modular_relations_sweep(fam, rank, kmax):
    rs = build_root_system(LieType(fam, rank))
    for k in range(1, kmax + 1):
        for sector in (0, 1):
            rep = verify_sl2z(rep_matrices(rs, k, sector), tol=1e-10)
            assert rep.passed, (fam, rank, k, sector, rep.to_json_dict())


def test_operator_route_oracle():
    """Projecting the full quotient-space operators onto the symmetrized
    bases must reproduce the assembled sector matrices."""
    for fam, rank, k in [("A", 1, 3), ("A", 2, 2), ("B", 2, 2), ("G", 2, 1)]:
        rs = build_root_system(LieType(fam, rank))
        orbits = weyl_orbits(rs, k)
        pp = phase_constants(rs)
        s_full = unit_phase(-pp.j_exponent, PHASE_DENOM) * finite_fourier(rs, k).conj().T
        t_full = unit_phase(-pp.omega_exponent, PHASE_DENOM) * finite_gauss(rs, k)
        for sector in (0, 1):
            basis = symmetrized_basis(rs, k, orbits, sector)
            if not basis:
                continue
            b = np.stack([v.coefficients for v in basis], axis=1)
            m = rep_matrices(rs, k, sector)
            assert np.abs(b.conj().T @ s_full @ b - m.s).max() < 1e-12
            assert np.abs(b.conj().T @ t_full @ b - np.diag(m.t)).max() < 1e-12


WEIL_CASES = ([("A", 1, k) for k in range(1, 7)] + [("A", 2, k) for k in range(1, 5)]
              + [(f, 2, k) for f in "BG" for k in range(1, 4)]
              + [(f, r, k) for f, r in [("A", 3), ("C", 3), ("D", 4), ("F", 4)]
                 for k in (1, 2)])


@pytest.mark.parametrize("convention", ["lemma", "theorem"])
@pytest.mark.parametrize("fam,rank,k", WEIL_CASES)
def test_sector_matrices_are_the_restricted_weil_representation(fam, rank, k, convention):
    """The WGZ layer's finite operators, F_Z from apply_finite_fourier and
    G_Z from prequantum_T at the box origin (where its pointwise factor is
    1), are the Weil representation of Z: j^{-1} F_Z^{-1} and omega^{-1} G_Z
    satisfy S^4 = Id and (S T)^3 = S^2 on all of Z.  Restricted to the
    W-(anti)symmetrized orbit basis B they are the sector matrices:
    S = j^{-1} B^T F_Z^{-1} B, and T = omega^{-1} B^T G_Z^{t_sign} B on the
    columns that do not vanish."""
    rs = build_root_system(LieType(fam, rank))
    conv = Convention.from_name(convention)
    pp = phase_constants(rs)
    q = quotient_group(rs, k)
    orbits = weyl_orbits(rs, k)
    spec = GridSpec(rs=rs, k=k, divisions=q.denom, half_width=1)
    points = spec.box_points_per_axis ** rank
    unit = np.zeros((q.order, points), dtype=complex)
    unit[:, :q.order] = np.eye(q.order)
    # the WGZ side and the orbits index Z by the same dense rows
    assert (orbits.quotient.numerators == q.numerators).all()
    f_inv = apply_finite_fourier(GridFunctionFamily(spec, q, unit), inverse=True).values
    f_inv = f_inv[:, :q.order]
    origin = spec.box_flat_index(np.zeros(rank, dtype=np.int64))
    gauss = prequantum_T(GridFunctionFamily(spec, q, np.ones((q.order, points))))
    gauss = gauss.values[:, origin]
    s_full, t_full = f_inv / pp.j, np.diag(gauss) / pp.omega
    s2 = s_full @ s_full
    assert np.abs(s2 @ s2 - np.eye(q.order)).max() <= 1e-13
    assert np.abs(np.linalg.matrix_power(s_full @ t_full, 3) - s2).max() <= 1e-13
    if conv.t_sign < 0:
        gauss = gauss.conj()
    members = orbits.members()
    for sector in (0, 1):
        m = rep_matrices(rs, k, sector, convention=conv)
        use_det = conv.det_in_invariant == (sector == 0)
        idx = np.flatnonzero(orbits.interior) if sector else np.arange(len(members))
        basis = np.zeros((q.order, len(idx)))
        for c, a in enumerate(idx):
            if not (use_det and orbits.odd_stabilizer[a]):
                o = members[a]
                basis[o, c] = (orbits.sign[o] if use_det else 1) / math.sqrt(len(o))
        s = basis.T @ f_inv @ basis / pp.j
        assert np.abs(s - m.s).max(initial=0.0) <= 1e-13
        live = np.flatnonzero(basis.any(axis=0))
        t = (basis.T * gauss) @ basis / pp.omega
        assert np.abs((t - np.diag(m.t))[np.ix_(live, live)]).max(initial=0.0) <= 1e-13


def test_rank_one_worked_example():
    rs = build_root_system(LieType("A", 1))
    m = rep_matrices(rs, 2, sector=1)
    assert m.dim == 1
    assert abs(m.s[0, 0] - 1) < 1e-14
    assert abs(m.t[0] - 1) < 1e-14
    m0 = rep_matrices(rs, 1, sector=0)
    assert m0.dim == 2
    assert np.abs(m0.s.conj().T @ m0.s - np.eye(2)).max() < 1e-14


class MatmulRecorder(np.ndarray):
    """An array that logs (rows, inner, cols) of every matmul it enters."""
    log: List[Tuple[int, int, int]] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            a, b = inputs[:2]
            self.log.append((a.shape[0], a.shape[1], b.shape[1]))
        plain = [x.view(np.ndarray) if isinstance(x, MatmulRecorder) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("dim", [1, 2, 40, 41, 55, 91, 181, 182, 256, 257])
def test_product_blocks_stay_on_the_calling_thread(dim):
    """`_product` forms a @ b whole up to 40^3 multiply-adds and when one row
    alone passes 2^16 (dim 257); in between, every zgemm it calls has fewer
    than 2^16 multiply-adds and at least 2 rows and 2 columns (not zgemv).
    The result equals a @ b, also for the conjugate-transpose operand."""
    rng = np.random.default_rng(dim)
    a, b = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(2))
    for x, y in [(a, b), (a.conj().T, a), (a, np.diag(np.diag(b)))]:
        MatmulRecorder.log = []
        got = finrep._product(x.view(MatmulRecorder), y.view(MatmulRecorder))
        want = x @ y
        assert type(got) is np.ndarray
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        if dim <= 40 or dim > 256:
            assert MatmulRecorder.log == [(dim, dim, dim)]
        else:
            assert len(MatmulRecorder.log) > 1
            for rows, inner, cols in MatmulRecorder.log:
                assert rows * inner * cols < 2 ** 16 and rows >= 2 and cols >= 2


def test_verify_sl2z_forms_every_product_through_the_helper(monkeypatch):
    """S^2, S^4, (ST)^2, (ST)^3 and S^dagger S: five products, all through
    `_product`; ST and T^dagger T read T as its diagonal."""
    shapes = []
    product = finrep._product

    def counted(a, b):
        shapes.append((a.shape, b.shape))
        return product(a, b)
    monkeypatch.setattr(finrep, "_product", counted)
    m = rep_matrices(build_root_system(LieType("A", 1)), 40, sector=0)
    assert verify_sl2z(m).passed
    assert shapes == [((41, 41), (41, 41))] * 5


def test_s_symmetric():
    for fam, rank, k in [("A", 1, 5), ("A", 2, 3)]:
        rs = build_root_system(LieType(fam, rank))
        for sector in (0, 1):
            m = rep_matrices(rs, k, sector)
            assert np.abs(m.s - m.s.T).max() < 1e-12


def test_negative_control_conventions_break_relations():
    rs = build_root_system(LieType("A", 2))
    alt = Convention.from_name("theorem")
    worst = 0.0
    for k in (2, 3):
        for sector in (0, 1):
            rep = verify_sl2z(rep_matrices(rs, k, sector, convention=alt))
            worst = max(worst, rep.residual_braid, rep.residual_s4)
    assert worst >= 1e-2


@pytest.mark.parametrize("fam,rank,k,order", [("A", 1, 50_001, 100_002),
                                               ("E", 8, 5, 390_625)])
def test_quotient_ceiling_raises_resource_limit(fam, rank, k, order):
    """Over the byte budget before Z is built: A1 at k = 50001 by its
    50002 x 50002 sector, E8 at k = 5 by the orbits of its |Z| = 390625."""
    rs = build_root_system(LieType(fam, rank))
    term = "sector_matrices" if rank == 1 else "weyl_orbits"
    with pytest.raises(ResourceLimitError, match=rf"^{fam}{rank}, k={k}: {term} needs "):
        rep_matrices(rs, k, sector=0)
    assert quotient_order(rs, k) == order


def test_sector_dimension_ceiling_raises_resource_limit():
    """The dense sector-0 S of A1 at k = 50000 would be 50001 x
    50001, refused from the alcove count before Z is built; dim 1024 is
    within the budget."""
    rs = build_root_system(LieType("A", 1))
    with pytest.raises(ResourceLimitError,
                       match=r"^A1, k=50000: sector_matrices needs "
                             + re.escape(f"{80 * 50001 ** 2:.3g} bytes")):
        rep_matrices(rs, 50_000, sector=0)
    assert rep_matrices(rs, 1023, sector=0).dim == 1024


def test_sector_validation():
    rs = build_root_system(LieType("A", 1))
    with pytest.raises(SchemaError):
        rep_matrices(rs, 2, sector=2)
    with pytest.raises(SchemaError):
        Convention.from_name("other")

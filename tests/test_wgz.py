"""Lattice transform: multiplier, round trips, unitarity, operator intertwining."""

import ast
import itertools
import math
import re
import time
from fractions import Fraction
from pathlib import Path
import tracemalloc

import numpy as np
import pytest

from cstorus import wgz
from cstorus.errors import DomainError, ResourceLimitError, SchemaError
from cstorus.heatkernel import _smooth_length
from cstorus.lattice import quotient_group
from cstorus.roots import LieType, build_root_system
from cstorus.wgz import (GridFunctionFamily, GridSpec,
                         SectionSamples, _forward_plan, _forward_values,
                         _half_angle_phase, _inverse_plan, _section_plan,
                         alias_margin, apply_finite_fourier, gaussian_family,
                         grid_spec_from_box, inner_family, inner_section,
                         multiplier_eval, prequantum_S, prequantum_T,
                         quasi_periodicity_residual,
                         random_gaussian_poly_family, roundtrip_report,
                         section_S, section_T, weyl_action, wgz_forward,
                         wgz_inverse)
from fraction_oracle import pairing1


EPS = np.finfo(float).eps


def make(fam, rank, k, resolution, radius):
    rs = build_root_system(LieType(fam, rank))
    spec = grid_spec_from_box(rs, k, resolution, radius)
    return rs, spec, quotient_group(rs, k)


def relmax(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def float_kg(spec):
    """k * gram1 as floats, built by the oracles for themselves."""
    return np.array(spec.rs.gram1, dtype=float) * spec.k


def gamma_grid_coords(spec, quotient):
    """Grid coordinates (units 1/N) of the numerators, row g for index g."""
    return quotient.numerators * (spec.divisions // quotient.denom)


# -- brute-force oracles of the production transform --------------------------

def multiplier_oracle(rs, k, lam1, lam2, theta1, theta2):
    """One multiplier value, parity in exact arithmetic, phase by cos/sin."""
    parity = k * pairing1(rs, lam1, lam2)
    gm = np.array(rs.gram1, dtype=float) * k
    expo = float(theta1 @ gm @ lam2 - lam1 @ gm @ theta2)
    return (-1) ** int(parity) * complex(math.cos(math.pi * expo),
                                         -math.sin(math.pi * expo))


def shift_oracle(spec):
    """The dual-lattice shifts lam*N whose F_Lambda translate lies in the
    box, from a cube of integer dual coordinates x = kG lam wide enough for
    any lam in the box (|x| <= M times the largest row sum of |kG|, plus 1),
    sorted by max-norm, then lexicographically."""
    n, nn, mn = spec.n, spec.divisions, spec.half_width * spec.divisions
    q = spec.quotient()
    bound = int(np.abs(q.kg).sum(axis=1).max()) * spec.half_width + 1
    axes = np.meshgrid(*[np.arange(-bound, bound + 1)] * n, indexing="ij")
    lam_n = np.stack([a.ravel() for a in axes], axis=-1) @ q.kinv.T * (nn // q.denom)
    shifts = lam_n[np.all((lam_n >= -mn) & (lam_n + nn - 1 <= mn), axis=1)]
    return shifts[np.lexsort(tuple(shifts.T[::-1]) + (np.abs(shifts).max(axis=1),))]


def forward_oracle(f, off1, off2, skip_outside=False):
    """Transform series summed shift by shift, one outer product each."""
    spec, quotient = f.spec, f.quotient
    nn, mn = spec.divisions, spec.half_width * spec.divisions
    cell = spec.cell_coords()
    kg = float_kg(spec)
    gam = gamma_grid_coords(spec, quotient)
    t1, t2 = cell + off1 * nn, cell + off2 * nn
    out = np.zeros((len(cell), len(cell)), dtype=complex)
    for g in range(quotient.order):
        for lam_n in shift_oracle(spec):
            shifted = t1 + lam_n
            if np.abs(shifted).max() > mn:
                if skip_outside:
                    continue
                raise DomainError("lattice shift leaves the sampling box")
            vals = f.values[g, spec.box_flat_index(shifted)]
            expo = (lam_n @ kg @ (t2 + gam[g]).T) / nn ** 2
            out += np.multiply.outer(vals, np.exp(-2j * math.pi * expo))
    pref = np.exp(-1j * math.pi * (t1 @ kg @ t2.T) / nn ** 2)
    return pref * out / math.sqrt(quotient.order)


def inverse_oracle(s, chunk=2048):
    """Dense half-angle Fourier sum B[p, m] = mean_q st[p, q] e^{2 pi i <m, q>_k}
    over all cells p and box points m, in chunks of box points."""
    spec, quotient = s.spec, s.quotient
    nn = spec.divisions
    cell, box = spec.cell_coords(), spec.box_coords()
    kg = float_kg(spec)
    gam = gamma_grid_coords(spec, quotient)
    st = s.values * np.exp(-1j * math.pi * (cell @ kg @ cell.T) / nn ** 2)
    fam = np.zeros((quotient.order, len(box)), dtype=complex)
    for lo in range(0, len(box), chunk):
        m = box[lo:lo + chunk]
        em = np.exp(2j * math.pi * (cell @ kg @ m.T) / nn ** 2)
        bmat = st @ em / nn ** spec.n
        for ghat in range(quotient.order):
            p_idx = np.ravel_multi_index(tuple(((m - gam[ghat]) % nn).T),
                                         (nn,) * spec.n)
            col = bmat[p_idx, np.arange(len(m))]
            for g in range(quotient.order):
                phase = np.exp(2j * math.pi * float(gam[g] @ kg @ gam[ghat]) / nn ** 2)
                fam[g, lo:lo + chunk] += phase * col
    return fam / math.sqrt(quotient.order)


def half_angle_oracle(spec):
    """e^{-pi i <p, q>_k / N^2} by one exp per cell pair (p, q), of the
    integer exponent reduced exactly into [-N^2, N^2)."""
    cell, nsq = spec.cell_coords(), spec.divisions ** 2
    x = (cell @ spec.quotient().kg @ cell.T + nsq) % (2 * nsq) - nsq
    return np.exp(-1j * math.pi * (x / nsq))


def inverse_plan_oracle(spec):
    """The inverse read-off index from (|Z|, B^n, n) box-point arrays: row
    p = m mod N and frequency (kG ghat + kG nu) mod N of m = box - ghat."""
    nn, grid = spec.divisions, (spec.divisions,) * spec.n
    kg = spec.quotient().kg
    gam = gamma_grid_coords(spec, spec.quotient())
    m = spec.box_coords()[None, :, :] - gam[:, None, :]
    p = m % nn
    freq = ((m - p) // nn @ kg + (gam @ kg // nn)[:, None, :]) % nn
    return (np.ravel_multi_index(tuple(np.moveaxis(p, -1, 0)), grid) * nn ** spec.n
            + np.ravel_multi_index(tuple(np.moveaxis(freq, -1, 0)), grid))


def section_oracle(s, name):
    """S-tilde or T-tilde one cell at a time: fold the argument that leaves
    F_Lambda and apply the multiplier of the folding translation."""
    spec = s.spec
    nn = spec.divisions
    cell = spec.cell_coords()
    kg = float_kg(spec)
    out = np.empty_like(s.values)
    for p, t1 in enumerate(cell):
        for q, t2 in enumerate(cell):
            a, b, row = (t2, -t1, q) if name == "S" else (t1, t1 + t2, p)
            folded = b % nn
            mu = (b - folded) // nn
            col = int(np.ravel_multi_index(tuple(folded), (nn,) * spec.n))
            out[p, q] = np.exp(-1j * math.pi * (a @ kg @ mu) / nn) * s.values[row, col]
    return out


# A2: N=27, M=4; B2 k=2: |Z| = 16, N=12, M=1; G2: N=21, M=3
ORACLE_GRIDS = [("A", 1, 2, 32, 5.0), ("A", 2, 1, 6, 3.0), ("B", 2, 2, 4, 1.0),
                ("G", 2, 1, 4, 1.5)]


@pytest.mark.parametrize("fam,rank,k,res,radius", ORACLE_GRIDS)
def test_forward_matches_shift_by_shift_oracle(fam, rank, k, res, radius):
    rs, spec, q = make(fam, rank, k, res, radius)
    f = random_gaussian_poly_family(spec, q, np.random.default_rng(7))
    zero = np.zeros(rank, dtype=int)
    assert relmax(wgz_forward(f).values, forward_oracle(f, zero, zero)) <= 1e-12
    # at offset 0 the plan keeps every shift whose translate lies in the box
    assert _forward_plan(spec, zero).gather.shape[1] == len(spec.lattice_shifts())
    # offset translate: some shifts leave the box and are dropped whole
    eye = np.eye(rank, dtype=int)
    got = _forward_values(f, eye[0], eye[-1])
    assert relmax(got, forward_oracle(f, eye[0], eye[-1], skip_outside=True)) <= 1e-12


def test_forward_matches_oracle_when_residues_collide():
    rs = build_root_system(LieType("A", 1))
    q = quotient_group(rs, 2)
    spec = GridSpec(rs=rs, k=2, divisions=8, half_width=4)
    # more shifts than residues mod N: several shifts share a residue
    assert len(spec.lattice_shifts()) > spec.divisions ** spec.n
    f = random_gaussian_poly_family(spec, q, np.random.default_rng(8))
    zero = np.zeros(1, dtype=int)
    assert relmax(wgz_forward(f).values, forward_oracle(f, zero, zero)) <= 1e-12


@pytest.mark.parametrize("fam,rank,k,res,radius", ORACLE_GRIDS)
def test_inverse_matches_dense_oracle(fam, rank, k, res, radius):
    rs, spec, q = make(fam, rank, k, res, radius)
    rng = np.random.default_rng(9)
    shape = (spec.divisions ** rank,) * 2
    # arbitrary samples, not only transforms, so the whole linear map is checked
    s = SectionSamples(spec, q, rng.standard_normal(shape)
                       + 1j * rng.standard_normal(shape))
    assert relmax(wgz_inverse(s).values, inverse_oracle(s)) <= 1e-12


TABLE_GRIDS = [("A", 1, 2, 32, 5.0), ("A", 2, 1, 6, 2.0), ("B", 2, 1, 3, 2.0),
               ("G", 2, 1, 3, 2.0)]


@pytest.mark.parametrize("fam,rank,k,res,radius", TABLE_GRIDS)
def test_half_angle_table_matches_dense_exp(fam, rank, k, res, radius):
    """The window c(p + q) of one (2N - 1)^n chirp times the cell factors
    e(p) e(q) is the dense exp to 1e-15; the window and its conjugate are
    views that each span one chirp alone."""
    _, spec, _ = make(fam, rank, k, res, radius)
    nn, cells = spec.divisions, spec.divisions ** rank
    window, conj_window, e = _half_angle_phase(spec)
    assert window.shape == conj_window.shape == (nn,) * (2 * rank) and e.shape == (cells,)
    for view in (window, conj_window):
        low, high = np.lib.array_utils.byte_bounds(view)
        assert high - low == 16 * (2 * nn - 1) ** rank
    assert np.array_equal(conj_window, window.conj())
    got = window.reshape(cells, cells) * e[:, None] * e[None, :]
    assert np.abs(got - half_angle_oracle(spec)).max() <= 1e-15


# (type, k, N, M) of every grid of this file's tests, and A3, C2 and D4
SHIFT_GRIDS = [("A", 1, 1, 24, 4), ("A", 1, 1, 256, 64), ("A", 1, 1, 320, 2), ("A", 1, 2, 8, 4),
               ("A", 1, 2, 16, 1), ("A", 1, 2, 32, 1), ("A", 1, 2, 32, 3), ("A", 1, 2, 48, 3),
               ("A", 1, 2, 256, 3), ("A", 2, 1, 9, 1), ("A", 2, 1, 15, 2), ("A", 2, 1, 21, 3),
               ("A", 2, 1, 27, 4), ("A", 2, 1, 30, 3), ("A", 2, 1, 36, 2), ("A", 2, 2, 12, 3),
               ("B", 2, 1, 6, 1), ("B", 2, 1, 14, 3), ("B", 2, 1, 24, 5), ("B", 2, 2, 12, 1),
               ("G", 2, 1, 9, 1), ("G", 2, 1, 21, 3), ("G", 2, 1, 24, 1), ("A", 3, 1, 8, 1),
               ("C", 2, 1, 4, 2), ("D", 4, 1, 2, 1)]


@pytest.mark.parametrize("fam,rank,k,divisions,half_width", SHIFT_GRIDS)
def test_lattice_shifts_are_the_cube_mesh_oracle(fam, rank, k, divisions, half_width):
    """The shifts built from Z's points and nu in [-M, M)^n equal the
    cube-mesh enumeration bit for bit, in the same order."""
    rs = build_root_system(LieType(fam, rank))
    spec = GridSpec(rs=rs, k=k, divisions=divisions, half_width=half_width)
    got = spec.lattice_shifts()
    assert got.dtype == np.int64 and np.array_equal(got, shift_oracle(spec))


@pytest.mark.parametrize("fam,rank,k,res,radius", TABLE_GRIDS + ORACLE_GRIDS[1:])
def test_inverse_plan_matches_box_point_oracle(fam, rank, k, res, radius):
    """The blocked read-off, put back in family order, is the read-off index
    of every box point; a block is whole leading-axis slices, of at most
    2^16 entries unless one slice alone is larger."""
    _, spec, q = make(fam, rank, k, res, radius)
    plan = _inverse_plan(spec)
    cells, slab = spec.divisions ** rank, spec.divisions ** (rank - 1)
    assert plan.rows % slab == 0
    assert plan.rows == slab or plan.rows * cells <= 2 ** 16
    assert np.array_equal(np.sort(plan.order), np.arange(len(plan.order)))
    block = np.repeat(np.arange(len(plan.bounds) - 1), np.diff(plan.bounds))
    assert len(block) == len(plan.order) and plan.offset.max() < plan.rows * cells
    index = np.empty(len(plan.order), dtype=np.int64)
    index[plan.order] = plan.offset + block * (plan.rows * cells)
    assert np.array_equal(index.reshape(q.order, -1), inverse_plan_oracle(spec))


@pytest.mark.parametrize("fam,rank,k,res,radius", [("A", 1, 1, 320, 2.0), ("A", 2, 1, 6, 3.0),
                                                   ("G", 2, 1, 4, 1.5)])
def test_inverse_and_quasi_periodicity_do_not_depend_on_the_block(monkeypatch, fam, rank, k,
                                                                   res, radius):
    """Row blocks only split the work: on grids of several blocks the inverse
    and the quasi-periodicity residual are bit-identical to one block."""
    rs, spec, q = make(fam, rank, k, res, radius)
    f = random_gaussian_poly_family(spec, q, np.random.default_rng(6))
    s = wgz_forward(f)
    assert len(_inverse_plan(spec).bounds) > 2
    blocked = wgz_inverse(s).values, quasi_periodicity_residual(f, s)
    monkeypatch.setattr(wgz, "_ONE_THREAD_MADDS", spec.divisions ** (2 * rank))
    _, spec1, _ = make(fam, rank, k, res, radius)
    f1 = GridFunctionFamily(spec1, q, f.values)
    s1 = wgz_forward(f1)
    assert len(_inverse_plan(spec1).bounds) == 2
    assert np.array_equal(wgz_inverse(s1).values, blocked[0])
    assert quasi_periodicity_residual(f1, s1) == blocked[1]


def test_one_fft_per_transform(monkeypatch):
    """Every finite index rides on one fold and one FFT; the inverse runs
    one ifftn per row block, which is one on this grid, and the half-angle
    chirp is built once per grid."""
    rs, spec, q = make("B", 2, 2, 4, 1.0)
    assert q.order == 16
    calls = []
    for name in ("fftn", "ifftn"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
    s = wgz_forward(random_gaussian_poly_family(spec, q, np.random.default_rng(4)))
    assert calls == ["fftn"]
    factors = spec._cache["half_angle"]
    wgz_inverse(s)
    assert len(_inverse_plan(spec).bounds) == 2
    assert calls == ["fftn", "ifftn"]
    assert spec._cache["half_angle"] is factors


PLAN_GRIDS = [("A", 1, 2, 32, 5.0), ("A", 2, 1, 6, 3.0)]


def _transform_all(f):
    s = wgz_forward(f)
    return (s, wgz_inverse(s), quasi_periodicity_residual(f, s),
            section_S(s), section_T(s))


@pytest.mark.parametrize("fam,rank,k,res,radius", PLAN_GRIDS)
def test_transforms_leave_inputs_and_cache_unchanged(fam, rank, k, res, radius):
    """The in-place FFTs and phase multiplies write only into buffers the
    call allocated: inputs and the half-angle windows and cell factor are
    byte-equal after."""
    rs, spec, q = make(fam, rank, k, res, radius)
    f = random_gaussian_poly_family(spec, q, np.random.default_rng(10))
    f_bytes = f.values.tobytes()
    s = wgz_forward(f)
    s_bytes = s.values.tobytes()
    factors = [r.tobytes() for r in spec._cache["half_angle"]]
    wgz_inverse(s)
    quasi_periodicity_residual(f, s)
    section_S(s)
    section_T(s)
    wgz_forward(f)
    assert f.values.tobytes() == f_bytes
    assert s.values.tobytes() == s_bytes
    assert [r.tobytes() for r in spec._cache["half_angle"]] == factors


@pytest.mark.parametrize("fam,rank,k,res,radius", PLAN_GRIDS)
def test_repeated_calls_are_bit_identical(fam, rank, k, res, radius):
    rs, spec, q = make(fam, rank, k, res, radius)
    f = random_gaussian_poly_family(spec, q, np.random.default_rng(11))
    first, second = _transform_all(f), _transform_all(f)
    assert first[2] == second[2]
    for a, b in zip(first[:2] + first[3:], second[:2] + second[3:]):
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("fam,rank,k,res,radius", PLAN_GRIDS)
def test_plans_built_once_per_grid_and_offset(fam, rank, k, res, radius):
    """One forward plan per theta1 offset (the quasi-periodicity
    translations included), one inverse plan and one per section operator,
    each reused as the same object by later calls."""
    rs, spec, q = make(fam, rank, k, res, radius)
    f = gaussian_family(spec, q)
    _transform_all(f)
    plans = dict(spec._cache)
    eye = np.eye(rank, dtype=int)
    offsets = {tuple(row) for row in eye} | {(0,) * rank}
    assert {key[1] for key in plans if key[0] == "forward"} == offsets
    for key in ("inverse", "section_S", "section_T", "half_angle"):
        assert key in plans
    _transform_all(random_gaussian_poly_family(spec, q, np.random.default_rng(12)))
    assert spec._cache.keys() == plans.keys()
    for key, obj in plans.items():
        assert spec._cache[key] is obj, key


@pytest.mark.parametrize("fam,rank,k,divisions", [("A", 1, 2, 16), ("A", 2, 1, 9),
                                                   ("B", 2, 1, 6)])
def test_section_operators_match_cell_by_cell_oracle(fam, rank, k, divisions):
    rs = build_root_system(LieType(fam, rank))
    spec = GridSpec(rs=rs, k=k, divisions=divisions, half_width=1)
    q = quotient_group(rs, k)
    rng = np.random.default_rng(13)
    shape = (spec.divisions ** rank,) * 2
    s = SectionSamples(spec, q, rng.standard_normal(shape)
                       + 1j * rng.standard_normal(shape))
    # scalar and vectorised exp differ in the last bits only
    assert np.abs(section_S(s).values - section_oracle(s, "S")).max() <= 1e-13
    assert np.abs(section_T(s).values - section_oracle(s, "T")).max() <= 1e-13


def section_phase_oracle(spec, name):
    """The phase table of section_S or section_T from its exact integer
    exponent: e^{-pi i <a, mu>_k / N} for psi(a, c + N mu)."""
    nn, cell = spec.divisions, spec.cell_coords()
    rows = np.arange(len(cell))
    if name == "S":
        a = np.broadcast_to(rows[None, :], (len(cell),) * 2)
        b = np.broadcast_to(-cell[:, None, :], a.shape + (spec.n,))
    else:
        a = np.broadcast_to(rows[:, None], (len(cell),) * 2)
        b = cell[:, None, :] + cell[None, :, :]
    mu = (b - b % nn) // nn
    expo = np.einsum("pqi,pqi->pq", (cell @ spec.quotient().kg)[a], mu)
    return np.exp(-1j * math.pi * expo / nn), np.abs(expo).max() / nn


@pytest.mark.parametrize("fam,rank,k,divisions", [("A", 1, 2, 16), ("A", 1, 3, 96),
                                                   ("A", 2, 1, 9), ("B", 2, 1, 6),
                                                   ("G", 2, 3, 18), ("C", 3, 2, 8)])
def test_section_phases_are_the_multiplier(fam, rank, k, divisions):
    """The section plans take their phase from multiplier_eval at (0, mu)
    and (a/N, c/N).  Its argument <a/N, mu>_k is formed from the inexact a/N,
    so it departs from the exact-exponent table by a few ulps of the largest
    argument: none at a power-of-two N, 7e-15 on G2 k=3 N=18."""
    rs = build_root_system(LieType(fam, rank))
    spec = GridSpec(rs=rs, k=k, divisions=divisions, half_width=1)
    for name in ("S", "T"):
        want, arg = section_phase_oracle(spec, name)
        got = _section_plan(spec, name)[1]
        assert np.abs(got - want).max() <= 2 * EPS * math.pi * (1 + arg)
        if divisions & (divisions - 1) == 0:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("fam,rank,k", [("A", 1, 2), ("A", 2, 1), ("G", 2, 3), ("B", 3, 2),
                                        ("D", 4, 1)])
def test_multiplier_per_element_lattice_vectors_match_scalar_calls(fam, rank, k):
    """lam1 and lam2 broadcast like theta: each entry is the scalar call, to
    the one ulp by which numpy's array and scalar complex products differ."""
    rs = build_root_system(LieType(fam, rank))
    rng = np.random.default_rng(14)
    l1, l2 = rng.integers(-3, 4, (2, 60, rank))
    t1, t2 = rng.normal(size=(2, 60, rank))
    got = multiplier_eval(rs, k, l1, l2, t1, t2)
    want = [multiplier_eval(rs, k, *args) for args in zip(l1, l2, t1, t2)]
    assert got.shape == (60,)
    assert np.abs(got - want).max() <= 2 * EPS
    # the parity per element: at theta = 0 the multiplier is the sign alone
    zero = np.zeros(rank)
    assert np.array_equal(multiplier_eval(rs, k, l1, l2, zero, zero).real,
                          [multiplier_eval(rs, k, a, b, zero, zero).real for a, b in zip(l1, l2)])


@pytest.mark.parametrize("fam,rank,k,res,radius,stride",
                         [("A", 1, 2, 32, 5.0, 1), ("A", 2, 1, 6, 3.0, 13)])
def test_multiplier_broadcast_matches_pointwise_loop(fam, rank, k, res, radius,
                                                     stride):
    rs, spec, q = make(fam, rank, k, res, radius)
    cell = spec.cell_coords()[::stride] / spec.divisions
    eye = np.eye(rank, dtype=int)
    for mu1, mu2 in [(eye[0], 0 * eye[0]), (0 * eye[0], eye[-1]),
                     (eye[0], eye[-1]), (eye[0] + eye[-1], 2 * eye[-1])]:
        got = multiplier_eval(rs, k, mu1, mu2, cell[:, None], cell[None, :])
        want = np.array([[multiplier_oracle(rs, k, mu1, mu2, t1, t2)
                          for t2 in cell] for t1 in cell])
        assert np.abs(got - want).max() <= 1e-12


def test_multiplier_trivial_and_parity():
    rs = build_root_system(LieType("A", 1))
    z = np.zeros(1)
    assert multiplier_eval(rs, 1, z, z, z, z) == 1
    # integer lattice pairing <e, e>_k = 2k: always even, sign +1 at theta = 0
    one = np.ones(1)
    assert abs(multiplier_eval(rs, 1, one, one, z, z) - 1) < 1e-15
    # theta-dependent phase: e^{-pi i (<t1, l2> - <l1, t2>)}
    t = np.array([0.25])
    expected = np.exp(-1j * math.pi * (1 * 2 * 0.25))
    assert abs(multiplier_eval(rs, 1, 0 * one, one, t, z) - expected) < 1e-14


def test_multiplier_odd_parity_and_non_integral_vectors():
    """<e1, e2>_k = -k on A2 sets the sign at theta = 0; a lattice vector off
    the coroot lattice is a DomainError."""
    rs = build_root_system(LieType("A", 2))
    e1, e2, z = np.array([1, 0]), np.array([0, 1]), np.zeros(2)
    assert multiplier_eval(rs, 1, e1, e2, z, z) == -1
    assert multiplier_eval(rs, 2, e1, e2, z, z) == 1
    for bad in ([Fraction(1, 2), 0], [0.5, 0], [math.nan, 0]):
        with pytest.raises(DomainError):
            multiplier_eval(rs, 1, bad, e2, z, z)


@pytest.mark.parametrize("fam,rank,k", [("A", 1, 1), ("A", 2, 2), ("B", 2, 1)])
def test_multiplier_cocycle(fam, rank, k):
    rs = build_root_system(LieType(fam, rank))
    n = rank
    rng = np.random.default_rng(5)
    for _ in range(40):
        l1, l2, m1, m2 = (rng.integers(-2, 3, n) for _ in range(4))
        t1, t2 = rng.normal(size=n), rng.normal(size=n)
        lhs = multiplier_eval(rs, k, l1 + m1, l2 + m2, t1, t2)
        rhs = (multiplier_eval(rs, k, l1, l2, t1 + m1, t2 + m2)
               * multiplier_eval(rs, k, m1, m2, t1, t2))
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("fam,rank,k,res", [("A", 1, 1, 24), ("A", 1, 2, 32),
                                            ("A", 2, 1, 6), ("B", 2, 1, 8)])
def test_roundtrip_exact_on_gaussian(fam, rank, k, res):
    rs, spec, q = make(fam, rank, k, res, 5.0 if rank == 1 else 3.0)
    f = gaussian_family(spec, q)
    back = wgz_inverse(wgz_forward(f))
    assert np.abs(back.values - f.values).max() < 1e-12


def test_roundtrip_random_inputs_and_parseval():
    rs, spec, q = make("A", 1, 2, 32, 5.0)
    rng = np.random.default_rng(2)
    fams = [random_gaussian_poly_family(spec, q, rng) for _ in range(4)]
    secs = [wgz_forward(f) for f in fams]
    for f, s in zip(fams, secs):
        back = wgz_inverse(s)
        assert np.abs(back.values - f.values).max() / np.abs(f.values).max() < 1e-10
    for (f, sf), (g, sg) in zip(zip(fams, secs), zip(fams[1:], secs[1:])):
        assert abs(inner_section(sf, sg) - inner_family(f, g)) \
            < 1e-10 * abs(inner_family(f, g))


def test_forward_of_zero_is_zero():
    rs, spec, q = make("A", 1, 1, 16, 4.0)
    f = GridFunctionFamily(spec, q, np.zeros((q.order, spec.box_points_per_axis)))
    s = wgz_forward(f)
    assert np.abs(s.values).max() == 0
    assert np.abs(wgz_inverse(s).values).max() == 0


@pytest.mark.parametrize("fam,rank,k,res,radius",
                         [("A", 1, 2, 32, 5.0), ("A", 2, 1, 6, 3.0)])
def test_quasi_periodicity(fam, rank, k, res, radius):
    rs, spec, q = make(fam, rank, k, res, radius)
    f = gaussian_family(spec, q)
    s = wgz_forward(f)
    assert quasi_periodicity_residual(f, s) < 1e-9


def test_alias_guard_raises_on_coarse_grid():
    rs = build_root_system(LieType("A", 1))
    q = quotient_group(rs, 2)
    spec = GridSpec(rs=rs, k=2, divisions=8, half_width=4)
    assert alias_margin(spec) <= 0
    s = wgz_forward(gaussian_family(spec, q))
    with pytest.raises(DomainError):
        wgz_inverse(s)


def alias_margin_oracle(spec):
    """alias_margin from the float inverse N^2 (kG)^{-1}, each image rounded
    to the nearest grid unit, one x in {-2..2}^n at a time."""
    n, nn = spec.n, spec.divisions
    dual = np.linalg.inv(float_kg(spec)) * nn ** 2
    best = None
    for x in itertools.product(range(-2, 3), repeat=n):
        if any(x):
            m = int(np.rint(np.abs(dual @ np.asarray(x, dtype=float)).max()))
            best = m if best is None else min(best, m)
    return best - 2 * spec.half_width * nn


LATTICE_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
                 ("D", 4)]


@pytest.mark.parametrize("fam,rank", LATTICE_TYPES)
def test_alias_margin_and_cell_volume_match_float_oracles(fam, rank):
    """The integer dual period (N^2 / D) kinv gives the margin of the float
    inverse on every grid, 3 levels x 5 divisions x 3 box widths per type;
    the cell volume sqrt|Z| / N^n is sqrt(det kG) / N^n to 4e-16."""
    rs = build_root_system(LieType(fam, rank))
    for k in (1, 2, 3):
        q = quotient_group(rs, k)
        for mult in (1, 2, 3, 5, 8):
            for half_width in (1, 2, 6):
                spec = GridSpec(rs=rs, k=k, divisions=q.denom * mult,
                                half_width=half_width, _cache={"quotient": q})
                assert alias_margin(spec) == alias_margin_oracle(spec)
            want = math.sqrt(np.linalg.det(float_kg(spec))) / spec.divisions ** rank
            assert abs(spec.cell_volume() - want) <= 4e-16 * want


def test_grid_spec_from_box_bumps_past_alias_limit():
    rs = build_root_system(LieType("A", 2))
    spec = grid_spec_from_box(rs, 1, 6, 3.0)
    assert alias_margin(spec) > 0
    q = quotient_group(rs, 1)
    f = gaussian_family(spec, q)
    assert np.abs(wgz_inverse(wgz_forward(f)).values - f.values).max() < 1e-12


def _smooth7(m):
    for p in (2, 3, 5, 7):
        while m % p == 0:
            m //= p
    return m == 1


@pytest.mark.parametrize("fam,rank,k,res,radius,divisions", [
    ("A", 1, 2, 1448, 6.0, 1500), ("A", 1, 1, 22, 6.0, 24), ("A", 1, 1, 26, 6.0, 28),
    ("A", 2, 1, 33, 2.0, 36), ("A", 1, 2, 1440, 6.0, 1440), ("A", 2, 1, 3, 2.0, 21)])
def test_grid_divisions_have_a_7_smooth_cofactor(fam, rank, k, res, radius, divisions):
    """N is the first multiple of D from the resolution up whose cofactor
    N / D is 7-smooth (trial division here) and that passes the alias
    check: 1448 = 4 * 2 * 181 moves to 1500 = 4 * 3 * 5^3, 22 = 2 * 11 to
    24, and A2's alias bump to 21 = 3 * 7 stays."""
    rs, spec, q = make(fam, rank, k, res, radius)
    assert spec.divisions == divisions
    first = next(n for n in range(-(-res // q.denom) * q.denom, divisions + 1, q.denom)
                 if _smooth7(n // q.denom) and alias_margin(GridSpec(
                     rs=rs, k=k, divisions=n, half_width=spec.half_width)) > 0)
    assert first == divisions


def test_resolution_past_the_budget_is_refused_at_once():
    """Every candidate grid is charged before its cofactor is tested, so a
    resolution far past the budget is refused on its first candidate, with
    no search for a 7-smooth cofactor (the next one past 5 * 10^11 is far)."""
    rs = build_root_system(LieType("A", 1))
    start = time.monotonic()
    with pytest.raises(ResourceLimitError,
                       match=r"^A1 k=1 grid with N=1000000000002, M=5: sections needs "):
        grid_spec_from_box(rs, 1, 10 ** 12 + 1, 6.0)
    assert time.monotonic() - start < 1.0


def test_operator_intertwining():
    """S-tilde and T-tilde on sections match the prequantum operators
    transported through the transform composed with the finite Fourier map,
    in rank one and two."""
    for case in [("A", 1, 2, 48, 6.0), ("A", 2, 1, 3, 3.0), ("B", 2, 1, 3, 3.0)]:
        rs, spec, q = make(*case)
        rng = np.random.default_rng(1)
        f = random_gaussian_poly_family(spec, q, rng)
        zf = wgz_forward(apply_finite_fourier(f))
        scale = np.abs(zf.values).max()
        lhs_s = section_S(zf).values
        rhs_s = wgz_forward(apply_finite_fourier(prequantum_S(f))).values
        assert np.abs(lhs_s - rhs_s).max() / scale < 1e-8, case
        lhs_t = section_T(zf).values
        rhs_t = wgz_forward(apply_finite_fourier(prequantum_T(f))).values
        assert np.abs(lhs_t - rhs_t).max() / scale < 1e-10, case


def prequantum_S_dense(f):
    """S-hat with the continuous Fourier factor as the dense B^n x B^n box
    kernel e^{2 pi i <theta, theta'>_k} times the cell volume, built in row
    chunks.  Oracle for the chirp-convolution prequantum_S."""
    spec, quotient = f.spec, f.quotient
    nn = spec.divisions
    kg = float_kg(spec)
    box = spec.box_coords()
    vals = np.empty_like(f.values)
    chunk = max(1, 10_000_000 // max(len(box), 1))
    for lo in range(0, len(box), chunk):
        kernel = np.exp(2j * math.pi
                        * (box[lo:lo + chunk] @ kg @ box.T) / nn ** 2)
        vals[:, lo:lo + chunk] = f.values @ kernel.T
    vals *= spec.cell_volume()
    return apply_finite_fourier(
        GridFunctionFamily(spec, quotient, vals), inverse=True)


@pytest.mark.parametrize("fam, rank, k, divisions, half_width",
                         [("A", 1, 2, 48, 3), ("A", 2, 1, 30, 1), ("G", 2, 1, 24, 1)])
def test_prequantum_S_matches_dense_kernel(fam, rank, k, divisions, half_width):
    rs = build_root_system(LieType(fam, rank))
    spec = GridSpec(rs=rs, k=k, divisions=divisions, half_width=half_width)
    f = random_gaussian_poly_family(spec, quotient_group(rs, k), np.random.default_rng(5))
    assert relmax(prequantum_S(f).values, prequantum_S_dense(f).values) <= 1e-12


def random_family_sequential(spec, quotient, rng, max_degree=3):
    """The random family drawn index by index and degree by degree: oracle
    for the stream order of the one-draw random_gaussian_poly_family."""
    kg = float_kg(spec)
    coords = spec.box_coords() / spec.divisions
    env = np.exp(-math.pi * np.einsum("pi,ij,pj->p", coords, kg, coords))
    vals = []
    for _ in range(quotient.order):
        poly = np.zeros(len(coords), dtype=complex)
        for d in range(max_degree + 1):
            c = rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)
            poly += (coords @ c) ** d * (rng.standard_normal()
                                         + 1j * rng.standard_normal())
        vals.append(poly * env)
    return np.stack(vals)


@pytest.mark.parametrize("fam, rank, k, res, radius",
                         [("A", 1, 2, 32, 5.0), ("A", 2, 1, 3, 2.0), ("G", 2, 1, 3, 2.0)])
def test_random_family_matches_sequential_draws(fam, rank, k, res, radius):
    """One draw gives the family of one draw per index and degree: bit for
    bit in rank one (one product per point), to rounding in rank two."""
    rs, spec, q = make(fam, rank, k, res, radius)
    got = random_gaussian_poly_family(spec, q, np.random.default_rng(4)).values
    want = random_family_sequential(spec, q, np.random.default_rng(4))
    if rank == 1:
        assert np.array_equal(got, want)
    assert relmax(got, want) <= 1e-15


def test_random_family_holds_two_family_arrays():
    """The degree-at-a-time sum keeps two |Z| x B^n arrays besides the
    per-point coordinates and envelope (half a family each in A1).  The
    first call in a process allocates ~0.75 MB more, so one warm-up call
    comes first and the bound holds whether the test runs alone or not."""
    rs = build_root_system(LieType("A", 1))
    spec = GridSpec(rs=rs, k=1, divisions=256, half_width=64)
    random_gaussian_poly_family(spec, quotient_group(rs, 1), np.random.default_rng(0))
    tracemalloc.start()
    f = random_gaussian_poly_family(spec, quotient_group(rs, 1), np.random.default_rng(0))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2.75 * f.values.nbytes


def test_prequantum_S_holds_one_padded_buffer():
    """The chirp convolution runs one gamma at a time: besides its output
    family and the finite Fourier result, prequantum_S holds a few padded
    B'^n buffers (the chirp and one input), not one per gamma (A2 k=2,
    |Z| = 12)."""
    rs = build_root_system(LieType("A", 2))
    spec = GridSpec(rs=rs, k=2, divisions=12, half_width=3)
    f = random_gaussian_poly_family(spec, quotient_group(rs, 2), np.random.default_rng(0))
    padded = 16 * _smooth_length(2 * spec.box_points_per_axis - 1) ** spec.n
    tracemalloc.start()
    prequantum_S(f)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 * f.values.nbytes + 3 * padded


def test_wgz_inverse_holds_its_family_and_one_block():
    """The inverse runs one row block of at most 2^16 entries at a time and
    reads the half-angle phase from its chirp: on A2 k=1 res 30, whose
    section is 13 MB, it peaks below its family plus 2 MB."""
    rs, spec, q = make("A", 2, 1, 30, 2.0)
    rng = np.random.default_rng(0)
    shape = (spec.divisions ** 2,) * 2
    s = SectionSamples(spec, q, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    wgz_inverse(s)      # the plan and the phase factors are cached on the grid
    tracemalloc.start()
    back = wgz_inverse(s)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < back.values.nbytes + 2e6


def test_quasi_periodicity_holds_one_section_sized_array():
    """One translate at a time, compared with e_lambda s a row block at a
    time: besides the forward's C x S work arrays, one section-sized array
    (A2 k=1 res 30)."""
    rs, spec, q = make("A", 2, 1, 30, 2.0)
    f = random_gaussian_poly_family(spec, q, np.random.default_rng(0))
    s = wgz_forward(f)
    quasi_periodicity_residual(f, s)    # builds the plan of each translate
    tracemalloc.start()
    quasi_periodicity_residual(f, s)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1.5 * s.values.nbytes


def test_prequantum_T_on_single_index_gaussian():
    rs, spec, q = make("A", 1, 1, 24, 5.0)
    f = gaussian_family(spec, q)
    out = prequantum_T(f)
    # gamma = 0 carries finite phase 1; pointwise factor is e^{-pi i <t,t>_k}
    coords = spec.box_coords() / spec.divisions
    kg = float_kg(spec)
    quad = np.einsum("pi,ij,pj->p", coords, kg, coords)
    expected = f.values[0] * np.exp(-1j * math.pi * quad)
    assert np.abs(out.values[0] - expected).max() < 1e-13
    assert np.abs(out.values[1:] - f.values[1:] * 0).max() == 0


@pytest.mark.parametrize("fam,rank,k,divisions,half_width", [("A", 1, 2, 4, 3),
                                                              ("A", 2, 1, 3, 2),
                                                              ("G", 2, 1, 3, 2)])
def test_prequantum_T_chirp_is_periodic_on_the_window_lattice(fam, rank, k, divisions,
                                                              half_width):
    """The pointwise chirp of T-hat, e^{-pi i p.kG p / N^2} at grid index p
    (row gamma = 0 of prequantum_T on ones, where G_Z is 1), is invariant
    under p -> p + l for l in L = (N^2 / D) kinv Z^n: kG l = N^2 m, and
    l.kG l / N^2 = x.kG x with x = l / N integral and kG even.  So the
    period window Z^n / L is a quadratic module too.  Checked on every box
    pair that L joins, in integers and on the values."""
    rs = build_root_system(LieType(fam, rank))
    spec = GridSpec(rs=rs, k=k, divisions=divisions, half_width=half_width)
    z, nn = spec.quotient(), spec.divisions
    ones = GridFunctionFamily(spec, z, np.ones((z.order, spec.box_points_per_axis ** rank)))
    chirp = prequantum_T(ones).values[z.index_of(np.zeros(rank, dtype=np.int64))]
    box = spec.box_coords()
    mn = spec.half_width * nn
    pairs = 0
    for m in itertools.product(range(-2, 3), repeat=rank):
        ell = z.kinv @ np.array(m) * (nn * nn // z.denom)
        assert (z.kg @ ell == nn * nn * np.array(m)).all()
        inside = np.all(np.abs(box + ell) <= mn, axis=1)
        p = box[inside]
        expo = 2 * np.einsum("pi,ij,j->p", p, z.kg, ell) + ell @ z.kg @ ell
        assert (expo % (2 * nn * nn) == 0).all()
        moved = chirp[spec.box_flat_index(p + ell)]
        assert np.abs(moved - chirp[inside]).max(initial=0.0) <= 1e-12
        pairs += int(inside.sum()) * any(m)
    assert pairs > 0


def test_prequantum_S_gaussian_self_dual():
    """On the standard Gaussian the continuous Fourier factor acts as the
    identity, so S-hat reduces to the inverse finite Fourier transform."""
    rs, spec, q = make("A", 1, 1, 48, 6.0)
    f = gaussian_family(spec, q)
    out = prequantum_S(f)
    expected = apply_finite_fourier(f, inverse=True)
    assert np.abs(out.values - expected.values).max() < 1e-8


def test_weyl_equivariance():
    rs, spec, q = make("A", 1, 2, 24, 5.0)
    rng = np.random.default_rng(3)
    f = random_gaussian_poly_family(spec, q, rng)
    w = rs.weyl_group().elements[1]
    lhs = apply_finite_fourier(weyl_action(f, w))
    rhs = weyl_action(apply_finite_fourier(f), w)
    assert np.abs(lhs.values - rhs.values).max() < 1e-12


@pytest.mark.parametrize("fam,moved", [("A", 4), ("B", 6), ("G", 10)])
def test_weyl_action_refuses_a_w_that_moves_the_cube(fam, moved):
    """The cube box is W-invariant only in rank one: in rank two weyl_action
    applies the two w whose matrix is a signed permutation (1 and -1 in the
    coroot basis, or a signed swap), equivariantly with F_Z, and refuses
    every other w with one DomainError that names the limit."""
    rs = build_root_system(LieType(fam, 2))
    q = quotient_group(rs, 1)
    spec = GridSpec(rs=rs, k=1, divisions=q.denom, half_width=1)
    f = random_gaussian_poly_family(spec, q, np.random.default_rng(5))
    refused = 0
    for w in rs.weyl_group().elements:
        m = np.array(w.matrix)
        if (np.abs(m).sum(axis=1) == 1).all():
            lhs = apply_finite_fourier(weyl_action(f, w))
            rhs = weyl_action(apply_finite_fourier(f), w)
            assert np.abs(lhs.values - rhs.values).max() < 1e-12
        else:
            with pytest.raises(DomainError, match="W-invariant only in rank one") as err:
                weyl_action(f, w)
            assert len(str(err.value).splitlines()) == 1
            refused += 1
    assert refused == moved


def test_spec_validation():
    rs = build_root_system(LieType("A", 1))
    with pytest.raises(SchemaError):
        GridSpec(rs=rs, k=2, divisions=3, half_width=4)   # not a multiple of 4
    with pytest.raises(SchemaError):
        GridSpec(rs=rs, k=2, divisions=0, half_width=4)


@pytest.mark.parametrize("other,k", [(("G", 2), 1), (("A", 2), 2)])
def test_family_and_section_refuse_a_quotient_of_another_grid(other, k):
    """A family or section carries Z of its grid's (type, k): the G2 k=1
    quotient has the order and rank of A2 k=1 but another pairing, so on
    the A2 grid it would give a wrong round trip and F_Z."""
    rs = build_root_system(LieType("A", 2))
    spec = GridSpec(rs=rs, k=1, divisions=6, half_width=1)
    q = quotient_group(build_root_system(LieType(*other)), k)
    vals = np.zeros((q.order, spec.box_points_per_axis ** 2), dtype=complex)
    with pytest.raises(SchemaError, match="does not match"):
        GridFunctionFamily(spec, q, vals)
    with pytest.raises(SchemaError, match="does not match"):
        gaussian_family(spec, q)
    with pytest.raises(SchemaError, match="does not match"):
        SectionSamples(spec, q, np.zeros((36, 36), dtype=complex))


def test_roundtrip_report_keys():
    rs = build_root_system(LieType("A", 1))
    rep = roundtrip_report(rs, 1, 24, 5.0, trials=3, seed=0)
    assert rep["roundtrip_residual"] < 1e-10
    assert rep["parseval_relative_error"] < 1e-10
    assert rep["quasi_periodicity_residual"] < 1e-9
    assert rep["trials"] == 3


def test_roundtrip_report_matches_all_families_at_once():
    """The streamed report equals the one computed from every family and
    section held at once, drawn in the same order."""
    rs = build_root_system(LieType("A", 1))
    rep = roundtrip_report(rs, 2, 32, 5.0, trials=4, seed=3)
    rs, spec, q = make("A", 1, 2, 32, 5.0)
    rng = np.random.default_rng(3)
    fams = [gaussian_family(spec, q)]
    fams += [random_gaussian_poly_family(spec, q, rng) for _ in range(3)]
    secs = [wgz_forward(f) for f in fams]
    assert rep["roundtrip_residual"] == max(
        float(np.abs(wgz_inverse(s).values - f.values).max()) / float(np.abs(f.values).max())
        for f, s in zip(fams, secs))
    assert rep["parseval_relative_error"] == max(
        abs(inner_section(sf, sg) - inner_family(f, g)) / abs(inner_family(f, g))
        for f, sf, g, sg in zip(fams, secs, fams[1:], secs[1:]))
    assert rep["quasi_periodicity_residual"] == quasi_periodicity_residual(fams[0], secs[0])


def test_roundtrip_report_memory_flat_in_trials():
    """Only the previous family and section are kept (quasi-periodicity is
    taken on the first one as soon as it is built), so peak memory does not
    grow with the number of trials."""
    rs = build_root_system(LieType("A", 2))
    peaks = []
    for trials in (3, 12):
        tracemalloc.start()
        roundtrip_report(rs, 1, 6, 1.0, trials=trials)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]


def test_roundtrip_report_holds_two_sections():
    """The previous section and the one being built are the only section-sized
    arrays alive: with the forward's C x S block, the families and the
    grid's plans, under 2.5 sections on A2 k=1 res 36 (27 MB each)."""
    rs = build_root_system(LieType("A", 2))
    spec = grid_spec_from_box(rs, 1, 36, 1.0)
    tracemalloc.start()
    roundtrip_report(rs, 1, 36, 1.0, trials=4)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2.5 * 16 * spec.divisions ** 4


def test_grid_over_ceiling_refused_before_allocation():
    """A3 k=1 at resolution 16 and box radius 6: its families of 4 x 289^3
    values are over the byte budget, refused before any array of the grid."""
    rs = build_root_system(LieType("A", 3))
    tracemalloc.start()
    with pytest.raises(ResourceLimitError, match=r"^A3 k=1 grid with N=16, M=9: families needs "
                       + re.escape(f"{80 * 4 * 289 ** 3:.3g} bytes")):
        roundtrip_report(rs, 1, 16, 6.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20


def test_roundtrip_report_boundary_decay_covers_every_family():
    """On a box too small for the inputs, boundary_decay is the worst outer
    shell over all families, not the Gaussian one alone."""
    rs = build_root_system(LieType("A", 1))
    rep = roundtrip_report(rs, 2, 32, 0.1, trials=5, seed=0)
    spec = grid_spec_from_box(rs, 2, 32, 0.1)
    q = quotient_group(rs, 2)
    rng = np.random.default_rng(0)
    fams = [gaussian_family(spec, q)]
    fams += [random_gaussian_poly_family(spec, q, rng) for _ in range(4)]
    decays = [f.boundary_decay() for f in fams]
    assert rep["boundary_decay"] == max(decays) > decays[0]


@pytest.mark.parametrize("fam,rank,k,res,radius", [("A", 1, 2, 32, 0.1), ("A", 2, 1, 3, 0.5),
                                                   ("G", 2, 1, 3, 0.5)])
def test_boundary_decay_reads_the_outer_shell(fam, rank, k, res, radius):
    """The 2n faces of the box are the points whose max-norm coordinate is
    M N: boundary_decay is the sup of |f| over that shell, picked out point
    by point."""
    rs, spec, q = make(fam, rank, k, res, radius)
    f = random_gaussian_poly_family(spec, q, np.random.default_rng(15))
    shell = np.abs(spec.box_coords()).max(axis=1) == spec.half_width * spec.divisions
    assert f.boundary_decay() == np.abs(f.values[:, shell]).max()


@pytest.mark.parametrize("name", ["apply_finite_fourier", "prequantum_T"])
def test_finite_operators_read_the_integer_discriminant_form(name):
    """F_Z and the Gauss factor of T-hat take their phases from Z's
    `character` and `gauss`, which read the integer pairing and norm on Z:
    neither forms a float <gamma, gamma'>_k from the float Gram matrix or
    the grid coordinates of the reps, nor reads `pair` or `norm` itself."""
    path = Path(__file__).resolve().parents[1] / "src" / "cstorus" / "wgz.py"
    fn = next(node for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == name)
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(fn) if isinstance(node, ast.Call)}
    read = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    assert not called & {"pairing_matrix", "_gamma_grid_coords", "pair", "norm"}, sorted(called)
    assert ("character" if name == "apply_finite_fourier" else "gauss") in called
    assert {"quotient", "numerators"} <= read, sorted(read)

"""Flow parameters, Hermite eigenbasis, Mehler kernel, conjugated generators."""

import ast
import cmath
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from cstorus.errors import DomainError, InconsistencyError, SchemaError
from cstorus.finrep import phase_constants
from cstorus.heatkernel import (GRAM_CONDITION_CEILING, EtaKernelSpec, GridSamples1D,
                                alpha_constant, eta_apply, ground_state, heat_apply,
                                hermite_function_table, laplacian_spectrum, mobius_sigma,
                                solve_params, trapezoid_weights, uniform_grid,
                                verify_conjugation)
from cstorus.heatkernel import (_bilinear_phase, _mehler, _rank_one_phases, _rho,
                                _smooth_length)
from cstorus.roots import LieType, build_root_system


def mehler_closed_kernel(q, sigma, y_out, y_in, root_q=None):
    """Dense closed form of sum_m q^{m+1/2} v_m(y) conj(v_m(yt)) / ||v_m||^2
    for any |q| with Re(1 - q^2) > 0; root_q fixes the branch of q^{1/2}
    (principal by default).  Oracle for the FFT-applied Mehler operator."""
    q = complex(q)
    a = alpha_constant(sigma)
    assert (1 - q * q).real > 0
    yo = np.asarray(y_out, dtype=float)
    yi = np.asarray(y_in, dtype=float)
    quad = (2 * a * q * np.outer(yo, yi)
            - a * q * q * (yo[:, None] ** 2 + yi[None, :] ** 2)) / (1 - q * q)
    root = (cmath.sqrt(q) if root_q is None else root_q) \
        * cmath.sqrt(a / (math.pi * (1 - q * q)))
    return root * np.exp(quad) * ground_state(yo, sigma)[:, None] \
        * np.conj(ground_state(yi, sigma))[None, :]


def mehler_kernel(params, y_out, y_in, sigma=None, inverse=False):
    """Dense kernel of exp(-+ r Laplacian_sigma) on the line: the closed form
    with ratio q = exp(-+ 2kr)."""
    sigma = params.sigma if sigma is None else complex(sigma)
    q = cmath.exp((2 if inverse else -2) * params.k * params.r)
    root_q = cmath.exp((1 if inverse else -1) * params.k * params.r)
    return mehler_closed_kernel(q, sigma, y_out, y_in, root_q=root_q)


def mehler_series_kernel(q, sigma, y_out, y_in, terms):
    """Truncated eigen-sum sum_m q^{m+1/2} v_m(y) conj(v_m(yt)) / ||v_m||^2,
    the independent oracle of the closed form (geometric convergence
    requires |q| < 1)."""
    to = hermite_function_table(terms - 1, np.asarray(y_out, dtype=float), sigma)
    ti = hermite_function_table(terms - 1, np.asarray(y_in, dtype=float), sigma)
    out = np.zeros((to.shape[1], ti.shape[1]), dtype=complex)
    for m in range(terms):
        out += q ** (m + 0.5) * np.outer(to[m], np.conj(ti[m]))
    return out


# -- symbolic oracle: the eigenbasis and the Laplacian by ladder operators --
#
# A function p(y) v(y, sigma), p a polynomial in n level-k orthonormal
# coordinates and v(y, sigma) = exp(-pi i |y|^2 / sigma) the ground state, is
# held by the coefficients of p.  The ladder operators are
# D_sigma = d/dy - 2 alpha y and D_sigmabar = d/dy on such functions, with
# alpha = 2 pi Im(sigma)/|sigma|^2 > 0.  Raising the ground state builds v_l,
# and n k - (k/alpha) sum_j D_sigma,j D_sigmabar,j is the Laplacian: a code
# path independent of hermite_function_table and laplacian_spectrum.

MultiIndex = Tuple[int, ...]


def norm_sq(l: MultiIndex, sigma: complex) -> float:
    """Squared L^2 norm of v_l: prod_j (2 alpha)^{l_j} l_j! * (pi/alpha)^{n/2}."""
    a = alpha_constant(sigma)
    out = (math.pi / a) ** (len(l) / 2)
    for lj in l:
        out *= (2 * a) ** lj * math.factorial(lj)
    return out


@dataclass
class PolyGaussian:
    """A function p(y) * v(y, sigma) with p a polynomial, stored by its
    coefficient array (one axis per coordinate, index = degree)."""
    k: int
    sigma: complex
    coeffs: np.ndarray

    @property
    def n(self) -> int:
        return self.coeffs.ndim

    def _alpha(self) -> float:
        return alpha_constant(self.sigma)

    def d_sigma(self, axis: int) -> "PolyGaussian":
        """Raising ladder operator: p -> dp/dy_axis - 2 alpha y_axis p."""
        d = _poly_deriv(self.coeffs, axis)
        m = _poly_mul_y(self.coeffs, axis)
        shape = tuple(max(a_, b_) for a_, b_ in zip(d.shape, m.shape))
        c = _pad_like(d, shape) - 2.0 * self._alpha() * _pad_like(m, shape)
        return PolyGaussian(k=self.k, sigma=self.sigma, coeffs=c)

    def d_sigma_bar(self, axis: int) -> "PolyGaussian":
        """Lowering ladder operator: p -> dp/dy_axis."""
        return PolyGaussian(k=self.k, sigma=self.sigma, coeffs=_poly_deriv(self.coeffs, axis))

    def laplacian(self) -> "PolyGaussian":
        """Explicit second-order operator n k - (k/alpha) sum_j D_sigma,j D_sigmabar,j."""
        a = self._alpha()
        acc = self.n * self.k * _pad_like(self.coeffs, self.coeffs.shape)
        for axis in range(self.n):
            term = self.d_sigma_bar(axis).d_sigma(axis).coeffs
            shape = tuple(max(a_, b_) for a_, b_ in zip(acc.shape, term.shape))
            acc = _pad_like(acc, shape) - (self.k / a) * _pad_like(term, shape)
        return PolyGaussian(k=self.k, sigma=self.sigma, coeffs=acc)

    def evaluate(self, y) -> np.ndarray:
        """Values at points y of shape (m, n) in level-k orthonormal coordinates."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        out = np.empty(len(y), dtype=complex)
        for i, p in enumerate(y):
            c = self.coeffs.astype(complex)
            for x in p:
                c = npp.polyval(x, c)
            out[i] = c
        return out * np.exp(-1j * math.pi * np.sum(y ** 2, axis=1) / self.sigma)


def _poly_deriv(c: np.ndarray, axis: int) -> np.ndarray:
    c = np.moveaxis(np.asarray(c, dtype=complex), axis, 0)
    if c.shape[0] == 1:
        d = np.zeros_like(c)
    else:
        d = c[1:] * np.arange(1, c.shape[0]).reshape((-1,) + (1,) * (c.ndim - 1))
    return np.moveaxis(d if d.shape[0] else np.zeros_like(c[:1]), 0, axis)


def _poly_mul_y(c: np.ndarray, axis: int) -> np.ndarray:
    c = np.moveaxis(np.asarray(c, dtype=complex), axis, 0)
    out = np.concatenate([np.zeros_like(c[:1]), c], axis=0)
    return np.moveaxis(out, 0, axis)


def _pad_like(c: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    out = np.zeros(shape, dtype=complex)
    out[tuple(slice(0, s) for s in c.shape)] = c
    return out


def ladder_basis_element(l: MultiIndex, sigma: complex, k: int) -> PolyGaussian:
    """v_l built by repeated application of the raising ladder operators to
    the ground state; an independent code path from the recurrence table."""
    pg = PolyGaussian(k=k, sigma=complex(sigma), coeffs=np.ones((1,) * len(l), dtype=complex))
    for axis, lj in enumerate(l):
        for _ in range(int(lj)):
            pg = pg.d_sigma(axis)
    return pg


@dataclass
class HermiteExpansion:
    """Truncated expansion f = sum_l coeffs[l] * v_l(., sigma)."""
    n: int
    k: int
    sigma: complex
    coeffs: Dict[MultiIndex, complex]

    def evaluate(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        assert y.shape[1] == self.n, (y.shape, self.n)
        lmax = max((max(l) for l in self.coeffs), default=0)
        tables = [hermite_function_table(lmax, y[:, j], self.sigma) for j in range(self.n)]
        acc = np.zeros(len(y), dtype=complex)
        for l, c in sorted(self.coeffs.items()):
            # unit-norm rows times ||v_l||: the coefficients refer to the raw v_l
            term = np.full(len(y), complex(c) * math.sqrt(norm_sq(l, self.sigma)))
            for j, lj in enumerate(l):
                term = term * tables[j][lj]
            acc += term
        return acc


def laplacian_diagonal(f: HermiteExpansion) -> HermiteExpansion:
    """The quantum Laplacian on an expansion through the production
    spectrum: v_l -> laplacian_spectrum(k, |l|, n) v_l."""
    return HermiteExpansion(n=f.n, k=f.k, sigma=f.sigma,
                            coeffs={l: c * laplacian_spectrum(f.k, sum(l), f.n)
                                    for l, c in f.coeffs.items()})


def laplacian_explicit(f: HermiteExpansion) -> PolyGaussian:
    """The same Laplacian applied through the explicit second-order ladder
    form on the polynomial-times-Gaussian representation (independent path)."""
    shape = tuple(max(l[j] for l in f.coeffs) + 1 for j in range(f.n)) if f.coeffs else (1,) * f.n
    acc = np.zeros(shape, dtype=complex)
    for l, c in f.coeffs.items():
        acc += c * _pad_like(ladder_basis_element(l, f.sigma, f.k).coeffs, shape)
    return PolyGaussian(k=f.k, sigma=f.sigma, coeffs=acc).laplacian()


def _relmax(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_solve_params_examples():
    p = solve_params(2, 0.0)
    assert abs(p.b - 1) < 1e-14
    assert abs(p.q - 1j) < 1e-14
    assert abs(p.r - (-1j * math.pi / 8)) < 1e-14
    flipped = solve_params(2, 0.0, branch="flipped")
    assert abs(flipped.q + p.q) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 5])
def test_solve_params_invariant_sweep(k):
    for s in np.linspace(-3 * k, 3 * k, 13):
        p = solve_params(k, float(s))
        t = k + 1j * s
        assert abs(cmath.exp(-4 * k * p.r) + t.conjugate() / t) < 1e-12
        assert abs(1j * s - k * (1 - p.b ** 2) / (1 + p.b ** 2)) < 1e-12
        assert abs(cmath.exp(-2 * k * p.r) - p.q) < 1e-12
        assert abs(abs(p.b) - 1) < 1e-12 and p.b.real > 0


@pytest.mark.parametrize("s", [999.0, -999.0, 1e4, -1e4])
def test_solve_params_large_coupling(s):
    """The is = k(1-b^2)/(1+b^2) self-check is relative to max(k, |s|): its
    absolute residual is ~1e-9 at |s| = 1e4, which an absolute 1e-12 refused."""
    k = 2
    p = solve_params(k, s)
    t = k + 1j * s
    assert abs(cmath.exp(-4 * k * p.r) + t.conjugate() / t) < 1e-12
    assert abs(1j * s - k * (1 - p.b ** 2) / (1 + p.b ** 2)) < 1e-12 * abs(s)
    assert abs(abs(p.b) - 1) < 1e-12 and p.b.real > 0


def test_solve_params_validation():
    with pytest.raises(SchemaError):
        solve_params(0, 1.0)
    with pytest.raises(SchemaError):
        solve_params(2, 1.0, branch="other")


def test_alpha_constant_domain():
    assert abs(alpha_constant(1j) - 2 * math.pi) < 1e-14
    with pytest.raises(DomainError):
        alpha_constant(1.0 - 0.5j)


def test_ground_state_and_hermite_eval():
    sigma = 0.3 + 1.1j
    theta = np.array([[0.2], [0.7], [-0.4]])
    v0 = HermiteExpansion(n=1, k=2, sigma=sigma, coeffs={(0,): 1.0}).evaluate(
        math.sqrt(2) * theta)
    y2 = 2 * theta[:, 0] ** 2
    assert np.abs(v0 - np.exp(-1j * math.pi * y2 / sigma)).max() < 1e-14


@pytest.mark.parametrize("l", [0, 1, 5, 10])
def test_hermite_two_code_paths(l):
    sigma = 0.3 + 1.1j
    k = 2
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 1))
    via_table = HermiteExpansion(n=1, k=k, sigma=sigma, coeffs={(l,): 1.0}).evaluate(pts)
    via_ladder = ladder_basis_element((l,), sigma, k).evaluate(pts)
    scale = np.abs(via_table).max()
    assert np.abs(via_table - via_ladder).max() / scale < 1e-10


def test_hermite_orthogonality_by_quadrature():
    sigma = 0.5 + 0.9j
    y = uniform_grid(9.0, 2001)
    w = trapezoid_weights(y)
    table = hermite_function_table(4, y, sigma)
    for l in range(4):
        for m in range(l + 1, 5):
            val = np.sum(w * table[l] * np.conj(table[m]))
            assert abs(val) < 1e-8
    v3 = HermiteExpansion(n=1, k=2, sigma=sigma, coeffs={(3,): 1.0}).evaluate(y)
    n0 = np.sum(w * np.abs(v3) ** 2)
    assert abs(n0 - norm_sq((3,), sigma)) / norm_sq((3,), sigma) < 1e-10


def test_laplacian_eigenvalues():
    assert abs(laplacian_spectrum(2, 0) - 2 * 2 * 0.5) < 1e-14
    assert abs(laplacian_spectrum(2, 3) - 2 * 2 * 3.5) < 1e-14


@pytest.mark.parametrize("n", [1, 2])
def test_laplacian_dual_paths(n):
    rng = np.random.default_rng(0)
    k = 2
    for _ in range(5):
        sigma = complex(rng.normal(), abs(rng.normal()) + 0.3)
        coeffs = {}
        for _ in range(4):
            l = tuple(int(x) for x in rng.integers(0, 6 if n == 2 else 11, n))
            coeffs[l] = complex(rng.normal(), rng.normal())
        f = HermiteExpansion(n=n, k=k, sigma=sigma, coeffs=coeffs)
        pts = rng.normal(size=(40, n))
        diag = laplacian_diagonal(f).evaluate(pts)
        explicit = laplacian_explicit(f).evaluate(pts)
        scale = max(1.0, float(np.abs(diag).max()))
        assert np.abs(diag - explicit).max() / scale < 1e-6


def test_heat_flow_spectrum_unit_phases_at_s_zero():
    """At s = 0 the flow multiplies v_l by exp(-r spectrum) = i^{l+1/2}."""
    p = solve_params(3, 0.0)
    for l in (0, 2):
        factor = cmath.exp(-p.r * laplacian_spectrum(p.k, l))
        assert abs(abs(factor) - 1) < 1e-12
        assert abs(factor - (1j) ** (l + 0.5)) < 1e-12


@pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
def test_mehler_quadrature_matches_eigenvalues(s):
    k = 2
    p = solve_params(k, s)
    y = uniform_grid(6.0, 801)
    table = hermite_function_table(10, y, p.sigma)
    for l in range(11):
        f = GridSamples1D(y=y, values=table[l])
        out = heat_apply(f, p)
        target = cmath.exp(-p.r * 2 * k * (l + 0.5)) * f.values
        assert np.abs(out.values - target).max() / np.abs(target).max() < 1e-6


def test_mehler_closed_form_matches_eigen_sum_inside_disc():
    """Closed form vs truncated eigen-sum, pointwise, where the series
    converges geometrically (|q| < 1)."""
    pts = np.array([0.3, -0.7, 1.1])
    for q, sigma in [(0.4 + 0.3j, 1j), (0.65j, 0.3 + 1.1j), (0.8, 2j)]:
        closed = mehler_closed_kernel(q, sigma, pts, pts)
        series = mehler_series_kernel(q, sigma, pts, pts, terms=400)
        assert np.abs(closed - series).max() < 1e-10


def test_mehler_damped_physical_ratio_and_product_kernel():
    """At |q| = 1 the eigen-sum is only conditionally convergent pointwise, so
    the identity is checked along q e^{-eps} -> q; the rank-two kernel is the
    product of rank-one factors."""
    p = solve_params(2, 1.0)
    pts = np.array([0.3, -0.7, 1.1])
    for eps in (0.05, 0.02):
        qd = p.q * math.exp(-eps)
        closed = mehler_closed_kernel(qd, p.sigma, pts, pts)
        series = mehler_series_kernel(qd, p.sigma, pts, pts, terms=1600)
        assert np.abs(closed - series).max() < 1e-10
    k1 = mehler_kernel(p, pts, pts)
    assert np.abs(k1 - mehler_closed_kernel(p.q, p.sigma, pts, pts,
                                            root_q=cmath.exp(-p.k * p.r))).max() < 1e-14
    k2 = np.einsum("ac,bd->abcd", k1, k1)   # rank-two kernel as a product
    assert np.abs(k2[1, 2] - np.outer(k1[1], k1[2])).max() < 1e-12


def test_mehler_two_dimensional_quadrature_eigen_action():
    """The factorized rank-two kernel rescales each product eigenfunction by
    exp(-2kr(|l| + 1)) in the quadrature sense."""
    k = 2
    p = solve_params(k, 1.0)
    y = uniform_grid(6.0, 401)
    heat = _mehler(p, y, trapezoid_weights(y), p.sigma)
    table = hermite_function_table(3, y, p.sigma)
    for l1, l2 in [(0, 0), (1, 2), (3, 0), (2, 2)]:
        f = np.outer(table[l1], table[l2])
        out = heat(heat(f).T).T
        target = cmath.exp(-p.r * 2 * k * (l1 + l2 + 1)) * f
        assert np.abs(out - target).max() / np.abs(target).max() < 1e-6


def test_heat_kernel_at_s_zero_is_phase_times_fourier():
    p = solve_params(2, 0.0)
    y = uniform_grid(6.0, 801)
    w = trapezoid_weights(y)
    f = ground_state(y, 1j)
    heat = heat_apply(GridSamples1D(y=y, values=f), p).values
    four = np.exp(2j * math.pi * np.outer(y, y)) @ (w * f)
    assert np.abs(heat - cmath.exp(1j * math.pi / 4) * four).max() < 1e-12


def test_mobius_action():
    assert mobius_sigma("S", 2j) == 0.5j
    assert abs(mobius_sigma("T", 1j) - (0.5 + 0.5j)) < 1e-15
    with pytest.raises(SchemaError):
        mobius_sigma("U", 1j)


def test_eta_zero_input():
    p = solve_params(2, 1.0)
    y = np.linspace(0, 6, 101)
    out = eta_apply(GridSamples1D(y=y, values=np.zeros(101, dtype=complex)),
                    EtaKernelSpec(0, "S", p))
    assert np.abs(out.values).max() == 0


def test_eta_gaussian_self_duality_at_s_zero():
    p = solve_params(2, 0.0)
    y = np.linspace(0, 8, 401)
    f = GridSamples1D(y=y, values=np.exp(-math.pi * y ** 2).astype(complex))
    out = eta_apply(f, EtaKernelSpec(0, "S", p))
    # folded Fourier self-duality: output is j times the input
    assert np.abs(out.values + 1j * f.values).max() < 1e-5


def _dense_rho(generator, y, w):
    """rho(S) = j F and rho(T) = omega e^{-pi i y^2} as dense N x N matrices."""
    j_const, omega = _rank_one_phases()
    if generator == "S":
        return j_const * np.exp(2j * math.pi * np.outer(y, y)) * w[None, :]
    return np.diag(omega * np.exp(-1j * math.pi * y ** 2))


def _dense_projector(b, w):
    bw = b.conj().T * w[None, :]
    return np.linalg.solve(bw @ b, bw)


def _dense_verify_conjugation(k, s, sigma, L, grid_points, box_radius, tol=1e-5):
    """Reference for verify_conjugation: every operator is composed as a dense
    N x N matrix on the grid before it is projected onto the basis block."""
    params = solve_params(k, s)
    sigma = params.sigma if sigma is None else complex(sigma)
    y = uniform_grid(box_radius, grid_points)
    w = trapezoid_weights(y)
    b0 = hermite_function_table(L - 1, y, sigma).T
    p0 = _dense_projector(b0, w)
    heat_m = mehler_kernel(params, y, y, sigma=sigma) * w[None, :]
    heat_p = mehler_kernel(params, y, y, sigma=sigma, inverse=True) * w[None, :]
    eigen = np.diag([2 * k * (l + 0.5) for l in range(L)])
    lap0 = b0 @ (eigen @ p0)
    eta, conj, inv = {}, {}, {}
    for gen in ("S", "T"):
        rho = _dense_rho(gen, y, w)
        sig2 = mobius_sigma(gen, sigma)
        heat_p2 = mehler_kernel(params, y, y, sigma=sig2, inverse=True) * w[None, :]
        eta[gen] = heat_m @ (rho @ heat_p)
        m_ii = p0 @ (heat_m @ (heat_p2 @ (rho @ b0)))
        conj[gen] = float(np.max(np.abs(p0 @ (eta[gen] @ b0) - m_ii)))
        b2 = hermite_function_table(L - 1, y, sig2).T
        lap2 = b2 @ (eigen @ _dense_projector(b2, w))
        inv[gen] = float(np.max(np.abs(p0 @ ((rho @ lap0 - lap2 @ rho) @ b0))))
    es, et = eta["S"], eta["T"]
    s2g, stg = es @ es, es @ et
    gram0 = b0.conj().T @ (w[:, None] * b0)
    relations = {
        "residual_S4": float(np.max(np.abs(p0 @ ((s2g @ s2g) @ b0) - np.eye(L)))),
        "residual_braid": float(np.max(np.abs(p0 @ ((stg @ stg @ stg - s2g) @ b0)))),
        "residual_S_unitary": float(np.max(np.abs(
            (es @ b0).conj().T @ (w[:, None] * (es @ b0)) - gram0))),
        "residual_T_unitary": float(np.max(np.abs(
            (et @ b0).conj().T @ (w[:, None] * (et @ b0)) - gram0))),
    }
    ms, mt = p0 @ (es @ b0), p0 @ (et @ b0)
    e0 = np.eye(L)[0]
    s2 = ms @ ms
    braid_vec = ms @ (mt @ (ms @ (mt @ (ms @ (mt @ e0)))))
    truncated = {
        "residual_S4": float(np.max(np.abs(s2 @ (s2 @ e0) - e0))),
        "residual_braid": float(np.max(np.abs(braid_vec - s2 @ e0))),
        "residual_S_unitary": float(abs(np.vdot(ms @ e0, ms @ e0) - 1.0)),
        "residual_T_unitary": float(abs(np.vdot(mt @ e0, mt @ e0) - 1.0)),
    }
    return {
        "k": k, "s": s, "branch": "principal", "sigma": [sigma.real, sigma.imag],
        "L": L, "grid_points": grid_points, "box_radius": box_radius, "tol": tol,
        "conjugation_residuals": conj, "invariance_residuals": inv,
        "relation_residuals": relations, "truncated_relation_residuals": truncated,
        "max_conjugation_residual": max(conj.values()),
        "max_relation_residual": max(relations.values()),
        "passed": max(conj.values()) < tol and max(relations.values()) < 10 * tol,
    }


def _flat(report, prefix=""):
    for key, val in report.items():
        if isinstance(val, dict):
            yield from _flat(val, prefix + key + "/")
        else:
            yield prefix + key, val


def test_eta_matches_conjugation_on_the_line():
    p = solve_params(2, 1.0)
    y = uniform_grid(10.0, 1601)
    w = trapezoid_weights(y)
    km = mehler_kernel(p, y, y) * w[None, :]
    kp = mehler_kernel(p, y, y, inverse=True) * w[None, :]
    half = y >= 0
    basis = hermite_function_table(5, y, p.sigma).T
    for sector in (0, 1):
        for gen in ("S", "T"):
            for l in range(sector, 6, 2):
                f = basis[:, l]
                ref = (km @ (_dense_rho(gen, y, w) @ (kp @ f)))[half]
                out = eta_apply(GridSamples1D(y=y[half], values=f[half]),
                                EtaKernelSpec(sector, gen, p))
                assert np.abs(out.values - ref).max() < 1e-5


def test_eta_requires_special_sigma():
    p = solve_params(2, 1.0)
    bad = p.__class__(k=p.k, s=p.s, branch=p.branch, b=p.b, q=p.q, r=p.r,
                      sigma=2j)
    y = np.linspace(0, 4, 41)
    with pytest.raises(DomainError):
        eta_apply(GridSamples1D(y=y, values=np.exp(-y ** 2)),
                  EtaKernelSpec(0, "S", bad))


def _dense_eta_apply(f, spec):
    """The eta kernels of eta_apply summed over w = +-1 as dense N x N
    arrays, then applied by trapezoid quadrature."""
    p = spec.params
    y = f.y
    bb = p.b - p.b.conjugate()
    j_const, omega = _rank_one_phases()
    kern = np.zeros((len(y), len(y)), dtype=complex)
    for det, w in ((1, 1.0), (-1, -1.0)):
        sign = det if spec.sector == 1 else 1
        if spec.generator == "S":
            kern += sign * np.exp(2j * math.pi * np.outer(w * y, y))
        else:
            kern += sign * np.exp(1j * math.pi * (w * y[:, None] - y[None, :]) ** 2)
    pref = j_const if spec.generator == "S" else omega * cmath.exp(-1j * math.pi / 4)
    env_in = np.exp(-math.pi * bb * y ** 2)
    return pref * np.exp(math.pi * bb * y ** 2) * (
        kern @ (trapezoid_weights(y) * env_in * f.values))


# offset grids with beta y_c^2 not a multiple of 2 pi, so a dropped global
# phase shows
GRIDS = [(-6.0, 6.0, 301), (-6.0, 6.0, 400), (0.0, 7.0, 301), (0.0, 7.0, 400)]


def _mehler_beta(sigma=0.3 + 1.1j):
    """Im(2 alpha q/(1 - q^2)); 2 pi at sigma = i b, not at a generic sigma."""
    q = solve_params(2, 1.0).q
    return (2 * alpha_constant(sigma) * q / (1 - q ** 2)).imag


@pytest.mark.parametrize("beta", [2 * math.pi, -2 * math.pi, _mehler_beta()])
@pytest.mark.parametrize("lo, hi, n", GRIDS)
def test_bilinear_phase_matches_dense(lo, hi, n, beta):
    """The chirp convolution equals the dense exp(i beta y yt) product on
    symmetric and offset grids, odd and even N, for 1-d and L x N inputs."""
    y = np.linspace(lo, hi, n)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    dense = np.exp(1j * beta * np.outer(y, y))
    op = _bilinear_phase(beta, [y])
    assert op(x).shape == (3, n)
    assert _relmax(op(x), x @ dense.T) <= 1e-12
    assert _relmax(op(x[0]), dense @ x[0]) <= 1e-12


# folded grids u0 + j h: odd N folded at u0 = 0, even N at u0 = h/2, and
# one starting past the fold
FOLDS = [np.linspace(-6.0, 6.0, 301)[150:], np.linspace(-6.0, 6.0, 400)[200:],
         np.linspace(0.5, 7.0, 301)]


@pytest.mark.parametrize("beta", [2 * math.pi, -2 * math.pi, _mehler_beta()])
@pytest.mark.parametrize("u", FOLDS, ids=["odd", "even", "offset"])
def test_folded_phase_matches_dense(u, beta):
    """The operator with signs, with diagonals, equals the dense W-sum
    d_out sum_w det(w)^sigma exp(i beta (w u) u') d_in on a half grid for
    signs +1, -1 and one sign per row, on blocks and on one row."""
    n = len(u)
    rng = np.random.default_rng(n)
    d_out = np.exp(1j * rng.normal(size=n))
    d_in = rng.uniform(0.5, 1.5, size=n)
    x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    cross = np.exp(1j * beta * np.outer(u, u))
    dense = {s: d_out[:, None] * (cross + s / cross) * d_in[None, :] for s in (1, -1)}
    for signs in (1, -1, np.array([[1.0], [-1.0], [-1.0]])):
        op = _bilinear_phase(beta, [u], d_out, d_in, signs)
        want = np.stack([dense[int(s)] @ row
                         for s, row in zip(np.broadcast_to(signs, (3, 1))[:, 0], x)])
        assert op(x).shape == (3, n)
        assert _relmax(op(x), want) <= 1e-12
    for s in (1, -1):
        assert _relmax(_bilinear_phase(beta, [u], d_out, d_in, s)(x[0]),
                       dense[s] @ x[0]) <= 1e-12


# odd, even and offset boxes, with forms of both signatures
BOXES = [((-3.0, 3.0, 31), (-3.0, 3.0, 31)),
         ((-2.0, 2.0, 30), (-2.5, 2.5, 26)),
         ((0.5, 3.5, 31), (-1.0, 2.0, 30))]
FORMS = [2 * math.pi * np.array([[2.0, -1.0], [-1.0, 2.0]]),
         np.array([[0.7, 1.9], [1.9, -2.3]])]


@pytest.mark.parametrize("form", FORMS, ids=["A2", "indefinite"])
@pytest.mark.parametrize("box", BOXES, ids=["odd", "even", "offset"])
def test_bilinear_phase_matches_dense_2d(box, form):
    """The n = 2 operator, with diagonals, equals the dense
    d_out [exp(i y.A y') + s exp(-i y.A y')] d_in product over the box, on a
    batch of inputs: without the second term, and for s = +1, -1 and one
    sign per batch row."""
    grids = [np.linspace(*axis) for axis in box]
    shape = tuple(len(g) for g in grids)
    pts = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(shape)
    d_out = np.exp(1j * rng.normal(size=shape))
    d_in = rng.uniform(0.5, 1.5, size=shape)
    x = rng.normal(size=(2,) + shape) + 1j * rng.normal(size=(2,) + shape)
    cross = np.exp(1j * pts @ form @ pts.T)
    dense = {s: d_out.reshape(-1, 1) * (cross + s / cross) * d_in.reshape(1, -1)
             for s in (0, 1, -1)}
    got = _bilinear_phase(form, grids, d_out, d_in)(x)
    assert got.shape == x.shape
    assert _relmax(got.reshape(2, -1), x.reshape(2, -1) @ dense[0].T) <= 1e-12
    for signs in (1, -1, np.array([1.0, -1.0])[:, None, None]):
        got = _bilinear_phase(form, grids, d_out, d_in, signs)(x)
        want = np.stack([dense[int(s)] @ row for s, row
                         in zip(np.broadcast_to(signs, (2, 1, 1)).ravel(), x.reshape(2, -1))])
        assert got.shape == x.shape
        assert _relmax(got.reshape(2, -1), want) <= 1e-12


def test_smooth_length_is_least_5_smooth():
    """The FFT length is the least 2^a 3^b 5^c >= m, by brute force."""
    smooth = sorted(2 ** a * 3 ** b * 5 ** c
                    for a in range(14) for b in range(9) for c in range(6))
    for m in range(1, 5001):
        assert _smooth_length(m) == next(v for v in smooth if v >= m)
    assert _smooth_length(3201) == 3240


def _assert_layout_free(op, shape):
    """op leaves the same block in C and in Fortran order unchanged and
    gives one result for both."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    outs = []
    for x in (x, np.asfortranarray(x)):
        before = x.copy()
        outs.append(op(x))
        assert np.array_equal(x, before)
    assert _relmax(outs[1], outs[0]) <= 1e-15


@pytest.mark.parametrize("generator", ["S", "T"])
def test_operators_leave_inputs_unchanged(generator):
    """Every grid operator reads its input only: the bilinear-phase operator
    (n = 1, 2, and with signs), the Mehler flow on the line and folded, the
    folded rho and the eta and heat kernels, on L x N blocks (or the
    strided rows of one) in C and Fortran order; the transpose of a
    C-ordered table is a Fortran-ordered block."""
    y = uniform_grid(6.0, 401)
    w = trapezoid_weights(y)
    p = solve_params(2, 1.0)
    _assert_layout_free(_bilinear_phase(2 * math.pi, [y], d_in=w), (5, 401))
    grids = [np.linspace(-2.0, 2.0, 21), np.linspace(0.0, 3.0, 24)]
    _assert_layout_free(_bilinear_phase(FORMS[1], grids, d_in=0.5), (3, 21, 24))
    _assert_layout_free(_mehler(p, y, w, p.sigma), (5, 401))
    u, wf, signs = y[200:], w[200:], 1.0 - 2.0 * (np.arange(5) % 2)[:, None]
    _assert_layout_free(_bilinear_phase(2 * math.pi, [u], d_in=wf, signs=signs), (5, 201))
    _assert_layout_free(_mehler(p, u, wf, mobius_sigma(generator, p.sigma), True, signs),
                        (5, 201))
    _assert_layout_free(_rho(generator, u, wf, signs), (5, 201))
    # a row of an F-ordered block is a strided 1-d view
    _assert_layout_free(
        lambda x: heat_apply(GridSamples1D(y=y, values=x[1]), p).values, (5, 401))
    half = np.linspace(0.0, 6.0, 301)
    spec = EtaKernelSpec(1, generator, solve_params(2, 0.0))
    _assert_layout_free(
        lambda x: eta_apply(GridSamples1D(y=half, values=x[1]), spec).values, (5, 301))


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("s", [0.0, 1.0, -2.5])
@pytest.mark.parametrize("lo, hi, n", [(-6.0, 6.0, 801), (-2.5, 6.0, 400)])
def test_heat_apply_matches_dense_quadrature(lo, hi, n, s, inverse):
    """Closed-form series oracle -> dense Mehler kernel -> FFT operator."""
    p = solve_params(2, s)
    y = np.linspace(lo, hi, n)
    rng = np.random.default_rng(7)
    f = hermite_function_table(7, y, p.sigma).T @ (rng.normal(size=8) + 1j * rng.normal(size=8))
    got = heat_apply(GridSamples1D(y=y, values=f), p, inverse=inverse).values
    want = mehler_kernel(p, y, y, inverse=inverse) @ (trapezoid_weights(y) * f)
    assert _relmax(got, want) <= 1e-12


@pytest.mark.parametrize("generator", ["S", "T"])
@pytest.mark.parametrize("sector", [0, 1])
@pytest.mark.parametrize("s", [0.0, 1.0])
def test_eta_apply_matches_dense_kernel(s, sector, generator):
    p = solve_params(2, s)
    for y in (np.linspace(0.0, 7.0, 801), np.linspace(0.0, 5.0, 400)):
        f = GridSamples1D(y=y, values=(1 + y) * np.exp(-math.pi * y ** 2) + 0j)
        spec = EtaKernelSpec(sector, generator, p)
        assert _relmax(eta_apply(f, spec).values, _dense_eta_apply(f, spec)) <= 1e-12


def test_grid_must_be_uniform_to_rounding():
    """The FFT kernels use y[0], y[-1] and N only, so a library call with any
    other grid is refused; one ulp off linspace is rounding and passes."""
    p = solve_params(2, 0.0)
    y = np.linspace(0.0, 8.0, 101)
    nudged = y.copy()
    nudged[7] = np.nextafter(nudged[7], math.inf)
    heat_apply(GridSamples1D(y=nudged, values=np.ones(101)), p)
    bad = y.copy()
    bad[7] += 1e-11
    for grid in (bad, np.array([0.0, 0.5, 1.5, 2.0])):
        f = GridSamples1D(y=grid, values=np.ones(len(grid), dtype=complex))
        with pytest.raises(SchemaError):
            heat_apply(f, p)
        with pytest.raises(SchemaError):
            eta_apply(f, EtaKernelSpec(0, "S", p))


@pytest.mark.parametrize("values", [np.ones(9), np.ones((2, 8)), np.ones(())],
                         ids=["long", "2d", "scalar"])
def test_grid_samples_hold_one_value_per_point(values):
    """GridSamples1D refuses values that are not 1-d with one entry per grid
    point (SchemaError), before either kernel reads them; valid values are
    kept as given, neither copied nor converted."""
    p = solve_params(2, 0.0)
    spec = EtaKernelSpec(0, "S", p)
    for y, apply in [(np.linspace(-1.0, 1.0, 8), lambda f: heat_apply(f, p)),
                     (np.linspace(0.0, 1.0, 8), lambda f: eta_apply(f, spec))]:
        with pytest.raises(SchemaError):
            apply(GridSamples1D(y=y, values=values))
        strided = np.asfortranarray(np.ones((3, 8), dtype=np.float32))[1]
        assert GridSamples1D(y=y, values=strided).values is strided


def test_mehler_refuses_a_ratio_off_the_unit_circle():
    """Off |q| = 1 the y yt coefficient has a real part that the FFT path
    cannot carry; it raises instead of dropping it."""
    p = solve_params(2, 1.0)
    off = p.__class__(k=p.k, s=p.s, branch=p.branch, b=p.b, q=p.q,
                      r=p.r + 0.05, sigma=p.sigma)
    y = uniform_grid(6.0, 101)
    with pytest.raises(InconsistencyError):
        heat_apply(GridSamples1D(y=y, values=np.ones(101)), off)


def test_verify_conjugation_report():
    rep = verify_conjugation(2, 1.0, L=8, grid_points=1201, box_radius=9.0)
    assert rep["max_conjugation_residual"] < 1e-5
    assert rep["max_relation_residual"] < 1e-4
    assert max(rep["invariance_residuals"].values()) < 1e-5
    assert rep["passed"]


def test_verify_conjugation_generic_sigma():
    rep = verify_conjugation(2, 1.0, sigma=0.3 + 1.1j, L=8,
                             grid_points=1201, box_radius=9.0)
    assert rep["max_conjugation_residual"] < 1e-5


@pytest.mark.parametrize("L,grid_points,box_radius,sigma", [
    (7, 8, 4.0, 0.3 + 1.1j), (5, 8, 4.0, None), (7, 9, 4.0, None),
    (6, 201, 100.0, None), (6, 201, 10.0, 100j)])
def test_verify_conjugation_refuses_an_unresolved_basis(L, grid_points, box_radius, sigma):
    """A grid that does not resolve the Hermite basis at sigma or at a
    Moebius image is refused with its Gram condition number, before any
    residual; on these grids the residuals were not reproducible."""
    with pytest.raises(DomainError, match="condition number") as err:
        verify_conjugation(2, 1.0, sigma=sigma, L=L, grid_points=grid_points,
                           box_radius=box_radius)
    assert len(str(err.value).splitlines()) == 1
    assert float(str(err.value).split("condition number ")[1].split()[0]) > GRAM_CONDITION_CEILING


def test_rank_one_phases_are_the_a1_constants_once():
    pp = phase_constants(build_root_system(LieType("A", 1)))
    assert _rank_one_phases() == (pp.j, pp.omega)
    assert _rank_one_phases() is _rank_one_phases()


def test_verify_conjugation_validation():
    with pytest.raises(DomainError):
        verify_conjugation(2, 1.0, sigma=1.0 - 1j, L=6)
    with pytest.raises(SchemaError):
        verify_conjugation(2, 1.0, L=0)


SMALL = dict(L=6, grid_points=201, box_radius=6.0)


@pytest.mark.parametrize("sigma, size", [
    pytest.param(None, SMALL, id="None"),
    pytest.param(0.3 + 1.1j, SMALL, id="(0.3+1.1j)"),
    pytest.param(None, dict(L=8, grid_points=601, box_radius=8.0), id="L8-601"),
    pytest.param(None, dict(L=6, grid_points=200, box_radius=6.0), id="even-200"),
])
def test_verify_conjugation_matches_dense_composition(sigma, size):
    """Operators applied to the folded L x B block one factor at a time give
    every report field of the dense N x N composition on the line, for odd N
    (folded at u = 0) and even N (at u = h/2). Box radius 6 keeps the
    201-point grid resolving e^{2 pi i y yt}; at radius 10 it aliases and the
    faithful braid residual is ~1.6e4."""
    got = dict(_flat(verify_conjugation(2, 1.0, sigma=sigma, **size)))
    want = dict(_flat(_dense_verify_conjugation(2, 1.0, sigma=sigma, **size)))
    assert got.keys() == want.keys()
    for key, val in want.items():
        if isinstance(val, (bool, str)):
            assert got[key] == val, key
        else:
            assert np.max(np.abs(np.subtract(got[key], val))) <= 1e-12, key


def test_verify_conjugation_large_L_stays_finite():
    """The unit-norm recurrence keeps L = 200 finite and warning-free; raw
    polynomials divided by their norms overflow at this size."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_conjugation(2, 1.0, L=200, grid_points=801)
    values = np.hstack([v for _, v in _flat(rep) if not isinstance(v, str)])
    assert np.all(np.isfinite(values))


def test_truncation_error_reads_every_truncated_end():
    """heat_apply bounds its line at both ends; eta_apply at the right end
    only, since y = 0 is the fold of its domain."""
    p = solve_params(2, 0.0)
    vals = np.zeros(41, dtype=complex)
    vals[0], vals[-1] = 0.5, 0.25
    line = GridSamples1D(y=uniform_grid(6.0, 41), values=vals)
    assert heat_apply(line, p).truncation_error == 0.5
    half = GridSamples1D(y=np.linspace(0.0, 6.0, 41), values=vals)
    assert eta_apply(half, EtaKernelSpec(0, "S", p)).truncation_error == 0.25


def test_one_bluestein_operator():
    """Every Gaussian-phase kernel goes through the one chirp-z operator:
    in heatkernel only _bilinear_phase touches np.fft, there is no second
    (folded) implementation, and the eta, rho and Mehler kernels and
    wgz.prequantum_S all call _bilinear_phase."""
    src = Path(__file__).resolve().parents[1] / "src" / "cstorus"
    trees = {name: ast.parse((src / f"{name}.py").read_text()) for name in ("heatkernel", "wgz")}
    functions = {name: {node.name: node for node in tree.body
                        if isinstance(node, ast.FunctionDef)}
                 for name, tree in trees.items()}
    assert "_folded_phase" not in functions["heatkernel"]
    fft_users = {getattr(node, "name", "module level") for node in trees["heatkernel"].body
                 if any(isinstance(sub, ast.Attribute) and sub.attr == "fft"
                        or isinstance(sub, ast.alias) and "fft" in sub.name
                        for sub in ast.walk(node))}
    assert fft_users == {"_bilinear_phase"}
    for module, name in [("heatkernel", "eta_apply"), ("heatkernel", "_rho"),
                         ("heatkernel", "_mehler"), ("wgz", "prequantum_S")]:
        called = {getattr(node.func, "id", None)
                  for node in ast.walk(functions[module][name]) if isinstance(node, ast.Call)}
        assert "_bilinear_phase" in called, name


def test_symbolic_oracle_lives_in_tests():
    """The ladder-operator oracle is a test oracle only: heatkernel defines
    none of its names and imports no polynomial module, heat_apply takes
    grid samples only, and verify_conjugation reads its eigenvalues from
    laplacian_spectrum, the one place that writes the spectrum."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "cstorus"
                      / "heatkernel.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    removed = {"PolyGaussian", "_poly_deriv", "_poly_mul_y", "_pad_like",
               "ladder_basis_element", "laplacian_explicit", "HermiteExpansion",
               "norm_sq", "laplacian_apply", "MultiIndex"}
    assert not defined & removed
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "Dict" not in imported
    assert not any("polynomial" in name for name in imported)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "laplacian_spectrum" in functions
    assert "HermiteExpansion" not in ast.unparse(functions["heat_apply"])
    called = {getattr(node.func, "id", None)
              for node in ast.walk(functions["verify_conjugation"]) if isinstance(node, ast.Call)}
    assert "laplacian_spectrum" in called

"""Analytic layer of the genus-one quantum representations: the parameter
solve (r, b, q), Hermite-Gaussian eigenbasis of the quantum Laplacian, the
Mehler heat kernel for exp(-r Laplacian), the conjugated generator kernels
on the folded domain, and a numerical verification of the conjugation
identity in a truncated basis.

Coordinates: theta denotes coordinates in a frame orthonormal for the
level-1 pairing; y = sqrt(k) * theta is orthonormal for the level-k pairing
and is the working coordinate everywhere below.  The ground state is
v(y, sigma) = exp(-pi i |y|^2 / sigma) and the ladder operators are
D_sigma = d/dy - 2 alpha y and D_sigmabar = d/dy on polynomial-times-v
functions, with alpha = 2 pi Im(sigma)/|sigma|^2 > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import DomainError, InconsistencyError, SchemaError

MultiIndex = Tuple[int, ...]


def alpha_constant(sigma: complex) -> float:
    """alpha = 2 pi Im(sigma) / |sigma|^2, the real Gaussian width of |v|^2."""
    sigma = complex(sigma)
    if sigma.imag <= 0:
        raise DomainError(f"sigma must lie in the upper half plane, got {sigma}")
    return 2.0 * math.pi * sigma.imag / abs(sigma) ** 2


@dataclass(frozen=True)
class HWParams:
    """Solved flow parameters at t = k + i s.

    b is the unit-modulus parameter with Re(b) > 0, q = exp(-2 k r) = (+/-) i b
    per the branch flag, and sigma defaults to i b.
    """
    k: int
    s: float
    branch: str
    b: complex
    q: complex
    r: complex
    sigma: complex

    @property
    def t(self) -> complex:
        return self.k + 1j * self.s


def solve_params(k: int, s: float, branch: str = "principal") -> HWParams:
    """Solve exp(-4 k r) = -(k - i s)/(k + i s) for r through the unit-circle
    parameter b with b^2 = (k - i s)/(k + i s); branch picks the sign in
    q = exp(-2 k r) = (+/-) i b.

    Self-checks: the two unit-size relations to 1e-12 absolute, and
    is = k(1-b^2)/(1+b^2) to 1e-12 relative to max(k, |s|). That relation
    loses digits as |s|/k grows (1 + b^2 = 2k/(k+is)); supported range
    |s| <= 1e4 k, past ~1e5 k the check may raise InconsistencyError."""
    if not isinstance(k, int) or k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k!r}")
    s = float(s)
    if branch not in ("principal", "flipped"):
        raise SchemaError(f"branch must be 'principal' or 'flipped', got {branch!r}")
    t = k + 1j * s
    b = cmath.sqrt(t.conjugate() / t)
    if abs(abs(b) - 1.0) > 1e-12 or b.real <= 0:
        raise DomainError(f"no unit-circle b with positive real part for k={k}, s={s}")
    q = (1j if branch == "principal" else -1j) * b
    r = -cmath.log(q) / (2 * k)
    for name, resid, scale in [
        ("exp(-4kr) = -(k-is)/(k+is)", abs(cmath.exp(-4 * k * r) + t.conjugate() / t), 1.0),
        ("is = k(1-b^2)/(1+b^2)", abs(1j * s - k * (1 - b * b) / (1 + b * b)),
         max(k, abs(s))),
        ("exp(-2kr) = q", abs(cmath.exp(-2 * k * r) - q), 1.0),
    ]:
        if resid > 1e-12 * scale:
            raise InconsistencyError(f"parameter solve violated {name}: residual {resid}")
    return HWParams(k=k, s=s, branch=branch, b=b, q=q, r=r, sigma=1j * b)


def mobius_sigma(generator: str, sigma: complex) -> complex:
    """Action of the generator on the Teichmueller parameter:
    S: sigma -> -1/sigma, T: sigma -> sigma/(1+sigma)."""
    sigma = complex(sigma)
    if generator == "S":
        return -1.0 / sigma
    if generator == "T":
        return sigma / (1.0 + sigma)
    raise SchemaError(f"generator must be 'S' or 'T', got {generator!r}")


def hermite_table(lmax: int, y: np.ndarray, alpha: float) -> np.ndarray:
    """Values h_m(y) for m = 0..lmax of the polynomials generated by the
    ladder recurrence h_{m+1} = -2 alpha (y h_m + m h_{m-1}), h_0 = 1.

    These satisfy v_m = h_m * v for the repeated-ladder eigenfunctions;
    h_m(y) = (-sqrt(alpha))^m H_m(sqrt(alpha) y) in terms of the physicists'
    Hermite polynomials.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty((lmax + 1,) + y.shape)
    out[0] = 1.0
    if lmax >= 1:
        out[1] = -2.0 * alpha * y
    for m in range(1, lmax):
        out[m + 1] = -2.0 * alpha * (y * out[m] + m * out[m - 1])
    return out


def ground_state(y: np.ndarray, sigma: complex) -> np.ndarray:
    """v(y, sigma) = exp(-pi i |y|^2 / sigma) with y of shape (..., n) or (...,)."""
    y = np.asarray(y, dtype=float)
    y2 = y ** 2 if y.ndim <= 1 else np.sum(y ** 2, axis=-1)
    return np.exp(-1j * math.pi * y2 / complex(sigma))


def norm_sq(l: MultiIndex, sigma: complex) -> float:
    """Squared L^2 norm of v_l: prod_j (2 alpha)^{l_j} l_j! * (pi/alpha)^{n/2}."""
    a = alpha_constant(sigma)
    out = (math.pi / a) ** (len(l) / 2)
    for lj in l:
        out *= (2 * a) ** lj * math.factorial(lj)
    return out


def hermite_eval(l: MultiIndex, theta, sigma: complex, k: int) -> np.ndarray:
    """Eigenfunction v_l evaluated at points theta given in level-1
    orthonormal coordinates (internally rescaled to y = sqrt(k) theta).

    theta has shape (n,) for one point or (m, n) for m points.
    """
    l = tuple(int(x) for x in l)
    if any(x < 0 for x in l):
        raise SchemaError(f"multi-index must be nonnegative, got {l}")
    a = alpha_constant(sigma)
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    pts = theta[None, :] if single else theta
    if pts.shape[1] != len(l):
        raise SchemaError(f"point dimension {pts.shape[1]} does not match index {l}")
    y = math.sqrt(k) * pts
    vals = ground_state(y, sigma)
    for j, lj in enumerate(l):
        vals = vals * hermite_table(lj, y[:, j], a)[lj]
    return vals[0] if single else vals


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
        return out * ground_state(y, self.sigma)


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
        if y.shape[1] != self.n:
            raise SchemaError(f"points have dimension {y.shape[1]}, expected {self.n}")
        a = alpha_constant(self.sigma)
        lmax = max((max(l) for l in self.coeffs), default=0)
        tables = [hermite_table(lmax, y[:, j], a) for j in range(self.n)]
        acc = np.zeros(len(y), dtype=complex)
        for l, c in sorted(self.coeffs.items()):
            term = np.full(len(y), complex(c))
            for j, lj in enumerate(l):
                term = term * tables[j][lj]
            acc += term
        return acc * ground_state(y, self.sigma)


def laplacian_apply(f: HermiteExpansion, params: Optional[HWParams] = None) -> HermiteExpansion:
    """Diagonal action of the quantum Laplacian: v_l -> 2k(|l| + n/2) v_l."""
    if params is not None and params.k != f.k:
        raise SchemaError(f"params level {params.k} does not match expansion level {f.k}")
    new = {l: c * 2 * f.k * (sum(l) + f.n / 2) for l, c in f.coeffs.items()}
    return HermiteExpansion(n=f.n, k=f.k, sigma=f.sigma, coeffs=new)


def laplacian_explicit(f: HermiteExpansion) -> PolyGaussian:
    """The same Laplacian applied through the explicit second-order ladder
    form on the polynomial-times-Gaussian representation (independent path)."""
    shape = tuple(max(l[j] for l in f.coeffs) + 1 for j in range(f.n)) if f.coeffs else (1,) * f.n
    acc = np.zeros(shape, dtype=complex)
    for l, c in f.coeffs.items():
        acc += c * _pad_like(ladder_basis_element(l, f.sigma, f.k).coeffs, shape)
    return PolyGaussian(k=f.k, sigma=f.sigma, coeffs=acc).laplacian()


@dataclass
class GridSamples1D:
    """Samples of a function of one level-k orthonormal coordinate on a
    uniform grid, with an optional truncation-error estimate."""
    y: np.ndarray
    values: np.ndarray
    truncation_error: float = 0.0


def uniform_grid(radius: float, points: int) -> np.ndarray:
    return np.linspace(-radius, radius, points)


def trapezoid_weights(y: np.ndarray) -> np.ndarray:
    h = y[1] - y[0]
    w = np.full(len(y), h)
    w[0] = w[-1] = h / 2
    return w


def hermite_function_table(lmax: int, y: np.ndarray, sigma: complex) -> np.ndarray:
    """Unit-norm eigenfunctions v_m/||v_m|| for m = 0..lmax via the stable
    normalized recurrence (safe for large m where the raw polynomials overflow)."""
    a = alpha_constant(sigma)
    y = np.asarray(y, dtype=float)
    g = ground_state(y, sigma) / (math.pi / a) ** 0.25
    out = np.empty((lmax + 1,) + y.shape, dtype=complex)
    out[0] = g
    if lmax >= 1:
        out[1] = -math.sqrt(2 * a) * y * g
    for m in range(1, lmax):
        out[m + 1] = (-math.sqrt(2 * a / (m + 1)) * y * out[m]
                      - math.sqrt(m / (m + 1)) * out[m - 1])
    return out


def mehler_closed_kernel(q: complex, sigma: complex, y_out: np.ndarray,
                         y_in: np.ndarray, root_q: Optional[complex] = None) -> np.ndarray:
    """Closed form of sum_m q^{m+1/2} v_m(y) conj(v_m(yt)) / ||v_m||^2;
    root_q fixes the branch of q^{1/2} (principal by default)."""
    q = complex(q)
    a = alpha_constant(sigma)
    if (1 - q * q).real <= 0:
        raise DomainError(f"Mehler kernel diverges: Re(1 - q^2) <= 0 for q = {q}")
    yo = np.asarray(y_out, dtype=float)
    yi = np.asarray(y_in, dtype=float)
    quad = (2 * a * q * np.outer(yo, yi)
            - a * q * q * (yo[:, None] ** 2 + yi[None, :] ** 2)) / (1 - q * q)
    root = (cmath.sqrt(q) if root_q is None else root_q) \
        * cmath.sqrt(a / (math.pi * (1 - q * q)))
    return root * np.exp(quad) * ground_state(yo, sigma)[:, None] \
        * np.conj(ground_state(yi, sigma))[None, :]


def mehler_series_kernel(q: complex, sigma: complex, y_out: np.ndarray,
                         y_in: np.ndarray, terms: int) -> np.ndarray:
    """Truncated eigen-sum of the same kernel (independent code path;
    geometric convergence requires |q| < 1)."""
    to = hermite_function_table(terms - 1, np.asarray(y_out, dtype=float), sigma)
    ti = hermite_function_table(terms - 1, np.asarray(y_in, dtype=float), sigma)
    out = np.zeros((to.shape[1], ti.shape[1]), dtype=complex)
    for m in range(terms):
        out += q ** (m + 0.5) * np.outer(to[m], np.conj(ti[m]))
    return out


def mehler_kernel(params: HWParams, y_out: np.ndarray, y_in: np.ndarray,
                  sigma: Optional[complex] = None, inverse: bool = False) -> np.ndarray:
    """Kernel of exp(-+ r Laplacian_sigma) on the line: the Mehler closed form
    with ratio q = exp(-2kr) (or 1/q for the inverse flow)."""
    if params.b.real <= 0:
        raise DomainError("kernel diverges for Re(b) <= 0")
    sigma = params.sigma if sigma is None else complex(sigma)
    q = cmath.exp((2 if inverse else -2) * params.k * params.r)
    root_q = cmath.exp((1 if inverse else -1) * params.k * params.r)
    return mehler_closed_kernel(q, sigma, y_out, y_in, root_q=root_q)


def heat_apply(psi, params: HWParams, inverse: bool = False):
    """Apply exp(-r Laplacian_sigma) (or its inverse): diagonally on Hermite
    expansions, by Mehler-kernel quadrature on 1-d grid samples."""
    sign = 1 if inverse else -1
    if isinstance(psi, HermiteExpansion):
        if params.k != psi.k:
            raise SchemaError(f"params level {params.k} does not match expansion level {psi.k}")
        new = {l: c * cmath.exp(sign * params.r * 2 * psi.k * (sum(l) + psi.n / 2))
               for l, c in psi.coeffs.items()}
        return HermiteExpansion(n=psi.n, k=psi.k, sigma=psi.sigma, coeffs=new)
    if isinstance(psi, GridSamples1D):
        kern = mehler_kernel(params, psi.y, psi.y, inverse=inverse)
        w = trapezoid_weights(psi.y)
        vals = kern @ (w * psi.values)
        return GridSamples1D(y=psi.y.copy(), values=vals,
                             truncation_error=float(abs(psi.values[-1])))
    raise SchemaError(f"unsupported input type {type(psi).__name__}")


@dataclass(frozen=True)
class EtaKernelSpec:
    """Which conjugated generator kernel to apply on the folded domain."""
    sector: int
    generator: str
    params: HWParams

    def __post_init__(self):
        if self.sector not in (0, 1):
            raise SchemaError(f"sector must be 0 or 1, got {self.sector}")
        if self.generator not in ("S", "T"):
            raise SchemaError(f"generator must be 'S' or 'T', got {self.generator!r}")


def _rank_one_phases() -> Tuple[complex, complex]:
    """(j, omega) for the rank-one root system: j = i^{-1}, omega = e^{i pi/4}."""
    from .finrep import phase_constants
    from .roots import LieType, build_root_system
    pp = phase_constants(build_root_system(LieType("A", 1)))
    return pp.j, pp.omega


def eta_apply(f: GridSamples1D, spec: EtaKernelSpec) -> GridSamples1D:
    """Conjugated generator kernels on the rank-one folded domain y >= 0,
    at the special parameter sigma = i b.

    S kernel: j e^{pi(b - bbar) y^2} sum_w [det w] e^{2 pi i (w y) yt}
              e^{-pi(b - bbar) yt^2};
    T kernel: omega i^{-1/2} e^{pi(b - bbar) y^2} sum_w [det w]
              e^{pi i (w y - yt)^2} e^{-pi(b - bbar) yt^2};
    the det(w) factor is present in sector 1 only.
    """
    p = spec.params
    if abs(p.sigma - 1j * p.b) > 1e-12:
        raise DomainError(
            "closed-form generator kernels require sigma = i b; "
            "use verify_conjugation for generic sigma")
    y = np.asarray(f.y, dtype=float)
    if y[0] < -1e-12:
        raise DomainError("folded-domain samples must have y >= 0")
    bb = p.b - p.b.conjugate()
    env_out = np.exp(math.pi * bb * y ** 2)
    env_in = np.exp(-math.pi * bb * y ** 2)
    j_const, omega = _rank_one_phases()
    kern = np.zeros((len(y), len(y)), dtype=complex)
    for det, w in ((1, 1.0), (-1, -1.0)):
        sign = det if spec.sector == 1 else 1
        if spec.generator == "S":
            kern += sign * np.exp(2j * math.pi * np.outer(w * y, y))
        else:
            kern += sign * np.exp(1j * math.pi * (w * y[:, None] - y[None, :]) ** 2)
    pref = j_const if spec.generator == "S" else omega * cmath.exp(-1j * math.pi / 4)
    w_quad = trapezoid_weights(y)
    vals = pref * env_out * (kern @ (w_quad * env_in * f.values))
    return GridSamples1D(y=y.copy(), values=vals,
                         truncation_error=float(abs(f.values[-1])))


def _basis_matrix(y: np.ndarray, sigma: complex, levels: int, k: int) -> np.ndarray:
    """Columns are unit-norm v_l(y, sigma), l = 0..levels-1."""
    a = alpha_constant(sigma)
    table = hermite_table(levels - 1, y, a)
    g = ground_state(y, sigma)
    cols = [table[l] * g / math.sqrt(norm_sq((l,), sigma)) for l in range(levels)]
    return np.stack(cols, axis=1)


def _projector(b: np.ndarray, w: np.ndarray) -> np.ndarray:
    bw = b.conj().T * w[None, :]
    return np.linalg.solve(bw @ b, bw)


def _rho_matrix(generator: str, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Grid realization of the continuous generator factors
    rho(S) = j F (kernel e^{2 pi i y yt}), rho(T) = omega e^{-pi i y^2}."""
    j_const, omega = _rank_one_phases()
    if generator == "S":
        return j_const * np.exp(2j * math.pi * np.outer(y, y)) * w[None, :]
    return np.diag(omega * np.exp(-1j * math.pi * y ** 2))


def verify_conjugation(k: int, s: float, sigma: Optional[complex] = None,
                       L: int = 12, tol: float = 1e-5, grid_points: int = 1601,
                       box_radius: float = 10.0, branch: str = "principal") -> dict:
    """Compare the two constructions of the conjugated rank-one generators
    in the truncated basis and check the modular relations they satisfy.

    Construction (i) conjugates at fixed sigma; construction (ii) composes
    the two heat flows at sigma and at the Moebius-transformed parameter.
    Relation residuals (S^4 = Id, (ST)^3 = S^2, unitarity) come in two
    flavours: "relation_residuals" compose the operators faithfully on the
    grid before projecting to the observed L x L block, while
    "truncated_relation_residuals" multiply the compressed L x L matrices
    themselves and so expose the truncation error directly (these decrease
    as L grows).  Also reports the Laplacian intertwining residual.
    """
    params = solve_params(k, s, branch=branch)
    sigma = params.sigma if sigma is None else complex(sigma)
    if sigma.imag <= 0:
        raise DomainError(f"sigma must lie in the upper half plane, got {sigma}")
    if L < 1 or grid_points < 8:
        raise SchemaError("need L >= 1 and grid_points >= 8")
    y = uniform_grid(box_radius, grid_points)
    w = trapezoid_weights(y)
    b0 = _basis_matrix(y, sigma, L, k)
    p0 = _projector(b0, w)
    heat_m = mehler_kernel(params, y, y, sigma=sigma) * w[None, :]
    heat_p = mehler_kernel(params, y, y, sigma=sigma, inverse=True) * w[None, :]

    report = {
        "k": k, "s": s, "branch": branch,
        "sigma": [sigma.real, sigma.imag],
        "L": L, "grid_points": grid_points, "box_radius": box_radius,
        "tol": tol,
    }
    eta_grid = {}
    eta_block = {}
    conj_resid = {}
    invariance = {}
    for gen in ("S", "T"):
        rho = _rho_matrix(gen, y, w)
        sig2 = mobius_sigma(gen, sigma)
        heat_p2 = mehler_kernel(params, y, y, sigma=sig2, inverse=True) * w[None, :]
        op = heat_m @ (rho @ heat_p)
        m_i = p0 @ (op @ b0)
        m_ii = p0 @ (heat_m @ (heat_p2 @ (rho @ b0)))
        conj_resid[gen] = float(np.max(np.abs(m_i - m_ii)))
        eta_grid[gen] = op
        eta_block[gen] = m_i
        lap0 = b0 @ (np.diag([2 * k * (l + 0.5) for l in range(L)]) @ p0)
        b2 = _basis_matrix(y, sig2, L, k)
        lap2 = b2 @ (np.diag([2 * k * (l + 0.5) for l in range(L)]) @ _projector(b2, w))
        invariance[gen] = float(np.max(np.abs(p0 @ ((rho @ lap0 - lap2 @ rho) @ b0))))

    # faithful composition on the grid, projected to the observed block
    esg, etg = eta_grid["S"], eta_grid["T"]
    s2g = esg @ esg
    stg = esg @ etg
    gram0 = b0.conj().T @ (w[:, None] * b0)
    relations = {
        "residual_S4": float(np.max(np.abs(p0 @ ((s2g @ s2g) @ b0) - np.eye(L)))),
        "residual_braid": float(np.max(np.abs(p0 @ ((stg @ stg @ stg - s2g) @ b0)))),
        "residual_S_unitary": float(np.max(np.abs(
            (esg @ b0).conj().T @ (w[:, None] * (esg @ b0)) - gram0))),
        "residual_T_unitary": float(np.max(np.abs(
            (etg @ b0).conj().T @ (w[:, None] * (etg @ b0)) - gram0))),
    }
    # truncation-sensitivity curve: multiply the compressed L x L matrices
    # and track the ground-state column, whose error is set by the basis
    # tail the compression discards (decreases as L grows)
    es, et = eta_block["S"], eta_block["T"]
    e0 = np.zeros(L)
    e0[0] = 1.0
    s2 = es @ es
    braid_vec = es @ (et @ (es @ (et @ (es @ (et @ e0)))))
    truncated = {
        "residual_S4": float(np.max(np.abs(s2 @ (s2 @ e0) - e0))),
        "residual_braid": float(np.max(np.abs(braid_vec - s2 @ e0))),
        "residual_S_unitary": float(abs(np.vdot(es @ e0, es @ e0) - 1.0)),
        "residual_T_unitary": float(abs(np.vdot(et @ e0, et @ e0) - 1.0)),
    }
    report["conjugation_residuals"] = conj_resid
    report["invariance_residuals"] = invariance
    report["relation_residuals"] = relations
    report["truncated_relation_residuals"] = truncated
    report["max_conjugation_residual"] = max(conj_resid.values())
    report["max_relation_residual"] = max(relations.values())
    report["passed"] = bool(max(conj_resid.values()) < tol
                            and max(relations.values()) < 10 * tol)
    return report

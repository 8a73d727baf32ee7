"""Analytic layer of the genus-one quantum representations: the parameter
solve (r, b, q), Hermite-Gaussian eigenbasis of the quantum Laplacian, the
Mehler heat kernel for exp(-r Laplacian), the conjugated generator kernels
on the folded domain, and a numerical verification of the conjugation
identity in a truncated basis.

Every grid kernel here is a Gaussian p exp(A y^2 + B y yt + C yt^2), held as
its symbol (A, B, C, p): the Mehler flows, rho(S) (_rho_factor, the one
definition of rho(S) and rho(T)) and each conjugated generator
eta_g = exp(-r Laplacian) rho(g) exp(r Laplacian), composed at any sigma in
closed form (_eta_symbol).  One operator, _bilinear_phase, applies them all
by Bluestein's chirp-z identity without forming a kernel, also over n axes
(wgz.prequantum_S) and, given signs, as the W-sum on the folded domain
y >= 0.  The eigenbasis is evaluated by one normalized recurrence,
hermite_function_table.

Coordinates: theta denotes coordinates in a frame orthonormal for the
level-1 pairing; y = sqrt(k) * theta is orthonormal for the level-k pairing
and is the working coordinate everywhere below.  The ground state is
v(y, sigma) = exp(-pi i y^2 / sigma), with alpha = 2 pi Im(sigma)/|sigma|^2 > 0
the Gaussian width of |v|^2, and the flow acts on the eigenbasis through the
spectrum laplacian_spectrum.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (DomainError, InconsistencyError, SchemaError, checks_below, require,
                     within_bounds)
from .finrep import _product, phase_constants
from .roots import LieType, build_root_system


def alpha_constant(sigma: complex) -> float:
    """alpha = 2 pi Im(sigma) / |sigma|^2 = 2 pi Im(-1/sigma), the real
    Gaussian width of |v|^2 (the second form cannot overflow in |sigma|^2)."""
    sigma = complex(sigma)
    if not (sigma.imag > 0 and cmath.isfinite(sigma)):
        raise DomainError(f"sigma must be a finite point of the upper half plane, got {sigma}")
    return 2.0 * math.pi * (-1.0 / sigma).imag


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
    is (1+b^2) = k(1-b^2) to 1e-12 relative to max(k, |s|), a form without
    the division by 1 + b^2 = 2k/(k+is), which cancels as |s|/k grows.
    Supported range |s| <= 1e4 k, and k <= K_MAX."""
    if not isinstance(k, int) or k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k!r}")
    if k > K_MAX:
        raise SchemaError(f"level k exceeds {K_MAX:.6g}, where 4k or 2k(l + 1/2) overflows")
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
        ("is (1+b^2) = k(1-b^2)", abs(1j * s * (1 + b * b) - k * (1 - b * b)),
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


def ground_state(y: np.ndarray, sigma: complex) -> np.ndarray:
    """v(y, sigma) = exp(-pi i y^2 / sigma) at the points y of a line."""
    y = np.asarray(y, dtype=float)
    return np.exp(-1j * math.pi * y ** 2 / complex(sigma))


def laplacian_spectrum(k: int, degree, n: int = 1):
    """The eigenvalue 2k(degree + n/2) of the quantum Laplacian on the
    Hermite eigenfunctions of total degree `degree` (a number or an array) in
    n variables; exp(-r Laplacian) multiplies them by exp(-r times it)."""
    return 2 * k * (degree + n / 2)


@dataclass
class GridSamples1D:
    """Samples of a function of one level-k orthonormal coordinate on a
    uniform grid, with an optional truncation-error estimate."""
    y: np.ndarray
    values: np.ndarray
    truncation_error: float = 0.0

    def __post_init__(self):    # read only: the values keep their layout
        if np.ndim(self.values) != 1 or np.shape(self.values) != np.shape(self.y)[:1]:
            raise SchemaError(f"need one value per grid point, got values of shape "
                              f"{np.shape(self.values)} on a grid of shape {np.shape(self.y)}")


# verify_conjugation refuses a Hermite basis whose Gram matrix has a larger
# condition number, by which rounding can grow in the projections.  Measured
# 1.0-1.14 on resolving grids (L <= 200, 101-4096 points), 1e4-1e21 on 8 or 9
# points; at 3e16 (L = 7 on 8) residuals moved 10x under rounding changes
GRAM_CONDITION_CEILING = 1e8
# the largest level whose 4k and 2k(l + 1/2), l < 2^18 (any admitted basis), stay finite
K_MAX = sys.float_info.max / 2 ** 20


def check_uniform_grid(y) -> np.ndarray:
    """y as a float array, refused unless it is an increasing grid of at
    least 2 points that equals linspace(y[0], y[-1], N) to 16 ulps of its
    largest |y|.  The FFT kernels and trapezoid_weights use only
    y[0], y[-1] and N; at that bound the phase error beta y dy the kernels
    inherit is of the order of the rounding of beta y yt itself."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1 and len(y) >= 2:
        dev = np.max(np.abs(y - np.linspace(y[0], y[-1], len(y))))
        if np.all(np.diff(y) > 0) and dev <= 16 * np.finfo(float).eps * max(abs(y[0]), abs(y[-1])):
            return y
    raise SchemaError("y must hold at least two increasing, uniformly spaced points")


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


def _check_quadratic(y: np.ndarray, *coeffs: complex) -> None:
    """Refuse (DomainError) a grid too wide for the kernel factors exp(c t),
    c in coeffs.  A chirp or cross phase forms |t| up to (2r)^2, r the
    largest |y|, so its rounding is eps |c| (2r)^2; where that reaches 1 the
    phase carries no digit.  Every c is imaginary up to rounding (|q| = 1),
    and where its real part Re(c) r^2 reaches 1 the factor is no longer a
    phase either.  Below both, each kernel grows a block by at most about
    1/sqrt(2 pi eps) (2 pi |p|^2 = |B|, the weights sum to about 2r), so the
    deepest chain, six applications, stays below e^103.  Python floats
    overflow to inf without a warning, so the check itself is silent."""
    r = float(np.abs(y).max())
    r2 = r * r
    for c in coeffs:
        if not (sys.float_info.epsilon * abs(c) * 4 * r2 < 1 and abs(c.real) * r2 <= 1):
            raise DomainError(f"grid radius {r:g} is too wide: exp(c y^2) is not a "
                              f"phase for c = {complex(c):.6g}")


@functools.cache
def _smooth_length(m: int) -> int:
    """The least 5-smooth 2^a 3^b 5^c >= m: the least power-of-two multiple
    of each 3^b 5^c < 2m reaching m, a fast FFT length (Frigo & Johnson 2005),
    cached, since each operator build asks for it and one search costs ~0.1 ms."""
    odd = (3 ** b * 5 ** c for b in range(m.bit_length() + 1) for c in range(m.bit_length()))
    return min(p << max(-(-m // p) - 1, 0).bit_length() for p in odd if p < 2 * m)


def _bilinear_phase(form, grids, d_out=1.0, d_in=1.0, signs=None):
    """The map x -> d_out(y) sum_y' [exp(i y.A y') + s exp(-i y.A y')]
    d_in(y') x(y') over the last n axes of x, for A = form symmetric n x n (or
    a number) and y on the product of n uniform grids y0 + h j; the s term only
    given signs (a number, or one per row, broadcasting against x).  On y >= 0
    in rank one that is the sum over W = {+-1} with det(w)^sigma = s (symmetric
    convolution, Martucci 1994).  As y.A y' = (y.A y + y'.A y' - d.A d) / 2 with
    d = y - y' = h (i - j), the first term is a convolution with the chirp
    exp(-i d.A d / 2); as -y.A y' = (y.A y + y'.A y' - e.A e) / 2 with e = y + y'
    = 2 y0 + h (i + j), the second is a correlation with exp(-i e.A e / 2), met
    by the input spectrum at -k.  So one FFT pair applies both, each axis
    zero-padded to the least 5-smooth length >= 2B - 1 (Bluestein 1970).  The
    input is only read.  A grid too wide for the form is refused
    (_check_quadratic)."""
    form = np.atleast_2d(np.asarray(form, dtype=float))
    shape = tuple(len(g) for g in grids)
    _check_quadratic(np.array([g[i] for g in grids for i in (0, -1)]),
                     1j * float(np.abs(form).sum()))

    def half_form(ranges):  # x.A x / 2 on the mesh of one range per axis
        x = np.meshgrid(*ranges, indexing="ij", sparse=True)
        return 0.5 * sum(form[a, b] * x[a] * x[b] for a in range(len(x)) for b in range(len(x)))

    def transform(fft, a):  # over the last n axes, the last first as in fftn
        for axis in range(-1, -len(shape) - 1, -1):
            fft(a, axis=axis, out=a)
    half = np.exp(1j * half_form(grids))
    pre, post = half * d_in, half * d_out
    size = tuple(_smooth_length(2 * b - 1) for b in shape)
    lag = [np.arange(1 - b, b) for b in shape]
    steps = [(g[-1] - g[0]) / (len(g) - 1) for g in grids]
    # (index, points) of the chirp at d, stored mod size, and given signs at e
    rows = [([d % p for d, p in zip(lag, size)], [h * d for h, d in zip(steps, lag)])]
    if signs is not None:
        m = [d + b - 1 for d, b in zip(lag, shape)]
        rows.append((m, [2 * g[0] + h * i for g, h, i in zip(grids, steps, m)]))
    chirps = np.zeros((len(rows),) + size, dtype=complex)
    for chirp, (index, points) in zip(chirps, rows):
        chirp[np.ix_(*index)] = np.exp(-1j * half_form(points))
    transform(np.fft.fft, chirps)
    conv, corr = chirps[0], chirps[-1]
    crop = (Ellipsis,) + tuple(slice(0, b) for b in shape)
    axes = tuple(range(-len(shape), 0))

    def apply(x):
        x = np.asarray(x)
        # out of place into a fresh C-ordered buffer: x of any layout is kept
        buf = np.zeros(x.shape[:x.ndim - len(shape)] + size, dtype=complex)
        np.multiply(pre, x, out=buf[crop])
        transform(np.fft.fft, buf)
        # G[-k] of the spectrum G, a copy weighted in place: no rows x P table is kept
        folded = None if signs is None else np.roll(np.flip(buf, axes), 1, axes)
        buf *= conv
        if folded is not None:
            folded *= corr
            folded *= signs
            buf += folded
        transform(np.fft.ifft, buf)
        return post * buf[crop]
    return apply


def _mehler_symbol(params: HWParams, sigma: complex, inverse: bool = False):
    """The symbol (A, B, C, p) of exp(-+ r Laplacian_sigma), the kernel
    p e^{A y^2 + B y yt + C yt^2}: the Mehler closed form with ratio
    q = exp(-+ 2kr), c = 2 alpha q/(1 - q^2), d = -alpha q^2/(1 - q^2),
        q^{1/2} sqrt(alpha / (pi (1 - q^2))) e^{c y yt}
        e^{d y^2 - pi i y^2/sigma} e^{d yt^2 + pi i yt^2/sigmabar}.
    Since q^2 = -tbar/t, 1 - q^2 is taken exactly as 2k/t (2k/tbar for the
    inverse flow), which the difference would lose to cancellation as |s|/k
    grows.  A q off the unit circle, or a c that is not imaginary to 1e-12
    |c|, raises InconsistencyError; A and C are imaginary up to rounding,
    each one summed exponent, which stays bounded where its two factors
    over- and underflow."""
    sign = 1 if inverse else -1
    q = cmath.exp(2 * sign * params.k * params.r)
    if abs(abs(q) - 1) > 1e-12:
        raise InconsistencyError(f"Mehler ratio q = {q} is off the unit circle")
    a = alpha_constant(sigma)
    one_minus_q2 = 2 * params.k / (params.t.conjugate() if inverse else params.t)
    c = 2 * a * q / one_minus_q2
    if abs(c.real) > 1e-12 * abs(c):
        raise InconsistencyError(f"Mehler kernel at q = {q} is not a phase in y yt: "
                                 f"coefficient {c}")
    d = -a * q * q / one_minus_q2
    root = cmath.exp(sign * params.k * params.r) * cmath.sqrt(a / (math.pi * one_minus_q2))
    return d - 1j * math.pi / sigma, c, d + 1j * math.pi / sigma.conjugate(), root


def _kernel(symbol, y: np.ndarray, w, signs=None):
    """The kernel of symbol (A, B, C, p) by quadrature with weights w on the
    uniform grid y, as a map on (N,) or (L, N) arrays; given signs, folded
    on y >= 0 for rows of those parities (_bilinear_phase, beta = Im(B)).
    A grid on which the rounding residue of Re(A) or Re(C) matters is
    refused (_check_quadratic)."""
    a, b, c, p = symbol
    _check_quadratic(y, a, c)
    y2 = y * y
    return _bilinear_phase(b.imag, [y], p * np.exp(a * y2), w * np.exp(c * y2), signs)


def heat_apply(psi: GridSamples1D, params: HWParams, inverse: bool = False) -> GridSamples1D:
    """Apply exp(-r Laplacian_sigma) (or its inverse) to 1-d grid samples by
    Mehler-kernel quadrature."""
    if not isinstance(psi, GridSamples1D):
        raise SchemaError(f"unsupported input type {type(psi).__name__}")
    y = check_uniform_grid(psi.y)
    symbol = _mehler_symbol(params, params.sigma, inverse)
    vals = _kernel(symbol, y, trapezoid_weights(y))(psi.values)
    # the line is truncated at both ends of the grid
    edge = max(abs(psi.values[0]), abs(psi.values[-1]))
    return GridSamples1D(y=psi.y.copy(), values=vals, truncation_error=float(edge))


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


@functools.cache
def _rank_one_phases() -> Tuple[complex, complex]:
    """(j, omega) for the rank-one root system: j = i^{-1}, omega = e^{i pi/4}."""
    pp = phase_constants(build_root_system(LieType("A", 1)))
    return pp.j, pp.omega


def _rho_factor(generator: str):
    """The generator factors, defined once: rho(S) = j F as the kernel symbol
    (0, 2 pi i, 0, j), rho(T) = omega e^{-pi i y^2} as (chirp, factor)."""
    j_const, omega = _rank_one_phases()
    return (0j, 2j * math.pi, 0j, j_const) if generator == "S" else (-1j * math.pi, omega)


# the largest real part, relative to the largest term that forms it times
# |t|/k, that a composed eta exponent may carry as rounding before it is
# snapped to zero: eta_T's inner exponent C_m + A_p - pi i = -pi i sums two
# terms of size alpha |t|/(2k) that cancel.  Measured at most 2.3e-12 at
# sigma = 1e-3 i and 1.9e-15 at sigma = i b, 2i, 0.3+1.1i, -0.7+0.4i and
# 1.5+2i, for |s| <= 1e4 k and k = 1, 2, 5
_ETA_REAL_PART_BOUND = 1e-10


def _eta_symbol(params: HWParams, sigma: complex, generator: str):
    """The symbol (A, B, C, p) of eta_g = heat_m rho(g) heat_p on the line,
    heat_-+ = exp(-+ r Laplacian_sigma) and rho(g) of _rho_factor, composed
    in closed form in complex arithmetic (Folland 1989, ch. 4).  rho(T) is
    folded into the exponent of the one inner variable; rho(S) has two.
    With the inner exponent z.Q z and y, yt coupled to the first and last
    inner variable by B_m and B_p, the Gaussian integral over z (its Schur
    complement) gives
        A = A_m - B_m^2 (Q^-1)_11 / 4,   B = -B_m B_p (Q^-1)_1n / 2,
        C = C_p - B_p^2 (Q^-1)_nn / 4,   p = p_m p_g p_p pi^{n/2} / sqrt(det(-Q)),
    Q^-1 the adjugate over det Q, the root the product of the principal
    roots of the eigenvalues -tr/2 +- sqrt(tr^2/4 - det) of -Q (the Fresnel
    branch on imaginary Q).  The 2-variable form stays regular where either
    pairwise inner exponent vanishes (sigma = i b at s = 0): on |q| = 1,
    Q_T = -i pi and det Q_S = pi^2 + m^2 with m real, so a singular Q,
    |det Q| <= 1e-12 |Q|^n with |Q| its largest entry, means inconsistent
    Mehler symbols and raises InconsistencyError, as does a real part of A,
    B or C over _ETA_REAL_PART_BOUND; below it the real parts are rounding
    and are snapped to zero."""
    am, bm, cm, pm = _mehler_symbol(params, sigma)
    ap, bp, cp, pp = _mehler_symbol(params, sigma, inverse=True)
    if generator == "S":
        a, b, c, pg = _rho_factor("S")
        (q11, q12), (_, q22) = quad = [[cm + a, b / 2], [b / 2, c + ap]]
        det, adj, half = q11 * q22 - q12 * q12, (q22, -q12, q11), -(q11 + q22) / 2
        eigen = [half + sign * cmath.sqrt(half * half - det) for sign in (1, -1)]
    else:
        chirp, pg = _rho_factor("T")
        quad = [[cm + chirp + ap]]
        det, adj, eigen = quad[0][0], (1, 1, 1), (-quad[0][0],)
    if not abs(det) > 1e-12 * max(abs(x) for row in quad for x in row) ** len(quad):
        raise InconsistencyError(f"eta_{generator} at sigma = {sigma} is not an integral "
                                 f"kernel: its inner exponent {quad} is singular")
    inv = [x / det for x in adj]
    terms = (bm * bm * inv[0] / 4, bm * bp * inv[1] / 2, bp * bp * inv[2] / 4)
    exponents = (am - terms[0], -terms[1], cp - terms[2])
    scale = max(map(abs, (am, bm, cm, ap, bp, cp) + terms)) * abs(params.t) / params.k
    if max(abs(e.real) for e in exponents) > _ETA_REAL_PART_BOUND * scale:
        raise InconsistencyError(f"eta_{generator} at sigma = {sigma} is not a phase "
                                 f"kernel: exponents {exponents}")
    p = pm * pg * pp * math.pi ** (len(quad) / 2) / math.prod(map(cmath.sqrt, eigen))
    return tuple(1j * e.imag for e in exponents) + (p,)


def eta_apply(f: GridSamples1D, spec: EtaKernelSpec) -> GridSamples1D:
    """The conjugated generator eta_g at the parameters' sigma on the
    rank-one folded domain y >= 0: the composed kernel of _eta_symbol,
    summed over w = +-1 with the factor det(w) in sector 1 only."""
    if not isinstance(f, GridSamples1D):
        raise SchemaError(f"unsupported input type {type(f).__name__}")
    y = check_uniform_grid(f.y)
    if y[0] < -1e-12:
        raise DomainError("folded-domain samples must have y >= 0")
    symbol = _eta_symbol(spec.params, spec.params.sigma, spec.generator)
    vals = _kernel(symbol, y, trapezoid_weights(y), -1 if spec.sector == 1 else 1)(f.values)
    # right end only: y = 0 is the fold of the domain, not a truncation
    return GridSamples1D(y=y.copy(), values=vals,
                         truncation_error=float(abs(f.values[-1])))


def _rho(generator: str, u: np.ndarray, w: np.ndarray, signs):
    """Grid realization of the generator factor of _rho_factor as a map on
    folded L x B blocks of row parities signs."""
    if generator == "S":
        return _kernel(_rho_factor("S"), u, w, signs)
    chirp, omega = _rho_factor("T")
    _check_quadratic(u, chirp)
    phase = omega * np.exp(chirp * u ** 2)
    return lambda x: phase * x


def verify_conjugation(k: int, s: float, sigma: Optional[complex] = None,
                       L: int = 12, tol: float = 1e-5, grid_points: int = 1601,
                       box_radius: float = 10.0, branch: str = "principal") -> dict:
    """Compare the two constructions of the conjugated rank-one generators
    in the truncated basis and check the modular relations they satisfy.

    Construction (i) conjugates at fixed sigma, each eta_g applied as one
    composed kernel (_eta_symbol); construction (ii) composes the two heat
    flows at sigma and at the Moebius-transformed parameter by quadrature.
    Relation residuals (S^4 = Id, (ST)^3 = S^2, unitarity) come in two
    flavours: "relation_residuals" compose the operators faithfully on the
    grid before projecting to the observed L x L block, while
    "truncated_relation_residuals" multiply the compressed L x L matrices
    themselves and so expose the truncation error directly (these decrease
    as L grows).  "relation_edge_mass" gives, per faithful relation, the
    largest |value| at the grid's right end over the blocks its chain forms:
    where it is not small the box truncates the chain.  Also reports the
    Laplacian intertwining residual.

    Needs 0 < box_radius with pi r^2 / |sigma| finite, a grid every kernel
    accepts (_check_quadratic, the one width rule) and 1 <= L < grid_points.
    Its ~20 L x ceil(N/2) blocks, three L x P FFT buffers (P < 1.17 N) and
    kernels of ~1 kB a point are charged before any is built.
    A Hermite basis at sigma or a Moebius image whose Gram
    condition number exceeds GRAM_CONDITION_CEILING raises DomainError
    before any residual.
    """
    params = solve_params(k, s, branch=branch)
    sigma = params.sigma if sigma is None else complex(sigma)
    alpha_constant(sigma)   # refuses sigma off the upper half plane
    sig2 = {gen: mobius_sigma(gen, sigma) for gen in ("S", "T")}
    for gen, image in sig2.items():     # in it exactly, but rounding may move it off
        if not (image.imag > 0 and cmath.isfinite(image)):
            raise DomainError(f"sigma {sigma} has its {gen} image {image} off the upper "
                              "half plane in floating point")
    if L < 1 or grid_points < 8 or L >= grid_points:
        raise SchemaError(f"need 1 <= L < grid_points and grid_points >= 8, "
                          f"got L={L}, grid_points={grid_points}")
    if not 0 < box_radius < math.inf:
        raise SchemaError(f"box_radius must be positive and finite, got {box_radius}")
    # the ground state's exponent pi y^2 / sigma at the grid edge
    if not math.isfinite(box_radius * box_radius * math.pi / abs(sigma)):
        raise SchemaError(f"box_radius {box_radius} is too large: pi r^2 / |sigma| "
                          "overflows")
    require(f"kernel verify on {grid_points} points with L={L}",
            basis_blocks=320 * L * -(-grid_points // 2), fft_buffers=56 * L * grid_points,
            kernels=1024 * grid_points)
    y = uniform_grid(box_radius, grid_points)
    # row l of every block has parity (-1)^l, kept by every operator, so all
    # runs on the folded half u >= 0, u = 0 (odd N) at half weight; a line
    # integral is 2 sum_u over rows of equal parity, the others are 0
    u, wf = y[grid_points // 2:], trapezoid_weights(y)[grid_points // 2:]
    wf[0] /= 1 + grid_points % 2
    signs = 1.0 - 2.0 * (np.arange(L) % 2)[:, None]
    same = signs == signs.T
    # every kernel before any basis table, so that a grid too wide for one
    # of them is refused before the grid x L work
    heat_m = _kernel(_mehler_symbol(params, sigma), u, wf, signs)
    flow2 = {gen: _kernel(_mehler_symbol(params, sig2[gen], True), u, wf, signs)
             for gen in sig2}
    rho = {gen: _rho(gen, u, wf, signs) for gen in sig2}
    eta = {gen: _kernel(_eta_symbol(params, sigma, gen), u, wf, signs) for gen in sig2}

    def gram(a, b):     # the L x L line integrals conj(a_l) b_m, on the calling thread
        return same * _product(a.conj(), (2 * wf * b).T)

    def projector(b):   # x -> x @ p.T, the transposed coefficients in the rows of b
        g = gram(b, b)
        if not (cond := np.linalg.cond(g)) <= GRAM_CONDITION_CEILING:
            raise DomainError(f"Gram matrix of the L={L} Hermite basis has condition number "
                              f"{cond:.3g} on the {grid_points}-point grid, over "
                              f"{GRAM_CONDITION_CEILING:g}: the grid does not resolve it")
        p = np.linalg.solve(g, b.conj() * (2 * wf))
        return lambda x: same * _product(x, p.T)

    # one function per row of a block; coefficients are read via max|.| until es, et;
    # every projector before any residual, so an unresolved basis is refused first
    b0 = hermite_function_table(L - 1, u, sigma)
    b2 = {gen: hermite_function_table(L - 1, u, sig2[gen]) for gen in sig2}
    proj0, proj2 = projector(b0), {gen: projector(b2[gen]) for gen in sig2}
    # the rank-L Laplacian b diag(spectrum) p in coefficients: lap0 is the
    # L x L matrix of Laplacian_sigma on the rows of b0
    eigen = laplacian_spectrum(k, np.arange(L))
    lap0 = proj0(b0) * eigen

    report = {
        "k": k, "s": s, "branch": branch,
        "sigma": [sigma.real, sigma.imag],
        "L": L, "grid_points": grid_points, "box_radius": box_radius,
        "tol": tol,
    }
    eta_b0 = {}
    conj_resid = {}
    invariance = {}
    for gen in ("S", "T"):
        rho_b0 = rho[gen](b0)
        eta_b0[gen] = eta[gen](b0)
        conj_resid[gen] = float(np.max(np.abs(
            proj0(eta_b0[gen] - heat_m(flow2[gen](rho_b0))))))
        # proj0(rho(lap0 b0) - lap2 rho(b0)) on L x L coefficients: rho acts
        # row by row with the row's parity sign and lap0, proj0 and proj2 keep
        # parity, so rho(lap0 b0) = lap0 rho(b0); no L x N product is formed
        invariance[gen] = float(np.max(np.abs(
            lap0 @ proj0(rho_b0) - (proj2[gen](rho_b0) * eigen) @ proj0(b2[gen]))))

    def edge(*blocks):  # the largest |value| at the grid's right end
        return max(float(np.max(np.abs(x[:, -1]))) for x in blocks)

    # faithful composition on the grid, projected to the observed block,
    # with the edge of every block each chain forms
    s2_b0 = eta["S"](eta_b0["S"])
    s3_b0 = eta["S"](s2_b0)
    s4_b0 = eta["S"](s3_b0)
    braid_b0 = eta["S"](eta_b0["T"])
    braid_edge = edge(eta_b0["S"], s2_b0, eta_b0["T"], braid_b0)
    for _ in range(2):
        t_b0 = eta["T"](braid_b0)
        braid_b0 = eta["S"](t_b0)
        braid_edge = max(braid_edge, edge(t_b0, braid_b0))
    gram0 = gram(b0, b0)
    relations = {
        "residual_S4": float(np.max(np.abs(proj0(s4_b0) - np.eye(L)))),
        "residual_braid": float(np.max(np.abs(proj0(braid_b0 - s2_b0)))),
        "residual_S_unitary": float(np.max(np.abs(gram(eta_b0["S"], eta_b0["S"]) - gram0))),
        "residual_T_unitary": float(np.max(np.abs(gram(eta_b0["T"], eta_b0["T"]) - gram0))),
    }
    edge_mass = {
        "residual_S4": edge(eta_b0["S"], s2_b0, s3_b0, s4_b0),
        "residual_braid": braid_edge,
        "residual_S_unitary": edge(eta_b0["S"]),
        "residual_T_unitary": edge(eta_b0["T"]),
    }
    # truncation-sensitivity curve: multiply the compressed L x L matrices
    # and track the ground-state column, whose error is set by the basis
    # tail the compression discards (decreases as L grows)
    es, et = proj0(eta_b0["S"]).T, proj0(eta_b0["T"]).T
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
    report["relation_edge_mass"] = edge_mass
    report["truncated_relation_residuals"] = truncated
    report["max_conjugation_residual"] = max(conj_resid.values())
    report["max_relation_residual"] = max(relations.values())
    report["passed"] = within_bounds(conjugation_checks(report))
    return report


def conjugation_checks(report: dict) -> list:
    """The conjugation residual of a verify_conjugation report against its
    tol, and the faithful relation residual against 10 tol."""
    tol = report["tol"]
    return (checks_below(tol, max_conjugation_residual=report["max_conjugation_residual"])
            + checks_below(10 * tol, max_relation_residual=report["max_relation_residual"]))

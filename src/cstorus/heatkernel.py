"""Analytic layer of the genus-one quantum representations: the parameter
solve (r, b, q), Hermite-Gaussian eigenbasis of the quantum Laplacian, the
Mehler heat kernel for exp(-r Laplacian), the conjugated generator kernels
on the folded domain, and a numerical verification of the conjugation
identity in a truncated basis.

The eigenbasis is evaluated by one normalized recurrence,
hermite_function_table.  On the flow's parameters |q| = 1, so every grid
kernel here (the Mehler kernel, rho(S) and both eta kernels) has the form
diag * exp(i beta y yt) * diag on a uniform grid.  One operator,
_bilinear_phase, applies diag * exp(i y.A y') * diag over the last n axes of
an array by one zero-padded FFT convolution with a chirp (Bluestein's chirp-z
identity), never forming the kernel: n = 1 in heat_apply, n = rank in
wgz.prequantum_S.  Given signs it applies, in the same FFT pair, the W-sum of
such kernels on y >= 0: in eta_apply, and in verify_conjugation, whose basis
row v_l has parity (-1)^l, on L x N/2 blocks (one function per row).

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

from .errors import DomainError, InconsistencyError, ResourceLimitError, SchemaError


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
    is = k(1-b^2)/(1+b^2) to 1e-12 relative to max(k, |s|). That relation
    loses digits as |s|/k grows (1 + b^2 = 2k/(k+is)); supported range
    |s| <= 1e4 k, past ~1e5 k the check may raise InconsistencyError."""
    if not isinstance(k, int) or k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k!r}")
    if k > sys.float_info.max:
        raise SchemaError(f"level k exceeds the float range {sys.float_info.max:.6g}")
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


# a grid of more points than this raises ResourceLimitError.  No N x N kernel
# is formed: the cost is the folded L x B blocks of verify_conjugation
# (B = ceil(N/2), L < N, about a dozen alive at once) and two FFT buffers of
# L x P complex numbers, P the least 5-smooth length >= 2B - 1 (P < 1.16N)
GRID_POINTS_CEILING = 4096

# grid_points * L above this raises ResourceLimitError in verify_conjugation:
# measured peak RSS 77 MB at N = 1601, L = 200 and 110 MB at this ceiling
# (N = 4096, L = 128), 123 MB at N = 1601, L = 400 (2-vCPU VM, numpy 2.4)
GRID_BASIS_CEILING = 2 ** 19

# verify_conjugation refuses a Hermite basis whose Gram matrix has a larger
# condition number, by which rounding can grow in the projections.  Measured
# 1.0-1.14 on resolving grids (L <= 200, 101-4096 points), 1e4-1e21 on 8 or 9
# points; at 3e16 (L = 7 on 8) residuals moved 10x under rounding changes
GRAM_CONDITION_CEILING = 1e8


def _check_grid_size(points: int) -> None:
    if points > GRID_POINTS_CEILING:
        raise ResourceLimitError(
            f"grid of {points} points exceeds the ceiling {GRID_POINTS_CEILING}")


def check_uniform_grid(y) -> np.ndarray:
    """y as a float array, refused unless it is an increasing grid of 2 to
    GRID_POINTS_CEILING points that equals linspace(y[0], y[-1], N) to 16
    ulps of its largest |y|.  The FFT kernels and trapezoid_weights use only
    y[0], y[-1] and N; at that bound the phase error beta y dy the kernels
    inherit is of the order of the rounding of beta y yt itself."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1 and len(y) >= 2:
        _check_grid_size(len(y))
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
    c in coeffs.  Every c is imaginary up to rounding (|q| = 1), so its real
    part is a rounding residue; where Re(c) r^2 reaches 1 at the grid edge
    (r the largest |y|) the factor is no longer a phase, and the kernel's
    products overflow soon after.  A chirp or cross phase forms |t| up to
    (2r)^2, so |c| (2r)^2 must stay finite too.  Python floats overflow to
    inf without a warning, so the check itself is silent."""
    r = float(np.abs(y).max())
    r2 = r * r
    for c in coeffs:
        if not (math.isfinite(4 * abs(c) * r2) and abs(c.real) * r2 <= 1):
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
    input is only read.  The map's `gain`, max|d_out| sum|d_in| (doubled given
    signs), bounds how much one application can grow the sup norm of its
    input, since every kernel entry has modulus one."""
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
    mirror = (Ellipsis,) + np.ix_(*[-np.arange(p) for p in size])

    def apply(x):
        x = np.asarray(x)
        # out of place into a fresh C-ordered buffer: x of any layout is kept
        buf = np.zeros(x.shape[:x.ndim - len(shape)] + size, dtype=complex)
        np.multiply(pre, x, out=buf[crop])
        transform(np.fft.fft, buf)
        folded = None if signs is None else buf[mirror]     # G[-k] of the spectrum G
        buf *= conv
        if folded is not None:
            buf += np.multiply(folded, corr * signs, out=folded)
        transform(np.fft.ifft, buf)
        return post * buf[crop]
    # Python floats: a product past the float range is inf, without a warning
    apply.gain = ((1.0 if signs is None else 2.0) * float(np.abs(d_out).max())
                  * float(np.abs(np.broadcast_to(d_in, shape)).sum()))
    return apply


def _mehler(params: HWParams, y: np.ndarray, w: np.ndarray, sigma: complex,
            inverse: bool = False, signs=None):
    """exp(-+ r Laplacian_sigma) by quadrature with weights w on the uniform
    grid y, as a map on (N,) or (L, N) arrays; given signs, folded on y >= 0
    for rows of those parities (_bilinear_phase).  The Mehler closed form with
    ratio q = exp(-+ 2kr), c = 2 alpha q/(1 - q^2), d = -alpha q^2/(1 - q^2):
        q^{1/2} sqrt(alpha / (pi (1 - q^2))) e^{c y yt}
        e^{d y^2 - pi i y^2/sigma} e^{d yt^2 + pi i yt^2/sigmabar}.
    On |q| = 1 c is imaginary; each diagonal is one exp of its summed
    exponent, which stays bounded where its two factors over- and underflow;
    that exponent is imaginary up to rounding, and a grid on which its
    rounding residue matters is refused (_check_quadratic)."""
    sign = 1 if inverse else -1
    q = cmath.exp(2 * sign * params.k * params.r)
    if (1 - q * q).real <= 0:
        raise DomainError(f"Mehler kernel diverges: Re(1 - q^2) <= 0 for q = {q}")
    a = alpha_constant(sigma)
    c = 2 * a * q / (1 - q * q)
    if abs(c.real) > 1e-12 * abs(c):
        raise InconsistencyError(f"Mehler kernel at q = {q} is not a phase in y yt: "
                                 f"coefficient {c}")
    d = -a * q * q / (1 - q * q)
    root = cmath.exp(sign * params.k * params.r) * cmath.sqrt(a / (math.pi * (1 - q * q)))
    _check_quadratic(y, d - 1j * math.pi / sigma, d + 1j * math.pi / sigma.conjugate())
    y2 = y * y
    d_out = root * np.exp((d - 1j * math.pi / sigma) * y2)
    d_in = w * np.exp((d + 1j * math.pi / sigma.conjugate()) * y2)
    return _bilinear_phase(c.imag, [y], d_out, d_in, signs)


def heat_apply(psi: GridSamples1D, params: HWParams, inverse: bool = False) -> GridSamples1D:
    """Apply exp(-r Laplacian_sigma) (or its inverse) to 1-d grid samples by
    Mehler-kernel quadrature."""
    if not isinstance(psi, GridSamples1D):
        raise SchemaError(f"unsupported input type {type(psi).__name__}")
    y = check_uniform_grid(psi.y)
    vals = _mehler(params, y, trapezoid_weights(y), params.sigma, inverse)(psi.values)
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
    y = check_uniform_grid(f.y)
    if y[0] < -1e-12:
        raise DomainError("folded-domain samples must have y >= 0")
    j_const, omega = _rank_one_phases()
    # T: e^{pi i (w y - yt)^2} = e^{pi i y^2} e^{-2 pi i w y yt} e^{pi i yt^2}
    if spec.generator == "S":
        pref, beta, chirp = j_const, 2 * math.pi, 0.0
    else:
        pref, beta, chirp = omega * cmath.exp(-1j * math.pi / 4), -2 * math.pi, 1j * math.pi
    bb = p.b - p.b.conjugate()
    _check_quadratic(y, math.pi * bb + chirp, -math.pi * bb + chirp)
    d_out = pref * np.exp((math.pi * bb + chirp) * y ** 2)
    d_in = trapezoid_weights(y) * np.exp((-math.pi * bb + chirp) * y ** 2)
    # the sign det(w) of w = -1, in sector 1 only
    vals = _bilinear_phase(beta, [y], d_out, d_in, -1 if spec.sector == 1 else 1)(f.values)
    # right end only: y = 0 is the fold of the domain, not a truncation
    return GridSamples1D(y=y.copy(), values=vals,
                         truncation_error=float(abs(f.values[-1])))


def _rho(generator: str, u: np.ndarray, w: np.ndarray, signs):
    """Grid realization of the continuous generator factors
    rho(S) = j F (kernel e^{2 pi i y yt}), rho(T) = omega e^{-pi i y^2},
    as a map on folded L x B blocks of row parities signs, with its `gain`."""
    j_const, omega = _rank_one_phases()
    if generator == "S":
        return _bilinear_phase(2 * math.pi, [u], d_out=j_const, d_in=w, signs=signs)
    _check_quadratic(u, -1j * math.pi)
    phase = omega * np.exp(-1j * math.pi * u ** 2)

    def apply(x):
        return phase * x
    apply.gain = 1.0        # a pointwise phase
    return apply


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_chain_growth(y: np.ndarray, heat_m, heat_p, flow2, rho) -> None:
    """Refuse (DomainError) a grid on which a chain of quadratures that
    verify_conjugation applies could leave the float range.  A chain grows
    a block's sup norm by at most the product of its operators' gains; the
    chains are S^4 and (S T)^3 of eta = heat_m rho heat_p, and
    heat_m flow2 rho per generator.  On an under-resolved grid each gain
    is of the order of the radius, so at a huge radius these products
    overflow although every single kernel is a phase."""
    def log_gain(*ops):     # an underflowed gain counts as the least float
        return sum(math.log(max(op.gain, sys.float_info.min)) for op in ops)
    eta = {gen: log_gain(heat_m, rho[gen], heat_p) for gen in rho}
    chains = [4 * eta["S"], 3 * (eta["S"] + eta["T"])]
    chains += [log_gain(heat_m, flow2[gen], rho[gen]) for gen in rho]
    if max(chains) >= _LOG_FLOAT_MAX:
        raise DomainError(
            f"grid of {len(y)} points is too coarse for radius {y[-1]:g}: chained "
            f"quadratures may grow by e^{max(chains):.4g}, past the float range")


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

    Needs 0 < box_radius with pi r^2 / |sigma| finite, a grid every kernel
    accepts (_check_quadratic) and 1 <= L < grid_points; grid_points above
    GRID_POINTS_CEILING or grid_points * L above GRID_BASIS_CEILING raises
    ResourceLimitError before any kernel or basis block is built.  A Hermite
    basis at sigma or a Moebius image whose Gram condition number exceeds
    GRAM_CONDITION_CEILING raises DomainError before any residual.
    """
    params = solve_params(k, s, branch=branch)
    sigma = params.sigma if sigma is None else complex(sigma)
    alpha_constant(sigma)   # refuses sigma off the upper half plane
    if L < 1 or grid_points < 8 or L >= grid_points:
        raise SchemaError(f"need 1 <= L < grid_points and grid_points >= 8, "
                          f"got L={L}, grid_points={grid_points}")
    if not 0 < box_radius < math.inf:
        raise SchemaError(f"box_radius must be positive and finite, got {box_radius}")
    # the ground state's exponent pi y^2 / sigma at the grid edge
    if not math.isfinite(box_radius * box_radius * math.pi / abs(sigma)):
        raise SchemaError(f"box_radius {box_radius} is too large: pi r^2 / |sigma| "
                          "overflows")
    _check_grid_size(grid_points)
    if grid_points * L > GRID_BASIS_CEILING:
        raise ResourceLimitError(
            f"grid of {grid_points} points times L = {L} exceeds the ceiling "
            f"{GRID_BASIS_CEILING} on grid_points * L")
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
    heat_m = _mehler(params, u, wf, sigma, signs=signs)
    heat_p = _mehler(params, u, wf, sigma, inverse=True, signs=signs)
    sig2 = {gen: mobius_sigma(gen, sigma) for gen in ("S", "T")}
    flow2 = {gen: _mehler(params, u, wf, sig2[gen], True, signs) for gen in sig2}
    rho = {gen: _rho(gen, u, wf, signs) for gen in sig2}
    _check_chain_growth(y, heat_m, heat_p, flow2, rho)

    def gram(a, b):     # the L x L line integrals conj(a_l) b_m
        return same * (a.conj() @ (2 * wf * b).T)

    def projector(b):   # x -> x @ p.T, the transposed coefficients in the rows of b
        g = gram(b, b)
        if not (cond := np.linalg.cond(g)) <= GRAM_CONDITION_CEILING:
            raise DomainError(f"Gram matrix of the L={L} Hermite basis has condition number "
                              f"{cond:.3g} on the {grid_points}-point grid, over "
                              f"{GRAM_CONDITION_CEILING:g}: the grid does not resolve it")
        p = np.linalg.solve(g, b.conj() * (2 * wf))
        return lambda x: same * (x @ p.T)

    # one function per row of a block; coefficients are read via max|.| until es, et;
    # every projector before any residual, so an unresolved basis is refused first
    b0 = hermite_function_table(L - 1, u, sigma)
    b2 = {gen: hermite_function_table(L - 1, u, sig2[gen]) for gen in sig2}
    proj0, proj2 = projector(b0), {gen: projector(b2[gen]) for gen in sig2}
    # rank-L Laplacian b diag(spectrum) p, applied to a block
    eigen = laplacian_spectrum(k, np.arange(L))

    report = {
        "k": k, "s": s, "branch": branch,
        "sigma": [sigma.real, sigma.imag],
        "L": L, "grid_points": grid_points, "box_radius": box_radius,
        "tol": tol,
    }
    eta = {}
    eta_b0 = {}
    conj_resid = {}
    invariance = {}
    lap0_b0 = (proj0(b0) * eigen) @ b0
    heat_p_b0 = heat_p(b0)
    for gen in ("S", "T"):
        rho_b0 = rho[gen](b0)
        eta[gen] = lambda x, r=rho[gen]: heat_m(r(heat_p(x)))
        eta_b0[gen] = heat_m(rho[gen](heat_p_b0))
        conj_resid[gen] = float(np.max(np.abs(
            proj0(eta_b0[gen] - heat_m(flow2[gen](rho_b0))))))
        invariance[gen] = float(np.max(np.abs(
            proj0(rho[gen](lap0_b0) - (proj2[gen](rho_b0) * eigen) @ b2[gen]))))

    # faithful composition on the grid, projected to the observed block
    s2_b0 = eta["S"](eta_b0["S"])
    braid_b0 = eta["S"](eta_b0["T"])
    for _ in range(2):
        braid_b0 = eta["S"](eta["T"](braid_b0))
    gram0 = gram(b0, b0)
    relations = {
        "residual_S4": float(np.max(np.abs(proj0(eta["S"](eta["S"](s2_b0))) - np.eye(L)))),
        "residual_braid": float(np.max(np.abs(proj0(braid_b0 - s2_b0)))),
        "residual_S_unitary": float(np.max(np.abs(gram(eta_b0["S"], eta_b0["S"]) - gram0))),
        "residual_T_unitary": float(np.max(np.abs(gram(eta_b0["T"], eta_b0["T"]) - gram0))),
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
    report["truncated_relation_residuals"] = truncated
    report["max_conjugation_residual"] = max(conj_resid.values())
    report["max_relation_residual"] = max(relations.values())
    report["passed"] = bool(max(conj_resid.values()) < tol
                            and max(relations.values()) < 10 * tol)
    return report

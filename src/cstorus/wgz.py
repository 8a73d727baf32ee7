"""Weil-Gel'fand-Zak transform on the coroot lattice, line-bundle
multipliers, and the pre-quantum operators acting on sampled function
families tensored with the finite quotient.

Sampling convention: all grids are uniform in coroot-basis coordinates with
step 1/N, N a multiple of the denominators appearing in the dual-lattice
basis, so every dual-lattice shift theta + lambda lands exactly on a grid
point and the theta-integrals reduce to aliasing-free periodic trapezoid
sums.  Box radii are specified in units of the k-scaled orthonormal frame.

Because the shifts are grid-aligned, the lattice sum of the forward transform
is a discrete Zak (polyphase) transform: one fold of the shifted samples onto
residues mod N followed by one n-dimensional fftn.  The finite index gamma
enters only as a frequency shift, so it is applied as a modulation before the
fold, and every gamma shares that one fftn.  The inverse is its adjoint: one
ifftn, read off once per gamma-hat at a shifted frequency.

Everything that depends on the grid alone is planned once and cached on the
GridSpec, each table sized by what it holds: the S lattice shifts, gamma + nu
with gamma in Z and nu in [-M, M)^n; the half-angle phase over C = N^n cell
pairs as the window of one (2N - 1)^n chirp and a C-entry cell factor; per
theta1 offset, the (C, S) box gather index of the shifts kept, sorted by
residue mod N so that the fold is one reduceat, and their gamma modulation;
the read-off of every family entry from the inverse, after its alias check,
by row blocks of whole leading-axis slices of at most 2^16 entries; and the
gather index and phase of each section operator.  A forward call folds a
gathered, modulated C x S block into its C x C result and applies fftn and
the phase in place there; an inverse call takes one row block at a time:
the samples times the conjugate phase, one ifftn, and the block's read-off.
quasi_periodicity_residual builds one translate at a time.  So a transform
holds its input, its output, O(C S) and O((2N)^n + 2^16) scratch, and a
round trip two sections.  A grid is charged to the resource model (errors)
before any array of it is built, and a round trip its trials.

Z, its numerators and the integer kG all come from one QuotientGroup, the
quadratic module of kG (lattice): on a grid it is spec.quotient(), built
once and cached, and a family or section carries it as `quotient`, whose
Gram matrix must be the grid's.  Row g of a family is the point of dense
index g.  F_Z and the Gauss factor G_Z are Z's character and Gauss phase,
as in finrep, and the cell volume sqrt|Z| / N^n and the alias period
(N^2 / D) kinv come from its order and integer inverse.  The section
operators take their phase from multiplier_eval, the one line-bundle
multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, SchemaError, require
from .finrep import _ONE_THREAD_MADDS, _product
from .heatkernel import _bilinear_phase
from .lattice import QuotientGroup, quotient_group
from .roots import RootSystem


def multiplier_eval(rs: RootSystem, k: int, lam1, lam2, theta1, theta2):
    """Multiplier e_lambda(A) of the level-k line bundle over the torus pair.

    Returns (-1)^(<lam1,lam2>_k) * exp(-pi*i*(<theta1,lam2>_k - <lam1,theta2>_k))
    with the parity exponent computed exactly.  lam1, lam2, theta1 and theta2
    may be arrays of shape (..., n) that broadcast against each other; the
    result then has their broadcast shape without the last axis.
    """
    l1f, l2f = np.asarray(lam1, dtype=float), np.asarray(lam2, dtype=float)
    if not (np.all(l1f % 1 == 0) and np.all(l2f % 1 == 0)):
        raise DomainError("multiplier lattice vectors must be integral coroot vectors")
    kg = k * np.array(rs.gram1, dtype=np.int64)
    l1, l2 = l1f.astype(np.int64), l2f.astype(np.int64)
    sign = 1 - 2 * ((l1 @ kg * l2).sum(axis=-1) % 2)
    # kg is symmetric, so <lam1, theta2>_k = theta2 . (lam1 kg); the phase is
    # one exp over theta1 times one exp over theta2, multiplied on broadcast
    e1 = np.exp(-1j * math.pi * (np.asarray(theta1, dtype=float) * (l2 @ kg)).sum(axis=-1))
    e2 = np.exp(1j * math.pi * (np.asarray(theta2, dtype=float) * (l1 @ kg)).sum(axis=-1))
    return sign * e1 * e2


@dataclass(frozen=True)
class GridSpec:
    """Shared geometry for box grids and fundamental-domain grids.

    Grid points have coroot coordinates m/N; the box covers m in
    [-M*N, M*N]^n inclusive, the fundamental domain F_Lambda covers
    m in [0, N)^n.
    """
    rs: RootSystem
    k: int
    divisions: int          # N, points per unit coroot cell and axis
    half_width: int         # M, unit cells on each side of the box
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.divisions < 2 or self.half_width < 1:
            raise SchemaError("grid needs divisions >= 2 and half_width >= 1")
        d = self.quotient().denom
        if self.divisions % d:
            raise SchemaError(
                f"divisions {self.divisions} must be a multiple of {d} so that "
                "dual-lattice shifts are grid-aligned")

    def quotient(self) -> QuotientGroup:
        """Z of (rs, k) (lattice.quotient_group), cached."""
        if "quotient" not in self._cache:
            self._cache["quotient"] = quotient_group(self.rs, self.k)
        return self._cache["quotient"]

    @property
    def n(self) -> int:
        return self.rs.rank

    @property
    def box_points_per_axis(self) -> int:
        return 2 * self.half_width * self.divisions + 1

    def box_coords(self) -> np.ndarray:
        """Integer grid coordinates (units of 1/N) of the box, shape (B^n, n)."""
        if "box" not in self._cache:
            mn = self.half_width * self.divisions
            self._cache["box"] = _mesh([np.arange(-mn, mn + 1)] * self.n)
        return self._cache["box"]

    def cell_coords(self) -> np.ndarray:
        """Integer grid coordinates of F_Lambda, shape (N^n, n)."""
        if "cell" not in self._cache:
            self._cache["cell"] = _mesh([np.arange(self.divisions)] * self.n)
        return self._cache["cell"]

    def box_flat_index(self, coords: np.ndarray) -> np.ndarray:
        """Flat box index of integer coordinates; raises if out of the box."""
        mn = self.half_width * self.divisions
        shifted = coords + mn
        b = self.box_points_per_axis
        if np.any(shifted < 0) or np.any(shifted >= b):
            raise DomainError("grid coordinates outside the sampling box")
        return _ravel(shifted, (b,) * self.n)

    def cell_volume(self) -> float:
        """dvol_k of one grid cell, sqrt(det kG) / N^n with det kG = |Z|."""
        return math.sqrt(self.quotient().order) / self.divisions ** self.n

    def lattice_shifts(self) -> np.ndarray:
        """Integer grid coordinates lam*N, shape (S, n), of the dual-lattice
        vectors whose F_Lambda translate lies entirely inside the box, in
        order of max-norm, then lexicographic: gamma + nu with gamma a point
        of Z in [0, 1)^n and nu in [-M, M)^n, the only nu that can fit."""
        if "shifts" not in self._cache:
            nn, mn, z = self.divisions, self.half_width * self.divisions, self.quotient()
            nu = _mesh([np.arange(-self.half_width, self.half_width)] * self.n)
            lam_n = (z.numerators[:, None] * (nn // z.denom) + nu * nn).reshape(-1, self.n)
            shifts = lam_n[np.all((lam_n >= -mn) & (lam_n + nn - 1 <= mn), axis=1)]
            order = np.lexsort(tuple(shifts.T[::-1]) + (np.abs(shifts).max(axis=1),))
            self._cache["shifts"] = shifts[order]
        return self._cache["shifts"]


def _mesh(axes) -> np.ndarray:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _ravel(coords: np.ndarray, grid: Tuple[int, ...]) -> np.ndarray:
    """Row-major flat index of integer coordinates (..., n) in the grid."""
    return np.ravel_multi_index(tuple(np.moveaxis(coords, -1, 0)), grid)


def _require_grid(spec: GridSpec) -> None:
    """Charge a grid: four N^(2n) sections (two held, one written, and FFT
    scratch or a freed one that glibc keeps below its 32 MiB mmap threshold)
    and five |Z| B^n families, above the O(|Z| (2M)^n + (2N)^n) shifts and chirp."""
    require(f"{spec.rs.lie_type} k={spec.k} grid with N={spec.divisions}, M={spec.half_width}",
            sections=64 * spec.divisions ** (2 * spec.n),
            families=80 * spec.quotient().order * spec.box_points_per_axis ** spec.n)


def grid_spec_from_box(rs: RootSystem, k: int, resolution: int,
                       box_radius: float) -> GridSpec:
    """Pick (divisions, half_width) so the coroot box contains the centered
    orthonormal-frame box of the given radius and shifts stay grid-aligned.
    N is the first multiple of D from the resolution up whose cofactor N / D
    is 7-smooth, so that the N-point FFTs are fast, and that passes the
    alias check.  A resolution below 1 raises SchemaError; each candidate
    grid is charged (_require_grid) before it is tested."""
    if resolution < 1:
        raise SchemaError(f"resolution must be a positive integer, got {resolution}")
    z = quotient_group(rs, k)
    cofactor = -(-resolution // z.denom)    # N = D cofactor, the least N >= resolution
    c = np.linalg.cholesky(z.kg)
    # coroot coords of an orthonormal-frame point y: c = C^{-T} y
    cinv_t = np.linalg.inv(c.T)
    reach = np.abs(cinv_t).sum(axis=1).max() * box_radius
    # capped: a wider box is far over the budget whatever N is
    half_width = math.ceil(min(reach, 2.0 ** 64))
    while True:
        spec = GridSpec(rs=rs, k=k, divisions=cofactor * z.denom, half_width=half_width,
                        _cache={"quotient": z})
        _require_grid(spec)     # every candidate, so no search runs past the budget
        # 7-smooth: each prime exponent is below bit_length, so it divides 210^bit_length
        if pow(210, cofactor.bit_length(), cofactor) == 0 and alias_margin(spec) > 0:
            return spec
        cofactor += 1


@dataclass
class GridFunctionFamily:
    """Sampled family (f_gamma) over the quotient group on a shared box grid."""
    spec: GridSpec
    quotient: QuotientGroup
    values: np.ndarray   # complex, shape (|Z|, B^n)

    def __post_init__(self):
        _check_quotient(self.spec, self.quotient)
        self.values = np.asarray(self.values, dtype=complex)
        expected = (self.quotient.order, self.spec.box_points_per_axis ** self.spec.n)
        if self.values.shape != expected:
            raise SchemaError(
                f"grid family shape {self.values.shape} does not match {expected}")

    def boundary_decay(self) -> float:
        """Sup of |f| on the 2n faces of the box (Schwartz-truncation sanity)."""
        cube = self.values.reshape((-1,) + (self.spec.box_points_per_axis,) * self.spec.n)
        return float(max(np.abs(cube.take((0, -1), axis=a)).max() for a in range(1, cube.ndim)))


def gaussian_family(spec: GridSpec, quotient: QuotientGroup) -> GridFunctionFamily:
    """Standard Gaussian e^{-pi <theta,theta>_k} on finite index 0, zero elsewhere."""
    coords = spec.box_coords() / spec.divisions
    vals = np.zeros((quotient.order, len(coords)), dtype=complex)
    vals[0] = np.exp(-math.pi * np.einsum("pi,ij,pj->p", coords, quotient.kg, coords))
    return GridFunctionFamily(spec, quotient, vals)


def random_gaussian_poly_family(spec: GridSpec, quotient: QuotientGroup,
                                rng: np.random.Generator) -> GridFunctionFamily:
    """Random cubic-polynomial-times-Gaussian family, one profile per index,
    from one draw; summed a degree at a time, so two family arrays at most."""
    n, kg, degree = spec.n, quotient.kg, 3
    coords = spec.box_coords() / spec.divisions
    env = np.exp(-math.pi * np.einsum("pi,ij,pj->p", coords, kg, coords))
    # per index and degree: re c, im c, re a, im a of the term (theta.c)^d a
    z = rng.standard_normal((quotient.order, degree + 1, 2 * n + 2))
    c = z[..., :n] + 1j * z[..., n:2 * n]
    a = z[..., 2 * n] + 1j * z[..., 2 * n + 1]
    vals = np.zeros((quotient.order, len(coords)), dtype=complex)
    term = np.empty_like(vals)
    for d in range(degree + 1):
        np.einsum("zi,pi->zp", c[:, d], coords, out=term)
        term **= d
        term *= a[:, d, None]
        vals += term
    vals *= env
    return GridFunctionFamily(spec, quotient, vals)


@dataclass
class SectionSamples:
    """Samples of a quasi-periodic section on F_Lambda x F_Lambda."""
    spec: GridSpec
    quotient: QuotientGroup
    values: np.ndarray        # complex, shape (N^n, N^n)

    def __post_init__(self):
        _check_quotient(self.spec, self.quotient)
        m = self.spec.divisions ** self.spec.n
        if self.values.shape != (m, m):
            raise SchemaError(
                f"section shape {self.values.shape} does not match ({m}, {m})")


def _check_quotient(spec: GridSpec, quotient: QuotientGroup) -> None:
    if quotient is not spec.quotient() and not np.array_equal(quotient.kg, spec.quotient().kg):
        raise SchemaError(
            f"quotient of Gram matrix {quotient.kg.tolist()} does not match the Gram "
            f"matrix {spec.quotient().kg.tolist()} of the grid's {spec.rs.lie_type} k={spec.k}")


@dataclass(frozen=True)
class _ForwardPlan:
    """Index tables of the forward transform at one theta1 offset."""
    gather: np.ndarray      # (C, S) flat box index of theta1 + lambda
    modulation: np.ndarray  # (|Z|, S) e^{-2 pi i <gamma, lambda>_k} / sqrt|Z|
    residues: np.ndarray    # (U,) distinct flat residues x mod N, increasing
    starts: np.ndarray      # (U,) first shift of each residue


def _forward_plan(spec: GridSpec, off1: np.ndarray) -> _ForwardPlan:
    """The forward plan at theta1 = cell + N off1, built once per (grid,
    off1).  A shift is kept when its whole translate lies inside the box;
    the kept shifts are sorted by residue x = kG lambda mod N (stably, so
    each residue's terms are summed in max-norm order), and the fold is one
    reduceat over the runs, also where residues collide."""
    key = ("forward", tuple(int(v) for v in off1))
    if key not in spec._cache:
        nn, mn = spec.divisions, spec.half_width * spec.divisions
        t1 = spec.cell_coords() + off1 * nn
        shifts = spec.lattice_shifts()                  # (S, n), lambda*N
        inside = np.all((shifts + t1.min(axis=0) >= -mn)
                        & (shifts + t1.max(axis=0) <= mn), axis=1)
        shifts = shifts[inside]
        z = spec.quotient()
        x = shifts @ z.kg // nn                         # (S, n), x = kG lambda
        residue = _ravel(x % nn, (nn,) * spec.n)
        order = np.argsort(residue, kind="stable")
        shifts, x, residue = shifts[order], x[order], residue[order]
        starts = np.flatnonzero(np.diff(residue, prepend=-1))
        spec._cache[key] = _ForwardPlan(
            gather=spec.box_flat_index(t1[:, None, :] + shifts[None, :, :]),
            # Z's character at the numerators D lambda = kinv x of the shifts
            modulation=z.character(z.numerators, x @ z.kinv.T, -1) / math.sqrt(z.order),
            residues=residue[starts], starts=starts)
    return spec._cache[key]


def _forward_values(f: GridFunctionFamily, off1: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """The transform series evaluated at (theta1 + off1, theta2 + off2) for
    theta1, theta2 on the F_Lambda grid; offsets are integer coroot vectors.

    A dual-lattice shift has grid coordinates lambda*N = N (kG)^{-1} x with x
    integral, so its phase exp(-2 pi i x.(theta2 + gamma) / N) depends on
    x mod N only.  The gamma part is a modulation of the shifted samples, so
    the lambda- and gamma-sums are one fold of the modulated f(theta1 + lambda)
    onto the residues x mod N, then one n-dimensional DFT whose frequency
    theta2 mod N is the cell index itself.  At a nonzero offset, shifts
    whose translate leaves the box are dropped (their contribution is bounded
    by the boundary decay of f); at offset 0 every shift of lattice_shifts
    is kept.
    """
    spec, quotient = f.spec, f.quotient
    n, nn = spec.n, spec.divisions
    plan = _forward_plan(spec, off1)
    cell = spec.cell_coords()                       # (C, n) in units 1/N
    kg = quotient.kg
    shifted = f.values[0].take(plan.gather)
    shifted *= plan.modulation[0]
    part = np.empty_like(shifted)
    for g in range(1, quotient.order):  # one gather at a time: O(C S) memory
        np.take(f.values[g], plan.gather, out=part)
        part *= plan.modulation[g]
        shifted += part
    # e^{-pi i <t1, t2>_k} at t = cell + N off: c(p + q) e(p) e(q) and the offsets'
    # modulations; the row factor commutes with the column DFT, so it goes on the fold
    window, _, e = _half_angle_phase(spec)
    row = e * np.exp(-1j * math.pi * (cell @ kg @ off2) / nn) if off2.any() else e
    col = (e * np.exp(-1j * math.pi * ((cell @ kg @ off1) / nn + off1 @ kg @ off2))
           if off1.any() else e)
    folded = np.add.reduceat(shifted, plan.starts, axis=1)
    folded *= row[:, None]
    out = np.zeros((len(cell),) * 2, dtype=complex)
    out[:, plan.residues] = folded
    grid = out.reshape((-1,) + (nn,) * n)
    np.fft.fftn(grid, axes=range(1, n + 1), out=grid)
    by_pair = out.reshape((nn,) * (2 * n))          # (p, q) as their 2n digits
    step = max(1, _ONE_THREAD_MADDS * nn // len(cell) ** 2)    # slices of <= 2^16 entries
    for a in range(0, nn, step):    # both factors on a block while it is in cache
        by_pair[a:a + step] *= window[a:a + step]
        by_pair[a:a + step] *= col.reshape((nn,) * n)
    return out


def _half_angle_phase(spec: GridSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^{-pi i <p, q>_k / N^2} over cell pairs (p, q) is c(p + q) e(p) e(q),
    as 2<p, q>_k = <p+q, p+q>_k - <p, p>_k - <q, q>_k, with the chirp
    c(m) = e^{-pi i <m, m>_k / 2N^2} on m in [0, 2N - 1)^n and e = conj c on
    the cells.  Cached: the windows of c and conj c, (N,)^(2n) over (p, q),
    and e, (C,).  Each c(m) is (-i)^t times one exp of an angle of at most
    pi / 4, from the exact integer <m, m>_k = N^2 t + r, |r| <= N^2 / 2."""
    if "half_angle" not in spec._cache:
        n, nn, nsq = spec.n, spec.divisions, spec.divisions ** 2
        m = _mesh([np.arange(2 * nn - 1)] * n)
        turns, r = np.divmod(np.einsum("pi,pi->p", m @ spec.quotient().kg, m) + nsq // 2, nsq)
        chirp = (np.array([1, -1j, -1, 1j])[turns % 4]
                 * np.exp(-0.5j * math.pi / nsq * (r - nsq // 2))).reshape((2 * nn - 1,) * n)
        spec._cache["half_angle"] = (sliding_window_view(chirp, (nn,) * n),
                                     sliding_window_view(chirp.conj(), (nn,) * n),
                                     chirp[(slice(nn),) * n].conj().reshape(-1))
    return spec._cache["half_angle"]


def wgz_forward(f: GridFunctionFamily) -> SectionSamples:
    """Transform a function family into section samples on F_Lambda^2."""
    zero = np.zeros(f.spec.n, dtype=int)
    return SectionSamples(f.spec, f.quotient, _forward_values(f, zero, zero))


def alias_margin(spec: GridSpec) -> int:
    """Sampling-theorem slack of the inverse transform, in grid units.

    The periodic trapezoid sum in wgz_inverse identifies frequencies that
    differ by a vector of N^2 * (k gram1)^{-1} Z^n; reconstruction is exact
    only when the shortest such vector (max-norm, grid units) exceeds the
    box diameter 2*M*N.  Returns shortest - diameter (positive = safe), with
    N^2 (kG)^{-1} = (N^2 / D) kinv integral and x != 0 in {-2..2}^n.
    """
    n, nn, z = spec.n, spec.divisions, spec.quotient()
    x = _mesh([np.arange(-2, 3)] * n)
    images = x[x.any(axis=1)] @ z.kinv.T * (nn * nn // z.denom)
    return int(np.abs(images).max(axis=1).min()) - 2 * spec.half_width * nn


@dataclass(frozen=True)
class _InversePlan:
    """Row blocks of the inverse and the family entries each one feeds."""
    rows: int            # C x C rows per block: whole leading-axis slices
    bounds: np.ndarray   # (blocks + 1,) runs of `order` read from each block
    order: np.ndarray    # (|Z| B^n,) flat family entries, by block and offset
    offset: np.ndarray   # (|Z| B^n,) flat offset in its block of each entry


def _inverse_plan(spec: GridSpec) -> _InversePlan:
    """The read-off of every box point m = p + ghat + N nu from the C x C
    inverse DFT, at row p and frequency (y + kG nu) mod N with y = kG ghat,
    grouped by blocks of whole leading-axis slices of at most
    _ONE_THREAD_MADDS entries (one slice when a slice alone is larger).
    Built once per grid, after the alias check, which raises DomainError on
    a grid too coarse for alias-free inversion."""
    if "inverse" not in spec._cache:
        margin = alias_margin(spec)
        if margin <= 0:
            raise DomainError(
                "grid too coarse for alias-free inversion; increase divisions "
                f"(alias margin {margin} grid units)")
        n, nn, z = spec.n, spec.divisions, spec.quotient()
        kg, gam = z.kg, z.numerators * (nn // z.denom)   # gamma in units 1/N
        mn = spec.half_width * nn
        # per axis a, m_a = box_a - ghat_a = p_a + N nu_a, shape (|Z|, n, B);
        # each digit of the index is a sum of per-axis parts broadcast over
        # the box, so no (|Z|, B^n, n) array is formed
        m = np.arange(-mn, mn + 1) - gam[:, :, None]
        p, nu = m % nn, m // nn
        y = gam @ kg // nn

        def on_axis(part, a):
            return part.reshape((len(gam),) + (1,) * a + (-1,) + (1,) * (n - 1 - a))

        index = sum(on_axis(p[:, a], a) * nn ** (2 * n - 1 - a) for a in range(n))
        for b in range(n):
            freq = sum(on_axis(nu[:, a] * kg[a, b], a) for a in range(n))
            freq += y[:, b].reshape((-1,) + (1,) * n)
            index = index + freq % nn * nn ** (n - 1 - b)
        index = index.reshape(-1)
        cells = nn ** n
        slices = max(1, _ONE_THREAD_MADDS // (cells * cells // nn))
        rows = slices * (cells // nn)
        order = np.argsort(index, kind="stable")
        index = index[order]
        bounds = np.searchsorted(index, np.arange(0, cells + rows, rows) * cells)
        spec._cache["inverse"] = _InversePlan(rows=rows, bounds=bounds, order=order,
                                              offset=index % (rows * cells))
    return spec._cache["inverse"]


def _inverse_readoff(s: SectionSamples) -> np.ndarray:
    """The inverse before F_Z, shape (|Z|, B^n): one row block at a time,
    the samples times conj c(p + q) and c(q), one ifftn over q, and the
    read-off entries times c(p), which commutes with it, into the family."""
    spec = s.spec
    n, nn = spec.n, spec.divisions
    cells = nn ** n
    plan = _inverse_plan(spec)
    _, conj_window, e = _half_angle_phase(spec)
    c = e.conj()
    buf = np.empty(plan.rows * cells, dtype=complex)
    fam = np.empty(s.quotient.order * spec.box_points_per_axis ** n, dtype=complex)
    slab = cells // nn                      # rows of one leading-axis slice
    for b, lo in enumerate(range(0, cells, plan.rows)):
        hi = min(lo + plan.rows, cells)
        block = buf[:(hi - lo) * cells].reshape((-1,) + (nn,) * (2 * n - 1))
        np.multiply(conj_window[lo // slab:hi // slab], s.values[lo:hi].reshape(block.shape),
                    out=block)
        block *= c.reshape((nn,) * n)
        grid = block.reshape((-1,) + (nn,) * n)
        np.fft.ifftn(grid, axes=range(1, n + 1), out=grid)
        at = plan.offset[plan.bounds[b]:plan.bounds[b + 1]]
        fam[plan.order[plan.bounds[b]:plan.bounds[b + 1]]] = buf[at] * c[lo + at // cells]
    return fam.reshape(s.quotient.order, -1)


def wgz_inverse(s: SectionSamples) -> GridFunctionFamily:
    """Invert section samples back to a function family on the box grid.

    Requires an alias-free grid (alias_margin(spec) > 0); otherwise the
    periodic quadrature folds distant box points onto each other.
    """
    # Half-angle Fourier sum back to the box point m = p + ghat + N nu:
    #   mean_q s[p, q] e^{-pi i <p, q>_k} e^{2 pi i <m, q>_k}
    #   = mean_q s[p, q] e^{pi i <p, q>_k} e^{2 pi i (y + kG nu).q / N},
    # with y = kG ghat integral: one inverse DFT over q serves every ghat,
    # read off at (y + kG nu) mod N.  This is the adjoint of the forward.
    # The read-off's block scratch is freed before F_Z allocates its output.
    return apply_finite_fourier(GridFunctionFamily(s.spec, s.quotient, _inverse_readoff(s)))


_VDOT_CHUNK = 8192


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.vdot(a, b) summed over chunks of _VDOT_CHUNK entries, which zdotc
    runs on the calling thread; it wakes the OpenBLAS pool above ~12 000."""
    a, b = a.reshape(-1), b.reshape(-1)
    return sum((complex(np.vdot(a[i:i + _VDOT_CHUNK], b[i:i + _VDOT_CHUNK]))
                for i in range(0, a.size, _VDOT_CHUNK)), 0j)


def inner_family(f: GridFunctionFamily, g: GridFunctionFamily) -> complex:
    """<f, g> = sum_gamma int f conj(g) dvol_k by the box trapezoid rule."""
    return _vdot(g.values, f.values) * f.spec.cell_volume()


def inner_section(s1: SectionSamples, s2: SectionSamples) -> complex:
    """(1/Vol Lambda) double integral over F_Lambda^2 with dvol_k."""
    spec = s1.spec
    return _vdot(s2.values, s1.values) * spec.cell_volume() / spec.divisions ** spec.n


def quasi_periodicity_residual(f: GridFunctionFamily, s: SectionSamples) -> float:
    """Sup residual of s(A + lambda) = e_lambda(A) s(A) over coroot translations."""
    spec = f.spec
    rs, k, nn = spec.rs, spec.k, spec.divisions
    eye, zero = np.eye(spec.n, dtype=int), np.zeros(spec.n, dtype=int)
    translations = [(e, zero) for e in eye] + [(zero, e) for e in eye] + [(eye[0], eye[-1])]
    cell = spec.cell_coords() / nn
    rows = max(1, _ONE_THREAD_MADDS // len(cell))
    worst = 0.0
    for mu1, mu2 in translations:
        if np.abs(mu1).max() >= spec.half_width:
            continue
        # one translate at a time (freed before the next one is built),
        # compared with e_lambda s a row block at a time
        lhs = _forward_values(f, np.asarray(mu1), np.asarray(mu2))
        for lo in range(0, len(cell), rows):
            diff = multiplier_eval(rs, k, mu1, mu2, cell[lo:lo + rows, None], cell[None, :])
            diff *= s.values[lo:lo + rows]
            np.subtract(lhs[lo:lo + rows], diff, out=diff)
            worst = max(worst, float(np.abs(diff).max()))
        del lhs
    return worst


def apply_finite_fourier(f: GridFunctionFamily, inverse: bool = False
                         ) -> GridFunctionFamily:
    """F_Z (or its inverse) acting on the finite index of a family: the
    kernel e^{+-2 pi i <a, b>_k} / sqrt|Z|, from Z's character."""
    z = f.quotient
    mat = z.character(z.numerators, z.numerators, -1 if inverse else 1) / math.sqrt(z.order)
    return GridFunctionFamily(f.spec, z, _product(mat, f.values))


def prequantum_T(f: GridFunctionFamily) -> GridFunctionFamily:
    """T-hat = G_Z (Z's Gauss phase e^{2 pi i q(gamma)}) composed with
    G_E^{-1} (pointwise e^{-pi i <theta, theta>_k})."""
    spec, z = f.spec, f.quotient
    box = spec.box_coords()
    qbox = np.einsum("pi,ij,pj->p", box, z.kg, box) / spec.divisions ** 2
    out = f.values * np.exp(-1j * math.pi * qbox)[None, :]
    out *= z.gauss(z.numerators)[:, None]
    return GridFunctionFamily(spec, z, out)


def prequantum_S(f: GridFunctionFamily) -> GridFunctionFamily:
    """S-hat = F_Z^{-1} composed with the continuous Fourier transform F_E.

    F_E, the kernel e^{2 pi i <theta, theta'>_k} dvol_k summed over the box,
    is one n-d chirp convolution per f_gamma in turn (_bilinear_phase); accuracy
    is limited by the sampling resolution and the decay of f at the boundary.
    """
    spec, quotient = f.spec, f.quotient
    box = (spec.box_points_per_axis,) * spec.n
    axis = np.linspace(-spec.half_width, spec.half_width, box[0])
    op = _bilinear_phase(2 * math.pi * quotient.kg, [axis] * spec.n,
                         d_in=spec.cell_volume())
    vals = np.empty_like(f.values)
    for out, row in zip(vals, f.values):
        out[:] = op(row.reshape(box)).reshape(-1)
    return apply_finite_fourier(GridFunctionFamily(spec, quotient, vals), inverse=True)


def weyl_action(f: GridFunctionFamily, w) -> GridFunctionFamily:
    """The action f(theta, gamma) -> f(w theta, w gamma) on sampled data;
    DomainError unless w maps the cube box onto itself (a signed permutation)."""
    spec, quotient = f.spec, f.quotient
    box = spec.box_coords()
    wmat = np.asarray(w.matrix, dtype=int)
    try:
        idx = spec.box_flat_index(box @ wmat.T)
    except DomainError:
        raise DomainError(f"this w of {spec.rs.lie_type} moves the cube sampling box; "
                          "the box is W-invariant only in rank one") from None
    perm = quotient.index_of(quotient.numerators @ wmat.T)
    return GridFunctionFamily(spec, quotient, f.values[perm][:, idx])


def _section_plan(spec: GridSpec, name: str):
    """Flat gather index into the C x C samples and phase of section_S or
    section_T, cached per grid.  Both read psi(a, b) with a a cell and b a
    grid point; b = c + N mu with c its cell, and quasi-periodicity gives
    psi(a, b) = e_{(0, mu)}(a, c) psi(a, c) = e^{-pi i <a, mu>_k} psi(a, c)."""
    key = "section_" + name
    if key not in spec._cache:
        nn, cell = spec.divisions, spec.cell_coords()
        rows = np.arange(len(cell))
        if name == "S":     # psi(theta2, -theta1)
            a = np.broadcast_to(rows[None, :], (len(cell),) * 2)
            b = np.broadcast_to(-cell[:, None, :], a.shape + (spec.n,))
        else:               # psi(theta1, theta1 + theta2)
            a = np.broadcast_to(rows[:, None], (len(cell),) * 2)
            b = cell[:, None, :] + cell[None, :, :]
        c = b % nn
        mu = (b - c) // nn
        gather = a * len(cell) + _ravel(c, (nn,) * spec.n)
        spec._cache[key] = gather, multiplier_eval(spec.rs, spec.k, np.zeros(spec.n), mu,
                                                   cell[a] / nn, c / nn)
    return spec._cache[key]


def _apply_section(s: SectionSamples, name: str) -> SectionSamples:
    gather, phase = _section_plan(s.spec, name)
    out = s.values.take(gather)
    out *= phase
    return SectionSamples(s.spec, s.quotient, out)


def section_S(s: SectionSamples) -> SectionSamples:
    """S-tilde: psi(theta1, theta2) -> psi(theta2, -theta1), folded to F_Lambda."""
    return _apply_section(s, "S")


def section_T(s: SectionSamples) -> SectionSamples:
    """T-tilde: psi(theta1, theta2) -> psi(theta1, theta1 + theta2), folded."""
    return _apply_section(s, "T")


def roundtrip_report(rs: RootSystem, k: int, resolution: int, box_radius: float,
                     trials: int = 20, seed: int = 0) -> dict:
    """Round-trip, Parseval and worst-family boundary decay on random inputs,
    JSON-ready; Parseval pairs consecutive families, so trials >= 2."""
    if trials < 2:
        raise SchemaError(f"trials must be an integer >= 2, got {trials}")
    if seed < 0:
        raise SchemaError(f"seed must be a non-negative integer, got {seed}")
    spec = grid_spec_from_box(rs, k, resolution, box_radius)
    quotient = spec.quotient()
    # a trial: tens of ns per section sample and family value
    require(f"{rs.lie_type} k={k} round trip", roundtrip_ops=trials * (
        spec.divisions ** (2 * spec.n) + quotient.order * spec.box_points_per_axis ** spec.n))
    rng = np.random.default_rng(seed)
    worst_rt = worst_parseval = decay = 0.0
    # one family and section at a time: quasi-periodicity on the first as
    # soon as it is built, Parseval against the previous one
    for i in range(trials):
        f = (gaussian_family(spec, quotient) if i == 0
             else random_gaussian_poly_family(spec, quotient, rng))
        s = wgz_forward(f)
        back = wgz_inverse(s)
        scale = max(float(np.abs(f.values).max()), 1e-30)
        worst_rt = max(worst_rt,
                       float(np.abs(back.values - f.values).max()) / scale)
        if i == 0:
            qp = quasi_periodicity_residual(f, s)
        else:
            lhs = inner_section(prev[1], s)
            rhs = inner_family(prev[0], f)
            worst_parseval = max(worst_parseval, abs(lhs - rhs) / max(abs(rhs), 1e-30))
        decay = max(decay, f.boundary_decay())
        prev = f, s
    return {
        "type": str(rs.lie_type),
        "level": k,
        "divisions": spec.divisions,
        "half_width": spec.half_width,
        "box_radius": box_radius,
        "trials": trials,
        "roundtrip_residual": worst_rt,
        "parseval_relative_error": worst_parseval,
        "quasi_periodicity_residual": qp,
        "boundary_decay": decay,
    }

"""Finite-dimensional sector of the genus-one mapping class group action:
the sector S and T matrices, assembled from Weyl orbits on the quotient
group, and SL(2,Z) relation checks.

Phase bookkeeping is exact: every phase exponent is an integer numerator
over a fixed denominator, reduced as an integer and evaluated once.  S and T
read the character and Gauss phase of the quadratic module Z that the Weyl
orbits carry (lattice), so they are the Weil representation of Z that wgz
applies, restricted to the W-invariants or W-anti-invariants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SchemaError, checks_below, require, within_bounds
from .lattice import alcove_count, fraction_strings, orbit_terms, weyl_orbits
from .roots import RootSystem


def unit_phase(num: int, den: int) -> complex:
    """exp(2 pi i num / den) for ints num, den > 0; int / int is correctly
    rounded, so every spelling of one rational gives the same phase."""
    return cmath.exp(2j * math.pi * (num % den / den))


# the exponents of j and omega are int numerators over this denominator
PHASE_DENOM = 24


@dataclass(frozen=True)
class PhasePair:
    j: complex
    omega: complex
    j_exponent: int           # j = exp(2 pi i j_exponent / PHASE_DENOM)
    omega_exponent: int       # omega = exp(2 pi i omega_exponent / PHASE_DENOM)


def phase_constants(rs: RootSystem) -> PhasePair:
    """The specific constants j = i^{-|pos roots|} and omega, whose exponent
    <rho, rho>_1 / (2 h) of a full turn is dim g / 24 by the strange formula
    of Freudenthal and de Vries, <rho, rho>_1 = h dim g / 12, with
    dim g = n + 2 |pos roots|.  So the cubic constraint omega^3 = i^{n/2} j^{-1}
    holds by construction: 3 dim g / 24 = n / 8 + |pos roots| / 4."""
    jq = -6 * rs.num_positive
    oq = rs.rank + 2 * rs.num_positive
    return PhasePair(j=unit_phase(jq, PHASE_DENOM), omega=unit_phase(oq, PHASE_DENOM),
                     j_exponent=jq, omega_exponent=oq)


@dataclass(frozen=True)
class Convention:
    """Which sector carries det(w) in S, and the sign of the T exponent.

    The default has det(w) in the anti-invariant sector and the positive
    T exponent; the alternates exist as negative controls.
    """
    det_in_invariant: bool = False
    t_sign: int = 1

    @staticmethod
    def from_name(name: str) -> "Convention":
        if name == "lemma":
            return Convention(det_in_invariant=False, t_sign=1)
        if name == "theorem":
            return Convention(det_in_invariant=True, t_sign=-1)
        raise SchemaError(f"unknown convention {name!r}; expected 'lemma' or 'theorem'")


@dataclass
class SectorMatrices:
    rs: RootSystem
    k: int
    sector: int
    convention: Convention
    labels: np.ndarray      # (dim, n) int numerators over denom of the alcove points
    denom: int              # the exponent D of Z
    s: np.ndarray
    t: np.ndarray           # (dim,) the diagonal of T

    @property
    def dim(self) -> int:
        return len(self.labels)

    def to_json_dict(self) -> dict:
        """The `rep build` payload; S and the diagonal T stay complex arrays,
        which the CLI's artifact writer renders as (rows of) [re, im] pairs."""
        return {
            "type": str(self.rs.lie_type),
            "level": self.k,
            "sector": self.sector,
            "convention": {"det_in_invariant": self.convention.det_in_invariant,
                           "t_sign": self.convention.t_sign},
            "labels": fraction_strings(self.labels, self.denom),
            "S": self.s,
            "T": self.t,
        }


def sector_dimension(rs: RootSystem, k: int, sector: int) -> int:
    """The sector's dimension by the alcove count, once Z's orbits, which bound k, are charged."""
    if sector not in (0, 1):
        raise SchemaError(f"sector must be 0 or 1, got {sector}")
    require(f"{rs.lie_type}, k={k}", **orbit_terms(rs, k))
    return alcove_count(rs, k - sector * rs.dual_coxeter)


def rep_matrices(rs: RootSystem, k: int, sector: int,
                 convention: Convention = Convention()) -> SectorMatrices:
    """Sector S and T matrices from the Weyl orbits on the quotient Z.

    S is the finite factor of the inverse discrete Fourier operator, so its
    kernel is exp(-2 pi i <w a, b>_k). The sum over W is |Stab_a| times the
    sum over the orbit O_a, with det(w) signs where the convention asks for
    them; a sign-carrying orbit whose stabilizer holds an odd element sums
    to zero. T is held as its diagonal, omega^{-1} exp(pi i <a,a>_k) under
    the default convention. Both read Z's phases: its character, a D-th
    root of unity per pair, and its Gauss phase.  Charged before Z is built:
    the orbits, and 80 bytes a sector entry: S and verify_sl2z's 3 products
    (64), or compare_shifted's S, oracle S, sorted copy and residual (72).
    """
    dim = sector_dimension(rs, k, sector)
    require(f"{rs.lie_type}, k={k}", **orbit_terms(rs, k), sector_matrices=80 * dim * dim)
    phases = phase_constants(rs)
    orbits = weyl_orbits(rs, k)
    z = orbits.quotient
    idx = np.flatnonzero(orbits.interior) if sector else np.arange(len(orbits.pairings))
    use_det = convention.det_in_invariant == (sector == 0)
    points = orbits.numerators[idx]
    members = orbits.members()
    s = np.zeros((len(idx), len(idx)), dtype=complex)
    for r, a in enumerate(idx):
        if use_det and orbits.odd_stabilizer[a]:
            continue
        m = members[a]
        phase = z.character(z.numerators[m], points, -1)
        s[r] = (orbits.sign[m] @ phase) if use_det else phase.sum(axis=0)
    # |Stab_a| over the sqrt(|Stab_a| |Stab_b|) basis norms is sqrt(|O_b| / |O_a|)
    root = np.sqrt([len(members[a]) for a in idx])
    s *= np.outer(1 / root, root) * (unit_phase(-phases.j_exponent, PHASE_DENOM)
                                     / math.sqrt(z.order))

    gauss = z.gauss(points)
    t = ((gauss if convention.t_sign > 0 else gauss.conj())
         * unit_phase(-phases.omega_exponent, PHASE_DENOM))

    return SectorMatrices(rs=rs, k=k, sector=sector, convention=convention,
                          labels=points, denom=z.denom, s=s, t=t)


@dataclass
class SL2ZReport:
    dim: int
    tol: float
    residual_s4: float
    residual_braid: float       # (ST)^3 - S^2
    residual_s_unitary: float
    residual_t_unitary: float

    @property
    def checks(self) -> list:
        return checks_below(self.tol, residual_S4=self.residual_s4,
                            residual_braid=self.residual_braid,
                            residual_S_unitary=self.residual_s_unitary,
                            residual_T_unitary=self.residual_t_unitary)

    @property
    def passed(self) -> bool:
        return within_bounds(self.checks)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "tol": self.tol,
            "residual_S4": self.residual_s4,
            "residual_braid": self.residual_braid,
            "residual_S_unitary": self.residual_s_unitary,
            "residual_T_unitary": self.residual_t_unitary,
            "passed": self.passed,
        }


def _maxabs(m: np.ndarray, minus_identity: bool = False) -> float:
    if minus_identity:      # in place, on a product that nothing else holds
        m.flat[::len(m) + 1] -= 1
    return float(np.max(np.abs(m))) if m.size else 0.0


# OpenBLAS runs a zgemm of fewer multiply-adds than this on the calling
# thread, and wakes its thread pool for a larger one (numpy 2.4's OpenBLAS
# 0.3.31: 40^3 stays on the caller, 41^3 wakes the pool)
_ONE_THREAD_MADDS = 2 ** 16


def _blocks(size: int, step: int) -> Iterator[int]:
    """Starts of blocks of `step` covering range(size); the last block is
    shifted back to full size (it recomputes a few entries of the one before)."""
    return (min(i, size - step) for i in range(0, size, step))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, in blocks that OpenBLAS runs on the calling thread.

    Formed whole when it is under _ONE_THREAD_MADDS, or when one row of it
    alone is over it (n k > 2^16: dim > 256 for square operands), where the
    pool pays for itself. Otherwise every block has fewer multiply-adds and
    at least 2 rows and 2 columns, since numpy hands a single row or column
    to zgemv, which wakes the pool from 4096 entries: row blocks up to
    dim 181, and 2-row blocks split by columns above.
    """
    m, k = a.shape
    n = b.shape[1]
    if m * n * k < _ONE_THREAD_MADDS or n * k > _ONE_THREAD_MADDS:
        return a @ b
    cols = min(n, (_ONE_THREAD_MADDS - 1) // (2 * k))
    rows = min(m, (_ONE_THREAD_MADDS - 1) // (cols * k))
    out = np.empty((m, n), dtype=np.result_type(a, b))
    for i in _blocks(m, rows):
        for j in _blocks(n, cols):
            np.matmul(a[i:i + rows], b[:, j:j + cols], out=out[i:i + rows, j:j + cols])
    return out


def verify_sl2z(m: SectorMatrices, tol: float = 1e-10) -> SL2ZReport:
    """Max-norm residuals of S^4 = Id, (ST)^3 = S^2 and unitarity.

    Every product runs on the calling thread up to dim 256 (`_product`).
    (ST)^3 is formed before S^2, and ST dropped, so at most S and three
    other dim x dim arrays are held at once.
    A zero-dimensional sector passes vacuously.
    """
    s, t = m.s, m.t
    st = s * t      # T is its diagonal t, so ST scales the columns of S
    braid = _product(_product(st, st), st)
    del st
    s2 = _product(s, s)
    braid -= s2
    residual_braid = _maxabs(braid)
    del braid
    return SL2ZReport(
        dim=m.dim,
        tol=tol,
        residual_s4=_maxabs(_product(s2, s2), minus_identity=True),
        residual_braid=residual_braid,
        residual_s_unitary=_maxabs(_product(s.conj().T, s), minus_identity=True),
        residual_t_unitary=_maxabs(t.conj() * t - 1),
    )

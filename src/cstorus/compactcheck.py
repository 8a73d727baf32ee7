"""Bridge to compact Chern-Simons modular data: for every type the
anti-invariant sector at shifted level k + h, with rho-shifted weight labels,
reproduces the affine-Lie-algebra (Kac-Peterson) S and T matrices up to one
global phase per generator (Kac, Infinite-Dimensional Lie Algebras, ch. 13).

The oracle is a direct Kac-Peterson character sum, normalized to unitarity
with a positive identity row, with exact T phases: int numerators over one
denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, checks_below, within_bounds
from .finrep import Convention, rep_matrices, unit_phase
from .lattice import _alcove_pairings, check_level, fraction_strings, rho_shifted
from .roots import RootSystem


@dataclass
class CompactModularData:
    """Modular S and T matrices of a compact theory at level k, with labels
    the rho-shifted dominant weights (coroot-basis coordinates)."""
    k: int
    labels: np.ndarray      # (dim, n) int numerators over denom
    denom: int
    s: np.ndarray
    t: np.ndarray           # (dim,) the diagonal of T

    @property
    def dim(self) -> int:
        return len(self.labels)


def _rho_order(nums: np.ndarray) -> list:
    """Row order of int numerators over one denominator D > 0 by pairing with
    rho (the coordinate sum, so the numerator sum), then lexicographically."""
    return sorted(range(len(nums)), key=lambda i: (int(nums[i].sum()), nums[i].tolist()))


def _integrable_shifted_weights(rs: RootSystem, k: int) -> Tuple[np.ndarray, int]:
    """rho-shifted dominant weights of level <= k, as int numerators over D
    (`rho_shifted`), in `_rho_order`."""
    nums, d = rho_shifted(rs, _alcove_pairings(rs, k))
    return nums[_rho_order(nums)], d


def kac_peterson_sum(rs: RootSystem, k: int) -> CompactModularData:
    """Kac-Peterson character sum, for every type:
    S_{mu nu} proportional to sum_w det(w) e^{-2 pi i <w mu, nu>_1/(k+h)},
    with <,>_1 the form of gram1 (long roots of length^2 2) and h the dual
    Coxeter number, normalized to unitarity with a positive identity row;
    T is assembled from the exact conformal weights.

    The labels are integer numerators over their common denominator den, so
    each pairing <w mu, nu>_1 is an integer numerator over den^2; it is
    reduced mod den^2 (k+h) before the phase is evaluated, one Weyl element
    at a time (peak memory dim^2, not |W| dim^2)."""
    check_level(k)
    h = rs.dual_coxeter
    kk = k + h
    shifted, d = _integrable_shifted_weights(rs, k)
    # over the least common denominator den of the labels
    common = math.gcd(d, *shifted.ravel().tolist())
    den, nums = d // common, shifted // common
    gram = np.array(rs.gram1, dtype=np.int64)
    wg = rs.weyl_group().elements
    wmats = np.array([w.matrix for w in wg], dtype=np.int64)
    # (w mu_a)^T G nu_b = mu_a^T (w^T G nu_b): the right factor of every w at once
    right = np.einsum("wji,jk,bk->wib", wmats, gram, nums)
    modulus = den * den * kk
    roots = np.exp(2j * math.pi * np.arange(modulus) / modulus)
    raw = np.zeros((len(nums), len(nums)), dtype=complex)
    for w, r in zip(wg, right):
        raw += w.determinant * roots[-(nums @ r) % modulus]
    # normalize: raw is a phase times a unitary matrix times any row's norm
    raw /= np.linalg.norm(raw[0]) * raw[0, 0] / abs(raw[0, 0])
    # <mu, mu>_1 / 2(k+h) - <rho, rho>_1 / 2h, with <mu, mu>_1 over den^2 and
    # <rho, rho>_1 the coordinate sum of rho over d; rho is the first label
    rho_num = int(shifted[0].sum()) * kk * den * den
    t_den = 2 * kk * h * d * den * den
    t = np.array([unit_phase(int(mu @ gram @ mu) * h * d - rho_num, t_den) for mu in nums])
    return CompactModularData(k=k, labels=nums, denom=den, s=raw, t=t)


def _fit_phase(a: np.ndarray, b: np.ndarray) -> complex:
    """Global phase minimizing ||phase * a - b|| in least squares."""
    z = np.vdot(a, b)
    if abs(z) == 0:
        return 1.0 + 0j
    return z / abs(z)


def _snap_fourth_root(phase: complex) -> complex:
    roots = [1, 1j, -1, -1j]
    return min(roots, key=lambda r: abs(r - phase))


def compare_shifted(rs: RootSystem, k: int,
                    convention: Convention = Convention()) -> dict:
    """Compare the anti-invariant sector matrices at level k + h against the
    compact oracle at level k, after sorting both label sets by pairing with
    rho; S may differ by one global 4th root of unity, T must match exactly."""
    check_level(k)
    h = rs.dual_coxeter
    # charged first: its 80 dim^2 bytes also hold the oracle's S, a sorted copy and a residual
    sect = rep_matrices(rs, k + h, sector=1, convention=convention)
    oracle = kac_peterson_sum(rs, k)
    if sect.dim != oracle.dim:
        raise DomainError(
            f"dimension mismatch: sector 1 at level {k + h} has dim {sect.dim}, "
            f"oracle has dim {oracle.dim}")
    order = _rho_order(sect.labels)
    s_ours = sect.s[np.ix_(order, order)]
    t_ours = sect.t[order]
    fitted_s = _fit_phase(s_ours, oracle.s)
    snapped_s = _snap_fourth_root(fitted_s)
    fitted_t = _fit_phase(t_ours, oracle.t)
    resid_s = float(np.max(np.abs(snapped_s * s_ours - oracle.s)))
    resid_t = float(np.max(np.abs(t_ours - oracle.t)))
    report = {
        "type": str(rs.lie_type),
        "k": k,
        "shifted_level": k + h,
        "dim": sect.dim,
        "convention": {"det_in_invariant": convention.det_in_invariant,
                       "t_sign": convention.t_sign},
        "labels_sector": fraction_strings(sect.labels[order], sect.denom),
        "labels_oracle": fraction_strings(oracle.labels, oracle.denom),
        "fitted_S_phase": [fitted_s.real, fitted_s.imag],
        "snapped_S_phase": [snapped_s.real, snapped_s.imag],
        "fitted_T_phase": [fitted_t.real, fitted_t.imag],
        "residual_S": resid_s,
        "residual_T": resid_t,
        "snap_error": float(abs(fitted_s - snapped_s)),
    }
    report["passed"] = within_bounds(bridge_checks(report))
    return report


def bridge_checks(report: dict) -> list:
    """Both residuals of a compare_shifted report at the bridge's tolerance."""
    return checks_below(1e-10, residual_S=report["residual_S"], residual_T=report["residual_T"])

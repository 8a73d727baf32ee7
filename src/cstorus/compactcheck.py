"""Bridge to compact Chern-Simons modular data: for simply laced types the
anti-invariant sector at shifted level k + h, with rho-shifted weight labels,
reproduces the affine-Lie-algebra (Kac-Peterson) S and T matrices up to one
global phase per generator.

Two independent oracles are provided: the SU(2) closed form and a direct
Kac-Peterson character sum; both are normalized to unitarity with a positive
identity row and carry exact T phases, int numerators over one denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, SchemaError, checks_below, require, within_bounds
from .finrep import Convention, rep_matrices, sector_dimension, unit_phase
from .lattice import _alcove_pairings, fraction_strings, rho_shifted
from .roots import RootSystem


@dataclass
class CompactModularData:
    """Modular S and T matrices of a compact theory at level k, with labels
    the rho-shifted dominant weights (coroot-basis coordinates)."""
    k: int
    labels: np.ndarray      # (dim, n) int numerators over denom
    denom: int
    s: np.ndarray
    t: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.labels)


def su2_modular_data(k: int) -> CompactModularData:
    """SU(2) level-k data: S_ab = sqrt(2/(k+2)) sin(pi a b/(k+2)) and
    T_aa = e^{-pi i/4} e^{pi i a^2/(2(k+2))} for shifted labels a = 1..k+1."""
    if k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k}")
    kk = k + 2
    a = np.arange(1, k + 2)
    s = np.sqrt(2.0 / kk) * np.sin(math.pi * np.outer(a, a) / kk)
    # a^2 / 4(k+2) - 1/8 = (2 a^2 - (k+2)) / 8(k+2)
    t = np.diag([unit_phase(2 * x * x - kk, 8 * kk) for x in a.tolist()])
    return CompactModularData(k=k, labels=a[:, None], denom=2, s=s, t=t)


def is_simply_laced(rs: RootSystem) -> bool:
    return all(rs.cartan[i][j] == rs.cartan[j][i]
               for i in range(rs.rank) for j in range(rs.rank))


def _rho_order(nums: np.ndarray) -> list:
    """Row order of int numerators over one denominator D > 0 by pairing with
    rho (the coordinate sum, so the numerator sum), then lexicographically."""
    return sorted(range(len(nums)), key=lambda i: (int(nums[i].sum()), nums[i].tolist()))


def _integrable_shifted_weights(rs: RootSystem, k: int) -> Tuple[np.ndarray, int]:
    """rho-shifted dominant weights of level <= k, as int numerators over D
    (`rho_shifted`), in `_rho_order`."""
    nums, d = rho_shifted(rs, _alcove_pairings(rs, k))
    return nums[_rho_order(nums)], d


def _check_bridge_domain(rs: RootSystem, k: int) -> None:
    """The compact oracles exist for simply laced types at positive level;
    their size is charged by the sector at level k + h (its Weyl orbits and
    dense matrices) and by the Weyl group closure of the Kac-Peterson sum."""
    if not is_simply_laced(rs):
        raise DomainError(f"{rs.lie_type} is not simply laced; no compact bridge is asserted")
    if k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k}")


def kac_peterson_sum(rs: RootSystem, k: int) -> CompactModularData:
    """Kac-Peterson character sum for simply laced types:
    S_{mu nu} proportional to sum_w det(w) e^{-2 pi i <w mu, nu>_1/(k+h)},
    normalized to unitarity with a positive identity row; T is assembled
    from the exact conformal weights.

    The labels are integer numerators over their common denominator den, so
    each pairing <w mu, nu>_1 is an integer numerator over den^2; it is
    reduced mod den^2 (k+h) before the phase is evaluated, one Weyl element
    at a time (peak memory dim^2, not |W| dim^2)."""
    _check_bridge_domain(rs, k)
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
    # normalize: raw is a positive multiple of a unitary matrix times a phase
    scale = math.sqrt(abs((raw @ raw.conj().T)[0, 0]))
    phase = raw[0, 0] / abs(raw[0, 0])
    s = raw / (scale * phase)
    # <mu, mu>_1 / 2(k+h) - <rho, rho>_1 / 2h, with <mu, mu>_1 over den^2 and
    # <rho, rho>_1 the coordinate sum of rho over d
    rho, _ = rho_shifted(rs, [0] * rs.rank)
    rho_num = int(rho.sum()) * kk * den * den
    t_den = 2 * kk * h * d * den * den
    t = np.diag([unit_phase(int(mu @ gram @ mu) * h * d - rho_num, t_den) for mu in nums])
    return CompactModularData(k=k, labels=nums, denom=den, s=s, t=t)


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
    _check_bridge_domain(rs, k)
    h = rs.dual_coxeter
    # both S and T, their sorted copies and a residual: 116-122 bytes measured
    require(f"{rs.lie_type}, k={k + h}", sector_matrices=160 * sector_dimension(rs, k + h, 1) ** 2)
    sect = rep_matrices(rs, k + h, sector=1, convention=convention)
    oracle = su2_modular_data(k) if (rs.lie_type.family == "A" and rs.rank == 1) \
        else kac_peterson_sum(rs, k)
    if sect.dim != oracle.dim:
        raise DomainError(
            f"dimension mismatch: sector 1 at level {k + h} has dim {sect.dim}, "
            f"oracle has dim {oracle.dim}")
    order = _rho_order(sect.labels)
    s_ours = sect.s[np.ix_(order, order)]
    t_ours = sect.t[np.ix_(order, order)]
    fitted_s = _fit_phase(s_ours, oracle.s)
    snapped_s = _snap_fourth_root(fitted_s)
    fitted_t = _fit_phase(np.diag(t_ours), np.diag(oracle.t))
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

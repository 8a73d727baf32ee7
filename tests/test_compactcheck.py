"""Compact modular data oracles and the shifted-level bridge."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cstorus.compactcheck import (CompactModularData, _fit_phase, _integrable_shifted_weights,
                                  _rho_order, compare_shifted, kac_peterson_sum)
from cstorus.errors import ResourceLimitError, SchemaError
from cstorus.finrep import Convention, rep_matrices
from cstorus.lattice import _alcove_pairings, quotient_order
from cstorus.roots import LieType, build_root_system
from fraction_oracle import (fraction_rows, inverse, mat, mat_vec, pairing1, positive_roots,
                             unit_phase, weyl_apply, weyl_vector)
from test_roots import IDENTITY_TYPES


def su2_modular_data(k: int) -> CompactModularData:
    """Closed-form reference, SU(2) at level k: S_ab = sqrt(2/(k+2))
    sin(pi a b/(k+2)) and T_aa = e^{-pi i/4} e^{pi i a^2/(2(k+2))} for the
    shifted labels a = 1..k+1, held as numerators a over 2 (the labels a rho)."""
    if k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k}")
    kk = k + 2
    a = np.arange(1, k + 2)
    s = np.sqrt(2.0 / kk) * np.sin(math.pi * np.outer(a, a) / kk)
    # a^2 / 4(k+2) - 1/8 = (2 a^2 - (k+2)) / 8(k+2)
    t = np.array([unit_phase(Fraction(2 * x * x - kk, 8 * kk)) for x in a.tolist()])
    return CompactModularData(k=k, labels=a[:, None], denom=2, s=s, t=t)


def modular_relations_residual(data: CompactModularData) -> float:
    """max residual of S S^dagger = Id, (S T)^3 = S^2, S^2 = charge conj."""
    eye = np.eye(data.dim)
    s, t = data.s, np.diag(data.t)
    st = s @ t
    r1 = np.abs(s @ s.conj().T - eye).max()
    r2 = np.abs(st @ st @ st - s @ s).max()
    s2 = s @ s
    r3 = np.abs(s2 @ s2 - eye).max()
    return max(float(r1), float(r2), float(r3))


def test_su2_closed_form_values():
    d = su2_modular_data(1)
    assert d.dim == 2
    root = 1 / math.sqrt(2)
    assert np.abs(d.s - np.array([[root, root], [root, -root]])).max() < 1e-14
    # T entries e^{-pi i/4} e^{pi i a^2/6} for a = 1, 2
    assert abs(d.t[0] - np.exp(1j * math.pi * (1 / 6 - 1 / 4))) < 1e-14
    assert abs(d.t[1] - np.exp(1j * math.pi * (4 / 6 - 1 / 4))) < 1e-14
    assert d.labels.tolist() == [[1], [2]] and d.denom == 2


@pytest.mark.parametrize("k", range(1, 9))
def test_su2_modular_relations(k):
    d = su2_modular_data(k)
    assert modular_relations_residual(d) < 1e-12
    assert np.abs(d.s - d.s.T).max() < 1e-14
    assert (d.s[0] > 0).all()          # positive identity row


def test_su2_validation():
    with pytest.raises(SchemaError):
        su2_modular_data(0)


@pytest.mark.parametrize("k", range(1, 7))
def test_kac_peterson_matches_su2(k):
    rs = build_root_system(LieType("A", 1))
    kp = kac_peterson_sum(rs, k)
    su2 = su2_modular_data(k)
    assert fraction_rows(kp.labels, kp.denom) == fraction_rows(su2.labels, su2.denom)
    assert np.abs(kp.s - su2.s).max() < 1e-12
    assert np.abs(kp.t - su2.t).max() < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kac_peterson_a2_properties(k):
    rs = build_root_system(LieType("A", 2))
    d = kac_peterson_sum(rs, k)
    assert d.dim == (k + 1) * (k + 2) // 2
    assert modular_relations_residual(d) < 1e-12
    assert np.abs(d.s - d.s.T).max() < 1e-12
    assert (d.s[0].real > 0).all() and np.abs(d.s[0].imag).max() < 1e-12


def fraction_shifted_weights(rs, k):
    """Oracle: gram1^{-1} (n + 1) over the alcove pairings n, in Fractions,
    sorted by the pairing with rho = half the sum of the positive roots,
    then lexicographically."""
    ginv = inverse(mat(rs.gram1))
    rho = weyl_vector(rs)
    out = [mat_vec(ginv, tuple(Fraction(x + 1) for x in nvec)) for nvec in _alcove_pairings(rs, k)]
    out.sort(key=lambda v: (pairing1(rs, v, rho), v))
    return out


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("family,rank", IDENTITY_TYPES)
def test_integer_shifted_weights_match_fraction_oracle(family, rank, k):
    """The int numerators over D of the rho-shifted labels, in their sort
    order, are the oracle's Fraction labels in its order."""
    rs = build_root_system(LieType(family, rank))
    nums, d = _integrable_shifted_weights(rs, k)
    assert [tuple(Fraction(int(x), d) for x in mu) for mu in nums] == \
        fraction_shifted_weights(rs, k)


def fraction_kac_peterson_s(rs, k):
    """Oracle: the Kac-Peterson S sum with one exact Fraction pairing per
    (w, mu, nu), normalized like kac_peterson_sum."""
    kk = k + rs.dual_coxeter
    labels = fraction_shifted_weights(rs, k)
    raw = np.zeros((len(labels), len(labels)), dtype=complex)
    for i, mu in enumerate(labels):
        images = [(w.determinant, weyl_apply(w, mu)) for w in rs.weyl_group().elements]
        for j, nu in enumerate(labels):
            raw[i, j] = sum(det * unit_phase(-pairing1(rs, wmu, nu) / kk)
                            for det, wmu in images)
    scale = math.sqrt(abs((raw @ raw.conj().T)[0, 0]))
    return tuple(labels), raw / (scale * raw[0, 0] / abs(raw[0, 0]))


# every type of rank <= 4 but E, the non-simply-laced ones among them
ORACLE_CASES = ([("A", 1, k) for k in range(1, 7)] + [("A", 2, k) for k in (1, 2, 3)]
                + [(f, 3, k) for f in "ABCD" for k in (1, 2)]
                + [(f, 2, k) for f in "BCG" for k in (1, 2)]
                + [(f, 4, 1) for f in "ABCDF"])


@pytest.mark.parametrize("family,rank,k", ORACLE_CASES)
def test_kac_peterson_integer_sum_matches_fraction_oracle(family, rank, k):
    rs = build_root_system(LieType(family, rank))
    labels, s = fraction_kac_peterson_s(rs, k)
    d = kac_peterson_sum(rs, k)
    assert fraction_rows(d.labels, d.denom) == labels
    assert np.abs(d.s - s).max() < 1e-12


@pytest.mark.parametrize("family,rank,k", ORACLE_CASES)
def test_compact_t_phases_match_fraction_oracle(family, rank, k):
    """The integer T exponents of the Kac-Peterson oracle (and, on A1, of
    the closed form) give the phases of the exact conformal weights <mu, mu>_1 / 2(k+h) - <rho, rho>_1 / 2h, to the
    last bit."""
    rs = build_root_system(LieType(family, rank))
    h = rs.dual_coxeter
    rho = weyl_vector(rs)
    want = [unit_phase(pairing1(rs, mu, mu) / (2 * (k + h)) - pairing1(rs, rho, rho) / (2 * h))
            for mu in fraction_shifted_weights(rs, k)]
    assert kac_peterson_sum(rs, k).t.tolist() == want
    if (family, rank) == ("A", 1):
        assert su2_modular_data(k).t.tolist() == want


def test_kac_peterson_guards():
    with pytest.raises(SchemaError):
        kac_peterson_sum(build_root_system(LieType("A", 2)), 0)


@pytest.mark.parametrize("k", range(1, 7))
def test_bridge_rank_one(k):
    rs = build_root_system(LieType("A", 1))
    rep = compare_shifted(rs, k)
    assert rep["passed"], rep
    assert rep["residual_S"] < 1e-10
    assert rep["residual_T"] < 1e-10
    assert rep["snap_error"] < 1e-10
    assert rep["shifted_level"] == k + 2
    assert rep["dim"] == k + 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bridge_rank_two(k):
    rs = build_root_system(LieType("A", 2))
    rep = compare_shifted(rs, k)
    assert rep["passed"], rep
    assert rep["residual_S"] < 1e-10
    assert rep["residual_T"] < 1e-10
    # identity-phase snap: no twist is needed
    assert abs(complex(*rep["snapped_S_phase"]) - 1) < 1e-14
    assert abs(complex(*rep["fitted_T_phase"]) - 1) < 1e-10


@pytest.mark.parametrize("family,k", [(f, k) for f in "AD" for k in (1, 2)])
def test_bridge_rank_four(family, k):
    """The bridge has no rank ceiling of its own: A4 and D4 at k = 1, 2
    match the Kac-Peterson sum with the identity S and T phases."""
    rep = compare_shifted(build_root_system(LieType(family, 4)), k)
    assert rep["passed"], rep
    assert max(rep["residual_S"], rep["residual_T"]) < 1e-13
    assert rep["snapped_S_phase"] == [1, 0]
    assert abs(complex(*rep["fitted_T_phase"]) - 1) < 1e-13


BRIDGE_CASES = ([("A", 1, k) for k in range(1, 7)] + [("A", 2, k) for k in (1, 2, 3)]
                + [(f, r, k) for f, r in [("A", 3), ("A", 4), ("D", 4), ("B", 2), ("B", 3),
                                          ("C", 2), ("C", 3), ("G", 2), ("F", 4)]
                   for k in (1, 2)])


@pytest.mark.parametrize("family,rank,k", BRIDGE_CASES)
def test_identity_row_is_the_weyl_denominator(family, rank, k):
    """With no W-sum, the Weyl denominator formula gives the identity row:
    S_{0 lambda} is proportional to prod_{alpha > 0} 2 sin(pi <alpha,
    lambda>_1 / (k + h)) over the rho-shifted labels lambda = mu + rho
    (Kac, Infinite-Dimensional Lie Algebras, ch. 13).  Normalised, it is
    the Kac-Peterson row and, up to the bridge's fitted phase, the row of
    the sector at level k + h whose label is rho / (k + h)."""
    rs = build_root_system(LieType(family, rank))
    kk = k + rs.dual_coxeter
    labels = fraction_shifted_weights(rs, k)
    prod = np.array([math.prod(2 * math.sin(math.pi * float(pairing1(rs, a, lam)) / kk)
                               for a in positive_roots(rs)) for lam in labels])
    want = prod / np.linalg.norm(prod)
    kp = kac_peterson_sum(rs, k).s[0]
    assert np.abs(kp - want).max() <= 1e-12
    sect = rep_matrices(rs, kk, sector=1)
    order = _rho_order(sect.labels)
    assert [tuple(kk * x for x in v) for v in fraction_rows(sect.labels[order], sect.denom)] \
        == labels
    row = sect.s[order[0], order]
    assert np.abs(_fit_phase(row, want) * row - want).max() <= 1e-12


def rotated_sector(rs, k, convention=Convention()):
    """S and the diagonal of T of sector 1 at level k + h, rows in
    `_rho_order`, S rotated so that S_00 > 0."""
    sect = rep_matrices(rs, k + rs.dual_coxeter, sector=1, convention=convention)
    order = _rho_order(sect.labels)
    s = sect.s[np.ix_(order, order)]
    return s * (abs(s[0, 0]) / s[0, 0]), sect.t[order]


def fusion_residual(s) -> float:
    """Verlinde's N_ab^c = sum_l S_al S_bl conj(S_cl) / S_0l: the larger of
    its distance from the non-negative integers and of N_0 from the identity."""
    n = np.einsum("al,bl,cl->abc", s, s / s[0], s.conj())
    return max(float(np.abs(n - np.maximum(np.rint(n.real), 0)).max()),
               float(np.abs(n[0] - np.eye(len(s))).max()))


# the two oracles below use no W-sum; the cases are of types A, D, B, C, G and F
MODULAR_CATEGORY_CASES = [("A", 1, 3), ("A", 2, 2), ("A", 5, 1), ("D", 4, 1), ("B", 2, 2),
                          ("B", 3, 2), ("C", 3, 2), ("G", 2, 2), ("F", 4, 2), ("G", 2, 3)]


@pytest.mark.parametrize("family,rank,k", MODULAR_CATEGORY_CASES)
def test_sector_fusion_rules_are_verlinde_integers(family, rank, k):
    """Verlinde's formula on the sector at level k + h gives fusion rules:
    non-negative integers to 1e-12, N_0 the identity, and quantum dimensions
    S_0a / S_00 >= 1 (Verlinde, Nucl. Phys. B 300 (1988) 360)."""
    s, _ = rotated_sector(build_root_system(LieType(family, rank)), k)
    assert fusion_residual(s) <= 1e-12
    dims = s[0] / s[0, 0]
    assert np.abs(dims.imag).max() <= 1e-12 and (dims.real >= 1 - 1e-12).all()


@pytest.mark.parametrize("family,rank,k", MODULAR_CATEGORY_CASES)
def test_sector_gauss_sum_reads_the_central_charge(family, rank, k):
    """With the Sugawara charge c = k dim g / (k + h), the sector's T at the
    identity label is e^{-2 pi i c/24}, and the Gauss sum of the twists
    theta_a = T_aa / T_00 is sum_a d_a^2 theta_a = e^{2 pi i c/8} / S_00
    (Bakalov and Kirillov, Lectures on Tensor Categories and Modular
    Functors, ch. 3): T's normalisation against a number that no code in
    the library computes."""
    rs = build_root_system(LieType(family, rank))
    c = Fraction(k * (rs.rank + 2 * rs.num_positive), k + rs.dual_coxeter)
    s, t = rotated_sector(rs, k)
    assert abs(t[0] - unit_phase(-c / 24)) <= 1e-12
    gauss = np.sum((s[0] / s[0, 0]) ** 2 * t / t[0])
    assert abs(gauss * s[0, 0] - unit_phase(c / 8)) <= 1e-12


@pytest.mark.parametrize("family,rank,k", [("A", 2, 2), ("G", 2, 2), ("D", 4, 1)])
def test_theorem_convention_breaks_fusion_integrality(family, rank, k):
    """Negative control: the `theorem` convention's sector at level k + h
    gives no fusion rules: its N, or N_0 against the identity, is at least
    0.5 from the non-negative integers (0.72, 0.85 and 0.88)."""
    s, _ = rotated_sector(build_root_system(LieType(family, rank)), k,
                          convention=Convention.from_name("theorem"))
    assert fusion_residual(s) >= 0.5


@pytest.mark.parametrize("family,rank,order", [("A", 5, 100842), ("D", 5, 236196),
                                               ("E", 6, 14480427)])
def test_bridge_refusal_names_the_quotient_ceiling(family, rank, order):
    """Past rank 4 at k = 1 the quotient Z at level k + h sets the cost: A5
    and D5 pass, and E6's orbits on 14 480 427 points are over the byte
    budget, a one-line refusal naming the term, its size and the budget."""
    rs = build_root_system(LieType(family, rank))
    assert quotient_order(rs, 1 + rs.dual_coxeter) == order
    if family != "E":
        rep = compare_shifted(rs, 1)
        assert rep["passed"] and max(rep["residual_S"], rep["residual_T"]) < 1e-13, rep
        return
    with pytest.raises(ResourceLimitError) as err:
        compare_shifted(rs, 1)
    assert str(err.value).startswith(f"E6, k=13: weyl_orbits needs {64 * 7 * order:.3g} bytes")
    assert str(err.value).endswith("over the budget 2.01e+08 bytes")
    assert len(str(err.value).splitlines()) == 1


def test_bridge_negative_control():
    rs = build_root_system(LieType("A", 1))
    rep = compare_shifted(rs, 3, convention=Convention.from_name("theorem"))
    assert not rep["passed"]
    assert max(rep["residual_S"], rep["residual_T"]) >= 1e-2


def test_sector_dimension_matches_oracle():
    # anti-invariant sector at level k + h counts integrable weights at level k
    rs = build_root_system(LieType("A", 1))
    for k in range(1, 7):
        assert compare_shifted(rs, k)["dim"] == su2_modular_data(k).dim

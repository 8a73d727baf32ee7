"""Quotient groups, alcove enumeration and affine folding."""

from fractions import Fraction

import pytest

from cstorus import exact
from cstorus.errors import DomainError, ResourceLimitError, SchemaError
from cstorus.lattice import (alcove_points, enumerate_report, fold_to_alcove,
                             in_scaled_dual, quotient_group, scaled_dual_lattice,
                             weyl_orbits)
from cstorus.roots import LieType, build_root_system

TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]


@pytest.mark.parametrize("fam,rank", TYPES)
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_quotient_order_formula(fam, rank, k):
    rs = build_root_system(LieType(fam, rank))
    q = quotient_group(rs, k)
    expected = k ** rs.rank * exact.det(exact.mat(rs.gram1))
    assert q.order == expected


@pytest.mark.parametrize("k", range(1, 9))
def test_quotient_order_closed_forms(k):
    a1 = build_root_system(LieType("A", 1))
    a2 = build_root_system(LieType("A", 2))
    assert quotient_group(a1, k).order == 2 * k
    assert quotient_group(a2, k).order == 3 * k ** 2


@pytest.mark.parametrize("k", range(1, 13))
def test_rank_one_alcove_counts(k):
    rs = build_root_system(LieType("A", 1))
    alc = alcove_points(rs, k)
    assert len(alc.closed_points) == k + 1
    assert len(alc.open_points) == max(k - 1, 0)


@pytest.mark.parametrize("fam,rank", TYPES)
def test_reps_are_canonical_and_closed(fam, rank):
    rs = build_root_system(LieType(fam, rank))
    q = quotient_group(rs, 3)
    for r in q.reps:
        assert all(0 <= x < 1 for x in r)
        assert in_scaled_dual(rs, 3, r)
    a, b = q.reps[0], q.reps[-1]
    assert q.index_of(q.add(a, b)) is not None
    assert q.index_of(q.neg(b)) is not None


@pytest.mark.parametrize("fam,rank", TYPES)
@pytest.mark.parametrize("k", [1, 3])
def test_fold_to_alcove(fam, rank, k):
    rs = build_root_system(LieType(fam, rank))
    dual = scaled_dual_lattice(rs, k)
    closed = set(alcove_points(rs, k).closed_points)
    n = rs.rank
    shifts = [tuple(Fraction(x) for x in v)
              for v in [(2,) * n, (-1,) + (0,) * (n - 1), (0,) * (n - 1) + (-3,)]]
    for j in range(n):
        base = dual.basis_vector(j)
        for sh in shifts:
            gamma = exact.vec_add(base, sh)
            rep, w, sign, boundary = fold_to_alcove(rs, k, gamma)
            assert rep in closed
            assert sign == w.determinant
            # rep = w(gamma) modulo the coroot lattice
            assert exact.is_integral(exact.vec_sub(rep, w.apply(gamma)))
            # folding a folded point is the identity
            rep2, w2, _, _ = fold_to_alcove(rs, k, rep)
            assert rep2 == rep


def test_fold_rejects_points_outside_dual():
    rs = build_root_system(LieType("A", 1))
    with pytest.raises(DomainError):
        fold_to_alcove(rs, 2, (Fraction(1, 3),))


def test_stabilizers_and_orbit_sizes():
    rs = build_root_system(LieType("A", 1))
    alc = alcove_points(rs, 4)
    # endpoints of the rank-one alcove are fixed by the reflection
    assert alc.stabilizer_sizes[0] == 2
    assert alc.stabilizer_sizes[-1] == 2
    assert all(s == 1 for s in alc.stabilizer_sizes[1:-1])


@pytest.mark.parametrize("fam,rank,k", [("A", 1, 4), ("A", 2, 3), ("B", 2, 2),
                                        ("G", 2, 3), ("A", 3, 2), ("D", 4, 2)])
def test_weyl_orbits_match_weyl_group_scan(fam, rank, k):
    """Each orbit is the set of w(gamma) mod the coroot lattice over all of W,
    its sign is det(w), and odd_stabilizer flags exactly the points fixed on
    Z by some w with det(w) = -1."""
    rs = build_root_system(LieType(fam, rank))
    orbits = weyl_orbits(rs, k)
    q = quotient_group(rs, k)
    assert len(orbits.elements) == q.order
    d = orbits.denom
    alc = alcove_points(rs, k)
    members = orbits.members()
    for i, gamma in enumerate(alc.closed_points):
        signs = {}
        for w in rs.weyl_group().elements:
            image = exact.frac_part(w.apply(gamma))
            signs.setdefault(image, set()).add(w.determinant)
        got = {tuple(Fraction(int(x), d) for x in orbits.elements[j]): int(orbits.sign[j])
               for j in members[i]}
        assert set(got) == set(signs)
        odd = any(len(v) > 1 for v in signs.values())
        assert bool(orbits.odd_stabilizer[i]) == odd
        if not odd:
            assert all(signs[x] == {e} for x, e in got.items())
        assert alc.stabilizer_sizes[i] * len(signs) == rs.weyl_group().order


def test_weyl_orbits_quotient_ceiling():
    rs = build_root_system(LieType("A", 2))
    with pytest.raises(ResourceLimitError, match="exceeds the ceiling"):
        weyl_orbits(rs, 200)


def test_enumerate_report_shape():
    rs = build_root_system(LieType("A", 2))
    rep = enumerate_report(rs, 2)
    assert rep["order"] == 12
    assert len(rep["reps"]) == 12
    assert len(rep["alcove"]["closed"]) == 6
    assert rep["alcove"]["open"] == []


def test_invalid_level_rejected():
    rs = build_root_system(LieType("A", 1))
    with pytest.raises(SchemaError):
        quotient_group(rs, 0)
    with pytest.raises(SchemaError):
        alcove_points(rs, -1)

"""Root systems, Weyl groups and the level-1 pairing."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstorus.errors import ResourceLimitError, SchemaError
from cstorus.roots import LieType, build_root_system, generate_weyl_group, pairing, weyl_order

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]

WEYL_ORDERS = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24,
               ("B", 2): 8, ("C", 2): 8, ("G", 2): 12}
POSITIVE_COUNTS = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6,
                   ("B", 2): 4, ("C", 2): 4, ("G", 2): 6}
DUAL_COXETER = {("A", 1): 2, ("A", 2): 3, ("A", 3): 4,
                ("B", 2): 3, ("C", 2): 3, ("G", 2): 4}


@pytest.mark.parametrize("fam,rank", SMALL_TYPES)
def test_weyl_group_order(fam, rank):
    rs = build_root_system(LieType(fam, rank))
    assert rs.weyl_group().order == WEYL_ORDERS[(fam, rank)]


# every type whose Weyl group has at most 1152 elements
ENUMERABLE_TYPES = ([("A", n) for n in range(1, 6)] + [("B", n) for n in (2, 3, 4)]
                    + [("C", n) for n in (2, 3, 4)] + [("D", 3), ("D", 4), ("F", 4),
                                                       ("G", 2)])


@pytest.mark.parametrize("fam,rank", ENUMERABLE_TYPES)
def test_weyl_order_table_matches_enumeration(fam, rank):
    lt = LieType(fam, rank)
    assert weyl_order(lt) == build_root_system(lt).weyl_group().order


def test_weyl_order_table_exceptional_and_summary():
    assert [weyl_order(LieType("E", n)) for n in (6, 7, 8)] == \
        [51_840, 2_903_040, 696_729_600]
    rs = build_root_system(LieType("E", 8))
    assert rs.summary()["weyl_order"] == 696_729_600
    assert rs.summary()["positive_root_count"] == 120


@pytest.mark.parametrize("rank", [7, 8])
def test_weyl_group_past_the_ceiling_is_refused_before_enumeration(rank):
    """E7 (2 903 040) and E8 exceed the default element ceiling 100 000:
    the closed-form order refuses them at once, where enumerating up to the
    ceiling first took 12-15 s; the message names the ceiling."""
    rs = build_root_system(LieType("E", rank))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"Weyl group of E{rank} exceeds the "
                       "element ceiling 100000; raise max_elements to enumerate it"):
        rs.weyl_group()
    assert time.perf_counter() - start < 1.0


def test_weyl_group_at_the_ceiling_is_enumerated():
    rs = build_root_system(LieType("A", 3))
    assert generate_weyl_group(rs, max_elements=24).order == 24
    with pytest.raises(ResourceLimitError, match="ceiling 23;"):
        generate_weyl_group(rs, max_elements=23)


@pytest.mark.parametrize("fam,rank", SMALL_TYPES)
def test_positive_root_count(fam, rank):
    rs = build_root_system(LieType(fam, rank))
    assert rs.num_positive == POSITIVE_COUNTS[(fam, rank)]


@pytest.mark.parametrize("fam,rank", SMALL_TYPES)
def test_dual_coxeter_number(fam, rank):
    rs = build_root_system(LieType(fam, rank))
    assert rs.dual_coxeter == DUAL_COXETER[(fam, rank)]


@pytest.mark.parametrize("fam,rank", SMALL_TYPES)
def test_highest_root_is_long_and_dominant(fam, rank):
    rs = build_root_system(LieType(fam, rank))
    theta = rs.highest_root
    assert rs.pairing1(theta, theta) == 2
    for i in range(rs.rank):
        e = tuple(Fraction(int(i == j)) for j in range(rs.rank))
        assert rs.pairing1(theta, e) >= 0


def test_invalid_types_rejected():
    with pytest.raises(SchemaError):
        LieType("E", 5)
    with pytest.raises(SchemaError):
        LieType("X", 2)
    with pytest.raises(SchemaError):
        LieType("G", 3)


@pytest.mark.parametrize("fam", ["", "AB", "BC"])
def test_family_must_be_one_letter(fam):
    with pytest.raises(SchemaError):
        LieType(fam, 2)


@pytest.mark.parametrize("fam,rank", SMALL_TYPES)
def test_group_closure_and_determinants(fam, rank):
    rs = build_root_system(LieType(fam, rank))
    wg = rs.weyl_group()
    mats = {w.matrix for w in wg.elements}
    w0, w1 = wg.elements[0], wg.elements[-1]
    assert w0.compose(w1).matrix in mats
    # determinant character sums to zero on a nontrivial group
    assert sum(w.determinant for w in wg.elements) == 0
    assert all(w.determinant in (-1, 1) for w in wg.elements)


@settings(max_examples=50, deadline=None)
@given(
    ti=st.sampled_from(range(len(SMALL_TYPES))),
    data=st.data(),
)
def test_pairing_weyl_invariant(ti, data):
    fam, rank = SMALL_TYPES[ti]
    rs = build_root_system(LieType(fam, rank))
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    v = tuple(data.draw(frac) for _ in range(rank))
    u = tuple(data.draw(frac) for _ in range(rank))
    w = data.draw(st.sampled_from(rs.weyl_group().elements))
    assert rs.pairing1(w.apply(v), w.apply(u)) == rs.pairing1(v, u)


@settings(max_examples=30, deadline=None)
@given(
    ti=st.sampled_from(range(len(SMALL_TYPES))),
    k=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_scaled_pairing_is_k_times_level_one(ti, k, data):
    fam, rank = SMALL_TYPES[ti]
    rs = build_root_system(LieType(fam, rank))
    frac = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    v = tuple(data.draw(frac) for _ in range(rank))
    u = tuple(data.draw(frac) for _ in range(rank))
    assert pairing(rs, v, u, k) == k * rs.pairing1(v, u)


@pytest.mark.parametrize("fam,rank", SMALL_TYPES)
def test_simple_coroot_gram_matches_cartan_symmetrization(fam, rank):
    rs = build_root_system(LieType(fam, rank))
    n = rs.rank
    for i in range(n):
        ei = tuple(Fraction(int(i == j)) for j in range(n))
        assert rs.pairing1(ei, ei) > 0
        for j in range(n):
            ej = tuple(Fraction(int(j == m)) for m in range(n))
            assert rs.pairing1(ei, ej) == rs.gram1[i][j]

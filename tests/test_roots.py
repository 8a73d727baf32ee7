"""Root systems, Weyl groups and the level-1 pairing."""

import ast
import dataclasses
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstorus.errors import ResourceLimitError, SchemaError
from cstorus.finrep import PHASE_DENOM, phase_constants
from cstorus.lattice import quotient_group, rho_shifted
from cstorus.roots import (LieType, build_root_system, generate_weyl_group,
                           weyl_order)
from fraction_oracle import (bilinear, highest_root, pairing, pairing1, positive_roots,
                             weyl_apply, weyl_vector)

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
    """E7 (2 903 040 elements) and E8 are over the byte budget: the
    closed-form order refuses them at once, where enumerating first took
    12-15 s; the message names the term, its size and the budget."""
    rs = build_root_system(LieType("E", rank))
    start = time.perf_counter()
    size = weyl_order(rs.lie_type) * (480 + 10 * rank * rank)
    with pytest.raises(ResourceLimitError, match=f"^Weyl group of E{rank}: weyl_elements needs "
                       + re.escape(f"{size:.3g} bytes of a predicted {size:.3g}, over the budget "
                                   "2.01e+08 bytes") + "$"):
        rs.weyl_group()
    assert time.perf_counter() - start < 1.0


def test_weyl_group_at_the_ceiling_is_enumerated():
    """The closure is charged from the closed-form order: A3's 24 elements
    are enumerated, A8's 362 880 refused by their bytes before the first."""
    assert build_root_system(LieType("A", 3)).weyl_group().order == 24
    with pytest.raises(ResourceLimitError, match="^Weyl group of A8: weyl_elements needs"):
        generate_weyl_group(build_root_system(LieType("A", 8)))


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
    theta = rs.comarks
    assert theta == highest_root(rs)
    assert pairing1(rs, theta, theta) == 2
    for i in range(rs.rank):
        e = tuple(Fraction(int(i == j)) for j in range(rs.rank))
        assert pairing1(rs, theta, e) >= 0


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
    assert pairing1(rs, weyl_apply(w, v), weyl_apply(w, u)) == pairing1(rs, v, u)


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
    assert pairing(rs, v, u, k) == k * pairing1(rs, v, u) == \
        bilinear(quotient_group(rs, k).kg.tolist(), v, u)


@pytest.mark.parametrize("fam,rank", SMALL_TYPES)
def test_simple_coroot_gram_matches_cartan_symmetrization(fam, rank):
    rs = build_root_system(LieType(fam, rank))
    n = rs.rank
    for i in range(n):
        ei = tuple(Fraction(int(i == j)) for j in range(n))
        assert pairing1(rs, ei, ei) > 0
        for j in range(n):
            ej = tuple(Fraction(int(j == m)) for m in range(n))
            assert pairing1(rs, ei, ej) == rs.gram1[i][j]


# every type of the benchmark's Weyl order table, and E6-E8
IDENTITY_TYPES = ([("A", n) for n in range(1, 5)] + [("B", 2), ("B", 3), ("C", 2), ("C", 3),
                                                     ("D", 4), ("F", 4), ("G", 2)]
                  + [("E", n) for n in (6, 7, 8)])


@pytest.mark.parametrize("fam,rank", IDENTITY_TYPES)
def test_integer_root_data_match_the_fraction_oracle(fam, rank):
    """rho = gram1^{-1} 1 from the level-1 quotient is half the sum of the
    positive roots, so <rho, rho>_1 = 1^T kinv 1 / D; the comarks are the
    highest root and h = 1 + their sum = 1 + <rho, theta>_1; and the phase
    exponent of omega is <rho, rho>_1 / 2h. The oracle closes the roots
    under the simple reflections in Fractions."""
    rs = build_root_system(LieType(fam, rank))
    rho = weyl_vector(rs)
    rho2 = pairing1(rs, rho, rho)
    z = quotient_group(rs, 1)
    assert Fraction(int(z.kinv.sum()), z.denom) == rho2
    nums, d = rho_shifted(rs, [0] * rank)
    assert tuple(Fraction(int(x), d) for x in nums) == rho
    theta = highest_root(rs)
    assert rs.comarks == theta
    assert rs.dual_coxeter == 1 + sum(rs.comarks) == 1 + pairing1(rs, rho, theta)
    assert rs.num_positive == len(positive_roots(rs))
    assert Fraction(phase_constants(rs).omega_exponent, PHASE_DENOM) == rho2 / (2 * rs.dual_coxeter)


# every type of rank <= 8; not IDENTITY_TYPES, because
# test_root_data_are_integers enumerates W on those, and W(B7) is over the budget
ORACLE_TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
                + [("E", n) for n in (6, 7, 8)] + [("F", 4), ("G", 2)])


@pytest.mark.parametrize("fam,rank", ORACLE_TYPES)
def test_comark_table_matches_the_reflection_closure(fam, rank):
    """The tabulated comarks are the highest root of the Fraction closure,
    n h / 2 is its root count, and h = 1 + sum(comarks) is 1 + <rho, theta>_1
    with rho half the sum of its positive roots."""
    rs = build_root_system(LieType(fam, rank))
    pos = positive_roots(rs)
    rho = tuple(sum(r[i] for r in pos) / 2 for i in range(rank))
    assert rs.comarks == pos[-1]
    assert rs.num_positive == len(pos)
    assert rs.dual_coxeter == 1 + pairing1(rs, rho, pos[-1])


# every type up to rank 40: 161
ALL_TYPES = ([("A", n) for n in range(1, 41)]
             + [(fam, n) for fam in "BC" for n in range(2, 41)]
             + [("D", n) for n in range(3, 41)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
CLASSICAL_ROOT_COUNTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                         "C": lambda n: n * n, "D": lambda n: n * (n - 1)}


def test_highest_root_is_long_and_dominant_up_to_the_rank_ceiling():
    """For every supported type the tabulated theta is long and dominant
    (gram1 theta >= 0), and n h / 2 is the classical families' root count."""
    assert len(ALL_TYPES) == 161
    for fam, rank in ALL_TYPES:
        rs = build_root_system(LieType(fam, rank))
        gram, theta = np.array(rs.gram1), np.array(rs.comarks)
        assert len(theta) == rank and theta @ gram @ theta == 2, rs.lie_type
        assert (gram @ theta >= 0).all(), rs.lie_type
        if fam in CLASSICAL_ROOT_COUNTS:
            assert rs.num_positive == CLASSICAL_ROOT_COUNTS[fam](rank), rs.lie_type


SRC = Path(__file__).resolve().parents[1] / "src" / "cstorus"


def _leaves(x):
    if dataclasses.is_dataclass(x):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    elif isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def test_root_data_are_integers():
    """exact keeps only the integer Smith form; roots imports neither
    fractions nor a rational helper; every RootSystem field (the Weyl group
    cache included) holds ints and strings only; and no library module calls
    the rational pairing1, which lives on as a test oracle."""
    tree = ast.parse((SRC / "exact.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert defined == {"smith_normal_form"}

    removed = {"mat", "mat_mul", "mat_vec", "bilinear", "det", "inverse"}
    tree = ast.parse((SRC / "roots.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "fractions" not in modules
    assert not (names | attributes) & removed

    for fam, rank in IDENTITY_TYPES:
        rs = build_root_system(LieType(fam, rank))
        if fam != "E":      # E6 takes seconds to close
            rs.weyl_group()
        assert all(type(x) in (int, str) for x in _leaves(rs)), rs.lie_type

    for path in sorted(SRC.glob("*.py")):
        calls = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and "pairing1" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]
        assert not calls, path.name

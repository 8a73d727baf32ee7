"""Quotient groups, alcove enumeration and affine folding."""

import ast
import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from cstorus import lattice
from cstorus.errors import DomainError, ResourceLimitError, SchemaError
from cstorus.exact import smith_normal_form
from cstorus.finrep import phase_constants
from cstorus.lattice import (enumerate_report, quadratic_module, quotient_group,
                             weyl_orbits)
from cstorus.roots import LieType, WeylElement, build_root_system, simple_reflection_matrix
from cstorus.wgz import GridFunctionFamily, GridSpec, weyl_action
from fraction_oracle import (bilinear, det, fraction_rows, highest_root, inverse, mat, mat_mul,
                             mat_vec, weyl_apply)

Vec = Tuple[Fraction, ...]


# -- exact vector helpers of the oracles --

def identity(n: int) -> Tuple[Vec, ...]:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def vec_add(u, v) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def is_integral(v) -> bool:
    return all(Fraction(e).denominator == 1 for e in v)


def frac_part(v) -> Vec:
    """Componentwise reduction to [0, 1)."""
    return tuple(Fraction(e) - (Fraction(e).numerator // Fraction(e).denominator) for e in v)


# -- exact oracles: the Fraction constructions the integer quotient replaced --

@dataclass(frozen=True)
class Lattice:
    basis: Tuple[Tuple[Fraction, ...], ...]  # columns are basis vectors

    def basis_vector(self, j: int) -> Vec:
        return tuple(row[j] for row in self.basis)


def scaled_dual_lattice(rs, k: int) -> Lattice:
    """Lattice of vectors pairing integrally with the coroot lattice under
    the k-scaled inner product; basis = (k*gram1)^{-1}."""
    return Lattice(basis=inverse(mat([[k * e for e in row] for row in rs.gram1])))


def in_scaled_dual(rs, k: int, v) -> bool:
    return is_integral(mat_vec(rs.gram1, tuple(k * Fraction(x) for x in v)))


@dataclass(frozen=True)
class FractionQuotient:
    """Z as sorted exact representatives in [0,1)^n with a dict index."""
    reps: Tuple[Vec, ...]
    _index: Dict[Vec, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self._index.update({r: i for i, r in enumerate(self.reps)})

    @property
    def order(self) -> int:
        return len(self.reps)

    def index_of(self, v) -> int:
        return self._index[frac_part(tuple(Fraction(x) for x in v))]

    def add(self, a, b) -> Vec:
        return frac_part(vec_add(a, b))

    def neg(self, a) -> Vec:
        return frac_part(tuple(-Fraction(x) for x in a))


def fraction_quotient(rs, k: int) -> FractionQuotient:
    """One exact rep per Smith coordinate y: (kG)^{-1} u^{-1} y mod Z^n."""
    n = rs.rank
    d, u, _ = smith_normal_form([[k * e for e in row] for row in rs.gram1])
    u_inv = inverse(mat(u))
    assert all(e.denominator == 1 for row in u_inv for e in row)
    gens = mat_mul(scaled_dual_lattice(rs, k).basis, u_inv)
    reps = sorted(frac_part(mat_vec(gens, y))
                  for y in itertools.product(*[range(d[i][i]) for i in range(n)]))
    assert len(set(reps)) == len(reps)
    return FractionQuotient(reps=tuple(reps))


def _reflection_matrix(rs, root):
    """Reflection in a long root (its own coroot): v -> v - <root, v>_1 root."""
    n = rs.rank
    gt = mat_vec(mat(rs.gram1), root)
    return tuple(tuple(int(r == c) - int(root[r] * gt[c]) for c in range(n))
                 for r in range(n))


def fold_to_alcove(rs, k: int, gamma) -> Tuple[Vec, WeylElement, int, bool]:
    """Fold a dual-lattice vector into the closed alcove.

    Returns (rep, w, sign, boundary) with rep = w(gamma) + lattice vector,
    rep in the closed alcove, sign = det(w).
    """
    if not in_scaled_dual(rs, k, gamma):
        raise DomainError(f"{gamma} is not in the k-scaled dual lattice (k={k})")
    n = rs.rank
    # the highest root is long, so its coroot has the same coordinates; the
    # affine wall <x, theta>_1 = 1 reflects x to s_theta x + theta
    theta = tuple(int(x) for x in highest_root(rs))
    walls = [(simple_reflection_matrix(rs, i), (0,) * n) for i in range(n)]
    affine = (_reflection_matrix(rs, theta), theta)

    v = tuple(Fraction(x) for x in gamma)
    wmat = identity(n)
    sign = 1
    for _ in range(100_000):
        pair_simple = [k * sum(rs.gram1[i][j] * v[j] for j in range(n)) for i in range(n)]
        assert all(p.denominator == 1 for p in pair_simple)
        ni = [int(p) for p in pair_simple]
        height = sum(ai * x for ai, x in zip(theta, ni))
        neg = next((i for i in range(n) if ni[i] < 0), None)
        if neg is None and height <= k:
            boundary = not (all(x >= 1 for x in ni) and height <= k - 1)
            wint = tuple(tuple(int(e) for e in row) for row in wmat)
            return v, WeylElement(wint, sign), sign, boundary
        r, shift = walls[neg] if neg is not None else affine
        v = vec_add(mat_vec(r, v), shift)
        wmat = mat_mul(r, wmat)
        sign = -sign
    raise AssertionError("alcove folding did not terminate")


TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]


@pytest.mark.parametrize("fam,rank", TYPES)
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_quotient_order_formula(fam, rank, k):
    rs = build_root_system(LieType(fam, rank))
    q = quotient_group(rs, k)
    expected = k ** rs.rank * det(mat(rs.gram1))
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
    orbits = weyl_orbits(rs, k)
    assert len(orbits.numerators) == k + 1
    assert orbits.interior.sum() == max(k - 1, 0)


@pytest.mark.parametrize("fam,rank", TYPES)
def test_reps_are_canonical_and_closed(fam, rank):
    rs = build_root_system(LieType(fam, rank))
    q = fraction_quotient(rs, 3)
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
    orbits = weyl_orbits(rs, k)
    closed = set(fraction_rows(orbits.numerators, orbits.quotient.denom))
    n = rs.rank
    shifts = [tuple(Fraction(x) for x in v)
              for v in [(2,) * n, (-1,) + (0,) * (n - 1), (0,) * (n - 1) + (-3,)]]
    for j in range(n):
        base = dual.basis_vector(j)
        for sh in shifts:
            gamma = vec_add(base, sh)
            rep, w, sign, boundary = fold_to_alcove(rs, k, gamma)
            assert rep in closed
            assert sign == w.determinant
            # rep = w(gamma) modulo the coroot lattice
            assert is_integral(vec_sub(rep, weyl_apply(w, gamma)))
            # folding a folded point is the identity
            rep2, w2, _, _ = fold_to_alcove(rs, k, rep)
            assert rep2 == rep


def test_fold_rejects_points_outside_dual():
    rs = build_root_system(LieType("A", 1))
    with pytest.raises(DomainError):
        fold_to_alcove(rs, 2, (Fraction(1, 3),))


def test_stabilizers_and_orbit_sizes():
    rs = build_root_system(LieType("A", 1))
    sizes = weyl_orbits(rs, 4).stabilizer_sizes
    # endpoints of the rank-one alcove are fixed by the reflection
    assert sizes[0] == 2
    assert sizes[-1] == 2
    assert all(s == 1 for s in sizes[1:-1])


@pytest.mark.parametrize("fam,rank,k", [("A", 1, 4), ("A", 2, 3), ("B", 2, 2),
                                        ("G", 2, 3), ("A", 3, 2), ("D", 4, 2)])
def test_weyl_orbits_match_weyl_group_scan(fam, rank, k):
    """Each orbit is the set of w(gamma) mod the coroot lattice over all of W,
    its sign is det(w), and odd_stabilizer flags exactly the points fixed on
    Z by some w with det(w) = -1."""
    rs = build_root_system(LieType(fam, rank))
    orbits = weyl_orbits(rs, k)
    q = quotient_group(rs, k)
    z = orbits.quotient
    assert z.order == q.order and (z.numerators == q.numerators).all()
    d = z.denom
    members = orbits.members()
    for i, gamma in enumerate(fraction_rows(orbits.numerators, d)):
        signs = {}
        for w in rs.weyl_group().elements:
            image = frac_part(weyl_apply(w, gamma))
            signs.setdefault(image, set()).add(w.determinant)
        got = {tuple(Fraction(int(x), d) for x in z.numerators[j]): int(orbits.sign[j])
               for j in members[i]}
        assert set(got) == set(signs)
        odd = any(len(v) > 1 for v in signs.values())
        assert bool(orbits.odd_stabilizer[i]) == odd
        if not odd:
            assert all(signs[x] == {e} for x, e in got.items())
        assert orbits.stabilizer_sizes[i] * len(signs) == rs.weyl_group().order


def index_of_closure(rs, k: int):
    """The reflections and orbits as index_of reads them off whole images:
    s_i moves coroot coordinate i only, c -> c - (sum_j a_ij c_j) e_i, so
    each permutation is index_of of Z's numerators so moved, and the alcove
    front is index_of of the alcove points; then the same breadth-first
    closure with det(w) signs, odd cycles flagging odd stabilizers."""
    z = quotient_group(rs, k)
    pairings = np.array(lattice._alcove_pairings(rs, k), dtype=np.int64).reshape(-1, rs.rank)
    drop = z.numerators @ np.array(rs.cartan, dtype=np.int64).T
    perms = []
    for i in range(rs.rank):
        image = z.numerators.copy()
        image[:, i] -= drop[:, i]
        perms.append(z.index_of(image))
    orbit = np.full(z.order, -1)
    sign = np.zeros(z.order, dtype=np.int64)
    odd = np.zeros(len(pairings), dtype=bool)
    front = z.index_of(pairings @ z.kinv.T)
    orbit[front], sign[front] = np.arange(len(pairings)), 1
    while len(front):
        known = orbit >= 0
        o0, s0 = orbit[front], sign[front]
        for perm in perms:
            idx = perm[front]
            fresh = orbit[idx] < 0
            orbit[idx[fresh]], sign[idx[fresh]] = o0[fresh], -s0[fresh]
            odd[o0[sign[idx] != -s0]] = True
        front = np.flatnonzero((orbit >= 0) & ~known)
    return perms, orbit, sign, odd


@pytest.mark.parametrize("fam,rank,k", [
    ("A", 2, 5), ("B", 3, 4), ("G", 2, 6), ("D", 4, 3), ("F", 4, 2), ("E", 6, 2), ("C", 4, 3),
    ("A", 4, 10), ("C", 14, 1), ("E", 8, 3), ("A", 99, 1), ("E", 8, 1), ("A", 2, 3), ("G", 2, 3),
    ("D", 4, 2)])
def test_reflections_and_orbits_match_the_index_of_images(fam, rank, k):
    """Each simple reflection's rank-one update of the Smith index is the
    permutation index_of reads off the reflected numerators, and the orbits,
    signs and odd stabilizers closed on them are the oracle's; E8 at k = 1
    has the trivial Z, whose one divisor is 1."""
    rs = build_root_system(LieType(fam, rank))
    perms, orbit, sign, odd = index_of_closure(rs, k)
    orbits = weyl_orbits(rs, k)
    got = lattice._reflections(rs, orbits.quotient)
    assert len(got) == rank and all((g == p).all() for g, p in zip(got, perms))
    assert (orbits.orbit == orbit).all() and (orbits.sign == sign).all()
    assert (orbits.odd_stabilizer == odd).all()


def test_quotient_order_is_the_product_of_smith_divisors(monkeypatch):
    """|Z| comes from the Smith form, not from a determinant."""
    rs = build_root_system(LieType("B", 3))
    expected = 4 ** 3 * det(mat(rs.gram1))

    def refuse(*args):
        raise AssertionError("np.linalg.det called")
    monkeypatch.setattr(np.linalg, "det", refuse)
    assert quotient_group(rs, 4).order == expected


def test_weyl_orbits_quotient_ceiling():
    """|Z| = 120000 at A2 k = 200 passes; at k = 600 its orbits are over the
    byte budget, refused from the closed-form |Z| before Z is built."""
    rs = build_root_system(LieType("A", 2))
    assert weyl_orbits(rs, 200).quotient.order == 120_000
    with pytest.raises(ResourceLimitError, match=r"^A2, k=600: weyl_orbits needs 2.07e\+08 "):
        weyl_orbits(rs, 600)


ORDER_TYPES = ([(f, n) for f in "ABC" for n in range(2 if f != "A" else 1, 11)]
               + [("D", n) for n in range(3, 11)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4),
                                                      ("G", 2)])


@pytest.mark.parametrize("fam,rank", ORDER_TYPES)
def test_closed_forms_the_charges_read(fam, rank):
    """The charges read |Z| and the sector dimension without building Z:
    quotient_order, k^n times one more than the number of marks equal to 1
    times prod e_i, is the Smith form's product of divisors, and
    alcove_count is the number of alcove points listed, closed at k and
    open at k - h (none below 0)."""
    rs = build_root_system(LieType(fam, rank))
    for k in (1, 2, 3):
        d = smith_normal_form([[k * e for e in row] for row in rs.gram1])[0]
        assert lattice.quotient_order(rs, k) == math.prod(d[i][i] for i in range(rank))
    for k in range(0, 5 if rank <= 6 else 3):
        closed = lattice._alcove_pairings(rs, k)
        assert lattice.alcove_count(rs, k) == len(closed)
        assert lattice.alcove_count(rs, k - rs.dual_coxeter) == sum(
            min(p) >= 1 and sum(a * x for a, x in zip(rs.comarks, p)) <= k - 1 for p in closed)


def test_quotient_past_numpy_axis_limit():
    """Only the Smith divisors d_i > 1 are axes of the dense index, so a
    rank over numpy's 64 axes builds Z and its orbits: A99 at k = 1 is
    Z/100, with the alcove points 0 and the 99 fundamental weights."""
    rs = build_root_system(LieType("A", 99))
    orbits = weyl_orbits(rs, 1)
    z = orbits.quotient
    assert z.order == 100 and z.divisors.tolist() == [100] and z.u.shape == (1, 99)
    assert (z.index_of(z.numerators) == np.arange(100)).all()
    assert len(orbits.pairings) == 100 and orbits.stabilizer_sizes[0] == math.factorial(100)


def test_enumerate_report_shape():
    rs = build_root_system(LieType("A", 2))
    rep = enumerate_report(rs, 2)
    assert rep["order"] == 12
    assert len(rep["reps"]) == 12
    assert len(rep["alcove"]["closed"]) == 6
    assert rep["alcove"]["open"] == []


@pytest.mark.parametrize("fam,rank,k", [("A", 2, 3), ("G", 2, 2)])
def test_enumerate_report_builds_z_once(monkeypatch, fam, rank, k):
    """enumerate_report reads Z from the orbits it builds: one Smith-form
    build per report, and its reps are the lexsorted numerators of that Z."""
    built = []

    def counted(*args, **kwargs):
        built.append(quotient_group(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(lattice, "quotient_group", counted)
    rs = build_root_system(LieType(fam, rank))
    rep = enumerate_report(rs, k)
    assert len(built) == 1
    assert weyl_orbits(rs, k).quotient.numerators.tolist() == built[0].numerators.tolist()
    assert len(rep["reps"]) == rep["order"] == built[0].order


def test_invalid_level_rejected():
    rs = build_root_system(LieType("A", 1))
    with pytest.raises(SchemaError):
        quotient_group(rs, 0)
    with pytest.raises(SchemaError):
        weyl_orbits(rs, -1)


ORACLE_SWEEP = ([(f, r, k) for f, r in TYPES for k in range(1, 6)]
                + [(f, 3, k) for f in "ABC" for k in (1, 2, 3)]
                + [("D", 4, 6), ("F", 4, 3), ("E", 6, 2)])


@pytest.mark.parametrize("fam,rank,k", ORACLE_SWEEP)
def test_integer_quotient_matches_fraction_oracle(fam, rank, k):
    """The numerators over D, sorted, are the sorted exact reps, element for
    element, and index_of reads each back at its own row."""
    rs = build_root_system(LieType(fam, rank))
    q = quotient_group(rs, k)
    oracle = fraction_quotient(rs, k)
    rows = np.lexsort(q.numerators.T[::-1])
    assert [tuple(Fraction(int(x), q.denom) for x in row)
            for row in q.numerators[rows]] == list(oracle.reps)
    assert (q.index_of(q.numerators) == np.arange(q.order)).all()


@pytest.mark.parametrize("fam,rank,k", ORACLE_SWEEP)
def test_discriminant_form_matches_fraction_oracle(fam, rank, k):
    """pair and norm are D <a, b>_k mod D and D <a, a>_k mod 2D of the exact
    reps, pair is symmetric and norm = pair(a, a) mod D; pair is checked on
    a seeded sample of at most 40 x 40 points, norm on all of Z."""
    rs = build_root_system(LieType(fam, rank))
    q = quotient_group(rs, k)
    d = q.denom
    oracle = fraction_quotient(rs, k)
    # the exact rep of each row of q, matched through the oracle's own index
    reps = [oracle.reps[oracle.index_of(tuple(Fraction(int(e), d) for e in x))]
            for x in q.numerators]
    gram = mat(rs.gram1)
    rows, cols = (np.sort(np.random.default_rng(seed).permutation(q.order)[:40])
                  for seed in (k, k + 1))
    want = [[d * k * bilinear(gram, reps[a], reps[b]) % d for b in cols] for a in rows]
    x = q.numerators
    assert q.pair(x[rows], x[cols]).tolist() == want
    assert (q.pair(x[rows], x[cols]) == q.pair(x[cols], x[rows]).T).all()
    assert q.norm(x).tolist() == [d * k * bilinear(gram, a, a) % (2 * d) for a in reps]
    assert (q.norm(x[rows]) % d == np.diag(q.pair(x[rows], x[rows]))).all()


def milgram_residual(z) -> float:
    """|sum_{x in Z} e(q(x)) - sqrt|Z| e(n/8)| / sqrt|Z|, the sum taken over
    the production Gauss phase; Milgram's formula says it is 0 for an even,
    positive-definite Gram matrix of rank n (signature n)."""
    root = math.sqrt(z.order)
    return abs(z.gauss(z.numerators).sum() - root * cmath.exp(2j * math.pi * len(z.kg) / 8)) / root


MILGRAM_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
                 ("D", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]


@pytest.mark.parametrize("fam,rank", MILGRAM_TYPES)
def test_milgram_formula_on_every_level_under_the_ceiling(fam, rank):
    """Milgram's formula sum_{x in Z} e(q(x)) = sqrt|Z| e(n/8) (Milnor and
    Husemoller, Symmetric Bilinear Forms, appendix 4) holds for Z_k at every
    k <= 7 with |Z| <= 10^5 (kept small for time), and fixes omega^3 j =
    e(n/8): the i^{n/2} of the cubic constraint is read off Z itself."""
    rs = build_root_system(LieType(fam, rank))
    pp = phase_constants(rs)
    levels = [k for k in range(1, 8) if k ** rank * det(mat(rs.gram1)) <= 10 ** 5]
    assert levels
    for k in levels:
        z = quotient_group(rs, k)
        assert milgram_residual(z) <= 1e-12, (k, milgram_residual(z))
        gauss_sum = z.gauss(z.numerators).sum() / math.sqrt(z.order)
        assert abs(pp.omega ** 3 * pp.j - gauss_sum) <= 1e-13, k


@pytest.mark.parametrize("gram,order", [([[2, 1], [1, 4]], 7), ([[4, 2], [2, 6]], 20),
                                        ([[6]], 6), ([[2, 1, 0], [1, 4, 1], [0, 1, 8]], 54)])
def test_module_from_a_gram_matrix_alone(gram, order):
    """The module needs only an even Gram matrix, here none of them k gram1
    of a root system: |Z| = det, index_of reads every point back at its own
    row, Milgram's formula holds, and F = e(<a, b>) / sqrt|Z|, G = e(q)
    give the Weil representation: F^4 = Id (S^4 = -Id in odd rank) and
    (S T)^3 = S^2 with S = e(-n/8) F^{-1}, T = G."""
    z = quadratic_module(gram, f"Gram matrix {gram}")
    assert z.order == order == det(mat(gram))
    assert (z.index_of(z.numerators) == np.arange(order)).all()
    assert milgram_residual(z) <= 1e-13
    eye = np.eye(order)
    f = z.character(z.numerators, z.numerators, 1) / math.sqrt(order)
    f_inv = z.character(z.numerators, z.numerators, -1) / math.sqrt(order)
    assert np.abs(f @ f_inv - eye).max() <= 1e-13
    assert np.abs(np.linalg.matrix_power(f, 4) - eye).max() <= 1e-13
    s = cmath.exp(-2j * math.pi * len(gram) / 8) * f_inv
    t = np.diag(z.gauss(z.numerators))
    assert np.abs(np.linalg.matrix_power(s @ t, 3) - s @ s).max() <= 1e-13


def test_module_refuses_an_odd_or_singular_form_and_an_order_over_the_ceiling():
    """An odd or asymmetric Gram matrix has no quadratic form on Z and a
    singular one no finite Z; an order whose arrays are over the byte
    budget is refused, naming the label, before any array of Z."""
    for gram in ([[3]], [[2, 1], [0, 2]], [[2, 1], [1, 3]], [[2, 2], [2, 2]]):
        with pytest.raises(DomainError, match="is not symmetric, even and nonsingular"):
            quadratic_module(gram, "an odd form")
    assert quadratic_module([[200_002]], "Gram matrix [[200002]]").order == 200_002
    with pytest.raises(ResourceLimitError,
                       match=r"^Gram matrix \[\[10\*\*8\]\]: quotient needs 4e\+09 bytes "):
        quadratic_module([[10 ** 8]], "Gram matrix [[10**8]]")


@pytest.mark.parametrize("fam,rank,k", [("A", 2, 3), ("B", 2, 2), ("G", 2, 2)])
def test_weyl_action_permutes_like_the_fraction_route(monkeypatch, fam, rank, k):
    """weyl_action moves finite index g to the row of w(gamma_g) mod the coroot
    lattice, for every w of the Weyl group."""
    # the coroot-coordinate box is not W-invariant in rank 2, so the box
    # points stay put: only the finite index is under test
    monkeypatch.setattr(GridSpec, "box_flat_index", lambda self, c: np.arange(len(c)))
    rs = build_root_system(LieType(fam, rank))
    q = quotient_group(rs, k)
    oracle = fraction_quotient(rs, k)
    spec = GridSpec(rs=rs, k=k, divisions=q.denom, half_width=1)
    # row g is the constant pos[g], the oracle's index of gamma_g, so the
    # image reads off the permutation in the oracle's indices
    pos = [oracle.index_of(tuple(Fraction(int(e), q.denom) for e in x)) for x in q.numerators]
    f = GridFunctionFamily(spec, q, np.repeat(np.array(pos, dtype=complex)[:, None],
                                              spec.box_points_per_axis ** rank, axis=1))
    for w in rs.weyl_group().elements:
        perm = [oracle.index_of(weyl_apply(w, oracle.reps[p])) for p in pos]
        assert (weyl_action(f, w).values[:, 0].real == perm).all()


def test_index_of_rejects_points_outside_dual():
    q = quotient_group(build_root_system(LieType("A", 2)), 1)
    with pytest.raises(DomainError):
        q.index_of([1, 0])


@pytest.mark.parametrize("module", ["wgz", "heatkernel", "cli"])
def test_numeric_modules_import_no_exact_arithmetic(module):
    """The transform, kernel and CLI layers read Z as int arrays: neither
    `fractions` nor `cstorus.exact` is imported there."""
    path = Path(__file__).resolve().parents[1] / "src" / "cstorus" / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("cstorus." if node.level else "") + (node.module or "")
            imported.add(base.rstrip("."))
            imported.update(f"{base.rstrip('.')}.{a.name}" for a in node.names)
    assert not imported & {"fractions", "cstorus.exact"}, sorted(imported)


def test_no_module_imports_fractions():
    """No module under src/cstorus imports `fractions`: labels and phase
    exponents are int numerators from end to end, and the Fraction label
    API is gone from lattice."""
    src = Path(__file__).resolve().parents[1] / "src" / "cstorus"
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            importers += [path.stem for name in names if name.split(".")[0] == "fractions"]
    assert importers == []
    assert not {"alcove_points", "AlcoveSet", "Vec"} & set(vars(lattice))
    assert not hasattr(lattice.WeylOrbits, "labels")


def test_one_description_of_z():
    """Z has one class and one order under src/: lattice defines no second
    description of it, enumerate_report is the only place that sorts it
    lexicographically (for the reps it prints), and wgz builds no float kG of
    its own.  The one other lexsort orders the dual-lattice shifts of a grid
    by max-norm, not the points of Z.  F_Z and G_Z are defined once, as
    Z's `character` and `gauss`: finrep and wgz read neither `pair` nor
    `norm` and build no root-of-unity table (an exp of an arange or of a
    phase over `denom`) of their own."""
    src = Path(__file__).resolve().parents[1] / "src" / "cstorus"
    lattice = ast.parse((src / "lattice.py").read_text())
    defined = {node.name for node in ast.walk(lattice)
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert not defined & {"_QuotientShape", "_quotient_shape"}, sorted(defined)
    lexsorts = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                lexsorts += [(path.stem, fn.name) for node in ast.walk(fn)
                             if isinstance(node, ast.Attribute) and node.attr == "lexsort"]
    assert sorted(lexsorts) == [("lattice", "enumerate_report"), ("wgz", "lattice_shifts")]
    wgz = ast.parse((src / "wgz.py").read_text())
    named = {node.name for node in ast.walk(wgz) if isinstance(node, ast.FunctionDef)}
    named |= {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(wgz) if isinstance(node, ast.Call)}
    assert "pairing_matrix" not in named
    defined = [node.name for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)]
    assert defined.count("character") == defined.count("gauss") == 1
    for module in ("finrep", "wgz"):
        tree = ast.parse((src / f"{module}.py").read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert not {getattr(c.func, "attr", None) for c in calls} & {"pair", "norm"}, module
        for c in calls:
            if getattr(c.func, "attr", None) == "exp":
                inner = {getattr(node, "attr", getattr(node, "id", None))
                         for arg in c.args for node in ast.walk(arg)}
                assert not inner & {"arange", "denom"}, (module, ast.unparse(c))

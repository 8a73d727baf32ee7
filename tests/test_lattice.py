"""Quotient groups, alcove enumeration and affine folding."""

import ast
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from cstorus import exact, lattice
from cstorus.errors import DomainError, ResourceLimitError, SchemaError
from cstorus.lattice import alcove_points, enumerate_report, quotient_group, weyl_orbits
from cstorus.roots import LieType, WeylElement, build_root_system, simple_reflection_matrix
from cstorus.wgz import GridFunctionFamily, GridSpec, weyl_action

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
    return Lattice(basis=exact.inverse(exact.mat([[k * e for e in row] for row in rs.gram1])))


def in_scaled_dual(rs, k: int, v) -> bool:
    return is_integral(exact.mat_vec(rs.gram1, tuple(k * Fraction(x) for x in v)))


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
    d, u, _ = exact.smith_normal_form([[k * e for e in row] for row in rs.gram1])
    u_inv = exact.inverse(exact.mat(u))
    assert all(e.denominator == 1 for row in u_inv for e in row)
    gens = exact.mat_mul(scaled_dual_lattice(rs, k).basis, u_inv)
    reps = sorted(frac_part(exact.mat_vec(gens, y))
                  for y in itertools.product(*[range(d[i][i]) for i in range(n)]))
    assert len(set(reps)) == len(reps)
    return FractionQuotient(reps=tuple(reps))


def _reflection_matrix(rs, root):
    """Reflection in a long root (its own coroot): v -> v - <root, v>_1 root."""
    n = rs.rank
    gt = exact.mat_vec(exact.mat(rs.gram1), root)
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
    theta = tuple(int(x) for x in rs.highest_root)
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
        v = vec_add(exact.mat_vec(r, v), shift)
        wmat = exact.mat_mul(r, wmat)
        sign = -sign
    raise AssertionError("alcove folding did not terminate")


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
    closed = set(alcove_points(rs, k).closed_points)
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
            assert is_integral(vec_sub(rep, w.apply(gamma)))
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
    z = orbits.quotient
    assert z.order == q.order and (z.numerators == q.numerators).all()
    d = z.denom
    alc = alcove_points(rs, k)
    members = orbits.members()
    for i, gamma in enumerate(alc.closed_points):
        signs = {}
        for w in rs.weyl_group().elements:
            image = frac_part(w.apply(gamma))
            signs.setdefault(image, set()).add(w.determinant)
        got = {tuple(Fraction(int(x), d) for x in z.numerators[j]): int(orbits.sign[j])
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
    assert alcove_points(rs, k).quotient.numerators.tolist() == built[0].numerators.tolist()
    assert len(rep["reps"]) == rep["order"] == built[0].order


def test_invalid_level_rejected():
    rs = build_root_system(LieType("A", 1))
    with pytest.raises(SchemaError):
        quotient_group(rs, 0)
    with pytest.raises(SchemaError):
        alcove_points(rs, -1)


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
    gram = exact.mat(rs.gram1)
    rows, cols = (np.sort(np.random.default_rng(seed).permutation(q.order)[:40])
                  for seed in (k, k + 1))
    want = [[d * k * exact.bilinear(gram, reps[a], reps[b]) % d for b in cols] for a in rows]
    x = q.numerators
    assert q.pair(x[rows], x[cols]).tolist() == want
    assert (q.pair(x[rows], x[cols]) == q.pair(x[cols], x[rows]).T).all()
    assert q.norm(x).tolist() == [d * k * exact.bilinear(gram, a, a) % (2 * d) for a in reps]
    assert (q.norm(x[rows]) % d == np.diag(q.pair(x[rows], x[rows]))).all()


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
        perm = [oracle.index_of(w.apply(oracle.reps[p])) for p in pos]
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


def test_one_description_of_z():
    """Z has one class and one order under src/: lattice defines no second
    description of it, enumerate_report is the only place that sorts it
    lexicographically (for the reps it prints), and wgz builds no float kG of
    its own.  The one other lexsort orders the dual-lattice shifts of a grid
    by max-norm, not the points of Z."""
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

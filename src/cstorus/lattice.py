"""Coroot lattice, its k-scaled dual, the finite quotient group, alcove
point enumeration and affine-Weyl folding.

Conventions: all vectors are coroot-basis coordinates (exact rationals).
The coroot lattice is Z^n in these coordinates; canonical coset
representatives of the quotient live in the half-open cube [0,1)^n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from . import exact
from .errors import DomainError, ResourceLimitError, SchemaError
from .roots import (RootSystem, WeylElement, reflection_matrix,
                    simple_reflection_matrix, weyl_order)

Vec = Tuple[Fraction, ...]


@dataclass(frozen=True)
class Lattice:
    basis: Tuple[Tuple[Fraction, ...], ...]  # columns are basis vectors

    def basis_vector(self, j: int) -> Vec:
        return tuple(row[j] for row in self.basis)


def scaled_dual_lattice(rs: RootSystem, k: int) -> Lattice:
    """Lattice of vectors pairing integrally with the coroot lattice under
    the k-scaled inner product; basis = (k*gram1)^{-1}."""
    if k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k}")
    n = rs.rank
    kg = exact.mat([[k * rs.gram1[i][j] for j in range(n)] for i in range(n)])
    basis = exact.inverse(kg)
    # Z^n (the coroot lattice) must be a sublattice: columns of kg are the
    # coroot basis vectors in dual-basis coordinates and are integral.
    assert all(e.denominator == 1 for row in kg for e in row)
    return Lattice(basis=basis)


def in_scaled_dual(rs: RootSystem, k: int, v) -> bool:
    return exact.is_integral(exact.mat_vec(rs.gram1, tuple(k * Fraction(x) for x in v)))


@dataclass(frozen=True)
class QuotientGroup:
    rs: RootSystem
    k: int
    reps: Tuple[Vec, ...]                 # canonical reps, coords in [0,1)
    snf_invariants: Tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.reps)

    def index_of(self, v) -> int:
        return self._index()[exact.frac_part(tuple(Fraction(x) for x in v))]

    def _index(self) -> Dict[Vec, int]:
        if not hasattr(self, "_idx"):
            object.__setattr__(self, "_idx", {r: i for i, r in enumerate(self.reps)})
        return self._idx

    def add(self, a, b) -> Vec:
        return exact.frac_part(exact.vec_add(a, b))

    def neg(self, a) -> Vec:
        return exact.frac_part(tuple(-Fraction(x) for x in a))


# |Z_k| above this raises ResourceLimitError: the quotient and its Weyl
# orbits are held in memory point by point
Z_ORDER_CEILING = 100_000


def _quotient_shape(rs: RootSystem, k: int, max_order: int = Z_ORDER_CEILING):
    """k*gram1, |Z_k| = det(k*gram1) and the Smith form of k*gram1: its
    divisors d_i and the unimodular u with u (k*gram1) v = diag(d_i)."""
    if k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k}")
    n = rs.rank
    kg = [[k * rs.gram1[i][j] for j in range(n)] for i in range(n)]
    order = exact.det(exact.mat(kg))
    assert order.denominator == 1
    order = int(order)
    if order > max_order:
        raise ResourceLimitError(
            f"|Z_k| = {order} exceeds the ceiling {max_order} for {rs.lie_type}, k={k}")
    # In dual-lattice coordinates the coroot lattice is spanned by the
    # columns of k*gram1; Smith form gives the cyclic decomposition.
    d, u, _ = exact.smith_normal_form(kg)
    divisors = tuple(int(d[i][i]) for i in range(n))
    assert all(x > 0 for x in divisors)
    return kg, order, divisors, u


def quotient_group(rs: RootSystem, k: int, max_order: int = Z_ORDER_CEILING) -> QuotientGroup:
    """The finite abelian group (k-scaled dual lattice) / (coroot lattice)."""
    _, order, divisors, u = _quotient_shape(rs, k, max_order)
    u_inv = exact.inverse(exact.mat(u))
    assert all(e.denominator == 1 for row in u_inv for e in row)
    gens = exact.mat_mul(scaled_dual_lattice(rs, k).basis, u_inv)
    reps = sorted(exact.frac_part(exact.mat_vec(gens, y))
                  for y in itertools.product(*[range(di) for di in divisors]))
    assert len(set(reps)) == order == len(reps)
    invariants = tuple(x for x in divisors if x > 1)
    return QuotientGroup(rs=rs, k=k, reps=tuple(reps), snf_invariants=invariants)


@dataclass(frozen=True)
class AlcoveSet:
    rs: RootSystem
    k: int
    closed_points: Tuple[Vec, ...]
    open_points: Tuple[Vec, ...]
    stabilizer_sizes: Tuple[int, ...]     # per closed point, in W mod coroot lattice


def _comarks(rs: RootSystem) -> Tuple[int, ...]:
    """Coroot-basis coordinates of the highest root (integers)."""
    c = rs.highest_root
    assert exact.is_integral(c)
    return tuple(int(x) for x in c)


def _alcove_pairings(rs: RootSystem, k: int) -> List[Tuple[int, ...]]:
    """All n >= 0 with sum_i a_i n_i <= k, a_i the comarks, lexicographic."""
    prefixes = [((), 0)]
    for ai in _comarks(rs):
        prefixes = [(p + (x,), used + ai * x) for p, used in prefixes
                    for x in range((k - used) // ai + 1)]
    return [p for p, _ in prefixes]


@dataclass(frozen=True)
class WeylOrbits:
    """The W-orbits on Z = (kG)^{-1} Z^n / Z^n, one per closed-alcove point.

    Points are int arrays of numerators over the exponent `denom` of Z, so
    a point x pairs with the alcove point of pairings n as <x, n>_k = x.n / D.
    """
    denom: int
    pairings: np.ndarray        # (dim, n) n_i = <gamma, b_i>_k of each alcove point
    numerators: np.ndarray      # (dim, n) D * gamma, not reduced mod D
    interior: np.ndarray        # (dim,) in the open alcove
    elements: np.ndarray        # (|Z|, n) every point of Z, numerators mod D
    orbit: np.ndarray           # (|Z|,) index of the alcove point of its orbit
    sign: np.ndarray            # (|Z|,) det(w) of a w carrying that point there
    odd_stabilizer: np.ndarray  # (dim,) stabilizer holds a w with det(w) = -1
    stabilizer_sizes: Tuple[int, ...]

    def labels(self, idx) -> Tuple[Vec, ...]:
        return tuple(tuple(Fraction(int(x), self.denom) for x in self.numerators[i])
                     for i in idx)

    def members(self) -> List[np.ndarray]:
        """Indices into `elements` of each orbit, in alcove-point order."""
        sizes = np.bincount(self.orbit, minlength=len(self.pairings))
        return np.split(np.argsort(self.orbit, kind="stable"), np.cumsum(sizes)[:-1])


def weyl_orbits(rs: RootSystem, k: int) -> WeylOrbits:
    """Orbit closure of the closed-alcove points under the simple reflections
    acting on Z mod D, with det(w) signs; no Weyl group enumeration.

    The closed alcove is a fundamental domain for W on Z, so the orbits
    partition Z. An alcove point is parametrized by its integer pairings
    n_i = <gamma, b_i>_k with the simple coroots: the alcove conditions are
    n_i >= 0 and sum_i a_i n_i <= k with a_i the highest-root coordinates.
    Memory is O(|Z| n); |Z| above Z_ORDER_CEILING raises ResourceLimitError.
    """
    kg, order, divisors, u = _quotient_shape(rs, k)
    kinv = scaled_dual_lattice(rs, k).basis
    n = rs.rank
    d = math.lcm(*(e.denominator for row in kinv for e in row))

    pairings = np.array(_alcove_pairings(rs, k), dtype=np.int64).reshape(-1, n)
    interior = (pairings >= 1).all(axis=1) & (pairings @ _comarks(rs) <= k - 1)
    numerators = pairings @ np.array([[int(e * d) for e in row] for row in kinv]).T

    # dense index of a point of Z: its dual coordinates c = kG x / D, read in
    # the Smith basis u c mod (d_1, ..., d_n) and flattened
    divisors = np.array(divisors, dtype=np.int64)
    u_red = np.array(u, dtype=np.int64) % divisors[:, None]
    strides = np.cumprod(np.concatenate(([1], divisors[:0:-1])))[::-1]
    kg_t = np.array([[int(e) for e in row] for row in kg], dtype=np.int64).T

    def index(x):
        return ((x @ kg_t // d) @ u_red.T % divisors) @ strides

    dim = len(pairings)
    elements = np.zeros((order, n), dtype=np.int64)
    orbit = np.full(order, -1)
    sign = np.zeros(order, dtype=np.int64)
    odd = np.zeros(dim, dtype=bool)
    front = index(numerators % d)
    elements[front], orbit[front], sign[front] = numerators % d, np.arange(dim), 1
    # breadth-first over the Schreier graph of the simple reflections: every
    # edge is checked once, and one whose signs disagree closes an odd cycle
    gens = [np.array(simple_reflection_matrix(rs, i)) for i in range(n)]
    while len(front):
        known = orbit >= 0
        x0, o0, s0 = elements[front], orbit[front], sign[front]
        for g in gens:
            x = x0 @ g.T % d
            idx = index(x)
            fresh = orbit[idx] < 0
            elements[idx[fresh]], orbit[idx[fresh]] = x[fresh], o0[fresh]
            sign[idx[fresh]] = -s0[fresh]
            odd[o0[sign[idx] != -s0]] = True
        front = np.flatnonzero((orbit >= 0) & ~known)
    assert (orbit >= 0).all(), "alcove orbits do not cover the quotient"
    w_order = weyl_order(rs.lie_type)
    return WeylOrbits(denom=d, pairings=pairings, numerators=numerators, interior=interior,
                      elements=elements, orbit=orbit, sign=sign, odd_stabilizer=odd,
                      stabilizer_sizes=tuple(w_order // int(m) for m in
                                             np.bincount(orbit, minlength=dim)))


def alcove_points(rs: RootSystem, k: int) -> AlcoveSet:
    """Dual-lattice points in the closed/open fundamental alcove, with the
    stabilizer size |W| / |orbit| of each closed point on Z."""
    orbits = weyl_orbits(rs, k)
    return AlcoveSet(rs=rs, k=k,
                     closed_points=orbits.labels(range(len(orbits.pairings))),
                     open_points=orbits.labels(np.flatnonzero(orbits.interior)),
                     stabilizer_sizes=orbits.stabilizer_sizes)


def fold_to_alcove(rs: RootSystem, k: int, gamma) -> Tuple[Vec, WeylElement, int, bool]:
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
    affine = (reflection_matrix(rs, theta, theta), theta)

    v = tuple(Fraction(x) for x in gamma)
    wmat = exact.identity(n)
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
        v = exact.vec_add(exact.mat_vec(r, v), shift)
        wmat = exact.mat_mul(r, wmat)
        sign = -sign
    raise AssertionError("alcove folding did not terminate")


def enumerate_report(rs: RootSystem, k: int) -> dict:
    """JSON-ready report for the `lattice enumerate` CLI command."""
    q = quotient_group(rs, k)
    alc = alcove_points(rs, k)

    def coords(v):
        return [str(x) for x in v]

    return {
        "type": str(rs.lie_type),
        "level": k,
        "order": q.order,
        "invariant_factors": list(q.snf_invariants),
        "reps": [coords(r) for r in q.reps],
        "alcove": {
            "open": [coords(p) for p in alc.open_points],
            "closed": [coords(p) for p in alc.closed_points],
            "stabilizer_sizes": list(alc.stabilizer_sizes),
        },
    }

"""The finite quotient group Z = (kG)^{-1} Z^n / Z^n of the k-scaled dual
of the coroot lattice, alcove point enumeration and the Weyl orbits on Z.

Conventions: vectors are coroot-basis coordinates, and the coroot lattice is
Z^n in these coordinates.  A point gamma of the k-scaled dual lattice is held
as the int vector x = D gamma of numerators over the exponent D of Z; its
canonical coset representative is x mod D, in the half-open cube [0,1)^n.
With q(gamma) = <gamma, gamma>_k / 2 mod 1, Z is a discriminant form; its
integer `pair` and `norm` give every phase on Z in finrep and wgz, whose
finite operators are its Weil representation.  `quotient_group` is the one
object that describes Z, in the dense (Smith) order; only the `reps` that
`enumerate_report` prints are sorted lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from . import exact
from .errors import DomainError, ResourceLimitError, SchemaError
from .roots import RootSystem, simple_reflection_matrix, weyl_order

Vec = Tuple[Fraction, ...]

# |Z_k| above this raises ResourceLimitError: the quotient and its Weyl
# orbits are held in memory point by point
Z_ORDER_CEILING = 100_000


@dataclass(frozen=True, eq=False)
class QuotientGroup:
    """Z in integers, from the Smith form u (kG) v = diag(d_1, ..., d_n).

    Then (kG)^{-1} = v diag(1/d) u, so the exponent of Z is D = d_n and
    D (kG)^{-1} = v diag(D/d) u is integral.  A point x (numerators over D)
    has the dual coordinates c = kG x / D, and its class in Z is read in the
    Smith basis as u c mod (d_1, ..., d_n), flattened row-major to a dense
    index in [0, |Z|); row i of `numerators` is the point of dense index i.
    """
    rs: RootSystem
    k: int
    kg: np.ndarray          # (n, n) k * gram1
    denom: int              # D
    kinv: np.ndarray        # (n, n) D (kG)^{-1}
    divisors: np.ndarray    # (n,) d_i, each dividing the next
    u: np.ndarray           # (n, n) Smith row transform, row i reduced mod d_i
    numerators: np.ndarray  # (|Z|, n) canonical numerators in [0, D), dense order

    @property
    def order(self) -> int:
        return len(self.numerators)

    @property
    def snf_invariants(self) -> Tuple[int, ...]:
        return tuple(int(d) for d in self.divisors if d > 1)

    def index_of(self, x) -> np.ndarray:
        """Dense index of the points with numerators x, shape (..., n), any
        coset representative; DomainError off the dual lattice."""
        c = np.asarray(x, dtype=np.int64) @ self.kg
        if (c % self.denom).any():
            raise DomainError("numerators are not a point of the k-scaled dual lattice")
        y = (c // self.denom) @ self.u.T % self.divisors
        return np.ravel_multi_index(tuple(np.moveaxis(y, -1, 0)), self.divisors)

    def pair(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """D <a, b>_k mod D for numerators x (A, n), y (B, n), shape (A, B)."""
        return x @ (y @ self.kg // self.denom).T % self.denom

    def norm(self, x: np.ndarray) -> np.ndarray:
        """D <a, a>_k mod 2D = 2D q(a) for numerators x (..., n); the coroot
        lattice is even, so this is a function on Z."""
        return np.einsum("...i,...i->...", x, x @ self.kg // self.denom) % (2 * self.denom)


def quotient_group(rs: RootSystem, k: int, max_order: int = Z_ORDER_CEILING) -> QuotientGroup:
    """The finite abelian group (k-scaled dual lattice) / (coroot lattice);
    |Z_k| = det(k*gram1) above max_order raises ResourceLimitError before
    the Smith form is built."""
    if k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k}")
    kg = [[k * e for e in row] for row in rs.gram1]
    order = int(exact.det(exact.mat(kg)))
    if order > max_order:
        raise ResourceLimitError(
            f"|Z_k| = {order} exceeds the ceiling {max_order} for {rs.lie_type}, k={k}")
    # In dual-lattice coordinates the coroot lattice is spanned by the
    # columns of k*gram1; Smith form gives the cyclic decomposition.
    d, u, v = (np.array(m, dtype=np.int64) for m in exact.smith_normal_form(kg))
    divisors = np.diag(d).copy()
    denom = int(divisors[-1])
    assert divisors.min() > 0 and int(np.prod(divisors)) == order
    kinv = v @ ((denom // divisors)[:, None] * u)
    kg = np.array(kg, dtype=np.int64)
    assert (kg @ kinv == denom * np.eye(len(kg), dtype=np.int64)).all()
    # Smith coordinates y give the point v diag(1/d) y (Cohen, GTM 138, 2.4.3)
    y = np.indices(divisors).reshape(len(divisors), -1).T
    return QuotientGroup(rs=rs, k=k, kg=kg, denom=denom, kinv=kinv, divisors=divisors,
                         u=u % divisors[:, None],
                         numerators=(y * (denom // divisors)) @ v.T % denom)


@dataclass(frozen=True)
class AlcoveSet:
    quotient: QuotientGroup               # Z, of the root system and level
    closed_points: Tuple[Vec, ...]
    open_points: Tuple[Vec, ...]
    stabilizer_sizes: Tuple[int, ...]     # per closed point, in W mod coroot lattice


def _comarks(rs: RootSystem) -> Tuple[int, ...]:
    """Coroot-basis coordinates of the highest root (integers)."""
    c = tuple(int(x) for x in rs.highest_root)
    assert c == tuple(rs.highest_root)
    return c


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

    Points are int arrays of numerators over the exponent D of Z
    (`quotient`), so a point x pairs with the alcove point of pairings n as
    <x, n>_k = x.n / D.
    """
    quotient: QuotientGroup
    pairings: np.ndarray        # (dim, n) n_i = <gamma, b_i>_k of each alcove point
    numerators: np.ndarray      # (dim, n) D * gamma, not reduced mod D
    interior: np.ndarray        # (dim,) in the open alcove
    orbit: np.ndarray           # (|Z|,) per dense index, the alcove point of its orbit
    sign: np.ndarray            # (|Z|,) det(w) of a w carrying that point there
    odd_stabilizer: np.ndarray  # (dim,) stabilizer holds a w with det(w) = -1
    stabilizer_sizes: Tuple[int, ...]

    def labels(self, idx) -> Tuple[Vec, ...]:
        return tuple(tuple(Fraction(int(x), self.quotient.denom) for x in self.numerators[i])
                     for i in idx)

    def members(self) -> List[np.ndarray]:
        """Dense indices of each orbit, in alcove-point order."""
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
    z = quotient_group(rs, k)
    n = rs.rank
    pairings = np.array(_alcove_pairings(rs, k), dtype=np.int64).reshape(-1, n)
    interior = (pairings >= 1).all(axis=1) & (pairings @ _comarks(rs) <= k - 1)
    numerators = pairings @ z.kinv.T

    dim = len(pairings)
    orbit = np.full(z.order, -1)
    sign = np.zeros(z.order, dtype=np.int64)
    odd = np.zeros(dim, dtype=bool)
    front = z.index_of(numerators)
    orbit[front], sign[front] = np.arange(dim), 1
    # breadth-first over the Schreier graph of the simple reflections: every
    # edge is checked once, and one whose signs disagree closes an odd cycle
    gens = [np.array(simple_reflection_matrix(rs, i)) for i in range(n)]
    while len(front):
        known = orbit >= 0
        x0, o0, s0 = z.numerators[front], orbit[front], sign[front]
        for g in gens:
            idx = z.index_of(x0 @ g.T)
            fresh = orbit[idx] < 0
            orbit[idx[fresh]], sign[idx[fresh]] = o0[fresh], -s0[fresh]
            odd[o0[sign[idx] != -s0]] = True
        front = np.flatnonzero((orbit >= 0) & ~known)
    assert (orbit >= 0).all(), "alcove orbits do not cover the quotient"
    w_order = weyl_order(rs.lie_type)
    return WeylOrbits(quotient=z, pairings=pairings, numerators=numerators, interior=interior,
                      orbit=orbit, sign=sign, odd_stabilizer=odd,
                      stabilizer_sizes=tuple(w_order // int(m) for m in
                                             np.bincount(orbit, minlength=dim)))


def alcove_points(rs: RootSystem, k: int) -> AlcoveSet:
    """Dual-lattice points in the closed/open fundamental alcove, with the
    stabilizer size |W| / |orbit| of each closed point on Z."""
    orbits = weyl_orbits(rs, k)
    return AlcoveSet(quotient=orbits.quotient,
                     closed_points=orbits.labels(range(len(orbits.pairings))),
                     open_points=orbits.labels(np.flatnonzero(orbits.interior)),
                     stabilizer_sizes=orbits.stabilizer_sizes)


def enumerate_report(rs: RootSystem, k: int) -> dict:
    """JSON-ready report for the `lattice enumerate` CLI command."""
    alc = alcove_points(rs, k)
    q = alc.quotient

    def coords(v):
        return [str(x) for x in v]

    def fractions(x):
        return [str(Fraction(int(e), q.denom)) for e in x]

    return {
        "type": str(rs.lie_type),
        "level": k,
        "order": q.order,
        "invariant_factors": list(q.snf_invariants),
        "reps": [fractions(x) for x in q.numerators[np.lexsort(q.numerators.T[::-1])]],
        "alcove": {
            "open": [coords(p) for p in alc.open_points],
            "closed": [coords(p) for p in alc.closed_points],
            "stabilizer_sizes": list(alc.stabilizer_sizes),
        },
    }

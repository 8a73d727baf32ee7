"""The finite quadratic module Z = (kG)^{-1} Z^n / Z^n of an even Gram matrix
kG, and for kG = k gram1 the Weyl orbits on Z, closed under the simple
reflections as rank-one updates of Z's Smith index (`weyl_orbits`).

Conventions: vectors are coroot-basis coordinates, and the coroot lattice is
Z^n in these coordinates.  A point gamma of the dual lattice is held as the
int vector x = D gamma of numerators over the exponent D of Z; its canonical
coset representative is x mod D, in the half-open cube [0,1)^n.  With
q(gamma) = <gamma, gamma>_k / 2 mod 1, `quadratic_module` builds (Z, q) from
kG alone, in the dense (Smith) order, and `quotient_group(rs, k)` is it for
k gram1.  Its `character` e(-+<a, b>_k) and `gauss` phase e(q(a)) are the one
definition of F_Z and G_Z, which finrep and wgz read.  Points stay int
numerators up to the JSON artifacts (`fraction_strings`); only the `reps`
that `enumerate_report` prints are sorted lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from . import exact
from .errors import DomainError, SchemaError, require
from .roots import RootSystem, weyl_order


@dataclass(frozen=True, eq=False)
class QuotientGroup:
    """Z of kG in integers, from the Smith form u (kG) v = diag(d_1, ..., d_n).

    Then (kG)^{-1} = v diag(1/d) u, so the exponent of Z is D = d_n and
    D (kG)^{-1} = v diag(D/d) u is integral.  A point x (numerators over D)
    has the dual coordinates c = kG x / D, and its class in Z is read in the
    Smith basis as u c mod (d_1, ..., d_n), flattened row-major to a dense
    index in [0, |Z|); row i of `numerators` is the point of dense index i.
    Only the d_i > 1 (and d_n) are axes of the index: numpy takes at most 64.
    """
    kg: np.ndarray          # (n, n) the even Gram matrix
    denom: int              # D
    kinv: np.ndarray        # (n, n) D (kG)^{-1}
    divisors: np.ndarray    # (m,) the kept d_i, each dividing the next
    u: np.ndarray           # (m, n) their rows of the Smith row transform, row i mod d_i
    strides: np.ndarray     # (m,) row-major strides of the dense index over the d_i
    numerators: np.ndarray  # (|Z|, n) canonical numerators in [0, D), dense order

    @property
    def order(self) -> int:
        return len(self.numerators)

    def index_of(self, x) -> np.ndarray:
        """Dense index of the points with numerators x, shape (..., n), any
        coset representative; DomainError off the dual lattice."""
        c = np.asarray(x, dtype=np.int64) @ self.kg
        if (c % self.denom).any():
            raise DomainError("numerators are not a point of the dual lattice (kG)^{-1} Z^n")
        return (c // self.denom) @ self.u.T % self.divisors @ self.strides

    def pair(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """D <a, b>_k mod D = (kG x / D) . y mod D for numerators x (A, n), y (B, n)."""
        return (x @ self.kg // self.denom) @ y.T % self.denom

    def norm(self, x: np.ndarray) -> np.ndarray:
        """D <a, a>_k mod 2D = 2D q(a) for numerators x (..., n); kG is even,
        so this is a function on Z."""
        return np.einsum("...i,...i->...", x, x @ self.kg // self.denom) % (2 * self.denom)

    @cached_property
    def _roots(self) -> np.ndarray:
        """e(-j / D) for j in [0, D)."""
        return np.exp(-2j * math.pi * np.arange(self.denom) / self.denom)

    def character(self, x: np.ndarray, y: np.ndarray, sign: int) -> np.ndarray:
        """e(sign <a, b>_k), sign = +-1, for numerators x (A, n), y (B, n),
        shape (A, B): a D-th root of unity per entry, looked up through `pair`."""
        phase = self._roots[self.pair(x, y)]
        return phase if sign < 0 else phase.conj()

    def gauss(self, x: np.ndarray) -> np.ndarray:
        """The Gauss phase e(q(a)) = e^{pi i norm / D} for numerators x (..., n)."""
        return np.exp(1j * math.pi * self.norm(x) / self.denom)


def quadratic_module(gram, label: str) -> QuotientGroup:
    """(gram^{-1} Z^n / Z^n, q) of an (n, n) even, positive-definite integer
    matrix (DomainError unless symmetric, even and nonsingular, else Z or q
    is not defined); its Smith form (n^3 steps) and then Z's (|Z|, n) int
    arrays, |Z| = det(gram), are charged to `label` before either is built."""
    n = len(gram)
    require(label, smith_form_ops=n ** 3)
    d, u, v = exact.smith_normal_form(gram)
    order = math.prod(d[i][i] for i in range(n))
    require(label, quotient=40 * n * order)
    kg = np.array(gram, dtype=np.int64)
    if (kg != kg.T).any() or (kg.diagonal() % 2).any() or not order:
        raise DomainError(f"Gram matrix {kg.tolist()} is not symmetric, even and nonsingular")
    d, u, v = (np.array(m, dtype=np.int64) for m in (d, u, v))
    divisors = d.diagonal()
    denom = int(divisors[-1])
    kinv = v @ ((denom // divisors)[:, None] * u)
    assert (kg @ kinv == denom * np.eye(len(kg), dtype=np.int64)).all()
    # Smith coordinates y give the point v diag(1/d) y (Cohen, GTM 138, 2.4.3)
    keep = np.append(divisors[:-1] > 1, True)
    d = divisors[keep]
    y = np.indices(d).reshape(len(d), -1).T
    return QuotientGroup(kg=kg, denom=denom, kinv=kinv, divisors=d, u=u[keep] % d[:, None],
                         strides=np.cumprod(np.append(1, d[:0:-1]))[::-1],
                         numerators=(y * (denom // d)) @ v[:, keep].T % denom)


def quotient_group(rs: RootSystem, k: int) -> QuotientGroup:
    """Z_k = (k-scaled dual lattice) / (coroot lattice): the quadratic module
    of k gram1."""
    check_level(k)
    return quadratic_module([[k * e for e in row] for row in rs.gram1], f"{rs.lie_type}, k={k}")


def quotient_order(rs: RootSystem, k: int) -> int:
    """|Z_k| = k^n det(gram1) without a Smith form: gram1 = diag(e) cartan,
    and det(cartan) is 1 plus the number of marks comarks_i e_i equal to 1."""
    e = [row[i] // 2 for i, row in enumerate(rs.gram1)]
    return k ** rs.rank * math.prod(e) * (1 + sum(a * x == 1 for a, x in zip(rs.comarks, e)))


def check_level(k: int) -> None:
    if k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k}")


def orbit_terms(rs: RootSystem, k: int) -> dict:
    """weyl_orbits' charge, n + 1 permutations and (|Z|, n) int arrays, once k >= 1."""
    check_level(k)
    return {"weyl_orbits": 64 * (rs.rank + 1) * quotient_order(rs, k)}


def alcove_count(rs: RootSystem, level: int) -> int:
    """The closed-alcove points n >= 0, sum_i a_i n_i <= level, counted in
    O(n level) steps (the open alcove at k is the closed one at k - h^vee);
    callers charge orbit_terms first, which bounds the level by |Z|."""
    ways = [1] + [0] * level
    for a in rs.comarks:
        for t in range(a, level + 1):
            ways[t] += ways[t - a]
    return sum(ways) if level >= 0 else 0


def _alcove_pairings(rs: RootSystem, k: int) -> List[Tuple[int, ...]]:
    """All n >= 0 with sum_i a_i n_i <= k, a_i the comarks, lexicographic."""
    prefixes = [((), 0)]
    for ai in rs.comarks:
        prefixes = [(p + (x,), used + ai * x) for p, used in prefixes
                    for x in range((k - used) // ai + 1)]
    return [p for p, _ in prefixes]


def rho_shifted(rs: RootSystem, pairings) -> Tuple[np.ndarray, int]:
    """The weights gram1^{-1} (n + 1) for the rows n of `pairings` (integer
    pairings with the simple coroots), as int numerators over the exponent D
    of the level-1 quotient, where D gram1^{-1} is `kinv`.

    These are the weights of pairings n shifted by the Weyl vector
    rho = gram1^{-1} 1, the sum of the fundamental weights; n = 0 gives rho.
    Since gram1 rho = 1, <v, rho>_1 is the coordinate sum of v.
    """
    z = quotient_group(rs, 1)
    return (np.asarray(pairings, dtype=np.int64) + 1) @ z.kinv.T, z.denom


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

    def members(self) -> List[np.ndarray]:
        """Dense indices of each orbit, in alcove-point order."""
        sizes = np.bincount(self.orbit, minlength=len(self.pairings))
        return np.split(np.argsort(self.orbit, kind="stable"), np.cumsum(sizes)[:-1])


def _reflections(rs: RootSystem, z: QuotientGroup) -> List[np.ndarray]:
    """Each s_i as a permutation of Z's dense indices.  On dual coordinates
    m = kG x / D it is m -> m - m_i cartan[i] (Bourbaki VI 1.10): a rank-one
    update of the Smith index y = u m mod d, with m mod D linear in y."""
    y = np.indices(z.divisors).reshape(len(z.divisors), -1)
    m = z.numerators[z.strides % z.order] @ z.kg // z.denom   # m at y = e_j (row 0 if |Z| = 1)
    step = np.array(rs.cartan, dtype=np.int64) @ z.u.T % z.divisors
    return [z.strides @ ((y - (m[:, i] @ y % z.denom) * step[i, :, None]) % z.divisors[:, None])
            for i in range(rs.rank)]


def weyl_orbits(rs: RootSystem, k: int) -> WeylOrbits:
    """Orbit closure of the closed-alcove points under the simple reflections
    on Z (`_reflections`), with det(w) signs; no Weyl group enumeration.

    The closed alcove is a fundamental domain for W on Z, so the orbits
    partition Z. An alcove point is parametrized by its integer pairings
    n_i = <gamma, b_i>_k with the simple coroots: the alcove conditions are
    n_i >= 0 and sum_i a_i n_i <= k with a_i the highest-root coordinates.
    Memory is O(|Z| n), charged (orbit_terms) before Z is built.
    """
    require(f"{rs.lie_type}, k={k}", **orbit_terms(rs, k))
    z = quotient_group(rs, k)
    pairings = np.array(_alcove_pairings(rs, k), dtype=np.int64).reshape(-1, rs.rank)
    interior = (pairings >= 1).all(axis=1) & (pairings @ rs.comarks <= k - 1)
    numerators = pairings @ z.kinv.T

    dim = len(pairings)
    orbit, sign = np.full(z.order, -1), np.zeros(z.order, dtype=np.int64)
    odd = np.zeros(dim, dtype=bool)
    front = pairings @ z.u.T % z.divisors @ z.strides      # pairings are dual coordinates
    orbit[front], sign[front] = np.arange(dim), 1
    # breadth-first over the Schreier graph of the simple reflections: every
    # edge is checked once, and one whose signs disagree closes an odd cycle
    perms = _reflections(rs, z)
    while len(front):
        known = orbit >= 0
        o0, s0 = orbit[front], sign[front]
        for perm in perms:
            idx = perm[front]
            fresh = orbit[idx] < 0
            orbit[idx[fresh]], sign[idx[fresh]] = o0[fresh], -s0[fresh]
            odd[o0[sign[idx] != -s0]] = True
        front = np.flatnonzero((orbit >= 0) & ~known)
    assert (orbit >= 0).all(), "alcove orbits do not cover the quotient"
    w_order, sizes = weyl_order(rs.lie_type), np.bincount(orbit, minlength=dim).tolist()
    return WeylOrbits(quotient=z, pairings=pairings, numerators=numerators, interior=interior,
                      orbit=orbit, sign=sign, odd_stabilizer=odd,
                      stabilizer_sizes=tuple(w_order // m for m in sizes))


def fraction_strings(nums, den: int) -> List[List[str]]:
    """Rows of int numerators x over den > 0, each spelled as str(Fraction(x,
    den)) spells it: "p/q" in lowest terms, or "p"."""
    def text(x):
        g = math.gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"
    return [[text(x) for x in row] for row in np.asarray(nums).tolist()]


def enumerate_report(rs: RootSystem, k: int) -> dict:
    """JSON-ready report for the `lattice enumerate` CLI command: Z and the
    closed and open alcove points, read from `weyl_orbits`; its strings and
    text, 320 + 288 n bytes a row of Z or of either alcove, charged first."""
    label = f"{rs.lie_type}, k={k}"
    require(label, **orbit_terms(rs, k))    # bounds k, so that the counts are quick
    rows = quotient_order(rs, k) + alcove_count(rs, k) + alcove_count(rs, k - rs.dual_coxeter)
    require(label, enumeration=(320 + 288 * rs.rank) * rows)
    orbits = weyl_orbits(rs, k)
    q = orbits.quotient
    return {
        "type": str(rs.lie_type),
        "level": k,
        "order": q.order,
        "invariant_factors": [int(d) for d in q.divisors if d > 1],
        "reps": fraction_strings(q.numerators[np.lexsort(q.numerators.T[::-1])], q.denom),
        "alcove": {
            "open": fraction_strings(orbits.numerators[orbits.interior], q.denom),
            "closed": fraction_strings(orbits.numerators, q.denom),
            "stabilizer_sizes": list(orbits.stabilizer_sizes),
        },
    }

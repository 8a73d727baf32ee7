"""Exact rational oracles for the integer root data and the quotient.

Fraction linear algebra on small dense matrices (tuples of tuples,
row-major, of Fractions or ints; plain Gaussian elimination, n <= 8), the
level-1 pairing, Weyl elements acting on vectors, the positive roots, Weyl
vector and highest root built from them by reflection closure, and the phase
of a rational exponent. The library computes every one of these in integers;
the tests compare.
"""

import cmath
import math
from fractions import Fraction
from typing import Sequence, Tuple

Vec = Tuple[Fraction, ...]
Mat = Tuple[Tuple[Fraction, ...], ...]


def fraction_rows(nums, den: int) -> Tuple[Vec, ...]:
    """Rows of int numerators over den, as tuples of Fractions."""
    return tuple(tuple(Fraction(int(x), den) for x in row) for row in nums)


def unit_phase(q: Fraction) -> complex:
    """exp(2 pi i q) for an exact rational q, reduced mod 1 first."""
    q = q - (q.numerator // q.denominator)
    return cmath.exp(2j * math.pi * float(q))


def mat(rows) -> Mat:
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def mat_mul(a: Mat, b: Mat) -> Mat:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat_vec(a: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def bilinear(g: Mat, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """u^T g v as an exact rational."""
    n = len(u)
    return sum(u[i] * g[i][j] * v[j] for i in range(n) for j in range(n))


def det(a: Mat) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        d *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return d


def inverse(a: Mat) -> Mat:
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [e * inv for e in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [e - f * p for e, p in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def pairing1(rs, v, w) -> Fraction:
    """<v, w>_1 = v^T gram1 w, exact."""
    return bilinear(rs.gram1, tuple(Fraction(x) for x in v), tuple(Fraction(x) for x in w))


def pairing(rs, v, w, k: int) -> Fraction:
    """k-scaled inner product <v, w>_k = k * v^T gram1 w, exact."""
    return k * pairing1(rs, v, w)


def weyl_apply(w, v) -> Vec:
    """A Weyl element's integer matrix applied to a rational vector."""
    return mat_vec(w.matrix, tuple(Fraction(x) for x in v))


def positive_roots(rs) -> Tuple[Vec, ...]:
    """Positive roots in coroot coordinates, sorted by height: the closure of
    the simple roots alpha_i = (2 / <b_i, b_i>_1) b_i under the simple
    reflections v -> v - <v, b_i>_1 alpha_i."""
    n = rs.rank
    simple = [tuple(Fraction(2, rs.gram1[i][i]) * (i == j) for j in range(n)) for i in range(n)]

    def reflect(v, i):
        # 2 <v, alpha_i>_1 / <alpha_i, alpha_i>_1 = <v, b_i>_1
        c = sum(x * row[i] for x, row in zip(v, rs.gram1))
        return tuple(x - c * y for x, y in zip(v, simple[i]))

    roots = set(simple)
    frontier = list(simple)
    while frontier:
        v = frontier.pop()
        for i in range(n):
            r = reflect(v, i)
            if r not in roots:
                roots.add(r)
                frontier.append(r)
    # height: the coefficient sum over the simple roots, c_i / d_i
    return tuple(sorted((r for r in roots if all(x >= 0 for x in r)),
                        key=lambda r: (sum(x * rs.gram1[i][i] / 2 for i, x in enumerate(r)), r)))


def weyl_vector(rs) -> Vec:
    """rho = half the sum of the positive roots."""
    pos = positive_roots(rs)
    return tuple(sum(r[i] for r in pos) / 2 for i in range(rs.rank))


def highest_root(rs) -> Vec:
    """The positive root of largest height."""
    return positive_roots(rs)[-1]

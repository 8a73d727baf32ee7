"""Exact rational linear algebra on small dense matrices.

Matrices are tuples of tuples (row-major) of Fractions or ints.  Everything
here is desk-scale (n <= 8), so plain Gaussian elimination is fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

Vec = Tuple[Fraction, ...]
Mat = Tuple[Tuple[Fraction, ...], ...]


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


def smith_normal_form(m):
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with u*m*v = d, u and v unimodular, d diagonal with
    d[i] | d[i+1].
    """
    a = [[int(e) for e in row] for row in m]
    n = len(a)
    nc = len(a[0])
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    size = min(n, nc)
    for t in range(size):
        while True:
            # pick the nonzero entry of smallest magnitude as pivot
            piv = None
            best = None
            for i in range(t, n):
                for j in range(t, nc):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                        best = abs(a[i][j])
                        piv = (i, j)
            if piv is None:
                break
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            p = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // p))
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // p))
                    dirty = dirty or a[t][j] != 0
            if dirty:
                continue
            # pivot divides everything below-right, or fold a bad row in
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, nc):
                    if a[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if t < size and a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    d = tuple(tuple(row) for row in a)
    return d, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)

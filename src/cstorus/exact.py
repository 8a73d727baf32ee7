"""Smith normal form of a small integer matrix, in Python ints."""

from __future__ import annotations


def smith_normal_form(m):
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with u*m*v = d, u and v unimodular, d diagonal with
    d[i] | d[i+1].
    """
    a = [[int(e) for e in row] for row in m]
    n, nc = len(a), len(a[0])
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

    for t in range(min(n, nc)):
        while True:
            # the nonzero entry of smallest magnitude, first in row-major order
            piv = min(((abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, nc)
                       if a[i][j]), default=None)
            if piv is None:
                break
            swap_rows(t, piv[1])
            swap_cols(t, piv[2])
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
            bad = next((i for i in range(t + 1, n) for j in range(t + 1, nc) if a[i][j] % p),
                       None)
            if bad is None:
                break
            add_row(bad, t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    return tuple(tuple(tuple(row) for row in m) for m in (a, u, v))

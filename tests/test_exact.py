"""The integer Smith normal form, and the Fraction linear algebra of the
test oracles (determinants, inverses, bilinear forms) that checks it."""

import random
from fractions import Fraction

import pytest

from cstorus.exact import smith_normal_form
from fraction_oracle import bilinear, det, inverse, mat, mat_mul
from test_lattice import frac_part, identity, is_integral, vec_sub


def rand_int_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_det_and_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = rand_int_matrix(rng, n)
        m = mat(rows)
        d = det(m)
        if d == 0:
            with pytest.raises(Exception):
                inverse(m)
            continue
        inv = inverse(m)
        prod = mat_mul(m, inv)
        assert prod == identity(n)


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = mat(rand_int_matrix(rng, n))
        b = mat(rand_int_matrix(rng, n))
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_smith_normal_form_randomized():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = rand_int_matrix(rng, n)
        m = mat(rows)
        if det(m) == 0:
            continue
        d, u, v = smith_normal_form(rows)
        du = mat_mul(mat(u), mat_mul(m, mat(v)))
        assert du == mat(d)
        # unimodular transforms
        assert abs(det(mat(u))) == 1
        assert abs(det(mat(v))) == 1
        # diagonal with divisibility chain
        diag = [d[i][i] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (a == 0 or b % a == 0)


def test_frac_part_and_integrality():
    v = (Fraction(7, 3), Fraction(-1, 4), Fraction(2))
    fp = frac_part(v)
    assert fp == (Fraction(1, 3), Fraction(3, 4), Fraction(0))
    assert is_integral(vec_sub(v, fp))


def test_bilinear_symmetric_gram():
    g = mat([[2, -1], [-1, 2]])
    u = (Fraction(1), Fraction(2))
    w = (Fraction(-1, 2), Fraction(3))
    assert bilinear(g, u, w) == bilinear(g, w, u)

"""Root systems and Weyl groups for the simple Lie types, with the inner
product normalized so long roots have squared length 2.

All vectors live in coroot-basis coordinates: a vector v = sum_i c_i b_i,
with b_i the simple coroots, is stored as the tuple (c_1, ..., c_n) of exact
rationals.  The Gram matrix gram1[i][j] = <b_i, b_j>_1 is an integer matrix,
so every pairing used in a phase exponent is an exact rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from . import exact
from .errors import ResourceLimitError, SchemaError

VALID_FAMILIES = "ABCDEFG"

# Weyl group orders in closed form, so |W| never needs the group enumerated
_WEYL_ORDER = {
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: 2 ** n * math.factorial(n),
    "C": lambda n: 2 ** n * math.factorial(n),
    "D": lambda n: 2 ** (n - 1) * math.factorial(n),
    "E": {6: 51_840, 7: 2_903_040, 8: 696_729_600},
    "F": {4: 1152},
    "G": {2: 12},
}

# dual Coxeter numbers, used as a cross-check
_DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": {6: 12, 7: 18, 8: 30},
    "F": {4: 9},
    "G": {2: 4},
}


@dataclass(frozen=True)
class LieType:
    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        if len(fam) != 1 or fam not in VALID_FAMILIES:    # "" and "AB" are substrings
            raise SchemaError(f"unknown family {fam!r}; expected one of {VALID_FAMILIES}")
        if n < 1:
            raise SchemaError(f"rank must be positive, got {n}")
        if fam == "B" and n < 2:
            raise SchemaError("family B requires rank >= 2")
        if fam == "C" and n < 2:
            raise SchemaError("family C requires rank >= 2")
        if fam == "D" and n < 3:
            raise SchemaError("family D requires rank >= 3")
        if fam == "E" and n not in (6, 7, 8):
            raise SchemaError("family E requires rank 6, 7 or 8")
        if fam == "F" and n != 4:
            raise SchemaError("family F requires rank 4")
        if fam == "G" and n != 2:
            raise SchemaError("family G requires rank 2")

    def __str__(self):
        return f"{self.family}{self.rank}"


def _lookup(table, lt: LieType) -> int:
    entry = table[lt.family]
    return entry(lt.rank) if callable(entry) else entry[lt.rank]


def weyl_order(lt: LieType) -> int:
    """|W| from the closed-form table, without enumerating the group."""
    return _lookup(_WEYL_ORDER, lt)


def cartan_matrix(lt: LieType) -> Tuple[Tuple[int, ...], ...]:
    """Cartan matrix a[i][j] = 2 <alpha_i, alpha_j> / <alpha_j, alpha_j>,
    Bourbaki node ordering."""
    n = lt.rank
    a = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    fam = lt.family
    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if fam == "B" and n >= 2:
            # alpha_n short
            link(n - 2, n - 1, aij=-2, aji=-1)
        if fam == "C" and n >= 2:
            # alpha_n long
            link(n - 2, n - 1, aij=-1, aji=-2)
    elif fam == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif fam == "E":
        # Bourbaki: chain 1-3-4-5-...-n with node 2 attached to node 4
        chain = [0] + list(range(2, n))
        for x, y in zip(chain, chain[1:]):
            link(x, y)
        link(1, 3)
    elif fam == "F":
        link(0, 1)
        link(1, 2, aij=-2, aji=-1)  # alpha_3, alpha_4 short
        link(2, 3)
    elif fam == "G":
        link(0, 1, aij=-1, aji=-3)  # alpha_1 short
    return tuple(tuple(row) for row in a)


def _symmetrizer(a) -> Tuple[Fraction, ...]:
    """d_i = <alpha_i, alpha_i>_1 / 2, normalized so long roots give 1."""
    n = len(a)
    d: List[Fraction] = [None] * n
    d[0] = Fraction(1)
    # propagate along the Dynkin graph: d_j / d_i = a_ji / a_ij
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i != j and a[i][j] != 0 and d[i] is not None and d[j] is None:
                    d[j] = d[i] * Fraction(a[j][i], a[i][j])
                    changed = True
    top = max(d)
    return tuple(x / top for x in d)


@dataclass(frozen=True)
class WeylElement:
    """Orthogonal integer matrix acting on coroot-basis coordinates."""

    matrix: Tuple[Tuple[int, ...], ...]
    determinant: int

    def apply(self, v) -> Tuple[Fraction, ...]:
        return exact.mat_vec(self.matrix, tuple(Fraction(x) for x in v))

    def compose(self, other: "WeylElement") -> "WeylElement":
        m = exact.mat_mul(self.matrix, other.matrix)
        return WeylElement(tuple(tuple(int(e) for e in row) for row in m),
                           self.determinant * other.determinant)


@dataclass(frozen=True)
class WeylGroup:
    elements: Tuple[WeylElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class RootSystem:
    lie_type: LieType
    cartan: Tuple[Tuple[int, ...], ...]
    gram1: Tuple[Tuple[int, ...], ...]          # <b_i, b_j>_1
    positive_roots: Tuple[Tuple[Fraction, ...], ...]
    weyl_vector: Tuple[Fraction, ...]
    dual_coxeter: int
    highest_root: Tuple[Fraction, ...]
    _weyl_cache: Dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def pairing1(self, v, w) -> Fraction:
        return exact.bilinear(self.gram1, tuple(Fraction(x) for x in v),
                              tuple(Fraction(x) for x in w))

    def weyl_group(self, max_elements: int = 100_000) -> WeylGroup:
        key = "wg"
        if key not in self._weyl_cache:
            self._weyl_cache[key] = generate_weyl_group(self, max_elements=max_elements)
        return self._weyl_cache[key]

    def summary(self) -> dict:
        return {
            "family": self.lie_type.family,
            "rank": self.rank,
            "gram1": [[f"{e}/1" if isinstance(e, int) else str(Fraction(e))
                       for e in row] for row in self.gram1],
            "positive_root_count": self.num_positive,
            "weyl_order": weyl_order(self.lie_type),
            "dual_coxeter": self.dual_coxeter,
        }


def _positive_roots_in_simple_coords(a):
    """Closure of the simple roots under simple reflections, kept positive.

    Roots are expansion vectors m over the simple roots: s_i sends m to
    m - (sum_j m_j a_ji) e_i.
    """
    n = len(a)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        m = frontier.pop()
        for i in range(n):
            c = sum(m[j] * a[j][i] for j in range(n))
            new = list(m)
            new[i] -= c
            new = tuple(new)
            if all(x >= 0 for x in new) and any(x > 0 for x in new) and new not in roots:
                roots.add(new)
                frontier.append(new)
    return sorted(roots, key=lambda m: (sum(m), m))


# rank above this raises ResourceLimitError: root data are built in Python
# and Fraction arithmetic at a cost of ~rank^4 (B40 ~1.2 s, A100 ~13 s)
RANK_CEILING = 40


def build_root_system(lt: LieType) -> RootSystem:
    if lt.rank > RANK_CEILING:
        raise ResourceLimitError(f"rank {lt.rank} of {lt} exceeds the ceiling {RANK_CEILING}")
    a = cartan_matrix(lt)
    n = lt.rank
    d = _symmetrizer(a)
    gram1_frac = tuple(tuple(Fraction(a[i][j]) / d[i] for j in range(n)) for i in range(n))
    if not all(e.denominator == 1 for row in gram1_frac for e in row):
        raise AssertionError("gram1 is not integral; Cartan data inconsistent")
    gram1 = tuple(tuple(int(e) for e in row) for row in gram1_frac)

    # coroot-basis coordinates of the positive roots
    pos_roots = [tuple(Fraction(m[i]) * d[i] for i in range(n))
                 for m in _positive_roots_in_simple_coords(a)]

    rho = tuple(sum(r[i] for r in pos_roots) / 2 for i in range(n))

    # highest root: the unique positive root of maximal height
    highest = pos_roots[-1]
    gm = exact.mat(gram1)
    hsq = exact.bilinear(gm, highest, highest)
    if hsq != 2:
        raise AssertionError("highest root is not long after normalization")
    h_dual = 1 + exact.bilinear(gm, rho, highest)
    if h_dual.denominator != 1:
        raise AssertionError("dual Coxeter number is not an integer")
    expected = _lookup(_DUAL_COXETER, lt)
    if int(h_dual) != expected:
        raise AssertionError(f"dual Coxeter mismatch for {lt}: {h_dual} != {expected}")

    return RootSystem(
        lie_type=lt,
        cartan=a,
        gram1=gram1,
        positive_roots=tuple(pos_roots),
        weyl_vector=rho,
        dual_coxeter=int(h_dual),
        highest_root=highest,
    )


def simple_reflection_matrix(rs: RootSystem, i: int) -> Tuple[Tuple[int, ...], ...]:
    """s_i on coroot coordinates: c -> c - (sum_j a_ij c_j) e_i."""
    n = rs.rank
    return tuple(
        tuple((int(r == c) - (rs.cartan[i][c] if r == i else 0)) for c in range(n))
        for r in range(n)
    )


def generate_weyl_group(rs: RootSystem, max_elements: int = 100_000) -> WeylGroup:
    # the closed-form order refuses a group past the ceiling before enumerating it
    if weyl_order(rs.lie_type) > max_elements:
        raise ResourceLimitError(
            f"Weyl group of {rs.lie_type} exceeds the element ceiling "
            f"{max_elements}; raise max_elements to enumerate it")
    n = rs.rank
    gens = [WeylElement(simple_reflection_matrix(rs, i), -1) for i in range(n)]
    ident = WeylElement(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)
    seen = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        w = frontier.pop()
        for g in gens:
            nw = g.compose(w)
            if nw.matrix not in seen:
                seen[nw.matrix] = nw
                frontier.append(nw)
    elements = tuple(sorted(seen.values(), key=lambda e: e.matrix))
    return WeylGroup(elements)


def pairing(rs: RootSystem, v, w, k: int) -> Fraction:
    """k-scaled inner product <v, w>_k = k * v^T gram1 w, exact."""
    if k < 1:
        raise SchemaError(f"level k must be a positive integer, got {k}")
    return k * rs.pairing1(v, w)

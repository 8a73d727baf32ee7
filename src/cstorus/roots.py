"""Root systems and Weyl groups for the simple Lie types, with the inner
product normalized so long roots have squared length 2.

All vectors live in coroot-basis coordinates: a vector v = sum_i c_i b_i,
with b_i the simple coroots, has the coordinates (c_1, ..., c_n).  The root
data are integers: the Gram matrix gram1[i][j] = <b_i, b_j>_1, the Weyl
matrices, and the comarks (the coordinates of the highest root, read from
a per-family table).  The positive roots are never built: their count is
n h / 2 with the Coxeter number h from the comarks.  Weights are rational;
the Weyl vector rho = gram1^{-1} 1 pairs with every simple coroot to 1, so
<v, rho>_1 is the coordinate sum of v (lattice.rho_shifted builds it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .errors import SchemaError, require

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

# comarks: the coroot coordinates of the highest root theta, in the node
# order of cartan_matrix (Kac, Infinite-dimensional Lie algebras, Table Aff 1;
# Bourbaki, Lie groups ch. VI, Planches)
_COMARKS = {
    "A": lambda n: (1,) * n,
    "B": lambda n: (1,) + (2,) * (n - 2) + (1,),
    "C": lambda n: (1,) * n,
    "D": lambda n: (1,) + (2,) * (n - 3) + (1, 1),
    "E": {6: (1, 2, 2, 3, 2, 1), 7: (2, 2, 3, 4, 3, 2, 1), 8: (2, 3, 4, 6, 5, 4, 3, 2)},
    "F": {4: (2, 3, 2, 1)},
    "G": {2: (1, 2)},
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


def _lookup(table, lt: LieType):
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


def _symmetrizer(a) -> Tuple[int, ...]:
    """e_i = 1 / d_i = 2 / <alpha_i, alpha_i>_1 in {1, 2, 3}, 1 on the long
    roots, so that gram1[i][j] = e_i a_ij."""
    n = len(a)
    e: List[int] = [None] * n
    e[0] = 6        # every ratio e_j / e_i is 1, 2, 3 or an inverse of them
    # propagate along the Dynkin graph: e_j / e_i = a_ij / a_ji
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i != j and a[i][j] != 0 and e[i] is not None and e[j] is None:
                    e[j], rem = divmod(e[i] * a[i][j], a[j][i])
                    if rem:
                        raise AssertionError("gram1 is not integral; Cartan data inconsistent")
                    changed = True
    low = min(e)
    return tuple(x // low for x in e)


@dataclass(frozen=True)
class WeylElement:
    """Orthogonal integer matrix acting on coroot-basis coordinates."""

    matrix: Tuple[Tuple[int, ...], ...]
    determinant: int

    def compose(self, other: "WeylElement") -> "WeylElement":
        cols = tuple(zip(*other.matrix))
        m = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                  for row in self.matrix)
        return WeylElement(m, self.determinant * other.determinant)


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
    num_positive: int
    comarks: Tuple[int, ...]                    # coroot coordinates of the highest root
    dual_coxeter: int
    _weyl_cache: Dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def weyl_group(self) -> WeylGroup:
        key = "wg"
        if key not in self._weyl_cache:
            self._weyl_cache[key] = generate_weyl_group(self)
        return self._weyl_cache[key]

    def summary(self) -> dict:
        return {
            "family": self.lie_type.family,
            "rank": self.rank,
            "gram1": [[f"{e}/1" for e in row] for row in self.gram1],
            "positive_root_count": self.num_positive,
            "weyl_order": weyl_order(self.lie_type),
            "dual_coxeter": self.dual_coxeter,
        }


def build_root_system(lt: LieType) -> RootSystem:
    n = lt.rank
    # the n x n tables and `roots info` strings: 220-230 bytes an entry at rank 200-500
    require(str(lt), root_data=256 * n * n)
    a = cartan_matrix(lt)
    e = _symmetrizer(a)
    gram1 = tuple(tuple(e[i] * a[i][j] for j in range(n)) for i in range(n))
    comarks = _lookup(_COMARKS, lt)

    # theta = sum_i comarks_i b_i is long, <theta, theta>_1 = 2, and dominant,
    # <theta, b_j>_1 >= 0 for every simple coroot b_j
    theta_b = [sum(c * row[j] for c, row in zip(comarks, gram1)) for j in range(n)]
    if sum(c * x for c, x in zip(comarks, theta_b)) != 2 or min(theta_b) < 0:
        raise AssertionError(f"highest root of {lt} is not long and dominant")
    # h = 1 + <rho, theta>_1, and <v, rho>_1 is the coordinate sum of v
    h_dual = 1 + sum(comarks)
    expected = _lookup(_DUAL_COXETER, lt)
    if h_dual != expected:
        raise AssertionError(f"dual Coxeter mismatch for {lt}: {h_dual} != {expected}")
    # theta = sum_i comarks_i e_i alpha_i has height h - 1 (h the Coxeter
    # number), and there are n h / 2 positive roots
    coxeter = 1 + sum(c * ei for c, ei in zip(comarks, e))

    return RootSystem(
        lie_type=lt,
        cartan=a,
        gram1=gram1,
        num_positive=n * coxeter // 2,
        comarks=comarks,
        dual_coxeter=h_dual,
    )


def simple_reflection_matrix(rs: RootSystem, i: int) -> Tuple[Tuple[int, ...], ...]:
    """s_i on coroot coordinates: c -> c - (sum_j a_ij c_j) e_i."""
    n = rs.rank
    return tuple(
        tuple((int(r == c) - (rs.cartan[i][c] if r == i else 0)) for c in range(n))
        for r in range(n)
    )


def generate_weyl_group(rs: RootSystem) -> WeylGroup:
    # charged from the closed-form order: an element is n compositions of n^3
    # steps and holds 630-800 bytes at rank 4-6 (tracemalloc)
    n, order = rs.rank, weyl_order(rs.lie_type)
    require(f"Weyl group of {rs.lie_type}", weyl_elements=order * (480 + 10 * n * n),
            weyl_closure_ops=order * n ** 4)
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

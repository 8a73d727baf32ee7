"""Sweep the finite sector matrices over families and levels and print the
modular relation residuals, with the Milgram residual of Z for each (type, k):
|sum_x e(q(x)) - sqrt|Z| e(n/8)| / sqrt|Z|, 0 by Milgram's formula.  Exit 1
if any row fails: a relation past verify_sl2z's tolerance, or a Milgram
residual above 1e-12."""

import argparse
import cmath
import math
import sys
import time

from cstorus.finrep import Convention, rep_matrices, verify_sl2z
from cstorus.lattice import quotient_group
from cstorus.roots import LieType, build_root_system

MILGRAM_TOL = 1e-12


def milgram_residual(rs, k):
    z = quotient_group(rs, k)
    root = math.sqrt(z.order)
    return abs(z.gauss(z.numerators).sum() - root * cmath.exp(2j * math.pi * rs.rank / 8)) / root

SWEEP = [("A", 1, 8), ("A", 2, 5), ("B", 2, 3), ("G", 2, 3),
         ("D", 4, 2), ("F", 4, 2), ("E", 6, 2), ("E", 7, 2), ("E", 8, 2),
         # high rank at k = 1: |W| of B151 and D152 is past the largest float
         ("A", 100, 1), ("A", 200, 1), ("B", 151, 1), ("D", 152, 1), ("C", 16, 1)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--convention", choices=["lemma", "theorem"], default="lemma")
    args = ap.parse_args()
    conv = Convention.from_name(args.convention)
    start = time.monotonic()
    failed = 0
    print(f"{'type':>5} {'k':>3} {'sector':>6} {'dim':>4} "
          f"{'S^4=Id':>10} {'braid':>10} {'unitary':>10} {'Milgram':>10}")
    for fam, rank, kmax in SWEEP:
        rs = build_root_system(LieType(fam, rank))
        for k in range(1, kmax + 1):
            milgram = milgram_residual(rs, k)
            for sector in (0, 1):
                m = rep_matrices(rs, k, sector, convention=conv)
                rep = verify_sl2z(m)
                passed = rep.passed and milgram <= MILGRAM_TOL
                failed += not passed
                print(f"{fam}{rank:>4} {k:>3} {sector:>6} {m.dim:>4} "
                      f"{rep.residual_s4:>10.2e} {rep.residual_braid:>10.2e} "
                      f"{max(rep.residual_s_unitary, rep.residual_t_unitary):>10.2e} "
                      f"{milgram:>10.2e}{'' if passed else '  FAIL'}")
    print(f"elapsed: {time.monotonic() - start:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

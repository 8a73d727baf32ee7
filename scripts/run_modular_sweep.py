"""Sweep the finite sector matrices over families and levels and print the
modular relation residuals; exit 1 if any row fails."""

import argparse
import sys
import time

from cstorus.finrep import Convention, rep_matrices, verify_sl2z
from cstorus.roots import LieType, build_root_system

SWEEP = [("A", 1, 8), ("A", 2, 5), ("B", 2, 3), ("G", 2, 3),
         ("D", 4, 2), ("F", 4, 2), ("E", 6, 2), ("E", 7, 2), ("E", 8, 2)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--convention", choices=["lemma", "theorem"], default="lemma")
    args = ap.parse_args()
    conv = Convention.from_name(args.convention)
    start = time.monotonic()
    failed = 0
    print(f"{'type':>5} {'k':>3} {'sector':>6} {'dim':>4} "
          f"{'S^4=Id':>10} {'braid':>10} {'unitary':>10}")
    for fam, rank, kmax in SWEEP:
        rs = build_root_system(LieType(fam, rank))
        for k in range(1, kmax + 1):
            for sector in (0, 1):
                m = rep_matrices(rs, k, sector, convention=conv)
                rep = verify_sl2z(m)
                flag = "" if rep.passed else "  FAIL"
                failed += not rep.passed
                print(f"{fam}{rank:>4} {k:>3} {sector:>6} {m.dim:>4} "
                      f"{rep.residual_s4:>10.2e} {rep.residual_braid:>10.2e} "
                      f"{max(rep.residual_s_unitary, rep.residual_t_unitary):>10.2e}"
                      f"{flag}")
    print(f"elapsed: {time.monotonic() - start:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

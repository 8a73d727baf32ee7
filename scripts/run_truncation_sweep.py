"""Conjugated-generator diagnostics as the Hermite truncation grows.

The two constructions agree to ~1e-13 at every L: construction (i) applies
each conjugated generator as one composed kernel and construction (ii)
composes three quadratures, so they no longer share their quadrature error
(conj(S) 1.1e-13, conj(T) 5.3e-14 at k = 2, s = 1 on the default grid). The
compressed-algebra (truncated) residuals shrink with L only down to a
rounding floor of a few 1e-13: unitarity reaches it near L = 40 and S^4 near
L = 64, while the braid residual keeps falling to ~2e-13 at L = 200. The
faithfully composed relations hold at quadrature accuracy (~2.3e-13) up to
L ~ 64 on the default 1601-point grid, then degrade as the basis outgrows
the box: 1.6e-7 at L = 80, 1.3e-4 at L = 88, 1.6e-2 at L = 96 and 0.5 at
L = 200 (k = 2, s = 1, box radius 10). The edge column, the largest
relation_edge_mass, shows why: it is ~1e-14 up to L = 40, 1e-7 at L = 64 and
1e-3 at L = 80, where the chains' blocks reach the end of the box. Each row
ends with the wall time of its verify_conjugation call in seconds: 0.02 s at
L = 12, 0.06 s at L = 40 and 0.3 s at L = 200 on a 2-vCPU VM. A row whose
report fails its checks (conjugation residual at 1e-5, faithful relations at
1e-4) is marked FAIL, and the sweep then exits 1."""

import argparse
import sys
import time

from cstorus.heatkernel import verify_conjugation


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--s", type=float, default=1.0)
    ap.add_argument("--levels", type=int, nargs="+", default=[6, 8, 10, 12])
    ap.add_argument("--grid-points", type=int, default=1601)
    ap.add_argument("--box-radius", type=float, default=10.0)
    args = ap.parse_args()
    print(f"k = {args.k}, s = {args.s}")
    print(f"{'L':>3} {'conj(S)':>10} {'conj(T)':>10} {'rel(max)':>10} "
          f"{'trunc S^4':>10} {'trunc braid':>12} {'trunc unit':>11} {'edge':>9} "
          f"{'wall s':>8}")
    failed = 0
    for L in args.levels:
        start = time.perf_counter()
        rep = verify_conjugation(args.k, args.s, L=L,
                                 grid_points=args.grid_points,
                                 box_radius=args.box_radius)
        wall = time.perf_counter() - start
        tr = rep["truncated_relation_residuals"]
        failed += not rep["passed"]
        print(f"{L:>3} {rep['conjugation_residuals']['S']:>10.2e} "
              f"{rep['conjugation_residuals']['T']:>10.2e} "
              f"{rep['max_relation_residual']:>10.2e} "
              f"{tr['residual_S4']:>10.2e} {tr['residual_braid']:>12.2e} "
              f"{max(tr['residual_S_unitary'], tr['residual_T_unitary']):>11.2e} "
              f"{max(rep['relation_edge_mass'].values()):>9.2e} {wall:>8.3f}"
              f"{'' if rep['passed'] else '  FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

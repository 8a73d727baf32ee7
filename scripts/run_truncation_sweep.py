"""Conjugated-generator diagnostics as the Hermite truncation grows.

The two constructions agree to machine precision at every L. The
compressed-algebra (truncated) residuals shrink with L only down to a
rounding floor of a few 1e-13: unitarity reaches it near L = 40 and S^4 near
L = 64, while the braid residual keeps falling to ~5e-13 at L = 200. The
faithfully composed relations hold at quadrature accuracy (~7e-13) up to
L ~ 64 on the default 1601-point grid, then degrade as the basis outgrows
the box: 1.5e-4 at L = 88, 1.7e-2 at L = 96 and 0.5 at L = 200 (k = 2,
s = 1, box radius 10).  Each row ends with the wall time of its
verify_conjugation call in seconds."""

import argparse
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
          f"{'trunc S^4':>10} {'trunc braid':>12} {'trunc unit':>11} {'wall s':>8}")
    for L in args.levels:
        start = time.perf_counter()
        rep = verify_conjugation(args.k, args.s, L=L,
                                 grid_points=args.grid_points,
                                 box_radius=args.box_radius)
        wall = time.perf_counter() - start
        tr = rep["truncated_relation_residuals"]
        print(f"{L:>3} {rep['conjugation_residuals']['S']:>10.2e} "
              f"{rep['conjugation_residuals']['T']:>10.2e} "
              f"{rep['max_relation_residual']:>10.2e} "
              f"{tr['residual_S4']:>10.2e} {tr['residual_braid']:>12.2e} "
              f"{max(tr['residual_S_unitary'], tr['residual_T_unitary']):>11.2e} "
              f"{wall:>8.3f}")


if __name__ == "__main__":
    main()

"""Compare the anti-invariant sector at shifted level k + h against the
compact modular data for the simply laced types; exits 1 if any case fails."""

import argparse
import sys

from cstorus.compactcheck import compare_shifted
from cstorus.finrep import Convention
from cstorus.roots import LieType, build_root_system


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--convention", choices=["lemma", "theorem"], default="lemma")
    args = ap.parse_args()
    conv = Convention.from_name(args.convention)
    print(f"{'type':>5} {'k':>3} {'k+h':>4} {'dim':>4} {'resid S':>10} "
          f"{'resid T':>10} {'S phase':>16}")
    failed = 0
    for fam, rank, kmax in [("A", 1, 6), ("A", 2, 3), ("A", 3, 3), ("A", 4, 2), ("D", 4, 2),
                            ("A", 5, 1), ("D", 5, 1)]:
        rs = build_root_system(LieType(fam, rank))
        for k in range(1, kmax + 1):
            rep = compare_shifted(rs, k, convention=conv)
            phase = complex(*rep["snapped_S_phase"])
            flag = "" if rep["passed"] else "  FAIL"
            failed += not rep["passed"]
            print(f"{fam}{rank:>4} {k:>3} {rep['shifted_level']:>4} "
                  f"{rep['dim']:>4} {rep['residual_S']:>10.2e} "
                  f"{rep['residual_T']:>10.2e} {phase!s:>16}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

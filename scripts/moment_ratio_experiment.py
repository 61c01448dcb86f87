#!/usr/bin/env python3
"""Sweep the fourth-moment ratio over a T grid at several truncation heights.

Produces a CSV showing the approach of ||E_A||_4^4 / ((36/pi) log^2 T)
toward 1, the Gaussian ratio ||E_A||_4^4 / ((9/pi) ||E_A||^4), and the exact
second-moment cross-check per grid cell.  Each T also gets one row, with A
empty, for the paper's A-average: ``fourth`` is int h(A) ||E_A||_4^4 dA / hhat(0)
for the bump h = Bump(B=2, alpha=0.009, T), and ``ratio`` its ratio to
(36/pi) log^2 T.  Its Gaussian would be int h (9/pi) |int E_A^2|^2 dA, which
the averaged result does not carry, so its other columns stay empty.
Desk-scale heights only; the ratio table, not a toleranced limit, is the
deliverable.

Usage:
    python scripts/moment_ratio_experiment.py [--T 10,16,25,40,50] [--A 1.5,2,3]
"""

import argparse
import math
import sys
import time

from eislab import moments
from eislab.eisenstein import SpectralSetup
from eislab.weights import Bump


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--T", default="10,16,25,40,50")
    ap.add_argument("--A", default="1.5,2,3")
    ap.add_argument("--out", default="moment_ratio.csv")
    args = ap.parse_args()
    Ts = [float(x) for x in args.T.split(",")]
    As = [float(x) for x in args.A.split(",")]

    rows = ["T,A,fourth,ratio,gaussian_ratio,second_rel_err,seconds"]
    for T in Ts:
        for A in As:
            t0 = time.perf_counter()
            res = moments.fourth_moment(SpectralSetup(T=T, A=A), tol=math.inf)
            _, rel2 = moments.second_moment_error(res)
            dt = time.perf_counter() - t0
            rows.append(f"{T},{A},{res.report.value:.8f},{res.report.ratio:.6f},"
                        f"{res.gaussian_ratio:.6f},{rel2:.3e},{dt:.3g}")
            print(rows[-1], flush=True)
        avg = moments.smoothed_fourth_moment(Bump(B=2.0, alpha=0.009, T=T))
        fourth = avg.value / avg.hhat0
        pred = moments.FOURTH_MOMENT_CONSTANT * math.log(T) ** 2
        rows.append(f"{T},,{fourth:.8f},{fourth / pred:.6f},,,")
        print(rows[-1], flush=True)
    with open(args.out, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Survey the scaled K-Bessel and trace-formula J-kernel against 50-digit
baselines over their (order, argument) rectangles.  The J-kernel is checked
both pointwise and through the contracted transform with one t and weight 1.

Prints worst relative errors per regime; handy after touching the contour
quadrature.
"""

import sys
import time

import numpy as np

from eislab import oracles
from eislab.specfun import (
    bessel_k_scaled,
    kuznetsov_kernel_even_many,
    kuznetsov_kernel_transform,
)


def main() -> int:
    t0 = time.time()
    worst_k = 0.0
    # T = 104 and 106 straddle T = 104.8, above which the horizontal leg is
    # empty; y = 1.5e-8 and 1e-4 are the small arguments of the Mellin paths,
    # whose orders T <= 3 split the oscillatory real leg at y cosh u = 2T
    for T in (0.0, 0.58, 1.0, 3.0, 5.0, 30.0, 100.0, 104.0, 106.0, 200.0, 300.0):
        small_y = (1.5e-8, 1e-4) if T <= 30.0 else ()
        ys = small_y + (0.5, 5.0, 0.6 * T + 1, max(T - 2, 1.0), T + 1, T + 30, 2 * T + 50)
        for y, got in zip(ys, bessel_k_scaled(T, np.array(ys))):
            ref = oracles.hp_bessel_k_scaled_fast(T, y)
            if abs(ref) > 1e-250:
                rel = abs(got - ref) / abs(ref)
                worst_k = max(worst_k, rel)
                print(f"K: T={T:6.1f} y={y:8.2f} rel={rel:.2e}")
    worst_j = worst_b = 0.0
    for t in (0.5, 4.2, 20.0, 100.0, 400.0):
        for x in (1e-4, 0.4, 5.0, 80.0):
            ref = oracles.hp_kuznetsov_kernel_even(x, t)
            rel = abs(kuznetsov_kernel_even_many(x, [t])[0] - ref) / abs(ref)
            rel_b = abs(kuznetsov_kernel_transform([x], [t], [1.0])[0] - ref) / abs(ref)
            worst_j, worst_b = max(worst_j, rel), max(worst_b, rel_b)
            print(f"J: t={t:6.1f} x={x:8.4f} rel={rel:.2e} transform rel={rel_b:.2e}")
    print(f"worst K: {worst_k:.2e}; worst J: {worst_j:.2e}; worst transform: {worst_b:.2e}"
          f"  [{time.time()-t0:.0f}s]")
    return 0 if max(worst_k, worst_j, worst_b) < 1e-9 else 1


if __name__ == "__main__":
    sys.exit(main())

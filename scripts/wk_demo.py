#!/usr/bin/env python3
"""Sweep the ruler width for a fixed Gaussian probe and tabulate how the
coherence time, the signal uncertainty and their product behave.

The product stays pinned at sqrt(pi) no matter how the blur is split,
while the resolution degrades additively.
"""

import argparse
import math
import os

import numpy as np

from qruler import (
    GaussianModel,
    GaussianProbeSpec,
    coherence_function,
    coherence_time,
    grid_for_gaussian,
    make_gaussian_probe,
    make_gaussian_ruler,
    signal_uncertainty,
    statistics_from_coherence,
)
from qruler.output import write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigma", type=float, default=1.0, help="probe width")
    ap.add_argument("--out", default="wk_sweep.csv")
    args = ap.parse_args()

    grid = grid_for_gaussian(0.0, args.sigma, 512)
    probe = make_gaussian_probe(GaussianProbeSpec(0.0, args.sigma), grid)

    ruler_widths = np.linspace(0.05, 1.5, 30)
    tau_cs, dlams, products, closed = [], [], [], []
    for dphi in ruler_widths:
        gamma = coherence_function(probe, make_gaussian_ruler(dphi, grid))
        p = statistics_from_coherence(gamma)
        tau_cs.append(coherence_time(gamma))
        dlams.append(signal_uncertainty(p))
        products.append(tau_cs[-1] * dlams[-1])
        closed.append(GaussianModel(args.sigma, dphi).delta2_lambda)

    print(f"probe sigma = {args.sigma}  (conjugate variance {1/(4*args.sigma**2):.4f})")
    print(f"{'dphi_m':>8} {'tau_c':>10} {'dlam':>10} {'product':>10} {'closed d2lam':>13}")
    for i in range(0, len(ruler_widths), 5):
        print(
            f"{ruler_widths[i]:8.3f} {tau_cs[i]:10.5f} {dlams[i]:10.5f}"
            f" {products[i]:10.7f} {closed[i]:13.6f}"
        )
    print(f"sqrt(pi) = {math.sqrt(math.pi):.7f}")

    write_csv(
        args.out,
        ["dphi_m", "tau_c", "delta_lambda", "product", "closed_d2lam"],
        [ruler_widths, np.array(tau_cs), np.array(dlams), np.array(products), np.array(closed)],
    )
    print(f"wrote {os.path.abspath(args.out)}")


if __name__ == "__main__":
    main()

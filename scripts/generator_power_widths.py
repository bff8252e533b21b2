#!/usr/bin/env python3
"""Coherence-time scaling for the generator vs its square.

A probe can be perfectly coherent for detecting shifts generated by g yet
carry a different coherence budget for g^2, even though both operators
are diagonal in the same basis: the coherence time grows linearly with
the probe width in the first case and quadratically in the second.  The
coherence function of g is ``coherence_function`` with the ideal ruler;
that of g^2 is the appendix quadrature ``appendix_coherence``.
"""

import numpy as np

from qruler import (
    GaussianProbeSpec,
    appendix_coherence,
    coherence_function,
    coherence_time,
    grid_for_gaussian,
    make_gaussian_probe,
    make_ideal_ruler,
)
from qruler.output import write_csv


def main():
    widths = np.array([0.5, 0.7, 1.0, 1.4, 2.0, 2.8, 4.0])
    tc_linear, tc_squared = [], []
    for sigma in widths:
        grid = grid_for_gaussian(0.0, sigma, 1024)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, sigma), grid)
        tc_linear.append(coherence_time(coherence_function(probe, make_ideal_ruler(grid))))
        tc_squared.append(coherence_time(appendix_coherence(probe)))

    slope1 = np.polyfit(np.log(widths), np.log(tc_linear), 1)[0]
    slope2 = np.polyfit(np.log(widths), np.log(tc_squared), 1)[0]
    print(f"{'sigma':>6} {'tau_c (g)':>12} {'tau_c (g^2)':>12}")
    for s, t1, t2 in zip(widths, tc_linear, tc_squared):
        print(f"{s:6.2f} {t1:12.6f} {t2:12.6f}")
    print(f"log-log slopes: {slope1:.4f} (expect 1), {slope2:.4f} (expect 2)")

    write_csv(
        "generator_power_widths.csv",
        ["sigma", "tau_c_linear", "tau_c_squared"],
        [widths, np.array(tc_linear), np.array(tc_squared)],
    )
    print("wrote generator_power_widths.csv")


if __name__ == "__main__":
    main()

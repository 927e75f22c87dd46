#!/usr/bin/env python3
"""Grid-refinement study of the transform oracles.

Measures the unit-disk indicator errors of the Cauchy and Beurling
transforms against their closed forms over a ladder of resolutions and
prints a convergence table.

Usage: python scripts/transform_refinement.py [--sizes 128,256,512]
"""

import argparse

import numpy as np

from beltrami_lab.grid import GridField, coordinates
from beltrami_lab.transforms import beurling_transform, cauchy_transform

L = 2.0


def chi_errors(n):
    Z = coordinates(L, n)
    chi = GridField(L, (np.abs(Z) < 1).astype(complex))
    zs = np.where(Z == 0, 1, Z)
    exact_T = np.where(np.abs(Z) <= 1, np.conj(Z), 1 / zs)
    exact_S = np.where(np.abs(Z) <= 1, 0, -1 / zs**2)
    mask = np.abs(np.abs(Z) - 1.0) > 0.15
    errT = np.abs(cauchy_transform(chi).data - exact_T)[mask].max()
    errS = np.abs(beurling_transform(chi).data - exact_S)[mask].max()
    return errT, errS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="128,256,512,1024")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    print(f"{'n':>6} {'err T':>12} {'err S':>12} {'rate T':>8} {'rate S':>8}")
    prev = None
    for n in sizes:
        errT, errS = chi_errors(n)
        rate_t = np.log2(prev[0] / errT) if prev else float("nan")
        rate_s = np.log2(prev[1] / errS) if prev else float("nan")
        print(f"{n:>6} {errT:>12.4e} {errS:>12.4e} {rate_t:>8.2f} {rate_s:>8.2f}")
        prev = (errT, errS)


if __name__ == "__main__":
    main()

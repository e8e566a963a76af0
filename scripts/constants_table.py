#!/usr/bin/env python3
"""Estimate the contraction constants for all four groups and print a table.

Also reports the admissible entry defect radius each set of constants
certifies.  Usage: python scripts/constants_table.py [--samples N] [--seed S]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from haarrect.groups import (  # noqa: E402
    ALGEBRA_OF,
    AmbientSets,
    estimate_bch_constants,
    normalize_algebra_norm,
)
from haarrect.rectifier import admissible_defect_radius  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--safety", type=float, default=1.25)
    args = parser.parse_args()

    sets = AmbientSets()
    cols = ("c", "c_prime", "c_dprime", "d", "d_prime", "c_l", "c_d")
    print(f"{'group':<6}" + "".join(f"{c:<11}" for c in cols) + "admissible")
    for tag in ("U1", "SO2", "SO3", "SU2"):
        alg = normalize_algebra_norm(ALGEBRA_OF[tag])
        k = estimate_bch_constants(alg, sets, sample_count=args.samples,
                                   safety_factor=args.safety, seed=args.seed)
        vals = "".join(f"{getattr(k, c):<11.4g}" for c in cols)
        print(f"{tag:<6}{vals}{admissible_defect_radius(k):.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

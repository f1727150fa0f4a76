#!/usr/bin/env python3
"""Profile the aperiodicity indices of whole monoid ranks.

Reports, per rank, how many elements reach their idempotent power after
k steps and the largest k seen (the monoid is aperiodic, so the power
tower always stabilizes; no a-priori bound on k is known).

    python scripts/aperiodicity_profile.py --max 6
"""

import argparse
import sys
from collections import Counter

from okada import diagrams as dg
from okada.cli import _LIMITS
from okada.monoid import aperiodicity_index

MAX_RANK = _LIMITS["diagrams"]  # the rank cap of `okada enumerate diagrams`


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=6)
    args = ap.parse_args()
    if not 0 <= args.max <= MAX_RANK:
        ap.error(f"--max must be between 0 and {MAX_RANK}")
    for n in range(args.max + 1):
        profile = Counter(aperiodicity_index(d) for d in dg.iter_diagrams(n))
        dist = " ".join(f"k={k}:{profile[k]}" for k in sorted(profile))
        print(f"rank {n}: max={max(profile, default=1)}  {dist}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Dump the Gram matrices of every cell module up to a rank.

Symbolic matrices (and determinants for small cells) go to a JSON
document; a seeded rational specialization demonstrates generic
nonsingularity.

    python scripts/gram_report.py --max 5 --seed 1 > gram.json
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from okada import serialize as ser
from okada.algebra import GRAM_DET_MAX_DIM, gram_det, gram_det_specialized, gram_matrix
from okada.fibonacci import enumerate_yfs


MAX_RANK = 8  # the rank cap of `okada gram`


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--det-dim-limit", type=int, default=6)
    args = ap.parse_args()
    if not 0 <= args.max <= MAX_RANK:
        ap.error(f"--max must be between 0 and {MAX_RANK}")
    if args.det_dim_limit > GRAM_DET_MAX_DIM:
        ap.error(f"--det-dim-limit must be at most {GRAM_DET_MAX_DIM}")

    rng = random.Random(args.seed)
    out = []
    for n in range(args.max + 1):
        values = {("x", i): Fraction(rng.randrange(2, 100), rng.randrange(1, 10)) for i in range(1, n)}
        values.update(
            {("y", i): Fraction(rng.randrange(2, 100), rng.randrange(1, 10)) for i in range(1, n - 1)}
        )
        for s in enumerate_yfs(n):
            matrix = gram_matrix(s)
            entry = {
                "set": ser.fibset_to_obj(s),
                "dim": len(matrix),
                "matrix": [[ser.poly_to_terms(c, n) for c in row] for row in matrix],
                "specialized_det": str(gram_det_specialized(s, values)),
            }
            if len(matrix) <= args.det_dim_limit:
                entry["det"] = ser.poly_to_terms(gram_det(s), n)
            out.append(entry)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

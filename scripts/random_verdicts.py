#!/usr/bin/env python3
"""Sample random matrices for a registry case and tally the verdicts.

A quick experiment runner: how often does a random matrix of the case's type
pass the membership flags, and how often does the destabilizer search find a
witness?  Seeded, so runs are reproducible.

    PYTHONPATH=src python3 scripts/random_verdicts.py --case 'M(n,3):h0m1=1' --n 4

An unknown case or an ``--n`` outside the case's range is a usage error
(exit 2).
"""

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction

from sheafmod.cli import nonnegative_int
from sheafmod.polymatrix import HomogeneousPoly, PolyMatrix, monomial_basis
from sheafmod.registry import case_by_id
from sheafmod.stability import check_case


def random_matrix(rnd, t):
    zero = HomogeneousPoly.zero()
    rows = []
    row_types = [
        (l, e) for l, (e, nl) in enumerate(t.target.summands) for _ in range(nl)
    ]
    col_types = [
        (i, d) for i, (d, mi) in enumerate(t.source.summands) for _ in range(mi)
    ]
    for l, e in row_types:
        row = []
        for i, d in col_types:
            if t.is_zeroed(i, l) or e < d:
                row.append(zero)
            else:
                row.append(
                    HomogeneousPoly(
                        {m: Fraction(rnd.randint(-2, 2)) for m in monomial_basis(e - d)}
                    )
                )
        rows.append(row)
    return PolyMatrix(t, rows)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--case", default="M(n,3):h0m1=1")
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--trials", type=nonnegative_int, default=20)
    ap.add_argument("--budget", type=nonnegative_int, default=100)
    ap.add_argument("--seed", type=nonnegative_int, default=0)
    args = ap.parse_args()
    try:
        case = case_by_id(args.case)
    except KeyError as exc:
        ap.error(exc.args[0])
    if not case.admits(args.n):
        lo, hi = case.n_range
        ap.error(f"case {case.id} covers n = {lo}..{hi}, not n = {args.n}")
    t = case.resolution(args.n)
    rnd = random.Random(args.seed)
    verdicts = Counter()
    flags_ok = 0
    for k in range(args.trials):
        m = random_matrix(rnd, t)
        report = check_case(m, case, args.n, budget=args.budget, seed=k)
        verdicts[report.verdict.kind.value] += 1
        flags_ok += 1 if report.in_wo else 0
    print(f"case {case.id} at n={args.n}, {args.trials} random matrices")
    print(f"all membership flags passed: {flags_ok}")
    for kind, count in sorted(verdicts.items()):
        print(f"verdict {kind}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print one digest per section of sheafmod's observable results.

    PYTHONPATH=src python3 scripts/same_results.py [--lines]

Run it on two checkouts (point PYTHONPATH at each one's ``src``) and compare
the output: equal digests mean the same results.  The sections are

* ``table``: the stdout of ``sheafmod table`` and of ``table --json``;
* ``verdicts``: the ``check_case`` report (verdict repr, then flags) at budget
  0 on each of the benchmark's 17 ``verdicts`` inputs;
* ``search``: the ``search_destabilizer`` repr on the benchmark's three
  ``search`` inputs, at its budget and seed;
* ``check_case``: reports at budgets 0 and 20 on seeded random registry
  matrices, 4 per (case, n) for the first two n of each case;
* ``kernel``: the ``kernel_line`` text of the benchmark's 50 ``kernel``
  inputs, then ``determinant`` (square) and ``maximal_minors`` on seeded
  random square, wide and tall matrices with rational, mixed-sign and zero
  entries.

A verdict repr holds its kind, witness, trials used, open shapes and note.
``--lines`` prints every line that goes into a digest, for diffing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (the benchmark's input generators)
from random_verdicts import random_matrix  # noqa: E402
from sheafmod import cli, polymatrix  # noqa: E402
from sheafmod.bundles import MorphismType  # noqa: E402
from sheafmod.registry import load_registry  # noqa: E402
from sheafmod.stability import check_case, search_destabilizer  # noqa: E402

CHECK_SEED = 20
CHECK_MATRICES = 4
CHECK_BUDGETS = (0, 20)
MINORS_SEED = 30
MINORS_MATRICES = 200


def table_lines() -> list[str]:
    out = []
    for argv in (["table"], ["table", "--json"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out.append(f"{' '.join(argv)} exit {code}\n{buf.getvalue()}")
    return out


def report_line(label: str, report) -> str:
    return f"{label}: {report.verdict!r} {report.flags!r}"


def verdicts_lines() -> list[str]:
    return [
        report_line(case.id, check_case(workloads.build_matrix(t, raw), case, n, budget=0))
        for case, n, t, raw, _ in workloads.verdicts_pool(workloads.load_reference())
    ]


def search_lines() -> list[str]:
    return [
        repr(search_destabilizer(m, p, workloads.SEARCH_BUDGET, seed=workloads.SEARCH_SEED))
        for m, p in workloads.search_inputs()
    ]


def check_case_lines() -> list[str]:
    rnd = random.Random(CHECK_SEED)
    out = []
    for case in load_registry():
        for n in case.ns()[:2]:
            t = case.resolution(n)
            for k in range(CHECK_MATRICES):
                m = random_matrix(rnd, t)
                for budget in CHECK_BUDGETS:
                    report = check_case(m, case, n, budget=budget, seed=k)
                    out.append(report_line(f"{case.id} n={n} #{k} budget={budget}", report))
    return out


def random_grid_matrix(rnd: random.Random) -> polymatrix.PolyMatrix:
    """A rows x cols matrix of forms of one degree 0..2, rows and cols in
    1..4 and differing by at most 2; entries are zero a quarter of the time,
    otherwise random rationals p/q with p in -4..4 and q in 1..4 on every
    monomial, and now and then a whole row is zero."""
    rows = rnd.randint(1, 4)
    cols = max(1, rows + rnd.randint(-2, 2))
    deg = rnd.randint(0, 2)
    t = MorphismType.make([(-deg, cols)], [(0, rows)])
    zero_row = rnd.randrange(rows) if rnd.random() < 0.1 else -1
    grid = [
        [
            polymatrix.HomogeneousPoly.zero()
            if r == zero_row or rnd.random() < 0.25
            else polymatrix.HomogeneousPoly(
                {m: Fraction(rnd.randint(-4, 4), rnd.randint(1, 4))
                 for m in polymatrix.monomial_basis(deg)}
            )
            for _ in range(cols)
        ]
        for r in range(rows)
    ]
    return polymatrix.PolyMatrix(t, grid)


def kernel_lines() -> list[str]:
    out = []
    for t, raw, _ in workloads.kernel_pool(workloads.load_reference()):
        beta, d = polymatrix.kernel_line(workloads.build_matrix(t, raw))
        out.append(workloads.kernel_text(beta, d))
    rnd = random.Random(MINORS_SEED)
    for k in range(MINORS_MATRICES):
        m = random_grid_matrix(rnd)
        shape = f"#{k} {m.nrows}x{m.ncols}"
        if m.nrows == m.ncols:
            out.append(f"{shape} det: {polymatrix.determinant(m)}")
        out.append(f"{shape} minors: " + " | ".join(map(str, polymatrix.maximal_minors(m))))
    return out


SECTIONS = {
    "table": table_lines,
    "verdicts": verdicts_lines,
    "search": search_lines,
    "check_case": check_case_lines,
    "kernel": kernel_lines,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--lines", action="store_true", help="print every digested line")
    args = ap.parse_args()
    for name, make in SECTIONS.items():
        lines = make()
        if args.lines:
            for line in lines:
                print(f"{name}| {line}")
        text = "\n".join(lines)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        print(f"{name}: {len(lines)} items, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

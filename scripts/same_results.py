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
  entries;
* ``witness``: the ``koszul_test`` class of seeded 3x3 matrices of linear
  forms (members of the Koszul orbit, planted constant column and row
  kernels, matrices with a random degree-one kernel vector, sparse random
  ones, and ones of a type with two source or target summands), then the ``realize_witness`` text (transformed matrix and
  both transforms) of every destabilized report in the ``check_case``
  section that carries a witness;
* ``lattice``: the ``search_destabilizer`` repr at budgets 0 and 20 on seeded
  random matrices of the types of ``M(n,3):h0m1=1+ker`` at n = 8 (the slowest
  ``verdicts`` input) and of ``M(7,4):omega2``, at each case's sample
  polarization; three in four hide a planted zero block of a random
  destabilizing shape behind within-type row and column shears;
* ``kronecker``: ``maximal_minors``, ``determinant`` (square) and
  ``kernel_line`` (k x (k+1)) text on seeded matrices from 2 x 1 to 6 x 7 of
  forms of degree up to 3 with coefficients of up to 1, 2 or 80 digits, mixed
  signs, fraction contents and zero entries, a quarter of them with a row
  planted as a rational multiple of another, so that minors cancel to zero;
* ``hilbert``: the exit code and stdout of ``sheafmod hilbert`` on seeded
  random specs of one to three twists in -6..3 per side with multiplicities
  1..4, about three in ten with a ``ker=`` twist;
* ``passes``: every exact pass that applies to every shape of seeded random
  matrices of the registry types, 4 per (case, n) for the first two n of
  each case, all but the first with a random shape planted behind
  within-type shears: the row sweep on both sides, and the pencil on m where the shape
  has one column of a source type of width two and on the transpose where it
  has one row of a target type of width two, each through
  ``stability._ExactPasses.run``; per run the decided flag, the note and the
  witness, its combinations grouped by type in m's type order.

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
from sheafmod.regions import classify_shapes, enumerate_shapes  # noqa: E402
from sheafmod.registry import case_by_id, load_registry  # noqa: E402
from sheafmod.stability import (  # noqa: E402
    _ExactPasses,
    apply_transforms,
    check_case,
    koszul_test,
    realize_witness,
    search_destabilizer,
)

CHECK_SEED = 20
CHECK_MATRICES = 4
CHECK_BUDGETS = (0, 20)
MINORS_SEED = 30
MINORS_MATRICES = 200
KOSZUL_SEED = 40
KOSZUL_MATRICES = 150
LATTICE_SEED = 50
LATTICE_MATRICES = 12
LATTICE_BUDGETS = (0, 20)
LATTICE_CASES = (("M(n,3):h0m1=1+ker", 8), ("M(7,4):omega2", 4))
KRONECKER_SEED = 60
KRONECKER_MATRICES = 100
HILBERT_SEED = 29
HILBERT_SPECS = 500
PASSES_SEED = 70
PASSES_MATRICES = 4


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


def check_case_reports():
    """(label, matrix, report) for the ``check_case`` section, in order."""
    rnd = random.Random(CHECK_SEED)
    for case in load_registry():
        for n in case.ns()[:2]:
            t = case.resolution(n)
            for k in range(CHECK_MATRICES):
                m = random_matrix(rnd, t)
                for budget in CHECK_BUDGETS:
                    report = check_case(m, case, n, budget=budget, seed=k)
                    yield f"{case.id} n={n} #{k} budget={budget}", m, report


def check_case_lines() -> list[str]:
    return [report_line(label, report) for label, _, report in check_case_reports()]


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


T33 = MorphismType.make([(-1, 3)], [(0, 3)])
IDENTITY = [[int(i == j) for j in range(3)] for i in range(3)]


def random_linear(rnd: random.Random, density: float = 1.0) -> polymatrix.HomogeneousPoly:
    """Coefficients of X, Y and Z in -2..2, each kept with the given probability."""
    coeffs = [rnd.randint(-2, 2) if rnd.random() < density else 0 for _ in range(3)]
    return polymatrix.HomogeneousPoly(dict(zip(polymatrix.monomial_basis(1), coeffs)))


def random_grid(rnd: random.Random, density: float = 1.0) -> polymatrix.PolyMatrix:
    grid = [[random_linear(rnd, density) for _ in range(3)] for _ in range(3)]
    return polymatrix.PolyMatrix(T33, grid)


def random_constants(rnd: random.Random) -> list[list[int]]:
    return [[rnd.randint(-2, 2) for _ in range(3)] for _ in range(3)]


def rank_two_constants(rnd: random.Random) -> list[list[int]]:
    """A constant 3x3 matrix whose column j is a combination of the others."""
    h = random_constants(rnd)
    j = rnd.randrange(3)
    a, b = (c for c in range(3) if c != j)
    wa, wb = rnd.randint(-2, 2), rnd.randint(-2, 2)
    for row in h:
        row[j] = wa * row[a] + wb * row[b]
    return h


def koszul_orbit_member(rnd: random.Random) -> polymatrix.PolyMatrix:
    """g . K . h for the Koszul matrix K and random constant g, h (a singular
    g or h leaves the orbit)."""
    x, y, z, zero = polymatrix.X, polymatrix.Y, polymatrix.Z, polymatrix.HomogeneousPoly.zero()
    k = polymatrix.PolyMatrix(T33, [[x, y, zero], [z, zero, y], [zero, -z, x]])
    return apply_transforms(k, random_constants(rnd), random_constants(rnd))


def column_kernel(rnd: random.Random) -> polymatrix.PolyMatrix:
    return apply_transforms(random_grid(rnd), IDENTITY, rank_two_constants(rnd))


def row_kernel(rnd: random.Random) -> polymatrix.PolyMatrix:
    return apply_transforms(random_grid(rnd), rank_two_constants(rnd), IDENTITY)


def syzygy_rows(rnd: random.Random) -> polymatrix.PolyMatrix:
    """Rows annihilating a vector (a, b, c) of sparse linear forms: constant
    combinations of its three Koszul relations."""
    a, b, c = (random_linear(rnd, 0.5) for _ in range(3))
    zero = polymatrix.HomogeneousPoly.zero()
    relations = polymatrix.PolyMatrix(T33, [[b, -a, zero], [c, zero, -a], [zero, c, -b]])
    return apply_transforms(relations, random_constants(rnd), IDENTITY)


def sparse(rnd: random.Random) -> polymatrix.PolyMatrix:
    return random_grid(rnd, 0.3)


SPLIT_TYPES = [
    MorphismType.make([(-1, 2), (1, 1)], [(0, 3)]),
    MorphismType.make([(-1, 1), (1, 2)], [(0, 3)]),
    MorphismType.make([(-1, 3)], [(-2, 1), (0, 2)]),
    MorphismType.make([(-1, 2), (1, 1)], [(-2, 1), (0, 2)]),
]


def split_type(rnd: random.Random) -> polymatrix.PolyMatrix:
    """A random 3x3 of linear forms whose source or target has a second
    summand type, which only zero entries reach."""
    return random_matrix(rnd, rnd.choice(SPLIT_TYPES))


def witness_lines() -> list[str]:
    rnd = random.Random(KOSZUL_SEED)
    out = []
    families = (koszul_orbit_member, column_kernel, row_kernel, syzygy_rows, sparse, split_type)
    for family in families:
        for k in range(KOSZUL_MATRICES):
            cls = koszul_test(family(rnd))
            out.append(f"{family.__name__} #{k}: {cls.value}")
    for label, m, report in check_case_reports():
        w = report.verdict.witness
        if w is None:
            continue
        g, h, transformed = realize_witness(m, w)
        lines = [f"{label} {w.shape}", polymatrix.format_matrix_file(transformed)]
        lines += [" ".join(map(str, row)) for row in (*g, *h)]
        out.append("\n".join(lines))
    return out


def within_type_shears(rnd: random.Random, groups, size: int) -> list[list[int]]:
    """A unimodular constant matrix mixing positions only within each group:
    the identity after four row shears by +-1 or +-2 inside a random group."""
    out = [[int(i == j) for j in range(size)] for i in range(size)]
    wide = [g for g in groups if len(g) > 1]
    for _ in range(4 if wide else 0):
        j, k = rnd.sample(rnd.choice(wide), 2)
        s = rnd.choice((-2, -1, 1, 2))
        out[j] = [x + s * y for x, y in zip(out[j], out[k])]
    return out


def hidden_block(rnd: random.Random, m: polymatrix.PolyMatrix, shape) -> polymatrix.PolyMatrix:
    """m with a literal zero block of the shape on random rows and columns of
    each type, then mixed by within-type shears on both sides."""
    rgroups = polymatrix._positions(m.type.target)
    cgroups = polymatrix._positions(m.type.source)
    rows = {r for g, b in zip(rgroups, shape.rows) for r in rnd.sample(g, b)}
    cols = {c for g, a in zip(cgroups, shape.cols) for c in rnd.sample(g, a)}
    zero = polymatrix.HomogeneousPoly.zero()
    grid = [
        [zero if r in rows and c in cols else e for c, e in enumerate(row)]
        for r, row in enumerate(m.entries)
    ]
    g = within_type_shears(rnd, rgroups, m.nrows)
    h = [list(col) for col in zip(*within_type_shears(rnd, cgroups, m.ncols))]
    return apply_transforms(polymatrix.PolyMatrix(m.type, grid), g, h)


def lattice_lines() -> list[str]:
    rnd = random.Random(LATTICE_SEED)
    out = []
    for case_id, n in LATTICE_CASES:
        case = case_by_id(case_id)
        t, p = case.resolution(n), case.sample_polarization(n)
        destab = [s for s, d in classify_shapes(t, p).items() if d]
        for k in range(LATTICE_MATRICES):
            m = random_matrix(rnd, t)
            plant = rnd.choice(destab) if k % 4 else None
            if plant is not None:
                m = hidden_block(rnd, m, plant)
            for budget in LATTICE_BUDGETS:
                v = search_destabilizer(m, p, budget, seed=k)
                out.append(f"{case_id} n={n} #{k} plant={plant} budget={budget}: {v!r}")
    return out


def big_form(rnd: random.Random, degree: int, digits: int, dens) -> polymatrix.HomogeneousPoly:
    """A form with integer coefficients of up to the given number of digits
    and either sign on a random subset of the monomials, over a denominator
    drawn from dens."""
    den = rnd.choice(dens)
    return polymatrix.HomogeneousPoly(
        {
            m: Fraction(rnd.randint(-(10 ** rnd.randint(0, digits)), 10**digits), den)
            for m in polymatrix.monomial_basis(degree)
            if rnd.random() < 0.8
        }
    )


def big_grid_matrix(rnd: random.Random) -> polymatrix.PolyMatrix:
    """A rows x cols matrix, rows in 2..6 and cols within one of rows, with a
    column twist group of each of two degrees in 0..3 and a target of twist
    0; coefficients of up to 1, 2 or 80 digits (the last also over 10^20 +
    39), a fifth of the entries zero, and in a quarter of the matrices a row
    that is a rational multiple of another."""
    rows = rnd.randint(2, 6)
    cols = rows + rnd.randint(-1, 1)
    lo = rnd.randint(0, 2)
    hi = rnd.randint(lo, 3)
    a = rnd.randint(0, cols)  # columns of degree hi, then of degree lo
    degrees = [hi] * a + [lo] * (cols - a)
    source = [(-d, k) for d, k in ((hi, a), (lo, cols - a)) if k]
    if hi == lo:
        source = [(-lo, cols)]
    digits = rnd.choice((1, 2, 80))
    dens = (1, 1, 7, 10**20 + 39) if digits == 80 else (1, 1, 7)
    grid = [
        [
            polymatrix.HomogeneousPoly.zero()
            if rnd.random() < 0.2
            else big_form(rnd, d, digits, dens)
            for d in degrees
        ]
        for _ in range(rows)
    ]
    if rows > 1 and rnd.random() < 0.25:
        i, j = rnd.sample(range(rows), 2)
        top = 10 ** min(digits, 30)
        c = Fraction(rnd.randint(-top, top) or 1, rnd.randint(1, top))
        grid[j] = [e.scale(c) for e in grid[i]]
    return polymatrix.PolyMatrix(MorphismType.make(source, [(0, rows)]), grid)


def kronecker_lines() -> list[str]:
    rnd = random.Random(KRONECKER_SEED)
    out = []
    for k in range(KRONECKER_MATRICES):
        m = big_grid_matrix(rnd)
        shape = f"#{k} {m.nrows}x{m.ncols}"
        if m.nrows == m.ncols:
            out.append(f"{shape} det: {polymatrix.determinant(m)}")
        out.append(f"{shape} minors: " + " | ".join(map(str, polymatrix.maximal_minors(m))))
        if m.ncols == m.nrows + 1:
            try:
                line = polymatrix.kernel_line(m)
                text = "None" if line is None else workloads.kernel_text(*line)
            except ValueError as exc:
                text = f"error: {exc}"
            out.append(f"{shape} kernel: {text}")
    return out


def random_sum(rnd: random.Random) -> str:
    twists = sorted(rnd.sample(range(-6, 4), rnd.randint(1, 3)))
    return ",".join(f"({d})x{rnd.randint(1, 4)}" for d in twists)


def hilbert_lines() -> list[str]:
    rnd = random.Random(HILBERT_SEED)
    out = []
    for _ in range(HILBERT_SPECS):
        spec = f"src={random_sum(rnd)} tgt={random_sum(rnd)}"
        if rnd.random() < 0.3:
            spec += f" ker=({rnd.randint(-6, 3)})"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["hilbert", spec])
        out.append(f"{spec}: exit {code} {buf.getvalue()}")
    return out


def by_type(groups, combos) -> str:
    """The combinations, each as its entries, grouped by the type of their
    support in the groups' order and kept in order within a type."""

    def kind(vec):
        return next((t for t, g in enumerate(groups) if any(vec[p] for p in g)), -1)

    return " ; ".join(" ".join(map(str, v)) for v in sorted(combos, key=kind))


def passes_lines() -> list[str]:
    rnd = random.Random(PASSES_SEED)
    out = []
    for case in load_registry():
        for n in case.ns()[:2]:
            t = case.resolution(n)
            rgroups = polymatrix._positions(t.target)
            cgroups = polymatrix._positions(t.source)
            shapes = enumerate_shapes(t)
            for k in range(PASSES_MATRICES):
                m = random_matrix(rnd, t)
                plant = rnd.choice(shapes) if k else None
                if plant is not None:
                    m = hidden_block(rnd, m, plant)
                passes = _ExactPasses(m)
                for s in shapes:
                    runs = [(0, False), (1, False)]
                    if sum(s.cols) == 1 and len(cgroups[s.cols.index(1)]) == 2:
                        runs.append((0, True))
                    if sum(s.rows) == 1 and len(rgroups[s.rows.index(1)]) == 2:
                        runs.append((1, True))
                    for side, pencil in runs:
                        w, decided, note = passes.run(s, side, pencil)
                        text = "None" if w is None else (
                            f"{w.shape} rows {by_type(rgroups, w.row_combos)}"
                            f" cols {by_type(cgroups, w.col_combos)}"
                        )
                        label = f"{case.id} n={n} #{k} plant={plant} {s} side={side}"
                        kind = "pencil" if pencil else "sweep"
                        out.append(f"{label} {kind}: {decided} {note!r} {text}")
    return out


SECTIONS = {
    "table": table_lines,
    "verdicts": verdicts_lines,
    "search": search_lines,
    "check_case": check_case_lines,
    "kernel": kernel_lines,
    "witness": witness_lines,
    "lattice": lattice_lines,
    "kronecker": kronecker_lines,
    "hilbert": hilbert_lines,
    "passes": passes_lines,
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

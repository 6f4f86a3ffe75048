"""Acceptance suite: one test per criterion, exact tolerances, one summary
line printed per criterion."""

import random
import time
from fractions import Fraction as F

from sheafmod.bundles import BundleSum, MorphismType, aut_group_dim, hom_space_dim
from sheafmod.cohomology import beilinson_terms, complete_table, serre_dual_table
from sheafmod.goldens import expected_codim, expected_region_vertices
from sheafmod.hilbert import LinearClass, hilbert_of_resolution
from sheafmod.polymatrix import (
    HomogeneousPoly,
    PolyMatrix,
    X,
    Y,
    Z,
    adapt_to_span,
    cubic_section,
    determinant,
    kernel_line,
    maximal_minors,
    monomial_basis,
    quartic_reconstruct,
    quartic_section,
    transpose_dual,
)
from sheafmod.regions import Polarization, dual_polarization
from sheafmod.registry import case_by_id, load_registry
from sheafmod.stability import VerdictKind, search_destabilizer

from conftest import cohomology_table, random_poly, random_nonzero_poly, uniform_matrix
from test_bundles import quotient_dim_crosscheck
from test_cohomology import random_table, random_type
from test_polymatrix import kernel_oracle, proportional

zero = HomogeneousPoly.zero()


def report(num, name, ok):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_golden_table():
    t0 = time.time()
    ok = True
    count = 0
    for case in load_registry():
        for n in case.ns():
            count += 1
            if case.codim(n) != expected_codim(case.id, n):
                ok = False
            region = case.region(n)
            verts = tuple(tuple(v) for v in region.vertices)
            if verts != expected_region_vertices(case.id, n):
                ok = False
    elapsed = time.time() - t0
    # the two quoted sample blocks, verbatim
    tri = expected_region_vertices("M(n+2,n):omega1", 3)
    assert tri == ((F(0), F(0)), (F(1, 8), F(1, 4)), (F(1, 4), F(1, 4)))
    quad = expected_region_vertices("M(7,4):omega2", 4)
    assert quad == (
        (F(0), F(0)),
        (F(1, 3), F(1, 2)),
        (F(17, 24), F(1)),
        (F(1), F(1)),
    )
    ok = ok and elapsed < 5.0 and count >= 40
    report(1, f"golden table ({count} rows, {elapsed:.2f}s)", ok)


def test_criterion_2_region_spot_checks():
    # triangle at n=5 from pairwise intersection of the three quoted lines
    def meet(a1, b1, c1, a2, b2, c2):
        det = a1 * b2 - a2 * b1
        return (F(c1 * b2 - c2 * b1, det), F(a1 * c2 - a2 * c1, det))

    v1 = meet(1, -1, 0, 0, 1, F(1, 6))
    v2 = meet(1, -1, 0, F(15, 4), -1, F(1, 4))
    v3 = meet(0, 1, F(1, 6), F(15, 4), -1, F(1, 4))
    oracle = tuple(sorted([v1, v2, v3]))
    solver = tuple(tuple(v) for v in case_by_id("M(n+3,n):omega1").region(5).vertices)
    ok = solver == oracle == (
        (F(1, 11), F(1, 11)),
        (F(1, 9), F(1, 6)),
        (F(1, 6), F(1, 6)),
    )
    point_case = case_by_id("M(6,3):omega0")
    r = point_case.region(3)
    p = point_case.sample_polarization(3)
    ok = ok and r.affine_dim == 0 and r.vertices == ((F(1, 3),),)
    ok = ok and p.lambdas == (F(1, 3),) and p.mus == (F(1, 3),)
    report(2, "region spot checks", ok)


def _matrix_5x5():
    t = MorphismType.make([(-2, 1), (-1, 4)], [(0, 5)])
    return PolyMatrix(
        t,
        [
            [X * X, Y, Z, Y, Z],
            [zero, X, zero, zero, zero],
            [zero, zero, Y, zero, zero],
            [zero, zero, zero, Z, zero],
            [zero, zero, zero, zero, X],
        ],
    )


def _matrix_3x3():
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    return PolyMatrix(
        t, [[zero, X, Y], [X * Y, Z, zero], [-(X * X), zero, Z]]
    )


def _matrix_2x2():
    t = MorphismType.make([(-2, 2)], [(0, 2)])
    return PolyMatrix(t, [[X * (X + Y), X * Z], [Y * (X + Y), Y * Z]])


def test_criterion_3_explicit_matrix_verdicts():
    budget = 10**4
    m5 = _matrix_5x5()
    p5 = Polarization([F(1, 10), F(9, 40)], [F(1, 5)])
    v5a = search_destabilizer(m5, p5, budget, seed=11)
    v5b = search_destabilizer(m5, p5, budget, seed=11)
    ok = v5a.kind is not VerdictKind.DESTABILIZED
    ok = ok and (v5a.kind, v5a.budget_used) == (v5b.kind, v5b.budget_used)
    ok = ok and not determinant(m5).is_zero

    m3 = _matrix_3x3()
    p3 = Polarization([F(1, 6), F(5, 12)], [F(1, 3)])
    v3 = search_destabilizer(m3, p3, budget, seed=11)
    ok = ok and v3.kind is not VerdictKind.DESTABILIZED
    ok = ok and determinant(m3).is_zero

    m2 = _matrix_2x2()
    v2 = search_destabilizer(m2, Polarization([F(1, 2)], [F(1, 2)]), budget, seed=11)
    ok = ok and v2.kind is VerdictKind.CERTIFIED_SEMISTABLE
    ok = ok and determinant(m2).is_zero
    report(3, f"explicit matrices (5x5 {v5a.kind.value}, 3x3 {v3.kind.value}, 2x2 {v2.kind.value})", ok)


def test_criterion_4_kernel_oracle_equivalence():
    rnd = random.Random(404)
    trials = 0
    ok = True
    while trials < 200:
        k = rnd.randint(1, 4)
        deg = 1 if k == 4 else rnd.choice([1, 2])
        m = uniform_matrix(rnd, k, k + 1, deg)
        if all(p.is_zero for p in maximal_minors(m)):
            continue
        trials += 1
        beta, d = kernel_line(m)
        for r in range(k):
            acc = HomogeneousPoly.zero()
            for c in range(k + 1):
                acc = acc + m.entries[r][c] * beta[c]
            if not acc.is_zero:
                ok = False
        oracle = kernel_oracle(m)
        if oracle is None or oracle[1] != d or not proportional(beta, oracle[0]):
            ok = False
    report(4, "kernel oracle equivalence (200 trials)", ok)


def test_criterion_5_section_identities():
    rnd = random.Random(505)
    ok = True
    for _ in range(100):
        terms = {
            mono: F(rnd.randint(-4, 4))
            for mono in monomial_basis(3)
            if mono != (0, 0, 3)
        }
        f = HomogeneousPoly(terms)
        if f.is_zero:
            f = X * X * Z
        if determinant(cubic_section((0, 0, 1), f)).terms != f.terms:
            ok = False
    for _ in range(100):
        while True:
            x1 = random_nonzero_poly(rnd, 1)
            x2 = random_nonzero_poly(rnd, 1)
            from sheafmod.polymatrix import linearly_independent

            if linearly_independent([x1, x2])[0]:
                break
        f = x1 * random_poly(rnd, 3) + x2 * random_poly(rnd, 3)
        if f.is_zero:
            f = x1 * x1 * x1 * x2
        m = quartic_section((x1, x2), f)
        if quartic_reconstruct(m).terms != adapt_to_span((x1, x2), f).terms:
            ok = False
    report(5, "section identities (100 cubics, 100 quartics)", ok)


def _random_matrix_for(rnd, t):
    rows = []
    row_types = []
    for l, (e, nl) in enumerate(t.target.summands):
        row_types += [(l, e)] * nl
    col_types = []
    for i, (d, mi) in enumerate(t.source.summands):
        col_types += [(i, d)] * mi
    for l, e in row_types:
        row = []
        for i, d in col_types:
            if t.is_zeroed(i, l) or e < d:
                row.append(zero)
            else:
                row.append(random_poly(rnd, e - d, -2, 2))
        rows.append(row)
    return PolyMatrix(t, rows)


def _random_polarization(rnd, t):
    while True:
        lams = [F(rnd.randint(1, 9), rnd.randint(10, 30)) for _ in range(t.source.ntypes - 1)]
        rest = F(1) - sum((m * l for (_, m), l in zip(t.source.summands, lams)), F(0))
        lams.append(rest / t.source.summands[-1][1])
        mus = [F(rnd.randint(1, 9), rnd.randint(10, 30)) for _ in range(t.target.ntypes - 1)]
        restm = F(1) - sum((n * m_ for (_, n), m_ in zip(t.target.summands, mus)), F(0))
        mus.append(restm / t.target.summands[-1][1])
        if all(x > 0 for x in lams) and all(x > 0 for x in mus):
            return Polarization(lams, mus)


def test_criterion_6_duality_involutions():
    rnd = random.Random(606)
    ok = True
    for _ in range(500):
        t = random_type(rnd)
        if t.dual().dual() != t:
            ok = False
    for _ in range(500):
        t = random_type(rnd)
        m = _random_matrix_for(rnd, t)
        md = transpose_dual(m)
        if transpose_dual(md).entries != m.entries or transpose_dual(md).type != m.type:
            ok = False
    for _ in range(500):
        tab = random_table(rnd)
        if serre_dual_table(serre_dual_table(tab)) != tab:
            ok = False
    for _ in range(500):
        t = random_type(rnd)
        p = _random_polarization(rnd, t)
        q = dual_polarization(p, t)
        q.validate_for(t.dual())
        if dual_polarization(q, t.dual()) != p:
            ok = False
    # the dual pair of blocks in the same moduli space
    d_case = case_by_id("M(6,3):h1=1")
    e_case = case_by_id("M(6,3):h0m1=1")
    td = d_case.resolution(3)
    ok = ok and td.dual().source.summands == e_case.resolution(3).source.summands
    ok = ok and td.dual().target.summands == e_case.resolution(3).target.summands
    rd = d_case.region(3)
    re = e_case.region(3)
    ok = ok and rd.vertices == ((F(0),), (F(1, 4),)) and rd.free_vars == ("l1",)
    ok = ok and re.vertices == ((F(0),), (F(1, 4),)) and re.free_vars == ("m2",)
    for l1 in (F(1, 16), F(1, 8), F(1, 5)):
        p = Polarization([l1, (1 - l1) / 3], [F(1, 4)])
        q = dual_polarization(p, td)
        if q.mus[-1] != l1:
            ok = False
    report(6, "duality involutions (4 x 500 trials + dual block pair)", ok)


def test_criterion_7_dimension_crosschecks():
    ok = all(quotient_dim_crosscheck("linear", n) for n in range(1, 11))
    ok = ok and all(quotient_dim_crosscheck("cubic", n) for n in (1, 2, 3))
    case = case_by_id("M(n+1,n):h0m1=0")
    for n in range(1, 11):
        if case.codim(n) != 0:
            ok = False
        t = case.resolution(n)
        if hom_space_dim(t) - aut_group_dim(t) != (n + 1) ** 2 + 1:
            ok = False
    report(7, "dimension cross-checks", ok)


def test_criterion_8_euler_beilinson():
    ok = True
    explicit = ("M(6,3):h1=1", "M(4,1):h1=1", "M(5,2):h1=1", "M(6,3):h0m1=1")
    for case in load_registry():
        for n in case.ns():
            res = case.resolution(n)
            kernel_twist = None
            if case.id not in explicit:
                # the derived resolution is the Beilinson monad C^-1 -> C^0;
                # the two M(n,3) cases keep C^-2 = O(-2) as its kernel
                c_m2, c_m1, c_0, c_1 = beilinson_terms(cohomology_table(case, n))
                if c_1 is not None or (c_m1, c_0) != (res.source, res.target):
                    ok = False
                if c_m2 != (BundleSum([(-2, 1)]) if case.id.startswith("M(n,3)") else None):
                    ok = False
                kernel_twist = c_m2.summands[0][0] if c_m2 else None
            k = case.moduli(n)
            if hilbert_of_resolution(res, kernel_twist) != (0, k.r, k.chi):
                ok = False
    # proof values for the first family at n = 2..8
    for n in range(2, 9):
        table = complete_table(
            LinearClass(n + 1, n), {"h0m1": 0, "h1": 0, "h1om": 0}
        )
        if (table.h0m1, table.h1m1, table.h0, table.h1) != (0, 1, n, 0):
            ok = False
        if table.h0om != n - 1:
            ok = False
    report(8, "Euler and four-term-complex consistency", ok)

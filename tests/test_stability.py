import random
import time
from dataclasses import replace
from fractions import Fraction as F
from itertools import accumulate, chain, combinations, product
from math import comb, lcm, prod
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from sheafmod.bundles import MorphismType, parse_resolution_spec
from sheafmod.linalg import right_kernel
from sheafmod.polymatrix import (
    HomogeneousPoly,
    PolyMatrix,
    X,
    Y,
    Z,
    _dual_order,
    _positions,
    determinant,
    monomial_basis,
    transpose_dual,
)
from sheafmod.regions import Polarization, Shape, classify_shapes, enumerate_shapes
from sheafmod.registry import case_by_id, load_registry
from sheafmod.stability import (
    _SUBSET_CAP,
    FLAGS,
    KoszulClass,
    Verdict,
    VerdictKind,
    Witness,
    _dual_shape,
    _pull_back_transpose_witness,
    _rational_root_binary,
    _row_subset_sweep,
    _views,
    check_case,
    koszul_test,
    search_destabilizer,
    verify_witness,
)
from conftest import random_poly

zero = HomogeneousPoly.zero()
T33 = MorphismType.make([(-1, 3)], [(0, 3)])
PSI1 = PolyMatrix(T33, [[X, Y, zero], [Z, zero, Y], [zero, -Z, X]])


# ---------------------------------------------------------------------------
# zero-block decisions


def _col_witness(m, shape):
    """The row sweep's witness for ``shape`` on m itself."""
    return _row_subset_sweep(_views(m)[0], shape)[0]


def _row_witness(m, shape):
    """The row sweep's witness for ``shape`` found on the transposed view of
    m and pulled back to m."""
    wt = _row_subset_sweep(_views(m)[1], _dual_shape(shape))[0]
    return None if wt is None else _pull_back_transpose_witness(wt)


def test_col1_no_witness_when_stack_full():
    t = MorphismType.make([(-1, 2)], [(0, 2)])
    m = PolyMatrix(t, [[X, Y], [Y, X]])
    assert _col_witness(m, Shape((1,), (1,))) is None


def test_col1_equal_columns():
    t = MorphismType.make([(-1, 2)], [(0, 2)])
    m = PolyMatrix(t, [[X, X], [Y, Y]])
    w = _col_witness(m, Shape((2,), (1,)))
    assert w is not None
    assert sorted(w.col_combos[0]) == [F(-1), F(1)]
    assert verify_witness(m, w)


def test_row1_displayed_pattern():
    m = PolyMatrix(T33, [[zero, zero, X], [zero, zero, Y], [X, Y, Z]])
    w = _row_witness(m, Shape((1,), (2,)))
    assert w is not None and verify_witness(m, w)


def test_row1_koszul_matrix_has_none():
    assert _row_witness(PSI1, Shape((1,), (2,))) is None


def test_row1_multi_type_source_keeps_column_order():
    # the shape names the degree-2 column type, so that column is the block's
    from sheafmod.polymatrix import parse_matrix_file

    m = parse_matrix_file("type: src=(-2)x1,(-1)x1 tgt=(0)x2\nX^2 | X\nX^2 | X\n")
    w = _row_witness(m, Shape((1,), (1, 0)))
    assert w.shape.rows == (1,) and w.shape.cols == (1, 0)
    assert w.col_combos == ((F(1), F(0)),)
    assert w.row_combos == ((F(-1), F(1)),)
    assert verify_witness(m, w)


# ---------------------------------------------------------------------------
# koszul classification


def test_koszul_classes():
    assert koszul_test(PSI1) is KoszulClass.KOSZUL
    deg = PolyMatrix(T33, [[X, Y, zero], [zero, zero, X], [zero, zero, Y]])
    assert koszul_test(deg) is KoszulClass.DEGENERATE
    full = PolyMatrix(T33, [[X, zero, zero], [zero, Y, zero], [zero, zero, Z]])
    assert koszul_test(full) is KoszulClass.FULL_RANK_DET
    var = PolyMatrix(T33, [[-Y, X, zero], [-Z, zero, X], [zero, -Z, Y]])
    assert koszul_test(var) is KoszulClass.KOSZUL
    # the zero column is the whole second source type, which a sweep over
    # the first type alone would miss
    from sheafmod.polymatrix import parse_matrix_file

    two_types = parse_matrix_file(
        "type: src=(-1)x2,(0)x1 tgt=(0)x3\nX | Y | 0\nY | Z | 0\nZ | X | 0\n"
    )
    assert koszul_test(two_types) is KoszulClass.DEGENERATE


def test_koszul_primitive_kernel(monkeypatch):
    # the kernel vector koszul_test reads, from kernel_line on a pair of
    # rows, is one of linear forms that kills all three rows of PSI1
    import sheafmod.stability as stability
    from sheafmod.polymatrix import kernel_line

    lines = []

    def recording(m):
        lines.append(kernel_line(m))
        return lines[-1]

    monkeypatch.setattr(stability, "kernel_line", recording)
    assert koszul_test(PSI1) is KoszulClass.KOSZUL
    kernel, degree = next(line for line in lines if line is not None)
    for r in range(3):
        s = HomogeneousPoly.zero()
        for c in range(3):
            s = s + PSI1.entries[r][c] * kernel[c]
        assert s.is_zero
    assert degree == 1 and {k.degree for k in kernel} == {1}


def test_koszul_orbit_invariance(rnd):
    for _ in range(100):
        g = _random_invertible(rnd, 3)
        h = _random_invertible(rnd, 3)
        grid = [
            [
                sum(
                    (
                        PSI1.entries[i][j].scale(g[r][i] * h[j][c])
                        for i in range(3)
                        for j in range(3)
                    ),
                    HomogeneousPoly.zero(),
                )
                for c in range(3)
            ]
            for r in range(3)
        ]
        m = PolyMatrix(T33, grid)
        assert koszul_test(m) is KoszulClass.KOSZUL


def _random_invertible(rnd, n):
    while True:
        g = [[F(rnd.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if _det(g) != 0:
            return g


def _det(g):
    import itertools

    total = F(0)
    n = len(g)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(sign)
        for i in range(n):
            prod *= g[i][perm[i]]
        total += prod
    return total


def test_koszul_psi2_like_is_other(rnd):
    # dense singular matrices without detectable zero patterns
    found = 0
    for _ in range(200):
        rows = [[random_poly(rnd, 1, -2, 2) for _ in range(3)] for _ in range(2)]
        # force the last row to make the determinant vanish: r3 = r1 + r2
        r3 = [rows[0][c] + rows[1][c] for c in range(3)]
        m = PolyMatrix(T33, rows + [r3])
        if any(e.is_zero for row in m.entries for e in row):
            continue
        verdict = koszul_test(m)
        assert verdict in (KoszulClass.DEGENERATE, KoszulClass.OTHER, KoszulClass.KOSZUL)
        found += 1
        if found >= 20:
            break
    assert found >= 20


# ---------------------------------------------------------------------------
# destabilizer search


def sample_polarization_42(n):
    lam1 = F(1, 2 * n)
    lam2 = (1 - lam1) / (n - 1)
    return Polarization([lam1, lam2], [F(1, n)])


def test_search_certifies_small_case():
    t = MorphismType.make([(-2, 2)], [(0, 2)])
    m = PolyMatrix(t, [[X * (X + Y), X * Z], [Y * (X + Y), Y * Z]])
    v = search_destabilizer(m, Polarization([F(1, 2)], [F(1, 2)]), 100, seed=1)
    assert v.kind is VerdictKind.CERTIFIED_SEMISTABLE
    assert determinant(m).is_zero


def test_search_finds_literal_planted_blocks(rnd):
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    p = sample_polarization_42(3)
    labels = classify_shapes(t, p)
    destab = [s for s in enumerate_shapes(t) if labels[s]]
    planted = 0
    while planted < 500:
        shape = rnd.choice(destab)
        grid = [
            [random_poly(rnd, 2 if c == 0 else 1) for c in range(3)]
            for _ in range(3)
        ]
        rows = rnd.sample(range(3), shape.rows[0])
        cols = []
        if shape.cols[0]:
            cols.append(0)
        cols += [1 + j for j in rnd.sample(range(2), shape.cols[1])]
        for r in rows:
            for c in cols:
                grid[r][c] = zero
        m = PolyMatrix(t, grid)
        planted += 1
        v = search_destabilizer(m, p, 50, seed=planted)
        assert v.kind is not VerdictKind.CERTIFIED_SEMISTABLE
        assert v.kind is VerdictKind.DESTABILIZED
        assert verify_witness(m, v.witness)
        # the witness shape must itself be destabilizing
        assert labels[v.witness.shape]


def test_search_seed_reproducible():
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    m = PolyMatrix(
        t,
        [
            [zero, X, Y],
            [X * Y, Z, zero],
            [-(X * X), zero, Z],
        ],
    )
    p = sample_polarization_42(3)
    v1 = search_destabilizer(m, p, 200, seed=42)
    v2 = search_destabilizer(m, p, 200, seed=42)
    assert v1.kind == v2.kind and v1.budget_used == v2.budget_used


def test_search_invariant_under_type_permutations(rnd):
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    p = sample_polarization_42(3)
    grid = [
        [random_poly(rnd, 2 if c == 0 else 1) for c in range(3)] for _ in range(3)
    ]
    grid[0][1] = zero
    grid[0][2] = zero
    m = PolyMatrix(t, grid)
    base = search_destabilizer(m, p, 50, seed=3).kind
    # permute rows (one target type) and the two columns of the second type
    perm_grid = [grid[i] for i in (2, 0, 1)]
    perm_grid = [[row[0], row[2], row[1]] for row in perm_grid]
    m2 = PolyMatrix(t, perm_grid)
    assert search_destabilizer(m2, p, 50, seed=3).kind == base


# ---------------------------------------------------------------------------
# case checks


def koszul_family_matrix(rnd, n):
    case = case_by_id("M(n,3):h0m1=1" if n <= 7 else "M(n,3):h0m1=1+ker")
    t = case.resolution(n)
    rows = []
    phi22 = [[-Y, X, zero], [-Z, zero, X], [zero, -Z, Y]]
    for r in range(n - 3):
        row = [random_poly(rnd, 1) for _ in range(n - 2)] + [zero] * 3
        rows.append(row)
    for i in range(3):
        rows.append([random_poly(rnd, 2) for _ in range(n - 2)] + phi22[i])
    return case, PolyMatrix(t, rows)


def test_check_case_koszul_family(rnd):
    case, m = koszul_family_matrix(rnd, 4)
    report = check_case(m, case, 4, budget=50, seed=2)
    assert report.flags["scalars_zero"]
    assert report.flags["phi22_koszul"]
    assert report.flags["phi21_nonzero"]
    assert report.verdict.kind is not VerdictKind.DESTABILIZED or True


def test_check_case_pattern_violation(rnd):
    case = case_by_id("M(6,3):omega2")
    t = case.resolution(3)
    grid = [
        [X, zero, zero, zero, zero],
        [Y, Z, X, zero, zero],
        [random_poly(rnd, 2), random_poly(rnd, 2), random_poly(rnd, 2), X, Y],
        [random_poly(rnd, 2), random_poly(rnd, 2), random_poly(rnd, 2), Z, Y],
        [random_poly(rnd, 2), random_poly(rnd, 2), random_poly(rnd, 2), X + Z, Y + Z],
    ]
    m = PolyMatrix(t, grid)
    report = check_case(m, case, 3, budget=100, seed=2)
    assert not report.flags["phi11_stable2x3"]
    assert report.verdict.kind is VerdictKind.DESTABILIZED


def test_check_case_scalar_flag():
    case = case_by_id("M(n+2,n):omega1")
    src = [(-2, 2), (-1, 2)]
    tgt = [(-1, 1), (0, 3)]
    t = MorphismType.make(src, tgt)  # no zeroed blocks on the matrix type
    one = HomogeneousPoly.constant(1)
    grid = [
        [X, Y, one, zero],
        [X * X, Y * Y, X, Y],
        [Y * Z, X * Z, Z, X],
        [Z * Z, X * Y, Y, Z],
    ]
    m = PolyMatrix(t, grid)
    report = check_case(m, case, 3, budget=10, seed=0)
    assert report.flags["scalars_zero"] is False
    assert not report.in_wo


@pytest.mark.parametrize("tag", FLAGS)
def test_check_case_computes_every_tag_the_registry_accepts(tag):
    # the load refuses a tag outside FLAGS, so check_case must compute each
    # one inside it
    case = next(c for c in load_registry() if tag in c.checks)
    n = case.n_range[0]
    m = random_member(random.Random(5), case.resolution(n))
    report = check_case(m, replace(case, checks=(tag,)), n, budget=0)
    assert list(report.flags) == [tag]


def random_member(rnd, t):
    """A matrix of type t with random entries in every block it allows."""
    return PolyMatrix(t, [
        [
            zero if t.is_zeroed(i, l) or e < d else random_poly(rnd, e - d, -2, 2)
            for i, (d, mi) in enumerate(t.source.summands)
            for _ in range(mi)
        ]
        for l, (e, nl) in enumerate(t.target.summands)
        for _ in range(nl)
    ])


def test_check_case_refuses_n_outside_the_case():
    # M(4,2):omega1 is published for n = 2 alone, and its resolution does not
    # depend on n: only the case's range tells n = 9 apart
    case = case_by_id("M(4,2):omega1")
    m = random_member(random.Random(5), case.resolution(2))
    with pytest.raises(ValueError, match=r"^case M\(4,2\):omega1 does not admit n=9$"):
        check_case(m, case, 9, budget=0)


def test_check_case_rejects_wrong_type():
    case = case_by_id("M(4,2):omega0")
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    m = PolyMatrix(
        t, [[X * X, X, Y], [Y * Y, Z, X], [Z * Z, Y, Z]]
    )
    with pytest.raises(ValueError):
        check_case(m, case, 2)


def test_realize_witness_yields_literal_block(rnd):
    from sheafmod.stability import realize_witness, _positions

    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    p = sample_polarization_42(3)
    found = 0
    while found < 20:
        grid = [
            [random_poly(rnd, 2 if c == 0 else 1) for c in range(3)]
            for _ in range(3)
        ]
        m = PolyMatrix(t, grid)
        v = search_destabilizer(m, p, 30, seed=found)
        if v.kind is not VerdictKind.DESTABILIZED or v.witness is None:
            found += 1
            continue
        g, h, transformed = realize_witness(m, v.witness)
        shape = v.witness.shape
        row_groups = _positions(t.target)
        col_groups = _positions(t.source)
        for l, b in enumerate(shape.rows):
            for i, a in enumerate(shape.cols):
                for r in row_groups[l][:b]:
                    for c in col_groups[i][:a]:
                        assert transformed.entries[r][c].is_zero
        found += 1


def test_verify_witness_rejects_dependent_combinations():
    # rows 0 and 1 sum to zero on columns 0 and 1, so one row combination
    # kills two columns; repeating it does not make a 2x2 block, and
    # rows(1,)xcols(2,) does not destabilize at this polarization
    from sheafmod.polymatrix import parse_matrix_file
    from sheafmod.regions import Shape
    from sheafmod.stability import Witness

    m = parse_matrix_file(
        "type: src=(-1)x3 tgt=(0)x3\n"
        "-Y+Z | -2*X-2*Y+2*Z | -2*X+2*Z\n"
        "Y-Z | 2*X+2*Y-2*Z | -2*X+2*Y-Z\n"
        "-2*X-2*Y+Z | X-2*Y-Z | -2*X+2*Y+Z\n"
    )
    shape = Shape((2,), (2,))
    cols = ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    combo = (F(-3), F(-3), F(0))
    row0 = _unit(0, 3)
    assert not verify_witness(m, Witness(shape, (combo, combo), cols))
    assert not verify_witness(m, Witness(Shape((1,), (2,)), (row0,), (cols[0], cols[0])))
    assert not verify_witness(m, Witness(shape, (row0, row0), cols))
    assert verify_witness(m, Witness(Shape((1,), (2,)), (combo,), cols))
    v = search_destabilizer(m, Polarization([F(1, 3)], [F(1, 3)]), 300, seed=0)
    assert (v.kind, v.budget_used, v.undecided) == (VerdictKind.UNDETERMINED, 300, (shape,))


@pytest.mark.parametrize(
    "rows, shape, row_combos, col_combos, holds",
    [
        # two block rows named, one given
        ("type: src=(-1)x2 tgt=(0)x2\n0 | Y\nX | Z\n", ((2,), (1,)), [(1, 0)], [(1, 0)], False),
        ("type: src=(-1)x2 tgt=(0)x2\n0 | Y\nX | Z\n", ((1,), (1,)), [(1, 0)], [(1, 0)], True),
        # the column combination on the other source type than the shape names
        ("type: src=(-2)x1,(-1)x1 tgt=(0)x1\nX^2 | 0\n", ((1,), (1, 0)), [(1,)], [(0, 1)], False),
        ("type: src=(-2)x1,(-1)x1 tgt=(0)x1\nX^2 | 0\n", ((1,), (0, 1)), [(1,)], [(0, 1)], True),
        # a column combination across two source types
        ("type: src=(-2)x1,(-1)x1 tgt=(0)x1\n0 | 0\n", ((1,), (1, 0)), [(1,)], [(1, 1)], False),
        ("type: src=(-2)x1,(-1)x1 tgt=(0)x1\n0 | 0\n", ((1,), (1, 1)), [(1,)], [(1, 0), (0, 1)], True),
    ],
)
def test_verify_witness_checks_the_combinations_against_the_shape(
    rows, shape, row_combos, col_combos, holds
):
    from sheafmod.polymatrix import parse_matrix_file

    m = parse_matrix_file(rows)
    w = Witness(
        Shape(*shape),
        tuple(tuple(map(F, c)) for c in row_combos),
        tuple(tuple(map(F, c)) for c in col_combos),
    )
    assert verify_witness(m, w) is holds


def test_budget_zero_with_undecided_is_undetermined():
    t = MorphismType.make([(-2, 1), (-1, 4)], [(0, 5)])
    m = _five_by_five()
    p = Polarization([F(1, 10), F(9, 40)], [F(1, 5)])
    v = search_destabilizer(m, p, budget=0, seed=1)
    assert v.kind is VerdictKind.UNDETERMINED
    assert v.undecided


@pytest.mark.parametrize("seed", range(3))
def test_a_witness_that_fails_verification_decides_nothing(seed, monkeypatch):
    # every M(4,2):omega1 matrix is destabilized by its scalar block, a
    # structural zero; with every witness refused that shape must stay open
    import sheafmod.stability as stability

    case = case_by_id("M(4,2):omega1")
    t = case.resolution(2)
    rnd = random.Random(seed)
    m = PolyMatrix(t, [
        [
            zero if t.is_zeroed(i, l) or e < d else random_poly(rnd, e - d, -2, 2)
            for i, (d, mi) in enumerate(t.source.summands)
            for _ in range(mi)
        ]
        for l, (e, nl) in enumerate(t.target.summands)
        for _ in range(nl)
    ])
    monkeypatch.setattr(stability, "verify_witness", lambda m, w: False)
    v = check_case(m, case, 2, budget=0).verdict
    assert v.kind is not VerdictKind.CERTIFIED_SEMISTABLE
    assert v.witness is None and Shape((1, 0), (0, 1)) in v.undecided


def _five_by_five():
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


def test_polarization_validation():
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    with pytest.raises(ValueError):
        Polarization([F(1, 6)], [F(1, 3)]).validate_for(t)  # arity
    with pytest.raises(ValueError):
        Polarization([F(1, 2), F(1, 2)], [F(1, 3)]).validate_for(t)  # sum
    with pytest.raises(ValueError):
        Polarization([F(-1, 6), F(7, 12)], [F(1, 3)]).validate_for(t)  # sign
    Polarization([F(1, 6), F(5, 12)], [F(1, 3)]).validate_for(t)


def test_check_case_square_diagonal_certifies():
    case = case_by_id("M(4,2):omega0")
    t = case.resolution(2)
    q1 = X * X + Y * Z
    q2 = Y * Y - X * Z
    m = PolyMatrix(t, [[q1, zero], [zero, q2]])
    report = check_case(m, case, 2, budget=50, seed=0)
    assert report.flags["det_nonzero"]
    assert report.verdict.kind is VerdictKind.CERTIFIED_SEMISTABLE


def test_quartic_section_lands_in_koszul_family(rnd):
    """The 4x5 section matrix of a quartic is a member of the kernel-family
    type at n=4 and passes that case's structural checks."""
    from sheafmod.polymatrix import quartic_section

    case = case_by_id("M(n,3):h0m1=1")
    for _ in range(5):
        g = random_poly(rnd, 3)
        h = random_poly(rnd, 3)
        f = X * g + Y * h
        if f.is_zero:
            continue
        sigma = quartic_section((X, Y), f)
        report = check_case(sigma, case, 4, budget=30, seed=1)
        assert report.flags["scalars_zero"]
        assert report.flags["phi22_koszul"]


def test_pencil_finds_non_integer_rational_root():
    # the pencil gcd is X + 1/2*Y, with the root (-1/2 : 1)
    from sheafmod.polymatrix import parse_matrix_file

    m = parse_matrix_file(
        "type: src=(-1)x2 tgt=(0)x3\n"
        "3*X + 2*Y | X + Y\n"
        "X + 2*Y + 6*Z | Y + 3*Z\n"
        "-X + 2*Z | -X + Z\n"
    )
    v = search_destabilizer(m, Polarization([F(1, 2)], [F(1, 3)]), 0)
    assert v.kind is VerdictKind.DESTABILIZED
    assert v.witness is not None and verify_witness(m, v.witness)
    assert v.note == ""
    (combo,) = v.witness.col_combos
    assert combo[0] == -combo[1] / 2


def _root_by_divisors(g):
    """The brute-force oracle: every ratio of a divisor of the constant term to
    one of the leading coefficient of g(t, 1), least |numerator|, then least
    denominator, positive first."""
    c = {a: v for (a, _, _), v in g.coeffs.items()}
    d = g.degree
    if d not in c:
        return (F(1), F(0))
    if 0 not in c:
        return (F(0), F(1))
    divisors = lambda x: [k for k in range(1, abs(x) + 1) if x % k == 0]
    roots = [
        F(sign * p, q)
        for p in divisors(c[0]) for q in divisors(c[d]) for sign in (1, -1)
        if sum(v * F(sign * p, q) ** e for e, v in c.items()) == 0
    ]
    if not roots:
        return None
    return min(roots, key=lambda t: (abs(t.numerator), t.denominator, t < 0)), F(1)


_binary_factor = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any).map(
        lambda ab: HomogeneousPoly({(1, 0, 0): ab[0], (0, 1, 0): ab[1]})
    ),
    st.tuples(st.integers(1, 4), st.integers(-4, 4), st.integers(1, 4)).map(
        lambda abc: HomogeneousPoly({(2, 0, 0): abc[0], (1, 1, 0): abc[1], (0, 2, 0): abc[2]})
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_binary_factor, st.integers(1, 2)), min_size=1, max_size=3))
@example([(X - Y.scale(2), 1), (X.scale(2) + Y, 2), (X + Y.scale(2), 1)])  # roots 2, -1/2, -2
def test_pencil_rational_root_matches_divisor_oracle(factors):
    # repeated linear factors, irrational quadratics and rational ones
    g = prod((f for f, k in factors for _ in range(k)), start=HomogeneousPoly({(0, 0, 0): 1}))
    assert _rational_root_binary(g) == _root_by_divisors(g)


def test_pencil_root_with_thirty_one_digits_is_fast():
    # the gcd's root -N once cost time in sqrt(N) to find
    from sheafmod.polymatrix import parse_matrix_file

    n = 10**30 + 57
    m = parse_matrix_file(
        f"type: src=(-1)x2 tgt=(0)x3\nX | {n}*X + Z\nY | {n}*Y + 2*Z\nZ | {n + 3}*Z\n"
    )
    start = time.perf_counter()
    v = search_destabilizer(m, Polarization([F(1, 2)], [F(1, 3)]), 0)
    assert time.perf_counter() - start < 1
    assert v.kind is VerdictKind.DESTABILIZED and verify_witness(m, v.witness)
    assert v.witness.col_combos == ((F(-n), F(1)),)


def _hidden_two_by_two(rnd):
    """A 2x2 zero block hidden by row and column mixing: only the random pass
    finds it, after some trials."""
    from sheafmod.stability import apply_transforms

    grid = [[random_poly(rnd, 1) for _ in range(3)] for _ in range(3)]
    grid[0][0] = grid[0][1] = grid[1][0] = grid[1][1] = zero
    G = [[F(1), F(0), F(1)], [F(0), F(1), F(1)], [F(1), F(1), F(1)]]
    H = [[F(1), F(1), F(0)], [F(0), F(1), F(1)], [F(1), F(0), F(1)]]
    return apply_transforms(PolyMatrix(T33, grid), G, H)


def test_search_repeats_on_same_and_rebuilt_matrix(rnd):
    """Nothing computed for one call leaks into the next: the same matrix
    object and a freshly built equal one give equal verdicts."""
    hidden = _hidden_two_by_two(rnd)
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    cases = [
        (hidden, Polarization([F(1, 3)], [F(1, 3)]), 400),
        (_five_by_five(), Polarization([F(1, 10), F(9, 40)], [F(1, 5)]), 300),
        (PolyMatrix(t, [[zero, X, Y], [X * Y, Z, zero], [-(X * X), zero, Z]]),
         sample_polarization_42(3), 200),
    ]
    verdicts = []
    for m, p, budget in cases:
        rebuilt = PolyMatrix(
            m.type, [[HomogeneousPoly(dict(e.terms)) for e in row] for row in m.entries]
        )
        first = search_destabilizer(m, p, budget, seed=7)
        assert search_destabilizer(m, p, budget, seed=7) == first
        assert search_destabilizer(rebuilt, p, budget, seed=7) == first
        verdicts.append(first)
    assert verdicts[0].kind is VerdictKind.DESTABILIZED
    assert 0 < verdicts[0].budget_used < 400 and verify_witness(hidden, verdicts[0].witness)


def _hidden_block(seed):
    """A 3x3 of linear forms with a zero block of a seeded shape, hidden by
    seeded invertible row and column transforms with entries in {-1, 0, 1}."""
    from sheafmod.linalg import rank
    from sheafmod.stability import apply_transforms

    rnd = random.Random(seed)
    b, a = rnd.choice([(2, 2), (1, 3), (3, 1), (2, 1), (1, 2)])
    grid = [
        [zero if r < b and c < a else random_poly(rnd, 1) for c in range(3)]
        for r in range(3)
    ]

    def invertible():
        while True:
            g = [[F(rnd.randint(-1, 1)) for _ in range(3)] for _ in range(3)]
            if rank(g) == 3:
                return g

    return apply_transforms(PolyMatrix(T33, grid), invertible(), invertible())


def _pinned(kind, used, undecided, shape=None, cols=(), rows=()):
    witness = None
    if shape is not None:
        witness = Witness(
            Shape(*shape),
            tuple(tuple(map(F, r)) for r in rows),
            tuple(tuple(map(F, c)) for c in cols),
        )
    return Verdict(kind, witness, used, tuple(Shape(*u) for u in undecided))


# verdicts of the random pass recorded before its trials were made cheaper;
# every draw, refusal and witness must stay the same
S22 = ((2,), (2,))
PINNED_RANDOM_PASS = [
    (
        "hidden 2x2",
        lambda: _hidden_two_by_two(random.Random(20240817)),
        400,
        7,
        _pinned(
            VerdictKind.DESTABILIZED, 165, [S22], S22,
            cols=((0, 1, 0), (-1, 0, 1)), rows=((0, 1, -1), (-2, 3, -1)),
        ),
    ),
    (
        "hidden block 0",
        lambda: _hidden_block(0),
        300,
        0,
        _pinned(VerdictKind.UNDETERMINED, 300, [S22]),
    ),
    (
        "hidden block 5",
        lambda: _hidden_block(5),
        300,
        5,
        _pinned(VerdictKind.UNDETERMINED, 300, [S22]),
    ),
    (
        "hidden block 14",
        lambda: _hidden_block(14),
        300,
        14,
        _pinned(
            VerdictKind.DESTABILIZED, 57, [S22], S22,
            cols=((1, 1, 0), (0, 0, 1)), rows=((2, -1, -3), (-1, -2, -1)),
        ),
    ),
    (
        "hidden block 19",
        lambda: _hidden_block(19),
        300,
        19,
        _pinned(
            VerdictKind.DESTABILIZED, 35, [S22], S22,
            cols=((1, 0, 0), (0, 1, 1)), rows=((0, 3, 0), (-3, 3, 3)),
        ),
    ),
    (
        "hidden block 28",
        lambda: _hidden_block(28),
        300,
        28,
        _pinned(
            VerdictKind.DESTABILIZED, 241, [S22], S22,
            cols=((1, 1, 0), (1, 0, 1)), rows=((1, 2, -3), (3, 0, -3)),
        ),
    ),
]


@pytest.mark.parametrize(
    "build, budget, seed, expected",
    [c[1:] for c in PINNED_RANDOM_PASS],
    ids=[c[0] for c in PINNED_RANDOM_PASS],
)
def test_random_pass_is_pinned_draw_for_draw(build, budget, seed, expected):
    p = Polarization([F(1, 3)], [F(1, 3)])
    assert search_destabilizer(build(), p, budget, seed) == expected


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts the bits asked of its ``getrandbits``."""

    bits = 0

    def getrandbits(self, k):
        self.bits += k
        return super().getrandbits(k)


def _words_used(weights, read):
    """The words that a weight source's draws so far would take one call at
    a time, given the words it has read: those of the chunks before its
    current one, and those of the current one up to the word after the last
    draw."""
    return read - len(weights._words) // 4 + weights._word()


def _advance(rng, words):
    """Move a generator on by 32-bit words, as ``words`` draws of
    ``getrandbits(k)`` with k <= 32 would, and return it."""
    rng.getrandbits(32 * words)
    return rng


def test_weights_are_the_randint_and_randrange_stream():
    """``_Weights`` reads its generator's words in bulk, yet gives, call for
    call, what a plain ``random.Random`` of the same seed gives: ``draw(n)``
    is ``[randint(-3, 3) for _ in range(n)]`` and ``randrange(n)`` is
    ``randrange(n)``, and ``_words_used`` is where the plain generator stands
    after them.  This pins CPython behaviour that the random pass relies on:
    ``getrandbits(32 * k)`` returns k successive 32-bit words, least
    significant first, and ``randint`` and ``randrange`` go through
    ``_randbelow``, which takes the top ``n.bit_length()`` bits of one word
    per try until they are below n, so ``randrange(1)`` tries until a top bit
    is 0.  Interleaved widths 1 to 9 run past several chunk boundaries; the
    cases counted below must all occur."""
    from sheafmod.stability import _Weights

    chunk_ends = set(accumulate(min(64 << j, 2048) for j in range(12)))
    seen = {"straddle": 0, "randrange(1)": 0, "zero row at a chunk end": 0}
    for seed in range(300):
        rng, slow, widths = _CountingRandom(seed), random.Random(seed), random.Random(seed + 10**6)
        fast = _Weights(rng)
        for _ in range(600):
            before = _words_used(fast, rng.bits // 32)
            # single weights near a chunk's end, so that some zero row ends
            # on its last word
            n = 1 if any(0 < e - before < 9 for e in chunk_ends) else widths.randint(1, 9)
            got = fast.draw(n)
            assert got == [slow.randint(-3, 3) for _ in range(n)], (seed, n)
            after = _words_used(fast, rng.bits // 32)
            seen["straddle"] += any(before < e < after for e in chunk_ends)
            # the pass takes randrange(n) after a row of zeros; add more, and
            # some in a row, each read on from where the one before stopped
            if not any(got) or widths.random() < 0.05:
                seen["randrange(1)"] += n == 1
                seen["zero row at a chunk end"] += not any(got) and after in chunk_ends
                for _ in range(widths.choice((1, 1, 1, 2, 3))):
                    assert fast.randrange(n) == slow.randrange(n), (seed, n)
        end = _words_used(fast, rng.bits // 32)
        assert end > 2048
        assert _advance(random.Random(seed), end).getstate() == slow.getstate()
    assert all(count > 10 for count in seen.values()), seen


def _counted_reads(monkeypatch):
    """Count the weight sources the search builds, in a list, and the bits
    asked of any generator's ``getrandbits``, in another."""
    import sheafmod.stability as stability

    built, bits = [], []

    class Counted(stability._Weights):
        def __init__(self, rng):
            super().__init__(rng)
            built.append(self)

    getrandbits = random.Random.getrandbits

    def counted(self, k):
        bits.append(k)
        return getrandbits(self, k)

    monkeypatch.setattr(stability, "_Weights", Counted)
    monkeypatch.setattr(random.Random, "getrandbits", counted)
    return built, bits


def test_a_search_with_no_trial_reads_no_word(monkeypatch):
    # a budget-0 search, and the acceptance-3 3x3 and 2x2 at budget 10^4,
    # which decide every shape exactly, build no weight source and read no
    # generator word
    built, bits = _counted_reads(monkeypatch)
    t3 = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    t2 = MorphismType.make([(-2, 2)], [(0, 2)])
    p5 = Polarization([F(1, 10), F(9, 40)], [F(1, 5)])
    cases = [
        (_five_by_five(), p5, 0, VerdictKind.UNDETERMINED),
        (
            PolyMatrix(t3, [[zero, X, Y], [X * Y, Z, zero], [-(X * X), zero, Z]]),
            sample_polarization_42(3),
            10**4,
            VerdictKind.CERTIFIED_SEMISTABLE,
        ),
        (
            PolyMatrix(t2, [[X * (X + Y), X * Z], [Y * (X + Y), Y * Z]]),
            Polarization([F(1, 2)], [F(1, 2)]),
            10**4,
            VerdictKind.CERTIFIED_SEMISTABLE,
        ),
    ]
    for m, p, budget, kind in cases:
        v = search_destabilizer(m, p, budget, seed=11)
        assert v.kind is kind and v.budget_used == 0
    assert built == [] and bits == []
    # chunks of 64 words, doubling up to 2 048
    search_destabilizer(_five_by_five(), p5, 10**4, seed=11)
    assert len(built) == 1 and len(bits) > 8
    assert bits[:6] == [32 * (64 << j) for j in range(6)] and set(bits[6:]) == {32 * 2048}


@pytest.mark.parametrize(
    "build, budget, seed, expected",
    [c[1:] for c in PINNED_RANDOM_PASS if c[-1].kind is VerdictKind.DESTABILIZED],
    ids=[c[0] for c in PINNED_RANDOM_PASS if c[-1].kind is VerdictKind.DESTABILIZED],
)
def test_a_search_that_ends_early_reads_about_twice_the_words_it_used(
    build, budget, seed, expected, monkeypatch
):
    # chunks double from 64 words, and one is read only when a draw needs
    # it, so the words read stay below twice the words used, plus 64
    m = build()
    built, bits = _counted_reads(monkeypatch)
    assert search_destabilizer(m, Polarization([F(1, 3)], [F(1, 3)]), budget, seed) == expected
    (weights,) = built
    read = sum(bits) // 32
    used = _words_used(weights, read)
    assert used <= read <= 2 * used + 64, (used, read)


def test_negative_budget_is_refused():
    p = Polarization([F(1, 10), F(9, 40)], [F(1, 5)])
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        search_destabilizer(_five_by_five(), p, -1)


def test_negative_seed_is_refused():
    # random.Random(-3) draws what random.Random(3) draws
    p = Polarization([F(1, 10), F(9, 40)], [F(1, 5)])
    with pytest.raises(ValueError, match="seed must be nonnegative, not -3"):
        search_destabilizer(_five_by_five(), p, 10, seed=-3)


def test_random_pass_on_the_five_by_five_is_pinned():
    # two source types; every trial is refused, so all 12 open shapes keep
    # their 833 trials each
    p = Polarization([F(1, 10), F(9, 40)], [F(1, 5)])
    v = search_destabilizer(_five_by_five(), p, 10**4, seed=11)
    open_shapes = [
        ((2,), (0, 3)), ((2,), (1, 3)), ((3,), (0, 2)), ((3,), (0, 3)),
        ((3,), (1, 2)), ((3,), (1, 3)), ((4,), (0, 1)), ((4,), (0, 2)),
        ((4,), (0, 3)), ((4,), (1, 1)), ((4,), (1, 2)), ((4,), (1, 3)),
    ]
    assert v == _pinned(VerdictKind.UNDETERMINED, 9996, open_shapes)


def _embed_fractions(positions, values, width):
    """The zero vector of the given width with the values at the positions."""
    vec = [F(0)] * width
    for p, v in zip(positions, values):
        vec[p] = F(v)
    return tuple(vec)


def _kernel_only_trial(view, shape, rng):
    """One random trial refused by ``right_kernel`` alone, as the pass ran
    before its rank-only refusal: the same draws (``randint(-3, 3)`` per row
    of the type, and ``randrange`` for a draw of all zeros), the virtual rows
    read from the coefficient slices, and a type refused when its kernel has
    fewer vectors than the shape needs."""
    samples = []
    for l, b in enumerate(shape.rows):
        g = view.row_groups[l]
        for _ in range(b):
            coeffs = [rng.randint(-3, 3) for _ in g]
            if not any(coeffs):
                coeffs[rng.randrange(len(g))] = 1
            samples.append((g, coeffs))
    col_combos = []
    for i, a in enumerate(shape.cols):
        if a == 0:
            continue
        cols = view.col_groups[i]
        stack = [
            [sum(w * view.slices[r][i][t][c] for w, r in zip(coeffs, g)) for c in range(len(cols))]
            for g, coeffs in samples
            for t in range(len(view.slices[g[0]][i]))
        ]
        kernel = right_kernel(stack, len(cols))
        if len(kernel) < a:
            return None
        col_combos += [_embed_fractions(cols, k, view.ncols) for k in kernel[:a]]
    row_combos = tuple(_embed_fractions(g, coeffs, view.nrows) for g, coeffs in samples)
    return Witness(shape, row_combos, tuple(col_combos))


def _widened(rnd, m):
    """G.m.H for diagonal G and H whose entries are rationals of up to 40
    digits above and below the bar, of either sign: every block of m, hidden
    or not, is kept, and its coefficients get up to 80 digits, mixed signs
    and fraction contents, so the coefficient slices pass 64 bits by far."""

    def big():
        num, den = (rnd.randint(1, 10 ** rnd.randint(1, 40)) for _ in range(2))
        return F(rnd.choice((-1, 1)) * num, den)

    a, b = [big() for _ in range(m.nrows)], [big() for _ in range(m.ncols)]
    return PolyMatrix(
        m.type, [[e.scale(x * y) for e, y in zip(row, b)] for row, x in zip(m.entries, a)]
    )


def test_rank_only_refusal_keeps_every_trial_of_the_kernel_only_pass():
    # trial for trial on the same seeded stream: the same witness or refusal,
    # and the same stream position after it, on every destabilizing shape of
    # tiny and wide types (some with a planted block), of registry types, of
    # planted members of the registry types with a zeroed block, and of
    # members with coefficients of up to 80 digits; one trial plan per shape
    # serves all of its trials, as in the search
    from sheafmod.registry import load_registry
    from sheafmod.stability import _TrialPlan, _Weights
    from test_shape_lattice import (
        TINY_TYPES,
        WIDE_TYPE,
        _matrix,
        _random_polarization,
        _random_verdicts_matrix,
        _zeroed_registry_types,
    )

    rnd = random.Random(5151)
    inputs = []
    for t in [*TINY_TYPES, WIDE_TYPE]:
        for k in range(4):
            p = _random_polarization(rnd, t)
            destab = [s for s, d in classify_shapes(t, p).items() if d]
            plant = rnd.choice(destab) if k % 2 else None
            inputs.append((_matrix(rnd, t, plant), destab))
    for case in load_registry():
        n = case.ns()[0]
        t = case.resolution(n)
        labels = classify_shapes(t, case.sample_polarization(n))
        inputs.append((_random_verdicts_matrix(rnd, t), [s for s, d in labels.items() if d]))
    family = ["kept"] * len(inputs)
    for _, _, t, p in _zeroed_registry_types():
        destab = [s for s, d in classify_shapes(t, p).items() if d]
        inputs.append((_matrix(rnd, t, rnd.choice(destab)), destab))
        family.append("zeroed")
    for t in [*TINY_TYPES, WIDE_TYPE]:
        for k in range(2):
            p = _random_polarization(rnd, t)
            destab = [s for s, d in classify_shapes(t, p).items() if d]
            plant = rnd.choice(destab) if k else None
            inputs.append((_widened(rnd, _matrix(rnd, t, plant)), destab))
            family.append("wide")
    count = {(f, w): 0 for f in ("kept", "zeroed", "wide") for w in (False, True)}
    for k, (m, destab) in enumerate(inputs):
        view = _views(m)[0]
        for shape in destab:
            rng, slow = _CountingRandom(k), random.Random(k)
            fast = _Weights(rng)
            # a generator moved word by word to where the trials stand
            at, used = random.Random(k), 0
            plan = _TrialPlan(view, shape)
            for _ in range(4):
                w = plan.trial(fast)
                assert w == _kernel_only_trial(view, shape, slow), (m.entries, shape)
                now = _words_used(fast, rng.bits // 32)
                _advance(at, now - used)
                used = now
                assert at.getstate() == slow.getstate()
                count[family[k], w is not None] += 1
    refused, accepted = count["kept", False], count["kept", True]
    assert refused > 4000 and accepted > 150, count
    assert all(n > 0 for n in count.values()), count


def test_search_builds_one_trial_plan_per_open_shape(monkeypatch):
    # the 5x5 at budget 10^4: one plan per open shape, in the order of the
    # open shapes, serves all 833 of its trials
    import sheafmod.stability as stability

    plans = []

    class Counted(stability._TrialPlan):
        def __init__(self, view, shape):
            super().__init__(view, shape)
            self.trials = 0
            plans.append(self)

        def trial(self, rng):
            self.trials += 1
            return super().trial(rng)

    monkeypatch.setattr(stability, "_TrialPlan", Counted)
    p = Polarization([F(1, 10), F(9, 40)], [F(1, 5)])
    v = search_destabilizer(_five_by_five(), p, 10**4, seed=11)
    assert [plan.shape for plan in plans] == list(v.undecided)
    assert [plan.trials for plan in plans] == [833] * 12
    # a budget below the open shapes' count gives one trial to each of the
    # first shapes and builds no plan for the rest
    plans.clear()
    v = search_destabilizer(_five_by_five(), p, 5, seed=11)
    assert [plan.shape for plan in plans] == list(v.undecided[:5])
    assert [plan.trials for plan in plans] == [1] * 5 and v.budget_used == 5


def _formula_matrix(t, coeff):
    """The member of type t whose entry (r, c) has the coefficient
    ``coeff(r, c, j)`` at its j-th monomial, and is zero on a zeroed block."""
    srcs = [(i, d) for i, (d, mi) in enumerate(t.source.summands) for _ in range(mi)]
    tgts = [(l, e) for l, (e, nl) in enumerate(t.target.summands) for _ in range(nl)]
    return PolyMatrix(t, [
        [
            zero if t.is_zeroed(i, l) or e < d
            else HomogeneousPoly({mono: coeff(r, c, j) for j, mono in enumerate(monomial_basis(e - d))})
            for c, (i, d) in enumerate(srcs)
        ]
        for r, (l, e) in enumerate(tgts)
    ])


class _FixedWeights:
    """A weight source whose every draw is the given weights."""

    def __init__(self, weights):
        self.weights = weights

    def draw(self, n):
        assert n == len(self.weights)
        return list(self.weights)

    def randrange(self, n):
        raise AssertionError("no draw is all zeros")


def test_packed_virtual_rows_are_the_virtual_rows_at_the_extreme_weights(monkeypatch):
    # no random stream: on both views of members with coefficients of 70 to
    # 80 digits (equal ones, which reach the slot bound 3 * rows * top; mixed
    # signs over fraction contents; and ones that grow down the rows, so the
    # largest is not in the first row), and of the registry types with a
    # zeroed block, a trial of one block row of type l against one column of
    # source type i hands ``rank_exceeds`` packed rows that, read slot by
    # slot, are exactly the virtual rows read from the coefficient slices,
    # and none for a zero combination, at
    # weights all +3, all -3, alternating in sign, and at each unit vector; a
    # source type of width one (bound 0) unpacks nothing and refuses exactly
    # a nonzero combination
    import sheafmod.stability as stability
    from sheafmod.stability import _TrialPlan, _unit
    from test_shape_lattice import TINY_TYPES, WIDE_TYPE, _zeroed_registry_types

    unpacked = []

    def read_all(rows, bound, k, offset):
        # the offset holds 2^(k-1) in each of a row's slots, the last one
        # ending at bit k * w
        half, mask, w = 1 << k - 1, (1 << k) - 1, offset.bit_length() // k
        unpacked.extend([((v + offset) >> k * c & mask) - half for c in range(w)] for v in rows)
        return True

    monkeypatch.setattr(stability, "rank_exceeds", read_all)
    top = 10**80 - 1
    formulas = [
        lambda r, c, j: top,
        lambda r, c, j: F((-1) ** (r + c + j) * (top - 7 * r - 11 * c - 13 * j), r + c + 2),
        lambda r, c, j: (-1) ** j * 10 ** (70 + r),
    ]
    members = [
        _formula_matrix(t, f)
        for t in [*TINY_TYPES, WIDE_TYPE, *(t for _, _, t, _ in _zeroed_registry_types())]
        for f in formulas
    ]
    checked, widths, zero_blocks = 0, [], 0
    for m in members:
        for view in _views(m):
            ntypes = len(view.col_groups)
            for l, g in enumerate(view.row_groups):
                size = len(g)
                weights = [
                    [3] * size,
                    [-3] * size,
                    [3 * (-1) ** r for r in range(size)],
                    [-3 * (-1) ** r for r in range(size)],
                    *([int(r == u) for r in range(size)] for u in range(size)),
                ]
                for i in range(ntypes):
                    plan = _TrialPlan(view, Shape(_unit(l, len(view.row_groups)), _unit(i, ntypes)))
                    slices = [view.slices[r][i] for r in g]
                    width = len(view.col_groups[i])
                    widths.append(view.packed(l, i).k)
                    zero_blocks += not any(v for row in slices for mono in row for v in mono)
                    for w in weights:
                        unpacked.clear()
                        expected = [
                            [sum(x * row[t][c] for x, row in zip(w, slices)) for c in range(width)]
                            for t in range(len(slices[0]))
                        ]
                        refused = plan.trial(_FixedWeights(w)) is None
                        if width == 1:
                            assert not unpacked and refused == any(map(any, expected))
                        else:
                            assert refused
                            assert unpacked == (expected if any(map(any, expected)) else [])
                        checked += 1
    # some blocks are all zero (a zeroed block, or one of negative degree)
    assert checked > 1500 and zero_blocks and max(widths) > 256, (checked, zero_blocks, max(widths))


def test_search_packs_each_row_type_once_per_source_type(monkeypatch):
    # the 5x5 at budget 10^4 has one row type and two source types: its 12
    # trial plans share two packs, built once per search
    import sheafmod.stability as stability

    built = []

    class Counted(stability._Packed):
        __slots__ = ()

        def __init__(self, slices, w, k):
            super().__init__(slices, w, k)
            built.append(w)

    monkeypatch.setattr(stability, "_Packed", Counted)
    p = Polarization([F(1, 10), F(9, 40)], [F(1, 5)])
    v = search_destabilizer(_five_by_five(), p, 10**4, seed=11)
    assert len(v.undecided) == 12 and sorted(built) == [1, 4]
    search_destabilizer(_five_by_five(), p, 10**4, seed=11)
    assert sorted(built) == [1, 1, 4, 4]


@pytest.mark.parametrize(
    "rows, kind, witness, note",
    [
        # no one-row pencil drops rank anywhere
        ("X | Y | Z\nY | Z | X\n", VerdictKind.CERTIFIED_SEMISTABLE, None, ""),
        # the pencil on the transpose decides a one-row, two-column block
        (
            "X | Y | X + Y\nY | X | X + Y\n",
            VerdictKind.DESTABILIZED,
            ((F(1), F(1)),),
            "",
        ),
        # the transposed pencil's gcd X^2 + Y^2 has no rational root
        (
            "X | Y | 0\n-Y | X | 0\n",
            VerdictKind.DESTABILIZED,
            None,
            "destabilizer exists over the closure; no rational witness",
        ),
    ],
)
def test_transposed_pencil_decides_one_row_shapes(rows, kind, witness, note):
    from sheafmod.polymatrix import parse_matrix_file

    m = parse_matrix_file("type: src=(-1)x3 tgt=(0)x2\n" + rows)
    v = search_destabilizer(m, Polarization([F(1, 3)], [F(1, 2)]), 0)
    assert (v.kind, v.budget_used, v.undecided, v.note) == (kind, 0, (), note)
    if witness is None:
        assert v.witness is None
    else:
        assert v.witness.shape.rows == (1,) and v.witness.shape.cols == (2,)
        assert v.witness.row_combos == witness
        assert v.witness.col_combos == (
            (F(-1), F(1), F(0)),
            (F(-2), F(0), F(1)),
        )
        assert verify_witness(m, v.witness)


# ---------------------------------------------------------------------------
# the pruned subset walk against a flat enumeration


def _flat_subsets(groups, counts):
    """Every choice of counts[t] positions from each groups[t], flattened in
    itertools.product order; None past the subset cap."""
    if prod(comb(len(g), b) for g, b in zip(groups, counts)) > _SUBSET_CAP:
        return None
    per_type = [combinations(g, b) for g, b in zip(groups, counts)]
    return [tuple(chain.from_iterable(c)) for c in product(*per_type)]


def _unit(c, width):
    return tuple(F(int(j == c)) for j in range(width))


def _flat_sweep(view, shape):
    """The row sweep's answer by trying every row subset in order."""
    subsets = _flat_subsets(view.row_groups, shape.rows)
    if subsets is None:
        return None, False
    decided = all(b in (0, len(g)) for b, g in zip(shape.rows, view.row_groups))
    for rows in subsets:
        kernels = [
            (i, right_kernel([v for r in rows for v in view.slices[r][i]], len(g))[:a])
            for i, (a, g) in enumerate(zip(shape.cols, view.col_groups))
            if a
        ]
        if all(len(k) == shape.cols[i] for i, k in kernels):
            combos = []
            for i, kernel in kernels:
                for vec in kernel:
                    full = [F(0)] * view.ncols
                    for c, v in zip(view.col_groups[i], vec):
                        full[c] = F(v)
                    combos.append(tuple(full))
            units = tuple(_unit(r, view.nrows) for r in rows)
            return Witness(shape, units, tuple(combos)), decided
    return None, decided


def _flat_literal(m, shape):
    """The first literal zero block of the shape, by trying every column
    subset in order."""
    row_groups, col_groups = _positions(m.type.target), _positions(m.type.source)
    for cols in _flat_subsets(col_groups, shape.cols) or ():
        rows = []
        for g, b in zip(row_groups, shape.rows):
            rows += [r for r in g if all(m.entries[r][c].is_zero for c in cols)][:b]
        if len(rows) == sum(shape.rows):
            units = tuple(_unit(r, m.nrows) for r in sorted(rows))
            return Witness(shape, units, tuple(_unit(c, m.ncols) for c in cols))
    return None


def _as_dict_slices(m):
    """The coefficient slices read through Fraction maps: ``as_dict`` per
    entry and, per block, the lcm of all term denominators as the scale."""
    coeffs = [[e.as_dict() for e in row] for row in m.entries]
    slices = [[] for _ in range(m.nrows)]
    for g in _positions(m.type.target):
        for cols in _positions(m.type.source):
            block = [coeffs[r][c] for r in g for c in cols]
            monos = sorted({t for d in block for t in d})
            scale = lcm(*(v.denominator for d in block for v in d.values()))
            for r in g:
                ints = [
                    {t: v.numerator * (scale // v.denominator) for t, v in coeffs[r][c].items()}
                    for c in cols
                ]
                slices[r].append([[d.get(t, 0) for d in ints] for t in monos])
    return slices


@pytest.mark.parametrize(
    "spec", ["src=(-1)x4 tgt=(0)x3", "src=(-2)x2,(-1)x3 tgt=(-1)x2,(0)x3"]
)
def test_coefficient_slices_read_the_integer_maps(spec):
    """Weighting each entry's integer map by its content over the block's
    lcm of content denominators gives the slices of the Fraction maps."""
    t, _ = parse_resolution_spec(spec)
    rnd = random.Random(spec)
    for _ in range(20):
        m = _sparse_matrix(rnd, t, 0.2)
        grid = [
            [e.scale(F(rnd.randint(-30, 30) or 1, rnd.choice((1, 2, 6, 35, 10**12 + 39)))) for e in row]
            for row in m.entries
        ]
        m = PolyMatrix(t, grid)
        assert _views(m)[0].slices == _as_dict_slices(m)


def _sparse_matrix(rnd, t, zero_share):
    """Random forms with a share of entries planted as zero, and sparse
    coefficients, so that literal blocks and small kernels both occur."""
    rows = []
    for e, nl in t.target.summands:
        for _ in range(nl):
            row = []
            for d, mi in t.source.summands:
                for _ in range(mi):
                    if e < d or rnd.random() < zero_share:
                        row.append(zero)
                    else:
                        row.append(random_poly(rnd, e - d, -1, 1))
            rows.append(row)
    return PolyMatrix(t, rows)


# resolution specs for _sparse_matrix, with the share of entries planted zero
SPARSE_TYPES = [
    ("src=(-1)x4 tgt=(0)x3", 0.4),
    ("src=(-2)x2,(-1)x3 tgt=(-1)x2,(0)x3", 0.3),
    ("src=(-2)x3,(-1)x2 tgt=(0)x2,(1)x2", 0.5),
    ("src=(-1)x3,(0)x2 tgt=(0)x2,(1)x3", 0.4),
]


@pytest.mark.parametrize("spec, zero_share", SPARSE_TYPES)
def test_pruned_walk_finds_the_first_witness_of_the_flat_order(spec, zero_share):
    """The depth-first walk returns the witness (and the decided flag) that
    the first accepted subset of a flat enumeration gives, on every shape of
    the type and of its transpose."""
    t, _ = parse_resolution_spec(spec)
    rnd = random.Random(spec)
    found = 0
    for _ in range(3):
        m = _sparse_matrix(rnd, t, zero_share)
        for view, side_type in zip(_views(m), (t, t.dual())):
            for shape in enumerate_shapes(side_type):
                want = _flat_sweep(view, shape)
                assert _row_subset_sweep(view, shape) == want
                found += want[0] is not None
    assert found >= 10


def test_pruned_walk_keeps_the_subset_cap(rnd):
    """Past 4 096 row subsets the sweep gives up undecided; under the cap it
    matches the flat enumeration."""
    t = MorphismType.make([(-1, 15)], [(0, 15)])
    view = _views(_sparse_matrix(rnd, t, 0.6))[0]
    for shape in (Shape((7,), (7,)), Shape((7,), (1,)), Shape((1,), (7,)), Shape((2,), (2,))):
        assert _row_subset_sweep(view, shape) == _flat_sweep(view, shape)
    assert _row_subset_sweep(view, Shape((7,), (1,))) == (None, False)


@pytest.mark.parametrize("spec, zero_share", SPARSE_TYPES)
def test_the_transposed_sweep_finds_every_literal_block(spec, zero_share):
    """A literal block's columns are a row subset of the transpose whose
    kernels hold the unit vectors of the block's rows, and the two walks
    share one subset cap, so the search needs no literal scan of its own."""
    t, _ = parse_resolution_spec(spec)
    rnd = random.Random(spec)
    found = 0
    for _ in range(3):
        m = _sparse_matrix(rnd, t, zero_share)
        for side in (m, transpose_dual(m)):
            tview = _views(side)[1]
            for shape in enumerate_shapes(side.type):
                if _flat_literal(side, shape) is not None:
                    w, _ = _row_subset_sweep(tview, _dual_shape(shape))
                    assert w is not None and w.shape == _dual_shape(shape), (spec, shape)
                    found += 1
    assert found >= 20


def _pull_back_through_dual_orders(m, wt):
    """A witness on ``transpose_dual(m)`` read back on m: its row
    combinations become m's column combinations and its column combinations
    m's row combinations, each permuted through the dual position order."""

    def embed(order, combo):
        vec = [F(0)] * len(order)
        for p, v in zip(order, combo):
            vec[p] = v
        return tuple(vec)

    rows, cols = _dual_order(m.type.target), _dual_order(m.type.source)
    return Witness(
        _dual_shape(wt.shape),
        tuple(embed(rows, c) for c in wt.col_combos),
        tuple(embed(cols, c) for c in wt.row_combos),
    )


def _grouped(m, w):
    """The witness's shape and its row and column combinations, each list
    grouped by the type of their support in m's type order and kept in order
    within a type; None for no witness."""
    if w is None:
        return None

    def by_type(groups, combos):
        return sorted(combos, key=lambda v: next(t for t, g in enumerate(groups) if any(v[p] for p in g)))

    return (
        w.shape,
        by_type(_positions(m.type.target), w.row_combos),
        by_type(_positions(m.type.source), w.col_combos),
    )


def test_the_transposed_view_is_the_view_of_the_dual_transpose():
    """The transposed view, built from m's own entries, holds the groups and
    slices of the view of ``transpose_dual(m)`` read through the dual
    position orders; on every shape its sweep, swapped back to m, gives the
    witness (and the decided flag) of that view pulled back through the dual
    orders.  Where a pencil applies, both views find the same column weights
    and note, and the witnesses completed from them agree type by type."""
    from sheafmod.stability import _ExactPasses, _pencil_decides
    from test_shape_lattice import TINY_TYPES, WIDE_TYPE, _matrix, _random_verdicts_matrix

    rnd = random.Random(3737)
    inputs = [
        _random_verdicts_matrix(rnd, case.resolution(n))
        for case in load_registry()
        for n in case.ns()[:2]
        for _ in range(2)
    ]
    for t in [*TINY_TYPES, WIDE_TYPE]:
        for k in range(10):
            inputs.append(_matrix(rnd, t, rnd.choice(enumerate_shapes(t)) if k % 2 else None))
    found = pencils = 0
    for m in inputs:
        tview, dview = _views(m)[1], _views(transpose_dual(m))[0]
        passes, dpasses = _ExactPasses(m), _ExactPasses(transpose_dual(m))
        rows, cols = _dual_order(m.type.source), _dual_order(m.type.target)
        assert tview.row_groups == [[rows[p] for p in g] for g in dview.row_groups]
        assert tview.col_groups == [[cols[p] for p in g] for g in dview.col_groups]
        assert [tview.slices[r] for r in rows] == dview.slices
        for s in enumerate_shapes(m.type):
            ds = _dual_shape(s)
            w, decided = _row_subset_sweep(tview, ds)
            wd, decided_d = _row_subset_sweep(dview, ds)
            assert decided == decided_d
            assert (w and _pull_back_transpose_witness(w)) == (
                wd and _pull_back_through_dual_orders(m, wd)
            ), (m.entries, s)
            found += w is not None
            if sum(ds.cols) == 1 and len(tview.col_groups[ds.cols.index(1)]) == 2:
                assert _pencil_decides(tview, ds) == _pencil_decides(dview, ds)
                w = passes.run(s, 1, True)[0]
                wd = dpasses.run(ds, 0, True)[0]
                assert _grouped(m, w) == _grouped(
                    m, wd and _pull_back_through_dual_orders(m, wd)
                ), (m.entries, s)
                pencils += w is not None
    assert found > 500 and pencils > 80, (found, pencils)


def _combined_column_witness(view, shape, weights):
    """The reference completion of a pencil's column weights on the pencil's
    own side: per target type l the shape uses, the first b_l vectors of the
    exact kernel of the combined column's coefficients, one equation per
    monomial, as functions of the weights on that type's rows; None when a
    kernel is too small."""
    i = shape.cols.index(1)
    row_combos = []
    for l, b in enumerate(shape.rows):
        if b == 0:
            continue
        g = view.row_groups[l]
        combined = [
            [sum(v * x for v, x in zip(weights, row)) for row in view.slices[r][i]] for r in g
        ]
        kernel = right_kernel(zip(*combined), len(g))
        if len(kernel) < b:
            return None
        row_combos += [_embed_fractions(g, k, view.nrows) for k in kernel[:b]]
    combo = _embed_fractions(view.col_groups[i], weights, view.ncols)
    return Witness(shape, tuple(row_combos), (combo,))


def test_the_pencil_completes_its_column_on_the_other_side_as_the_combined_column_kernel():
    # on both sides of seeded registry draws and of planted matrices of the
    # tiny, wide and registry types, every pencil that applies, run through
    # the exact passes, gives per type exactly the combinations of the
    # combined column's kernel on the pencil's own side, and the same note
    from sheafmod.stability import _ExactPasses, _pencil_decides
    from test_shape_lattice import TINY_TYPES, WIDE_TYPE, _matrix, _random_verdicts_matrix

    rnd = random.Random(4848)
    types = [case.resolution(n) for case in load_registry() for n in case.ns()[:2]]
    inputs = [_random_verdicts_matrix(rnd, t) for t in types for _ in range(2)]
    for t in [*TINY_TYPES, WIDE_TYPE, *types]:
        for _ in range(4):
            inputs.append(_matrix(rnd, t, rnd.choice(enumerate_shapes(t))))
    found = spanning = notes = 0
    for m in inputs:
        passes = _ExactPasses(m)
        for s in enumerate_shapes(m.type):
            for k, (view, on_side, back) in enumerate(passes.sides):
                vs = on_side(s)
                if sum(vs.cols) != 1 or len(view.col_groups[vs.cols.index(1)]) != 2:
                    continue
                weights, note = _pencil_decides(view, vs)
                w, decided, run_note = passes.run(s, k, True)
                assert decided and run_note == note
                expected = None if weights is None else _combined_column_witness(view, vs, weights)
                assert _grouped(m, w) == _grouped(m, expected and back(expected)), (m.entries, s, k)
                found += w is not None
                spanning += w is not None and sum(map(bool, vs.rows)) > 1
                notes += bool(note)
    # 520 witnesses, 172 with block rows of two types, whose kernels the
    # other side lists in its own type order, and 19 notes over the closure
    assert found > 400 and spanning > 120 and notes > 10, (found, spanning, notes)


def _singular_linear_3x3(rnd):
    """A seeded 3x3 of sparse linear forms with determinant zero: a
    skew-symmetric grid, a row with two zeros over a rank-one 2x2, or a row
    that combines the other two; rows and columns shuffled, and transposed
    half of the time."""
    def form():
        return zero if rnd.random() < 0.3 else random_poly(rnd, 1, -1, 1)

    kind = rnd.randrange(3)
    if kind == 0:
        a, b, c = form(), form(), form()
        rows = [[zero, c, -b], [-c, zero, a], [b, -a, zero]]
    elif kind == 1:
        f, g = form(), form()
        u, v = rnd.randint(-2, 2), rnd.randint(-2, 2)
        rows = [[zero, zero, form()], [f.scale(u), g.scale(u), form()], [f.scale(v), g.scale(v), form()]]
    else:
        rows = [[form() for _ in range(3)] for _ in range(2)]
        a, b = rnd.randint(-1, 1), rnd.randint(-1, 1)
        rows.append([x.scale(a) + y.scale(b) for x, y in zip(*rows)])
    rnd.shuffle(rows)
    cols = rnd.sample(range(3), 3)
    rows = [[row[c] for c in cols] for row in rows]
    if rnd.random() < 0.5:
        rows = [list(col) for col in zip(*rows)]
    return PolyMatrix(T33, rows)


def test_koszul_thin_blocks_are_lines_with_two_zeros():
    """On a one-type 3x3 a literal 2x2, 1x2 or 2x1 block exists exactly when
    some row or column has two zero entries, and koszul_test calls a singular
    grid Degenerate exactly when it has such a block or a constant kernel."""
    thin = (Shape((2,), (2,)), Shape((1,), (2,)), Shape((2,), (1,)))
    rnd = random.Random(3131)
    seen = {k: 0 for k in KoszulClass}
    thin_only = 0
    for _ in range(300):
        m = _singular_linear_3x3(rnd)
        literal = any(_flat_literal(m, s) is not None for s in thin)
        two_zeros = any(sum(e.is_zero for e in line) >= 2 for line in (*m.entries, *zip(*m.entries)))
        assert literal == two_zeros, m.entries
        kernel = any(
            _col_witness(side, Shape((3,), (1,))) is not None for side in (m, transpose_dual(m))
        )
        kind = koszul_test(m)
        assert (kind is KoszulClass.DEGENERATE) == (literal or kernel), m.entries
        seen[kind] += 1
        thin_only += literal and not kernel
    # the zero count alone decides some grids, and all three zero-determinant
    # classes occur
    assert thin_only > 20
    assert seen[KoszulClass.KOSZUL] > 5 and seen[KoszulClass.OTHER] > 5

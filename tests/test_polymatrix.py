import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sheafmod import polymatrix
from sheafmod.bundles import MorphismType
from sheafmod.polymatrix import (
    HomogeneousPoly,
    PolyMatrix,
    X,
    Y,
    Z,
    adapt_to_point,
    adapt_to_span,
    cubic_section,
    determinant,
    format_matrix_file,
    kernel_line,
    linearly_independent,
    maximal_minors,
    monomial_basis,
    parse_matrix_file,
    parse_poly,
    poly_gcd,
    quartic_reconstruct,
    quartic_section,
    transpose_dual,
)
from conftest import random_poly, random_nonzero_poly, uniform_matrix

zero = HomogeneousPoly.zero()


def det_oracle(grid):
    """Leibniz permutation-sum determinant on form arithmetic, independent of
    the library's integer expansion."""
    n = len(grid)
    acc = HomogeneousPoly.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = HomogeneousPoly.constant(1)
        for i in range(n):
            term = term * grid[i][perm[i]]
        acc = acc + term if sign > 0 else acc - term
    return acc


def minors_oracle(grid):
    """Maximal minors by det_oracle, in the order maximal_minors documents."""
    r, c = len(grid), len(grid[0])
    if c >= r:
        return [
            det_oracle([[row[j] for j in range(c) if j not in omit] for row in grid])
            for omit in itertools.combinations(range(c), c - r)
        ]
    omits = sorted(itertools.combinations(range(r), r - c), reverse=True)
    return [det_oracle([row for i, row in enumerate(grid) if i not in omit]) for omit in omits]


# ---------------------------------------------------------------------------
# determinant and minors


def test_det_zero_examples():
    t33 = MorphismType.make([(-1, 3)], [(0, 3)])
    psi1 = PolyMatrix(t33, [[X, Y, zero], [Z, zero, Y], [zero, -Z, X]])
    assert determinant(psi1).is_zero
    tq = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    m = PolyMatrix(tq, [[zero, X, Y], [X * Y, Z, zero], [-(X * X), zero, Z]])
    assert determinant(m).is_zero
    t22 = MorphismType.make([(-2, 2)], [(0, 2)])
    m = PolyMatrix(t22, [[X * (X + Y), X * Z], [Y * (X + Y), Y * Z]])
    assert determinant(m).is_zero


def test_det_matches_permutation_oracle(rnd):
    for size in (2, 3, 4):
        for _ in range(6):
            m = uniform_matrix(rnd, size, size, 1)
            assert determinant(m).terms == det_oracle(m.entries).terms


def test_det_requires_square():
    with pytest.raises(ValueError):
        determinant(uniform_matrix(random.Random(0), 2, 3, 1))


def test_maximal_minors_examples():
    t23 = MorphismType.make([(-1, 3)], [(0, 2)])
    m = PolyMatrix(t23, [[X, Y, zero], [zero, X, Y]])
    assert [str(p) for p in maximal_minors(m)] == ["Y^2", "X*Y", "X^2"]
    t32 = MorphismType.make([(-1, 2)], [(0, 3)])
    m = PolyMatrix(t32, [[X, Y], [Y, Z], [Z, X]])
    assert [str(p) for p in maximal_minors(m)] == ["X*Z - Y^2", "X^2 - Y*Z", "X*Y - Z^2"]
    tid = MorphismType.make([(0, 2)], [(0, 3)])
    one = HomogeneousPoly.constant(1)
    m = PolyMatrix(tid, [[one, zero], [zero, one], [zero, zero]])
    assert [str(p) for p in maximal_minors(m)] == ["1", "0", "0"]


# ---------------------------------------------------------------------------
# kernel line


def kernel_oracle(m: PolyMatrix, max_degree: int = 12):
    """Brute-force minimal-degree kernel vector: solve the linear system on
    the coefficients of the unknown polynomial entries, degree by degree."""
    from sheafmod.linalg import right_kernel

    d = next(e.degree for row in m.entries for e in row if not e.is_zero)
    for beta_deg in range(0, max_degree + 1):
        basis = monomial_basis(beta_deg)
        nvars = len(basis) * m.ncols
        rows = []
        for r in range(m.nrows):
            for mono in monomial_basis(beta_deg + d):
                row = []
                for c in range(m.ncols):
                    for b in basis:
                        target = tuple(mi - bi for mi, bi in zip(mono, b))
                        coeff = F(0)
                        if all(t >= 0 for t in target):
                            coeff = m.entries[r][c].coefficient(target)
                        row.append(coeff)
                rows.append(row)
        for vec in right_kernel(rows, nvars):
            beta = []
            for c in range(m.ncols):
                terms = {
                    b: vec[c * len(basis) + i]
                    for i, b in enumerate(basis)
                    if vec[c * len(basis) + i]
                }
                beta.append(HomogeneousPoly(terms))
            if any(not b.is_zero for b in beta):
                return beta, beta_deg
    return None


def proportional(u, v):
    for a, b in itertools.combinations(range(len(u)), 2):
        if not (u[a] * v[b] - u[b] * v[a]).is_zero:
            return False
    return True


def test_kernel_line_examples():
    t23 = MorphismType.make([(-1, 3)], [(0, 2)])
    m = PolyMatrix(t23, [[X, Y, zero], [zero, X, Y]])
    beta, d = kernel_line(m)
    assert [str(b) for b in beta] == ["Y^2", "-X*Y", "X^2"] and d == 2
    t12 = MorphismType.make([(-1, 2)], [(0, 1)])
    beta, d = kernel_line(PolyMatrix(t12, [[X, Y]]))
    assert [str(b) for b in beta] == ["Y", "-X"] and d == 1
    t12q = MorphismType.make([(-2, 2)], [(0, 1)])
    beta, d = kernel_line(PolyMatrix(t12q, [[X * Z, Y * Z]]))
    assert [str(b) for b in beta] == ["Y", "-X"] and d == 1


def test_kernel_line_none_when_minors_vanish():
    t23 = MorphismType.make([(-1, 3)], [(0, 2)])
    m = PolyMatrix(t23, [[X, Y, zero], [X, Y, zero]])
    assert kernel_line(m) is None


def test_kernel_line_matches_oracle(rnd):
    trials = 0
    while trials < 40:
        k = rnd.randint(1, 3)
        deg = rnd.choice([1, 2]) if k <= 2 else 1
        m = uniform_matrix(rnd, k, k + 1, deg)
        if all(p.is_zero for p in maximal_minors(m)):
            continue
        trials += 1
        beta, d = kernel_line(m)
        # exact syzygy
        for r in range(k):
            acc = HomogeneousPoly.zero()
            for c in range(k + 1):
                acc = acc + m.entries[r][c] * beta[c]
            assert acc.is_zero
        # no common factor
        nz = [b for b in beta if not b.is_zero]
        if len(nz) > 1:
            g = nz[0]
            for b in nz[1:]:
                g = poly_gcd(g, b)
            assert g.degree == 0
        oracle = kernel_oracle(m)
        assert oracle is not None
        obeta, od = oracle
        assert od == d
        assert proportional(beta, obeta)


# ---------------------------------------------------------------------------
# gcd


def test_gcd_examples():
    assert str(poly_gcd(X * Z, Y * Z)) == "Z"
    assert str(poly_gcd(X * X, X)) == "X"
    q1, q2 = X * Y - Z * Z, X * X - Y * Z
    assert sylvester_resultant_z(q1, q2) != 0  # independent coprimality witness
    assert str(poly_gcd(q1, q2)) == "1"


def sylvester_resultant_z(a, b):
    """Resultant in Z of two quadrics, evaluated at a random (X, Y) point."""
    pt = (F(3), F(5))

    def univ(p):
        coeffs = [F(0)] * 3
        for (i, j, k), v in p.terms:
            coeffs[k] += v * pt[0] ** i * pt[1] ** j
        return coeffs

    a0, a1, a2 = univ(a)
    b0, b1, b2 = univ(b)
    rows = [
        [a2, a1, a0, 0],
        [0, a2, a1, a0],
        [b2, b1, b0, 0],
        [0, b2, b1, b0],
    ]
    return _det4(rows)


def _det4(rows):
    total = F(0)
    for perm in itertools.permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(sign)
        for i in range(4):
            prod *= rows[i][perm[i]]
        total += prod
    return total


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gcd_divides_and_coprime_quotients(data):
    rnd = random.Random(data.draw(st.integers(0, 10**6)))
    d1, d2 = rnd.choice([1, 2]), rnd.choice([1, 2])
    a = random_nonzero_poly(rnd, d1)
    b = random_nonzero_poly(rnd, d2)
    c = random_nonzero_poly(rnd, 1)
    a, b = a * c, b * c  # plant a common factor
    g = poly_gcd(a, b)
    qa, qb = a.divexact(g), b.divexact(g)
    assert (qa * g).terms == a.terms
    assert (qb * g).terms == b.terms
    assert str(poly_gcd(qa, qb)) == "1"
    assert g.degree >= 1  # the planted factor survives


def test_gcd_when_a_remainder_step_drops_two_degrees():
    # the pseudo-remainder must carry the full power of the leading
    # coefficient, or the next subresultant division is inexact
    a = parse_poly("-6*X*Z^4 + 9*Y*Z^4")
    b = parse_poly("-6*X^2*Z^3 + 4*X*Y^3*Z + 5*X*Y*Z^3 - 6*Y^4*Z + 6*Y^2*Z^3")
    assert str(poly_gcd(a, b)) == "X*Z - 3/2*Y*Z"


def test_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        poly_gcd(zero, zero)


# ---------------------------------------------------------------------------
# modular coprimality certificate in front of the subresultant gcd


def prs_gcd(a, b):
    """``_gcd`` on integer maps with the certificate switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polymatrix, "_coprime_on_line", lambda a, b: False)
        return polymatrix._gcd(a, b)


def planted_pairs(seed, count):
    """Pairs of forms sharing a planted factor of degree 0, 1 or 2, in turn."""
    rnd = random.Random(seed)
    for i in range(count):
        c = random_nonzero_poly(rnd, i % 3)
        a = random_nonzero_poly(rnd, rnd.randint(1, 3)) * c
        b = random_nonzero_poly(rnd, rnd.randint(1, 3)) * c
        yield a, b, c


def test_certificate_agrees_with_the_prs():
    certified = 0
    for a, b, c in planted_pairs(11, 36):
        got = polymatrix._gcd(a.coeffs, b.coeffs)
        assert got == prs_gcd(a.coeffs, b.coeffs)
        if polymatrix._coprime_on_line(a.coeffs, b.coeffs):
            assert c.degree == 0 and got == {(0, 0, 0): 1}
            certified += 1
    assert certified >= 6  # most coprime pairs are certified, not refused


def test_certificate_gcd_matches_sympy():
    sp = pytest.importorskip("sympy")
    for a, b, _ in planted_pairs(12, 15):
        want = sp.gcd(to_sympy(a, sp), to_sympy(b, sp))
        ratio = sp.cancel(want / to_sympy(poly_gcd(a, b), sp))
        assert ratio.is_number and ratio != 0  # equal up to a unit


_P = polymatrix._P
_ON_LINE = Z - X.scale(3) - Y.scale(5)  # vanishes on the certificate's line


def _times_p(p):
    return {t: _P * v for t, v in p.coeffs.items()}


@pytest.mark.parametrize(
    "a, b, want",
    [
        # both restrictions vanish identically
        ((_ON_LINE * (X + Y)).coeffs, (_ON_LINE * (X - Z.scale(2))).coeffs, _ON_LINE),
        # one restriction vanishes identically
        ((_ON_LINE * (X + Y)).coeffs, (X * X + Y * Z).coeffs, None),
        # every coefficient is a multiple of P
        (_times_p((X + Y) * (X - Z)), _times_p((X + Y) * Y), X + Y),
        (_times_p(X * Y + Z * Z), _times_p(X - Y), None),
        # the restrictions agree mod P, the forms are coprime
        ((X).coeffs, (X + Y.scale(_P)).coeffs, None),
        # both u^d coefficients vanish: a common factor can hide at infinity
        ((X * Y).coeffs, (Y * Z).coeffs, Y),
        ((Y).coeffs, (Z - X.scale(3)).coeffs, None),
    ],
    ids=["both-on-line", "one-on-line", "p-multiples", "p-multiples-coprime",
         "agree-mod-p", "common-factor-at-infinity", "both-vanish-at-infinity"],
)
def test_certificate_refuses_adversarial_pairs(a, b, want):
    assert not polymatrix._coprime_on_line(a, b)
    want = {(0, 0, 0): 1} if want is None else want.coeffs
    assert polymatrix._gcd(a, b) == want == prs_gcd(a, b)


def test_certificate_leaves_sparse_high_degree_maps_to_the_prs():
    # dense restrictions would cost about d^2 steps for two monomials
    n = 1000
    a, b = parse_poly(f"X^{n}"), parse_poly(f"Y^{n}")
    assert not polymatrix._coprime_on_line(a.coeffs, b.coeffs)
    assert str(poly_gcd(a, b)) == "1"


# ---------------------------------------------------------------------------
# linear independence


def test_linearly_independent():
    assert linearly_independent([X, Y]) == (True, 2)
    minors = maximal_minors(
        PolyMatrix(MorphismType.make([(-1, 3)], [(0, 2)]), [[X, Y, Z], [Y, Z, X]])
    )
    assert linearly_independent(minors) == (True, 3)
    assert linearly_independent([X, Y, X + Y]) == (False, 2)
    with pytest.raises(ValueError):
        linearly_independent([X, X * Y])


# ---------------------------------------------------------------------------
# duality


def test_transpose_dual_examples():
    # (r, chi) = (4, 3): source of the dual presentation
    t, _ = (
        MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)]),
        None,
    )
    d = t.dual()
    assert d.source.summands == ((-2, 3),)
    assert d.target.summands == ((-1, 2), (0, 1))
    td = MorphismType.make([(-2, 4)], [(-1, 3), (1, 1)]).dual()
    assert td.source.summands == ((-3, 1), (-1, 3))
    assert td.target.summands == ((0, 4),)


def test_transpose_dual_involution_and_minors(rnd):
    for _ in range(10):
        m = uniform_matrix(rnd, 3, 4, 1)
        md = transpose_dual(m)
        assert transpose_dual(md).entries == m.entries
        assert transpose_dual(md).type == m.type
        for r in range(m.nrows):
            for c in range(m.ncols):
                assert md.entries[c][r].terms == m.entries[r][c].terms
        got = sorted(str(p) for p in maximal_minors(md))
        want = sorted(str(p) for p in maximal_minors(m))
        assert got == want  # single-type: minors agree as sets


# ---------------------------------------------------------------------------
# sections


def test_cubic_section_examples():
    m = cubic_section((0, 0, 1), X * X * Z)
    assert [[str(e) for e in row] for row in m.entries] == [["0", "X"], ["-X*Z", "Y"]]
    m = cubic_section((0, 0, 1), Y * Y * Y - X * X * Z)
    assert [[str(e) for e in row] for row in m.entries] == [["Y^2", "X"], ["X*Z", "Y"]]
    m = cubic_section((0, 0, 1), X * Y * Z)
    assert [[str(e) for e in row] for row in m.entries] == [["X*Z", "X"], ["0", "Y"]]


def test_cubic_section_rejects():
    with pytest.raises(ValueError):
        cubic_section((0, 0, 1), Z * Z * Z)
    with pytest.raises(ValueError):
        cubic_section((1, 1, 1), X * X * X)


def test_quartic_section_examples():
    m = quartic_section((X, Y), X * X * X * X)
    assert str(m.entries[3][1]) == "X^2"
    qs = [m.entries[i][j] for i in (1, 2, 3) for j in (0, 1)]
    assert sum(0 if q.is_zero else 1 for q in qs) == 1
    m = quartic_section((X, Y), X * X * X * Y)
    assert str(m.entries[3][0]) == "-X^2"
    with pytest.raises(ValueError):
        quartic_section((X, Y), Z * Z * Z * Z)


def test_cubic_section_identity_random(rnd):
    for _ in range(30):
        terms = {
            mono: F(rnd.randint(-4, 4))
            for mono in monomial_basis(3)
            if mono != (0, 0, 3)
        }
        f = HomogeneousPoly(terms)
        if f.is_zero:
            continue
        m = cubic_section((0, 0, 1), f)
        assert determinant(m).terms == f.terms


def test_cubic_section_at_random_points(rnd):
    # f = L1*q1 + L2*q2 with L1, L2 vanishing at the point, so f does too;
    # points other than (0:0:1) go through the change of frame
    frames = 0
    for _ in range(30):
        pt = [F(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(3)]
        if not any(pt):
            continue
        lines = []
        for _ in range(2):
            v = [rnd.randint(-3, 3) for _ in range(3)]
            # the cross product pt x v: L(x) = det(pt, v, x) vanishes at pt
            cross = [
                pt[1] * v[2] - pt[2] * v[1],
                pt[2] * v[0] - pt[0] * v[2],
                pt[0] * v[1] - pt[1] * v[0],
            ]
            lines.append(HomogeneousPoly(dict(zip(monomial_basis(1), cross))))
        f = lines[0] * random_poly(rnd, 2) + lines[1] * random_poly(rnd, 2)
        if f.is_zero:
            continue
        assert f.evaluate(pt) == 0
        adapted = adapt_to_point(pt, f)
        assert adapted.coefficient((0, 0, 3)) == 0
        assert determinant(cubic_section(pt, f)) == adapted
        frames += pt[:2] != [0, 0]
    assert frames >= 20


def test_quartic_section_identity_random(rnd):
    for _ in range(30):
        g = random_poly(rnd, 3)
        h = random_poly(rnd, 3)
        f = X * g + Y * h
        if f.is_zero:
            continue
        m = quartic_section((X, Y), f)
        assert quartic_reconstruct(m).terms == f.terms


def test_quartic_section_general_span(rnd):
    for _ in range(10):
        while True:
            x1 = random_nonzero_poly(rnd, 1)
            x2 = random_nonzero_poly(rnd, 1)
            if linearly_independent([x1, x2])[0]:
                break
        f = x1 * random_poly(rnd, 3) + x2 * random_poly(rnd, 3)
        if f.is_zero:
            continue
        m = quartic_section((x1, x2), f)
        adapted = adapt_to_span((x1, x2), f)
        assert quartic_reconstruct(m).terms == adapted.terms


# ---------------------------------------------------------------------------
# file format


def test_poly_parse_print_roundtrip(rnd):
    for _ in range(40):
        p = random_poly(rnd, rnd.randint(0, 3), -5, 5)
        assert parse_poly(str(p)).terms == p.terms


def test_parse_poly_grammar():
    p = parse_poly("1/2*X^2*Y - Z^3 + 3*X*Y*Z")
    assert p.coefficient((2, 1, 0)) == F(1, 2)
    assert p.coefficient((0, 0, 3)) == -1
    assert p.coefficient((1, 1, 1)) == 3
    assert parse_poly("0").is_zero
    with pytest.raises(ValueError):
        parse_poly("X + ")


def test_matrix_file_roundtrip(rnd):
    t = MorphismType.make([(-2, 2), (-1, 1)], [(-1, 1), (0, 2)], zeroed=[(1, 0)])
    grid = [
        [random_poly(rnd, 1), random_poly(rnd, 1), zero],
        [random_poly(rnd, 2), random_poly(rnd, 2), random_poly(rnd, 1)],
        [random_poly(rnd, 2), random_poly(rnd, 2), random_poly(rnd, 1)],
    ]
    m = PolyMatrix(t, grid)
    text = format_matrix_file(m)
    m2 = parse_matrix_file(text)
    assert m2.type == m.type
    assert m2.entries == m.entries
    assert format_matrix_file(m2) == text


def test_polymatrix_validates_degrees_and_zeroes():
    t = MorphismType.make([(-2, 1), (-1, 1)], [(0, 2)])
    with pytest.raises(ValueError):
        PolyMatrix(t, [[X, X * Y], [Y, Z]])  # degree mismatch in column 2
    tz = MorphismType.make([(-1, 1)], [(-1, 1)], zeroed=[(0, 0)])
    with pytest.raises(ValueError):
        PolyMatrix(tz, [[HomogeneousPoly.constant(1)]])


# ---------------------------------------------------------------------------
# integer core against a Fraction-dict reference


def ref_add(a, b, sign=1):
    out = dict(a)
    for t, v in b.items():
        out[t] = out.get(t, F(0)) + sign * v
    return {t: v for t, v in out.items() if v}


def ref_mul(a, b):
    out = {}
    for ta, va in a.items():
        for tb, vb in b.items():
            t = tuple(x + y for x, y in zip(ta, tb))
            out[t] = out.get(t, F(0)) + va * vb
    return {t: v for t, v in out.items() if v}


def ref_divexact(a, b):
    """Long division by graded-lex leading terms; None when inexact."""
    grlex = lambda t: (sum(t), t)  # noqa: E731
    bt = max(b, key=grlex)
    out, rem = {}, dict(a)
    while rem:
        rt = max(rem, key=grlex)
        q = tuple(x - y for x, y in zip(rt, bt))
        if min(q) < 0:
            return None
        out[q] = rem[rt] / b[bt]
        rem = ref_add(rem, ref_mul({q: out[q]}, b), -1)
    return out


def assert_canonical(p):
    """The stored form: content times a primitive integer map with a positive
    graded-lex leading coefficient; terms in increasing graded-lex order."""
    keys = [t for t, _ in p.terms]
    assert keys == sorted(keys, key=lambda t: (sum(t), t))
    if p.is_zero:
        assert p.coeffs == {} and p.content == 0
        return
    assert all(type(v) is int and v != 0 for v in p.coeffs.values())
    assert math.gcd(*p.coeffs.values()) == 1
    assert p.coeffs[max(p.coeffs, key=lambda t: (sum(t), t))] > 0
    assert dict(p.terms) == {t: p.content * v for t, v in p.coeffs.items()}


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def forms(draw, degree=None):
    d = draw(st.integers(0, 3)) if degree is None else degree
    monos = st.sampled_from(monomial_basis(d))
    terms = draw(st.dictionaries(monos, rationals, max_size=6))
    return HomogeneousPoly(terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_arithmetic_matches_fraction_reference(data):
    d = data.draw(st.integers(0, 3))
    p, q = data.draw(forms(d)), data.draw(forms(d))
    r = data.draw(forms())
    c = data.draw(rationals)
    a, b, e = dict(p.terms), dict(q.terms), dict(r.terms)
    for got, want in [
        (p + q, ref_add(a, b)),
        (p - q, ref_add(a, b, -1)),
        (-p, {t: -v for t, v in a.items()}),
        (p * r, ref_mul(a, e)),
        (p.scale(c), {t: v * c for t, v in a.items() if v * c}),
    ]:
        assert_canonical(got)
        assert dict(got.terms) == want
    assert p + q == q + p and hash(p + q) == hash(q + p)
    assert HomogeneousPoly(a) == p and (p - p).is_zero
    if not r.is_zero:
        prod = p * r
        assert prod.divexact(r) == p
        assert dict(prod.divexact(r).terms) == ref_divexact(dict(prod.terms), e)
        if not p.is_zero and r.degree > 0 and ref_divexact(a, e) is None:
            with pytest.raises(ValueError):
                p.divexact(r)
    assert parse_poly(str(p)) == p


# ---------------------------------------------------------------------------
# minors against the Leibniz oracle


big_coefficients = st.integers(-(10**80), 10**80)
contents = st.fractions(min_value=-(10**20), max_value=10**20, max_denominator=10**12).filter(bool)


@st.composite
def big_forms(draw, degree):
    """Integer coefficients up to 10^80 of either sign on a random set of
    monomials, times a rational content."""
    monos = st.sampled_from(monomial_basis(degree))
    terms = draw(st.dictionaries(monos, big_coefficients, max_size=6))
    return HomogeneousPoly(terms).scale(draw(contents))


# every rows x cols from 1 x 1 to 4 x 5, then 5 x 1 to 5 x 6 and 6 x 1 to
# 6 x 7, so minors up to 6 x 6
shapes = [(r, c) for r in range(1, 7) for c in range(1, max(5, r + 1) + 1)]


@st.composite
def rational_matrices(draw, shape=st.sampled_from(shapes)):
    """Wide, square and tall matrices of a shape drawn from ``shape``,
    entries of degree 0..3 from two twists on each side, with small rational
    coefficients or, in one matrix of three, coefficients up to 10^80 times
    rational contents (denominators differ within a row); zero entries, and
    now and then a zero row or a row planted as a rational multiple of
    another, so that minors cancel to zero."""
    rows, cols = draw(shape)
    a = draw(st.integers(0, cols))  # columns of twist -2, then of twist 0
    b = draw(st.integers(0, rows))  # rows of twist 0, then of twist 1
    source = [(d, k) for d, k in ((-2, a), (0, cols - a)) if k]
    target = [(e, k) for e, k in ((0, b), (1, rows - b)) if k]
    col_twists = [-2] * a + [0] * (cols - a)
    row_twists = [0] * b + [1] * (rows - b)
    entry = big_forms if draw(st.integers(0, 2)) == 0 else forms
    zero_row = draw(st.integers(-1, rows - 1)) if draw(st.booleans()) else -1
    grid = [
        [
            zero if r == zero_row or draw(st.integers(0, 3)) == 0 else draw(entry(e - d))
            for d in col_twists
        ]
        for r, e in enumerate(row_twists)
    ]
    if rows > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
        if row_twists[i] == row_twists[j]:
            c = draw(st.sampled_from([F(1), F(-1)]) | contents)
            grid[j] = [e.scale(c) for e in grid[i]]
    return PolyMatrix(MorphismType.make(source, target), grid)


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_minors_match_leibniz_oracle(m):
    check_minors_against_the_oracle(m)


@pytest.mark.parametrize("shape", shapes, ids=lambda s: "%dx%d" % s)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_minors_match_leibniz_oracle_on_every_shape(shape, data):
    # the test above draws about half of the shapes in one run
    check_minors_against_the_oracle(data.draw(rational_matrices(st.just(shape))))


def check_minors_against_the_oracle(m):
    got = maximal_minors(m)
    want = minors_oracle(m.entries)
    for g in got:
        assert_canonical(g)
    assert got == want
    if m.nrows == m.ncols:
        assert determinant(m) == want[0]
    if m.ncols == m.nrows + 1 and len(m.type.source.summands) == 1:
        # the integer m . beta check accepts a true syzygy
        out = kernel_line(m)
        if out is not None:
            for row in m.entries:
                acc = zero
                for e, b in zip(row, out[0]):
                    acc = acc + e * b
                assert acc.is_zero


def test_minors_reach_the_slot_bound():
    """A permutation grid of monomials with coefficients of 1 to 80 digits:
    its determinant's one coefficient is the permanent bound itself, which
    the packed slots must still hold, with either sign."""
    rnd = random.Random(80)
    t = MorphismType.make([(-1, 4), (0, 2)], [(0, 6)])
    for _ in range(40):
        perm = rnd.sample(range(6), 6)
        grid = [[zero] * 6 for _ in range(6)]
        for r, c in enumerate(perm):
            mono = rnd.choice(monomial_basis(1)) if c < 4 else (0, 0, 0)
            coeff = rnd.choice((-1, 1)) * (10 ** rnd.randint(1, 80) - 1)
            grid[r][c] = HomogeneousPoly({mono: F(coeff, rnd.choice((1, 3, 10**15)))})
        m = PolyMatrix(t, grid)
        want = det_oracle(m.entries)
        assert len(want.terms) == 1
        assert determinant(m) == want


def test_packed_minors_refuse_inconsistent_degrees():
    # X*Y - Y*X^2 mixes degrees 2 and 3, which no typed matrix does
    with pytest.raises(ValueError, match="inconsistent degrees"):
        polymatrix._minors([[X, Y], [X * X, Y]], [range(2)])


def test_kernel_check_rejects_one_unit_off(monkeypatch):
    """beta off by one unit in one of its 60-digit coefficients fails the
    m . beta check."""
    rnd = random.Random(81)
    for k in (1, 2, 3):
        t = MorphismType.make([(-1, k + 1)], [(0, k)])
        grid = [
            [
                HomogeneousPoly({mono: rnd.randint(-(10**60), 10**60) for mono in monomial_basis(1)})
                for _ in range(k + 1)
            ]
            for _ in range(k)
        ]
        m = PolyMatrix(t, grid)
        minors = maximal_minors(m)
        i = rnd.randrange(k + 1)
        (mono, v), *_ = minors[i].terms
        minors[i] = minors[i] + HomogeneousPoly({mono: F(1)}).scale(v / abs(v))
        assert kernel_line(m) is not None
        monkeypatch.setattr(polymatrix, "maximal_minors", lambda m, out=minors: list(out))
        with pytest.raises(ValueError, match="kernel relation failed"):
            kernel_line(m)
        monkeypatch.undo()


def test_kernel_check_slot_is_wide_enough(monkeypatch):
    """m . beta = Z*(2Y - 2^j Z) - Y*Z packs to 2^k - 2^j, which a slot
    width of j bits, one below the bit length of the check's bound
    2^j + 3, would take for zero."""
    m = PolyMatrix(MorphismType.make([(-1, 2)], [(0, 1)]), [[Z, Y]])
    for j in range(2, 100):
        minors = [Y.scale(2) - Z.scale(2**j), Z]
        monkeypatch.setattr(polymatrix, "maximal_minors", lambda m, out=minors: list(out))
        with pytest.raises(ValueError, match="kernel relation failed"):
            kernel_line(m)


def test_minors_of_the_empty_and_one_by_one_grids():
    one = HomogeneousPoly.constant(1)
    assert polymatrix._minors([], [[]]) == [one]
    assert polymatrix._minors([], [[], []]) == [one, one]
    p = parse_poly("1/2*X - 2/3*Y")
    assert polymatrix._minors([[p]], [[0]]) == [p]
    assert polymatrix._minors([[zero]], [[0]]) == [zero]
    assert polymatrix._minors([[p, -p.scale(F(3, 5))]], [[0], [1]]) == [p, p.scale(F(-3, 5))]


def test_kernel_relation_with_fractional_contents_still_fails(monkeypatch):
    t12 = MorphismType.make([(-1, 2)], [(0, 1)])
    m = PolyMatrix(t12, [[X.scale(F(1, 2)), Y.scale(F(1, 3))]])
    beta, _ = kernel_line(m)
    assert beta == [Y.scale(F(1, 3)), X.scale(F(-1, 2))]
    # the same maps with other contents: X/2 * Y/3 - Y/3 * X/4 = X*Y/12 != 0
    monkeypatch.setattr(
        polymatrix, "maximal_minors", lambda m: [Y.scale(F(1, 3)), X.scale(F(1, 4))]
    )
    with pytest.raises(ValueError, match="kernel relation failed"):
        kernel_line(m)


# ---------------------------------------------------------------------------
# sympy differential checks


def to_sympy(p, sp):
    x, y, z = sp.symbols("X Y Z")
    return sum(
        (sp.Rational(v.numerator, v.denominator) * x**i * y**j * z**k
         for (i, j, k), v in p.terms),
        sp.Integer(0),
    )


def test_gcd_matches_sympy():
    sp = pytest.importorskip("sympy")
    rnd = random.Random(77)
    for _ in range(12):
        c = random_nonzero_poly(rnd, rnd.randint(0, 2))
        a = random_nonzero_poly(rnd, rnd.randint(1, 2)) * c
        b = random_nonzero_poly(rnd, rnd.randint(1, 2)) * c.scale(F(-2, 3))
        want = sp.gcd(to_sympy(a, sp), to_sympy(b, sp))
        ratio = sp.cancel(want / to_sympy(poly_gcd(a, b), sp))
        assert ratio.is_number and ratio != 0  # equal up to a unit


def test_minors_match_sympy():
    sp = pytest.importorskip("sympy")
    rnd = random.Random(78)
    for rows, cols in [(2, 2), (3, 3), (4, 4), (2, 3), (3, 4), (3, 2)]:
        m = uniform_matrix(rnd, rows, cols, 1)
        sm = sp.Matrix([[to_sympy(e, sp) for e in row] for row in m.entries])
        if rows == cols:
            assert sp.expand(sm.det() - to_sympy(determinant(m), sp)) == 0
        k = min(rows, cols)
        if cols >= rows:
            subs = [sm.extract(list(range(rows)), [j for j in range(cols) if j not in o])
                    for o in itertools.combinations(range(cols), cols - k)]
        else:
            omits = sorted(itertools.combinations(range(rows), rows - k), reverse=True)
            subs = [sm.extract([i for i in range(rows) if i not in o], list(range(cols)))
                    for o in omits]
        got = maximal_minors(m)
        assert len(got) == len(subs)
        for g, s in zip(got, subs):
            assert sp.expand(s.det() - to_sympy(g, sp)) == 0


def test_kernel_line_matches_sympy():
    """sympy confirms m . beta = 0, that m has rank k at a random point (so
    beta spans the kernel over the fraction field) and that beta's entries
    have no common factor."""
    sp = pytest.importorskip("sympy")
    rnd = random.Random(79)
    for k, deg in [(1, 2), (2, 1), (2, 2), (3, 1), (4, 1)]:
        m = uniform_matrix(rnd, k, k + 1, deg)
        beta, d = kernel_line(m)
        sm = sp.Matrix([[to_sympy(e, sp) for e in row] for row in m.entries])
        sb = sp.Matrix([to_sympy(b, sp) for b in beta])
        assert sp.expand(sm * sb) == sp.zeros(k, 1)
        point = dict(zip(sp.symbols("X Y Z"), (rnd.randint(-9, 9) for _ in range(3))))
        assert sm.subs(point).rank() == k
        assert sp.gcd_list(list(sb)).is_number
        assert all(b.is_zero or b.degree == d for b in beta)

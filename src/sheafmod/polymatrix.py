"""Matrices of homogeneous forms in X, Y, Z over exact rationals.

Provides determinants and maximal minors, the gcd-of-minors kernel line of a
k x (k+1) matrix, multivariate gcd by subresultant remainder sequences,
linear-independence tests on coefficient matrices, duality by transposition,
and the explicit section constructions used to split cubic and quartic
pencils.  The bit-exact file format for matrices lives here as well.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .bundles import MorphismType, parse_resolution_spec, format_resolution_spec
from .linalg import rank

__all__ = [
    "HomogeneousPoly",
    "PolyMatrix",
    "X",
    "Y",
    "Z",
    "monomial_basis",
    "determinant",
    "maximal_minors",
    "kernel_line",
    "poly_gcd",
    "poly_gcd_list",
    "linearly_independent",
    "transpose_dual",
    "cubic_section",
    "quartic_section",
    "quartic_reconstruct",
    "adapt_to_point",
    "adapt_to_span",
    "parse_matrix_file",
    "format_matrix_file",
    "parse_poly",
]

Term = tuple[int, int, int]
Coeffs = dict[Term, Fraction]

_VARS = ("X", "Y", "Z")


# ---------------------------------------------------------------------------
# Raw sparse polynomial helpers (dict of exponent triple -> coefficient)
# ---------------------------------------------------------------------------


def _clean(d: Coeffs) -> Coeffs:
    return {k: v for k, v in d.items() if v != 0}


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return _clean(out)


def _neg(a: Coeffs) -> Coeffs:
    return {k: -v for k, v in a.items()}


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    out: Coeffs = {}
    for (i1, j1, k1), v1 in a.items():
        for (i2, j2, k2), v2 in b.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return _clean(out)


def _scale(a: Coeffs, c: Fraction) -> Coeffs:
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def _grlex_key(t: Term) -> tuple:
    return (sum(t), t)


def _leading_term(a: Coeffs) -> tuple[Term, Fraction]:
    t = max(a, key=_grlex_key)
    return t, a[t]


def _divexact(a: Coeffs, b: Coeffs) -> Coeffs:
    """Exact division a / b; raises when b does not divide a."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    out: Coeffs = {}
    rem = dict(a)
    bt, bc = _leading_term(b)
    while rem:
        rt, rc = _leading_term(rem)
        q = tuple(x - y for x, y in zip(rt, bt))
        if any(e < 0 for e in q):
            raise ValueError("inexact polynomial division")
        qc = rc / bc
        out[q] = out.get(q, Fraction(0)) + qc
        rem = _add(rem, _neg(_mul({q: qc}, b)))
    return _clean(out)


def _degree_in(a: Coeffs, var: int) -> int:
    return max((t[var] for t in a), default=-1)


def _coeff_of(a: Coeffs, var: int, e: int) -> Coeffs:
    """Coefficient of var^e, as a polynomial in the remaining variables."""
    out: Coeffs = {}
    for t, v in a.items():
        if t[var] == e:
            key = list(t)
            key[var] = 0
            out[tuple(key)] = v
    return out


def _shift_var(a: Coeffs, var: int, e: int) -> Coeffs:
    out: Coeffs = {}
    for t, v in a.items():
        key = list(t)
        key[var] += e
        out[tuple(key)] = v
    return out


def _pseudo_rem(a: Coeffs, b: Coeffs, var: int) -> Coeffs:
    """Pseudo-remainder of a by b with respect to the chosen variable."""
    da, db = _degree_in(a, var), _degree_in(b, var)
    if db < 0:
        raise ZeroDivisionError
    lc_b = _coeff_of(b, var, db)
    rem = dict(a)
    while True:
        dr = _degree_in(rem, var)
        if dr < db or not rem:
            return rem
        lc_r = _coeff_of(rem, var, dr)
        rem = _add(
            _mul(rem, lc_b),
            _neg(_mul(_shift_var(_mul(lc_r, b), var, dr - db), {(0, 0, 0): Fraction(1)})),
        )
        # the subtraction above cancels the leading var-term exactly
        rem = _clean(rem)


def _content_pp(a: Coeffs, var: int) -> tuple[Coeffs, Coeffs]:
    """Content (gcd of var-coefficients) and primitive part along one variable."""
    coeffs = [
        _coeff_of(a, var, e)
        for e in range(_degree_in(a, var) + 1)
        if _coeff_of(a, var, e)
    ]
    cont: Coeffs = {}
    for c in coeffs:
        cont = _gcd(cont, c)
        if cont == {(0, 0, 0): Fraction(1)}:
            break
    pp = _divexact(a, cont)
    return cont, pp


def _normalize_unit(a: Coeffs) -> Coeffs:
    """Scale so the graded-lex leading coefficient is 1."""
    if not a:
        return a
    _, lc = _leading_term(a)
    return _scale(a, 1 / lc)


def _gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """gcd in Q[X,Y,Z], monic under graded lex (X > Y > Z)."""
    if not a:
        return _normalize_unit(b)
    if not b:
        return _normalize_unit(a)
    # choose the last variable actually present; recurse on fewer variables
    var = None
    for v in (2, 1, 0):
        if _degree_in(a, v) > 0 or _degree_in(b, v) > 0:
            var = v
            break
    if var is None:
        return {(0, 0, 0): Fraction(1)}
    cont_a, pp_a = _content_pp(a, var)
    cont_b, pp_b = _content_pp(b, var)
    cont = _gcd(cont_a, cont_b)
    # subresultant polynomial remainder sequence on the primitive parts
    f, g = pp_a, pp_b
    if _degree_in(f, var) < _degree_in(g, var):
        f, g = g, f
    h_prev: Coeffs = {(0, 0, 0): Fraction(1)}
    g_prev: Coeffs = {(0, 0, 0): Fraction(1)}
    while True:
        d = _degree_in(f, var) - _degree_in(g, var)
        rem = _pseudo_rem(f, g, var)
        if not rem:
            _, pp_g = _content_pp(g, var)
            return _normalize_unit(_mul(cont, pp_g))
        if _degree_in(rem, var) == 0:
            return _normalize_unit(cont)
        divisor = _mul(g_prev, _pow(h_prev, d))
        f, g = g, _divexact(rem, divisor)
        g_prev = _coeff_of(f, var, _degree_in(f, var))
        if d == 0:
            # h unchanged when the degree drop is zero
            pass
        elif d == 1:
            h_prev = g_prev
        else:
            h_prev = _divexact(_pow(g_prev, d), _pow(h_prev, d - 1))


def _pow(a: Coeffs, e: int) -> Coeffs:
    out: Coeffs = {(0, 0, 0): Fraction(1)}
    for _ in range(e):
        out = _mul(out, a)
    return out


# ---------------------------------------------------------------------------
# Public polynomial type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneousPoly:
    """Homogeneous polynomial in X, Y, Z with nonzero rational coefficients.

    The zero polynomial is the empty term map with ``degree`` None.
    """

    terms: tuple[tuple[Term, Fraction], ...]

    def __init__(self, terms) -> None:
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        d = {tuple(t): Fraction(c) for t, c in items if c != 0}
        degs = {sum(t) for t in d}
        if len(degs) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degs)}")
        object.__setattr__(
            self, "terms", tuple(sorted(d.items(), key=lambda kv: _grlex_key(kv[0])))
        )

    @classmethod
    def zero(cls) -> "HomogeneousPoly":
        return cls({})

    @classmethod
    def constant(cls, c) -> "HomogeneousPoly":
        return cls({(0, 0, 0): Fraction(c)})

    @classmethod
    def variable(cls, i: int) -> "HomogeneousPoly":
        t = [0, 0, 0]
        t[i] = 1
        return cls({tuple(t): Fraction(1)})

    def as_dict(self) -> Coeffs:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int | None:
        return sum(self.terms[0][0]) if self.terms else None

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return HomogeneousPoly(_add(self.as_dict(), other.as_dict()))

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return HomogeneousPoly(_add(self.as_dict(), _neg(other.as_dict())))

    def __neg__(self) -> "HomogeneousPoly":
        return HomogeneousPoly(_neg(self.as_dict()))

    def __mul__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return HomogeneousPoly(_mul(self.as_dict(), other.as_dict()))

    def scale(self, c) -> "HomogeneousPoly":
        return HomogeneousPoly(_scale(self.as_dict(), Fraction(c)))

    def divexact(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return HomogeneousPoly(_divexact(self.as_dict(), other.as_dict()))

    def coefficient(self, t: Term) -> Fraction:
        return dict(self.terms).get(tuple(t), Fraction(0))

    def coefficient_vector(self, degree: int) -> tuple[Fraction, ...]:
        """Coefficients over the monomial basis of the given degree, grlex order."""
        basis = monomial_basis(degree)
        d = self.as_dict()
        return tuple(d.get(t, Fraction(0)) for t in basis)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for (a, b, c), v in self.terms:
            total += v * point[0] ** a * point[1] ** b * point[2] ** c
        return total

    def substitute(self, images: Sequence["HomogeneousPoly"]) -> "HomogeneousPoly":
        """Substitute each variable by the given form (linear change of frame)."""
        acc: Coeffs = {}
        for (a, b, c), v in self.terms:
            term: Coeffs = {(0, 0, 0): v}
            for img, e in zip(images, (a, b, c)):
                for _ in range(e):
                    term = _mul(term, img.as_dict())
            acc = _add(acc, term)
        return HomogeneousPoly(acc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t, c in sorted(self.terms, key=lambda kv: _grlex_key(kv[0]), reverse=True):
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(_VARS, t)
                if e > 0
            )
            if not mono:
                parts.append((str(abs(c)), c < 0))
            elif abs(c) == 1:
                parts.append((mono, c < 0))
            else:
                parts.append((f"{abs(c)}*{mono}", c < 0))
        out = ""
        for i, (text, negative) in enumerate(parts):
            if i == 0:
                out = ("-" if negative else "") + text
            else:
                out += (" - " if negative else " + ") + text
        return out


X = HomogeneousPoly.variable(0)
Y = HomogeneousPoly.variable(1)
Z = HomogeneousPoly.variable(2)


def monomial_basis(degree: int) -> list[Term]:
    """All exponent triples of the given total degree, graded-lex descending."""
    out = [
        (a, b, degree - a - b)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
    ]
    return out


def poly_gcd(a: HomogeneousPoly, b: HomogeneousPoly) -> HomogeneousPoly:
    """Monic gcd (graded-lex leading coefficient 1); both arguments zero is an error."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    return HomogeneousPoly(_gcd(a.as_dict(), b.as_dict()))


def poly_gcd_list(polys: Iterable[HomogeneousPoly]) -> HomogeneousPoly:
    one = (((0, 0, 0), Fraction(1)),)
    acc = HomogeneousPoly.zero()
    for p in polys:
        acc = HomogeneousPoly(_gcd(acc.as_dict(), p.as_dict()))
        if acc.terms == one:
            break
    if acc.is_zero:
        raise ValueError("gcd of an all-zero family")
    return acc


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyMatrix:
    """Row-major grid of homogeneous forms typed by a morphism type.

    The entry in a row of twist e and a column of twist d is homogeneous of
    degree e - d (or zero); entries in zeroed blocks vanish.
    """

    type: MorphismType
    entries: tuple[tuple[HomogeneousPoly, ...], ...]

    def __init__(self, type: MorphismType, entries) -> None:
        rows = tuple(tuple(e for e in row) for row in entries)
        if len(rows) != type.target.rank:
            raise ValueError("row count does not match the target rank")
        for row in rows:
            if len(row) != type.source.rank:
                raise ValueError("column count does not match the source rank")
        col_types = _positions(type.source)
        row_types = _positions(type.target)
        for r, row in enumerate(rows):
            e_twist = type.target.summands[row_types[r]][0]
            for c, entry in enumerate(row):
                d_twist = type.source.summands[col_types[c]][0]
                want = e_twist - d_twist
                if entry.is_zero:
                    continue
                if type.is_zeroed(col_types[c], row_types[r]):
                    raise ValueError(f"entry ({r},{c}) lies in a zeroed block")
                if entry.degree != want:
                    raise ValueError(
                        f"entry ({r},{c}) has degree {entry.degree}, expected {want}"
                    )
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "entries", rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row_twists(self) -> list[int]:
        return [
            self.type.target.summands[t][0] for t in _positions(self.type.target)
        ]

    def col_twists(self) -> list[int]:
        return [
            self.type.source.summands[t][0] for t in _positions(self.type.source)
        ]

    def entry(self, r: int, c: int) -> HomogeneousPoly:
        return self.entries[r][c]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[HomogeneousPoly]]:
        return [[self.entries[r][c] for c in cols] for r in rows]


def _positions(b) -> list[int]:
    """Type index of each global row/column position."""
    out = []
    for t, (_, m) in enumerate(b.summands):
        out.extend([t] * m)
    return out


def _det_grid(grid: Sequence[Sequence[HomogeneousPoly]]) -> HomogeneousPoly:
    """Determinant by column expansion with memoization on column subsets."""
    n = len(grid)
    if n == 0:
        return HomogeneousPoly.constant(1)
    memo: dict[int, HomogeneousPoly] = {}

    def rec(row: int, colmask: int) -> HomogeneousPoly:
        if row == n - 1:  # one column left: the entry itself
            return grid[row][colmask.bit_length() - 1]
        if colmask in memo:
            return memo[colmask]
        acc = HomogeneousPoly.zero()
        sign = 1
        for c in range(n):
            if not (colmask >> c) & 1:
                continue
            e = grid[row][c]
            if not e.is_zero:
                sub = rec(row + 1, colmask & ~(1 << c))
                contrib = e * sub
                acc = acc + (contrib if sign > 0 else -contrib)
            sign = -sign
        memo[colmask] = acc
        return acc

    return rec(0, (1 << n) - 1)


def determinant(m: PolyMatrix) -> HomogeneousPoly:
    """Exact determinant of a square matrix; homogeneous of degree
    sum(target twists) - sum(source twists)."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    return _det_grid(m.entries)


def maximal_minors(m: PolyMatrix) -> list[HomogeneousPoly]:
    """All maximal-size minors, unsigned.

    For a wide matrix the omitted column sets run in increasing lexicographic
    order, for a tall matrix the omitted row sets in decreasing order.
    """
    r, c = m.nrows, m.ncols
    out = []
    if c >= r:
        for omit in itertools.combinations(range(c), c - r):
            keep = [j for j in range(c) if j not in omit]
            out.append(_det_grid(m.submatrix(range(r), keep)))
    else:
        omits = sorted(itertools.combinations(range(r), r - c), reverse=True)
        for omit in omits:
            keep = [i for i in range(r) if i not in omit]
            out.append(_det_grid(m.submatrix(keep, range(c))))
    return out


def kernel_line(m: PolyMatrix) -> tuple[list[HomogeneousPoly], int] | None:
    """Primitive kernel vector of a k x (k+1) matrix via gcd of maximal minors.

    beta_i = (-1)^(i+1) * (minor omitting column i) / gcd(minors), which makes
    m . beta = 0 an identity.  Returns (beta, common degree of the entries),
    or None when every maximal minor vanishes.
    """
    if m.ncols != m.nrows + 1:
        raise ValueError("kernel_line expects a k x (k+1) matrix")
    minors = maximal_minors(m)
    if all(p.is_zero for p in minors):
        return None
    g = poly_gcd_list(p for p in minors if not p.is_zero)
    beta = []
    for i, p in enumerate(minors):
        q = HomogeneousPoly.zero() if p.is_zero else p.divexact(g)
        beta.append(q if i % 2 == 0 else -q)
    for r in range(m.nrows):
        acc = HomogeneousPoly.zero()
        for c in range(m.ncols):
            acc = acc + m.entry(r, c) * beta[c]
        if not acc.is_zero:
            raise AssertionError("kernel relation failed; inconsistent twists")
    degrees = {b.degree for b in beta if not b.is_zero}
    if len(degrees) != 1:
        raise ValueError("kernel entries have mixed degrees")
    return beta, degrees.pop()


def linearly_independent(forms: Sequence[HomogeneousPoly]) -> tuple[bool, int]:
    """Rank of the coefficient matrix of same-degree forms over the rationals."""
    degs = {f.degree for f in forms if not f.is_zero}
    if len(degs) > 1:
        raise ValueError("forms of mixed degrees")
    if not degs:
        return (len(list(forms)) == 0, 0)
    d = degs.pop()
    r = rank([f.coefficient_vector(d) for f in forms])
    return r == len(forms), r


def _dual_order(b) -> list[int]:
    """Global positions listed with the summand groups reversed (twist
    negation reverses the group order) and the order inside each group kept."""
    groups = []
    k = 0
    for _, m in b.summands:
        groups.append(list(range(k, k + m)))
        k += m
    return [i for g in reversed(groups) for i in g]


def transpose_dual(m: PolyMatrix) -> PolyMatrix:
    """Transpose the grid and dualize the type (twists d -> -d-2, sides swapped).

    Rows and columns are permuted into the dual type's group order, so the
    operation is an exact involution on typed matrices.
    """
    dual_type = m.type.dual()
    col_order = _dual_order(m.type.source)  # become the rows of the dual
    row_order = _dual_order(m.type.target)  # become the columns
    grid = [
        [m.entries[r][c] for r in row_order] for c in col_order
    ]
    return PolyMatrix(dual_type, grid)


def cubic_section(
    point: Sequence[Fraction], f: HomogeneousPoly
) -> PolyMatrix:
    """Split a cubic vanishing at a point as the determinant of a 2x2 matrix.

    In coordinates adapted so the point is (0:0:1), there are unique q1 in
    k[X,Y,Z] and q2 in k[X,Z] of degree 2 with f = q1*Y - q2*X; the returned
    matrix is [[q1, X], [q2, Y]] and its determinant reproduces f in the
    adapted frame.
    """
    if f.degree != 3:
        raise ValueError("cubic_section expects a degree-3 form")
    f = adapt_to_point(point, f)
    if f.coefficient((0, 0, 3)) != 0:
        raise ValueError("form does not vanish at the point")
    y_part: Coeffs = {}
    rest: Coeffs = {}
    for t, c in f.terms:
        if t[1] > 0:
            y_part[(t[0], t[1] - 1, t[2])] = c
        else:
            rest[t] = c
    q1 = HomogeneousPoly(y_part)
    rest_poly = HomogeneousPoly(rest)
    if not rest_poly.is_zero:
        q2 = -rest_poly.divexact(X)
    else:
        q2 = HomogeneousPoly.zero()
    t = MorphismType.make([(-2, 1), (-1, 1)], [(0, 2)])
    return PolyMatrix(t, [[q1, X], [q2, Y]])


def adapt_to_point(point, f: HomogeneousPoly) -> HomogeneousPoly:
    """Present f in coordinates where the given point becomes (0:0:1)."""
    pt = [Fraction(x) for x in point]
    if len(pt) != 3 or all(x == 0 for x in pt):
        raise ValueError("a projective point needs three homogeneous coordinates")
    if f.evaluate(pt) != 0:
        raise ValueError("form does not vanish at the point")
    if pt == [0, 0, 1]:
        return f
    # complete the point to a basis; columns of the change send e3 to the point
    cols = [pt]
    for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        trial = cols + [list(map(Fraction, e))]
        if rank(trial) == len(trial):
            cols.append(list(map(Fraction, e)))
        if len(cols) == 3:
            break
    basis = [cols[1], cols[2], cols[0]]  # point goes last
    images = []
    for var in range(3):
        images.append(
            HomogeneousPoly(
                {
                    ((1, 0, 0), basis[0][var]),
                    ((0, 1, 0), basis[1][var]),
                    ((0, 0, 1), basis[2][var]),
                }
            )
        )
    return f.substitute(images)


def quartic_section(
    span: tuple[HomogeneousPoly, HomogeneousPoly], f: HomogeneousPoly
) -> PolyMatrix:
    """Present a quartic in the ideal of two independent linear forms as a
    4 x 5 matrix in the adapted frame (X, Y) = span, Z completing the basis.

    With f = -Y*f1 + X*f2 (f2 free of Y) and each f_i = Z*q1i - Y*q2i + X*q3i,
    the result is
        [[X, Y, 0, 0, 0],
         [q11, q12, -Y, X, 0],
         [q21, q22, -Z, 0, X],
         [q31, q32, 0, -Z, Y]],
    and [Z, -Y, X] . (q-block) . (-Y, X)^T reproduces f.
    """
    if f.degree != 4:
        raise ValueError("quartic_section expects a degree-4 form")
    f = adapt_to_span(span, f)
    if f.coefficient((0, 0, 4)) != 0:
        raise ValueError("form is not in the ideal of the span")
    y_part: Coeffs = {}
    rest: Coeffs = {}
    for t, c in f.terms:
        if t[1] > 0:
            y_part[(t[0], t[1] - 1, t[2])] = c
        else:
            rest[t] = c
    f1 = -HomogeneousPoly(y_part)
    rest_poly = HomogeneousPoly(rest)
    f2 = rest_poly.divexact(X) if not rest_poly.is_zero else HomogeneousPoly.zero()
    q11, q21, q31 = _split_zyx(f1)
    q12, q22, q32 = _split_zyx(f2)
    t = MorphismType.make(
        [(-2, 2), (-1, 3)], [(-1, 1), (0, 3)], zeroed=[(1, 0)]
    )
    zero = HomogeneousPoly.zero()
    return PolyMatrix(
        t,
        [
            [X, Y, zero, zero, zero],
            [q11, q12, -Y, X, zero],
            [q21, q22, -Z, zero, X],
            [q31, q32, zero, -Z, Y],
        ],
    )


def quartic_reconstruct(m: PolyMatrix) -> HomogeneousPoly:
    """Recover the quartic from a section matrix: [Z, -Y, X] . q-block . (-Y, X)^T."""
    left = (Z, -Y, X)
    right = (-Y, X)
    acc = HomogeneousPoly.zero()
    for i in range(3):
        for j in range(2):
            acc = acc + left[i] * m.entries[i + 1][j] * right[j]
    return acc


def _split_zyx(f: HomogeneousPoly) -> tuple[HomogeneousPoly, ...]:
    """Unique f = Z*q1 - Y*q2 + X*q3 with q1 in k[X,Y,Z], q2 in k[X,Y], q3 in k[X]."""
    if f.is_zero:
        zero = HomogeneousPoly.zero()
        return zero, zero, zero
    z_part: Coeffs = {}
    rem: Coeffs = {}
    for t, c in f.terms:
        if t[2] > 0:
            z_part[(t[0], t[1], t[2] - 1)] = c
        else:
            rem[t] = c
    q1 = HomogeneousPoly(z_part)
    y_part: Coeffs = {}
    rem2: Coeffs = {}
    for t, c in rem.items():
        if t[1] > 0:
            y_part[(t[0], t[1] - 1, t[2])] = c
        else:
            rem2[t] = c
    q2 = -HomogeneousPoly(y_part)
    rem2_poly = HomogeneousPoly(rem2)
    q3 = rem2_poly.divexact(X) if not rem2_poly.is_zero else HomogeneousPoly.zero()
    return q1, q2, q3


def adapt_to_span(span, f: HomogeneousPoly) -> HomogeneousPoly:
    """Present f in the frame whose first two coordinates are the span forms."""
    x1, x2 = span
    if x1.degree != 1 or x2.degree != 1:
        raise ValueError("span must consist of linear forms")
    ok, _ = linearly_independent([x1, x2])
    if not ok:
        raise ValueError("span forms are linearly dependent")
    if x1.terms == X.terms and x2.terms == Y.terms:
        return f
    # pick a third form completing the basis, then substitute the dual basis
    rows = [list(x1.coefficient_vector(1)), list(x2.coefficient_vector(1))]
    for e in range(3):
        v = [Fraction(0)] * 3
        v[e] = Fraction(1)
        if rank(rows + [v]) == 3:
            rows.append(v)
            break
    inv = _invert3(rows)
    images = [
        HomogeneousPoly(
            {
                (1, 0, 0): inv[var][0],
                (0, 1, 0): inv[var][1],
                (0, 0, 1): inv[var][2],
            }
        )
        for var in range(3)
    ]
    # writing old variables in terms of (X1, X2, X3) presents f in the new frame
    return f.substitute(images)


def _invert3(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = 3
    aug = [list(rows[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [a / pv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# Bit-exact file format
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^\s*(?P<coef>-?\d+(?:/\d+)?)?\s*\*?\s*(?P<mono>(?:[XYZ](?:\^\d+)?(?:\s*\*\s*)?)*)\s*$"
)


def parse_poly(text: str) -> HomogeneousPoly:
    """Parse the term grammar: ``term (+- term)*`` with terms like 2/3*X^2*Y."""
    text = re.sub(r"\s+", "", text)
    if not text:
        raise ValueError("empty polynomial")
    if text == "0":
        return HomogeneousPoly.zero()
    chunks: list[tuple[int, str]] = []
    sign, buf = 1, ""
    for i, ch in enumerate(text):
        if ch in "+-" and i > 0:
            chunks.append((sign, buf))
            sign, buf = (1 if ch == "+" else -1), ""
        elif ch == "-" and i == 0:
            sign = -1
        elif ch == "+" and i == 0:
            continue
        else:
            buf += ch
    chunks.append((sign, buf))
    acc: Coeffs = {}
    for sgn, chunk in chunks:
        m = _TERM_RE.match(chunk)
        if m is None or not chunk.strip():
            raise ValueError(f"bad polynomial term {chunk!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        exps = [0, 0, 0]
        for fac in re.finditer(r"([XYZ])(?:\^(\d+))?", m.group("mono") or ""):
            exps[_VARS.index(fac.group(1))] += int(fac.group(2) or 1)
        key = tuple(exps)
        acc[key] = acc.get(key, Fraction(0)) + sgn * coef
    return HomogeneousPoly(acc)


def format_poly(p: HomogeneousPoly) -> str:
    return str(p)


def parse_matrix_file(text: str) -> PolyMatrix:
    """Parse the matrix file format: a ``type:`` line then one row per line,
    entries separated by ``|``.  Parse errors carry line and entry positions.
    Lines starting with ``#`` are comments."""
    lines = [
        (i + 1, ln)
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines or not lines[0][1].startswith("type:"):
        raise ValueError("matrix file must start with a 'type:' line")
    t, _ = parse_resolution_spec(lines[0][1][len("type:"):].strip())
    rows = []
    for lineno, ln in lines[1:]:
        row = []
        for col, cell in enumerate(ln.split("|"), start=1):
            try:
                row.append(parse_poly(cell))
            except ValueError as exc:
                raise ValueError(f"line {lineno}, entry {col}: {exc}") from None
        rows.append(row)
    return PolyMatrix(t, rows)


def format_matrix_file(m: PolyMatrix) -> str:
    head = "type: " + format_resolution_spec(m.type)
    body = "\n".join(
        " | ".join(str(e) for e in row) for row in m.entries
    )
    return head + "\n" + body + "\n"

"""Matrices of homogeneous forms in X, Y, Z over exact rationals.

Provides determinants and maximal minors, the gcd-of-minors kernel line of a
k x (k+1) matrix, multivariate gcd by subresultant remainder sequences,
linear-independence tests on coefficient matrices, duality by transposition,
and the explicit section constructions used to split cubic and quartic
pencils.  The bit-exact file format for matrices lives here as well.

A form is stored as a rational content times a primitive integer coefficient
map, so all polynomial arithmetic runs on integers.

Determinants and minors expand along the rows on packed ints (Kronecker
substitution): each row is scaled once by the lcm of its entries' content
denominators, each entry's integer weight is folded into its pack, in which
the coefficient of X^i Y^j (at Z = 1) sits in the bits k*(i*s + j), so each
product of forms is one big-int product.  s exceeds every exponent of a
minor, and the slot width k exceeds by 2 the bit length of the permanent
bound, the product over the rows of the sum of |weight| * (coefficient
1-norm) of their entries, which bounds every coefficient of every minor;
evaluation at 2^k is a ring homomorphism, so sums in between need no bound.
Each memoized sub-determinant carries its degree, since Z is not packed, and
each minor is unpacked at that degree by balanced digits and made primitive
once, with content g / (product of the row scales).  The m . beta = 0 check of
``kernel_line`` packs beta once and sums one weighted product per entry of a
row.  With wide coefficients the packed products cost more than
term-by-term products would, since every slot is padded up to the bound: the
6 maximal minors of a 5 x 6 grid of cubics with 80-digit coefficients take
about ten times as long as on maps.

The gcd first tries a coprimality certificate: restrict both forms to a fixed
line, reduce mod a prime and run Euclid there.  A common factor of positive
degree would make both restrictions vanish, or leave them a common root over
the closure of the prime field, at infinity on the line or at a finite
point.  So nonzero restrictions, a nonzero leading coefficient and a constant
gcd mod the prime prove the gcd is 1; otherwise the subresultant remainder
sequence decides.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Sequence

from .bundles import MorphismType, parse_resolution_spec, format_resolution_spec
from .linalg import complete_basis, inverse, rank

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
Coeffs = dict[Term, int]

_VARS = ("X", "Y", "Z")
_ONE: Term = (0, 0, 0)
_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Raw sparse polynomial helpers (dict of exponent triple -> nonzero int).
# Every map here is homogeneous, so the lexicographic order of exponent
# triples is the graded-lex order.
# ---------------------------------------------------------------------------


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _neg(a: Coeffs) -> Coeffs:
    return {k: -v for k, v in a.items()}


def _addmul(acc: Coeffs, a: Coeffs, b: Coeffs, c: int) -> None:
    """acc += c * a * b in place; cancelled terms stay behind as zeros."""
    get = acc.get
    for (i1, j1, k1), v1 in a.items():
        v1 *= c
        for (i2, j2, k2), v2 in b.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            acc[key] = get(key, 0) + v1 * v2


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    out: Coeffs = {}
    _addmul(out, a, b, 1)
    return {k: v for k, v in out.items() if v}


def _scale(a: Coeffs, c: int) -> Coeffs:
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def _primitive(a: Coeffs) -> tuple[Coeffs, int]:
    """Split a nonzero map as k * p with p primitive and its leading
    coefficient positive; returns (p, k)."""
    # reduce builds no argument tuple: CPython 3.11 keeps freed 20-tuples on
    # a free list it never reuses, which grows a long run's memory
    k = reduce(gcd, a.values(), 0)
    if a[max(a)] < 0:
        k = -k
    if k == 1:
        return a, 1
    return {t: v // k for t, v in a.items()}, k


def _divexact(a: Coeffs, b: Coeffs) -> Coeffs:
    """Exact division a / b over the integers; raises when b does not divide a."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    bt = max(b)
    bc = b[bt]
    rest = [(t, v) for t, v in b.items() if t != bt]
    out: Coeffs = {}
    rem = dict(a)
    while rem:
        rt = max(rem)
        q0, q1, q2 = rt[0] - bt[0], rt[1] - bt[1], rt[2] - bt[2]
        qc, r = divmod(rem.pop(rt), bc)
        if r or q0 < 0 or q1 < 0 or q2 < 0:
            raise ValueError("inexact polynomial division")
        out[(q0, q1, q2)] = qc
        for (i, j, k), v in rest:
            key = (q0 + i, q1 + j, q2 + k)
            s = rem.get(key, 0) - qc * v
            if s:
                rem[key] = s
            else:
                del rem[key]
    return out


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


def _pow(a: Coeffs, e: int) -> Coeffs:
    out: Coeffs = {_ONE: 1}
    for _ in range(e):
        out = _mul(out, a)
    return out


def _pseudo_rem(a: Coeffs, b: Coeffs, var: int) -> Coeffs:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b along one variable."""
    da, db = _degree_in(a, var), _degree_in(b, var)
    if db < 0:
        raise ZeroDivisionError
    lc_b = _coeff_of(b, var, db)
    rem = a
    steps = da - db + 1
    while rem:
        dr = _degree_in(rem, var)
        if dr < db:
            break
        lc_r = _coeff_of(rem, var, dr)
        # the subtraction cancels the leading var-term exactly
        rem = _add(_mul(rem, lc_b), _neg(_shift_var(_mul(lc_r, b), var, dr - db)))
        steps -= 1
    if rem and steps > 0:
        rem = _mul(rem, _pow(lc_b, steps))
    return rem


def _content_pp(a: Coeffs, var: int) -> tuple[Coeffs, Coeffs]:
    """Content (gcd of var-coefficients) and primitive part along one variable."""
    slices: dict[int, Coeffs] = {}
    for t, v in a.items():
        key = list(t)
        key[var] = 0
        slices.setdefault(t[var], {})[tuple(key)] = v
    cont: Coeffs = {}
    for e in sorted(slices):
        cont = _gcd(cont, slices[e])
        if cont == {_ONE: 1}:
            return cont, a
    return cont, _divexact(a, cont)


# The coprimality certificate restricts to the line Z = 3X + 5Y, parametrized
# as (X, Y, Z) = (u, 1, 3u + 5), and works modulo the prime 2^31 - 1.
_P = 2**31 - 1
_LINE = (3, 5)


def _restrict_mod_p(a: Coeffs, d: int) -> list[int]:
    """Coefficients mod _P of a(u, 1, 3u + 5), lowest power of u first, of
    formal degree d, the total degree of a (trailing zeros kept)."""
    s, t = _LINE
    powers = [[1]]  # powers[k]: the coefficients of (s*u + t)^k mod _P
    for _ in range(d):
        q = powers[-1]
        powers.append(
            [t * q[0] % _P]
            + [(t * q[m] + s * q[m - 1]) % _P for m in range(1, len(q))]
            + [s * q[-1] % _P]
        )
    out = [0] * (d + 1)
    for (i, _, k), c in a.items():
        for m, w in enumerate(powers[k]):
            out[i + m] += c * w
    return [v % _P for v in out]


def _coprime_on_line(a: Coeffs, b: Coeffs) -> bool:
    """True only when the nonzero maps a and b share no factor of positive
    degree; False means nothing.

    Sound for any line and prime: a common factor h of degree e > 0 restricts
    to a binary form of formal degree e dividing both restrictions over Z,
    hence mod _P.  Either h's restriction vanishes mod _P, and so do both of
    a's and b's; or it has a root on P^1 over the closure of F_P: at infinity,
    where both u^d coefficients vanish, or at a finite u, where the gcd of the
    restrictions over F_P has positive degree.  Each case is refused.
    """
    da, db = max(map(sum, a)), max(map(sum, b))
    if max(da, db) > len(a) + len(b):
        # dense restrictions of sparse maps of high degree cost more than the PRS
        return False
    f, g = _restrict_mod_p(a, da), _restrict_mod_p(b, db)
    return bool(f[-1] or g[-1]) and _coprime_mod(f, g, _P)


def _coprime_mod(f: list[int], g: list[int], p: int) -> bool:
    """True when the polynomials over F_p with the coefficient lists f and g
    (lowest power first) are nonzero and coprime; runs Euclid on them in place."""
    for h in (f, g):
        while h and not h[-1]:
            h.pop()
    if not f or not g:
        return False
    while len(g) > 1:
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            q, shift = f[-1] * inv % p, len(f) - len(g)
            for m in range(len(g) - 1):
                f[shift + m] = (f[shift + m] - q * g[m]) % p
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(g) == 1


def _gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """gcd in Z[X,Y,Z] up to sign: primitive, with a positive graded-lex
    leading coefficient (X > Y > Z); empty when both maps are."""
    if not a:
        return _primitive(b)[0] if b else {}
    if not b:
        return _primitive(a)[0]
    # choose the last variable actually present; recurse on fewer variables
    var = None
    for v in (2, 1, 0):
        if _degree_in(a, v) > 0 or _degree_in(b, v) > 0:
            var = v
            break
    if var is None or _coprime_on_line(a, b):
        return {_ONE: 1}
    cont_a, pp_a = _content_pp(a, var)
    cont_b, pp_b = _content_pp(b, var)
    cont = _gcd(cont_a, cont_b)
    # subresultant polynomial remainder sequence on the primitive parts
    f, g = pp_a, pp_b
    if _degree_in(f, var) < _degree_in(g, var):
        f, g = g, f
    h_prev: Coeffs = {_ONE: 1}
    g_prev: Coeffs = {_ONE: 1}
    while True:
        d = _degree_in(f, var) - _degree_in(g, var)
        rem = _pseudo_rem(f, g, var)
        if not rem:
            _, pp_g = _content_pp(g, var)
            return _primitive(_mul(cont, pp_g))[0]
        if _degree_in(rem, var) == 0:
            return cont
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


# ---------------------------------------------------------------------------
# Public polynomial type
# ---------------------------------------------------------------------------


class HomogeneousPoly:
    """Homogeneous polynomial in X, Y, Z with rational coefficients.

    The form is ``content * coeffs``: ``coeffs`` is a primitive integer map
    from exponent triples to nonzero coefficients whose graded-lex leading
    coefficient is positive, and the rational ``content`` carries the sign.
    Both are shared between forms and must not be mutated.  The zero
    polynomial has the empty map, content 0 and ``degree`` None.
    """

    __slots__ = ("coeffs", "content")

    def __init__(self, terms) -> None:
        items = terms.items() if isinstance(terms, dict) else terms
        d = {tuple(t): Fraction(c) for t, c in items}
        d = {t: c for t, c in d.items() if c}
        degs = {sum(t) for t in d}
        if len(degs) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degs)}")
        if not d:
            self.coeffs, self.content = {}, _ZERO
            return
        den = reduce(lcm, (c.denominator for c in d.values()))
        self.coeffs, k = _primitive(
            {t: c.numerator * (den // c.denominator) for t, c in d.items()}
        )
        self.content = Fraction(k, den)

    @classmethod
    def _make(cls, coeffs: Coeffs, content: Fraction) -> "HomogeneousPoly":
        """Wrap a primitive map with positive leading coefficient, unchecked."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        p.content = content
        return p

    @classmethod
    def zero(cls) -> "HomogeneousPoly":
        return cls._make({}, _ZERO)

    @classmethod
    def constant(cls, c) -> "HomogeneousPoly":
        return cls({_ONE: c})

    @classmethod
    def variable(cls, i: int) -> "HomogeneousPoly":
        t = [0, 0, 0]
        t[i] = 1
        return cls._make({tuple(t): 1}, Fraction(1))

    @property
    def terms(self) -> tuple[tuple[Term, Fraction], ...]:
        """(exponent triple, coefficient) pairs in increasing graded-lex order."""
        c = self.content
        # from a list: a tuple grown from a generator is freed to another
        # size's free list than it came from
        return tuple([(t, c * v) for t, v in sorted(self.coeffs.items())])

    def as_dict(self) -> dict[Term, Fraction]:
        c = self.content
        return {t: c * v for t, v in self.coeffs.items()}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        for t in self.coeffs:
            return sum(t)
        return None

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.content == other.content and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.content, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"HomogeneousPoly(terms={self.terms!r})"

    def _combine(self, other: "HomogeneousPoly", sign: int) -> "HomogeneousPoly":
        """self + sign * other on the integer maps."""
        if not other.coeffs:
            return self
        if not self.coeffs:
            return HomogeneousPoly._make(other.coeffs, sign * other.content)
        c1, c2 = self.content, other.content
        d1, d2 = c1.denominator, c2.denominator
        g = gcd(d1, d2)
        m1, m2 = c1.numerator * (d2 // g), sign * c2.numerator * (d1 // g)
        k = gcd(m1, m2)
        out = _add(_scale(self.coeffs, m1 // k), _scale(other.coeffs, m2 // k))
        if not out:
            return HomogeneousPoly._make({}, _ZERO)
        p, s = _primitive(out)
        return HomogeneousPoly._make(p, Fraction(s * k, d1 // g * d2))

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "HomogeneousPoly":
        return HomogeneousPoly._make(self.coeffs, -self.content)

    def __mul__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        # Gauss's lemma: the product of primitive maps is primitive
        if not self.coeffs or not other.coeffs:
            return HomogeneousPoly._make({}, _ZERO)
        return HomogeneousPoly._make(
            _mul(self.coeffs, other.coeffs), self.content * other.content
        )

    def scale(self, c) -> "HomogeneousPoly":
        c = Fraction(c)
        if c == 0 or not self.coeffs:
            return HomogeneousPoly._make({}, _ZERO)
        return HomogeneousPoly._make(self.coeffs, self.content * c)

    def divexact(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        # a primitive divisor of a primitive map leaves a primitive quotient
        q = _divexact(self.coeffs, other.coeffs)
        if not q:
            return HomogeneousPoly._make({}, _ZERO)
        return HomogeneousPoly._make(q, self.content / other.content)

    def coefficient(self, t: Term) -> Fraction:
        return self.content * self.coeffs.get(tuple(t), 0)

    def coefficient_vector(self, degree: int) -> tuple[Fraction, ...]:
        """Coefficients over the monomial basis of the given degree, grlex order."""
        c, d = self.content, self.coeffs
        return tuple(c * d.get(t, 0) for t in monomial_basis(degree))

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for (a, b, c), v in self.coeffs.items():
            total += v * point[0] ** a * point[1] ** b * point[2] ** c
        return self.content * total

    def substitute(self, images: Sequence["HomogeneousPoly"]) -> "HomogeneousPoly":
        """Substitute each variable by the given form (linear change of frame)."""
        acc = HomogeneousPoly.zero()
        for t, v in self.coeffs.items():
            term = HomogeneousPoly._make({_ONE: 1}, Fraction(v))
            for img, e in zip(images, t):
                for _ in range(e):
                    term = term * img
            acc = acc + term
        return acc.scale(self.content)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for t, c in reversed(self.terms):
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


def _monic(g: Coeffs) -> HomogeneousPoly:
    """The form g scaled to graded-lex leading coefficient 1."""
    return HomogeneousPoly._make(g, Fraction(1, g[max(g)]))


def poly_gcd(a: HomogeneousPoly, b: HomogeneousPoly) -> HomogeneousPoly:
    """Monic gcd (graded-lex leading coefficient 1); both arguments zero is an error."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    return _monic(_gcd(a.coeffs, b.coeffs))


def poly_gcd_list(polys: Iterable[HomogeneousPoly]) -> HomogeneousPoly:
    one = {_ONE: 1}
    acc: Coeffs = {}
    for p in polys:
        acc = _gcd(acc, p.coeffs)
        if acc == one:
            break
    if not acc:
        raise ValueError("gcd of an all-zero family")
    return _monic(acc)


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
        col_types = [i for i, g in enumerate(_positions(type.source)) for _ in g]
        row_types = [l for l, g in enumerate(_positions(type.target)) for _ in g]
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


def _positions(b) -> list[list[int]]:
    """Global row/column positions of each summand type, in order."""
    out, k = [], 0
    for _, m in b.summands:
        out.append(list(range(k, k + m)))
        k += m
    return out


def _pack(a: Coeffs, k: int, s: int) -> int:
    """The map a at Z = 1, X = 2^(k*s), Y = 2^k: the coefficient of X^i Y^j
    lands in the slot of bits k*(i*s + j).  Exponents below s keep slots
    apart, and with every coefficient below 2^(k-1) in absolute value the
    int determines the map of a known degree (see ``_unpack``)."""
    ks = k * s
    return sum([v << (ks * i + k * j) for (i, j, _), v in a.items()])


def _unpack(n: int, d: int, k: int, s: int) -> Coeffs:
    """The map of degree d packed in n by ``_pack``, for coefficients below
    2^(k-1) in absolute value: adding 2^(k-1) at each of its slots makes every
    slot a digit in [0, 2^k), read by shift and mask."""
    half, ks = 1 << (k - 1), k * s
    slots = [(i, j, ks * i + k * j) for i in range(d + 1) for j in range(d + 1 - i)]
    n += sum([half << b for _, _, b in slots])
    mask = (1 << k) - 1
    out: Coeffs = {}
    for i, j, b in slots:
        v = (n >> b & mask) - half
        if v:
            out[(i, j, d - i - j)] = v
    return out


def _minors(
    grid: Sequence[Sequence[HomogeneousPoly]], keeps: Iterable[Sequence[int]]
) -> list[HomogeneousPoly]:
    """Determinant of the square submatrix on each column list in ``keeps``.

    Each row is scaled to integers by the lcm of its entries' content
    denominators, the expansion runs on those integer maps packed into ints
    (``_pack``), and each minor is unpacked and made primitive once, over
    the product of the row scales.  Every exponent of a minor is at most the
    sum of the rows' largest entry degrees, below s; every coefficient is at
    most the permanent bound, the product over the rows of the sum of their
    entries' coefficient sizes, below 2^(k-2).  The entry degrees must be
    consistent (row twist minus column twist, as in a typed matrix).
    """
    if not grid:
        return [HomogeneousPoly.constant(1) for _ in keeps]
    if len(grid) == 1:  # the 1 x 1 minors are the entries themselves
        return [grid[0][c] for c, in keeps]
    weights, scale, s, bound = [], 1, 1, 1
    for row in grid:
        den = reduce(lcm, (e.content.denominator for e in row), 1)
        ws = [e.content.numerator * (den // e.content.denominator) for e in row]
        weights.append(ws)
        scale *= den
        s += max([e.degree for e in row if e.coeffs], default=0)
        bound *= sum([abs(w) * sum(map(abs, e.coeffs.values())) for e, w in zip(row, ws)])
    k = bound.bit_length() + 2
    memo: dict = {}
    out = []
    rows = [
        [(w * _pack(e.coeffs, k, s), e.degree) for e, w in zip(row, ws)]
        for row, ws in zip(grid, weights)
    ]
    for keep in keeps:
        det, d = _expand(rows, memo, 0, sum(1 << c for c in keep))
        if det:
            p, g = _primitive(_unpack(det, d, k, s))
            out.append(HomogeneousPoly._make(p, Fraction(g, scale)))
        else:
            out.append(HomogeneousPoly.zero())
    return out


def _expand(
    rows: list[list[tuple[int, int | None]]], memo: dict, row: int, colmask: int
) -> tuple[int, int | None]:
    """Determinant of the packed rows from ``row`` on, restricted to the
    columns in ``colmask``, by Laplace expansion along the rows, with its
    degree (None when it vanishes); memoized on the column mask, which fixes
    the starting row.  A module-level function rather than a closure, so
    that no reference cycle keeps the memo alive after the call."""
    if row == len(rows) - 1:  # one column left: the entry itself
        return rows[row][colmask.bit_length() - 1]
    if colmask in memo:
        return memo[colmask]
    acc, deg = 0, None
    sign = True
    for c in range(colmask.bit_length()):
        if not (colmask >> c) & 1:
            continue
        e, d = rows[row][c]
        if e:
            sub, sd = _expand(rows, memo, row + 1, colmask & ~(1 << c))
            if sub:
                if deg is None:
                    deg = d + sd
                elif deg != d + sd:
                    raise ValueError("minor of a grid with inconsistent degrees")
                if sign:
                    acc += e * sub
                else:
                    acc -= e * sub
        sign = not sign
    out = (acc, deg if acc else None)
    memo[colmask] = out
    return out


def determinant(m: PolyMatrix) -> HomogeneousPoly:
    """Exact determinant of a square matrix; homogeneous of degree
    sum(target twists) - sum(source twists)."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    return _minors(m.entries, [range(m.nrows)])[0]


def maximal_minors(m: PolyMatrix) -> list[HomogeneousPoly]:
    """All maximal-size minors, unsigned.

    For a wide matrix the omitted column sets run in increasing lexicographic
    order, for a tall matrix the omitted row sets in decreasing order.
    """
    r, c = m.nrows, m.ncols
    grid = m.entries
    if c < r:  # minors of a tall matrix are those of its transpose
        grid = [list(col) for col in zip(*grid)]
        r, c = c, r
        omits = sorted(itertools.combinations(range(c), c - r), reverse=True)
    else:
        omits = itertools.combinations(range(c), c - r)
    return _minors(grid, [[j for j in range(c) if j not in omit] for omit in omits])


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
    if g.degree != 0:  # a constant gcd is 1, and beta is the minors themselves
        minors = [p if p.is_zero else p.divexact(g) for p in minors]
    beta = [p if i % 2 == 0 else -p for i, p in enumerate(minors)]
    # per row, sum of w_c * m[r][c] * beta[c] on packed ints, the weights
    # w_c = content(m[r][c]) * content(beta[c]) scaled to integers; entries
    # of a row times beta share one degree, so one s and one k serve all rows
    norms = [sum(map(abs, b.coeffs.values())) for b in beta]
    rows, bound = [], 0
    for row in m.entries:
        weights = [e.content * b.content for e, b in zip(row, beta)]
        den = reduce(lcm, (w.denominator for w in weights), 1)
        ws = [w.numerator * (den // w.denominator) for w in weights]
        rows.append(ws)
        bound = max(bound, sum([
            abs(w) * sum(map(abs, e.coeffs.values())) * n
            for e, n, w in zip(row, norms, ws) if w
        ]))
    k = bound.bit_length() + 2
    s = 1 + max([e.degree for row in m.entries for e in row if e.coeffs], default=0)
    s += max([b.degree for b in beta if b.coeffs])
    packed = [_pack(b.coeffs, k, s) for b in beta]
    for row, ws in zip(m.entries, rows):
        if sum([w * _pack(e.coeffs, k, s) * b for e, b, w in zip(row, packed, ws) if w]):
            raise ValueError("kernel relation failed; inconsistent twists")
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
    return [i for g in reversed(_positions(b)) for i in g]


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
    q1, rest = _split_var(f, 1)
    q2 = -rest.divexact(X)
    t = MorphismType.make([(-2, 1), (-1, 1)], [(0, 2)])
    return PolyMatrix(t, [[q1, X], [q2, Y]])


def adapt_to_point(point, f: HomogeneousPoly) -> HomogeneousPoly:
    """Present f in coordinates where the given point becomes (0:0:1)."""
    pt = [Fraction(x) for x in point]
    if len(pt) != 3:
        raise ValueError(f"a projective point needs three homogeneous coordinates, not {len(pt)}")
    if not any(pt):
        raise ValueError("(0:0:0) is not a projective point")
    if f.evaluate(pt) != 0:
        raise ValueError("form does not vanish at the point")
    if pt == [0, 0, 1]:
        return f
    # complete the point to a basis; columns of the change send e3 to the point
    cols = complete_basis([pt], 3)
    return _in_frame(f, zip(cols[1], cols[2], cols[0]))  # point goes last


def _in_frame(f: HomogeneousPoly, change) -> HomogeneousPoly:
    """f in a new frame, where old variable var = sum_k change[var][k] * new_k."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return f.substitute([HomogeneousPoly(dict(zip(units, row))) for row in change])


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
    y_part, rest = _split_var(f, 1)
    f1 = -y_part
    f2 = rest.divexact(X)
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


def _split_var(f: HomogeneousPoly, var: int) -> tuple[HomogeneousPoly, HomogeneousPoly]:
    """The unique (q, r) with f = v*q + r for the variable v of index var and
    r free of v."""
    q: Coeffs = {}
    r: Coeffs = {}
    for t, c in f.coeffs.items():
        if t[var]:
            q[t[:var] + (t[var] - 1,) + t[var + 1 :]] = c
        else:
            r[t] = c

    def form(a: Coeffs) -> HomogeneousPoly:
        if not a:
            return HomogeneousPoly.zero()
        p, k = _primitive(a)
        return HomogeneousPoly._make(p, f.content * k)

    return form(q), form(r)


def _split_zyx(f: HomogeneousPoly) -> tuple[HomogeneousPoly, ...]:
    """Unique f = Z*q1 - Y*q2 + X*q3 with q1 in k[X,Y,Z], q2 in k[X,Y], q3 in k[X]."""
    q1, rest = _split_var(f, 2)
    y_part, rest = _split_var(rest, 1)
    return q1, -y_part, rest.divexact(X)


def adapt_to_span(span, f: HomogeneousPoly) -> HomogeneousPoly:
    """Present f in the frame whose first two coordinates are the span forms."""
    x1, x2 = span
    if x1.degree != 1 or x2.degree != 1:
        raise ValueError("span must consist of linear forms")
    ok, _ = linearly_independent([x1, x2])
    if not ok:
        raise ValueError("span forms are linearly dependent")
    if x1 == X and x2 == Y:
        return f
    # pick a third form completing the basis; the new coordinates are
    # rows . old, so the old variables are inverse(rows) . new
    rows = complete_basis([x1.coefficient_vector(1), x2.coefficient_vector(1)], 3)
    return _in_frame(f, inverse(rows))


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
    acc: dict[Term, Fraction] = {}
    for sgn, chunk in chunks:
        m = _TERM_RE.match(chunk)
        if m is None or not chunk.strip():
            raise ValueError(f"bad polynomial term {chunk!r}")
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {chunk!r}") from None
        exps = [0, 0, 0]
        for fac in re.finditer(r"([XYZ])(?:\^(\d+))?", m.group("mono") or ""):
            exps[_VARS.index(fac.group(1))] += int(fac.group(2) or 1)
        key = tuple(exps)
        acc[key] = acc.get(key, Fraction(0)) + sgn * coef
    return HomogeneousPoly(acc)


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

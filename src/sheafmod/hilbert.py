"""Exact Hilbert-polynomial arithmetic for sheaves on the projective plane.

Everything is carried out over ``fractions.Fraction``; no floating point
enters at any stage.  Polynomials are stored in the monomial basis (lists of
coefficients of t^0, t^1, t^2), with conversion to the binomial basis
available for display or integrality arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .bundles import MorphismType

__all__ = [
    "HilbertPolynomial",
    "LinearClass",
    "hilbert_of_twist",
    "hilbert_of_resolution",
    "quotient_from_minors_kernel",
    "structure_sheaf_poly",
    "line_bundle_degree",
    "slope_violates",
    "is_fine",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class HilbertPolynomial:
    """Polynomial in one variable t of degree <= 2 with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of t^i; trailing zeros are stripped so the
    representation is canonical.  The zero polynomial has ``coeffs == ()``.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable) -> None:
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) > 3:
            raise ValueError("degree must be at most 2 for sheaves on the plane")
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "HilbertPolynomial":
        return cls(())

    @classmethod
    def linear(cls, r, chi) -> "HilbertPolynomial":
        return cls((chi, r))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __call__(self, t) -> Fraction:
        t = _as_fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return HilbertPolynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    def __sub__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return HilbertPolynomial(
            self.coefficient(i) - other.coefficient(i) for i in range(n)
        )

    def __neg__(self) -> "HilbertPolynomial":
        return HilbertPolynomial(-c for c in self.coeffs)

    def scale(self, k) -> "HilbertPolynomial":
        k = _as_fraction(k)
        return HilbertPolynomial(k * c for c in self.coeffs)

    def binomial_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients a_i in the expansion sum_i a_i * C(t+i-1, i).

        C(t-1+i, i) has leading term t^i/i!; the a_i of an integer-valued
        polynomial are integers.
        """
        # C(t+i-1, i) for i = 0,1,2 -> 1, t, (t^2+t)/2
        a2 = 2 * self.coefficient(2)
        a1 = self.coefficient(1) - a2 / 2
        a0 = self.coefficient(0)
        return (a0, a1, a2)

    def linear_class(self) -> "LinearClass":
        if self.degree != 1:
            raise ValueError(f"not a linear polynomial: {self}")
        r, chi = self.coeffs[1], self.coefficient(0)
        if r.denominator != 1 or chi.denominator != 1 or r <= 0:
            raise ValueError(f"not of the form r*t + chi with integer r >= 1: {self}")
        return LinearClass(int(r), int(chi))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class LinearClass:
    """Multiplicity and Euler characteristic (r, chi) of a linear polynomial r*t + chi."""

    r: int
    chi: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("multiplicity r must be >= 1")

    def polynomial(self) -> HilbertPolynomial:
        return HilbertPolynomial.linear(self.r, self.chi)

    def dual(self) -> "LinearClass":
        return LinearClass(self.r, self.r - self.chi)

    def moduli_dim(self) -> int:
        """Dimension r^2 + 1 of the moduli space of semistable sheaves in this class."""
        return self.r * self.r + 1


def hilbert_of_twist(d: int) -> HilbertPolynomial:
    """Hilbert polynomial (t+d+2)(t+d+1)/2 of the line bundle O(d) on the plane."""
    return HilbertPolynomial(
        (
            Fraction((d + 2) * (d + 1), 2),
            Fraction(2 * d + 3, 2),
            Fraction(1, 2),
        )
    )


def hilbert_of_resolution(
    res: "MorphismType", kernel_twist: int | None = None
) -> HilbertPolynomial:
    """Alternating sum target - source (+ kernel term) of line-bundle twists.

    For a presentation ``0 -> (O(k)) -> source -> target -> F -> 0`` this is
    the Hilbert polynomial of the cokernel F.
    """
    acc = HilbertPolynomial.zero()
    for twist, mult in res.target.summands:
        acc = acc + hilbert_of_twist(twist).scale(mult)
    for twist, mult in res.source.summands:
        acc = acc - hilbert_of_twist(twist).scale(mult)
    if kernel_twist is not None:
        acc = acc + hilbert_of_twist(kernel_twist)
    return acc


def quotient_from_minors_kernel(n: int, d: int) -> HilbertPolynomial:
    """Hilbert polynomial (n-d)t + (d-2)(d-3)/2 of the quotient supported away
    from a degree-d member of the pencil of maximal minors.

    Rejects n < d: the quotient would have negative multiplicity.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    if n < d:
        raise ValueError("n < d gives an empty quotient support")
    return HilbertPolynomial((Fraction((d - 2) * (d - 3), 2), n - d))


def structure_sheaf_poly(r: int) -> HilbertPolynomial:
    """Hilbert polynomial r*t - r(r-3)/2 of the structure sheaf of a degree-r curve."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return HilbertPolynomial((Fraction(-r * (r - 3), 2), r))


def line_bundle_degree(r: int, chi: int) -> int:
    """Degree r(r-3)/2 + chi of a line bundle with invariants (r, chi) on a
    smooth degree-r curve (Riemann-Roch)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    # one of r and r - 3 is even, so r(r - 3) is
    return r * (r - 3) // 2 + chi


def slope_violates(sub: LinearClass, parent: LinearClass, strict: bool) -> bool:
    """Whether sub destabilizes parent: chi'/r' > chi/r (strict) or >= (non-strict).

    Compared by integer cross-multiplication, never by division.
    """
    lhs = sub.chi * parent.r
    rhs = parent.chi * sub.r
    return lhs > rhs if strict else lhs >= rhs


def is_fine(r: int, chi: int) -> bool:
    """gcd(r, chi) = 1: the moduli space carries a universal sheaf."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return gcd(r, abs(chi)) == 1



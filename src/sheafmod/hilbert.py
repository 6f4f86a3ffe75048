"""Exact Hilbert-polynomial arithmetic for sheaves on the projective plane.

Polynomial arithmetic runs over ``fractions.Fraction`` and block classes over
integers; no floating point enters at any stage.  Polynomials are stored in
the monomial basis (lists of coefficients of t^0, t^1, t^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .bundles import MorphismType
    from .regions import Shape

__all__ = [
    "HilbertPolynomial",
    "LinearClass",
    "hilbert_of_twist",
    "hilbert_of_resolution",
    "hilbert_of_shape",
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

    def scale(self, k) -> "HilbertPolynomial":
        k = _as_fraction(k)
        return HilbertPolynomial(k * c for c in self.coeffs)

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


def hilbert_of_shape(res: "MorphismType", shape: "Shape") -> tuple[int, int]:
    """(r', chi') of the block of ``shape``, which maps its columns to the rows
    outside its rows: ``hilbert_of_resolution`` of the block's own type, on
    integers, with O(d) read as (d, (d+1)(d+2)/2).  The block must be square."""
    rows, cols = shape
    summands = [(e, n - b) for b, (e, n) in zip(rows, res.target.summands)]
    summands += [(d, -a) for a, (d, _) in zip(cols, res.source.summands)]
    if sum(m for _, m in summands):
        raise ValueError(f"the block of {shape} in {res} is not square")
    return sum(m * d for d, m in summands), sum(m * (d + 1) * (d + 2) // 2 for d, m in summands)

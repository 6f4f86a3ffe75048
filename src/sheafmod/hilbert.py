"""Hilbert polynomials of sheaves on the projective plane, as integer classes.

The Hilbert polynomial of a sheaf on the plane is rho*(t+1)(t+2)/2 + r*t + chi
for integers (rho, r, chi), its class.  The line bundle O(d) has the class
(1, d, d(d+3)/2), and classes add along exact sequences, so the class of a
resolution is a signed sum over its twists.  Everything stays in integers;
``format_hilbert`` prints a class in powers of t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .bundles import MorphismType
    from .regions import Shape

__all__ = [
    "LinearClass",
    "format_hilbert",
    "hilbert_class",
    "hilbert_of_resolution",
    "hilbert_of_shape",
]


@dataclass(frozen=True)
class LinearClass:
    """Multiplicity and Euler characteristic (r, chi) of a linear polynomial r*t + chi."""

    r: int
    chi: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("multiplicity r must be >= 1")

    def dual(self) -> "LinearClass":
        return LinearClass(self.r, self.r - self.chi)

    def moduli_dim(self) -> int:
        """Dimension r^2 + 1 of the moduli space of semistable sheaves in this class."""
        return self.r * self.r + 1


def hilbert_class(summands: list[tuple[int, int]]) -> tuple[int, int, int]:
    """The class (rho, r, chi) of the sum of m copies of O(d) over the pairs
    (d, m) of ``summands``; a negative m subtracts."""
    return (
        sum(m for _, m in summands),
        sum(m * d for d, m in summands),
        sum(m * (d * (d + 3) // 2) for d, m in summands),
    )


def hilbert_of_resolution(
    res: "MorphismType", kernel_twist: int | None = None
) -> tuple[int, int, int]:
    """The class of target - source (+ kernel term) of a resolution type.

    For a presentation ``0 -> (O(k)) -> source -> target -> F -> 0`` this is
    the class of the cokernel F.
    """
    summands = [*res.target.summands, *((d, -m) for d, m in res.source.summands)]
    if kernel_twist is not None:
        summands.append((kernel_twist, 1))
    return hilbert_class(summands)


def hilbert_of_shape(res: "MorphismType", shape: "Shape") -> tuple[int, int]:
    """(r', chi') of the block of ``shape``, which maps its columns to the rows
    outside its rows, read off its class.  The block must be square."""
    rows, cols = shape
    summands = [(e, n - b) for b, (e, n) in zip(rows, res.target.summands)]
    summands += [(d, -a) for a, (d, _) in zip(cols, res.source.summands)]
    rho, r, chi = hilbert_class(summands)
    if rho:
        raise ValueError(f"the block of {shape} in {res} is not square")
    return r, chi


def format_hilbert(klass: tuple[int, int, int]) -> str:
    """The polynomial of a class in powers of t, highest first, with rational
    coefficients in lowest terms: ``1/2*t^2 + 5/2*t + 2``, ``6*t + 3``, ``0``."""
    rho, r, chi = klass
    terms = ((Fraction(rho, 2), "*t^2"), (Fraction(3 * rho + 2 * r, 2), "*t"), (rho + chi, ""))
    return " + ".join(f"{c}{power}" for c, power in terms if c).replace("+ -", "- ") or "0"

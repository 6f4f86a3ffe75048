"""Cohomology-table bookkeeping, the Beilinson monad, and duality.

A cohomology table holds the six numbers h^0/h^1 of F(-1), F and
F (x) Omega^1(1) for a sheaf class (r, chi).  The three Euler differences

    h0m1 - h1m1 = chi - r
    h0   - h1   = chi
    h0om - h1om = 2*chi - r

pin each pair once one member is known; the third difference follows from
the restricted Euler sequence 0 -> Omega^1(1) -> 3O -> O(1) -> 0, which gives
chi(F (x) Omega^1(1)) = 3*chi(F) - chi(F(1)) = 2*chi - r.

Beilinson's theorem turns a table into the monad whose cohomology is F;
``beilinson_terms`` gives its terms, and the registry reads each case's
resolution C^-1 -> C^0 from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .bundles import BundleSum
from .hilbert import LinearClass

__all__ = [
    "CohomologyTable",
    "complete_table",
    "beilinson_terms",
    "serre_dual_table",
]

FIELDS = ("h0m1", "h1m1", "h0", "h1", "h0om", "h1om")
# each h^0/h^1 pair with its Euler difference h^0 - h^1, written out and as a
# function of (r, chi)
_PAIRS = (
    ("h0m1", "h1m1", "chi - r", lambda r, chi: chi - r),
    ("h0", "h1", "chi", lambda r, chi: chi),
    ("h0om", "h1om", "2*chi - r", lambda r, chi: 2 * chi - r),
)


@dataclass(frozen=True)
class CohomologyTable:
    """h^0/h^1 of F(-1), F, F(x)Omega^1(1) for a class (r, chi)."""

    klass: LinearClass
    h0m1: int
    h1m1: int
    h0: int
    h1: int
    h0om: int
    h1om: int

    def __post_init__(self) -> None:
        r, chi = self.klass.r, self.klass.chi
        for name in FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for hi, lo, text, diff in _PAIRS:
            if getattr(self, hi) - getattr(self, lo) != diff(r, chi):
                raise ValueError(f"{hi} - {lo} must equal {text}")

    def rows(self) -> list[tuple[str, int, int]]:
        return [
            ("F(-1)", self.h0m1, self.h1m1),
            ("F", self.h0, self.h1),
            ("F.Omega1(1)", self.h0om, self.h1om),
        ]


def complete_table(klass: LinearClass, known: Mapping[str, int]) -> CohomologyTable:
    """Fill a partial table using the three difference identities.

    Each h^0/h^1 pair needs one known member; inconsistent or underdetermined
    input is rejected with the offending pair named.
    """
    for name in known:
        if name not in FIELDS:
            raise ValueError(f"unknown table entry {name!r}")
    values: dict[str, int] = {}
    for hi, lo, _, diff_of in _PAIRS:
        diff = diff_of(klass.r, klass.chi)
        if hi in known and lo in known:
            if known[hi] - known[lo] != diff:
                raise ValueError(f"pair ({hi},{lo}) is inconsistent with (r,chi)")
            values[hi], values[lo] = known[hi], known[lo]
        elif hi in known:
            values[hi] = known[hi]
            values[lo] = known[hi] - diff
        elif lo in known:
            values[lo] = known[lo]
            values[hi] = known[lo] + diff
        else:
            raise ValueError(f"pair ({hi},{lo}) is underdetermined")
        if values[hi] < 0 or values[lo] < 0:
            raise ValueError(f"pair ({hi},{lo}) would go negative")
    return CohomologyTable(klass, **values)


def beilinson_terms(
    t: CohomologyTable,
) -> tuple[BundleSum | None, BundleSum | None, BundleSum | None, BundleSum | None]:
    """Terms (C^-2, C^-1, C^0, C^1) of the four-term complex built from the
    table; zero terms come back as None."""

    def build(parts: list[tuple[int, int]]) -> BundleSum | None:
        parts = [(d, m) for d, m in parts if m > 0]
        return BundleSum(sorted(parts)) if parts else None

    c_m2 = build([(-2, t.h0m1)])
    c_m1 = build([(-1, t.h0om), (-2, t.h1m1)])
    c_0 = build([(0, t.h0), (-1, t.h1om)])
    c_1 = build([(0, t.h1)])
    return (c_m2, c_m1, c_0, c_1)


def serre_dual_table(t: CohomologyTable) -> CohomologyTable:
    """Table of the dual sheaf class (r, r - chi): h^0(F^D(-1)) = h^1(F),
    h^1(F^D(-1)) = h^0(F), h^0(F^D) = h^1(F(-1)), h^1(F^D) = h^0(F(-1)),
    and the Omega pair swaps."""
    return CohomologyTable(
        t.klass.dual(),
        h0m1=t.h1,
        h1m1=t.h0,
        h0=t.h1m1,
        h1=t.h0m1,
        h0om=t.h1om,
        h1om=t.h0om,
    )

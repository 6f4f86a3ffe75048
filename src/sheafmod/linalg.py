"""Exact linear algebra over the rationals on integer rows.

One fraction-free kernel serves every rank, kernel and inverse computation
in the package.  Each input row (ints or Fractions) is scaled to integers on
its own, which changes neither the row space nor the kernel, and is inserted
into an echelon basis: the row is reduced against the existing pivots by
integer cross-multiplication and divided by its content, so entries stay
small and no Fraction appears inside the loop.  Insertion stops as soon as
the rank reaches the width.  Kernel vectors and inverses come from
back-substitution to the reduced row echelon form, which is unique, so the
result does not depend on the order or the scaling of the rows.

``rank_exceeds`` is the rank-only early stop of the same elimination: it
keeps its basis rows in insertion order, which is sound because each basis
row is zero in the pivot of every row inserted before it, and answers as
soon as the rank passes a bound, with no Fraction, no pivot map, no
back-substitution and no normalization of the rows by their content.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = ["right_kernel", "rank", "rank_exceeds", "inverse", "complete_basis"]

Row = Sequence[int | Fraction]


def _integer_row(row: Row) -> list[int]:
    """The row as ints: a row of ints as it is, any other scaled by the lcm of
    its denominators."""
    if all(map(isinstance, row, repeat(int))):
        return list(row)
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return v if g == 1 else [x // g for x in v]


def _eliminate(v: list[int], b: list[int], p: int) -> list[int]:
    """An integer multiple of v minus one of b with a zero in column p,
    where b[p] is nonzero."""
    a, lead = v[p], b[p]
    g = gcd(a, lead)
    return [lead // g * x - a // g * y for x, y in zip(v, b)]


def _echelon(rows: Iterable[Row], width: int) -> tuple[list[int], dict[int, list[int]]]:
    """Pivot columns (ascending) and their primitive integer rows.

    Every basis row has its first nonzero entry in its pivot column and a
    zero in each earlier pivot column.  Stops early, without reading further
    rows, once the rank reaches the width.
    """
    pivots: list[int] = []
    basis: dict[int, list[int]] = {}
    for row in rows:
        v = _integer_row(row)
        if not any(v):
            continue
        for p in pivots:
            if v[p]:
                v = _eliminate(v, basis[p], p)
        lead_col = next((c for c, x in enumerate(v) if x), None)
        if lead_col is None:
            continue
        basis[lead_col] = _primitive(v)
        insort(pivots, lead_col)
        if len(pivots) == width:
            break
    return pivots, basis


def _back_substitute(pivots: list[int], basis: dict[int, list[int]]) -> None:
    """Clear every later pivot column from each pivot row, in place, so each
    row becomes a primitive integer multiple of its reduced row echelon row."""
    for idx in range(len(pivots) - 2, -1, -1):
        v = basis[pivots[idx]]
        for q in pivots[idx + 1:]:
            if v[q]:
                v = _eliminate(v, basis[q], q)
        basis[pivots[idx]] = _primitive(v)


def rank(rows: Sequence[Row]) -> int:
    """Rank over the rationals of a list of equal-length rows."""
    width = len(rows[0]) if rows else 0
    return len(_echelon(rows, width)[0])


def rank_exceeds(rows: Iterable[Sequence[int]], bound: int) -> bool:
    """Whether integer rows have rank over the rationals above ``bound``; no
    row is read after the first that takes the rank past it."""
    if bound < 0:
        return True
    basis: list[tuple[int, Sequence[int]]] = []
    for v in rows:
        for p, b in basis:
            if v[p]:
                v = _eliminate(v, b, p)
        for lead_col, x in enumerate(v):
            if x:
                basis.append((lead_col, v))
                if len(basis) > bound:
                    return True
                break
    return False


def complete_basis(vectors: Sequence[Row], dim: int) -> list[list[Fraction]]:
    """Extend independent vectors to a basis of dim-space by appending, in
    order, each standard basis vector that raises the rank."""
    rows = [list(v) for v in vectors]
    for e in range(dim):
        cand = [Fraction(int(j == e)) for j in range(dim)]
        if rank(rows + [cand]) > rank(rows):
            rows.append(cand)
        if len(rows) == dim:
            break
    return rows


def right_kernel(rows: Iterable[Row], width: int) -> list[list[Fraction]]:
    """Canonical basis of {k : row . k = 0 for every row}.

    One vector per free column, in ascending order: a 1 in the free slot,
    -a/b in each pivot slot where a/b is the reduced row echelon entry, and
    0 elsewhere.  The elimination reads no row past full rank.
    """
    pivots, basis = _echelon(rows, width)
    _back_substitute(pivots, basis)
    out = []
    for fc in range(width):
        if fc in basis:
            continue
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for p in pivots:
            vec[p] = Fraction(-basis[p][fc], basis[p][p])
        out.append(vec)
    return out


def inverse(rows: Sequence[Row]) -> list[list[Fraction]]:
    """Inverse of a square matrix, by elimination on [A | I]; ValueError
    when the matrix is not square or is singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    aug = ([*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows))
    pivots, basis = _echelon(aug, 2 * n)
    # A is invertible exactly when every pivot of [A | I] lies in A
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    _back_substitute(pivots, basis)
    return [[Fraction(x, basis[i][i]) for x in basis[i][n:]] for i in range(n)]

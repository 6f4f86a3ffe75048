"""Semistability verdicts for concrete matrices of forms.

The destabilizer search combines two exact passes (row-subset times
column-kernel sweeps, and pencil decisions for width-one blocks over a
two-column type) with a seeded randomized pass that samples constant row
subspaces, takes exact column kernels against them, and verifies any hit
exactly.  Verdicts are three-valued: a verified witness gives Destabilized,
a complete exact decision of every destabilizing shape gives
CertifiedSemistable, anything else stays Undetermined.

The criterion is invariant under duality, so the sweep and the pencil are
written once and run on two integer coefficient views of the matrix, built
once per search from its entries (``_views``): the matrix, and its
transpose in the dual type's order but the matrix's positions.  A witness
found on the transpose is pulled back by swapping its lists of row and
column combinations, an involution.  A literal zero block needs no pass of
its own: its columns are a row subset of the transpose whose kernels hold
the unit vectors of its rows, so the transposed sweep finds it, under the
same subset cap.  All rank and kernel work goes through
:mod:`sheafmod.linalg`.

"Absent" propagates upward through the shape lattice: a zero block of shape
(b, a) contains one of every smaller nonempty shape, so once some T <= S is
proven to have no block, neither has S.  The search closes a destabilizing
shape S with no test run when a lower neighbour of S (S less one row, or one
column, of a single type) is already proven absent; shapes come in
lexicographic order, so every lower neighbour is seen before S and the
closures chain upward.  Every other destabilizing shape S runs one
ordered list of exact tests (``_tests``), each a row sweep or a pencil on one
side, of S or of a lower shape whether or not it destabilizes: the row sweep
on all rows of the types S fills against S's columns, and on its transposed
twin; S's own sweep on either side; then the pencil on S's rows against one
column of each source type of width two that S uses, and on one row of each
target type of width two against S's columns (S itself when S has one such
column, or row).  A type of width one needs no pencil: one column of it is
all of its columns, which the transposed sweep decides.  The first test that
decides with no witness and no note proves S absent.  On S itself, a
witness that verifies, or a note of a block over the closure, ends the
search, and a witness that fails to verify decides nothing.  A lower shape's
outcome is memoized per search, keyed by the shape itself.

The row sweep walks its row subsets depth first, in product order
(lexicographic within a type, type-major), and drops a branch as soon as
some column kernel of the prefix rows is too small, since a row added can
only shrink a kernel.  Every subset skipped would have failed, so the first
subset accepted, and the witness built from it, is the one a flat
enumeration finds.  The test reads a kernel's dimension from an exact rank;
the kernel basis is built only for the subset accepted, by the completion
the random pass shares (``_witness``).  Shapes with more
than 4 096 row subsets stay undecided by the sweep.

The random pass builds one trial plan per open shape before its trials
start (``_TrialPlan``): the width of each block row's type, and per source
type i the shape needs, the refusal bound w_i - a_i and the packed rows of
each block row's type against i (``_Packed``), which the view builds once
per search.  A packed row holds a row's coefficients against type i in one
int, one signed slot per (monomial, column), wide enough for any
combination of the type's rows with weights in [-3, 3].  A trial then only
draws and ranks: per block row, such a combination of its type's rows, and
one big-int product of its weights with the packed rows, which packs the
block row's virtual rows.  A block row whose product is 0 adds nothing; a
type with bound 0 is refused at the first nonzero product; any other type
has each nonzero product unpacked row by row as ``linalg.rank_exceeds``
reads it, and is refused as soon as the rank leaves fewer kernel vectors
than the shape needs, with no further product taken.  Only a trial that no
source type refuses builds its virtual rows from the layouts and takes their
exact kernels for the witness.  The weights are the stream of
``randint(-3, 3)``, with ``randrange(n)`` for a block row of zeros, read from
the seeded generator's words in bulk by one weight source per search
(``_Weights``), built only when trials run; so a seed gives the same trials,
refusals and witnesses.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, isqrt, lcm, prod
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .bundles import MorphismType
from .linalg import complete_basis, rank, rank_exceeds, right_kernel
from .polymatrix import (
    HomogeneousPoly,
    PolyMatrix,
    determinant,
    kernel_line,
    linearly_independent,
    maximal_minors,
    poly_gcd,
    poly_gcd_list,
    _coprime_mod,
    _minors,
    _positions,
)
from .regions import Polarization, Shape, _lower_neighbours, classify_shapes

if TYPE_CHECKING:
    from .registry import CaseSpec

__all__ = [
    "VerdictKind",
    "Witness",
    "Verdict",
    "KoszulClass",
    "search_destabilizer",
    "check_case",
    "CaseReport",
    "koszul_test",
    "FLAGS",
]

_SUBSET_CAP = 4096


class VerdictKind(Enum):
    DESTABILIZED = "destabilized"
    CERTIFIED_SEMISTABLE = "certified-semistable"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Witness:
    """Zero block exhibited after constant row/column combinations.

    ``row_combos`` holds one rational row-combination vector per block row,
    each supported on a single target type, and ``col_combos`` one
    column-combination vector per block column, each supported on a single
    source type.  A literal row or column is a unit vector.
    """

    shape: Shape
    row_combos: tuple[tuple[Fraction, ...], ...]
    col_combos: tuple[tuple[Fraction, ...], ...]


@dataclass
class Verdict:
    kind: VerdictKind
    witness: Witness | None
    budget_used: int
    undecided: tuple[Shape, ...] = ()
    note: str = ""

    def __str__(self) -> str:
        out = self.kind.value
        if self.witness is not None:
            out += f" via zero block {self.witness.shape}"
        if self.note:
            out += f" ({self.note})"
        return out


def _embed(positions, values, width: int) -> tuple[Fraction, ...]:
    """The zero vector of the given width with the values at the positions."""
    vec = [Fraction(0)] * width
    for p, v in zip(positions, values):
        vec[p] = Fraction(v)
    return tuple(vec)


def _over_cap(groups, counts) -> bool:
    """More than ``_SUBSET_CAP`` choices of counts[t] positions per groups[t]."""
    return prod(comb(len(g), b) for g, b in zip(groups, counts)) > _SUBSET_CAP


def _first_subset(groups, counts, accepts) -> tuple[int, ...] | None:
    """The row sweep's walk: the first choice of counts[t] positions from
    each groups[t], flattened in product order (lexicographic within a type,
    the first type varying slowest), that ``accepts`` takes.  Every nonempty
    prefix is tested and a refused one is not extended, so ``accepts`` must
    refuse every extension of a prefix it refuses."""
    slots = [(g, b) for g, b in zip(groups, counts) if b]

    def walk(prefix, t, start, left):
        if not left:
            t += 1
            if t == len(slots):
                return prefix
            start, left = 0, slots[t][1]
        g = slots[t][0]
        for j in range(start, len(g) - left + 1):
            chosen = prefix + (g[j],)
            if accepts(chosen):
                found = walk(chosen, t, j + 1, left - 1)
                if found is not None:
                    return found
        return None

    return walk((), -1, 0, 0)


class _CoefficientView:
    """Integer coefficient slices of a grid of forms, built once per search.

    The grid's rows and columns fall into the given groups of positions, one
    per type.  ``slices[r][i]`` lists, per monomial of the block of row r's
    type and column type i (sorted), the coefficients of row r's entries in
    the columns of type i.  Each entry's integer map is weighted by its content
    times one scale per block that clears the contents' denominators, so a
    combination of rows within a type is the same combination of their
    slices.  The dimensions of the column kernels of literal row subsets,
    which the sweep reads from one exact rank, are memoized by (rows, source
    type).  The layouts and packed rows of the random pass are built on first
    use, once per (row type, source type).
    """

    def __init__(self, grid, row_groups: list[list[int]], col_groups: list[list[int]]):
        self.row_groups, self.col_groups = row_groups, col_groups
        self.nrows, self.ncols = sum(map(len, row_groups)), sum(map(len, col_groups))
        self.slices: list[list[list[list[int]]]] = [[] for _ in range(self.nrows)]
        for g in row_groups:
            for cols in col_groups:
                block = [grid[r][c] for r in g for c in cols]
                monos = sorted({mono for e in block for mono in e.coeffs})
                scale = lcm(*(e.content.denominator for e in block))
                for r in g:
                    row = [grid[r][c] for c in cols]
                    w = [e.content.numerator * (scale // e.content.denominator) for e in row]
                    per_mono = [[x * e.coeffs.get(t, 0) for x, e in zip(w, row)] for t in monos]
                    self.slices[r].append(per_mono)
        self._nullities: dict[tuple[tuple[int, ...], int], int] = {}
        self._layouts: dict[tuple[int, int], list[list[tuple[int, ...]]]] = {}
        self._packs: dict[tuple[int, int], _Packed] = {}

    def nullity(self, rows: tuple[int, ...], i: int) -> int:
        """The dimension of the constant combinations of the type-i columns
        that vanish on ``rows``, read from one exact rank."""
        key = (rows, i)
        if key not in self._nullities:
            stack = [v for r in rows for v in self.slices[r][i]]
            self._nullities[key] = len(self.col_groups[i]) - rank(stack)
        return self._nullities[key]

    def layout(self, l: int, i: int) -> list[list[tuple[int, ...]]]:
        """Per monomial of block (l, i) and per type-i column, the tuple of the
        coefficients of type l's rows there: the combination of those rows
        with weights ``w`` has the coefficient ``sum(map(mul, w, col))``."""
        key = (l, i)
        if key not in self._layouts:
            slices = (self.slices[r][i] for r in self.row_groups[l])
            self._layouts[key] = [list(zip(*mono_rows)) for mono_rows in zip(*slices)]
        return self._layouts[key]

    def packed(self, l: int, i: int) -> _Packed:
        """The slices of type l's rows against source type i, one int per
        row (``_Packed``), built on first use."""
        key = (l, i)
        if key not in self._packs:
            slices = [self.slices[r][i] for r in self.row_groups[l]]
            self._packs[key] = _Packed(slices, len(self.col_groups[i]))
        return self._packs[key]


class _Packed:
    """The rows of one target type against one source type of width w, each
    packed into one int: the coefficient at monomial t and column c sits in
    the signed slot of k bits at bit k*(t*w + c).  Every weight vector in
    [-3, 3] keeps each slot of its combination below 2^(k-1) in absolute
    value, since k - 1 is the bit length of 3 * (rows) * (the largest
    |coefficient|), so ``sum(map(mul, weights, ints))`` packs the
    combination's virtual rows exactly.

    ``offset`` holds 2^(k-1) at every slot: added to a product, it makes each
    slot a digit in [0, 2^k), and the virtual row of monomial t is read back
    as ``[(n >> s & mask) - half for s in shifts[t]]`` with n the product
    plus ``offset``, as in ``polymatrix._unpack``.  ``sum(map(mul, weights,
    ints), offset)`` is ``offset`` exactly when the combination is 0.
    """

    __slots__ = ("ints", "k", "offset", "mask", "half", "shifts")

    def __init__(self, slices: list[list[list[int]]], w: int):
        top = max((abs(v) for row in slices for mono in row for v in mono), default=0)
        self.k = k = (3 * len(slices) * top).bit_length() + 1
        self.ints = [
            sum([v << k * s for s, v in enumerate(itertools.chain.from_iterable(row))])
            for row in slices
        ]
        nmono = len(slices[0])
        self.offset = sum([1 << (k - 1 + k * s) for s in range(nmono * w)])
        self.half = 1 << (k - 1)
        self.mask = (1 << k) - 1
        self.shifts = [range(k * w * t, k * w * (t + 1), k) for t in range(nmono)]


def _views(m: PolyMatrix) -> tuple[_CoefficientView, _CoefficientView]:
    """The views of m and of its transpose, both in m's positions: the
    transpose's rows are m's column groups and its columns m's row groups,
    each list in the dual type's (reversed) order, as ``transpose_dual``."""
    rows, cols = _positions(m.type.target), _positions(m.type.source)
    return (
        _CoefficientView(m.entries, rows, cols),
        _CoefficientView(list(zip(*m.entries)), cols[::-1], rows[::-1]),
    )


# ---------------------------------------------------------------------------
# Destabilizer search
# ---------------------------------------------------------------------------


def _row_subset_sweep(
    view: _CoefficientView, shape: Shape
) -> tuple[Witness | None, bool]:
    """Search literal row subsets with exact column kernels.

    Returns (witness, decided): the search is a complete decision when every
    row count is all-or-nothing for its type, since taking all rows of a type
    is invariant under row combinations within the type.
    """
    row_groups = view.row_groups
    decided = all(b == 0 or b == len(g) for g, b in zip(row_groups, shape.rows))
    if _over_cap(row_groups, shape.rows):
        return None, False
    # a row added to a subset can only shrink its column kernels
    rows = _first_subset(
        row_groups,
        shape.rows,
        lambda rows: all(
            view.nullity(rows, i) >= a for i, a in enumerate(shape.cols) if a
        ),
    )
    if rows is None:
        return None, decided
    # the accepted rows, as unit weights on the rows of their types
    units = [[int(p == r) for p in g] for r in rows for g in row_groups if r in g]
    return _witness(view, shape, units), decided


def _pencil_decides(view: _CoefficientView, shape: Shape) -> tuple[Witness | None, str]:
    """Exact decision for a one-column block over a source type of width two.

    The combination (k1 : k2) of the two columns gives a matrix pencil: the
    row-rank drops demanded by the shape are minor conditions, binary forms
    in (k1, k2), and a common zero exists exactly when their gcd is
    nonconstant.  Rational roots give explicit witnesses; a nonconstant gcd
    without rational roots still certifies a destabilizer over the algebraic
    closure, which the returned note says.  No witness and no note: no block.
    """
    i = shape.cols.index(1)
    forms: list[HomogeneousPoly] = []
    for l, b in enumerate(shape.rows):
        if b == 0:
            continue
        g = view.row_groups[l]
        size = len(g) - b + 1
        # coefficient slices of m.k restricted to this row type: entries are
        # linear forms in (k1, k2), encoded as binary forms in (X, Y); the
        # block scale of the slices leaves the gcd of the minors unchanged
        stack = [
            [
                HomogeneousPoly({(1, 0, 0): k1, (0, 1, 0): k2})
                for k1, k2 in view.slices[r][i]
            ]
            for r in g
        ]
        nmono = len(stack[0])
        if size > len(g) or size > nmono:
            continue
        csels = list(itertools.combinations(range(nmono), size))
        for rsel in itertools.combinations(range(len(g)), size):
            forms += _minors([stack[r] for r in rsel], csels)
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        return _witness_with_row_combos(view, shape, i, (1, 0)), ""
    g = poly_gcd_list(nonzero)
    if g.degree == 0:
        return None, ""
    root = _rational_root_binary(g)
    if root is None:
        return None, "destabilizer exists over the closure; no rational witness"
    return _witness_with_row_combos(view, shape, i, root), ""


def _rational_root_binary(g: HomogeneousPoly) -> tuple[Fraction, Fraction] | None:
    """A rational projective zero (k1 : k2) of a binary form in X, Y: (1 : 0)
    when Y divides g, else (0 : 1) when X does, else the root (t : 1) of least
    |numerator|, then least denominator, positive first, or None.

    The roots t of the square-free part s of g(t, 1), of leading coefficient
    a, give the integer roots y = a*t of the monic F(y) = a^(d-1) s(y/a).
    Newton's iteration lifts each root of F modulo a prime that keeps F
    square-free past twice its Cauchy bound (Loos 1983); each lift is checked."""
    ints: dict[int, int] = {}
    deg = g.degree or 0
    for (a, b, c), v in g.coeffs.items():
        if c != 0:
            raise ValueError("not a binary form")
        ints[a] = v
    if all(e < deg for e in ints):  # Y divides g -> root (1 : 0)
        return (Fraction(1), Fraction(0))
    if 0 not in ints:  # X divides g -> root (0 : 1)
        return (Fraction(0), Fraction(1))
    dx = HomogeneousPoly({(a - 1, b, 0): a * v for (a, b, _), v in g.coeffs.items() if a})
    s = g.divexact(poly_gcd(g, dx)).coeffs
    d = max(a for a, _, _ in s)
    lead = s[(d, 0, 0)]
    F = [s.get((e, d - e, 0), 0) * lead ** (d - 1 - e) for e in range(d)] + [1]
    dF = [e * c for e, c in enumerate(F)][1:]
    bound = 1 + max(map(abs, F[:-1]))

    def at(f: list[int], x: int, mod: int) -> int:
        return sum(c * pow(x, e, mod) for e, c in enumerate(f)) % mod

    primes = (p for p in itertools.count(2) if all(p % q for q in range(2, isqrt(p) + 1)))
    p = next(p for p in primes if _coprime_mod([c % p for c in F], [c % p for c in dF], p))
    roots = []
    for r in (r for r in range(p) if not at(F, r, p)):
        mod = p
        while mod <= 2 * bound:
            mod *= mod
            r = (r - at(F, r, mod) * pow(at(dF, r, mod), -1, mod)) % mod
        t = Fraction(r if 2 * r <= mod else r - mod, lead)
        if sum(v * t**e for e, v in ints.items()) == 0:
            roots.append(t)
    best = min(roots, key=lambda t: (abs(t.numerator), t.denominator, t < 0), default=None)
    return None if best is None else (best, Fraction(1))


def _witness_with_row_combos(
    view: _CoefficientView, shape: Shape, i: int, weights: Sequence
) -> Witness | None:
    """Complete one column combination (weights on the columns of source
    type i) to a witness by solving for the row-combination kernel per
    target type (exact)."""
    row_combos: list[tuple[Fraction, ...]] = []
    for l, b in enumerate(shape.rows):
        if b == 0:
            continue
        g = view.row_groups[l]
        # one kernel equation per monomial: the combined column's coefficient
        # there, as a function of the row weights
        combined = [
            [sum(v * x for v, x in zip(weights, row)) for row in view.slices[r][i]]
            for r in g
        ]
        kernel = right_kernel(zip(*combined), len(g))
        if len(kernel) < b:
            return None
        row_combos.extend(_embed(g, k, view.nrows) for k in kernel[:b])
    combo = _embed(view.col_groups[i], weights, view.ncols)
    return Witness(shape, tuple(row_combos), (combo,))


def _virtual_rows(draws: list[list[int]], layouts) -> Iterator[list[int]]:
    """Per drawn block row and monomial, the virtual row's coefficient per
    column: the row's weights against each column of its type's layout."""
    return (
        [sum(map(mul, coeffs, col)) for col in mono]
        for coeffs, layout in zip(draws, layouts)
        for mono in layout
    )


def _block_row_types(shape: Shape) -> list[int]:
    """The target type of each block row, type-major."""
    return [l for l, b in enumerate(shape.rows) for _ in range(b)]


def _witness(view: _CoefficientView, shape: Shape, draws: list[list[int]]) -> Witness:
    """Complete block rows, given type-major as weights on the rows of their
    types, to a witness: per source type i the shape uses, the first a_i
    vectors of the exact kernel of their virtual rows."""
    types = _block_row_types(shape)
    row_combos = tuple(_embed(view.row_groups[l], w, view.nrows) for l, w in zip(types, draws))
    col_combos = tuple(
        _embed(g, k, view.ncols)
        for i, (a, g) in enumerate(zip(shape.cols, view.col_groups)) if a
        for k in right_kernel(_virtual_rows(draws, [view.layout(l, i) for l in types]), len(g))[:a]
    )
    return Witness(shape, row_combos, col_combos)


# a word's top byte b gives ``getrandbits(3)`` = b >> 5, and ``randint(-3, 3)``
# takes it as the weight (b >> 5) - 3 unless it is 7 (b >= 224); the table
# maps b to that weight as a signed byte
_SEVENS = bytes(range(224, 256))
_WEIGHT_OF_TOP = bytes((b >> 5) - 3 & 0xFF for b in range(256))


class _Weights:
    """The draws ``randint(-3, 3)`` and ``randrange(n)`` of a
    ``random.Random``, in the order they are asked for, read from its 32-bit
    words in bulk.

    Both go through ``_randbelow``: ``randint(-3, 3)`` takes the top three
    bits of the next words until one is below 7, and ``randrange(n)`` the top
    ``n.bit_length()`` bits until one is below n.  ``getrandbits(32 * k)``
    returns k successive words, least significant first.  So the source reads
    chunks of words, 64 at first and doubling up to 2 048, and one
    ``bytes.translate`` turns the top byte of each word of a chunk into its
    weight and deletes the 7s; a draw of n weights is then a list slice.  A
    ``randrange`` finds the word after the last weight drawn, reads its words
    from there, and moves the draws past the weights of the words it read.
    ``_mark`` is a weight and the word it starts the search from: the chunk's
    first weight and word, or the first after the last ``randrange``, so
    each ``randrange`` counts only the words read since the one before.
    """

    __slots__ = ("_rng", "_size", "_words", "_tops", "_weights", "_pos", "_mark")

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._size = 64
        self._words = self._tops = b""
        self._weights: list[int] = []
        self._pos = 0
        self._mark = (0, 0)

    def _fetch(self) -> None:
        """Read the next chunk and start the draws at its first word."""
        size = self._size
        self._words = self._rng.getrandbits(32 * size).to_bytes(4 * size, "little")
        self._tops = self._words[3::4]
        kept = self._tops.translate(_WEIGHT_OF_TOP, _SEVENS)
        self._weights = memoryview(kept).cast("b").tolist()
        self._pos, self._mark = 0, (0, 0)
        self._size = min(2 * size, 2048)

    def draw(self, n: int) -> list[int]:
        """``[rng.randint(-3, 3) for _ in range(n)]``."""
        end = self._pos + n
        out = self._weights[self._pos:end]
        while len(out) < n:
            self._fetch()
            end = n - len(out)
            out += self._weights[:end]
        self._pos = end
        return out

    def _word(self) -> int:
        """The index in the chunk of the first word after the weights drawn:
        from the mark on, the fewest words that hold the weights drawn since,
        found by counting the words that are not 7s."""
        tops, pos = self._tops, self._pos
        kept, word = self._mark
        while kept < pos:
            # each word holds at most one weight, so all of these are read
            step = pos - kept
            kept += len(tops[word:word + step].translate(None, _SEVENS))
            word += step
        return word

    def randrange(self, n: int) -> int:
        """``rng.randrange(n)``, for 0 < n < 2^32."""
        k = n.bit_length()
        start = word = self._word()
        pos, words = self._pos, self._words
        while True:
            if 4 * word == len(words):
                self._fetch()
                start = word = pos = 0
                words = self._words
            r = int.from_bytes(words[4 * word:4 * word + 4], "little") >> 32 - k
            word += 1
            if r < n:
                pos += len(self._tops[start:word].translate(None, _SEVENS))
                self._pos, self._mark = pos, (pos, word)
                return r


class _TrialPlan:
    """The random trials of one shape, with what they share built once.

    ``widths`` holds the width of the type of each block row.  ``needs``
    holds, per source type i the shape uses: the refusal bound w_i - a_i on
    the rank of its virtual rows, and the packed rows (``_Packed``) of each
    block row's type against i, which the view builds once per search.  A
    trial takes its weights from the search's one weight source
    (``_Weights``), so the plans of a search draw from one stream.
    """

    def __init__(self, view: _CoefficientView, shape: Shape):
        self.view, self.shape = view, shape
        types = _block_row_types(shape)
        self.widths = [len(view.row_groups[l]) for l in types]
        self.needs = [
            (len(cols) - a, [view.packed(l, i) for l in types])
            for i, (a, cols) in enumerate(zip(shape.cols, view.col_groups))
            if a
        ]

    def trial(self, weights: _Weights) -> Witness | None:
        """One trial: draw a combination of its type's rows per block row,
        refuse it by rank alone as soon as a source type's virtual rows leave
        fewer kernel vectors than the shape needs there, and take the exact
        kernels only for a trial that no type refuses.  A type with bound 0
        is refused at the first block row whose product is nonzero, with no
        row unpacked; for any other type each nonzero product is unpacked
        row by row as ``linalg.rank_exceeds`` reads its rows, and no product
        is taken after the row that refuses."""
        draws = []
        for n in self.widths:
            coeffs = weights.draw(n)
            if not any(coeffs):
                coeffs[weights.randrange(n)] = 1
            draws.append(coeffs)
        for bound, packs in self.needs:
            if bound:
                refused = rank_exceeds(
                    (
                        [(n >> s & p.mask) - p.half for s in shifts]
                        for c, p in zip(draws, packs)
                        for n in [sum(map(mul, c, p.ints), p.offset)]
                        if n != p.offset
                        for shifts in p.shifts
                    ),
                    bound,
                )
            else:
                refused = any(sum(map(mul, c, p.ints)) for c, p in zip(draws, packs))
            if refused:
                return None
        return _witness(self.view, self.shape, draws)


def _combine(forms: Sequence[HomogeneousPoly], weights) -> HomogeneousPoly:
    """The sum of w * f over the forms and their weights."""
    acc = HomogeneousPoly.zero()
    for f, w in zip(forms, weights):
        if w:
            acc = acc + f.scale(w)
    return acc


def _type_blocks(groups: list[list[int]], combos, size: int) -> list[list[Fraction]]:
    """Block-diagonal transform whose rows, within each type, are that type's
    combinations first, completed to a basis; identity on other types."""
    out = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    per_type: dict[int, list[list[Fraction]]] = {}
    for vec in combos:
        t = next(t for t, g in enumerate(groups) if any(vec[p] != 0 for p in g))
        per_type.setdefault(t, []).append([vec[p] for p in groups[t]])
    for t, vecs in per_type.items():
        g = groups[t]
        for bi, row in enumerate(complete_basis(vecs, len(g))):
            for bj, v in enumerate(row):
                out[g[bi]][g[bj]] = v
    return out


def realize_witness(
    m: PolyMatrix, w: Witness
) -> tuple[list[list[Fraction]], list[list[Fraction]], PolyMatrix]:
    """Invertible row/column transforms exhibiting the witness block literally.

    Returns (G, H, G.m.H).  Both transforms are block matrices mixing only
    rows/columns of one summand type; within each type the witness
    combinations come first, so the zero block occupies the leading rows and
    columns of the types the shape names.
    """
    G = _type_blocks(_positions(m.type.target), w.row_combos, m.nrows)
    # the column combinations become the leading columns of H
    H_rows = _type_blocks(_positions(m.type.source), w.col_combos, m.ncols)
    H = [list(col) for col in zip(*H_rows)]
    return G, H, apply_transforms(m, G, H)


def apply_transforms(
    m: PolyMatrix, G: list[list[Fraction]], H: list[list[Fraction]]
) -> PolyMatrix:
    """Exact G . m . H for constant block transforms respecting the type."""
    cols = list(zip(*m.entries))
    gm = [[_combine(col, g) for col in cols] for g in G]
    h_cols = list(zip(*H))
    return PolyMatrix(m.type, [[_combine(row, h) for h in h_cols] for row in gm])


def verify_witness(m: PolyMatrix, w: Witness) -> bool:
    """Recompute the claimed block exactly: the row combinations and the
    column combinations must each be independent, which is independence
    within each type as the types have disjoint supports, and every (row
    combination, column combination) pairing must vanish."""
    for combos in (w.row_combos, w.col_combos):
        if rank(combos) < len(combos):
            return False
    cols = list(zip(*m.entries))
    rows = [[_combine(col, rc) for col in cols] for rc in w.row_combos]
    return all(_combine(row, cc).is_zero for row in rows for cc in w.col_combos)


def _dual_shape(shape: Shape) -> Shape:
    """The shape on the transpose; an involution."""
    return Shape(tuple(reversed(shape.cols)), tuple(reversed(shape.rows)))


def _pull_back_transpose_witness(wt: Witness) -> Witness:
    """Translate a witness found on the transposed view back to m: its
    combinations are already in m's positions, so the row and column lists
    swap; an involution."""
    return Witness(_dual_shape(wt.shape), wt.col_combos, wt.row_combos)


def _tests(view: _CoefficientView, shape: Shape) -> Iterator[tuple[Shape, int, bool]]:
    """The exact tests of ``shape`` S in order, as (T, side, pencil) with
    T <= S and side 0 for the matrix of ``view``, 1 for its transpose (see
    the module docstring).  A sweep's T is S unless it takes all rows, or all
    columns, of the types S fills; a pencil's T has one column of a source
    type of width two, or one row of a target type of width two."""
    rows, cols = shape
    full_rows = tuple(b * (b == len(g)) for b, g in zip(rows, view.row_groups))
    full_cols = tuple(a * (a == len(g)) for a, g in zip(cols, view.col_groups))
    if any(full_rows) and full_rows != rows:
        yield Shape(full_rows, cols), 0, False
    if any(full_cols) and full_cols != cols:
        yield Shape(rows, full_cols), 1, False
    yield shape, 0, False
    yield shape, 1, False
    for i, a in enumerate(cols):
        if a and len(view.col_groups[i]) == 2:
            yield Shape(rows, _unit(i, len(cols))), 0, True
    for l, b in enumerate(rows):
        if b and len(view.row_groups[l]) == 2:
            yield Shape(_unit(l, len(rows)), cols), 1, True


def _unit(k: int, size: int) -> tuple[int, ...]:
    return tuple(int(j == k) for j in range(size))


class _ExactPasses:
    """The exact passes of one search, on m and on its transpose, with what
    they proved memoized per shape, in m's coordinates.

    ``absent[shape]`` is True when the shape is proven to have no block, and
    False when a block exists or it stayed open.
    """

    def __init__(self, m: PolyMatrix):
        self.view, tview = _views(m)
        # a zero block of shape (rows, cols) on m is one of the dual shape on
        # its transpose
        self.sides = (
            (self.view, lambda s: s, lambda w: w),
            (tview, _dual_shape, _pull_back_transpose_witness),
        )
        self.absent: dict[Shape, bool] = {}

    def run(self, shape: Shape, k: int, pencil: bool) -> tuple[Witness | None, bool, str]:
        """(witness pulled back to m, decided, note) of the pencil or the row
        sweep on side k."""
        side, on_side, back = self.sides[k]
        if pencil:
            w, note = _pencil_decides(side, on_side(shape))
            decided = True
        else:
            (w, decided), note = _row_subset_sweep(side, on_side(shape)), ""
        return (None if w is None else back(w)), decided, note


def search_destabilizer(
    m: PolyMatrix, p: Polarization, budget: int, seed: int = 0
) -> Verdict:
    """Search for a verified destabilizing zero block under the polarization.

    Shapes are processed in canonical order; the first verified witness wins.
    CertifiedSemistable requires every destabilizing shape to have been
    decided exactly: closed by a lower neighbour proven absent, or by one of
    its tests (``_tests``), which proves it or a lower shape absent.
    Raises ValueError for a negative budget, and for a negative seed, which
    ``random.Random`` would take for its absolute value.
    """
    if budget < 0:
        raise ValueError(f"the trial budget must be nonnegative, not {budget}")
    if seed < 0:
        raise ValueError(f"the seed must be nonnegative, not {seed}")
    p.validate_for(m.type)
    destab = [s for s, d in classify_shapes(m.type, p).items() if d]
    undecided: list[Shape] = []
    used = 0
    passes = _ExactPasses(m)
    view = passes.view
    for shape in destab:
        # the lower neighbours come first in the canonical order
        if any(passes.absent.get(t) for t in _lower_neighbours(shape)):
            passes.absent[shape] = True
            continue
        for t, k, pencil in _tests(view, shape):
            # a lower shape is tested once per search; the shape itself always
            if t == shape or t not in passes.absent:
                w, decided, note = passes.run(t, k, pencil)
                if t == shape and (note or w is not None and verify_witness(m, w)):
                    return Verdict(VerdictKind.DESTABILIZED, w, used, note=note)
                passes.absent[t] = decided and w is None and not note
            if passes.absent[t]:
                passes.absent[shape] = True
                break
        else:
            undecided.append(shape)
    if undecided and budget > 0:
        per_shape = max(1, budget // len(undecided))
        weights = _Weights(random.Random(seed))
        for shape in undecided:
            if used == budget:
                break
            plan = _TrialPlan(view, shape)
            for _ in range(min(per_shape, budget - used)):
                used += 1
                w = plan.trial(weights)
                if w is not None and verify_witness(m, w):
                    return Verdict(
                        VerdictKind.DESTABILIZED, w, used, tuple(undecided)
                    )
    if not undecided:
        return Verdict(VerdictKind.CERTIFIED_SEMISTABLE, None, used)
    return Verdict(VerdictKind.UNDETERMINED, None, used, tuple(undecided))


# ---------------------------------------------------------------------------
# Catalog checks per registry case
# ---------------------------------------------------------------------------


class KoszulClass(Enum):
    KOSZUL = "koszul"
    DEGENERATE = "degenerate"
    FULL_RANK_DET = "full-rank-det"
    OTHER = "other"


def koszul_test(m: PolyMatrix) -> KoszulClass:
    """Classify a 3x3 matrix of linear forms.

    Nonzero determinant is FullRankDet.  With determinant zero: an exactly
    detected zero pattern (a constant column kernel, a constant row kernel,
    or a row or column with two zero entries) is Degenerate; a primitive
    degree-one kernel vector whose entries span the whole space of linear
    forms is Koszul; everything else is Other.
    """
    if m.nrows != 3 or m.ncols != 3:
        raise ValueError("koszul_test expects a 3x3 matrix")
    for row in m.entries:
        for e in row:
            if not e.is_zero and e.degree != 1:
                raise ValueError("koszul_test expects linear entries")
    if not determinant(m).is_zero:
        return KoszulClass.FULL_RANK_DET
    # exact zero-pattern tests: a constant column kernel of m or of its
    # transpose (all rows against one column of some type), then a literal
    # thin block, which holds a literal 1x2 or 2x1 block: a row or a column
    # with two zero entries
    for view in _views(m):
        rows = tuple(range(view.nrows))
        if any(view.nullity(rows, i) for i in range(len(view.col_groups))):
            return KoszulClass.DEGENERATE
    if any(sum(e.is_zero for e in line) >= 2 for line in (*m.entries, *zip(*m.entries))):
        return KoszulClass.DEGENERATE
    # m is singular, so two rows with a nonzero maximal minor span its rows,
    # and their primitive kernel vector is that of m
    pair_type = MorphismType.make([(-1, 3)], [(0, 2)])
    pairs = (PolyMatrix(pair_type, rows) for rows in itertools.combinations(m.entries, 2))
    line = next(filter(None, map(kernel_line, pairs)), None)
    if line is None:
        return KoszulClass.OTHER
    kernel, degree = line
    if degree == 1 and linearly_independent(kernel)[1] == 3:
        return KoszulClass.KOSZUL
    return KoszulClass.OTHER


@dataclass
class CaseReport:
    verdict: Verdict
    flags: dict[str, bool]

    @property
    def in_wo(self) -> bool:
        """Every membership flag passed: the matrix lies in the open stratum.

        This does not imply that no block is destabilizing; the verdict
        answers that, and can be ``destabilized`` while ``in_wo`` holds."""
        return all(self.flags.values())


def _block(m: PolyMatrix, i: int, l: int) -> PolyMatrix:
    """The block of source type i and target type l, typed by its own twists."""
    rows, cols = _positions(m.type.target)[l], _positions(m.type.source)[i]
    t = MorphismType.make([m.type.source.summands[i]], [m.type.target.summands[l]])
    return PolyMatrix(t, [[m.entries[r][c] for c in cols] for r in rows])


def _entries(m: PolyMatrix) -> list[HomogeneousPoly]:
    return [e for row in m.entries for e in row]


# The membership flags: tag -> (block, test).  The block is the 0-based
# (source type, target type) pair whose ``_block`` the test reads, or None for
# the whole matrix.  The tests look up the routines they call when they run.
FLAGS: dict[str, tuple[tuple[int, int] | None, Callable[[PolyMatrix], bool]]] = {
    # a nonzero entry of degree 0 lies in a scalar (equal-twist) block
    "scalars_zero": (None, lambda m: all(e.degree != 0 for e in _entries(m))),
    "det_nonzero": (None, lambda m: m.nrows == m.ncols and not determinant(m).is_zero),
    "phi11_li": ((0, 0), lambda b: linearly_independent(_entries(b))[0]),
    "phi11_span2": (
        (0, 0),
        lambda b: linearly_independent([e for e in _entries(b) if not e.is_zero])[1] >= 2,
    ),
    "phi11_stable2x3": ((0, 0), lambda b: linearly_independent(maximal_minors(b))[0]),
    "phi22_li": ((1, 1), lambda b: linearly_independent(_entries(b))[0]),
    "phi21_nonzero": ((0, 1), lambda b: any(not e.is_zero for e in _entries(b))),
    "phi22_koszul": ((1, 1), lambda b: koszul_test(b) is KoszulClass.KOSZUL),
}


def _flag(m: PolyMatrix, tag: str) -> bool:
    block, test = FLAGS[tag]
    return test(m if block is None else _block(m, *block))


def check_case(
    m: PolyMatrix, case: CaseSpec, n: int, budget: int = 1000, seed: int = 0
) -> CaseReport:
    """Evaluate a matrix against a registry case: membership flags for the
    open stratum plus a destabilizer search at the case's interior
    polarization."""
    expected = case.resolution(n)
    if (
        m.type.source.summands != expected.source.summands
        or m.type.target.summands != expected.target.summands
    ):
        raise ValueError("matrix type does not match the case resolution")
    flags = {tag: _flag(m, tag) for tag in case.checks}
    verdict = search_destabilizer(m, case.sample_polarization(n), budget, seed)
    return CaseReport(verdict, flags)

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafmod.linalg import inverse, rank, rank_exceeds, right_kernel, slot_width


def reference_rref(rows, width):
    """Plain Fraction Gauss-Jordan: (reduced rows, pivot columns)."""
    mat = [[F(x) for x in r] for r in rows]
    pivots = []
    for col in range(width):
        piv = next((r for r in range(len(pivots), len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        top = len(pivots)
        mat[top], mat[piv] = mat[piv], mat[top]
        mat[top] = [x / mat[top][col] for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots


def reference_inverse(rows):
    """Fraction Gauss-Jordan on [A | I]; None when A is singular."""
    n = len(rows)
    aug = [[F(x) for x in r] + [F(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    mat, pivots = reference_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in mat[:n]]


def reference_kernel(rows, width):
    mat, pivots = reference_rref(rows, width)
    out = []
    for fc in range(width):
        if fc in pivots:
            continue
        vec = [F(0)] * width
        vec[fc] = F(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        out.append(vec)
    return out


entries = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([0, 0, 0]),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def matrices(draw, max_rows=7, max_width=6):
    width = draw(st.integers(0, max_width))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=max_rows))
    if len(rows) >= 2 and draw(st.booleans()):
        # a dependent row: an integer combination of the first two
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return rows, width


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_right_kernel_matches_reference(case):
    rows, width = case
    got = right_kernel(rows, width)
    assert got == reference_kernel(rows, width)
    assert all(type(x) is F for v in got for x in v)
    for v in got:
        for r in rows:
            assert sum(F(a) * b for a, b in zip(r, v)) == 0


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_matches_reference(case):
    rows, width = case
    expected = len(reference_rref(rows, width)[1]) if rows else 0
    assert rank(rows) == expected
    assert rank(rows) + len(right_kernel(rows, width)) == width


def test_kernel_is_invariant_under_row_order_and_scaling(rnd):
    for _ in range(200):
        width = rnd.randint(1, 5)
        rows = [[rnd.randint(-3, 3) for _ in range(width)] for _ in range(rnd.randint(0, 5))]
        shuffled = []
        for r in rows:
            factor = F(rnd.choice([1, -2, 3]), rnd.choice([1, 5]))
            shuffled.append([factor * x for x in r])
        rnd.shuffle(shuffled)
        assert right_kernel(shuffled, width) == right_kernel(rows, width)


def test_edge_cases():
    # no rows: every column is free
    assert right_kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank([]) == 0
    # all-zero input and zero rows
    assert right_kernel([[0, 0], [0, F(0)]], 2) == [[1, 0], [0, 1]]
    assert rank([[0, 0], [0, 0]]) == 0
    assert right_kernel([[0, 0], [1, 2], [0, 0]], 2) == [[-2, 1]]
    # width 0 and 1
    assert right_kernel([], 0) == []
    assert right_kernel([[], []], 0) == []
    assert right_kernel([[0]], 1) == [[1]]
    assert right_kernel([[F(-1, 3)]], 1) == []
    assert rank([[F(2, 7)]]) == 1
    # fractions with a shared denominator reduce like their numerators
    assert right_kernel([[F(1, 2), F(1, 3)]], 2) == [[F(-2, 3), 1]]


def test_tall_matrices_stop_at_full_rank():
    # rows beyond full rank are never read: a generator that would fail
    # past the third row shows the early exit
    def rows():
        yield [1, 0, 0]
        yield [1, 1, 0]
        yield [0, 1, 1]
        raise AssertionError("read past full rank")

    assert right_kernel(rows(), 3) == []
    tall = [[1, 2], [3, 4]] + [[5, 6]] * 40
    assert right_kernel(tall, 2) == [] and rank(tall) == 2
    # a tall matrix of rank one keeps a kernel
    assert right_kernel([[2, 4]] * 30 + [[F(1, 2), 1]], 2) == [[-2, 1]]


def test_large_entries_stay_exact():
    big = 10**40 + 7
    rows = [[big, 1, 0], [0, big, 1], [big, 1 + big, 1]]  # third = first + second
    assert rank(rows) == 2
    (v,) = right_kernel(rows, 3)
    assert v == [F(1, big * big), F(-1, big), 1]


def test_sympy_differential(rnd):
    sympy = pytest.importorskip("sympy")
    for _ in range(150):
        h, width = rnd.randint(1, 6), rnd.randint(1, 6)
        rows = [
            [F(rnd.randint(-3, 3), rnd.choice([1, 1, 2, 3])) * rnd.choice([0, 1, 1]) for _ in range(width)]
            for _ in range(h)
        ]
        mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
        expected = [[F(int(x.p), int(x.q)) for x in v] for v in mat.nullspace()]
        assert right_kernel(rows, width) == expected
        assert rank(rows) == mat.rank()


@st.composite
def square_matrices(draw, max_size=4):
    n = draw(st.integers(0, max_size))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        # a singular matrix: the last row combines the first two
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_inverse_matches_reference(rows):
    expected = reference_inverse(rows)
    if expected is None:
        with pytest.raises(ValueError):
            inverse(rows)
        return
    got = inverse(rows)
    assert got == expected
    assert all(type(x) is F for r in got for x in r)
    n = len(rows)
    for i in range(n):
        for j in range(n):
            assert sum(F(rows[i][k]) * got[k][j] for k in range(n)) == int(i == j)


def test_inverse_edge_cases():
    assert inverse([]) == []
    assert inverse([[F(-2, 3)]]) == [[F(-3, 2)]]
    assert inverse([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    for singular in ([[0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 0, 0], [0, 0, 1]]):
        with pytest.raises(ValueError, match="singular"):
            inverse(singular)
    with pytest.raises(ValueError, match="square"):
        inverse([[1, 2]])


def test_inverse_sympy_differential(rnd):
    sympy = pytest.importorskip("sympy")
    for _ in range(100):
        n = rnd.randint(1, 4)
        rows = [
            [F(rnd.randint(-3, 3), rnd.choice([1, 1, 2, 3])) * rnd.choice([0, 1, 1]) for _ in range(n)]
            for _ in range(n)
        ]
        mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
        if mat.det() == 0:
            with pytest.raises(ValueError):
                inverse(rows)
            continue
        expected = [[F(int(x.p), int(x.q)) for x in mat.inv().row(i)] for i in range(n)]
        assert inverse(rows) == expected


# ---------------------------------------------------------------------------
# early stop: no row is read past full rank


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(1, 7), square_matrices())
def test_kernel_of_a_row_stream_is_the_full_kernel(case, need, square):
    rows, width = case
    full = right_kernel(rows, width)
    assert full == reference_kernel(rows, width)
    assert right_kernel(iter(rows), width) == full
    # a caller that needs ``need`` vectors refuses exactly the smaller kernels
    assert (len(full) < need) == (len(reference_rref(rows, width)[1]) > width - need)
    # the stop leaves rank and inverse unchanged
    assert rank(rows) == width - len(full)
    if reference_inverse(square) is not None:
        assert inverse(square) == reference_inverse(square)


def test_kernel_reads_no_row_past_full_rank():
    # width 4: the kernel is empty once the rank reaches 4, and a stream that
    # would fail past that row shows the early exit
    def rows():
        yield [1, 0, 0, 0]
        yield [2, 0, 0, 0]
        yield [0, 1, 0, 0]
        yield [0, 0, 1, 0]
        yield [1, 1, 1, 1]
        raise AssertionError("read past full rank")

    assert right_kernel(rows(), 4) == []
    assert right_kernel([[1, 0, 0, 0], [0, 1, 0, 0]], 4) == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    assert right_kernel([], 2) == [[1, 0], [0, 1]]
    # on seeded streams, the rows read are those up to the first prefix of
    # full rank, or all of them
    rnd = random.Random(4343)
    stopped = 0
    for width in range(1, 9):
        for _ in range(20):
            stream = _seeded_integer_rows(rnd, width)
            reads = []

            def counted():
                for row in stream:
                    reads.append(row)
                    yield row

            assert right_kernel(counted(), width) == reference_kernel(stream, width)
            full = next(
                (k + 1 for k in range(len(stream)) if rank(stream[: k + 1]) == width), None
            )
            assert len(reads) == (len(stream) if full is None else full)
            stopped += len(reads) < len(stream)
    assert stopped > 10, stopped


# ---------------------------------------------------------------------------
# rank-only early stop


def _seeded_integer_rows(rnd, width):
    """Combinations of a random number of random integer rows, so every rank
    up to the width occurs, with zero rows and repeated rows mixed in."""
    base = [[rnd.randint(-3, 3) for _ in range(width)] for _ in range(rnd.randint(0, width))]
    rows = [
        [sum(rnd.randint(-2, 2) * b[c] for b in base) for c in range(width)]
        for _ in range(rnd.randint(0, width + 3))
    ]
    for _ in range(rnd.randint(0, 2)):
        extra = [0] * width if rnd.random() < 0.5 or not rows else list(rnd.choice(rows))
        rows.insert(rnd.randint(0, len(rows)), extra)
    return rows


def _packed(rows, width, top=None):
    """The rows as ints for ``rank_exceeds``, entry c in the signed slot at
    bit k*c, with k the ``slot_width`` of entries up to ``top`` (by default
    the largest |entry|), and that k and the offset of 2^(k-1) per slot."""
    if top is None:
        top = max((abs(x) for row in rows for x in row), default=0)
    k = slot_width(top, width)
    offset = sum(1 << k * c + k - 1 for c in range(width))
    return [sum(x << k * c for c, x in enumerate(row)) for row in rows], k, offset


def test_rank_exceeds_is_rank_above_the_bound():
    rnd = random.Random(4141)
    for width in range(1, 9):
        for _ in range(40):
            rows = _seeded_integer_rows(rnd, width)
            r = len(reference_rref(rows, width)[1])
            assert rank(rows) == r
            packed, k, offset = _packed(rows, width)
            for b in range(width + 1):
                assert rank_exceeds(packed, b, k, offset) == (r > b), (rows, b)
                assert rank_exceeds(iter(packed), b, k, offset) == (r > b)
    # every rank, the empty one included, exceeds a negative bound
    assert rank_exceeds([], -1, 1, 1) and rank_exceeds([0], -1, 2, 10)


def test_rank_exceeds_on_80_digit_rows_whose_pivots_share_large_factors():
    # each Bareiss step divides by the pivot before it; rows of 80-digit
    # entries built from three shared 40-digit factors, so that pivots share
    # large factors, with combinations of them mixed in so that every rank
    # occurs, are checked against ``rank``
    rnd = random.Random(4444)
    factors = [rnd.randint(10**39, 10**40) for _ in range(3)]
    ranks = set()
    for width in range(1, 7):
        for _ in range(60):
            base = [
                [rnd.choice(factors) * rnd.choice(factors) * rnd.randint(-3, 3) for _ in range(width)]
                for _ in range(rnd.randint(1, width))
            ]
            rows = base + [
                [sum(rnd.choice(factors) * rnd.randint(-2, 2) * b[c] for b in base) for c in range(width)]
                for _ in range(rnd.randint(0, width))
            ]
            rnd.shuffle(rows)
            r = rank(rows)
            assert r == len(reference_rref(rows, width)[1])
            ranks.add((width, r))
            packed, k, offset = _packed(rows, width)
            for b in range(-1, width + 1):
                assert rank_exceeds(packed, b, k, offset) == (r > b), (rows, b)
    missing = [(w, r) for w in range(1, 7) for r in range(1, w + 1) if (w, r) not in ranks]
    assert not missing, missing


def _sylvester(order):
    """The Sylvester-Hadamard matrix of a power-of-two order: +-1 entries and
    determinant order^(order/2) in absolute value, Hadamard's bound."""
    h = [[1]]
    while len(h) < order:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


def test_rank_exceeds_at_the_hadamard_bound():
    # +-B Sylvester-Hadamard rows of order w reach the largest minor that
    # ``slot_width(B, w)`` must hold, B^w w^(w/2); with a combination row at
    # every position, every prefix is ranked against ``rank`` at every bound,
    # in slots of exactly the width of the rule.  The combination rows are
    # means of two or four signed rows, so their entries stay in [-B, B]
    rnd = random.Random(4545)
    for order in (2, 4, 8):
        h = _sylvester(order)
        for top in range(1, 12):
            rows = [[top * rnd.choice((-1, 1)) * x for x in r] for r in h]
            combinations = []
            while len(combinations) < 4:
                picked = rnd.sample(range(order), rnd.choice([n for n in (2, 4) if n <= order]))
                signed = [[rnd.choice((-1, 1)) * x for x in rows[i]] for i in picked]
                total = [sum(col) for col in zip(*signed)]
                if any(total) and not any(x % len(picked) for x in total):
                    combinations.append([x // len(picked) for x in total])
            for combination in combinations:
                for at in range(order + 1):
                    stack = rows[:at] + [combination] + rows[at:]
                    packed, k, offset = _packed(stack, order, top)
                    for n in range(1, len(stack) + 1):
                        r = rank(stack[:n])
                        for b in range(-1, order + 1):
                            assert rank_exceeds(packed[:n], b, k, offset) == (r > b), (order, top, at, n, b)


def test_rank_exceeds_stops_at_the_first_row_past_the_bound():
    rnd = random.Random(4242)
    for width in range(1, 9):
        for _ in range(20):
            rows = _seeded_integer_rows(rnd, width)
            prefix_ranks = [rank(rows[: n + 1]) for n in range(len(rows))]
            packed, k, offset = _packed(rows, width)
            for b in range(width + 1):
                reads = []

                def counted():
                    for row in packed:
                        reads.append(row)
                        yield row

                passed = rank_exceeds(counted(), b, k, offset)
                first = next((n + 1 for n, r in enumerate(prefix_ranks) if r > b), None)
                assert passed == (first is not None)
                assert len(reads) == (len(rows) if first is None else first)

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from sheafmod.bundles import parse_resolution_spec
from sheafmod.hilbert import format_hilbert, hilbert_class, hilbert_of_resolution, hilbert_of_shape
from sheafmod.polymatrix import monomial_basis


def res(spec):
    return parse_resolution_spec(spec)


def value(klass, t):
    """The polynomial rho*(t+1)(t+2)/2 + r*t + chi of a class at t."""
    rho, r, chi = klass
    return F(rho * (t + 1) * (t + 2), 2) + r * t + chi


def monomial_count(summands, t):
    """The sum of m * dim H^0(O(t + d)) over the (d, m), each dimension a count
    of the monomials of degree t + d in three variables."""
    return sum(m * len(monomial_basis(t + d)) for d, m in summands)


def test_twist_values():
    assert hilbert_class([(0, 1)]) == (1, 0, 0)
    assert hilbert_class([(-1, 1)]) == (1, -1, -1)
    assert hilbert_class([(-2, 1)]) == (1, -2, -1)
    assert hilbert_class([]) == (0, 0, 0)


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-10, max_value=10))
def test_twist_integer_valued(d, t):
    # the class of O(d) gives (t+d+2)(t+d+1)/2 at every integer t
    assert value(hilbert_class([(d, 1)]), t) == (t + d + 2) * (t + d + 1) // 2


@given(
    st.lists(
        st.tuples(st.integers(min_value=-6, max_value=6), st.integers(min_value=-4, max_value=4)),
        max_size=6,
    )
)
def test_class_counts_monomials(summands):
    # oracle: sections of O(k) for k >= 0 are the monomials of degree k
    lo = max((-d for d, _ in summands), default=0)
    klass = hilbert_class(summands)
    for t in range(lo, lo + 5):
        assert value(klass, t) == monomial_count(summands, t)


def test_resolution_examples():
    t, k = res("src=(-2)x1,(-1)x2 tgt=(0)x3")
    assert hilbert_of_resolution(t, k) == (0, 4, 3)
    t, k = res("src=(-2)x2 tgt=(0)x2")
    assert hilbert_of_resolution(t, k) == (0, 4, 2)
    t, k = res("src=(-2)x4,(-1)x3 tgt=(-1)x3,(0)x3 ker=(-2)")
    assert hilbert_of_resolution(t, k) == (0, 6, 3)


def test_resolution_additive():
    t1, _ = res("src=(-2)x1,(-1)x2 tgt=(0)x3")
    t2, _ = res("src=(-2)x2 tgt=(0)x2")
    t12, _ = res("src=(-2)x3,(-1)x2 tgt=(0)x5")
    total = tuple(a + b for a, b in zip(hilbert_of_resolution(t1), hilbert_of_resolution(t2)))
    assert hilbert_of_resolution(t12) == total


def structure_sheaf(r):
    """The class of O_C for a degree-r plane curve C, the cokernel of O(-r) -> O."""
    t, k = res(f"src=({-r})x1 tgt=(0)x1")
    return hilbert_of_resolution(t, k)


def test_structure_sheaf():
    assert structure_sheaf(2) == (0, 2, 1)
    assert structure_sheaf(3) == (0, 3, 0)
    assert structure_sheaf(4) == (0, 4, -2)


@pytest.mark.parametrize("r", range(2, 9))
def test_structure_sheaf_shape(r):
    # r*t + 1 - g with the genus g = (r - 1)(r - 2)/2 of a smooth plane curve
    rho, mult, chi = structure_sheaf(r)
    assert (rho, mult) == (0, r)
    assert value((rho, mult, chi), 0) == F(-r * (r - 3), 2)


def test_canonical_form_and_eval():
    assert value((0, 2, 1), 3) == 7
    assert format_hilbert((0, 2, 1)) == "2*t + 1"
    assert format_hilbert((1, -3, 0)) == "1/2*t^2 - 3/2*t + 1"
    assert format_hilbert((-1, 3, 1)) == "-1/2*t^2 + 3/2*t"
    assert format_hilbert((2, -3, 0)) == "1*t^2 + 2"
    assert format_hilbert((0, 0, 0)) == "0"


def test_resolution_against_binomial_oracle():
    # direct expansion of (t+d+2)(t+d+1)/2 sums, kernel term included
    def twist_val(d, t):
        return F((t + d + 2) * (t + d + 1), 2)

    t, k = res("src=(-2)x4,(-1)x3 tgt=(-1)x3,(0)x3 ker=(-2)")
    p = hilbert_of_resolution(t, k)
    for tt in range(-5, 6):
        want = (
            3 * twist_val(-1, tt)
            + 3 * twist_val(0, tt)
            - 4 * twist_val(-2, tt)
            - 3 * twist_val(-1, tt)
            + twist_val(-2, tt)
        )
        assert value(p, tt) == want


def test_shape_class_is_the_hilbert_polynomial_of_the_block():
    # oracle: monomial counts of the block's own type, the shape's columns
    # S -> the rows outside its rows T, at five t past every twist, for every
    # b + a = N shape of every square table row
    from sheafmod.regions import enumerate_shapes
    from sheafmod.registry import load_registry

    rows = shapes = 0
    for case in load_registry():
        for n in case.ns():
            t = case.resolution(n)
            size = t.source.rank
            if t.target.rank != size:
                continue
            rows += 1
            lo = -min(d for d, _ in t.source.summands + t.target.summands)
            for s in enumerate_shapes(t):
                if sum(s.rows) + sum(s.cols) != size:
                    continue
                block = [(d, -a) for a, (d, _) in zip(s.cols, t.source.summands)]
                block += [(e, m - b) for b, (e, m) in zip(s.rows, t.target.summands)]
                r, chi = hilbert_of_shape(t, s)
                for tt in range(lo, lo + 5):
                    assert r * tt + chi == monomial_count(block, tt), (case.id, n, s)
                shapes += 1
    assert (rows, shapes) == (33, 435)


def test_shape_class_refuses_a_block_that_is_not_square():
    from sheafmod.regions import Shape

    t, _ = res("src=(-2)x1,(-1)x2 tgt=(0)x3")
    assert hilbert_of_shape(t, Shape((1,), (1, 1))) == (3, 2)
    with pytest.raises(ValueError, match="not square"):
        hilbert_of_shape(t, Shape((1,), (1, 0)))

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from sheafmod.bundles import parse_resolution_spec
from sheafmod.hilbert import HilbertPolynomial, hilbert_of_resolution, hilbert_of_shape, hilbert_of_twist


def res(spec):
    return parse_resolution_spec(spec)


def test_twist_values():
    assert hilbert_of_twist(0) == HilbertPolynomial((1, F(3, 2), F(1, 2)))
    assert hilbert_of_twist(-1) == HilbertPolynomial((0, F(1, 2), F(1, 2)))
    assert hilbert_of_twist(-2) == HilbertPolynomial((0, F(-1, 2), F(1, 2)))


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-10, max_value=10))
def test_twist_integer_valued(d, t):
    assert hilbert_of_twist(d)(t).denominator == 1


def test_resolution_examples():
    t, k = res("src=(-2)x1,(-1)x2 tgt=(0)x3")
    assert hilbert_of_resolution(t, k) == HilbertPolynomial.linear(4, 3)
    t, k = res("src=(-2)x2 tgt=(0)x2")
    assert hilbert_of_resolution(t, k) == HilbertPolynomial.linear(4, 2)
    t, k = res("src=(-2)x4,(-1)x3 tgt=(-1)x3,(0)x3 ker=(-2)")
    assert hilbert_of_resolution(t, k) == HilbertPolynomial.linear(6, 3)


def test_resolution_additive():
    t1, _ = res("src=(-2)x1,(-1)x2 tgt=(0)x3")
    t2, _ = res("src=(-2)x2 tgt=(0)x2")
    t12, _ = res("src=(-2)x3,(-1)x2 tgt=(0)x5")
    assert hilbert_of_resolution(t12) == hilbert_of_resolution(t1) + hilbert_of_resolution(t2)


def structure_sheaf(r):
    """The Hilbert polynomial of O_C for a degree-r plane curve C, the
    cokernel of O(-r) -> O."""
    t, k = res(f"src=({-r})x1 tgt=(0)x1")
    return hilbert_of_resolution(t, k)


def test_structure_sheaf():
    assert structure_sheaf(2) == HilbertPolynomial.linear(2, 1)
    assert structure_sheaf(3) == HilbertPolynomial((0, 3))
    assert structure_sheaf(4) == HilbertPolynomial.linear(4, -2)


@pytest.mark.parametrize("r", range(2, 9))
def test_structure_sheaf_shape(r):
    # r*t + 1 - g with the genus g = (r - 1)(r - 2)/2 of a smooth plane curve
    p = structure_sheaf(r)
    assert p(0) == F(-r * (r - 3), 2)
    assert p.coefficient(1) == r


def test_canonical_form_and_eval():
    p = HilbertPolynomial((1, 2, 0))
    assert p.degree == 1
    assert p(3) == 7
    assert str(HilbertPolynomial((F(1), F(-3, 2), F(1, 2)))) == "1/2*t^2 - 3/2*t + 1"
    assert str(HilbertPolynomial(())) == "0"


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
        assert p(tt) == want


def test_shape_class_is_the_hilbert_polynomial_of_the_block():
    # oracle: hilbert_of_resolution of the block's own type, the shape's
    # columns S -> the rows outside its rows T, for every b + a = N shape of
    # every square table row
    from sheafmod.bundles import MorphismType
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
            for s in enumerate_shapes(t):
                if sum(s.rows) + sum(s.cols) != size:
                    continue
                src = [(d, a) for a, (d, _) in zip(s.cols, t.source.summands) if a]
                tgt = [(e, m - b) for b, (e, m) in zip(s.rows, t.target.summands) if m > b]
                r, chi = hilbert_of_shape(t, s)
                want = hilbert_of_resolution(MorphismType.make(src, tgt))
                assert want == HilbertPolynomial.linear(r, chi), (case.id, n, s)
                shapes += 1
    assert (rows, shapes) == (33, 435)


def test_shape_class_refuses_a_block_that_is_not_square():
    from sheafmod.regions import Shape

    t, _ = res("src=(-2)x1,(-1)x2 tgt=(0)x3")
    assert hilbert_of_shape(t, Shape((1,), (1, 1))) == (3, 2)
    with pytest.raises(ValueError, match="not square"):
        hilbert_of_shape(t, Shape((1,), (1, 0)))

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from sheafmod.bundles import parse_resolution_spec
from sheafmod.hilbert import (
    HilbertPolynomial,
    LinearClass,
    hilbert_of_resolution,
    hilbert_of_twist,
    is_fine,
    line_bundle_degree,
    quotient_from_minors_kernel,
    slope_violates,
    structure_sheaf_poly,
)


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


def test_quotient_from_minors_kernel():
    assert quotient_from_minors_kernel(6, 4) == HilbertPolynomial.linear(2, 1)
    assert quotient_from_minors_kernel(5, 5) == HilbertPolynomial((3,))
    assert quotient_from_minors_kernel(8, 5) == HilbertPolynomial.linear(3, 3)
    with pytest.raises(ValueError):
        quotient_from_minors_kernel(4, 5)


def test_structure_sheaf():
    assert structure_sheaf_poly(2) == HilbertPolynomial.linear(2, 1)
    assert structure_sheaf_poly(3) == HilbertPolynomial((0, 3))
    assert structure_sheaf_poly(4) == HilbertPolynomial.linear(4, -2)


@pytest.mark.parametrize("r", range(2, 9))
def test_structure_sheaf_shape(r):
    p = structure_sheaf_poly(r)
    assert p(0) == F(-r * (r - 3), 2)
    assert p.coefficient(1) == r


def test_line_bundle_degree():
    assert line_bundle_degree(4, 3) == 5
    assert line_bundle_degree(3, 0) == 0
    assert line_bundle_degree(6, 3) == 12


@given(st.integers(-50, 10**6), st.integers(-10**6, 10**6))
def test_line_bundle_degree_is_riemann_roch_or_a_value_error(r, chi):
    # r(r - 3) is even for every integer r, so the only failure is r < 1
    if r < 1:
        with pytest.raises(ValueError):
            line_bundle_degree(r, chi)
    else:
        assert line_bundle_degree(r, chi) == F(r * (r - 3), 2) + chi


def test_slope_violates():
    assert slope_violates(LinearClass(3, 3), LinearClass(4, 3), strict=True)
    assert not slope_violates(LinearClass(2, 1), LinearClass(4, 2), strict=True)
    assert slope_violates(LinearClass(2, 1), LinearClass(4, 2), strict=False)
    assert not slope_violates(LinearClass(1, 0), LinearClass(6, 3), strict=True)


@given(
    st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9),
    st.booleans(),
)
def test_slope_antisymmetric(r1, c1, r2, c2, strict):
    a, b = LinearClass(r1, c1), LinearClass(r2, c2)
    if strict:
        assert not (slope_violates(a, b, True) and slope_violates(b, a, True))


def test_is_fine():
    assert is_fine(4, 3)
    assert not is_fine(4, 2)
    assert is_fine(1, 0)


@given(st.integers(1, 30), st.integers(-30, 30))
def test_fineness_dual_symmetric(r, chi):
    assert is_fine(r, chi) == is_fine(r, r - chi)


def test_canonical_form_and_eval():
    p = HilbertPolynomial((1, 2, 0))
    assert p.degree == 1
    assert p(3) == 7
    assert str(HilbertPolynomial((F(1), F(-3, 2), F(1, 2)))) == "1/2*t^2 - 3/2*t + 1"
    assert str(HilbertPolynomial(())) == "0"


def test_linear_class_rejects_quadratic():
    with pytest.raises(ValueError):
        hilbert_of_twist(0).linear_class()
    assert HilbertPolynomial.linear(4, 3).linear_class() == LinearClass(4, 3)


@given(st.integers(min_value=-5, max_value=5))
def test_binomial_basis_integral(d):
    # integer-valued polynomials have integer coordinates in the basis
    # 1, t, (t^2+t)/2
    a0, a1, a2 = hilbert_of_twist(d).binomial_coefficients()
    assert a0.denominator == a1.denominator == a2.denominator == 1
    assert a2 == 1  # plane line bundles have multiplicity coefficient 1


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

import pytest
from hypothesis import given, strategies as st

from sheafmod.bundles import (
    BundleSum,
    MorphismType,
    aut_group_dim,
    format_resolution_spec,
    hom_dim,
    hom_space_dim,
    parse_resolution_spec,
)
from sheafmod.registry import _instantiate, case_by_id, load_registry


def test_hom_dim():
    assert hom_dim(-2, 0) == 6
    assert hom_dim(-1, -1) == 1
    assert hom_dim(0, -1) == 0


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_hom_dim_twist_invariance(a, b, k):
    assert hom_dim(a, b) == hom_dim(a + k, b + k)


def test_hom_space_dim():
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    assert hom_space_dim(t) == 36
    t = MorphismType.make([(-2, 2), (-1, 2)], [(-1, 1), (0, 3)], zeroed=[(1, 0)])
    assert hom_space_dim(t) == 60
    t = MorphismType.make([(-2, 4)], [(-1, 3), (1, 1)])
    assert hom_space_dim(t) == 76


def test_aut_group_dim():
    assert aut_group_dim(MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])) == 19
    assert (
        aut_group_dim(
            MorphismType.make([(-2, 3), (-1, 3)], [(-1, 2), (0, 4)], zeroed=[(1, 0)])
        )
        == 88
    )
    assert aut_group_dim(MorphismType.make([(-2, 4)], [(-1, 3), (1, 1)])) == 43


@given(st.integers(1, 6), st.integers(1, 6), st.integers(-4, 1), st.integers(2, 5))
def test_aut_single_types(k, m, d, gap):
    t = MorphismType.make([(d, k)], [(d + gap, m)])
    # hom(d, d') with d < d' contributes nothing to either automorphism group
    assert aut_group_dim(t) == k * k + m * m - 1


def test_stratum_codim_examples():
    assert case_by_id("M(n+2,n):omega1").codim(3) == 2
    assert case_by_id("M(7,4):omega2").codim(4) == 6
    assert case_by_id("M(n,3):h0m1=1+ker").codim(8) == 6


def _koszul_orbit_codim() -> int:
    """The codimension of the orbit of K = [[0, Z, -Y], [-Z, 0, X], [Y, -X, 0]]
    under (A, B) -> B K A^-1 in the 27-dimensional space of 3x3 matrices of
    linear forms: 27 less the rank of the tangent maps BK - KA over constant
    3x3 matrices A and B, as vectors of coefficients of X, Y, Z per entry."""
    from sheafmod.linalg import rank
    from sheafmod.polymatrix import HomogeneousPoly, X, Y, Z

    o = HomogeneousPoly.zero()
    K = [
        [[e.coefficient(t) for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] for e in row]
        for row in ([o, Z, -Y], [-Z, o, X], [Y, -X, o])
    ]
    units = [
        [[int((r, c) == (i, j)) for c in range(3)] for r in range(3)]
        for i in range(3)
        for j in range(3)
    ]
    none = [[0] * 3 for _ in range(3)]

    def tangent(A, B):
        return [
            sum(B[r][k] * K[k][c][v] - K[r][k][v] * A[k][c] for k in range(3))
            for r in range(3)
            for c in range(3)
            for v in range(3)
        ]

    rows = [tangent(U, none) for U in units] + [tangent(none, U) for U in units]
    return 27 - rank(rows)


def test_extra_constraints_is_the_koszul_orbit_codimension():
    # the hand-entered field: the codimension of the Koszul orbit in the
    # phi22 block on every case that asks for a Koszul phi22, and 0 elsewhere
    codim = _koszul_orbit_codim()
    assert codim == 10
    koszul = 0
    for case in load_registry():
        if "phi22_koszul" in case.checks:
            koszul += 1
            assert case.extra_constraints == codim, case.id
            for n in range(case.n_range[0], case.n_range[1] + 1):
                t = case.resolution(n)
                (d, mi), (e, ml) = t.source.summands[1], t.target.summands[1]
                assert (mi, ml, e - d) == (3, 3, 1), (case.id, n)
        else:
            assert case.extra_constraints == 0, case.id
    assert koszul == 2


def test_codim_zero_family():
    case = case_by_id("M(n+1,n):h0m1=0")
    for n in range(1, 11):
        assert case.codim(n) == 0
        t = case.resolution(n)
        assert hom_space_dim(t) - aut_group_dim(t) == (n + 1) ** 2 + 1


def quotient_dim_crosscheck(family: str, n: int) -> bool:
    """Fiber-bundle dimension identity for the two quotient constructions.

    ``family`` is "linear" (source O(-2)+(n-1)O(-1) -> nO, fiber P^(3n+2),
    base of dimension n^2-n) or "cubic" (source O(-3)+nO(-1) -> (n+1)O,
    fiber P^(4n+9), base of dimension n^2+n).
    """
    if family == "linear":
        if n < 1:
            raise ValueError("n must be >= 1")
        src = [(-2, 1)] + ([(-1, n - 1)] if n > 1 else [])
        t = MorphismType.make(src, [(0, n)])
        fiber, base = 3 * n + 2, n * n - n
    elif family == "cubic":
        if not 1 <= n <= 3:
            raise ValueError("n must be in 1..3")
        t = MorphismType.make([(-3, 1), (-1, n)], [(0, n + 1)])
        fiber, base = 4 * n + 9, n * n + n
    else:
        raise ValueError(f"unknown family {family!r}")
    return fiber + base == hom_space_dim(t) - aut_group_dim(t)


@pytest.mark.parametrize("n", range(1, 11))
def test_crosscheck_linear(n):
    assert quotient_dim_crosscheck("linear", n)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_crosscheck_cubic(n):
    assert quotient_dim_crosscheck("cubic", n)


def test_crosscheck_rejects_bad_n():
    with pytest.raises(ValueError):
        quotient_dim_crosscheck("cubic", 4)
    with pytest.raises(ValueError):
        quotient_dim_crosscheck("linear", 0)


def test_bundle_sum_invariants():
    with pytest.raises(ValueError):
        BundleSum([(-1, 2), (-2, 1)])  # not increasing
    with pytest.raises(ValueError):
        BundleSum([(-1, 0)])
    b = BundleSum([(-2, 1), (-1, 2)])
    assert b.rank == 3
    assert b.dual() == BundleSum([(-1, 2), (0, 1)])


def test_morphism_type_dual_involution():
    t = MorphismType.make([(-2, 2), (-1, 3)], [(-1, 1), (0, 4)], zeroed=[(1, 0)])
    assert t.dual().dual() == t
    d = t.dual()
    assert d.source.summands == ((-2, 4), (-1, 1))
    assert d.target.summands == ((-1, 3), (0, 2))


def test_resolution_spec_roundtrip():
    spec = "src=(-2)x3,(-1)x2 tgt=(-1)x2,(0)x3 zero=(2,1)"
    t, k = parse_resolution_spec(spec)
    assert k is None
    assert format_resolution_spec(t) == spec
    t2, k2 = parse_resolution_spec("src=(-2)x4,(-1)x3 tgt=(-1)x3,(0)x3 ker=(-2)")
    assert k2 == -2


@pytest.mark.parametrize(
    "spec, zeroed",
    [
        # (2,1) is O(-1) -> O(0) as written, whatever drops out before it
        ("src=(-2)x0,(-1)x1,(0)x1 tgt=(0)x1,(1)x1 zero=(2,1)", {(0, 0)}),
        ("src=(-1)x1,(0)x1 tgt=(-1)x0,(0)x1,(1)x1 zero=(1,2),(2,3)", {(0, 0), (1, 1)}),
        # a pair naming a summand of multiplicity zero is an empty block
        ("src=(-2)x0,(-1)x1,(0)x1 tgt=(0)x1,(1)x1 zero=(1,1),(3,2)", {(1, 1)}),
        ("src=(-1)x1,(0)x1 tgt=(-1)x0,(0)x1,(1)x1 zero=(1,1)", set()),
    ],
)
def test_zero_pairs_name_summands_as_written(spec, zeroed):
    t, _ = parse_resolution_spec(spec)
    assert t.source.summands == ((-1, 1), (0, 1))
    assert t.target.summands == ((0, 1), (1, 1))
    assert t.zeroed == zeroed


def test_registry_loads_17_blocks():
    assert len(load_registry()) == 17


@pytest.mark.parametrize(
    "spec, message",
    [
        ("src=(-2)x1 src=(-1)x1 tgt=(0)x2", "repeated src="),
        ("src=(-2)x1 tgt=(0)x2 tgt=(0)x1", "repeated tgt="),
        ("src=(-2)x1 tgt=(0)x2 ker=(-3) ker=(-2)", "repeated ker="),
        ("src=(-2)x1 tgt=(0)x2 zero=(1,1) zero=(1,1)", "repeated zero="),
        ("src=(-2)x1 tgt=(0)x2 zero=junk", "bad zero blocks"),
        ("src=(-2)x1 tgt=(0)x2 zero=(1,1)x(2,2)", "bad zero blocks"),
        ("src=(-2)x1 tgt=(0)x2 zero=", "bad zero blocks"),
        ("src=(-2)x1 tgt=(0)x2 zero=(1,1),", "bad zero blocks"),
        # blocks are named as written, 1-based
        ("src=(-2)x1 tgt=(0)x2 zero=(0,0)", r"zeroed block \(0,0\) out of range"),
        ("src=(-2)x1 tgt=(0)x2 zero=(1,2)", r"zeroed block \(1,2\) out of range"),
        ("src=(-1)x1 tgt=(-2)x2 zero=(1,1)", r"block \(1,1\) is already impossible"),
        ("src=(-2)x0,(0)x1 tgt=(-1)x1 zero=(2,1)", r"block \(2,1\) is already impossible"),
    ],
)
def test_resolution_spec_rejects(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_resolution_spec(spec)


def test_registry_types_roundtrip():
    for case in load_registry():
        for n in case.ns():
            t = case.resolution(n)
            assert parse_resolution_spec(format_resolution_spec(t)) == (t, None)



def test_kept_resolution_types_match_the_printed_spec():
    # the load keeps one type per n of both ranges; the printed spec must
    # still parse to each of them
    for case in load_registry():
        lo, hi = case.n_codim_range
        ns = {*case.ns(), *range(lo, hi + 1)}
        assert set(case.resolutions) == ns
        for n in ns:
            spec = _instantiate(case.resolution_spec, n)
            assert case.resolution(n) == parse_resolution_spec(spec)[0]

@st.composite
def _sums(draw):
    twists = sorted(draw(st.sets(st.integers(-4, 2), min_size=1, max_size=3)))
    return [(d, draw(st.integers(1, 4))) for d in twists]


@st.composite
def _types(draw):
    src, tgt = draw(_sums()), draw(_sums())
    possible = [
        (i, l)
        for i, (a, _) in enumerate(src)
        for l, (b, _) in enumerate(tgt)
        if b >= a
    ]
    zeroed = draw(st.sets(st.sampled_from(possible))) if possible else set()
    kernel = draw(st.none() | st.integers(-5, 5))
    return MorphismType.make(src, tgt, zeroed), kernel


@given(_types())
def test_resolution_spec_parse_inverts_format(tk):
    t, kernel = tk
    assert parse_resolution_spec(format_resolution_spec(t, kernel)) == (t, kernel)


@given(_types(), st.data())
def test_resolution_spec_mutations_raise_only_value_errors(tk, data):
    pieces = list("()x,=-0129 ") + ["src=", "tgt=", "ker=", "zero="]
    text = format_resolution_spec(*tk)
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(["insert", "delete", "repeat"]))
        if op == "insert":
            text = text[:pos] + data.draw(st.sampled_from(pieces)) + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text + " " + data.draw(st.sampled_from(text.split() or [""]))
    try:
        t, kernel = parse_resolution_spec(text)
    except ValueError:
        return
    # whatever parses formats back to an equivalent spec
    assert parse_resolution_spec(format_resolution_spec(t, kernel)) == (t, kernel)

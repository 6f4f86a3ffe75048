import operator
import random
import re
from fractions import Fraction as F

import pytest

from sheafmod.bundles import MorphismType
from sheafmod.regions import (
    Facet,
    Polarization,
    Shape,
    admissible_region,
    classify_shapes,
    dual_polarization,
    enumerate_shapes,
    solve_halfplanes,
)
from sheafmod.registry import load_registry, case_by_id


def test_enumerate_shapes_counts():
    t = MorphismType.make([(-2, 1), (-1, 1)], [(0, 2)])
    assert len(enumerate_shapes(t)) == 6
    t = MorphismType.make([(-2, 1)], [(0, 1)])
    assert len(enumerate_shapes(t)) == 1
    t = MorphismType.make([(-2, 2), (-1, 2)], [(-1, 1), (0, 3)])
    shapes = enumerate_shapes(t)
    assert len(shapes) == ((1 + 1) * (3 + 1) - 1) * ((2 + 1) * (2 + 1) - 1)
    assert len(set(shapes)) == len(shapes)


def _margin(s, t, p):
    """rhs - lhs of the weak inequality of shape s, sum(b_l mu_l) <=
    sum((m_i - a_i) lambda_i), on Fractions: the oracle for the integer-scaled
    comparison in classify_shapes.  The shape destabilizes when it is < 0."""
    lhs = sum(b * mu for b, mu in zip(s.rows, p.mus))
    rhs = sum((m - a) * l for a, (_, m), l in zip(s.cols, t.source.summands, p.lambdas))
    return rhs - lhs


def test_shape_inequality_forms():
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    p = Polarization([F(1, 6), F(5, 12)], [F(1, 3)])
    l1, l2 = p.lambdas
    (m1,) = p.mus
    # rows (1,) against the complementary columns (1, 1): m1 <= l1 + l2
    assert _margin(Shape((1,), (0, 1)), t, p) == l1 + l2 - m1
    # a full-column shape has no complementary columns, so it always
    # destabilizes
    s = Shape((1,), (1, 2))
    assert _margin(s, t, p) == -m1 < 0
    assert classify_shapes(t, p)[s]
    # as a forbidden shape it empties the region
    assert admissible_region(t, [s], []).empty


@pytest.mark.parametrize(
    "shape, message",
    [
        (Shape((0,), (1, 0)), "at least one row and one column"),
        (Shape((1,), (0, 0)), "at least one row and one column"),
        (Shape((2,), (-1, 1)), "nonnegative"),
        (Shape((4,), (1, 0)), "row count exceeds multiplicity"),
        (Shape((1,), (0, 3)), "column count exceeds multiplicity"),
        (Shape((1, 0), (1, 0)), "arity"),
        (Shape((1,), (1,)), "arity"),
    ],
)
def test_shape_validate_for_rejects(shape, message):
    # a shape is a plain pair of tuples; it is checked only against a type
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    with pytest.raises(ValueError, match=message):
        shape.validate_for(t)
    with pytest.raises(ValueError, match=message):
        admissible_region(t, [shape], [])


def test_full_row_shape_always_destabilizing():
    t = MorphismType.make([(-2, 2), (-1, 1)], [(-1, 1), (0, 2)])
    p = Polarization([F(1, 4), F(1, 2)], [F(1, 2), F(1, 4)])
    labels = classify_shapes(t, p)
    # all rows, one column: row weights sum to 1, which always exceeds the
    # complement column weights
    assert labels[Shape((1, 2), (1, 0))]
    assert labels[Shape((1, 2), (0, 1))]


def test_classify_endpoint_flip():
    # at l1 = 1/n exactly the catalog shapes sit on their boundary
    n = 3
    t = MorphismType.make([(-2, 1), (-1, n - 1)], [(0, n)])
    p = Polarization([F(1, n), F(1, n)], [F(1, n)])
    labels = classify_shapes(t, p)
    for m in range(1, n):
        s = Shape((m,), (1, n - 1 - m))
        assert _margin(s, t, p) == 0  # boundary: weak holds, strict fails
        assert not labels[s]
        # a hair past the boundary, outside the region l1 < 1/n, the shape
        # destabilizes
        eps = F(1, 1000)
        q = Polarization([F(1, n) + eps, F(1, n) - eps / (n - 1)], [F(1, n)])
        assert _margin(s, t, q) < 0 and classify_shapes(t, q)[s]


def test_classify_matches_the_shape_inequality():
    # classify_shapes compares integer-scaled weights; _margin is the
    # Fraction reference, also at a polarization on shapes' boundaries
    t3 = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    cases = [(t3, Polarization([F(1, 3), F(1, 3)], [F(1, 3)]))]
    for case in load_registry():
        for n in case.ns():
            cases.append((case.resolution(n), case.sample_polarization(n)))
    for t, p in cases:
        labels = classify_shapes(t, p)
        assert list(labels) == enumerate_shapes(t)
        for s, destabilizing in labels.items():
            assert destabilizing == (_margin(s, t, p) < 0)


def test_catalog_facets_agree_with_classify_at_every_sample_point():
    # the region is built from the catalog's facets and the verdicts from
    # classify_shapes; at each row's sample polarization, inside the region,
    # no forbidden shape destabilizes and every allowed shape holds weakly
    # (it destabilizes, or sits on its boundary)
    checked = 0
    for case in load_registry():
        for n in case.ns():
            t, p = case.resolution(n), case.sample_polarization(n)
            labels = classify_shapes(t, p)
            sys = case.region_system(n)
            for s in sys.forbidden:
                assert not labels[s], (case.id, n, s)
            for s in sys.allowed:
                assert labels[s] or _margin(s, t, p) == 0, (case.id, n, s)
            checked += len(sys.forbidden) + len(sys.allowed)
    assert checked > 0


def test_region_golden_442():
    case = case_by_id("M(4,2):omega1")
    r = case.region(2)
    assert r.affine_dim == 2
    assert tuple(r.vertices) == (
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1, 3), F(1, 3)),
        (F(1, 2), F(1)),
    )


def test_region_spot_checks():
    # line-intersection oracle for the three quoted bounding lines at n=5:
    # m1 = l1, m1 = 1/6, m1 = (15/4) l1 - 1/4
    def meet(a1, b1, c1, a2, b2, c2):
        det = a1 * b2 - a2 * b1
        return (F(c1 * b2 - c2 * b1, det), F(a1 * c2 - a2 * c1, det))

    v1 = meet(1, -1, 0, 0, 1, F(1, 6))          # m1=l1 with m1=1/6
    v2 = meet(1, -1, 0, F(15, 4), -1, F(1, 4))  # m1=l1 with m1=(15/4)l1-1/4
    v3 = meet(0, 1, F(1, 6), F(15, 4), -1, F(1, 4))
    expected = tuple(sorted([v1, v2, v3]))
    assert expected == ((F(1, 11), F(1, 11)), (F(1, 9), F(1, 6)), (F(1, 6), F(1, 6)))
    r = case_by_id("M(n+3,n):omega1").region(5)
    assert tuple(r.vertices) == expected
    # the single-point region
    r = case_by_id("M(6,3):omega0").region(3)
    assert r.affine_dim == 0 and r.vertices == ((F(1, 3),),)


def test_every_region_matches_all_of_its_golden_data():
    # the table compares only vertex sets; this also reads the kind of each
    # published region and the strictness of each interval endpoint
    from sheafmod.cli import _endpoint_strict
    from sheafmod.goldens import expected_region

    dims = {"point": 0, "interval": 1, "segment": 1, "polygon": 2}
    kinds = []
    for case in load_registry():
        for n in case.ns():
            r, golden = case.region(n), expected_region(case.id, n)
            kind = golden[0]
            assert r.affine_dim == dims[kind], (case.id, n)
            if kind == "point":
                assert r.vertices == ((golden[1],),), (case.id, n)
            elif kind == "interval":
                _, lo, hi, lo_strict, hi_strict = golden
                assert r.vertices == ((lo,), (hi,)), (case.id, n)
                assert _endpoint_strict(r, (lo,)) == lo_strict, (case.id, n)
                assert _endpoint_strict(r, (hi,)) == hi_strict, (case.id, n)
            else:
                assert r.vertices == golden[1], (case.id, n)
            kinds.append(kind)
    assert len(kinds) == 45 and kinds.count("interval") == 20


def test_region_vertices_satisfy_facets():
    for case in load_registry():
        for n in case.ns():
            r = case.region(n)
            for v in r.vertices:
                for f in r.facets:
                    assert f.value(v) >= 0
            if r.affine_dim > 0:
                center = r.interior_point()
                for f in r.facets:
                    if f.strict:
                        assert f.value(center) > 0


def test_region_order_independent(rnd):
    case = case_by_id("M(n+2,n):omega1")
    sys = case.region_system(4)
    t = case.resolution(4)
    base = admissible_region(t, sys.forbidden, sys.allowed)
    for _ in range(5):
        f = list(sys.forbidden)
        a = list(sys.allowed)
        rnd.shuffle(f)
        rnd.shuffle(a)
        r = admissible_region(t, f, a)
        assert r.vertices == base.vertices
        assert r.facets == base.facets


def test_classify_constant_on_interior():
    """The labels of the cataloged shapes do not move inside a region.

    Shapes outside a case's catalog may genuinely flip inside the region
    (their boundary lines cross it); the published regions only separate the
    cataloged ones, so the constancy check quantifies over those.
    """
    from sheafmod.regions import _AffineSpace

    for case in load_registry():
        for n in case.ns():
            t = case.resolution(n)
            sys = case.region_system(n)
            catalog = set(sys.forbidden) | set(sys.allowed)
            if not catalog:
                continue
            clipped = admissible_region(
                t, sys.forbidden, sys.allowed,
                extra_facets=sys.extra_facets, clip_positivity=True,
            )
            if clipped.empty or clipped.affine_dim < 1:
                continue
            space = _AffineSpace(t)
            center = clipped.interior_point()
            samples = [center]
            for v in clipped.vertices[:2]:
                samples.append(
                    tuple((2 * ci + vi) / 3 for ci, vi in zip(center, v))
                )
            partitions = []
            for pt in samples:
                p = space.polarization_at(pt)
                labels = classify_shapes(t, p)
                partitions.append({s: labels[s] for s in catalog if s in labels})
            assert all(p == partitions[0] for p in partitions[1:])


def test_classify_fully_constant_on_interval_families():
    """For the sums-of-twists-to-trivial families the whole partition is
    constant across the open part of the admissible interval."""
    from sheafmod.regions import _AffineSpace

    for cid in (
        "M(n+1,n):h0m1=0",
        "M(n+2,n):omega0",
        "M(n+3,n):omega0",
        "M(6,3):h1=1",
        "M(4,1):h1=1",
        "M(5,2):h1=1",
    ):
        case = case_by_id(cid)
        for n in case.ns():
            t = case.resolution(n)
            space = _AffineSpace(t)
            (lo,), (hi,) = case.region(n).vertices
            samples = [lo + (hi - lo) * F(k, 7) for k in (1, 3, 5)]
            parts = [
                classify_shapes(t, space.polarization_at((x,))) for x in samples
            ]
            assert all(p == parts[0] for p in parts[1:]), (cid, n)


def test_dual_polarization_rule_and_involution():
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    p = Polarization([F(1, 6), F(5, 12)], [F(1, 3)])
    q = dual_polarization(p, t)
    assert q.lambdas == (F(1, 3),)
    assert q.mus == (F(5, 12), F(1, 6))
    assert dual_polarization(q, t.dual()) == p
    t2 = MorphismType.make([(-2, 2), (-1, 2)], [(-1, 1), (0, 3)])
    p2 = Polarization([F(1, 8), F(3, 8)], [F(1, 4), F(1, 4)])
    q2 = dual_polarization(p2, t2)
    assert q2.lambdas == (F(1, 4), F(1, 4))
    assert q2.mus == (F(3, 8), F(1, 8))


def test_dual_region_pair_m63():
    # the two dual table blocks carry each other's interval under the
    # polarization transposition
    d_case = case_by_id("M(6,3):h1=1")
    e_case = case_by_id("M(6,3):h0m1=1")
    rd = d_case.region(3)
    re = e_case.region(3)
    assert rd.vertices == ((F(0),), (F(1, 4),))
    assert re.vertices == ((F(0),), (F(1, 4),))
    t = d_case.resolution(3)
    for l1 in (F(1, 20), F(1, 8), F(1, 5)):
        l2 = (1 - l1) / 3
        p = Polarization([l1, l2], [F(1, 4)])
        q = dual_polarization(p, t)
        q.validate_for(e_case.resolution(3))
        assert q.mus[-1] == l1  # m2 of the dual equals l1


def test_empty_region_flag():
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    # demanding a shape both strictly forbidden and weakly allowed on the
    # wrong side empties the region
    s = Shape((1,), (1, 1))
    forb = [s]
    allo = [Shape((1,), (0, 2)), Shape((2,), (1, 0))]
    r = admissible_region(t, forb, allo)
    assert isinstance(r.empty, bool)


def test_solver_rejects_unbounded():
    cases = [
        (("x",), [Facet((F(1),), F(0), True)]),
        # systems with no vertex whose normals have rank below two
        (("x", "y"), [Facet((F(1), F(0)), F(0), False), Facet((F(-1), F(0)), F(1), False)]),
        (("x", "y"), [Facet((F(1), F(-2)), F(3), True)]),
        (("x", "y"), []),
    ]
    for names, facets in cases:
        with pytest.raises(ValueError, match="unbounded"):
            solve_halfplanes(names, facets)


def test_solver_parallel_normals_without_a_point_is_empty():
    # every normal is parallel to one direction and no point satisfies the
    # system: the 1-variable problem along that normal decides it is empty
    cases = [
        # x >= 1 and x <= 0
        [Facet((F(1), F(0)), F(-1), False), Facet((F(-1), F(0)), F(0), False)],
        # x - 2y > 0 and 2x - 4y <= 0
        [Facet((F(1), F(-2)), F(0), True), Facet((F(-2), F(4)), F(0), False)],
        # y > 0, y < 0 and a constant facet that holds
        [
            Facet((F(0), F(1)), F(0), True),
            Facet((F(0), F(-1)), F(0), True),
            Facet((F(0), F(0)), F(1), False),
        ],
    ]
    for facets in cases:
        r = solve_halfplanes(("x", "y"), facets)
        assert r.empty and r.vertices == () and r.affine_dim == -1
    # the same normals with room between them still make a strip
    with pytest.raises(ValueError, match="unbounded"):
        solve_halfplanes(
            ("x", "y"),
            [Facet((F(1), F(-2)), F(0), False), Facet((F(-2), F(4)), F(1), True)],
        )


@pytest.mark.parametrize(
    "facets, empty",
    [
        # y > 0 and y <= 0 leave nothing, though x >= 0 gives the closure
        # the vertex (0, 0) and the recession direction (1, 0)
        ([((0, 1), 0, True), ((0, -1), 0, False), ((1, 0), 0, False)], True),
        ([((1, 0), 0, True), ((-1, 0), 0, False), ((0, 1), 2, False)], True),
        # the same closures with room for the strict facet are unbounded
        ([((0, 1), 0, False), ((0, -1), 0, False), ((1, 0), 0, True)], False),
        ([((1, 0), 0, False), ((0, 1), 0, False), ((1, 1), 0, True)], False),
    ],
)
def test_solver_decides_emptiness_before_unboundedness(facets, empty):
    facets = [Facet(coeffs, const, strict) for coeffs, const, strict in facets]
    assert _reference_solve(2, facets) == (((), -1, True) if empty else "unbounded")
    if empty:
        r = solve_halfplanes(("x", "y"), facets)
        assert r.empty and r.vertices == () and r.affine_dim == -1
    else:
        with pytest.raises(ValueError, match="unbounded"):
            solve_halfplanes(("x", "y"), facets)


def test_dual_region_of_linear_family():
    """Dualizing the first family's catalog must give the interval
    0 < m2 < 1/n on the transposed type, matching the dual-block data."""
    from sheafmod.registry import case_by_id

    case = case_by_id("M(n+1,n):h0m1=0")
    for n in range(2, 7):
        t = case.resolution(n)
        sysd = case.region_system(n)
        td = t.dual()

        def dualize(s):
            return Shape(tuple(reversed(s.cols)), tuple(reversed(s.rows)))

        forb = [dualize(s) for s in sysd.forbidden]
        allo = [dualize(s) for s in sysd.allowed]
        r = admissible_region(td, forb, allo, coords=("m2",))
        assert r.free_vars == ("m2",)
        assert r.vertices == ((F(0),), (F(1, n),))



def test_fraction_entry_meets_the_table_path_in_one_core():
    """Every table row's facets, each scaled by a seeded positive Fraction
    and shuffled, give solve_halfplanes the row's own region back: the public
    Fraction entry normalizes onto the integer rows that admissible_region
    solves."""
    from sheafmod.regions import _AffineSpace

    rnd = random.Random(26)
    rows = 0
    for case in load_registry():
        for n in case.ns():
            r = case.region(n)
            facets = []
            for f in r.facets:
                k = F(rnd.randint(1, 99), rnd.randint(1, 99))
                facets.append(Facet(tuple(k * c for c in f.coeffs), k * f.const, f.strict))
            rnd.shuffle(facets)
            # a type with no free weight is solved in no variable, and
            # admissible_region then names the point the normalization pins
            names = _AffineSpace(case.resolution(n), case.region_system(n).coords).var_names
            got = solve_halfplanes(names, facets)
            assert got.facets == r.facets
            assert got.affine_dim == r.affine_dim
            assert got.vertices == (r.vertices if names else ((),))
            rows += 1
    assert rows == 45


@pytest.mark.parametrize(
    "case_id, call, n",
    [
        ("M(n+2,n):omega0", "region", 40),
        ("M(n+2,n):omega0", "sample_polarization", 40),
        ("M(4,2):omega1", "resolution", 9),
        # n = 1 is in this case's n_codim range alone: its type is loaded
        # for codim, but the table has no region for it
        ("M(n+1,n):h0m1=0", "region", 1),
        ("M(n+1,n):h0m1=0", "sample_polarization", 1),
    ],
)
def test_library_refuses_n_outside_the_case_range(case_id, call, n):
    case = case_by_id(case_id)
    with pytest.raises(ValueError, match=rf"^case {re.escape(case_id)} does not admit n={n}$"):
        getattr(case, call)(n)

def test_region_barycenter_is_the_sample_polarization():
    """A region solved in its catalog's coordinates and the sample
    polarization solved in the default ones are the same polytope: the
    barycenter of every registry row that clips positivity, read through the
    row's coordinates, is the row's sample polarization."""
    from sheafmod.regions import _AffineSpace

    rows = 0
    for case in load_registry():
        for n in case.ns():
            sys = case.region_system(n)
            if not sys.clip_positivity:
                continue
            space = _AffineSpace(case.resolution(n), sys.coords)
            pt = case.region(n).interior_point()
            assert space.polarization_at(pt if space.dim else ()) == case.sample_polarization(n)
            rows += 1
    assert rows == 44


@pytest.mark.parametrize("k", range(1, 6))
def test_pinned_weight_is_derived_from_the_type(k):
    # kO(-2) -> kO has no free weight: the normalization k * l1 = 1 pins it
    t = MorphismType.make([(-2, k)], [(0, k)])
    r = admissible_region(t, [], [], coords=("l1",))
    assert (r.free_vars, r.vertices, r.affine_dim) == (("l1",), ((F(1, k),),), 0)
    r = admissible_region(t, [], [], coords=("m1",))
    assert r.vertices == ((F(1, k),),)


@pytest.mark.parametrize(
    "t, coords",
    [
        (MorphismType.make([(-2, 2)], [(0, 2)]), ("x1",)),
        (MorphismType.make([(-2, 2)], [(0, 2)]), ("l2",)),
        (MorphismType.make([(-2, 1), (-1, 1)], [(0, 2)]), ("x1",)),
        # both weights of a two-type side leave none to solve out
        (MorphismType.make([(-2, 1), (-1, 1)], [(0, 2)]), ("l1", "l2")),
        (MorphismType.make([(-2, 4)], [(-1, 3), (1, 1)]), ("m1", "m2")),
    ],
    ids=["unknown-pinned", "absent-pinned", "unknown-free", "both-lambdas", "both-mus"],
)
def test_coords_that_are_not_the_free_weights_are_refused(t, coords):
    with pytest.raises(ValueError, match="^coords ") as exc:
        admissible_region(t, [], [], coords=coords)
    assert "\n" not in str(exc.value)


def test_a_pinned_point_has_no_facets():
    # the slope rule gives the point rows their walls (allowed shapes of
    # slope chi/r); a type with no free weight returns the point alone
    for cid in ("M(4,2):omega0", "M(6,3):omega0"):
        case = case_by_id(cid)
        (n,) = case.ns()
        assert case.region_system(n).allowed
        r = case.region(n)
        assert (r.free_vars, r.facets, r.affine_dim) == (("l1",), (), 0)


def test_the_dropped_n_plus_1_shapes_leave_every_slope_region_unchanged():
    # a b + a = N + 1 shape above an allowed b + a = N shape is implied by it
    # at positive weights, so the rule drops it
    rows = 0
    for case in load_registry():
        if case.region_ref.split()[0] != "slope":
            continue
        for n in case.ns():
            t, sys = case.resolution(n), case.region_system(n)
            size = t.source.rank
            every = [s for s in enumerate_shapes(t) if sum(s.rows) + sum(s.cols) == size + 1]
            assert set(sys.allowed) < set(sys.allowed) | set(every)
            region = admissible_region(t, sys.forbidden, [*sys.allowed, *every], coords=sys.coords)
            assert region == case.region(n), (case.id, n)
            rows += 1
    assert rows == 22


def test_the_slope_rule_refuses_a_type_past_its_shape_bound():
    # h1om=90 in place of h1om=0 on M(n+2,n):omega0 gives this type at n = 3:
    # about 10^5 shapes, whose region solve is cubic in the facets
    from sheafmod.hilbert import LinearClass
    from sheafmod.regions import slope_shapes

    t = MorphismType.make([(-2, 2), (-1, 91)], [(-1, 90), (0, 3)], [(1, 0)])
    with pytest.raises(ValueError, match=r"square type of at most 10\^4 shapes"):
        slope_shapes(t, LinearClass(5, 3))
    t = MorphismType.make([(-2, 2), (-1, 21)], [(-1, 20), (0, 3)], [(1, 0)])
    forbidden, allowed = slope_shapes(t, LinearClass(5, 3))
    assert forbidden and allowed


def _matches_golden(case_id, n, r):
    """Whether a region has the published kind, vertices and, for an
    interval, endpoint strictness."""
    from sheafmod.cli import _endpoint_strict
    from sheafmod.goldens import expected_region, expected_region_vertices

    golden = expected_region(case_id, n)
    if r.empty or r.vertices != expected_region_vertices(case_id, n):
        return False
    if golden[0] == "interval":
        _, lo, hi, lo_strict, hi_strict = golden
        return (_endpoint_strict(r, (lo,)), _endpoint_strict(r, (hi,))) == (lo_strict, hi_strict)
    return r.affine_dim == {"point": 0, "segment": 1, "polygon": 2}[golden[0]]


# each catalog the slope rule does not replace, with why, as measured on the
# rows that use it
_KEPT_CATALOGS = {
    "tri_two": "the rule misses at every n",
    "quad_fourtwo": "the b + a = N + 1 shapes cut the published quadrilateral (ROADMAP item 1)",
    "seg_or_tri_omega1": "the rule misses at n = 4 and 5 (it matches at n = 3 and 6)",
    "quad_74": "the rule misses; the published region runs beyond the positive weights",
    "tri_63": "the rule misses",
    "tri_n3": "the resolution is not square",
}


def test_every_kept_catalog_is_one_the_slope_rule_misses():
    # when the rule catches up with a catalog on all of its rows, this fails,
    # and the catalog is due for deletion
    from dataclasses import replace

    from sheafmod.registry import REGION_SYSTEMS

    assert set(REGION_SYSTEMS) == set(_KEPT_CATALOGS)
    misses = dict.fromkeys(REGION_SYSTEMS, 0)
    for case in load_registry():
        if case.region_ref not in REGION_SYSTEMS:
            continue
        rule = replace(case, region_ref="slope")
        for n in case.ns():
            assert _matches_golden(case.id, n, case.region(n)), (case.id, n)
            if case.region_ref == "tri_n3":
                with pytest.raises(ValueError, match="needs a square type"):
                    rule.region(n)
                misses["tri_n3"] += 1
            else:
                misses[case.region_ref] += not _matches_golden(case.id, n, rule.region(n))
    assert all(misses.values()), misses
    assert misses["tri_two"] == 4 and misses["seg_or_tri_omega1"] == 2, misses


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solver_random_bounded_systems(data):
    """Random bounded systems in one and two variables inside the box
    [0, 3]^d: vertices satisfy every weak facet and are tight on d facets
    with independent normals, a nonempty region's barycenter satisfies strict
    facets strictly, the reported facets cut out the same set as the input on
    a denominator-6 grid of the box, and the answer is invariant under facet
    order."""
    import itertools
    import random as _random

    from sheafmod.regions import Facet, solve_halfplanes

    rnd = _random.Random(data.draw(st.integers(0, 10**6)))
    d = data.draw(st.sampled_from([1, 2]))
    names = ("x", "y")[:d]
    facets = []
    for j in range(d):
        unit = tuple(F(int(i == j)) for i in range(d))
        facets.append(Facet(unit, F(0), False))
        facets.append(Facet(tuple(-x for x in unit), F(3), False))
    for _ in range(rnd.randint(1, 5)):
        coeffs = [rnd.randint(-3, 3) for _ in range(d)]
        if not any(coeffs):
            coeffs[0] = 1
        c = F(rnd.randint(-2, 4))
        facets.append(Facet(tuple(F(a) for a in coeffs), c, rnd.random() < 0.5))
    region = solve_halfplanes(names, facets)

    def admits_all(fs, pt):
        return all(f.admits(pt) for f in fs)

    grid = list(itertools.product([F(k, 6) for k in range(19)], repeat=d))
    if region.empty:
        assert not any(admits_all(facets, pt) for pt in grid)
        return
    for pt in grid:
        assert admits_all(facets, pt) == admits_all(region.facets, pt)

    def det(rows):
        return rows[0][0] if d == 1 else rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]

    for v in region.vertices:
        for f in facets:
            assert f.value(v) >= 0
        tight = [f.coeffs for f in facets if f.value(v) == 0]
        assert any(det(rows) != 0 for rows in itertools.combinations(tight, d))
    center = region.interior_point()
    for f in facets:
        if f.strict:
            assert f.value(center) > 0
    shuffled = list(facets)
    rnd.shuffle(shuffled)
    again = solve_halfplanes(names, shuffled)
    assert again.vertices == region.vertices
    assert again.affine_dim == region.affine_dim


def test_structural_zero_blocks_destabilize_only_the_known_row():
    """Rows where a block that is zero in every matrix of the stratum is
    destabilizing at the case's own sample polarization.

    Structural zeros are the zeroed blocks and the blocks with target twist
    below source twist.  ROADMAP item 1 records the one offender: the scalar
    block of M(4,2):omega1 at n = 2, so that check_case destabilizes every
    matrix of the stratum.  A fix of that row, or a new offender, must fail
    this test and update it on purpose.
    """
    offenders = set()
    for case in load_registry():
        for n in case.ns():
            t = case.resolution(n)
            zero = {
                (i, l)
                for i, (a, _) in enumerate(t.source.summands)
                for l, (b, _) in enumerate(t.target.summands)
                if t.is_zeroed(i, l) or b < a
            }
            labels = classify_shapes(t, case.sample_polarization(n))
            for s, destabilizing in labels.items():
                blocks = [
                    (i, l)
                    for i, a in enumerate(s.cols) if a
                    for l, b in enumerate(s.rows) if b
                ]
                if destabilizing and all(blk in zero for blk in blocks):
                    offenders.add((case.id, n))
    assert offenders == {("M(4,2):omega1", 2)}


def _reference_solve(d, facets):
    """Brute force: "unbounded", or (vertices, affine_dim, empty).

    Every d-subset of facets is solved by Cramer's rule in Fractions, and
    the points where every facet holds weakly are the candidate vertices.
    """
    import itertools

    def value(f, x):
        return sum(F(c) * xi for c, xi in zip(f.coeffs, x)) + F(f.const)

    def holds(f, x):
        v = value(f, x)
        return v > 0 if f.strict else v >= 0

    def det(rows):
        if len(rows) == 0:
            return F(1)
        if len(rows) == 1:
            return F(rows[0][0])
        (a, b), (c, e) = rows
        return F(a) * e - F(b) * c

    empty = ((), -1, True)
    if any(not any(f.coeffs) and not holds(f, ()) for f in facets):
        return empty
    normals = [f.coeffs for f in facets if any(f.coeffs)]
    points = set()
    for combo in itertools.combinations(facets, d):
        rows = [f.coeffs for f in combo]
        den = det(rows)
        if not den:
            continue
        rhs = [-F(f.const) for f in combo]
        # Cramer: replace column j by the right-hand side
        x = tuple(
            det([[rhs[i] if k == j else rows[i][k] for k in range(d)] for i in range(d)])
            / den
            for j in range(d)
        )
        if all(value(f, x) >= 0 for f in facets):
            points.add(x)
    if not points:
        full_rank = any(det(rows) for rows in itertools.combinations(normals, d))
        if full_rank:
            return empty  # a nonempty polyhedron with normals of rank d has a vertex
        if d == 2 and normals:
            # all normals are parallel to n: sample the line t * n at every
            # breakpoint, between them and beyond them
            n = normals[0]
            breaks = sorted(
                {-F(f.const) / (F(f.coeffs[0]) * n[0] + F(f.coeffs[1]) * n[1])
                 for f in facets if any(f.coeffs)}
            )
            ts = [breaks[0] - 1, breaks[-1] + 1, *breaks]
            ts += [(s + t) / 2 for s, t in zip(breaks, breaks[1:])]
            if not any(all(holds(f, (t * n[0], t * n[1])) for f in facets) for t in ts):
                return empty
        return "unbounded"
    verts = sorted(points)
    rays = [(1,)] if d == 1 else [(-b, a) for a, b in normals]
    if any(
        all(sum(F(a) * x for a, x in zip(nv, r)) >= 0 for nv in normals)
        for ray in rays
        for r in (ray, tuple(-x for x in ray))
    ):
        # the open part meets every box around a vertex when it is not
        # empty, so it is empty exactly when its part in such a box is
        box = []
        for j in range(d):
            unit = tuple(int(i == j) for i in range(d))
            box.append(Facet(unit, 1 - min(v[j] for v in verts), False))
            box.append(Facet(tuple(-x for x in unit), max(v[j] for v in verts) + 1, False))
        return empty if _reference_solve(d, facets + box) == empty else "unbounded"
    p0 = verts[0]
    collinear = d < 2 or all(
        (p[0] - p0[0]) * (q[1] - p0[1]) == (p[1] - p0[1]) * (q[0] - p0[0])
        for p in verts for q in verts
    )
    dim = 0 if len(verts) == 1 else (1 if collinear else 2)
    if dim == 1:
        verts = [verts[0], verts[-1]]
    # the open part is empty when a strict facet is tight on the whole closure
    if any(f.strict and all(value(f, v) == 0 for v in verts) for f in facets):
        return empty
    return tuple(verts), dim, False


@st.composite
def _halfplane_systems(draw):
    d = draw(st.sampled_from([0, 1, 1, 2, 2, 2]))
    num = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    # one lattice point that "through" and "equality" facets pass through
    anchor = [draw(st.integers(0, 2)) for _ in range(d)]
    facets = []
    if draw(st.booleans()):  # a box, so that many systems are bounded
        for j in range(d):
            unit = tuple(int(i == j) for i in range(d))
            facets.append(Facet(unit, 0, draw(st.booleans())))
            facets.append(Facet(tuple(-x for x in unit), draw(st.integers(1, 3)), False))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(
            st.sampled_from(["random", "duplicate", "parallel", "through", "equality"])
        )
        strict = draw(st.booleans())
        if kind == "duplicate" and facets:
            f = draw(st.sampled_from(facets))
            facets.append(Facet(f.coeffs, f.const, strict))
        elif kind == "parallel" and facets:
            f = draw(st.sampled_from(facets))
            k = draw(st.sampled_from([2, -1, F(1, 2), F(-3, 2)]))
            facets.append(Facet(tuple(k * c for c in f.coeffs), draw(num), strict))
        elif kind == "through":
            # a strict facet through the anchor, often a vertex
            coeffs = tuple(draw(num) for _ in range(d))
            facets.append(Facet(coeffs, -sum(map(operator.mul, coeffs, anchor)), True))
        elif kind == "equality":
            # a weak pair cutting a line through the anchor: segments and points
            coeffs = tuple(draw(num) for _ in range(d))
            const = -sum(map(operator.mul, coeffs, anchor))
            facets.append(Facet(coeffs, const, False))
            facets.append(Facet(tuple(-c for c in coeffs), -const, False))
        else:
            facets.append(Facet(tuple(draw(num) for _ in range(d)), draw(num), strict))
    return d, facets


@settings(max_examples=250, deadline=None)
@given(_halfplane_systems())
def test_solver_matches_brute_force(system):
    """The integer vertex path against Fraction Cramer's rule on every
    d-subset, with Fraction inputs, duplicate and parallel facets, strict
    facets through vertices, and empty and unbounded systems."""
    d, facets = system
    expected = _reference_solve(d, facets)
    try:
        r = solve_halfplanes(("x", "y")[:d], facets)
    except ValueError as exc:
        assert "unbounded" in str(exc) and expected == "unbounded"
        return
    assert (r.vertices, r.affine_dim, r.empty) == expected

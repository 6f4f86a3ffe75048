"""Polarizations, zero-submatrix shapes, and admissible polarization regions.

A polarization assigns a positive rational weight to every summand type of a
morphism type, normalized so the weighted multiplicities sum to 1 on both
sides.  A shape records how many rows and columns of each type a zero
submatrix occupies; each shape yields one linear inequality between row
weights and complementary column weights.  Forbidden shapes contribute strict
inequalities, allowed shapes weak ones, and the admissible region is the
exact rational polytope cut out by the resulting half-planes.

The half-planes stay on primitive integer rows from the shape catalog to
the vertices: each catalog shape becomes one row, made primitive by its gcd,
and the rows are deduplicated once.  A vertex is the point where d facets
are tight, taken as the vector of signed d x d minors of their d x (d+1)
rows (Cramer's rule); Fractions are built only for the vertices that
survive, and ``Facet`` tuples only for the facets a ``Region`` returns.
``solve_halfplanes`` takes Fraction facets and runs the same core after
making each one a primitive integer row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .bundles import MorphismType
from .hilbert import LinearClass, hilbert_of_shape
from .linalg import rank

__all__ = [
    "Polarization",
    "Shape",
    "Facet",
    "Region",
    "enumerate_shapes",
    "slope_shapes",
    "classify_shapes",
    "admissible_region",
    "dual_polarization",
]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _integers(vals: Iterable[int | Fraction], den: int) -> list[int]:
    """den * vals as ints, for a den that every denominator divides."""
    return [x.numerator * (den // x.denominator) for x in vals]


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """An integer row divided by the gcd of its entries (a zero row stays)."""
    g = gcd(*row) or 1
    return tuple(x // g for x in row)


@dataclass(frozen=True)
class Polarization:
    """Positive weights (one per source summand type, one per target type).

    Normalization: sum(m_i * lambda_i) = 1 = sum(n_l * mu_l).
    """

    lambdas: tuple[Fraction, ...]
    mus: tuple[Fraction, ...]

    def __init__(self, lambdas: Iterable, mus: Iterable) -> None:
        object.__setattr__(self, "lambdas", tuple(_frac(x) for x in lambdas))
        object.__setattr__(self, "mus", tuple(_frac(x) for x in mus))

    def validate_for(self, t: MorphismType) -> None:
        if len(self.lambdas) != t.source.ntypes or len(self.mus) != t.target.ntypes:
            raise ValueError("polarization arity does not match the morphism type")
        if any(x <= 0 for x in self.lambdas) or any(x <= 0 for x in self.mus):
            raise ValueError("polarization weights must be strictly positive")
        if sum(m * l for (_, m), l in zip(t.source.summands, self.lambdas)) != 1:
            raise ValueError("source weights are not normalized")
        if sum(n * m_ for (_, n), m_ in zip(t.target.summands, self.mus)) != 1:
            raise ValueError("target weights are not normalized")

    def __str__(self) -> str:
        ls = ",".join(str(x) for x in self.lambdas)
        ms = ",".join(str(x) for x in self.mus)
        return f"({ls};{ms})"


class Shape(NamedTuple):
    """Row counts (per target type) and column counts (per source type) of a
    potential zero submatrix; a plain pair, so it is its own memo key.

    Construction checks nothing: ``validate_for`` checks a shape against a
    morphism type, and ``admissible_region`` calls it on every catalog shape.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def validate_for(self, t: MorphismType) -> None:
        if len(self.rows) != t.target.ntypes or len(self.cols) != t.source.ntypes:
            raise ValueError("shape arity does not match the morphism type")
        if not any(self.rows) or not any(self.cols):
            raise ValueError("a shape needs at least one row and one column")
        if min(self.rows) < 0 or min(self.cols) < 0:
            raise ValueError("shape counts must be nonnegative")
        for b, (_, n) in zip(self.rows, t.target.summands):
            if b > n:
                raise ValueError("shape row count exceeds multiplicity")
        for a, (_, m) in zip(self.cols, t.source.summands):
            if a > m:
                raise ValueError("shape column count exceeds multiplicity")

    def __str__(self) -> str:
        return f"rows{self.rows}xcols{self.cols}"


def _lower_neighbours(shape: Shape) -> list[Shape]:
    """The nonempty shapes one row, or one column, of a single type below
    ``shape``."""
    rows, cols = shape
    out = []
    if sum(rows) > 1:
        out += [Shape(rows[:l] + (b - 1,) + rows[l + 1:], cols) for l, b in enumerate(rows) if b]
    if sum(cols) > 1:
        out += [Shape(rows, cols[:i] + (a - 1,) + cols[i + 1:]) for i, a in enumerate(cols) if a]
    return out


def enumerate_shapes(t: MorphismType) -> list[Shape]:
    """All shapes with nonempty row and column sets, in lexicographic order."""
    row_ranges = [range(n + 1) for _, n in t.target.summands]
    col_ranges = [range(m + 1) for _, m in t.source.summands]
    out = []
    for rows in itertools.product(*row_ranges):
        if not any(rows):
            continue
        for cols in itertools.product(*col_ranges):
            if not any(cols):
                continue
            out.append(Shape(rows, cols))
    return out


def slope_shapes(t: MorphismType, k: LinearClass) -> tuple[tuple[Shape, ...], tuple[Shape, ...]]:
    """The forbidden and allowed shapes of an N x N type whose cokernel has
    Hilbert polynomial r t + chi (the class ``k``), read from the sheaf side.

    A shape of b rows and a columns with b + a = N has a square block whose
    cokernel r' t + chi' (``hilbert_of_shape``) is a subsheaf of the cokernel.
    With 0 < r' < r it is forbidden when chi'/r' < chi/r, and allowed
    otherwise, an equal slope (a wall) included.  A b + a = N + 1 shape forces
    det = 0 and is allowed, unless a lower neighbour is an allowed b + a = N
    shape, whose weak inequality implies its own.
    """
    size = t.source.rank
    # a bound on the shapes read: the region solve is cubic in the facets they
    # give, and the registry's slope rows stay at 220
    bound = prod(m + 1 for _, m in t.source.summands + t.target.summands)
    if t.target.rank != size or bound > 10**4:
        raise ValueError(f"the slope rule needs a square type of at most 10^4 shapes, not {t}")
    forbidden, allowed = [], []
    shapes = enumerate_shapes(t)
    for s in shapes:
        if sum(s.rows) + sum(s.cols) == size:
            r, chi = hilbert_of_shape(t, s)
            if 0 < r < k.r:
                (forbidden if chi * k.r < k.chi * r else allowed).append(s)
    weak = set(allowed)
    allowed += [
        s for s in shapes
        if sum(s.rows) + sum(s.cols) == size + 1 and weak.isdisjoint(_lower_neighbours(s))
    ]
    return tuple(forbidden), tuple(allowed)


def classify_shapes(t: MorphismType, p: Polarization) -> dict[Shape, bool]:
    """Label every shape: True when it destabilizes under ``p``.

    A shape (b, a) destabilizes when its row weights strictly exceed its
    complementary column weights: sum(b_l mu_l) > sum((m_i - a_i) lambda_i).
    This is the one place that inequality is evaluated at a polarization;
    ``admissible_region`` turns the same inequality into facets.
    """
    p.validate_for(t)
    # the weights scaled to integers by one common denominator; the source
    # weights then total that denominator, by the normalization
    scale = lcm(*(x.denominator for x in (*p.lambdas, *p.mus)))
    lambdas = _integers(p.lambdas, scale)
    mus = _integers(p.mus, scale)
    return {
        s: sum(map(mul, s.rows, mus)) > scale - sum(map(mul, s.cols, lambdas))
        for s in enumerate_shapes(t)
    }


def dual_polarization(p: Polarization, t: MorphismType) -> Polarization:
    """Weights of the transposed morphism type: reversed mus become lambdas
    and reversed lambdas become mus."""
    p.validate_for(t)
    return Polarization(tuple(reversed(p.mus)), tuple(reversed(p.lambdas)))


# ---------------------------------------------------------------------------
# Exact half-plane intersection
# ---------------------------------------------------------------------------


class Facet(NamedTuple):
    """Affine inequality sum(coeffs * x) + const >= 0 (or > 0 when strict).

    ``solve_halfplanes`` takes Fraction facets and normalizes them on entry;
    every facet a ``Region`` returns holds a primitive integer row.
    """

    coeffs: tuple[int | Fraction, ...]
    const: int | Fraction
    strict: bool

    def normalized(self) -> "Facet":
        """The same half-space with primitive integer coefficients."""
        vals = (*self.coeffs, self.const)
        *coeffs, const = _primitive(_integers(vals, lcm(*(x.denominator for x in vals))))
        return Facet(tuple(coeffs), const, self.strict)

    def value(self, pt: Sequence[Fraction]) -> Fraction:
        return sum(c * x for c, x in zip(self.coeffs, pt)) + self.const

    def admits(self, pt: Sequence[Fraction]) -> bool:
        v = self.value(pt)
        return v > 0 if self.strict else v >= 0

    def expr(self, names: Sequence[str]) -> str:
        parts = [f"{c}*{n}" for c, n in zip(self.coeffs, names)]
        parts.append(str(self.const))
        return " + ".join(parts)


@dataclass
class Region:
    """Exact polytope (possibly half-open) in the named weight coordinates.

    ``vertices`` lists the vertices of the closure, sorted lexicographically;
    ``affine_dim`` is the dimension of the affine hull (-1 when empty).
    """

    free_vars: tuple[str, ...]
    facets: tuple[Facet, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    affine_dim: int
    empty: bool = False

    def interior_point(self) -> tuple[Fraction, ...]:
        """Barycenter of the closure vertices; satisfies every strict facet
        strictly whenever the region is nonempty."""
        if self.empty or not self.vertices:
            raise ValueError("region has no interior point")
        k = len(self.vertices)
        return tuple(
            sum(v[j] for v in self.vertices) / k
            for j in range(len(self.free_vars))
        )

    def to_json_dict(self) -> dict:
        return {
            "free_vars": list(self.free_vars),
            "facets": [
                {"expr": f.expr(self.free_vars), "strict": f.strict}
                for f in self.facets
            ],
            "vertices": [[str(c) for c in v] for v in self.vertices],
            "affine_dim": self.affine_dim,
        }


Row = tuple[int, ...]  # a primitive integer row (coeffs..., const) of an affine form


def _dedupe(facets: Iterable[tuple[Row, bool]]) -> dict[Row, bool]:
    """Each distinct row with its strictness, in first-seen order; the strict
    copy wins."""
    seen: dict[Row, bool] = {}
    for row, strict in facets:
        seen[row] = strict or seen.get(row, False)
    return seen


def _recession_rays(rows: Sequence[Row], d: int) -> list[Row]:
    """Nonzero directions along which every half-space is unbounded, none
    when the closure is bounded.  With normals of rank d these directions
    form a pointed cone, and each extreme ray spans the kernel of d - 1 of
    the normals: it is +-1 when d = 1 and +-(-b, a) for a nonzero normal
    (a, b) when d = 2.  Every extreme ray is returned, so the sum of the
    returned directions lies inside the cone."""
    normals = [r[:-1] for r in rows]
    rays = [(1,)] if d == 1 else [(-b, a) for a, b in normals if a or b]
    return [
        direction
        for ray in rays
        for direction in (ray, tuple(-x for x in ray))
        if all(sum(map(mul, n, direction)) >= 0 for n in normals)
    ]


def _tight_point(rows: Sequence[Row], d: int) -> Row | None:
    """The point where d integer rows (a, c) of affine forms a . x + c are
    tight, as the primitive integer h = q * (x, 1) with q > 0, or None when
    they do not meet in exactly one point.

    The kernel of a d x (d + 1) matrix of rank d is spanned by its vector of
    signed maximal minors (Cramer's rule); its last entry, the determinant of
    the normals, is nonzero exactly when the tight set is one point.
    """
    if d == 0:
        v = (1,)
    elif d == 1:
        ((a, c),) = rows
        v = (-c, a)
    else:
        (a1, b1, c1), (a2, b2, c2) = rows
        v = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
    if not v[-1]:
        return None
    g = gcd(*v) if v[-1] > 0 else -gcd(*v)
    return tuple(x // g for x in v)


def solve_halfplanes(names: Sequence[str], facets: Iterable[Facet]) -> Region:
    """Intersect half-spaces exactly in 0, 1 or 2 free variables.

    Each facet is normalized to a primitive integer row on entry, and the
    rows go to the one solver core that ``admissible_region`` uses.
    """
    return _solve_rows(tuple(names), _dedupe(
        ((*f.coeffs, f.const), f.strict) for f in map(Facet.normalized, facets)
    ))


def _solve_rows(names: tuple[str, ...], facets: dict[Row, bool]) -> Region:
    """The solver core, on distinct primitive integer rows with their
    strictness.

    The vertices of the closure are the points where d facets are tight and
    every facet holds weakly.  A nonempty closure whose normals have rank d
    has a vertex, so a system without one is empty when its normals have
    rank d.  With two variables and parallel normals it is empty exactly when
    the 1-variable problem along the common normal is; otherwise it is
    unbounded.  A system with a vertex is empty exactly when a strict facet
    vanishes at a point inside its closure, bounded or not, so emptiness is
    decided before unboundedness.  A failing constant facet empties it.
    Every sign test is an integer dot product with a tight point's vector h,
    and ``Facet`` objects are built only for the facets returned.
    """
    d = len(names)
    if d > 2:
        raise ValueError("only 0, 1 or 2 free variables are supported")
    rows = list(facets)

    def region(kept: Iterable[Row], verts=(), dim: int = -1) -> Region:
        # dim -1 is the empty region, returned with every row
        facet_tuples = tuple(Facet(r[:-1], r[-1], facets[r]) for r in kept)
        return Region(names, facet_tuples, tuple(verts), dim, empty=dim < 0)

    if any(not any(r[:-1]) and (r[-1] <= 0 if facets[r] else r[-1] < 0) for r in rows):
        return region(rows)
    tight = {_tight_point(combo, d) for combo in itertools.combinations(rows, d)}
    tight.discard(None)
    hs = [h for h in tight if all(sum(map(mul, r, h)) >= 0 for r in rows)]
    if not hs:
        normals = [r[:-1] for r in rows if any(r[:-1])]
        if rank(normals) == d:
            return region(rows)
        if normals and d == 2:
            # every normal is an integer multiple of one primitive n, so the
            # system is the 1-variable one in t = n . x, on primitive rows,
            # and empty exactly when that is
            n = _primitive(normals[0])
            j = 0 if n[0] else 1
            try:
                if _solve_rows(("t",), {(r[j] // n[j], r[-1]): s for r, s in facets.items()}).empty:
                    return region(rows)
            except ValueError:
                pass
        raise ValueError("unbounded region; the constraint system is incomplete")
    rays = _recession_rays(rows, d) if d else []
    # strictness check at a point inside the closure: the barycenter of the
    # vertices, as the positive multiple sum(h * q / h[-1]) of (center, 1)
    # with q = lcm(h[-1]), moved along every recession ray
    q = lcm(*(h[-1] for h in hs))
    center = [sum(h[j] * (q // h[-1]) for h in hs) for j in range(d + 1)]
    for ray in rays:
        for j, x in enumerate(ray):
            center[j] += x
    if any(facets[r] and sum(map(mul, r, center)) <= 0 for r in rows):
        return region(rows)
    if rays:
        raise ValueError("unbounded region; the constraint system is incomplete")
    # each h is a vertex, as d independent facets are tight there; the
    # homogeneous vectors span one more dimension than the vertices
    dim = rank(hs) - 1
    # drop half-spaces whose boundary misses the closure; rows are distinct,
    # so sorting them sorts the facets by (coeffs, const)
    active = sorted(r for r in rows if any(not sum(map(mul, r, h)) for h in hs))
    verts = sorted(tuple(Fraction(x, h[-1]) for x in h[:-1]) for h in hs)
    return region(active, verts, dim)


# ---------------------------------------------------------------------------
# From shape catalogs to regions
# ---------------------------------------------------------------------------

Form = tuple[tuple[int, ...], int]  # (coeffs, const)


class _AffineSpace:
    """Affine coordinates for the normalized weights of a morphism type.

    The weights are named l1, l2, ... (source types) and m1, m2, ... (target
    types).  On each side the last weight that ``coords`` does not name is
    solved out of the normalization (the last weight when ``coords`` names
    them all); the remaining weights are the free variables.  Each weight is
    kept as the integer affine form of ``scale`` times it, with scale = lcm
    of the two solved-out multiplicities, so every facet built from these
    forms has integer coefficients.
    """

    def __init__(self, t: MorphismType, coords: Sequence[str] = ()):
        sides = []  # (prefix, multiplicities, index of the solved-out weight)
        for prefix, mults in (("l", t.source.mults()), ("m", t.target.mults())):
            unnamed = [i for i in range(len(mults)) if f"{prefix}{i + 1}" not in coords]
            sides.append((prefix, mults, unnamed[-1] if unnamed else len(mults) - 1))
        self.var_names = tuple(
            f"{prefix}{i + 1}" for prefix, mults, s in sides for i in range(len(mults)) if i != s
        )
        self.dim = len(self.var_names)
        self.scale = lcm(*(mults[s] for _, mults, s in sides))
        free = iter(range(self.dim))

        def forms(mults, s: int) -> list[Form]:
            # free weights x_i for i != s, and x_s = (1 - sum(mults * x)) /
            # mults[s] from the normalization
            k = self.scale // mults[s]
            out, solved = [], [0] * self.dim
            for i, m in enumerate(mults):
                if i != s:
                    j = next(free)
                    out.append((tuple(self.scale * (j == v) for v in range(self.dim)), 0))
                    solved[j] = -k * m
            out.insert(s, (tuple(solved), k))
            return out

        self.lambda_forms, self.mu_forms = (forms(mults, s) for _, mults, s in sides)

    def polarization_at(self, pt: Sequence[Fraction]) -> Polarization:
        def weight(form: Form) -> Fraction:
            vec, k = form
            return Fraction(sum(map(mul, vec, pt)) + k, self.scale)

        return Polarization(map(weight, self.lambda_forms), map(weight, self.mu_forms))


def admissible_region(
    t: MorphismType,
    forbidden: Iterable[Shape],
    allowed: Iterable[Shape],
    *,
    extra_facets: Iterable[tuple[tuple[int, ...], int, bool]] = (),
    clip_positivity: bool = True,
    coords: Sequence[str] = (),
) -> Region:
    """Polytope of polarizations separating forbidden from allowed shapes.

    Each forbidden shape contributes the strict inequality
    ``sum_M mu < sum_{J^c} lambda``; each allowed shape the weak one
    ``sum_M mu >= sum_{J^c} lambda``.  Positivity of all weights is added
    unless ``clip_positivity`` is off.  ``extra_facets`` are raw total-weight
    bounds ((mu row counts), bound numerator over 1, strict) of the form
    ``sum_M mu < bound``.  ``coords`` names the weights the region is solved
    in (``_AffineSpace``); when the type has free weights they must be
    exactly those, and when it has none the nonempty region is the single
    point of the named weights, which the normalization pins, with no facets.
    """
    coords = tuple(coords)
    space = _AffineSpace(t, coords)
    if space.dim and coords not in ((), space.var_names):
        raise ValueError(f"coords {coords} are not the free weights {space.var_names} of {t}")
    if not space.dim and not set(coords) <= {"l1", "m1"}:
        raise ValueError(f"coords {coords} are not weights of {t}")

    def facet(const, lambda_ws, mu_ws) -> Row:
        # scale * (const + sum(w * weight)): the same half-space, as a
        # primitive integer row
        vec, const = [0] * space.dim, space.scale * const
        for w, (coeffs, c) in (*zip(lambda_ws, space.lambda_forms), *zip(mu_ws, space.mu_forms)):
            if w:
                for j, x in enumerate(coeffs):
                    vec[j] += w * x
                const += w * c
        return _primitive((*vec, const))

    def shape_facet(s: Shape, strict: bool) -> tuple[Row, bool]:
        # lhs = sum(b_l * mu_l) over the rows, rhs = sum((m_i - a_i) * lambda_i)
        # over the complementary columns
        s.validate_for(t)
        rhs = [m - a for a, (_, m) in zip(s.cols, t.source.summands)]
        if strict:  # forbidden: rhs - lhs > 0
            return facet(0, rhs, [-b for b in s.rows]), True
        return facet(0, [-c for c in rhs], s.rows), False  # allowed: lhs - rhs >= 0

    facets = [shape_facet(s, True) for s in forbidden]
    facets += [shape_facet(s, False) for s in allowed]
    for rows, bound, strict in extra_facets:  # bound - sum(rows * mu) REL 0
        facets.append((facet(bound, (), [-b for b in rows]), strict))
    if clip_positivity:
        facets += [(_primitive((*vec, k)), True) for vec, k in space.lambda_forms + space.mu_forms]

    region = _solve_rows(space.var_names, _dedupe(facets))
    if space.dim or not coords or region.empty:
        return region
    # one type on each side: the normalization pins l1 and m1
    p = space.polarization_at(())
    pinned = {"l1": p.lambdas[0], "m1": p.mus[0]}
    return Region(coords, (), (tuple(pinned[x] for x in coords),), 0)

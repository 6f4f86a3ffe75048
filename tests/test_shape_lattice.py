"""The destabilizer search against a brute-force shape oracle, and the
shape-lattice pruning pinned on the registry and acceptance inputs.

A zero block of shape (b, a) contains one of every smaller shape, so the
search closes a shape once a lower one is proven absent.  The oracle here
enumerates row and column subspaces spanned by vectors with entries in
[-2, 2] on tiny types and checks that no shape the search reports absent has
a block among them.
"""

import itertools
import random
from fractions import Fraction as F
from math import gcd

from sheafmod.bundles import MorphismType
from sheafmod.polymatrix import HomogeneousPoly, PolyMatrix, X, Y, Z, _positions
from sheafmod.regions import Polarization, Shape, classify_shapes, enumerate_shapes
from sheafmod.registry import load_registry
from sheafmod.stability import (
    VerdictKind,
    Witness,
    check_case,
    search_destabilizer,
    verify_witness,
)
from conftest import random_poly

zero = HomogeneousPoly.zero()

# tiny types: at most 3 rows and 3 columns, linear or quadratic entries
TINY_TYPES = [
    MorphismType.make([(-1, 3)], [(0, 3)]),
    MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)]),
    MorphismType.make([(-1, 2)], [(0, 1), (1, 2)]),
    MorphismType.make([(-2, 1), (-1, 1)], [(0, 2)]),
    MorphismType.make([(-1, 2), (0, 1)], [(1, 3)]),
    MorphismType.make([(-1, 3)], [(0, 1), (1, 1)]),
]


def _rank(vectors) -> int:
    """Rank by Fraction elimination, independent of sheafmod.linalg."""
    rows = [[F(x) for x in v] for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _grid_lines(n: int) -> list[tuple[int, ...]]:
    """One vector per line through the origin that meets [-2, 2]^n outside
    0: the primitive ones whose first nonzero entry is positive."""
    out = []
    for v in itertools.product(range(-2, 3), repeat=n):
        lead = next((x for x in v if x), 0)
        if lead > 0 and not all(x % 2 == 0 for x in v):
            out.append(v)
    return out


class BruteForce:
    """Zero blocks of a matrix whose row and column subspaces are spanned by
    grid vectors, found by enumeration.  The zero condition is bilinear, so a
    row subspace and a column subspace span a block exactly when every
    spanning row vector kills every spanning column vector."""

    def __init__(self, m: PolyMatrix):
        self.rgroups = _positions(m.type.target)
        self.cgroups = _positions(m.type.source)
        self.rlines = [_grid_lines(len(g)) for g in self.rgroups]
        self.clines = [_grid_lines(len(g)) for g in self.cgroups]
        # kills[l][i][u] has bit j set when row vector u of type l times the
        # matrix times column vector j of type i is the zero form
        self.kills = []
        for g, us in zip(self.rgroups, self.rlines):
            per_src = []
            for h, ws in zip(self.cgroups, self.clines):
                blocks = [[dict(m.entries[r][c].terms) for c in h] for r in g]
                monos = {t for row in blocks for d in row for t in d}
                masks = []
                for u in us:
                    # per monomial, the row combination's coefficient per column
                    combined = [
                        [sum(x * blocks[k][c].get(t, 0) for k, x in enumerate(u)) for c in range(len(h))]
                        for t in monos
                    ]
                    masks.append(sum(
                        1 << j
                        for j, w in enumerate(ws)
                        if all(sum(a * b for a, b in zip(row, w)) == 0 for row in combined)
                    ))
                per_src.append(masks)
            self.kills.append(per_src)
        self._ranks: dict[tuple[int, int], int] = {}
        self._span_memo: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def _spans(self, l: int, b: int) -> list[tuple[int, ...]]:
        """Index tuples of grid lines of target type l, one per distinct
        b-dimensional span (types have at most three rows)."""
        lines = self.rlines[l]
        n = len(lines[0])
        if b == 0:
            return [()]
        if b == n:
            return [tuple(lines.index(tuple(int(i == j) for i in range(n))) for j in range(n))]
        if b == 1:
            return [(k,) for k in range(len(lines))]
        # a plane in 3-space is fixed by its normal, the primitive cross product
        planes: dict[tuple[int, ...], tuple[int, int]] = {}
        for j, k in itertools.combinations(range(len(lines)), 2):
            (a1, a2, a3), (b1, b2, b3) = lines[j], lines[k]
            normal = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
            g = gcd(*normal)
            if g:
                sign = 1 if next(x for x in normal if x) > 0 else -1
                planes.setdefault(tuple(sign * x // g for x in normal), (j, k))
        return list(planes.values())

    def _rank_of(self, i: int, mask: int) -> int:
        if (i, mask) not in self._ranks:
            vecs = [w for j, w in enumerate(self.clines[i]) if mask >> j & 1]
            self._ranks[i, mask] = _rank(vecs) if vecs else 0
        return self._ranks[i, mask]

    def has_block(self, shape: Shape) -> bool:
        spans = []
        for l, b in enumerate(shape.rows):
            if (l, b) not in self._span_memo:
                self._span_memo[l, b] = self._spans(l, b)
            spans.append(self._span_memo[l, b])
        for choice in itertools.product(*spans):
            ok = True
            for i, a in enumerate(shape.cols):
                if a == 0:
                    continue
                mask = (1 << len(self.clines[i])) - 1
                for l, idx in enumerate(choice):
                    for k in idx:
                        mask &= self.kills[l][i][k]
                if self._rank_of(i, mask) < a:
                    ok = False
                    break
            if ok:
                return True
        return False


def _own_passes_decide(t: MorphismType, s: Shape) -> bool:
    """Whether the shape's own exact passes decide it, without a lower shape."""
    rows = [m for _, m in t.target.summands]
    cols = [m for _, m in t.source.summands]
    return (
        all(b in (0, n) for b, n in zip(s.rows, rows))
        or all(a in (0, n) for a, n in zip(s.cols, cols))
        or (sum(s.cols) == 1 and cols[s.cols.index(1)] <= 2)
        or (sum(s.rows) == 1 and rows[s.rows.index(1)] <= 2)
    )


def _random_polarization(rnd: random.Random, t: MorphismType) -> Polarization:
    def weights(summands):
        xs = [rnd.randint(1, 6) for _ in summands]
        total = sum(m * x for (_, m), x in zip(summands, xs))
        return [F(x, total) for x in xs]

    return Polarization(weights(t.source.summands), weights(t.target.summands))


def _elementary(rnd: random.Random, groups, size: int) -> list[list[int]]:
    """A product of two unimodular within-type shears, entries in [-2, 2]."""
    out = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(2):
        g = rnd.choice([g for g in groups if len(g) > 1] or [None])
        if g is None:
            break
        j, k = rnd.sample(g, 2)
        s = rnd.choice((-1, 1))
        out = [
            [out[r][c] + s * (r == j) * out[k][c] for c in range(size)]
            for r in range(size)
        ]
    return out


def _matrix(
    rnd: random.Random, t: MorphismType, plant: Shape | None, shears=(True, True)
) -> PolyMatrix:
    """Random small-integer entries, some zero, and zero on every zeroed
    block (which draws nothing); with a literal zero block of the planted
    shape hidden by random within-type row and column shears, or by those of
    one side only."""
    rgroups, cgroups = _positions(t.target), _positions(t.source)
    degs = [(l, e) for l, (e, n) in enumerate(t.target.summands) for _ in range(n)]
    srcs = [(i, d) for i, (d, n) in enumerate(t.source.summands) for _ in range(n)]
    grid = [
        [
            zero if t.is_zeroed(i, l)
            else random_poly(rnd, e - d, -2, 2) if rnd.random() < 0.8 else zero
            for i, d in srcs
        ]
        for l, e in degs
    ]
    if plant is None:
        return PolyMatrix(t, grid)
    rows = [r for g, b in zip(rgroups, plant.rows) for r in rnd.sample(g, b)]
    cols = [c for g, a in zip(cgroups, plant.cols) for c in rnd.sample(g, a)]
    for r in rows:
        for c in cols:
            grid[r][c] = zero
    G = _elementary(rnd, rgroups if shears[0] else [], len(degs))
    H = _elementary(rnd, cgroups if shears[1] else [], len(srcs))
    mixed = [
        [
            sum(
                (grid[i][j].scale(G[r][i] * H[j][c]) for i in range(len(degs)) for j in range(len(srcs))
                 if G[r][i] and H[j][c]),
                zero,
            )
            for c in range(len(srcs))
        ]
        for r in range(len(degs))
    ]
    return PolyMatrix(t, mixed)


def test_no_shape_reported_absent_has_a_grid_block():
    rnd = random.Random(6060)
    checked = pruned = 0
    for t in TINY_TYPES:
        for k in range(25):
            p = _random_polarization(rnd, t)
            shapes = list(classify_shapes(t, p))
            plant = rnd.choice(shapes) if k % 3 == 0 else None
            m = _matrix(rnd, t, plant)
            v = search_destabilizer(m, p, 20, seed=k)
            if v.witness is not None:
                assert verify_witness(m, v.witness)
            if v.kind is VerdictKind.DESTABILIZED and v.budget_used == 0:
                continue  # an exact witness ends the search before every shape is seen
            oracle = BruteForce(m)
            labels = classify_shapes(t, p)
            for s in shapes:
                if labels[s] and s not in v.undecided:
                    assert not oracle.has_block(s), (t, p, s, m.entries)
                    checked += 1
                    pruned += not _own_passes_decide(t, s)
    # the sample reaches shapes that only a lower shape can close
    assert checked > 300 and pruned > 20


def test_planted_destabilizing_blocks_are_never_certified():
    rnd = random.Random(7070)
    for t in TINY_TYPES:
        for k in range(8):
            p = _random_polarization(rnd, t)
            labels = classify_shapes(t, p)
            plant = rnd.choice([s for s, d in labels.items() if d])
            m = _matrix(rnd, t, plant)
            v = search_destabilizer(m, p, 0)
            assert v.kind is not VerdictKind.CERTIFIED_SEMISTABLE, (t, p, plant)
            if v.witness is not None:
                assert verify_witness(m, v.witness)
            else:
                assert v.kind is VerdictKind.UNDETERMINED or v.note


def _zeroed_registry_types() -> list[tuple[str, int, MorphismType, Polarization]]:
    """(case id, n, resolution type, sample polarization) of every registry
    resolution type with a zeroed block, at the first two n of its case."""
    return [
        (case.id, n, case.resolution(n), case.sample_polarization(n))
        for case in load_registry()
        for n in case.ns()[:2]
        if case.resolution(n).zeroed
    ]


def test_planted_members_of_zeroed_registry_types_are_destabilized():
    # _matrix draws zero on a zeroed block (PolyMatrix refuses anything
    # else there), so the registry types with one, M(4,2):omega1 at n = 2
    # among them, get members with a hidden block too
    rnd = random.Random(7171)
    drawn = []
    for case_id, n, t, p in _zeroed_registry_types():
        plant = rnd.choice([s for s, d in classify_shapes(t, p).items() if d])
        m = _matrix(rnd, t, plant)
        v = search_destabilizer(m, p, 20, seed=n)
        assert v.kind is VerdictKind.DESTABILIZED, (case_id, n, plant)
        assert verify_witness(m, v.witness)
        drawn.append((case_id, n))
    assert ("M(4,2):omega1", 2) in drawn and len(drawn) == 12


def test_brute_force_oracle_finds_hidden_blocks():
    # the oracle itself must see a block that shears hide
    rnd = random.Random(8080)
    t = TINY_TYPES[1]
    for shape in (Shape((2,), (1, 1)), Shape((1,), (0, 2)), Shape((3,), (1, 0))):
        m = _matrix(rnd, t, shape)
        assert BruteForce(m).has_block(shape)


def test_three_by_three_acceptance_matrix_is_certified_exactly():
    # its one open shape rows(2,)xcols(1,1) lies above rows(2,)xcols(1,0),
    # which has no zero block
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    m = PolyMatrix(t, [[zero, X, Y], [X * Y, Z, zero], [-(X * X), zero, Z]])
    p = Polarization([F(1, 6), F(5, 12)], [F(1, 3)])
    v = search_destabilizer(m, p, 0)
    assert (v.kind, v.budget_used, v.undecided) == (VerdictKind.CERTIFIED_SEMISTABLE, 0, ())
    assert search_destabilizer(m, p, 10**4, seed=11) == v


# verdicts at budget 0 on one random_verdicts.py matrix per registry case at
# its smallest n (seed 0); the first four were decided before the lattice
# pruning, the other six are decided by it
DECIDED_REGISTRY_VERDICTS = {
    "M(n+1,n):h0m1=0": VerdictKind.CERTIFIED_SEMISTABLE,
    "M(4,2):omega0": VerdictKind.CERTIFIED_SEMISTABLE,
    "M(4,2):omega1": VerdictKind.DESTABILIZED,
    "M(4,1):h1=1": VerdictKind.CERTIFIED_SEMISTABLE,
    "M(n+2,n):omega0": VerdictKind.CERTIFIED_SEMISTABLE,
    "M(n+2,n):omega1": VerdictKind.CERTIFIED_SEMISTABLE,
    "M(n+3,n):omega1": VerdictKind.CERTIFIED_SEMISTABLE,
    "M(6,3):omega1": VerdictKind.CERTIFIED_SEMISTABLE,
    "M(6,3):omega2": VerdictKind.CERTIFIED_SEMISTABLE,
    "M(5,2):h1=1": VerdictKind.CERTIFIED_SEMISTABLE,
}
FOUR_TWO_OMEGA1_WITNESS = Witness(
    Shape((1, 0), (0, 1)), ((F(1), F(0), F(0)),), ((F(0), F(0), F(1)),)
)


def _random_verdicts_matrix(rnd: random.Random, t: MorphismType) -> PolyMatrix:
    """The matrix scripts/random_verdicts.py draws for the type."""
    rows = []
    for l, (e, nl) in enumerate(t.target.summands):
        for _ in range(nl):
            rows.append([
                zero if t.is_zeroed(i, l) or e < d else random_poly(rnd, e - d, -2, 2)
                for i, (d, mi) in enumerate(t.source.summands)
                for _ in range(mi)
            ])
    return PolyMatrix(t, rows)


def test_registry_verdicts_keep_their_decisions():
    seen = set()
    for case in load_registry():
        n = case.ns()[0]
        m = _random_verdicts_matrix(random.Random(0), case.resolution(n))
        v = check_case(m, case, n, budget=0).verdict
        if v.witness is not None:
            assert verify_witness(m, v.witness)
        if case.id in DECIDED_REGISTRY_VERDICTS:
            seen.add(case.id)
            assert (v.kind, v.budget_used) == (DECIDED_REGISTRY_VERDICTS[case.id], 0), case.id
            if v.kind is VerdictKind.DESTABILIZED:
                assert v.witness == FOUR_TWO_OMEGA1_WITNESS
    assert seen == set(DECIDED_REGISTRY_VERDICTS)


def _within_type_invertible(rnd: random.Random, groups, size: int) -> list[list[F]]:
    """A block-diagonal constant transform, one random invertible block with
    entries in [-2, 2] per type."""
    from sheafmod.linalg import rank

    out = [[F(0)] * size for _ in range(size)]
    for g in groups:
        while True:
            block = [[rnd.randint(-2, 2) for _ in g] for _ in g]
            if rank(block) == len(g):
                break
        for bi, r in enumerate(g):
            for bj, c in enumerate(g):
                out[r][c] = F(block[bi][bj])
    return out


def test_decided_verdicts_agree_under_constant_within_type_transforms():
    # semistability is a property of the orbit under constant within-type
    # changes of basis, so phi and g.phi must never get opposite decisions
    from sheafmod.stability import apply_transforms

    rnd = random.Random(4)
    compared = decided = 0
    for case in load_registry():
        for n in case.ns()[:2]:
            t = case.resolution(n)
            p = case.sample_polarization(n)
            for k in range(3):
                m = _random_verdicts_matrix(rnd, t)
                G = _within_type_invertible(rnd, _positions(t.target), m.nrows)
                H = _within_type_invertible(rnd, _positions(t.source), m.ncols)
                gm = apply_transforms(m, G, H)
                for budget in (0, 20):
                    v, gv = (search_destabilizer(x, p, budget, seed=k) for x in (m, gm))
                    compared += 1
                    if VerdictKind.UNDETERMINED not in (v.kind, gv.kind):
                        assert v.kind is gv.kind, (case.id, n, m.entries, G, H, budget)
                        decided += 1
    assert compared == 144 and decided > 60, (compared, decided)


def test_a_block_over_the_closure_closes_nothing(monkeypatch):
    # rows(1,)xcols(0,2) has a block only over the closure: the transposed
    # pencil finds the gcd X^2 + Y^2, which has no rational root.  It is not
    # destabilizing at p, but it is a test of rows(2,)xcols(0,2), which is;
    # as a lower shape, its note must prove nothing absent
    import sheafmod.stability as stability
    from sheafmod.polymatrix import parse_matrix_file

    m = parse_matrix_file(
        "type: src=(-2)x1,(-1)x3 tgt=(0)x2\nX^2 | X | Y | 0\nY^2 | -Y | X | 0\n"
    )
    p = Polarization([F(2, 5), F(1, 5)], [F(1, 2)])
    t, s = Shape((1,), (0, 2)), Shape((2,), (0, 2))
    labels = classify_shapes(m.type, p)
    assert labels[s] and not labels[t]
    passes = stability._ExactPasses(m)
    assert (t, 1, True) in stability._tests(passes.view, s)
    w, decided, note = passes.run(t, 1, True)
    assert (w, decided) == (None, True) and note
    # with that pencil as the only test of every shape, every shape stays open
    monkeypatch.setattr(stability, "_tests", lambda view, shape: [(t, 1, True)])
    v = search_destabilizer(m, p, 0)
    assert v.kind is VerdictKind.UNDETERMINED
    assert set(v.undecided) == {x for x, d in labels.items() if d}


# The row sweep is monotone in the shape: when it runs to completion on a
# lower neighbour T of S (S less one row, or one column, of a single type) and
# accepts nothing, it accepts nothing on S either.

WIDE_TYPE = MorphismType.make([(-2, 2), (-1, 3)], [(-1, 2), (0, 3)])


def test_a_pass_that_fails_below_a_shape_fails_on_it():
    from sheafmod.regions import _lower_neighbours
    from sheafmod.stability import _over_cap, _row_subset_sweep, _views

    rnd = random.Random(9090)
    failed_below = found = 0
    for t in [*TINY_TYPES, WIDE_TYPE]:
        for k in range(6):
            plant = rnd.choice(enumerate_shapes(t)) if k % 2 else None
            m = _matrix(rnd, t, plant)
            for view, side_type in zip(_views(m), (t, t.dual())):
                shapes = enumerate_shapes(side_type)
                sweep = {(s.rows, s.cols): _row_subset_sweep(view, s)[0] for s in shapes}
                for s in shapes:
                    for below in _lower_neighbours(s):
                        if sweep[below] is None and not _over_cap(view.row_groups, below[0]):
                            assert sweep[s.rows, s.cols] is None, (t, s, below, m.entries)
                            failed_below += 1
                found += sum(w is not None for w in sweep.values())
    # both sides of the lemma occur often
    assert failed_below > 3000 and found > 400


def test_the_upward_rule_changes_no_verdict(monkeypatch):
    # closing a shape above one proven absent runs fewer exact tests and
    # changes no verdict; witnesses hidden on one side only are found by one
    # sweep and missed by the other, so the inputs exercise both sides
    import sheafmod.stability as stability

    rnd = random.Random(9292)
    inputs = []
    for t in [*TINY_TYPES, WIDE_TYPE]:
        for k in range(12):
            p = _random_polarization(rnd, t)
            plant = rnd.choice([s for s, d in classify_shapes(t, p).items() if d]) if k % 4 else None
            shears = [(True, True), (True, False), (False, True)][k % 3]
            inputs.append((_matrix(rnd, t, plant, shears), p, k))
    runs = []
    run = stability._ExactPasses.run

    def counting(self, shape, k, pencil):
        runs.append(shape)
        return run(self, shape, k, pencil)

    monkeypatch.setattr(stability._ExactPasses, "run", counting)
    with_rule = [search_destabilizer(m, p, 20, seed=k) for m, p, k in inputs]
    runs_with_rule = len(runs)
    runs.clear()
    monkeypatch.setattr(stability, "_lower_neighbours", lambda shape: [])
    without = [search_destabilizer(m, p, 20, seed=k) for m, p, k in inputs]
    assert with_rule == without
    assert runs_with_rule < len(runs)
    assert sum(v.kind is VerdictKind.DESTABILIZED for v in without) > 20


def test_a_recorded_failure_skips_only_its_own_pass():
    # rows(1,)xcols(2,) has no literal row with a two-dimensional column
    # kernel (side 0), but row 0 + row 1 vanishes on columns 0 and 1, which
    # the transposed sweep (side 1) finds
    from sheafmod.polymatrix import parse_matrix_file
    from sheafmod.stability import _ExactPasses

    m = parse_matrix_file("type: src=(-1)x3 tgt=(0)x2\nX | Y | Z\n-X | -Y | Z\n")
    passes = _ExactPasses(m)
    s = Shape((1,), (2,))
    w, _, note = passes.run(s, 1, False)
    assert w is not None and w.shape == s and verify_witness(m, w) and not note
    assert passes.run(s, 0, False) == (None, False, "")


def _types_of(vec, groups) -> list[int]:
    """The types a vector has a nonzero entry on."""
    return [t for t, g in enumerate(groups) if any(vec[p] for p in g)]


def test_witnesses_are_combinations_that_round_trip_through_the_transpose():
    """Every witness holds one combination per block row and column, each on
    one summand type and as many on each type as the shape names; swapped to
    the transpose, and read in the positions of ``transpose_dual``, it is a
    witness there, and swapping it back gives it again.  The witnesses come
    from verdicts, from the row sweep on either side of every shape, and from
    random trials on a planted shape."""
    from sheafmod.polymatrix import _dual_order, transpose_dual
    from sheafmod.stability import (
        _dual_shape,
        _pull_back_transpose_witness,
        _row_subset_sweep,
        _TrialPlan,
        _views,
        _Weights,
    )
    from test_stability import _CountingRandom, _words_used

    rnd = random.Random(9393)
    found = {"verdict": [], "sweep": [], "trial": []}

    def sweeps(m):
        view, tview = _views(m)
        for s in enumerate_shapes(m.type):
            found["sweep"].append((m, _row_subset_sweep(view, s)[0]))
            wt = _row_subset_sweep(tview, _dual_shape(s))[0]
            found["sweep"].append((m, wt and _pull_back_transpose_witness(wt)))

    for case in load_registry():
        for n in case.ns()[:2]:
            m = _random_verdicts_matrix(rnd, case.resolution(n))
            found["verdict"].append((m, check_case(m, case, n, budget=20).verdict.witness))
            sweeps(m)
    for t in [*TINY_TYPES, WIDE_TYPE]:
        for k in range(4):
            p = _random_polarization(rnd, t)
            plant = rnd.choice([s for s, d in classify_shapes(t, p).items() if d])
            m = _matrix(rnd, t, plant)
            found["verdict"].append((m, search_destabilizer(m, p, 20, seed=k).witness))
            sweeps(m)
            plan = _TrialPlan(_views(m)[0], plant)
            # the trials draw from a copy of rnd, which then moves on by the
            # words they used, as if they had drawn from rnd itself
            copy = _CountingRandom()
            copy.setstate(rnd.getstate())
            weights = _Weights(copy)
            for _ in range(30):
                w = plan.trial(weights)
                # the search keeps a trial's witness only once it verifies
                found["trial"].append((m, w if w and verify_witness(m, w) else None))
            rnd.getrandbits(32 * _words_used(weights, copy.bits // 32))
    for m, w in (mw for pairs in found.values() for mw in pairs if mw[1] is not None):
        for combos, groups, counts in (
            (w.row_combos, _positions(m.type.target), w.shape.rows),
            (w.col_combos, _positions(m.type.source), w.shape.cols),
        ):
            types = [_types_of(v, groups) for v in combos]
            assert all(len(ts) == 1 for ts in types), w
            assert [sum(ts == [l] for ts in types) for l in range(len(counts))] == list(counts)
        assert verify_witness(m, w)
        wt = _pull_back_transpose_witness(w)
        rows, cols = _dual_order(m.type.source), _dual_order(m.type.target)
        on_dual = Witness(
            wt.shape,
            tuple(tuple(v[p] for p in rows) for v in wt.row_combos),
            tuple(tuple(v[p] for p in cols) for v in wt.col_combos),
        )
        assert verify_witness(transpose_dual(m), on_dual)
        assert _pull_back_transpose_witness(wt) == w
    count = {k: sum(w is not None for _, w in pairs) for k, pairs in found.items()}
    assert count["verdict"] > 20 and count["sweep"] > 500 and count["trial"] > 100, count

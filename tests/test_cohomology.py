import random

import pytest

from sheafmod.bundles import BundleSum, MorphismType
from sheafmod.cohomology import (
    CohomologyTable,
    beilinson_terms,
    complete_table,
    serre_dual_table,
)
from sheafmod.hilbert import LinearClass, hilbert_class
from sheafmod.registry import load_registry

from conftest import cohomology_table


def test_complete_table_examples():
    t = complete_table(LinearClass(4, 3), {"h0m1": 0, "h1": 0, "h1om": 0})
    assert (t.h1m1, t.h0, t.h0om) == (1, 3, 2)
    assert t.h0om - t.h1om == 2
    t = complete_table(LinearClass(6, 4), {"h0m1": 0, "h1": 0, "h1om": 0})
    assert t.h0om == 2
    t = complete_table(LinearClass(4, 2), {"h0m1": 0, "h1": 0, "h1om": 1})
    assert t.h0om == 1


def test_complete_table_rejections():
    with pytest.raises(ValueError, match="underdetermined"):
        complete_table(LinearClass(4, 3), {"h0m1": 0, "h1": 0})
    with pytest.raises(ValueError, match="inconsistent"):
        complete_table(LinearClass(4, 3), {"h0": 5, "h1": 0, "h0m1": 0, "h1om": 0})
    with pytest.raises(ValueError, match="negative"):
        complete_table(LinearClass(4, 3), {"h0": 0, "h0m1": 0, "h1om": 0})


def test_beilinson_terms_examples():
    t = CohomologyTable(LinearClass(4, 3), 0, 1, 3, 0, 2, 0)
    c_m2, c_m1, c_0, c_1 = beilinson_terms(t)
    assert c_m2 is None and c_1 is None
    assert c_m1 == BundleSum([(-2, 1), (-1, 2)])
    assert c_0 == BundleSum([(0, 3)])
    # a class with h1(F) = 1 keeps a trivial-bundle term on the right
    t = complete_table(LinearClass(6, 3), {"h0m1": 0, "h1": 1, "h0om": 3})
    terms = beilinson_terms(t)
    assert terms[3] == BundleSum([(0, 1)])


def _signed(b, sign):
    return [] if b is None else [(d, sign * m) for d, m in b.summands]


def test_euler_consistency_all_registry_cases():
    # P(C^0) - P(C^-1) + P(C^-2) - P(C^1) = r*t + chi for every registry row
    for case in load_registry():
        for n in case.ns():
            c_m2, c_m1, c_0, c_1 = beilinson_terms(cohomology_table(case, n))
            total = hilbert_class(
                _signed(c_0, 1) + _signed(c_m1, -1) + _signed(c_m2, 1) + _signed(c_1, -1)
            )
            k = case.moduli(n)
            assert total == (0, k.r, k.chi)


def test_serre_dual_examples():
    t41 = complete_table(LinearClass(4, 1), {"h0m1": 0, "h1": 1, "h0om": 1})
    d = serre_dual_table(t41)
    assert d.klass == LinearClass(4, 3)
    assert d.h1 == 0 and d.h0m1 == 1
    t64 = complete_table(LinearClass(6, 4), {"h0m1": 0, "h1": 0, "h1om": 0})
    d = serre_dual_table(t64)
    assert d.klass == LinearClass(6, 2)
    assert d.h0 == t64.h1m1


def random_table(rnd: random.Random) -> CohomologyTable:
    r = rnd.randint(1, 9)
    chi = rnd.randint(0, r)
    h1m1 = rnd.randint(0, 3)
    h1 = rnd.randint(0, 3)
    h1om = rnd.randint(0, 3)
    return CohomologyTable(
        LinearClass(r, chi),
        h0m1=chi - r + h1m1 if chi - r + h1m1 >= 0 else h1m1 + r - chi,
        h1m1=h1m1 if chi - r + h1m1 >= 0 else h1m1 + 2 * (r - chi),
        h0=chi + h1,
        h1=h1,
        h0om=2 * chi - r + h1om if 2 * chi - r + h1om >= 0 else h1om + r - 2 * chi,
        h1om=h1om if 2 * chi - r + h1om >= 0 else h1om + 2 * (r - 2 * chi),
    )


def test_serre_dual_involution_random(rnd):
    for _ in range(500):
        t = random_table(rnd)
        assert serre_dual_table(serre_dual_table(t)) == t


def test_dual_type_examples():
    t = MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)])
    d = t.dual()
    assert d.source.summands == ((-2, 3),)
    assert d.target.summands == ((-1, 2), (0, 1))
    t = MorphismType.make([(-2, 4)], [(-1, 3), (1, 1)])
    d = t.dual()
    assert d.source.summands == ((-3, 1), (-1, 3))
    assert d.target.summands == ((0, 4),)
    assert d.dual() == t


def random_type(rnd: random.Random) -> MorphismType:
    def side():
        k = rnd.randint(1, 3)
        twists = sorted(rnd.sample(range(-4, 3), k))
        return [(d, rnd.randint(1, 3)) for d in twists]

    src = side()
    tgt = side()
    zeroed = set()
    for i, (d, _) in enumerate(src):
        for l, (e, _) in enumerate(tgt):
            if e >= d and rnd.random() < 0.2:
                zeroed.add((i, l))
    return MorphismType.make(src, tgt, zeroed)


def test_dual_type_involution_random(rnd):
    for _ in range(500):
        t = random_type(rnd)
        assert t.dual().dual() == t


def test_dual_klass_rule(rnd):
    for _ in range(100):
        t = random_table(rnd)
        d = serre_dual_table(t)
        assert d.klass.r == t.klass.r
        assert d.klass.chi == t.klass.r - t.klass.chi

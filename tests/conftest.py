import random
from fractions import Fraction

import pytest

from sheafmod.polymatrix import HomogeneousPoly, PolyMatrix, monomial_basis
from sheafmod.bundles import MorphismType
from sheafmod.cohomology import CohomologyTable, complete_table
from sheafmod.registry import _ev


def random_poly(rnd: random.Random, degree: int, lo: int = -3, hi: int = 3) -> HomogeneousPoly:
    return HomogeneousPoly(
        {m: Fraction(rnd.randint(lo, hi)) for m in monomial_basis(degree)}
    )


def random_nonzero_poly(rnd, degree, lo=-3, hi=3):
    while True:
        p = random_poly(rnd, degree, lo, hi)
        if not p.is_zero:
            return p


def uniform_matrix(rnd: random.Random, rows: int, cols: int, degree: int) -> PolyMatrix:
    """Matrix with all entries homogeneous of one degree, typed O(-d)^cols -> O^rows."""
    t = MorphismType.make([(-degree, cols)], [(0, rows)])
    return PolyMatrix(
        t, [[random_poly(rnd, degree) for _ in range(cols)] for _ in range(rows)]
    )


def cohomology_table(case, n: int) -> CohomologyTable:
    """The completed cohomology table of a registry case at n."""
    return complete_table(case.moduli(n), {k: _ev(v, n) for k, v in case.table_known.items()})


@pytest.fixture
def rnd():
    return random.Random(20240817)

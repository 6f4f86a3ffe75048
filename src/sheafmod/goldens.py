"""Golden summary-table data: the published codimensions, polarization
regions and quotient kinds for every block, as exact formulas in n.

``expected_quotient`` answers whether the moduli space is a good quotient of
the semistable monads: "geometric", "good" or "unknown".  ``table`` prints
it beside each row; nothing in the package computes it.

``expected_region`` returns ("point", value), ("interval", lo, hi, lo_strict,
hi_strict), ("segment", (v, w)) or ("polygon", vertices); vertices are
lexicographically sorted pairs of Fractions, matching Region.vertices.
A case id the published table has no row for is refused with ValueError.
"""

from __future__ import annotations

from fractions import Fraction as F

__all__ = ["expected_codim", "expected_quotient", "expected_region", "expected_region_vertices"]


def _row(table: dict, case_id: str):
    """The entry of ``table`` for a case, which the published table must have."""
    try:
        return table[case_id]
    except KeyError:
        raise ValueError(f"the published table has no row for case {case_id!r}") from None


def expected_codim(case_id: str, n: int) -> int:
    table = {
        "M(n+1,n):h0m1=0": 0,
        "M(n+2,n):omega0": 0,
        "M(n+2,n):omega1": n - 1,
        "M(4,2):omega0": 0,
        "M(4,2):omega1": 1,
        "M(n+3,n):omega0": 0,
        "M(6,3):omega0": 0,
        "M(n+3,n):omega1": n - 2,
        "M(6,3):omega1": 1,
        "M(7,4):omega2": 6,
        "M(6,3):omega2": 4,
        "M(6,3):h1=1": 4,
        "M(4,1):h1=1": 2,
        "M(5,2):h1=1": 3,
        "M(6,3):h0m1=1": 4,
        "M(n,3):h0m1=1": n - 2,
        "M(n,3):h0m1=1+ker": n - 2,
    }
    return _row(table, case_id)


def expected_quotient(case_id: str, n: int) -> str:
    table = {
        "M(n+1,n):h0m1=0": "geometric",
        "M(n+2,n):omega0": "geometric" if n % 2 else "good",
        "M(n+2,n):omega1": "geometric" if n % 2 else "unknown",
        "M(4,2):omega0": "good",
        "M(4,2):omega1": "unknown",
        "M(n+3,n):omega0": "geometric" if n <= 5 else "unknown",
        "M(6,3):omega0": "good",
        "M(n+3,n):omega1": "geometric" if n <= 5 else "unknown",
        "M(6,3):omega1": "unknown",
        "M(7,4):omega2": "geometric",
        "M(6,3):omega2": "unknown",
        "M(6,3):h1=1": "geometric",
        "M(4,1):h1=1": "geometric",
        "M(5,2):h1=1": "geometric",
        "M(6,3):h0m1=1": "geometric",
        "M(n,3):h0m1=1": "geometric" if n % 3 else "unknown",
        "M(n,3):h0m1=1+ker": "geometric" if n % 3 else "unknown",
    }
    return _row(table, case_id)


def _sorted(*verts):
    return tuple(sorted(tuple(F(x) for x in v) for v in verts))


def _omega1_region(n: int):
    if n == 3:
        return ("segment", _sorted((F(1, 4), F(1, 4)), (F(1, 5), F(2, 5))))
    if n == 4:
        return ("polygon", _sorted((F(1, 9), F(1, 9)), (F(1, 5), F(1, 5)), (F(1, 6), F(1, 3))))
    if n == 5:
        return ("polygon", _sorted((F(1, 6), F(1, 6)), (F(1, 11), F(1, 11)), (F(1, 9), F(1, 6))))
    if n == 6:
        return ("segment", _sorted((F(1, 7), F(1, 7)), (F(3, 29), F(5, 29))))
    raise ValueError(f"no published region at n={n}")


def _h1_region(n: int):
    return ("interval", F(0), F(1, n + 1), True, True)


def _h0m1_region(n: int):
    return ("polygon", _sorted((0, 0), (F(1, n), F(1, n)), (F(1, n - 2), F(1, n - 3))))


_REGIONS = {
    "M(n+1,n):h0m1=0": lambda n: ("interval", F(0), F(1, n), True, True),
    "M(n+2,n):omega0": lambda n: ("interval", F(1, 2 * n), F(1, n), False, True),
    "M(n+3,n):omega0": lambda n: ("interval", F(2, 3 * n), F(1, n), False, True),
    "M(n+2,n):omega1": lambda n: (
        "polygon",
        _sorted((0, 0), (F(1, n + 1), F(1, n + 1)), (F(1, n * n - n + 2), F(2, n * n - n + 2))),
    ),
    "M(4,2):omega0": lambda n: ("point", F(1, 2)),
    "M(6,3):omega0": lambda n: ("point", F(1, 3)),
    "M(4,2):omega1": lambda n: (
        "polygon", _sorted((0, 0), (F(1, 3), F(1, 3)), (F(1, 2), 1), (0, 1))
    ),
    "M(n+3,n):omega1": _omega1_region,
    "M(6,3):omega1": _omega1_region,
    "M(7,4):omega2": lambda n: (
        "polygon", _sorted((0, 0), (F(1, 3), F(1, 2)), (F(17, 24), 1), (1, 1))
    ),
    "M(6,3):omega2": lambda n: ("polygon", _sorted((0, 0), (F(1, 5), F(1, 5)), (F(1, 3), F(1, 2)))),
    "M(6,3):h1=1": _h1_region,
    "M(4,1):h1=1": _h1_region,
    "M(5,2):h1=1": _h1_region,
    "M(6,3):h0m1=1": lambda n: ("interval", F(0), F(1, 4), True, True),
    "M(n,3):h0m1=1": _h0m1_region,
    "M(n,3):h0m1=1+ker": _h0m1_region,
}


def expected_region(case_id: str, n: int):
    return _row(_REGIONS, case_id)(n)


def expected_region_vertices(case_id: str, n: int):
    """Closure vertex set of the published region, matching Region.vertices."""
    data = expected_region(case_id, n)
    if data[0] == "point":
        return ((data[1],),)
    if data[0] == "interval":
        return tuple(sorted([(data[1],), (data[2],)]))
    return data[1]

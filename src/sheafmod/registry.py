"""Case registry: one entry per block of the summary table.

Each case binds a moduli class (r, chi as functions of n), the cohomology
conditions cutting out the stratum, a resolution type, a shape catalog for
the polarization-region solver, a stabilizer dimension and constraint count
for the codimension formula, and presentation metadata.  The block records
live in ``data/registry.txt``.  Every expression in n is affine (terms
``c``, ``n`` or ``c*n`` joined by ``+`` or ``-``, after an optional ``-``);
the load refuses any other, and reads the stabilizer at every n of n_codim.
``region = slope [coords]`` reads the catalog
off the sheaf side (``regions.slope_shapes``), once per n, in the named
weights; the catalogs that rule misses are registered here by name.
The resolution is derived at load from the cohomology tables (the Beilinson
monad C^-1 -> C^0) unless the record gives one, whose Hilbert polynomial must
then be r*t + chi at every n.  The load keeps the resolution type of every n
it reads (the n and n_codim ranges) on the case, so ``resolution(n)`` is a
lookup and ``resolution_spec`` only its printed form.  Calls outside a
case's range raise ValueError: ``resolution`` outside both ranges,
``region`` and ``sample_polarization`` outside n, ``codim`` outside n_codim.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from typing import Callable, Mapping

from .bundles import MorphismType, aut_group_dim, hom_space_dim, parse_resolution_spec
from .cohomology import beilinson_terms, complete_table
from .hilbert import LinearClass, format_hilbert, hilbert_of_resolution
from .regions import Polarization, Region, Shape, admissible_region, slope_shapes, _AffineSpace
from .stability import FLAGS

__all__ = [
    "CaseSpec",
    "RegionSystem",
    "load_registry",
    "REGISTRY_ENV_VAR",
]

REGISTRY_ENV_VAR = "SHEAFMOD_REGISTRY"
# the most values an ``n`` or ``n_codim`` range may hold: the load checks, or
# derives, a record's resolution at every n of both (the shipped ranges span
# n = 1..15)
_MAX_RANGE = 1000


@dataclass(frozen=True)
class RegionSystem:
    """Shape catalog plus solver options for one polarization region."""

    forbidden: tuple[Shape, ...]
    allowed: tuple[Shape, ...]
    extra_facets: tuple[tuple[tuple[int, ...], int, bool], ...] = ()
    clip_positivity: bool = True
    coords: tuple[str, ...] = ()


# an optional leading "-", then terms c, n or c*n joined by "+" or "-"
_AFFINE = re.compile(r"-?(?:\d+(?:\*n)?|n)(?:[-+](?:\d+(?:\*n)?|n))*", re.ASCII)
_TERM = re.compile(r"([-+]?)(?:(\d+)(\*n)?|n)", re.ASCII)
_PLACEHOLDER = re.compile(r"\[([^]]*)\]")


def _ev(expr: str, n: int) -> int:
    """Value of a registry expression at n; anything outside the grammar
    raises ValueError."""
    if not _AFFINE.fullmatch(expr):
        raise ValueError(f"bad registry expression {expr!r}")
    return sum(int(sign + (c or "1")) * (n if times_n or not c else 1)
               for sign, c, times_n in _TERM.findall(expr))


@dataclass(frozen=True)
class CaseSpec:
    """Registry entry for one table block."""

    id: str
    r_expr: str
    chi_expr: str
    n_range: tuple[int, int]
    n_codim_range: tuple[int, int]
    conditions: str
    table_known: Mapping[str, str]
    resolution_spec: str
    # the stabilizer dimension at every n of n_codim_range, read at load
    stabilizers: Mapping[int, int]
    extra_constraints: int
    region_ref: str
    checks: tuple[str, ...]
    # the resolution type at every n of n_range and n_codim_range, as the
    # load built and checked it
    resolutions: Mapping[int, MorphismType] = field(repr=False, compare=False)
    # region_system and sample_polarization per n, kept for the life of this spec
    _systems: dict[int, RegionSystem] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _polarizations: dict[int, Polarization] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def admits(self, n: int) -> bool:
        return self.n_range[0] <= n <= self.n_range[1]

    def ns(self) -> range:
        return range(self.n_range[0], self.n_range[1] + 1)

    def moduli(self, n: int) -> LinearClass:
        return LinearClass(_ev(self.r_expr, n), _ev(self.chi_expr, n))

    def resolution(self, n: int) -> MorphismType:
        try:
            return self.resolutions[n]
        except KeyError:
            raise ValueError(f"case {self.id} does not admit n={n}") from None

    def region_system(self, n: int) -> RegionSystem:
        """The shape catalog at n, from the slope rule or by name, built once per n."""
        if n not in self._systems:
            name, *coords = self.region_ref.split()
            if name == "slope":
                shapes = slope_shapes(self.resolution(n), self.moduli(n))
                self._systems[n] = RegionSystem(*shapes, coords=tuple(coords))
            else:
                self._systems[n] = REGION_SYSTEMS[name](n)
        return self._systems[n]

    def _solve(self, n: int, positive: bool) -> tuple[MorphismType, RegionSystem, Region]:
        """The type, the catalog and the region at n, clipped to positive
        weights when the catalog or ``positive`` asks for it."""
        if not self.admits(n):
            raise ValueError(f"case {self.id} does not admit n={n}")
        t, sys = self.resolution(n), self.region_system(n)
        return t, sys, admissible_region(
            t, sys.forbidden, sys.allowed, extra_facets=sys.extra_facets,
            clip_positivity=sys.clip_positivity or positive, coords=sys.coords,
        )

    def region(self, n: int) -> Region:
        return self._solve(n, positive=False)[2]

    def codim(self, n: int) -> int:
        """Codimension of the stratum inside its moduli space.

        dim(stratum) = dim W_o - dim G + dim Stab with dim W_o the zeroed-block
        ambient dimension minus the case's extra coefficient constraints, and
        the moduli space has dimension r^2 + 1.
        """
        if not (self.n_codim_range[0] <= n <= self.n_codim_range[1]):
            raise ValueError(f"case {self.id} does not admit n={n}")
        t = self.resolution(n)
        dim_w = hom_space_dim(t) - self.extra_constraints
        dim_x = dim_w - aut_group_dim(t) + self.stabilizers[n]
        codim = self.moduli(n).moduli_dim() - dim_x
        if codim < 0:
            raise ValueError(f"negative codimension for {self.id} at n={n}")
        return codim

    def sample_polarization(self, n: int) -> Polarization:
        """An interior admissible polarization with all weights positive;
        solved once per n for this spec."""
        if n not in self._polarizations:
            t, sys, clipped = self._solve(n, positive=True)
            if clipped.empty:
                raise ValueError(f"case {self.id} has no positive admissible weights")
            pt = clipped.interior_point()
            self._polarizations[n] = _AffineSpace(t, sys.coords).polarization_at(pt)
        return self._polarizations[n]


def _instantiate(spec: str, n: int) -> str:
    """Replace [expr] placeholders by their integer values.  A placeholder
    touching a digit or another placeholder would merge into one number with
    it, so it is refused."""
    if re.search(r"[\d\]]\[|\]\d", spec):
        raise ValueError(f"a placeholder touches a digit or a placeholder in {spec!r}")
    return _PLACEHOLDER.sub(lambda m: str(_ev(m[1], n)), spec)


# ---------------------------------------------------------------------------
# Shape catalogs per region reference
# ---------------------------------------------------------------------------


def _tri_two(n: int) -> RegionSystem:
    # 2O(-2) + (n-1)O(-1) -> O(-1) + nO; open triangle in (l1, m1)
    forb = [Shape((1, 0), (0, n - 1))]
    forb += [Shape((0, m), (2, n - 1 - m)) for m in range(1, n)]
    forb += [Shape((0, n), (1, 0))]
    forb += [Shape((1, m), (1, n - 1 - m)) for m in range(1, n)]
    allo = [Shape((0, m), (2, n - m)) for m in range(1, n + 1)]
    allo += [Shape((1, m), (0, n - m)) for m in range(1, n)]
    return RegionSystem(tuple(forb), tuple(allo))


def _quad_fourtwo(n: int) -> RegionSystem:
    # 2O(-2) + O(-1) -> O(-1) + 2O; open quadrilateral
    return RegionSystem((Shape((0, 2), (1, 0)), Shape((0, 1), (2, 0))), ())


def _seg_or_tri_omega1(n: int) -> RegionSystem:
    # 3O(-2) + (n-2)O(-1) -> O(-1) + nO; per-n region data
    if n == 3:
        return RegionSystem(
            (Shape((0, 3), (1, 0)), Shape((1, 0), (1, 1))),
            (Shape((1, 0), (3, 0)), Shape((0, 3), (0, 1))),
        )
    if n == 4:
        return RegionSystem(
            (Shape((0, 4), (1, 0)), Shape((1, 1), (3, 0)), Shape((1, 1), (0, 2))),
            (),
        )
    if n == 5:
        return RegionSystem(
            (Shape((0, 5), (1, 0)), Shape((1, 1), (2, 2)), Shape((1, 1), (0, 3))),
            (),
        )
    if n == 6:
        return RegionSystem(
            (Shape((0, 6), (1, 0)), Shape((1, 1), (0, 4)), Shape((0, 5), (1, 1))),
            (Shape((1, 2), (2, 2)), Shape((0, 4), (1, 2))),
        )
    raise ValueError(f"no region data for n={n}")


def _quad_74(n: int) -> RegionSystem:
    # 3O(-2) + 3O(-1) -> 2O(-1) + 4O; published quadrilateral extends beyond
    # the positive weight simplex, so positivity clipping is disabled and the
    # closing facet is the total-weight bound mu1 < 1
    return RegionSystem(
        (Shape((1, 4), (1, 0)), Shape((2, 0), (0, 3)), Shape((2, 1), (0, 2))),
        (),
        extra_facets=(((1, 0), 1, True),),
        clip_positivity=False,
    )


def _tri_63(n: int) -> RegionSystem:
    # 3O(-2) + 2O(-1) -> 2O(-1) + 3O; open triangle
    forbidden = (Shape((0, 3), (2, 0)), Shape((0, 1), (3, 1)), Shape((2, 0), (0, 2)))
    return RegionSystem(forbidden, ())


def _tri_n3(n: int) -> RegionSystem:
    # (n-2)O(-2) + 3O(-1) -> (n-3)O(-1) + 3O; open triangle
    return RegionSystem(
        (Shape((max(n - 4, 0), 3), (1, 0)), Shape((n - 3, 0), (0, 3)), Shape((0, 2), (n - 2, 0))),
        (),
    )


REGION_SYSTEMS: dict[str, Callable[[int], RegionSystem]] = {
    "tri_two": _tri_two,
    "quad_fourtwo": _quad_fourtwo,
    "seg_or_tri_omega1": _seg_or_tri_omega1,
    "quad_74": _quad_74,
    "tri_63": _tri_63,
    "tri_n3": _tri_n3,
}


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _parse_range(case_id: str, key: str, text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text, re.ASCII)
    if not match:
        raise ValueError(
            f"registry case {case_id!r} has an {key!r} value {text!r} that is not "
            f"a range lo..hi of integers"
        )
    lo, hi = map(int, match.groups())
    if lo > hi:
        raise ValueError(f"registry case {case_id!r} has an empty {key!r} range {lo}..{hi}")
    if hi - lo >= _MAX_RANGE:
        raise ValueError(
            f"registry case {case_id!r} has an {key!r} range {lo}..{hi} of "
            f"{hi - lo + 1} values; at most {_MAX_RANGE} are allowed"
        )
    return lo, hi


def _multiplicity(case_id: str, d: int, ns: list[int], values: list[int]) -> str:
    """The multiplicities of O(d) over ns, written as a constant, [n] or [n+c]."""
    shift = values[0] - ns[0]
    if len(set(values)) == 1:
        return str(values[0])
    if {v - n for n, v in zip(ns, values)} == {shift}:
        return f"[n{shift:+d}]" if shift else "[n]"
    raise ValueError(
        f"registry case {case_id!r} has a multiplicity of O({d}) in its "
        f"Beilinson monad that is not a constant, [n] or [n+c]: {values}"
    )


def _resolutions(case: CaseSpec) -> tuple[str, dict[int, MorphismType]]:
    """The case's resolution line and its type at every n that reads it (the
    n and n_codim ranges).  A given line is checked against r*t + chi at
    each such n; without one, the line is the spec of the Beilinson monad
    C^-1 -> C^0 of the case's tables, with its equal-twist blocks zero.
    Either way the table must complete at every such n."""
    ns = sorted({*case.ns(), *range(case.n_codim_range[0], case.n_codim_range[1] + 1)})
    tables, types = [], {}
    for n in ns:
        k = case.moduli(n)  # an r below 1 is refused as itself
        if case.resolution_spec:
            t, kernel = parse_resolution_spec(_instantiate(case.resolution_spec, n))
            if (p := hilbert_of_resolution(t, kernel)) != (want := (0, k.r, k.chi)):
                raise ValueError(
                    f"registry case {case.id!r} has a resolution with Hilbert polynomial "
                    f"{format_hilbert(p)} at n={n}, not {format_hilbert(want)}"
                )
            types[n] = t
        try:
            tables.append(complete_table(k, {e: _ev(v, n) for e, v in case.table_known.items()}))
        except ValueError as exc:
            raise ValueError(
                f"registry case {case.id!r} has a 'table' that does not complete "
                f"at n={n}: {exc}"
            ) from None
    if case.resolution_spec:
        return case.resolution_spec, types
    sides: tuple[dict, dict] = ({}, {})  # twist -> multiplicity at each n, in C^-1 and C^0
    for j, (n, table) in enumerate(zip(ns, tables)):
        _, c_m1, c_0, c_1 = beilinson_terms(table)
        if c_1 is not None:
            raise ValueError(
                f"registry case {case.id!r} needs a 'resolution' line: h1(F) = "
                f"{c_1.rank} at n={n} gives its Beilinson monad a term C^1"
            )
        for side, term in zip(sides, (c_m1, c_0)):
            for d, m in term.summands if term else ():
                side.setdefault(d, [0] * len(ns))[j] = m
    src, tgt = ([(d, _multiplicity(case.id, d, ns, s[d])) for d in sorted(s)] for s in sides)
    spec = "src={} tgt={}".format(*(",".join(f"({d})x{m}" for d, m in s) for s in (src, tgt)))
    zero = [f"({i},{l})" for i, (d, _) in enumerate(src, 1) for l, (e, _) in enumerate(tgt, 1)
            if d == e]
    spec += " zero=" + ",".join(zero) if zero else ""
    return spec, {n: parse_resolution_spec(_instantiate(spec, n))[0] for n in ns}


_REQUIRED_KEYS = (
    "r", "chi", "n", "conditions", "table", "stabilizer", "extra_constraints", "region",
)
_KNOWN_KEYS = (*_REQUIRED_KEYS, "n_codim", "resolution", "checks")


def _parse_case(block: list[str]) -> CaseSpec:
    fields: dict[str, str] = {}
    header = block[0]
    if not (header.startswith("[case ") and header.endswith("]")):
        raise ValueError(f"registry block must start with '[case <id>]', not {header!r}")
    case_id = header[len("[case "):-1]
    for line in block[1:]:
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or key not in _KNOWN_KEYS or key in fields:
            what = "no '='" if not eq else "a repeated key" if key in fields else "an unknown key"
            raise ValueError(f"registry case {case_id!r} has {what} in line {line!r}")
        fields[key] = value
    for key in _REQUIRED_KEYS:
        if key not in fields:
            raise ValueError(f"registry case {case_id!r} has no {key!r} line")
    n_range = _parse_range(case_id, "n", fields["n"])
    n_codim = _parse_range(case_id, "n_codim", fields.get("n_codim", fields["n"]))
    extra = fields["extra_constraints"]
    if not re.fullmatch(r"-?\d+", extra, re.ASCII):
        raise ValueError(
            f"registry case {case_id!r} has an 'extra_constraints' value {extra!r} "
            f"that is not an integer"
        )
    checks = tuple(c.strip() for c in fields.get("checks", "").split(",") if c.strip())
    for tag in checks:
        if tag not in FLAGS:
            raise ValueError(f"registry case {case_id!r} has an unknown 'checks' tag {tag!r}")
    name, *coords = fields["region"].split() or [""]
    if name != "slope" and (coords or name not in REGION_SYSTEMS):
        raise ValueError(
            f"registry case {case_id!r} has an unknown region reference {fields['region']!r}"
        )
    table_known = {}
    for part in fields["table"].split(","):
        k, _, v = part.partition("=")
        table_known[k.strip()] = v.strip()
    exprs = [(key, fields[key]) for key in ("r", "chi", "stabilizer")]
    exprs += [("table", v) for v in table_known.values()]
    exprs += [("resolution", e) for e in _PLACEHOLDER.findall(fields.get("resolution", ""))]
    for key, expr in exprs:
        if not _AFFINE.fullmatch(expr):
            raise ValueError(
                f"registry case {case_id!r} has an expression {expr!r} in {key!r} that "
                f"is not terms c, n or c*n joined by + or -"
            )
    stabilizers = {n: _ev(fields["stabilizer"], n) for n in range(n_codim[0], n_codim[1] + 1)}
    for n, stab in stabilizers.items():
        if stab < 0:
            raise ValueError(
                f"stabilizer {fields['stabilizer']} of case {case_id} is negative at n={n}"
            )
    case = CaseSpec(
        id=case_id,
        r_expr=fields["r"],
        chi_expr=fields["chi"],
        n_range=n_range,
        n_codim_range=n_codim,
        conditions=fields["conditions"],
        table_known=table_known,
        resolution_spec=fields.get("resolution", ""),
        stabilizers=stabilizers,
        extra_constraints=int(extra),
        region_ref=fields["region"],
        checks=checks,
        resolutions={},
    )
    spec, types = _resolutions(case)
    case = replace(case, resolution_spec=spec, resolutions=types)
    blocks = [(tag, FLAGS[tag][0]) for tag in checks if FLAGS[tag][0] is not None]
    for n in case.ns() if blocks or name == "slope" else ():
        t = case.resolution(n)
        if name == "slope" and t.source.rank != t.target.rank:
            raise ValueError(
                f"registry case {case_id!r} has 'region = slope' on a resolution "
                f"that is not square at n={n}"
            )
        for tag, (i, l) in blocks:
            if i >= t.source.ntypes or l >= t.target.ntypes:
                raise ValueError(
                    f"registry case {case_id!r} has a 'checks' tag {tag!r} on block "
                    f"({i + 1},{l + 1}), which its resolution lacks at n={n}"
                )
    return case


@lru_cache(maxsize=None)
def load_registry(path: str | None = None) -> tuple[CaseSpec, ...]:
    """Load the case registry; honours the SHEAFMOD_REGISTRY override."""
    if path is None:
        path = os.environ.get(REGISTRY_ENV_VAR)
    if path is None:
        text = (
            resources.files("sheafmod").joinpath("data/registry.txt").read_text()
        )
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    cases: list[CaseSpec] = []
    block: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("[case "):
            if block:
                cases.append(_parse_case(block))
            block = [line.strip()]
        else:
            block.append(line.strip())
    if block:
        cases.append(_parse_case(block))
    ids = [c.id for c in cases]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate case ids in the registry")
    return tuple(cases)


def case_by_id(case_id: str) -> CaseSpec:
    for c in load_registry():
        if c.id == case_id:
            return c
    raise KeyError(f"no case {case_id!r} in the registry")

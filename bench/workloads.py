"""The four benchmark workloads: their inputs, the call they time, and the
correctness gate applied to each output.

Every workload's inputs form a fixed cycle that a mirrored generator builds
deterministically, so that every output has a recorded reference in
``reference.json``.  A run repeats the whole cycle, each time in an order
drawn from ``--seed``, so every run does the same mix of work whatever its
seed.  The program only ever receives the generated matrices, polarizations
and CLI arguments.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator

from sheafmod import cli, polymatrix, registry, stability
from sheafmod.bundles import MorphismType
from sheafmod.polymatrix import HomogeneousPoly, PolyMatrix, X, Y, Z, monomial_basis
from sheafmod.regions import Polarization

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

KERNEL_POOL_SEED = 404  # the acceptance-4 generator's seed
KERNEL_POOL_SIZE = 50
VERDICTS_POOL_SEED = 0  # scripts/random_verdicts.py default
SEARCH_BUDGET = 10**4
SEARCH_SEED = 11

DECIDED = {
    stability.VerdictKind.DESTABILIZED.value,
    stability.VerdictKind.CERTIFIED_SEMISTABLE.value,
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Input generators (mirrors of the acceptance-4 generator and of
# scripts/random_verdicts.py; neither tests/ nor scripts/ is imported)
# ---------------------------------------------------------------------------

Raw = tuple  # rows of entries, each entry a tuple of (monomial, coefficient)


def _raw_poly(rnd: random.Random, degree: int, lo: int, hi: int) -> tuple:
    return tuple((m, rnd.randint(lo, hi)) for m in monomial_basis(degree))


def kernel_draws(seed: int) -> Iterator[tuple[MorphismType, Raw]]:
    """Endless stream of acceptance-4 draws: k x (k+1) matrices of forms of
    one degree, k in 1..4, degree 1 (always for k = 4) or 2, coefficients in
    -3..3.  Draws whose maximal minors all vanish are dropped by the caller."""
    rnd = random.Random(seed)
    while True:
        k = rnd.randint(1, 4)
        deg = 1 if k == 4 else rnd.choice([1, 2])
        t = MorphismType.make([(-deg, k + 1)], [(0, k)])
        raw = tuple(
            tuple(_raw_poly(rnd, deg, -3, 3) for _ in range(k + 1)) for _ in range(k)
        )
        yield t, raw


def verdict_matrix(rnd: random.Random, t: MorphismType) -> Raw:
    """One random matrix of the type, sampled as random_verdicts.py does."""
    row_types = [(l, e) for l, (e, nl) in enumerate(t.target.summands) for _ in range(nl)]
    col_types = [(i, d) for i, (d, mi) in enumerate(t.source.summands) for _ in range(mi)]
    rows = []
    for l, e in row_types:
        row = []
        for i, d in col_types:
            if t.is_zeroed(i, l) or e < d:
                row.append(())
            else:
                row.append(_raw_poly(rnd, e - d, -2, 2))
        rows.append(tuple(row))
    return tuple(rows)


def build_matrix(t: MorphismType, raw: Raw) -> PolyMatrix:
    """A fresh PolyMatrix, so that nothing cached on an earlier object of the
    same input can be reused by the call being timed."""
    return PolyMatrix(
        t, [[HomogeneousPoly({m: Fraction(c) for m, c in e}) for e in row] for row in raw]
    )


def search_inputs() -> list[tuple[PolyMatrix, Polarization]]:
    """The three literal acceptance-3 matrices with their polarizations."""
    zero = HomogeneousPoly.zero()
    F = Fraction
    m5 = PolyMatrix(
        MorphismType.make([(-2, 1), (-1, 4)], [(0, 5)]),
        [
            [X * X, Y, Z, Y, Z],
            [zero, X, zero, zero, zero],
            [zero, zero, Y, zero, zero],
            [zero, zero, zero, Z, zero],
            [zero, zero, zero, zero, X],
        ],
    )
    m3 = PolyMatrix(
        MorphismType.make([(-2, 1), (-1, 2)], [(0, 3)]),
        [[zero, X, Y], [X * Y, Z, zero], [-(X * X), zero, Z]],
    )
    m2 = PolyMatrix(
        MorphismType.make([(-2, 2)], [(0, 2)]),
        [[X * (X + Y), X * Z], [Y * (X + Y), Y * Z]],
    )
    return [
        (m5, Polarization([F(1, 10), F(9, 40)], [F(1, 5)])),
        (m3, Polarization([F(1, 6), F(5, 12)], [F(1, 3)])),
        (m2, Polarization([F(1, 2)], [F(1, 2)])),
    ]


# ---------------------------------------------------------------------------
# Correctness gates: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------


def table_golden_mismatches() -> list[str]:
    """Rows of the summary table whose codimension or region differs from the
    published data in ``goldens``."""
    from sheafmod.goldens import expected_codim, expected_region_vertices

    bad = []
    for case in registry.load_registry():
        for n in case.ns():
            verts = tuple(tuple(v) for v in case.region(n).vertices)
            if case.codim(n) != expected_codim(case.id, n):
                bad.append(f"{case.id} n={n}: codim")
            if verts != expected_region_vertices(case.id, n):
                bad.append(f"{case.id} n={n}: region")
    return bad


def gate_table(out: tuple[int, str], ref: dict) -> str | None:
    rc, text = out
    if rc != 0:
        return f"sheafmod table exited {rc}"
    if digest(text) != ref["stdout_digest"]:
        return "table output differs from the recorded bytes"
    return None


def kernel_text(beta, d) -> str:
    return " | ".join(str(b) for b in beta) + f", d={d}"


def gate_kernel(m: PolyMatrix, out, want_digest: str) -> str | None:
    if out is None:
        return "kernel_line returned None"
    beta, d = out
    for r in range(m.nrows):
        acc = HomogeneousPoly.zero()
        for c in range(m.ncols):
            acc = acc + m.entries[r][c] * beta[c]
        if not acc.is_zero:
            return f"m * beta != 0 in row {r}"
    if digest(kernel_text(beta, d)) != want_digest:
        return "kernel line differs from the recorded one"
    return None


def gate_verdict(m: PolyMatrix, verdict, want_kind: str) -> str | None:
    """Witnesses re-verify, a witness-less destabilization carries its closure
    note, and a verdict recorded as decided neither flips nor reopens.  A
    recorded ``undetermined`` may become decided."""
    kind = verdict.kind.value
    if verdict.witness is not None and not stability.verify_witness(m, verdict.witness):
        return "witness does not verify"
    if kind == stability.VerdictKind.DESTABILIZED.value and verdict.witness is None:
        if not verdict.note:
            return "destabilized without a witness or a closure note"
    if want_kind in DECIDED and kind != want_kind:
        return f"verdict {want_kind} became {kind}"
    return None


def gate_case_report(m: PolyMatrix, report, want: dict) -> str | None:
    if dict(report.flags) != want["flags"]:
        return f"membership flags {dict(report.flags)} != recorded {want['flags']}"
    return gate_verdict(m, report.verdict, want["kind"])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Item:
    """One call: ``prepare`` builds its arguments outside the timed region,
    ``call`` is timed, ``gate`` checks the result outside the timed region."""

    key: Any
    prepare: Callable[[], tuple]
    call: Callable[..., Any]
    gate: Callable[[tuple, Any], str | None]


@dataclass
class Workload:
    """``inputs`` is one cycle; a run repeats it in seeded orders.
    ``tail_percentile`` is taken over the inputs' median times; a workload
    of one input takes its tail over its calls instead."""

    name: str
    inputs: list[Item]
    tail_percentile: int
    decided: Callable[[Any], bool]


def render_table() -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["table"])
    return rc, buf.getvalue()


def table_workload(ref: dict) -> Workload:
    golden_mismatches = functools.cache(table_golden_mismatches)  # once per run

    def gate(args, out):
        if golden_mismatches():
            return "rows differ from goldens: " + ", ".join(golden_mismatches()[:3])
        return gate_table(out, ref["table"])

    return Workload("table", [Item("table", lambda: (), render_table, gate)], 100, lambda out: True)


def kernel_pool(ref: dict, size: int | None = None) -> list[tuple[MorphismType, Raw, str]]:
    """The first accepted acceptance-4 draws with their recorded digests; the
    draws recorded as rejected (every maximal minor zero) are skipped."""
    kref = ref["kernel"]
    rejected = set(kref["rejected_draws"])
    digests = kref["digests"]
    size = len(digests) if size is None else size
    pool = []
    for draw, (t, raw) in enumerate(kernel_draws(kref["seed"])):
        if len(pool) == size:
            break
        if draw not in rejected:
            pool.append((t, raw, digests[len(pool)]))
    return pool


def kernel_workload(ref: dict, pool=None) -> Workload:
    pool = kernel_pool(ref) if pool is None else pool
    inputs = [
        Item(
            i,
            lambda t=t, raw=raw: (build_matrix(t, raw),),
            polymatrix_kernel_line,
            lambda args, out, want=want: gate_kernel(args[0], out, want),
        )
        for i, (t, raw, want) in enumerate(pool)
    ]
    return Workload("kernel", inputs, 80, lambda out: out is not None)


def polymatrix_kernel_line(m):
    return polymatrix.kernel_line(m)


def verdicts_pool(ref: dict) -> list[tuple]:
    """One random matrix per registry case, at the case's smallest n: the
    first draw random_verdicts.py makes for the case at its default seed."""
    vref = ref["verdicts"]
    pool = []
    for case in registry.load_registry():
        n = case.ns()[0]
        t = case.resolution(n)
        raw = verdict_matrix(random.Random(vref["seed"]), t)
        pool.append((case, n, t, raw, vref["cases"][case.id]))
    return pool


def check_case_budget0(m, case, n):
    return stability.check_case(m, case, n, budget=0, seed=0)


def verdicts_workload(ref: dict, pool=None) -> Workload:
    pool = verdicts_pool(ref) if pool is None else pool
    inputs = [
        Item(
            case.id,
            lambda t=t, raw=raw, case=case, n=n: (build_matrix(t, raw), case, n),
            check_case_budget0,
            lambda args, out, want=want: gate_case_report(args[0], out, want),
        )
        for case, n, t, raw, want in pool
    ]
    return Workload("verdicts", inputs, 100, lambda out: out.verdict.kind.value in DECIDED)


def search_call(m, p):
    return stability.search_destabilizer(m, p, SEARCH_BUDGET, seed=SEARCH_SEED)


def search_workload(ref: dict, pool: list[int] | None = None) -> Workload:
    """``pool`` picks which of the three acceptance-3 inputs to cycle over."""
    kinds = ref["search"]["kinds"]
    pool = list(range(len(kinds))) if pool is None else pool
    inputs = [
        Item(
            i,
            lambda i=i: search_inputs()[i],
            search_call,
            lambda args, out, i=i: gate_verdict(args[0], out, kinds[i]),
        )
        for i in pool
    ]
    return Workload("search", inputs, 100, lambda out: out.kind.value in DECIDED)


FACTORIES = {
    "table": table_workload,
    "kernel": kernel_workload,
    "verdicts": verdicts_workload,
    "search": search_workload,
}


def build(name: str, ref: dict | None = None) -> Workload:
    """Build a workload's inputs; this is the set-up that ``setup_s`` times."""
    return FACTORIES[name](load_reference() if ref is None else ref)

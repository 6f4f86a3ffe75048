"""Command-line front end.

Subcommands: table, region, codim, check, kernel, dual, section, classify,
hilbert.  Exit codes: 0 success, 1 domain error, 2 usage error.  All output
is canonical: rationals in lowest terms, vertices sorted lexicographically,
so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .bundles import format_resolution_spec, parse_resolution_spec
from .cohomology import CohomologyTable, serre_dual_table
from .goldens import expected_codim, expected_quotient, expected_region_vertices
from .hilbert import LinearClass, format_hilbert, hilbert_of_resolution
from .polymatrix import (
    adapt_to_point,
    adapt_to_span,
    cubic_section,
    determinant,
    format_matrix_file,
    kernel_line,
    parse_matrix_file,
    parse_poly,
    quartic_reconstruct,
    quartic_section,
    transpose_dual,
)
from .regions import Polarization, Region, classify_shapes, dual_polarization
from .registry import case_by_id, load_registry
from .stability import check_case


def _fmt_pt(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def region_text(region: Region) -> str:
    """One-line canonical rendering of a region."""
    if region.empty:
        return "empty"
    if region.affine_dim == 0:
        if region.free_vars:
            return f"{region.free_vars[0]} = {region.vertices[0][0]}"
        return "point"
    if len(region.free_vars) == 1:
        (lo,), (hi,) = region.vertices
        name = region.free_vars[0]
        lo_op = "<" if _endpoint_strict(region, (lo,)) else "<="
        hi_op = "<" if _endpoint_strict(region, (hi,)) else "<="
        return f"{lo} {lo_op} {name} {hi_op} {hi}"
    kinds = {1: "open segment with endpoints", 2: "open polygon with vertices"}
    label = kinds[region.affine_dim]
    return label + " " + ", ".join(_fmt_pt(v) for v in region.vertices)


def _endpoint_strict(region: Region, v) -> bool:
    return any(f.strict and f.value(v) == 0 for f in region.facets)


def cmd_table(args) -> int:
    cases = load_registry()
    if args.case is not None:
        cases = (_case(args.case, args.n),)
    if args.n is not None and args.case is None:
        covered = [n for c in cases for n in c.n_range]
        cases = tuple(c for c in cases if c.admits(args.n))
        if not cases:
            raise UsageError(
                f"no case covers n = {args.n}; the table spans n = "
                f"{min(covered)}..{max(covered)}"
            )
    out_rows = []
    mismatches = []
    for case in cases:
        ns = [args.n] if args.n is not None else list(case.ns())
        rows = []
        for n in ns:
            codim = case.codim(n)
            region = case.region(n)
            verts = tuple(tuple(v) for v in region.vertices)
            if codim != expected_codim(case.id, n):
                mismatches.append(f"{case.id} n={n}: codim {codim} != published")
            if verts != expected_region_vertices(case.id, n):
                mismatches.append(f"{case.id} n={n}: region != published")
            rows.append((n, codim, region, expected_quotient(case.id, n)))
        out_rows.append((case, rows))
    if args.json:
        doc = []
        for case, rows in out_rows:
            doc.append(
                {
                    "id": case.id,
                    "r": case.r_expr,
                    "chi": case.chi_expr,
                    "conditions": case.conditions,
                    "resolution": case.resolution_spec,
                    "rows": [
                        {
                            "n": n,
                            "codim": codim,
                            "quotient": quot,
                            "region": region.to_json_dict(),
                        }
                        for n, codim, region, quot in rows
                    ],
                }
            )
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for case, rows in out_rows:
            print(f"== {case.id}  [r = {case.r_expr}, chi = {case.chi_expr}]")
            print(f"   conditions: {case.conditions}")
            print(f"   resolution: {case.resolution_spec}")
            for n, codim, region, quot in rows:
                print(
                    f"   n={n:<3d} codim {codim:<3d} quotient {quot:<10s} "
                    f"region {region_text(region)}"
                )
        print(f"{len(out_rows)} blocks rendered.")
    if mismatches:
        print("MISMATCH: " + "; ".join(mismatches), file=sys.stderr)
        return 1
    if not args.json:
        print("All codimensions and regions match the published table.")
    return 0


class UsageError(Exception):
    """Malformed command-line input: one ``error:`` line and exit code 2."""


def _parse_polarization(text: str) -> Polarization:
    """A polarization given as ``lambdas;mus``, each a comma-separated list."""
    parts = text.split(";")
    if len(parts) != 2:
        raise UsageError(
            f"--polarization needs 'lambdas;mus', e.g. 1/6,5/12;1/3, not {text!r}"
        )
    lam, mu = parts
    return Polarization(
        [_rational(x, "--polarization") for x in lam.split(",")],
        [_rational(x, "--polarization") for x in mu.split(",")],
    )


def _rational(text: str, flag: str) -> Fraction:
    """One rational number from a flag's comma-separated list."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag} entry {text!r} is not a rational number") from None


def _parse_point(text: str) -> list[Fraction]:
    """A projective point given as ``a,b,c``."""
    coords = text.split(",")
    if len(coords) != 3:
        raise UsageError(
            f"--point needs three comma-separated coordinates a,b,c, not {len(coords)}"
        )
    return [_rational(x, "--point") for x in coords]


def _case(case_id: str, n: int | None, codim: bool = False):
    """The registry case named ``--case``; an unknown name, or an ``n`` (when
    given) outside the case's range (its ``n_codim`` range when ``codim``),
    is a usage error."""
    try:
        case = case_by_id(case_id)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    lo, hi = case.n_codim_range if codim else case.n_range
    if n is not None and not lo <= n <= hi:
        raise UsageError(f"case {case.id} covers n = {lo}..{hi}, not n = {n}")
    return case


def cmd_region(args) -> int:
    case = _case(args.case, args.n)
    region = case.region(args.n)
    if args.json:
        print(json.dumps(region.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(f"region for {case.id} at n={args.n}: {region_text(region)}")
    return 0


def cmd_codim(args) -> int:
    case = _case(args.case, args.n, codim=True)
    print(case.codim(args.n))
    return 0


def cmd_check(args) -> int:
    case = _case(args.case, args.n)
    n = args.n if args.n is not None else case.n_range[0]
    if args.witness_out == "":
        raise UsageError("--witness-out needs a file name")
    with open(args.matrix, "r", encoding="utf-8") as fh:
        m = parse_matrix_file(fh.read())
    report = check_case(m, case, n, budget=args.budget, seed=args.seed)
    for name, ok in sorted(report.flags.items()):
        print(f"{name}: {'ok' if ok else 'FAIL'}")
    print(f"verdict: {report.verdict}")
    w = report.verdict.witness
    if w is not None and args.witness_out is not None:
        from .stability import realize_witness

        g, h, transformed = realize_witness(m, w)
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            fh.write(format_matrix_file(transformed))
            fh.write(f"# witness shape: {w.shape}\n")
            fh.write("# zero block: leading rows/columns of the named types\n")
            fh.write("# row transform:\n")
            for row in g:
                fh.write("# " + " ".join(str(x) for x in row) + "\n")
            fh.write("# column transform:\n")
            for row in h:
                fh.write("# " + " ".join(str(x) for x in row) + "\n")
    return 0


def cmd_kernel(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        m = parse_matrix_file(fh.read())
    result = kernel_line(m)
    if result is None:
        print("no kernel line: every maximal minor vanishes")
        return 0
    beta, d = result
    print("(" + " | ".join(str(b) for b in beta) + f"), d={d}")
    return 0


def cmd_dual(args) -> int:
    if (args.type, args.polarization, args.matrix, args.table) == (None,) * 4:
        raise UsageError("dual needs one of --type/--polarization/--matrix/--table")
    if args.polarization is not None and args.type is None:
        raise UsageError("--polarization needs --type for the arity")
    # parse and validate every argument before anything is printed
    if args.polarization is not None:
        p = _parse_polarization(args.polarization)
    if args.table is not None:
        try:
            vals = [int(x) for x in args.table.split(",")]
        except ValueError:
            vals = []
        if len(vals) != 8:
            raise UsageError(
                "--table needs 8 comma-separated integers "
                f"r,chi,h0m1,h1m1,h0,h1,h0om,h1om, not {args.table!r}"
            )
    if args.type is not None:
        t, _ = parse_resolution_spec(args.type)
    if args.polarization is not None:
        q = dual_polarization(p, t)
    if args.matrix is not None:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            m = parse_matrix_file(fh.read())
    if args.table is not None:
        r, chi, *hs = vals
        d = serre_dual_table(CohomologyTable(LinearClass(r, chi), *hs))
    if args.type is not None:
        print(format_resolution_spec(t.dual()))
    if args.polarization is not None:
        print(
            ",".join(str(x) for x in q.lambdas)
            + ";"
            + ",".join(str(x) for x in q.mus)
        )
    if args.matrix is not None:
        sys.stdout.write(format_matrix_file(transpose_dual(m)))
    if args.table is not None:
        print(f"class: r={d.klass.r}, chi={d.klass.chi}")
        for label, h0, h1 in d.rows():
            print(f"{label:<14s} h0={h0:<3d} h1={h1}")
    return 0


def cmd_section(args) -> int:
    if args.cubic and args.point is None:
        raise UsageError("section --cubic needs --point a,b,c")
    if args.quartic and (args.span is None or args.span.count(";") != 1):
        raise UsageError("section --quartic needs --span 'L1;L2'")
    f = parse_poly(args.f)
    if args.cubic:
        point = _parse_point(args.point)
        m = cubic_section(point, f)
    else:
        s1, s2 = args.span.split(";")
        m = quartic_section((parse_poly(s1), parse_poly(s2)), f)
    sys.stdout.write(format_matrix_file(m))
    if args.cubic:
        adapted = adapt_to_point(point, f)
        det = determinant(m)
        ok = det == adapted
        print(f"# det check: {det} == f (adapted frame): {'ok' if ok else 'FAIL'}")
    else:
        adapted = adapt_to_span((parse_poly(s1), parse_poly(s2)), f)
        rec = quartic_reconstruct(m)
        ok = rec == adapted
        print(
            f"# reconstruction check: {rec} == f (adapted frame): "
            f"{'ok' if ok else 'FAIL'}"
        )
    return 0


def cmd_classify(args) -> int:
    case = _case(args.case, args.n)
    t = case.resolution(args.n)
    if args.polarization is not None:
        p = _parse_polarization(args.polarization)
    else:
        p = case.sample_polarization(args.n)
    labels = classify_shapes(t, p)
    destab = sum(1 for v in labels.values() if v)
    print(f"polarization: {p}")
    print(f"{len(labels)} shapes, {destab} destabilizing")
    for s, d in labels.items():
        print(f"{'D' if d else '.'} {s}")
    return 0


def cmd_hilbert(args) -> int:
    t, kernel = parse_resolution_spec(args.resolution)
    print(format_hilbert(hilbert_of_resolution(t, kernel)))
    return 0


def nonnegative_int(text: str) -> int:
    """An argparse type: an integer that is at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` where argparse would print usage and exit, so
    that a malformed command line ends in one ``error:`` line.  Subparsers
    share the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _dash_value_hint(message: str, argv: list[str]) -> str:
    """A hint when a missing argument or option value is explained by a value
    on the command line that starts with '-' (argparse reads it as an option)."""
    if "required" not in message and "expected one argument" not in message:
        return ""
    for tok in argv:
        if tok == "--":
            break
        option = re.fullmatch(r"--?[a-z][a-z-]*", tok.split("=", 1)[0])
        if tok.startswith("-") and not option:
            return (
                f"; a value starting with '-' such as {tok!r} is read as an option:"
                " write --opt=VALUE, or put positional values after '--'"
            )
    return ""


def _refuse_dash_dash_values(argv: list[str]) -> None:
    """argparse (CPython 3.11) turns ``--opt=--`` into the value [], which no
    command expects, so such an option is refused as having no value."""
    for tok in argv:
        if tok == "--":
            break
        name, eq, value = tok.partition("=")
        if eq and value == "--" and name.startswith("--"):
            raise UsageError(f"argument {name}: '--' is not a value")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="sheafmod",
        description="Exact semistability toolkit for sheaf morphisms on the plane",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="render the summary table and diff against the published data")
    p.add_argument("--case", help="restrict to one case id")
    p.add_argument("--n", type=int, help="restrict to one n")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("region", help="admissible polarization region of a case")
    p.add_argument("--case", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_region)

    p = sub.add_parser("codim", help="stratum codimension of a case")
    p.add_argument("--case", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_codim)

    p = sub.add_parser("check", help="check a matrix file against a case")
    p.add_argument("--case", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--budget", type=nonnegative_int, default=1000)
    p.add_argument("--witness-out")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("kernel", help="kernel line of a k x (k+1) matrix file")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("dual", help="duality transforms")
    p.add_argument("--type")
    p.add_argument("--polarization", help="lambdas;mus e.g. 1/6,5/12;1/3")
    p.add_argument("--matrix")
    p.add_argument("--table", help="r,chi,h0m1,h1m1,h0,h1,h0om,h1om")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("section", help="cubic/quartic section matrices")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--cubic", action="store_true")
    g.add_argument("--quartic", action="store_true")
    p.add_argument("--point", help="projective point a,b,c (cubic)")
    p.add_argument("--span", help="two linear forms separated by ';' (quartic)")
    p.add_argument("--f", required=True, help="the form to split")
    p.set_defaults(fn=cmd_section)

    p = sub.add_parser("classify", help="destabilizing/allowed shape partition")
    p.add_argument("--case", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--polarization")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("hilbert", help="Hilbert polynomial of a resolution spec")
    p.add_argument("resolution")
    p.set_defaults(fn=cmd_hilbert)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _refuse_dash_dash_values(argv)
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}{_dash_value_hint(str(exc), argv)}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: ran out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

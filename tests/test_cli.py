import contextlib
import io
import json
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from sheafmod.cli import main
from sheafmod.polymatrix import monomial_basis, parse_poly


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hilbert_command(capsys):
    # degree 2 (coefficients 1/2 and -1), the zero class, and ker= terms
    for spec, text in [
        ("src=(-2)x1,(-1)x2 tgt=(0)x3", "4*t + 3"),
        ("src=(-1)x1 tgt=(0)x2", "1/2*t^2 + 5/2*t + 2"),
        ("src=(0)x3 tgt=(-1)x1", "-1*t^2 - 4*t - 3"),
        ("src=(-2)x1,(0)x1 tgt=(-2)x1,(0)x1", "0"),
        ("src=(-3)x2 tgt=(0)x1 ker=(-5)", "1*t + 5"),
        ("src=(-3)x1 tgt=(-2)x1,(1)x1 ker=(-1)", "1*t^2 + 4*t + 2"),
    ]:
        assert run_cli(["hilbert", spec], capsys) == (0, text + "\n", ""), spec


def test_region_command(capsys):
    code, out, _ = run_cli(["region", "--case", "M(n+2,n):omega1", "--n", "3"], capsys)
    assert code == 0
    assert "(0, 0), (1/8, 1/4), (1/4, 1/4)" in out
    code, out, _ = run_cli(["region", "--case", "M(4,1):h1=1", "--n", "1"], capsys)
    assert "0 < l1 < 1/2" in out


def test_region_json_schema(capsys):
    code, out, _ = run_cli(
        ["region", "--case", "M(n+2,n):omega1", "--n", "3", "--json"], capsys
    )
    doc = json.loads(out)
    assert doc["free_vars"] == ["l1", "m1"]
    assert doc["affine_dim"] == 2
    assert ["1/8", "1/4"] in doc["vertices"]
    assert all(set(f) == {"expr", "strict"} for f in doc["facets"])


def test_codim_command(capsys):
    code, out, _ = run_cli(["codim", "--case", "M(4,1):h1=1", "--n", "1"], capsys)
    assert code == 0 and out.strip() == "2"


def test_table_all_blocks(capsys):
    code, out, _ = run_cli(["table"], capsys)
    assert code == 0
    assert "17 blocks rendered." in out
    assert "All codimensions and regions match the published table." in out


def test_table_single_case(capsys):
    code, out, _ = run_cli(["table", "--case", "M(4,1):h1=1"], capsys)
    assert code == 0
    assert "codim 2" in out and "0 < l1 < 1/2" in out


def test_table_byte_identical(capsys):
    _, out1, _ = run_cli(["table"], capsys)
    _, out2, _ = run_cli(["table"], capsys)
    assert out1 == out2


def test_table_json(capsys):
    code, out, _ = run_cli(["table", "--json"], capsys)
    doc = json.loads(out)
    assert len(doc) == 17
    ids = {c["id"] for c in doc}
    assert "M(7,4):omega2" in ids


def test_kernel_command(tmp_path, capsys):
    f = tmp_path / "two_by_three.mat"
    f.write_text("type: src=(-1)x3 tgt=(0)x2\nX | Y | 0\n0 | X | Y\n")
    code, out, _ = run_cli(["kernel", str(f)], capsys)
    assert code == 0 and out.strip() == "(Y^2 | -X*Y | X^2), d=2"


def test_dual_commands(tmp_path, capsys):
    code, out, _ = run_cli(["dual", "--type", "src=(-2)x4 tgt=(-1)x3,(1)x1"], capsys)
    assert out.strip() == "src=(-3)x1,(-1)x3 tgt=(0)x4"
    code, out, _ = run_cli(
        [
            "dual",
            "--type",
            "src=(-2)x1,(-1)x2 tgt=(0)x3",
            "--polarization",
            "1/6,5/12;1/3",
        ],
        capsys,
    )
    lines = out.strip().splitlines()
    assert lines[-1] == "1/3;5/12,1/6"
    f = tmp_path / "m.mat"
    f.write_text("type: src=(-1)x3 tgt=(0)x2\nX | Y | 0\n0 | X | Y\n")
    code, out, _ = run_cli(["dual", "--matrix", str(f)], capsys)
    assert "type: src=(-2)x2 tgt=(-1)x3" in out


def test_section_commands(capsys):
    code, out, _ = run_cli(
        ["section", "--cubic", "--point", "0,0,1", "--f", "X^2*Z"], capsys
    )
    assert code == 0 and "det check" in out and "ok" in out
    code, out, _ = run_cli(
        ["section", "--quartic", "--span", "X;Y", "--f", "X^4"], capsys
    )
    assert code == 0 and "reconstruction check" in out and "ok" in out


def test_cubic_section_away_from_the_origin_point(capsys):
    # f = (2X - Y)(X^2 + Y^2 + Z^2) vanishes at (1:2:3), so the frame changes
    f = "2*X^3+2*X*Y^2+2*X*Z^2-X^2*Y-Y^3-Y*Z^2"
    code, out, _ = run_cli(["section", "--cubic", "--point", "1,2,3", "--f", f], capsys)
    last = out.splitlines()[-1]
    assert code == 0 and last.startswith("# det check: ") and last.endswith(": ok")


def test_check_roundtrip_and_seed(tmp_path, capsys):
    f = tmp_path / "koszul.mat"
    f.write_text(
        "type: src=(-2)x2,(-1)x3 tgt=(-1)x1,(0)x3 zero=(2,1)\n"
        "X | Y | 0 | 0 | 0\n"
        "X^2 | Y*Z | -Y | X | 0\n"
        "Z^2 - X*Y | X^2 + Y^2 | -Z | 0 | X\n"
        "X*Z | Y^2 | 0 | -Z | Y\n"
    )
    args = ["check", "--case", "M(n,3):h0m1=1", "--n", "4", "--seed", "5",
            "--budget", "100", str(f)]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "phi22_koszul: ok" in out1


def test_matrix_emit_reparse(tmp_path, capsys):
    f = tmp_path / "m.mat"
    text = "type: src=(-1)x3 tgt=(0)x2\nX | Y | 0\n0 | X | Y\n"
    f.write_text(text)
    code, out, _ = run_cli(["dual", "--matrix", str(f)], capsys)
    g = tmp_path / "d.mat"
    g.write_text(out)
    code, out2, _ = run_cli(["dual", "--matrix", str(g)], capsys)
    assert out2 == text


def test_exit_codes(capsys):
    # an unknown case is a usage error
    code, _, err = run_cli(["codim", "--case", "nope", "--n", "3"], capsys)
    assert code == 2 and "error" in err
    # usage error: one line and exit 2
    code, out, err = run_cli(["codim", "--bogus-flag"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--case" in err


def test_classify_command(capsys):
    code, out, _ = run_cli(["classify", "--case", "M(4,2):omega1", "--n", "2"], capsys)
    assert code == 0
    assert "destabilizing" in out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sheafmod.cli", "codim", "--case", "M(5,2):h1=1", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "3"


def test_codim_reads_the_n_codim_range(capsys):
    # n = 1 lies outside the case's table range 2..10 but inside its
    # n_codim range 1..10
    assert run_cli(["codim", "--case", "M(n+1,n):h0m1=0", "--n", "1"], capsys) == (0, "0\n", "")


TINY_REGISTRY = (
    "[case M(2,1):tiny]\n"
    "r = 2\nchi = 1\nn = 1..1\nconditions = h0(F(-1))=0\n"
    "table = h0m1=0, h1=0, h1om=0\n"
    "resolution = src=(-2)x1 tgt=(0)x1\n"
    "stabilizer = 0\nextra_constraints = 0\nregion = slope l1\n"
    "checks = det_nonzero\n"
)


def test_registry_env_override(tmp_path, monkeypatch):
    import sheafmod.registry as registry

    path = tmp_path / "reg.txt"
    path.write_text(TINY_REGISTRY)
    monkeypatch.setenv(registry.REGISTRY_ENV_VAR, str(path))
    registry.load_registry.cache_clear()
    try:
        cases = registry.load_registry()
        assert len(cases) == 1 and cases[0].id == "M(2,1):tiny"
    finally:
        registry.load_registry.cache_clear()


def test_table_refuses_a_case_the_published_table_lacks(tmp_path, monkeypatch, capsys):
    import sheafmod.registry as registry

    path = tmp_path / "reg.txt"
    path.write_text(TINY_REGISTRY)
    monkeypatch.setenv(registry.REGISTRY_ENV_VAR, str(path))
    registry.load_registry.cache_clear()
    try:
        code, out, err = run_cli(["table"], capsys)
    finally:
        registry.load_registry.cache_clear()
    assert (code, out) == (1, "")
    assert err == "error: the published table has no row for case 'M(2,1):tiny'\n"


@pytest.mark.parametrize(
    "expr",
    [
        "().__class__",
        # once one Python frame per unary minus, several per parenthesis
        "-" * 3000 + "n",
        "(" * 3000 + "n" + ")" * 3000,
    ],
    ids=["attribute", "deep-minus", "deep-parentheses"],
)
def test_registry_rejects_expressions_outside_the_grammar(
    expr, tmp_path, monkeypatch, capsys
):
    import sheafmod.registry as registry

    path = tmp_path / "reg.txt"
    path.write_text(
        "[case M(2,1):tiny]\n"
        f"r = {expr}\nchi = 1\nn = 1..1\nconditions = h0(F(-1))=0\n"
        "table = h0m1=0, h1=0, h1om=0\n"
        "resolution = src=(-2)x1 tgt=(0)x1\n"
        "stabilizer = 0\nextra_constraints = 0\nregion = slope l1\n"
        "checks = det_nonzero\n"
    )
    monkeypatch.setenv(registry.REGISTRY_ENV_VAR, str(path))
    registry.load_registry.cache_clear()
    try:
        code, out, err = run_cli(["table"], capsys)
    finally:
        registry.load_registry.cache_clear()
    assert (code, out) == (1, "")
    assert err == (
        f"error: registry case 'M(2,1):tiny' has an expression {expr!r} in 'r' that is "
        "not terms c, n or c*n joined by + or -\n"
    )


@pytest.mark.parametrize(
    "key",
    ["r", "chi", "n", "conditions", "table", "stabilizer", "extra_constraints", "region"],
)
@pytest.mark.parametrize(
    "argv", [["table", "--n", "3"], ["codim", "--case", "M(n+1,n):h0m1=0", "--n", "3"]]
)
def test_registry_without_a_required_key_is_one_error_line(
    key, argv, tmp_path, monkeypatch, capsys
):
    import sheafmod.registry as registry

    text = resources.files("sheafmod").joinpath("data/registry.txt").read_text()
    path = tmp_path / "reg.txt"
    path.write_text(re.sub(rf"(?m)^{key} = .*\n", "", text))
    monkeypatch.setenv(registry.REGISTRY_ENV_VAR, str(path))
    registry.load_registry.cache_clear()
    try:
        code, out, err = run_cli(argv, capsys)
    finally:
        registry.load_registry.cache_clear()
    assert (code, out) == (1, "")
    assert err == f"error: registry case 'M(n+1,n):h0m1=0' has no {key!r} line\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("chekcs = det_nonzero", "has an unknown key in line 'chekcs = det_nonzero'"),
        ("checks = det_nonzero\nchecks = det_nonzero", "has a repeated key in line 'checks = det_nonzero'"),
        ("checks det_nonzero", "has no '=' in line 'checks det_nonzero'"),
        # the published quotient column lives in goldens, not in the registry
        ("quotient = geometric\nchecks = det_nonzero",
         "has an unknown key in line 'quotient = geometric'"),
    ],
    ids=["unknown-key", "repeated-key", "no-equals", "quotient-key"],
)
@pytest.mark.parametrize(
    "argv", [["table", "--n", "3"], ["codim", "--case", "M(n+1,n):h0m1=0", "--n", "3"]]
)
def test_registry_with_a_malformed_line_is_one_error_line(
    line, message, argv, tmp_path, monkeypatch, capsys
):
    # the first case's "checks = det_nonzero" line, misspelled, doubled or
    # without its "=", which were once dropped or merged silently
    import sheafmod.registry as registry

    text = resources.files("sheafmod").joinpath("data/registry.txt").read_text()
    path = tmp_path / "reg.txt"
    path.write_text(text.replace("checks = det_nonzero\n", line + "\n", 1))
    monkeypatch.setenv(registry.REGISTRY_ENV_VAR, str(path))
    registry.load_registry.cache_clear()
    try:
        code, out, err = run_cli(argv, capsys)
    finally:
        registry.load_registry.cache_clear()
    assert (code, out) == (1, "")
    assert err == f"error: registry case 'M(n+1,n):h0m1=0' {message}\n"


def test_table_mismatches_are_one_stderr_line(tmp_path, monkeypatch, capsys):
    # a block that loads but disagrees with the published codimension and
    # region, once reported on two stderr lines
    import sheafmod.registry as registry

    text = resources.files("sheafmod").joinpath("data/registry.txt").read_text()
    start = text.index("[case M(6,3):h1=1]")
    block = text[start:].replace("extra_constraints = 0", "extra_constraints = 1", 1)
    text = text[:start] + block.replace("region = slope", "region = slope l2", 1)
    path = tmp_path / "reg.txt"
    path.write_text(text)
    monkeypatch.setenv(registry.REGISTRY_ENV_VAR, str(path))
    registry.load_registry.cache_clear()
    try:
        code, out, err = run_cli(["table", "--case=M(6,3):h1=1", "--n=3"], capsys)
    finally:
        registry.load_registry.cache_clear()
    assert code == 1 and "1 blocks rendered." in out
    assert err == (
        "MISMATCH: M(6,3):h1=1 n=3: codim 5 != published; "
        "M(6,3):h1=1 n=3: region != published\n"
    )


_CODIM_63 = ["codim", "--case", "M(6,3):h1=1", "--n", "3"]


@pytest.mark.parametrize(
    "case_id, old, new, argv, message",
    [
        (
            "M(6,3):h1=1", "resolution = src=(-3)x1,(-1)x[n] tgt=(0)x[n+1]\n", "", _CODIM_63,
            "registry case 'M(6,3):h1=1' needs a 'resolution' line: h1(F) = 1 at n=3 "
            "gives its Beilinson monad a term C^1",
        ),
        (
            "M(6,3):h1=1", "(-1)x[n] ", "(-1)x[10*n] ", _CODIM_63,
            "registry case 'M(6,3):h1=1' has a resolution with Hilbert polynomial "
            "-27/2*t^2 - 15/2*t + 3 at n=3, not 6*t + 3",
        ),
        # an affine multiplicity of slope 2, once a quadratic one
        (
            "M(n,3):h0m1=1", "h1om=n-3", "h1om=2*n-3",
            ["codim", "--case", "M(n,3):h0m1=1", "--n", "4"],
            "registry case 'M(n,3):h0m1=1' has a multiplicity of O(-1) in its "
            "Beilinson monad that is not a constant, [n] or [n+c]: [5, 7, 9, 11]",
        ),
        # the stabilizer is read at load, so region refuses it as codim does
        (
            "M(n+2,n):omega1", "stabilizer = n-1", "stabilizer = n-5",
            ["codim", "--case", "M(n+2,n):omega1", "--n", "3"],
            "stabilizer n-5 of case M(n+2,n):omega1 is negative at n=3",
        ),
        (
            "M(n+2,n):omega1", "stabilizer = n-1", "stabilizer = n-5",
            ["region", "--case", "M(n+2,n):omega1", "--n", "4"],
            "stabilizer n-5 of case M(n+2,n):omega1 is negative at n=3",
        ),
        # every expression is checked at load, and its refusal names the
        # case and the key
        (
            "M(n+2,n):omega1", "stabilizer = n-1", "stabilizer = n-x",
            ["region", "--case", "M(n+2,n):omega1", "--n", "4"],
            "registry case 'M(n+2,n):omega1' has an expression 'n-x' in 'stabilizer' "
            "that is not terms c, n or c*n joined by + or -",
        ),
        (
            "M(6,3):h1=1", "chi = n", "chi = n+x", _CODIM_63,
            "registry case 'M(6,3):h1=1' has an expression 'n+x' in 'chi' "
            "that is not terms c, n or c*n joined by + or -",
        ),
        (
            "M(6,3):h1=1", "h0om=n", "h0om=n*n", _CODIM_63,
            "registry case 'M(6,3):h1=1' has an expression 'n*n' in 'table' "
            "that is not terms c, n or c*n joined by + or -",
        ),
        (
            "M(6,3):h1=1", "(-1)x[n] ", "(-1)x[n%2] ", _CODIM_63,
            "registry case 'M(6,3):h1=1' has an expression 'n%2' in 'resolution' "
            "that is not terms c, n or c*n joined by + or -",
        ),
        # an empty range once rendered a block with no rows, or refused n
        # as outside it
        (
            "M(n+1,n):h0m1=0", "n = 2..10", "n = 3..2", ["table"],
            "registry case 'M(n+1,n):h0m1=0' has an empty 'n' range 3..2",
        ),
        (
            "M(n+1,n):h0m1=0", "n_codim = 1..10", "n_codim = 3..2",
            ["codim", "--case", "M(n+1,n):h0m1=0", "--n", "3"],
            "registry case 'M(n+1,n):h0m1=0' has an empty 'n_codim' range 3..2",
        ),
        # the load reads every n of a range, so a wide one is refused before
        # any n is read
        (
            "M(n,3):h0m1=1+ker", "n = 8..15", "n = 8..1000000000", ["table"],
            "registry case 'M(n,3):h0m1=1+ker' has an 'n' range 8..1000000000 of "
            "999999993 values; at most 1000 are allowed",
        ),
        (
            "M(n+1,n):h0m1=0", "n_codim = 1..10", "n_codim = 1..1001",
            ["codim", "--case", "M(n+1,n):h0m1=0", "--n", "3"],
            "registry case 'M(n+1,n):h0m1=0' has an 'n_codim' range 1..1001 of "
            "1001 values; at most 1000 are allowed",
        ),
        # a malformed range or count once surfaced as Python's own unpacking
        # or int() message, naming neither the case nor the key
        (
            "M(n+1,n):h0m1=0", "n = 2..10", "n = 1..2..3", ["table"],
            "registry case 'M(n+1,n):h0m1=0' has an 'n' value '1..2..3' that is not "
            "a range lo..hi of integers",
        ),
        (
            "M(n+1,n):h0m1=0", "n = 2..10", "n = 5", ["table"],
            "registry case 'M(n+1,n):h0m1=0' has an 'n' value '5' that is not "
            "a range lo..hi of integers",
        ),
        (
            "M(n+1,n):h0m1=0", "n_codim = 1..10", "n_codim = 1-3",
            ["codim", "--case", "M(n+1,n):h0m1=0", "--n", "3"],
            "registry case 'M(n+1,n):h0m1=0' has an 'n_codim' value '1-3' that is not "
            "a range lo..hi of integers",
        ),
        (
            "M(n+1,n):h0m1=0", "extra_constraints = 0", "extra_constraints = x", ["table"],
            "registry case 'M(n+1,n):h0m1=0' has an 'extra_constraints' value 'x' "
            "that is not an integer",
        ),
        # a misspelled tag once loaded, and only ``check`` refused it
        (
            "M(n+1,n):h0m1=0", "checks = det_nonzero", "checks = det_nonzer", ["table"],
            "registry case 'M(n+1,n):h0m1=0' has an unknown 'checks' tag 'det_nonzer'",
        ),
        # a tag on a block the type lacks once loaded, and ``check`` ended in
        # an IndexError
        (
            "M(n+1,n):h0m1=0", "checks = det_nonzero", "checks = phi22_li", ["table"],
            "registry case 'M(n+1,n):h0m1=0' has a 'checks' tag 'phi22_li' on block "
            "(2,2), which its resolution lacks at n=2",
        ),
        # a record with a resolution line once never read its table, and a
        # derived record's table refusal named no case
        (
            "M(6,3):h1=1", "table = h0m1=0, h1=1,", "table = h0m1=0, bogus=7,", ["table"],
            "registry case 'M(6,3):h1=1' has a 'table' that does not complete at n=3: "
            "unknown table entry 'bogus'",
        ),
        (
            "M(n+1,n):h0m1=0", "table = h0m1=0, h1=0,", "table = h1=0,", ["table"],
            "registry case 'M(n+1,n):h0m1=0' has a 'table' that does not complete at n=1: "
            "pair (h0m1,h1m1) is underdetermined",
        ),
        # the slope rule reads square types only, and other region values
        # name a catalog
        (
            "M(n,3):h0m1=1", "region = tri_n3", "region = slope", ["table"],
            "registry case 'M(n,3):h0m1=1' has 'region = slope' on a resolution "
            "that is not square at n=4",
        ),
        (
            "M(n+1,n):h0m1=0", "region = slope", "region = tri_two l1", ["table"],
            "registry case 'M(n+1,n):h0m1=0' has an unknown region reference 'tri_two l1'",
        ),
        (
            "M(n+1,n):h0m1=0", "region = slope", "region = iv_linear", ["table"],
            "registry case 'M(n+1,n):h0m1=0' has an unknown region reference 'iv_linear'",
        ),
    ],
    ids=["no-resolution", "resolution-off-euler", "quadratic-h1om", "negative-stabilizer",
         "negative-stabilizer-region", "word-stabilizer", "word-chi", "square-table",
         "modulo-placeholder",
         "empty-n", "empty-n_codim", "wide-n", "wide-n_codim", "dotted-n", "single-n",
         "dashed-n_codim", "word-extra_constraints", "unknown-check", "tag-without-block",
         "unknown-table-entry", "underdetermined-table", "slope-not-square",
         "catalog-with-coords", "deleted-catalog"],
)
def test_registry_block_refused_at_load_is_one_error_line(
    case_id, old, new, argv, message, tmp_path, monkeypatch, capsys
):
    import sheafmod.registry as registry

    text = resources.files("sheafmod").joinpath("data/registry.txt").read_text()
    start = text.index(f"[case {case_id}]")
    assert old in text[start:].split("\n\n")[0]
    path = tmp_path / "reg.txt"
    path.write_text(text[:start] + text[start:].replace(old, new, 1))
    monkeypatch.setenv(registry.REGISTRY_ENV_VAR, str(path))
    registry.load_registry.cache_clear()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(argv, capsys)
    finally:
        registry.load_registry.cache_clear()
    assert (code, out, err) == (1, "", f"error: {message}\n")
    # the shipped registry loads in milliseconds; a refusal must not take
    # longer than a load
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "argv", [["table", "--n", "3"], ["region", "--case", "M(n+1,n):h0m1=0", "--n", "3"]]
)
def test_slope_in_weights_the_type_lacks_is_one_error_line(argv, tmp_path, monkeypatch, capsys):
    import sheafmod.registry as registry

    text = resources.files("sheafmod").joinpath("data/registry.txt").read_text()
    path = tmp_path / "reg.txt"
    path.write_text(text.replace("region = slope\n", "region = slope x9\n", 1))
    monkeypatch.setenv(registry.REGISTRY_ENV_VAR, str(path))
    registry.load_registry.cache_clear()
    try:
        code, out, err = run_cli(argv, capsys)
    finally:
        registry.load_registry.cache_clear()
    assert (code, out) == (1, "")
    assert err == (
        "error: coords ('x9',) are not the free weights ('l1',) of "
        "1O(-2)+2O(-1) -> 3O(0)\n"
    )
from hypothesis import given, settings, strategies as st

_affine_term = st.one_of(
    st.just("n"), st.integers(0, 20).map(str), st.integers(0, 20).map(lambda c: f"{c}*n")
)


@st.composite
def _affine(draw):
    """An optional leading "-", then terms c, n or c*n joined by + or -."""
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"), _affine_term), min_size=1, max_size=5))
    return draw(st.sampled_from(["", "-"])) + terms[0][1] + "".join(s + t for s, t in terms[1:])


@settings(max_examples=300, deadline=None)
@given(_affine(), st.integers(-3, 12))
def test_registry_expressions_match_python(expr, n):
    from sheafmod.registry import _ev

    assert _ev(expr, n) == eval(expr, {"__builtins__": {}}, {"n": n})


@settings(max_examples=60, deadline=None)
@given(_affine(), st.sampled_from(["({})", "n*n+{}", "{}//2", "{}%3", "{}==1", "{}<n", "{}>=0"]))
def test_registry_refuses_non_affine_expressions_in_one_line(tmp_path_factory, expr, template):
    import sheafmod.registry as registry

    bad = template.format(expr)
    with pytest.raises(ValueError, match="bad registry expression"):
        registry._ev(bad, 3)
    path = tmp_path_factory.getbasetemp() / "non-affine-registry.txt"
    path.write_text(
        "[case M(2,1):tiny]\n"
        f"r = 2\nchi = {bad}\nn = 1..1\nconditions = h0(F(-1))=0\n"
        "table = h0m1=0, h1=0, h1om=0\n"
        "resolution = src=(-2)x1 tgt=(0)x1\n"
        "stabilizer = 0\nextra_constraints = 0\nregion = slope l1\n"
        "checks = det_nonzero\n"
    )
    registry.load_registry.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(registry.REGISTRY_ENV_VAR, str(path))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["table"])
    finally:
        registry.load_registry.cache_clear()
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() == (
        f"error: registry case 'M(2,1):tiny' has an expression {bad!r} in 'chi' that is "
        "not terms c, n or c*n joined by + or -\n"
    )


def test_registry_bad_header_is_a_value_error(tmp_path):
    import sheafmod.registry as registry

    path = tmp_path / "reg.txt"
    path.write_text("r = 2\nchi = 1\n")
    with pytest.raises(ValueError, match="case"):
        registry.load_registry(str(path))


def test_matrix_parse_error_carries_position(tmp_path, capsys):
    f = tmp_path / "bad.mat"
    f.write_text("type: src=(-1)x2 tgt=(0)x1\nX | Y +\n")
    code, _, err = run_cli(["kernel", str(f)], capsys)
    assert code == 1
    assert "line 2, entry 2" in err


def test_witness_out_has_literal_block(tmp_path, capsys):
    from sheafmod.polymatrix import parse_matrix_file

    f = tmp_path / "planted.mat"
    f.write_text(
        "type: src=(-2)x1,(-1)x2 tgt=(0)x3\n"
        "X^2 | X | X\n"
        "Y^2 | Y | Y\n"
        "Z^2 | Z | Z\n"
    )
    out = tmp_path / "witness.mat"
    code, stdout, _ = run_cli(
        [
            "check", "--case", "M(n+1,n):h0m1=0", "--n", "3",
            "--budget", "50", "--seed", "1", "--witness-out", str(out), str(f),
        ],
        capsys,
    )
    assert code == 0 and "destabilized" in stdout
    text = out.read_text()
    m = parse_matrix_file(text)
    assert any(e.is_zero for row in m.entries for e in row)
    assert "# row transform:" in text and "# column transform:" in text


@pytest.mark.parametrize(
    "args, needed",
    [
        (["table", "--case", ""], "no case '' in the registry"),
        (["classify", "--case", "M(4,2):omega1", "--n", "2", "--polarization", ""],
         "--polarization"),
        (["check", "--case", "M(n+1,n):h0m1=0", "--n", "3", "--witness-out", "", "planted.mat"],
         "--witness-out"),
        (["dual", "--type", "src=(-1)x1 tgt=(0)x1", "--polarization", ""], "--polarization"),
    ],
)
def test_an_empty_flag_value_is_a_usage_error(args, needed, tmp_path, monkeypatch, capsys):
    # an empty value is a value: no full table, no sample polarization, and
    # no witness found on the planted member and left unwritten
    monkeypatch.chdir(tmp_path)
    (tmp_path / "planted.mat").write_text(
        "type: src=(-2)x1,(-1)x2 tgt=(0)x3\nX^2 | X | X\nY^2 | Y | Y\nZ^2 | Z | Z\n"
    )
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needed in err


@pytest.mark.parametrize(
    "args, covered",
    [
        (["region", "--case", "M(n+2,n):omega1", "--n", "99"], "3..6"),
        (["region", "--case", "M(n+2,n):omega1", "--n", "2", "--json"], "3..6"),
        (["codim", "--case", "M(n+2,n):omega1", "--n", "7"], "3..6"),
        (["codim", "--case", "M(4,1):h1=1", "--n", "0"], "1..1"),
        (["table", "--case", "M(n+2,n):omega1", "--n", "99"], "3..6"),
        (["classify", "--case", "M(4,2):omega0", "--n", "99"], "2..2"),
        # without --case no block covers the n: no silent empty table
        (["table", "--n", "99"], "1..15"),
        (["table", "--n", "-5", "--json"], "1..15"),
    ],
)
def test_out_of_range_n_is_a_usage_error(args, covered, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and covered in err


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--case", "nosuch"],
        ["table", "--case", "nosuch", "--n", "3", "--json"],
        ["region", "--case", "nosuch", "--n", "3"],
        ["codim", "--case", "nosuch", "--n", "3"],
        ["check", "--case", "nosuch", "--n", "3", "no-such.mat"],
    ],
)
def test_unknown_case_is_a_usage_error(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err == "error: no case 'nosuch' in the registry\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--polarization", "0;1"], "polarization weights must be strictly positive"),
        (["--matrix", "no-such.mat"], "No such file"),
    ],
)
def test_dual_prints_nothing_before_an_error(extra, message, tmp_path, monkeypatch, capsys):
    # the dual type must not be printed before a later argument fails
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["dual", "--type", "src=(-1)x1 tgt=(0)x1", *extra], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_check_out_of_range_n(tmp_path, capsys):
    f = tmp_path / "m.mat"
    f.write_text("type: src=(-2)x1,(-1)x2 tgt=(0)x3\nX^2 | X | X\nY^2 | Y | Y\nZ^2 | Z | Z\n")
    code, out, err = run_cli(
        ["check", "--case", "M(n+1,n):h0m1=0", "--n", "40", str(f)], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args, needed",
    [
        (["section", "--cubic", "--f", "X^2*Z"], "--point"),
        (["section", "--quartic", "--f", "X^4"], "--span"),
    ],
)
def test_section_missing_argument(args, needed, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needed in err


def test_matrix_zero_denominator(tmp_path, capsys):
    f = tmp_path / "zero.mat"
    f.write_text("type: src=(-1)x2 tgt=(0)x1\n1/0*X | Y\n")
    code, out, err = run_cli(["kernel", str(f)], capsys)
    assert code == 1 and out == ""
    assert err == "error: line 2, entry 1: zero denominator in '1/0*X'\n"


@pytest.mark.parametrize(
    "args, needed",
    [
        (["section", "--quartic", "--span", "X", "--f", "X^4"], "--span"),
        (["section", "--quartic", "--span", "X;Y;Z", "--f", "X^4"], "--span"),
        (
            ["dual", "--type", "src=(-2)x1,(-1)x2 tgt=(0)x3",
             "--polarization", "1/6,5/12"],
            "--polarization",
        ),
        (["dual", "--table", "4,1"], "--table"),
        (["dual", "--table", "4,1,0,3,1,0,0,2,7"], "--table"),
        (["dual", "--table", "4,1,x,3,1,0,0,2"], "--table"),
        (["classify", "--case", "M(4,2):omega1", "--n", "2", "--polarization", "1/2"],
         "--polarization"),
        (["dual"], "dual needs one of"),
        (["dual", "--polarization", "1/6,5/12;1/3"], "--polarization needs --type"),
    ],
)
def test_malformed_argument_is_a_usage_error(args, needed, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needed in err


@pytest.mark.parametrize(
    "args, needed, dash_hint",
    [
        (["hilbert", "-(2)x1"], "required: resolution", True),
        (["table", "--n", "abc"], "invalid int value: 'abc'", False),
        (["classify", "--case", "M(4,2):omega1", "--n", "2", "--polarization", "-1/2;1/2"],
         "--polarization: expected one argument", True),
        (["frobnicate"], "invalid choice: 'frobnicate'", False),
        ([], "required: command", False),
    ],
)
def test_argparse_errors_are_one_line(args, needed, dash_hint, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needed in err
    assert ("--opt=VALUE" in err and "'--'" in err) == dash_hint


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "m.mat"
    f.write_text("type: src=(-1)x2 tgt=(0)x2\nX | Y\nY | X\n")
    code, out, err = run_cli(
        ["check", "--case", "M(4,1):h1=1", "--budget", "-5", str(f)], capsys
    )
    assert code == 2 and out == ""
    assert err == "error: sheafmod check: argument --budget: must be nonnegative, not -5\n"
    code, _, err = run_cli(["check", "--case", "M(4,1):h1=1", "--budget", "x", str(f)], capsys)
    assert code == 2 and err.endswith("argument --budget: invalid int value: 'x'\n")
    script = Path(__file__).resolve().parent.parent / "scripts" / "random_verdicts.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--budget", "-1"], capture_output=True, text=True
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith("argument --budget: must be nonnegative, not -1")


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # random.Random(-3) draws what random.Random(3) draws, so a negative seed
    # would silently repeat another run
    f = tmp_path / "m.mat"
    f.write_text("type: src=(-1)x2 tgt=(0)x2\nX | Y\nY | X\n")
    code, out, err = run_cli(
        ["check", "--case", "M(4,1):h1=1", "--seed", "-3", str(f)], capsys
    )
    assert code == 2 and out == ""
    assert err == "error: sheafmod check: argument --seed: must be nonnegative, not -3\n"


@pytest.mark.parametrize(
    "args, needed",
    [
        (["--n", "3"], "case M(n,3):h0m1=1 covers n = 4..7, not n = 3"),
        (["--n", "99"], "case M(n,3):h0m1=1 covers n = 4..7, not n = 99"),
        (["--trials", "-3"], "argument --trials: must be nonnegative, not -3"),
        (["--case", "nope"], "no case 'nope' in the registry"),
        (["--seed", "-3"], "argument --seed: must be nonnegative, not -3"),
    ],
)
def test_random_verdicts_refuses_bad_input(args, needed):
    script = Path(__file__).resolve().parent.parent / "scripts" / "random_verdicts.py"
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    last = proc.stderr.splitlines()[-1]
    assert "error: " in last and last.endswith(needed)


def test_help_still_prints_usage_and_exits_zero(capsys):
    for args in (["--help"], ["table", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sheafmod")


def test_kernel_relation_failure_is_one_error_line(tmp_path, monkeypatch, capsys):
    import sheafmod.polymatrix as polymatrix

    text = "type: src=(-1)x2 tgt=(0)x1\nX | Y\n"
    # wrong minors: X*X - Y*X is no syzygy of (X, Y)
    monkeypatch.setattr(polymatrix, "maximal_minors", lambda m: [polymatrix.X] * 2)
    with pytest.raises(ValueError, match="kernel relation failed"):
        polymatrix.kernel_line(polymatrix.parse_matrix_file(text))
    f = tmp_path / "m.mat"
    f.write_text(text)
    code, out, err = run_cli(["kernel", str(f)], capsys)
    assert code == 1 and out == ""
    assert err == "error: kernel relation failed; inconsistent twists\n"


def test_running_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a valid matrix file whose packed products exhaust memory; the products
    # are not built here, kernel_line raises as they would
    import sheafmod.cli as cli

    def exhausted(m):
        raise MemoryError

    monkeypatch.setattr(cli, "kernel_line", exhausted)
    f = tmp_path / "m.mat"
    f.write_text("type: src=(-1)x2 tgt=(0)x1\nX | Y\n")
    code, out, err = run_cli(["kernel", str(f)], capsys)
    assert (code, out, err) == (1, "", "error: ran out of memory\n")


# Hypothesis over the kernel command: matrix-file text in, exit 0, 1 or 2 out,
# at most one line on stderr and never a traceback.


def _monomial_text(t):
    return "*".join(f"{v}^{e}" for v, e in zip("XYZ", t) if e) or "1"


_FILE_CHARS = "XYZ^*+-/0123456789 |\n#:()x=,"


@st.composite
def _well_formed_kernel_file(draw):
    k = draw(st.integers(1, 3))
    deg = draw(st.integers(1, 2))
    rows = []
    for _ in range(k):
        cells = []
        for _ in range(k + 1):
            terms = "".join(
                f" {'-' if c < 0 else '+'} {abs(c)}*{_monomial_text(t)}"
                for t in monomial_basis(deg)
                if (c := draw(st.integers(-3, 3)))
            )
            cells.append(terms[1:].removeprefix("+ ") or "0")
        rows.append(" | ".join(cells))
    return f"type: src=({-deg})x{k + 1} tgt=(0)x{k}\n" + "\n".join(rows) + "\n"


def _mutated(text, draw, alphabet):
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.text(alphabet, max_size=4)) + text[j:]
    return text


@st.composite
def _malformed_kernel_file(draw):
    return _mutated(draw(_well_formed_kernel_file()), draw, _FILE_CHARS + "srctgk")


def _run_quietly(argv):
    """Run the CLI; it must exit 0, 1 or 2 with one stderr line exactly when
    it fails, and never print a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err and err.count("\n") == (code != 0)
    return code


def _run_kernel_file(path, text):
    for line in text.splitlines()[1:]:
        for cell in line.split("|"):
            try:
                parse_poly(cell)
            except ValueError:
                pass
    path.write_text(text)
    return _run_quietly(["kernel", str(path)])


@settings(max_examples=60, deadline=None)
@given(_well_formed_kernel_file())
def test_kernel_cli_fuzz_well_formed(tmp_path_factory, text):
    assert _run_kernel_file(tmp_path_factory.getbasetemp() / "fuzz.mat", text) == 0


@settings(max_examples=150, deadline=None)
@given(st.one_of(_malformed_kernel_file(), st.text(_FILE_CHARS, max_size=60)))
def test_kernel_cli_fuzz_malformed(tmp_path_factory, text):
    _run_kernel_file(tmp_path_factory.getbasetemp() / "fuzz.mat", text)


# The same contract for check (matrix files of a case's type), hilbert
# (resolution specs) and classify --polarization.

_CHECK_CASES = [("M(4,1):h1=1", 1), ("M(n+1,n):h0m1=0", 2), ("M(4,2):omega1", 2)]


@st.composite
def _well_formed_check_file(draw):
    from fractions import Fraction

    from sheafmod.polymatrix import HomogeneousPoly, PolyMatrix, format_matrix_file
    from sheafmod.registry import case_by_id

    case_id, n = draw(st.sampled_from(_CHECK_CASES))
    t = case_by_id(case_id).resolution(n)
    rows = []
    for l, (e, nl) in enumerate(t.target.summands):
        for _ in range(nl):
            row = []
            for i, (d, mi) in enumerate(t.source.summands):
                for _ in range(mi):
                    terms = {}
                    if e >= d and not t.is_zeroed(i, l):
                        for mono in monomial_basis(e - d):
                            terms[mono] = Fraction(draw(st.integers(-2, 2)))
                    row.append(HomogeneousPoly(terms))
            rows.append(row)
    return case_id, n, format_matrix_file(PolyMatrix(t, rows))


@st.composite
def _malformed_check_file(draw):
    case_id, n, text = draw(_well_formed_check_file())
    return case_id, n, _mutated(text, draw, _FILE_CHARS + "srctgk")


def _run_check_file(path, case_id, n, text):
    path.write_text(text)
    return _run_quietly(["check", "--case", case_id, "--n", str(n), "--budget", "0", str(path)])


@settings(max_examples=40, deadline=None)
@given(_well_formed_check_file())
def test_check_cli_fuzz_well_formed(tmp_path_factory, drawn):
    path = tmp_path_factory.getbasetemp() / "fuzz-check.mat"
    assert _run_check_file(path, *drawn) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        _malformed_check_file(),
        st.tuples(
            st.sampled_from([c for c, _ in _CHECK_CASES]),
            st.integers(0, 3),
            st.text(_FILE_CHARS, max_size=60),
        ),
    )
)
def test_check_cli_fuzz_malformed(tmp_path_factory, drawn):
    _run_check_file(tmp_path_factory.getbasetemp() / "fuzz-check.mat", *drawn)


@st.composite
def _mutated_resolution_spec(draw):
    from sheafmod.registry import load_registry

    case = draw(st.sampled_from(load_registry()))
    spec = case.resolution_spec.replace("[", "").replace("]", "")
    spec = spec.replace("n", str(draw(st.sampled_from(case.ns()))))
    return _mutated(spec, draw, "()x,=-0129 srctgkerzo")


@settings(max_examples=150, deadline=None)
@given(_mutated_resolution_spec())
def test_hilbert_cli_fuzz_mutated_spec(spec):
    # "--" keeps a spec that starts with "-" a positional argument
    _run_quietly(["hilbert", "--", spec])


@st.composite
def _mutated_polarization(draw):
    from sheafmod.registry import case_by_id

    case_id, n = draw(st.sampled_from(_CHECK_CASES))
    p = case_by_id(case_id).sample_polarization(n)
    text = ",".join(map(str, p.lambdas)) + ";" + ",".join(map(str, p.mus))
    return case_id, n, _mutated(text, draw, "0123456789/,;-. ")


@settings(max_examples=100, deadline=None)
@given(_mutated_polarization())
def test_classify_cli_fuzz_mutated_polarization(drawn):
    case_id, n, text = drawn
    _run_quietly(["classify", "--case", case_id, "--n", str(n), f"--polarization={text}"])


# The same contract for region, codim and table over --case and --n text:
# registry ids, near misses and arbitrary text, with n as digits, signs,
# spaces and letters.  "=" keeps a value that starts with "-" a value.

_CASE_IDS = ["M(n+2,n):omega1", "M(4,1):h1=1", "M(n,3):h0m1=1+ker", "M(4,2):omega0"]


@st.composite
def _case_and_n_text(draw):
    case_id = draw(
        st.one_of(
            st.sampled_from(_CASE_IDS),
            st.sampled_from(_CASE_IDS).map(lambda c: _mutated(c, draw, "Mn()+-,:=0123456789 omega")),
            st.text(max_size=12),
        )
    )
    n = draw(st.one_of(st.integers(-3, 20).map(str), st.text("0123456789-+ _.e", max_size=6), st.text(max_size=4)))
    return case_id, n


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["region", "codim", "table"]), _case_and_n_text(), st.booleans())
def test_case_commands_fuzz(command, drawn, json_flag):
    case_id, n = drawn
    argv = [command, f"--case={case_id}", f"--n={n}"]
    if json_flag and command != "codim":
        argv.append("--json")
    _run_quietly(argv)


# The same contract for the registry file itself: one block of the shipped
# registry mutated, loaded through SHEAFMOD_REGISTRY, and read by the
# commands that evaluate a case's expressions, resolution and region.

_REGISTRY_TEXT = resources.files("sheafmod").joinpath("data/registry.txt").read_text()
_REGISTRY_HEAD, *_REGISTRY_BLOCKS = re.split(r"(?m)^(?=\[case )", _REGISTRY_TEXT)


@st.composite
def _mutated_registry(draw):
    from sheafmod.registry import load_registry

    k = draw(st.integers(0, len(_REGISTRY_BLOCKS) - 1))
    case = load_registry()[k]
    blocks = list(_REGISTRY_BLOCKS)
    blocks[k] = _mutated(blocks[k], draw, "n+-*/%()[]0123456789.=,;:x \nsrctgzeo")
    return _REGISTRY_HEAD + "".join(blocks), case.id, draw(st.sampled_from(case.ns()))


@settings(max_examples=100, deadline=None)
@given(_mutated_registry(), st.sampled_from(["codim", "region", "table"]))
def test_registry_file_fuzz(tmp_path_factory, drawn, command):
    import sheafmod.registry as registry

    text, case_id, n = drawn
    path = tmp_path_factory.getbasetemp() / "fuzz-registry.txt"
    path.write_text(text)
    registry.load_registry.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(registry.REGISTRY_ENV_VAR, str(path))
            _run_quietly([command, f"--case={case_id}", f"--n={n}"])
    finally:
        registry.load_registry.cache_clear()


@pytest.mark.parametrize("count", ["[n]0", "0[n]"])
def test_a_placeholder_glued_to_a_digit_is_refused(tmp_path, count, capsys):
    # substituted as it stands, (-1)x[n]0 would read as (-1)x30 at n = 3
    import sheafmod.registry as registry

    spec = "resolution = src=(-3)x1,(-1)x[n] tgt=(0)x[n+1]\n"
    start = _REGISTRY_TEXT.index("[case M(6,3):h1=1]")
    text = _REGISTRY_TEXT[start:].replace(spec, spec.replace("x[n] ", f"x{count} "), 1)
    path = tmp_path / "registry.txt"
    path.write_text(_REGISTRY_TEXT[:start] + text)
    registry.load_registry.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(registry.REGISTRY_ENV_VAR, str(path))
            code, out, err = run_cli(["codim", "--case", "M(6,3):h1=1", "--n", "3"], capsys)
    finally:
        registry.load_registry.cache_clear()
    assert (code, out) == (1, "")
    assert err == (
        "error: a placeholder touches a digit or a placeholder in "
        f"'src=(-3)x1,(-1)x{count} tgt=(0)x[n+1]'\n"
    )


@pytest.mark.parametrize(
    "point, code, message",
    [
        ("0,0,0", 1, "(0:0:0) is not a projective point"),
        ("1,2", 2, "--point needs three comma-separated coordinates a,b,c, not 2"),
        ("1,2,3,4", 2, "--point needs three comma-separated coordinates a,b,c, not 4"),
        ("1/0,1,1", 2, "--point entry '1/0' is not a rational number"),
        ("1,x,1", 2, "--point entry 'x' is not a rational number"),
    ],
)
def test_section_point_messages(point, code, message, capsys):
    got, out, err = run_cli(["section", "--cubic", f"--point={point}", "--f", "X^3"], capsys)
    assert (got, out, err) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["section", "--cubic", "--point=--", "--f", "X^3"],
        ["region", "--case=--", "--n", "2"],
        ["table", "--n=--"],
        ["classify", "--case", "M(4,2):omega1", "--n", "2", "--polarization=--"],
    ],
)
def test_dash_dash_is_no_option_value(argv, capsys):
    # argparse on CPython 3.11 would hand the command an empty list instead
    code, out, err = run_cli(argv, capsys)
    name = next(a.split("=")[0] for a in argv if a.endswith("=--"))
    assert (code, out) == (2, "")
    assert err == f"error: argument {name}: '--' is not a value\n"


# The same contract for section (points, spans and forms) and dual (type
# specs, polarizations, cohomology tables and matrix files).


@st.composite
def _section_argv(draw):
    form_chars = "XYZ^*+-/0123456789 "
    if draw(st.booleans()):
        point = draw(st.sampled_from(["0,0,1", "1,2,3", "1/2,-1,0"]))
        point = draw(st.one_of(st.just(point), st.text(max_size=10)))
        point = _mutated(point, draw, "0123456789/,-. ") if draw(st.booleans()) else point
        f = "2*X^3+2*X*Y^2+2*X*Z^2-X^2*Y-Y^3-Y*Z^2"
        f = _mutated(f, draw, form_chars) if draw(st.booleans()) else f
        return ["section", "--cubic", f"--point={point}", f"--f={f}"]
    span = draw(st.sampled_from(["X;Y", "X+Y;Z", "2*X-Y;1/3*Z"]))
    span = _mutated(span, draw, "XYZ;+-*/0123 ") if draw(st.booleans()) else span
    f = "X^4 - X*Y^3 + Y*Z^3 + X^2*Z^2"
    f = _mutated(f, draw, form_chars) if draw(st.booleans()) else f
    return ["section", "--quartic", f"--span={span}", f"--f={f}"]


@settings(max_examples=150, deadline=None)
@given(_section_argv())
def test_section_cli_fuzz(argv):
    _run_quietly(argv)


@st.composite
def _dual_argv(draw):
    def value(text, alphabet):
        """Absent, as given, or mutated, a third of the time each."""
        how = draw(st.integers(0, 2))
        return None if how == 0 else text if how == 1 else _mutated(text, draw, alphabet)

    flags = {
        "--type": value("src=(-2)x1,(-1)x2 tgt=(0)x3", "()x,=-0129 srctgkerzo"),
        "--polarization": value("1/6,5/12;1/3", "0123456789/,;-. "),
        "--table": value("4,1,0,3,1,0,0,2", "0123456789,- x"),
    }
    argv = ["dual"] + [f"{k}={v}" for k, v in flags.items() if v is not None]
    matrix = value("type: src=(-1)x2 tgt=(0)x1\nX - 2*Y | 1/3*Z\n", _FILE_CHARS + "srctgk")
    return argv, matrix


@settings(max_examples=150, deadline=None)
@given(_dual_argv())
def test_dual_cli_fuzz(tmp_path_factory, drawn):
    argv, matrix = drawn
    if matrix is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz-dual.mat"
        path.write_text(matrix)
        argv.append(f"--matrix={path}")
    _run_quietly(argv)

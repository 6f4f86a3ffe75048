"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench/test_bench.py

They run every workload in both modes and check each metric's name and unit
against ``BENCHMARK.json``, show that every correctness gate fires on a
corrupted output (corrupted here, never in ``src/``), and check that the
command refuses to run without the sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import calibration  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sheafmod import goldens, stability  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REF = workloads.load_reference()
CHEAP_CASES = ("M(n+1,n):h0m1=0", "M(4,2):omega1", "M(6,3):omega0")


def tiny(name: str):
    if name == "kernel":
        return workloads.kernel_workload(REF, workloads.kernel_pool(REF, 6))
    if name == "verdicts":
        pool = [e for e in workloads.verdicts_pool(REF) if e[0].id in CHEAP_CASES]
        return workloads.verdicts_workload(REF, pool)
    if name == "search":
        return workloads.search_workload(REF, [1, 2])  # the 3x3 and the 2x2
    return workloads.build(name, REF)


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_and_units(quick, name, trace):
    result = run.run_workload(name, seed=5, seconds=0, trace=trace, wl=tiny(name))
    assert result["correct"], result["info"]["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if trace:
        spans = (quick / f"spans-{name}.tsv").read_text().splitlines()
        assert len(spans) == result["info"]["spans"] + 1


def test_layer_split_on_tiny_inputs(quick):
    search = run.run_workload("search", 5, 0, True, tiny("search"))["metrics"]
    assert search["stability.trials"]["value"] > 0
    assert search["stability.random_s"]["value"] > search["stability.exact_s"]["value"]
    verdicts = run.run_workload("verdicts", 5, 0, True, tiny("verdicts"))["metrics"]
    assert verdicts["stability.trials"]["value"] == 0
    assert verdicts["stability.exact_s"]["value"] > 0
    assert verdicts["polymatrix.as_dict.calls"]["value"] > 0
    table = run.run_workload("table", 5, 0, True)["metrics"]
    assert table["regions.solve.calls"]["value"] == 43
    assert table["bundles.parse.calls"]["value"] == 90
    assert table["polymatrix.form_ops.calls"]["value"] == 0


def test_tail_percentile_and_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.nearest_rank(values, 90) == (90.0, 10)
    assert run.nearest_rank(values[:3], 70) == (3.0, 0)
    assert run.ten_beyond_percentile(100) == 90
    assert run.ten_beyond_percentile(50) == 80
    assert run.ten_beyond_percentile(10) == 100


def test_times_are_scaled_by_the_probes_around_them():
    ref = calibration.REFERENCE_S
    s = calibration.Sampler()
    s.at, s.took = [0.0, 1.0, 2.0, 3.0], [ref, ref, 2 * ref, 2 * ref]
    assert s.scale(0.0, 0.5, 1.0) == 1.0
    assert s.scale(2.5, 3.0, 1.0) == 0.5
    assert s.scale(1.5, 1.6, 1.0) == pytest.approx(1 / 1.5)  # none in reach: nearest two


def test_sampler_probes_during_a_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibration.Sampler() as s:
        time.sleep(0.2)
    assert len(s.took) >= 4 and s.busy > 0
    assert signal.getsignal(signal.SIGALRM) is before


def test_table_gates_fire():
    rc, text = workloads.render_table()
    ref = REF["table"]
    assert workloads.gate_table((rc, text), ref) is None
    assert "exited" in workloads.gate_table((1, text), ref)
    assert "bytes" in workloads.gate_table((0, text.replace("codim", "codlm", 1)), ref)
    assert workloads.table_golden_mismatches() == []


def test_table_golden_gate_fires(monkeypatch):
    real = goldens.expected_codim
    monkeypatch.setattr(goldens, "expected_codim", lambda case_id, n: real(case_id, n) + 1)
    assert len(workloads.table_golden_mismatches()) == 45


def test_kernel_gates_fire():
    t, raw, want = workloads.kernel_pool(REF, 40)[-1]
    m = workloads.build_matrix(t, raw)
    beta, d = workloads.polymatrix.kernel_line(m)
    assert workloads.gate_kernel(m, (beta, d), want) is None
    assert "returned None" in workloads.gate_kernel(m, None, want)
    flipped = [-beta[0]] + list(beta[1:])
    assert "m * beta" in workloads.gate_kernel(m, (flipped, d), want)
    doubled = [b.scale(2) for b in beta]
    assert "recorded" in workloads.gate_kernel(m, (doubled, d), want)
    assert "recorded" in workloads.gate_kernel(m, (beta, d + 1), want)


def _report(case_id):
    (entry,) = [e for e in workloads.verdicts_pool(REF) if e[0].id == case_id]
    case, n, t, raw, want = entry
    m = workloads.build_matrix(t, raw)
    return m, workloads.check_case_budget0(m, case, n), want


def test_verdict_gates_fire():
    m, rep, want = _report("M(4,2):omega1")
    v = rep.verdict
    assert v.kind is stability.VerdictKind.DESTABILIZED and v.witness is not None
    assert workloads.gate_case_report(m, rep, want) is None
    bad_combo = tuple(tuple(Fraction(1) for _ in c) for c in v.witness.col_combos)
    bad_witness = dataclasses.replace(v.witness, col_combos=bad_combo)
    assert "verify" in workloads.gate_verdict(m, dataclasses.replace(v, witness=bad_witness), "destabilized")
    bare = dataclasses.replace(v, witness=None, note="")
    assert "closure note" in workloads.gate_verdict(m, bare, "destabilized")
    reopened = dataclasses.replace(v, kind=stability.VerdictKind.UNDETERMINED, witness=None)
    assert "became" in workloads.gate_verdict(m, reopened, "destabilized")
    flipped = dataclasses.replace(v, kind=stability.VerdictKind.CERTIFIED_SEMISTABLE, witness=None)
    assert "became" in workloads.gate_verdict(m, flipped, "destabilized")
    flags = dataclasses.replace(rep, flags={k: not f for k, f in rep.flags.items()})
    assert "flags" in workloads.gate_case_report(m, flags, want)


def test_undetermined_may_become_decided():
    m, rep, want = _report("M(6,3):omega0")
    assert want["kind"] == "undetermined"
    decided = dataclasses.replace(
        rep.verdict, kind=stability.VerdictKind.CERTIFIED_SEMISTABLE, undecided=()
    )
    assert workloads.gate_verdict(m, decided, "undetermined") is None


def test_command_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seconds", "0", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout

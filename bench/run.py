#!/usr/bin/env python3
"""The sheafmod benchmark.

    python3 bench/run.py --workload table|kernel|verdicts|search|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the benchmark imports ``sheafmod`` from the
checkout's ``src/`` and refuses to run (exit 2, no result) when it is absent.
Each workload runs in one process, one thread, as a closed loop with one
caller: the next call starts when the previous one has returned and its
output has been checked.  Correctness gates run outside the timed region.
A run repeats the workload's fixed cycle of inputs, in seeded orders, until
``--seconds`` have passed; the time of an input is the median of its calls.
Every time the benchmark reports is stated at a reference machine speed: a
fixed pure-Python probe (``calibration.py``) runs every 25 ms from a signal
handler, and a call's wall time, less the probe's, is scaled by the probe's
reference time over its median around the call, which keeps the figures
comparable on a machine whose speed drifts.  The wall-clock figures and the
probe's median are printed beside them.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the run first measures some items
untraced, then repeats the same items with spans around sheafmod's public
functions (see ``tracing.py``) and reports per-layer metrics, per item.
Spans go to ``bench/out/spans-<workload>.tsv`` and every result, with the
Python version, ``nproc`` and the git revision, is appended to
``bench/out/results.jsonl``.  ``--workload all`` runs the four workloads one
after another, each in its own process, and exits nonzero when any
correctness gate failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import REFERENCE_S, Sampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("table", "kernel", "verdicts", "search")

SETUP_STARTS = 15
PROBE_REPEATS = 41
TRACE_UNTRACED_SHARE = 1 / 3
PROBE_TIMEOUT_S = 60

# Runs in a fresh interpreter: cold import, first registry load, and the
# workload's input set-up, each timed separately, then the speed probe's
# median time in the same process.
SETUP_PROBE = f"""
import json, statistics, sys, time
t0 = time.perf_counter()
import sheafmod.cli
t1 = time.perf_counter()
from sheafmod.registry import load_registry
load_registry()
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.build(sys.argv[2])
t3 = time.perf_counter()
from calibration import probe
probe_s = statistics.median(probe() for _ in range({PROBE_REPEATS}))
print(json.dumps([t1 - t0, t2 - t1, t3 - t2, probe_s]))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times(workload: str) -> list[list[float]]:
    """[import, first load_registry, input set-up, speed probe] seconds
    per fresh start; one extra untimed start first so byte-code caches are
    written."""
    out = []
    for i in range(SETUP_STARTS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), workload],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        if i:
            out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def setup_median(setup: list[list[float]], parts: slice, scaled: bool = True) -> float:
    """Median over fresh starts of the summed set-up ``parts``, at the
    reference speed unless ``scaled`` is false."""
    return statistics.median(
        sum(s[parts]) * (REFERENCE_S / s[3] if scaled else 1.0) for s in setup
    )


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_values)
    rank = max(1, -(-pct * n // 100))
    rank = int(min(rank, n))
    return sorted_values[rank - 1], n - rank


class Pass:
    """Items run in one pass, with their latencies and gate outcomes."""

    def __init__(self) -> None:
        self.items = []
        self.latency_s: list[float] = []  # wall time, less the speed probes'
        self.spans: list[tuple[float, float]] = []  # (start, end) of each call
        self.scaled: list[float] = []  # latency_s at the reference speed
        self.speed = 1.0  # reference probe time over the pass's median probe time
        self.failures: list[str] = []
        self.decided = 0

    def rescale(self, sampler: Sampler) -> None:
        self.scaled = [sampler.scale(s, e, t) for (s, e), t in zip(self.spans, self.latency_s)]
        self.speed = sampler.speed()


def run_item(wl, item, result: Pass, sampler: Sampler, tracer=None) -> None:
    args = item.prepare()
    out, error = None, None
    if tracer is not None:
        tracer.item = len(result.items)
        tracer.active = True
    busy = sampler.busy
    t0 = time.perf_counter()
    try:
        out = tracer.span("item", item.call, *args) if tracer is not None else item.call(*args)
    except Exception:  # an item that raises is counted as failed; the run goes on
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    t1 = time.perf_counter()
    dt = t1 - t0 - (sampler.busy - busy)
    if tracer is not None:
        tracer.active = False
    result.items.append(item)
    result.latency_s.append(dt)
    result.spans.append((t0, t1))
    if error is None:
        error = item.gate(args, out)
    if error is not None:
        result.failures.append(f"{item.key}: {error}")
    elif wl.decided(out):
        result.decided += 1


def measure(wl, seed: int, seconds: float) -> Pass:
    """Closed loop over whole cycles of the workload's inputs, each cycle in
    a seeded order, until ``seconds`` have passed."""
    rnd = random.Random(seed)
    order = list(wl.inputs)
    result = Pass()
    with Sampler() as sampler:
        start = time.perf_counter()
        while True:
            rnd.shuffle(order)
            for item in order:
                run_item(wl, item, result, sampler)
            if time.perf_counter() - start >= seconds:
                break
    result.rescale(sampler)
    return result


def replay(wl, items, tracer=None) -> Pass:
    result = Pass()
    with Sampler() as sampler:
        for item in items:
            run_item(wl, item, result, sampler, tracer)
    result.rescale(sampler)
    return result


def ten_beyond_percentile(n: int) -> int:
    """The highest whole percentile of ``n`` samples with at least ten
    samples beyond it (100 when there are too few)."""
    for pct in range(99, 0, -1):
        if n - -(-pct * n // 100) >= 10:
            return pct
    return 100


def input_times(p: Pass, scaled: bool = True) -> list[float]:
    """Each input's median call time in the pass, sorted; at the reference
    speed unless ``scaled`` is false."""
    times = p.scaled if scaled else p.latency_s
    by_input: dict = {}
    for item, dt in zip(p.items, times):
        by_input.setdefault(item.key, []).append(dt)
    return sorted(statistics.median(v) for v in by_input.values())


def end_to_end(wl, p: Pass, setup: list[list[float]]) -> tuple[dict, dict]:
    per_input = input_times(p)
    if len(per_input) == 1:  # one input: the tail is over its calls
        samples = sorted(p.scaled)
        pct = ten_beyond_percentile(len(samples))
    else:
        samples, pct = per_input, wl.tail_percentile
    tail, beyond = nearest_rank(samples, pct)
    metrics = {
        "setup_s": (setup_median(setup, slice(0, 3)), "s"),
        "items_per_s": (len(per_input) / sum(per_input), "items/s"),
        "item_ms_p50": (statistics.median(per_input) * 1000, "ms"),
        "item_ms_tail": (tail * 1000, "ms"),
        "decided_frac": (p.decided / len(p.items), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = input_times(p, scaled=False)
    extra = {
        "inputs": len(per_input),
        "cycles": len(p.items) / len(per_input),
        "tail_percentile": pct,
        "tail_over": "calls" if len(per_input) == 1 else "inputs",
        "tail_samples_beyond": beyond,
        "probe_ms_median": REFERENCE_S / p.speed * 1000,
        "reference_probe_ms": REFERENCE_S * 1000,
        "wall_items_per_s": len(wall) / sum(wall),
        "wall_item_ms_p50": statistics.median(wall) * 1000,
        "wall_setup_s": setup_median(setup, slice(0, 3), scaled=False),
    }
    return metrics, extra


def per_layer(wl, untraced: Pass, setup: list[list[float]]) -> tuple[dict, Pass, object]:
    """Replay the untraced pass's items with spans; per-layer values are per
    item, and times are scaled to the reference speed by the traced pass's
    median speed probe."""
    from tracing import Tracer

    tracer = Tracer()
    searches = []  # (function, args, kwargs, verdict, traced seconds)
    tracer.observers["stability.search"] = lambda fn, a, k, out, dur: searches.append(
        (fn, a, k, out, dur)
    )
    tracer.install()
    try:
        traced = replay(wl, untraced.items, tracer)
        # exact share of each search: a budget-0 call is all exact; a call
        # with a random budget is repeated untraced at budget 0
        exact_s = random_s = 0.0
        for fn, a, k, verdict, dur in searches:
            call = dict(zip(("m", "p", "budget", "seed"), a), **k)
            if call["budget"] == 0:
                exact_s += dur
                continue
            t0 = time.perf_counter()
            fn(call["m"], call["p"], 0, call.get("seed", 0))
            rerun = time.perf_counter() - t0
            exact_s += rerun
            random_s += max(0.0, dur - rerun)
    finally:
        tracer.uninstall()
    n = len(traced.items)
    self_s, calls = tracer.self_s, tracer.calls
    trials = sum(v.budget_used for _, _, _, v, _ in searches)
    traced_wall = sum(traced.latency_s)
    speed = traced.speed
    m = {}
    for layer in ("regions.solve", "bundles.parse", "polymatrix.gcd", "polymatrix.minors",
                  "polymatrix.form_ops", "stability.search", "stability.verify"):
        m[layer + ".calls"] = (calls[layer] / n, "count/item")
    m["polymatrix.as_dict.calls"] = (calls["polymatrix.as_dict"] / n, "count/item")
    for layer in ("regions.solve", "regions.admissible", "regions.classify", "registry",
                  "bundles.parse", "goldens", "cli", "polymatrix.gcd", "polymatrix.minors",
                  "polymatrix.form_ops", "polymatrix.kernel_line", "polymatrix.linind",
                  "stability.search", "stability.verify", "stability.flags", "stability.koszul"):
        m[layer + ".self_s"] = (self_s[layer] * speed / n, "s/item")
    m["registry.load_s"] = (setup_median(setup, slice(1, 2)), "s")
    m["cli.import_s"] = (setup_median(setup, slice(0, 1)), "s")
    m["stability.exact_s"] = (exact_s * speed / n, "s/item")
    m["stability.random_s"] = (random_s * speed / n, "s/item")
    m["stability.trials"] = (trials / n, "count/item")
    m["stability.trials_per_s"] = (trials / (random_s * speed) if random_s > 0 else 0.0, "1/s")
    m["stability.open_shapes"] = (
        sum(len(v.undecided) for _, _, _, v, _ in searches) / n, "count/item")
    m["tracing.item_s"] = (traced_wall * speed / n, "s/item")
    m["tracing.overhead_frac"] = (sum(input_times(traced)) / sum(input_times(untraced)) - 1, "ratio")
    return m, traced, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool, wl=None) -> dict:
    import workloads

    setup = setup_times(name)
    if wl is None:
        wl = workloads.build(name)
    if not trace:
        p = measure(wl, seed, seconds)
        metrics, extra = end_to_end(wl, p, setup)
        failures, attempted = p.failures, len(p.items)
    else:
        untraced = measure(wl, seed, seconds * TRACE_UNTRACED_SHARE)
        metrics, traced, tracer = per_layer(wl, untraced, setup)
        OUT_DIR.mkdir(exist_ok=True)
        spans = tracer.write(OUT_DIR / f"spans-{name}.tsv")
        extra = {"spans": spans, "items_traced": len(traced.items)}
        failures = untraced.failures + traced.failures
        attempted = len(untraced.items) + len(traced.items)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": dict(
            extra,
            workload=name, seed=seed, seconds=seconds, trace=int(trace),
            failed_frac=len(failures) / attempted, failures=failures[:10],
            python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
            git_revision=git_revision(),
        ),
    }


def report(result: dict) -> None:
    info = result["info"]
    print(f"# {info['workload']}: seed {info['seed']}, python {info['python']}, "
          f"nproc {info['nproc']}, revision {info['git_revision']}")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    if "tail_percentile" in info:
        print(f"# {info['inputs']} inputs, {info['cycles']:g} cycles; times are each input's "
              f"median call; item_ms_tail is p{info['tail_percentile']} over {info['tail_over']}, "
              f"{info['tail_samples_beyond']} beyond it")
        print(f"# times are at the reference speed (speed probe {info['reference_probe_ms']:g} ms; "
              f"here its median was {info['probe_ms_median']:.4g} ms); wall clock: "
              f"items_per_s {info['wall_items_per_s']:.6g}, item_ms_p50 "
              f"{info['wall_item_ms_p50']:.6g}, setup_s {info['wall_setup_s']:.6g}")
    print(f"# failed_frac {info['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} items)")
    for f in info["failures"]:
        print(f"# FAILED {f}")


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sheafmod" / "__init__.py").is_file():
        print(f"error: no sheafmod sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result) + "\n")
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

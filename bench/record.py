#!/usr/bin/env python3
"""Record the reference outputs the benchmark's correctness gates compare
against, into ``bench/reference.json``.

    PYTHONPATH=src python3 bench/record.py

Run it only on a commit whose outputs are known to be right: the gates
accept exactly what it records (an ``undetermined`` verdict may later become
decided).  It takes under a minute.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from sheafmod import polymatrix, registry  # noqa: E402


def record_table() -> dict:
    rc, text = workloads.render_table()
    if rc != 0 or workloads.table_golden_mismatches():
        raise SystemExit("the table does not match the published data; nothing recorded")
    return {"stdout_digest": workloads.digest(text)}


def record_kernel() -> dict:
    rejected, digests = [], []
    draws = workloads.kernel_draws(workloads.KERNEL_POOL_SEED)
    for draw, (t, raw) in enumerate(draws):
        if len(digests) == workloads.KERNEL_POOL_SIZE:
            break
        m = workloads.build_matrix(t, raw)
        if all(p.is_zero for p in polymatrix.maximal_minors(m)):
            rejected.append(draw)
            continue
        beta, d = polymatrix.kernel_line(m)
        digests.append(workloads.digest(workloads.kernel_text(beta, d)))
    return {"seed": workloads.KERNEL_POOL_SEED, "rejected_draws": rejected, "digests": digests}


def record_verdicts() -> dict:
    cases = {}
    for case in registry.load_registry():
        n = case.ns()[0]
        t = case.resolution(n)
        raw = workloads.verdict_matrix(random.Random(workloads.VERDICTS_POOL_SEED), t)
        rep = workloads.check_case_budget0(workloads.build_matrix(t, raw), case, n)
        cases[case.id] = {"kind": rep.verdict.kind.value, "flags": dict(rep.flags)}
    return {"seed": workloads.VERDICTS_POOL_SEED, "cases": cases}


def record_search() -> dict:
    kinds = [workloads.search_call(m, p).kind.value for m, p in workloads.search_inputs()]
    return {"budget": workloads.SEARCH_BUDGET, "seed": workloads.SEARCH_SEED, "kinds": kinds}


def main() -> int:
    ref = {
        "table": record_table(),
        "kernel": record_kernel(),
        "verdicts": record_verdicts(),
        "search": record_search(),
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

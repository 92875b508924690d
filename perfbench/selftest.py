"""Benchmark self-tests (``python3 perfbench/run.py --selftest``).

1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` emits.
2. The outside-in stepping harness gives the same ``result_digest`` as
   ``repro.api.run(spec)`` for a test-size spec of each simulation
   workload's configuration — the benchmark times the program users run.
3. Wrapper binding: on a short traced run of each workload every layer
   wrapper fires where predicted and stays at zero on the workloads that
   bypass it, and every wrapper fires somewhere.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import run
import workloads as wl
from spans import WRAPPED, LayerWrappers, SpanRecorder, SpanTotals

from repro import api


def test_spec(name: str, n_steps: int):
    """The workload's configuration at the scenario's test size."""
    return wl.SIM_WORKLOADS[name].with_(test=True, overrides={}, n_steps=n_steps)


def check_manifest(root: Path) -> List[str]:
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in manifest[key]]
        if declared != list(emitted):
            problems.append(f"BENCHMARK.json {key} != run.py {key.upper()}")
    names = [w["name"] for w in manifest["workloads"]]
    if names != list(wl.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(wl.WORKLOADS)}")
    return problems


def check_digests() -> List[str]:
    problems = []
    for name in wl.SIM_WORKLOADS:
        spec = test_spec(name, 2)
        harness = wl.run_sim_unit(spec).digest
        reference = api.run(spec).result_digest
        status = "ok" if harness == reference else "MISMATCH"
        print(f"  digest {name:<18} harness == api.run: {status}", flush=True)
        if harness != reference:
            problems.append(f"{name}: harness digest differs from api.run")
    return problems


#: Per workload: (span name, predicate on its call count, description).
Rule = Tuple[str, Callable[[int], bool], str]
POSITIVE = lambda n: n > 0  # noqa: E731
ZERO = lambda n: n == 0  # noqa: E731
SIM_COMMON: List[Rule] = [
    (s, POSITIVE, "> 0") for s in (
        "sph.adapt_h", "sph.density", "sph.forces", "gradients.iad",
        "timestepping.kick", "timestepping.drift", "backend.select",
        "ics.build", "observability.report", "tree.walk_neighbors",
    )
] + [(s, ZERO, "= 0") for s in (
    "service.store_get", "service.store_put", "tree.cell_grid_search",
)]
RULES: Dict[str, List[Rule]] = {
    "patch-default": SIM_COMMON + [
        ("gravity.bh", ZERO, "= 0"),
        ("gravity.multipoles", ZERO, "= 0"),
        ("tree.verlet_lookup", ZERO, "= 0"),
    ],
    "evrard-default": SIM_COMMON + [
        ("gravity.bh", POSITIVE, "> 0"),
        ("gravity.multipoles", POSITIVE, "> 0"),
        ("tree.octree_build", POSITIVE, "> 0"),
        ("tree.verlet_lookup", ZERO, "= 0"),
    ],
    "patch-8k-compiled": SIM_COMMON + [
        ("gravity.bh", ZERO, "= 0"),
        ("tree.verlet_lookup", POSITIVE, "> 0"),
        ("sph.adapt_cached", POSITIVE, "> 0"),
    ],
    "service-mix": [
        ("service.store_get", POSITIVE, "> 0"),
        ("service.store_put", POSITIVE, "> 0"),
        ("spec.content_hash", POSITIVE, "> 0"),
        ("tree.cell_grid_search", ZERO, "= 0"),
        ("gravity.bh", ZERO, "= 0"),
        ("tree.verlet_lookup", ZERO, "= 0"),
    ],
}


#: Wrapped layers no workload reaches today: every workload runs the
#: sph-exa tree walk, so the cell-grid search stays at zero everywhere.
IDLE = {"tree.cell_grid_search"}


def check_wrappers() -> List[str]:
    problems = []
    fired: Dict[str, int] = {}
    work = run.WORK
    for name in wl.WORKLOADS:
        recorder = SpanRecorder()
        wrappers = LayerWrappers(recorder)
        wrappers.install()
        try:
            if name in wl.SIM_WORKLOADS:
                wl.run_sim_unit(test_spec(name, 3), recorder)
                executed = None
            else:
                draw = wl.CATALOGUE[:6] * 2
                unit = wl.run_service_unit(draw, work, f"{os.getpid()}-selftest", recorder)
                executed = unit.stats["executed"]
        finally:
            wrappers.uninstall()
        totals = SpanTotals(recorder.spans)
        for span, n in totals.calls.items():
            fired[span] = fired.get(span, 0) + n
        for span, ok, want in RULES[name]:
            n = totals.count(span)
            if not ok(n):
                problems.append(f"{name}: {span} calls = {n}, predicted {want}")
        if executed is not None and totals.count("service.store_put") != executed:
            problems.append(
                f"service-mix: store puts {totals.count('service.store_put')}"
                f" != executed {executed}"
            )
        print(f"  wrappers {name:<18} "
              + ", ".join(f"{k}={v}" for k, v in sorted(totals.calls.items())),
              flush=True)
    for span, _, _ in WRAPPED:
        if fired.get(span, 0) == 0 and span not in IDLE:
            problems.append(f"wrapper {span} fired on no workload")
    return problems


def main(root: Path) -> int:
    problems: List[str] = []
    for title, check in (
        ("manifest", lambda: check_manifest(root)),
        ("digest equivalence", check_digests),
        ("wrapper binding", check_wrappers),
    ):
        print(f"selftest: {title}", flush=True)
        found = check()
        problems.extend(found)
        print(f"  {'PASS' if not found else 'FAIL'}", flush=True)
    for p in problems:
        print(f"  problem: {p}", flush=True)
    print("selftest " + ("passed" if not problems else "FAILED"), flush=True)
    return 0 if not problems else 1

"""perfbench — the repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload patch-default --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10   # every workload
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics untraced, every time
scaled to a reference host speed (:mod:`speed`); ``--trace 1``
runs the workload once untraced and once with the outside-in layer
wrappers of :mod:`spans` installed and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Everything the benchmark writes (spans, digest history, the compiled
backend cache, service stores) goes under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: End-to-end metrics (every workload reports each).  A sim workload's
#: cold operation is its first step and its steady operations the steps
#: after it.  service-mix's cold operation is a request the store could
#: not serve (latency, submit to result) and its steady operation a job
#: execution (started to done, from the job event stream).
#:
#: Every time is scaled to the reference host speed (:mod:`speed`).  A
#: sim workload reports the median over its units of the unit's time to
#: result, first step and mean later step; service-mix the median unit
#: makespan and the mean over requests and executions.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("time_to_result_s", "s"),
    ("cold_op_s", "s"),
    ("op_mean_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("energy_drift", "frac"),
)

#: Per-layer metrics.  Layer times are seconds per traced unit (one
#: ``api.run`` for a sim workload, one request draw for service-mix);
#: ``service.*`` times are per call or per request, in ms.  Counts are
#: per unit unless named per step.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("tree.walk_neighbors_s", "s"),
    ("tree.walk_neighbors_calls", "count"),
    ("tree.cell_grid_search_s", "s"),
    ("tree.cell_grid_search_calls", "count"),
    ("tree.octree_build_s", "s"),
    ("tree.verlet_lookups", "count"),
    ("tree.verlet_hit_ratio", "ratio"),
    ("sph.adapt_h_self_s", "s"),
    ("sph.adapt_h_calls", "count"),
    ("sph.adapt_cached_s", "s"),
    ("sph.density_s", "s"),
    ("sph.forces_s", "s"),
    ("sph.pairs_per_step", "count"),
    ("sph.pair_bytes_allocated", "B"),
    ("sph.pair_bytes_reused", "B"),
    ("gradients.iad_s", "s"),
    ("gravity.bh_self_s", "s"),
    ("gravity.multipoles_s", "s"),
    ("gravity.calls", "count"),
    ("gravity.p2p_per_step", "count"),
    ("gravity.m2p_per_step", "count"),
    ("ics.build_s", "s"),
    ("backend.select_s", "s"),
    ("core.step_s", "s"),
    ("core.self_s", "s"),
    ("core.layer_coverage_pct", "%"),
    ("core.first_step_search_pct", "%"),
    ("timestepping.s", "s"),
    ("observability.report_s", "s"),
    ("observability.close_s", "s"),
    ("service.admit_ms", "ms"),
    ("service.store_get_ms", "ms"),
    ("service.store_put_ms", "ms"),
    ("service.digest_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p90_ms", "ms"),
    ("service.execute_p50_ms", "ms"),
    ("service.executed", "count"),
    ("service.cache_hits", "count"),
    ("service.coalesced", "count"),
    ("service.rejected", "count"),
    ("service.served_ratio", "ratio"),
    ("trace.overhead_frac", "frac"),
)

#: Fresh-interpreter set-up samples taken before the timed units
#: (besides the run's own) and after them; the median of all is
#: reported.  Samples at both ends of the run see more of the host's
#: speed changes than samples taken back to back.
SETUP_PROBES_BEFORE = 1
SETUP_PROBES_AFTER = 2

#: Probes before and after each service-mix unit; the unit is scaled by
#: their median.  A probe cannot run inside a unit: the service's
#: threads would hold the interpreter lock in the middle of it.
SERVICE_PROBES = 5

#: Predicted dominant layer (largest self time) per sim workload.
DOMINANT = {
    "patch-default": "tree.walk_neighbors_s",
    "evrard-default": "gravity.multipoles_s",
}


def prepare_environment() -> None:
    """Point imports at this checkout and every temp file inside it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    (WORK / "jobs").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT / "benchmarks"))


def line(name: str, value: float, unit: str, note: str = "") -> None:
    """One human-readable metric line."""
    print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}".rstrip(), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def record(workload: str, seed: int, trace: int, backend: Dict[str, Any],
           spec: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    from _scaling_common import host_stamp

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "backend": backend,
        "spec": spec,
        **host_stamp(),
    }


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def setup_samples(name: str, n: int) -> List[float]:
    """``n`` set-up samples, each from a fresh interpreter.

    A sample is what a fresh ``repro run`` pays before its first step:
    the program import plus the workload's set-up, at the reference
    host speed."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def scaled_setup(import_s: float, name: str, tag: str) -> float:
    """The program import plus one set-up, scaled to the reference host
    speed by two probes taken right after it."""
    import workloads as wl
    from speed import probe, scale

    raw = import_s + wl.setup_once(name, WORK, tag)
    return scale(raw, [probe(), probe()])


def keep_going(start: float, seconds: float, unit_s: List[float]) -> bool:
    """Start another unit only if it is expected to end within ``seconds``."""
    if not unit_s:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + sum(unit_s) / len(unit_s) <= seconds


def bench_sim(name: str, seconds: float) -> Dict[str, Any]:
    import workloads as wl

    spec = wl.SIM_WORKLOADS[name]
    history = wl.DigestHistory(
        WORK / "digests.json", wl.code_fingerprint(SRC / "repro")
    )
    units, failures, attempted, unit_s = [], [], 0, []
    start = time.perf_counter()
    while keep_going(start, seconds, unit_s):
        attempted += 1
        wl.release_heap()
        t0 = time.perf_counter()
        try:
            unit = wl.run_sim_unit(spec, probing=True)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            traceback.print_exc(file=sys.stderr)
            failures.append(f"raised {type(exc).__name__}: {exc}")
            unit_s.append(time.perf_counter() - t0)
            continue
        unit_s.append(time.perf_counter() - t0)
        reference = (
            units[0].digest if units
            else history.check(spec.content_hash(), unit.digest)
        )
        why = wl.sim_unit_failure(spec, unit, reference)
        if why is not None:
            failures.append(why)
        units.append(unit)
    out = {"attempted": attempted, "failures": failures, "units": len(units)}
    if not units:
        return out
    steady = [s for u in units for s in u.step_s[1:]] or [units[0].step_s[0]]
    unit_steady = [wl.mean(u.step_s[1:] or u.step_s) for u in units]
    scenario = spec.resolve()
    energy = units[0].drift["energy"]
    out.update(
        metrics={
            "time_to_result_s": wl.median([u.ttr_s for u in units]),
            "cold_op_s": wl.median([u.step_s[0] for u in units]),
            "op_mean_ms": 1e3 * wl.median(unit_steady),
            "peak_rss_mb": peak_rss_mb(),
            "energy_drift": energy,
        },
        wall_ttr_s=wl.median([u.wall_s for u in units]),
        n_steady=len(steady),
        step_p50_ms=1e3 * wl.median(steady),
        step_p90_ms=1e3 * wl.percentile(steady, 90.0),
        warm_setup_s=wl.median([u.setup_s for u in units]),
        energy_bound=scenario.invariants["energy"],
        backend=units[0].backend,
        spec=spec.as_dict(),
    )
    return out


def bench_service(seed: int, seconds: float) -> Dict[str, Any]:
    import workloads as wl
    from speed import probe, scale

    rng = random.Random(seed)
    n_requests = len(wl.CATALOGUE) + wl.DUPLICATES
    pid = os.getpid()
    cpu = wl.pin_to_one_cpu()
    wl.run_service_unit(wl.WARMUP, WORK, f"{pid}-warm")
    units, speeds, failures, attempted, unit_s = [], [], [], 0, []
    start = time.perf_counter()
    while keep_going(start, seconds, unit_s):
        attempted += n_requests
        wl.release_heap()
        t0 = time.perf_counter()
        probes = [probe() for _ in range(SERVICE_PROBES)]
        try:
            unit = wl.run_service_unit(
                wl.draw_requests(rng), WORK, f"{pid}-u{len(units)}"
            )
        except Exception as exc:  # noqa: BLE001 - the whole draw failed
            traceback.print_exc(file=sys.stderr)
            failures.extend([f"raised {type(exc).__name__}"] * n_requests)
            break
        probes += [probe() for _ in range(SERVICE_PROBES)]
        unit_s.append(time.perf_counter() - t0)
        failures.extend(wl.service_failures(unit))
        units.append(unit)
        speeds.append(scale(1.0, [wl.median(probes)]))
    out = {"attempted": attempted, "failures": failures, "units": len(units)}
    if not units:
        return out
    # Every time at the reference host speed, by its unit's probes.  The
    # gated times are medians over units of a per-unit figure, so one
    # unit caught by a hiccup of the host does not move them.
    per_unit = [service_times(u, k) for u, k in zip(units, speeds)]
    latency = [t for p in per_unit for t in p["latency"]]
    cold = [t for p in per_unit for t in p["cold"]]
    hits = [t for p in per_unit for t in p["hits"]]
    execute = [t for p in per_unit for t in p["execute"]]
    makespan = wl.median([k * u.makespan_s for u, k in zip(units, speeds)])
    served = [r for u in units for r in u.requests if r.error is None]
    energies = [abs(r.drift["energy"]) for r in served if not r.cached]
    out.update(
        metrics={
            "time_to_result_s": makespan,
            "cold_op_s": wl.median([wl.mean(p["cold"]) for p in per_unit]),
            "op_mean_ms": 1e3 * wl.median(
                [wl.mean(p["execute"]) for p in per_unit]
            ),
            "peak_rss_mb": peak_rss_mb(),
            "energy_drift": max(energies),
        },
        jobs_per_s=(len(wl.CATALOGUE) + wl.DUPLICATES) / makespan,
        job_latency_p50_ms=1e3 * wl.median(latency),
        job_latency_p90_ms=1e3 * wl.percentile(latency, 90.0),
        wall_ttr_s=wl.median([u.makespan_s for u in units]),
        n_requests=len(latency),
        n_cold=len(cold),
        hit_latency_p50_ms=1e3 * wl.median(hits),
        n_hits=len(hits),
        execute_p50_ms=1e3 * wl.median(execute),
        n_executed=len(execute),
        warm_setup_s=wl.median([u.setup_s for u in units]),
        backend=units[0].backend,
        spec=service_spec(seed, cpu),
    )
    return out


def service_times(unit, k: float) -> Dict[str, List[float]]:
    """One service unit's latencies and executions, times ``k``."""
    served = [r for r in unit.requests if r.error is None]
    return {
        "latency": [k * r.latency_s for r in served],
        "cold": [k * r.latency_s for r in served if not r.cached],
        "hits": [k * r.latency_s for r in served if r.cached],
        "execute": [
            k * (ev["done"] - ev["started"]) for ev in unit.events.values()
            if {"started", "done"} <= ev.keys()
        ],
    }


def service_spec(seed: int, cpu: int) -> Dict[str, Any]:
    import workloads as wl

    return {"requests": len(wl.CATALOGUE) + wl.DUPLICATES,
            "unique": len(wl.CATALOGUE), "clients": wl.CLIENTS,
            "workers": wl.WORKERS, "pinned_cpu": cpu, "draw_seed": seed}


def report_untraced(res: Dict[str, Any]) -> None:
    """Print the end-to-end metrics under their per-workload names."""
    m = res["metrics"]
    line("setup_s", m["setup_s"], "s",
         f"median of {res['n_setups']} fresh-interpreter set-ups")
    line("warm_setup_s", res["warm_setup_s"], "s", "set-up inside a warm process")
    line("time_to_result_s", m["time_to_result_s"], "s",
         f"median of {res['units']} unit(s), at the reference speed")
    line("wall_time_to_result_s", res["wall_ttr_s"], "s",
         "the same, unscaled wall time")
    if "energy_bound" in res:
        line("first_step_s", m["cold_op_s"], "s", f"median of {res['units']}")
        line("step_mean_ms", m["op_mean_ms"], "ms", f"n={res['n_steady']} steps")
        line("step_p50_ms", res["step_p50_ms"], "ms", f"n={res['n_steady']} steps")
        line("step_p90_ms", res["step_p90_ms"], "ms", f"n={res['n_steady']} steps")
        breach = m["energy_drift"] > res["energy_bound"]
        line("energy_drift", m["energy_drift"], "frac",
             f"bound {res['energy_bound']:g}"
             + (" BREACH (known defect; reported, not counted as failed)"
                if breach else ""))
    else:
        line("jobs_per_s", res["jobs_per_s"], "1/s")
        for key in ("job_latency_p50_ms", "job_latency_p90_ms"):
            line(key, res[key], "ms", f"n={res['n_requests']} requests")
        line("hit_latency_p50_ms", res["hit_latency_p50_ms"], "ms",
             f"n={res['n_hits']} served from the store")
        line("miss_latency_mean_s", m["cold_op_s"], "s",
             f"n={res['n_cold']} not served from the store")
        line("execute_mean_ms", m["op_mean_ms"], "ms",
             f"n={res['n_executed']} executions, started to done")
        line("execute_p50_ms", res["execute_p50_ms"], "ms",
             f"n={res['n_executed']} executions")
        line("energy_drift", m["energy_drift"], "frac",
             "max over executed jobs")
    line("peak_rss_mb", m["peak_rss_mb"], "MB")


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics
# ---------------------------------------------------------------------------


#: Layer times: metric -> (spans, "total" | "self").
LAYER_TIMES: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "tree.walk_neighbors_s": (("tree.walk_neighbors",), "total"),
    "tree.cell_grid_search_s": (("tree.cell_grid_search",), "total"),
    "tree.octree_build_s": (("tree.octree_build",), "total"),
    "sph.adapt_h_self_s": (("sph.adapt_h",), "self"),
    "sph.adapt_cached_s": (("sph.adapt_cached",), "self"),
    "sph.density_s": (("sph.density",), "self"),
    "sph.forces_s": (("sph.forces",), "self"),
    "gradients.iad_s": (("gradients.iad",), "self"),
    "gravity.bh_self_s": (("gravity.bh",), "self"),
    "gravity.multipoles_s": (("gravity.multipoles",), "total"),
    "ics.build_s": (("ics.build",), "total"),
    "backend.select_s": (("backend.select",), "total"),
    "core.step_s": (("core.step",), "total"),
    "core.self_s": (("core.step",), "self"),
    "timestepping.s": (("timestepping.kick", "timestepping.drift"), "total"),
    "observability.report_s": (("observability.report",), "total"),
    "observability.close_s": (("observability.close",), "total"),
}


def layer_metrics(t, n_units: int) -> Dict[str, float]:
    """Layer seconds and call counts per traced unit (every workload)."""
    metrics: Dict[str, float] = {}
    for key, (names, kind) in LAYER_TIMES.items():
        pick = t.self_seconds if kind == "self" else t.seconds
        metrics[key] = sum(pick(n) for n in names) / n_units
    lookups = t.count("tree.verlet_lookup")
    metrics.update({
        "tree.walk_neighbors_calls": t.count("tree.walk_neighbors") / n_units,
        "tree.cell_grid_search_calls": t.count("tree.cell_grid_search") / n_units,
        "tree.verlet_lookups": lookups / n_units,
        "tree.verlet_hit_ratio": (
            t.notes.get("tree.verlet_lookup", 0) / lookups if lookups else 0.0
        ),
        "sph.adapt_h_calls": t.count("sph.adapt_h") / n_units,
        "gravity.calls": t.count("gravity.bh") / n_units,
    })
    return metrics


def sim_metrics(spans, units) -> Dict[str, float]:
    """Per-step counters, step coverage and the first-step search share."""
    from spans import SpanTotals, child_seconds

    steps = [s for u in units for s in u.steps]
    n_units, n_steps = len(units), max(1, len(steps))
    step_total, step_covered = child_seconds(spans, "core.step")
    # First step of each unit: the share in tree.* plus the h iteration's
    # own time (the patch-8k-compiled prediction).
    first, seen = set(), set()
    for i, s in enumerate(spans):
        if s.name == "core.step" and s.run_id not in seen:
            seen.add(s.run_id)
            first.add(i)
    inside = set(first)
    for i, s in enumerate(spans):  # parents precede children
        if s.parent in inside:
            inside.add(i)
    t = SpanTotals(spans, only=inside)
    search = t.self_seconds("sph.adapt_h") + sum(
        t.seconds(n) for n in t.calls
        if n.startswith("tree.") and n != "tree.verlet_lookup"
    )
    first_s = t.seconds("core.step")
    return {
        "sph.pairs_per_step": sum(s.n_pairs for s in steps) / n_steps,
        "sph.pair_bytes_allocated": sum(s.pair_bytes_allocated for s in steps) / n_units,
        "sph.pair_bytes_reused": sum(s.pair_bytes_reused for s in steps) / n_units,
        "gravity.p2p_per_step": sum(s.n_p2p for s in steps) / n_steps,
        "gravity.m2p_per_step": sum(s.n_m2p for s in steps) / n_steps,
        "core.layer_coverage_pct": (
            100.0 * step_covered / step_total if step_total else 0.0
        ),
        "core.first_step_search_pct": 100.0 * search / first_s if first_s else 0.0,
    }


def service_metrics(t, units) -> Dict[str, float]:
    """``service.*``: per-call and per-request times, per-unit counts.

    Queue wait and execution come from the public job event stream."""
    import workloads as wl

    served = [r for u in units for r in u.requests if r.error is None]
    queue_wait, execute = [], []
    for u in units:
        for ev in u.events.values():
            if {"queued", "started", "done"} <= ev.keys():
                queue_wait.append(ev["started"] - ev["queued"])
                execute.append(ev["done"] - ev["started"])

    def stat(key: str) -> float:
        return sum(u.stats[key] for u in units) / len(units)

    def mean_ms(name: str) -> float:
        n = t.count(name)
        return 1e3 * t.seconds(name) / n if n else 0.0

    return {
        "service.admit_ms": 1e3 * sum(r.admit_s for r in served) / max(1, len(served)),
        "service.store_get_ms": mean_ms("service.store_get"),
        "service.store_put_ms": mean_ms("service.store_put"),
        "service.digest_ms": mean_ms("spec.content_hash"),
        "service.queue_wait_p50_ms": 1e3 * wl.median(queue_wait),
        "service.queue_wait_p90_ms": 1e3 * wl.percentile(queue_wait, 90.0),
        "service.execute_p50_ms": 1e3 * wl.median(execute),
        "service.executed": stat("executed"),
        "service.cache_hits": stat("cache_hits"),
        "service.coalesced": stat("coalesced"),
        "service.rejected": stat("rejected"),
        "service.served_ratio": stat("served_from_cache"),
    }


def bench_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced then traced units; per-layer metrics from the traced ones."""
    import workloads as wl
    from spans import LayerWrappers, SpanRecorder, SpanTotals

    recorder = SpanRecorder()
    tags = (f"{os.getpid()}-t{k}" for k in itertools.count())
    if name in wl.SIM_WORKLOADS:
        spec = wl.SIM_WORKLOADS[name]
        wl.setup_once(name, WORK, next(tags))  # lazy set-up outside both sides

        def unit(rec=None):
            return wl.run_sim_unit(spec, rec)

        def wall(u) -> float:
            return u.ttr_s
    else:
        # Both sides take the same sequence of draws.
        rngs = {False: random.Random(seed), True: random.Random(seed)}
        cpu = wl.pin_to_one_cpu()
        wl.run_service_unit(wl.WARMUP, WORK, next(tags))

        def unit(rec=None):
            draw = wl.draw_requests(rngs[rec is not None])
            return wl.run_service_unit(draw, WORK, next(tags), rec)

        def wall(u) -> float:
            return u.makespan_s

    def repeat(rec=None) -> List[Any]:
        done, unit_s, start = [], [], time.perf_counter()
        while keep_going(start, seconds / 2.0, unit_s):
            wl.release_heap()
            t0 = time.perf_counter()
            if rec is not None:
                rec.run_id = f"{name}/s{seed}/u{len(done)}"
            done.append(unit(rec))
            unit_s.append(time.perf_counter() - t0)
        return done

    plain = repeat()
    wrappers = LayerWrappers(recorder)
    wrappers.install()
    try:
        traced = repeat(recorder)
    finally:
        wrappers.uninstall()
    spans_path = WORK / f"spans-{name}-s{seed}-{os.getpid()}.jsonl"
    recorder.write_jsonl(str(spans_path))
    spans = recorder.spans
    metrics = layer_metrics(SpanTotals(spans), len(traced))
    if name in wl.SIM_WORKLOADS:
        metrics.update(sim_metrics(spans, traced))
        failures = [
            why for u in plain + traced
            if (why := wl.sim_unit_failure(spec, u, plain[0].digest)) is not None
        ]
        attempted = len(plain) + len(traced)
        spec_dict = spec.as_dict()
    else:
        metrics.update(service_metrics(SpanTotals(spans), traced))
        failures = [f for u in plain + traced for f in wl.service_failures(u)]
        attempted = (len(wl.CATALOGUE) + wl.DUPLICATES) * (len(plain) + len(traced))
        spec_dict = service_spec(seed, cpu)
    metrics["trace.overhead_frac"] = (
        wl.mean([wall(u) for u in traced]) / wl.mean([wall(u) for u in plain])
        - 1.0
    )
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "units": len(traced),
        "spans": len(spans),
        "spans_path": str(spans_path.relative_to(ROOT)),
        "backend": traced[0].backend,
        "spec": spec_dict,
    }


def report_traced(name: str, res: Dict[str, Any]) -> None:
    """Print the measured per-layer metrics and the layer predictions."""
    m = res["metrics"]
    for key, unit in PER_LAYER:
        if key in m:
            line(key, m[key], unit)
    print(f"  (layer times are per traced unit; {res['units']} traced unit(s))",
          flush=True)
    if name in DOMINANT:
        times = {key: m[key] for key in LAYER_TIMES if not key.startswith("core.")}
        top = max(times, key=times.get)
        print(f"  dominant layer: {top} (predicted {DOMINANT[name]})"
              + ("" if top == DOMINANT[name] else "  MISMATCH"), flush=True)
    if name == "patch-8k-compiled":
        share = m["core.first_step_search_pct"]
        print(f"  first step: tree.* + sph.adapt_h self = {share:.1f}%"
              + ("" if share > 50.0 else "  NOT DOMINANT"), flush=True)
    if "core.layer_coverage_pct" in m:
        cov = m["core.layer_coverage_pct"]
        print(f"  layer spans cover {cov:.1f}% of step wall time"
              + ("" if cov >= 90.0 else "  BELOW 90%"), flush=True)
    print(f"  spans: {res['spans']} written to {res['spans_path']}", flush=True)


# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn, each in its own process; non-zero if any
    run fails or reports a failed operation."""
    import workloads as wl

    status = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(l for l in lines[:-1] if not l.startswith("record: ")),
              flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare_environment()
    t0 = time.perf_counter()
    import workloads as wl

    import_s = time.perf_counter() - t0
    if args.selftest:
        import selftest

        return selftest.main(ROOT)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be all or one of {', '.join(wl.WORKLOADS)}")
    name, seed = args.workload, args.seed
    if args.setup_probe:
        print(f"{scaled_setup(import_s, name, f'{os.getpid()}-p'):.9f}")
        return 0
    print(f"perfbench {name} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace}", flush=True)
    if args.trace:
        res = bench_traced(name, seed, args.seconds)
        report_traced(name, res)
        keys = PER_LAYER
    else:
        own = scaled_setup(import_s, name, f"{os.getpid()}-own")
        setups = [own] + setup_samples(name, SETUP_PROBES_BEFORE)
        if name in wl.SIM_WORKLOADS:
            res = bench_sim(name, args.seconds)
        else:
            res = bench_service(seed, args.seconds)
        if "metrics" not in res:
            print(f"perfbench: every operation failed: {res['failures'][:3]}",
                  file=sys.stderr)
            return 1
        setups += setup_samples(name, SETUP_PROBES_AFTER)
        res["metrics"]["setup_s"] = wl.median(setups)
        res["n_setups"] = len(setups)
        report_untraced(res)
        keys = END_TO_END
    failed = len(res["failures"])
    for why in sorted(set(res["failures"])):
        print(f"  FAILED: {why}", flush=True)
    line("failed_frac", failed / res["attempted"], "frac",
                f"{failed}/{res['attempted']} attempted")
    print("record: " + json.dumps(
        record(name, seed, args.trace, res["backend"], res["spec"]),
        sort_keys=True), flush=True)
    metrics = {
        key: {"value": float(res["metrics"].get(key, 0.0)), "unit": unit}
        for key, unit in keys
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(res["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

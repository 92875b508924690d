"""The benchmark's workloads, driven only through public entry points.

A simulation *unit* is the body of ``repro.service.runner.execute_spec``
(what ``repro.api.run`` and ``repro run`` execute), stepped from
outside so each step can be timed::

    build_simulation -> Simulation.step() x n -> outcome_from_simulation
    -> Simulation.close()

A service *unit* is one closed-loop request draw against a fresh
``LocalService`` with a fresh sqlite result store.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import gc
import hashlib
import json
import math
import os
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.api import (
    JobCancelledError,
    JobFailedError,
    JobSpec,
    LocalService,
    QueueFullError,
    ServiceConfig,
)
from repro.service.runner import (
    DIGEST_FIELDS,
    build_simulation,
    outcome_from_simulation,
)
from speed import SegmentTimer

#: Simulation workloads: name -> spec.  Specs keep JobSpec defaults
#: (sph-exa preset, numpy, serial, no Verlet cache) except where stated.
SIM_WORKLOADS: Dict[str, JobSpec] = {
    # `repro run square-patch`: N=864, 10 steps; tree-walk search bound.
    "patch-default": JobSpec(scenario="square-patch"),
    # Evrard at its default N=2176; gravity bound.  Two of the ten
    # default steps: one default run takes ~145 s on a 2-core host,
    # beyond one benchmark run's time limit.
    "evrard-default": JobSpec(scenario="evrard", n_steps=2),
    # The autotuner's pick at N=8000: compiled pair kernels + Verlet.
    # 40 steps: an interpreted first step and two interpreted Verlet
    # rebuilds among 39 compiled steps, so the search layer sets the
    # time to result and the backend sets the typical step.
    "patch-8k-compiled": JobSpec(
        scenario="square-patch",
        overrides={"side": 20, "layers": 20},
        backend="cffi",
        neighbor_cache=True,
        n_steps=40,
    ),
}
SERVICE_WORKLOAD = "service-mix"
WORKLOADS = (*SIM_WORKLOADS, SERVICE_WORKLOAD)


#: service-mix catalogue: 30 unique test-size specs (sod, noh, gresho
#: and the 3-D sedov).  Every draw requests each once plus DUPLICATES
#: seeded repeats, so each unit executes the same 30 jobs and only the
#: order and overlap vary between draws.
CATALOGUE: List[JobSpec] = (
    [JobSpec(scenario=s, test=True, n_steps=k)
     for s in ("sod", "noh") for k in range(1, 11)]
    + [JobSpec(scenario="gresho", test=True, n_steps=k) for k in range(1, 10)]
    + [JobSpec(scenario="sedov", test=True, n_steps=1)]
)
DUPLICATES = 90
#: One short job per catalogue scenario, run on a throwaway store before
#: timing: a service pays its first-call costs once, not per request.
WARMUP: List[JobSpec] = [
    JobSpec(scenario=s, test=True, n_steps=1)
    for s in ("sod", "noh", "gresho", "sedov")
]
CLIENTS = 2
#: One worker slot: with inline isolation jobs are threads under one
#: interpreter lock, so a second slot adds lock hand-offs, not parallel
#: work; on the 2-core host a unit's makespan spread twice as widely
#: with two slots.
WORKERS = 1
RESULT_TIMEOUT_S = 120.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: List[float]) -> float:
    return percentile(values, 50.0)


def mean(values: List[float]) -> float:
    return float(np.mean(np.asarray(values, dtype=float)))


def release_heap() -> None:
    """Collect garbage and hand freed heap back to the OS (glibc only).

    Called between units, outside any timed region.  Each unit starts a
    fresh driver or service; without this the process's peak RSS grows
    with the number of units a run fits in (heap fragmentation across
    worker threads), so it would track host speed, not the workload."""
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@functools.lru_cache(maxsize=1)
def _malloc_trim() -> Optional[Callable[[int], int]]:
    name = ctypes.util.find_library("c")
    try:
        return ctypes.CDLL(name).malloc_trim if name else None
    except (OSError, AttributeError):
        return None


def code_fingerprint(src_root: Path) -> str:
    """sha256 over the program's Python sources (digest-history key)."""
    h = hashlib.sha256()
    for path in sorted(src_root.rglob("*.py")):
        h.update(str(path.relative_to(src_root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestHistory:
    """result_digest per spec hash for one code fingerprint, kept on disk
    so runs of the same code in one checkout can be compared."""

    def __init__(self, path: Path, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint

    def _load(self) -> Dict[str, Dict[str, str]]:
        try:
            return json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}

    def check(self, key: str, digest: str) -> Optional[str]:
        """Record ``digest`` on first sight; return the earlier one if
        it differs."""
        data = self._load()
        known = data.setdefault(self.fingerprint, {})
        earlier = known.get(key)
        if earlier is None:
            known[key] = digest
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(data, sort_keys=True))
            os.replace(tmp, self.path)
            return None
        return earlier if earlier != digest else None


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------


@dataclass
class SimUnit:
    setup_s: float
    step_s: List[float]
    ttr_s: float
    wall_s: float
    steps: List[Any]  # StepStats
    digest: str
    drift: Dict[str, float]
    backend: Dict[str, Any]
    finite: bool
    steps_done: int


def _span_factory(recorder) -> Callable[[str], Any]:
    if recorder is None:
        return lambda name: nullcontext()
    return recorder.span


def setup_once(name: str, work: Path, tag: str) -> float:
    """Time one set-up of workload ``name``: spec resolve, IC build,
    backend load and driver construction; for service-mix, service start."""
    t0 = time.perf_counter()
    if name in SIM_WORKLOADS:
        sim, _ = build_simulation(SIM_WORKLOADS[name])
        elapsed = time.perf_counter() - t0
        sim.close()
    else:
        service = start_service(work, tag)
        elapsed = time.perf_counter() - t0
        service.close()
        remove_store(work, tag)
    return elapsed


def run_sim_unit(spec: JobSpec, recorder=None, probing: bool = False) -> SimUnit:
    """One ``api.run(spec)``, stepped from outside.

    With ``probing`` the unit's times are scaled to the reference host
    speed (:mod:`speed`) and ``wall_s`` keeps the unscaled time to result.
    """
    span = _span_factory(recorder)
    timer = SegmentTimer(probing)
    with span("core.setup"):
        (sim, scenario), wall, setup = timer.time(build_simulation, spec)
    walls = [wall]
    step_s: List[float] = []
    steps: List[Any] = []
    try:
        for _ in range(spec.resolved_steps(scenario)):
            with span("core.step"):
                stats, wall, scaled = timer.time(sim.step)
            steps.append(stats)
            walls.append(wall)
            step_s.append(scaled)
        with span("core.outcome"):
            outcome, wall, outcome_s = timer.time(
                outcome_from_simulation, sim, spec, scenario
            )
        walls.append(wall)
    finally:
        with span("observability.close"):
            _, wall, close_s = timer.time(sim.close)
    walls.append(wall)
    ttr = setup + sum(step_s) + outcome_s + close_s
    p = sim.particles
    finite = all(
        bool(np.all(np.isfinite(getattr(p, f))))
        for f in DIGEST_FIELDS
        if getattr(p, f, None) is not None
    )
    return SimUnit(
        setup_s=setup,
        step_s=step_s,
        ttr_s=ttr,
        wall_s=sum(walls),
        steps=steps,
        digest=outcome.result_digest,
        drift=dict(outcome.drift),
        backend=dict(outcome.report.get("backend") or {}),
        finite=finite,
        steps_done=outcome.steps,
    )


def sim_unit_failure(
    spec: JobSpec, unit: SimUnit, reference: Optional[str]
) -> Optional[str]:
    """Why a finished unit counts as failed, or None."""
    scenario = spec.resolve()
    if not unit.finite:
        return "non-finite particle field"
    if unit.steps_done != spec.resolved_steps(scenario):
        return f"ran {unit.steps_done} steps, not {spec.resolved_steps(scenario)}"
    if unit.drift.get("mass", 0.0) > scenario.invariants["mass"]:
        return f"mass drift {unit.drift['mass']:.3e} over bound"
    if spec.backend != "numpy" and unit.backend.get("name") != spec.backend:
        return f"backend fell back to {unit.backend.get('name')!r}"
    if reference is not None and unit.digest != reference:
        return "result_digest differs from another run of the same code"
    return None


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------


def draw_requests(rng: random.Random) -> List[JobSpec]:
    """The next draw from a seeded generator.  Successive units of one
    run take successive draws, so a run pools several orders."""
    draw = list(CATALOGUE) + [rng.choice(CATALOGUE) for _ in range(DUPLICATES)]
    rng.shuffle(draw)
    return draw


@dataclass
class Request:
    spec: JobSpec
    tenant: str
    admit_s: float = math.nan
    latency_s: float = math.nan
    job_id: str = ""
    spec_hash: str = ""
    digest: str = ""
    cached: bool = False
    steps: int = 0
    drift: Dict[str, float] = field(default_factory=dict)
    backend: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None


@dataclass
class ServiceUnit:
    setup_s: float
    makespan_s: float
    requests: List[Request]
    stats: Dict[str, Any]
    events: Dict[str, Dict[str, float]]  # job_id -> event type -> ts
    backend: Dict[str, Any]


def _client(service, requests: List[Request], span) -> None:
    for req in requests:
        t0 = time.perf_counter()
        try:
            with span("service.request"):
                with span("service.admit"):
                    handle = service.submit(req.spec, tenant=req.tenant)
                req.admit_s = time.perf_counter() - t0
                out = handle.result(timeout=RESULT_TIMEOUT_S)
            req.latency_s = time.perf_counter() - t0
        except QueueFullError:
            req.error = "rejected"
            continue
        except (JobFailedError, JobCancelledError) as exc:
            req.error = f"{type(exc).__name__}: {exc}"
            continue
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            req.error = f"{type(exc).__name__}: {exc}"
            continue
        req.job_id = handle.job_id
        req.spec_hash = handle.spec_hash
        req.digest = out.result_digest
        req.cached = bool(out.cached)
        req.steps = int(out.steps)
        req.drift = dict(out.drift)
        req.backend = dict(out.report.get("backend") or {})


def pin_to_one_cpu() -> int:
    """Keep the calling thread, and every thread it starts from now on,
    on one CPU; return that CPU.

    service-mix runs its clients, the service's event loop and its worker
    in threads of one process under one interpreter lock.  Spread over two
    CPUs of a shared host, every lock hand-off waits for the other CPU to
    be woken, and that wait changes with the host's load: unpinned, the
    median unit makespan of a run spread 0.16-0.22 (IQR over median, five
    runs), and it ran about a fifth slower than pinned."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def start_service(work: Path, tag: str) -> LocalService:
    return LocalService(ServiceConfig(
        isolation="inline",
        max_workers=WORKERS,
        store_path=str(work / f"store-{tag}.sqlite"),
        jobs_dir=str(work / "jobs"),
    ))


def remove_store(work: Path, tag: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(work / f"store-{tag}.sqlite{suffix}")
        except FileNotFoundError:
            pass


def _closed_loop(service, requests: List[Request], span) -> float:
    """CLIENTS client threads, each sending its share in order; returns
    the makespan."""
    threads = [
        threading.Thread(
            target=_client,
            args=(service, requests[c::CLIENTS], span),
            name=f"perfbench-client-{c}",
            daemon=True,
        )
        for c in range(CLIENTS)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=RESULT_TIMEOUT_S * len(requests))
    if any(t.is_alive() for t in threads):
        raise RuntimeError("service-mix client did not finish")
    return time.perf_counter() - start


def run_service_unit(
    draw: List[JobSpec], work: Path, tag: str, recorder=None
) -> ServiceUnit:
    """One draw against a fresh service with a fresh store."""
    span = _span_factory(recorder)
    requests = [
        Request(spec, tenant=f"client-{i % CLIENTS}")
        for i, spec in enumerate(draw)
    ]
    t0 = time.perf_counter()
    service = start_service(work, tag)
    setup = time.perf_counter() - t0
    try:
        makespan = _closed_loop(service, requests, span)
        stats = service.stats()
        events: Dict[str, Dict[str, float]] = {}
        for req in requests:
            if not req.job_id or req.job_id in events:
                continue
            handle = service.handle(req.job_id)
            if handle is not None:
                events[req.job_id] = {e.type: e.ts for e in handle.events()}
    finally:
        service.close()
        remove_store(work, tag)
    backend = next((r.backend for r in requests if r.backend), {})
    return ServiceUnit(setup, makespan, requests, stats, events, backend)


def service_failures(unit: ServiceUnit) -> List[str]:
    """One entry per failed request (rejected, failed, cancelled, wrong
    step count, mass bound exceeded, or a duplicate served a digest
    different from its group's execution)."""
    failures: List[str] = []
    executed: Dict[str, str] = {}
    for req in unit.requests:
        if req.error is None and not req.cached:
            executed.setdefault(req.spec_hash, req.digest)
    for req in unit.requests:
        if req.error is not None:
            failures.append(req.error)
            continue
        scenario = req.spec.resolve()
        if req.steps != req.spec.resolved_steps(scenario):
            failures.append(f"{req.spec.describe()}: wrong step count")
        elif req.drift.get("mass", 0.0) > scenario.invariants["mass"]:
            failures.append(f"{req.spec.describe()}: mass over bound")
        elif executed.get(req.spec_hash, req.digest) != req.digest:
            failures.append(f"{req.spec.describe()}: digest differs")
    return failures

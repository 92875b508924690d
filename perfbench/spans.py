"""In-memory span recorder and the outside-in layer wrappers.

The traced run replaces a fixed list of the program's public functions,
at the module attribute where their callers look them up, with thin
wrappers that record one span per call.  Nothing inside the program
changes: the wrappers live here and are removed again by
:meth:`LayerWrappers.uninstall`.

A span is ``(name, start, end, parent, run_id, thread, note)``.  The
parent is the innermost open span on the same thread, so
``sph.adapt_h`` -> ``tree.walk_neighbors`` and ``gravity.bh`` ->
``gravity.multipoles`` nest and a layer's self time is its duration
minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

#: (span name, module, attribute) — the public functions the traced run
#: wraps, at the names their callers resolve at call time.  Installing
#: fails loudly when one is missing, so re-homing a function cannot
#: silently zero its layer.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("gravity.bh", "repro.core.simulation", "barnes_hut_gravity"),
    ("sph.adapt_h", "repro.core.simulation", "adapt_smoothing_lengths"),
    ("sph.adapt_cached", "repro.core.simulation", "adapt_from_cached_list"),
    ("sph.density", "repro.core.simulation", "compute_density"),
    ("sph.forces", "repro.core.simulation", "compute_forces"),
    ("gradients.iad", "repro.core.simulation", "compute_iad_matrices"),
    ("timestepping.kick", "repro.core.simulation", "kick"),
    ("timestepping.drift", "repro.core.simulation", "drift"),
    ("backend.select", "repro.core.simulation", "select_backend"),
    ("observability.report", "repro.core.simulation", "Simulation.report"),
    ("tree.cell_grid_search", "repro.sph.smoothing", "cell_grid_search"),
    ("gravity.multipoles", "repro.gravity.barnes_hut", "evaluate_multipoles"),
    ("tree.octree_build", "repro.tree.octree", "Octree.build"),
    ("tree.walk_neighbors", "repro.tree.octree", "Octree.walk_neighbors"),
    ("tree.verlet_lookup", "repro.tree.neighborlist", "VerletNeighborCache.lookup"),
    ("ics.build", "repro.scenarios.registry", "Scenario.build"),
    ("service.store_get", "repro.service.store", "ResultStore.get"),
    ("service.store_put", "repro.service.store", "ResultStore.put"),
    ("spec.content_hash", "repro.service.spec", "JobSpec.content_hash"),
)

#: Spans whose result is noted: a Verlet lookup hits when it returns a list.
_NOTES: Dict[str, Callable[[object], object]] = {
    "tree.verlet_lookup": lambda result: result is not None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    thread: int
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span store; the open-span stack is per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id = ""
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = Span(
            name, time.perf_counter(), 0.0, stack[-1] if stack else None,
            self.run_id, threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int, note: object = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.note = note
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, note(result) if note else None)

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run_id": s.run_id,
                    "thread": s.thread, "note": s.note,
                }) + "\n")


class LayerWrappers:
    """Installs and removes the :data:`WRAPPED` span wrappers."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module_name, attr in WRAPPED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                # Class attribute: keep classmethod-ness (Octree.build).
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    new = classmethod(self.recorder.wrap(name, raw.__func__))
                else:
                    new = self.recorder.wrap(name, raw)
            else:
                raw = getattr(owner, leaf)
                if not callable(raw):
                    raise TypeError(f"{module_name}.{attr} is not callable")
                new = self.recorder.wrap(name, raw)
            self._saved.append((owner, leaf, raw))
            setattr(owner, leaf, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, raw = self._saved.pop()
            setattr(owner, leaf, raw)


class SpanTotals:
    """Per-name call counts, total duration and self time of a span list,
    optionally restricted to the spans whose indices are in ``only``."""

    def __init__(self, spans: List[Span], only: Optional[Set[int]] = None):
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.notes: Dict[str, int] = {}
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        for i, s in enumerate(spans):
            if only is not None and i not in only:
                continue
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.total[s.name] = self.total.get(s.name, 0.0) + s.duration
            self.self_time[s.name] = (
                self.self_time.get(s.name, 0.0) + s.duration - child_time[i]
            )
            if s.note:
                self.notes[s.name] = self.notes.get(s.name, 0) + 1

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def seconds(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def self_seconds(self, name: str) -> float:
        return self.self_time.get(name, 0.0)


def child_seconds(spans: List[Span], parent_name: str) -> Tuple[float, float]:
    """(total duration of ``parent_name`` spans, duration of their children)."""
    parents = {i for i, s in enumerate(spans) if s.name == parent_name}
    total = sum(spans[i].duration for i in parents)
    covered = sum(s.duration for s in spans if s.parent in parents)
    return total, covered

"""Span tracing from outside the program.

The benchmark's traced run (``--trace 1``) times calls into each layer's
public functions without instrumenting the program: :func:`installed`
swaps those functions and methods for timing wrappers and restores the
originals on exit.  Spans (name, start, end, parent) and counts stay in
memory; the benchmark writes them out when it ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (see :func:`self_times`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "installed",
    "self_times",
    "totals_by_name",
]


@dataclasses.dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    #: Classification set by a wrapper after the call (e.g. cache hit/miss).
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-aware in-memory span and counter store.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on the same thread when it started.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span_id(self) -> Optional[int]:
        """Id of the innermost span open on this thread, if any."""
        stack = self._stack()
        return stack[-1].id if stack else None

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[Span]:
        """Time a block; ``parent`` applies when this thread has no open
        span (a worker thread's work on behalf of another thread's span)."""
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else parent,
            name=name,
            start=time.perf_counter(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def write(self, path: str) -> None:
        """One JSON object per span, then one line of counts."""
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


def totals_by_name(
    spans: List[Span], tag: Optional[str] = None
) -> Dict[str, Dict[str, float]]:
    """Name -> {"self_s", "total_s", "calls"}, optionally for one tag."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    )
    for span in spans:
        if tag is not None and span.tag != tag:
            continue
        entry = out[span.name]
        entry["self_s"] += own[span.id]
        entry["total_s"] += span.duration
        entry["calls"] += 1
    return dict(out)


# ----------------------------------------------------------------------
# Wrappers around the program's layers
# ----------------------------------------------------------------------
class _Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def swap(self, owner: object, attr: str, make: Callable) -> None:
        own = vars(owner)
        had_own = attr in own
        raw = own.get(attr)
        setattr(owner, attr, make(getattr(owner, attr)))
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, raw))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _timed(
    tracer: Tracer,
    name: str,
    after: Optional[Callable[[Span, tuple, dict, object], None]] = None,
) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
            return result

        return wrapper

    return make


def _observer_timing(tracer: Tracer) -> Callable[[Callable], Callable]:
    """Wrap ``make_observer`` so the observer's ``on_iteration`` is timed.

    The observer object itself is returned unchanged (its report hooks
    see the real type); only its ``on_iteration`` attribute is shadowed
    by a timed instance attribute.
    """

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            observer = fn(self, *args, **kwargs)
            name = f"backends.{self.name.lower()}.on_iteration"
            observer.on_iteration = _timed(tracer, name)(observer.on_iteration)
            return observer

        return wrapper

    return make


def _cell_timing(tracer: Tracer) -> Callable[[Callable], Callable]:
    """Wrap ``RunService.cell`` and tag each call hit, miss or memo.

    The tag comes from the service's own counters, read before and after
    the call; the workloads that trace cells call them serially.
    """

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            stats = self.stats
            before = (stats.hits, stats.misses, stats.stores)
            with tracer.span("harness.service.cell") as span:
                result = fn(self, *args, **kwargs)
                hits, misses, stores = (
                    stats.hits - before[0],
                    stats.misses - before[1],
                    stats.stores - before[2],
                )
                span.tag = "miss" if misses else "hit" if hits else "memo"
            tracer.count("harness.service.stores", stores)
            return result

        return wrapper

    return make


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Time every traced layer of the program while the block runs."""
    from repro.backends import registry
    from repro.graph import datasets, dynamic
    from repro.harness import planner, service
    import repro.vcpm as vcpm
    from repro.vcpm import incremental

    def count_engine(span, args, kwargs, result) -> None:
        tracer.count("vcpm.engine.iterations", result.num_iterations)
        tracer.count("vcpm.engine.edges", result.total_edges_processed)

    def count_apply(span, args, kwargs, result) -> None:
        batch = args[1] if len(args) > 1 else kwargs["batch"]
        tracer.count("graph.dynamic.edges_changed", batch.size)

    def tag_incremental(span, args, kwargs, result) -> None:
        span.tag = result.mode

    patches = _Patches()
    try:
        patches.swap(datasets, "load", _timed(tracer, "graph.datasets.load"))
        engine = _timed(tracer, "vcpm.engine.run", count_engine)
        patches.swap(service, "run_vcpm", engine)
        patches.swap(incremental, "run_vcpm", engine)
        patches.swap(vcpm, "run_vcpm", engine)
        patches.swap(
            service, "execute_cell",
            _timed(tracer, "harness.service.execute_cell"),
        )
        patches.swap(service.RunService, "cell", _cell_timing(tracer))
        patches.swap(
            service, "canonical_reports_json",
            _timed(tracer, "metrics.serialize.canonical_json"),
        )
        patches.swap(
            planner, "build_plan", _timed(tracer, "harness.planner.build_plan")
        )
        patches.swap(
            planner, "execute_plan",
            _timed(tracer, "harness.planner.execute_plan"),
        )
        patches.swap(
            dynamic.DynamicGraph, "apply",
            _timed(tracer, "graph.dynamic.apply", count_apply),
        )
        patches.swap(
            incremental, "run_vcpm_incremental",
            _timed(tracer, "vcpm.incremental", tag_incremental),
        )
        report = _timed(tracer, "backends.report_energy")
        classes = {type(registry.create(n)) for n in registry.available()}
        for cls in sorted(classes, key=lambda c: c.__name__):
            patches.swap(cls, "make_observer", _observer_timing(tracer))
            patches.swap(cls, "report", report)
            patches.swap(cls, "energy", report)
        yield tracer
    finally:
        patches.restore()

"""The four benchmark workloads and the harness that times them.

Each workload sets itself up ``Sizes.setup_repeats`` times (the last
repetition is the one the timed phase uses), then runs a timed phase of
ops whose count is a fixed function of ``--seconds``, so two commits
always do the same work.  Outputs are checked against pinned digests or
in-process references; a wrong output counts as a failed op.

Setups, phases and in-process ops are timed on the run's
:class:`~hostclock.HostClock`, the wall clock less hypervisor steal.
serve-closed's per-job latencies, about as short as the steal counter's
10 ms resolution, are plain wall time.

Work sizes are calibrated so that each timed phase lasts about
``--seconds`` on a 2-core x86-64 host; see README.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import http.client
import itertools
import json
import os
import random
import resource
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graph import datasets, dynamic
from repro.harness import planner, service
from repro.harness.experiments import ExperimentSuite
from repro.harness.resilience import RetryPolicy
from repro.harness.service import RunService
from repro.harness.serve import DaemonConfig, SimulationDaemon
from repro.harness.service import canonical_reports_json as _canonical
from repro.harness.specs import spec_from_dict
import repro.vcpm as vcpm
from repro.vcpm import get_algorithm, incremental

from hostclock import HostClock
from tracing import Tracer, installed, self_times, totals_by_name

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
ALGORITHMS = ("BFS", "SSSP", "CC", "SSWP", "PR")


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much work one run does; ops scale with ``--seconds``."""

    algorithms: Tuple[str, ...] = ALGORITHMS
    matrix_graphs: Tuple[str, ...] = ("FR", "PK", "HO")
    replay_graphs: Tuple[str, ...] = ("FR", "RM22", "RM23", "RM24")
    replay_passes_per_s: float = 5.7
    serve_jobs_per_s: float = 115.0
    churn_graph: str = "PK"
    churn_batch_edges: int = 500
    #: Churn runs about ``--seconds`` with at least 100 batches at 20 s:
    #: one mixed batch per about four insert-only ones, enough that the
    #: 90th percentile falls well inside the mixed batches.
    churn_inserts_per_s: float = 4.0
    churn_mixed_per_s: float = 1.1
    #: Setup repetitions per run; setup_s reports their median.  The two
    #: workloads whose setup executes the replay grid (about 8 s) repeat
    #: it twice to keep a run within the benchmark's time budget.
    matrix_setups: int = 3
    replay_setups: int = 2
    serve_setups: int = 2
    churn_setups: int = 5


FULL = Sizes()
#: The algorithm churn recomputes; it is monotone, so insert-only
#: batches can take the delta path.
CHURN_ALGORITHM = "SSSP"


def load_pins(path: str = PINS_PATH) -> Dict[str, Dict[str, str]]:
    with open(path) as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_digest(cell) -> str:
    return sha256(_canonical([cell]))


def grid_label(algorithms: Sequence[str], graphs: Sequence[str]) -> str:
    return f"{','.join(algorithms)} x {','.join(graphs)}"


def _count(rate: float, seconds: float) -> int:
    return max(2, int(round(rate * seconds)))


class Harness:
    """Setup repetitions, the timed phase, op latencies and failures."""

    def __init__(
        self,
        seed: int,
        seconds: float,
        trace: bool,
        sizes: Sizes,
        work_dir: str,
        pins: Dict[str, Dict[str, str]],
        clock: HostClock,
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.work_dir = work_dir
        self.pins = pins
        #: Times setups, phases and in-process ops (see hostclock.py).
        self.clock = clock
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.setup_times: List[float] = []
        self.phase_walls: List[float] = []
        #: Steal taken out of each phase segment's wall time.
        self.phase_steal: List[float] = []
        self.op_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Measured shares of input properties (recorded in the results).
        self.shares: Dict[str, float] = {}
        #: Per-layer metrics the workload measures itself (serve).
        self.layers: Dict[str, float] = {}
        self._dirs = itertools.count()

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self.work_dir, f"{label}-{next(self._dirs)}")
        os.makedirs(path)
        return path

    @contextlib.contextmanager
    def _traced(self, on: bool, root: str) -> Iterator[None]:
        if not on:
            yield
            return
        with installed(self.tracer), self.tracer.span(root):
            yield

    def setup(self, repeats: int, build: Callable[[], object],
              discard: Optional[Callable[[object], None]] = None) -> object:
        """Run ``build`` ``repeats`` times; keep the last state.

        Only the last repetition is traced, so per-layer metrics cover
        one setup plus the timed phase.
        """
        state = None
        for index in range(repeats):
            if state is not None and discard is not None:
                discard(state)
                state = None
                gc.collect()  # so peak RSS never holds two states
            traced = self.tracer is not None and index == repeats - 1
            with self._traced(traced, "setup"):
                start = self.clock.now()
                state = build()
                self.setup_times.append(self.clock.now() - start)
        return state

    @contextlib.contextmanager
    def phase(self) -> Iterator[None]:
        """One segment of the timed phase (checks between segments are
        not timed)."""
        with self._traced(self.tracer is not None, "phase"):
            steal = self.clock.steal_s()
            start = self.clock.now()
            try:
                yield
            finally:
                self.phase_walls.append(self.clock.now() - start)
                self.phase_steal.append(self.clock.steal_s() - steal)

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[None]:
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name, parent=parent):
                yield

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


# ======================================================================
# matrix-cold
# ======================================================================
def matrix_cold(h: Harness) -> None:
    """Serial cold ``repro matrix`` over a fresh persistent cache.

    Each op is one cell through ``ResilientRunService.matrix``, in the
    matrix's algorithm-major order, with the CLI's default retry policy.
    """
    algorithms, graphs = h.sizes.algorithms, h.sizes.matrix_graphs

    def build():
        datasets.clear_cache()
        for key in graphs:
            datasets.load(key)
        return ExperimentSuite(
            cache_dir=h.fresh_dir("matrix-cache"),
            resilience=RetryPolicy(max_attempts=3, backoff_base=0.05),
        )

    suite = h.setup(h.sizes.matrix_setups, build)
    with h.phase():
        for algorithm in algorithms:
            for graph in graphs:
                start = h.clock.now()
                suite.service.matrix([algorithm], [graph])
                h.op_ms.append((h.clock.now() - start) * 1e3)
        cells = suite.service.matrix(algorithms, graphs)
        text = service.canonical_reports_json(cells)
    h.attempted = len(cells)
    _check_cells(h, cells, grid_text=text)
    stats = suite.service.stats
    h.shares["cache_hit_ratio"] = _ratio(stats.hits, stats.hits + stats.misses)


def _check_cells(h: Harness, cells, grid_text: Optional[str] = None) -> bool:
    """Per-cell pinned digests, then the grid's pinned digest if any."""
    pinned = h.pins["cells"]
    wrong = [
        f"{c.algorithm}/{c.graph_key}"
        for c in cells
        if pinned.get(f"{c.algorithm}/{c.graph_key}") != cell_digest(c)
    ]
    if wrong:
        h.fail(len(wrong), f"cells differ from their pinned digest: {wrong}")
        return False
    if grid_text is not None:
        algorithms = list(dict.fromkeys(c.algorithm for c in cells))
        graphs = list(dict.fromkeys(c.graph_key for c in cells))
        expected = h.pins["grids"].get(grid_label(algorithms, graphs))
        if expected is not None and sha256(grid_text) != expected:
            h.fail(len(cells), "grid JSON differs from its pinned digest")
            return False
    return True


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ======================================================================
# replay-warm
# ======================================================================
def replay_warm(h: Harness) -> None:
    """Warm replay of a filled cache through the spec planner.

    Each op is one pass with fresh services (empty memo): build_plan,
    execute_plan, canonical_reports_json.  Every cell must classify as
    cached-persistent and the JSON must match the pinned grid digest.
    """
    algorithms, graphs = h.sizes.algorithms, h.sizes.replay_graphs

    def build():
        datasets.clear_cache()
        cache_dir = h.fresh_dir("replay-cache")
        cells = ExperimentSuite(cache_dir=cache_dir).matrix(algorithms, graphs)
        return cache_dir, cells

    cache_dir, cells = h.setup(h.sizes.replay_setups, build)
    reference = _canonical(cells)
    reference_ok = _check_cells(h, cells, grid_text=reference)
    expected = sha256(reference)
    spec = spec_from_dict(
        {
            "name": "perfbench-replay",
            "algorithms": list(algorithms),
            "graphs": list(graphs),
        }
    )
    passes = _count(h.sizes.replay_passes_per_s, h.seconds)
    digests: List[str] = []
    cold: List[int] = []
    with h.phase():
        for _ in range(passes):
            start = h.clock.now()
            services = planner.services_for_spec(spec, cache_dir=cache_dir)
            plan = planner.build_plan(spec, services)
            results = planner.execute_plan(plan, services)
            text = service.canonical_reports_json(results)
            h.op_ms.append((h.clock.now() - start) * 1e3)
            digests.append(sha256(text))
            cold.append(
                sum(c.status != planner.CACHED_PERSISTENT for c in plan.cells)
            )
    h.attempted = passes
    if not reference_ok:
        h.fail(passes, "the filled cache failed its pinned digests")
        return
    bad = sum(d != expected or n for d, n in zip(digests, cold))
    if bad:
        h.fail(bad, f"{bad} passes were not a byte-identical warm replay")
    h.shares["cache_hit_ratio"] = _ratio(
        passes * len(cells) - sum(cold), passes * len(cells)
    )


# ======================================================================
# serve-closed
# ======================================================================
class _Daemon:
    """A ``repro serve`` daemon in this process, on an ephemeral port.

    Its journal and cache live in one directory.  The clients talk to it
    over HTTP on loopback, as they would to ``repro serve``.
    """

    def __init__(self, root: str) -> None:
        self.cache_dir = os.path.join(root, "cache")
        self.daemon = SimulationDaemon(DaemonConfig(
            port=0,
            journal_path=os.path.join(root, "jobs.jsonl"),
            cache_dir=self.cache_dir,
        ))
        self.daemon.start()
        self.port = self.daemon.port

    def request(self, method: str, path: str,
                payload: Optional[dict] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """Stop the daemon and wait until its threads have ended."""
        self.daemon.stop()
        for thread in threading.enumerate():
            if thread.name.startswith("repro-serve"):
                thread.join()


#: Closed-loop client threads.
SERVE_CLIENTS = 2
#: Fixed interval at which a client polls its job.
SERVE_POLL_S = 0.005
#: Job states after which the daemon does no more work on a job.
TERMINAL_STATES = ("done", "failed", "cancelled", "shed")
#: A job still unfinished after this long counts as failed.
JOB_TIMEOUT_S = 60.0
#: The prewarm job executes the whole grid; polling it slowly keeps the
#: poll requests from competing with the cells for the CPU.
PREWARM_POLL_S = 0.05


def run_job(
    daemon: _Daemon, algorithms: Sequence[str], graphs: Sequence[str],
    client: str, poll_s: float,
) -> Dict[str, object]:
    """Submit one job, poll it to a terminal state and fetch its result.

    Times are wall time (``perf_counter``); see the module docstring.
    """
    record: Dict[str, object] = {"polls": 0}
    start = time.perf_counter()
    status, body = daemon.request(
        "POST", "/v1/jobs",
        {"algorithms": list(algorithms), "graphs": list(graphs),
         "client": client},
    )
    record["submit_ms"] = (time.perf_counter() - start) * 1e3
    if status != 202:
        record["rejected"] = True
        return record
    accepted = json.loads(body)
    record["coalesced"] = bool(accepted.get("coalesced"))
    job_id = accepted["job"]["id"]
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        time.sleep(poll_s)
        status, body = daemon.request("GET", f"/v1/jobs/{job_id}")
        record["polls"] += 1
        job = json.loads(body)
        if status == 200 and job["state"] in TERMINAL_STATES:
            break
        if time.monotonic() > deadline:
            record["state"] = "timed out"
            return record
    record["state"] = job["state"]
    if job.get("started_at") and job.get("finished_at"):
        record["queue_wait_ms"] = (job["started_at"] - job["submitted_at"]) * 1e3
        record["exec_ms"] = (job["finished_at"] - job["started_at"]) * 1e3
    if job["state"] == "done":
        fetch = time.perf_counter()
        status, text = daemon.request("GET", f"/v1/jobs/{job_id}/result")
        done = time.perf_counter()
        record["result_ms"] = (done - fetch) * 1e3
        if status == 200:
            record["digest"] = hashlib.sha256(text).hexdigest()
    record["latency_ms"] = (time.perf_counter() - start) * 1e3
    return record


def job_mix(
    seed: int, clients: int, per_client: int,
    algorithms: Sequence[str], graphs: Sequence[str],
) -> List[List[Tuple[Tuple[str, ...], Tuple[str, ...]]]]:
    """Per client, a seeded list of 1-3 algorithms x 1-2 graphs jobs."""
    rng = random.Random(seed)
    mix = []
    for _ in range(clients):
        jobs = []
        for _ in range(per_client):
            a = sorted(rng.sample(range(len(algorithms)),
                                  rng.randint(1, min(3, len(algorithms)))))
            g = sorted(rng.sample(range(len(graphs)),
                                  rng.randint(1, min(2, len(graphs)))))
            jobs.append((tuple(algorithms[i] for i in a),
                         tuple(graphs[i] for i in g)))
        mix.append(jobs)
    return mix


def serve_closed(h: Harness) -> None:
    """Closed loop of client threads against a prewarmed daemon.

    Setup boots the daemon and prewarms it with the replay grid (the
    daemon executes every cell).  Each op submits one seeded job, polls
    it at a fixed interval, fetches the result and compares its digest
    with an in-process reference.
    """
    algorithms, graphs = h.sizes.algorithms, h.sizes.replay_graphs

    def build():
        datasets.clear_cache()
        daemon = _Daemon(h.fresh_dir("serve"))
        record = run_job(daemon, algorithms, graphs, "prewarm", PREWARM_POLL_S)
        if record.get("state") != "done":
            daemon.stop()
            raise RuntimeError(f"daemon prewarm failed: {record}")
        return daemon

    daemon = h.setup(h.sizes.serve_setups, build, discard=lambda d: d.stop())
    try:
        _serve_phase(h, daemon, algorithms, graphs)
    finally:
        daemon.stop()


def _serve_phase(h: Harness, daemon: _Daemon, algorithms, graphs) -> None:
    # References from a separate service over the cache the daemon
    # filled, checked cell by cell against the pins.
    reference = RunService(cache_dir=daemon.cache_dir)
    reference_ok = _check_cells(h, reference.matrix(algorithms, graphs))
    per_client = max(1, _count(h.sizes.serve_jobs_per_s, h.seconds)
                     // SERVE_CLIENTS)
    mix = job_mix(h.seed, SERVE_CLIENTS, per_client, algorithms, graphs)
    expected = {
        job: sha256(_canonical(reference.matrix(job[0], job[1])))
        for job in {j for jobs in mix for j in jobs}
    }
    before = daemon.daemon.stats_dict()
    records: List[Dict[str, object]] = []

    def client(index: int, parent: Optional[int]) -> List[Dict[str, object]]:
        out = []
        for algos, grs in mix[index]:
            with h.span("harness.serve.job", parent=parent):
                record = run_job(daemon, algos, grs, f"client{index}",
                                 SERVE_POLL_S)
            record["expected"] = expected[(algos, grs)]
            out.append(record)
        return out

    with h.phase():
        parent = h.tracer.open_span_id() if h.tracer is not None else None
        with ThreadPoolExecutor(max_workers=SERVE_CLIENTS) as pool:
            futures = [pool.submit(client, i, parent)
                       for i in range(SERVE_CLIENTS)]
            for future in futures:
                records.extend(future.result())
    after = daemon.daemon.stats_dict()
    h.attempted = len(records)
    h.op_ms = [r["latency_ms"] for r in records if "latency_ms" in r]
    rejected = sum(1 for r in records if r.get("rejected"))
    wrong = sum(
        1 for r in records
        if not r.get("rejected") and r.get("digest") != r["expected"]
    )
    if not reference_ok:
        h.fail(len(records), "the daemon's cache failed its pinned digests")
    elif rejected or wrong:
        h.fail(rejected + wrong,
               f"{rejected} jobs rejected, {wrong} jobs failed or differed")
    coalesced = after["coalesced"] - before["coalesced"]
    accepted = len(records) - rejected

    def median_of(key: str) -> float:
        values = [r[key] for r in records if key in r]
        return statistics.median(values) if values else 0.0

    h.layers.update({
        "harness.serve.submit_ms": median_of("submit_ms"),
        "harness.serve.queue_wait_ms": median_of("queue_wait_ms"),
        "harness.serve.exec_ms": median_of("exec_ms"),
        "harness.serve.result_ms": median_of("result_ms"),
        "harness.serve.polls_per_job": _ratio(
            sum(r["polls"] for r in records), len(records)),
        "harness.serve.coalesced": float(coalesced),
        "harness.serve.rejected": float(rejected),
        "harness.serve.shared_ratio": _ratio(coalesced, accepted),
    })
    h.shares["serve_shared_ratio"] = _ratio(coalesced, accepted)
    h.shares["serve_coalesced"] = float(coalesced)
    cache = {
        key: after["cache"][key] - before["cache"][key]
        for key in ("hits", "memory_hits", "misses")
    }
    hits = cache["hits"] + cache["memory_hits"]
    h.shares["cache_hit_ratio"] = _ratio(hits, hits + cache["misses"])


# ======================================================================
# churn
# ======================================================================
def churn(h: Harness) -> None:
    """The ``repro churn`` path: apply a batch, recompute incrementally.

    The seeded trace runs in rounds.  Each round has an insert-only phase
    (every batch must take the delta path) and then one mixed
    insert/delete batch (which must fall back to a full rerun), so both
    kinds of batch are spread over the whole timed phase.  Before each
    mixed batch and at the end, the properties must be bit-identical to
    a full ``run_vcpm`` rerun; these checks are not timed.
    """
    sizes = h.sizes
    spec = get_algorithm(CHURN_ALGORITHM)
    key = f"{sizes.churn_graph}-CHURN"
    n_insert = _count(sizes.churn_inserts_per_s, h.seconds)
    n_mixed = _count(sizes.churn_mixed_per_s, h.seconds)
    insert_seed, mixed_seed = (int(s) for s in _seed_words(h.seed, 2))

    def build():
        datasets.clear_cache()
        base = datasets.load(sizes.churn_graph)
        graph = dynamic.DynamicGraph(base, key=key)
        dynamic.register(graph, replace=True)
        previous = vcpm.run_vcpm(graph.graph, spec, source=0)
        # Mixed batches delete only edges of the base graph or edges an
        # earlier mixed batch inserted, which insert-only batches never
        # remove, so the two traces interleave cleanly.
        inserts = list(dynamic.churn_batches(
            base, n_insert, sizes.churn_batch_edges, 1.0, insert_seed))
        mixed = list(dynamic.churn_batches(
            base, n_mixed, sizes.churn_batch_edges, 0.5, mixed_seed))
        rounds = [
            (inserts[r * n_insert // n_mixed:(r + 1) * n_insert // n_mixed],
             mixed[r])
            for r in range(n_mixed)
        ]
        return graph, previous, rounds

    graph, previous, rounds = h.setup(h.sizes.churn_setups, build)
    modes: Dict[str, int] = {"delta": 0, "full": 0}
    wrong_mode: Dict[str, int] = {"delta": 0, "full": 0}
    diverged = 0

    def step(batch, expected_mode: str) -> None:
        nonlocal previous
        start = h.clock.now()
        graph.apply(batch)
        outcome = incremental.run_vcpm_incremental(
            graph.graph, spec, batch, previous, source=0
        )
        h.op_ms.append((h.clock.now() - start) * 1e3)
        previous = outcome.result
        modes[outcome.mode] += 1
        wrong_mode[expected_mode] += outcome.mode != expected_mode

    def matches_full_rerun() -> bool:
        full = vcpm.run_vcpm(graph.graph, spec, source=0)
        return full.properties.tobytes() == previous.properties.tobytes()

    try:
        for inserts, mixed in rounds:
            with h.phase():
                for batch in inserts:
                    step(batch, "delta")
            diverged += not matches_full_rerun()
            with h.phase():
                step(mixed, "full")
        diverged += not matches_full_rerun()
    finally:
        dynamic.unregister(key)
    h.attempted = len(h.op_ms)
    if diverged:
        h.fail(h.attempted, f"{diverged} checks found properties that "
               "differ from a full rerun")
    elif sum(wrong_mode.values()):
        h.fail(sum(wrong_mode.values()), f"batches that took the wrong "
               f"path, by expected path: {wrong_mode}")
    h.shares["churn_delta_batches"] = float(modes["delta"])
    h.shares["churn_full_batches"] = float(modes["full"])
    h.layers["vcpm.incremental.delta_ratio"] = _ratio(modes["delta"], n_insert)


def _seed_words(seed: int, n: int) -> List[int]:
    import numpy as np

    return list(np.random.SeedSequence(seed).generate_state(n))


# ======================================================================
# Metrics
# ======================================================================
def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(h: Harness, import_s: float) -> Dict[str, Tuple[float, str]]:
    wall = sum(h.phase_walls)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (import_s + statistics.median(h.setup_times), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (statistics.median(h.op_ms), "ms"),
        "op_p90_ms": (percentile(h.op_ms, 90), "ms"),
        "ops_per_s": (len(h.op_ms) / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


#: Per-layer metrics the traced run reports for every workload; a layer
#: a workload does not exercise reads 0.
PER_LAYER_UNITS = {
    "proc.import_s": "s",
    "graph.datasets.load_s": "s",
    "graph.datasets.load_calls": "count",
    "graph.dynamic.apply_s": "s",
    "graph.dynamic.apply_calls": "count",
    "graph.dynamic.edges_changed": "count",
    "vcpm.engine.self_s": "s",
    "vcpm.engine.iterations": "count",
    "vcpm.engine.edges": "count",
    "vcpm.incremental.s": "s",
    "vcpm.incremental.delta_ratio": "ratio",
    "backends.graphdyns.on_iteration_s": "s",
    "backends.graphicionado.on_iteration_s": "s",
    "backends.gunrock.on_iteration_s": "s",
    "backends.dca.on_iteration_s": "s",
    "backends.report_energy_s": "s",
    "harness.service.cache_hits": "count",
    "harness.service.cache_misses": "count",
    "harness.service.hit_ratio": "ratio",
    "harness.service.stores": "count",
    "harness.service.miss_overhead_s": "s",
    "harness.service.hit_s": "s",
    "harness.planner.build_plan_s": "s",
    "harness.planner.execute_plan_s": "s",
    "metrics.serialize.canonical_json_s": "s",
    "harness.serve.submit_ms": "ms",
    "harness.serve.queue_wait_ms": "ms",
    "harness.serve.exec_ms": "ms",
    "harness.serve.result_ms": "ms",
    "harness.serve.polls_per_job": "count",
    "harness.serve.coalesced": "count",
    "harness.serve.rejected": "count",
    "harness.serve.shared_ratio": "ratio",
    "error_rate": "ratio",
    "trace.wall_s": "s",
    "trace.self_coverage": "ratio",
}

#: Per-layer time metrics: the self time of the spans of one name.
_SELF_TIME = {
    "graph.datasets.load_s": "graph.datasets.load",
    "graph.dynamic.apply_s": "graph.dynamic.apply",
    "vcpm.engine.self_s": "vcpm.engine.run",
    "backends.graphdyns.on_iteration_s": "backends.graphdyns.on_iteration",
    "backends.graphicionado.on_iteration_s":
        "backends.graphicionado.on_iteration",
    "backends.gunrock.on_iteration_s": "backends.gunrock.on_iteration",
    "backends.dca.on_iteration_s": "backends.dca.on_iteration",
    "backends.report_energy_s": "backends.report_energy",
    "harness.planner.build_plan_s": "harness.planner.build_plan",
    "harness.planner.execute_plan_s": "harness.planner.execute_plan",
    "metrics.serialize.canonical_json_s": "metrics.serialize.canonical_json",
}


def per_layer(h: Harness, import_s: float) -> Dict[str, Tuple[float, str]]:
    tracer = h.tracer
    assert tracer is not None
    spans = tracer.spans
    by_name = totals_by_name(spans)
    hits = totals_by_name(spans, tag="hit").get("harness.service.cell", {})
    misses = totals_by_name(spans, tag="miss").get("harness.service.cell", {})

    def calls(name: str) -> float:
        return float(by_name.get(name, {}).get("calls", 0))

    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(
        (metric, by_name.get(name, {}).get("self_s", 0.0))
        for metric, name in _SELF_TIME.items()
    )
    n_hits, n_misses = hits.get("calls", 0), misses.get("calls", 0)
    own = self_times(spans)
    roots = [s for s in spans if s.name == "phase" and s.parent is None]
    phase_wall = sum(s.duration for s in roots)
    values.update({
        "proc.import_s": import_s,
        "graph.datasets.load_calls": calls("graph.datasets.load"),
        "graph.dynamic.apply_calls": calls("graph.dynamic.apply"),
        "graph.dynamic.edges_changed": float(
            tracer.counts["graph.dynamic.edges_changed"]),
        "vcpm.engine.iterations": float(tracer.counts["vcpm.engine.iterations"]),
        "vcpm.engine.edges": float(tracer.counts["vcpm.engine.edges"]),
        "vcpm.incremental.s": by_name.get("vcpm.incremental", {}).get(
            "total_s", 0.0),
        "harness.service.cache_hits": float(n_hits),
        "harness.service.cache_misses": float(n_misses),
        "harness.service.hit_ratio": _ratio(n_hits, n_hits + n_misses),
        "harness.service.stores": float(tracer.counts["harness.service.stores"]),
        "harness.service.miss_overhead_s": misses.get("self_s", 0.0),
        "harness.service.hit_s": hits.get("total_s", 0.0),
        "error_rate": _ratio(h.failed, h.attempted),
        "trace.wall_s": sum(h.phase_walls),
        "trace.self_coverage": 1.0 - _ratio(
            sum(own[s.id] for s in roots), phase_wall),
    })
    values.update(h.layers)
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}

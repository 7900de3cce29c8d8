"""Sharded execution tests: the byte-identical merge-at-Apply invariant.

The contract under test (ISSUE tentpole): for every algorithm, graph,
shard count, VB capacity, and storage backend, the partitioned engine's
results are *bitwise* identical to the unsharded in-memory path —
properties, traces, convergence, and the canonical report JSON the
harness derives from them.
"""

import numpy as np
import pytest

from repro.graph import datasets
from repro.vcpm import (
    ALGORITHMS,
    ShardScatterTask,
    run_vcpm,
    run_vcpm_partitioned,
    scatter_shard_task,
)
from repro.harness.resilience import RunManifest
from repro.harness.service import RunService, canonical_reports_json


def _bitwise_equal(a, b):
    assert a.properties.dtype == b.properties.dtype
    assert a.properties.tobytes() == b.properties.tobytes()
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.source == b.source


class TestByteIdenticalInvariant:
    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_sharded_matches_unsharded(self, small_powerlaw, algo, shards):
        spec = ALGORITHMS[algo]
        baseline = run_vcpm(small_powerlaw, spec, source=0)
        sharded = run_vcpm_partitioned(
            small_powerlaw, spec, shards=shards, source=0
        )
        _bitwise_equal(baseline, sharded)

    @pytest.mark.parametrize("algo", ["BFS", "PR"])
    @pytest.mark.parametrize("vb", [None, 64, 256])
    def test_sharding_composes_with_vb_slicing(self, small_powerlaw, algo, vb):
        spec = ALGORITHMS[algo]
        baseline = run_vcpm(small_powerlaw, spec, source=0)
        sharded = run_vcpm_partitioned(
            small_powerlaw, spec, shards=4, vb_capacity_bytes=vb, source=0
        )
        _bitwise_equal(baseline, sharded)

    @pytest.mark.parametrize(
        "fixture", ["tiny_graph", "small_grid", "small_chain", "disconnected_graph"]
    )
    def test_across_graph_shapes(self, request, fixture):
        graph = request.getfixturevalue(fixture)
        for algo in ("BFS", "CC", "PR"):
            baseline = run_vcpm(graph, ALGORITHMS[algo], source=0)
            sharded = run_vcpm_partitioned(
                graph, ALGORITHMS[algo], shards=3, source=0
            )
            _bitwise_equal(baseline, sharded)

    def test_more_shards_than_vertices(self, tiny_graph):
        baseline = run_vcpm(tiny_graph, ALGORITHMS["SSSP"], source=0)
        sharded = run_vcpm_partitioned(
            tiny_graph, ALGORITHMS["SSSP"], shards=100, source=0
        )
        _bitwise_equal(baseline, sharded)

    def test_mmap_storage_matches_memory(self):
        mem = datasets.load("FR")
        mapped = datasets.load("FR", storage="mmap")
        for algo in ("BFS", "PR"):
            baseline = run_vcpm(mem, ALGORITHMS[algo], source=0)
            sharded = run_vcpm_partitioned(
                mapped, ALGORITHMS[algo], shards=4, source=0
            )
            assert baseline.properties.tobytes() == sharded.properties.tobytes()
            assert baseline.iterations == sharded.iterations


class TestShardObservability:
    def test_per_shard_spans_and_counters(self, tiny_graph):
        from repro.obs import TraceRecorder, use_recorder

        rec = TraceRecorder()
        with use_recorder(rec):
            run_vcpm_partitioned(tiny_graph, ALGORITHMS["CC"], shards=3)
        shard_spans = [s for s in rec.spans if s.name == "vcpm.shard_scatter"]
        assert shard_spans
        assert {s.attrs["shard"] for s in shard_spans} == {0, 1, 2}
        iters = sum(
            1 for s in rec.spans if s.name == "vcpm.iteration"
        )
        assert rec.counter("vcpm.shard.scatters").value == 3 * iters

    def test_recording_never_changes_results(self, small_powerlaw):
        from repro.obs import TraceRecorder, use_recorder

        baseline = run_vcpm_partitioned(
            small_powerlaw, ALGORITHMS["PR"], shards=4
        )
        with use_recorder(TraceRecorder()):
            traced = run_vcpm_partitioned(
                small_powerlaw, ALGORITHMS["PR"], shards=4
            )
        _bitwise_equal(baseline, traced)


class TestShardRunnerSeam:
    def test_in_process_task_runner_matches(self, small_powerlaw):
        calls = []

        def runner(tasks):
            calls.append(len(tasks))
            return [scatter_shard_task(t, small_powerlaw) for t in tasks]

        baseline = run_vcpm(small_powerlaw, ALGORITHMS["BFS"], source=0)
        via_tasks = run_vcpm_partitioned(
            small_powerlaw,
            ALGORITHMS["BFS"],
            shards=3,
            source=0,
            shard_runner=runner,
        )
        _bitwise_equal(baseline, via_tasks)
        assert calls and all(n == 3 for n in calls)

    def test_tasks_are_picklable(self, small_powerlaw):
        import pickle

        captured = []

        def runner(tasks):
            captured.extend(tasks)
            return [scatter_shard_task(t, small_powerlaw) for t in tasks]

        run_vcpm_partitioned(
            small_powerlaw,
            ALGORITHMS["BFS"],
            shards=2,
            source=0,
            shard_runner=runner,
            graph_ref=("FR", "memory"),
        )
        task = captured[0]
        assert isinstance(task, ShardScatterTask)
        assert task.graph_ref == ("FR", "memory")
        clone = pickle.loads(pickle.dumps(task))
        assert clone.vertex_hi == task.vertex_hi

    def test_scatter_shard_task_reduces_segment(self, tiny_graph):
        spec = ALGORITHMS["BFS"]
        prop = spec.initial_prop(tiny_graph.num_vertices, 0)
        task = ShardScatterTask(
            iteration=0,
            shard_index=0,
            vertex_lo=0,
            vertex_hi=tiny_graph.num_vertices,
            algorithm="BFS",
            graph_ref=None,
            active=np.array([0], dtype=np.int64),
            prop=prop,
            t_prop_segment=spec.initial_tprop(tiny_graph.num_vertices),
        )
        segment = scatter_shard_task(task, tiny_graph)
        assert segment.shape == (tiny_graph.num_vertices,)
        assert np.isfinite(segment).any()


class TestServiceIntegration:
    ALGOS = ("BFS", "PR")

    def _reports(self, **kwargs):
        service = RunService(use_cache=False, **kwargs)
        return canonical_reports_json(
            [service.cell(a, "FR") for a in self.ALGOS]
        )

    def test_canonical_reports_identical_across_modes(self):
        baseline = self._reports()
        assert self._reports(shards=4) == baseline
        assert self._reports(storage="mmap", shards=4) == baseline

    def test_process_shard_fanout_matches(self):
        baseline = self._reports()
        fanned = self._reports(
            storage="mmap", shards=2, jobs=2, executor="process"
        )
        assert fanned == baseline

    def test_resilient_service_with_shards_matches(self, tmp_path):
        baseline = self._reports()
        service = RunService(
            use_cache=False,
            shards=3,
            manifest_path=str(tmp_path / "sweep.jsonl"),
        )
        resilient = canonical_reports_json(
            [service.cell(a, "FR") for a in self.ALGOS]
        )
        assert resilient == baseline

    def test_request_cache_key_ignores_execution_strategy(self):
        plain = RunService(use_cache=False)
        sharded = RunService(use_cache=False, storage="mmap", shards=4)
        fp = datasets.fingerprint("FR")
        assert plain.request_for("BFS", "FR").cache_key(fp, "v") == sharded.request_for(
            "BFS", "FR"
        ).cache_key(fp, "v")

    def test_service_rejects_bad_storage_and_shards(self):
        with pytest.raises(ValueError):
            RunService(storage="tape")
        with pytest.raises(ValueError):
            RunService(shards=0)


class TestManifestShardBreadcrumbs:
    def test_mark_shard_round_trips(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        manifest = RunManifest.start(path, ["BFS"], ["FR"])
        manifest.mark_shard("BFS", "FR", 0, 3)
        manifest.mark_shard("BFS", "FR", 2, 3)
        manifest.mark_shard("BFS", "FR", 2, 3)  # idempotent
        assert manifest.shard_progress("BFS", "FR") == {0, 2}
        reloaded = RunManifest.load(path)
        assert reloaded.shard_progress("BFS", "FR") == {0, 2}
        assert not reloaded.is_completed("BFS", "FR")

    def test_shard_entries_do_not_break_cell_entries(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        manifest = RunManifest.start(path, ["BFS"], ["FR"])
        manifest.mark_shard("BFS", "FR", 1, 2)
        manifest.mark("BFS", "FR", cache_key="abc")
        reloaded = RunManifest.load(path)
        assert reloaded.is_completed("BFS", "FR")
        assert reloaded.shard_progress("BFS", "FR") == {1}

    def test_resilient_run_records_shard_progress(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        service = RunService(
            use_cache=False, shards=3, manifest_path=path
        )
        service.matrix(["BFS"], ["FR"])
        reloaded = RunManifest.load(path)
        assert reloaded.shard_progress("BFS", "FR") == {0, 1, 2}

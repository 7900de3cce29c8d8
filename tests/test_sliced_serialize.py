"""Sliced execution invariants and report serialization tests.

Functionally-sliced execution (Section 4.2.1) is the partitioned engine
with a single shard, sliced by the Vertex Buffer plan.
"""

import numpy as np
import pytest

from repro.graphdyns import GraphDynS
from repro.metrics import (
    load_reports,
    report_from_dict,
    report_to_dict,
    save_reports,
)
from repro.vcpm import ALGORITHMS, run_vcpm, run_vcpm_partitioned


def _finite_equal(a, b):
    return np.array_equal(
        np.nan_to_num(a, posinf=1e30, neginf=-1e30),
        np.nan_to_num(b, posinf=1e30, neginf=-1e30),
    )


class TestSlicedExecution:
    @pytest.mark.parametrize("algo", ["BFS", "SSSP", "CC", "SSWP"])
    def test_slicing_never_changes_results(self, algo, small_powerlaw):
        unsliced = run_vcpm(small_powerlaw, ALGORITHMS[algo], source=0)
        # Capacity for 64 vertices -> ~8 slices on this graph.
        sliced = run_vcpm_partitioned(
            small_powerlaw, ALGORITHMS[algo], shards=1, vb_capacity_bytes=256,
            source=0,
        )
        assert _finite_equal(unsliced.properties, sliced.properties)

    def test_pagerank_sliced(self, tiny_graph):
        unsliced = run_vcpm(
            tiny_graph, ALGORITHMS["PR"], max_iterations=5, pr_tolerance=0.0
        )
        sliced = run_vcpm_partitioned(
            tiny_graph, ALGORITHMS["PR"], shards=1, vb_capacity_bytes=8,
            max_iterations=5, pr_tolerance=0.0,
        )
        assert np.allclose(unsliced.properties, sliced.properties)

    def test_single_slice_is_unsliced(self, tiny_graph):
        sliced = run_vcpm_partitioned(
            tiny_graph, ALGORITHMS["BFS"], shards=1,
            vb_capacity_bytes=10**9, source=0,
        )
        unsliced = run_vcpm(tiny_graph, ALGORITHMS["BFS"], source=0)
        assert _finite_equal(unsliced.properties, sliced.properties)
        assert sliced.num_iterations == unsliced.num_iterations

    def test_iteration_traces_match_unsliced(self, small_powerlaw):
        # Slicing changes memory behaviour, not the algorithm: per-
        # iteration edge/update counts are identical.
        unsliced = run_vcpm(small_powerlaw, ALGORITHMS["SSSP"], source=0)
        sliced = run_vcpm_partitioned(
            small_powerlaw, ALGORITHMS["SSSP"], shards=1, vb_capacity_bytes=512,
            source=0,
        )
        assert [t.num_edges for t in sliced.iterations] == [
            t.num_edges for t in unsliced.iterations
        ]
        assert [t.num_modified for t in sliced.iterations] == [
            t.num_modified for t in unsliced.iterations
        ]

    def test_source_required(self, tiny_graph):
        with pytest.raises(ValueError):
            run_vcpm_partitioned(
                tiny_graph, ALGORITHMS["BFS"], shards=1, vb_capacity_bytes=64,
                source=None,
            )


class TestReportSerialization:
    @pytest.fixture(scope="class")
    def report(self, medium_powerlaw):
        _, report = GraphDynS().run(
            medium_powerlaw, ALGORITHMS["SSSP"], source=0
        )
        return report

    def test_roundtrip_preserves_scalars(self, report):
        rebuilt = report_from_dict(report_to_dict(report))
        assert rebuilt.system == report.system
        assert rebuilt.cycles == report.cycles
        assert rebuilt.edges_processed == report.edges_processed
        assert rebuilt.scheduling_ops == report.scheduling_ops

    def test_roundtrip_preserves_traffic(self, report):
        rebuilt = report_from_dict(report_to_dict(report))
        assert rebuilt.traffic.total == report.traffic.total
        assert rebuilt.traffic.breakdown() == report.traffic.breakdown()

    def test_roundtrip_preserves_derived_metrics(self, report):
        rebuilt = report_from_dict(report_to_dict(report))
        assert rebuilt.gteps == pytest.approx(report.gteps)
        assert rebuilt.bandwidth_utilization == pytest.approx(
            report.bandwidth_utilization
        )

    def test_roundtrip_preserves_phases(self, report):
        rebuilt = report_from_dict(report_to_dict(report))
        assert len(rebuilt.phases) == len(report.phases)
        assert rebuilt.phases[0].scatter_cycles == pytest.approx(
            report.phases[0].scatter_cycles
        )

    def test_file_roundtrip(self, report, tmp_path):
        path = str(tmp_path / "results.json")
        save_reports([report, report], path)
        loaded = load_reports(path)
        assert len(loaded) == 2
        assert loaded[0].cycles == report.cycles

    def test_json_is_human_readable(self, report, tmp_path):
        import json

        path = str(tmp_path / "r.json")
        save_reports([report], path)
        with open(path) as handle:
            data = json.load(handle)
        assert data[0]["derived"]["gteps"] > 0

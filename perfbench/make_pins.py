"""Regenerate pins.json: the digests the benchmark checks outputs against.

Run from the root of a checkout, only when a change is meant to alter
the reports (the goldens under tests/goldens change with it):

    python3 perfbench/make_pins.py

Pins the sha256 of ``canonical_reports_json`` for every cell of the
matrix-cold and replay-warm grids, and for each grid as a whole.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.harness.experiments import ExperimentSuite  # noqa: E402
from repro.harness.service import canonical_reports_json  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    sizes = workloads.FULL
    pins = {"cells": {}, "grids": {}}
    suite = ExperimentSuite()
    for graphs in (sizes.matrix_graphs, sizes.replay_graphs):
        cells = suite.matrix(sizes.algorithms, graphs)
        label = workloads.grid_label(sizes.algorithms, graphs)
        pins["grids"][label] = workloads.sha256(canonical_reports_json(cells))
        for cell in cells:
            key = f"{cell.algorithm}/{cell.graph_key}"
            pins["cells"][key] = workloads.cell_digest(cell)
    with open(workloads.PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.PINS_PATH} ({len(pins['cells'])} cells)")


if __name__ == "__main__":
    main()

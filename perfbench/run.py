"""End-to-end benchmark of the GraphDynS reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload matrix-cold --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  A run whose outputs fail their checks prints its result
and exits 1.  Details of every run (seed, setup repetitions, input
property shares, failures) go to ``perfbench/.work/results/``; a traced
run also writes its spans there.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("matrix-cold", "replay-warm", "serve-closed", "churn")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def keep_files_inside(work: str) -> None:
    """Keep every file the program writes inside the checkout."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ.update(
        TMPDIR=tmp,
        REPRO_SPILL_DIR=tmp,
        REPRO_COMPILE_CACHE=os.path.join(work, "compiled"),
    )


#: ``mallopt`` parameter number of glibc's M_ARENA_MAX.
M_ARENA_MAX = -8


def pin_malloc_arenas() -> None:
    """Make glibc's malloc use one arena for every thread.

    With the default of one arena per thread (up to 8 per core), which
    arena a short-lived thread lands in is up to the scheduler, and the
    daemon's per-request threads then move peak RSS by 15% from run to
    run.  Off glibc this does nothing.
    """
    try:
        ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    except (AttributeError, OSError):
        pass


def main(argv=None, sizes=None, pins=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    keep_files_inside(WORK)
    pin_malloc_arenas()
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import hostclock

    clock = hostclock.HostClock()
    try:
        return measure(args, clock, sizes, pins)
    finally:
        clock.release()


def measure(args, clock, sizes, pins) -> int:
    start = clock.now()
    import workloads
    from repro.kernels.tiers import resolve_tier

    resolve_tier("auto")  # loads (on first use, builds) the kernel tier
    import_s = clock.now() - start

    run_dir = os.path.join(WORK, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    harness = workloads.Harness(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        sizes=sizes or workloads.FULL,
        work_dir=run_dir,
        pins=pins if pins is not None else workloads.load_pins(),
        clock=clock,
    )
    try:
        if args.workload == "matrix-cold":
            workloads.matrix_cold(harness)
        elif args.workload == "replay-warm":
            workloads.replay_warm(harness)
        elif args.workload == "serve-closed":
            workloads.serve_closed(harness)
        else:
            workloads.churn(harness)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics = workloads.per_layer(harness, import_s)
    else:
        metrics = workloads.end_to_end(harness, import_s)
    correct = harness.failed == 0 and harness.attempted > 0
    result = {
        "correct": correct,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    write_details(args, harness, import_s, result)
    print(json.dumps(result))
    return 0 if correct else 1


def write_details(args, harness, import_s: float, result: dict) -> None:
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "import_s": import_s,
        "setup_repetitions_s": harness.setup_times,
        "phase_segments_s": harness.phase_walls,
        "phase_steal_s": harness.phase_steal,
        "cpu": harness.clock.cpu,
        "ops": len(harness.op_ms),
        "op_ms": harness.op_ms,
        "input_shares": harness.shares,
        "problems": harness.problems,
        "result": result,
    }
    with open(stem + ".json", "w") as handle:
        json.dump(details, handle, indent=2, sort_keys=True)
    if harness.tracer is not None:
        harness.tracer.write(stem + ".spans.jsonl")


if __name__ == "__main__":
    sys.exit(main())

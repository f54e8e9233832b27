"""One benchmark run in a fresh process: parse, run and render the suites once.

Reads ``{"configs": [...]}`` (generated suite configs) on stdin and prints one
JSON object on stdout.  It takes the same path as ``idealcore experiment``
without click: ``specs.parse_experiment_config`` -> ``harness.run_suite`` ->
``harness.render_json`` and ``render_csv``.  A fresh process pays the cold
module caches on every run, as a CLI user does.

Usage: python3 perfbench/child.py --src SRC_DIR [--trace | --setup-only]

``--setup-only`` stops after set-up and reports only its set-up times.

On a virtual machine that shares its host, wall time includes time stolen by
other guests, and the CPU's speed drifts by tens of percent over minutes.  So
the child also reports CPU times: ``setup_cpu_s`` is the main thread's
(numpy's BLAS threads may spin while it imports), ``cpu_s`` the whole
process's.  ``ref_s`` is the main thread's CPU time for a fixed pure-Python
reference loop just before and just after the suites (their mean), by which
``run.py`` divides ``cpu_s``; ``setup_ref_s`` is the same loop timed just
before the import.  ``setup_s`` is ``setup_cpu_s`` at the CPU speed where the
loop takes ``NOMINAL_REF_S``.

The child pins itself to one CPU.  With two, the pool's threads pass the GIL
between cores, and how much CPU that costs depends on what else the host runs:
two consecutive unpinned ``checks`` children used 124 and 176 reference loops
of CPU time, pinned ones 103 and 110.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _item_summary(item: dict) -> dict:
    out = {"status": item["status"]}
    if "experiment" in item:
        out["experiment"] = {
            "rows": [
                {k: r[k] for k in ("label", "core_x_lo", "core_x_hi", "core_ax_lo", "core_ax_hi")}
                for r in item["experiment"]["rows"]
            ]
        }
    return out


# The reference loop's CPU time at the speed ``setup_s`` is expressed in; the
# loop took 24-40 ms on the 2-vCPU machine the README describes.
NOMINAL_REF_S = 0.030


def _reference_loop_s() -> float:
    """Best of three thread-CPU-time timings of a fixed pure-Python loop (some 30 ms)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.thread_time()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.thread_time() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--trace", action="store_true")
    group.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    raw_configs = json.loads(sys.stdin.read())["configs"]
    sys.path.insert(0, str(Path(args.src).resolve()))

    setup_ref_s = _reference_loop_s()
    cpu_t0, wall_t0 = time.thread_time(), time.perf_counter()
    import idealcore  # noqa: F401  (the import is part of set-up)
    from idealcore import harness, specs

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    configs = [specs.parse_experiment_config(raw) for raw in raw_configs]
    setup_cpu_s = time.thread_time() - cpu_t0
    setup_wall_s = time.perf_counter() - wall_t0
    setup = {
        "setup_s": setup_cpu_s * NOMINAL_REF_S / setup_ref_s,
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
        "setup_ref_s": setup_ref_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return

    ref_before = _reference_loop_s()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    rendered = []
    for config in configs:
        bundle = harness.run_suite(config)
        rendered.append((bundle, harness.render_json(bundle), harness.render_csv(bundle)))
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    ref_s = (ref_before + _reference_loop_s()) / 2.0

    out = {
        **setup,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "suites": [
            {
                "json_sha256": hashlib.sha256(text_json.encode()).hexdigest(),
                "csv_sha256": hashlib.sha256(text_csv.encode()).hexdigest(),
                "items": [_item_summary(item) for item in bundle.items],
            }
            for bundle, text_json, text_csv in rendered
        ],
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

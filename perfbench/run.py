"""The idealcore benchmark: run one workload for a fixed time and report metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the four workloads in turn, each for ``--seconds``.

One process (this one) starts one fresh child process (``child.py``) per run,
one at a time, until ``--seconds`` have passed: a closed loop with a single
client.  Each child parses, runs and renders the workload's suites once.  The
program's own 4-thread item pool is left as it is; the benchmark adds no
parallelism, and each child pins itself to one CPU (see ``child.py``).

The bounded timings are CPU times divided by the CPU time of a reference loop
that each child times: ``setup_s``, the set-up time of the main thread at a
nominal speed, and ``cpu_ref``, the suites' CPU time in reference loops.  On a virtual machine that shares its host, wall time
includes time stolen by other guests and the CPU's speed drifts by tens of
percent over minutes; CPU time excludes the first and the ratio cancels most
of the second.  Wall times are printed in the summary.

Every run's JSON and CSV reports must be byte-identical, and the answers are
compared with a table taken from the theory (``answers.py``).  With
``--trace 0`` every child is untraced and the end-to-end metrics are reported;
with ``--trace 1`` untraced and traced children alternate and the per-layer
metrics of the traced ones are reported, with the tracing overhead.  A human
summary comes first; the last line of stdout is one JSON object.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# A run must end within 180 s; no child is started or allowed to run past this.
_RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "right_share": "share",
}


def _run_child(src: Path, payload: str, mode: str | None, timeout: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(src)]
    if mode:
        cmd.append(mode)
    try:
        proc = subprocess.run(cmd, input=payload, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"child failed with code {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _summary_line(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = _quartiles(values)
    spread = (q3 - q1) / med if med else 0.0
    return (
        f"  {name:<40} median {med:.6g} {unit}  n={len(values)}  "
        f"q1 {q1:.6g}  q3 {q3:.6g}  iqr/median {spread:.1%}"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload, print its summary and return the result object."""
    src = root / "src"
    entries = workloads.generate(name, seed, root)
    payload = json.dumps({"configs": [e["config"] for e in entries]})
    keys = [workloads.item_keys(e) for e in entries]
    items_per_run = sum(len(k) for k in keys)

    started = time.perf_counter()
    setups: list[dict | None] = []
    results: list[tuple[bool, dict | None]] = []
    while True:
        elapsed = time.perf_counter() - started
        traced = trace and len(results) % 2 == 1
        done = elapsed >= seconds and len(results) >= (2 if trace else 1)
        if done or elapsed >= _RUN_LIMIT_S:
            break
        if not trace:
            # Set-up is short and noisy, so an untraced run also times it in a
            # child that only sets up, before each full child.
            out = _run_child(src, payload, "--setup-only", _RUN_LIMIT_S - elapsed)
            setups.append(out)
            elapsed = time.perf_counter() - started
        out = _run_child(src, payload, "--trace" if traced else None, _RUN_LIMIT_S - elapsed)
        results.append((traced, out))
        if out is None:
            break

    outputs = [out for _, out in results if out is not None]
    crashed = len(results) - len(outputs)
    attempted = items_per_run * len(results)
    errors = sum(
        item["status"] == "error" for out in outputs for suite in out["suites"] for item in suite["items"]
    )
    failed = errors + crashed * items_per_run
    digests = {tuple((s["json_sha256"], s["csv_sha256"]) for s in out["suites"]) for out in outputs}
    deterministic = len(digests) <= 1

    checked = matched = 0
    wrong: list[str] = []
    if outputs:
        for entry, entry_keys, suite in zip(entries, keys, outputs[0]["suites"]):
            labels = entry["config"].get("corpus_labels", ["all"])
            c, m, w = answers.check(entry_keys, suite["items"], labels)
            checked, matched = checked + c, matched + m
            wrong.extend(w)
    unexplained = [k for k in wrong if k not in answers.KNOWN_WRONG]
    correct = bool(outputs) and crashed == 0 and None not in setups and deterministic and not unexplained

    untraced = [out for traced, out in results if out is not None and not traced]
    traced_out = [out for traced, out in results if out is not None and traced]
    print(f"workload {name}, seed {seed}: {len(results)} runs "
          f"({len(traced_out)} traced), {items_per_run} items each")
    metrics: dict[str, dict] = {}
    if not trace:
        setup_outs = untraced + [out for out in setups if out is not None]
        samples = {
            "setup_s": [out["setup_s"] for out in setup_outs],
            "setup_cpu_s": [out["setup_cpu_s"] for out in setup_outs],
            "setup_wall_s": [out["setup_wall_s"] for out in setup_outs],
            "wall_s": [out["wall_s"] for out in untraced],
            "cpu_s": [out["cpu_s"] for out in untraced],
            "ref_s": [out["ref_s"] for out in untraced],
            "wall_ref": [out["wall_s"] / out["ref_s"] for out in untraced],
            "cpu_ref": [out["cpu_s"] / out["ref_s"] for out in untraced],
            "peak_rss_mb": [out["peak_rss_mb"] for out in untraced],
        }
        for metric, values in samples.items():
            if not values:
                continue
            unit = "ref" if metric.endswith("_ref") else END_TO_END.get(metric, "s")
            print(_summary_line(metric, values, unit))
            if metric in END_TO_END:
                metrics[metric] = {"value": statistics.median(values), "unit": unit}
        shares = {
            "ok_share": 1.0 - failed / attempted if attempted else 0.0,
            "right_share": matched / checked if checked else 0.0,
        }
        for metric, value in shares.items():
            print(f"  {metric:<40} {value:.6g} share")
            metrics[metric] = {"value": value, "unit": "share"}
    else:
        for metric, unit in tracer.LAYER_METRICS.items():
            values = [out["layers"][metric] for out in traced_out]
            if values:
                print(_summary_line(metric, values, unit))
                metrics[metric] = {"value": statistics.median(values), "unit": unit}
        if traced_out and untraced:
            overhead = statistics.median(o["wall_s"] for o in traced_out) - statistics.median(
                o["wall_s"] for o in untraced
            )
            print(f"  tracing overhead: traced minus untraced wall_s = {overhead:.4f} s")
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"  failed_share {failed}/{attempted} = {failed / attempted if attempted else 0.0:.4f} (items)")
    print(f"  wrong_answers {len(wrong)} of {checked} checked; matched {matched}")
    for key in wrong:
        print(f"    wrong: {key} [{answers.KNOWN_WRONG.get(key, 'NOT EXPLAINED: a new wrong answer')}]")
    if not deterministic:
        print("  NONDETERMINISTIC: runs rendered different reports")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "idealcore" / "__init__.py").is_file():
        print("no idealcore sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    # Byte-compile once so that no child's set-up includes compiling the sources.
    compileall.compile_dir(str(src / "idealcore"), quiet=1)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    else:
        # Every workload in turn; metrics are named <workload>/<metric>.
        parts = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), root) for w in workloads.NAMES}
        result = {
            "correct": all(r["correct"] for r in parts.values()),
            "attempted": sum(r["attempted"] for r in parts.values()),
            "failed": sum(r["failed"] for r in parts.values()),
            "metrics": {f"{w}/{m}": v for w, r in parts.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

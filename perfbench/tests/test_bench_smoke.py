import json
import shutil
import subprocess
import sys

import pytest

import answers
import run
import tracer
import workloads

ROOT = workloads.HERE.parent
CHILD = workloads.HERE / "child.py"


def _shrunk(name):
    """The workload at a reduced size: same suites, shorter horizons."""
    entries = workloads.generate(name, 3, ROOT)
    for entry in entries:
        cfg = entry["config"]["cfg"]
        cfg["check_horizon"] = min(cfg.get("check_horizon", 10_000), 500)
        cfg["core_horizon"] = min(cfg.get("core_horizon", 100_000), 1000)
    return entries


def _child(entries, traced=False):
    cmd = [sys.executable, str(CHILD), "--src", str(ROOT / "src")] + (["--trace"] if traced else [])
    payload = json.dumps({"configs": [e["config"] for e in entries]})
    proc = subprocess.run(cmd, input=payload, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_runs_deterministically_at_reduced_size(name):
    entries = _shrunk(name)
    plain, traced = _child(entries), _child(entries, traced=True)
    for key in ("setup_s", "setup_cpu_s", "setup_wall_s", "setup_ref_s", "wall_s", "cpu_s", "ref_s", "peak_rss_mb"):
        assert plain[key] > 0
    digests = [[(s["json_sha256"], s["csv_sha256"]) for s in out["suites"]] for out in (plain, traced)]
    assert digests[0] == digests[1]  # tracing does not change the reports
    assert set(traced["layers"]) == set(tracer.LAYER_METRICS)
    assert traced["layers"]["harness.items"] == sum(len(workloads.item_keys(e)) for e in entries)
    for entry, suite in zip(entries, plain["suites"]):
        checked, matched, _ = answers.check(
            workloads.item_keys(entry), suite["items"], entry["config"]["corpus_labels"]
        )
        assert 0 <= matched <= checked


def test_seed_zero_bundled_reports_equal_the_cli_reports(tmp_path):
    click_testing = pytest.importorskip("click.testing")
    from idealcore import harness, specs
    from idealcore.cli import main

    for entry in workloads.generate("bundled", 0, ROOT):
        path = ROOT / "src" / "idealcore" / "configs" / f"{entry['name']}.json"
        assert entry["config"] == json.loads(path.read_text())
        out = tmp_path / f"{entry['name']}.json"
        click_testing.CliRunner().invoke(main, ["experiment", "--config", str(path), "--output", str(out)])
        bundle = harness.run_suite(specs.parse_experiment_config(entry["config"]))
        assert harness.render_json(bundle) == out.read_text()


def test_run_prints_every_end_to_end_metric_last():
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / "run.py"), "--workload", "bundled",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 4
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

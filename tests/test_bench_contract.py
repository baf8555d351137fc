"""The hooks perfbench/ drives `repro` through, exercised on a tiny config.

probe.py and tracer.py replace cli, app, netgen, detect, sim and store
attributes from outside the program, so renaming or rebinding one of those
names would make the benchmark fail rather than a test. These tests only
read perfbench/.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from feedsim.cli import main
from test_cli import tiny_config, write_config

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _bench_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _python(tmp_path, script, *args):
    return subprocess.run([sys.executable, str(BENCH / script), *map(str, args)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.fixture
def repro_args(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "unused"))
    return ["repro", "--config", cfg_path, "--out", tmp_path / "out"]


def test_probe_stops_repro_at_its_first_stage(tmp_path, repro_args):
    done = _python(tmp_path, "probe.py", *repro_args)
    assert done.returncode == 0, done.stderr
    [clock] = done.stdout.split()
    float(clock)
    assert not (tmp_path / "out" / "network_profile.jsonl").exists()


def test_tracer_sees_every_layer_and_its_counts_match_the_program(tmp_path, repro_args):
    trace_path = tmp_path / "trace.json"
    done = _python(tmp_path, "tracer.py", trace_path, *repro_args)
    out = tmp_path / "out"
    assert (out / "repro_summary.txt").exists(), done.stderr
    trace = json.loads(trace_path.read_text())
    trace["trace_stats"] = json.loads((out / "trace_stats.json").read_text())
    trace["detection_totals"] = json.loads((out / "detection_totals.json").read_text())
    assert {"run_start", "loop_start", "report_end"} <= set(trace["marks"])

    run = _bench_run_module()
    assert run.self_test(trace) == []
    metrics = run.layer_metrics(trace, 0.0, 0.0)
    assert metrics["sim.schedule_calls"][0] > 0
    assert metrics["sim.pending_peak"][0] > 0
    assert metrics["app.log_bytes"][0] > 0
    # repro hands each stage the products of the last: one detection pass,
    # and no log or network file read back.
    assert metrics["cli.detect_calls"][0] == 1
    assert metrics["app.log_reads"][0] == 0
    assert metrics["cli.network_loads"][0] == 0


@pytest.mark.parametrize("name", ["desk_anomaly", "zero_delay_2h"])
def test_repro_matches_the_benchmark_reference(tmp_path, name):
    """Exit code, verdicts and every artifact's digest equal perfbench/reference.json."""
    run = _bench_run_module()
    workload = run.WORKLOADS[name]
    bench = run.Bench(workload, workload.seed, tmp_path)
    assert bench.canned
    out = tmp_path / "out"
    code = main([str(arg) for arg in bench.feedsim_args(out)])
    sample = run.Sample(wall_s=0.0, cpu_s=0.0, peak_rss_mb=0.0, exit_code=code,
                        verdicts=run.read_verdicts(out), digests=run.digest_dir(out))
    assert bench.problems(sample) == []

"""feedsim benchmark: end-to-end and per-layer cost of `feedsim repro`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk_anomaly [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --record

Every measured run is a fresh `python -m feedsim.cli repro` process with
the sources of this checkout (src/) and no benchmark code loaded, timed
from spawn to exit. CPU time and peak RSS come from os.wait4 on that
child alone; RUSAGE_CHILDREN would keep the largest RSS of any earlier
child. Set-up time is taken by probe.py, which runs the same command and
stops it where the first pipeline stage would start.

The shared machine this was built on runs the same job up to 25 % slower
or faster from one minute to the next, so the time metrics are scaled to
a fixed machine speed. Between every two samples the benchmark times
calibrate.py, a fixed job of the same kind as `repro` that imports
nothing from feedsim, and multiplies each sample's times by
CALIBRATION_REF_S over the mean of the calibrations just before and just
after it. The unscaled medians are printed beside the scaled ones and
reported with the per-layer metrics. With --trace 1 the
run ends with one more `repro` under tracer.py, which times each layer's
public calls from outside the program; tracing slows the event loop, so
wall times always come from the untraced runs.

Every run's artifacts are checked. At a workload's canned seed they must
match the SHA-256 digests, check verdicts and exit code in
reference.json. At any other seed no reference exists, so every run must
instead be byte-identical to the first run of the same invocation.
config_used.json is never compared: it embeds the output directory.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --workload all prints tables
for every workload instead. --record rewrites reference.json from two
identical runs per workload; doing so accepts a change of outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

# Each run takes at least two samples, so a seed without a reference is
# still checked for byte-identical output within the run.
MIN_SAMPLES = 2
MIN_PROBES = 3
# calibrate.py's median time on the baseline machine; see BASELINE.md.
# Scaled times read as seconds on that machine at that speed.
CALIBRATION_REF_S = 1.7
CHILD_TIMEOUT_S = 150
UNCOMPARED = {"config_used.json"}
EVENT_KINDS = ("tweet_arrival", "fanout_step", "propagation_arrival",
               "timeline_query", "retry_write")


@dataclass(frozen=True)
class Workload:
    """A canned `repro` input; BENCHMARK.json says why each gated one was chosen."""

    name: str
    seed: int
    config: str | None  # file under configs/; None runs `repro`'s own default config
    notes: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk_anomaly", 39, None,
        "The default `feedsim repro`: 679 producers x 1,963 consumers, 2 h, scheduled "
        "fan-out with cap 1 and 7.5 s service. Every check passes; exit code 0."),
    Workload(
        "zero_delay_2h", 1, "zero_delay_2h.json",
        "zero_delay_config(seed=1, duration_hours=2): zero lag and synchronous fan-out, so "
        "no fan-out or retry events and zero conflicts. Every check passes; exit code 0."),
    Workload(
        "anomaly_x10", 39, "anomaly_x10.json",
        "anomaly_config() at 6,790 x 19,630 users: 776,448 events, 4,047 conflict records. "
        "Real finding: gap_histogram_shape FAILs (18 nonempty buckets, peak not in the "
        "first bucket), so repro exits 1; every other check passes. That verdict is the "
        "reference. Not in BENCHMARK.json: a 25-35 s repro leaves two samples per run, "
        "too few for a gated workload."),
)}

END_TO_END_UNITS = {"repro_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SCALED = ("repro_s", "setup_s", "cpu_s")


@dataclass
class Sample:
    """One `repro` process: its cost and what it wrote."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    verdicts: dict[str, str] | None
    digests: dict[str, str]
    # CALIBRATION_REF_S over the calibration time around this sample.
    speed: float = 1.0


@dataclass
class Measured:
    """The untraced samples of one run, with the calibrations around them."""

    samples: list[Sample]
    setups: list[tuple[float, float]]  # (seconds, speed) per set-up probe
    calibrations: list[float]
    problems: list[str]


class Bench:
    """Runs one workload at one seed inside a private work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        # What every run must reproduce: the recorded reference at the canned
        # seed, otherwise whatever the first run of this invocation wrote.
        self.expected: dict | None = None
        if REFERENCE.exists():
            entry = json.loads(REFERENCE.read_text()).get(workload.name)
            if entry is not None and entry["seed"] == seed:
                self.expected = entry
        self.canned = self.expected is not None

    def feedsim_args(self, out: Path) -> list[str]:
        args = ["repro", "--seed", str(self.seed), "--out", str(out)]
        if self.workload.config is not None:
            args += ["--config", str(BENCH / "configs" / self.workload.config)]
        return args

    def repro(self, prefix: list[str], out: Path) -> Sample:
        """Run `python PREFIX repro ...` and wait for it alone."""
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, *prefix, *self.feedsim_args(out)]
        with open(self.work / "child.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024, exit_code=proc.returncode,
                      verdicts=read_verdicts(out), digests=digest_dir(out))

    def probe(self) -> float:
        """Seconds from spawning `repro` to the start of its first stage."""
        out = self.work / "probe"
        argv = [sys.executable, str(BENCH / "probe.py"), *self.feedsim_args(out)]
        start = time.monotonic()
        done = subprocess.run(argv, env=self.env, cwd=self.work, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=False)
        if done.returncode != 0 or not done.stdout.strip():
            raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr[-2000:]}")
        return float(done.stdout.split()[-1]) - start

    def calibrate(self) -> float:
        """Seconds from spawning calibrate.py to its exit."""
        argv = [sys.executable, str(BENCH / "calibrate.py"), str(self.work)]
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=self.work, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"calibration failed ({done.returncode}): {done.stderr[-2000:]}")
        return elapsed

    def problems(self, sample: Sample) -> list[str]:
        """Why a sample's outputs are wrong; empty when they are right."""
        found = []
        if sample.verdicts is None:
            found.append(f"no check verdicts (exit code {sample.exit_code}): "
                         + tail(self.work / "child.log"))
            return found
        expected_code = 0 if all(v == "PASS" for v in sample.verdicts.values()) else 1
        if sample.exit_code != expected_code:
            found.append(f"exit code {sample.exit_code} does not match the verdicts")
        expected = self.expected
        if expected is None:
            self.expected = {"exit_code": sample.exit_code, "verdicts": sample.verdicts,
                             "digests": sample.digests}
            return found
        if sample.exit_code != expected["exit_code"]:
            found.append(f"exit code {sample.exit_code}, expected {expected['exit_code']}")
        if sample.verdicts != expected["verdicts"]:
            found.append(f"verdicts {sample.verdicts}, expected {expected['verdicts']}")
        differing = sorted(name for name in set(sample.digests) | set(expected["digests"])
                           if sample.digests.get(name) != expected["digests"].get(name))
        if differing:
            found.append(f"artifacts differ: {', '.join(differing)}")
        return found

    def measure(self, seconds: float) -> Measured:
        """Untraced runs that end within `seconds` (warm-up included), with a
        set-up probe after every second one and a calibration between every
        two. No run starts that would end past the deadline, unless fewer
        than MIN_SAMPLES were taken."""
        deadline = time.monotonic() + seconds
        self.probe()  # warm-up: byte-compile sources, fill the file cache
        run = Measured([], [], [self.calibrate()], [])

        def speed() -> float:
            run.calibrations.append(self.calibrate())
            return CALIBRATION_REF_S / statistics.fmean(run.calibrations[-2:])

        # Each iteration is predicted to last as long as the longer of the
        # last two, so that one with a probe is counted.
        durations = [0.0]
        while (len(run.samples) < MIN_SAMPLES
               or time.monotonic() + max(durations[-2:]) < deadline):
            started = time.monotonic()
            sample = self.repro(["-m", "feedsim.cli"], self.work / "out")
            setup = self.probe() if len(run.samples) % 2 == 1 else None
            sample.speed = speed()
            run.samples.append(sample)
            run.problems += [f"run {len(run.samples)}: {p}" for p in self.problems(sample)]
            if setup is not None:
                run.setups.append((setup, sample.speed))
            durations.append(time.monotonic() - started)
        while len(run.setups) < MIN_PROBES:
            setup = self.probe()
            run.setups.append((setup, speed()))
        return run

    def traced(self) -> tuple[Sample, dict, list[str]]:
        """One run under tracer.py; returns it, its raw trace and its problems."""
        out = self.work / "traced"
        trace_file = self.work / "trace.json"
        sample = self.repro([str(BENCH / "tracer.py"), str(trace_file)], out)
        problems = [f"traced run: {p}" for p in self.problems(sample)]
        trace = json.loads(trace_file.read_text()) if trace_file.exists() else None
        if trace is None:
            return sample, {}, problems + ["traced run: wrote no trace"]
        trace["trace_stats"] = json.loads((out / "trace_stats.json").read_text())
        trace["detection_totals"] = json.loads((out / "detection_totals.json").read_text())
        problems += [f"traced run: self-test: {p}" for p in self_test(trace)]
        return sample, trace, problems


def read_verdicts(out: Path) -> dict[str, str] | None:
    """Check name -> PASS/FAIL from repro_summary.txt, or None if it was not written."""
    path = out / "repro_summary.txt"
    if not path.exists():
        return None
    verdicts = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        verdict, _, rest = line.partition("] ")
        verdicts[rest.split(":", 1)[0]] = verdict.lstrip("[")
    return verdicts


def digest_dir(out: Path) -> dict[str, str]:
    digests = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name not in UNCOMPARED:
                with open(path, "rb") as fh:
                    digests[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def tail(path: Path, limit: int = 800) -> str:
    return path.read_text(errors="replace")[-limit:] if path.exists() else ""


def self_test(trace: dict) -> list[str]:
    """Outside-in counts must equal the program's own counters."""
    stats, totals = trace["trace_stats"], trace["detection_totals"]
    counts, calls = trace["counts"], trace["calls"]
    events = sum(counts.get(f"sim.events.{kind}", 0) for kind in EVENT_KINDS)
    cas_ok = calls.get("store.cas", 0) - counts.get("store.cas_failures", 0)
    found = []
    if events != stats["events_processed"]:
        found.append(f"sim.events {events} != events_processed {stats['events_processed']}")
    if cas_ok != stats["updates_committed"]:
        found.append(f"cas_calls - cas_failures {cas_ok} "
                     f"!= updates_committed {stats['updates_committed']}")
    if counts.get("store.cas_failures", 0) != stats["cas_failures"]:
        found.append(f"store.cas_failures {counts.get('store.cas_failures', 0)} "
                     f"!= cas_failures {stats['cas_failures']}")
    if not trace["detect_runs"]:
        found.append("no detect_all call was traced")
    for number, run in enumerate(trace["detect_runs"], 1):
        for key, value in run.items():
            if value != totals[key]:
                found.append(f"detect_all call {number}: {key} {value} != {totals[key]}")
    return found


def count_failed(problems: list[str]) -> int:
    """Number of runs with a problem; each problem starts with its run's label."""
    return len({problem.split(":")[0] for problem in problems})


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, traced_wall: float, untraced_median: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from one traced run."""
    total, self_time = trace["total"], trace["self"]
    calls, counts, marks = trace["calls"], trace["counts"], trace["marks"]
    stats, totals = trace["trace_stats"], trace["detection_totals"]

    def t(name):
        return total.get(name, 0.0)

    def own(name):
        return self_time.get(name, 0.0)

    events = {kind: counts.get(f"sim.events.{kind}", 0) for kind in EVENT_KINDS}
    n_events = sum(events.values())
    cas_calls = calls.get("store.cas", 0)
    cas_failures = counts.get("store.cas_failures", 0)
    metrics = {
        "cli.stages_s": (t("cli.stages"), "s"),
        "cli.after_stages_s": (marks["repro_end"] - marks["report_end"], "s"),
        "cli.detect_calls": (calls.get("detect.all", 0), "count"),
        "cli.network_loads": (calls.get("netgen.load", 0), "count"),
        "netgen.build_s": (t("netgen.build"), "s"),
        "netgen.validate_s": (t("netgen.validate"), "s"),
        "netgen.save_s": (t("netgen.save"), "s"),
        "netgen.load_s": (t("netgen.load"), "s"),
        "sim.events": (n_events, "count"),
        **{f"sim.events.{kind}": (count, "count") for kind, count in events.items()},
        "sim.us_per_event": (ratio(t("sim.run_until"), n_events) * 1e6, "us"),
        "sim.loop_self_s": (own("sim.run_until"), "s"),
        "sim.arrivals_setup_s": (marks["loop_start"] - marks["run_start"], "s"),
        "sim.schedule_calls": (counts.get("sim.schedule_calls", 0), "count"),
        "sim.pending_peak": (counts.get("sim.pending_peak", 0), "count"),
        "store.cas_calls": (cas_calls, "count"),
        "store.cas_failures": (cas_failures, "count"),
        "store.cas_success_ratio": (ratio(cas_calls - cas_failures, cas_calls), "ratio"),
        "store.cas_self_s": (own("store.cas"), "s"),
        "store.reads": (calls.get("store.read", 0), "count"),
        "store.read_self_s": (own("store.read"), "s"),
        "store.propagation_self_s": (own("store.propagation"), "s"),
        "app.post_self_s": (own("app.post"), "s"),
        "app.fanout_step_self_s": (own("app.fanout_step"), "s"),
        "app.retry_self_s": (own("app.retry"), "s"),
        "app.query_self_s": (own("app.query"), "s"),
        "app.log_write_s": (t("app.log_write"), "s"),
        "app.log_read_s": (t("app.log_read"), "s"),
        "app.log_reads": (calls.get("app.log_read", 0), "count"),
        "app.log_bytes": (counts.get("app.log_bytes", 0), "bytes"),
        "detect.total_s": (t("detect.all"), "s"),
        "detect.oracle_self_s": (own("detect.oracle"), "s"),
        "detect.find_missing_self_s": (own("detect.find_missing"), "s"),
        "detect.witness_index_s": (t("detect.witness_index"), "s"),
        "detect.classify_calls": (counts.get("detect.classify_calls", 0), "count"),
        "detect.classify_self_s": (own("detect.classify"), "s"),
        "detect.responses_per_s": (ratio(calls.get("detect.oracle", 0), t("detect.all")), "1/s"),
        "detect.witness_lookup_ratio": (ratio(counts.get("detect.classify_calls", 0),
                                              counts.get("detect.witness_indexed", 0)), "ratio"),
        "analytics.report_s": (t("analytics.report"), "s"),
        "analytics.emit_s": (t("analytics.emit"), "s"),
        "checks.evaluate_s": (t("checks.evaluate"), "s"),
        "trace.overhead_s": (traced_wall - untraced_median, "s"),
        "model.responses": (stats["responses"], "count"),
        "model.conflict_records": (totals["conflict_records"], "count"),
        "model.cas_failures": (stats["cas_failures"], "count"),
    }
    return metrics


def end_to_end(run: Measured, scaled: bool = True) -> dict:
    """End-to-end metrics, name -> (median, unit, sample count); the times
    are scaled to the calibration's reference speed unless `scaled` is false."""
    def scale(speed: float) -> float:
        return speed if scaled else 1.0

    series = {
        "repro_s": [s.wall_s * scale(s.speed) for s in run.samples],
        "setup_s": [seconds * scale(speed) for seconds, speed in run.setups],
        "cpu_s": [s.cpu_s * scale(s.speed) for s in run.samples],
        "peak_rss_mb": [s.peak_rss_mb for s in run.samples],
    }
    return {name: (statistics.median(values), END_TO_END_UNITS[name], len(values))
            for name, values in series.items()}


def machine_metrics(run: Measured, raw: dict) -> dict:
    """The calibration and the unscaled medians, name -> (value, unit)."""
    return {
        "machine.calibration_s": (statistics.median(run.calibrations), "s"),
        **{f"machine.raw_{name}": (raw[name][0], "s") for name in SCALED},
    }


def describe_seed(bench: Bench) -> str:
    if bench.canned:
        return f"seed {bench.seed}, canned: checked against reference.json"
    return f"seed {bench.seed}, not canned: runs checked for byte-identical output"


def run_one(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    bench = Bench(workload, seed, work)
    run = bench.measure(seconds)
    problems = run.problems
    e2e, unscaled = end_to_end(run), end_to_end(run, scaled=False)
    attempted = len(run.samples)
    print(f"{workload.name} ({describe_seed(bench)})")
    print_end_to_end(e2e, unscaled)
    if trace:
        sample, raw, traced_problems = bench.traced()
        attempted += 1
        problems += traced_problems
        metrics = {}
        if raw:
            metrics = {**layer_metrics(raw, sample.wall_s, unscaled["repro_s"][0]),
                       **machine_metrics(run, unscaled)}
        print_layers({workload.name: metrics})
    else:
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": count_failed(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(seed: int | None, seconds: float, work: Path) -> int:
    layer_tables, failures = {}, 0
    for workload in WORKLOADS.values():
        bench = Bench(workload, workload.seed if seed is None else seed, work)
        run = bench.measure(seconds)
        e2e, unscaled = end_to_end(run), end_to_end(run, scaled=False)
        sample, raw, traced_problems = bench.traced()
        problems = run.problems + traced_problems
        failed = count_failed(problems)
        print(f"\n{workload.name} ({describe_seed(bench)})")
        print(f"  {workload.notes}")
        print_end_to_end(e2e, unscaled)
        print(f"  fail_frac: {failed}/{len(run.samples) + 1} runs failed")
        for problem in problems:
            print(f"  FAILED {problem}")
        failures += failed
        if raw:
            layer_tables[workload.name] = {
                **layer_metrics(raw, sample.wall_s, unscaled["repro_s"][0]),
                **machine_metrics(run, unscaled)}
    print()
    print_layers(layer_tables)
    return 0 if failures == 0 else 1


def record(work: Path) -> int:
    """Write reference.json from two runs per workload at its canned seed."""
    reference = {}
    for workload in WORKLOADS.values():
        bench = Bench(workload, workload.seed, work)
        bench.expected = None
        first = bench.repro(["-m", "feedsim.cli"], work / "out")
        second = bench.repro(["-m", "feedsim.cli"], work / "out")
        problems = bench.problems(first) + bench.problems(second)
        if problems:
            print(f"{workload.name}: not recorded: {problems}", file=sys.stderr)
            return 1
        reference[workload.name] = {"seed": workload.seed, "exit_code": first.exit_code,
                                    "verdicts": first.verdicts, "digests": first.digests}
        print(f"{workload.name}: exit code {first.exit_code}, {len(first.digests)} artifacts")
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


def print_end_to_end(e2e: dict, unscaled: dict) -> None:
    print(f"  {'metric':<14} {'unit':<5} {'n':>3} {'median':>12} {'unscaled':>12}")
    for name, (value, unit, count) in e2e.items():
        print(f"  {name:<14} {unit:<5} {count:>3} {value:>12.4f} {unscaled[name][0]:>12.4f}")


def print_layers(tables: dict[str, dict]) -> None:
    names = list(tables)
    rows = list(dict.fromkeys(metric for table in tables.values() for metric in table))
    print(f"{'per-layer metric (traced run)':<30} {'unit':<6}"
          + "".join(f" {name:>15}" for name in names))
    for metric in rows:
        unit = next(table[metric][1] for table in tables.values() if metric in table)
        cells = "".join(f" {format_value(tables[name].get(metric, ('', ''))[0]):>15}"
                        for name in names)
        print(f"{metric:<30} {unit:<6}{cells}")


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's canned seed)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long to keep taking samples, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json at the canned seeds")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("give --workload or --record")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "feedsim" / "cli.py").is_file():
        print(f"perfbench: no feedsim sources under {SRC}", file=sys.stderr)
        return 2
    # A terminated run still kills its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.record:
            return record(work)
        if args.workload == "all":
            return run_all(args.seed, args.seconds, work)
        workload = WORKLOADS[args.workload]
        seed = workload.seed if args.seed is None else args.seed
        return run_one(workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

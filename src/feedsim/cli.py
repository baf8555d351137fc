"""Batch pipeline: generate, simulate, detect, report, reproduce.

Each stage writes its files into the output directory and returns what it
produced. `repro` hands each stage the products of the ones before it, so
it writes every file once and runs detection once; each subcommand reads
its inputs from the files. Outputs are deterministic for a fixed (config,
seed) pair.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable

from . import analytics, app, checks, detect, netgen
from .config import ExperimentConfig, is_zero_delay
from .netgen import FollowingNetwork, ValidationReport, WorkloadProfile
from .sim import IntegrityError, RngStreams, write_json

NETWORK_FILE = "network_profile.jsonl"
VALIDATION_FILE = "validation_report.json"
TWEETS_FILE = "tweets.jsonl"
RESPONSES_FILE = "responses.jsonl"
TRACE_FILE = "trace_stats.json"
CONFLICTS_FILE = "conflicts.jsonl"
DETECTION_TOTALS_FILE = "detection_totals.json"
CONFIG_ECHO_FILE = "config_used.json"
REPRO_SUMMARY_FILE = "repro_summary.txt"


class StageError(Exception):
    """A stage could not produce its outputs; the message starts with the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read(stage: str, load: Callable[..., Any], *paths: Path) -> Any:
    """Call a file loader; unreadable or corrupt input becomes a StageError."""
    try:
        return load(*paths)
    except OSError as exc:
        raise StageError(stage, f"cannot read {exc.filename}: {exc.strerror}") from exc
    except IntegrityError as exc:
        raise StageError(stage, str(exc)) from exc


def cmd_gen(cfg: ExperimentConfig) -> tuple[FollowingNetwork, WorkloadProfile, ValidationReport]:
    """Generate and validate the network and workload rates."""
    out = _out_dir(cfg)
    rng = RngStreams(cfg.seed)
    try:
        network = netgen.build_network(cfg.n_producers, cfg.n_consumers, cfg.zipf, rng)
        profile = netgen.build_profile(network, cfg.zipf, rng)
    except ValueError as exc:
        raise StageError("gen", str(exc)) from exc
    report = netgen.validate_profile(network, profile, cfg.zipf)
    netgen.save_network_profile(out / NETWORK_FILE, network, profile)
    write_json(out / VALIDATION_FILE, asdict(report))
    print(f"gen: {network.n_producers} producers, {network.n_consumers} consumers, "
          f"{network.edge_count} edges -> {out / NETWORK_FILE}")
    for check in report.checks:
        print(f"gen: {check.name}: mean {check.realized_mean:.3f} "
              f"(target {check.target_mean:.3f}) {'ok' if check.mean_ok else 'OFF'}")
    if not report.passed:
        raise StageError("gen", "validation FAILED")
    print("gen: validation passed")
    return network, profile, report


def cmd_run(cfg: ExperimentConfig, network: FollowingNetwork | None = None,
            profile: WorkloadProfile | None = None) -> app.RunArtifacts:
    """Run the experiment; without a network, the network and rates are read from file."""
    out = _out_dir(cfg)
    if network is None:
        network, profile = _read("run", netgen.load_network_profile, out / NETWORK_FILE)
    artifacts = app.run_experiment(network, profile, cfg)
    app.save_tweet_log(out / TWEETS_FILE, artifacts.tweet_log)
    app.save_response_log(out / RESPONSES_FILE, artifacts.responses)
    stats = artifacts.to_dict()
    write_json(out / TRACE_FILE, stats)
    hours = cfg.duration_hours or 1e-9
    print(f"run: {stats['tweets']} tweets ({stats['tweets'] / hours:.1f}/h), "
          f"{stats['responses']} responses ({stats['responses'] / hours:.1f}/h)")
    print(f"run: {stats['updates_committed']} timeline writes, {stats['retries']} retries, "
          f"{stats['events_processed']} events processed")
    return artifacts


def cmd_detect(cfg: ExperimentConfig, network: FollowingNetwork | None = None,
               tweets: list[tuple[int, int]] | None = None,
               responses: list[app.TimelineResponse] | None = None) -> detect.DetectionResult:
    """Find observable conflicts; without a network, all inputs are read from file."""
    out = _out_dir(cfg)
    if network is None:
        network, _ = _read("detect", netgen.load_network_profile, out / NETWORK_FILE)
        tweets = _read("detect", app.load_tweet_log, out / TWEETS_FILE)
        responses = _read("detect", app.load_response_log, out / RESPONSES_FILE)
    try:
        index = detect.TweetIndex(tweets, network)
    except IntegrityError as exc:
        raise StageError("detect", f"{out / TWEETS_FILE}: {exc}") from exc
    try:
        result = detect.detect_all(
            responses, index, network, n_timeline=cfg.n_timeline,
            analysis_window_fraction=cfg.analysis_window_fraction)
    except ValueError as exc:
        raise StageError("detect", f"{out / RESPONSES_FILE}: {exc}") from exc
    detect.save_conflict_records(out / CONFLICTS_FILE, result)
    write_json(out / DETECTION_TOTALS_FILE, result.to_dict(), sort_keys=True)
    print(f"detect: {result.conflicting_count} conflicting of {result.analyzed_count} "
          f"analyzed responses ({len(result.records)} records)")
    return result


def cmd_report(cfg: ExperimentConfig, network: FollowingNetwork | None = None,
               result: detect.DetectionResult | None = None) -> analytics.AnalyticsReport:
    """Write the report files; without a network, all inputs are read from file."""
    out = _out_dir(cfg)
    if network is None:
        network, _ = _read("report", netgen.load_network_profile, out / NETWORK_FILE)
        result = _read("report", detect.load_detection, out / CONFLICTS_FILE,
                       out / DETECTION_TOTALS_FILE, network, out / NETWORK_FILE)
    report = analytics.build_report(result, network)
    for path in analytics.emit_report(report, out):
        print(f"report: wrote {path}")
    return report


def cmd_repro(cfg: ExperimentConfig) -> int:
    """Chain gen -> run -> detect -> report in memory, then evaluate acceptance checks."""
    out = _out_dir(cfg)
    cfg.save(out / CONFIG_ECHO_FILE)
    try:
        network, profile, validation = cmd_gen(cfg)
        artifacts = cmd_run(cfg, network, profile)
        result = cmd_detect(cfg, network, artifacts.tweet_log, artifacts.responses)
        report = cmd_report(cfg, network, result)
    except StageError as exc:
        print(exc, file=sys.stderr)
        print(f"repro: stage {exc.stage} failed", file=sys.stderr)
        return 1
    outcomes = checks.evaluate_run(report, artifacts, validation, zero_delay=is_zero_delay(cfg))
    lines = [outcome.line() for outcome in outcomes]
    with open(out / REPRO_SUMMARY_FILE, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0 if all(outcome.passed for outcome in outcomes) else 1


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig() if args.config is None else ExperimentConfig.load(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=str(args.out))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedsim",
        description="Simulate a relaxed-consistency feed-following service and "
                    "measure observable inconsistency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("gen", "generate the following network and workload profile"),
        ("run", "run the virtual-time experiment over generated inputs"),
        ("detect", "find observable conflicts in the logged responses"),
        ("report", "aggregate detection output into report files"),
        ("repro", "run the whole pipeline and evaluate acceptance checks"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", type=Path, default=None,
                         help="experiment config JSON (default: the desk-scale "
                              "anomaly experiment)")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--out", type=Path, default=None,
                         help="override output directory")
    return parser


_STAGES = {
    "gen": cmd_gen,
    "run": cmd_run,
    "detect": cmd_detect,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """Exit code: 0 on success, 1 on a stage failure or a failed check, 2 on a bad config."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"{args.command}: bad config: {exc}", file=sys.stderr)
        return 2
    if args.command == "repro":
        return cmd_repro(cfg)
    try:
        _STAGES[args.command](cfg)
    except StageError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

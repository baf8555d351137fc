"""Pass/fail checks the repro command evaluates after a pipeline run.

The same checks back the acceptance test suite, so the CLI and the tests
cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytics import AnalyticsReport, CorrelationStudy
from .app import RunArtifacts
from .detect import DetectionResult
from .netgen import ValidationReport
from .stats import rank_correlation

STRONG_CORRELATION_MIN = 0.5
WEAK_CORRELATION_MAX = 0.2
HISTOGRAM_MIN_BUCKETS = 5
HISTOGRAM_DECAY_MAX_SPEARMAN = -0.5


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def check_zero_conflicts(result: DetectionResult) -> CheckOutcome:
    count = len(result.records)
    return CheckOutcome("zero_delay_soundness", count == 0,
                        f"conflicts: {count} over {result.analyzed_count} analyzed responses")


def check_rate_positive(report: AnalyticsReport) -> CheckOutcome:
    rate, result = report.rate, report.result
    if rate is None:
        return CheckOutcome("nonzero_anomaly_rate", False, "no responses analyzed")
    return CheckOutcome("nonzero_anomaly_rate", rate > 0,
                        f"rate {rate:.4%} ({result.conflicting_count}/{result.analyzed_count})")


def check_gap_bound(result: DetectionResult, run: RunArtifacts) -> CheckOutcome:
    """Every G contribution stays within fan-out completion + propagation lag."""
    violations = 0
    for record in result.records:
        completion = run.fanout_completion_us.get((record.producer_id, record.t))
        if completion is None:
            violations += 1
            continue
        if record.gap_us > completion + run.max_propagation_lag_us:
            violations += 1
    return CheckOutcome("gap_bounded_by_pipeline", violations == 0,
                        f"violations: {violations} of {len(result.records)} records")


def check_histogram_shape(histogram: dict[int, int]) -> CheckOutcome:
    """The bucket -> count histogram, in bucket order, peaks first and decays."""
    if len(histogram) < HISTOGRAM_MIN_BUCKETS:
        return CheckOutcome("gap_histogram_shape", False, f"only {len(histogram)} nonempty "
                            f"buckets (need {HISTOGRAM_MIN_BUCKETS})")
    counts = list(histogram.values())
    peak_first = counts[0] == max(counts)
    rho = rank_correlation(list(histogram), counts)
    decaying = rho is not None and rho <= HISTOGRAM_DECAY_MAX_SPEARMAN
    passed = peak_first and decaying
    detail = (f"{len(histogram)} nonempty buckets, first-bucket peak: {peak_first}, "
              f"bucket/count spearman: {'n/a' if rho is None else f'{rho:+.3f}'}")
    return CheckOutcome("gap_histogram_shape", passed, detail)


def check_correlations(studies: list[CorrelationStudy]) -> list[CheckOutcome]:
    outcomes = []
    for study in studies:
        name = f"correlation_{study.spec.x_label}"
        if study.degenerate:
            outcomes.append(CheckOutcome(name, False, "degenerate study"))
            continue
        if study.spec.strong:
            passed = study.spearman > STRONG_CORRELATION_MIN
            detail = f"spearman {study.spearman:+.3f} (need > {STRONG_CORRELATION_MIN})"
        else:
            passed = abs(study.spearman) < WEAK_CORRELATION_MAX
            detail = f"spearman {study.spearman:+.3f} (need |s| < {WEAK_CORRELATION_MAX})"
        outcomes.append(CheckOutcome(name, passed, detail))
    return outcomes


def check_workload(report: ValidationReport) -> CheckOutcome:
    details = ", ".join(
        f"{c.name} mean {c.realized_mean:.3f}/{c.target_mean:.3f}" for c in report.checks
    )
    return CheckOutcome("workload_fidelity", report.passed, details)


def evaluate_run(report: AnalyticsReport, run: RunArtifacts, validation: ValidationReport,
                 zero_delay: bool) -> list[CheckOutcome]:
    outcomes = [check_workload(validation)]
    if zero_delay:
        outcomes.append(check_zero_conflicts(report.result))
        return outcomes
    outcomes.append(check_rate_positive(report))
    outcomes.append(check_gap_bound(report.result, run))
    outcomes.append(check_histogram_shape(report.histogram))
    outcomes.extend(check_correlations(report.studies))
    return outcomes

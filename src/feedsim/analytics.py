"""Aggregate detection output into reportable statistics.

Everything here is a pure function of the detection result plus the
network, so reports are reproducible byte for byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .detect import DetectionResult
from .netgen import FollowingNetwork
from .sim import MICROS_PER_SECOND, write_json
from .stats import rank_correlation

GAP_BUCKET_WIDTH_S = 100


def inconsistency_rate(result: DetectionResult) -> float | None:
    """Fraction of analyzed responses with at least one observable conflict;
    None when nothing was analyzed."""
    if result.analyzed_count == 0:
        return None
    return result.conflicting_count / result.analyzed_count


def gap_histogram(result: DetectionResult) -> dict[int, int]:
    """Count per-response G values per [k*w, (k+1)*w) second range, w = GAP_BUCKET_WIDTH_S.

    Maps each nonempty bucket k to its count, in ascending k.
    """
    width_us = GAP_BUCKET_WIDTH_S * MICROS_PER_SECOND
    counts: dict[int, int] = {}
    for g_us in result.per_response_G.values():
        bucket = g_us // width_us
        counts[bucket] = counts.get(bucket, 0) + 1
    return dict(sorted(counts.items()))


@dataclass
class GapSummary:
    mean_s: float | None
    count_above_1s: int
    max_s: float | None


def summarize_gaps(result: DetectionResult) -> GapSummary:
    gaps = list(result.per_response_G.values())
    if not gaps:
        return GapSummary(mean_s=None, count_above_1s=0, max_s=None)
    return GapSummary(
        mean_s=sum(gaps) / len(gaps) / MICROS_PER_SECOND,
        count_above_1s=sum(1 for g in gaps if g > MICROS_PER_SECOND),
        max_s=max(gaps) / MICROS_PER_SECOND,
    )


def attribute_to_producers(result: DetectionResult,
                           network: FollowingNetwork) -> dict[int, int]:
    """Conflict records per offending producer (producers with none omitted)."""
    counts: dict[int, int] = {}
    for record in result.records:
        if record.producer_id not in network.followers:
            raise ValueError(f"record references unknown producer {record.producer_id}")
        counts[record.producer_id] = counts.get(record.producer_id, 0) + 1
    return dict(sorted(counts.items()))


class StudySpec(NamedTuple):
    """A scatter study: an entity's property against the conflicts it took part in."""

    x_label: str
    y_label: str
    file_name: str
    strong: bool  # repro expects a strong positive correlation; otherwise a weak one
    x: Callable[[DetectionResult, FollowingNetwork, int], int]  # the entity's property


STUDIES = (
    StudySpec("producer_follower_count", "conflicts_caused", "study_producer_followers.csv",
              True, lambda result, network, producer: len(network.followers[producer])),
    StudySpec("producer_tweet_count", "conflicts_caused", "study_producer_tweets.csv",
              False, lambda result, network, producer: result.tweet_counts.get(producer, 0)),
    StudySpec("consumer_followed_count", "conflicts_encountered", "study_consumer_followed.csv",
              False, lambda result, network, consumer: len(network.follows[consumer])),
    StudySpec("consumer_query_count", "conflicts_encountered", "study_consumer_queries.csv",
              False, lambda result, network, consumer: result.query_counts.get(consumer, 0)),
)


@dataclass
class CorrelationStudy:
    spec: StudySpec
    points: list[tuple[float, float]]
    spearman: float | None
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {"x_label": self.spec.x_label, "y_label": self.spec.y_label,
                "spearman": self.spearman, "log_log": True,
                "degenerate": self.degenerate, "n_points": len(self.points)}


def _make_study(spec: StudySpec, points: list[tuple[float, float]]) -> CorrelationStudy:
    distinct_x = len({x for x, _ in points})
    rho = rank_correlation([x for x, _ in points], [y for _, y in points]) if points else None
    degenerate = distinct_x < 3 or rho is None
    return CorrelationStudy(spec, points, spearman=None if degenerate else rho,
                            degenerate=degenerate)


def conflict_incidents(result: DetectionResult) -> set[tuple[int, int, int]]:
    """Distinct (consumer, producer, t) conflicts.

    A consumer re-observing the same hole across several responses is one
    inconsistency incident, not several.
    """
    return {(r.consumer_id, r.producer_id, r.t) for r in result.records}


def correlation_studies(result: DetectionResult,
                        network: FollowingNetwork) -> list[CorrelationStudy]:
    """The STUDIES, relating conflicts to entity properties.

    Conflicts are counted as distinct incidents, and points cover entities
    that participated in at least one, matching what a log-scale scatter
    of the results can show.
    """
    incidents = conflict_incidents(result)
    conflicts = {"conflicts_caused": Counter(producer for _, producer, _ in incidents),
                 "conflicts_encountered": Counter(consumer for consumer, _, _ in incidents)}
    studies = []
    for spec in STUDIES:
        points = [(float(spec.x(result, network, entity)), float(count))
                  for entity, count in sorted(conflicts[spec.y_label].items())]
        studies.append(_make_study(spec, points))
    return studies


@dataclass
class AnalyticsReport:
    result: DetectionResult
    rate: float | None
    histogram: dict[int, int]
    gaps: GapSummary
    attribution: dict[int, int]
    studies: list[CorrelationStudy]


def build_report(result: DetectionResult, network: FollowingNetwork) -> AnalyticsReport:
    return AnalyticsReport(
        result=result,
        rate=inconsistency_rate(result),
        histogram=gap_histogram(result),
        gaps=summarize_gaps(result),
        attribution=attribute_to_producers(result, network),
        studies=correlation_studies(result, network),
    )


def emit_report(report: AnalyticsReport, out_dir: str | Path) -> list[Path]:
    """Write totals JSON, histogram CSV, scatter CSVs, and a text summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    result = report.result
    totals_path = out / "totals.json"
    write_json(totals_path, {
        "analyzed_responses": result.analyzed_count,
        "conflicting_responses": result.conflicting_count,
        "conflict_records": len(result.records),
        "inconsistency_rate": report.rate,
        "gap_summary": asdict(report.gaps),
        "studies": [study.to_dict() for study in report.studies],
    }, sort_keys=True)
    written.append(totals_path)

    histogram_path = out / "gap_histogram.csv"
    with open(histogram_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bucket_start_s,count\n")
        for bucket, count in report.histogram.items():
            fh.write(f"{bucket * GAP_BUCKET_WIDTH_S},{count}\n")
    written.append(histogram_path)

    for study in report.studies:
        path = out / study.spec.file_name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("x,y\n")
            for x, y in study.points:
                fh.write(f"{x:g},{y:g}\n")
        written.append(path)

    summary_path = out / "summary.txt"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(_render_summary(report))
    written.append(summary_path)
    return written


def _render_summary(report: AnalyticsReport) -> str:
    result = report.result
    lines = ["feed-following inconsistency report", ""]
    lines.append(f"analyzed responses:    {result.analyzed_count}")
    lines.append(f"conflicting responses: {result.conflicting_count}")
    lines.append(f"conflict records:      {len(result.records)}")
    if report.rate is None:
        lines.append("inconsistency rate:    n/a (nothing analyzed)")
    else:
        lines.append(f"inconsistency rate:    {report.rate:.4%}")
    gaps = report.gaps
    if gaps.mean_s is None:
        lines.append("gap summary:           no observable conflicts")
    else:
        lines.append(f"mean G:                {gaps.mean_s:.3f} s")
        lines.append(f"max G:                 {gaps.max_s:.3f} s")
        lines.append(f"G above 1 s:           {gaps.count_above_1s}")
    lines.append("")
    lines.append("G histogram (bucket start s -> count):")
    for bucket, count in report.histogram.items():
        lines.append(f"  {bucket * GAP_BUCKET_WIDTH_S:>8} {count}")
    lines.append("")
    lines.append("correlation studies (spearman):")
    for study in report.studies:
        value = "degenerate" if study.degenerate else f"{study.spearman:+.3f}"
        lines.append(f"  {study.spec.x_label} vs {study.spec.y_label}: {value}")
    if report.attribution:
        lines.append("")
        lines.append("top offending producers:")
        top = sorted(report.attribution.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        for producer, count in top:
            lines.append(f"  producer {producer}: {count}")
    return "\n".join(lines) + "\n"

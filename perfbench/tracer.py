"""Run the feedsim CLI with timing wrappers around each layer's public calls.

Usage: python tracer.py TRACE_JSON FEEDSIM_ARGS...

The wrappers are installed from outside: module functions and class
methods are replaced before the CLI starts, so the program itself is
unchanged. Each wrapper is a span; a span's self time is its duration
minus the time of the spans it encloses. Counts are taken from the
arguments and return values seen at the same boundaries, never from the
program's own counters, so the parent can check one against the other.
The wrappers cost time on every simulated event, which is why wall-time
metrics come from untraced runs.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

from feedsim import analytics, app, checks, cli, detect, netgen, sim, store

clock = time.perf_counter

# Simulated event kind -> span of the handler the program registers for it.
HANDLER_SPANS = {
    sim.EventKind.TWEET_ARRIVAL: "app.post",
    sim.EventKind.FANOUT_STEP: "app.fanout_step",
    sim.EventKind.RETRY_WRITE: "app.retry",
    sim.EventKind.TIMELINE_QUERY: "app.query",
    sim.EventKind.PROPAGATION_ARRIVAL: "store.propagation",
}


class Tracer:
    """Span totals, self times, call counts and counters for one process."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.marks: dict[str, float] = {}
        self.detect_runs: list[dict] = []
        self._conflicting: set[int] = set()
        # Time covered by child spans, one slot per open span.
        self._open = [0.0]

    def span(self, name, fn, before=None, after=None):
        """Wrap fn as span `name`; before(args) and after(args, result) hook it."""
        open_spans = self._open
        total, self_time, calls = self.total, self.self_time, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                open_spans[-1] += elapsed
                total[name] += elapsed
                self_time[name] += elapsed - children
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def mark(self, name):
        return lambda *_: self.marks.setdefault(name, clock())

    def install(self):
        counts = self.counts

        def patch(owner, attr, name, before=None, after=None):
            setattr(owner, attr, self.span(name, getattr(owner, attr), before, after))

        for attr in ("cmd_gen", "cmd_run", "cmd_detect"):
            patch(cli, attr, "cli.stages")
        patch(cli, "cmd_report", "cli.stages", after=self.mark("report_end"))

        patch(netgen, "build_network", "netgen.build")
        patch(netgen, "build_profile", "netgen.build")
        patch(netgen, "validate_profile", "netgen.validate")
        patch(netgen, "save_network_profile", "netgen.save")
        patch(netgen, "load_network_profile", "netgen.load")

        def count_log_bytes(args, _):
            counts["app.log_bytes"] += os.path.getsize(args[0])

        patch(app, "run_experiment", "sim.run_experiment", before=self.mark("run_start"))
        patch(sim.EventLoop, "run_until", "sim.run_until", before=self.mark("loop_start"))
        patch(app, "save_tweet_log", "app.log_write", after=count_log_bytes)
        patch(app, "save_response_log", "app.log_write", after=count_log_bytes)
        patch(app, "load_tweet_log", "app.log_read")
        patch(app, "load_response_log", "app.log_read")

        def count_cas(_, result):
            if not result.ok:
                counts["store.cas_failures"] += 1

        patch(store.ReplicatedStore, "conditional_write", "store.cas", after=count_cas)
        patch(store.ReplicatedStore, "read_with_source", "store.read")

        schedule = sim.EventLoop.schedule

        @functools.wraps(schedule)
        def counted_schedule(loop, event):
            counts["sim.schedule_calls"] += 1
            return schedule(loop, event)

        sim.EventLoop.schedule = counted_schedule
        set_handler = sim.EventLoop.set_handler

        @functools.wraps(set_handler)
        def traced_set_handler(loop, kind, handler):
            set_handler(loop, kind, self._traced_handler(loop, kind, handler))

        sim.EventLoop.set_handler = traced_set_handler
        self._install_detect(patch)

        patch(analytics, "build_report", "analytics.report")
        patch(analytics, "emit_report", "analytics.emit")
        patch(checks, "evaluate_run", "checks.evaluate")

    def _traced_handler(self, loop, kind, handler):
        counts = self.counts
        event_key = f"sim.events.{kind.value}"
        timed = self.span(HANDLER_SPANS[kind], handler)

        def counted(event):
            counts[event_key] += 1
            pending = loop.pending_count
            if pending > counts["sim.pending_peak"]:
                counts["sim.pending_peak"] = pending
            timed(event)

        return counted

    def _install_detect(self, patch):
        counts = self.counts
        snapshot = {}

        def count_classified(args, record):
            counts["detect.classify_calls"] += 1
            if record is not None:
                counts["detect.records"] += 1
                counts[f"detect.type.{record.type.value}"] += 1
                self._conflicting.add(record.response_id)

        def count_indexed(_, index):
            counts["detect.witness_indexed"] += len(index.containments)

        def detect_start(_):
            snapshot.clear()
            snapshot.update(counts)
            snapshot["oracle_calls"] = self.calls["detect.oracle"]
            self._conflicting = set()

        def detect_end(*_):
            def delta(key):
                return counts[key] - snapshot.get(key, 0)

            self.detect_runs.append({
                "analyzed_responses": self.calls["detect.oracle"] - snapshot["oracle_calls"],
                "conflict_records": delta("detect.records"),
                "conflicting_responses": len(self._conflicting),
                "type_counts": {kind.value: delta(f"detect.type.{kind.value}")
                                for kind in detect.ConflictType},
            })

        patch(detect, "detect_all", "detect.all", before=detect_start, after=detect_end)
        patch(detect, "consistent_timeline", "detect.oracle")
        patch(detect, "find_missing", "detect.find_missing")
        patch(detect, "build_witness_index", "detect.witness_index", after=count_indexed)
        patch(detect, "classify", "detect.classify", after=count_classified)

    def summary(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "marks": self.marks,
            "detect_runs": self.detect_runs,
        }


def main(argv: list[str]) -> int:
    trace_path, feedsim_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(feedsim_args)
    tracer.mark("repro_end")()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

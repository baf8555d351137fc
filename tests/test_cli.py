import errno
import gc
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import feedsim.cli as cli
from feedsim.app import FanoutSettings
from feedsim.cli import _resolve_config, build_parser, main
from feedsim.config import ExperimentConfig, is_zero_delay, zero_delay_config
from feedsim.netgen import ZipfPair, ZipfParams
from feedsim.sim import DistributionSpec
from feedsim.store import StoreConfig
from oracles import lag_probe_config

SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_config(out_dir, **overrides):
    """A 1/10-desk-scale lagged config that runs in well under a second."""
    base = dict(
        seed=5,
        n_producers=68,
        n_consumers=197,
        store=StoreConfig(n_replicas=3, lag=DistributionSpec("exponential", 500.0)),
        fanout=FanoutSettings(service=DistributionSpec("exponential", 4000.0),
                              concurrency_cap=1),
        duration_hours=1.0,
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    cfg.save(path)
    return path


def test_config_roundtrips_unchanged(tmp_path):
    cfg = ExperimentConfig(out_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    assert ExperimentConfig.load(path) == cfg


def test_benchmark_configs_are_the_canned_configs():
    # perfbench/ describes its config files as these two configs; the test
    # only reads them.
    configs = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
    assert ExperimentConfig.load(configs / "zero_delay_2h.json") == \
        zero_delay_config(seed=1, duration_hours=2.0)
    assert ExperimentConfig.load(configs / "anomaly_x10.json") == \
        ExperimentConfig(n_producers=6790, n_consumers=19630)


# The benchmark leaves config_used.json out of its digests, so the wire
# format is pinned here: keys, nesting, order and number spellings.
DEFAULT_CONFIG_JSON = (
    '{"seed": 39, "n_producers": 679, "n_consumers": 1963, '
    '"zipf": {"consumers_per_producer": {"mean": 13.38, "s": 0.39}, '
    '"producers_per_consumer": {"mean": 4.63, "s": 0.62}, '
    '"producer_rate_per_hour": {"mean": 1.0, "s": 0.57}, '
    '"consumer_rate_per_hour": {"mean": 5.8, "s": 0.62}}, '
    '"store": {"n_replicas": 3, "lag": {"distribution": "exponential", "mean_ms": 500.0}}, '
    '"fanout": {"mode": "scheduled", "service": {"distribution": "exponential", '
    '"mean_ms": 7500.0}, "concurrency_cap": 1}, '
    '"n_timeline": 20, "duration_hours": 2.0, "analysis_window_fraction": 0.5, '
    '"out_dir": "out"}'
)


def test_config_wire_format_is_pinned():
    assert json.dumps(ExperimentConfig().to_dict()) == DEFAULT_CONFIG_JSON


def test_every_subcommand_runs_the_same_default_experiment(tmp_path):
    # No config and an empty config both mean the paper's experiment, so
    # bare `repro` writes what `repro --config {}` writes.
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    parser = build_parser()
    for command in ("gen", "run", "detect", "report", "repro"):
        bare = _resolve_config(parser.parse_args([command]))
        from_empty = _resolve_config(parser.parse_args([command, "--config", str(empty)]))
        assert bare == from_empty == ExperimentConfig(), command


def test_canned_configs_roundtrip_through_json():
    for cfg in (ExperimentConfig(), zero_delay_config(), lag_probe_config(3, 250.0)):
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_integer_and_float_spellings_write_the_same_bytes(tmp_path, monkeypatch):
    # Equal numbers make equal configs, so every output byte matches,
    # the echoed config included.
    data = tiny_config("out").to_dict()
    outputs = {}
    for spelling, number in (("int", 1), ("float", 1.0)):
        run_dir = tmp_path / spelling
        run_dir.mkdir()
        data.update(analysis_window_fraction=number, duration_hours=number)
        data["zipf"]["producer_rate_per_hour"]["mean"] = number
        (run_dir / "config.json").write_text(json.dumps(data))
        monkeypatch.chdir(run_dir)
        code = main(["repro", "--config", "config.json"])
        outputs[spelling] = code, {path.name: path.read_bytes()
                                   for path in sorted((run_dir / "out").iterdir())}
    assert "config_used.json" in outputs["int"][1]
    assert outputs["int"] == outputs["float"]


def test_config_rejects_unknown_keys(tmp_path, capsys):
    # Misspelt keys at every depth, and keys of removed fields.
    for dotted in ("mystery", "fanout.retry_backof_ms", "store.lag_mean", "store.lag.sigma",
                   "zipf.consumers_per_producer.sd", "store.read_policy",
                   "store.write_home_policy", "scale", "fanout.retry_backoff_ms"):
        data = ExperimentConfig().to_dict()
        *parents, leaf = dotted.split(".")
        node = data
        for key in parents:
            node = node[key]
        node[leaf] = 99999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            ExperimentConfig.load(path)
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"gen: bad config: unknown config keys: ['{dotted}']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("partial,expected", [
    ({"store": {"n_replicas": 5}},
     lambda cfg: replace(cfg, store=replace(cfg.store, n_replicas=5))),
    ({"fanout": {"mode": "synchronous"}},
     lambda cfg: replace(cfg, fanout=replace(cfg.fanout, mode="synchronous"))),
    ({"store": {"lag": {"mean_ms": 0}}},
     lambda cfg: replace(cfg, store=replace(cfg.store, lag=replace(cfg.store.lag, mean_ms=0.0)))),
], ids=["store.n_replicas", "fanout.mode", "store.lag.mean_ms"])
def test_config_fills_missing_keys_from_defaults(tmp_path, partial, expected):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(partial))
    assert ExperimentConfig.load(path) == expected(ExperimentConfig())
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("lag,mode,expected", [
    (DistributionSpec("constant", 0.0), "synchronous", True),
    (DistributionSpec("exponential", 0.0), "synchronous", True),
    (DistributionSpec("constant", 0.0), "scheduled", False),
    (DistributionSpec("exponential", 500.0), "synchronous", False),
])
def test_is_zero_delay(lag, mode, expected):
    cfg = ExperimentConfig(store=StoreConfig(lag=lag), fanout=FanoutSettings(mode=mode))
    assert is_zero_delay(cfg) is expected


DURATION_PAST_TIMESTAMPS = ("duration_hours must be below 69951240, past which event times "
                            "cannot be written as timestamps")
DELAY_PAST_INT64 = ("mean_ms must be below 2.073e+14, past which a delay in microseconds "
                    "overflows a 64-bit integer")
BAD_CONFIG_VALUES = [
    ('{"seed": "x"}', "config key 'seed' must be an integer, not a string"),
    ('{"seed": 1.5}', "config key 'seed' must be an integer, not a number"),
    ('{"n_producers": 679.5}', "config key 'n_producers' must be an integer, not a number"),
    ('{"store": 5}', "config key 'store' must be an object, not an integer"),
    ("[]", "config must be a JSON object, not list"),
    ('{"fanout": {"concurrency_cap": "3"}}',
     "config key 'fanout.concurrency_cap' must be an integer or null, not a string"),
    ('{"store": {"n_replicas": true}}',
     "config key 'store.n_replicas' must be an integer, not a boolean"),
    ('{"store": {"lag": {"mean_ms": "5"}}}',
     "config key 'store.lag.mean_ms' must be a number, not a string"),
    ('{"store": {"lag": null}}', "config key 'store.lag' must be an object, not null"),
    ('{"out_dir": ["x"]}', "config key 'out_dir' must be a string, not an array"),
    ('{"duration_hours": NaN}', "config key 'duration_hours' must be finite, not nan"),
    ('{"duration_hours": Infinity}', "config key 'duration_hours' must be finite, not inf"),
    ('{"analysis_window_fraction": 1e400}',
     "config key 'analysis_window_fraction' must be finite, not inf"),
    ('{"store": {"lag": {"mean_ms": Infinity}}}',
     "config key 'store.lag.mean_ms' must be finite, not inf"),
    ('{"store": {"lag": {"mean_ms": NaN}}}',
     "config key 'store.lag.mean_ms' must be finite, not nan"),
    ('{"fanout": {"service": {"mean_ms": NaN}}}',
     "config key 'fanout.service.mean_ms' must be finite, not nan"),
    ('{"zipf": {"consumers_per_producer": {"s": NaN}}}',
     "config key 'zipf.consumers_per_producer.s' must be finite, not nan"),
    ('{"duration_hours": -Infinity}', "config key 'duration_hours' must be finite, not -inf"),
    ('{"zipf": {"consumers_per_producer": {"mean": 13.38, "s": -1.0}}}',
     "Zipf exponent s must be >= 0, not -1.0"),
    ('{"zipf": {"producer_rate_per_hour": {"mean": -1}}}', "Zipf mean must be >= 0, not -1.0"),
    ('{"duration_hours": 1' + "0" * 309 + '}',
     "config key 'duration_hours' must be finite, not inf"),
    # Finite, but the horizon lies past the last timestamp; only loaded, never
    # run, since a run would draw that many hours of arrivals.
    ('{"duration_hours": 1e300}', DURATION_PAST_TIMESTAMPS),
    ('{"duration_hours": 69951241}', DURATION_PAST_TIMESTAMPS),
    # Finite, but one delay draw could overflow the int64 microseconds it is cast to.
    ('{"fanout": {"service": {"mean_ms": 1e16}}, "duration_hours": 0.05}', DELAY_PAST_INT64),
    ('{"store": {"lag": {"mean_ms": 1e300}}}', DELAY_PAST_INT64),
]


@pytest.mark.parametrize("text,message", BAD_CONFIG_VALUES,
                         ids=[text for text, _ in BAD_CONFIG_VALUES])
def test_bad_config_value_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"gen: bad config: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_rejects_invalid_populations(tmp_path):
    path = tmp_path / "bad.json"
    data = tiny_config(tmp_path).to_dict()
    data["n_consumers"] = 0
    path.write_text(json.dumps(data))
    assert main(["gen", "--config", str(path)]) == 2


# A JSON value nested deeper than the decoder recurses; json.dumps cannot write it.
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000


def test_malformed_config_file_is_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    for text in ("{not json", DEEPLY_NESTED):
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 2, text[:10]


def gc_state():
    return gc.get_threshold(), gc.get_freeze_count()


def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch):
    """The collector policy is the process entry's alone. The tests and
    perfbench's tracer and probe call main() in their own process, so main()
    moves no threshold and freezes nothing, during the run or after it."""
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    found = gc_state()
    during = []
    run = cli.cmd_run

    def watched_run(*args):
        during.append(gc_state())
        return run(*args)

    monkeypatch.setattr(cli, "cmd_run", watched_run)
    main(["repro", "--config", str(cfg_path)])
    assert during == [found]
    assert gc_state() == found


def test_module_entry_freezes_the_heap_and_raises_the_threshold(tmp_path):
    """`python -m feedsim.cli` runs main() through entry(), which sets the policy
    and ends the process at os._exit with main()'s code, its output flushed.

    The child script wraps os._exit to read the policy, since no code after
    entry() runs, and writes it past sys.stdout's buffer, which entry() must
    have flushed."""
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    code = ("import gc, os, runpy\n"
            "def observed_exit(code):\n"
            "    policy = f'{gc.get_threshold()[0]} {gc.get_freeze_count() > 0} {code}\\n'\n"
            "    os.write(1, policy.encode())\n"
            "    exit_now(code)\n"
            "exit_now, os._exit = os._exit, observed_exit\n"
            "runpy.run_module('feedsim.cli', run_name='__main__')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Piped stdout is block-buffered unless the caller asked otherwise.
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", code, "repro", "--config", str(cfg_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    summary = tmp_path / "out" / "repro_summary.txt"
    assert summary.exists(), done.stderr
    *printed, policy = done.stdout.splitlines()
    assert policy == f"{cli.GC_GEN0_THRESHOLD} True {done.returncode}"
    # The piped stdout was flushed before the exit: it ends with the summary.
    assert printed[-1] == summary.read_text(encoding="utf-8").splitlines()[-1]


def test_full_pipeline_stage_by_stage(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    for command in ("gen", "run", "detect", "report"):
        assert main([command, "--config", str(cfg_path)]) == 0, command
    out = tmp_path / "out"
    for name in ("network_profile.jsonl", "validation_report.json", "tweets.jsonl",
                 "responses.jsonl", "trace_stats.json", "conflicts.jsonl",
                 "detection_totals.json", "totals.json", "gap_histogram.csv",
                 "summary.txt"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "tweets" in stdout and "responses" in stdout  # throughput line


def test_gen_same_seed_writes_identical_files(tmp_path):
    cfg_a = write_config(tmp_path, tiny_config(tmp_path / "a"), "a.json")
    cfg_b = write_config(tmp_path, tiny_config(tmp_path / "b"), "b.json")
    assert main(["gen", "--config", str(cfg_a)]) == 0
    assert main(["gen", "--config", str(cfg_b)]) == 0
    assert (tmp_path / "a" / "network_profile.jsonl").read_bytes() == \
           (tmp_path / "b" / "network_profile.jsonl").read_bytes()


def test_gen_infeasible_parameters_exit_nonzero(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "out",
                      zipf=ZipfParams(consumers_per_producer=ZipfPair(2.0, 0.39)))
    cfg_path = write_config(tmp_path, cfg)
    assert main(["gen", "--config", str(cfg_path)]) == 1


def test_run_without_gen_errors(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main(["run", "--config", str(cfg_path)]) == 1


@pytest.mark.parametrize("command", ["gen", "repro"])
@pytest.mark.parametrize("sub,code", [("", errno.EEXIST), ("sub", errno.ENOTDIR)],
                         ids=["existing_file", "under_a_file"])
def test_unusable_out_exits_1_naming_it(tmp_path, capsys, command, sub, code):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / sub
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"{command}: cannot write {out}: {os.strerror(code)}\n"


def test_detect_rejects_corrupt_logs(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["run", "--config", str(cfg_path)]) == 0
    (tmp_path / "out" / "tweets.jsonl").write_text("garbage\n")
    assert main(["detect", "--config", str(cfg_path)]) == 1


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main(["gen", "--config", str(cfg_path), "--seed", "11"]) == 0
    first = (tmp_path / "out" / "network_profile.jsonl").read_bytes()
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert first != (tmp_path / "out" / "network_profile.jsonl").read_bytes()


def test_duration_zero_pipeline_is_clean(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out", duration_hours=0.0))
    for command in ("gen", "run", "detect", "report"):
        assert main([command, "--config", str(cfg_path)]) == 0, command
    assert (tmp_path / "out" / "tweets.jsonl").read_text() == ""
    totals = json.loads((tmp_path / "out" / "totals.json").read_text())
    assert totals["inconsistency_rate"] is None


def test_repro_zero_delay_config_reports_zero_conflicts(tmp_path, capsys):
    cfg = zero_delay_config(seed=3, duration_hours=0.5, out_dir=str(tmp_path / "out"))
    cfg = replace(cfg, n_producers=68, n_consumers=197)
    cfg_path = write_config(tmp_path, cfg)
    assert main(["repro", "--config", str(cfg_path)]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS] zero_delay_soundness: conflicts: 0" in stdout
    summary = (tmp_path / "out" / "repro_summary.txt").read_text()
    assert "[PASS]" in summary and "[FAIL]" not in summary


def test_repro_aborts_with_failing_stage_name(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "out",
                      zipf=ZipfParams(consumers_per_producer=ZipfPair(2.0, 0.39)))
    cfg_path = write_config(tmp_path, cfg)
    assert main(["repro", "--config", str(cfg_path)]) == 1
    assert "repro: stage gen failed" in capsys.readouterr().err


def test_repro_lagged_tiny_run_evaluates_all_checks(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out", seed=3))
    main(["repro", "--config", str(cfg_path)])
    stdout = capsys.readouterr().out
    for name in ("workload_fidelity", "nonzero_anomaly_rate", "gap_bounded_by_pipeline",
                 "gap_histogram_shape", "correlation_producer_follower_count"):
        assert name in stdout
    assert "[PASS] nonzero_anomaly_rate" in stdout
    assert "[PASS] gap_bounded_by_pipeline" in stdout


@pytest.mark.parametrize("lagged", [True, False], ids=["lagged", "zero_delay"])
def test_repro_in_memory_writes_the_same_files_as_the_stages(tmp_path, lagged):
    cfg = tiny_config(tmp_path / "unused")
    if not lagged:
        cfg = replace(zero_delay_config(seed=3, duration_hours=0.5, out_dir=cfg.out_dir),
                      n_producers=68, n_consumers=197)
    cfg_path = write_config(tmp_path, cfg)
    chained, staged = tmp_path / "chained", tmp_path / "staged"
    main(["repro", "--config", str(cfg_path), "--out", str(chained)])  # tiny runs fail checks
    for command in ("gen", "run", "detect", "report"):
        assert main([command, "--config", str(cfg_path), "--out", str(staged)]) == 0, command
    names = {path.name for path in chained.iterdir()} - {"config_used.json",
                                                          "repro_summary.txt"}
    assert names == {path.name for path in staged.iterdir()}
    for name in sorted(names):
        assert (chained / name).read_bytes() == (staged / name).read_bytes(), name


# (file, key a malformed record breaks, a value of the wrong type for it)
CORRUPTIBLE_INPUTS = {
    "network_profile.jsonl": ("p", 5),
    "tweets.jsonl": ("seq", [2]),
    "responses.jsonl": ("entries", 5),
    "conflicts.jsonl": ("t", 5),
    "detection_totals.json": ("per_response_G_us", 5),
}


def corrupt(text, name, fault):
    """Break one record of a stage input; returns the new text and its line number.

    A (key, value) fault puts value in place of the id it truncates to.
    """
    lines = [text] if name.endswith(".json") else text.splitlines(keepends=True)
    if fault == "truncated":
        line_no = len(lines)
        lines[-1] = lines[-1][:len(lines[-1]) // 2]
    elif fault == "blank_line":
        line_no = 2
        lines.insert(line_no - 1, "\n")
    elif fault == "deeply_nested":
        line_no = 1
        lines[0] = DEEPLY_NESTED + "\n"
    else:
        if isinstance(fault, tuple):
            key, wrong = fault
            line_no = next(i for i, line in enumerate(lines, 1)
                           if json.loads(line).get(key) in (int(wrong), str(int(wrong))))
        else:
            key, wrong = CORRUPTIBLE_INPUTS[name]
            line_no = max(i for i, line in enumerate(lines, 1) if key in json.loads(line))
        record = json.loads(lines[line_no - 1])
        if fault == "missing_key":
            del record[key]
        else:
            record[key] = wrong
        lines[line_no - 1] = json.dumps(record) + "\n"
    return "".join(lines), line_no


STAGE_INPUTS = [
    ("run", "network_profile.jsonl"),
    ("detect", "network_profile.jsonl"),
    ("detect", "tweets.jsonl"),
    ("detect", "responses.jsonl"),
    ("report", "network_profile.jsonl"),
    ("report", "conflicts.jsonl"),
    ("report", "detection_totals.json"),
]


# Ids and counts are JSON integers or strings of ASCII digits; each value
# here truncates to the id it replaces: (stage, file, key, value).
BAD_IDS = [
    ("detect", "tweets.jsonl", "seq", 63.9),
    ("detect", "tweets.jsonl", "seq", True),
    ("detect", "tweets.jsonl", "producer_id", 9.6),
    ("detect", "responses.jsonl", "response_id", 1142.7),
    ("detect", "responses.jsonl", "consumer_id", 83.0),
    ("report", "conflicts.jsonl", "response_id", 594.5),
    ("report", "conflicts.jsonl", "witness_response_id", 591.5),
    ("report", "detection_totals.json", "analyzed_responses", 572.9),
]
STAGE_INPUT_FAULTS = [(stage, name, fault) for stage, name in STAGE_INPUTS
                      for fault in ("truncated", "deeply_nested", "missing_key", "wrong_type")]
# Whitespace around a JSON document is valid JSON, so only the logs have blank lines.
STAGE_INPUT_FAULTS += [(stage, name, "blank_line") for stage, name in STAGE_INPUTS
                       if name.endswith(".jsonl")]
STAGE_INPUT_FAULTS += [(stage, name, (key, value)) for stage, name, key, value in BAD_IDS]


@pytest.fixture(scope="module")
def staged_outputs(tmp_path_factory):
    """gen, run and detect outputs of the lagged tiny config, made once."""
    root = tmp_path_factory.mktemp("staged")
    cfg_path = write_config(root, tiny_config(root / "out"))
    for command in ("gen", "run", "detect"):
        assert main([command, "--config", str(cfg_path)]) == 0, command
    return root / "out"


@pytest.mark.parametrize("stage,name,fault", STAGE_INPUT_FAULTS, ids=[
    f"{stage}-{name}-{fault if isinstance(fault, str) else '%s=%r' % fault}"
    for stage, name, fault in STAGE_INPUT_FAULTS])
def test_corrupt_stage_input_exits_1_naming_the_file(tmp_path, capsys, staged_outputs,
                                                      stage, name, fault):
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    path = out / name
    text, line_no = corrupt(path.read_text(), name, fault)
    where = f"{path}:" if name.endswith(".json") else f"{path}:{line_no}:"
    path.write_text(text)
    capsys.readouterr()
    assert main([stage, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{stage}: {where}"), err
    if fault == "blank_line":
        assert err == f"{stage}: {where} corrupt record: ValueError: blank line\n", err


def _bump_first(table):
    key = next(iter(table))
    table[key] += 1


def _swap_type_counts(totals):
    counts = totals["type_counts"]
    assert len(set(counts.values())) == 2
    totals["type_counts"] = dict(zip(counts, reversed(counts.values())))


@pytest.mark.parametrize("name,edit,key", [
    ("detection_totals.json", lambda totals: _bump_first(totals["per_response_G_us"]),
     "per_response_G_us"),
    ("detection_totals.json", lambda totals: totals.update(
        conflict_records=totals["conflict_records"] + 1), "conflict_records"),
    ("detection_totals.json", lambda totals: totals.update(
        conflicting_responses=totals["conflicting_responses"] - 1), "conflicting_responses"),
    ("detection_totals.json", _swap_type_counts, "type_counts"),
    ("conflicts.jsonl", lambda records: records[0].update(
        G_seconds=records[0]["G_seconds"] + 1), "per_response_G_us"),
    ("detection_totals.json", lambda totals: totals.update(analyzed_responses=-100),
     "analyzed_responses"),
    ("detection_totals.json", lambda totals: totals.update(analyzed_responses=1),
     "analyzed_responses"),
], ids=["G_changed", "conflict_records_plus_1", "conflicting_responses_changed",
        "type_counts_swapped", "G_seconds_changed", "analyzed_responses_negative",
        "analyzed_responses_1"])
def test_totals_that_disagree_with_the_records_exit_1(tmp_path, capsys, staged_outputs,
                                                     name, edit, key):
    # The totals file echoes counts the conflict records own, and the analyzed
    # count the query counts own; report checks each.
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    path = out / name
    if name.endswith(".json"):
        document = json.loads(path.read_text())
        edit(document)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    else:
        records = [json.loads(line) for line in path.read_text().splitlines()]
        edit(records)
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
    capsys.readouterr()
    assert main(["report", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    totals, conflicts = out / "detection_totals.json", out / "conflicts.jsonl"
    source = "the sum of 'query_counts'" if key == "analyzed_responses" else conflicts
    assert err.startswith(f"report: {totals}: {key!r} does not match {source}"), err


def _first_query_count_to(value):
    """Set the first consumer's query count, keeping the sum by moving the rest to the second."""
    def edit(totals, records):
        counts = totals["query_counts"]
        first, second = list(counts)[:2]
        counts[second] += counts[first] - value
        counts[first] = value
    return edit


def _every_conflict_on_one_consumer_with_one_query(totals, records):
    consumer = records[0]["consumer_id"]
    for record in records:
        record["consumer_id"] = consumer
    counts = totals["query_counts"]
    other = next(key for key in counts if key != consumer)
    counts[other] += counts[consumer] - 1
    counts[consumer] = 1


def _first_tweet_count_negative(totals, records):
    counts = totals["tweet_counts"]
    counts[next(iter(counts))] = -3


def _queries_moved_off_a_conflicting_consumer(totals, records):
    counts = totals["query_counts"]
    consumer = records[0]["consumer_id"]
    other = next(key for key in counts if key != consumer)
    counts[other] += counts.pop(consumer)


def _query_count_for_unknown_consumer(totals, records):
    totals["query_counts"]["999999"] = 1
    totals["analyzed_responses"] += 1
    totals["total_responses"] += 1


def _tweet_counts_keys_with_leading_zero(totals, records):
    totals["tweet_counts"] = {f"0{key}": count for key, count in totals["tweet_counts"].items()}


# Totals that echo themselves but that no detection run writes: (edit, message part).
IMPOSSIBLE_TOTALS = {
    "tweet_count_negative": (_first_tweet_count_negative, "has a count of -3"),
    "query_count_zero": (_first_query_count_to(0), "has a count of 0"),
    "query_count_negative": (_first_query_count_to(-5), "has a count of -5"),
    "total_below_analyzed": (lambda totals, records: totals.update(
        total_responses=totals["analyzed_responses"] - 1), "total responses are out of order"),
    "records_but_nothing_analyzed": (lambda totals, records: totals.update(
        query_counts={}, analyzed_responses=0, analyzed_start_id=-1),
        "0 analyzed and 1143 total responses are out of order"),
    "consumer_conflicting_more_than_it_queried": (
        _every_conflict_on_one_consumer_with_one_query,
        "has 3 conflicting responses but 1 queries"),
    "queries_moved_off_a_conflicting_consumer": (
        _queries_moved_off_a_conflicting_consumer, "conflicting responses but 0 queries"),
    "tweet_count_for_unknown_producer": (lambda totals, records: totals["tweet_counts"].update(
        {"999999": 1}), "'tweet_counts' names producer 999999"),
    "query_count_for_unknown_consumer": (_query_count_for_unknown_consumer,
                                         "'query_counts' names consumer 999999"),
    "tweet_counts_keys_with_leading_zero": (_tweet_counts_keys_with_leading_zero,
                                            "'tweet_counts' is not written the way detect "
                                            "writes it"),
    "analyzed_start_id_negative": (lambda totals, records: totals.update(
        analyzed_start_id=-7), "'analyzed_start_id' is not written the way detect writes it"),
    "analyzed_start_id_none_with_responses": (lambda totals, records: totals.update(
        analyzed_start_id=-1), "'analyzed_start_id' is not written the way detect writes it"),
    "analyzed_start_id_3": (lambda totals, records: totals.update(analyzed_start_id=3),
                            "'analyzed_start_id' is not written the way detect writes it"),
    "n_timeline_zero": (lambda totals, records: totals.update(n_timeline=0),
                        "n_timeline 0 is not positive"),
    "n_timeline_fractional": (lambda totals, records: totals.update(n_timeline=2.5),
                              "2.5 is not an integer"),
    "window_fraction_string": (lambda totals, records: totals.update(
        analysis_window_fraction="x"), "analysis_window_fraction 'x' is not a number"),
    "window_fraction_zero": (lambda totals, records: totals.update(
        analysis_window_fraction=0), "analysis_window_fraction 0 is not a number"),
    "window_fraction_above_1": (lambda totals, records: totals.update(
        analysis_window_fraction=1.5), "analysis_window_fraction 1.5 is not a number"),
    "window_fraction_boolean": (lambda totals, records: totals.update(
        analysis_window_fraction=True), "analysis_window_fraction True is not a number"),
}


def _edit_detection(out, edit):
    """Apply edit(totals, records) to the detection files in out and write them
    back; returns the two paths."""
    path, conflicts = out / "detection_totals.json", out / "conflicts.jsonl"
    totals = json.loads(path.read_text())
    records = [json.loads(line) for line in conflicts.read_text().splitlines()]
    edit(totals, records)
    path.write_text(json.dumps(totals, indent=2, sort_keys=True) + "\n")
    conflicts.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path, conflicts


@pytest.mark.parametrize("edit,message", IMPOSSIBLE_TOTALS.values(), ids=IMPOSSIBLE_TOTALS)
def test_totals_no_detection_run_writes_exit_1(tmp_path, capsys, staged_outputs, edit, message):
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    path, conflicts = _edit_detection(out, edit)
    capsys.readouterr()
    assert main(["report", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"report: {path}: ") and message in err, err
    assert str(conflicts) not in err, err


# G_seconds values classify never writes: a gap is a number of seconds that
# rounds to at least one microsecond.
BAD_GAPS = [-3600.0, 0.0, True]


@pytest.mark.parametrize("seconds", BAD_GAPS, ids=[f"G_seconds={s!r}" for s in BAD_GAPS])
def test_conflict_gap_classify_cannot_write_exits_1(tmp_path, capsys, staged_outputs, seconds):
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    conflicts, totals_path = out / "conflicts.jsonl", out / "detection_totals.json"
    records = [json.loads(line) for line in conflicts.read_text().splitlines()]
    records[0]["G_seconds"] = seconds
    conflicts.write_text("".join(json.dumps(record) + "\n" for record in records))
    # The totals echo the edited records, so only the gap itself is wrong.
    per_response = {}
    for record in records:
        key, gap_us = str(record["response_id"]), round(record["G_seconds"] * 1_000_000)
        per_response[key] = max(per_response.get(key, gap_us), gap_us)
    totals = json.loads(totals_path.read_text())
    totals["per_response_G_us"] = per_response
    totals_path.write_text(json.dumps(totals, indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    assert main(["report", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"report: {conflicts}:1: "), err


def _last_response_moved_to_5(totals, records):
    """Move the last conflicting response's records and its G to response 5, in the warm-up."""
    moved = records[-1]["response_id"]
    for record in records:
        if record["response_id"] == moved:
            record["response_id"] = 5
    totals["per_response_G_us"]["5"] = totals["per_response_G_us"].pop(str(moved))


def _set_witness(line, witness):
    """Set the witness of the record on line (1-based) to witness(record)."""
    def edit(totals, records):
        record = records[line - 1]
        record["witness_response_id"] = witness(record)
    return edit


# Record ids detect_all never writes, each edit keeping the totals' echo of the
# records intact: (edit, line, message after the line). The tiny run's analysis
# window is responses 571 to 1142.
IMPOSSIBLE_RECORD_IDS = {
    "witness_past_the_log": (_set_witness(1, lambda record: 99999), 1,
                             "witness_response_id 99999 is outside the analysis window "
                             "[571, 1143)"),
    "response_in_warm_up": (_last_response_moved_to_5, 3,
                            "response_id 5 is outside the analysis window [571, 1143)"),
    "witness_is_the_response": (_set_witness(2, lambda record: record["response_id"]), 2,
                                "response 975 is its own witness"),
    "newer_earlier_witness_after_the_response": (
        _set_witness(1, lambda record: record["response_id"] + 1), 1,
        "newer_earlier witness 595 comes after response 594"),
}


@pytest.mark.parametrize("edit,line,message", IMPOSSIBLE_RECORD_IDS.values(),
                         ids=IMPOSSIBLE_RECORD_IDS)
def test_record_ids_no_detection_run_writes_exit_1(tmp_path, capsys, staged_outputs,
                                                   edit, line, message):
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    _, conflicts = _edit_detection(out, edit)
    capsys.readouterr()
    assert main(["report", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"report: {conflicts}:{line}: {message}\n"), err


@pytest.mark.parametrize("stage,name,key,unknown", [
    ("run", "network_profile.jsonl", "p", [0, 999_999]),
    ("report", "conflicts.jsonl", "producer_id", "999999"),
    ("report", "conflicts.jsonl", "consumer_id", "999999"),
    ("run", "network_profile.jsonl", "p", []),
    ("run", "network_profile.jsonl", "p", [0, 0]),
])
def test_ids_unknown_to_the_network_exit_1(tmp_path, capsys, staged_outputs,
                                           stage, name, key, unknown):
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    lines = (out / name).read_text().splitlines()
    record = json.loads(lines[0])
    record[key] = unknown
    lines[0] = json.dumps(record)
    (out / name).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([stage, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    # A bad follow list, or a conflict record naming an id the network lacks,
    # is reported at its line, the edited first one.
    assert err.startswith(f"{stage}: {out / name}:1: "), err
    if name == "conflicts.jsonl":
        kind = key.removesuffix("_id")
        assert err.startswith(f"{stage}: {out / name}:1: names {kind} {unknown}, which "
                              f"{out / 'network_profile.jsonl'} does not hold\n"), err


# A follow list as save_network_profile never writes it: (p, the message after
# the line). The tiny network has 68 producers; the record edited is consumer
# 5's, on line 6.
BAD_FOLLOW_LISTS = {
    "unsorted": ([2, 0], "consumer 5 follow list not sorted"),
    "empty": ([], "consumer 5 follows nobody"),
    "repeated": ([3, 3], "consumer 5 has duplicate follows"),
    "negative": ([-1, 0], "consumer 5 follows unknown producer -1"),
    "past_the_producers": ([0, 68, 300], "consumer 5 follows unknown producer 68"),
}


@pytest.mark.parametrize("producers,message", BAD_FOLLOW_LISTS.values(), ids=BAD_FOLLOW_LISTS)
def test_bad_follow_list_exits_1_naming_its_line(tmp_path, capsys, staged_outputs,
                                                 producers, message):
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    path = out / "network_profile.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    assert json.loads(lines[5])["c"] == 5
    lines[5] = json.dumps({"c": 5, "p": producers}) + "\n"
    path.write_text("".join(lines))
    for stage in ("run", "detect", "report"):
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path)]) == 1, stage
        assert capsys.readouterr().err.startswith(f"{stage}: {path}:6: {message}\n"), stage


# A network file with no network in it: (its records, the message after the file name).
# Follow records come first, so a file with none is named for them.
EMPTY_NETWORKS = {
    "empty": (lambda records: [], "no follow records"),
    "producer_only": (lambda records: [{"producer": 0, "rate_per_hour": 1.0}],
                      "no follow records"),
    "no_producers": (lambda records: [r for r in records if "producer" not in r],
                     "no producer rate records"),
}


@pytest.mark.parametrize("keep,message", EMPTY_NETWORKS.values(), ids=EMPTY_NETWORKS)
def test_network_without_follows_or_producers_exits_1(tmp_path, capsys, staged_outputs,
                                                      keep, message):
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    path = out / "network_profile.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(record) + "\n" for record in keep(records)))
    for stage in ("run", "detect", "report"):
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path)]) == 1, stage
        assert capsys.readouterr().err == f"{stage}: {path}: {message}\n", stage


@pytest.mark.parametrize("table,key,value", [
    ("producer", "rate_per_hour", math.nan),
    ("producer", "rate_per_hour", math.inf),
    ("producer", "rate_per_hour", -3.0),
    ("producer", "rate_per_hour", "2.5"),
    ("c", "p", [3.7, 5]),
    ("c", "p", [True, 5]),
    ("c", "c", 1.5),
], ids=["rate_nan", "rate_infinity", "rate_negative", "rate_string", "float_in_p",
        "boolean_in_p", "float_c"])
def test_bad_network_record_values_exit_1(tmp_path, capsys, staged_outputs, table, key, value):
    # Ids must be JSON integers and rates finite non-negative JSON numbers.
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    path = out / "network_profile.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    line_no = next(i for i, line in enumerate(lines, 1) if table in json.loads(line))
    record = json.loads(lines[line_no - 1])
    record[key] = value
    lines[line_no - 1] = json.dumps(record) + "\n"
    path.write_text("".join(lines))
    for stage in ("run", "detect", "report"):
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path)]) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith(f"{stage}: {path}:{line_no}: corrupt record: ValueError: "), err


@pytest.mark.parametrize("record,message", [
    ({"c": 5, "p": [0, 1, 2]}, "a follows record after the consumer records"),
    ({"producer": 3, "rate_per_hour": 500.0}, "a producer record after the consumer records"),
    ({"consumer": 5, "rate_per_hour": 500.0},
     "consumer id 5 is not the record's position {kind_count} among consumer records"),
], ids=["follows", "producer", "consumer"])
def test_repeated_network_record_exits_1(tmp_path, capsys, staged_outputs, record, message):
    # A second record for an id, appended after the consumer records, is out of
    # order: by kind, unless it is a consumer record, and then by id, since
    # ids count their kind's records.
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    path = out / "network_profile.jsonl"
    lines = path.read_text().splitlines(keepends=True) + [json.dumps(record) + "\n"]
    path.write_text("".join(lines))
    key = next(iter(record))
    message = message.format(kind_count=sum(key in json.loads(line) for line in lines[:-1]))
    for stage in ("run", "detect", "report"):
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path)]) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith(f"{stage}: {path}:{len(lines)}: corrupt record: ValueError: "
                              f"{message}\n"), err


def test_producer_record_among_the_follow_records_exits_1(tmp_path, capsys, staged_outputs):
    # The network file holds its kinds in the order save_network_profile
    # writes them. Producer 0's rate record, moved up to line 6 among the
    # follow records, keeps every id at its position among its kind, so it is
    # the follow record after it, consumer 5's on line 7, that comes too late.
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    path = out / "network_profile.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    first_rate = next(i for i, line in enumerate(lines) if "producer" in json.loads(line))
    lines.insert(5, lines.pop(first_rate))
    assert json.loads(lines[5])["producer"] == 0 and json.loads(lines[6])["c"] == 5
    path.write_text("".join(lines))
    for stage in ("run", "detect", "report"):
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path)]) == 1, stage
        assert capsys.readouterr().err.startswith(
            f"{stage}: {path}:7: corrupt record: ValueError: a follows record after the "
            f"producer records\n"), stage


@pytest.mark.parametrize("key", ["c", "producer"], ids=["follows", "producer"])
def test_network_id_gap_exits_1_at_the_next_record(tmp_path, capsys, staged_outputs, key):
    # Deleting a record from the middle of its kind leaves the next record's
    # id one past its position, and that record, now on the deleted line, is named.
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    path = out / "network_profile.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    kind_lines = [i for i, line in enumerate(lines, 1) if key in json.loads(line)]
    position = len(kind_lines) // 2
    line_no = kind_lines[position]
    del lines[line_no - 1]
    path.write_text("".join(lines))
    table = "follows" if key == "c" else key
    for stage in ("run", "detect", "report"):
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path)]) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith(f"{stage}: {path}:{line_no}: corrupt record: ValueError: "
                              f"{table} id {position + 1} is not the record's position "
                              f"{position} among {table} records\n"), err


def _swap_tweets_2_and_3(records):
    records.insert(3, records.pop(2))


def _swap_tweets_2_and_3_with_seqs(records):
    _swap_tweets_2_and_3(records)
    records[2]["seq"], records[3]["seq"] = 2, 3
    assert records[3]["t"] < records[2]["t"]


def _warm_up(records):
    """The first response with two entries, which lies in the unanalyzed first half."""
    index = next(i for i, record in enumerate(records) if len(record["entries"]) >= 2)
    assert index < len(records) // 2
    return records[index]


def _phantom_entry_in_warm_up(records):
    response = _warm_up(records)
    response["entries"] = [{"producer_id": "99999", "t": response["T"]}]


def _future_entry_in_warm_up(records):
    _warm_up(records)["entries"] = records[-1]["entries"][:1]


def _swap_last_two_response_ids(records):
    records[-2]["response_id"], records[-1]["response_id"] = \
        records[-1]["response_id"], records[-2]["response_id"]


def _unfollowed_producers_tweet_in_last(records):
    """Insert into the last response, newest-first, a tweet no later than its T
    from a producer never served to its consumer, which that consumer does not
    follow."""
    last = records[-1]
    own = {entry["producer_id"] for record in records
           if record["consumer_id"] == last["consumer_id"] for entry in record["entries"]}
    times = {entry["t"] for entry in last["entries"]}
    # ISO timestamps of one width sort as the times they render.
    last["entries"].append(max(
        (entry for record in records for entry in record["entries"]
         if entry["producer_id"] not in own and entry["t"] <= last["T"]
         and entry["t"] not in times), key=lambda entry: entry["t"]))
    last["entries"].sort(key=lambda entry: entry["t"], reverse=True)


# Each message follows the file name and the line of the one record at fault,
# whether the loader rejects that record or detection finds it breaks an invariant.
@pytest.mark.parametrize("name,edit,message", [
    ("responses.jsonl", lambda records: records[-1].update(consumer_id="99999"),
     ":{lines}: response {last} names unknown consumer 99999"),
    # The log keeps consumer ids in a signed 64-bit column.
    ("responses.jsonl", lambda records: records[-1].update(consumer_id=str(2**63)),
     ":{lines}: corrupt record: OverflowError: "),
    ("responses.jsonl",
     lambda records: records[-1].update(entries=[{"producer_id": "99999",
                                                  "t": records[-1]["T"]}]),
     ":{lines}: response {last} contains a phantom tweet (99999, "),
    ("responses.jsonl", lambda records: records[-1].update(response_id=0),
     ":{lines}: corrupt record: ValueError: response_id 0 is not the record's position {last}"),
    ("responses.jsonl", _swap_last_two_response_ids,
     ":{last}: corrupt record: ValueError: response_id {last} is not the record's position "
     "{before}"),
    ("responses.jsonl",
     lambda records: records[-1].update(response_id=records[-1]["response_id"] + 5),
     ":{lines}: corrupt record: ValueError: response_id {bumped} is not the record's position "
     "{last}"),
    ("responses.jsonl", lambda records: records[-1].update(T=records[0]["T"]),
     ":{lines}: response {last} is timestamped before the response before it"),
    ("tweets.jsonl", _swap_tweets_2_and_3,
     ":3: corrupt record: ValueError: seq 3 is not the record's position 2"),
    ("tweets.jsonl", _swap_tweets_2_and_3_with_seqs,
     ":4: tweet log not strictly ordered at seq 3"),
    ("tweets.jsonl", lambda records: records[-1].update(seq=records[-1]["seq"] + 1),
     ":{lines}: corrupt record: ValueError: seq {lines} is not the record's position {last}"),
    ("tweets.jsonl", lambda records: records[-1].update(producer_id="999999"),
     ":{lines}: tweet seq {last} names unknown producer 999999"),
    ("responses.jsonl", _phantom_entry_in_warm_up,
     ":{warm_line}: response {warm} contains a phantom tweet (99999, "),
    ("responses.jsonl", _future_entry_in_warm_up,
     ":{warm_line}: response {warm} contains a future tweet ("),
    ("responses.jsonl", lambda records: _warm_up(records)["entries"].reverse(),
     ":{warm_line}: response {warm} entries not strictly newest-first"),
    ("responses.jsonl", _unfollowed_producers_tweet_in_last,
     ":{lines}: response {last} contains an unfollowed producer's tweet ("),
], ids=["unknown_consumer", "consumer_id_beyond_64_bits", "phantom_entry",
        "duplicate_response_id", "decreasing_response_ids", "bumped_last_response_id",
        "disordered_T", "swapped_tweets", "swapped_tweets_and_seqs", "bumped_last_seq",
        "unknown_producer", "warm_up_phantom_entry", "warm_up_future_entry",
        "warm_up_reversed_entries", "unfollowed_producers_tweet"])
def test_detect_integrity_errors_name_the_log(tmp_path, capsys, staged_outputs,
                                              name, edit, message):
    out = tmp_path / "out"
    shutil.copytree(staged_outputs, out)
    cfg_path = write_config(tmp_path, tiny_config(out))
    records = [json.loads(line) for line in (out / name).read_text().splitlines()]
    last = records[-1]["response_id" if name == "responses.jsonl" else "seq"]
    warm = _warm_up(records)["response_id"] if name == "responses.jsonl" else None
    edit(records)
    (out / name).write_text("".join(json.dumps(record) + "\n" for record in records))
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    expected = message.format(last=last, before=last - 1, bumped=last + 5, warm=warm,
                              warm_line=None if warm is None else warm + 1, lines=len(records))
    assert err.startswith(f"detect: {out / name}{expected}"), err

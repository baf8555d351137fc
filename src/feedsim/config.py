"""Experiment configuration: one JSON-serializable record drives a run.

This module alone knows the config's JSON format: `to_dict` writes the
record's dataclass fields as nested objects, and `from_dict` reads them
back over the defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any

from .app import FanoutSettings
from .netgen import ZipfParams
from .sim import MAX_MICROS, MICROS_PER_HOUR, DistributionSpec, write_json
from .store import StoreConfig

DESK_N_PRODUCERS = 679
DESK_N_CONSUMERS = 1963


# The kind of value a key takes where its default is null; null stays allowed.
NULLABLE_KINDS = {"fanout.concurrency_cap": "an integer"}


def _json_kind(value) -> str:
    """The JSON kind of a decoded value or a config default, as an error message names it."""
    if is_dataclass(value):
        return "an object"
    for types, kind in ((bool, "a boolean"), (int, "an integer"), (float, "a number"),
                        (str, "a string"), (dict, "an object"), (list, "an array"),
                        (type(None), "null")):
        if isinstance(value, types):
            return kind
    return type(value).__name__


def _merge_defaults(data: dict, default, prefix: str = "") -> tuple[Any, list[str]]:
    """default, a config dataclass, with the values in data put in at any
    depth, and the dotted paths of the keys in data that default lacks
    (with any of those, default comes back unchanged).

    A number goes in as a float wherever its default is a float, so equal
    numbers give equal configs. Raises ValueError, naming the key, for a
    value of another JSON kind than its default (an integer is also a
    number) and for a number that is not finite.
    """
    names = {f.name for f in fields(default)}
    changes, unknown = {}, []
    for key, value in data.items():
        path = f"{prefix}{key}"
        if key not in names:
            unknown.append(path)
            continue
        current = getattr(default, key)
        kind = _json_kind(value)
        expected = NULLABLE_KINDS.get(path) or _json_kind(current)
        nullable = path in NULLABLE_KINDS
        if not (kind == expected or (kind, expected) == ("an integer", "a number")
                or (kind == "null" and nullable)):
            raise ValueError(f"config key '{path}' must be {expected}"
                             f"{' or null' if nullable else ''}, not {kind}")
        if kind == "an object":
            value, inner = _merge_defaults(value, current, f"{path}.")
            unknown += inner
        elif isinstance(current, float):
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
            if not math.isfinite(value):
                raise ValueError(f"config key '{path}' must be finite, not {value}")
        changes[key] = value
    # Unknown keys are reported before any range check of the sections.
    return (default if unknown else replace(default, **changes)), unknown


@dataclass(frozen=True)
class ExperimentConfig:
    """The paper's desk-scale anomaly experiment unless a field says otherwise.

    One update lane per tweet with a 7.5 s mean service time makes large
    fan-outs take minutes, which is what surfaces observable conflicts.
    """

    seed: int = 39
    n_producers: int = DESK_N_PRODUCERS
    n_consumers: int = DESK_N_CONSUMERS
    zipf: ZipfParams = field(default_factory=ZipfParams)
    store: StoreConfig = field(default_factory=StoreConfig)
    fanout: FanoutSettings = field(default_factory=lambda: FanoutSettings(
        service=DistributionSpec("exponential", 7500.0), concurrency_cap=1))
    n_timeline: int = 20
    duration_hours: float = 2.0
    analysis_window_fraction: float = 0.5
    out_dir: str = "out"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_producers < 1 or self.n_consumers < 1:
            raise ValueError("need at least one producer and one consumer")
        if self.n_timeline < 1:
            raise ValueError("n_timeline must be >= 1")
        if self.duration_hours < 0:
            raise ValueError("duration_hours must be >= 0")
        # Every event time up to the horizon must render as a timestamp.
        horizon_us = self.duration_hours * MICROS_PER_HOUR
        if not (math.isfinite(horizon_us) and round(horizon_us) <= MAX_MICROS):
            raise ValueError(f"duration_hours must be below {MAX_MICROS // MICROS_PER_HOUR + 1}, "
                             "past which event times cannot be written as timestamps")
        if not 0 < self.analysis_window_fraction <= 1:
            raise ValueError("analysis_window_fraction must be in (0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, not {type(data).__name__}")
        cfg, unknown = _merge_defaults(data, cls())
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cfg

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def zero_delay_config(seed: int = 1, duration_hours: float = 9.0,
                      out_dir: str = "out") -> ExperimentConfig:
    """Consistency baseline: no replication lag, fan-out inside the post."""
    return ExperimentConfig(
        seed=seed,
        store=StoreConfig(n_replicas=3, lag=DistributionSpec("constant", 0.0)),
        fanout=FanoutSettings(mode="synchronous"),
        duration_hours=duration_hours,
        analysis_window_fraction=1.0,
        out_dir=out_dir,
    )


def lag_probe_config(seed: int, lag_mean_ms: float, out_dir: str = "out") -> ExperimentConfig:
    """Synchronous fan-out with a dominant replication lag, for lag sweeps."""
    return ExperimentConfig(
        seed=seed,
        store=StoreConfig(n_replicas=3, lag=DistributionSpec("exponential", lag_mean_ms)),
        fanout=FanoutSettings(mode="synchronous"),
        out_dir=out_dir,
    )


def is_zero_delay(config: ExperimentConfig) -> bool:
    """True when the configuration cannot produce any inconsistency."""
    return config.store.lag.mean_ms == 0 and config.fanout.mode == "synchronous"

"""feedsim: deterministic feed-following simulator with an
observable-inconsistency detector and analytics pipeline."""

import os

# feedsim computes on one thread; this keeps OpenBLAS from starting an idle worker pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analytics import (
    AnalyticsReport,
    CorrelationStudy,
    GapSummary,
    attribute_to_producers,
    build_report,
    correlation_studies,
    emit_report,
    gap_histogram,
    inconsistency_rate,
    summarize_gaps,
)
from .app import (
    FanoutSettings,
    FeedApp,
    RunArtifacts,
    TimelineResponse,
    run_experiment,
)
from .config import (
    ExperimentConfig,
    lag_probe_config,
    zero_delay_config,
)
from .detect import (
    ConflictRecord,
    ConflictType,
    DetectionResult,
    IntegrityError,
    TweetIndex,
    WitnessIndex,
    build_witness_index,
    classify,
    consistent_timeline,
    detect_all,
    find_missing,
)
from .netgen import (
    FollowingNetwork,
    InfeasibleParametersError,
    ValidationReport,
    WorkloadProfile,
    ZipfPair,
    ZipfParams,
    ZipfSampler,
    build_network,
    build_profile,
    load_network_profile,
    save_network_profile,
    validate_profile,
)
from .sim import (
    EPOCH,
    DistributionSpec,
    EventKind,
    EventLoop,
    RngStreams,
    from_iso,
    to_iso,
)
from .store import CasResult, ReplicatedStore, StoreConfig

__version__ = "0.1.0"

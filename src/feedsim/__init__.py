"""feedsim: deterministic feed-following simulator with an
observable-inconsistency detector and analytics pipeline."""

import os

# feedsim computes on one thread; this keeps OpenBLAS from starting an idle worker pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

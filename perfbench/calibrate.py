"""A fixed reference job that measures how fast the machine runs right now.

Usage: python calibrate.py WORK_DIR

The job is the same kind of work as `feedsim repro`, at a fixed size:
interpreter start, the numpy, scipy.optimize and scipy.stats imports that
feedsim's start-up pays for, then a dict of records written to a
JSON-lines file in WORK_DIR, read back, checked and sorted. It imports
nothing from feedsim, so a change to the program never changes this
job; the parent times it from spawn to exit between the `repro` samples
and scales each sample by how much slower or faster the job ran than its
reference time.
"""

import json
import random
import sys
from pathlib import Path

import numpy  # noqa: F401  (imported for its cost, as feedsim's start-up does)
import scipy.optimize  # noqa: F401
import scipy.stats  # noqa: F401

N_RECORDS = 80_000


def main(work: Path) -> int:
    rng = random.Random(7)
    records = {i: (rng.random(), str(i), i % 977) for i in range(N_RECORDS)}
    path = work / "calibrate.jsonl"
    with open(path, "w", encoding="utf-8") as out:
        for key, value in records.items():
            out.write(json.dumps({"k": key, "v": value}) + "\n")
    with open(path, encoding="utf-8") as back:
        rows = [json.loads(line) for line in back]
    path.unlink()
    rows.sort(key=lambda row: row["v"][0])
    if len(rows) != N_RECORDS or sum(row["k"] for row in rows) != N_RECORDS * (N_RECORDS - 1) // 2:
        print("calibrate: wrong result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))

"""Time feedsim's start-up: interpreter start, imports and config load.

Usage: python probe.py FEEDSIM_ARGS...

Runs the feedsim CLI, but the first pipeline stage prints the
time.monotonic() clock and ends the process instead of generating. The
parent subtracts the clock it read before spawning this process.
"""

import os
import sys
import time

from feedsim import cli


def _first_stage(cfg):
    print(time.monotonic(), flush=True)
    os._exit(0)


def main(argv: list[str]) -> int:
    cli.cmd_gen = _first_stage
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

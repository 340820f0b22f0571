"""Run `nfbf` as the benchmark's child process and record when its first trial starts.

Usage: python3 child.py MARKER_PATH run --config ... --seed ... --out ...

Everything after MARKER_PATH goes to nfbf's own command line, exactly as the
`nfbf` entry point would pass it. The one addition is a wrapper around the
harness's first call of random_scenario, which opens every trial: it writes
the monotonic clock to MARKER_PATH, puts the original function back and
calls it, so the trials themselves run unwrapped. The parent reads set-up
time as the marker minus its own clock at process start.
"""

import sys
import time


def main() -> int:
    marker = sys.argv[1]
    from nfbf import cli, harness

    original = harness.random_scenario

    def first_trial(*args, **kwargs):
        now = time.monotonic()
        harness.random_scenario = original
        with open(marker, "w") as fh:
            fh.write(repr(now))
        return original(*args, **kwargs)

    harness.random_scenario = first_trial
    return cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())

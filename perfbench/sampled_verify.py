"""``iqhecke verify --json`` in a fresh process that samples the machine's speed.

Usage: python3 perfbench/sampled_verify.py SAMPLES_JSON [--check NAME ...]

The verify output goes to stdout unchanged. While the command runs, a
``reference.SpeedSampler`` times ``reference_kernel`` every few
milliseconds; the durations, in seconds, go to SAMPLES_JSON even when the
command fails. The caller subtracts their sum from the process's wall time
and divides by their median.
"""

import json
import sys

from reference import SpeedSampler

sampler = SpeedSampler().start()
try:
    import iqhecke.cli as cli

    code = cli.main(["verify", "--json", *sys.argv[2:]])
finally:
    sampler.stop()
    sys.stdout.flush()
    with open(sys.argv[1], "w") as fh:
        json.dump(sampler.durations, fh)
sys.exit(code)

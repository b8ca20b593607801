"""``iqhecke verify --json`` in a fresh process with the library spans on.

Usage: python3 perfbench/traced_verify.py SPAWN_TIME METRICS_JSON SPANS_BIN [--check NAME ...]

SPAWN_TIME is the parent's ``time.time()`` just before it started this
process. The verify output goes to stdout unchanged; the per-layer metrics
go to METRICS_JSON and the raw spans to SPANS_BIN. ``cli.startup_s`` is the
time from spawn to the entry of the verify command, less the time spent
installing the spans.
"""

import json
import sys
import time

import iqhecke.cli as cli
from spans import Tracer, install_library_spans, layer_metrics

spawn_time, metrics_path, spans_path = float(sys.argv[1]), sys.argv[2], sys.argv[3]

t0 = time.perf_counter()
tracer = Tracer()
install_library_spans(tracer)
install_s = time.perf_counter() - t0

entered = []
cmd_verify = cli.cmd_verify


def timed_cmd_verify(args):
    entered.append(time.time())
    return cmd_verify(args)


cli.cmd_verify = timed_cmd_verify
try:
    code = cli.main(["verify", "--json", *sys.argv[4:]])
finally:
    cli.cmd_verify = cmd_verify
    tracer.restore()

sys.stdout.flush()
startup = entered[0] - spawn_time - install_s
with open(metrics_path, "w") as fh:
    json.dump({"exit": code, "metrics": layer_metrics(tracer, {"cli.startup_s": startup})}, fh)
tracer.dump(spans_path)
sys.exit(code)

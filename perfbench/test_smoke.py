"""Smoke runs of every workload, untraced and traced, and the benchmark's
own invariants. Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# metrics the report prints beside the BENCHMARK.json ones
RAW = {"ops_per_s", "p50_ms", "p90_ms", "ref_ms", "samples", "failed_share"}
REPORT_ONLY = {
    "roundtrip": RAW | {"shape_failures"},
    "tables": RAW,
    "verify": RAW | {"wall_s"},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_and_validates(workload, trace):
    result = run.run_workload(workload, 7, 0.1, trace, run.Settings.smoke())
    assert result.correct, result.detail["problems"]
    assert result.attempted >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result.metrics.items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result.metrics.values())
    if not trace:
        assert REPORT_ONLY[workload] <= set(result.report)
        assert all(result.metrics[m["name"]]["value"] > 0 for m in spec)
    last = json.loads(result.last_line())
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_a_seed_fixes_the_attempted_and_failed_counts():
    first, again = (run.run_workload("roundtrip", 5, 0.1, 0, run.Settings.smoke()) for _ in "ab")
    assert first.attempted == again.attempted == 8
    assert first.detail["failures"] == again.detail["failures"]


def test_speed_sampler_counts_work_in_kernel_runs():
    import time

    from reference import PAD, SpeedSampler, reference_kernel

    sampler = SpeedSampler().start()
    try:
        t0 = time.perf_counter()
        for _ in range(200):
            reference_kernel()
        t1 = time.perf_counter()
        time.sleep(PAD)
    finally:
        sampler.stop()
    assert sampler.durations
    assert 120 < sampler.relative(t0, t1) < 300


def test_shape_probe_reports_the_unsupported_shapes():
    run.use_checkout()
    assert set(run.shape_probe()) == {"47", "71", "41", "89"}


def test_spans_are_removed_after_a_traced_run():
    run.run_workload("roundtrip", 3, 0.1, 1, run.Settings.smoke())
    import iqhecke.algext as algext
    import iqhecke.quadfield as quadfield
    import iqhecke.recovery as recovery

    assert recovery.ideal_mul is quadfield.ideal_mul
    assert not hasattr(quadfield.ideal_mul, "__wrapped__")
    assert not hasattr(algext.AlgValue.__mul__, "__wrapped__")
    assert not hasattr(recovery.recover, "__wrapped__")
    assert quadfield.ideals_of_norm.cache_info().hits > 0


def test_per_layer_spec_matches_the_tracer():
    import spans

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        spans.PER_LAYER
    )


def test_degenerate_join():
    run.use_checkout()
    import workloads
    from iqhecke.algext import make_value_field

    sqrt2 = make_value_field(adjoined=[2])
    assert workloads.degenerate_join([make_value_field(adjoined=[-2, 2]), make_value_field(adjoined=[-1, 2])])
    assert not workloads.degenerate_join([sqrt2, make_value_field(adjoined=[-1, 2])])
    assert not workloads.degenerate_join([sqrt2, make_value_field(adjoined=[-3])])


def test_golden_subset_keeps_the_cli_format():
    full = (BENCH_DIR / "golden" / "verify.json").read_bytes()
    rebuilt = run._golden(tuple(r["name"] for r in json.loads(full)))
    assert rebuilt == full


def test_exits_nonzero_without_the_program():
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

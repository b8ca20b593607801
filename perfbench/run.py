"""The iqhecke benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Every workload is a closed loop with one client: one process, one thread,
and the next operation starts only when the previous one returned. Child
processes run one at a time, and each gets PYTHONHASHSEED pinned so that set
and dict order over string keys repeats from run to run. The library is
imported from ``src/`` of the checkout and receives only the inputs that
``inputs.py`` generates from ``--seed``; warm-up draws from another stream
of the same seed, so lazy set-up is paid before timing and no timed input
is replayed. The number of operations in a run follows from ``--seconds``
and the workload alone (``OPS_PER_SECOND``), so a seed always gives the same
attempted and failed counts; the run takes about ``--seconds`` on a 2-vCPU VM.

Workloads:
  roundtrip  one ``recover(SyntheticOracle(F), G, F.level, 200)`` per fresh
             eigensystem F over d = 1, 5, 23, 17, 21, 14, 65, 105; afterwards
             one untimed round trip at each of d = 47, 71, 41, 89, whose
             failures are reported as ``shape_failures``.
  tables     one twisted eigensystem per operation: ``coefficient`` on every
             ideal of norm <= 400 coprime to the level, ``twist_orbit``,
             ``galois_conjugate_system``, ``selftwist_status``, and
             ``hecke_field_report`` on the system cut to norm <= 40.
  verify     one fresh ``python -m iqhecke.cli verify --json`` per operation,
             checked byte for byte against golden/verify.json; the seed is
             ignored.

With ``--trace 0`` the end-to-end metrics are measured and tracing is off.
Latencies in them are in reference units (``p50_ref``, ``p90_ref``,
``ops_per_kref``): each operation's time over the time of a fixed
pure-Python kernel run on a timer while it ran (see reference.py), which
takes out most of the VM's drift in speed. The same latencies in
milliseconds (``p50_ms``, ``p90_ms``, ``ops_per_s``, and ``wall_s`` for
verify) are printed as report lines.
With ``--trace 1`` a fixed batch of operations runs once untraced and once
with spans around the library's public functions (see spans.py); the spans
give the per-layer metrics, and traced wall over untraced wall is
``trace.overhead``.

Every operation's output is checked outside the timed region. An operation
that raises, or whose output exact arithmetic cannot compare with the
expected one (``workloads.Unverifiable``), counts as failed with its reason;
it is never retried or re-seeded, and latencies cover the completed
operations. Report lines name each metric with its unit; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A run writes its
environment, samples and spans under ``.perfbench-out/``. The exit code is
nonzero when an output is wrong or the checkout has no ``src/iqhecke``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from reference import PAD, SpeedSampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
HASH_SEED = "0"
WORKLOADS = ("roundtrip", "tables", "verify")

SETUP_REPEATS = 9
# p90 needs at least ten samples beyond it
MIN_OPS = 100
# Operations per second of --seconds, as measured on a 2-vCPU VM. A run does
# a fixed number of operations and not as many as fit in the time, so that
# one seed always gives the same inputs, attempted and failed counts.
OPS_PER_SECOND = {"roundtrip": 20, "tables": 2, "verify": 1 / 6}
# traced batches, in rounds of one operation per sweep field
TRACE_ROUNDS = {"roundtrip": 4, "tables": 1}


class BenchError(RuntimeError):
    """The benchmark could not run: missing program, or a child that failed."""


@dataclass
class Settings:
    """What a run does; ``smoke`` shrinks it to seconds for the tests."""

    setup_repeats: int = SETUP_REPEATS
    min_ops: int = MIN_OPS
    verify_checks: tuple[str, ...] = ()  # empty: all checks
    trace_rounds: dict = field(default_factory=lambda: dict(TRACE_ROUNDS))

    @classmethod
    def smoke(cls) -> "Settings":
        return cls(1, 1, ("class-groups", "mult-relations"), {"roundtrip": 1, "tables": 1})


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # the BENCHMARK.json metrics of this mode
    report: dict = field(default_factory=dict)  # every metric, for the report lines
    detail: dict = field(default_factory=dict)  # samples and problems for the output file

    def last_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def use_checkout() -> None:
    if not (SRC / "iqhecke" / "__init__.py").is_file():
        raise BenchError(f"no iqhecke package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "seed": seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a
    git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nearest_rank(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def peak_rss_mb(kib: int) -> float:
    return kib * 1024 / 1e6


def latency_metrics(latencies, relative) -> tuple[dict, dict]:
    """(the end-to-end metrics, the raw ones for the report lines) of a run's
    completed operations."""
    metrics = {
        "ops_per_kref": metric(1e3 * len(relative) / sum(relative), "1/kref"),
        "p50_ref": metric(statistics.median(relative), "ref"),
        "p90_ref": metric(nearest_rank(relative, 0.9), "ref"),
    }
    raw = {
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "p90_ms": metric(1e3 * nearest_rank(latencies, 0.9), "ms"),
        "ref_ms": metric(1e3 * statistics.median(
            [t / r for t, r in zip(latencies, relative)]), "ms"),
        "samples": metric(len(latencies), "count"),
    }
    return metrics, raw


class SetupTimer:
    """``setup_s``: the median wall time of fresh processes brought to ready
    (ready.py), spread evenly over the run, so that the median does not rest
    on one moment of a machine whose speed drifts."""

    def __init__(self, target: str, repeats: int, seconds: float):
        self.target, self.repeats = target, repeats
        self.start, self.step = time.perf_counter(), seconds / repeats
        self.walls: list[float] = []
        self.poll()

    def _measure(self):
        from workloads import run_process

        argv = [sys.executable, str(BENCH_DIR / "ready.py"), self.target]
        wall, _, code, _ = run_process(argv, child_env(), ROOT)
        if code != 0:
            raise BenchError(f"ready.py {self.target} exited with {code}")
        self.walls.append(wall)

    def poll(self):
        """Take the measurements that are due; call between operations."""
        while (
            len(self.walls) < self.repeats
            and time.perf_counter() >= self.start + len(self.walls) * self.step
        ):
            self._measure()

    def median(self) -> float:
        while len(self.walls) < self.repeats:
            self._measure()
        return statistics.median(self.walls)


# -- roundtrip and tables --------------------------------------------------------


def _kind(name: str):
    """(input source, operation, validator) of an in-process workload."""
    import inputs
    import workloads

    if name == "roundtrip":
        return (
            inputs.RoundTripSource,
            workloads.roundtrip_op,
            lambda inp, out, rng: workloads.validate_roundtrip(inp, out),
        )
    return inputs.TableSource, workloads.tables_op, workloads.validate_tables


def attempt(op, inp, *args):
    """(output, None) or (None, exception) for one operation."""
    try:
        return op(inp, *args), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, exc


def outcome(validate, inp, out, exc, rng) -> tuple[str | None, list[str]]:
    """(why the operation failed, or None; problems with its output)."""
    from workloads import Unverifiable

    if exc is None:
        try:
            return None, validate(inp, out, rng)
        except Unverifiable as why:
            exc = why
    return f"{type(exc).__name__}: {exc}", []


def run_inprocess(name: str, seed: int, seconds: float, settings: Settings) -> Result:
    import inputs

    setup = SetupTimer("sweep", settings.setup_repeats, seconds)
    groups = inputs.sweep_groups()
    source_cls, op, validate = _kind(name)
    per_round = len(groups)
    check_rng = random.Random(f"check:{seed}")
    problems = []

    warm = source_cls(groups, random.Random(f"warmup:{seed}"))
    for _ in range(per_round):
        inp = warm.next()
        problems += outcome(validate, inp, *attempt(op, inp), check_rng)[1]

    source = source_cls(groups, random.Random(f"timed:{seed}"))
    timed, failures = [], Counter()
    clock = time.perf_counter
    # whole rounds of one operation per sweep field
    wanted = max(settings.min_ops, math.ceil(seconds * OPS_PER_SECOND[name]))
    attempted = per_round * math.ceil(wanted / per_round)
    sampler = SpeedSampler().start()
    try:
        for _ in range(attempted):
            inp = source.next()
            t0 = clock()
            out, exc = attempt(op, inp)
            t1 = clock()
            failure, bad = outcome(validate, inp, out, exc, check_rng)
            problems += bad
            if failure:
                failures[failure] += 1
            else:
                timed.append((t0, t1))
            setup.poll()
        time.sleep(PAD)  # kernel runs after the last operation, for its unit
    finally:
        sampler.stop()
    latencies = [sampler.work(t0, t1) for t0, t1 in timed]
    relative = [sampler.relative(t0, t1) for t0, t1 in timed]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed = sum(failures.values())
    timing, raw = latency_metrics(latencies, relative)
    metrics = {
        "setup_s": metric(setup.median(), "s"),
        **timing,
        "peak_rss_mb": metric(peak_rss_mb(rss), "MB"),
    }
    report = dict(metrics, **raw, failed_share=metric(failed / attempted, "ratio"))
    detail = {"latencies_s": latencies, "relative": relative,
              "failures": dict(failures), "problems": problems}
    if name == "roundtrip":
        shape = shape_probe()
        report["shape_failures"] = metric(len(shape), "count")
        detail["shape_probe"] = shape
    return Result(not problems, attempted, failed, metrics, report, detail)


def shape_probe() -> dict:
    """One untimed round trip per unsupported class-group shape; the reason
    each one failed, by field. The inputs come from a fixed seed, so the
    count is a property of the code."""
    import inputs
    from iqhecke.classgroup import compute_class_group
    from iqhecke.quadfield import make_field

    _, op, validate = _kind("roundtrip")
    out = {}
    for d in inputs.PROBE_FIELDS:
        group = compute_class_group(make_field(d))
        inp = inputs.RoundTripInput(inputs.probe_system(group, random.Random(f"probe:{d}")))
        try:
            failure, problems = outcome(validate, inp, *attempt(op, inp), None)
        except Exception as exc:  # the check itself fails on these shapes today
            failure, problems = f"{type(exc).__name__}: {exc}", []
        if failure or problems:
            out[str(d)] = failure or problems[0]
    return out


def run_inprocess_traced(name: str, seed: int, settings: Settings, spans_path: Path) -> Result:
    import inputs
    import spans
    import workloads
    from iqhecke import classgroup, quadfield

    groups = inputs.sweep_groups()
    source_cls, op, validate = _kind(name)
    check_rng = random.Random(f"check:{seed}")
    warm = source_cls(groups, random.Random(f"warmup:{seed}"))
    for _ in range(len(groups)):
        attempt(op, warm.next())
    source = source_cls(groups, random.Random(f"timed:{seed}"))
    batch = [source.next() for _ in range(settings.trace_rounds[name] * len(groups))]

    def oracles():
        if name != "roundtrip":
            return [()] * len(batch)
        from iqhecke.recovery import SyntheticOracle

        return [(workloads.CountingOracle(SyntheticOracle(inp.system)),) for inp in batch]

    plain_args = oracles()
    t0 = time.perf_counter()
    plain = [attempt(op, inp, *a) for inp, a in zip(batch, plain_args)]
    untraced_s = time.perf_counter() - t0

    traced_args = oracles()
    tracer = spans.Tracer()
    spans.install_library_spans(tracer)
    try:
        for d in inputs.SWEEP_FIELDS:
            classgroup.compute_class_group(quadfield.make_field(d))
        traced = []
        t0 = time.perf_counter()
        for k, (inp, a) in enumerate(zip(batch, traced_args)):
            tracer.op_id = k
            traced.append(attempt(op, inp, *a))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    tracer.dump(spans_path)

    problems, failures = [], []
    for inp, (out, exc), (_, plain_exc) in zip(batch, traced, plain):
        if (exc is None) != (plain_exc is None):
            problems.append("an operation failed with spans on and not without, or back")
        failure, bad = outcome(validate, inp, out, exc, check_rng)
        problems += bad
        if failure:
            failures.append(failure)
    layers = spans.layer_metrics(tracer, {"trace.overhead": traced_s / untraced_s})
    if name == "roundtrip":
        want_queries = sum(a[0].queries for a in traced_args)
        if layers["recovery.recover.calls"]["value"] != len(batch):
            problems.append("traced recover calls != round trips attempted")
        if layers["recovery.oracle_query.calls"]["value"] != want_queries:
            problems.append(
                f"traced oracle queries {layers['recovery.oracle_query.calls']['value']} "
                f"!= the benchmark's own count {want_queries}"
            )
    detail = {"problems": problems, "failures": failures}
    return Result(not problems, len(batch), len(failures), layers, layers, detail)


# -- verify ----------------------------------------------------------------------


def _verify_argv(checks) -> list[str]:
    from workloads import VERIFY_ARGV

    return VERIFY_ARGV + [arg for name in checks for arg in ("--check", name)]


def _golden(checks) -> bytes:
    text = (BENCH_DIR / "golden" / "verify.json").read_bytes()
    if not checks:
        return text
    rows = [r for r in json.loads(text) if r["name"] in checks]
    return (json.dumps(rows, indent=1) + "\n").encode()


def run_verify(seconds: float, settings: Settings) -> Result:
    from workloads import run_process, validate_verify

    setup = SetupTimer("cli", settings.setup_repeats, seconds)
    golden = _golden(settings.verify_checks)
    walls, relative, rss, problems, failed = [], [], 0, [], 0
    samples_path = OUT_DIR / "verify-speed.json"
    argv = [sys.executable, str(BENCH_DIR / "sampled_verify.py"), str(samples_path)]
    argv += [arg for name in settings.verify_checks for arg in ("--check", name)]
    for _ in range(max(1, round(seconds * OPS_PER_SECOND["verify"]))):
        samples_path.unlink(missing_ok=True)
        wall, kib, code, out = run_process(argv, child_env(), ROOT)
        durations = json.loads(samples_path.read_text())
        walls.append(wall - sum(durations))
        relative.append(walls[-1] / statistics.median(durations))
        rss = max(rss, kib)
        bad = validate_verify(code, out, golden)
        failed += bool(bad)
        problems += bad
        setup.poll()
    count = len(walls)
    timing, raw = latency_metrics(walls, relative)
    metrics = {
        "setup_s": metric(setup.median(), "s"),
        **timing,
        "peak_rss_mb": metric(peak_rss_mb(rss), "MB"),
    }
    report = dict(
        metrics,
        **raw,
        wall_s=metric(statistics.median(walls), "s"),
        failed_share=metric(failed / count, "ratio"),
    )
    return Result(not problems, count, failed, metrics, report,
                  {"walls_s": walls, "relative": relative, "problems": problems})


def run_verify_traced(settings: Settings, spans_path: Path) -> Result:
    from workloads import run_process, validate_verify

    golden = _golden(settings.verify_checks)
    untraced_s, _, code, out = run_process(_verify_argv(settings.verify_checks), child_env(), ROOT)
    problems = validate_verify(code, out, golden)
    metrics_path = spans_path.with_suffix(".metrics.json")
    argv = [sys.executable, str(BENCH_DIR / "traced_verify.py"), str(time.time()),
            str(metrics_path), str(spans_path)]
    argv += [arg for name in settings.verify_checks for arg in ("--check", name)]
    traced_s, _, code, out = run_process(argv, child_env(), ROOT)
    traced_problems = validate_verify(code, out, golden)
    problems += traced_problems
    layers = json.loads(metrics_path.read_text())["metrics"]
    layers["trace.overhead"] = metric(traced_s / untraced_s, "ratio")
    import spans

    expected = settings.verify_checks or spans.VERIFY_CHECKS
    missing = [c for c in expected if not layers[f"verify.check.{c}.s"]["value"] > 0]
    if missing:
        problems.append(f"no span for verify checks {missing}")
    return Result(not problems, 1, int(bool(traced_problems)), layers, layers,
                  {"problems": problems})


# -- entry ---------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 settings: Settings | None = None) -> Result:
    settings = settings or Settings()
    use_checkout()
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{name}-seed{seed}.spans"
    if name == "verify":
        if trace:
            return run_verify_traced(settings, spans_path)
        return run_verify(seconds, settings)
    if trace:
        return run_inprocess_traced(name, seed, settings, spans_path)
    return run_inprocess(name, seed, seconds, settings)


def print_report(name: str, result: Result) -> None:
    for key, m in result.report.items():
        print(f"{name:9} {key:40} {m['value']:>14.6g} {m['unit']}")
    for problem in result.detail.get("problems", [])[:20]:
        print(f"{name:9} PROBLEM {problem}")
    failures = Counter(result.detail.get("failures") or {})
    for failure, n in failures.items():
        print(f"{name:9} FAILED  {n} x {failure}")
    for d, why in result.detail.get("shape_probe", {}).items():
        print(f"{name:9} SHAPE   d={d}: {why}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from workloads import run_process

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        _, _, code, out = run_process(argv, child_env(), ROOT)
        lines = out.decode().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise BenchError(f"workload {name} printed no result (exit {code})")
        merged["correct"] = merged["correct"] and last["correct"] and code == 0
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout()
        if args.workload == "all":
            return run_all(args)
        env = environment(args.workload, args.seed, args.seconds, args.trace)
        print("# env " + json.dumps(env), flush=True)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {"env": env, "correct": result.correct, "attempted": result.attempted,
         "failed": result.failed, "report": result.report, **result.detail}, indent=1))
    print_report(args.workload, result)
    print(result.last_line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # re-run this same process with string hashing pinned
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())

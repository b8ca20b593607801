#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write the result.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        --out BENCH_<n>.json [--claim W.METRIC]

PARENT and CHANGE are the roots of two clean checkouts, for example
``git clone`` copies of two commits. Pair i runs
``python3 perfbench/run.py --workload W --seed i --seconds S`` in each tree,
with S the ``run_seconds`` of CHANGE's ``BENCHMARK.json``, one tree after
the other: the parent first in odd pairs, the change first in even pairs.
W is a workload of ``BENCHMARK.json`` or ``all``, and ``--workload`` may be
repeated. Run nothing else on the machine meanwhile.

The output file holds the parent's commit and the change's subject (when
the trees are git checkouts), the machine, the method, every run's
end-to-end metrics, and per metric the median and quartiles of each side
(``statistics.quantiles``, n=4), the change's median over the parent's and
the number of pairs in which the change read better. A metric's summary
has ``over_bound: true`` when the change's median is worse than the parent's
by more than the metric's ``bound`` in ``BENCHMARK.json``, a share of the
parent's median (0.25: a quarter lower for a higher-is-better metric, a
quarter higher for a lower-is-better one), and ``unresolved: true`` when
the parent's own q3 - q1 exceeds ``bound`` times its median, so that the
runs spread too widely to tell, unless every change run reads better than
every parent run. ``failed`` holds each side's failed operations, summed
over its runs. The script prints one line per workload that names every
metric over its bound and every unresolved one. ``call_counts`` holds the
deterministic counts of ``scripts/call_counts.py`` for both trees (the
change's script runs on each tree's library), ``{row: {section: n}}`` with
its memo table under ``"memos"``. ``setup_cpu`` holds, per
target of ``perfbench/ready.py`` (``sweep`` and ``cli``) and per side, the
median and quartiles of the user+sys CPU seconds of 20 fresh
``python3 perfbench/ready.py TARGET`` processes per tree, read from
``os.wait4``; the runs alternate between the trees and use the benchmark's
child environment (``PYTHONHASHSEED=0``, the tree's ``src`` first on
``PYTHONPATH``). Unlike the wall time ``setup_s``, CPU time leaves out the
time a process waits for a CPU. ``--claim tables.ops_per_kref``
names the metric the change claims to improve; it is copied into ``claim``
with its summary and ``met``, which the script prints after the bound
lines: true only when the change read better in at least 9 of every 10
pairs (a tie counts for neither side) and its median beats the parent's by
more than the parent's q3 - q1. A run that exits nonzero or reports ``correct: false``
stops the script. When a workload's ``setup_s`` is over its bound, its line
also prints the ``setup_cpu`` medians of the ``ready.py`` target that
``setup_s`` times there (``sweep`` for roundtrip and tables, ``cli`` for
verify), as wall time alone is noisy. ``library_lines`` holds each tree's
library size, the line count of ``wc -l src/iqhecke/*.py``, and
``library_lines_by_module`` the count of each file for both trees; the
script prints the total after the bound lines, then each file whose count
changed, then the 20 call-count rows whose counts differ most between the
trees (summed over the sections; a row missing on one side reads 0), and
how many other rows differ.

Both trees must start without bytecode caches: the script stops, naming the
directory, when either tree has a ``__pycache__`` under ``src/`` or
``perfbench/``. Under ``PYTHONDONTWRITEBYTECODE=1`` a tree with a cache
compiles fewer modules per process than one without, which shows in
``setup_s`` and ``peak_rss_mb`` with no cause in the code.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SETUP_RUNS = 20
SETUP_TARGETS = ("sweep", "cli")
SETUP_TARGET_OF = {"roundtrip": "sweep", "tables": "sweep", "verify": "cli"}  # what setup_s times
MOVED_ROWS = 20


def bytecode_caches(tree: Path) -> list[Path]:
    """The ``__pycache__`` directories under tree's ``src/`` and ``perfbench/``."""
    return sorted(path for top in ("src", "perfbench")
                  for path in (tree / top).rglob("__pycache__") if path.is_dir())


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        last = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"{tree}: {' '.join(argv[1:])} printed no result\n{proc.stderr}")
    if proc.returncode or not last["correct"]:
        sys.exit(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}, "
                 f"correct={last['correct']}")
    # a single workload names its metrics bare, ``all`` prefixes the workload
    prefix = "" if workload == "all" else f"{workload}."
    out = {f"{prefix}{key}": m["value"] for key, m in last["metrics"].items()}
    out[f"{workload}.attempted"], out[f"{workload}.failed"] = last["attempted"], last["failed"]
    return out


def call_counts(script: Path, tree: Path) -> dict:
    """The tables that call_counts.py prints: {row: {section: count}} from
    the first, and under "memos" {memo: {column: count}} from the second."""
    proc = subprocess.run([sys.executable, str(script), str(tree)],
                          capture_output=True, text=True, check=True)
    tables = []
    for block in proc.stdout.split("\n\n"):
        header, *rows = [line.split() for line in block.splitlines() if line.strip()]
        tables.append({row[0]: dict(zip(header[1:], map(int, row[1:]))) for row in rows})
    counts, *memo_table = tables
    return {**counts, "memos": memo_table[0]} if memo_table else counts


def moved_counts(parent: dict, change: dict) -> list[str]:
    """A header naming the sections, then the MOVED_ROWS rows of two ``call_counts``
    results whose counts differ most, summed over the sections (a row that one
    side lacks reads 0 there), largest first, then how many other rows differ."""
    rows = (parent.keys() | change.keys()) - {"memos"}
    sections = list(dict.fromkeys(s for counts in (parent, change) for row in rows
                                  for s in counts.get(row, {})))
    moved = []
    for row in rows:
        before, after = ([counts.get(row, {}).get(s, 0) for s in sections]
                         for counts in (parent, change))
        if before != after:
            moved.append((-sum(abs(b - a) for b, a in zip(before, after)), row, before, after))
    moved.sort()
    return ([f"call counts that moved most ({' / '.join(sections)}):"]
            + [f"  {row}: {' / '.join(map(str, before))} -> {' / '.join(map(str, after))}"
               for _, row, before, after in moved[:MOVED_ROWS]]
            + [f"  {len(moved[MOVED_ROWS:])} other rows differ"])


def ready_cpu(tree: Path, target: str) -> float:
    """User+sys CPU seconds of one fresh ``perfbench/ready.py TARGET`` in tree."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "perfbench/ready.py", target], cwd=tree, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{tree}: perfbench/ready.py {target} exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime


def setup_cpu(parent: Path, change: Path) -> dict:
    """{target: {side: quartiles}} of SETUP_RUNS ``ready_cpu`` runs per tree,
    the parent first in odd runs and the change first in even runs."""
    trees = {"parent": parent, "change": change}
    times = {target: {side: [] for side in trees} for target in SETUP_TARGETS}
    for i in range(1, SETUP_RUNS + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for target in SETUP_TARGETS:
            for side in order:
                times[target][side].append(ready_cpu(trees[side], target))
    return {target: {side: quartiles(xs) for side, xs in sides.items()}
            for target, sides in times.items()}


def quartiles(xs: list) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of one side's runs."""
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": round(q2, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def library_lines_by_module(tree: Path) -> dict[str, int]:
    """File name -> its line count in ``wc -l src/iqhecke/*.py`` in tree:
    newlines, so a last line without one is not counted."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((tree / "src" / "iqhecke").glob("*.py"))}


def library_lines(tree: Path) -> int:
    """The total of ``wc -l src/iqhecke/*.py`` in tree."""
    return sum(library_lines_by_module(tree).values())


def lines_by_module(parent: Path, change: Path) -> dict[str, dict]:
    """File name -> {"parent": n, "change": m} over the files of either
    library, 0 for a file that one tree lacks."""
    sides = {"parent": library_lines_by_module(parent), "change": library_lines_by_module(change)}
    names = sorted(sides["parent"].keys() | sides["change"].keys())
    return {name: {side: counts.get(name, 0) for side, counts in sides.items()} for name in names}


def git(tree: Path, *args: str) -> str | None:
    if not (tree / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "vcpus": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
    }


def summarise(pairs: list, metrics: dict) -> dict:
    """Median, quartiles, change/parent, pairs won and whether the change is
    over the bound, for each metric that every run reported; metrics maps a
    bare metric name to its ``BENCHMARK.json`` entry."""
    summary = {}
    for key in pairs[0]["parent"]:
        spec = metrics.get(key.rsplit(".", 1)[-1])
        if spec is None:
            continue
        better = spec["better"]
        side = {s: [p[s][key] for p in pairs] for s in ("parent", "change")}
        stats = {s: quartiles(xs) for s, xs in side.items()}
        won = sum((c < p) if better == "lower" else (c > p)
                  for p, c in zip(side["parent"], side["change"]))
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        worse_by = change - parent if better == "lower" else parent - change
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        if better == "lower":
            separated = max(side["change"]) < min(side["parent"])
        else:
            separated = min(side["change"]) > max(side["parent"])
        summary[key] = {
            "better": better,
            **stats,
            "change_over_parent": round(change / parent, 5) if parent else None,
            "change_better_in": f"{won}/{len(pairs)}",
            "bound": spec["bound"],
            "over_bound": worse_by > spec["bound"] * parent,
            "unresolved": spread > spec["bound"] * parent and not separated,
        }
    return summary


def claim(summary: dict, key: str) -> dict:
    """The claimed metric's summary with ``met``: true when the change read
    better in at least 9 of every 10 pairs and its median beats the parent's
    by more than the parent's q3 - q1."""
    row = summary[key]
    won, pairs = map(int, row["change_better_in"].split("/"))
    parent, change = row["parent"], row["change"]["median"]
    gain = parent["median"] - change if row["better"] == "lower" else change - parent["median"]
    return {"metric": key, **row,
            "met": 10 * won >= 9 * pairs and gain > parent["q3"] - parent["q1"]}


def claim_line(entry: dict) -> str:
    """The verdict on a ``claim`` entry, with the figures it rests on."""
    parent = entry["parent"]
    spread = round(parent["q3"] - parent["q1"], 6)
    return (f"claim {entry['metric']}: {'met' if entry['met'] else 'not met'} (better in "
            f"{entry['change_better_in']} pairs; median {parent['median']} -> "
            f"{entry['change']['median']}, parent q3 - q1 {spread})")


def failed_totals(pairs: list) -> dict:
    """Each side's failed operations per ``<workload>.failed`` key, summed over its runs."""
    keys = [key for key in pairs[0]["parent"] if key.endswith(".failed")]
    return {side: {key: sum(p[side][key] for p in pairs) for key in keys}
            for side in ("parent", "change")}


def bound_lines(summary: dict, cpu: dict | None = None) -> list[str]:
    """One line per workload naming every metric over its bound, then every
    unresolved one; a ``setup_s`` over its bound also names the ``setup_cpu``
    medians (cpu, as in the output file), parent -> change, of the ready.py
    target that it times."""
    workloads: dict[str, list[str]] = {}
    unresolved: dict[str, list[str]] = {}
    for key, row in summary.items():
        workload, name = key.rsplit(".", 1)
        over = workloads.setdefault(workload, [])
        if row["unresolved"]:
            parent = row["parent"]
            spread = round((parent["q3"] - parent["q1"]) / parent["median"], 3)
            unresolved.setdefault(workload, []).append(
                f"{name} (parent q3 - q1 {spread}x its median, bound {row['bound']})")
        if row["over_bound"]:
            text = f"{name} ({row['change_over_parent']}x the parent, bound {row['bound']}"
            target = SETUP_TARGET_OF.get(workload)
            if name == "setup_s" and cpu and target in cpu:
                medians = [cpu[target][side]["median"] for side in ("parent", "change")]
                text += f"; setup_cpu {target} {medians[0]} -> {medians[1]} s"
            over.append(text + ")")
    return [(f"{w}: over its bound: {', '.join(over)}" if over
             else f"{w}: no metric over its bound")
            + (f"; unresolved: {', '.join(unresolved[w])}" if w in unresolved else "")
            for w, over in workloads.items()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD.METRIC that the change claims to improve")
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    for tree in (parent, change):
        if caches := bytecode_caches(tree):
            sys.exit(f"{caches[0]}: a bytecode cache; start both trees without one")
    spec = json.loads((change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    pairs = []
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        row = {"pair": i, "seed": i, "first": order[0], "parent": {}, "change": {}}
        for side in order:
            for workload in args.workload:
                row[side].update(run(parent if side == "parent" else change,
                                     workload, i, seconds))
        pairs.append(row)
        print(f"pair {i}/{args.pairs} done", file=sys.stderr, flush=True)

    summary = summarise(pairs, metrics)
    script = change / "scripts" / "call_counts.py"
    result = {
        "change": git(change, "log", "-1", "--format=%s"),
        "parent_commit": git(parent, "rev-parse", "HEAD"),
        "date": datetime.date.today().isoformat(),
        "machine": machine(),
        "method": (
            f"{args.pairs} pairs; pair i runs `python3 perfbench/run.py --workload "
            f"{'/'.join(args.workload)} --seed i --seconds {seconds:g}` on a clean copy of "
            "the parent and of the change, one after the other, parent first in odd pairs "
            "and change first in even pairs (scripts/bench_pairs.py). Medians and quartiles "
            "over the runs of each side (statistics.quantiles, n=4). 'change_better_in' "
            "counts the pairs in which the change read better than the parent on that seed."
        ),
        "claim": args.claim and claim(summary, args.claim),
        "summary": summary,
        "failed": failed_totals(pairs),
        "setup_cpu": {
            "command": f"python3 perfbench/ready.py TARGET, {SETUP_RUNS} fresh processes per "
                       "tree and target, alternating trees; user+sys CPU seconds from os.wait4",
            **setup_cpu(parent, change),
        },
        "library_lines": {"parent": library_lines(parent), "change": library_lines(change)},
        "library_lines_by_module": lines_by_module(parent, change),
        "pairs": pairs,
        "call_counts": {
            "command": "python3 scripts/call_counts.py TREE (cProfile; PYTHONHASHSEED=0)",
            "parent": call_counts(script, parent),
            "change": call_counts(script, change),
        },
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for line in bound_lines(summary, result["setup_cpu"]):
        print(line)
    if result["claim"]:
        print(claim_line(result["claim"]))
    lines = result["library_lines"]
    print(f"library: {lines['parent']} -> {lines['change']} lines (wc -l src/iqhecke/*.py)")
    for name, counts in result["library_lines_by_module"].items():
        if counts["parent"] != counts["change"]:
            print(f"  {name}: {counts['parent']} -> {counts['change']}")
    for line in moved_counts(result["call_counts"]["parent"], result["call_counts"]["change"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The acceptance arithmetic of scripts/bench_pairs.py, loaded by path."""

import importlib.util
import re
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {
    "p50_ref": {"name": "p50_ref", "better": "lower", "bound": 0.25},
    "ops_per_kref": {"name": "ops_per_kref", "better": "higher", "bound": 0.25},
}


def _pairs(key: str, parent: list, change: list) -> list:
    return [
        {"parent": {key: p, "roundtrip.failed": 0}, "change": {key: c, "roundtrip.failed": 0}}
        for p, c in zip(parent, change)
    ]


@pytest.mark.parametrize(
    "name, parent, at, past",
    [
        ("p50_ref", 100, 125, 125.5),  # lower is better: a quarter higher is the bound
        ("ops_per_kref", 80, 60, 59.5),  # higher is better: a quarter lower is the bound
    ],
)
def test_over_bound_only_past_the_bound(name, parent, at, past):
    key = f"roundtrip.{name}"
    for change, over in ((at, False), (past, True)):
        summary = bench_pairs.summarise(_pairs(key, [parent] * 3, [change] * 3), METRICS)
        assert list(summary) == [key]  # counts without a metric spec are left out
        row = summary[key]
        assert row["over_bound"] is over
        assert row["parent"] == {"median": parent, "q1": parent, "q3": parent}
        assert row["change"]["median"] == change
        assert row["change_over_parent"] == round(change / parent, 5)
        assert row["change_better_in"] == "0/3"
        assert row["bound"] == 0.25 and row["better"] == METRICS[name]["better"]


@pytest.mark.parametrize("name", ["p50_ref", "ops_per_kref"])
def test_ties_count_for_neither_side(name):
    key = f"roundtrip.{name}"
    # pairs 2 and 4 tie; of pairs 1 and 3, each side reads better in one
    a, b = [2.0, 3.0, 4.0, 5.0], [1.0, 3.0, 5.0, 5.0]
    for parent, change in ((a, b), (b, a)):
        row = bench_pairs.summarise(_pairs(key, parent, change), METRICS)[key]
        assert row["change_better_in"] == "1/4"


def test_bound_lines_wording():
    summary = {
        "roundtrip.p50_ref": {"over_bound": True, "change_over_parent": 1.3, "bound": 0.25},
        "roundtrip.ops_per_kref": {"over_bound": True, "change_over_parent": 0.7, "bound": 0.25},
        "roundtrip.peak_rss_mb": {"over_bound": False, "change_over_parent": 1.05, "bound": 0.1},
        "tables.p50_ref": {"over_bound": False, "change_over_parent": 1.2, "bound": 0.25},
    }
    assert bench_pairs.bound_lines(summary) == [
        "roundtrip: over its bound: p50_ref (1.3x the parent, bound 0.25), "
        "ops_per_kref (0.7x the parent, bound 0.25)",
        "tables: no metric over its bound",
    ]
    # setup_s over its bound names the CPU medians of the ready.py target it times
    cpu = {"sweep": {"parent": {"median": 0.09}, "change": {"median": 0.088}},
           "cli": {"parent": {"median": 0.128}, "change": {"median": 0.129}}}
    setup = {
        "tables.setup_s": {"over_bound": True, "change_over_parent": 1.26, "bound": 0.25},
        "verify.setup_s": {"over_bound": True, "change_over_parent": 1.3, "bound": 0.25},
        "roundtrip.setup_s": {"over_bound": False, "change_over_parent": 0.9, "bound": 0.25},
    }
    assert bench_pairs.bound_lines(setup, cpu) == [
        "tables: over its bound: setup_s (1.26x the parent, bound 0.25; "
        "setup_cpu sweep 0.09 -> 0.088 s)",
        "verify: over its bound: setup_s (1.3x the parent, bound 0.25; "
        "setup_cpu cli 0.128 -> 0.129 s)",
        "roundtrip: no metric over its bound",
    ]
    assert bench_pairs.bound_lines(setup)[0] == (
        "tables: over its bound: setup_s (1.26x the parent, bound 0.25)")


def test_failed_totals_sum_each_side():
    pairs = [
        {
            "parent": {"roundtrip.attempted": 50, "roundtrip.failed": 1, "tables.failed": 0},
            "change": {"roundtrip.attempted": 60, "roundtrip.failed": 0, "tables.failed": 2},
        },
        {
            "parent": {"roundtrip.attempted": 40, "roundtrip.failed": 3, "tables.failed": 1},
            "change": {"roundtrip.attempted": 70, "roundtrip.failed": 0, "tables.failed": 5},
        },
    ]
    assert bench_pairs.failed_totals(pairs) == {
        "parent": {"roundtrip.failed": 4, "tables.failed": 1},
        "change": {"roundtrip.failed": 0, "tables.failed": 7},
    }


def test_setup_cpu_alternates_the_trees(monkeypatch):
    calls = []

    def fake(tree, target):
        calls.append((tree, target))
        return len(calls) / 100 if tree == "change" else 1.0

    monkeypatch.setattr(bench_pairs, "ready_cpu", fake)
    cpu = bench_pairs.setup_cpu("parent", "change")
    runs = bench_pairs.SETUP_RUNS
    assert len(calls) == 2 * runs * len(bench_pairs.SETUP_TARGETS)
    # run i takes sweep then cli, each on both trees, the parent first in odd runs
    assert calls[:8] == [("parent", "sweep"), ("change", "sweep"), ("parent", "cli"),
                         ("change", "cli"), ("change", "sweep"), ("parent", "sweep"),
                         ("change", "cli"), ("parent", "cli")]
    assert set(cpu) == {"sweep", "cli"}
    for target, sides in cpu.items():
        assert sides["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
        mine = [n / 100 for n, call in enumerate(calls, 1) if call == ("change", target)]
        assert len(mine) == runs
        assert sides["change"] == bench_pairs.quartiles(mine)
        assert sides["change"]["q1"] < sides["change"]["median"] < sides["change"]["q3"]


def test_ready_cpu_reads_a_fresh_process():
    # the one real child: ready.py cli imports the library and loads the bundle
    assert bench_pairs.ready_cpu(SCRIPT.parents[1], "cli") > 0


def test_library_lines_counts_as_wc_does(tmp_path):
    lib = tmp_path / "src" / "iqhecke"
    lib.mkdir(parents=True)
    (lib / "a.py").write_text("x = 1\ny = 2\n")
    (lib / "b.py").write_text("z = 3")  # no last newline: wc -l counts 0 lines
    (lib / "data.json").write_text("{}\n\n")  # not a .py file
    assert bench_pairs.library_lines(tmp_path) == 2
    # on this repository, the figure that wc -l prints on its total line
    repo = SCRIPT.parents[1]
    files = sorted(str(path) for path in (repo / "src" / "iqhecke").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    assert bench_pairs.library_lines(repo) == int(wc.stdout.splitlines()[-1].split()[0])


def test_a_tree_with_a_bytecode_cache_stops_the_script(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "src" / "iqhecke").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "scripts" / "__pycache__").mkdir(parents=True)  # outside src/ and perfbench/
    assert bench_pairs.bytecode_caches(parent) == []
    for tree, where in ((change, "perfbench"), (parent, "src/iqhecke")):
        cache = tree / where / "__pycache__"
        cache.mkdir()
        assert bench_pairs.bytecode_caches(tree) == [cache]
        monkeypatch.setattr("sys.argv", ["bench_pairs.py", str(parent), str(change),
                                         "--workload", "tables", "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit, match=re.escape(f"{cache}: a bytecode cache")):
            bench_pairs.main()
        assert not (tmp_path / "o").exists()

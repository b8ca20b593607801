"""The acceptance arithmetic of scripts/bench_pairs.py, and its reading of
scripts/call_counts.py's tables; both scripts are loaded by path."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load(SCRIPT)
call_counts = _load(SCRIPT.with_name("call_counts.py"))

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
        assert row["unresolved"] is False  # the parent's runs do not spread at all


@pytest.mark.parametrize("name", ["p50_ref", "ops_per_kref"])
def test_ties_count_for_neither_side(name):
    key = f"roundtrip.{name}"
    # pairs 2 and 4 tie; of pairs 1 and 3, each side reads better in one
    a, b = [2.0, 3.0, 4.0, 5.0], [1.0, 3.0, 5.0, 5.0]
    for parent, change in ((a, b), (b, a)):
        row = bench_pairs.summarise(_pairs(key, parent, change), METRICS)[key]
        assert row["change_better_in"] == "1/4"


@pytest.mark.parametrize(
    "name, parent, change, unresolved",
    [
        # the parent's q3 - q1 is 50, over 0.25 x its median 110
        ("p50_ref", [80, 100, 120, 140], [100, 105, 110, 115], True),
        ("p50_ref", [80, 100, 120, 140], [79, 70, 75, 78], False),  # every change run is better
        ("p50_ref", [80, 100, 120, 140], [79, 70, 80, 78], True),  # one tie with a parent run
        ("p50_ref", [100, 101, 102, 103], [200, 300, 400, 500], False),  # the parent is tight
        ("ops_per_kref", [80, 100, 120, 140], [130, 150, 160, 170], True),
        ("ops_per_kref", [80, 100, 120, 140], [150, 160, 170, 141], False),
    ],
)
def test_unresolved_when_the_parent_spreads_past_the_bound(name, parent, change, unresolved):
    key = f"tables.{name}"
    row = bench_pairs.summarise(_pairs(key, parent, change), METRICS)[key]
    assert row["unresolved"] is unresolved


@pytest.mark.parametrize(
    "name, sign, worse_pairs, ties, shift, met",
    [
        ("p50_ref", -1, 0, 0, 10, True),
        ("p50_ref", -1, 1, 0, 10, True),  # better in 9 of 10 pairs
        ("p50_ref", -1, 2, 0, 10, False),  # better in 8 of 10
        ("p50_ref", -1, 0, 1, 10, True),
        ("p50_ref", -1, 0, 2, 10, False),  # a tie counts for neither side
        ("p50_ref", -1, 0, 0, 5, False),  # better in every pair, by less than q3 - q1 = 5.5
        ("ops_per_kref", 1, 0, 0, 10, True),
        ("ops_per_kref", 1, 2, 0, 10, False),
        ("ops_per_kref", 1, 0, 0, 5, False),
    ],
)
def test_claim_is_met_in_nine_of_ten_pairs_by_more_than_the_parent_spread(
        name, sign, worse_pairs, ties, shift, met):
    key = f"roundtrip.{name}"
    parent = [100 + i for i in range(10)]  # median 104.5, q1 101.75, q3 107.25
    change = [p + sign * shift for p in parent]
    for i in range(worse_pairs):
        change[i] = parent[i] - sign
    for i in range(worse_pairs, worse_pairs + ties):
        change[i] = parent[i]
    entry = bench_pairs.claim(bench_pairs.summarise(_pairs(key, parent, change), METRICS), key)
    assert entry["metric"] == key and entry["met"] is met
    assert entry["change_better_in"] == f"{10 - worse_pairs - ties}/10"
    verdict = "met" if met else "not met"
    assert bench_pairs.claim_line(entry) == (
        f"claim {key}: {verdict} (better in {entry['change_better_in']} pairs; median 104.5 -> "
        f"{entry['change']['median']}, parent q3 - q1 5.5)")


def test_bound_lines_wording():
    summary = {
        "roundtrip.p50_ref": {"over_bound": True, "change_over_parent": 1.3, "bound": 0.25},
        "roundtrip.ops_per_kref": {"over_bound": True, "change_over_parent": 0.7, "bound": 0.25},
        "roundtrip.peak_rss_mb": {"over_bound": False, "change_over_parent": 1.05, "bound": 0.1},
        "tables.p50_ref": {"over_bound": False, "change_over_parent": 1.2, "bound": 0.25},
    }
    summary = {key: {**row, "unresolved": False} for key, row in summary.items()}
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
    setup = {key: {**row, "unresolved": False} for key, row in setup.items()}
    assert bench_pairs.bound_lines(setup, cpu) == [
        "tables: over its bound: setup_s (1.26x the parent, bound 0.25; "
        "setup_cpu sweep 0.09 -> 0.088 s)",
        "verify: over its bound: setup_s (1.3x the parent, bound 0.25; "
        "setup_cpu cli 0.128 -> 0.129 s)",
        "roundtrip: no metric over its bound",
    ]
    assert bench_pairs.bound_lines(setup)[0] == (
        "tables: over its bound: setup_s (1.26x the parent, bound 0.25)")
    # an unresolved row is named after the metrics over their bound
    spread = {"parent": {"median": 100, "q1": 80, "q3": 120}}
    summary["roundtrip.setup_s"] = {"over_bound": False, "unresolved": True, "bound": 0.25,
                                    **spread}
    summary["tables.p90_ref"] = {"over_bound": False, "unresolved": True, "bound": 0.25,
                                 **spread}
    assert bench_pairs.bound_lines(summary) == [
        "roundtrip: over its bound: p50_ref (1.3x the parent, bound 0.25), "
        "ops_per_kref (0.7x the parent, bound 0.25); "
        "unresolved: setup_s (parent q3 - q1 0.4x its median, bound 0.25)",
        "tables: no metric over its bound; "
        "unresolved: p90_ref (parent q3 - q1 0.4x its median, bound 0.25)",
    ]


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
    assert bench_pairs.library_lines_by_module(tmp_path) == {"a.py": 2, "b.py": 0}
    # a file that one tree lacks counts 0 lines there
    other = tmp_path / "other"
    (other / "src" / "iqhecke").mkdir(parents=True)
    (other / "src" / "iqhecke" / "a.py").write_text("x = 1\n")
    (other / "src" / "iqhecke" / "c.py").write_text("\n\n\n")
    assert bench_pairs.lines_by_module(tmp_path, other) == {
        "a.py": {"parent": 2, "change": 1}, "b.py": {"parent": 0, "change": 0},
        "c.py": {"parent": 0, "change": 3}}
    # on this repository, the figures that wc -l prints per file and on its total line
    repo = SCRIPT.parents[1]
    files = sorted(str(path) for path in (repo / "src" / "iqhecke").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    *rows, total = [line.split() for line in wc.stdout.splitlines()]
    assert bench_pairs.library_lines(repo) == int(total[0])
    assert bench_pairs.library_lines_by_module(repo) == {
        Path(name).name: int(count) for count, name in rows}


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


def test_call_counts_reads_both_tables_that_the_script_prints(monkeypatch, capsys):
    counts = {
        "ops": {"roundtrip": 120, "tables": 16, "run_checks": 1},
        "calls": {"roundtrip": 215927, "tables": 126845, "run_checks": 331976},
        "algext.AlgValue.__mul__": {"roundtrip": 9658, "tables": 7031, "run_checks": 8421},
        "eigensystem._span_dimension.<locals>.reduce_row":
            {"roundtrip": 0, "tables": 62, "run_checks": 34},
    }
    memos = {"iqhecke.quadfield.factor_ideal": {"roundtrip.hits": 4811, "roundtrip.misses": 705,
                                                "tables.hits": 6372, "tables.misses": 2214}}
    call_counts.table("count", counts)
    print()
    call_counts.table("memo", memos)
    text = capsys.readouterr().out
    assert text.splitlines()[0].split() == ["count", "roundtrip", "tables", "run_checks"]
    runs = []

    def fake(argv, **kwargs):
        runs.append(argv)
        return subprocess.CompletedProcess(argv, 0, stdout=text, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake)
    assert bench_pairs.call_counts(Path("call_counts.py"), Path("tree")) == {
        **counts, "memos": memos}
    assert runs == [[sys.executable, "call_counts.py", "tree"]]


def test_moved_counts_lists_the_largest_changes_first(monkeypatch):
    parent = {
        "calls": {"roundtrip": 100, "tables": 50},
        "a.f": {"roundtrip": 5, "tables": 0},
        "a.g": {"roundtrip": 4, "tables": 4},
        "a.gone": {"roundtrip": 7, "tables": 1},
        "a.same": {"roundtrip": 9, "tables": 9},
        "memos": {"m": {"roundtrip.hits": 1, "roundtrip.misses": 0}},
    }
    change = {
        "calls": {"roundtrip": 90, "tables": 52},
        "a.f": {"roundtrip": 5, "tables": 3},
        "a.g": {"roundtrip": 1, "tables": 4},
        "a.new": {"roundtrip": 2, "tables": 20},
        "a.same": {"roundtrip": 9, "tables": 9},
        "memos": {"m": {"roundtrip.hits": 90, "roundtrip.misses": 9}},
    }
    # a row that one side lacks reads 0 there; ties go by name; memos are not rows
    assert bench_pairs.moved_counts(parent, change) == [
        "call counts that moved most (roundtrip / tables):",
        "  a.new: 0 / 0 -> 2 / 20",
        "  calls: 100 / 50 -> 90 / 52",
        "  a.gone: 7 / 1 -> 0 / 0",
        "  a.f: 5 / 0 -> 5 / 3",
        "  a.g: 4 / 4 -> 1 / 4",
        "  0 other rows differ",
    ]
    monkeypatch.setattr(bench_pairs, "MOVED_ROWS", 2)
    assert bench_pairs.moved_counts(parent, change)[1:] == [
        "  a.new: 0 / 0 -> 2 / 20",
        "  calls: 100 / 50 -> 90 / 52",
        "  3 other rows differ",
    ]
    assert bench_pairs.moved_counts(parent, parent)[1:] == ["  0 other rows differ"]

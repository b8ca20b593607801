#!/usr/bin/env python3
"""Print deterministic call counts of a tree's library on fixed inputs.

    python3 scripts/call_counts.py TREE

TREE is the root of a checkout. Its library (``TREE/src``) runs on inputs
from its own benchmark generator (``TREE/perfbench``), which this script only
imports. Three sections run in this order, in one process, each under
cProfile:

- ``roundtrip``: 120 ``RoundTripSource`` operations from the ``timed:7``
  stream, each ``workloads.roundtrip_op``.
- ``tables``: 16 ``TableSource`` operations from the ``timed:1`` stream,
  each ``workloads.tables_op``.
- ``run_checks``: the in-process ``verify.run_checks`` on the default bundle.

Each section's inputs are drawn, or the bundle loaded, just before that
section and outside the profiler and the memo counts, so no section reads
memos that the inputs of a later section warmed; memoised values carry over
from one section to the next. The first table has one
column per section and one row per count. Six rows come first: ``ops``,
``failed`` (the operations that raised), ``calls`` (every call the profiler
saw), ``Fraction.__new__`` (every ``Fraction`` built, in the library or the
standard library), ``generated`` (the methods that ``dataclasses`` and
``namedtuple`` write: code objects whose file is ``<string>``) and
``kernel`` (``algext``'s compiled products, lifts and automorphisms: file
``<iqhecke kernel>``). Then comes one row per function or method of the
``iqhecke`` package that ran in any section, named ``module.qualname``
(``algext.AlgValue.__mul__``,
``eigensystem._span_dimension.<locals>.reduce_row``; plain ``co_name``
before Python 3.11) and sorted by name. Comprehensions, generator
expressions and lambdas (code names that start with ``<``) count only in
``calls``. A second table gives, for every ``lru_cache``d function of the
package and every ``lru_cache``d method of its classes (each found by its
``cache_info``), the hits and misses of its memo in each section. The
script exits 1 when any operation raised. With string hashing pinned the
counts repeat exactly from run to run, so two trees can be compared without
timing noise. Calls are summed over the profiler's raw entries, one per code
object. ``pstats`` merges entries by (file, line, name) and so keeps only one
of the generated methods, which all share one such label; which one it keeps
depends on memory addresses.
"""

import cProfile
import os
import random
import sys
import warnings
from functools import partial
from pathlib import Path

ROUNDTRIP_OPS, ROUNDTRIP_SEED = 120, 7
TABLE_OPS, TABLE_SEED = 16, 1
FIXED = ("ops", "failed", "calls", "Fraction.__new__", "generated", "kernel")
FILE_ROWS = {"<string>": "generated", "<iqhecke kernel>": "kernel"}


def profiled(ops, library: Path) -> dict:
    """The fixed counts of running ops under cProfile, then the calls of each
    function of the package in library by ``module.qualname``."""
    failed = 0
    prof = cProfile.Profile()
    for op in ops:
        prof.enable()
        try:
            op()
        except Exception:
            failed += 1
        finally:
            prof.disable()
    entries = prof.getstats()  # one per code object; builtins have a str code
    row = dict.fromkeys(FIXED, 0)
    row.update(ops=len(ops), failed=failed, calls=sum(e.callcount for e in entries))
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            continue
        path = Path(code.co_filename)
        if code.co_filename in FILE_ROWS:
            name = FILE_ROWS[code.co_filename]
        elif path.name == "fractions.py" and code.co_name == "__new__":
            name = "Fraction.__new__"
        elif path.parent == library and not code.co_name.startswith("<"):
            name = f"{path.stem}.{getattr(code, 'co_qualname', code.co_name)}"
        else:
            continue
        row[name] = row.get(name, 0) + entry.callcount
    return row


def memos() -> dict:
    """Every lru_cache'd function of the loaded iqhecke modules, and every
    lru_cache'd method of their classes, by dotted name."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("iqhecke."):
            continue
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != name:
                continue
            if hasattr(obj, "cache_info"):
                found[f"{name}.{attr}"] = obj
            elif isinstance(obj, type):
                found.update((f"{name}.{attr}.{meth}", fn) for meth, fn in vars(obj).items()
                             if hasattr(fn, "cache_info"))
    return found


def table(corner: str, rows: dict) -> None:
    """Print rows, {row: {column: n}}, under a header of corner and the columns."""
    width = max(map(len, [corner, *rows])) + 2
    columns = next(iter(rows.values()), {})
    print(f"{corner:<{width}}" + "".join(f"{c:>20}" for c in columns))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{n:>20}" for n in row.values()))


def main(tree: Path) -> int:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import inputs
    import iqhecke
    import workloads
    from iqhecke import verify
    from iqhecke.bundle import FixtureBundle

    warnings.simplefilter("ignore")

    def draw(op, source, seed: int, n: int) -> list:
        """n operations op(input), on inputs from source seeded with seed."""
        source = source(inputs.sweep_groups(), random.Random(f"timed:{seed}"))
        return [lambda inp=inp: op(inp) for inp in [source.next() for _ in range(n)]]

    def checks() -> list:
        bundle = FixtureBundle()
        return [lambda: verify.run_checks(bundle)]

    sections = {  # name -> a function that draws the section's operations
        "roundtrip": partial(draw, workloads.roundtrip_op, inputs.RoundTripSource,
                             ROUNDTRIP_SEED, ROUNDTRIP_OPS),
        "tables": partial(draw, workloads.tables_op, inputs.TableSource, TABLE_SEED, TABLE_OPS),
        "run_checks": checks,
    }
    library = Path(iqhecke.__file__).parent
    counts = {}
    cached = memos()
    used = {memo: {} for memo in cached}
    for name, draw_ops in sections.items():
        ops = draw_ops()
        before = {memo: fn.cache_info() for memo, fn in cached.items()}
        counts[name] = profiled(ops, library)
        for memo, fn in cached.items():
            info = fn.cache_info()
            used[memo][f"{name}.hits"] = info.hits - before[memo].hits
            used[memo][f"{name}.misses"] = info.misses - before[memo].misses
    functions = sorted({row for section in counts.values() for row in section} - set(FIXED))
    table("count", {row: {name: section.get(row, 0) for name, section in counts.items()}
                    for row in FIXED + tuple(functions)})
    print()
    table("memo", used)
    return 1 if any(section["failed"] for section in counts.values()) else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    # set and dict order over string keys must repeat between runs
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main(Path(sys.argv[1]).resolve()))

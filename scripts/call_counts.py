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

Inputs are drawn and the bundle is loaded before profiling starts; memoised
values carry over from one section to the next. For each section the script
prints the number of operations that raised, the total number of calls and
the calls of ``AlgValue.__mul__``, ``AlgValue.__neg__`` (the negations
that twists and the recursions make), ``AlgValue.inv``,
``AlgValue.scale`` (values times a rational, such as the N(p) chi(p) of
the prime-power recursion, with no kernel product), ``ideal_mul``,
``factor_ideal`` (the misses of its memo), ``coprime``, ``contains_ideal``
(the HNF containment tests of ``coprime`` and ``factor_ideal``),
``_hnf_from_rows`` (every HNF built from generators, products and sums
included), ``is_rational_prime``, ``reduce_row`` (the rows that the
Hecke-field walks of ``eigensystem._span_dimension`` reduce), ``twist``,
``systems_equal`` (the exact comparisons of two systems' stored
eigenvalues), ``lift`` (every value re-expressed in another tower),
``apply`` (every value moved by a field automorphism: the work of the
inner-twist searches), ``Fraction.__new__`` (every ``Fraction`` built, in
the library or the standard library, so rationals taken as ints without one
show), ``_prime_powers`` (the reads of an eigensystem's prime-power memo
that ``coefficient`` and the Hecke-field walk make, and that a first power
read from the stored eigenvalues skips), ``chi_value`` (the reads of a
system's character at an ideal: the oracle's chi(aa), the recursions'
chi(p); each repeat is one read of the system's memo), ``eval_on_class``
(every value of a character at a class: the tables of ``character_values``
and the kernels of ``character_kernel``, each built once), as ``compiled``
the calls of ``algext._compile_kernel`` (the fixed integer maps compiled
into kernels, each once: tower products, lift maps and automorphisms), as
``generated``
the calls of every method that ``dataclasses`` or ``namedtuple`` wrote at
class creation (``__init__``,
``__eq__``, ``__hash__``, ...: the code objects whose file is
``<string>``), the per-object overhead of building, comparing and hashing,
and as ``kernel`` the calls of ``algext``'s compiled products, lifts and
automorphisms (file ``<iqhecke kernel>``). A second table
gives, for every ``lru_cache``d function of the ``iqhecke`` package and
every ``lru_cache``d method of its classes (``ClassGroup.ideal_class``,
``mul``, ``inv`` and ``power``, ``Ideal.conjugate``; each found by its
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
from pathlib import Path

ROUNDTRIP_OPS, ROUNDTRIP_SEED = 120, 7
TABLE_OPS, TABLE_SEED = 16, 1
COUNTED = (("algext.py", "__mul__", "AlgValue.__mul__"),
           ("algext.py", "__neg__", "AlgValue.__neg__"),
           ("algext.py", "inv", "AlgValue.inv"),
           ("algext.py", "scale", "AlgValue.scale"),
           ("quadfield.py", "ideal_mul", "ideal_mul"),
           ("quadfield.py", "factor_ideal", "factor_ideal"),
           ("quadfield.py", "coprime", "coprime"),
           ("quadfield.py", "contains_ideal", "contains_ideal"),
           ("quadfield.py", "_hnf_from_rows", "_hnf_from_rows"),
           ("quadfield.py", "is_rational_prime", "is_rational_prime"),
           ("eigensystem.py", "reduce_row", "reduce_row"),
           ("eigensystem.py", "twist", "twist"),
           ("eigensystem.py", "systems_equal", "systems_equal"),
           ("algext.py", "lift", "lift"),
           ("algext.py", "apply", "apply"),
           ("fractions.py", "__new__", "Fraction.__new__"),
           ("eigensystem.py", "_prime_powers", "_prime_powers"),
           ("eigensystem.py", "chi_value", "chi_value"),
           ("characters.py", "eval_on_class", "eval_on_class"),
           ("algext.py", "_compile_kernel", "compiled"))


def profiled(ops) -> dict:
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
    row = {"ops": len(ops), "failed": failed, "calls": sum(e.callcount for e in entries)}
    codes = [e for e in entries if not isinstance(e.code, str)]
    for filename, func, name in COUNTED:
        row[name] = sum(e.callcount for e in codes
                        if e.code.co_name == func and Path(e.code.co_filename).name == filename)
    for name, filename in (("generated", "<string>"), ("kernel", "<iqhecke kernel>")):
        row[name] = sum(e.callcount for e in codes if e.code.co_filename == filename)
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


def main(tree: Path) -> int:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import inputs
    import workloads
    from iqhecke import verify
    from iqhecke.bundle import FixtureBundle

    warnings.simplefilter("ignore")
    groups = inputs.sweep_groups()
    source = inputs.RoundTripSource(groups, random.Random(f"timed:{ROUNDTRIP_SEED}"))
    trips = [source.next() for _ in range(ROUNDTRIP_OPS)]
    source = inputs.TableSource(groups, random.Random(f"timed:{TABLE_SEED}"))
    tables = [source.next() for _ in range(TABLE_OPS)]
    bundle = FixtureBundle()
    sections = {
        "roundtrip": [lambda inp=inp: workloads.roundtrip_op(inp) for inp in trips],
        "tables": [lambda inp=inp: workloads.tables_op(inp) for inp in tables],
        "run_checks": [lambda: verify.run_checks(bundle)],
    }
    columns = ["ops", "failed", "calls"] + [name for _, _, name in COUNTED] + ["generated", "kernel"]
    print(f"{'section':<12}" + "".join(f"{c:>18}" for c in columns))
    failed = 0
    cached = memos()
    before = {memo: fn.cache_info() for memo, fn in cached.items()}
    used = {memo: {} for memo in cached}
    for name, ops in sections.items():
        row = profiled(ops)
        print(f"{name:<12}" + "".join(f"{row[c]:>18}" for c in columns), flush=True)
        failed += row["failed"]
        for memo, fn in cached.items():
            info = fn.cache_info()
            used[memo][f"{name}.hits"] = info.hits - before[memo].hits
            used[memo][f"{name}.misses"] = info.misses - before[memo].misses
            before[memo] = info
    width = max(map(len, cached), default=4) + 2
    print(f"\n{'memo':<{width}}" + "".join(f"{c:>20}" for c in next(iter(used.values()), {})))
    for memo, row in used.items():
        print(f"{memo:<{width}}" + "".join(f"{n:>20}" for n in row.values()))
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    # set and dict order over string keys must repeat between runs
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main(Path(sys.argv[1]).resolve()))

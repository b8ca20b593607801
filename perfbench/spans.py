"""Spans around calls into iqhecke's public functions, installed from outside.

The library is not edited. ``install_library_spans`` replaces each public
function it times with a wrapper in every ``iqhecke`` module that holds it by
name (a ``from .quadfield import ideal_mul`` binding in ``recovery`` would
otherwise bypass a patch of ``quadfield`` alone), patches methods on their
class, keeps ``ideals_of_norm``'s ``lru_cache`` working, and ``restore`` puts
every original back.

Spans are kept in memory as flat arrays (name, start, end, parent span,
operation id) and turned into per-layer totals when the run ends. A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

VERIFY_CHECKS = (
    "class-groups",
    "genus-character-law",
    "recovery-2.1",
    "round-trip",
    "mult-relations",
    "dimension-table",
    "structure-detectors",
    "hecke-fields",
    "compare-ap-7.2",
    "oldform-multiplicities",
)

RECOVERY_FAILURES = ("AlgebraError", "EigensystemError", "RecoveryError", "other")

# The end-to-end metric each layer should move, and where (verify's p50_ms is
# its wall time per process):
#   quadfield    p50_ms on roundtrip (heavy reuse) and tables (large working
#                set); peak_rss_mb on tables once a memo is added
#   classgroup   p50_ms on roundtrip and tables (through chi_value); setup_s
#   characters   p50_ms on roundtrip and tables
#   algext       mul: ops_per_s on tables; inv: p50_ms on roundtrip; tables
#                bypasses inv and sqrt_or_adjoin
#   eigensystem  ops_per_s on tables; p50_ms on roundtrip (through the
#                synthetic oracle) and on verify
#   recovery     p50_ms and p90_ms on roundtrip; tables bypasses it
#   dimensions, bundle, cli, verify
#                setup_s and p50_ms on verify; roundtrip and tables bypass them
#
# (metric, unit, better). The per_layer list of BENCHMARK.json is this list.
PER_LAYER = (
    [
        (f"quadfield.{fn}.{kind}", unit, "lower")
        for fn in ("factor_ideal", "ideal_mul", "coprime")
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("quadfield.ideals_of_norm.hits", "count", "higher"),
        ("quadfield.ideals_of_norm.misses", "count", "lower"),
        ("classgroup.ideal_class.calls", "count", "lower"),
        ("classgroup.ideal_class.self_s", "s", "lower"),
        ("classgroup.compute_class_group.s", "s", "lower"),
        ("characters.eval_on_class.calls", "count", "lower"),
        ("characters.eval_on_class.self_s", "s", "lower"),
        ("algext.mul.calls", "count", "lower"),
        ("algext.mul.self_s", "s", "lower"),
    ]
    + [(f"algext.mul.dim{d}.calls", "count", "lower") for d in (1, 2, 4, 8)]
    + [
        ("algext.inv.calls", "count", "lower"),
        ("algext.inv.self_s", "s", "lower"),
        ("algext.sqrt_or_adjoin.calls", "count", "lower"),
        ("algext.sqrt_or_adjoin.self_s", "s", "lower"),
        ("algext.sqrt_or_adjoin.adjoined", "count", "lower"),
        ("algext.lift.calls", "count", "lower"),
        ("algext.join_fields.calls", "count", "lower"),
        ("algext.tower_dim.max", "count", "lower"),
        ("eigensystem.coefficient.calls", "count", "lower"),
        ("eigensystem.coefficient.self_s", "s", "lower"),
        ("eigensystem.chi_value.calls", "count", "lower"),
        ("eigensystem.chi_value.self_s", "s", "lower"),
        ("eigensystem.twist_orbit.self_s", "s", "lower"),
        ("eigensystem.hecke_field_report.self_s", "s", "lower"),
        ("eigensystem.make_eigensystem.self_s", "s", "lower"),
        ("recovery.recover.calls", "count", "lower"),
        ("recovery.recover.self_s", "s", "lower"),
        ("recovery.oracle_query.calls", "count", "lower"),
        ("recovery.oracle_query.s", "s", "lower"),
        ("recovery.make_principal_operator.calls", "count", "lower"),
        ("recovery.make_principal_operator.self_s", "s", "lower"),
        ("recovery.queries_per_prime", "queries/prime", "lower"),
    ]
    + [(f"recovery.failed.{name}", "count", "lower") for name in RECOVERY_FAILURES]
    + [
        ("dimensions.validate_row.calls", "count", "lower"),
        ("dimensions.validate_row.self_s", "s", "lower"),
        ("bundle.load_s", "s", "lower"),
        ("cli.startup_s", "s", "lower"),
    ]
    + [(f"verify.check.{name}.s", "s", "lower") for name in VERIFY_CHECKS]
    + [("trace.overhead", "ratio", "lower")]
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []
        self._lists: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, note=None, on_error=None):
        """A wrapper recording one span per call. ``note(args, result)`` runs
        after a call that returned, ``on_error(exc)`` after one that raised."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                note(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, note=None, on_error=None):
        """Wrap ``module.attr`` everywhere an iqhecke module binds it."""
        orig = getattr(module, attr)
        self.replace(orig, self.wrap(name, orig, note, on_error))

    def replace(self, orig, new):
        """Bind ``new`` wherever an iqhecke module binds ``orig``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "iqhecke" or mod_name.startswith("iqhecke.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, new)

    def patch_method(self, cls, attr: str, name: str, note=None):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], note))

    def patch_list(self, items: list, index: int, value):
        self._lists.append((items, index, items[index]))
        items[index] = value

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        for items, index, orig in reversed(self._lists):
            items[index] = orig
        self._patches.clear()
        self._lists.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        rows = [out[name] for name in self.names]
        names = self.name
        for i in range(n):
            row = rows[names[i]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def dump(self, path) -> None:
        """Write the spans as a name table plus flat binary arrays."""
        import json

        with open(path, "wb") as fh:
            header = json.dumps({"names": self.names, "spans": len(self.start)}).encode()
            fh.write(len(header).to_bytes(4, "little") + header)
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)


def install_library_spans(tracer: Tracer) -> None:
    """Patch the public functions behind ``PER_LAYER``. Every iqhecke module
    is imported first, so that each by-name binding exists when the patches
    go in."""
    import iqhecke.algext as algext
    import iqhecke.bundle as bundle
    import iqhecke.characters as characters
    import iqhecke.classgroup as classgroup
    import iqhecke.cli  # noqa: F401  (its by-name bindings must be patched too)
    import iqhecke.dimensions as dimensions
    import iqhecke.eigensystem as eigensystem
    import iqhecke.quadfield as quadfield
    import iqhecke.recovery as recovery
    import iqhecke.verify as verify

    counts = tracer.counts

    for fn in ("factor_ideal", "ideal_mul", "coprime"):
        tracer.patch_function(quadfield, fn, f"quadfield.{fn}")

    cached = quadfield.ideals_of_norm

    def ideals_of_norm(*args):
        hits = cached.cache_info().hits
        out = cached(*args)
        hit = cached.cache_info().hits > hits
        counts["quadfield.ideals_of_norm.hits" if hit else "quadfield.ideals_of_norm.misses"] += 1
        return out

    ideals_of_norm.cache_info = cached.cache_info
    ideals_of_norm.cache_clear = cached.cache_clear
    tracer.replace(cached, ideals_of_norm)
    tracer.patch_method(classgroup.ClassGroup, "ideal_class", "classgroup.ideal_class")
    tracer.patch_function(classgroup, "compute_class_group", "classgroup.compute_class_group")
    tracer.patch_function(characters, "eval_on_class", "characters.eval_on_class")

    def note_mul(args, out):
        dim = out.field.dim
        counts[f"algext.mul.dim{dim}.calls"] += 1
        if dim > counts["algext.tower_dim.max"]:
            counts["algext.tower_dim.max"] = dim

    def note_sqrt(args, out):
        if out[1] != args[0].field:
            counts["algext.sqrt_or_adjoin.adjoined"] += 1

    tracer.patch_method(algext.AlgValue, "__mul__", "algext.mul", note_mul)
    tracer.patch_method(algext.AlgValue, "inv", "algext.inv")
    tracer.patch_function(algext, "sqrt_or_adjoin", "algext.sqrt_or_adjoin", note_sqrt)
    tracer.patch_function(algext, "lift", "algext.lift")
    tracer.patch_function(algext, "join_fields", "algext.join_fields")

    for fn in ("coefficient", "chi_value", "twist_orbit", "hecke_field_report", "make_eigensystem"):
        tracer.patch_function(eigensystem, fn, f"eigensystem.{fn}")

    def note_recover(args, out):
        counts["recovery.primes"] += len(out.system.alpha) + len(out.alpha_gaps)

    def recover_failed(exc):
        kind = type(exc).__name__
        counts[f"recovery.failed.{kind if kind in RECOVERY_FAILURES else 'other'}"] += 1

    tracer.patch_function(recovery, "recover", "recovery.recover", note_recover, recover_failed)
    tracer.patch_function(recovery, "make_principal_operator", "recovery.make_principal_operator")
    for oracle in (recovery.SyntheticOracle, recovery.FixtureOracle):
        tracer.patch_method(oracle, "query", "recovery.oracle_query")

    tracer.patch_function(dimensions, "validate_row", "dimensions.validate_row")
    tracer.patch_method(bundle.FixtureBundle, "__init__", "bundle.load")
    for i, (name, fn) in enumerate(verify.ALL_CHECKS):
        tracer.patch_list(verify.ALL_CHECKS, i, (name, tracer.wrap(f"verify.check.{name}", fn)))


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, dict]:
    """Every ``PER_LAYER`` metric, from the spans, the counters and ``extra``
    (values the caller measured outside the spans)."""
    values: dict[str, float] = {}
    for name, row in tracer.totals().items():
        for kind, value in row.items():
            values[f"{name}.{kind}"] = value
    values["bundle.load_s"] = values.get("bundle.load.s", 0.0)
    primes = tracer.counts["recovery.primes"]
    queries = values.get("recovery.oracle_query.calls", 0)
    values["recovery.queries_per_prime"] = queries / primes if primes else 0.0
    values.update(tracer.counts)
    values.update(extra)
    return {
        name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER
    }

"""Every iqhecke file format, and the shipped fixture bundle.

This module alone reads and writes JSON (value fields, eigensystems and their
tables, oracle files, characters, dimension rows and curves), for a bundle and
for the command line; files name ideals by their ``N.i`` label.  ``read_json``
parses every file and ``_get`` reads every key, so a malformed file raises a
``ValueError``, never a ``KeyError`` or ``TypeError``.  A bundle directory
holds the field descriptor with its class-group pin, the eigensystem tables,
the principal-operator oracle files, the newspace dimension table, the
Hecke-field table, and elliptic-curve a_p lists, all checked at load time,
with the newform records that tie the dimension table to the self-twist
records and the Hecke-field table, so a broken bundle fails fast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import algext
from .algext import ValueField
from .characters import check_reduced, order_two_characters
from .classgroup import ClassGroup, IdealClass, compute_class_group
from .dimensions import C4, DimensionRow, NewformRecord
from .eigensystem import HeckeEigensystem, make_eigensystem
from .quadfield import (
    FACTOR_LABEL_DISCS,
    Ideal,
    QuadField,
    coprime,
    exact_prime_power_divisors,
    ideal_from_label,
    is_prime_ideal,
    label,
    make_field,
)
from .recovery import FixtureOracle, make_principal_operator


class BundleError(ValueError):
    pass


DEFAULT_BUNDLE_DIR = Path(__file__).parent / "data"


_SHAPES = {dict: "an object", list: "a list", str: "a string", int: "an integer", None: "null"}


def _checked(value, kind, what: str):
    """value, if its JSON kind is kind or in the tuple kind: dict, list, str,
    int (a boolean is no int) or None for null; object admits any value."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if object not in kinds and (None if value is None else type(value)) not in kinds:
        shape = " or ".join(_SHAPES[k] for k in kinds)
        raise BundleError(f"{what} must be {shape}, not {type(value).__name__}")
    return value


def _get(data: dict, key: str, kind, what: str, default=...):
    """data[key], checked to be of kind, or default if key is absent (an error without one)."""
    if key in data:
        return _checked(data[key], kind, what)
    if default is ...:
        raise BundleError(f"no {what}")
    return default


def _check_field_disc(data: dict, disc: int, what: str) -> None:
    """A file that names a field_disc must name disc."""
    named = _get(data, "field_disc", (int, None), f"field_disc of {what}", None)
    if named not in (None, disc):
        raise BundleError(f"{what} is for discriminant {named}, not {disc}")


def read_json(path: Path | str):
    """The JSON value in the file at path."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise BundleError(f"{path} is not JSON: {exc}") from None


def value_field_to_json(f: ValueField) -> dict:
    def enc(q: Fraction):
        return int(q) if q.denominator == 1 else str(q)

    return {
        "minpoly": [enc(c) for c in f.minpoly],
        "adjoined": [
            enc(r[0]) if all(c == 0 for c in r[1:]) else [enc(c) for c in r]
            for r in f.adjoined
        ],
    }


def _rational(c, what: str) -> Fraction:
    """A coefficient written as a JSON number or a fraction string such as "1/2"."""
    if type(c) not in (int, float, str):
        raise BundleError(f"{what} coefficient {c!r} must be a number or a fraction string")
    try:
        return Fraction(c)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise BundleError(f"{what} coefficient {c!r} is not a rational number") from None


def value_field_from_json(data) -> ValueField:
    _checked(data, dict, "a value field")
    minpoly = [_rational(c, "minpoly") for c in _get(data, "minpoly", list, "minpoly", [0, 1])]
    adjoined = [
        [_rational(c, "adjoined") for c in r] if isinstance(r, list) else _rational(r, "adjoined")
        for r in _get(data, "adjoined", list, "adjoined", [])
    ]
    return algext.make_value_field(minpoly, adjoined)


def character_from_json(group: ClassGroup, exps: list[int]) -> IdealClass:
    if any(type(e) is not int for e in _checked(exps, list, "character exponents")):
        raise BundleError(f"character exponents {exps} must be integers")
    check_reduced(group, chi := IdealClass(tuple(exps)), error=BundleError)
    return chi


def eigensystem_to_json(F: HeckeEigensystem) -> dict:
    return {
        "field_disc": F.group.field.disc,
        "level": label(F.level),
        "character": list(F.character.exps),
        "field": value_field_to_json(F.vfield),
        "alpha": {label(p): algext.render_value(v) for p, v in F.alpha},
        "al": {label(q): s for q, s in F.al_signs} if F.al_signs is not None else None,
        "selftwist": (
            {"possible": [list(c.exps) for c in F.selftwist_candidates]}
            if F.selftwist_candidates
            else None
        ),
    }


def eigensystem_from_json(group: ClassGroup, data: dict) -> HeckeEigensystem:
    _check_field_disc(_checked(data, dict, "an eigensystem"), group.field.disc, "eigensystem")
    f = value_field_from_json(_get(data, "field", dict, "a value field", {}))
    lev = _get(data, "level", object, "level of an eigensystem")
    level = ideal_from_label(group.field, lev)
    at = f"at level {lev}"
    chi = character_from_json(group, data.get("character", [0] * len(group.elementary_divisors)))
    alpha = {
        ideal_from_label(group.field, lab): algext.parse_value(f, text)
        for lab, text in _get(data, "alpha", dict, f"alpha {at}").items()
    }
    if not_prime := [label(p) for p in alpha if not is_prime_ideal(p)]:
        raise BundleError(f"alpha {at} names ideals that are not prime: {', '.join(not_prime)}")
    al = _get(data, "al", (dict, None), f"involution signs {at}", None)
    if al is not None and any(type(s) is not int for s in al.values()):
        raise BundleError(f"involution signs {al} must be the integers 1 or -1")
    al_map = None if al is None else {ideal_from_label(group.field, q): s for q, s in al.items()}
    if stray := [label(q) for q in al_map or () if q not in exact_prime_power_divisors(level)]:
        raise BundleError(f"involution signs {at} name ideals that are not exact prime-power "
                          f"divisors of the level: {', '.join(stray)}")
    st = _get(data, "selftwist", (dict, None), f"selftwist {at}", None)
    cands = None if st is None else _get(st, "possible", list, "possible", None)
    if cands is not None:
        cands = [character_from_json(group, e) for e in cands]
        # a self-twist psi has order 2: psi^2 = 1 and psi is not trivial
        if any(c not in order_two_characters(group) for c in cands):
            raise BundleError(
                f"self-twist candidates {st['possible']} must be nontrivial quadratic characters"
            )
    return make_eigensystem(
        group, level, chi, alpha, al_map, vfield=f, selftwist_candidates=cands
    )


def systems_from_json(group: ClassGroup, data: dict) -> dict[str, HeckeEigensystem]:
    """Read a table file {"field_disc", "level", "systems": [{"name", ...}]}:
    each row is an eigensystem at the table's level, keyed by its name."""
    table: dict[str, HeckeEigensystem] = {}
    lev = _get(_checked(data, dict, "an eigensystem table"), "level", object, "table level")
    at = f"at level {lev}"
    for i, row in enumerate(_get(data, "systems", list, f"systems {at}", [])):
        _checked(row, dict, f"system {i} {at}")
        name = _get(row, "name", str, f"the name of system {i} {at}", str(len(table)))
        if name in table:
            raise BundleError(f"two systems named {name!r} {at}")
        named = {"field_disc": data.get("field_disc"), "level": lev}
        if any(row.get(key, value) != value for key, value in named.items()):
            raise BundleError(f"system {name!r} {at} differs from its table in field_disc or level")
        table[name] = eigensystem_from_json(group, {**row, **named})
    return table


def system_from_json(group: ClassGroup, data, name: str | None = None) -> HeckeEigensystem:
    """Read an eigensystem file: one system, when no name is given, or a
    table whose row ``name`` (by default the first) is returned."""
    if "systems" not in _checked(data, dict, "an eigensystem file"):
        if name is not None:
            raise BundleError(f"no system named {name!r}: the file holds a single system")
        return eigensystem_from_json(group, data)
    systems = systems_from_json(group, data)
    if name is None and systems:
        return next(iter(systems.values()))
    if name not in systems:
        raise BundleError(f"no system named {name!r} at level {data['level']}")
    return systems[name]


def fixture_oracle_from_json(group: ClassGroup, data: dict) -> tuple[FixtureOracle, Ideal]:
    """Read {"field_disc", "level", "field", "values": [{aa,t,w,value}]}."""
    _check_field_disc(_checked(data, dict, "an oracle file"), group.field.disc, "oracle file")
    level = ideal_from_label(group.field, _get(data, "level", object, "level of an oracle file"))
    f = value_field_from_json(_get(data, "field", dict, "a value field", {}))
    mapping = {}
    for i, row in enumerate(_get(data, "values", list, "oracle values")):
        _checked(row, dict, f"oracle row {i}")
        labels = [_get(row, k, object, f"{k} in oracle row {i}", None) for k in ("aa", "t", "w")]
        op = make_principal_operator(
            group, level, *(None if x is None else ideal_from_label(group.field, x) for x in labels)
        )
        if op in mapping:
            raise BundleError(f"two oracle rows for {op}")
        value = str(_get(row, "value", (str, int), f"value in oracle row {i}"))
        mapping[op] = algext.parse_value(f, value)
    return FixtureOracle(mapping), level


def curve_from_json(K: QuadField, data) -> dict:
    """Check a curve file {"curve", "conductor", "ap": {label: a_p}, "bad_primes":
    {label: {"ap": a, "reduction": "split", "nonsplit" or "additive"}}} and return
    it: every label names a prime ideal of K, every a_p and bad-prime a is an
    integer, and every bad prime divides the conductor."""
    _check_field_disc(_checked(data, dict, "a curve file"), K.disc, "curve")
    _get(data, "curve", str, "curve name", None)
    conductor = ideal_from_label(K, _get(data, "conductor", object, "conductor label of a curve"))
    ap, bad = (_get(data, key, dict, f"curve {key!r}", {}) for key in ("ap", "bad_primes"))
    for lab, a in ap.items():
        if type(a) is not int:
            raise BundleError(f"curve a_p at {lab} is {a!r}, not an integer")
    if not_prime := [lab for lab in (*ap, *bad) if not is_prime_ideal(ideal_from_label(K, lab))]:
        raise BundleError(f"curve labels name ideals that are not prime: {', '.join(not_prime)}")
    for lab, rec in bad.items():
        _checked(rec, dict, f"bad prime {lab}")
        _get(rec, "ap", int, f"integer 'ap' for bad prime {lab}")
        kind = _get(rec, "reduction", str, f"reduction of bad prime {lab}")
        if kind not in ("split", "nonsplit", "additive"):
            raise BundleError(f"reduction {kind!r} at {lab} is not split, nonsplit or additive")
        if coprime(ideal_from_label(K, lab), conductor):
            raise BundleError(f"bad prime {lab} does not divide the conductor {data['conductor']}")
    return data


def dimension_row_from_json(data, i: int) -> DimensionRow:
    what = f"dimension row {i}"
    lev = _get(_checked(data, dict, what), "level", object, f"level of {what}")
    rule = f"(dimension row {lev}: nd and columns are integers)"
    cols = [
        tuple(_checked(x, int, f"{k} entry {rule}") for x in _get(data, k, list, f"{k} {rule}", []))
        for k in ("Hplus", "Hminus", "chi0", "chi13")
    ]
    conj = _get(data, "conj", object, f"conj of dimension row {lev}", None)
    return DimensionRow(lev, conj, _get(data, "nd", int, f"nd {rule}"), *cols)


@dataclass
class HeckeFieldRow:
    level: str
    index: int
    kf: str
    kf_degree: int
    kF: str
    kF_degree: int


class FixtureBundle:
    def __init__(self, directory: Path | str = DEFAULT_BUNDLE_DIR):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise BundleError(f"bundle directory {self.directory} does not exist")
        self.field, self.group = self._load_field()
        self.eigensystem_tables = self._load_eigensystems()
        self.oracles = self._load_oracles()
        self.dimension_rows, selftwists = self._load_dimension_table()
        self.hecke_field_rows = self._load_hecke_fields()
        self._newform_records = self._build_newform_records(selftwists)
        self.curves = self._load_curves()

    def _load_field(self) -> tuple[QuadField, ClassGroup]:
        data = self._read_one("field_*.json")
        if data is None:
            raise BundleError("bundle has no field descriptor")
        K = make_field(_get(data, "d", int, "d of the field descriptor"))
        if _get(data, "disc", int, "disc of the field descriptor", K.disc) != K.disc:
            raise BundleError(f"field descriptor disc {data['disc']} != {K.disc}")
        ordering = "factor" if K.disc in FACTOR_LABEL_DISCS else "hnf"
        if _get(data, "label_ordering", str, "label_ordering", ordering) != ordering:
            raise BundleError(
                f"label_ordering {data['label_ordering']!r} != {ordering!r} for disc {K.disc}"
            )
        group = compute_class_group(K)
        pin = _get(data, "class_group", dict, "class_group", None)
        if pin is not None:
            if _get(pin, "h", int, "class number pin") != group.h:
                raise BundleError(f"class number pin {pin['h']} != computed {group.h}")
            divisors = _get(pin, "elementary_divisors", list, "elementary-divisor pin")
            if tuple(divisors) != group.elementary_divisors:
                raise BundleError("elementary-divisor pin does not match")
            gens = _get(pin, "generators", list, "generator pin", [])
            if gens and gens != [[g.a, g.b, g.c] for g in group.generators]:
                raise BundleError("generator pin does not match the computed group")
        return K, group

    def _load_eigensystems(self) -> dict[str, dict[str, HeckeEigensystem]]:
        out: dict[str, dict[str, HeckeEigensystem]] = {}
        for path in sorted(self.directory.glob("eigensystems_*.json")):
            data = self._read(path)
            level = _get(data, "level", object, f"level in {path.name}")
            ideal_from_label(self.field, level)
            if level in out:
                raise BundleError(f"two eigensystem files for level {level}")
            out[level] = systems_from_json(self.group, data)
        return out

    def _load_oracles(self) -> dict[str, tuple[FixtureOracle, Ideal]]:
        out: dict[str, tuple[FixtureOracle, Ideal]] = {}
        for path in sorted(self.directory.glob("oracle_*.json")):
            oracle, level = fixture_oracle_from_json(self.group, self._read(path))
            if label(level) in out:
                raise BundleError(f"two oracle files for level {label(level)}")
            out[label(level)] = (oracle, level)
        return out

    def _load_dimension_table(self):
        data = self._read_one("dimension_table_*.json", self.field.disc)
        if data is None:
            return [], []
        if self.group.elementary_divisors != C4:
            raise BundleError(
                f"the dimension table follows the C4 rules, but the class group has "
                f"elementary divisors {self.group.elementary_divisors}"
            )
        rows = [
            dimension_row_from_json(r, i)
            for i, r in enumerate(_get(data, "rows", list, "dimension rows", []))
        ]
        seen = set()
        for row in rows:
            ideal_from_label(self.field, row.level)
            if row.conj is not None:
                ideal_from_label(self.field, row.conj)
            if row.level in seen:
                raise BundleError(f"duplicate dimension row {row.level}")
            seen.add(row.level)
        records = _get(data, "selftwist_records", list, "self-twist records", [])
        return rows, [self._selftwist_record(i, r) for i, r in enumerate(records)]

    def _selftwist_record(self, i: int, data) -> tuple[str, str, int, IdealClass]:
        """(level, side, degree, character) from {"level", "side", "degree",
        "character"?}; without a character it is the one nontrivial quadratic."""
        what = f"self-twist record {i}"
        level = _get(_checked(data, dict, what), "level", object, f"level of {what}")
        ideal_from_label(self.field, level)
        side = _get(data, "side", str, f"side plus or minus of {what}")
        if side not in ("plus", "minus"):
            raise BundleError(f"{what} needs side plus or minus, not {side!r}")
        record = level, side, _get(data, "degree", int, f"integer degree of {what}")
        if "character" in data:
            return (*record, character_from_json(self.group, data["character"]))
        cands = order_two_characters(self.group)
        if len(cands) != 1:
            raise BundleError("self-twist record needs an explicit character")
        return (*record, cands[0])

    def _load_hecke_fields(self):
        data = self._read_one("hecke_fields_*.json", self.field.disc)
        if data is None:
            return None
        kinds = dict(level=object, index=int, kf=str, kf_degree=int, kF=str, kF_degree=int)
        rows = []
        for i, r in enumerate(_get(data, "rows", list, "Hecke-field rows", [])):
            what = f"Hecke-field row {i}"
            lev = _get(_checked(r, dict, what), "level", object, f"level of {what}")
            ideal_from_label(self.field, lev)
            rule = f"(Hecke-field row {lev}: index and degrees are integers, kf and kF strings)"
            kw = {k: _get(r, k, kind, f"{k} {rule}") for k, kind in kinds.items()}
            if len(r) > len(kw):
                raise BundleError(f"Hecke-field row {lev} has keys besides {list(kw)}")
            row = HeckeFieldRow(**kw)
            if row.kF_degree not in (row.kf_degree, 2 * row.kf_degree):
                raise BundleError(
                    f"Hecke-field row {lev}#{row.index}: degree {row.kF_degree} "
                    f"is neither d nor 2d for d = {row.kf_degree}"
                )
            rows.append(row)
        return rows

    def _load_curves(self):
        out = {}
        for path in sorted(self.directory.glob("curve_*.json")):
            data = curve_from_json(self.field, self._read(path))
            name = data.get("curve", path.stem)
            if name in out:
                raise BundleError(f"two curve files for {name}")
            out[name] = data
        return out

    @staticmethod
    def _read(path: Path) -> dict:
        return _checked(read_json(path), dict, path.name)

    def _read_one(self, pattern: str, disc: int | None = None):
        """The one file matching pattern, or None; its field_disc, if any, must be disc."""
        paths = sorted(self.directory.glob(pattern))
        if len(paths) > 1:
            raise BundleError(f"two {pattern} files: {paths[0].name} and {paths[1].name}")
        data = self._read(paths[0]) if paths else None
        if data is not None and disc is not None:
            _check_field_disc(data, disc, paths[0].name)
        return data

    # -- derived views ------------------------------------------------------

    def system(self, level: str, name: str) -> HeckeEigensystem:
        F = self.eigensystem_tables.get(level, {}).get(name)
        if F is None:
            raise BundleError(f"no eigensystem {name!r} at level {level}")
        return F

    def newform_records(self) -> list[NewformRecord]:
        """Records for every dimension-table row, with shapes pinned from the
        Hecke-field table where it covers the level (or its conjugate)."""
        return list(self._newform_records)

    def _build_newform_records(self, selftwists) -> list[NewformRecord]:
        hf_by_level: dict[str, list[HeckeFieldRow]] = {}
        for r in self.hecke_field_rows or []:
            hf_by_level.setdefault(r.level, []).append(r)
        flags: dict[tuple[str, str], list[tuple[int, IdealClass]]] = {}
        for lev, side, degree, chi in selftwists:
            flags.setdefault((lev, side), []).append((degree, chi))
        records: list[NewformRecord] = []
        for row in self.dimension_rows:
            level = ideal_from_label(self.field, row.level)
            hf = hf_by_level.get(row.level)
            if hf is None and row.conj:
                hf = hf_by_level.get(row.conj)
            plus_shapes: list[str | None] = [None] * len(row.hplus)
            plus_degrees = sorted(row.hplus)
            if hf is not None:
                hf_sorted = sorted(hf, key=lambda r: r.kf_degree)
                if [r.kf_degree for r in hf_sorted] != plus_degrees:
                    raise BundleError(
                        f"Hecke-field degrees at {row.level} do not match the H+ column"
                    )
                plus_shapes = [
                    "split" if r.kF_degree == r.kf_degree else "joined"
                    for r in hf_sorted
                ]
            for side, degs, shapes in (
                ("plus", plus_degrees, plus_shapes),
                ("minus", sorted(row.hminus), [None] * len(row.hminus)),
            ):
                side_flags = flags.pop((row.level, side), [])
                for d, shape in zip(degs, shapes):
                    st = None
                    hit = next((f for f in side_flags if f[0] == d), None)
                    if hit is not None:
                        side_flags.remove(hit)
                        st, shape = hit[1], "selftwist"
                    records.append(
                        NewformRecord(
                            level=level, side=side, degree=d, selftwist=st, shape=shape
                        )
                    )
                if side_flags:
                    raise BundleError(
                        f"unmatched self-twist record at {row.level} ({side})"
                    )
        for lev, side in flags:
            raise BundleError(f"unmatched self-twist record at {lev} ({side})")
        return records

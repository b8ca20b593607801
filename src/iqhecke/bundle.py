"""Every iqhecke file format, and the shipped fixture bundle.

This module alone reads and writes JSON (value fields, eigensystems and their
tables, oracle files, characters, dimension rows and curves); files name
ideals by their ``N.i`` label.  A bundle directory holds the field descriptor with its
class-group pin, the eigensystem tables, the principal-operator oracle files,
the newspace dimension table, the Hecke-field table, and elliptic-curve a_p
lists.  Every file is schema-checked at load time, all ideal labels are
resolved eagerly, and the newform records that tie the dimension table to the
self-twist records and the Hecke-field table are built there too, so a broken
bundle fails fast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import algext
from .algext import ValueField
from .characters import ClassCharacter, quadratic_characters
from .classgroup import BQForm, ClassGroup, compute_class_group
from .dimensions import C4, DimensionRow, NewformRecord
from .eigensystem import EigensystemError, HeckeEigensystem, make_eigensystem
from .quadfield import (
    FACTOR_LABEL_DISCS,
    Ideal,
    QuadField,
    coprime,
    ideal_from_label,
    label,
    make_field,
)
from .recovery import FixtureOracle, RecoveryError, make_principal_operator


class BundleError(ValueError):
    pass


DEFAULT_BUNDLE_DIR = Path(__file__).parent / "data"


def _checked(value, kind: type, what: str):
    """value, if it is a JSON object (kind dict), list (kind list) or string (kind str)."""
    if not isinstance(value, kind):
        shape = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise BundleError(f"{what} must be {shape}, not {type(value).__name__}")
    return value


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
    minpoly = [
        _rational(c, "minpoly") for c in _checked(data.get("minpoly", [0, 1]), list, "minpoly")
    ]
    adjoined = [
        [_rational(c, "adjoined") for c in r] if isinstance(r, list) else _rational(r, "adjoined")
        for r in _checked(data.get("adjoined", []), list, "adjoined")
    ]
    return algext.make_value_field(minpoly, adjoined)


def character_from_json(group: ClassGroup, exps: list[int]) -> ClassCharacter:
    if any(type(e) is not int for e in _checked(exps, list, "character exponents")):
        raise BundleError(f"character exponents {exps} must be integers")
    if len(exps) != len(group.elementary_divisors):
        raise ValueError(f"character exponents {exps} do not fit the class group")
    return ClassCharacter(tuple(e % d for e, d in zip(exps, group.elementary_divisors)))


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
    if _checked(data, dict, "an eigensystem").get("field_disc") not in (None, group.field.disc):
        raise EigensystemError(
            f"fixture is for discriminant {data['field_disc']}, not {group.field.disc}"
        )
    f = value_field_from_json(data.get("field", {}))
    level = ideal_from_label(group.field, data["level"])
    at = f"at level {data['level']}"
    chi = character_from_json(
        group, data.get("character", [0] * len(group.elementary_divisors))
    )
    alpha = {
        ideal_from_label(group.field, lab): algext.parse_value(f, text)
        for lab, text in _checked(data.get("alpha", {}), dict, f"alpha {at}").items()
    }
    al = data.get("al")
    if al is not None and any(
        type(s) is not int for s in _checked(al, dict, f"involution signs {at}").values()
    ):
        raise BundleError(f"involution signs {al} must be the integers 1 or -1")
    al_map = None if al is None else {ideal_from_label(group.field, q): s for q, s in al.items()}
    cands = None
    st = data.get("selftwist")
    if isinstance(st, dict) and "possible" in st:
        cands = [character_from_json(group, e) for e in _checked(st["possible"], list, "possible")]
        # a self-twist psi has psi^2 = 1 and is not the trivial character
        if any(c.is_trivial() or not group.power(c, 2).is_trivial() for c in cands):
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
    rows = _checked(data, dict, "an eigensystem table").get("systems", [])
    at = f"at level {data.get('level')}"
    for i, row in enumerate(_checked(rows, list, f"systems {at}")):
        name = _checked(row, dict, f"system {i} {at}").get("name", str(len(table)))
        _checked(name, str, f"the name of system {i} {at}")
        if name in table:
            raise BundleError(f"two systems named {name!r} {at}")
        table[name] = eigensystem_from_json(
            group, {**row, "level": data["level"], "field_disc": data.get("field_disc")}
        )
    return table


def system_from_json(group: ClassGroup, data, name: str | None = None) -> HeckeEigensystem:
    """Read an eigensystem file: one system, or a table whose row ``name``
    (by default the first) is returned."""
    if "systems" not in _checked(data, dict, "an eigensystem file"):
        return eigensystem_from_json(group, data)
    systems = systems_from_json(group, data)
    if name is None and systems:
        return next(iter(systems.values()))
    if name not in systems:
        raise BundleError(f"no system named {name!r} at level {data.get('level')}")
    return systems[name]


def fixture_oracle_from_json(group: ClassGroup, data: dict) -> tuple[FixtureOracle, Ideal]:
    """Read {"field_disc", "level", "field", "values": [{aa,t,w,value}]}."""
    if _checked(data, dict, "an oracle file").get("field_disc") not in (None, group.field.disc):
        raise RecoveryError("oracle fixture is for a different field")
    level = ideal_from_label(group.field, data["level"])
    f = value_field_from_json(data.get("field", {}))
    mapping = {}
    for i, row in enumerate(_checked(data["values"], list, "oracle values")):
        _checked(row, dict, f"oracle row {i}")
        op = make_principal_operator(
            group,
            level,
            aa=ideal_from_label(group.field, row["aa"]) if row.get("aa") else None,
            t=ideal_from_label(group.field, row["t"]) if row.get("t") else None,
            w=ideal_from_label(group.field, row["w"]) if row.get("w") else None,
        )
        if op in mapping:
            raise BundleError(f"two oracle rows for {op}")
        mapping[op] = algext.parse_value(f, str(row["value"]))
    return FixtureOracle(mapping), level


def curve_from_json(K: QuadField, data) -> dict:
    """Check a curve file {"curve", "conductor", "ap": {label: a_p},
    "bad_primes": {label: {"ap": a, "reduction": ...}}} and return it: every
    label names an ideal of K, every a_p and bad-prime a is an integer, and
    every bad prime divides the conductor."""
    if not isinstance(data, dict) or not isinstance(data.get("conductor"), str):
        raise BundleError("a curve file is an object with a conductor label")
    if data.get("field_disc") not in (None, K.disc):
        raise BundleError(f"curve is for discriminant {data['field_disc']}, not {K.disc}")
    conductor = ideal_from_label(K, data["conductor"])
    ap, bad = data.get("ap", {}), data.get("bad_primes", {})
    if not isinstance(ap, dict) or not isinstance(bad, dict):
        raise BundleError("curve 'ap' and 'bad_primes' must be objects keyed by prime label")
    for lab, a in ap.items():
        if type(a) is not int:
            raise BundleError(f"curve a_p at {lab} is {a!r}, not an integer")
        ideal_from_label(K, lab)
    for lab, rec in bad.items():
        if not isinstance(rec, dict) or type(rec.get("ap")) is not int:
            raise BundleError(f"bad prime {lab}: {rec!r} has no integer 'ap'")
        if coprime(ideal_from_label(K, lab), conductor):
            raise BundleError(f"bad prime {lab} does not divide the conductor {data['conductor']}")
    return data


def dimension_row_from_json(data: dict) -> DimensionRow:
    cols = [data.get(key, []) for key in ("Hplus", "Hminus", "chi0", "chi13")]
    if type(data.get("nd")) is not int or not all(
        isinstance(col, list) and all(type(x) is int for x in col) for col in cols
    ):
        raise BundleError(f"dimension row {data.get('level')}: nd and columns must be integers")
    return DimensionRow(data["level"], data.get("conj"), data["nd"], *map(tuple, cols))


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
        K = make_field(data["d"])
        if "disc" in data and data["disc"] != K.disc:
            raise BundleError(f"field descriptor disc {data['disc']} != {K.disc}")
        ordering = "factor" if K.disc in FACTOR_LABEL_DISCS else "hnf"
        if data.get("label_ordering", ordering) != ordering:
            raise BundleError(
                f"label_ordering {data['label_ordering']!r} != {ordering!r} for disc {K.disc}"
            )
        group = compute_class_group(K)
        pin = data.get("class_group")
        if pin:
            if _checked(pin, dict, "class_group").get("h") != group.h:
                raise BundleError(f"class number pin {pin.get('h')} != computed {group.h}")
            if tuple(pin.get("elementary_divisors", [])) != group.elementary_divisors:
                raise BundleError("elementary-divisor pin does not match")
            gens = [BQForm(*g) for g in pin.get("generators", [])]
            if gens and tuple(gens) != group.generators:
                raise BundleError("generator pin does not match the computed group")
        return K, group

    def _load_eigensystems(self) -> dict[str, dict[str, HeckeEigensystem]]:
        out: dict[str, dict[str, HeckeEigensystem]] = {}
        for path in sorted(self.directory.glob("eigensystems_*.json")):
            data = self._read(path)
            ideal_from_label(self.field, data["level"])
            if data["level"] in out:
                raise BundleError(f"two eigensystem files for level {data['level']}")
            out[data["level"]] = systems_from_json(self.group, data)
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
            dimension_row_from_json(_checked(r, dict, f"dimension row {i}"))
            for i, r in enumerate(_checked(data.get("rows", []), list, "dimension rows"))
        ]
        seen = set()
        for row in rows:
            ideal_from_label(self.field, row.level)
            if row.conj is not None:
                ideal_from_label(self.field, row.conj)
            if row.level in seen:
                raise BundleError(f"duplicate dimension row {row.level}")
            seen.add(row.level)
        return rows, [self._selftwist_record(r) for r in data.get("selftwist_records", [])]

    def _selftwist_record(self, data) -> tuple[str, str, int, ClassCharacter]:
        """(level, side, degree, character) from {"level", "side", "degree",
        "character"?}; without a character it is the one nontrivial quadratic."""
        if (
            not isinstance(data, dict)
            or not isinstance(data.get("level"), str)
            or data.get("side") not in ("plus", "minus")
            or type(data.get("degree")) is not int
        ):
            raise BundleError(
                f"self-twist record {data!r} needs a level label, side plus or minus "
                "and an integer degree"
            )
        ideal_from_label(self.field, data["level"])
        record = data["level"], data["side"], data["degree"]
        if "character" in data:
            return (*record, character_from_json(self.group, data["character"]))
        cands = [c for c in quadratic_characters(self.group) if not c.is_trivial()]
        if len(cands) != 1:
            raise BundleError("self-twist record needs an explicit character")
        return (*record, cands[0])

    def _load_hecke_fields(self):
        data = self._read_one("hecke_fields_*.json", self.field.disc)
        if data is None:
            return None
        rows = [
            HeckeFieldRow(**_checked(r, dict, f"Hecke-field row {i}"))
            for i, r in enumerate(_checked(data.get("rows", []), list, "Hecke-field rows"))
        ]
        for r in rows:
            ideal_from_label(self.field, r.level)
            if any(type(x) is not int for x in (r.index, r.kf_degree, r.kF_degree)):
                raise BundleError(f"Hecke-field row {r.level}: index and degrees must be integers")
            if r.kF_degree not in (r.kf_degree, 2 * r.kf_degree):
                raise BundleError(
                    f"Hecke-field row {r.level}#{r.index}: degree {r.kF_degree} "
                    f"is neither d nor 2d for d = {r.kf_degree}"
                )
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
        return _checked(json.loads(path.read_text()), dict, path.name)

    def _read_one(self, pattern: str, disc: int | None = None):
        """The one file matching pattern, or None; its field_disc, if any, must be disc."""
        paths = sorted(self.directory.glob(pattern))
        if len(paths) > 1:
            raise BundleError(f"two {pattern} files: {paths[0].name} and {paths[1].name}")
        data = self._read(paths[0]) if paths else None
        if data and disc and data.get("field_disc") not in (None, disc):
            raise BundleError(f"{paths[0].name} is for discriminant {data['field_disc']}")
        return data

    # -- derived views ------------------------------------------------------

    def system(self, level: str, name: str) -> HeckeEigensystem:
        try:
            return self.eigensystem_tables[level][name]
        except KeyError:
            raise BundleError(f"no eigensystem {name!r} at level {level}")

    def newform_records(self) -> list[NewformRecord]:
        """Records for every dimension-table row, with shapes pinned from the
        Hecke-field table where it covers the level (or its conjugate)."""
        return list(self._newform_records)

    def _build_newform_records(self, selftwists) -> list[NewformRecord]:
        hf_by_level: dict[str, list[HeckeFieldRow]] = {}
        for r in self.hecke_field_rows or []:
            hf_by_level.setdefault(r.level, []).append(r)
        flags: dict[tuple[str, str], list[tuple[int, ClassCharacter]]] = {}
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

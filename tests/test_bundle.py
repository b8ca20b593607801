import functools
import json
import re
import shutil

import pytest

from iqhecke.algext import AlgebraError
from iqhecke.bundle import DEFAULT_BUNDLE_DIR, BundleError, FixtureBundle, eigensystem_to_json
from iqhecke.cli import main
from iqhecke.quadfield import QuadFieldError, label, principal_ideal
from iqhecke.verify import run_checks


def test_bundle_files_are_in_canonical_layout():
    # the JSON files are the only copy of the data; one layout keeps diffs reviewable
    paths = sorted(DEFAULT_BUNDLE_DIR.glob("*.json"))
    assert len(paths) == 10
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n", path.name


def test_default_bundle_loads(bundle):
    assert bundle.group.h == 4
    assert set(bundle.eigensystem_tables) == {"2.1", "16.1", "25.1", "7.2", "64.1"}
    assert len(bundle.dimension_rows) == 65
    assert len(bundle.hecke_field_rows) == 78
    assert "2.0.68.1-7.2-a2" in bundle.curves


def test_newform_records_shapes(bundle):
    from iqhecke.quadfield import label

    records = bundle.newform_records()
    lev21 = [r for r in records if label(r.level) == "2.1"]
    assert len(lev21) == 1 and lev21[0].shape == "joined"
    lev71 = [r for r in records if label(r.level) == "7.1"]
    assert len(lev71) == 1 and lev71[0].shape == "split"
    st = [r for r in records if r.selftwist is not None]
    assert len(st) == 2
    assert all(r.shape == "selftwist" and label(r.level) == "64.1" for r in st)
    # both involution sides carry one self-twist record of degree 1
    assert sorted(r.side for r in st) == ["minus", "plus"]


def test_bundle_detects_broken_pin(tmp_path):
    target = tmp_path / "bundle"
    shutil.copytree(DEFAULT_BUNDLE_DIR, target)
    field = json.loads((target / "field_68.json").read_text())
    field["class_group"]["h"] = 5
    (target / "field_68.json").write_text(json.dumps(field))
    with pytest.raises(BundleError):
        FixtureBundle(target)


def test_bundle_label_ordering_is_checked_not_applied(tmp_path, K17, capsys):
    target = tmp_path / "bundle"
    shutil.copytree(DEFAULT_BUNDLE_DIR, target)
    field = json.loads((target / "field_68.json").read_text())
    field["label_ordering"] = "hnf"
    (target / "field_68.json").write_text(json.dumps(field))
    with pytest.raises(BundleError):
        FixtureBundle(target)
    assert label(principal_ideal(K17, 3, 0)) == "9.2"
    assert main(["verify", "--bundle", str(target)]) == 2
    assert "schema error" in capsys.readouterr().err


def test_bundle_missing_hecke_fields_skips_check(tmp_path):
    target = tmp_path / "bundle"
    shutil.copytree(DEFAULT_BUNDLE_DIR, target)
    (target / "hecke_fields_68.json").unlink()
    b = FixtureBundle(target)
    assert b.hecke_field_rows is None
    results = run_checks(b, ["hecke-fields"])
    assert len(results) == 1 and results[0].status == "SKIP"
    # the dimension table still validates without shape pins
    results2 = run_checks(b, ["dimension-table"])
    assert results2[0].status == "PASS"


def test_mutated_alpha_fails_exactly_affected_checks(tmp_path):
    target = tmp_path / "bundle"
    shutil.copytree(DEFAULT_BUNDLE_DIR, target)
    data = json.loads((target / "eigensystems_2.1.json").read_text())
    assert data["systems"][0]["alpha"]["3.1"] == "2*sqrt2"
    data["systems"][0]["alpha"]["3.1"] = "3*sqrt2"
    (target / "eigensystems_2.1.json").write_text(json.dumps(data))
    b = FixtureBundle(target)
    results = run_checks(b)
    failed = {r.name for r in results if r.status == "FAIL"}
    assert failed == {"recovery-2.1", "structure-detectors"}


def _edit(target, name, change):
    path = target / name
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _break_oracle_value(target):
    _edit(target, "oracle_2.1.json", lambda d: d["values"][0].update(value="1/0"))


def _copy_oracle(target):
    shutil.copy(target / "oracle_2.1.json", target / "oracle_2.1-copy.json")


def _duplicate_system_name(target):
    _edit(target, "eigensystems_2.1.json", lambda d: d["systems"][1].update(name="F0"))


def _copy_curve(target):
    shutil.copy(target / "curve_7.2a2.json", target / "curve_7.2a2-copy.json")


def _drop_bad_prime_ap(target):
    _edit(target, "curve_7.2a2.json", lambda d: d["bad_primes"]["7.2"].pop("ap"))


def _drop_selftwist_side(target):
    _edit(target, "dimension_table_68.json", lambda d: d["selftwist_records"][0].pop("side"))


def _unmatched_selftwist_degree(target):
    _edit(target, "dimension_table_68.json",
          lambda d: d["selftwist_records"][0].update(degree=7))


def _hecke_field_degrees_off_hplus(target):
    _edit(target, "hecke_fields_68.json",
          lambda d: d["rows"][0].update(kf_degree=2, kF_degree=4))


def _unknown_conjugate_label(target):
    _edit(target, "dimension_table_68.json", lambda d: d["rows"][1].update(conj="4.9"))


def _numeric_level_label(target):
    _edit(target, "dimension_table_68.json", lambda d: d["rows"][0].update(level=2))


def _string_dimension_column(target):
    _edit(target, "dimension_table_68.json", lambda d: d["rows"][0].update(Hplus="1"))


def _string_hecke_field_index(target):
    _edit(target, "hecke_fields_68.json", lambda d: d["rows"][0].update(index="1"))


def _second_dimension_table(target):
    shutil.copy(target / "dimension_table_68.json", target / "dimension_table_69.json")
    _edit(target, "dimension_table_69.json", lambda d: d.update(rows=[{"level": "2.1", "nd": 999}]))


def _second_eigensystem_file(target):
    shutil.copy(target / "eigensystems_2.1.json", target / "eigensystems_2.1b.json")
    _edit(target, "eigensystems_2.1b.json", lambda d: d.update(systems=d["systems"][:1]))


def _dimension_table_other_field(target):
    _edit(target, "dimension_table_68.json", lambda d: d.update(field_disc=-20))


def _hecke_fields_other_field(target):
    _edit(target, "hecke_fields_68.json", lambda d: d.update(field_disc=-20))


def _fractional_involution_sign(target):
    _edit(target, "eigensystems_2.1.json", lambda d: d["systems"][0].update(al={"2.1": -1.7}))


def _boolean_involution_sign(target):
    _edit(target, "eigensystems_2.1.json", lambda d: d["systems"][0].update(al={"2.1": True}))


def _string_involution_sign(target):
    _edit(target, "eigensystems_2.1.json", lambda d: d["systems"][0].update(al={"2.1": "1"}))


def _write(name, data):
    return _write_text(name, json.dumps(data))


def _write_text(name, text):
    def breakage(target):
        (target / name).write_text(text)
    return breakage


def _edited(name, change):
    def breakage(target):
        _edit(target, name, change)
    return breakage


def _selftwist_candidates(possible):
    def breakage(target):
        _edit(target, "eigensystems_64.1.json",
              lambda d: d["systems"][0]["selftwist"].update(possible=possible))
    return breakage


def _reduction(kind):
    """Set the reduction at the curve's bad prime to kind, or drop it for None."""
    def change(curve):
        rec = curve["bad_primes"]["7.2"]
        rec.pop("reduction") if kind is None else rec.update(reduction=kind)
    return _edited("curve_7.2a2.json", change)


def _character(exps):
    return _edited("eigensystems_2.1.json", lambda d: d["systems"][0].update(character=exps))


def _value_field(**field):
    return _edited("eigensystems_2.1.json", lambda d: d["systems"][0]["field"].update(field))


@pytest.mark.parametrize(
    "breakage, error, message",
    [
        (_break_oracle_value, AlgebraError, "'1/0'"),
        (_copy_oracle, BundleError, "two oracle files for level 2.1"),
        (_duplicate_system_name, BundleError, "two systems named 'F0' at level 2.1"),
        (_drop_bad_prime_ap, BundleError, "bad prime 7.2"),
        (_copy_curve, BundleError, "two curve files for 2.0.68.1-7.2-a2"),
        (_drop_selftwist_side, BundleError, "side plus or minus"),
        (_unmatched_selftwist_degree, BundleError, "unmatched self-twist record at 64.1 (plus)"),
        (_hecke_field_degrees_off_hplus, BundleError,
         "Hecke-field degrees at 2.1 do not match the H+ column"),
        (_unknown_conjugate_label, QuadFieldError, "no ideal with label '4.9'"),
        (_numeric_level_label, QuadFieldError, "bad ideal label 2"),
        (_string_dimension_column, BundleError, "dimension row 2.1: nd and columns"),
        (_string_hecke_field_index, BundleError, "Hecke-field row 2.1: index and degrees"),
        (_second_dimension_table, BundleError,
         "two dimension_table_*.json files: dimension_table_68.json and dimension_table_69.json"),
        (_second_eigensystem_file, BundleError, "two eigensystem files for level 2.1"),
        (_dimension_table_other_field, BundleError,
         "dimension_table_68.json is for discriminant -20"),
        (_hecke_fields_other_field, BundleError, "hecke_fields_68.json is for discriminant -20"),
        (_fractional_involution_sign, BundleError, "involution signs {'2.1': -1.7}"),
        (_boolean_involution_sign, BundleError, "involution signs {'2.1': True}"),
        (_string_involution_sign, BundleError, "involution signs {'2.1': '1'}"),
        (_selftwist_candidates([[1, 2]]), ValueError,
         "character exponents [1, 2] do not fit the class group"),
        (_selftwist_candidates([[1]]), BundleError,
         "self-twist candidates [[1]] must be nontrivial quadratic characters"),
        (_selftwist_candidates([[0]]), BundleError,
         "self-twist candidates [[0]] must be nontrivial quadratic characters"),
        (_write("oracle_2.1.json", [1]), BundleError,
         "oracle_2.1.json must be an object, not list"),
        (_write("oracle_2.1.json", {"level": "2.1", "values": [1]}), BundleError,
         "oracle row 0 must be an object, not int"),
        (_edited("oracle_2.1.json", lambda d: d["field"].update(minpoly=5)), BundleError,
         "minpoly must be a list, not int"),
        (_edited("eigensystems_2.1.json", lambda d: d.update(systems=[1])), BundleError,
         "system 0 at level 2.1 must be an object, not int"),
        (_edited("eigensystems_2.1.json", lambda d: d["systems"][0].update(alpha=[1])),
         BundleError, "alpha at level 2.1 must be an object, not list"),
        (_edited("eigensystems_2.1.json", lambda d: d["systems"][0].update(character=5)),
         BundleError, "character exponents must be a list, not int"),
        (_selftwist_candidates(5), BundleError, "possible must be a list, not int"),
        (_edited("eigensystems_2.1.json", lambda d: d["systems"][0].update(name=[1])),
         BundleError, "the name of system 0 at level 2.1 must be a string, not list"),
        (_edited("eigensystems_2.1.json", lambda d: d["systems"][0].update(name=7)),
         BundleError, "the name of system 0 at level 2.1 must be a string, not int"),
        (_edited("dimension_table_68.json", lambda d: d.update(rows=[1])), BundleError,
         "dimension row 0 must be an object, not int"),
        (_edited("hecke_fields_68.json", lambda d: d.update(rows=[1])), BundleError,
         "Hecke-field row 0 must be an object, not int"),
        (_edited("field_68.json", lambda d: d.update(class_group=[4])), BundleError,
         "class_group must be an object, not list"),
        (_character([1.5]), BundleError, "character exponents [1.5] must be integers"),
        (_character(["1"]), BundleError, "character exponents ['1'] must be integers"),
        (_character([None]), BundleError, "character exponents [None] must be integers"),
        (_character([True]), BundleError, "character exponents [True] must be integers"),
        (_value_field(minpoly=[None, 1]), BundleError,
         "minpoly coefficient None must be a number or a fraction string"),
        (_value_field(minpoly=[False, True]), BundleError,
         "minpoly coefficient False must be a number or a fraction string"),
        (_value_field(minpoly=[[0], 1]), BundleError,
         "minpoly coefficient [0] must be a number or a fraction string"),
        (_value_field(minpoly=["1/0", 1]), BundleError,
         "minpoly coefficient '1/0' is not a rational number"),
        (_value_field(adjoined=[None]), BundleError,
         "adjoined coefficient None must be a number or a fraction string"),
        (_value_field(adjoined=[{}]), BundleError,
         "adjoined coefficient {} must be a number or a fraction string"),
        (_value_field(adjoined=[[[2]]]), BundleError,
         "adjoined coefficient [2] must be a number or a fraction string"),
        (_edited("oracle_2.1.json", lambda d: d["field"].update(adjoined=[True])), BundleError,
         "adjoined coefficient True must be a number or a fraction string"),
        (_edited("eigensystems_7.2.json", lambda d: d["systems"][0].pop("alpha")), BundleError,
         "no alpha at level 7.2"),
        (_edited("oracle_2.1.json", lambda d: d["values"][0].pop("value")), BundleError,
         "no value in oracle row 0"),
        (_edited("eigensystems_2.1.json", lambda d: d.pop("level")), BundleError,
         "no level in eigensystems_2.1.json"),
        (_edited("dimension_table_68.json", lambda d: d["rows"][1].pop("level")), BundleError,
         "no level of dimension row 1"),
        (_edited("hecke_fields_68.json", lambda d: d["rows"][0].pop("kf")), BundleError,
         "no kf (Hecke-field row 2.1: "),
        (_edited("hecke_fields_68.json", lambda d: d["rows"][0].update(kF=2)), BundleError,
         "kF (Hecke-field row 2.1: index and degrees are integers, kf and kF strings) must be a "
         "string, not int"),
        (_edited("oracle_2.1.json", lambda d: d["values"][0].update(aa=[])), QuadFieldError,
         "bad ideal label []"),
        (_edited("eigensystems_64.1.json", lambda d: d["systems"][0].update(selftwist=5)),
         BundleError, "selftwist at level 64.1 must be an object or null, not int"),
        (_edited("field_68.json", lambda d: d.update(class_group=[])), BundleError,
         "class_group must be an object, not list"),
        (_edited("field_68.json", lambda d: d["class_group"].pop("h")), BundleError,
         "no class number pin"),
        (_edited("curve_7.2a2.json", lambda d: d.update(curve=5)), BundleError,
         "curve name must be a string, not int"),
        (_reduction([5]), BundleError, "reduction of bad prime 7.2 must be a string, not list"),
        (_reduction("x"), BundleError, "reduction 'x' at 7.2 is not split, nonsplit or additive"),
        (_reduction(None), BundleError, "no reduction of bad prime 7.2"),
        (_edited("eigensystems_2.1.json", lambda d: d["systems"][1].update(field_disc=-20)),
         BundleError, "system 'F1' at level 2.1 differs from its table in field_disc or level"),
        (_edited("eigensystems_2.1.json", lambda d: d["systems"][0].update(level="3.1")),
         BundleError, "system 'F0' at level 2.1 differs from its table in field_disc or level"),
        (_write_text("eigensystems_2.1.json", "[" * 100_000), BundleError,
         "eigensystems_2.1.json is not JSON"),
    ],
)
def test_broken_or_ambiguous_bundle_is_schema_error(tmp_path, capsys, breakage, error, message):
    target = tmp_path / "bundle"
    shutil.copytree(DEFAULT_BUNDLE_DIR, target)
    breakage(target)
    with pytest.raises(error, match=re.escape(message)):
        FixtureBundle(target)
    assert main(["verify", "--bundle", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("d, disc", [(5, -20), (21, -84), (47, -47)])
def test_dimension_table_needs_a_c4_class_group(tmp_path, capsys, d, disc):
    (tmp_path / f"field_{-disc}.json").write_text(json.dumps({"d": d}))
    row = {"level": "1.1", "nd": 4, "Hplus": [1], "chi0": [1, 1]}
    table = {"field_disc": disc, "rows": [row]}
    (tmp_path / f"dimension_table_{-disc}.json").write_text(json.dumps(table))
    with pytest.raises(BundleError, match="C4 rules"):
        FixtureBundle(tmp_path)
    assert main(["verify", "--bundle", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("schema error: the dimension table follows the C4")


def test_shipped_selftwist_candidate_is_written_back_unchanged(bundle):
    data = json.loads((DEFAULT_BUNDLE_DIR / "eigensystems_64.1.json").read_text())
    assert data["systems"][0]["selftwist"] == {"possible": [[2]]}
    F = bundle.system("64.1", data["systems"][0]["name"])
    assert eigensystem_to_json(F)["selftwist"] == {"possible": [[2]]}


def test_bundle_rejects_bad_json(tmp_path):
    target = tmp_path / "bundle"
    shutil.copytree(DEFAULT_BUNDLE_DIR, target)
    (target / "eigensystems_2.1.json").write_text("{not json")
    with pytest.raises(BundleError, match="eigensystems_2.1.json is not JSON"):
        FixtureBundle(target)


def _key_paths(node, prefix=()):
    """The path of every key in node, taking the first two entries of each list."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node[:2]):
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))


_DELETED = object()


def _mutated(text, path, value):
    """The data of the JSON text with its entry at path set to value, or deleted."""
    data = json.loads(text)
    parent = functools.reduce(lambda node, key: node[key], path[:-1], data)
    if value is _DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


def test_every_mutation_of_a_shipped_file_loads_or_is_a_typed_error(tmp_path):
    # each entry of each file, deleted or replaced by a value of every JSON
    # type, next to the field descriptor alone so that each load is small
    cases = 0
    for path in sorted(DEFAULT_BUNDLE_DIR.glob("*.json")):
        target = tmp_path / path.stem
        target.mkdir()
        shutil.copy(DEFAULT_BUNDLE_DIR / "field_68.json", target)
        text = path.read_text()
        for key_path in _key_paths(json.loads(text)):
            for value in (_DELETED, None, 5, "x", [], {}, True, -1.5):
                (target / path.name).write_text(json.dumps(_mutated(text, key_path, value)))
                try:
                    FixtureBundle(target)
                except ValueError as exc:
                    assert type(exc) is not ValueError, (path.name, key_path, value, exc)
                cases += 1
    assert cases == 2208


def test_missing_directory():
    with pytest.raises(BundleError):
        FixtureBundle("/nonexistent/bundle/dir")

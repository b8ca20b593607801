import json
import shutil

import pytest

from iqhecke import verify
from iqhecke.bundle import DEFAULT_BUNDLE_DIR, eigensystem_from_json, eigensystem_to_json
from iqhecke.cli import main
from iqhecke.eigensystem import EigensystemError


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_command(capsys):
    code, out, _ = run_cli(capsys, "field", "17")
    assert code == 0
    assert "disc -68" in out and "C4" in out and "r2 = 1" in out
    code, out, _ = run_cli(capsys, "field", "1")
    assert code == 0 and "h = 1" in out
    code, out, _ = run_cli(capsys, "field", "21")
    assert code == 0 and "C2 x C2" in out and "r2 = 2" in out


def test_field_command_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "field", "12")
    assert code == 2 and "squarefree" in err


def test_recover_command(capsys):
    oracle = str(DEFAULT_BUNDLE_DIR / "oracle_2.1.json")
    code, out, _ = run_cli(
        capsys, "recover", "--field", "17", "--level", "2.1",
        "--oracle", oracle, "--bound", "13",
    )
    assert code == 0
    assert "alpha(3.1) = 2*sqrt2" in out
    assert "alpha(3.2) = -2*sqrt2" in out
    assert "alpha(13.1) = -2" in out
    assert "eps(2.1) = -1" in out
    assert "oracle gaps" in out


def test_recover_reads_any_degree_one_minimal_polynomial_as_q(capsys, tmp_path):
    oracle = DEFAULT_BUNDLE_DIR / "oracle_2.1.json"
    data = json.loads(oracle.read_text())
    data["field"]["minpoly"] = [5, 1]
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(data))
    outs = [run_cli(capsys, "recover", "--field", "17", "--oracle", str(p)) for p in (oracle, path)]
    assert outs[0][0] == 0 and outs[1] == outs[0]


def test_recover_reports_a_wrong_oracle_value(capsys, tmp_path):
    data = json.loads((DEFAULT_BUNDLE_DIR / "oracle_2.1.json").read_text())
    probe = next(row for row in data["values"] if row["aa"] == "9.1" and row["t"] is None)
    probe["value"] = "2"
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "recover", "--field", "17", "--oracle", str(path))
    assert code == 2
    assert err.strip() == "error: T_(a,a) at class (2,) returned 2, not +-1"


def test_recover_reports_a_missing_character_probe(capsys, tmp_path):
    data = json.loads((DEFAULT_BUNDLE_DIR / "oracle_2.1.json").read_text())
    data["values"] = [row for row in data["values"] if row["aa"] != "9.1"]
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "recover", "--field", "17", "--oracle", str(path))
    assert code == 2
    assert err.strip() == "error: the oracle has no value for the character probe T(9.1,9.1)"


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({"level": "2.1", "values": 5}), "oracle values must be a list, not int"),
        ("[" * 100_000, "oracle.json is not JSON"),
    ],
    ids=["values-not-a-list", "nested-too-deep"],
)
def test_recover_reports_an_oracle_file_of_the_wrong_shape(capsys, tmp_path, text, message):
    path = tmp_path / "oracle.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "recover", "--field", "17", "--oracle", str(path))
    assert code == 2
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "field, message",
    [
        ({"minpoly": [None, 1]}, "minpoly coefficient None must be a number"),
        ({"minpoly": [False, True]}, "minpoly coefficient False must be a number"),
        ({"adjoined": [None]}, "adjoined coefficient None must be a number"),
        ({"adjoined": [{}]}, "adjoined coefficient {} must be a number"),
    ],
)
def test_recover_reports_a_value_field_coefficient_of_the_wrong_type(
    capsys, tmp_path, field, message
):
    data = json.loads((DEFAULT_BUNDLE_DIR / "oracle_2.1.json").read_text())
    data["field"].update(field)
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "recover", "--field", "17", "--oracle", str(path))
    assert code == 2
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1


def test_recover_reports_a_value_that_divides_by_zero(capsys, tmp_path):
    data = json.loads((DEFAULT_BUNDLE_DIR / "oracle_2.1.json").read_text())
    data["values"][0]["value"] = "1/0"
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "recover", "--field", "17", "--oracle", str(path))
    assert code == 2
    assert err.startswith("error: ") and "'1/0'" in err and len(err.splitlines()) == 1


def test_recover_reports_a_value_with_nested_powers(capsys, tmp_path):
    data = json.loads((DEFAULT_BUNDLE_DIR / "oracle_2.1.json").read_text())
    data["values"][0]["value"] = "((2^1000)^1000)^100"
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "recover", "--field", "17", "--oracle", str(path))
    assert code == 2
    assert err.startswith("error: ") and "exponent above" in err and len(err.splitlines()) == 1


def test_recover_json_reingests_losslessly(capsys, G17):
    oracle = str(DEFAULT_BUNDLE_DIR / "oracle_2.1.json")
    code, out, _ = run_cli(
        capsys, "recover", "--field", "17", "--oracle", oracle,
        "--bound", "13", "--json",
    )
    assert code == 0
    blob = json.loads(out)
    F = eigensystem_from_json(G17, blob)
    again = eigensystem_to_json(F)
    for key in ("level", "character", "alpha", "al"):
        assert again[key] == blob[key]
    assert blob["alpha_gaps"]


def test_recover_level_mismatch(capsys):
    oracle = str(DEFAULT_BUNDLE_DIR / "oracle_2.1.json")
    code, _, err = run_cli(
        capsys, "recover", "--field", "17", "--level", "4.1", "--oracle", oracle
    )
    assert code == 2 and "2.1" in err


@pytest.mark.parametrize("bound", ["-3", "0", "1"])
def test_recover_rejects_a_bound_below_every_prime_norm(capsys, bound):
    oracle = str(DEFAULT_BUNDLE_DIR / "oracle_2.1.json")
    code, out, err = run_cli(
        capsys, "recover", "--field", "17", "--oracle", oracle, "--bound", bound
    )
    assert code == 2 and out == ""
    assert err.strip() == f"error: bound {bound} is below 2, the least norm of a prime"


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "class-groups", "--check", "compare-ap-7.2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL", "SKIP"))]
    assert len(lines) == 2 and all(l.startswith("PASS") for l in lines)


def test_verify_reports_a_skipped_check(capsys, tmp_path):
    # a check with no data to read is skipped, and a skip does not fail verify
    target = tmp_path / "bundle"
    shutil.copytree(DEFAULT_BUNDLE_DIR, target)
    (target / "hecke_fields_68.json").unlink()
    code, out, _ = run_cli(capsys, "verify", "--bundle", str(target))
    assert code == 0
    assert "SKIP hecke-fields: bundle has no Hecke-field table" in out.splitlines()
    code, out, _ = run_cli(
        capsys, "verify", "--bundle", str(target), "--check", "hecke-fields", "--json"
    )
    assert code == 0
    assert json.loads(out) == [
        {"name": "hecke-fields", "status": "SKIP", "detail": "bundle has no Hecke-field table"}
    ]


def test_verify_json_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "genus-character-law", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["status"] == "PASS"


def test_verify_rejects_an_unknown_check_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "round-trp", "--json"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "round-trp" in err and all(name in err for name, _ in verify.ALL_CHECKS)


def test_verify_reports_a_crashing_check_and_goes_on(capsys, monkeypatch):
    def crash(bundle):
        raise ValueError("boom")

    checks = [(name, crash if name == "class-groups" else fn) for name, fn in verify.ALL_CHECKS]
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    code, out, _ = run_cli(
        capsys, "verify", "--check", "class-groups", "--check", "genus-character-law", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert [(r["name"], r["status"]) for r in payload] == [
        ("class-groups", "FAIL"),
        ("genus-character-law", "PASS"),
    ]
    assert payload[0]["detail"] == "ValueError: boom"


def test_verify_bad_bundle_is_schema_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--bundle", str(tmp_path / "missing"))
    assert code == 2 and "schema error" in err


def test_verify_value_that_divides_by_zero_is_schema_error(capsys, tmp_path):
    target = tmp_path / "bundle"
    shutil.copytree(DEFAULT_BUNDLE_DIR, target)
    path = target / "eigensystems_2.1.json"
    data = json.loads(path.read_text())
    data["systems"][0]["alpha"]["13.1"] = "2/0"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "verify", "--bundle", str(target))
    assert code == 2
    assert err.startswith("schema error: ") and "'2/0'" in err and len(err.splitlines()) == 1


def test_verify_bundle_env_var(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("IQHECKE_BUNDLE", str(tmp_path / "nowhere"))
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    monkeypatch.setenv("IQHECKE_BUNDLE", str(DEFAULT_BUNDLE_DIR))
    code, out, _ = run_cli(capsys, "verify", "--check", "class-groups")
    assert code == 0 and "PASS" in out


def test_compare_ap_command(capsys):
    code, out, _ = run_cli(
        capsys, "compare-ap", "--field", "17",
        "--eigensystem", str(DEFAULT_BUNDLE_DIR / "eigensystems_7.2.json"),
        "--name", "a",
        "--curve", str(DEFAULT_BUNDLE_DIR / "curve_7.2a2.json"),
    )
    assert code == 0
    assert "result: match" in out
    assert "bad prime 7.2" in out and "agree" in out


def test_compare_ap_detects_mismatch(capsys, tmp_path):
    curve = json.loads((DEFAULT_BUNDLE_DIR / "curve_7.2a2.json").read_text())
    curve["ap"]["11.1"] = 5
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    code, out, _ = run_cli(
        capsys, "compare-ap", "--field", "17",
        "--eigensystem", str(DEFAULT_BUNDLE_DIR / "eigensystems_7.2.json"),
        "--name", "a", "--curve", str(path),
    )
    assert code == 1
    assert "MISMATCH at 11.1" in out
    assert "result: mismatch" in out


def test_compare_ap_rejects_malformed_value_field(capsys, tmp_path):
    for field, message in (
        ({"minpoly": [0, 1], "adjoined": [[1, 2]]}, "base degree"),
        ({"adjoined": [2, 8]}, "squarefree"),
        ({"minpoly": [1, 0, 1]}, "totally real"),
        ({"minpoly": [0, 0, 1]}, "totally real"),
        ({"minpoly": ["1/2", 0, 1]}, "integer"),
        ({"minpoly": [2, -3, 1]}, "reducible"),
        ({"minpoly": [6, 0, -5, 0, 1]}, "reducible"),
    ):
        data = json.loads((DEFAULT_BUNDLE_DIR / "eigensystems_7.2.json").read_text())
        data["systems"][0]["field"] = field
        path = tmp_path / "eigensystems.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(
            capsys, "compare-ap", "--field", "17", "--eigensystem", str(path), "--name", "a",
            "--curve", str(DEFAULT_BUNDLE_DIR / "curve_7.2a2.json"),
        )
        assert code == 2 and message in err


def test_compare_ap_rejects_character_exponents_that_are_not_integers(capsys, tmp_path):
    data = json.loads((DEFAULT_BUNDLE_DIR / "eigensystems_7.2.json").read_text())
    data["systems"][0]["character"] = [1.5]
    path = tmp_path / "eigensystems.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(
        capsys, "compare-ap", "--field", "17", "--eigensystem", str(path), "--name", "a",
        "--curve", str(DEFAULT_BUNDLE_DIR / "curve_7.2a2.json"),
    )
    assert code == 2
    assert err == "error: character exponents [1.5] must be integers\n"


def _without_bad_prime_ap(curve):
    del curve["bad_primes"]["7.2"]["ap"]


@pytest.mark.parametrize(
    "breakage, message",
    [
        (_without_bad_prime_ap, "no integer 'ap'"),
        (lambda curve: curve["ap"].update({"3.1": "-2"}), "not an integer"),
        (lambda curve: curve["ap"].update({"3.9": 1}), "no ideal with label '3.9'"),
        (lambda curve: curve["bad_primes"].update({"2.1": {"ap": 1, "reduction": "split"}}),
         "does not divide"),
        (lambda curve: curve.pop("conductor"), "conductor"),
        (lambda curve: curve.update({"field_disc": -20}), "discriminant -20"),
        (lambda curve: curve["bad_primes"]["7.2"].update(reduction=[5]), "must be a string"),
        (lambda curve: curve["bad_primes"]["7.2"].update(reduction="x"), "is not split"),
        (lambda curve: curve["bad_primes"]["7.2"].pop("reduction"), "no reduction"),
    ],
)
def test_compare_ap_rejects_malformed_curve_files(capsys, tmp_path, breakage, message):
    curve = json.loads((DEFAULT_BUNDLE_DIR / "curve_7.2a2.json").read_text())
    breakage(curve)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    code, _, err = run_cli(
        capsys, "compare-ap", "--field", "17",
        "--eigensystem", str(DEFAULT_BUNDLE_DIR / "eigensystems_7.2.json"),
        "--name", "a", "--curve", str(path),
    )
    assert code == 2 and err.startswith("error: ") and message in err


def test_compare_ap_rejects_a_curve_of_another_conductor(capsys):
    # the level-2.1 system is no modular form of the conductor-7.2 curve: an input error
    code, out, err = run_cli(
        capsys, "compare-ap", "--field", "17",
        "--eigensystem", str(DEFAULT_BUNDLE_DIR / "eigensystems_2.1.json"),
        "--curve", str(DEFAULT_BUNDLE_DIR / "curve_7.2a2.json"),
    )
    assert code == 2 and out == ""
    assert err == "error: level 2.1 is not the curve's conductor 7.2\n"


def test_compare_ap_only_absorbs_missing_signs(bundle, monkeypatch):
    F = bundle.system("7.2", "a")
    curve = bundle.curves["2.0.68.1-7.2-a2"]

    def raising(exc):
        def al_sign(self, q):
            raise exc
        return al_sign

    monkeypatch.setattr(type(F), "al_sign", raising(EigensystemError("no sign")))
    checks = verify.compare_ap(F, curve).bad_prime_checks
    assert checks == [("7.2", False, "no involution sign stored")]
    monkeypatch.setattr(type(F), "al_sign", raising(KeyError("unrelated failure")))
    with pytest.raises(KeyError, match="unrelated failure"):
        verify.compare_ap(F, curve)


def test_compare_ap_reports_bad_primes_in_label_order(bundle):
    curve = {"conductor": "7.2", "ap": {}, "bad_primes": {"11.1": {"ap": 1}, "2.1": {"ap": 1}}}
    checks = verify.compare_ap(bundle.system("7.2", "a"), curve).bad_prime_checks
    assert [lab for lab, _, _ in checks] == ["2.1", "11.1"]


def test_compare_ap_rejects_duplicate_system_names(capsys, tmp_path):
    data = json.loads((DEFAULT_BUNDLE_DIR / "eigensystems_7.2.json").read_text())
    data["systems"].append(data["systems"][0])
    path = tmp_path / "eigensystems.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(
        capsys, "compare-ap", "--field", "17", "--eigensystem", str(path), "--name", "a",
        "--curve", str(DEFAULT_BUNDLE_DIR / "curve_7.2a2.json"),
    )
    assert code == 2 and "two systems named 'a'" in err


def test_compare_ap_rejects_a_system_name_that_is_not_a_string(capsys, tmp_path):
    data = json.loads((DEFAULT_BUNDLE_DIR / "eigensystems_7.2.json").read_text())
    data["systems"][0]["name"] = [1]
    path = tmp_path / "eigensystems.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(
        capsys, "compare-ap", "--field", "17", "--eigensystem", str(path), "--name", "a",
        "--curve", str(DEFAULT_BUNDLE_DIR / "curve_7.2a2.json"),
    )
    assert code == 2
    assert err == "error: the name of system 0 at level 7.2 must be a string, not list\n"


@pytest.mark.parametrize("content", ["5", "null"])
def test_compare_ap_rejects_an_eigensystem_file_that_is_not_an_object(capsys, tmp_path, content):
    path = tmp_path / "eigensystem.json"
    path.write_text(content)
    code, _, err = run_cli(
        capsys, "compare-ap", "--field", "17", "--eigensystem", str(path),
        "--curve", str(DEFAULT_BUNDLE_DIR / "curve_7.2a2.json"),
    )
    assert code == 2
    assert err.startswith("error: an eigensystem file must be an object, not ")


def test_a_second_oracle_row_for_one_operator_is_an_error(capsys, tmp_path):
    target = tmp_path / "bundle"
    shutil.copytree(DEFAULT_BUNDLE_DIR, target)
    path = target / "oracle_2.1.json"
    data = json.loads(path.read_text())
    data["values"].append({"aa": "3.1", "t": "9.1", "value": "7"})
    path.write_text(json.dumps(data))
    message = "two oracle rows for T(3.1,3.1)*T(9.1)"
    code, _, err = run_cli(
        capsys, "recover", "--field", "17", "--bound", "13", "--oracle", str(path)
    )
    assert code == 2 and err == f"error: {message}\n"
    code, _, err = run_cli(capsys, "verify", "--bundle", str(target))
    assert code == 2 and err.startswith(f"schema error: {message}")


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "--check", "class-groups", "--check", "dimension-table",
            "--check", "structure-detectors")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_compare_ap_empty_overlap_warns(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"curve": "x", "conductor": "7.2", "ap": {}}))
    code, out, _ = run_cli(
        capsys, "compare-ap", "--field", "17",
        "--eigensystem", str(DEFAULT_BUNDLE_DIR / "eigensystems_7.2.json"),
        "--name", "a", "--curve", str(path),
    )
    assert code == 0 and "no primes compared" in out

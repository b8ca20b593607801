"""The library has no runtime dependencies: it imports only the standard
library and itself, on every Python version that CI runs.  Its value types
keep one record contract: no hand-written hash and no ordered dataclass, and
every record pickles and copies, as does an eigensystem with its twist caches
filled.  Only ``algext``'s kernel compiler runs generated code."""

import ast
import copy
import pickle
import random
import sys
from pathlib import Path

import pytest

import iqhecke
from iqhecke.algext import make_value_field, parse_value
from iqhecke.characters import RootOfUnity
from iqhecke.classgroup import IdealClass, compute_class_group
from iqhecke.eigensystem import chi_value, twist_orbit
from iqhecke.quadfield import (
    Ideal,
    QuadFieldError,
    factor_rational_prime,
    make_field,
    primes_of_norm_up_to,
    unit_ideal,
)
from iqhecke.recovery import make_principal_operator
from iqhecke.verify import random_eigensystem


def test_library_imports_only_the_standard_library():
    sources = sorted(Path(iqhecke.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"iqhecke"}]
    assert foreign == []


def test_value_types_share_one_record_contract():
    # keyed values are records (quadfield.no_sequence) that hash as tuples and
    # have no order, so no class defines __hash__ and no dataclass is ordered
    own_rules = []
    for path in sorted(Path(iqhecke.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = [getattr(node, "name", None) for node in cls.body]
            names += [target.id for node in cls.body if isinstance(node, ast.Assign)
                      for target in node.targets if isinstance(target, ast.Name)]
            if "__hash__" in names:
                own_rules.append((path.name, cls.name, "__hash__"))
            for deco in cls.decorator_list:
                func = getattr(deco, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) == "dataclass" and any(
                    kw.arg == "order" and getattr(kw.value, "value", None) is True
                    for kw in deco.keywords
                ):
                    own_rules.append((path.name, cls.name, "order=True"))
    assert own_rules == []


def _records() -> list:
    """One value of each ``no_sequence`` record type."""
    K = make_field(17)
    group = compute_class_group(K)
    return [K, Ideal(K, 3, 1, 1), factor_rational_prime(K, 3), group.forms[1],
            IdealClass((1,)), RootOfUnity.make(1, 4),
            parse_value(make_value_field(adjoined=[-1, 2]), "1 + i*sqrt2"),
            make_principal_operator(group, unit_ideal(K), t=Ideal(K, 2, 0, 2))]


def test_every_record_pickles_and_copies():
    decorated = {cls.name for path in Path(iqhecke.__file__).parent.glob("*.py")
                 for cls in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(cls, ast.ClassDef)
                 and any(getattr(deco, "id", None) == "no_sequence" for deco in cls.decorator_list)}
    records = _records()
    assert {type(r).__name__ for r in records} == decorated
    for record in records:
        for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                       copy.deepcopy(record)):
            assert type(copied) is type(record) and copied == record
    value = records[6]
    # the tower already holds its compiled product, which does not travel: a
    # copied value lands on the interned tower Q(i, sqrt2), not on a copy of it
    assert "_mul" in vars(value.field)
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert copied.field is value.field and copied * copied == value * value


def test_a_system_with_filled_twist_caches_pickles_and_copies():
    group = compute_class_group(make_field(17))
    F = random_eigensystem(group, random.Random(3), 60)
    orbit = twist_orbit(F)
    chis = [chi_value(F, p) for p in primes_of_norm_up_to(group.field, 30)]
    # the classes, the per-tower lifted values that the twists read and the
    # character values, zero at the primes that meet the level, are filled
    assert vars(F)["_classes"] and vars(F)["_lifted"] and vars(F)["_chi"]
    assert any(v.is_zero() for v in chis) and not all(v.is_zero() for v in chis)
    for copied in (pickle.loads(pickle.dumps(F)), copy.copy(F), copy.deepcopy(F)):
        # the copy holds the memoised class group, so the whole systems compare
        assert copied == F and copied.group is F.group and copied._lifted == F._lifted
        assert copied._chi == F._chi
        assert twist_orbit(copied) == orbit


def test_copying_an_ideal_checks_its_triple_again():
    K = make_field(17)
    bad = tuple.__new__(Ideal, (K, 3, 4, 1, 3))  # b outside [0, a): not an HNF triple
    for copier in (copy.copy, copy.deepcopy, lambda i: pickle.loads(pickle.dumps(i))):
        with pytest.raises(QuadFieldError):
            copier(bad)


def test_only_the_kernel_compiler_runs_generated_code():
    # exec, eval and compile by name, each with the innermost function around it
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name
        if isinstance(node, ast.Name) and node.id in ("exec", "eval", "compile"):
            found.append((where, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(iqhecke.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name)
    assert sorted(found) == [("_compile_kernel", "compile"), ("_compile_kernel", "exec")]
    assert "_compile_kernel" in vars(iqhecke.algext)


def test_no_constructor_starts_a_memo_dict():
    # keyed memos are lru_caches, whose cache_info reports their hit rates
    found = []
    for path in sorted(Path(iqhecke.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.FunctionDef) and node.name == "__init__"):
                continue
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                else:
                    continue
                if isinstance(stmt.value, ast.Dict) and not stmt.value.keys:
                    found += [(path.name, t.attr) for t in targets
                              if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                              and t.value.id == "self"]
    assert found == []

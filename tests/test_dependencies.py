"""The library has no runtime dependencies: it imports only the standard
library and itself, on every Python version that CI runs.  Its value types
keep one record contract: no hand-written hash and no ordered dataclass."""

import ast
import sys
from pathlib import Path

import iqhecke


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

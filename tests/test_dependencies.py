"""The library has no runtime dependencies: it imports only the standard
library and itself, on every Python version that CI runs."""

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

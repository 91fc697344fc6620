import ast
import sys
from pathlib import Path

import pthide

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_runtime_imports_only_the_standard_library_and_numpy():
    # the package must run with numpy alone: every absolute import in
    # src/pthide names a standard-library module or numpy
    sources = sorted(Path(pthide.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in ALLOWED
            ]
    assert outside == []

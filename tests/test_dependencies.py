"""The package depends on the standard library and numpy only.

scipy may be installed next to it, but the package must not reach for it
(or anything else): every absolute import in src/svetlichny is checked
against the interpreter's list of standard-library modules.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "svetlichny"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    foreign = [name for name in _absolute_imports(path)
               if name.partition(".")[0] not in ALLOWED]
    assert not foreign, f"{path.name} imports {foreign}"

"""The package depends on the standard library and numpy only, and holds
no function, import or private name that nothing reads. The tests' state
corpus depends on them only too, and never on the package.

scipy may be installed next to it, but the package must not reach for it
(or anything else): every absolute import in src/svetlichny is checked
against the interpreter's list of standard-library modules. A public
module-level function must be read somewhere else in the package, where
an export through __all__ counts; a check that only the tests call
belongs in tests/. __init__'s imports are its exports, and its __all__
names exactly them. Within each other module of the package, of tests/
and of tools/, every import and every private module-level function,
class and constant must be loaded somewhere in that module.

The package's two routes stay independent by layering. Every module sits
in one layer of LAYERS: the base (the matrix kernel, the operators and
the states), the paper's certificate, the decision (the optimizer), and
the composition (the command line and the package's exports). The paper
and the decision build on the base alone, never on each other, and the
base on neither; a module that no layer holds fails too, so a new module
is placed when it lands.

A record is a NamedTuple unless it cannot be: a frozen dataclass
generates and compiles its methods when its class is created, most of
the package's import, and a NamedTuple class generates none. The records
kept as dataclasses are listed with their reasons.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "svetlichny"
TESTS = Path(__file__).resolve().parent
TOOLS = TESTS.parent / "tools"
CORPUS = TESTS / "corpus.py"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}

LAYERS = {
    "linalg": "base", "operators": "base", "states": "base",
    "nonlocality": "paper", "bounds": "paper", "reproduce": "paper",
    "optimize": "decision",
    "cli": "composition", "__init__": "composition",
}
# the layers that a module of each layer may import from
READS = {
    "base": {"base"},
    "paper": {"base", "paper"},
    "decision": {"base", "decision"},
    "composition": {"base", "paper", "decision"},
}

# json writes any tuple as an array, and a tuple has no __dict__ for a cached_property
DATACLASSES = {
    "Window": "printed as a JSON object",
    "BoundsReport": "printed as a JSON object",
    "Verdict": "printed as a JSON object",
    "DensityMatrix": "caches a property",
}


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


def _decorator_name(node: ast.expr) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_only_the_listed_records_are_dataclasses():
    decorated = {node.name for path in SOURCE.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ClassDef)
                 and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)}
    unlisted, gone = sorted(decorated - set(DATACLASSES)), sorted(set(DATACLASSES) - decorated)
    assert not unlisted and not gone, (f"dataclasses not listed: {unlisted}, listed but not "
                                       f"dataclasses: {gone}; make a new record a NamedTuple")


def _package_imports(path: Path) -> list[str]:
    """The package modules a module imports relatively, at any depth of its code
    (a function-level import too)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.append(node.module.partition(".")[0])
            else:
                names += [alias.name for alias in node.names]
    return names


def test_layers_keep_the_decision_apart_from_the_paper():
    modules = sorted(path.stem for path in SOURCE.glob("*.py"))
    assert sorted(LAYERS) == modules, f"LAYERS places {sorted(LAYERS)}, the package has {modules}"
    crossings = [f"{module} ({LAYERS[module]}) imports {name} ({LAYERS[name]})"
                 for module in modules for name in _package_imports(SOURCE / f"{module}.py")
                 if LAYERS[name] not in READS[LAYERS[module]]]
    assert not crossings, "; ".join(crossings)


def test_corpus_stands_apart_from_the_package():
    # the tests' shared oracles check src/, so they must not be built from it
    tree = ast.parse(CORPUS.read_text(encoding="utf-8"), filename=str(CORPUS))
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]
    foreign = [name for name in _absolute_imports(CORPUS)
               if name.partition(".")[0] not in ALLOWED]
    assert not relative and not foreign, f"corpus.py imports {relative + foreign}"


def _functions_and_reads(path: Path) -> tuple[list[str], set[str]]:
    """Public module-level functions of a module, and the names its code reads
    outside each function's own body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = [node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    reads = set()
    for statement in tree.body:
        own = statement.name if isinstance(statement, ast.FunctionDef) else None
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != own:
                reads.add(name)
    return functions, reads


def unread_functions() -> list[str]:
    """module.function for every public module-level function that no other
    package code reads. __init__ exports a name through __all__ by
    importing it, and an import counts as a read. The cli.cmd_* commands
    are exempt: main dispatches them by name."""
    modules = {path.stem: _functions_and_reads(path) for path in sorted(SOURCE.glob("*.py"))}
    reads = set().union(*(read for _, read in modules.values()))
    return [f"{module}.{name}" for module, (functions, _) in modules.items()
            for name in functions
            if name not in reads and not (module == "cli" and name.startswith("cmd_"))]


def test_every_public_function_is_read():
    unread = unread_functions()
    assert not unread, f"no package code reads {unread}; move test-only checks to tests/"


def test_all_is_exactly_what_init_imports():
    # the unread-function guard counts every __init__ import as an export
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
    assert sorted(exported) == sorted(imported)


def unloaded_names(path: Path) -> list[str]:
    """Imports, and private module-level functions, classes and constants, that
    no code of the module loads. A __future__ import is a directive, not a name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        bound += [name for name in names if name.startswith("_")]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in loaded]


@pytest.mark.parametrize("path", sorted(set(SOURCE.glob("*.py")) - {SOURCE / "__init__.py"})
                         + sorted(TESTS.glob("*.py")) + sorted(TOOLS.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_and_private_name_is_loaded(path):
    unloaded = unloaded_names(path)
    assert not unloaded, f"nothing in {path.name} loads {unloaded}"

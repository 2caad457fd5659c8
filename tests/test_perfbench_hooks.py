"""The benchmark tracer's hooks must name functions the package still has.

perfbench/tracer.py skips a hook it cannot resolve without a word, so a
renamed function would silently zero the per-layer counts built on it.
The tracer is compiled from its source file, never imported or modified.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_hook_resolves_to_a_package_function():
    tracer = _load_tracer()
    solvers = [tuple(name.split(".", 1)) for name in tracer.PACKAGE_SOLVERS]
    assert tracer.HOOKS
    for layer, qualname in (*tracer.HOOKS, *solvers):
        module = f"{tracer.PACKAGE}.{layer}"
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        assert inspect.isfunction(owner), f"{layer}.{qualname} does not resolve"
        assert owner.__module__ == module

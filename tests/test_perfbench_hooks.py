"""The benchmark's hooks and arguments must match what the package still has.

perfbench/tracer.py skips a hook it cannot resolve without a word, so a
renamed function would silently zero the per-layer counts built on it;
the same holds for every function whose spans layer_metrics counts or
times by name. The tracer is compiled from its source file, never
imported or modified, and those names are read from its syntax tree.
A command-line flag the workloads pass but the parser no longer knows
would only show as failed benchmark operations, so every argv is parsed
here. The benchmark's own test suite runs here too, in a fresh
interpreter.

The benchmark's set-up purges the package from sys.modules and imports
it again, and the tracer patches the modules it finds there. So each
test looks the package's modules up when it runs, through _package, and
never holds one bound at import: run after perfbench/test_perfbench.py in
one process, it would call modules the tracer never patched.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import types

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _package(name: str) -> types.ModuleType:
    """The package's module as sys.modules holds it now."""
    return importlib.import_module(f"svetlichny.{name}")


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


def _metric_names() -> set[str]:
    """The span names layer_metrics counts or times: the arguments of count(...)
    and the constant keys of inclusive_ms[...] and raised[...]."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    metrics = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics")
    names = set()
    for node in ast.walk(metrics):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "count"):
            names.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
              and node.value.id in ("inclusive_ms", "raised")
              and isinstance(node.slice, ast.Constant)):
            names.add(node.slice.value)
    return names


def test_every_counted_name_resolves_to_a_traced_function():
    # a name whose function is gone, or private and not hooked, gets no
    # spans, so its count or time reads 0 without a word
    tracer = _load_tracer()
    names = _metric_names()
    assert {"bounds.product_spectrum", "states.validate",
            "reproduce.reproduce_closed_forms"} <= names, names
    for name in sorted(names):
        layer, qualname = name.split(".", 1)
        module = f"{tracer.PACKAGE}.{layer}"
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        assert inspect.isfunction(owner), f"{name} does not resolve"
        assert owner.__module__ == module, name
        public = "." not in qualname and not qualname.startswith("_")
        assert public or (layer, qualname) in tracer.HOOKS, f"{name} is private and not hooked"


def test_traced_ascents_report_a_bool_and_raise_nothing():
    # the tracer reads item 3 of an ascent's result with bool(); an array
    # there would raise inside the wrapper and fail every traced optimize
    tracer = _load_tracer()
    states, optimize = _package("states"), _package("optimize")
    traced = tracer.Tracer()
    traced.install()
    try:
        traced.op = 0
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        for backend in ("gradient", "coordinate"):
            optimize.maximize_svetlichny(rho, restarts=4, backend=backend)
        chsh_start = len(traced.spans)
        optimize.maximize_chsh(states.make_reference("Bell-Phi+"))
    finally:
        traced.op = None
        traced.uninstall()
    spans = traced.spans
    assert spans
    assert not any(tracer._raised(s[tracer.INFO]) for s in spans)
    ascents = [s for s in spans if s[tracer.NAME].endswith("_ascent")]
    assert len(ascents) == 2
    assert all(type(s[tracer.INFO]) is bool for s in ascents)
    # the CHSH maximum is closed form: no ascent, one objective evaluation
    chsh = [s[tracer.NAME] for s in spans[chsh_start:]]
    assert not any(name.endswith("_ascent") for name in chsh)
    assert chsh.count("optimize._ChshObjective.energy") == 1
    # both objectives are hooked under their own names, each wrapped once:
    # a subclass turned into an alias would be wrapped twice, nesting one
    # energy span in another and doubling optimize.energy_evals
    energies = {i for i, s in enumerate(spans) if s[tracer.NAME].endswith(".energy")}
    assert {spans[i][tracer.NAME] for i in energies} == {
        "optimize._SvetlichnyObjective.energy", "optimize._ChshObjective.energy"}
    assert not any(spans[i][tracer.PARENT] in energies for i in energies)


@pytest.mark.parametrize("state,user_witness,candidates,raised", [
    ("GHZ", False, 9, 9),
    ("GHZ", True, 12, 12),
    ("identity-W", False, 1, 0),
])
def test_search_traces_one_span_per_candidate(state, user_witness, candidates, raised):
    # bounds.candidates and bounds.window_errors count the spans of
    # _candidate_windows: the search must call it once per candidate it
    # tries, a skipped one included. GHZ has no entangled pair, so every
    # candidate raises; identity-W 0.82 fires on its first.
    tracer = _load_tracer()
    states = _package("states")
    traced = tracer.Tracer()
    traced.install()
    try:
        traced.op = 0
        rho = (states.make_reference(state) if state == "GHZ"
               else states.make_example(state, 0.82))
        witness = _package("operators").plane_witness("xz") if user_witness else None
        _package("bounds").detect_genuine(rho, witness=witness)
    finally:
        traced.op = None
        traced.uninstall()
    spans = [s for s in traced.spans if s[tracer.NAME] == "bounds._candidate_windows"]
    assert len(spans) == candidates
    assert sum(tracer._raised(s[tracer.INFO]) for s in spans) == raised


@pytest.mark.parametrize("workload", ["certify", "optimize", "reproduce"])
def test_every_benchmark_argv_parses(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.WORKLOADS[workload](401, str(tmp_path))
    assert ops
    parser = _package("cli").build_parser()
    for op in ops:
        parser.parse_args(op.argv)


@pytest.mark.parametrize("workload", ["certify", "optimize", "reproduce"])
def test_every_benchmark_op_passes_its_check(workload, monkeypatch, tmp_path, capsys):
    # a benchmark op whose output fails its oracle check counts as a failed
    # operation; here it fails the suite, naming the op and the check
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.WORKLOADS[workload](401, str(tmp_path))
    assert ops
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        capsys.readouterr()
        code = _package("cli").main(op.argv)
        stdout = capsys.readouterr().out
        try:
            op.check(code, stdout)
        except workloads.CheckFailed as exc:
            pytest.fail(f"{op.label}: check {exc} failed")


def test_benchmark_suite_passes_in_a_fresh_interpreter():
    # perfbench/test_perfbench.py checks embed_pair, the spectra of
    # full_report and the tracer's restore of hermitian_eigenvalues. Its pkg
    # fixture purges and re-imports svetlichny, which would disturb this
    # session's modules, so the suite runs in its own interpreter.
    root = PERFBENCH.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]

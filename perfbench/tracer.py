"""In-memory spans around the package's functions, for the traced run.

The tracer wraps functions from outside the package: every public
function of every module, plus a few private hooks that carry counts the
benchmark reports (candidate windows, optimizer ascents, objective
evaluations). A function is wrapped once and the wrapper is bound at
every name a module holds it under, so a call through `cli.detect_genuine`
and one through `bounds.detect_genuine` land in the same span name.
numpy's eigensolvers are wrapped as well and counted in the linalg layer,
so solve counts stay comparable if the package stops using its own
solver. A span records (name, layer, start, end, parent, operation,
info); a layer's self time is its spans' durations minus the part their
child spans cover.
"""

from __future__ import annotations

import collections
import hashlib
import importlib
import inspect
import json
import pkgutil
from time import perf_counter

import numpy as np

PACKAGE = "svetlichny"

# Private functions and methods that carry reported counts.
HOOKS = (
    ("bounds", "_candidate_windows"),
    ("optimize", "_gradient_ascent"),
    ("optimize", "_coordinate_ascent"),
    ("optimize", "_SvetlichnyObjective.energy"),
    ("optimize", "_SvetlichnyObjective.coefficient_gradients"),
    ("optimize", "_ChshObjective.energy"),
    ("optimize", "_ChshObjective.coefficient_gradients"),
)
PACKAGE_SOLVERS = ("linalg.hermitian_eigensystem",)
NUMPY_SOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")

NAME, LAYER, START, END, PARENT, OP, INFO = range(7)


def _matrices_info(args, kwargs):
    """(size, digest) of every matrix handed to an eigensolver."""
    m = args[0] if args else next(iter(kwargs.values()))
    a = np.asarray(m, dtype=complex)
    stack = a.reshape(-1, a.shape[-2], a.shape[-1])
    return tuple((x.shape[-1], hashlib.sha1(np.ascontiguousarray(x).tobytes()).digest())
                 for x in stack)


def _converged_info(result):
    return bool(result[3]) if isinstance(result, tuple) and len(result) >= 4 else None


class Tracer:
    """Owns the spans of one traced pass and the patches that produce them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str, before=None, after=None):
        spans, stack = self.spans, self.stack
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            info = before(args, kwargs) if before else None
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, info]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[INFO] = ("raised", type(exc).__name__)
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if after:
                span[INFO] = after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package's functions at every binding, and numpy's solvers."""
        package = importlib.import_module(PACKAGE)
        modules = [package] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                               for info in pkgutil.iter_modules(package.__path__)]
        wrappers: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(
                        value, f"{layer}.{value.__qualname__}", layer,
                        before=_matrices_info if f"{layer}.{attr}" in PACKAGE_SOLVERS else None)
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for layer, qualname in HOOKS:
            owner = by_name.get(layer)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = owner and getattr(owner, attr, None)
            if not inspect.isfunction(fn):
                continue
            after = _converged_info if qualname.endswith("_ascent") else None
            wrapped = self._wrap(fn, f"{layer}.{qualname}", layer, after=after)
            if path:
                self._set(owner, attr, wrapped)
            else:
                wrappers[id(fn)] = wrapped
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._set(module, attr, wrappers[id(value)])
        for attr in NUMPY_SOLVERS:
            self._set(np.linalg, attr, self._wrap(
                getattr(np.linalg, attr), f"linalg.numpy.{attr}", "linalg",
                before=_matrices_info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()

    def dump(self, path: str, extra: dict) -> None:
        names = sorted({span[NAME] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[index[s[NAME]], round((s[START] - t0) * 1e6, 3),
                 round((s[END] - t0) * 1e6, 3), s[PARENT], s[OP]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "columns": ["name", "start_us", "end_us", "parent", "op"],
                       "names": names, "spans": rows}, handle, separators=(",", ":"))


def _is_solver(span) -> bool:
    return span[NAME] in PACKAGE_SOLVERS or span[NAME].startswith("linalg.numpy.")


def _raised(info) -> bool:
    return isinstance(info, tuple) and bool(info) and info[0] == "raised"


def _solved(spans):
    """(operation, size, digest) of each matrix diagonalized; a solver inside a solver is
    the same solve."""
    for span in spans:
        parent = span[PARENT]
        if (_is_solver(span) and not (parent >= 0 and _is_solver(spans[parent]))
                and span[INFO] and not _raised(span[INFO])):
            for size, digest in span[INFO]:
                yield span[OP], size, digest


def solves_by_size(spans) -> collections.Counter:
    """Matrices diagonalized, by dimension."""
    return collections.Counter(size for _, size, _ in _solved(spans))


def layer_metrics(spans, scales: list[float]) -> dict[str, float]:
    """Per-operation counts and calibrated self times of one traced pass.

    scales[i] maps operation i's wall times to reference speed (calibrate.py).
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    self_ms = collections.Counter()
    calls = collections.Counter()
    inclusive_ms = collections.Counter()
    raised = collections.Counter()
    capped = 0
    eig_self = 0.0
    for i, span in enumerate(spans):
        scale = scales[span[OP]] * 1e3
        own = (span[END] - span[START] - child[i]) * scale
        self_ms[span[LAYER]] += own
        calls[span[NAME]] += 1
        if _raised(span[INFO]):
            raised[span[NAME]] += 1
        if _is_solver(span):
            eig_self += own
        if span[NAME].endswith("_ascent") and span[INFO] is False:
            capped += 1
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] != span[NAME]:
            inclusive_ms[span[NAME]] += (span[END] - span[START]) * scale
    solved = list(_solved(spans))
    sizes = collections.Counter(size for _, size, _ in solved)
    n = max(len(scales), 1)

    def count(*names: str) -> float:
        return sum(calls[name] for name in names) / n

    return {
        "linalg.eig8_calls": sizes[8] / n,
        "linalg.eig4_calls": sizes[4] / n,
        "linalg.eig_small_calls": sum(v for k, v in sizes.items() if k < 4) / n,
        "linalg.eig_self_ms": eig_self / n,
        "linalg.eig_distinct_ratio": len(set(solved)) / len(solved) if solved else 0.0,
        "linalg.self_ms": self_ms["linalg"] / n,
        "states.validate_calls": count("states.validate"),
        "states.self_ms": self_ms["states"] / n,
        "operators.plane_witness_calls": count("operators.plane_witness"),
        "operators.self_ms": self_ms["operators"] / n,
        "nonlocality.k_value_calls": count("nonlocality.k_value"),
        "nonlocality.horodecki_m_calls": count("nonlocality.horodecki_m"),
        "nonlocality.self_ms": self_ms["nonlocality"] / n,
        "bounds.product_spectrum_calls": count("bounds.product_spectrum"),
        "bounds.candidates": count("bounds._candidate_windows"),
        "bounds.window_errors": raised["bounds._candidate_windows"] / n,
        "bounds.self_ms": self_ms["bounds"] / n,
        "optimize.energy_evals": count("optimize._SvetlichnyObjective.energy",
                                       "optimize._ChshObjective.energy"),
        "optimize.gradient_evals": count(
            "optimize._SvetlichnyObjective.coefficient_gradients",
            "optimize._ChshObjective.coefficient_gradients"),
        "optimize.capped_calls": capped / n,
        "optimize.self_ms": self_ms["optimize"] / n,
        "reproduce.closed_forms_ms": inclusive_ms["reproduce.reproduce_closed_forms"] / n,
        "reproduce.erratum_ms": inclusive_ms["reproduce.erratum_entries"] / n,
        "reproduce.self_ms": self_ms["reproduce"] / n,
        "cli.self_ms": self_ms["cli"] / n,
    }


COUNT_METRICS = tuple(name for name in layer_metrics([], [1.0])
                      if not name.endswith("_ms"))

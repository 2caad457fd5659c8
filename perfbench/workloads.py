"""The three workloads: their inputs, built from a seed, and their checks.

One operation is one call of the command-line entry point with a list of
arguments. The program sees only those arguments and the files written
during set-up; every check runs afterwards against oracle.py.

- certify: `analyze --format json` on the worked families (9 seeded
  points inside each validity range), GHZ, W, W2, product-000, I/8 and
  random states of rank 2, 3, 4 and 8 (4 each), 66 calls. All eigenvalue
  work, no optimizer. Rank changes how much of the pair/witness search
  runs, so search order and caching show. The random states come from a
  fixed seed: single low-rank states cost either about 25 ms or about
  145 ms, and drawing them per seed moved the pass time by 8% between
  seeds, more than the machine noise.
- optimize: `optimize --format json` with fixed restarts and seed on both
  backends: the Svetlichny target on states that converge fast (GHZ,
  mixed-GHZ-2W 0.4, pure-W-class-1 0.238) and on states whose winning
  restart runs into the iteration cap (identity-W 0.82, GHZ-W-convex
  0.525), the CHSH target on Bell-Phi+ and identity-W 0.82 pair BC.
  Objective evaluations dominate; the seed only orders the calls.
- reproduce: `reproduce --table all` with the erratum record, checked
  against a snapshot of the tables and erratum. The closed-form general
  route calls the bounds window functions directly on one fixed pair, so
  a change that speeds up the certify search but slows this direct path
  shows here. The tables are fixed; the seed changes nothing.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

FAMILY_RANGES = {
    "pure-W-class-1": (0.0, 0.953939),
    "mixed-GHZ-2W": (0.0, 0.8),
    "maximal-slice": (0.0, math.pi / 2),
    "GHZ-W-convex": (0.4, 0.9),
    "identity-W": (0.816, 1.0),
}
GRID_POINTS = 9
RANDOM_RANKS = (2, 3, 4, 8)
STATES_PER_RANK = 4
RANDOM_STATES_SEED = 0
PAIRS = {"AB": ("A", "B"), "AC": ("A", "C"), "BC": ("B", "C")}
VERDICT_EXIT = {"genuine": 0, "inconclusive": 1, "not-applicable": 2}

OPTIMIZER_SEED = 1729
OPTIMIZER_RESTARTS = 4
BACKENDS = ("gradient", "coordinate")
SVETLICHNY_CASES = (
    ("GHZ", None), ("mixed-GHZ-2W", 0.4), ("pure-W-class-1", 0.238),
    ("identity-W", 0.82), ("GHZ-W-convex", 0.525),
)
CHSH_CASES = (("Bell-Phi+", None, None), ("identity-W", 0.82, ("B", "C")))
SVETLICHNY_QUANTUM_MAX = 4.0 * math.sqrt(2.0)
TSIRELSON = 2.0 * math.sqrt(2.0)

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reproduce_snapshot.json")


class CheckFailed(Exception):
    """An output disagreed with its oracle; the message names the check."""


def require(condition: bool, check: str) -> None:
    if not condition:
        raise CheckFailed(check)


@dataclass
class Op:
    """One CLI call: its arguments and the check run on (exit code, stdout).

    The check returns facts to tally (a verdict, a convergence flag) or
    raises CheckFailed. prepare, if given, runs untimed before the call.
    """

    label: str
    argv: list[str]
    check: Callable[[int, str], dict]
    prepare: Callable[[], None] | None = None


# ---------------------------------------------------------------------------
# certify

def _analyze_check(memo: dict, rho: np.ndarray, expected: str | None):
    def check(code: int, stdout: str) -> dict:
        payload = json.loads(stdout)
        verdict = payload["verdict"]
        outcome = verdict["outcome"]
        require(VERDICT_EXIT.get(outcome) == code, "certify.exit_code")
        if "negativity" not in memo:
            memo["negativity"] = {
                key: oracle.negativity(oracle.partial_trace(
                    rho, next(l for l in oracle.LABELS if l not in pair)))
                for key, pair in PAIRS.items()}
        for key, want in memo["negativity"].items():
            require(math.isclose(payload["negativity"][key], want, abs_tol=1e-9),
                    "certify.negativity")
        report = payload["report"]
        if report is not None:
            pair = tuple(payload["certificate_pair"])
            if pair not in memo:
                memo[pair] = oracle.certificate_spectra(rho, pair)
            for name, want in memo[pair].items():
                require(math.isclose(report["intermediates"][name], want, abs_tol=1e-8),
                        "certify.spectra")
        if outcome == "genuine":
            window = verdict["window"]
            require(not window["empty"] and window["lower"] < window["upper"]
                    and window["lower"] < verdict["value"] < window["upper"],
                    "certify.window")
        if expected is not None:
            require(outcome == expected, "certify.expected_outcome")
        return {"verdict": outcome}
    return check


def _analyze_op(label: str, source: list[str], rho: np.ndarray,
                expected: str | None = None) -> Op:
    return Op(label, ["analyze", *source, "--format", "json"],
              _analyze_check({}, rho, expected))


def certify_ops(seed: int, work: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    random_states = np.random.default_rng(RANDOM_STATES_SEED)
    ops = []
    for family, (low, high) in FAMILY_RANGES.items():
        for k in range(GRID_POINTS):
            x = low + (high - low) * (k + float(rng.uniform(0.05, 0.95))) / GRID_POINTS
            ops.append(_analyze_op(f"{family} {x:.4f}", ["--family", family, "--param", repr(x)],
                                   oracle.family_state(family, x)))
    for name in ("GHZ", "W", "W2", "product-000"):
        ops.append(_analyze_op(name, ["--ref", name], oracle.REFERENCE_STATES[name],
                               "not-applicable" if name == "product-000" else None))
    files = [("I/8", "identity.mat", np.eye(8, dtype=complex) / 8, "not-applicable")]
    for rank in RANDOM_RANKS:
        for i in range(STATES_PER_RANK):
            files.append((f"rank-{rank} #{i}", f"rank{rank}_{i}.mat",
                          oracle.random_state(random_states, rank), None))
    for label, name, rho, expected in files:
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(oracle.format_matrix(rho))
        ops.append(_analyze_op(label, ["--matrix", path], rho, expected))
    return ops


# ---------------------------------------------------------------------------
# optimize

def _optimize_check(memo: dict, rho: np.ndarray, target: str, exact: float | None):
    def check(code: int, stdout: str) -> dict:
        require(code == 0, "optimize.exit_code")
        payload = json.loads(stdout)
        value = payload["value"]
        vec = {name: s["vector"] for name, s in payload["settings"].items()}
        if target == "svetlichny":
            rebuilt = oracle.svetlichny_value(rho, vec["a"], vec["a'"], vec["b"],
                                              vec["b'"], vec["c"], vec["c'"])
            require(value <= SVETLICHNY_QUANTUM_MAX + 1e-9, "optimize.quantum_bound")
        else:
            rebuilt = oracle.chsh_value(rho, vec["A0"], vec["A1"], vec["B0"], vec["B1"])
            if "horodecki" not in memo:
                memo["horodecki"] = oracle.horodecki_chsh_max(rho)
            require(abs(value - memo["horodecki"]) <= 1e-6, "optimize.horodecki")
        require(abs(rebuilt - value) <= 1e-9, "optimize.rebuilt_value")
        if exact is not None:
            require(abs(value - exact) <= 1e-6, "optimize.known_optimum")
        return {"converged": bool(payload["converged"])}
    return check


def _optimize_op(label: str, source: list[str], extra: list[str], backend: str,
                 rho: np.ndarray, target: str, exact: float | None) -> Op:
    argv = ["optimize", *source, "--target", target, *extra, "--backend", backend,
            "--restarts", str(OPTIMIZER_RESTARTS), "--seed", str(OPTIMIZER_SEED),
            "--format", "json"]
    return Op(f"{target} {label} {backend}", argv, _optimize_check({}, rho, target, exact))


def _source(name: str, x: float | None) -> tuple[list[str], np.ndarray, str]:
    if x is None:
        return ["--ref", name], oracle.REFERENCE_STATES[name], name
    return ["--family", name, "--param", repr(x)], oracle.family_state(name, x), f"{name} {x}"


def optimize_ops(seed: int, work: str) -> list[Op]:
    ops = []
    for backend in BACKENDS:
        for name, x in SVETLICHNY_CASES:
            source, rho, label = _source(name, x)
            exact = SVETLICHNY_QUANTUM_MAX if name == "GHZ" else None
            ops.append(_optimize_op(label, source, [], backend, rho, "svetlichny", exact))
        for name, x, pair in CHSH_CASES:
            source, rho, label = _source(name, x)
            extra = []
            if pair is not None:
                extra = ["--pair", "".join(pair)]
                rho = oracle.partial_trace(rho, next(l for l in oracle.LABELS if l not in pair))
                label += " " + "".join(pair)
            exact = TSIRELSON if name == "Bell-Phi+" else None
            ops.append(_optimize_op(label, source, extra, backend, rho, "chsh", exact))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# reproduce

_MATCH_LINE = re.compile(r"table_(\d)\.csv \((\d+)/(\d+) rows match\)")


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_tables(out_dir: str) -> dict[str, list[dict]]:
    tables = {}
    for table in range(1, 6):
        with open(os.path.join(out_dir, f"table_{table}.csv"), encoding="utf-8") as handle:
            tables[str(table)] = [{k: _number(v) for k, v in row.items()}
                                  for row in csv.DictReader(handle)]
    return tables


def match_counts(stdout: str) -> dict[str, list[int]]:
    return {t: [int(m), int(n)] for t, m, n in _MATCH_LINE.findall(stdout)}


def reproduce_ops(seed: int, work: str) -> list[Op]:
    with open(SNAPSHOT, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    out_dir = os.path.join(work, "reproduce")
    erratum = os.path.join(out_dir, "erratum.json")

    def prepare() -> None:
        shutil.rmtree(out_dir, ignore_errors=True)

    def check(code: int, stdout: str) -> dict:
        require(code == 0, "reproduce.exit_code")
        require(match_counts(stdout) == snapshot["match_counts"], "reproduce.match_counts")
        require(oracle.numbers_close(read_tables(out_dir), snapshot["tables"], rtol=1e-8),
                "reproduce.tables")
        with open(erratum, encoding="utf-8") as handle:
            entries = json.load(handle)
        require(oracle.numbers_close(entries, snapshot["erratum"]), "reproduce.erratum")
        forms = sum(entry["kind"] == "closed-form" for entry in entries)
        require(snapshot["closed_forms_total"] - forms == snapshot["closed_forms_match"],
                "reproduce.closed_forms")
        return {}

    argv = ["reproduce", "--table", "all", "--out", out_dir, "--erratum", erratum]
    return [Op("reproduce all", argv, check, prepare)]


WORKLOADS = {"certify": certify_ops, "optimize": optimize_ops, "reproduce": reproduce_ops}

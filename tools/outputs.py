"""Write every output of a fixed set of `svet` invocations to a directory.

Usage:

    PYTHONPATH=src python tools/outputs.py OUT_DIR

The package comes from PYTHONPATH, so the same script runs against any
checkout, one that predates it included:

    PYTHONPATH=/path/to/other/src python tools/outputs.py OTHER_DIR
    diff -r OUT_DIR OTHER_DIR

Each invocation calls `svetlichny.cli.main` in this process. Its exit
code, stdout and stderr go to `OUT_DIR/<name>.txt`, and every file it
writes goes under `OUT_DIR/<name>/`. Commands run with a scratch working
directory and relative paths, so no absolute path reaches an output.

The set:
- `analyze` in text, JSON and CSV on 12 interior points of each worked
  family, GHZ, W, W2 and product-000, and 100 random states
  (`default_rng(2024)`, 20 each of ranks 1, 2, 3, 4 and 8, read from
  matrix files), each with default flags, `--pair AC`,
  `--pair AB --witness xz` and `--witness yz`: 1,968 calls;
- `reproduce --table all --erratum`;
- `optimize` in text and JSON on the 14 cases of the benchmark's
  optimize workload (both backends, 4 restarts, seed 1729);
- `optimize --target chsh` in text and JSON, with default flags, on 20
  random two-qubit states (`default_rng(2025)`, 5 each of ranks 1, 2, 3
  and 4, read from matrix files): 40 calls;
- in text and JSON, `optimize --ref Bell-Phi+ --target chsh --restarts 0
  --seed -1` (flags the exact target ignores), `optimize --ref GHZ` with
  default flags (the default restart count) and `analyze --ref GHZ
  --param 0.5` (a parameter without a family).
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile

import numpy as np

from svetlichny import cli

FAMILY_RANGES = {
    "pure-W-class-1": (0.0, 0.953939),
    "mixed-GHZ-2W": (0.0, 0.8),
    "maximal-slice": (0.0, np.pi / 2),
    "GHZ-W-convex": (0.4, 0.9),
    "identity-W": (0.816, 1.0),
}
FAMILY_POINTS = 12
REFERENCES = ("GHZ", "W", "W2", "product-000")
RANDOM_SEED = 2024
RANDOM_RANKS = (1, 2, 3, 4, 8)
STATES_PER_RANK = 20
PAIR_SEED = 2025
PAIR_RANKS = (1, 2, 3, 4)
PAIRS_PER_RANK = 5
ANALYZE_FLAGS = {
    "default": [],
    "pairAC": ["--pair", "AC"],
    "pairAB-xz": ["--pair", "AB", "--witness", "xz"],
    "yz": ["--witness", "yz"],
}
FORMATS = ("text", "json", "csv")
OPTIMIZE_CASES = (
    ("svetlichny", ["--ref", "GHZ"]),
    ("svetlichny", ["--family", "mixed-GHZ-2W", "--param", "0.4"]),
    ("svetlichny", ["--family", "pure-W-class-1", "--param", "0.238"]),
    ("svetlichny", ["--family", "identity-W", "--param", "0.82"]),
    ("svetlichny", ["--family", "GHZ-W-convex", "--param", "0.525"]),
    ("chsh", ["--ref", "Bell-Phi+"]),
    ("chsh", ["--family", "identity-W", "--param", "0.82", "--pair", "BC"]),
)
BACKENDS = ("gradient", "coordinate")
EXTRA_CASES = (
    ("optimize/chsh-ignored-flags", ["optimize", "--ref", "Bell-Phi+", "--target", "chsh",
                                     "--restarts", "0", "--seed", "-1"]),
    ("optimize/GHZ-default", ["optimize", "--ref", "GHZ"]),
    ("analyze/GHZ-param", ["analyze", "--ref", "GHZ", "--param", "0.5"]),
)


def _matrix_text(matrix: np.ndarray) -> str:
    """The matrix file grammar: a "dim N" header, then rows of "re,im" tokens."""
    rows = (" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) for row in matrix)
    return f"dim {len(matrix)}\n" + "\n".join(rows) + "\n"


def _random_states(seed: int, dim: int, ranks, per_rank: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    out = {}
    for rank in ranks:
        for k in range(per_rank):
            g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
            m = g @ g.conj().T
            out[f"rank{rank}-{k:02d}"] = m / np.trace(m).real
    return out


def _matrix_files(inputs: str, prefix: str, matrices) -> list[tuple[str, list[str]]]:
    """(name, state flags) of each matrix, written to inputs/<prefix><name>.mat."""
    sources = []
    for name, matrix in matrices.items():
        file = f"{prefix}{name}.mat"
        with open(os.path.join(inputs, file), "w", encoding="utf-8") as handle:
            handle.write(_matrix_text(matrix))
        sources.append((name, ["--matrix", os.path.join(os.path.basename(inputs), file)]))
    return sources


def _sources(inputs: str) -> list[tuple[str, list[str]]]:
    """(name, state flags) of every analyze input; random states are written under inputs."""
    sources = []
    for family, (lo, hi) in FAMILY_RANGES.items():
        for k in range(FAMILY_POINTS):
            param = lo + (hi - lo) * (k + 1) / (FAMILY_POINTS + 1)
            sources.append((f"{family}-{k:02d}", ["--family", family, "--param", repr(param)]))
    sources += [(name, ["--ref", name]) for name in REFERENCES]
    randoms = _random_states(RANDOM_SEED, 8, RANDOM_RANKS, STATES_PER_RANK)
    return sources + _matrix_files(inputs, "", randoms)


def _invocations(inputs: str) -> list[tuple[str, list[str]]]:
    os.makedirs(inputs)
    calls = []
    for name, state in _sources(inputs):
        for flag_name, flags in ANALYZE_FLAGS.items():
            for fmt in FORMATS:
                calls.append((f"analyze/{name}_{flag_name}.{fmt}",
                              ["analyze", *state, *flags, "--format", fmt]))
    calls.append(("reproduce/all-erratum", ["reproduce", "--table", "all", "--out", "tables",
                                            "--erratum", "tables/erratum.json"]))
    for k, (target, state) in enumerate(OPTIMIZE_CASES):
        for backend in BACKENDS:
            for fmt in ("text", "json"):
                calls.append((f"optimize/{k}-{target}-{backend}.{fmt}",
                              ["optimize", *state, "--target", target, "--backend", backend,
                               "--restarts", "4", "--seed", "1729", "--format", fmt]))
    pairs = _random_states(PAIR_SEED, 4, PAIR_RANKS, PAIRS_PER_RANK)
    for name, state in _matrix_files(inputs, "pair-", pairs):
        for fmt in ("text", "json"):
            calls.append((f"optimize/chsh-{name}.{fmt}",
                          ["optimize", *state, "--target", "chsh", "--format", fmt]))
    for name, argv in EXTRA_CASES:
        for fmt in ("text", "json"):
            calls.append((f"{name}.{fmt}", [*argv, "--format", fmt]))
    return calls


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(base, name), root)
            for base, _, names in os.walk(root) for name in names}


def run(out_dir: str) -> int:
    """Run every invocation and write its outputs under out_dir; returns the call count."""
    work = tempfile.mkdtemp(prefix="svet-outputs-")
    home = os.getcwd()
    try:
        calls = _invocations(os.path.join(work, "inputs"))
        os.chdir(work)
        for name, argv in calls:
            before = _files(work)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            target = os.path.join(out_dir, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(target + ".txt", "w", encoding="utf-8") as handle:
                handle.write(f"argv: {' '.join(argv)}\nexit: {code}\n"
                             f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
            for written in sorted(_files(work) - before):
                destination = os.path.join(target, written)
                os.makedirs(os.path.dirname(destination), exist_ok=True)
                shutil.move(os.path.join(work, written), destination)
    finally:
        os.chdir(home)
        shutil.rmtree(work)
    return len(calls)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = os.path.abspath(argv[0])
    if os.path.exists(out_dir) and os.listdir(out_dir):
        print(f"error: {out_dir} is not empty", file=sys.stderr)
        return 2
    count = run(out_dir)
    print(f"{count} invocations of {cli.__file__} -> {out_dir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

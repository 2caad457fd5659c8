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
directory and relative paths, and a warning is written as its category and
message alone, without the source file and line that raised it, so no
absolute path reaches an output.

The set:
- `analyze` in text, JSON and CSV on 12 interior points of each worked
  family, GHZ, W, W2 and product-000, and 100 random states
  (`default_rng(2024)`, 20 each of ranks 1, 2, 3, 4 and 8, read from
  matrix files), each with default flags, `--pair AC`,
  `--pair AB --witness xz` and `--witness yz`: 1,968 calls;
- `analyze --witness FILE` in text and JSON, with default flags and with
  `--pair AC`, on the 12 points of identity-W and of mixed-GHZ-2W and the
  20 random states of rank 2, for four witness files: the xz plane
  witness (which joins the search as `user`), 2·xy, 3e307·I (whose
  windows form, but whose lower bound can overflow) and 1e308·I (whose
  report is unavailable): 704 calls;
- `analyze --pair AB --witness FILE` in text and JSON on the 12 points of
  maximal-slice, with the witness 4·xz: its S_NL is large enough that the
  paper's detected admissible p window would end above 1: 24 calls;
- `analyze` in text, JSON and CSV on identity-W 0.82 read from the matrix
  file `état "q".mat`: the state label is the only free text in an
  output, and this name puts a non-ASCII letter and a double quote in it;
- `reproduce --table all --erratum`, and `reproduce --table 3` and
  `reproduce --table 5` without `--erratum` (one printed table alone,
  whose rows read their P_max from one stack);
- `optimize` in text and JSON on the 14 cases of the benchmark's
  optimize workload (both backends, 4 restarts, seed 1729);
- `optimize --target chsh` in text and JSON, with default flags, on 20
  random two-qubit states (`default_rng(2025)`, 5 each of ranks 1, 2, 3
  and 4, read from matrix files): 40 calls;
- in text and JSON, `optimize --ref Bell-Phi+ --target chsh --restarts 0
  --seed -1` (flags the exact target ignores), `optimize --ref GHZ` with
  default flags (the default restart count), `optimize --backend
  coordinate` at the default restart count on the ridge states
  GHZ-W-convex 0.525 and maximal-slice 1.3 (where restarts stop at the
  sweep cap) and `analyze --ref GHZ --param 0.5` (a parameter without a
  family);
- four invocations the parser rejects, each once: no arguments, an
  unknown command (`bogus`), an unknown flag (`analyze --bogus`) and a
  flag before the command (`--format json analyze`).

After the invocations, `OUT_DIR/library.txt` holds the `repr` of library
calls that no command reaches:
- on the marginal of each of the 60 family points on its family's
  designated pair (`states.EXAMPLE_PAIRS`): `horodecki_m` and
  `p_max_optimal`, and under each plane witness `trace_product`,
  `is_detected` and `s_nl_detected`, then `k_value` and `s_nl_new` at
  half the cap where the witness misses the pair;
- on each of the 60 family points: `detect_genuine` with default
  arguments, on pair AC alone and with the xz witness, and `full_report`
  at p = q = 0.5 under the xy witness on the family's designated pair;
- `svetlichny_expectation` or `chsh_expectation` at the best settings
  that `maximize_svetlichny` (on each backend) or `maximize_chsh` finds
  on the optimize cases above.
A call that raises writes its error's type and message.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
import warnings

import numpy as np

from svetlichny import bounds, cli, linalg, nonlocality, operators, optimize, states

FAMILY_RANGES = {
    "pure-W-class-1": (0.0, 0.953939),
    "mixed-GHZ-2W": (0.0, 0.8),
    "maximal-slice": (0.0, np.pi / 2),
    "GHZ-W-convex": (0.4, 0.9),
    "identity-W": (0.816, 1.0),
}
FAMILY_POINTS = 12
REFERENCES = ("GHZ", "W", "W2", "product-000")
NAMED_MATRIX = ('état "q"', "identity-W", 0.82)
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
WITNESS_FILES = {
    "xz": operators.plane_witness("xz"),
    "2xy": 2.0 * operators.plane_witness("xy"),
    "large": 3e307 * np.eye(4),
    "huge": 1e308 * np.eye(4),
}
WITNESS_SOURCES = ("identity-W-", "mixed-GHZ-2W-", "rank2-")  # name prefixes
WITNESS_FLAGS = {"default": [], "pairAC": ["--pair", "AC"]}
DETECTED_WINDOW_FILES = {"4xz": 4.0 * operators.plane_witness("xz")}
DETECTED_WINDOW_SOURCES = ("maximal-slice-",)
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
    ("optimize/GHZ-W-convex-0.525-coordinate-default",
     ["optimize", "--family", "GHZ-W-convex", "--param", "0.525", "--backend", "coordinate"]),
    ("optimize/maximal-slice-1.3-coordinate-default",
     ["optimize", "--family", "maximal-slice", "--param", "1.3", "--backend", "coordinate"]),
    ("analyze/GHZ-param", ["analyze", "--ref", "GHZ", "--param", "0.5"]),
)
PARSE_ERRORS = (
    ("errors/no-command", []),
    ("errors/unknown-command", ["bogus"]),
    ("errors/unknown-flag", ["analyze", "--bogus"]),
    ("errors/flag-before-command", ["--format", "json", "analyze"]),
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


def _witness_files(inputs: str, witnesses: dict) -> list[tuple[str, str]]:
    """(name, relative path) of each witness, written to inputs/witness-<name>.mat."""
    paths = []
    for name, matrix in witnesses.items():
        file = f"witness-{name}.mat"
        with open(os.path.join(inputs, file), "w", encoding="utf-8") as handle:
            handle.write(cli.format_matrix_text(matrix))
        paths.append((name, os.path.join(os.path.basename(inputs), file)))
    return paths


def _family_points(family: str) -> list[float]:
    """The family's FAMILY_POINTS interior points, evenly spaced over its range."""
    lo, hi = FAMILY_RANGES[family]
    return [lo + (hi - lo) * (k + 1) / (FAMILY_POINTS + 1) for k in range(FAMILY_POINTS)]


def _sources(inputs: str) -> list[tuple[str, list[str]]]:
    """(name, state flags) of every analyze input; random states are written under inputs."""
    sources = []
    for family in FAMILY_RANGES:
        for k, param in enumerate(_family_points(family)):
            sources.append((f"{family}-{k:02d}", ["--family", family, "--param", repr(param)]))
    sources += [(name, ["--ref", name]) for name in REFERENCES]
    randoms = _random_states(RANDOM_SEED, 8, RANDOM_RANKS, STATES_PER_RANK)
    return sources + _matrix_files(inputs, "", randoms)


def _invocations(inputs: str) -> list[tuple[str, list[str]]]:
    os.makedirs(inputs)
    calls = []
    sources = _sources(inputs)
    for name, state in sources:
        for flag_name, flags in ANALYZE_FLAGS.items():
            for fmt in FORMATS:
                calls.append((f"analyze/{name}_{flag_name}.{fmt}",
                              ["analyze", *state, *flags, "--format", fmt]))
    witnesses = _witness_files(inputs, WITNESS_FILES)
    for name, state in sources:
        if not name.startswith(WITNESS_SOURCES):
            continue
        for witness, path in witnesses:
            for flag_name, flags in WITNESS_FLAGS.items():
                for fmt in ("text", "json"):
                    calls.append((f"analyze/{name}_witness-{witness}_{flag_name}.{fmt}",
                                  ["analyze", *state, "--witness", path, *flags,
                                   "--format", fmt]))
    detected = _witness_files(inputs, DETECTED_WINDOW_FILES)
    for name, state in sources:
        if not name.startswith(DETECTED_WINDOW_SOURCES):
            continue
        for witness, path in detected:
            for fmt in ("text", "json"):
                calls.append((f"analyze/{name}_witness-{witness}_pairAB.{fmt}",
                              ["analyze", *state, "--pair", "AB", "--witness", path,
                               "--format", fmt]))
    name, family, param = NAMED_MATRIX
    named = {name: states.make_example(family, param).matrix}
    for _, state in _matrix_files(inputs, "", named):
        for fmt in FORMATS:
            calls.append((f"analyze/named-matrix.{fmt}", ["analyze", *state, "--format", fmt]))
    calls.append(("reproduce/all-erratum", ["reproduce", "--table", "all", "--out", "tables",
                                            "--erratum", "tables/erratum.json"]))
    for table in ("3", "5"):
        calls.append((f"reproduce/table-{table}", ["reproduce", "--table", table, "--out", "tables"]))
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
    return calls + list(PARSE_ERRORS)


def _outcome(call, *args) -> str:
    """The repr of call(*args), or its error's type and message."""
    try:
        return repr(call(*args))
    except ValueError as exc:  # every package error is one
        return f"{type(exc).__name__}: {exc}"


def _case_state(flags: list[str]) -> states.DensityMatrix:
    """The state an optimize case's flags name: --ref, or --family and --param, then --pair."""
    given = dict(zip(flags[::2], flags[1::2]))
    if "--ref" in given:
        rho = states.make_reference(given["--ref"])
    else:
        rho = states.make_example(given["--family"], float(given["--param"]))
    return states.reduce_to_pair(rho, tuple(given["--pair"])) if "--pair" in given else rho


def _library_lines() -> list[str]:
    """The lines of library.txt, one call each."""
    lines = []
    xy, xz = operators.plane_witness("xy"), operators.plane_witness("xz")
    for family in FAMILY_RANGES:
        params = _family_points(family)
        report_cfg = bounds.BoundConfig(p=0.5, q=0.5, witness=xy,
                                        reduced_pair=states.EXAMPLE_PAIRS[family])
        rhos = states.make_examples(family, params)
        for param, rho in zip(params, rhos):
            head = f"{family} {param!r}"
            lines += [f"{head} detect_genuine: {_outcome(bounds.detect_genuine, rho)}",
                      f"{head} detect_genuine AC: "
                      f"{_outcome(bounds.detect_genuine, rho, ('A', 'C'))}",
                      f"{head} detect_genuine xz: "
                      f"{_outcome(bounds.detect_genuine, rho, None, xz)}",
                      f"{head} full_report xy: {_outcome(bounds.full_report, rho, report_cfg)}"]
        pairs = states.reduce_to_pairs(rhos, states.EXAMPLE_PAIRS[family])
        for param, rho in zip(params, pairs):
            lines += [f"{family} {param!r} {quantity.__name__}: {_outcome(quantity, rho)}"
                      for quantity in (nonlocality.horodecki_m, nonlocality.p_max_optimal)]
            for plane in operators.PLANES:
                w = operators.plane_witness(plane)
                head = f"{family} {param!r} {plane}"
                pairing = float(linalg.trace_product(w, rho.matrix))
                detected = nonlocality.is_detected(rho, w)
                lines += [f"{head} trace_product: {pairing!r}",
                          f"{head} is_detected: {detected!r}",
                          f"{head} s_nl_detected: {_outcome(nonlocality.s_nl_detected, rho, w)}"]
                if not detected:
                    lines.append(f"{head} k_value: {_outcome(nonlocality.k_value, rho, w)}")
                    lines.append(f"{head} s_nl_new: {_outcome(_half_cap_strength, rho, w)}")
    for target, flags in OPTIMIZE_CASES:
        rho = _case_state(flags)
        head = f"{target} {' '.join(flags)}"
        if target == "chsh":
            optimum = optimize.maximize_chsh(rho)
            settings = operators.ChshSettings(*map(operators.spin_observable, optimum.vectors))
            lines.append(f"{head} chsh_expectation: "
                         f"{_outcome(optimize.chsh_expectation, rho, settings)}")
            continue
        for backend in BACKENDS:
            optimum = optimize.maximize_svetlichny(rho, restarts=4, seed=1729, backend=backend)
            settings = operators.SvetlichnySettings(*optimum.vectors)
            lines.append(f"{head} {backend} svetlichny_expectation: "
                         f"{_outcome(optimize.svetlichny_expectation, rho, settings)}")
    return lines


def _half_cap_strength(rho: states.DensityMatrix, w: np.ndarray):
    """s_nl_new at half the cap, the weight a report takes."""
    cap = nonlocality.r_cap(nonlocality.k_value(rho, w), nonlocality.p_max_optimal(rho))
    return nonlocality.s_nl_new(rho, w, 0.5 * cap)


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(base, name), root)
            for base, _, names in os.walk(root) for name in names}


def run(out_dir: str) -> int:
    """Run every invocation and write its outputs under out_dir; returns the call count."""
    work = tempfile.mkdtemp(prefix="svet-outputs-")
    home = os.getcwd()
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
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
    with open(os.path.join(out_dir, "library.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(_library_lines()) + "\n")
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

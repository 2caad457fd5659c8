"""Command-line front end: parse state specs, run analyses, emit reports.

Three subcommands. analyze resolves a three-qubit state, prints the
per-pair negativities, the certificate report for one pair and witness,
and the verdict of the full certificate search; its exit code encodes
the verdict (0 genuine, 1 inconclusive, 2 not-applicable). optimize runs
the measurement-settings ascent for the Svetlichny objective, or solves
the CHSH objective in closed form.
reproduce regenerates the bundled reference tables as text and CSV files
and can export the erratum record; discrepancies never change its exit
code.

States come from a family name with a parameter, a bundled reference
name, or a matrix file. The file grammar is one header line "dim N",
then N rows of N whitespace-separated "re,im" tokens; '#' starts a
comment. Parse failures exit 64, semantically invalid inputs exit 65.
The parser is built once, at import, and main dispatches on the command
name to the module's cmd_* function.

The certificate section of analyze evaluates its bounds at the midpoints
of the genuine windows (falling back to 0.5 where a window is empty), so
the printed interval is always attainable by the reported parameters.
The undetected-regime strength is printed at the default weight r, half
its cap; the certificate reads only its K, so no weight is asked for.
JSON output is the records: BoundsReport and Verdict, fields in declaration order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import operators, reproduce, states
from .bounds import CANDIDATE_ERRORS, Window, midpoint_report, pair_records, search_records
from .operators import OperatorError
from .optimize import (
    BACKENDS,
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    OptimizerError,
    maximize_chsh,
    maximize_svetlichny,
)
from .states import DensityMatrix, StateError

EXIT_GENUINE = 0
EXIT_INCONCLUSIVE = 1
EXIT_NOT_APPLICABLE = 2
EXIT_PARSE = 64
EXIT_INVALID = 65
EXIT_IO = 74

_VERDICT_EXITS = {
    "genuine": EXIT_GENUINE,
    "inconclusive": EXIT_INCONCLUSIVE,
    "not-applicable": EXIT_NOT_APPLICABLE,
}

_PAIRS = {"AB": ("A", "B"), "AC": ("A", "C"), "BC": ("B", "C")}


class CliParseError(Exception):
    """Anything that makes the invocation unreadable, flags or files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliParseError(message)


# ---------------------------------------------------------------------------
# Matrix file grammar.

def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the "dim N" header plus N rows of N "re,im" tokens."""
    rows = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            head = line.split()
            if len(head) != 2 or head[0] != "dim":
                raise CliParseError(f"line {lineno}: expected 'dim N', got {raw!r}")
            try:
                dim = int(head[1])
            except ValueError:
                raise CliParseError(f"line {lineno}: bad dimension {head[1]!r}") from None
            if dim <= 0:
                raise CliParseError(f"line {lineno}: dimension must be positive")
            continue
        tokens = line.split()
        if len(tokens) != dim:
            raise CliParseError(
                f"line {lineno}: expected {dim} entries, got {len(tokens)}")
        entries = []
        for token in tokens:
            parts = token.split(",")
            if len(parts) != 2:
                raise CliParseError(f"line {lineno}: expected 're,im', got {token!r}")
            try:
                entries.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise CliParseError(f"line {lineno}: bad number in {token!r}") from None
        rows.append(entries)
    if dim is None:
        raise CliParseError("empty matrix file")
    if len(rows) != dim:
        raise CliParseError(f"expected {dim} rows, got {len(rows)}")
    return np.array(rows, dtype=complex)


def format_matrix_text(matrix: np.ndarray) -> str:
    """Inverse of parse_matrix_text, entries at full precision."""
    m = np.asarray(matrix, dtype=complex)
    lines = [f"dim {m.shape[0]}"]
    for row in m:
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Input resolution.

def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from None


def _qubits_for_dim(dim: int) -> int:
    if dim == 4:
        return 2
    if dim == 8:
        return 3
    raise StateError(f"expected a 4x4 or 8x8 density matrix, got {dim}x{dim}")


def _resolve_state(args) -> tuple[DensityMatrix, str]:
    sources = [name for name in ("family", "ref", "matrix")
               if getattr(args, name, None) is not None]
    if len(sources) != 1:
        raise CliParseError("give exactly one of --family, --ref, --matrix")
    if (args.family is None) != (args.param is None):
        raise CliParseError("--family needs --param" if args.param is None
                            else "--param needs --family")
    if args.family is not None:
        rho = states.make_example(args.family, args.param)
        return rho, f"{args.family}({args.param:g})"
    if args.ref is not None:
        return states.make_reference(args.ref), args.ref
    matrix = parse_matrix_text(_read_file(args.matrix))
    rho = states.validate(matrix, _qubits_for_dim(matrix.shape[0]))
    return rho, args.matrix


def _resolve_witness(choice: str | None) -> tuple[str, np.ndarray] | None:
    if choice is None:
        return None
    if choice in operators.PLANES:
        return choice, operators.plane_witness(choice)
    return "user", operators.witness_matrix(parse_matrix_text(_read_file(choice)))


def _pair_arg(value: str) -> tuple[str, str]:
    key = value.upper().replace(",", "").replace("-", "")
    if key not in _PAIRS:
        raise argparse.ArgumentTypeError(f"pair must be one of AB, AC, BC, got {value!r}")
    return _PAIRS[key]


# ---------------------------------------------------------------------------
# Serialization helpers.

def _fields(record) -> dict:
    """json's default: a dataclass's fields in declaration order, TypeError for anything else."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _window_str(window: Window) -> str:
    tag = "empty" if window.empty else "nonempty"
    return f"[{window.lower:.9g}, {window.upper:.9g}] ({tag})"


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    rho, label = _resolve_state(args)
    witness_spec = _resolve_witness(args.witness)
    pair = args.pair if args.pair is not None else ("B", "C")
    cert_witness_label, cert_witness = witness_spec if witness_spec else \
        ("xy", operators.plane_witness("xy"))

    # one record per pair serves the negativity table, the certificate and the search
    records = dict(pair_records(rho))
    # exported only once the state has passed the three-qubit rule
    if args.export is not None:
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(format_matrix_text(rho.matrix))
    negs = {key: records[ij].negativity for key, ij in _PAIRS.items()}
    search_witness = cert_witness if witness_spec and witness_spec[0] == "user" else None
    searched = records.items() if args.pair is None else [(args.pair, records[args.pair])]
    verdict = search_records(searched, witness=search_witness)

    report = None
    report_error = None
    try:
        report = midpoint_report(records[pair], cert_witness)
    except CANDIDATE_ERRORS as exc:
        report_error = str(exc)

    if args.format == "json":
        payload = {
            "state": label,
            "negativity": negs,
            "certificate_pair": pair,
            "certificate_witness": cert_witness_label,
            "report": report,
            "report_error": report_error,
            "verdict": verdict,
        }
        print(json.dumps(payload, indent=2, default=_fields))
    elif args.format == "csv":
        window = verdict.window
        columns = (
            ("outcome", verdict.outcome),
            ("route", verdict.route or ""),
            ("parameter", verdict.parameter or ""),
            ("value", "" if verdict.value is None else f"{verdict.value:.10g}"),
            ("window_lower", "" if window is None else f"{window.lower:.10g}"),
            ("window_upper", "" if window is None else f"{window.upper:.10g}"),
            ("pair", "" if verdict.pair is None else "".join(verdict.pair)),
            ("witness", verdict.witness_label or ""),
            *((f"neg_{key}", f"{neg:.10g}") for key, neg in negs.items()),
        )
        print(",".join(name for name, _ in columns))
        print(",".join(value for _, value in columns))
    else:
        print(f"state: {label}")
        print("negativity:")
        for key in ("AB", "AC", "BC"):
            print(f"  {key[0]}-{key[1]}: {negs[key]:.9g}")
        print(f"certificate (pair {pair[0]}-{pair[1]}, witness {cert_witness_label}):")
        if report is None:
            print(f"  unavailable: {report_error}")
        else:
            print(f"  regime: {report.regime}")
            inter = report.intermediates
            if report.regime == "detected":
                print(f"  strength: s_nl = {inter['s_nl']:.9g}")
            else:
                print(f"  strength: s_nl_new = {inter['s_nl_new']:.9g} "
                      f"(k = {inter['k']:.9g}, p_max = {inter['p_max']:.9g}, "
                      f"r = {inter['r']:.9g})")
            print(f"  bounds at p = {report.p:.9g}, q = {report.q:.9g}: "
                  f"lower {report.sv_lower:.9g}, upper {report.sv_upper:.9g}")
            print(f"  p window: {_window_str(report.p_window)}  "
                  f"genuine: {_window_str(report.genuine_p_window)}")
            print(f"  q window: {_window_str(report.q_window)}  "
                  f"genuine: {_window_str(report.genuine_q_window)}")
        print(f"verdict: {verdict.outcome}")
        if verdict.outcome == "genuine":
            print(f"  route {verdict.route}, pair "
                  f"{verdict.pair[0]}-{verdict.pair[1]}, witness "
                  f"{verdict.witness_label}")
            print(f"  parameter {verdict.parameter} = {verdict.value:.9g} "
                  f"in genuine window {_window_str(verdict.window)}")
    return _VERDICT_EXITS[verdict.outcome]


# ---------------------------------------------------------------------------
# optimize

def _spherical(vector: np.ndarray) -> tuple[float, float]:
    z = float(np.clip(vector[2], -1.0, 1.0))
    return float(np.arccos(z)), float(np.arctan2(vector[1], vector[0]))


def cmd_optimize(args) -> int:
    rho, label = _resolve_state(args)
    if args.pair is not None and (args.target != "chsh" or rho.qubits != 3):
        raise CliParseError("--pair applies only to the chsh target on a three-qubit state")
    ascent = {}  # seed and backend shape only the ascent, so only its report names them
    if args.target == "svetlichny":
        ascent = {"seed": args.seed, "backend": args.backend}
        optimum = maximize_svetlichny(rho, restarts=args.restarts, **ascent)
        names = ("a", "a'", "b", "b'", "c", "c'")
    else:
        if rho.qubits == 3:
            if args.pair is None:
                raise StateError("the chsh target needs --pair for a three-qubit state")
            rho = states.reduce_to_pair(rho, args.pair)
            label = f"{label} reduced to {args.pair[0]}-{args.pair[1]}"
        optimum = maximize_chsh(rho)
        names = ("A0", "A1", "B0", "B1")

    named = zip(names, (unit.as_array() for unit in optimum.vectors))
    vectors = [(name, vec, *_spherical(vec)) for name, vec in named]
    at_best = sum(v >= optimum.value - 1e-6 for v in optimum.restart_values)
    spread = optimum.value - min(optimum.restart_values)
    if args.format == "json":
        payload = {
            "state": label,
            "target": args.target,
            "value": optimum.value,
            "iterations_used": optimum.iterations_used,
            "converged": optimum.converged,
            "restarts_at_best": at_best,
            "restarts_capped": optimum.restarts_capped,
            "restart_spread": spread,
            **ascent,
            "settings": {name: {"vector": [float(x) for x in vec],
                                "theta": theta, "phi": phi}
                         for name, vec, theta, phi in vectors},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"state: {label}")
        print(f"target: {args.target}")
        print(f"optimum: {optimum.value:.9f}")
        print(f"iterations: {optimum.iterations_used}, converged: "
              f"{optimum.converged}, restarts: {len(optimum.restart_values)}"
              + "".join(f", {key}: {value}" for key, value in ascent.items()))
        print(f"restarts within 1e-6 of best: {at_best}, capped: "
              f"{optimum.restarts_capped}, spread: {spread:.3g}")
        for name, vec, theta, phi in vectors:
            print(f"  {name}: [{vec[0]: .6f} {vec[1]: .6f} {vec[2]: .6f}]  "
                  f"theta = {theta:.6f}, phi = {phi:.6f}")
    return 0


# ---------------------------------------------------------------------------
# reproduce

def cmd_reproduce(args) -> int:
    every = sorted(reproduce.TABLES)
    shown = every if args.table == "all" else [int(args.table)]
    os.makedirs(args.out, exist_ok=True)
    # the erratum covers every table, so it needs all five
    tables = {table: reproduce.reproduce_table(table)
              for table in (every if args.erratum is not None else shown)}
    for table in shown:
        rows = tables[table]
        text = reproduce.render_table_text(table, rows)
        csv = reproduce.render_table_csv(rows)
        base = os.path.join(args.out, f"table_{table}")
        with open(base + ".txt", "w", encoding="utf-8") as handle:
            handle.write(text)
        with open(base + ".csv", "w", encoding="utf-8") as handle:
            handle.write(csv)
        matches = sum(row.status == reproduce.STATUS_MATCH for row in rows)
        print(text, end="")
        print(f"-> {base}.txt, {base}.csv ({matches}/{len(rows)} rows match)")
    if args.erratum is not None:
        forms = {family: reproduce.reproduce_closed_forms(family) for family in every}
        with open(args.erratum, "w", encoding="utf-8") as handle:
            json.dump(reproduce.erratum_entries(tables, forms), handle, indent=2)
            handle.write("\n")
        print(f"-> {args.erratum}")
    return 0


# ---------------------------------------------------------------------------
# Wiring.

def _add_state_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=states.FAMILIES,
                     help="worked example family")
    sub.add_argument("--param", type=float,
                     help="family parameter (with --family)")
    sub.add_argument("--ref", choices=states.REFERENCE_NAMES,
                     help="bundled reference state")
    sub.add_argument("--matrix",
                     help="matrix file path, or - for stdin")


def build_parser() -> _Parser:
    # allow_abbrev=False everywhere: a prefix such as --r must not silently
    # stand for --ref or --restarts
    parser = _Parser(prog="svet", allow_abbrev=False,
                     description="genuine tripartite nonlocality certificates")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", allow_abbrev=False,
                                  help="negativities, certificate report, verdict")
    _add_state_flags(analyze)
    analyze.add_argument("--pair", type=_pair_arg,
                         help="restrict to one reduced pair (AB, AC, BC)")
    analyze.add_argument("--witness",
                         help="plane (xy, xz, yz) or a 4x4 matrix file; "
                              "a file is also added to the verdict search")
    analyze.add_argument("--format", choices=("text", "json", "csv"),
                         default="text")
    analyze.add_argument("--export",
                         help="write the resolved state to this matrix file")

    optimize = commands.add_parser(
        "optimize", allow_abbrev=False, help="maximize an objective over settings",
        description="The chsh maximum is exact; --restarts, --backend and --seed "
                    "apply to the svetlichny target only.")
    _add_state_flags(optimize)
    optimize.add_argument("--target", choices=("svetlichny", "chsh"),
                          default="svetlichny")
    optimize.add_argument("--pair", type=_pair_arg,
                          help="reduced pair for chsh on a three-qubit state")
    optimize.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    optimize.add_argument("--backend", choices=BACKENDS, default="gradient")
    optimize.add_argument("--seed", type=int, default=DEFAULT_SEED)
    optimize.add_argument("--format", choices=("text", "json"), default="text")

    repro = commands.add_parser("reproduce", allow_abbrev=False,
                                help="regenerate the reference tables")
    repro.add_argument("--table", choices=("1", "2", "3", "4", "5", "all"),
                       default="all")
    repro.add_argument("--out", default=".",
                       help="directory for the text and CSV reports")
    repro.add_argument("--erratum",
                       help="also write the erratum record to this JSON file")
    return parser


# Built once per process: parsing leaves the parser unchanged, and building
# it costs about as much as a small analysis.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # looked up at call time, so a cmd_* rebound on the module is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (StateError, OperatorError, OptimizerError, *CANDIDATE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

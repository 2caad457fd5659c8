"""Boundary inputs at the command line: every answer is an exit code, one error line or clean JSON.

A user witness file may hold any finite 4x4 Hermitian matrix, from
subnormal entries to ones near the largest double. Whatever its size,
`svet analyze --witness FILE --format json` must exit with a verdict
code (0, 1 or 2) or the invalid-input code (65), print at most one
`error:` line, and print JSON that holds no NaN or infinity. A state
file given to `--matrix` may hold a density matrix of any rank, one off
by a trace roundoff or by a scale of 1e+-300, one with an eigenvalue
just inside the positivity tolerance, or t I for any finite t > 0; the
same holds, the parse code (64) allowed too. A numpy warning fails the
suite on its own, as pyproject.toml turns warnings into errors.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from svetlichny import cli
import corpus

EXIT_CODES = {cli.EXIT_GENUINE, cli.EXIT_INCONCLUSIVE, cli.EXIT_NOT_APPLICABLE,
              cli.EXIT_INVALID}
MATRIX_EXIT_CODES = EXIT_CODES | {cli.EXIT_PARSE}
UNIT = st.floats(-1.0, 1.0)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


@st.composite
def witness_directions(draw) -> np.ndarray:
    """A random Hermitian matrix scaled to max-abs 1, a random real diagonal, or +-I."""
    kind = draw(st.sampled_from(["hermitian", "diagonal", "identity"]))
    if kind == "hermitian":
        parts = np.array(draw(st.lists(UNIT, min_size=32, max_size=32))).reshape(2, 4, 4)
        a = parts[0] + 1j * parts[1]
        h = a + a.conj().T
        peak = np.abs(h).max()
        return h / peak if peak > 0.0 else np.eye(4)
    if kind == "diagonal":
        return np.diag(draw(st.lists(UNIT, min_size=4, max_size=4))).astype(complex)
    return draw(st.sampled_from([1.0, -1.0])) * np.eye(4, dtype=complex)


@st.composite
def state_matrices(draw) -> np.ndarray:
    """A random 8x8 density matrix of rank 1-8 as drawn, scaled by 1 +- 1e-11 or 1e+-300, or
    with its smallest eigenvalue moved to -5e-10 (its largest takes up the trace); or t I."""
    kind = draw(st.sampled_from(["drawn", "scaled", "shifted", "identity"]))
    if kind == "identity":
        return draw(st.floats(5e-324, 1e308)) * np.eye(8, dtype=complex)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rho = corpus.random_density(rng, 8, draw(st.integers(1, 8)))
    if kind == "scaled":
        return draw(st.sampled_from([1.0 + 1e-11, 1.0 - 1e-11, 1e300, 1e-300])) * rho
    if kind == "shifted":
        values, vectors = np.linalg.eigh(rho)
        values[-1] += values[0] + 5e-10
        values[0] = -5e-10
        return (vectors * values) @ vectors.conj().T
    return rho


def _analyze(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_any_witness_scale_gives_an_exit_code_and_finite_json(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    state_file = root / "rank3.mat"
    state_file.write_text(cli.format_matrix_text(
        corpus.random_density(np.random.default_rng(2718), 8, 3)))
    witness_file = root / "w.mat"
    sources = (["--family", "identity-W", "--param", "0.82"], ["--ref", "GHZ"],
               ["--matrix", str(state_file)])

    @given(direction=witness_directions(), scale=st.floats(5e-324, 1e308))
    @settings(max_examples=120, deadline=None)
    def check(direction, scale):
        witness_file.write_text(cli.format_matrix_text(scale * direction))
        for source in sources:
            code, out, err = _analyze(["analyze", *source, "--witness", str(witness_file),
                                       "--format", "json"])
            assert code in EXIT_CODES, (source, code, err)
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
            if err == "":
                json.loads(out, parse_constant=_reject_constant)

    check()


def test_any_state_file_gives_an_exit_code_and_finite_json(tmp_path_factory):
    state_file = tmp_path_factory.mktemp("boundary") / "state.mat"

    @given(matrix=state_matrices())
    @settings(max_examples=600, deadline=None)
    def check(matrix):
        state_file.write_text(cli.format_matrix_text(matrix))
        code, out, err = _analyze(["analyze", "--matrix", str(state_file), "--format", "json"])
        assert code in MATRIX_EXIT_CODES, (code, err)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
        if err == "":
            json.loads(out, parse_constant=_reject_constant)

    check()

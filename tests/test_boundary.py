"""Boundary inputs at the command line: every answer is an exit code, one error line or clean JSON.

A user witness file may hold any finite 4x4 Hermitian matrix, from
subnormal entries to ones near the largest double. Whatever its size,
`svet analyze --witness FILE --format json` must exit with a verdict
code (0, 1 or 2) or the invalid-input code (65), print at most one
`error:` line, and print JSON that holds no NaN or infinity. A numpy
warning fails the suite on its own, as pyproject.toml turns warnings into
errors.
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

"""Independent numpy references for checking the program's outputs.

Nothing here imports the package under test: every state, reduction,
operator and spectrum is rebuilt from its textbook definition with
numpy, so a defect in the package cannot hide by being checked against
itself. Basis convention (shared with the package's documentation):
|abc> sits at index 4a + 2b + c, qubits labelled A, B, C.
"""

from __future__ import annotations

import math

import numpy as np

LABELS = ("A", "B", "C")
ZERO_TOL = 1e-9

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_S2 = math.sqrt(2.0)
_S3 = math.sqrt(3.0)


def _ket(*amplitudes: tuple[int, complex], dim: int = 8) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    for index, amp in amplitudes:
        v[index] = amp
    return v


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


_W1 = _ket((1, 1 / _S3), (2, 1 / _S3), (4, 1 / _S3))
_W2 = _ket((3, 1 / _S3), (5, 1 / _S3), (6, 1 / _S3))
_GHZ = _ket((0, 1 / _S2), (7, 1 / _S2))

REFERENCE_STATES = {
    "GHZ": _proj(_GHZ),
    "W": _proj(_W1),
    "W2": _proj(_W2),
    "product-000": _proj(_ket((0, 1.0))),
    "Bell-Phi+": _proj(_ket((0, 1 / _S2), (3, 1 / _S2), dim=4)),
}


def family_state(family: str, x: float) -> np.ndarray:
    """The five worked families, written out from their definitions."""
    if family == "pure-W-class-1":
        return _proj(_ket((0, x), (5, 0.3), (6, math.sqrt(0.91 - x * x))))
    if family == "mixed-GHZ-2W":
        return 0.2 * _proj(_GHZ) + x * _proj(_W1) + (0.8 - x) * _proj(_W2)
    if family == "maximal-slice":
        return _proj(_ket((0, 1 / _S2), (6, math.cos(x) / _S2), (7, math.sin(x) / _S2)))
    if family == "GHZ-W-convex":
        return x * _proj(_ket((2, 1 / _S2), (5, 1 / _S2))) + (1 - x) * _proj(_W1)
    if family == "identity-W":
        return (1 - x) * np.eye(8, dtype=complex) / 8 + x * _proj(_W1)
    raise ValueError(f"unknown family {family!r}")


def random_state(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Three-qubit density matrix of the given rank from an 8 x rank Ginibre block."""
    g = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def partial_trace(rho: np.ndarray, traced: str) -> np.ndarray:
    """Reduced two-qubit state; survivors keep ascending label order."""
    k = LABELS.index(traced)
    keep = [q for q in range(3) if q != k]
    idx = np.arange(8)
    bits = np.stack([(idx >> 2) & 1, (idx >> 1) & 1, idx & 1])
    out = np.zeros((4, 4), dtype=complex)
    for row in range(8):
        for col in range(8):
            if bits[k, row] == bits[k, col]:
                out[2 * bits[keep[0], row] + bits[keep[1], row],
                    2 * bits[keep[0], col] + bits[keep[1], col]] += rho[row, col]
    return out


def partial_transpose_second(rho_pair: np.ndarray) -> np.ndarray:
    """Transpose the second factor: <a b|X|c d> -> <a d|X|c b>."""
    out = np.empty((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    out[2 * a + b, 2 * c + d] = rho_pair[2 * a + d, 2 * c + b]
    return out


def negativity(rho_pair: np.ndarray) -> float:
    values = np.linalg.eigvalsh(partial_transpose_second(rho_pair))
    return float(-values[values < 0.0].sum())


def embed_pair(op_pair: np.ndarray, pair: tuple[str, str]) -> np.ndarray:
    """Lift a 4x4 operator on an ordered pair to 8x8, identity on the spectator.

    Built by index arithmetic over all (row, col) at once: entry (r, c) is
    op[pair bits of r, pair bits of c] when r and c agree on the spectator.
    """
    first, second = (LABELS.index(label) for label in pair)
    spectator = 3 - first - second
    idx = np.arange(8)
    bit = lambda q: (idx >> (2 - q)) & 1  # noqa: E731
    sub = 2 * bit(first) + bit(second)
    same = bit(spectator)[:, None] == bit(spectator)[None, :]
    return np.where(same, np.asarray(op_pair)[sub[:, None], sub[None, :]], 0.0)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(m)
    return (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T


def certificate_spectra(rho: np.ndarray, pair: tuple[str, str]) -> dict[str, float]:
    """The lambda_* intermediates of the certificate report, from eigvalsh."""
    spectator = next(label for label in LABELS if label not in pair)
    embedded = embed_pair(partial_trace(rho, spectator), pair)
    emb = np.linalg.eigvalsh(embedded)
    nonzero = emb[np.abs(emb) > ZERO_TOL]
    root = psd_sqrt(rho)
    prod = np.linalg.eigvalsh(root @ embedded @ root)
    state = np.linalg.eigvalsh(rho)
    return {
        "lambda_min_product": float(prod[0]),
        "lambda_max_product": float(prod[-1]),
        "lambda_max_embedded": float(emb[-1]),
        "lambda_k_embedded": float(nonzero[0]) if nonzero.size else math.nan,
        "lambda_min_rho": float(state[0]),
        "lambda_max_rho": float(state[-1]),
    }


def spin(vector) -> np.ndarray:
    x, y, z = vector
    return x * PAULIS[0] + y * PAULIS[1] + z * PAULIS[2]


def svetlichny_value(rho: np.ndarray, a, ap, b, bp, c, cp) -> float:
    """Re Tr[S rho] for S = A(B(C+C') + B'(C-C')) + A'(B(C-C') - B'(C+C'))."""
    A, Ap, B, Bp, C, Cp = (spin(v) for v in (a, ap, b, bp, c, cp))
    plus, minus = C + Cp, C - Cp
    op = (np.kron(A, np.kron(B, plus) + np.kron(Bp, minus))
          + np.kron(Ap, np.kron(B, minus) - np.kron(Bp, plus)))
    return float(np.trace(op @ rho).real)


def chsh_value(rho_pair: np.ndarray, a0, a1, b0, b1) -> float:
    """Re Tr[B rho] for B = A0 B0 + A0 B1 + A1 B0 - A1 B1."""
    A0, A1, B0, B1 = (spin(v) for v in (a0, a1, b0, b1))
    op = np.kron(A0, B0 + B1) + np.kron(A1, B0 - B1)
    return float(np.trace(op @ rho_pair).real)


def horodecki_chsh_max(rho_pair: np.ndarray) -> float:
    """2 sqrt(M), M the sum of the two largest eigenvalues of T^t T."""
    t = np.array([[np.trace(rho_pair @ np.kron(sm, sn)).real for sn in PAULIS]
                  for sm in PAULIS])
    values = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(values[-1] + values[-2], 0.0))


def format_matrix(m: np.ndarray) -> str:
    """The package's matrix-file grammar: 'dim N' then N rows of 're,im'."""
    lines = [f"dim {m.shape[0]}"]
    lines += [" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) for row in m]
    return "\n".join(lines) + "\n"


def numbers_close(got, want, rtol: float = 1e-7, atol: float = 1e-9) -> bool:
    """Recursive comparison of JSON-like data: numbers by tolerance, rest exactly."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want
    if isinstance(want, (int, float)):
        return isinstance(got, (int, float)) and not isinstance(got, bool) and \
            math.isclose(got, want, rel_tol=rtol, abs_tol=atol)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            numbers_close(got[k], want[k], rtol, atol) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            numbers_close(g, w, rtol, atol) for g, w in zip(got, want))
    raise TypeError(f"cannot compare {type(want).__name__}")

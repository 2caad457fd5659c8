"""The paper's lemmas, as independent oracles for the tests.

Each function is written with numpy from the printed formula, not through
the package (PairSpectra, partial_transpose_numbers, the linalg kernel),
so that a test comparing the two checks one against the other. None of them is read by the package itself: the
certificates read K = Tr[W rho rho^T]/(4 N(rho)) directly.

- The K bounds hold for an NPT pair whose witness does not detect it
  (Tr[W rho] >= 0); outside that hypothesis they raise HypothesisError.
- The two-sided trace inequality
  lambda_min(M) Tr N <= Tr[M N] <= lambda_max(M) Tr N holds for Hermitian
  M and positive semidefinite N.
"""

from __future__ import annotations

import numpy as np

NEG_TOL = 1e-12


class HypothesisError(ValueError):
    """The state or the witness falls outside a lemma's hypothesis."""


def _matrix(rho) -> np.ndarray:
    return np.asarray(getattr(rho, "matrix", rho), dtype=complex)


def _spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending spectrum of a Hermitian matrix, from numpy.linalg.eigh.

    eigh is the package's solver too. N is small near the PPT border and
    the bounds divide by it, so a second LAPACK driver's roundoff alone
    would move them by more than the 1e-12 the tests compare at.
    """
    return np.linalg.eigh(m)[0]


def _partial_transpose(m: np.ndarray) -> np.ndarray:
    """rho^T on the second qubit: <ij|rho^T|kl> = <il|rho|kj>."""
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def _lemma_inputs(rho, w) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(rho, rho^T, N(rho), Tr[W rho]) once the K bounds' hypotheses hold."""
    m = _matrix(rho)
    pt = _partial_transpose(m)
    n = float(-np.clip(_spectrum(pt), None, 0.0).sum())
    if n <= NEG_TOL:
        raise HypothesisError(f"the K bounds need an NPT pair, got N = {n}")
    trw = float(np.trace(np.asarray(w) @ m).real)
    if trw < 0.0:
        raise HypothesisError(f"the K bounds need Tr[W rho] >= 0, got {trw}")
    return m, pt, n, trw


def k_lower_bound(rho, w) -> float:
    """lambda_min[(rho^T)^2] Tr[W rho] / (4 lambda_max(rho^T) N(rho))."""
    _, pt, n, trw = _lemma_inputs(rho, w)
    pt2_min = float(_spectrum(pt @ pt)[0])
    pt_max = float(_spectrum(pt)[-1])
    return pt2_min * trw / (4.0 * pt_max * n)


def k_upper_bound(rho, w) -> float:
    """[lambda_max(W rho) Tr[W rho] + Tr[(rho^T)^2]] / (8 N(rho)).

    W rho is not Hermitian, but it is similar to rho^{1/2} W rho^{1/2},
    whose spectrum is read instead.
    """
    m, pt, n, trw = _lemma_inputs(rho, w)
    values, vectors = np.linalg.eigh(m)
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    wr_max = float(_spectrum(root @ np.asarray(w) @ root)[-1])
    return (wr_max * trw + float(np.trace(pt @ pt).real)) / (8.0 * n)


def sandwich(m, n) -> tuple[float, float, float]:
    """(lambda_min(M) Tr N, Tr[M N], lambda_max(M) Tr N), in order when N is PSD."""
    m = np.asarray(m, dtype=complex)
    n = np.asarray(n, dtype=complex)
    values = _spectrum(m)
    tn = float(np.trace(n).real)
    return float(values[0]) * tn, float(np.trace(m @ n).real), float(values[-1]) * tn

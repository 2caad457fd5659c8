"""Dense complex matrix kernel for dimensions up to 8.

Everything downstream (states, operators, bounds) funnels its spectral
needs through this module: Kronecker products, trace pairings, and the
Hermitian eigensolver. The solver is LAPACK's (numpy.linalg.eigh) behind
the kernel's own gates: inputs must be square, finite, at most MAX_DIM
wide and Hermitian to HERMITICITY_TOL, because eigh reads only one
triangle and would silently diagonalize a non-Hermitian input. The gates
and the solver also take a (k, n, n) stack, checked once as a whole, so
that a caller with several small matrices pays for one gated call. A
spectrum is an ascending float array, its extremes at [0] and [-1];
congruence_eigenvalues solves the spectrum of a product rho X, rho PSD,
as that of rho^{1/2} X rho^{1/2}. Several quantities later on (first
nonzero eigenvalue, window endpoints) sit close to zero, so
first_nonzero_eigenvalue reads the first entry outside ZERO_TOL, of one
spectrum or of each row of a stack.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
ZERO_TOL = 1e-9
MAX_DIM = 8


class LinalgError(ValueError):
    """Base class for kernel failures."""


class NotHermitianError(LinalgError):
    pass


class NoConvergenceError(LinalgError):
    pass


class AllZeroSpectrumError(LinalgError):
    pass


class DimensionMismatchError(LinalgError):
    pass


def _as_square(m) -> np.ndarray:
    """A square matrix or a (k, n, n) stack of them, as complex, all entries finite."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(
            f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise LinalgError("matrix contains NaN or Inf entries")
    return a


def _as_matrix(m) -> np.ndarray:
    """_as_square for the operations defined on a single matrix only."""
    a = _as_square(m)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def symmetrize(m) -> np.ndarray:
    """Return (M + M†)/2, rejecting inputs that are not Hermitian to tolerance.

    The tolerance is entrywise (max-abs of M - M†, over the whole stack);
    anything within it is construction noise from irrational amplitudes
    and gets averaged away.
    """
    a = _as_square(m)
    adjoint = np.swapaxes(a, -1, -2).conj()
    residual = np.max(np.abs(a - adjoint))
    if residual > HERMITICITY_TOL:
        raise NotHermitianError(f"hermiticity residual {residual:.3e} exceeds {HERMITICITY_TOL:.0e}")
    return (a + adjoint) / 2


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix, or a stack of them, of dimension at most MAX_DIM.

    Returns (values, vectors) with values ascending and vectors[..., i] the
    unit eigenvector for values[..., i]; a stack gives one row of values
    and one matrix of vectors per member. A LAPACK failure to converge is
    reported as NoConvergenceError.
    """
    a = symmetrize(m)
    n = a.shape[-1]
    if n > MAX_DIM:
        raise DimensionMismatchError(f"kernel handles dimensions <= {MAX_DIM}, got {n}")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh did not converge: {exc}") from exc
    return values, vectors


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix, as a float array."""
    return hermitian_eigensystem(m)[0]


def congruence_eigenvalues(root, op) -> np.ndarray:
    """Ascending spectrum of root op root, which the raw product root^2 op shares."""
    return hermitian_eigenvalues(root @ op @ root)


def trace_product(a, b) -> float:
    """Re Tr[a b] via the entrywise pairing sum(a[i,j] b[j,i]).

    Never forms the product matrix; for Hermitian inputs the imaginary
    part is pure roundoff and is discarded.
    """
    am = _as_matrix(a)
    bm = _as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"trace pairing needs equal shapes, got {am.shape} vs {bm.shape}")
    return float(np.einsum("ij,ji->", am, bm).real)


def first_nonzero_eigenvalue(values):
    """First eigenvalue with |value| > ZERO_TOL, scanning an ascending spectrum,
    or an array of one per row of a (k, n) stack of them.

    Negative eigenvalues count: for the spectrum {-0.3, 0, 0.6, 0.7} the
    answer is -0.3, not 0.6. The rows are scanned as Python lists, which
    on the three rows of a pair search costs less than numpy's reductions.
    """
    spectra = np.asarray(values, dtype=float)
    if spectra.shape[-1] == 0:
        raise AllZeroSpectrumError("empty spectrum")
    firsts = [next((v for v in row if abs(v) > ZERO_TOL), None)
              for row in spectra.reshape(-1, spectra.shape[-1]).tolist()]
    if None in firsts:
        raise AllZeroSpectrumError("all eigenvalues are numerically zero")
    return np.array(firsts) if spectra.ndim > 1 else firsts[0]


def eigen_root(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each in a stack, from its eigensystem.

    Eigenvalues inside the PSD tolerance band are clipped at zero for the
    root so that construction noise cannot turn into NaN.
    """
    roots = np.sqrt(np.clip(values, 0.0, None))
    return (vectors * roots[..., None, :]) @ np.swapaxes(vectors, -1, -2).conj()


"""Dense complex matrix kernel for dimensions up to 8.

Everything downstream (states, operators, bounds) funnels its spectral
needs through this module: Kronecker products, trace pairings, and the
Hermitian eigensolver. The solver is LAPACK's behind the kernel's own
gates: numpy.linalg.eigh where the eigenvectors are read (a square root),
numpy.linalg.eigvalsh where only the spectrum is. Inputs must be square,
finite, at most MAX_DIM wide and Hermitian to HERMITICITY_TOL, because
LAPACK reads only one triangle and would silently diagonalize a
non-Hermitian input. The gates and the solver also take a (k, n, n)
stack, checked once as a whole, so that a caller with several small
matrices pays for one gated call.

Each gate reads its matrix in one pass. A NaN or Inf entry makes the
hermiticity residual, or the trace pairing, non-finite, so the
finiteness check runs only once that one pass has failed; whichever
pass fails, the errors come in the same order: DimensionMismatchError
for a shape, then LinalgError for a non-finite entry, then
NotHermitianError, then DimensionMismatchError above MAX_DIM and
NoConvergenceError from LAPACK. A caller that has symmetrized a matrix
already (states.validate, bounds' column builder) hands it to _solve,
the solver's one LAPACK step, so that no matrix passes the gates twice.

A spectrum is an ascending float array, its extremes at [0] and [-1];
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
    """A square matrix or a (k, n, n) stack of them, as complex; entries unchecked."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(
            f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise LinalgError("matrix contains NaN or Inf entries")


def _as_matrix(m) -> np.ndarray:
    """A single square matrix, as complex, all entries finite."""
    a = _as_square(m)
    _check_finite(a)
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
    adjoint = a.swapaxes(-1, -2).conj()
    with np.errstate(invalid="ignore"):  # inf - inf, answered by the finiteness check
        residual = np.abs(a - adjoint).max()
    if not residual <= HERMITICITY_TOL:
        _check_finite(a)
        raise NotHermitianError(f"hermiticity residual {residual:.3e} exceeds {HERMITICITY_TOL:.0e}")
    return (a + adjoint) / 2


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix, or a stack of them, of dimension at most MAX_DIM.

    Returns (values, vectors) with values ascending and vectors[..., i] the
    unit eigenvector for values[..., i]; a stack gives one row of values
    and one matrix of vectors per member. A LAPACK failure to converge is
    reported as NoConvergenceError.
    """
    return _solve(symmetrize(m), vectors=True)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix, or one row per member of a stack,
    as a float array; no eigenvectors are computed."""
    return _solve(symmetrize(m), vectors=False)


def _solve(a: np.ndarray, vectors: bool) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The solve of what symmetrize returned: the size cap and LAPACK alone.

    (values, vectors) from eigh when the vectors are read, the values
    alone from eigvalsh otherwise.
    """
    n = a.shape[-1]
    if n > MAX_DIM:
        raise DimensionMismatchError(f"kernel handles dimensions <= {MAX_DIM}, got {n}")
    try:
        if vectors:
            values, eigenvectors = np.linalg.eigh(a)
            return values, eigenvectors
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        solver = "eigh" if vectors else "eigvalsh"
        raise NoConvergenceError(f"{solver} did not converge: {exc}") from exc


def congruence_eigenvalues(root, op) -> np.ndarray:
    """Ascending spectrum of root op root, which the raw product root^2 op shares."""
    return hermitian_eigenvalues(root @ op @ root)


def trace_product(a, b) -> float:
    """Re Tr[a b] via the entrywise pairing sum(a[i,j] b[j,i]).

    Never forms the product matrix; for Hermitian inputs the imaginary
    part is pure roundoff and is discarded. Each entry of a meets one of
    b in the pairing, so a non-finite entry leaves it non-finite: the
    operands' gates run only when the pairing is not finite or a shape
    is wrong, and finite operands whose pairing overflows give inf.
    """
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if am.ndim == 2 and am.shape[0] == am.shape[1] and am.shape == bm.shape:
        pairing = np.einsum("ij,ji->", am, bm)
        if np.isfinite(pairing):
            return float(pairing.real)
    am = _as_matrix(am)
    bm = _as_matrix(bm)
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
    roots = np.sqrt(np.maximum(values, 0.0))
    return (vectors * roots[..., None, :]) @ np.swapaxes(vectors, -1, -2).conj()


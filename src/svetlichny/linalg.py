"""Dense complex matrix kernel for dimensions up to 8.

Everything downstream (states, operators, bounds) funnels its spectral
needs through this module: the Hermitian eigensolver behind its gates,
and trace_product, the one trace pairing, which checks no operand, since
each of its callers checks its own. The solver is LAPACK's behind the
kernel's gates: numpy.linalg.eigh where the eigenvectors are read (the
square root of a 4x4 reduced pair, the only root the package builds),
numpy.linalg.eigvalsh where only the spectrum is. Inputs must be square,
finite, at most MAX_DIM wide and Hermitian to HERMITICITY_TOL, because
LAPACK reads only one triangle and would silently diagonalize a
non-Hermitian input. The gates and the solver also take a (k, n, n)
stack, checked once as a whole, so that a caller with several small
matrices pays for one gated call.

Each gate reads its matrix in one pass. A NaN or Inf entry makes the
hermiticity residual non-finite, so the finiteness check runs only once
that pass has failed; either way, the errors come in the same order:
DimensionMismatchError for a shape, then LinalgError for a non-finite
entry, then NotHermitianError, then DimensionMismatchError above MAX_DIM
and NoConvergenceError from LAPACK. A caller whose matrix has passed the
gates already (states.validate, whose trace check reads the symmetrized
stack, and bounds, whose partial transposes are those of gated pairs)
hands it to _solve, the solver's one LAPACK step, so that the matrix
does not pass the gates twice.

A spectrum is an ascending float array, its extremes at [0] and [-1];
congruence_eigenvalues solves the spectrum of a product P X, P PSD, as
that of P^{1/2} X P^{1/2}, from the root P^{1/2}. Several quantities
later on (first nonzero eigenvalue, window endpoints) sit close to zero,
so first_nonzero_eigenvalue reads the first entry outside ZERO_TOL, of
one spectrum or of each row of a stack.
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


def symmetrize(m) -> np.ndarray:
    """Return (M + M†)/2, rejecting inputs that are not Hermitian to tolerance.

    The tolerance is entrywise (max-abs of M - M†, over the whole stack);
    anything within it is construction noise from irrational amplitudes
    and gets averaged away.
    """
    a = _as_square(m)
    # Halved first, so that neither the difference nor the sum can overflow
    # on finite entries. Halving a normal number is exact, so the half
    # residual and the result keep the bits of |M - M†|/2 and (M + M†)/2.
    # A NaN or Inf entry is answered by the finiteness check.
    with np.errstate(invalid="ignore"):
        half = a / 2
        adjoint = half.swapaxes(-1, -2).conj()
        half_residual = np.abs(half - adjoint).max()
    if not half_residual <= HERMITICITY_TOL / 2:
        _check_finite(a)
        residual = 2 * float(half_residual)  # a Python float: inf, not an overflow warning
        raise NotHermitianError(f"hermiticity residual {residual:.3e} exceeds {HERMITICITY_TOL:.0e}")
    return half + adjoint


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
    """Ascending spectrum of root op root, which the raw products root^2 op and op root^2
    share: AB and BA have one spectrum, for A = root op and B = root. The operands were
    gated at entry, so the Hermitian part of a finite product is solved ungated. Finite
    operands whose product overflows are answered by the finiteness check, not by numpy."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = root @ op @ root
    _check_finite(product)
    half = product / 2
    return _solve(half + half.swapaxes(-1, -2).conj(), vectors=False)


def trace_product(w, m):
    """Re Tr[w m] via the entrywise pairing sum(w[i,j] m[j,i]), or one per member of a
    (k, n, n) stack m.

    Never forms the product matrix; for Hermitian operands the imaginary
    part is pure roundoff and is discarded. Neither operand is checked:
    each caller checks its own at its entry, and finite operands whose
    pairing overflows give inf.
    """
    return np.einsum("ij,...ji->...", w, m).real


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
    root so that construction noise cannot turn into NaN. The package
    roots 4x4 reduced pairs only, never a three-qubit state.
    """
    roots = np.sqrt(np.maximum(values, 0.0))
    return (vectors * roots[..., None, :]) @ np.swapaxes(vectors, -1, -2).conj()


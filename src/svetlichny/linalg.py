"""Dense complex matrix kernel for dimensions up to 8.

Everything downstream (states, operators, bounds) funnels its spectral
needs through this module: Kronecker products, trace pairings, and the
Hermitian eigensolver. The solver is LAPACK's (numpy.linalg.eigh) behind
the kernel's own gates: inputs must be square, finite, at most MAX_DIM
wide and Hermitian to HERMITICITY_TOL, because eigh reads only one
triangle and would silently diagonalize a non-Hermitian input. Several
quantities later on (first nonzero eigenvalue, window endpoints) sit
close to zero, so first_nonzero_eigenvalue reads the first entry
outside ZERO_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EigenSpectrum:
    """Real eigenvalues sorted ascending."""

    values: tuple[float, ...]

    @classmethod
    def from_values(cls, values) -> "EigenSpectrum":
        """Wrap eigenvalues that are already sorted ascending."""
        return cls(values=tuple(float(x) for x in values))

    @property
    def lambda_min(self) -> float:
        return self.values[0]

    @property
    def lambda_max(self) -> float:
        return self.values[-1]


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise LinalgError("matrix contains NaN or Inf entries")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(_as_square(a), _as_square(b))


def symmetrize(m) -> np.ndarray:
    """Return (M + M†)/2, rejecting inputs that are not Hermitian to tolerance.

    The tolerance is entrywise (max-abs of M - M†); anything within it is
    construction noise from irrational amplitudes and gets averaged away.
    """
    a = _as_square(m)
    residual = np.max(np.abs(a - a.conj().T))
    if residual > HERMITICITY_TOL:
        raise NotHermitianError(f"hermiticity residual {residual:.3e} exceeds {HERMITICITY_TOL:.0e}")
    return (a + a.conj().T) / 2


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix of dimension at most MAX_DIM.

    Returns (values, vectors) with values ascending and vectors[:, i] the
    unit eigenvector for values[i]. A LAPACK failure to converge is
    reported as NoConvergenceError.
    """
    a = symmetrize(m)
    n = a.shape[0]
    if n > MAX_DIM:
        raise DimensionMismatchError(f"kernel handles dimensions <= {MAX_DIM}, got {n}")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh did not converge: {exc}") from exc
    return values, vectors


def hermitian_eigenvalues(m) -> EigenSpectrum:
    """Ascending real spectrum of a Hermitian matrix."""
    values, _ = hermitian_eigensystem(m)
    return EigenSpectrum.from_values(values)


def trace_product(a, b) -> float:
    """Re Tr[a b] via the entrywise pairing sum(a[i,j] b[j,i]).

    Never forms the product matrix; for Hermitian inputs the imaginary
    part is pure roundoff and is discarded.
    """
    am = _as_square(a)
    bm = _as_square(b)
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"trace pairing needs equal shapes, got {am.shape} vs {bm.shape}")
    return float(np.einsum("ij,ji->", am, bm).real)


def first_nonzero_eigenvalue(spectrum: EigenSpectrum) -> float:
    """First eigenvalue with |value| > ZERO_TOL, scanning ascending.

    Negative eigenvalues count: for the spectrum {-0.3, 0, 0.6, 0.7} the
    answer is -0.3, not 0.6.
    """
    if len(spectrum.values) == 0:
        raise AllZeroSpectrumError("empty spectrum")
    for value in spectrum.values:
        if abs(value) > ZERO_TOL:
            return value
    raise AllZeroSpectrumError("all eigenvalues are numerically zero")


def spectral_root(m) -> tuple[EigenSpectrum, np.ndarray]:
    """Spectrum and Hermitian square root of a PSD matrix, from one solve.

    Eigenvalues inside the PSD tolerance band are clipped at zero for the
    root so that construction noise cannot turn into NaN.
    """
    values, vectors = hermitian_eigensystem(m)
    roots = np.sqrt(np.clip(values, 0.0, None))
    return EigenSpectrum.from_values(values), (vectors * roots) @ vectors.conj().T


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix (see spectral_root)."""
    return spectral_root(m)[1]


def sandwich_check(m, n) -> tuple[float, float, float]:
    """Evaluate (lambda_min(M) Tr N, Tr[M N], lambda_max(M) Tr N).

    The two-sided trace inequality holds when N is positive semidefinite;
    this helper only evaluates the three quantities, callers assert the
    ordering for PSD N.
    """
    spec = hermitian_eigenvalues(m)
    tn = float(np.trace(_as_square(n)).real)
    tmn = trace_product(m, n)
    return spec.lambda_min * tn, tmn, spec.lambda_max * tn

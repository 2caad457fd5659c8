"""Density matrices: validation, reductions, negativity, example families.

Qubit registers are ordered A (x) B (x) C with basis index 4a + 2b + c, so
|abc> lives at that row of an 8-vector. Two-qubit objects keep the labels
of whichever pair survived the partial trace, in ascending label order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg

PSD_TOL = -1e-9
TRACE_TOL = 1e-10

FAMILY_PURE_W1 = "pure-W-class-1"
FAMILY_MIXED_GHZ_2W = "mixed-GHZ-2W"
FAMILY_MAXIMAL_SLICE = "maximal-slice"
FAMILY_GHZ_W_CONVEX = "GHZ-W-convex"
FAMILY_IDENTITY_W = "identity-W"

FAMILIES = (
    FAMILY_PURE_W1,
    FAMILY_MIXED_GHZ_2W,
    FAMILY_MAXIMAL_SLICE,
    FAMILY_GHZ_W_CONVEX,
    FAMILY_IDENTITY_W,
)

# Parameter validity per family, endpoints inclusive unless noted.
FAMILY_RANGES = {
    FAMILY_PURE_W1: (0.0, 0.953939),
    FAMILY_MIXED_GHZ_2W: (0.0, 0.8),
    FAMILY_MAXIMAL_SLICE: (0.0, np.pi / 2),   # open at both ends
    FAMILY_GHZ_W_CONVEX: (0.4, 0.9),
    FAMILY_IDENTITY_W: (0.816, 1.0),          # open at the left end
}

# The reduced pair each family's analysis runs on.
EXAMPLE_PAIRS = {
    FAMILY_PURE_W1: ("A", "C"),
    FAMILY_MIXED_GHZ_2W: ("B", "C"),
    FAMILY_MAXIMAL_SLICE: ("B", "C"),
    FAMILY_GHZ_W_CONVEX: ("B", "C"),
    FAMILY_IDENTITY_W: ("B", "C"),
}

LABELS = ("A", "B", "C")


class StateError(ValueError):
    pass


class InvalidStateError(StateError):
    """Candidate matrix is not a density matrix; .reason says why."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


class ParameterRangeError(StateError):
    pass


class UnknownNameError(StateError):
    pass


@dataclass(frozen=True)
class DensityMatrix:
    qubits: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 2 ** self.qubits

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """linalg.hermitian_eigensystem of the matrix, solved on first read only.

        validate reads it for its positivity check, so a validated state
        arrives with its spectrum and eigenvectors already solved.
        """
        return linalg.hermitian_eigensystem(self.matrix)


def validate(candidate, qubits: int) -> DensityMatrix:
    """Check Hermiticity, unit trace, and positivity; symmetrize and wrap.

    Tolerances: hermiticity per the linalg kernel, trace within 1e-10,
    eigenvalues >= -1e-9 (irrational amplitudes leave construction noise
    of order machine epsilon, which must not reject a valid state).
    """
    a = np.asarray(candidate, dtype=complex)
    dim = 2 ** qubits
    if a.shape != (dim, dim):
        raise InvalidStateError("bad-dimension", f"expected {dim}x{dim}, got {a.shape}")
    try:
        sym = linalg.symmetrize(a)
    except linalg.NotHermitianError as exc:
        raise InvalidStateError("not-hermitian", str(exc)) from exc
    tr = float(np.trace(sym).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError("trace-not-one", f"trace = {tr!r}")
    rho = DensityMatrix(qubits=qubits, matrix=sym)
    lambda_min = rho.eigensystem[0][0]
    if lambda_min < PSD_TOL:
        raise InvalidStateError("not-psd", f"lambda_min = {lambda_min:.3e}")
    return rho


def _label_index(label: str) -> int:
    try:
        return LABELS.index(label)
    except ValueError:
        raise UnknownNameError(f"subsystem label must be one of {LABELS}, got {label!r}") from None


def partial_trace(rho: DensityMatrix, traced: str) -> DensityMatrix:
    """Trace out one subsystem of a 3-qubit state.

    The two survivors keep ascending label order, e.g. tracing B from
    rho_ABC yields rho_AC with A as the first factor. The reduction of a
    validated state is not validated again: it is exactly Hermitian, and a
    second positivity check could reject what the tolerance let through,
    since tracing out a qubit can add two tolerated negative eigenvalues.
    """
    if rho.qubits != 3:
        raise InvalidStateError("bad-dimension", "partial_trace expects a 3-qubit state")
    k = _label_index(traced)
    t = rho.matrix.reshape(2, 2, 2, 2, 2, 2)
    reduced = np.trace(t, axis1=k, axis2=k + 3)
    return DensityMatrix(qubits=2, matrix=reduced.reshape(4, 4))


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose the second qubit of a 2-qubit state; result may be non-PSD.

    Transposing the first qubit instead gives the full transpose of this
    result, with the same spectrum, so the negativity does not depend on
    the side.
    """
    if rho.qubits != 2:
        raise InvalidStateError("bad-dimension", "partial_transpose expects a 2-qubit state")
    return rho.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(rho: DensityMatrix) -> float:
    """Absolute sum of the negative partial-transpose eigenvalues.

    Equals (||rho^T||_1 - 1)/2; zero exactly for PPT (in particular all
    separable) two-qubit states.
    """
    spec = linalg.hermitian_eigenvalues(partial_transpose(rho))
    return float(-sum(v for v in spec.values if v < 0.0))


def ket(*components: tuple[int, complex]) -> np.ndarray:
    """8-dim (or smaller) state vector from (basis index, amplitude) pairs."""
    dim = 8 if max(idx for idx, _ in components) > 3 else 4
    if max(idx for idx, _ in components) <= 1:
        dim = 2
    v = np.zeros(dim, dtype=complex)
    for idx, amp in components:
        v[idx] = amp
    return v


def projector(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def _check_range(family: str, param: float) -> None:
    lo, hi = FAMILY_RANGES[family]
    open_left = family == FAMILY_IDENTITY_W
    open_both = family == FAMILY_MAXIMAL_SLICE
    if open_both:
        ok = lo < param < hi
    elif open_left:
        ok = lo < param <= hi
    else:
        ok = lo <= param <= hi
    if not ok:
        raise ParameterRangeError(
            f"{family} parameter {param!r} outside validity range ({lo}, {hi})"
        )


_SQ2 = np.sqrt(2.0)
_SQ3 = np.sqrt(3.0)


def _w1_vec() -> np.ndarray:
    return ket((1, 1 / _SQ3), (2, 1 / _SQ3), (4, 1 / _SQ3))


def _w2_vec() -> np.ndarray:
    return ket((6, 1 / _SQ3), (5, 1 / _SQ3), (3, 1 / _SQ3))


def make_example(family: str, param: float) -> DensityMatrix:
    """Construct one of the five worked example families.

    Families and parameters:
      pure-W-class-1  lambda0 in [0, 0.953939]
                      lambda0|000> + 0.3|101> + sqrt(0.91 - lambda0^2)|110>
      mixed-GHZ-2W    t in [0, 0.8]
                      0.2 GHZ + t W1 + (0.8 - t) W2 (orthogonal mixture)
      maximal-slice   theta in (0, pi/2)
                      (|000> + cos(theta)|110> + sin(theta)|111>)/sqrt(2)
      GHZ-W-convex    p_s in [0.4, 0.9]
                      p_s |GHZ'><GHZ'| + (1 - p_s)|W><W|,
                      GHZ' = (|010> + |101>)/sqrt(2)
      identity-W      p_s in (0.816, 1]
                      (1 - p_s) I/8 + p_s |W><W|
    """
    if family not in FAMILIES:
        raise UnknownNameError(f"unknown example family {family!r}")
    _check_range(family, param)
    if family == FAMILY_PURE_W1:
        lam = param
        vec = ket((0, lam), (5, 0.3), (6, np.sqrt(0.91 - lam * lam)))
        return validate(projector(vec), 3)
    if family == FAMILY_MIXED_GHZ_2W:
        t = param
        ghz = ket((0, 1 / _SQ2), (7, 1 / _SQ2))
        mix = 0.2 * projector(ghz) + t * projector(_w1_vec()) + (0.8 - t) * projector(_w2_vec())
        return validate(mix, 3)
    if family == FAMILY_MAXIMAL_SLICE:
        th = param
        vec = ket((0, 1 / _SQ2), (6, np.cos(th) / _SQ2), (7, np.sin(th) / _SQ2))
        return validate(projector(vec), 3)
    if family == FAMILY_GHZ_W_CONVEX:
        ps = param
        ghzp = ket((2, 1 / _SQ2), (5, 1 / _SQ2))
        mix = ps * projector(ghzp) + (1 - ps) * projector(_w1_vec())
        return validate(mix, 3)
    ps = param
    mix = (1 - ps) * np.eye(8, dtype=complex) / 8 + ps * projector(_w1_vec())
    return validate(mix, 3)


REFERENCE_NAMES = ("GHZ", "W", "W2", "Bell-Phi+", "product-000")


def make_reference(name: str) -> DensityMatrix:
    """Canonical states: GHZ, W, W2 (flipped W), Bell-Phi+, product-000."""
    if name == "GHZ":
        return validate(projector(ket((0, 1 / _SQ2), (7, 1 / _SQ2))), 3)
    if name == "W":
        return validate(projector(_w1_vec()), 3)
    if name == "W2":
        return validate(projector(_w2_vec()), 3)
    if name in ("Bell-Phi+", "Bell-Φ+"):
        return validate(projector(ket((0, 1 / _SQ2), (3, 1 / _SQ2))), 2)
    if name == "product-000":
        return validate(projector(ket((0, 1.0), (7, 0.0))), 3)
    raise UnknownNameError(f"unknown reference state {name!r}; pick from {REFERENCE_NAMES}")


def example_reduced(family: str, param: float) -> DensityMatrix:
    """The designated two-qubit reduced state each family's analysis uses.

    For four of the five families this is literally the partial trace over
    the complement of EXAMPLE_PAIRS[family]. The maximal-slice family is
    the exception: its designated matrix

        [[1/2, 0, 0, cos(theta)],
         [0,   0, 0, 0],
         [0,   0, 0, 0],
         [cos(theta), 0, 0, 1/2]]

    is not the partial trace of the three-qubit state over any single
    qubit (the true reductions carry cos(theta)/2 in the corner or are
    separable); it is the matrix the family's published analysis is built
    on, and it is only positive semidefinite for theta >= pi/3. We expose
    it as given so the downstream quantities reproduce, and leave the true
    reductions to partial_trace.
    """
    if family not in FAMILIES:
        raise UnknownNameError(f"unknown example family {family!r}")
    _check_range(family, param)
    if family == FAMILY_MAXIMAL_SLICE:
        c = np.cos(param)
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.5
        m[0, 3] = m[3, 0] = c
        return validate(m, 2)
    rho = make_example(family, param)
    (keep1, keep2) = EXAMPLE_PAIRS[family]
    traced = next(l for l in LABELS if l not in (keep1, keep2))
    return partial_trace(rho, traced)

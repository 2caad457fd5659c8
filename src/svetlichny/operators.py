"""Builders for spin observables, CHSH operators and witnesses, the
three-party Svetlichny operator, and the Pauli correlation tensor T that
both the paper's nonlocality measures and the optimizer read."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .states import DensityMatrix

UNIT_TOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack((PAULI_X, PAULI_Y, PAULI_Z))

_PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

PLANES = ("xy", "xz", "yz")


class OperatorError(ValueError):
    pass


def correlation_tensor(rho: DensityMatrix) -> np.ndarray:
    """Pauli correlations T[m, n, ...] = Tr[rho sigma_m (x) sigma_n (x) ...].

    Shape (3, 3) for two qubits, (3, 3, 3) for three.
    """
    n = rho.qubits
    if n not in (2, 3):
        raise OperatorError(f"expected two or three qubits, got {n}")
    rows, cols, out = "abc"[:n], "abcdef"[n:2 * n], "mno"[:n]
    subscripts = ",".join([rows + cols, *map("".join, zip(out, cols, rows))])
    return np.real(np.einsum(f"{subscripts}->{out}", rho.matrix.reshape((2,) * (2 * n)),
                             *[PAULIS] * n))


class UnitVector3(NamedTuple("UnitVector3", [("x", float), ("y", float), ("z", float)])):
    """A measurement direction: a vector of R^3 whose squared length is 1
    within UNIT_TOL, checked by every way to build one, _replace included."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float):
        norm2 = x * x + y * y + z * z
        # written so that a NaN norm, from a NaN or infinite component, fails too
        if not abs(norm2 - 1.0) <= UNIT_TOL:
            raise OperatorError(f"direction ({x}, {y}, {z}) has |v|^2 = {norm2!r}")
        return super().__new__(cls, x, y, z)

    @classmethod
    def _make(cls, iterable) -> "UnitVector3":
        return cls(*iterable)

    @classmethod
    def from_array(cls, v) -> "UnitVector3":
        a = np.asarray(v, dtype=float)
        if a.shape != (3,):
            raise OperatorError(f"a direction has shape (3,), got {a.shape}")
        n = float(np.linalg.norm(a))
        if not np.isfinite(n):  # checked before dividing, which warns on an infinite norm
            raise OperatorError(f"direction {a.tolist()} has norm {n!r}")
        if n == 0.0:
            raise OperatorError("zero vector has no direction")
        return cls(float(a[0] / n), float(a[1] / n), float(a[2] / n))


class SvetlichnySettings(NamedTuple):
    """The six directions of a Svetlichny test: a, a' for party A, b, b'
    for B and c, c' for C."""

    a: UnitVector3
    a_prime: UnitVector3
    b: UnitVector3
    b_prime: UnitVector3
    c: UnitVector3
    c_prime: UnitVector3

    def vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(np.array(v) for v in self)


class ChshSettings(NamedTuple("ChshSettings", [("A0", np.ndarray), ("A1", np.ndarray),
                                               ("B0", np.ndarray), ("B1", np.ndarray)])):
    """Four 2x2 Hermitian observables, kept as the complex arrays every build checks.

    Dichotomic +-1 observables have spectrum exactly {-1, +1}; observables
    whose spectral radius exceeds 1 are accepted too (one published
    example uses them).
    """

    __slots__ = ()

    def __new__(cls, A0, A1, B0, B1):
        checked = []
        for name, obs in zip(cls._fields, (A0, A1, B0, B1)):
            obs = np.asarray(obs, dtype=complex)
            if obs.shape != (2, 2):
                raise OperatorError(f"{name} must be 2x2, got {obs.shape}")
            linalg.symmetrize(obs)  # raises if not finite and Hermitian
            checked.append(obs)
        return super().__new__(cls, *checked)

    @classmethod
    def _make(cls, iterable) -> "ChshSettings":
        return cls(*iterable)


def pauli(axis: str) -> np.ndarray:
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise OperatorError(f"axis must be one of x, y, z; got {axis!r}") from None


def spin_observable(n: UnitVector3) -> np.ndarray:
    """n . sigma; Hermitian with eigenvalues exactly {-1, +1}."""
    return n.x * PAULI_X + n.y * PAULI_Y + n.z * PAULI_Z


def _chsh(a0, a1, b0, b1) -> np.ndarray:
    """A0B0 + A0B1 + A1B0 - A1B1: a term counts +1 when at most one party
    uses its primed setting (Svetlichny, PRD 35, 3066, 1987). The operands
    are complex arrays that UnitVector3 or ChshSettings has checked."""
    return np.kron(a0, b0) + np.kron(a0, b1) + np.kron(a1, b0) - np.kron(a1, b1)


def chsh_operator(settings: ChshSettings) -> np.ndarray:
    """Two-party Bell operator A0B0 + A0B1 + A1B0 - A1B1."""
    return _chsh(settings.A0, settings.A1, settings.B0, settings.B1)


def chsh_plane_operator(plane: str) -> np.ndarray:
    """Bell operator restricted to a Pauli plane.

    Built from the four-term arrangement with A0 = sigma_i, A1 = sigma_j,
    B0 = (sigma_i + sigma_j)/sqrt(2), B1 = (sigma_i - sigma_j)/sqrt(2);
    algebraically this collapses to sqrt(2)(sigma_i sigma_i + sigma_j
    sigma_j), which the test suite checks rather than hard-coding.
    """
    if plane not in PLANES:
        raise OperatorError(f"plane must be one of {PLANES}, got {plane!r}")
    si = pauli(plane[0])
    sj = pauli(plane[1])
    s2 = np.sqrt(2.0)
    settings = ChshSettings(A0=si, A1=sj, B0=(si + sj) / s2, B1=(si - sj) / s2)
    return chsh_operator(settings)


def chsh_witness(b: np.ndarray) -> np.ndarray:
    """W = 2I - B; Tr W = 8 - Tr B. B passes the witness check, so W is a witness."""
    return 2 * np.eye(4, dtype=complex) - witness_matrix(b)


def witness_matrix(witness) -> np.ndarray:
    """The one witness check: a finite 4x4 matrix, Hermitian to tolerance, symmetrized.

    Another shape raises OperatorError; the linalg error covers the rest."""
    w = np.asarray(witness, dtype=complex)
    if w.shape != (4, 4):
        raise OperatorError(f"witness must be a 4x4 matrix, got shape {w.shape}")
    return linalg.symmetrize(w)


# Built at import, so that every call solves the same; shared, so read-only.
_PLANE_WITNESSES = {plane: chsh_witness(chsh_plane_operator(plane)) for plane in PLANES}
for _witness in _PLANE_WITNESSES.values():
    _witness.flags.writeable = False


def plane_witness(plane: str) -> np.ndarray:
    """The CHSH witness of a Pauli plane, a shared read-only array."""
    if plane not in PLANES:
        raise OperatorError(f"plane must be one of {PLANES}, got {plane!r}")
    return _PLANE_WITNESSES[plane]


def svetlichny_operator(settings: SvetlichnySettings) -> np.ndarray:
    """The 8x8 three-party operator

        CHSH(A, A', B, B') (x) C - CHSH(A', A, B', B) (x) C'

    with each capital letter the spin observable along its direction: the
    CHSH sign rule over three parties. Hermitian and traceless for every
    choice of directions.
    """
    a, ap, b, bp, c, cp = (spin_observable(v) for v in
                           (settings.a, settings.a_prime, settings.b,
                            settings.b_prime, settings.c, settings.c_prime))
    return np.kron(_chsh(a, ap, b, bp), c) - np.kron(_chsh(ap, a, bp, b), cp)

"""Builders for spin observables, CHSH operators and witnesses, and the
three-party Svetlichny operator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

UNIT_TOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack((PAULI_X, PAULI_Y, PAULI_Z))

_PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

PLANES = ("xy", "xz", "yz")


class OperatorError(ValueError):
    pass


@dataclass(frozen=True)
class UnitVector3:
    """A measurement direction: a vector of R^3 whose squared length is 1
    within UNIT_TOL, checked on construction."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm2 = self.x * self.x + self.y * self.y + self.z * self.z
        # written so that a NaN norm, from a NaN or infinite component, fails too
        if not abs(norm2 - 1.0) <= UNIT_TOL:
            raise OperatorError(f"direction ({self.x}, {self.y}, {self.z}) has |v|^2 = {norm2!r}")

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

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class SvetlichnySettings:
    """The six directions of a Svetlichny test: a, a' for party A, b, b'
    for B and c, c' for C."""

    a: UnitVector3
    a_prime: UnitVector3
    b: UnitVector3
    b_prime: UnitVector3
    c: UnitVector3
    c_prime: UnitVector3

    def vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(v.as_array() for v in (self.a, self.a_prime, self.b,
                                            self.b_prime, self.c, self.c_prime))


@dataclass(frozen=True)
class ChshSettings:
    """Four 2x2 Hermitian observables.

    Dichotomic +-1 observables have spectrum exactly {-1, +1}; observables
    whose spectral radius exceeds 1 are accepted too (one published
    example uses them).
    """

    A0: np.ndarray
    A1: np.ndarray
    B0: np.ndarray
    B1: np.ndarray

    def __post_init__(self):
        for name in ("A0", "A1", "B0", "B1"):
            obs = np.asarray(getattr(self, name), dtype=complex)
            if obs.shape != (2, 2):
                raise OperatorError(f"{name} must be 2x2, got {obs.shape}")
            linalg.symmetrize(obs)  # raises if not Hermitian


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
    uses its primed setting (Svetlichny, PRD 35, 3066, 1987)."""
    return (linalg.kron(a0, b0) + linalg.kron(a0, b1)
            + linalg.kron(a1, b0) - linalg.kron(a1, b1))


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
    return linalg.kron(_chsh(a, ap, b, bp), c) - linalg.kron(_chsh(ap, a, bp, b), cp)

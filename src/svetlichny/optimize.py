"""Direct numerical maximization of Svetlichny and CHSH expectations.

The certificates elsewhere in this package never optimize measurement
settings; this module is the independent cross-check that does. Both
objectives are multilinear in the Bloch vectors of the settings, so two
backends are natural. The gradient backend ascends on spherical angles
(theta, phi per vector) with a spectral-seeded backtracking line search,
which copes with the degenerate ridges these landscapes develop at
product-state optima. The coordinate backend exploits multilinearity
directly: freezing all but one vector leaves a linear functional whose
maximizer on the unit sphere is the normalized coefficient vector. The
two must agree; tests hold them to 1e-6 of each other.

Restarts draw initial angles from a seeded generator, all draws made up
front so a longer restart schedule extends a shorter one and the best
value is nondecreasing in the restart count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import linalg
from .nonlocality import correlation_matrix
from .operators import (
    PAULIS,
    ChshSettings,
    SvetlichnySettings,
    UnitVector3,
    chsh_operator,
    spin_observable,
    svetlichny_operator,
)
from .states import DensityMatrix

DEFAULT_SEED = 1729
SEED_ENV_VAR = "SVET_SEED"
STEP_RULES = ("fixed", "backtracking")
BACKENDS = ("gradient", "coordinate")

_FIXED_STEP = 0.1
_MEMORY = 10

class OptimizerError(ValueError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    """Restart schedule and stopping rules shared by both objectives."""

    restarts: int = 64
    max_iterations: int = 500
    gradient_tol: float = 1e-10
    step_rule: str = "backtracking"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise OptimizerError("restarts must be at least 1")
        if self.max_iterations < 1:
            raise OptimizerError("max_iterations must be at least 1")
        if self.gradient_tol <= 0.0:
            raise OptimizerError("gradient_tol must be positive")
        if self.step_rule not in STEP_RULES:
            raise OptimizerError(f"step_rule must be one of {STEP_RULES}")

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))


@dataclass(frozen=True)
class Optimum:
    """Best value found, the settings achieving it, and how hard it was.

    iterations_used and converged describe the restart that produced the
    winning value, not the sum over restarts.
    """

    value: float
    settings: SvetlichnySettings | ChshSettings
    iterations_used: int
    converged: bool


def _correlation_tensor3(rho: DensityMatrix) -> np.ndarray:
    r6 = rho.matrix.reshape(2, 2, 2, 2, 2, 2)
    return np.real(
        np.einsum("abcdef,mda,neb,ofc->mno", r6, PAULIS, PAULIS, PAULIS)
    )


class _SvetlichnyObjective:
    """<S_v> as a multilinear function of six unit vectors."""

    n_vectors = 6

    def __init__(self, tensor: np.ndarray) -> None:
        self.tensor = tensor

    def energy(self, vectors: np.ndarray) -> float:
        a, ap, b, bp, c, cp = vectors
        plus, minus = c + cp, c - cp
        contract = lambda x, y, z: float(np.einsum("mno,m,n,o->", self.tensor, x, y, z))
        return (
            contract(a, b, plus)
            + contract(a, bp, minus)
            + contract(ap, b, minus)
            - contract(ap, bp, plus)
        )

    def coefficient_gradients(self, vectors: np.ndarray) -> np.ndarray:
        a, ap, b, bp, c, cp = vectors
        plus, minus = c + cp, c - cp
        t = self.tensor
        first = lambda y, z: np.einsum("mno,n,o->m", t, y, z)
        second = lambda x, z: np.einsum("mno,m,o->n", t, x, z)
        third = lambda x, y: np.einsum("mno,m,n->o", t, x, y)
        same = third(a, b) - third(ap, bp)
        cross = third(a, bp) + third(ap, b)
        return np.stack(
            [
                first(b, plus) + first(bp, minus),
                first(b, minus) - first(bp, plus),
                second(a, plus) + second(ap, minus),
                second(a, minus) - second(ap, plus),
                same + cross,
                same - cross,
            ]
        )


class _ChshObjective:
    """<B_CHSH> as a multilinear function of four unit vectors."""

    n_vectors = 4

    def __init__(self, tensor: np.ndarray) -> None:
        self.tensor = tensor

    def energy(self, vectors: np.ndarray) -> float:
        a0, a1, b0, b1 = vectors
        return float(a0 @ self.tensor @ (b0 + b1) + a1 @ self.tensor @ (b0 - b1))

    def coefficient_gradients(self, vectors: np.ndarray) -> np.ndarray:
        a0, a1, b0, b1 = vectors
        t = self.tensor
        return np.stack(
            [t @ (b0 + b1), t @ (b0 - b1), t.T @ (a0 + a1), t.T @ (a0 - a1)]
        )


def _vectors_from_angles(angles: np.ndarray) -> np.ndarray:
    theta, phi = angles[:, 0], angles[:, 1]
    sin_t = np.sin(theta)
    return np.stack(
        [sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)], axis=1
    )


def _angle_gradient(objective, angles: np.ndarray) -> np.ndarray:
    vectors = _vectors_from_angles(angles)
    coeffs = objective.coefficient_gradients(vectors)
    theta, phi = angles[:, 0], angles[:, 1]
    d_theta = np.stack(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)],
        axis=1,
    )
    d_phi = np.stack(
        [-np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi), np.zeros_like(theta)],
        axis=1,
    )
    return np.stack(
        [np.sum(coeffs * d_theta, axis=1), np.sum(coeffs * d_phi, axis=1)], axis=1
    )


def _gradient_ascent(objective, angles: np.ndarray, cfg: OptimizerConfig):
    """Ascend on angles; spectral seed when backtracking, constant otherwise.

    The line search halves the trial step until the value clears a
    nonmonotone reference (best of the last few iterates), which lets the
    spectral step stride across flat ridges without losing ground.
    """
    energy = objective.energy(_vectors_from_angles(angles))
    gradient = _angle_gradient(objective, angles)
    history = [energy]
    step = _FIXED_STEP
    previous: tuple[np.ndarray, np.ndarray] | None = None
    used, converged = 0, False
    for iteration in range(cfg.max_iterations):
        used = iteration + 1
        norm_sq = float(np.sum(gradient * gradient))
        if np.sqrt(norm_sq) < cfg.gradient_tol:
            converged = True
            break
        if cfg.step_rule == "backtracking" and previous is not None:
            displacement = (angles - previous[0]).ravel()
            bend = -float(displacement @ (gradient - previous[1]).ravel())
            step = float(displacement @ displacement) / bend if bend > 1e-16 else 1.0
            step = min(max(step, 1e-8), 1e4)
        else:
            step = _FIXED_STEP
        reference = max(history[-_MEMORY:])
        trial, accepted = step, False
        for _ in range(60):
            candidate = angles + trial * gradient
            value = objective.energy(_vectors_from_angles(candidate))
            if value > energy or value >= reference + 1e-6 * trial * norm_sq - 1e-12:
                previous = (angles, gradient)
                angles, energy = candidate, value
                gradient = _angle_gradient(objective, angles)
                history.append(energy)
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            converged = True
            break
    return energy, _vectors_from_angles(angles), used, converged


def _coordinate_ascent(objective, angles: np.ndarray, cfg: OptimizerConfig):
    """Sweep the vectors, replacing each by its normalized coefficient."""
    vectors = _vectors_from_angles(angles)
    energy = objective.energy(vectors)
    used, converged = 0, False
    for sweep in range(cfg.max_iterations):
        used = sweep + 1
        for i in range(objective.n_vectors):
            coefficient = objective.coefficient_gradients(vectors)[i]
            norm = float(np.linalg.norm(coefficient))
            if norm > 1e-14:
                vectors[i] = coefficient / norm
        improved = objective.energy(vectors)
        if improved - energy < cfg.gradient_tol:
            energy = improved
            converged = True
            break
        energy = improved
    return energy, vectors, used, converged


def _run_restarts(objective, cfg: OptimizerConfig, backend: str):
    if backend not in BACKENDS:
        raise OptimizerError(f"backend must be one of {BACKENDS}")
    rng = np.random.default_rng(cfg.resolved_seed())
    draws = rng.random((cfg.restarts, objective.n_vectors, 2))
    ascend = _gradient_ascent if backend == "gradient" else _coordinate_ascent
    best = (-np.inf, None, 0, False)
    for restart in range(cfg.restarts):
        angles = np.stack(
            [np.arccos(1.0 - 2.0 * draws[restart, :, 0]), 2.0 * np.pi * draws[restart, :, 1]],
            axis=1,
        )
        value, vectors, used, converged = ascend(objective, angles, cfg)
        if value > best[0]:
            best = (value, vectors, used, converged)
    return best


def maximize_svetlichny(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    backend: str = "gradient",
) -> Optimum:
    """Best Svetlichny expectation over all six measurement directions."""
    if rho.qubits != 3:
        raise OptimizerError(f"expected a three-qubit state, got {rho.qubits} qubits")
    cfg = cfg or OptimizerConfig()
    objective = _SvetlichnyObjective(_correlation_tensor3(rho))
    value, vectors, used, converged = _run_restarts(objective, cfg, backend)
    settings = SvetlichnySettings(*(UnitVector3.from_array(v) for v in vectors))
    return Optimum(
        value=value, settings=settings, iterations_used=used, converged=converged
    )


def maximize_chsh(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    backend: str = "gradient",
) -> Optimum:
    """Best CHSH expectation over traceless spin observables."""
    if rho.qubits != 2:
        raise OptimizerError(f"expected a two-qubit state, got {rho.qubits} qubits")
    cfg = cfg or OptimizerConfig()
    objective = _ChshObjective(correlation_matrix(rho))
    value, vectors, used, converged = _run_restarts(objective, cfg, backend)
    settings = ChshSettings(
        *(spin_observable(UnitVector3.from_array(v)) for v in vectors)
    )
    return Optimum(
        value=value, settings=settings, iterations_used=used, converged=converged
    )


def svetlichny_expectation(rho: DensityMatrix, settings: SvetlichnySettings) -> float:
    """Tr[S_v rho] for explicit settings; the recheck for optimizer output."""
    return linalg.trace_product(svetlichny_operator(settings), rho.matrix)


def chsh_expectation(rho: DensityMatrix, settings: ChshSettings) -> float:
    """Tr[B rho] for explicit two-qubit settings."""
    return linalg.trace_product(chsh_operator(settings), rho.matrix)

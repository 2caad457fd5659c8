"""Direct numerical maximization of Svetlichny and CHSH expectations.

The certificates elsewhere in this package never optimize measurement
settings; this module is the independent cross-check that does. Both
objectives are multilinear in the Bloch vectors of the settings, so two
backends are natural, and both work on the unit vectors themselves. The
gradient backend steps along the tangent gradient g - (g.v)v and
renormalizes each trial point (a retraction onto the sphere, which has no
poles to stall at), with a spectral-seeded nonmonotone backtracking line
search that copes with the degenerate ridges these landscapes develop at
product-state optima. The coordinate backend exploits multilinearity
directly: freezing all but one vector leaves a linear functional whose
maximizer on the unit sphere is the normalized coefficient vector. The
two must agree; tests hold them to 1e-6 of each other.

Restarts draw uniform starting directions from a seeded generator, all
draws made up front so a longer restart schedule extends a shorter one
and the best value is nondecreasing in the restart count.
"""

from __future__ import annotations

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
BACKENDS = ("gradient", "coordinate")

# A restart stops once the tangent-gradient norm (gradient backend) or the
# gain of a full sweep (coordinate backend) falls below _TOL.
_TOL = 1e-10
_FIRST_STEP = 0.1
_MEMORY = 10

class OptimizerError(ValueError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    """Restart count, per-restart iteration cap and the seed of the draws."""

    restarts: int = 64
    max_iterations: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise OptimizerError("restarts must be at least 1")
        if self.max_iterations < 1:
            raise OptimizerError("max_iterations must be at least 1")


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


def _tangent_gradient(objective, vectors: np.ndarray) -> np.ndarray:
    coeffs = objective.coefficient_gradients(vectors)
    return coeffs - np.sum(coeffs * vectors, axis=1, keepdims=True) * vectors


def _gradient_ascent(objective, vectors: np.ndarray, cfg: OptimizerConfig):
    """Ascend along the tangent gradient, renormalizing every trial point.

    The trial v + t*g is at least unit length because g is orthogonal to v.
    The first step is _FIRST_STEP, later ones the Barzilai-Borwein step of
    the last displacement and tangent-gradient change. The line search
    halves the trial step until the value clears a nonmonotone reference
    (best of the last few iterates), which lets the spectral step stride
    across flat ridges without losing ground.
    """
    energy = objective.energy(vectors)
    gradient = _tangent_gradient(objective, vectors)
    history = [energy]
    previous: tuple[np.ndarray, np.ndarray] | None = None
    used, converged = 0, False
    for iteration in range(cfg.max_iterations):
        used = iteration + 1
        norm_sq = float(np.sum(gradient * gradient))
        if np.sqrt(norm_sq) < _TOL:
            converged = True
            break
        trial = _FIRST_STEP
        if previous is not None:
            displacement = (vectors - previous[0]).ravel()
            bend = -float(displacement @ (gradient - previous[1]).ravel())
            trial = float(displacement @ displacement) / bend if bend > 1e-16 else 1.0
            trial = min(max(trial, 1e-8), 1e4)
        reference = max(history[-_MEMORY:])
        for _ in range(60):
            candidate = vectors + trial * gradient
            candidate /= np.linalg.norm(candidate, axis=1, keepdims=True)
            value = objective.energy(candidate)
            if value > energy or value >= reference + 1e-6 * trial * norm_sq - 1e-12:
                previous = (vectors, gradient)
                vectors, energy = candidate, value
                gradient = _tangent_gradient(objective, vectors)
                history.append(energy)
                break
            trial *= 0.5
        else:
            converged = True
            break
    return energy, vectors, used, converged


def _coordinate_ascent(objective, vectors: np.ndarray, cfg: OptimizerConfig):
    """Sweep the vectors, replacing each by its normalized coefficient."""
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
        if improved - energy < _TOL:
            energy = improved
            converged = True
            break
        energy = improved
    return energy, vectors, used, converged


def _run_restarts(objective, cfg: OptimizerConfig, backend: str):
    if backend not in BACKENDS:
        raise OptimizerError(f"backend must be one of {BACKENDS}")
    rng = np.random.default_rng(cfg.seed)
    draws = rng.random((cfg.restarts, objective.n_vectors, 2))
    theta, phi = np.arccos(1.0 - 2.0 * draws[..., 0]), 2.0 * np.pi * draws[..., 1]
    sin_t = np.sin(theta)
    starts = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)], axis=-1)
    ascend = _gradient_ascent if backend == "gradient" else _coordinate_ascent
    best = (-np.inf, None, 0, False)
    for start in starts:
        value, vectors, used, converged = ascend(objective, start, cfg)
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

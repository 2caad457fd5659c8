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
maximizer on the unit sphere is the normalized coefficient vector, and
each update computes only that one coefficient row. The two must agree;
tests hold them to 1e-6 of each other.

Restarts draw uniform starting directions from a seeded generator, all
draws made up front so a longer restart schedule extends a shorter one.
Every restart then ascends in one batch: the restarts are the leading
axis of every array, each restart keeps its own step and stopping state,
and a restart that has stopped drops out of the batch. A restart's
arithmetic does not depend on which other restarts share its batch, so
its result is the same bits at any restart count, and the best value is
nondecreasing in the restart count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
        if self.seed < 0:
            raise OptimizerError("seed must be non-negative")


@dataclass(frozen=True)
class Optimum:
    """Best value found, the settings achieving it, and how hard it was.

    All restarts ascend as one batch. iterations_used and converged describe
    the restart that produced the winning value (the first best in draw
    order), not the sum over restarts. restart_values holds every restart's
    final value in draw order, so the first k entries are the values a
    k-restart run finds; restarts_capped counts the restarts that used all
    max_iterations without converging.
    """

    value: float
    settings: SvetlichnySettings | ChshSettings
    iterations_used: int
    converged: bool
    restart_values: tuple[float, ...]
    restarts_capped: int


def _correlation_tensor3(rho: DensityMatrix) -> np.ndarray:
    r6 = rho.matrix.reshape(2, 2, 2, 2, 2, 2)
    return np.real(
        np.einsum("abcdef,mda,neb,ofc->mno", r6, PAULIS, PAULIS, PAULIS)
    )


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner product of each restart's flattened x and y.

    Each restart gets its own dot call, so its bits never depend on the
    batch it shares.
    """
    count = len(x)
    return (x.reshape(count, 1, -1) @ y.reshape(count, -1, 1))[:, 0, 0]


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    return np.sqrt(np.add.reduce(x * x, axis=axis, keepdims=True))


# _SIGNS[parity] forms, from a vector pair (u, v), the vectors that meet
# the pair's two matrices in the row of that parity: a row pair is
# M0 w0 + M1 w1 and M0 w1 - M1 w0, with w0 = u + v and w1 = u - v.
_SIGNS = np.array([[[1.0, 1.0], [1.0, -1.0]], [[1.0, -1.0], [-1.0, -1.0]]])


class _Multilinear:
    """energy and coefficient rows of a batch of (restarts, n, 3) vectors.

    The rows come in pairs (row 2g and 2g + 1 for g = 0, 1, ...); _rows
    returns, for a slice of pairs and a slice of parities, a
    (restarts, pairs * parities, 3) array. The objective is linear in each
    vector, so the energy is v0.g0 + v1.g1.
    """

    def energy(self, vectors: np.ndarray) -> np.ndarray:
        return _dot(vectors[:, :2], self._rows(vectors, slice(0, 1), slice(None)))

    def coefficient_gradients(self, vectors: np.ndarray, row: int | None = None):
        """Every coefficient row, (restarts, n, 3), or only `row`, (restarts, 3)."""
        if row is None:
            return self._rows(vectors, slice(None), slice(None))
        pair, parity = divmod(row, 2)
        return self._rows(vectors, slice(pair, pair + 1), slice(parity, parity + 1))[:, 0]


class _SvetlichnyObjective(_Multilinear):
    """<S_v> as a multilinear function of six unit vectors a, a', b, b', c, c'.

    In a row pair, M0 and M1 are T contracted with the two vectors x0, x1
    of another pair, and w0, w1 come from the third. T is precontracted
    with each w into a (3, 9) slice, so a row is one 6-term product of
    (x0, x1) with the stacked slices.
    """

    n_vectors = 6
    # per row pair (a, b, c): the x pair and the pair forming w
    _contracted = np.array([[2, 3], [0, 1], [0, 1]])
    _formed = np.array([[4, 5], [4, 5], [2, 3]])

    def __init__(self, tensor: np.ndarray) -> None:
        # T as [w index, (x index, row index)] for each row pair
        self._slices = np.stack([tensor.transpose(2, 1, 0).reshape(3, 9),
                                 tensor.transpose(2, 0, 1).reshape(3, 9),
                                 tensor.transpose(1, 0, 2).reshape(3, 9)])

    def _rows(self, vectors: np.ndarray, pairs: slice, parities: slice) -> np.ndarray:
        count = len(vectors)
        w = _SIGNS[parities].reshape(-1, 2) @ vectors[:, self._formed[pairs]]
        sliced = (w @ self._slices[pairs]).reshape(*w.shape[:2], -1, 6, 3)
        x = vectors[:, self._contracted[pairs]].reshape(count, -1, 1, 1, 6)
        return (x @ sliced).reshape(count, -1, 3)


class _ChshObjective(_Multilinear):
    """<B_CHSH> as a multilinear function of four unit vectors a0, a1, b0, b1.

    The rows are T(b0 + b1), T(b0 - b1), T^T(a0 + a1) and T^T(a0 - a1).
    """

    n_vectors = 4
    _formed = np.array([[2, 3], [0, 1]])

    def __init__(self, tensor: np.ndarray) -> None:
        self._right = np.stack([tensor.T, tensor])  # w @ right is T w, then T^T w

    def _rows(self, vectors: np.ndarray, pairs: slice, parities: slice) -> np.ndarray:
        w = _SIGNS[0, parities] @ vectors[:, self._formed[pairs]]
        return (w @ self._right[pairs]).reshape(len(vectors), -1, 3)


def _tangent_gradient(objective, vectors: np.ndarray) -> np.ndarray:
    coeffs = objective.coefficient_gradients(vectors)
    return coeffs - np.add.reduce(coeffs * vectors, axis=2, keepdims=True) * vectors


class _Batch(NamedTuple):
    """Every restart's final state after one ascent, in draw order.

    converged (item 3) is a plain bool, True when every restart converged,
    so a reader of (value, vectors, iterations, converged) can test it;
    capped marks each restart that ran out of iterations.
    """

    values: np.ndarray
    vectors: np.ndarray
    used: np.ndarray
    converged: bool
    capped: np.ndarray


def _batch(values, vectors, used, stopped) -> _Batch:
    return _Batch(values, vectors, used, bool(stopped.all()), ~stopped)


def _gradient_ascent(objective, vectors: np.ndarray, cfg: OptimizerConfig) -> _Batch:
    """Ascend along the tangent gradient, renormalizing every trial point.

    The trial v + t*g is at least unit length because g is orthogonal to v.
    The first step is _FIRST_STEP, later ones the Barzilai-Borwein step of
    the last displacement and tangent-gradient change. The line search
    halves the trial step until the value clears a nonmonotone reference
    (best of the last few iterates), which lets the spectral step stride
    across flat ridges without losing ground. Every restart keeps its own
    step; the line search halves only the steps still pending, and the
    tangent gradient is evaluated once per iteration for all restarts that
    accepted a step.
    """
    count = len(vectors)
    vectors = vectors.copy()
    energy = objective.energy(vectors)
    gradient = _tangent_gradient(objective, vectors)
    previous_vectors, previous_gradient = np.empty_like(vectors), np.empty_like(gradient)
    # a live restart has appended one value per iteration, so the ring's
    # write position is shared
    history = np.full((count, _MEMORY), -np.inf)
    history[:, 0] = energy
    used = np.zeros(count, dtype=int)
    stopped = np.zeros(count, dtype=bool)
    live = np.arange(count)
    for iteration in range(cfg.max_iterations):
        used[live] = iteration + 1
        here, slope = vectors[live], gradient[live]
        norm_sq = np.add.reduce(slope * slope, axis=(1, 2))
        flat = np.sqrt(norm_sq) < _TOL
        if flat.any():
            stopped[live[flat]] = True
            live, here, slope, norm_sq = (x[~flat] for x in (live, here, slope, norm_sq))
            if live.size == 0:
                break
        if iteration == 0:
            trial = np.full(live.size, _FIRST_STEP)
        else:
            displacement = here - previous_vectors[live]
            bend = -_dot(displacement, slope - previous_gradient[live])
            trial = np.divide(_dot(displacement, displacement), bend,
                              out=np.ones(live.size), where=bend > 1e-16)
            trial = np.minimum(np.maximum(trial, 1e-8), 1e4)
        previous_vectors[live], previous_gradient[live] = here, slope
        reference = history[live].max(axis=1)
        pending, current = live, energy[live]
        for _ in range(60):
            candidate = here + trial[:, None, None] * slope
            candidate /= _norms(candidate, axis=2)
            value = objective.energy(candidate)
            accept = (value > current) | (
                value >= reference + 1e-6 * trial * norm_sq - 1e-12)
            if accept.any():
                stepped = pending[accept]
                vectors[stepped], energy[stepped] = candidate[accept], value[accept]
                wait = ~accept
                pending, here, slope, current, reference, norm_sq, trial = (
                    x[wait] for x in (pending, here, slope, current, reference, norm_sq, trial))
                if pending.size == 0:
                    break
            trial *= 0.5
        stopped[pending] = True
        live = live[~stopped[live]]
        if live.size == 0:
            break
        gradient[live] = _tangent_gradient(objective, vectors[live])
        history[live, (iteration + 1) % _MEMORY] = energy[live]
    return _batch(energy, vectors, used, stopped)


def _coordinate_ascent(objective, vectors: np.ndarray, cfg: OptimizerConfig) -> _Batch:
    """Sweep the vectors, replacing each by its normalized coefficient row."""
    count = len(vectors)
    vectors = vectors.copy()
    energy = objective.energy(vectors)
    used = np.zeros(count, dtype=int)
    stopped = np.zeros(count, dtype=bool)
    live = np.arange(count)
    for sweep in range(cfg.max_iterations):
        used[live] = sweep + 1
        batch = vectors[live]
        for i in range(objective.n_vectors):
            coefficient = objective.coefficient_gradients(batch, row=i)
            norm = _norms(coefficient, axis=1)
            np.divide(coefficient, norm, out=batch[:, i], where=norm > 1e-14)
        improved = objective.energy(batch)
        vectors[live] = batch
        flat = improved - energy[live] < _TOL
        energy[live] = improved
        stopped[live[flat]] = True
        live = live[~flat]
        if live.size == 0:
            break
    return _batch(energy, vectors, used, stopped)


def _run_restarts(objective, cfg: OptimizerConfig, backend: str,
                  make_settings) -> Optimum:
    """Ascend every restart in one batch and report the first best one.

    make_settings turns the winner's unit vectors into its settings type.
    """
    if backend not in BACKENDS:
        raise OptimizerError(f"backend must be one of {BACKENDS}")
    rng = np.random.default_rng(cfg.seed)
    draws = rng.random((cfg.restarts, objective.n_vectors, 2))
    theta, phi = np.arccos(1.0 - 2.0 * draws[..., 0]), 2.0 * np.pi * draws[..., 1]
    sin_t = np.sin(theta)
    starts = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)], axis=-1)
    ascend = _gradient_ascent if backend == "gradient" else _coordinate_ascent
    batch = ascend(objective, starts, cfg)
    best = int(np.argmax(batch.values))
    return Optimum(
        value=float(batch.values[best]),
        settings=make_settings(UnitVector3.from_array(v) for v in batch.vectors[best]),
        iterations_used=int(batch.used[best]),
        converged=not batch.capped[best],
        restart_values=tuple(batch.values.tolist()),
        restarts_capped=int(batch.capped.sum()),
    )


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
    return _run_restarts(objective, cfg, backend,
                         lambda units: SvetlichnySettings(*units))


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
    return _run_restarts(objective, cfg, backend,
                         lambda units: ChshSettings(*map(spin_observable, units)))


def svetlichny_expectation(rho: DensityMatrix, settings: SvetlichnySettings) -> float:
    """Tr[S_v rho] for explicit settings; the recheck for optimizer output."""
    return linalg.trace_product(svetlichny_operator(settings), rho.matrix)


def chsh_expectation(rho: DensityMatrix, settings: ChshSettings) -> float:
    """Tr[B rho] for explicit two-qubit settings."""
    return linalg.trace_product(chsh_operator(settings), rho.matrix)

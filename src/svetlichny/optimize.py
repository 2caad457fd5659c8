"""Direct numerical maximization of Svetlichny and CHSH expectations.

The certificates elsewhere in this package never optimize measurement
settings; this module is the independent cross-check that does. Both
objectives are multilinear in the Bloch vectors of the settings, so two
backends are natural, and both work on the unit vectors themselves. The
gradient backend takes Riemannian Newton steps on the product of spheres.
Multilinearity makes the exact Hessian cheap: each block is the
correlation tensor, for three parties contracted with a sum or difference
of the third party's vectors. Its projection onto the tangent planes is
diagonalized, and the step divides the gradient by the absolute
curvature along each eigenvector, so it climbs even where the Hessian is
indefinite and strides along the nearly flat ridges these landscapes
develop near product-state optima. Each trial point is renormalized (a
retraction onto the sphere, which has no poles to stall at) and the step
halved until the value rises. The coordinate backend exploits
multilinearity directly: freezing all but one vector leaves a linear
functional whose maximizer on the unit sphere is the normalized
coefficient vector, and each update computes only that one coefficient
row. The two must agree; tests hold them to 1e-6 of each other.

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
# The Newton step never divides by a curvature smaller than this, and
# halves a trial step at most _HALVINGS times.
_CURVATURE_FLOOR = 1e-8
_HALVINGS = 60

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
    """energy, coefficient rows and Hessian of a batch of (restarts, n, 3) vectors.

    The rows come in pairs (row 2g and 2g + 1 for g = 0, 1, ...); _rows
    returns, for a slice of pairs and a slice of parities, a
    (restarts, pairs * parities, 3) array. The objective is linear in each
    vector, so the energy is v0.g0 + v1.g1. Subclasses also give hessian,
    the exact (restarts, 3n, 3n) Euclidean Hessian; the objective is a
    homogeneous polynomial of the given degree, so Hv = (degree - 1) g.
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
    (x0, x1) with the stacked slices. The signs of the eight terms are
    symmetric in the three parties, so the Hessian block of any two
    parties' vectors i and j is the same slice contracted with the third
    party's w of parity pair (i, j).
    """

    n_vectors = 6
    degree = 3
    # per row pair (a, b, c): the x pair and the pair forming w
    _contracted = np.array([[2, 3], [0, 1], [0, 1]])
    _formed = np.array([[4, 5], [4, 5], [2, 3]])
    # per party pair (AB, AC, BC): the third party's vectors, and where
    # the block of vector pair (i, j) sits in the (6, 6) block grid
    _third = np.array([[4, 5], [2, 3], [0, 1]])
    _block_rows = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3]])
    _block_cols = np.array([[2, 3, 2, 3], [4, 5, 4, 5], [4, 5, 4, 5]])

    def __init__(self, tensor: np.ndarray) -> None:
        # T as [w index, (x index, row index)] for each row pair; the last
        # three are also T as [third index, (first index, second index)]
        # for each party pair
        self._slices = np.stack([tensor.transpose(2, 1, 0).reshape(3, 9),
                                 tensor.transpose(2, 0, 1).reshape(3, 9),
                                 tensor.transpose(1, 0, 2).reshape(3, 9),
                                 tensor.reshape(3, 9)])

    def _rows(self, vectors: np.ndarray, pairs: slice, parities: slice) -> np.ndarray:
        count = len(vectors)
        w = _SIGNS[parities].reshape(-1, 2) @ vectors[:, self._formed[pairs]]
        sliced = (w @ self._slices[:3][pairs]).reshape(*w.shape[:2], -1, 6, 3)
        x = vectors[:, self._contracted[pairs]].reshape(count, -1, 1, 1, 6)
        return (x @ sliced).reshape(count, -1, 3)

    def hessian(self, vectors: np.ndarray) -> np.ndarray:
        count = len(vectors)
        w = _SIGNS.reshape(4, 2) @ vectors[:, self._third]
        blocks = (w @ self._slices[1:]).reshape(count, 3, 4, 3, 3)
        grid = np.zeros((count, 6, 6, 3, 3))
        grid[:, self._block_rows, self._block_cols] = blocks
        grid[:, self._block_cols, self._block_rows] = blocks.swapaxes(-1, -2)
        return grid.swapaxes(2, 3).reshape(count, 18, 18)


class _ChshObjective(_Multilinear):
    """<B_CHSH> as a multilinear function of four unit vectors a0, a1, b0, b1.

    The rows are T(b0 + b1), T(b0 - b1), T^T(a0 + a1) and T^T(a0 - a1).
    """

    n_vectors = 4
    degree = 2
    _formed = np.array([[2, 3], [0, 1]])

    def __init__(self, tensor: np.ndarray) -> None:
        self._right = np.stack([tensor.T, tensor])  # w @ right is T w, then T^T w
        # the Hessian is constant: block (a_i, b_j) is T times _SIGNS[0][i, j]
        grid = np.zeros((4, 3, 4, 3))
        grid[:2, :, 2:] = _SIGNS[0][:, None, :, None] * tensor[:, None, :]
        grid[2:, :, :2] = grid[:2, :, 2:].transpose(2, 3, 0, 1)
        self._hessian = grid.reshape(12, 12)

    def hessian(self, vectors: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self._hessian, (len(vectors), 12, 12))

    def _rows(self, vectors: np.ndarray, pairs: slice, parities: slice) -> np.ndarray:
        w = _SIGNS[0, parities] @ vectors[:, self._formed[pairs]]
        return (w @ self._right[pairs]).reshape(len(vectors), -1, 3)


_E_Z = np.array([0.0, 0.0, 1.0])
_PLANE = np.eye(3)[:, :2]


def _tangent_frame(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases of (count, n, 3) unit vectors, block-diagonal.

    Returns (count, 3n, 2n) with vector i's basis in block (i, i): the
    first two columns of the Householder reflection I - uu^T / (1 + |z|),
    u = v + sign(z) e_z, which maps v to -sign(z) e_z. No division is by
    less than 1, whatever the vector.
    """
    count, n = vectors.shape[:2]
    z = vectors[..., 2:]
    u = vectors + np.copysign(_E_Z, z)
    basis = _PLANE - u[..., None] * (u[..., None, :2] / (1.0 + np.abs(z))[..., None])
    return (basis[:, :, :, None] * np.eye(n)[:, None, :, None]).reshape(count, 3 * n, 2 * n)


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
    """Riemannian Newton ascent on the product of unit spheres.

    Each iteration reads the Euclidean gradient g = Hv / (degree - 1) off
    the exact Hessian H (Euler's identity for a homogeneous polynomial) and
    projects H onto a tangent basis B: the Riemannian Hessian is
    B^T (H - diag(lambda_i I)) B with lambda_i = v_i.g_i (Absil, Baker and
    Gallivan, FoCM 7, 303, 2007). Far from a maximum it is indefinite, so
    the step is saddle-free: along each eigenvector u_k, with curvature
    w_k, it moves (u_k.g) / max(|w_k|, _CURVATURE_FLOOR), which climbs
    whatever the sign of w_k. The step is capped at length 1 (a trust
    radius), the trial point renormalized, and the step halved until the
    value rises. A restart stops when its tangent gradient is below _TOL,
    when the predicted gain g.d is at the rounding level of its value, or
    when no halving raises the value; each counts as converged.
    """
    count, n = vectors.shape[:2]
    vectors = vectors.copy()
    energy = objective.energy(vectors)
    used = np.zeros(count, dtype=int)
    stopped = np.zeros(count, dtype=bool)
    live = np.arange(count)
    diagonal = np.arange(2 * n)
    for iteration in range(cfg.max_iterations):
        used[live] = iteration + 1
        here = vectors[live]
        hessian = objective.hessian(here)
        gradient = hessian @ here.reshape(-1, 3 * n, 1)
        gradient /= objective.degree - 1
        radial = np.add.reduce(gradient.reshape(here.shape) * here, axis=2)
        frame = _tangent_frame(here)
        frame_t = frame.swapaxes(1, 2)
        projected = frame_t @ hessian @ frame
        projected[:, diagonal, diagonal] -= np.repeat(radial, 2, axis=1)
        curvature, directions = np.linalg.eigh(projected)
        along = directions.swapaxes(1, 2) @ (frame_t @ gradient)
        scaled = along / np.maximum(np.abs(curvature), _CURVATURE_FLOOR)[..., None]
        gain = _dot(along, scaled)
        done = (np.sqrt(_dot(along, along)) < _TOL) | (
            gain <= 1e-15 * np.maximum(1.0, np.abs(energy[live])))
        step = (frame @ (directions @ scaled)).reshape(here.shape)
        step /= np.maximum(1.0, np.sqrt(_dot(step, step)))[:, None, None]
        if done.any():
            stopped[live[done]] = True
            live, here, step = (x[~done] for x in (live, here, step))
            if live.size == 0:
                break
        pending, current = live, energy[live]
        for _ in range(_HALVINGS):
            candidate = here + step
            candidate /= _norms(candidate, axis=2)
            value = objective.energy(candidate)
            rose = value > current
            if rose.any():
                stepped = pending[rose]
                vectors[stepped], energy[stepped] = candidate[rose], value[rose]
                pending, here, step, current = (
                    x[~rose] for x in (pending, here, step, current))
                if pending.size == 0:
                    break
            step *= 0.5
        stopped[pending] = True
        live = live[~stopped[live]]
        if live.size == 0:
            break
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

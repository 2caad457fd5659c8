"""Maximization of the Svetlichny and CHSH expectations over settings.

The certificates elsewhere in this package never optimize measurement
settings; this module is the independent cross-check that does. Both
objectives follow one sign rule: a term of the correlation tensor T at
one setting per party counts +1 when at most one party uses its primed
setting, and -1 otherwise. So each is the party tensor K = s (x) T
contracted with every party's stacked vector [a; a'], [b; b'], ...,
multilinear in the Bloch vectors.

The CHSH maximum is exact. With T = U diag(s1, s2, s3) V^T, it is
2 sqrt(s1^2 + s2^2) (Horodecki, Horodecki and Horodecki, PLA 200, 340,
1995), attained at a0 = u1, a1 = u2 and b0, b1 = cos t v1 +- sin t v2
with t = atan2(s2, s1); the value is the objective at those vectors.

The Svetlichny maximum has no closed form, so it is ascended from
restarts, and both backends work on the unit vectors themselves. The
gradient backend takes Riemannian Newton steps on the product of
spheres. Multilinearity makes the exact Hessian cheap: the block of two
parties is K contracted with the third. Its projection onto the tangent
planes is diagonalized, and the step divides the gradient by the
absolute curvature along each eigenvector, so it climbs even where the
Hessian is indefinite and strides along the nearly flat ridges these
landscapes develop near product-state optima. Each trial point is
renormalized (a retraction onto the sphere, which has no poles to stall
at) and the step halved until the value rises. The coordinate backend
exploits multilinearity directly: freezing the other parties leaves a
linear functional of one party's two vectors, maximized by its two
normalized coefficient rows, which never read that party's own vectors;
a sweep updates one party at a time. It can end slightly below the
gradient backend, and on ridge states it stops at its cap of 500
sweeps, which restarts_capped reports.

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
from .nonlocality import correlation_tensor
from .operators import (
    ChshSettings,
    SvetlichnySettings,
    UnitVector3,
    chsh_operator,
    svetlichny_operator,
)
from .states import DensityMatrix

DEFAULT_SEED = 1729
DEFAULT_RESTARTS = 64
BACKENDS = ("gradient", "coordinate")

# Each restart takes at most _MAX_ITERATIONS Newton steps or sweeps, and
# stops sooner once the tangent-gradient norm (gradient backend) or the
# gain of a full sweep (coordinate backend) falls below _TOL.
_MAX_ITERATIONS = 500
_TOL = 1e-10
# The Newton step never divides by a curvature smaller than this, and
# halves a trial step at most _HALVINGS times.
_CURVATURE_FLOOR = 1e-8
_HALVINGS = 60

class OptimizerError(ValueError):
    pass


@dataclass(frozen=True)
class Optimum:
    """Best value found, the unit vectors achieving it, and how hard it was.

    vectors are in setting order (a, a', b, b', c, c' or a0, a1, b0, b1).
    A CHSH optimum is exact: one restart, 0 iterations, none capped. A
    Svetlichny optimum is the first best in draw order of a batch of
    restarts; iterations_used and converged describe that restart.
    restart_values holds every restart's final value in draw order, so the
    first k entries are the values a k-restart run finds; restarts_capped
    counts the restarts that hit the cap of 500 iterations unconverged.
    """

    value: float
    vectors: tuple[UnitVector3, ...]
    iterations_used: int
    converged: bool
    restart_values: tuple[float, ...]
    restarts_capped: int


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner product of each restart's flattened x and y.

    Each restart gets its own dot call, so its bits never depend on the
    batch it shares.
    """
    count = len(x)
    return (x.reshape(count, 1, -1) @ y.reshape(count, -1, 1))[:, 0, 0]


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    return np.sqrt(np.add.reduce(x * x, axis=axis, keepdims=True))


class _Multilinear:
    """energy and coefficient rows of a batch of (restarts, 2n, 3) vectors.

    Party p's stacked vector x_p = [v_2p; v_2p+1] meets the party tensor
    K[(i, m), (j, n), ...] = s(i, j, ...) T[m, n, ...] of shape (6,)^n,
    where s is +1 when at most one party uses its primed setting (bit 1)
    and -1 otherwise: the expectation is K contracted with every x_p. A
    party's two coefficient rows are K contracted with every other party,
    so they never read its own vectors.
    """

    def __init__(self, tensor: np.ndarray) -> None:
        n = tensor.ndim
        self.degree, self.n_vectors = n, 2 * n
        signs = np.where(np.indices((2,) * n).sum(axis=0) <= 1, 1.0, -1.0)
        interleave = np.arange(2 * n).reshape(2, n).T.reshape(-1)
        self._tensor = np.multiply.outer(signs, tensor).transpose(interleave).reshape((6,) * n)
        # party p's axis first, the others in order after it
        self._facing = [np.moveaxis(self._tensor, p, 0).reshape(-1, 6) for p in range(n)]

    def _party(self, x: np.ndarray, p: int) -> np.ndarray:
        """Party p's two rows, (restarts, 6), from (restarts, n, 6) stacked vectors."""
        out = self._facing[p]
        for q in reversed(range(self.degree)):
            if q != p:
                out = (out @ x[:, q, :, None]).reshape(len(x), -1, 6)
        return out[:, 0]

    def energy(self, vectors: np.ndarray) -> np.ndarray:
        x = vectors.reshape(len(vectors), -1, 6)
        return _dot(x[:, 0], self._party(x, 0))

    def coefficient_gradients(self, vectors: np.ndarray, party: int):
        """`party`'s two coefficient rows, (restarts, 2, 3)."""
        x = vectors.reshape(len(vectors), -1, 6)
        return self._party(x, party).reshape(len(x), 2, 3)


class _SvetlichnyObjective(_Multilinear):
    """<S_v> as a multilinear function of six unit vectors a, a', b, b', c, c'.

    The Hessian block of two parties is K contracted with the third; the
    objective is a homogeneous cubic, so Hv = 2g.
    """

    def __init__(self, tensor: np.ndarray) -> None:
        super().__init__(tensor)
        # K with the party outside each pair (AB, AC, BC) last
        self._outside = np.stack([np.moveaxis(self._tensor, r, -1).reshape(36, 6)
                                  for r in (2, 1, 0)])

    def hessian(self, vectors: np.ndarray) -> np.ndarray:
        """The (restarts, 18, 18) Hessian from its blocks AB, AC and BC."""
        count = len(vectors)
        # parties C, B, A: the one outside each pair
        x = vectors.reshape(count, 3, 6)[:, ::-1, :, None]
        blocks = (self._outside @ x).reshape(count, 3, 6, 6)
        grid = np.zeros((count, 3, 3, 6, 6))
        grid[:, (0, 0, 1), (1, 2, 2)] = blocks
        grid[:, (1, 2, 2), (0, 0, 1)] = blocks.swapaxes(-1, -2)
        return grid.swapaxes(2, 3).reshape(count, 18, 18)


class _ChshObjective(_Multilinear):
    """<B_CHSH> as a multilinear function of four unit vectors a0, a1, b0, b1."""


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

    converged is a plain bool, True when every restart converged,
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


def _gradient_ascent(objective, vectors: np.ndarray, max_iterations=_MAX_ITERATIONS) -> _Batch:
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
    for iteration in range(max_iterations):
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


def _coordinate_ascent(objective, vectors: np.ndarray, max_iterations=_MAX_ITERATIONS) -> _Batch:
    """Sweep the parties, replacing both vectors of each by their normalized rows."""
    count = len(vectors)
    vectors = vectors.copy()
    energy = objective.energy(vectors)
    used = np.zeros(count, dtype=int)
    stopped = np.zeros(count, dtype=bool)
    live = np.arange(count)
    for sweep in range(max_iterations):
        used[live] = sweep + 1
        batch = vectors[live]
        for party in range(objective.degree):
            coefficient = objective.coefficient_gradients(batch, party=party)
            norm = _norms(coefficient, axis=2)
            np.divide(coefficient, norm, out=batch[:, 2 * party:2 * party + 2],
                      where=norm > 1e-14)
        improved = objective.energy(batch)
        vectors[live] = batch
        flat = improved - energy[live] < _TOL
        energy[live] = improved
        stopped[live[flat]] = True
        live = live[~flat]
        if live.size == 0:
            break
    return _batch(energy, vectors, used, stopped)


def maximize_svetlichny(rho: DensityMatrix, *, restarts: int = DEFAULT_RESTARTS,
                        seed: int = DEFAULT_SEED, backend: str = "gradient") -> Optimum:
    """Best Svetlichny expectation over all six measurement directions, from
    `restarts` starts drawn with `seed`, each ascended by `backend`."""
    if restarts < 1:
        raise OptimizerError("restarts must be at least 1")
    if seed < 0:
        raise OptimizerError("seed must be non-negative")
    if backend not in BACKENDS:
        raise OptimizerError(f"backend must be one of {BACKENDS}")
    if rho.qubits != 3:
        raise OptimizerError(f"expected a three-qubit state, got {rho.qubits} qubits")
    draws = np.random.default_rng(seed).random((restarts, 6, 2))
    theta, phi = np.arccos(1.0 - 2.0 * draws[..., 0]), 2.0 * np.pi * draws[..., 1]
    sin_t = np.sin(theta)
    starts = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)], axis=-1)
    ascend = _gradient_ascent if backend == "gradient" else _coordinate_ascent
    batch = ascend(_SvetlichnyObjective(correlation_tensor(rho)), starts)
    best = int(np.argmax(batch.values))
    return Optimum(
        value=float(batch.values[best]),
        vectors=tuple(UnitVector3.from_array(v) for v in batch.vectors[best]),
        iterations_used=int(batch.used[best]),
        converged=not batch.capped[best],
        restart_values=tuple(batch.values.tolist()),
        restarts_capped=int(batch.capped.sum()),
    )


def maximize_chsh(rho: DensityMatrix) -> Optimum:
    """Best CHSH expectation over traceless spin observables, in closed form."""
    if rho.qubits != 2:
        raise OptimizerError(f"expected a two-qubit state, got {rho.qubits} qubits")
    tensor = correlation_tensor(rho)
    left, singular, right = np.linalg.svd(tensor)
    angle = np.arctan2(singular[1], singular[0])
    mix = np.array([[np.cos(angle), np.sin(angle)], [np.cos(angle), -np.sin(angle)]])
    units = tuple(map(UnitVector3.from_array, [*left.T[:2], *mix @ right[:2]]))
    vectors = np.array([unit.as_array() for unit in units])
    value = float(_ChshObjective(tensor).energy(vectors[None])[0])
    return Optimum(value=value, vectors=units, iterations_used=0, converged=True,
                   restart_values=(value,), restarts_capped=0)


def svetlichny_expectation(rho: DensityMatrix, settings: SvetlichnySettings) -> float:
    """Tr[S_v rho] for explicit settings; the recheck for optimizer output."""
    return linalg.trace_product(svetlichny_operator(settings), rho.matrix)


def chsh_expectation(rho: DensityMatrix, settings: ChshSettings) -> float:
    """Tr[B rho] for explicit two-qubit settings."""
    return linalg.trace_product(chsh_operator(settings), rho.matrix)

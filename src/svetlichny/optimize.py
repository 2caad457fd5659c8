"""Maximization of the Svetlichny and CHSH expectations over settings.

The certificates elsewhere in this package never optimize measurement
settings; this module is the independent cross-check that does. Both
objectives follow one sign rule: a term of the correlation tensor T at
one setting per party counts +1 when at most one party uses its primed
setting, and -1 otherwise. So each is the party tensor K = s (x) T
contracted with every party's stacked vector [a; a'], [b; b'], ...,
multilinear in the Bloch vectors. K is read off T by one gather, in the
layouts the contractions take (each party's facing layout, and the
Hessian's outside layout), through an index and sign table built once
per qubit count, on first use. Each contraction is written out for two
and for three parties, with no generic loop.

The CHSH maximum is exact. With T = U diag(s1, s2, s3) V^T, it is
2 sqrt(s1^2 + s2^2) (Horodecki, Horodecki and Horodecki, PLA 200, 340,
1995), attained at a0 = u1, a1 = u2 and b0, b1 = cos t v1 +- sin t v2
with t = atan2(s2, s1); the value is the objective at those vectors.

The Svetlichny maximum has no closed form, so it is ascended from
restarts, and both backends work on the unit vectors themselves. The
gradient backend takes Riemannian Newton steps on the product of
spheres. Multilinearity makes the exact Hessian cheap: the block of two
parties is K contracted with the third; one gather through a fixed index
table lays out the full Hessian from the three pair blocks, their
transposes and zeros. Its projection onto the tangent
planes is diagonalized, and the step divides the gradient by the
absolute curvature along each eigenvector, so it climbs even where the
Hessian is indefinite and strides along the nearly flat ridges these
landscapes develop near product-state optima. Each trial point is
renormalized (a retraction onto the sphere, which has no poles to stall
at) and the step halved until the value rises. The coordinate backend
is the higher-order power method (De Lathauwer, De Moor and Vandewalle,
SIAM J. Matrix Anal. Appl. 21, 1324, 2000): with the other parties
frozen, a party's two vectors are best at its two normalized coefficient
rows, so a sweep updates A, then B, then C. One pair block, K contracted
with x_C, gives A's rows (times x_B) and B's (A's new vectors times it);
C's rows dotted with C's new vectors are the sweep's value. The sweep
writes the live batch in place, through views bound once per live batch
and again only when a restart stops. It can end slightly below the
gradient backend, and on ridge states it stops at its cap of 500 sweeps,
which restarts_capped reports.

Restarts draw uniform starting directions from a seeded generator, all
draws made up front so a longer restart schedule extends a shorter one.
Every restart then ascends in one batch: the restarts are the leading
axis of every array, each restart keeps its own step and stopping state,
and the live restarts' points and values are compact arrays; a restart
that stops is written out once and drops out of the batch. A restart's
arithmetic does not depend on which other restarts share its batch, so
its result is the same bits at any restart count, and the best value is
nondecreasing in the restart count.

T comes from operators.correlation_tensor. This module imports only the
base modules (linalg, operators, states), never the paper's certificate
(nonlocality, bounds, reproduce), so the two routes share the base layer
and nothing else; tests/test_dependencies.py holds the layers apart.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .operators import (
    ChshSettings,
    SvetlichnySettings,
    UnitVector3,
    chsh_operator,
    correlation_tensor,
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


def _qubits(rho: DensityMatrix, count: int) -> DensityMatrix:
    """rho itself, once it has the qubit count its target acts on."""
    if rho.qubits != count:
        word = {2: "two", 3: "three"}[count]
        raise OptimizerError(f"expected a {word}-qubit state, got {rho.qubits} qubits")
    return rho


class Optimum(NamedTuple):
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
    so they never read its own vectors. K is read in the layouts the
    contractions take, party p's facing layout (its axis first, the
    others in order after it) for each p, by one gather of T.
    """

    def __init__(self, tensor: np.ndarray) -> None:
        n = tensor.ndim
        self.degree, self.n_vectors = n, 2 * n
        index, sign = _layout_tables(n)
        self._layouts = tensor.reshape(-1)[index] * sign
        # party 0's facing layout is K itself. One view per party, made here:
        # indexing the stack would make a new view on every contraction.
        self._facing = tuple(self._layouts[:n])

    def _rows(self, x: np.ndarray, party: int) -> np.ndarray:
        """`party`'s two rows, (restarts, 6, 1), from (restarts, n, 6) stacked vectors:
        its facing layout contracted with the last other party, then the first."""
        rows = self._facing[party]
        if self.degree == 2:
            return rows @ x[:, 1 - party, :, None]
        first, last = _OTHERS[party]
        rows = (rows @ x[:, last, :, None]).reshape(len(x), 6, 6)
        return rows @ x[:, first, :, None]

    def energy(self, vectors: np.ndarray) -> np.ndarray:
        x = vectors.reshape(len(vectors), -1, 6)
        return _dot(x[:, 0], self._rows(x, 0))

    def coefficient_gradients(self, vectors: np.ndarray, party: int):
        """`party`'s two coefficient rows, (restarts, 2, 3)."""
        x = vectors.reshape(len(vectors), -1, 6)
        return self._rows(x, party).reshape(len(x), 2, 3)


# the two other parties of each of three, in order
_OTHERS = ((1, 2), (0, 2), (0, 1))


@cache
def _layout_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each entry of K's layouts sits in the flattened T of n qubits, and its sign.

    The layouts are each party's facing layout, (6^(n-1), 6), and for
    three parties the Hessian's outside layout after them: K with the
    party outside each pair AB, AC, BC last. They are laid out by
    moveaxis from K = s (x) t, where t holds each entry's position in T
    counted from 1, so |K| - 1 is the index and the sign is +1.0 or -1.0:
    T gathered through them is s (x) T in those layouts, bit for bit.
    Built once per qubit count, on first use.
    """
    signs = np.where(np.indices((2,) * n).sum(axis=0) <= 1, 1, -1)
    interleave = np.arange(2 * n).reshape(2, n).T.reshape(-1)
    positions = np.arange(1, 3 ** n + 1).reshape((3,) * n)
    k = np.multiply.outer(signs, positions).transpose(interleave).reshape((6,) * n)
    moves = [(p, 0) for p in range(n)] + ([(r, -1) for r in (2, 1, 0)] if n == 3 else [])
    layouts = np.stack([np.moveaxis(k, p, q).reshape(-1, 6) for p, q in moves])
    index, sign = np.abs(layouts) - 1, np.sign(layouts).astype(float)
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


class _SvetlichnyObjective(_Multilinear):
    """<S_v> as a multilinear function of six unit vectors a, a', b, b', c, c'.

    The Hessian block of two parties is K contracted with the third; the
    objective is a homogeneous cubic, so Hv = 2g.
    """

    def __init__(self, tensor: np.ndarray) -> None:
        super().__init__(tensor)
        # K with the party outside each pair (AB, AC, BC) last
        self._outside = self._layouts[3:]

    def hessian(self, vectors: np.ndarray) -> np.ndarray:
        """The (restarts, 18, 18) Hessian, gathered from its blocks AB, AC and BC."""
        count = len(vectors)
        # parties C, B, A: the one outside each pair
        x = vectors.reshape(count, 3, 6)[:, ::-1, :, None]
        blocks = (self._outside @ x).reshape(count, 108)
        padded = np.concatenate((blocks, np.zeros((count, 1))), axis=1)
        # np.take writes a C-contiguous result. padded[:, _HESSIAN_INDEX] would
        # lay the batch axis out last, and H @ v on that layout takes another
        # BLAS path whose bits depend on the batch size.
        return np.take(padded, _HESSIAN_INDEX, axis=1)


def _hessian_index() -> np.ndarray:
    """Where each entry of the 18x18 Hessian sits in the 108 entries of the
    pair blocks AB, AC and BC followed by one zero: the block of parties
    p < q is their pair block, the block (q, p) its transpose, and the
    block of a party with itself is zero."""
    blocks = np.arange(108).reshape(3, 6, 6)
    grid = np.full((3, 3, 6, 6), 108)
    grid[(0, 0, 1), (1, 2, 2)] = blocks
    grid[(1, 2, 2), (0, 0, 1)] = blocks.swapaxes(-1, -2)
    return grid.swapaxes(1, 2).reshape(18, 18)


_HESSIAN_INDEX = _hessian_index()


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
    frame = np.zeros((count, n, 3, n, 2))
    diagonal = np.arange(n)
    # the two index arrays, split by a slice, put the block axis first
    frame[:, diagonal, :, diagonal] = basis.swapaxes(0, 1)
    return frame.reshape(count, 3 * n, 2 * n)


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
    when no halving raises the value; each counts as converged. The live
    restarts' points and values are compact arrays, and a restart's row
    is written out once, when it stops.
    """
    count, n = vectors.shape[:2]
    live, here = np.arange(count), vectors.copy()
    current = objective.energy(here)
    vectors, energy = np.empty_like(here), np.empty_like(current)
    used = np.full(count, max_iterations)
    stopped = np.zeros(count, dtype=bool)
    for iteration in range(1, max_iterations + 1):
        hessian = objective.hessian(here)
        gradient = hessian @ here.reshape(-1, 3 * n, 1)
        gradient /= objective.degree - 1
        radial = np.add.reduce(gradient.reshape(here.shape) * here, axis=2)
        frame = _tangent_frame(here)
        frame_t = frame.swapaxes(1, 2)
        projected = frame_t @ hessian @ frame
        projected.reshape(len(here), -1)[:, ::2 * n + 1] -= np.repeat(radial, 2, axis=1)
        curvature, directions = np.linalg.eigh(projected)
        along = directions.swapaxes(1, 2) @ (frame_t @ gradient)
        scaled = along / np.maximum(np.abs(curvature), _CURVATURE_FLOOR)[..., None]
        gain = _dot(along, scaled)
        stop = (np.sqrt(_dot(along, along)) < _TOL) | (
            gain <= 1e-15 * np.maximum(1.0, np.abs(current)))
        step = (frame @ (directions @ scaled)).reshape(here.shape)
        step /= np.maximum(1.0, np.sqrt(_dot(step, step)))[:, None, None]
        # the rows still halving, and their points, steps and values
        rows, base, before = np.arange(len(here)), here, current
        if stop.any():
            rows = rows[~stop]
            base, step, before = base[rows], step[rows], before[rows]
        for _ in range(_HALVINGS):
            if rows.size == 0:
                break
            candidate = base + step
            candidate /= _norms(candidate, axis=2)
            value = objective.energy(candidate)
            rose = value > before
            if rose.all() and rows.size == len(here):
                here, current = candidate, value
                break
            here[rows[rose]], current[rows[rose]] = candidate[rose], value[rose]
            rows, base, step, before = (x[~rose] for x in (rows, base, step, before))
            step *= 0.5
        else:
            # no halving raised these rows' values
            stop[rows] = True
        if stop.any():
            done = live[stop]
            vectors[done], energy[done], used[done] = here[stop], current[stop], iteration
            stopped[done] = True
            live, here, current = (x[~stop] for x in (live, here, current))
            if live.size == 0:
                break
    vectors[live], energy[live] = here, current
    return _Batch(energy, vectors, used, bool(stopped.all()), ~stopped)


def _coordinate_ascent(objective, vectors: np.ndarray, max_iterations=_MAX_ITERATIONS) -> _Batch:
    """Sweep the parties, replacing both vectors of each by their normalized rows.

    A row that vanishes leaves its vector as it was. The live restarts are
    updated in place, through views bound once per live batch; a restart
    that stops is written out and leaves the batch.
    """
    count = len(vectors)
    energy = objective.energy(vectors)
    used = np.full(count, max_iterations)
    stopped = np.zeros(count, dtype=bool)
    live, batch, current = np.arange(count), vectors.copy(), energy
    vectors = np.empty_like(batch)
    k, three, size = objective._facing[0], objective.degree == 3, 0
    for sweep in range(1, max_iterations + 1):
        if len(batch) != size:
            size, x = len(batch), batch.reshape(len(batch), -1, 6)
            # x_A as a row, x_B and x_C as columns; x_C is read for three parties only
            x_a, x_b, x_c = x[:, 0, None], x[:, 1, :, None], x[:, -1, :, None]
            a_out, b_out, c_out = batch[:, 0:2], batch[:, 2:4], batch[:, 4:6]
            last_column = batch[:, -2:].reshape(size, -1, 1)
        block = (k @ x_c).reshape(size, 6, 6) if three else k
        rows = (block @ x_b).reshape(size, 2, 3)
        norm = _norms(rows, axis=2)
        np.divide(rows, norm, out=a_out, where=norm > 1e-14)
        rows = (x_a @ block).reshape(size, 2, 3)
        norm = _norms(rows, axis=2)
        np.divide(rows, norm, out=b_out, where=norm > 1e-14)
        if three:
            rows = objective.coefficient_gradients(batch, party=2)
            norm = _norms(rows, axis=2)
            np.divide(rows, norm, out=c_out, where=norm > 1e-14)
        improved = (rows.reshape(size, 1, -1) @ last_column)[:, 0, 0]
        flat = improved - current < _TOL
        current = improved
        if flat.any():
            done = live[flat]
            vectors[done], energy[done], used[done] = batch[flat], current[flat], sweep
            stopped[done] = True
            live, batch, current = (a[~flat] for a in (live, batch, current))
            if live.size == 0:
                break
    vectors[live], energy[live] = batch, current
    return _Batch(energy, vectors, used, bool(stopped.all()), ~stopped)


def maximize_svetlichny(rho: DensityMatrix, *, restarts: int = DEFAULT_RESTARTS,
                        seed: int = DEFAULT_SEED, backend: str = "gradient") -> Optimum:
    """Best Svetlichny expectation over all six measurement directions, from
    `restarts` starts drawn with `seed`, each ascended by `backend`."""
    for name, value in (("restarts", restarts), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise OptimizerError(f"{name} must be an integer, got {value!r}")
    if restarts < 1:
        raise OptimizerError("restarts must be at least 1")
    if seed < 0:
        raise OptimizerError("seed must be non-negative")
    if backend not in BACKENDS:
        raise OptimizerError(f"backend must be one of {BACKENDS}")
    _qubits(rho, 3)
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
    tensor = correlation_tensor(_qubits(rho, 2))
    left, singular, right = np.linalg.svd(tensor)
    angle = np.arctan2(singular[1], singular[0])
    mix = np.array([[np.cos(angle), np.sin(angle)], [np.cos(angle), -np.sin(angle)]])
    units = tuple(map(UnitVector3.from_array, [*left.T[:2], *mix @ right[:2]]))
    vectors = np.array(units)
    value = float(_ChshObjective(tensor).energy(vectors[None])[0])
    return Optimum(value=value, vectors=units, iterations_used=0, converged=True,
                   restart_values=(value,), restarts_capped=0)


def svetlichny_expectation(rho: DensityMatrix, settings: SvetlichnySettings) -> float:
    """Tr[S_v rho] for explicit settings; the recheck for optimizer output."""
    return float(linalg.trace_product(svetlichny_operator(settings), _qubits(rho, 3).matrix))


def chsh_expectation(rho: DensityMatrix, settings: ChshSettings) -> float:
    """Tr[B rho] for explicit two-qubit settings."""
    return float(linalg.trace_product(chsh_operator(settings), _qubits(rho, 2).matrix))

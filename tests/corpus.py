"""States and numpy oracles that the tests share, each written once.

pytest does not collect this module. It imports numpy and the standard
library only, never the package, so a test that compares the package
with one of these oracles checks one against the other
(tests/test_dependencies.py holds it to that). Builders return bare
arrays; a test that needs a DensityMatrix validates at the call site. A
random builder draws from the Generator it is given in a fixed order, so
a seed fixes its output bit for bit.

Known answers, each a ceiling of max <S> that needs no optimizer:

- placed product_factors, rho_ij (x) rho_k with the lone party k in each
  of the three places, and random_biseparable mixtures of products
  across varying cuts: no biseparable state exceeds 4 (Svetlichny, PRD
  35, 3066, 1987).
- noise_line, v rho + (1 - v) I/8: white noise scales T by v, so
  max <S> <= 4 sqrt 2 v, which is at most 4 for v <= 1/sqrt 2.
- bound, 4 sigma_max over T's unfoldings, caps every state (Li, Shen,
  Jing, Fei and Li-Jost, PRA 96, 042323, 2017).
"""

from __future__ import annotations

import functools
import math

import numpy as np

PARTIES = "ABC"
SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
BELL = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex) / 2.0
ZERO = np.array([[1, 0], [0, 0]], dtype=complex)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Density matrix of the given rank (full by default) from a dim x rank Ginibre block."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random ket of the given dimension."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_product_two_qubit(rng: np.random.Generator) -> np.ndarray:
    """Mixture of pure product states; separable by construction."""
    terms = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(terms))
    out = np.zeros((4, 4), dtype=complex)
    for weight in weights:
        left = random_pure(rng, 2)
        right = random_pure(rng, 2)
        ket = np.kron(left, right)
        out += weight * np.outer(ket, ket.conj())
    return out


def random_biseparable(rng: np.random.Generator) -> np.ndarray:
    """Mixture of pure states that are product across some bipartition.

    Each term puts one party in a pure single-qubit state and lets the
    other two share an arbitrary (possibly entangled) pure state; the cut
    varies term by term, which stays inside the biseparable convex hull.
    """
    terms = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(terms))
    out = np.zeros((8, 8), dtype=complex)
    for weight in weights:
        single = random_pure(rng, 2)
        pair = random_pure(rng, 4).reshape(2, 2)
        cut = int(rng.integers(3))
        if cut == 0:
            amp = np.einsum("a,bc->abc", single, pair)
        elif cut == 1:
            amp = np.einsum("b,ac->abc", single, pair)
        else:
            amp = np.einsum("c,ab->abc", single, pair)
        ket = amp.reshape(8)
        out += weight * np.outer(ket, ket.conj())
    return out


def product(rng: np.random.Generator, mixed: bool) -> np.ndarray:
    """Two-qubit product of random pure qubits, each mixed to 0.6 pure + 0.2 I if asked."""
    halves = []
    for _ in range(2):
        ket = random_pure(rng, 2)
        pure = np.outer(ket, ket.conj())
        halves.append(0.6 * pure + 0.2 * np.eye(2) if mixed else pure)
    return np.kron(*halves)


def werner(p: float) -> np.ndarray:
    """p |singlet><singlet| + (1 - p) I/4."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0


def pure(amplitudes: dict[int, float]) -> np.ndarray:
    """Three-qubit |psi><psi| from its nonzero amplitudes, by basis index."""
    ket = np.zeros(8, dtype=complex)
    for index, amplitude in amplitudes.items():
        ket[index] = amplitude
    return np.outer(ket, ket.conj())


def noisy(m: np.ndarray, v: float) -> np.ndarray:
    return v * m + (1.0 - v) * np.eye(8) / 8.0


def local_unitary(rng: np.random.Generator) -> np.ndarray:
    """U_A (x) U_B (x) U_C, each from the QR decomposition of a Ginibre matrix."""
    parties = []
    for _ in range(3):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        parties.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return np.kron(np.kron(parties[0], parties[1]), parties[2])


def permuted(m: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """Three-qubit matrix with its parties reordered: party p of the result is order[p] of m."""
    return m.reshape((2,) * 6).transpose(*order, *(3 + p for p in order)).reshape(8, 8)


def placed(rho_pair: np.ndarray, rho_single: np.ndarray, lone: str) -> np.ndarray:
    """rho_ij (x) rho_k with rho_k on party lone and rho_ij on the other two, in order."""
    order = [0, 1]
    order.insert(PARTIES.index(lone), 2)
    return permuted(np.kron(rho_pair, rho_single), tuple(order))


def product_factors(rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rho_ij, rho_k) pairs: Bell with |0><0| and with I/2, then four rounds of
    random rho_ij of ranks 1 to 4, each with a pure and with a mixed random rho_k."""
    return [(BELL, ZERO), (BELL, np.eye(2) / 2.0)] + [
        (random_density(rng, 4, rank), random_density(rng, 2, single))
        for _ in range(4) for rank in (1, 2, 3, 4) for single in (1, 2)]


def noise_line(rng: np.random.Generator, v: float, draws: int) -> list[np.ndarray]:
    """v rho + (1 - v) I/8 on random pure three-qubit rho."""
    kets = [random_pure(rng, 8) for _ in range(draws)]
    return [noisy(np.outer(ket, ket.conj()), v) for ket in kets]


def correlation_tensor(m: np.ndarray) -> np.ndarray:
    """T[i, j, ...] = Tr[rho sigma_i (x) sigma_j (x) ...] for two or three qubits."""
    t = np.empty((3,) * (len(m).bit_length() - 1))
    for index in np.ndindex(t.shape):
        t[index] = np.trace(m @ functools.reduce(np.kron, SIGMA[list(index)])).real
    return t


def bound(m: np.ndarray) -> float:
    """4 sigma_max, minimised over the three 3x9 unfoldings of a three-qubit T."""
    t = correlation_tensor(m)
    return 4.0 * min(np.linalg.norm(np.moveaxis(t, p, 0).reshape(3, 9), 2) for p in range(3))


def marginal(m: np.ndarray, pair: str | tuple[str, str]) -> np.ndarray:
    """Marginal of an ordered pair of parties of a three-qubit matrix, pair[0] in the first slot."""
    first, second = (PARTIES.index(label) for label in pair)
    spectator = 3 - first - second
    axes = [0, 1, 2, 3, 4, 5]
    axes[3 + spectator] = spectator
    return np.einsum(m.reshape((2,) * 6), axes,
                     [first, second, 3 + first, 3 + second]).reshape(4, 4)


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """rho^T on the second qubit of a pair: <ij|rho^T|kl> = <il|rho|kj>."""
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)

"""Shared helpers: random states with reproducible generators, and solve counts.

Hypothesis runs derandomized and without an example database, so every
property test draws the same examples on every run and every machine.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import settings

from svetlichny import linalg
from svetlichny.states import DensityMatrix, validate

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density matrix from a Ginibre square."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random ket of the given dimension."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_state(rng: np.random.Generator, qubits: int) -> DensityMatrix:
    return validate(random_density(rng, 2 ** qubits), qubits)


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


def random_biseparable(rng: np.random.Generator) -> DensityMatrix:
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
    return validate(out, 3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


@pytest.fixture
def solves(monkeypatch):
    """Matrices diagonalized, by size, counted at the kernel's solver and at
    numpy's; a numpy solve inside the kernel's solver is the same solve, and
    a stacked call counts each matrix of its stack."""
    counts = collections.Counter()
    depth = [0]

    def counting(solver):
        def counted(a, *args, **kwargs):
            if depth[0] == 0:
                shape = np.shape(a)
                counts[shape[-1]] += int(np.prod(shape[:-2]))
            depth[0] += 1
            try:
                return solver(a, *args, **kwargs)
            finally:
                depth[0] -= 1
        return counted

    monkeypatch.setattr(linalg, "hermitian_eigensystem",
                        counting(linalg.hermitian_eigensystem))
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return counts

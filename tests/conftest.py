"""Shared fixtures: a reproducible generator, solve counts, one validating state draw, the
square root of a reduced pair that bounds.product_spectrum reads, and the record checks.

The states and numpy oracles that the tests share live in tests/corpus.py;
random_state here only validates the corpus's full-rank draw.

Hypothesis runs derandomized and without an example database, so every
property test draws the same examples on every run and every machine.
"""

from __future__ import annotations

import collections
import pickle

import numpy as np
import pytest
from hypothesis import settings

from svetlichny import linalg
from svetlichny.states import DensityMatrix, validate
from corpus import random_density

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def random_state(rng: np.random.Generator, qubits: int) -> DensityMatrix:
    return validate(random_density(rng, 2 ** qubits), qubits)


# The ways to build a record from another: a namedtuple builds each without calling its
# class unless the class overrides _make, so a checked record must.
REBUILDS = ("_replace", "_make", "pickled-_replace")


def rebuild(record, path: str, **changes):
    """record with the changed fields, built along one of REBUILDS."""
    if path == "_replace":
        return record._replace(**changes)
    if path == "_make":
        return type(record)._make({**record._asdict(), **changes}.values())
    return pickle.loads(pickle.dumps(record))._replace(**changes)


def assert_checked_on_rebuild(record, path: str, error: type, **bad) -> None:
    """Rebuilding record with bad field values along path raises what the constructor
    raises on them: the same error type and message."""
    with pytest.raises(error) as built:
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(error) as rebuilt:
        rebuild(record, path, **bad)
    assert (type(rebuilt.value), str(rebuilt.value)) == (type(built.value), str(built.value))


def assert_immutable(record) -> None:
    """No field of the record can be set or deleted, and no other attribute set."""
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unlisted = None


def pair_root(rho_ij) -> np.ndarray:
    """The Hermitian square root of a two-qubit DensityMatrix, or the (k, 4, 4) stack of the
    roots of a list of them, through the package's gated solve."""
    matrices = np.array([rho.matrix for rho in rho_ij] if isinstance(rho_ij, list)
                        else rho_ij.matrix)
    return linalg.eigen_root(*linalg.hermitian_eigensystem(matrices))


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

"""Exact identities of the Svetlichny maximum, checked without trusting the optimizer.

The oracle is the bound of Li, Shen, Jing, Fei and Li-Jost (PRA 96,
042323, 2017): max <S> <= 4 sigma_max, where sigma_max is the largest
singular value of a 3x9 unfolding of the correlation tensor
T_ijk = Tr[rho sigma_i (x) sigma_j (x) sigma_k], minimised over the three
unfoldings. T is built here with einsum, not through the package. The
optimizer runs 16 restarts at seed 1729 throughout.

- No optimizer value exceeds the bound; equality holds on GHZ (4 sqrt 2),
  on |000> (4) and on the maximal-slice states.
- Generalized GHZ, cos t|000> + sin t|111>, reaches
  4 max(cos 2t, sqrt 2 sin 2t) (Ghose et al., PRL 102, 250404, 2009).
- White noise, v rho + (1 - v) I/8, adds nothing to T, so T, the bound
  and the optimum all scale by v.
- Local unitaries rotate T by one SO(3) matrix per party, and permuting
  the parties keeps the sign rule, so neither moves the bound or the
  optimum.
- W's optimum is 4.35465 (cf. Ajoy and Rungta, PRA 81, 052334, 2010).

Random states come from hypothesis seeds; the profile in conftest.py is
derandomized, and each test states its example budget.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svetlichny import states
from svetlichny.optimize import OptimizerConfig, maximize_svetlichny

SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
CONFIG = OptimizerConfig(restarts=16, seed=1729)
RANKS = (1, 2, 3, 4, 8)
PERMUTATIONS = list(itertools.permutations(range(3)))[1:]
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def correlation_tensor(m: np.ndarray) -> np.ndarray:
    """T_ijk = sum rho[abc, def] sigma_i[d, a] sigma_j[e, b] sigma_k[f, c]."""
    return np.einsum("abcdef,ida,jeb,kfc->ijk", m.reshape((2,) * 6), SIGMA, SIGMA, SIGMA).real


def bound(m: np.ndarray) -> float:
    t = correlation_tensor(m)
    return 4.0 * min(np.linalg.norm(np.moveaxis(t, p, 0).reshape(3, 9), 2) for p in range(3))


def optimum(m: np.ndarray) -> float:
    return maximize_svetlichny(states.validate(m, 3), CONFIG).value


def random_rank(rng: np.random.Generator, rank: int) -> np.ndarray:
    g = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def pure(amplitudes: dict[int, float]) -> np.ndarray:
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
    return m.reshape((2,) * 6).transpose(*order, *(3 + p for p in order)).reshape(8, 8)


@pytest.mark.parametrize("rank", RANKS)
@settings(max_examples=4, deadline=None)
@given(seed=seeds)
def test_optimizer_never_exceeds_the_bound(rank, seed):
    m = random_rank(np.random.default_rng(seed), rank)
    assert optimum(m) <= bound(m) + 1e-12


@pytest.mark.parametrize("name,value", [("GHZ", 4.0 * math.sqrt(2.0)), ("product-000", 4.0)])
def test_bound_is_attained_on_reference_states(name, value):
    m = states.make_reference(name).matrix
    assert bound(m) == pytest.approx(value, abs=1e-12)
    assert optimum(m) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("theta", [1.2, 1.3, 1.4, 1.5])
def test_bound_is_attained_on_maximal_slice(theta):
    m = states.make_example(states.FAMILY_MAXIMAL_SLICE, theta).matrix
    b = bound(m)
    assert 5.4680 <= b <= 5.6499
    assert optimum(m) == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("theta", np.linspace(math.pi / 40.0, math.pi / 4.0, 10))
def test_generalized_ghz_closed_form(theta):
    m = pure({0: math.cos(theta), 7: math.sin(theta)})
    exact = 4.0 * max(math.cos(2.0 * theta), math.sqrt(2.0) * math.sin(2.0 * theta))
    assert bound(m) == pytest.approx(exact, abs=1e-9)
    assert optimum(m) == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("v", [0.3, 1.0 / math.sqrt(2.0), 0.9])
@pytest.mark.parametrize("source", ["GHZ", "W", "rank-2"])
def test_white_noise_scales_tensor_bound_and_optimum(source, v):
    if source == "rank-2":
        m = random_rank(np.random.default_rng(1729), 2)
    else:
        m = states.make_reference(source).matrix
    line = noisy(m, v)
    assert np.allclose(correlation_tensor(line), v * correlation_tensor(m), atol=1e-15, rtol=0.0)
    assert bound(line) == pytest.approx(v * bound(m), abs=1e-12)
    assert optimum(line) == pytest.approx(v * optimum(m), abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, rank=st.sampled_from(RANKS))
def test_local_unitaries_leave_bound_and_optimum(seed, rank):
    rng = np.random.default_rng(seed)
    m = random_rank(rng, rank)
    u = local_unitary(rng)
    rotated = u @ m @ u.conj().T
    assert bound(rotated) == pytest.approx(bound(m), abs=1e-9)
    assert optimum(rotated) == pytest.approx(optimum(m), abs=1e-9)


@pytest.mark.parametrize("order", PERMUTATIONS, ids=lambda order: "".join("ABC"[p] for p in order))
@pytest.mark.parametrize("source", ["W", "maximal-slice", "rank-3"])
def test_party_permutations_leave_bound_and_optimum(source, order):
    if source == "rank-3":
        m = random_rank(np.random.default_rng(1729), 3)
    elif source == "maximal-slice":
        m = states.make_example(states.FAMILY_MAXIMAL_SLICE, 1.3).matrix
    else:
        m = states.make_reference(source).matrix
    swapped = permuted(m, order)
    assert bound(swapped) == pytest.approx(bound(m), abs=1e-9)
    assert optimum(swapped) == pytest.approx(optimum(m), abs=1e-9)


def test_w_optimum():
    assert optimum(states.make_reference("W").matrix) == pytest.approx(4.35465, abs=1e-5)

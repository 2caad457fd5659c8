"""Exact identities of the Svetlichny maximum, checked without trusting the optimizer.

The oracle is the bound of Li, Shen, Jing, Fei and Li-Jost (PRA 96,
042323, 2017): max <S> <= 4 sigma_max, where sigma_max is the largest
singular value of a 3x9 unfolding of the correlation tensor
T_ijk = Tr[rho sigma_i (x) sigma_j (x) sigma_k], minimised over the three
unfoldings. T, the bound and the states come from tests/corpus.py, not
from the package. The optimizer runs 16 restarts at seed 1729 throughout.

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
- No biseparable state, placed product or mixture across cuts, and no
  point of the noise line at v = 0.70 goes above 4 (the corpus's known
  ceilings).

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
from svetlichny.optimize import maximize_svetlichny
import corpus

ASCENT = {"restarts": 16, "seed": 1729}
RANKS = (1, 2, 3, 4, 8)
PERMUTATIONS = list(itertools.permutations(range(3)))[1:]
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
FACTORS = corpus.product_factors(np.random.default_rng(1987))


def optimum(m: np.ndarray) -> float:
    return maximize_svetlichny(states.validate(m, 3), **ASCENT).value


@pytest.mark.parametrize("rank", RANKS)
@settings(max_examples=4, deadline=None)
@given(seed=seeds)
def test_optimizer_never_exceeds_the_bound(rank, seed):
    m = corpus.random_density(np.random.default_rng(seed), 8, rank)
    assert optimum(m) <= corpus.bound(m) + 1e-12


@pytest.mark.parametrize("name,value", [("GHZ", 4.0 * math.sqrt(2.0)), ("product-000", 4.0)])
def test_bound_is_attained_on_reference_states(name, value):
    m = states.make_reference(name).matrix
    assert corpus.bound(m) == pytest.approx(value, abs=1e-12)
    assert optimum(m) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("theta", [1.2, 1.3, 1.4, 1.5])
def test_bound_is_attained_on_maximal_slice(theta):
    m = states.make_example(states.FAMILY_MAXIMAL_SLICE, theta).matrix
    b = corpus.bound(m)
    assert 5.4680 <= b <= 5.6499
    assert optimum(m) == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("theta", np.linspace(math.pi / 40.0, math.pi / 4.0, 10))
def test_generalized_ghz_closed_form(theta):
    m = corpus.pure({0: math.cos(theta), 7: math.sin(theta)})
    exact = 4.0 * max(math.cos(2.0 * theta), math.sqrt(2.0) * math.sin(2.0 * theta))
    assert corpus.bound(m) == pytest.approx(exact, abs=1e-9)
    assert optimum(m) == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("v", [0.3, 1.0 / math.sqrt(2.0), 0.9])
@pytest.mark.parametrize("source", ["GHZ", "W", "rank-2"])
def test_white_noise_scales_tensor_bound_and_optimum(source, v):
    if source == "rank-2":
        m = corpus.random_density(np.random.default_rng(1729), 8, 2)
    else:
        m = states.make_reference(source).matrix
    line = corpus.noisy(m, v)
    assert np.allclose(corpus.correlation_tensor(line), v * corpus.correlation_tensor(m),
                       atol=1e-15, rtol=0.0)
    assert corpus.bound(line) == pytest.approx(v * corpus.bound(m), abs=1e-12)
    assert optimum(line) == pytest.approx(v * optimum(m), abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, rank=st.sampled_from(RANKS))
def test_local_unitaries_leave_bound_and_optimum(seed, rank):
    rng = np.random.default_rng(seed)
    m = corpus.random_density(rng, 8, rank)
    u = corpus.local_unitary(rng)
    rotated = u @ m @ u.conj().T
    assert corpus.bound(rotated) == pytest.approx(corpus.bound(m), abs=1e-9)
    assert optimum(rotated) == pytest.approx(optimum(m), abs=1e-9)


@pytest.mark.parametrize("order", PERMUTATIONS, ids=lambda order: "".join("ABC"[p] for p in order))
@pytest.mark.parametrize("source", ["W", "maximal-slice", "rank-3"])
def test_party_permutations_leave_bound_and_optimum(source, order):
    if source == "rank-3":
        m = corpus.random_density(np.random.default_rng(1729), 8, 3)
    elif source == "maximal-slice":
        m = states.make_example(states.FAMILY_MAXIMAL_SLICE, 1.3).matrix
    else:
        m = states.make_reference(source).matrix
    swapped = corpus.permuted(m, order)
    assert corpus.bound(swapped) == pytest.approx(corpus.bound(m), abs=1e-9)
    assert optimum(swapped) == pytest.approx(optimum(m), abs=1e-9)


def test_w_optimum():
    assert optimum(states.make_reference("W").matrix) == pytest.approx(4.35465, abs=1e-5)


def test_placed_matches_kron():
    rng = np.random.default_rng(5)
    pair, single = corpus.random_density(rng, 4), corpus.random_density(rng, 2)
    assert np.array_equal(corpus.placed(pair, single, "C"), np.kron(pair, single))
    # kron(single, pair) multiplies each entry pair the other way round
    assert np.abs(corpus.placed(pair, single, "A") - np.kron(single, pair)).max() <= 1e-16
    assert np.array_equal(corpus.permuted(corpus.placed(pair, single, "B"), (0, 2, 1)),
                          np.kron(pair, single))


def test_product_factors_include_npt_pairs():
    npt = [np.linalg.eigvalsh(corpus.partial_transpose(pair))[0] < -1e-3 for pair, _ in FACTORS]
    assert npt[0] and sum(npt) > len(FACTORS) // 2


def _members(family: str) -> list[np.ndarray]:
    """Seeded members of one family whose max <S> is at most 4 without the optimizer."""
    if family == "products":
        return [corpus.placed(pair, single, lone)
                for pair, single in FACTORS for lone in corpus.PARTIES]
    if family == "mixtures":
        # ten draws at the seed of the rng fixture in conftest.py
        rng = np.random.default_rng(20260814)
        return [corpus.random_biseparable(rng) for _ in range(10)]
    return corpus.noise_line(np.random.default_rng(2009), 0.70, 30)


@pytest.mark.parametrize("family", ["products", "mixtures", "noise-line-0.70"])
def test_known_ceiling_of_four(family):
    assert max(optimum(m) for m in _members(family)) <= 4.0 + 1e-12

"""Measurement-settings ascent: anchors, determinism, backend agreement.

The per-restart einsum objectives below are the independent oracle for
the batched matmul kernels in svetlichny.optimize.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svetlichny import nonlocality, operators, optimize, states
from svetlichny.optimize import (
    BACKENDS,
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    OptimizerError,
    chsh_expectation,
    maximize_chsh,
    maximize_svetlichny,
    svetlichny_expectation,
)
from conftest import assert_immutable, random_state
import corpus

SOURCE = Path(optimize.__file__).resolve().parent.parent
SV_MAX = 4.0 * math.sqrt(2.0)
CHSH_MAX = 2.0 * math.sqrt(2.0)


def svetlichny_energy(t, vectors):
    a, ap, b, bp, c, cp = vectors
    plus, minus = c + cp, c - cp
    contract = lambda x, y, z: float(np.einsum("mno,m,n,o->", t, x, y, z))
    return (contract(a, b, plus) + contract(a, bp, minus)
            + contract(ap, b, minus) - contract(ap, bp, plus))


def svetlichny_gradients(t, vectors):
    a, ap, b, bp, c, cp = vectors
    plus, minus = c + cp, c - cp
    first = lambda y, z: np.einsum("mno,n,o->m", t, y, z)
    second = lambda x, z: np.einsum("mno,m,o->n", t, x, z)
    third = lambda x, y: np.einsum("mno,m,n->o", t, x, y)
    same = third(a, b) - third(ap, bp)
    cross = third(a, bp) + third(ap, b)
    return np.stack([
        first(b, plus) + first(bp, minus),
        first(b, minus) - first(bp, plus),
        second(a, plus) + second(ap, minus),
        second(a, minus) - second(ap, plus),
        same + cross,
        same - cross,
    ])


def chsh_energy(t, vectors):
    a0, a1, b0, b1 = vectors
    return float(a0 @ t @ (b0 + b1) + a1 @ t @ (b0 - b1))


def chsh_gradients(t, vectors):
    a0, a1, b0, b1 = vectors
    return np.stack([t @ (b0 + b1), t @ (b0 - b1), t.T @ (a0 + a1), t.T @ (a0 - a1)])


def hessian_oracle(gradients, t, vectors):
    """Second derivatives of an oracle's rows, one coordinate at a time.

    Each row is linear in every other vector and constant in its own, so
    moving one coordinate by 1 changes the rows by exactly that column.
    """
    base = gradients(t, vectors).reshape(-1)
    moves = np.eye(vectors.size).reshape(-1, *vectors.shape)
    return np.stack([gradients(t, vectors + move).reshape(-1) - base for move in moves],
                    axis=1)


def every_row(objective, vectors):
    """All coefficient rows, (restarts, 2n, 3): the per-party rows in party order."""
    return np.concatenate([objective.coefficient_gradients(vectors, party)
                           for party in range(objective.degree)], axis=1)


KERNELS = {
    "svetlichny": (optimize._SvetlichnyObjective, (3, 3, 3), svetlichny_energy,
                   svetlichny_gradients),
    "chsh": (optimize._ChshObjective, (3, 3), chsh_energy, chsh_gradients),
}


# the benchmark's Svetlichny cases
BENCHMARK_SVETLICHNY = (
    states.make_reference("GHZ"),
    states.make_example(states.FAMILY_MIXED_GHZ_2W, 0.4),
    states.make_example(states.FAMILY_PURE_W1, 0.238),
    states.make_example(states.FAMILY_IDENTITY_W, 0.82),
    states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.525),
)


def _unit_vectors(rng, shape):
    v = rng.normal(size=(*shape, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _settings(**kw):
    kw.setdefault("restarts", 12)
    kw.setdefault("seed", 7)
    return kw


class TestAnchors:
    def test_ghz_reaches_quantum_maximum(self):
        opt = maximize_svetlichny(states.make_reference("GHZ"), **_settings())
        assert opt.value == pytest.approx(SV_MAX, abs=1e-9)

    def test_product_state_caps_at_hybrid_bound(self):
        opt = maximize_svetlichny(states.make_reference("product-000"), **_settings())
        assert opt.value == pytest.approx(4.0, abs=1e-9)

    def test_maximally_mixed_is_flat_zero(self):
        # T = 0: every restart stops at once, on finite unit vectors
        rho = states.validate(np.eye(8) / 8.0, 3)
        for backend in BACKENDS:
            opt = maximize_svetlichny(rho, **_settings(restarts=4), backend=backend)
            assert opt.value == 0.0
            assert opt.restart_values == (0.0,) * 4
            assert opt.converged is True
            for vector in operators.SvetlichnySettings(*opt.vectors).vectors():
                assert np.all(np.isfinite(vector))
                assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)

    def test_bell_state_reaches_tsirelson(self):
        opt = maximize_chsh(states.make_reference("Bell-Phi+"))
        assert opt.value == pytest.approx(CHSH_MAX, abs=1e-9)

    def test_two_qubit_mixed_identity_is_zero(self):
        rho = states.validate(np.eye(4) / 4.0, 2)
        opt = maximize_chsh(rho)
        assert abs(opt.value) <= 1e-9

    def test_pure_w_class_tops_out_at_four(self):
        # the first worked family never exceeds the hybrid bound under
        # direct optimization even though the certificates fire
        rho = states.make_example(states.FAMILY_PURE_W1, 0.92)
        opt = maximize_svetlichny(rho, **_settings(restarts=16))
        assert opt.value == pytest.approx(4.0, abs=1e-8)


class TestDeterminism:
    def test_same_seed_bit_for_bit(self):
        rho = states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.6)
        first = maximize_svetlichny(rho, **_settings(seed=123))
        second = maximize_svetlichny(rho, **_settings(seed=123))
        assert first == second
        # an Optimum of either target compares by value
        pair = states.reduce_to_pair(rho, ("B", "C"))
        assert maximize_chsh(pair) == maximize_chsh(pair)

    def test_default_seed(self):
        rho = states.make_reference("W")
        assert (maximize_svetlichny(rho, restarts=2)
                == maximize_svetlichny(rho, restarts=2, seed=DEFAULT_SEED))


class TestRestarts:
    def test_more_restarts_never_hurt(self):
        rho = states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.55)
        values = [maximize_svetlichny(rho, **_settings(restarts=n, seed=31)).value
                  for n in (2, 4, 8, 16)]
        for a, b in zip(values, values[1:]):
            assert b >= a

    def test_value_matches_reported_settings(self):
        rho = states.make_reference("GHZ")
        opt = maximize_svetlichny(rho, **_settings())
        settings = operators.SvetlichnySettings(*opt.vectors)
        assert svetlichny_expectation(rho, settings) == pytest.approx(
            opt.value, abs=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_svetlichny_value_is_the_expectation_at_its_settings(self, backend):
        # the operator trace shares no code with the party tensor
        rng = np.random.default_rng(97)
        cases = [*BENCHMARK_SVETLICHNY, *(states.validate(corpus.random_density(rng, 8, rank), 3)
                                          for rank in range(1, 9))]
        for rho in cases:
            opt = maximize_svetlichny(rho, **_settings(restarts=4), backend=backend)
            settings = operators.SvetlichnySettings(*opt.vectors)
            assert abs(svetlichny_expectation(rho, settings) - opt.value) <= 1e-12

    def test_chsh_value_matches_reported_settings(self):
        rho = states.make_reference("Bell-Phi+")
        opt = maximize_chsh(rho)
        settings = operators.ChshSettings(*map(operators.spin_observable, opt.vectors))
        assert chsh_expectation(rho, settings) == pytest.approx(
            opt.value, abs=1e-12)


class TestChshClosedForm:
    """Degenerate correlation matrices: T = 0, rank one, and Werner's -pI."""

    @pytest.mark.parametrize("rho", [
        states.validate(np.eye(4) / 4.0, 2),
        states.validate(np.diag([1.0, 0.0, 0.0, 0.0]), 2),
        states.validate(corpus.product(np.random.default_rng(3), mixed=False), 2),
        states.validate(corpus.product(np.random.default_rng(4), mixed=True), 2),
        states.make_reference("Bell-Phi+"),
        states.validate(corpus.werner(0.3), 2),
        states.validate(corpus.werner(1.0 / math.sqrt(2.0)), 2),
        states.validate(corpus.werner(0.9), 2),
    ], ids=["I/4", "product-00", "product-pure", "product-mixed", "Bell-Phi+",
            "Werner-0.3", "Werner-0.707", "Werner-0.9"])
    def test_settings_are_unit_and_attain_two_sqrt_m(self, rho):
        opt = maximize_chsh(rho)
        for unit in opt.vectors:
            assert np.linalg.norm(np.array(unit)) == pytest.approx(1.0, abs=1e-12)
        m = nonlocality.horodecki_m(rho)
        assert abs(opt.value - 2.0 * math.sqrt(max(m, 0.0))) <= 1e-12
        settings = operators.ChshSettings(*map(operators.spin_observable, opt.vectors))
        assert abs(chsh_expectation(rho, settings) - opt.value) <= 1e-12
        assert (opt.iterations_used, opt.converged, opt.restarts_capped) == (0, True, 0)
        assert opt.restart_values == (opt.value,)

    def test_no_field_of_an_optimum_can_be_set_or_deleted(self):
        assert_immutable(maximize_chsh(states.make_reference("Bell-Phi+")))


class TestBackends:
    def test_backends_agree(self, rng):
        for _ in range(3):
            rho = random_state(rng, 3)
            grad = maximize_svetlichny(rho, **_settings(restarts=8), backend="gradient")
            coord = maximize_svetlichny(rho, **_settings(restarts=8), backend="coordinate")
            assert grad.value == pytest.approx(coord.value, abs=1e-6)

    def test_backends_listed(self):
        assert set(BACKENDS) == {"gradient", "coordinate"}


class TestConvergence:
    """The benchmark's optimize cases: every restart converges, well before the cap.

    The expected values are those of the earlier first-order ascent, which
    stopped at the 500-iteration cap on GHZ-W-convex 0.525 about 2e-12
    below the Newton value.
    """

    _ascend = functools.partial(maximize_svetlichny, restarts=4, seed=1729, backend="gradient")

    @pytest.mark.parametrize("maximize, rho, expected", [
        (_ascend, BENCHMARK_SVETLICHNY[0], SV_MAX),
        (_ascend, BENCHMARK_SVETLICHNY[1], 1.131370849898),
        (_ascend, BENCHMARK_SVETLICHNY[2], 4.0),
        (_ascend, BENCHMARK_SVETLICHNY[3], 3.570811713924),
        (_ascend, BENCHMARK_SVETLICHNY[4], 3.447423907684),
        (maximize_chsh, states.make_reference("Bell-Phi+"), CHSH_MAX),
        (maximize_chsh, states.partial_trace(
            states.make_example(states.FAMILY_IDENTITY_W, 0.82), "A"), 1.546206828195),
    ], ids=["GHZ", "mixed-GHZ-2W-0.4", "pure-W-class-1-0.238", "identity-W-0.82",
            "GHZ-W-convex-0.525", "Bell-Phi+", "identity-W-0.82-BC"])
    def test_gradient_backend_converges_before_cap(self, maximize, rho, expected):
        opt = maximize(rho)
        assert opt.converged is True
        assert opt.restarts_capped == 0
        assert opt.iterations_used <= 50
        assert opt.value == pytest.approx(expected, abs=1e-9)

    def test_default_restarts_on_the_ridge_all_converge(self):
        rho = states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.525)
        opt = maximize_svetlichny(rho)
        assert len(opt.restart_values) == DEFAULT_RESTARTS == 64
        assert opt.restarts_capped == 0

    @pytest.mark.parametrize("family, param, capped, gap", [
        (states.FAMILY_GHZ_W_CONVEX, 0.525, 64, 1.76e-6),
        (states.FAMILY_MAXIMAL_SLICE, 1.3, 63, 1.8e-7),
    ], ids=["GHZ-W-convex-0.525", "maximal-slice-1.3"])
    def test_coordinate_backend_on_the_ridge_stops_short(self, family, param, capped, gap):
        # the README's figures: at the default restarts the coordinate
        # backend hits its cap and ends this far below the gradient backend
        rho = states.make_example(family, param)
        coordinate = maximize_svetlichny(rho, backend="coordinate")
        assert len(coordinate.restart_values) == DEFAULT_RESTARTS
        assert coordinate.restarts_capped == capped
        assert maximize_svetlichny(rho).value - coordinate.value == pytest.approx(gap, rel=0.05)


class TestPhysicalCeilings:
    def test_never_exceeds_quantum_bound(self, rng):
        for _ in range(10):
            rho = random_state(rng, 3)
            opt = maximize_svetlichny(rho, **_settings(restarts=4))
            assert opt.value <= SV_MAX + 1e-8

    def test_chsh_never_exceeds_tsirelson(self, rng):
        for _ in range(10):
            rho = random_state(rng, 2)
            opt = maximize_chsh(rho)
            assert opt.value <= CHSH_MAX + 1e-8


class TestInputChecks:
    def test_svetlichny_needs_three_qubits(self):
        with pytest.raises(OptimizerError):
            maximize_svetlichny(states.make_reference("Bell-Phi+"), **_settings())

    def test_chsh_needs_two_qubits(self):
        with pytest.raises(OptimizerError):
            maximize_chsh(states.make_reference("GHZ"))

    def test_svetlichny_expectation_needs_three_qubits(self):
        settings = operators.SvetlichnySettings(*[operators.UnitVector3(0.0, 0.0, 1.0)] * 6)
        with pytest.raises(OptimizerError, match="expected a three-qubit state, got 2 qubits"):
            svetlichny_expectation(states.make_reference("Bell-Phi+"), settings)

    def test_chsh_expectation_needs_two_qubits(self):
        settings = operators.ChshSettings(*[operators.pauli("z")] * 4)
        with pytest.raises(OptimizerError, match="expected a two-qubit state, got 3 qubits"):
            chsh_expectation(states.make_reference("GHZ"), settings)

    def test_bad_config_values_rejected(self):
        rho = states.make_reference("GHZ")
        with pytest.raises(OptimizerError, match="restarts"):
            maximize_svetlichny(rho, restarts=0)
        with pytest.raises(OptimizerError, match="seed"):
            maximize_svetlichny(rho, seed=-1)
        with pytest.raises(OptimizerError, match="backend"):
            maximize_svetlichny(rho, backend="newton")

    @pytest.mark.parametrize("settings, message", [
        ({"restarts": 2.5}, "restarts must be an integer, got 2.5"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"restarts": True}, "restarts must be an integer, got True"),
    ], ids=["float-restarts", "float-seed", "bool-restarts"])
    def test_non_integer_counts_rejected(self, settings, message):
        with pytest.raises(OptimizerError) as excinfo:
            maximize_svetlichny(states.make_reference("GHZ"), **settings)
        assert str(excinfo.value) == message

    def test_numpy_integers_accepted(self):
        rho = states.make_reference("GHZ")
        assert (maximize_svetlichny(rho, restarts=np.int64(2), seed=np.int64(7))
                == maximize_svetlichny(rho, restarts=2, seed=7))

    def test_settings_are_keyword_only(self):
        # a leftover positional settings object must fail, not run
        with pytest.raises(TypeError):
            maximize_svetlichny(states.make_reference("GHZ"), 4)


def moveaxis_layouts(tensor):
    """K = s (x) T, each party's facing layout and, for three parties, the
    Hessian's outside layout, built as multiply.outer, moveaxis and stack."""
    n = tensor.ndim
    signs = np.where(np.indices((2,) * n).sum(axis=0) <= 1, 1.0, -1.0)
    interleave = np.arange(2 * n).reshape(2, n).T.reshape(-1)
    k = np.multiply.outer(signs, tensor).transpose(interleave).reshape((6,) * n)
    facing = [np.moveaxis(k, p, 0).reshape(-1, 6) for p in range(n)]
    outside = (np.stack([np.moveaxis(k, r, -1).reshape(36, 6) for r in (2, 1, 0)])
               if n == 3 else None)
    return k, facing, outside


def _same_bits(got, expected):
    expected = np.ascontiguousarray(expected)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestLayouts:
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_gathered_layouts_are_the_moveaxis_layouts(self, kind):
        make, shape, _, _ = KERNELS[kind]
        rng = np.random.default_rng(61)
        for _ in range(20):
            tensor = rng.normal(size=shape)
            # signed zeros too: -1.0 * 0.0 is -0.0 on both sides
            tensor[rng.random(shape) < 0.2] = 0.0
            objective = make(tensor)
            k, facing, outside = moveaxis_layouts(tensor)
            _same_bits(objective._facing[0].reshape(k.shape), k)
            for p in range(len(shape)):
                _same_bits(objective._facing[p], facing[p])
            if outside is not None:
                _same_bits(objective._outside, outside)

    def test_tables_are_built_once_per_degree_on_first_use(self):
        code = ("from svetlichny import optimize, states\n"
                "before = optimize._layout_tables.cache_info().currsize\n"
                "optimize.maximize_svetlichny(states.make_reference('GHZ'), restarts=2)\n"
                "optimize.maximize_svetlichny(states.make_reference('W'), restarts=2)\n"
                "print(before, optimize._layout_tables.cache_info().currsize)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(SOURCE), os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "1"]
        index, sign = optimize._layout_tables(3)
        assert optimize._layout_tables(3) is optimize._layout_tables(3)
        assert not index.flags.writeable and not sign.flags.writeable


class TestKernels:
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    @pytest.mark.parametrize("batch", [1, 7])
    def test_batched_kernels_match_einsum_oracle(self, kind, batch):
        make, shape, energy, gradients = KERNELS[kind]
        rng = np.random.default_rng(11 + batch)
        for _ in range(3):
            tensor = rng.normal(size=shape)
            objective = make(tensor)
            vectors = _unit_vectors(rng, (batch, objective.n_vectors))
            expected_energy = [energy(tensor, v) for v in vectors]
            expected_rows = np.stack([gradients(tensor, v) for v in vectors])
            np.testing.assert_allclose(objective.energy(vectors), expected_energy,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(every_row(objective, vectors),
                                       expected_rows, rtol=0, atol=1e-12)
            for party in range(objective.degree):
                np.testing.assert_allclose(
                    objective.coefficient_gradients(vectors, party=party),
                    expected_rows[:, 2 * party:2 * party + 2], rtol=0, atol=1e-12)


    # only the Svetlichny ascent reads a Hessian
    @pytest.mark.parametrize("kind", ["svetlichny"])
    @pytest.mark.parametrize("batch", [1, 7])
    def test_hessian_matches_second_derivatives(self, kind, batch):
        make, shape, _, gradients = KERNELS[kind]
        rng = np.random.default_rng(23 + batch)
        for _ in range(3):
            tensor = rng.normal(size=shape)
            objective = make(tensor)
            vectors = _unit_vectors(rng, (batch, objective.n_vectors))
            hessian = objective.hessian(vectors)
            expected = np.stack([hessian_oracle(gradients, tensor, v) for v in vectors])
            np.testing.assert_allclose(hessian, expected, rtol=0, atol=1e-12)
            # Euler's identity, which the gradient backend reads its rows from
            rows = hessian @ vectors.reshape(batch, -1, 1) / (objective.degree - 1)
            np.testing.assert_allclose(rows.reshape(vectors.shape),
                                       every_row(objective, vectors),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 7])
    def test_hessian_is_laid_out_exactly_from_its_pair_blocks(self, batch):
        # eigh reads one triangle, so the Hessian must be symmetric bit for
        # bit, and a C-contiguous result keeps H @ v on one BLAS path
        rng = np.random.default_rng(29 + batch)
        objective = optimize._SvetlichnyObjective(rng.normal(size=(3, 3, 3)))
        vectors = _unit_vectors(rng, (batch, objective.n_vectors))
        hessian = objective.hessian(vectors)
        assert hessian.flags.c_contiguous
        np.testing.assert_array_equal(hessian, hessian.swapaxes(1, 2))
        parties = hessian.reshape(batch, 3, 6, 3, 6)
        for p in range(3):
            assert (parties[:, p, :, p] == 0).all()
        # parties C, B, A: the one outside each pair AB, AC, BC
        outside = vectors.reshape(batch, 3, 6)[:, ::-1, :, None]
        blocks = (objective._outside @ outside).reshape(batch, 3, 6, 6)
        for k, (p, q) in enumerate([(0, 1), (0, 2), (1, 2)]):
            np.testing.assert_array_equal(parties[:, p, :, q], blocks[:, k])

    def test_bc_block_is_the_per_setting_matrix(self):
        # K(a, a') = [[T(a + a'), T(a - a')], [T(a - a'), -T(a + a')]], with
        # T(x) the correlation tensor contracted with x on Alice's index
        rng = np.random.default_rng(41)
        for _ in range(5):
            tensor = rng.normal(size=(3, 3, 3))
            vectors = _unit_vectors(rng, (1, 6))
            a, ap = vectors[0, :2]
            plus, minus = (np.einsum("mno,m->no", tensor, x) for x in (a + ap, a - ap))
            per_setting = np.block([[plus, minus], [minus, -plus]])
            hessian = optimize._SvetlichnyObjective(tensor).hessian(vectors)[0]
            np.testing.assert_allclose(hessian[6:12, 12:18], per_setting,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_coordinate_sweep_matches_vector_at_a_time_oracle(self, kind):
        # both vectors of a party are replaced from one call; the oracle
        # replaces one vector at a time, each from freshly computed rows.
        # The sweep reads its value off the last party's rows, the oracle
        # evaluates the energy at its swept vectors.
        make, shape, energy, gradients = KERNELS[kind]
        rng = np.random.default_rng(53)
        tensor = rng.normal(size=shape)
        objective = make(tensor)
        starts = _unit_vectors(rng, (5, objective.n_vectors))
        swept = optimize._coordinate_ascent(objective, starts, 1)
        assert (swept.used == 1).all()
        for start, got, value in zip(starts, swept.vectors, swept.values):
            expected = start.copy()
            for i in range(len(expected)):
                row = gradients(tensor, expected)[i]
                expected[i] = row / np.linalg.norm(row)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            assert value == pytest.approx(energy(tensor, expected), rel=0, abs=1e-12)

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_coordinate_sweep_keeps_vectors_whose_rows_vanish(self, kind):
        # T = e_z (x) e_z (x) ... has no term in the xy-plane, so from starts
        # there every row vanishes and the norm guard keeps every vector
        make, shape, _, _ = KERNELS[kind]
        tensor = np.zeros(shape)
        tensor[(2,) * len(shape)] = 1.0
        objective = make(tensor)
        starts = np.random.default_rng(59).normal(size=(5, objective.n_vectors, 3))
        starts[..., 2] = 0.0
        starts /= np.linalg.norm(starts, axis=-1, keepdims=True)
        swept = optimize._coordinate_ascent(objective, starts)
        assert swept.vectors.tobytes() == starts.tobytes()
        assert (swept.values == 0.0).all()
        assert (swept.used == 1).all()
        assert swept.converged is True
        assert not swept.capped.any()


class TestBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restart_values_extend_bit_for_bit(self, backend):
        rho = states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.525)
        short = maximize_svetlichny(rho, restarts=4, seed=1729, backend=backend)
        long = maximize_svetlichny(rho, restarts=16, seed=1729, backend=backend)
        assert len(short.restart_values) == 4
        assert len(long.restart_values) == 16
        assert long.restart_values[:4] == short.restart_values
        assert short.value == max(short.restart_values)
        assert long.value == max(long.restart_values)
        assert 0 <= short.restarts_capped <= 4

    # on every state the gradient restarts stop at different iterations, so
    # every batch shrinks as they stop; the coordinate restarts hit the cap of
    # 60 sweeps on the first two states and stop at 22-28 on pure-W-class-1
    @pytest.mark.parametrize("ascend", [optimize._gradient_ascent,
                                        optimize._coordinate_ascent])
    @pytest.mark.parametrize("family, param", [(states.FAMILY_IDENTITY_W, 0.82),
                                               (states.FAMILY_GHZ_W_CONVEX, 0.525),
                                               (states.FAMILY_PURE_W1, 0.238)])
    def test_each_restart_is_independent_of_its_batch(self, family, param, ascend):
        rho = states.make_example(family, param)
        objective = optimize._SvetlichnyObjective(operators.correlation_tensor(rho))
        starts = _unit_vectors(np.random.default_rng(5), (17, objective.n_vectors))
        full = ascend(objective, starts, 60)
        assert isinstance(full.converged, bool)
        for size in (1, 2, 3, 4):
            part = ascend(objective, starts[:size], 60)
            for mine, theirs in zip(part, full):
                if isinstance(mine, np.ndarray):
                    np.testing.assert_array_equal(mine, theirs[:size])


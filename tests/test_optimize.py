"""Measurement-settings ascent: anchors, determinism, backend agreement."""

from __future__ import annotations

import math

import numpy as np
import pytest

from svetlichny import operators, states
from svetlichny.optimize import (
    BACKENDS,
    DEFAULT_SEED,
    OptimizerConfig,
    OptimizerError,
    chsh_expectation,
    maximize_chsh,
    maximize_svetlichny,
    svetlichny_expectation,
)
from conftest import random_biseparable, random_state

SV_MAX = 4.0 * math.sqrt(2.0)
CHSH_MAX = 2.0 * math.sqrt(2.0)


def _cfg(**kw):
    kw.setdefault("restarts", 12)
    kw.setdefault("seed", 7)
    return OptimizerConfig(**kw)


class TestAnchors:
    def test_ghz_reaches_quantum_maximum(self):
        opt = maximize_svetlichny(states.make_reference("GHZ"), _cfg())
        assert opt.value == pytest.approx(SV_MAX, abs=1e-9)

    def test_product_state_caps_at_hybrid_bound(self):
        opt = maximize_svetlichny(states.make_reference("product-000"), _cfg())
        assert opt.value == pytest.approx(4.0, abs=1e-9)

    def test_maximally_mixed_is_flat_zero(self):
        rho = states.validate(np.eye(8) / 8.0, 3)
        opt = maximize_svetlichny(rho, _cfg(restarts=4))
        assert abs(opt.value) <= 1e-9

    def test_bell_state_reaches_tsirelson(self):
        opt = maximize_chsh(states.make_reference("Bell-Phi+"), _cfg())
        assert opt.value == pytest.approx(CHSH_MAX, abs=1e-9)

    def test_two_qubit_mixed_identity_is_zero(self):
        rho = states.validate(np.eye(4) / 4.0, 2)
        opt = maximize_chsh(rho, _cfg(restarts=4))
        assert abs(opt.value) <= 1e-9

    def test_pure_w_class_tops_out_at_four(self):
        # the first worked family never exceeds the hybrid bound under
        # direct optimization even though the certificates fire
        rho = states.make_example(states.FAMILY_PURE_W1, 0.92)
        opt = maximize_svetlichny(rho, _cfg(restarts=16))
        assert opt.value == pytest.approx(4.0, abs=1e-8)


class TestDeterminism:
    def test_same_seed_bit_for_bit(self):
        rho = states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.6)
        first = maximize_svetlichny(rho, _cfg(seed=123))
        second = maximize_svetlichny(rho, _cfg(seed=123))
        assert first == second

    def test_default_seed(self):
        assert OptimizerConfig().seed == DEFAULT_SEED


class TestRestarts:
    def test_more_restarts_never_hurt(self):
        rho = states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.55)
        values = [maximize_svetlichny(rho, _cfg(restarts=n, seed=31)).value
                  for n in (2, 4, 8, 16)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12

    def test_value_matches_reported_settings(self):
        rho = states.make_reference("GHZ")
        opt = maximize_svetlichny(rho, _cfg())
        assert svetlichny_expectation(rho, opt.settings) == pytest.approx(
            opt.value, abs=1e-12)

    def test_chsh_value_matches_reported_settings(self):
        rho = states.make_reference("Bell-Phi+")
        opt = maximize_chsh(rho, _cfg())
        assert chsh_expectation(rho, opt.settings) == pytest.approx(
            opt.value, abs=1e-12)


class TestBackends:
    def test_backends_agree(self, rng):
        for _ in range(3):
            rho = random_state(rng, 3)
            grad = maximize_svetlichny(rho, _cfg(restarts=8), backend="gradient")
            coord = maximize_svetlichny(rho, _cfg(restarts=8), backend="coordinate")
            assert grad.value == pytest.approx(coord.value, abs=1e-6)

    def test_unknown_backend_rejected(self):
        with pytest.raises(OptimizerError):
            maximize_svetlichny(states.make_reference("GHZ"), _cfg(),
                                backend="annealing")

    def test_backends_listed(self):
        assert set(BACKENDS) == {"gradient", "coordinate"}


class TestConvergence:
    @pytest.mark.parametrize("maximize, rho, expected", [
        (maximize_svetlichny, states.make_example(states.FAMILY_IDENTITY_W, 0.82),
         3.570811713924),
        (maximize_chsh, states.make_reference("Bell-Phi+"), CHSH_MAX),
    ], ids=["identity-W-0.82", "Bell-Phi+"])
    def test_gradient_backend_converges_before_cap(self, maximize, rho, expected):
        opt = maximize(rho, OptimizerConfig(restarts=4, seed=1729), backend="gradient")
        assert opt.converged is True
        assert opt.iterations_used < 500
        assert opt.value == pytest.approx(expected, abs=1e-9)


class TestPhysicalCeilings:
    def test_never_exceeds_quantum_bound(self, rng):
        for _ in range(10):
            rho = random_state(rng, 3)
            opt = maximize_svetlichny(rho, _cfg(restarts=4))
            assert opt.value <= SV_MAX + 1e-8

    def test_biseparable_states_respect_hybrid_bound(self, rng):
        for _ in range(10):
            rho = random_biseparable(rng)
            opt = maximize_svetlichny(rho, _cfg(restarts=4))
            assert opt.value <= 4.0 + 1e-4

    def test_chsh_never_exceeds_tsirelson(self, rng):
        for _ in range(10):
            rho = random_state(rng, 2)
            opt = maximize_chsh(rho, _cfg(restarts=4))
            assert opt.value <= CHSH_MAX + 1e-8


class TestInputChecks:
    def test_svetlichny_needs_three_qubits(self):
        with pytest.raises(OptimizerError):
            maximize_svetlichny(states.make_reference("Bell-Phi+"), _cfg())

    def test_chsh_needs_two_qubits(self):
        with pytest.raises(OptimizerError):
            maximize_chsh(states.make_reference("GHZ"), _cfg())

    def test_bad_config_values_rejected(self):
        with pytest.raises(OptimizerError):
            OptimizerConfig(restarts=0)
        with pytest.raises(OptimizerError):
            OptimizerConfig(max_iterations=-1)

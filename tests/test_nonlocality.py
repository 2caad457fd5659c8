"""Strength measures and the K bounds, pinned to precomputed anchors.

The frozen decimals below were produced by evaluating the defining
formulas directly (trace quotients and eigenvalue expressions) in a
separate script before this module's implementation was written. The K
bounds are the paper's lemmas, which the package does not use; their
oracle lives in tests/lemmas.py.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from svetlichny import bounds, linalg, nonlocality, operators, states
from conftest import random_state
import corpus
import lemmas

XY = operators.plane_witness("xy")
XZ = operators.plane_witness("xz")


def _reduced(family, param):
    return lemmas.example_reduced(family, param)


class TestCorrelationMatrix:
    """T against the textbook entries t[m,n,...] = Tr[rho sigma_m (x) sigma_n (x) ...]."""

    def test_matches_textbook_entries_on_random_states(self, rng):
        for _ in range(50):
            rho = random_state(rng, 2)
            t = nonlocality.correlation_tensor(rho)
            assert t.shape == (3, 3) and t.dtype == np.float64
            assert np.allclose(t, corpus.correlation_tensor(rho.matrix), atol=1e-14, rtol=0.0)

    def test_three_qubit_tensor_matches_textbook_entries(self, rng):
        for _ in range(20):
            rho = random_state(rng, 3)
            t = nonlocality.correlation_tensor(rho)
            assert t.shape == (3, 3, 3) and t.dtype == np.float64
            assert np.allclose(t, corpus.correlation_tensor(rho.matrix), atol=1e-14, rtol=0.0)

    def test_bell_phi_plus(self):
        t = nonlocality.correlation_tensor(states.make_reference("Bell-Phi+"))
        assert np.allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-15, rtol=0.0)

    def test_other_qubit_counts_rejected(self):
        with pytest.raises(nonlocality.NonlocalityError):
            nonlocality.correlation_tensor(states.validate(np.eye(2) / 2.0, 1))


class TestHorodecki:
    def test_bell_state_reaches_two(self):
        rho = states.make_reference("Bell-Phi+")
        assert nonlocality.horodecki_m(rho) == pytest.approx(2.0, abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        rho = states.validate(np.eye(4) / 4.0, 2)
        assert nonlocality.horodecki_m(rho) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_two(self, rng):
        for _ in range(50):
            rho = random_state(rng, 2)
            assert nonlocality.horodecki_m(rho) <= 2.0 + 1e-10

    def test_p_max_optimal_anchors(self):
        bell = states.make_reference("Bell-Phi+")
        # cos^2(pi/8), the optimal quantum success probability
        assert nonlocality.p_max_optimal(bell) == pytest.approx(
            0.5 + math.sqrt(2.0) / 4.0, abs=1e-12)
        mixed = states.validate(np.eye(4) / 4.0, 2)
        assert nonlocality.p_max_optimal(mixed) == pytest.approx(0.5, abs=1e-12)

    def test_p_max_from_expectation_matches_optimal(self, rng):
        rho = random_state(rng, 2)
        m = nonlocality.horodecki_m(rho)
        chsh = 2.0 * math.sqrt(m)
        assert 0.5 * (1.0 + chsh / 4.0) == pytest.approx(
            nonlocality.p_max_optimal(rho), abs=1e-12)


class TestDetectedStrength:
    def test_mixed_ghz_2w_anchor(self):
        rho = _reduced(states.FAMILY_MIXED_GHZ_2W, 0.55)
        settings = operators.ChshSettings(
            A0=operators.pauli("x"),
            A1=operators.pauli("y"),
            B0=0.95 * operators.pauli("x") + 0.95 * operators.pauli("y")
            + 0.447 * operators.pauli("z"),
            # the witness's (+, -, +, +) signs are the CHSH rule with B1 negated
            B1=-(-0.95 * operators.pauli("x") + 0.95 * operators.pauli("y")
                 + 0.447 * operators.pauli("z")),
        )
        w = operators.chsh_witness(operators.chsh_operator(settings))
        assert nonlocality.is_detected(rho, w)
        assert nonlocality.s_nl_detected(rho, w) == pytest.approx(1.0 / 300.0, abs=1e-12)

    def test_clamps_to_zero_when_not_detected(self):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.82)
        assert not nonlocality.is_detected(rho, XY)
        assert nonlocality.s_nl_detected(rho, XY) == 0.0

    def test_s_nl_from_pairing_is_s_nl_detected_elementwise(self):
        # xz misses pure-W-class-1's pair at 0.5 and detects it at 0.92 and 0.94
        rhos = states.example_reductions(states.FAMILY_PURE_W1, (0.5, 0.92, 0.94))
        pairings = np.einsum("ij,kji->k", XZ, np.array([rho.matrix for rho in rhos])).real
        s_nl = nonlocality.s_nl_from_pairing(pairings)
        assert s_nl.tolist() == [nonlocality.s_nl_detected(rho, XZ) for rho in rhos]
        assert s_nl[0] == 0.0 < s_nl[1] < s_nl[2]
        assert type(nonlocality.s_nl_detected(rhos[1], XZ)) is float


class TestKValue:
    def test_maximal_slice_closed_form(self):
        for theta in (1.1, 1.2, 1.3, 1.4):
            rho = _reduced(states.FAMILY_MAXIMAL_SLICE, theta)
            k = nonlocality.k_value(rho, XY)
            assert k == pytest.approx(1.0 / (4.0 * math.cos(theta)), abs=1e-12)

    def test_identity_w_anchor(self):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.82)
        assert nonlocality.k_value(rho, XY) == pytest.approx(
            0.2417860474608272, abs=1e-12)

    def test_zero_negativity_rejected(self):
        rho = states.validate(np.eye(4) / 4.0, 2)
        with pytest.raises(nonlocality.ZeroNegativityError):
            nonlocality.k_value(rho, XY)

    @pytest.mark.parametrize("n", [0.0, np.array([0.1, 0.0, 0.2]),
                                   math.nan, np.array([0.1, math.nan, 0.2])],
                             ids=["scalar", "array", "nan-scalar", "nan-array"])
    def test_k_from_pairing_rejects_a_zero_negativity(self, n):
        # a NaN fails every comparison, so the guard asks whether n > NEG_TOL fails
        named = "nan" if np.isnan(n).any() else r"0\.0"
        with pytest.raises(nonlocality.ZeroNegativityError, match=rf"^negativity {named} is"):
            nonlocality.k_from_pairing(np.ones_like(n), n)

    def test_k_from_pairing_is_k_value_elementwise(self):
        rhos = [_reduced(states.FAMILY_IDENTITY_W, x) for x in (0.82, 0.87, 0.92)]
        pairings = np.einsum("ij,kji->k", XY, np.array(
            [rho.matrix @ states.partial_transpose(rho) for rho in rhos])).real
        k = nonlocality.k_from_pairing(pairings, np.array([states.negativity(r) for r in rhos]))
        assert k.tolist() == [nonlocality.k_value(rho, XY) for rho in rhos]

    def test_detected_state_warns(self):
        rho = _reduced(states.FAMILY_PURE_W1, 0.92)
        # reduced pair A-C of the first family, where the xz witness detects
        rho_ac = states.partial_trace(states.make_example(states.FAMILY_PURE_W1, 0.92), "B")
        assert nonlocality.is_detected(rho_ac, XZ)
        with pytest.warns(nonlocality.RegimeMismatchWarning):
            nonlocality.k_value(rho_ac, XZ)
        del rho


class TestKBounds:
    def test_identity_w_sandwich_anchor(self):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.82)
        lo = lemmas.k_lower_bound(rho, XY)
        hi = lemmas.k_upper_bound(rho, XY)
        assert lo == pytest.approx(0.02885418611188304, abs=1e-12)
        assert hi == pytest.approx(0.7508016668754417, abs=1e-12)
        k = nonlocality.k_value(rho, XY)
        assert lo - 1e-10 <= k <= hi + 1e-10

    def test_detected_state_rejected(self):
        rho_ac = states.partial_trace(states.make_example(states.FAMILY_PURE_W1, 0.92), "B")
        with pytest.raises(lemmas.HypothesisError):
            lemmas.k_lower_bound(rho_ac, XZ)
        with pytest.raises(lemmas.HypothesisError):
            lemmas.k_upper_bound(rho_ac, XZ)


class TestInterpolatedStrength:
    def test_identity_w_components(self):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.82)
        assert nonlocality.p_max_optimal(rho) == pytest.approx(
            0.6932758535243231, abs=1e-12)
        k = nonlocality.k_value(rho, XY)
        cap = nonlocality.r_cap(k, nonlocality.p_max_optimal(rho))
        assert cap == pytest.approx(0.8099758479680508, abs=1e-12)

    def test_r_zero_reduces_to_k(self):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.82)
        strength = nonlocality.s_nl_new(rho, XY, 0.0)
        assert strength.s_nl_new == nonlocality.k_value(rho, XY)
        assert strength.r == 0.0

    def test_strength_positive_below_cap(self):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.9)
        k = nonlocality.k_value(rho, XY)
        cap = nonlocality.r_cap(k, nonlocality.p_max_optimal(rho))
        for r in np.linspace(0.0, cap, 20, endpoint=False):
            assert nonlocality.s_nl_new(rho, XY, float(r)).s_nl_new > 0.0

    def test_r_at_or_above_cap_rejected(self):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.82)
        k = nonlocality.k_value(rho, XY)
        cap = nonlocality.r_cap(k, nonlocality.p_max_optimal(rho))
        with pytest.raises(nonlocality.WindowParameterError):
            nonlocality.s_nl_new(rho, XY, cap)
        with pytest.raises(nonlocality.WindowParameterError):
            nonlocality.s_nl_new(rho, XY, -0.01)

    # each case gives (r, the entry the error names) from the cap
    @pytest.mark.parametrize("weights", [
        lambda cap: (cap, cap),
        lambda cap: (-0.01, -0.01),
        lambda cap: (np.array([0.0, 0.5 * cap, cap]), cap),
        lambda cap: (np.array([0.5 * cap, -0.01, 1.5 * cap]), -0.01),
    ], ids=["scalar-cap", "scalar-negative", "array-cap", "array-negative"])
    def test_weights_outside_the_cap_rejected(self, weights):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.82)
        k = nonlocality.k_value(rho, XY)
        p_max = nonlocality.p_max_optimal(rho)
        cap = nonlocality.r_cap(k, p_max)
        r, named = weights(cap)
        with pytest.raises(nonlocality.WindowParameterError) as excinfo:
            nonlocality.undetected_strength(k, p_max, r)
        assert str(excinfo.value) == f"r = {float(named)} outside [0, {float(cap)})"

    def test_weight_array_gives_the_scalar_strengths(self):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.82)
        k = nonlocality.k_value(rho, XY)
        p_max = nonlocality.p_max_optimal(rho)
        grid = np.linspace(0.0, nonlocality.r_cap(k, p_max), 50, endpoint=False)
        strength = nonlocality.undetected_strength(k, p_max, grid)
        assert strength.r is grid
        assert strength.s_nl_new.tolist() == [
            nonlocality.undetected_strength(k, p_max, r).s_nl_new for r in grid.tolist()]

    @pytest.mark.parametrize("call, named", [
        (lambda: nonlocality.r_cap(math.nan, 0.8), math.nan),
        (lambda: nonlocality.undetected_strength(math.nan, 0.8), math.nan),
        (lambda: nonlocality.positive_k(np.array([0.1, math.nan, -0.2])), math.nan),
        (lambda: nonlocality.positive_k(np.array([0.1, 0.3, -0.2])), -0.2),
    ], ids=["r_cap", "undetected_strength", "array-nan", "array-negative"])
    def test_k_not_positive_rejected(self, call, named):
        # a NaN fails every comparison, so the guard asks whether k > 0 fails;
        # an array names its first failing entry
        with pytest.raises(nonlocality.WindowParameterError) as excinfo:
            call()
        assert str(excinfo.value) == f"the cap needs K > 0, got {named}"

    def test_vacuous_cap_is_one(self):
        # 3/4 - P_max + K <= 0: the strength is positive for every r
        assert nonlocality.r_cap(0.04, 0.80) == 1.0
        assert nonlocality.r_cap(0.05, 0.80) == 1.0

    def test_r_above_cap_prints_plain_numbers(self):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.82)
        k = nonlocality.k_value(rho, XY)
        p_max = nonlocality.p_max_optimal(rho)
        with pytest.raises(nonlocality.WindowParameterError) as excinfo:
            nonlocality.undetected_strength(k, p_max, 0.99)
        message = str(excinfo.value)
        assert message.startswith("r = 0.99 outside [0, 0.80997")
        assert "np.float64" not in message

    def test_default_r_is_half_the_cap(self):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.82)
        k = nonlocality.k_value(rho, XY)
        p_max = nonlocality.p_max_optimal(rho)
        cap = nonlocality.r_cap(k, p_max)
        assert nonlocality.undetected_strength(k, p_max).r == pytest.approx(
            0.5 * cap, abs=1e-15)


class TestLemmaSandwichGrids:
    @pytest.mark.parametrize("family,lo,hi", [
        (states.FAMILY_MAXIMAL_SLICE, 1.05, math.pi / 2.0 - 0.01),
        (states.FAMILY_GHZ_W_CONVEX, 0.4, 0.9),
        (states.FAMILY_IDENTITY_W, 0.817, 0.99),
    ])
    def test_k_between_bounds_on_family_grid(self, family, lo, hi):
        for param in np.linspace(lo, hi, 25):
            rho = _reduced(family, float(param))
            with warnings.catch_warnings():
                warnings.simplefilter("error", nonlocality.RegimeMismatchWarning)
                k = nonlocality.k_value(rho, XY)
            assert lemmas.k_lower_bound(rho, XY) - 1e-10 <= k
            assert k <= lemmas.k_upper_bound(rho, XY) + 1e-10


class TestOneFormulaPerQuantity:
    """The partial-transpose numbers and the congruence spectrum each have one
    formula: the negativity and the pair record read it, and the pair record
    agrees with the K bounds' oracle."""

    @pytest.mark.parametrize("function,count", [
        (nonlocality.k_value, 1),
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_solve_counts(self, solves, function, count):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.9)
        solves.clear()
        function(rho, XY)
        assert dict(solves) == {4: count}

    def test_negativity_solves_once(self, solves):
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.9)
        solves.clear()
        states.negativity(rho)
        assert dict(solves) == {4: 1}

    def test_functions_agree_with_the_pair_record(self):
        # random rank-8 states have PPT marginals only, so they check nothing
        rng = np.random.default_rng(700)
        checked = 0
        for rank in (1, 2, 3, 4, 8) * 20:
            for pair, record in bounds.pair_records(
                    states.validate(corpus.random_density(rng, 8, rank), 3)):
                if record.negativity <= nonlocality.NEG_TOL:
                    continue
                rho = record.reduced
                assert states.negativity(rho) == record.negativity, pair
                for plane in operators.PLANES:
                    w = operators.plane_witness(plane)
                    if nonlocality.is_detected(rho, w):
                        continue
                    trw = linalg.trace_product(w, rho.matrix)
                    n = record.negativity
                    lower = record.lambda_min_pt_squared * trw / (
                        4.0 * record.lambda_max_pt * n)
                    upper = (record.witness_max(w) * trw + record.trace_pt_squared) / (8.0 * n)
                    # K reaches 397 here: relative, so the oracle may use another solver
                    assert lemmas.k_lower_bound(rho, w) == pytest.approx(lower, rel=1e-11,
                                                                         abs=1e-12)
                    assert lemmas.k_upper_bound(rho, w) == pytest.approx(upper, rel=1e-11,
                                                                         abs=1e-12)
                    checked += 1
        assert checked > 300

    def test_return_types(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        values = linalg.hermitian_eigenvalues(m + m.conj().T)
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert list(values) == sorted(values)
        rho = _reduced(states.FAMILY_IDENTITY_W, 0.9)
        for x in (states.negativity(rho), nonlocality.horodecki_m(rho),
                  lemmas.k_lower_bound(rho, XY), lemmas.k_upper_bound(rho, XY),
                  linalg.first_nonzero_eigenvalue(values),
                  *states.partial_transpose_numbers(values)):
            assert type(x) is float

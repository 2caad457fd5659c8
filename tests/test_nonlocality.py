"""Strength measures and the K bounds, pinned to precomputed anchors.

The frozen decimals below were produced by evaluating the defining
formulas directly (trace quotients and eigenvalue expressions) in a
separate script before this module's implementation was written. The K
bounds are the paper's lemmas, which the package does not use; their
oracle lives in tests/lemmas.py.
"""

from __future__ import annotations

import functools
import math
import re
import warnings

import numpy as np
import pytest

from svetlichny import bounds, linalg, nonlocality, operators, states
from conftest import assert_immutable, random_state
import corpus
import lemmas

XY = operators.plane_witness("xy")
XZ = operators.plane_witness("xz")


def _reduced(family, param):
    return lemmas.example_reduced(family, param)


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
        # a NaN fails every comparison, so the guard asks whether n > NEG_TOL fails,
        # and the message names the fault of the first entry that fails it
        message = ("negativity nan is not finite" if np.isnan(n).any()
                   else "negativity 0.0 is numerically zero")
        with pytest.raises(nonlocality.ZeroNegativityError) as excinfo:
            nonlocality.k_from_pairing(np.ones_like(n), n)
        assert str(excinfo.value) == f"{message}; K is undefined"

    @pytest.mark.parametrize("n", [math.inf, np.array([0.1, math.inf, 0.2])],
                             ids=["scalar", "array"])
    def test_k_from_pairing_rejects_an_infinite_negativity(self, n):
        # an infinite N passes n > NEG_TOL and would give K = 0, which the
        # cap would then blame on K
        with pytest.raises(nonlocality.ZeroNegativityError) as excinfo:
            nonlocality.k_from_pairing(np.full_like(n, 0.1), n)
        assert str(excinfo.value) == "negativity inf is not finite; K is undefined"

    def test_k_from_pairing_is_k_value_elementwise(self):
        rhos = [_reduced(states.FAMILY_IDENTITY_W, x) for x in (0.82, 0.87, 0.92)]
        pairings = np.einsum("ij,kji->k", XY, np.array(
            [rho.matrix @ states.partial_transpose(rho) for rho in rhos])).real
        k = nonlocality.k_from_pairing(pairings, np.array([states.negativity(r) for r in rhos]))
        assert k.tolist() == [nonlocality.k_value(rho, XY) for rho in rhos]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize("formula", ["s_nl", "k"])
    def test_pairing_must_be_finite(self, value, shape, formula):
        # a NaN pairing would give a NaN strength, an infinite one an infinite
        # strength; the message names the first entry that is not finite
        pairing = value if shape == "scalar" else np.array([0.1, value, -0.2, math.nan])
        with pytest.raises(nonlocality.NonlocalityError) as excinfo:
            if formula == "s_nl":
                nonlocality.s_nl_from_pairing(pairing)
            else:
                nonlocality.k_from_pairing(pairing, np.full_like(pairing, 0.1))
        assert excinfo.type is nonlocality.NonlocalityError
        assert str(excinfo.value) == f"pairing {value} is not finite"

    def test_finite_pairings_keep_their_bits(self, rng):
        pairings, n = rng.normal(size=50), rng.uniform(0.01, 0.5, size=50)
        s_nl = nonlocality.s_nl_from_pairing(pairings)
        assert s_nl.tobytes() == np.maximum(-pairings / 8.0, 0.0).tobytes()
        assert nonlocality.k_from_pairing(pairings, n).tobytes() == (pairings / (4.0 * n)).tobytes()
        for p, m in zip(pairings.tolist(), n.tolist()):
            assert nonlocality.s_nl_from_pairing(p) == max(-p / 8.0, 0.0)
            assert nonlocality.k_from_pairing(p, m) == p / (4.0 * m)

    def test_errors_come_in_order(self):
        # the witness check first (witness_matrix, the rule of every bounds entry),
        # then the regime warning, then the zero-negativity error: -I detects the
        # product state, which has N = 0
        product = states.validate(np.diag([1.0, 0.0, 0.0, 0.0]), 2)
        for witness, error, message in (
                (np.eye(3), operators.OperatorError,
                 re.escape("witness must be a 4x4 matrix, got shape (3, 3)")),
                (np.full((4, 4), np.nan), linalg.LinalgError, "matrix contains NaN or Inf")):
            with pytest.raises(error, match=message):
                nonlocality.k_value(product, witness)
        zero = "negativity 0.0 is numerically zero; K is undefined"
        with pytest.warns(nonlocality.RegimeMismatchWarning, match=(
                "k_value evaluated on a witness-detected state; the detected-regime "
                "measure is s_nl_detected")):
            with pytest.raises(nonlocality.ZeroNegativityError, match=zero):
                nonlocality.k_value(product, -np.eye(4))
        with pytest.raises(nonlocality.ZeroNegativityError, match=zero):
            nonlocality.k_value(product, XY)

    def test_detected_state_warns(self):
        rho = _reduced(states.FAMILY_PURE_W1, 0.92)
        # reduced pair A-C of the first family, where the xz witness detects
        rho_ac = states.partial_trace(states.make_example(states.FAMILY_PURE_W1, 0.92), "B")
        assert nonlocality.is_detected(rho_ac, XZ)
        with pytest.warns(nonlocality.RegimeMismatchWarning):
            nonlocality.k_value(rho_ac, XZ)
        del rho


class TestInputRules:
    """Each single-state function checks its own witness and state at its entry:
    the witness by operators.witness_matrix, the state's qubit count by its own rule."""

    STRENGTHS = [nonlocality.is_detected, nonlocality.s_nl_detected, nonlocality.k_value,
                 functools.partial(nonlocality.s_nl_new, r=0.0)]
    IDS = ["is_detected", "s_nl_detected", "k_value", "s_nl_new"]

    @pytest.mark.parametrize("strength", STRENGTHS, ids=IDS)
    def test_non_hermitian_witness_rejected(self, strength):
        # identity-W 0.82's pair is undetected by the plane witnesses, and K of
        # this upper-triangular "witness" would read 0.8177
        rho = states.reduce_to_pair(states.make_example(states.FAMILY_IDENTITY_W, 0.82),
                                    ("B", "C"))
        with pytest.raises(linalg.NotHermitianError):
            strength(rho, np.triu(np.ones((4, 4))))

    @pytest.mark.parametrize("strength", STRENGTHS, ids=IDS)
    def test_three_qubit_state_rejected_by_the_strengths(self, strength):
        with pytest.raises(nonlocality.NonlocalityError,
                           match="expected a two-qubit state, got 3 qubits"):
            strength(states.make_reference("GHZ"), XY)

    @pytest.mark.parametrize("quantity", [nonlocality.horodecki_m, nonlocality.p_max_optimal],
                             ids=["horodecki_m", "p_max_optimal"])
    def test_three_qubit_state_rejected_by_the_chsh_quantities(self, quantity):
        with pytest.raises(nonlocality.NonlocalityError,
                           match="expected a two-qubit state, got 3 qubits"):
            quantity(states.make_reference("GHZ"))


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

    def test_no_field_of_a_strength_can_be_set_or_deleted(self):
        assert_immutable(nonlocality.undetected_strength(0.3, 0.8))

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

    @pytest.mark.parametrize("call, named", [
        (lambda: nonlocality.r_cap(0.1, math.nan), "P_max = nan"),
        (lambda: nonlocality.r_cap(0.1, math.inf), "P_max = inf"),
        (lambda: nonlocality.r_cap(math.inf, 0.5), "K = inf"),
        (lambda: nonlocality.undetected_strength(0.1, math.nan), "P_max = nan"),
    ], ids=["p_max-nan", "p_max-inf", "k-inf", "undetected_strength"])
    def test_non_finite_cap_inputs_rejected(self, call, named):
        # a NaN P_max fails 3/4 - P_max + K <= 0, and min(K/denominator, 1) would return it
        with pytest.raises(nonlocality.WindowParameterError) as excinfo:
            call()
        assert str(excinfo.value) == f"{named} is not finite"

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
                rho = states.DensityMatrix(qubits=2, matrix=record.reduced)
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
        p_max = nonlocality.p_max_optimal(rho)
        strength = nonlocality.undetected_strength(nonlocality.k_value(rho, XY), p_max)
        for x in (states.negativity(rho), nonlocality.horodecki_m(rho), p_max,
                  strength.s_nl_new, strength.k, strength.p_max, strength.r,
                  lemmas.k_lower_bound(rho, XY), lemmas.k_upper_bound(rho, XY),
                  linalg.first_nonzero_eigenvalue(values),
                  *states.partial_transpose_numbers(values)):
            assert type(x) is float

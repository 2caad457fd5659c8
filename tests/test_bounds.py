"""Certificate windows, visibility bounds, and the verdict search.

The frozen decimals were computed from the defining eigenvalue
expressions in a standalone script before this module existed; they pin
the detected route on the first worked family and the undetected route
on the fifth.
"""

from __future__ import annotations

import numpy as np
import pytest

from svetlichny import linalg, operators, states
from svetlichny.bounds import (
    BoundConfig,
    BoundsError,
    SingularDenominatorError,
    Window,
    detect_genuine,
    embed_pair,
    full_report,
    pair_spectra,
    product_spectrum,
)
from svetlichny.nonlocality import (
    NEG_TOL,
    NonlocalityError,
    is_detected,
    k_value,
    p_max_optimal,
    r_cap,
)
from conftest import random_pure, random_state

XY = operators.plane_witness("xy")
XZ = operators.plane_witness("xz")


def _f1_report(p=0.0065, q=0.95):
    rho = states.make_example(states.FAMILY_PURE_W1, 0.92)
    cfg = BoundConfig(p=p, q=q, witness=XZ, reduced_pair=("A", "C"))
    return rho, cfg, full_report(rho, cfg)


def _f5_report(p=0.993, q=0.89, r=0.0):
    rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
    cfg = BoundConfig(p=p, q=q, witness=XY, reduced_pair=("B", "C"), r=r)
    return rho, cfg, full_report(rho, cfg)


class TestWindow:
    def test_empty_flag(self):
        assert not Window(0.2, 0.4).empty
        assert Window(0.4, 0.2).empty

    def test_midpoint_and_contains(self):
        w = Window(0.2, 0.4)
        assert w.midpoint == pytest.approx(0.3)
        assert w.contains(0.25)
        assert not w.contains(0.45)


class TestBoundConfig:
    def test_rejects_out_of_range_visibilities(self):
        for p, q in ((0.0, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, 1.0001)):
            with pytest.raises(BoundsError):
                BoundConfig(p=p, q=q, witness=XY)

    def test_rejects_bad_r(self):
        with pytest.raises(BoundsError):
            BoundConfig(p=0.5, q=0.5, witness=XY, r=1.0)

    def test_rejects_non_hermitian_witness(self):
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        with pytest.raises((BoundsError, linalg.NotHermitianError)):
            BoundConfig(p=0.5, q=0.5, witness=bad)


def _kron_embed(op: np.ndarray, pair: tuple[str, str]) -> np.ndarray:
    """Index-wise lift: kron(op, I) on qubit order (pair, spectator),
    with tensor axes then permuted back to A, B, C."""
    slots = [states.LABELS.index(label) for label in pair]
    order = slots + [k for k in range(3) if k not in slots]
    inverse = list(np.argsort(order))
    lifted = np.kron(op, np.eye(2)).reshape([2] * 6)
    return lifted.transpose(inverse + [3 + k for k in inverse]).reshape(8, 8)


PAIRS = (("A", "B"), ("A", "C"), ("B", "C"), ("C", "A"))


class TestEmbedding:
    @pytest.mark.parametrize("pair", PAIRS, ids="".join)
    def test_embed_matches_index_oracle_for_general_operator(self, rng, pair):
        # a non-Hermitian operator with no tensor symmetry: a misplaced or
        # swapped slot changes the lift
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.abs(embed_pair(op, pair) - _kron_embed(op, pair)).max() <= 1e-15

    @pytest.mark.parametrize("pair", PAIRS[:3], ids="".join)
    def test_product_spectrum_matches_raw_product(self, rng, pair):
        # the raw product rho (I x rho_ij) is not Hermitian; its eigenvalues
        # must still be the spectrum product_spectrum reports
        for _ in range(5):
            rho = random_state(rng, 3)
            reduced = random_state(rng, 2)
            raw = np.linalg.eigvals(rho.matrix @ _kron_embed(reduced.matrix, pair))
            assert np.abs(raw.imag).max() <= 1e-12
            spec = product_spectrum(rho, reduced, pair)
            assert np.abs(np.sort(raw.real) - np.array(spec.values)).max() <= 1e-12

    @pytest.mark.parametrize("family,param", [
        (states.FAMILY_PURE_W1, 0.93),
        (states.FAMILY_MIXED_GHZ_2W, 0.65),
        (states.FAMILY_MAXIMAL_SLICE, 1.3),
        (states.FAMILY_GHZ_W_CONVEX, 0.6),
        (states.FAMILY_IDENTITY_W, 0.87),
    ])
    def test_product_spectrum_on_worked_families(self, family, param):
        # the listed product spectra that disagree with product_spectrum
        # are wrong about this operator, not the general route
        rho = states.make_example(family, param)
        reduced = states.example_reduced(family, param)
        pair = states.EXAMPLE_PAIRS[family]
        raw = np.linalg.eigvals(rho.matrix @ _kron_embed(reduced.matrix, pair))
        spec = product_spectrum(rho, reduced, pair)
        assert np.abs(np.sort(raw.real) - np.array(spec.values)).max() <= 1e-12

    def test_embed_bc_matches_kron(self, rng):
        op = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        assert np.allclose(embed_pair(op, ("B", "C")), np.kron(np.eye(2), op))

    def test_embed_ab_matches_kron(self):
        op = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        assert np.allclose(embed_pair(op, ("A", "B")), np.kron(op, np.eye(2)))

    def test_embedded_spectrum_doubles_multiplicities(self, rng):
        rho = random_state(rng, 2)
        emb = embed_pair(rho.matrix, ("A", "C"))
        values = np.sort(np.linalg.eigvalsh(emb))
        direct = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.allclose(values, np.sort(np.concatenate([direct, direct])),
                           atol=1e-12)

    def test_product_spectrum_is_real_and_psd_shaped(self, rng):
        rho = random_state(rng, 3)
        reduced = states.partial_trace(rho, "A")
        spec = product_spectrum(rho, reduced, ("B", "C"))
        assert spec.lambda_min >= -1e-12
        assert spec.lambda_max <= 1.0 + 1e-12


class TestDetectedRoute:
    def test_frozen_f1_intermediates(self):
        _, _, rep = _f1_report()
        assert rep.regime == "detected"
        inter = rep.intermediates
        assert inter["lambda_max_product"] == pytest.approx(
            0.8808899200000001, abs=1e-13)
        assert inter["s_nl"] == pytest.approx(0.0018714354586482213, abs=1e-15)

    def test_frozen_f1_bounds(self):
        _, _, rep = _f1_report()
        assert rep.sv_lower == pytest.approx(4.887513234099837, abs=1e-10)
        assert rep.sv_upper == pytest.approx(5.831777027474353, abs=1e-10)

    def test_frozen_f1_windows(self):
        _, _, rep = _f1_report()
        assert rep.genuine_p_window.lower == pytest.approx(
            0.005620958830012582, abs=1e-13)
        assert rep.genuine_p_window.upper == pytest.approx(
            0.007930771175802629, abs=1e-13)
        assert rep.genuine_q_window.lower == pytest.approx(
            0.951426891272455, abs=1e-13)
        assert rep.genuine_q_window.upper == pytest.approx(
            0.965157936662651, abs=1e-13)
        # the listed visibility sits inside the genuine p window
        assert rep.genuine_p_window.contains(0.0065)
        # admissible windows share an endpoint with the genuine ones
        assert rep.p_window.lower == pytest.approx(rep.genuine_p_window.upper)
        assert rep.q_window.lower == pytest.approx(rep.genuine_q_window.upper)

    def test_bounds_vanish_at_unit_visibility_exactly(self):
        rho, cfg, _ = _f1_report()
        reduced = states.partial_trace(rho, "B")
        from svetlichny.nonlocality import s_nl_detected
        s_nl = s_nl_detected(reduced, XZ)
        assert is_detected(reduced, XZ)
        spectra = pair_spectra(rho, reduced, ("A", "C"))
        low, high = spectra.detected_numerators(s_nl)
        assert spectra.lower_bound(low, 1.0) == 0.0
        assert spectra.upper_bound(high, 1.0) == 0.0


class TestUndetectedRoute:
    def test_frozen_f5_intermediates(self):
        _, _, rep = _f5_report()
        assert rep.regime == "undetected"
        inter = rep.intermediates
        assert inter["lambda_min_product"] == pytest.approx(
            0.0010125000000000006, abs=1e-14)
        assert inter["lambda_max_product"] == pytest.approx(
            0.4224795982887151, abs=1e-13)
        assert inter["H"] == pytest.approx(-0.7999096086713142, abs=1e-12)
        assert inter["F"] == pytest.approx(1.697542732653113, abs=1e-12)
        assert inter["k"] == pytest.approx(0.2417860474608272, abs=1e-13)
        assert inter["r"] == 0.0

    def test_frozen_f5_windows(self):
        _, _, rep = _f5_report()
        assert rep.genuine_p_window.lower == pytest.approx(
            0.6565886928444555, abs=1e-12)
        assert rep.genuine_p_window.upper == pytest.approx(
            0.730015752789509, abs=1e-12)
        assert rep.genuine_q_window.lower == pytest.approx(
            0.9302511566206606, abs=1e-12)
        assert rep.genuine_q_window.upper == pytest.approx(
            0.9496515532994169, abs=1e-12)

    def test_default_r_used_when_unset(self):
        _, _, rep = _f5_report(r=None)
        from svetlichny.nonlocality import default_r
        rho5 = states.example_reduced(states.FAMILY_IDENTITY_W, 0.82)
        assert rep.intermediates["r"] == pytest.approx(default_r(rho5, XY), abs=1e-15)

    def test_bounds_vanish_at_unit_visibility_exactly(self):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        reduced = states.partial_trace(rho, "A")
        from svetlichny.nonlocality import s_nl_new
        strength = s_nl_new(reduced, XY, 0.0)
        assert not is_detected(reduced, XY)
        spectra = pair_spectra(rho, reduced, ("B", "C"))
        f = spectra.f_value(strength.k, spectra.witness_max(XY))
        assert spectra.lower_bound(spectra.h_value(strength.k), 1.0) == 0.0
        assert spectra.upper_bound(f / 4.0, 1.0) == 0.0

    def test_genuine_p_window_tracks_h_sign(self):
        from svetlichny.nonlocality import NonlocalityStrength, s_nl_new
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        reduced = states.example_reduced(states.FAMILY_IDENTITY_W, 0.82)
        strength = s_nl_new(reduced, XY, 0.0)
        spectra = pair_spectra(rho, reduced)
        _, genuine = spectra.p_windows(spectra.h_value(strength.k), detected=False)
        assert not genuine.empty
        # a vanishing strength leaves H at the positive product floor, and
        # a positive H has to close the genuine window
        feeble = NonlocalityStrength.undetected(
            s_nl_new=1e-12, k=1e-12, p_max=0.75, r=0.0)
        _, closed = spectra.p_windows(spectra.h_value(feeble.k), detected=False)
        assert closed.empty


class TestVerdict:
    def test_all_example_families_are_genuine(self):
        cases = [
            (states.FAMILY_PURE_W1, 0.92),
            (states.FAMILY_MIXED_GHZ_2W, 0.55),
            (states.FAMILY_MAXIMAL_SLICE, 1.2),
            (states.FAMILY_GHZ_W_CONVEX, 0.6),
            (states.FAMILY_IDENTITY_W, 0.82),
        ]
        for family, param in cases:
            verdict = detect_genuine(states.make_example(family, param))
            assert verdict.outcome == "genuine", (family, param)
            assert verdict.window is not None
            assert verdict.window.contains(verdict.value)
            assert verdict.route in ("detected-p", "detected-q",
                                     "undetected-p", "undetected-q")

    def test_product_state_not_applicable(self):
        verdict = detect_genuine(states.make_reference("product-000"))
        assert verdict.outcome == "not-applicable"
        assert verdict.route is None

    def test_maximally_mixed_not_applicable(self):
        rho = states.validate(np.eye(8) / 8.0, 3)
        assert detect_genuine(rho).outcome == "not-applicable"

    def test_ghz_not_applicable_through_marginals(self):
        # the certificate works through two-qubit marginal entanglement,
        # which the GHZ state does not have
        verdict = detect_genuine(states.make_reference("GHZ"))
        assert verdict.outcome == "not-applicable"

    def test_pair_restriction_respected(self):
        rho = states.make_example(states.FAMILY_PURE_W1, 0.92)
        verdict = detect_genuine(rho, pair=("A", "C"))
        assert verdict.outcome == "genuine"
        assert verdict.pair == ("A", "C")

    def test_verdict_value_sits_at_window_midpoint(self):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        verdict = detect_genuine(rho)
        assert verdict.value == pytest.approx(verdict.window.midpoint, abs=1e-15)


SEARCH_ORDER = (("A", "B"), ("A", "C"), ("B", "C"))


class TestSolveCounts:
    """Each 8x8 spectrum is computed once: the state once per call (it
    also gives the state's square root) and the product once per pair."""

    def test_full_report_diagonalizes_state_and_product_only(self, solves):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        for pair, r in ((("B", "C"), 0.0), (("B", "C"), None), (("A", "C"), None)):
            solves.clear()
            full_report(rho, BoundConfig(p=0.5, q=0.5, witness=XY, reduced_pair=pair, r=r))
            assert solves[8] <= 2, (pair, r, solves)

    @pytest.mark.parametrize("pair", [None, ("B", "C"), ("A", "C")], ids=str)
    def test_detect_genuine_solves_state_once(self, solves, pair):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        solves.clear()
        verdict = detect_genuine(rho, pair=pair)
        assert verdict.outcome == "genuine"
        tried = 1 if pair is not None else SEARCH_ORDER.index(verdict.pair) + 1
        assert solves[8] <= 1 + tried, solves

    def test_detect_genuine_without_verdict_tries_every_pair(self, solves):
        rho = states.make_reference("GHZ")
        solves.clear()
        assert detect_genuine(rho).outcome == "not-applicable"
        assert solves[8] <= 1 + len(SEARCH_ORDER), solves

    def test_p_max_solved_once_per_pair(self, solves):
        # r = 0.99 lies above every cap here, so each pair tries all three
        # undetected witnesses and fires on none of them
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        solves.clear()
        assert detect_genuine(rho, r=0.99).outcome == "inconclusive"
        assert solves[3] <= len(SEARCH_ORDER), solves


class TestWeightIndependence:
    """The undetected routes read the strength through K alone, so every
    admissible r gives the same H, F, G, windows and bounds."""

    @staticmethod
    def _reports(rho, pair, witness):
        traced = next(label for label in states.LABELS if label not in pair)
        reduced = states.partial_trace(rho, traced)
        cap = r_cap(k_value(reduced, witness), p_max_optimal(reduced))
        return [full_report(rho, BoundConfig(p=0.5, q=0.5, witness=witness,
                                             reduced_pair=pair, r=r))
                for r in (0.0, 0.25 * cap, None, 0.9 * cap)]

    @staticmethod
    def _assert_same_certificate(reports):
        first = reports[0]
        assert first.regime == "undetected"
        assert len({rep.intermediates["r"] for rep in reports}) == len(reports)
        for rep in reports[1:]:
            for key in ("H", "F", "G", "k"):
                assert rep.intermediates[key] == first.intermediates[key], key
            for name in ("p_window", "q_window", "genuine_p_window", "genuine_q_window"):
                assert getattr(rep, name) == getattr(first, name), name
            assert (rep.sv_lower, rep.sv_upper) == (first.sv_lower, first.sv_upper)

    @pytest.mark.parametrize("family, param, pair", [
        (states.FAMILY_MAXIMAL_SLICE, 1.2, "AB"),
        (states.FAMILY_MAXIMAL_SLICE, 1.4, "AB"),
        (states.FAMILY_GHZ_W_CONVEX, 0.5, "BC"),
        (states.FAMILY_GHZ_W_CONVEX, 0.8, "BC"),
        (states.FAMILY_IDENTITY_W, 0.82, "BC"),
        (states.FAMILY_IDENTITY_W, 0.92, "AC"),
    ])
    def test_undetected_worked_families(self, family, param, pair):
        rho = states.make_example(family, param)
        self._assert_same_certificate(self._reports(rho, tuple(pair), XY))

    def test_random_pure_states(self, rng):
        checked = 0
        for _ in range(20):
            ket = random_pure(rng, 8)
            rho = states.validate(np.outer(ket, ket.conj()), 3)
            for pair in SEARCH_ORDER:
                traced = next(label for label in states.LABELS if label not in pair)
                reduced = states.partial_trace(rho, traced)
                for plane in operators.PLANES:
                    w = operators.plane_witness(plane)
                    if states.negativity(reduced) <= NEG_TOL or is_detected(reduced, w):
                        continue
                    try:
                        reports = self._reports(rho, pair, w)
                    except (NonlocalityError, BoundsError):
                        continue
                    self._assert_same_certificate(reports)
                    checked += 1
        assert checked >= 20, checked


class TestSingularHandling:
    def test_singular_denominator_raises(self):
        # a pure product reduced pair has zero negativity, which the
        # undetected route reports before any denominator is formed
        rho = states.make_reference("product-000")
        cfg = BoundConfig(p=0.5, q=0.5, witness=XY, reduced_pair=("B", "C"),
                          r=0.0)
        from svetlichny.nonlocality import NonlocalityError
        with pytest.raises((NonlocalityError, SingularDenominatorError,
                            BoundsError)):
            full_report(rho, cfg)

"""Certificate windows, the bounds at operator weights p and q, and the verdict search.

The frozen decimals were computed from the defining eigenvalue
expressions in a standalone script before this module existed; they pin
the detected route on the first worked family and the undetected route
on the fifth.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from svetlichny import cli, linalg, operators, reproduce, states
from svetlichny.bounds import (
    BoundConfig,
    BoundsError,
    PairSpectra,
    build_records,
    SingularDenominatorError,
    Window,
    _candidate_windows,
    detect_genuine,
    embed_pair,
    full_report,
    grid_record,
    pair_records,
    pair_spectra,
    product_spectrum,
    search_records,
)
from svetlichny.nonlocality import (
    NEG_TOL,
    NonlocalityError,
    WindowParameterError,
    is_detected,
    k_value,
    p_max_optimal,
    r_cap,
    s_nl_new,
    undetected_strength,
)
from conftest import random_state
import corpus
import lemmas

XY = operators.plane_witness("xy")
XZ = operators.plane_witness("xz")


def _f1_report(p=0.0065, q=0.95):
    rho = states.make_example(states.FAMILY_PURE_W1, 0.92)
    cfg = BoundConfig(p=p, q=q, witness=XZ, reduced_pair=("A", "C"))
    return rho, cfg, full_report(rho, cfg)


def _f5_report(p=0.993, q=0.89):
    rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
    cfg = BoundConfig(p=p, q=q, witness=XY, reduced_pair=("B", "C"))
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


GHZ_W_06 = states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.6)

PAIR_ENTRY_POINTS = {
    "reduce_to_pair": lambda pair: states.reduce_to_pair(GHZ_W_06, pair),
    "embed_pair": lambda pair: embed_pair(np.eye(4), pair),
    "BoundConfig": lambda pair: BoundConfig(p=0.5, q=0.5, witness=XY, reduced_pair=pair),
    "pair_spectra": lambda pair: pair_spectra(
        GHZ_W_06, states.reduce_to_pair(GHZ_W_06, ("A", "B")), pair),
    "pair_records": lambda pair: pair_records(GHZ_W_06, [pair]),
    "detect_genuine": lambda pair: detect_genuine(GHZ_W_06, pair=pair),
}


@pytest.mark.parametrize("pair", [("A",), ("A", "B", "C"), ("A", "A"), ("A", "D")], ids=str)
@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS)
def test_every_entry_point_rejects_a_malformed_pair(entry, pair):
    # one rule, states.pair_positions, behind every entry point that takes a pair
    with pytest.raises(states.UnknownNameError):
        PAIR_ENTRY_POINTS[entry](pair)


MALFORMED_WITNESSES = {"3x3": np.eye(3), "8x8": np.eye(8),
                       "non-Hermitian": np.triu(np.ones((4, 4))), "NaN": np.full((4, 4), np.nan)}


@pytest.mark.parametrize("witness", MALFORMED_WITNESSES)
@pytest.mark.parametrize("entry", ["BoundConfig", "detect_genuine", "svet analyze"])
def test_every_entry_point_rejects_a_malformed_witness(entry, witness, tmp_path, capsys):
    # one rule, operators.witness_matrix: a typed error, never a skipped
    # witness and the verdict of the planes alone
    w = MALFORMED_WITNESSES[witness]
    if entry == "svet analyze":
        path = tmp_path / "witness.mat"
        path.write_text(cli.format_matrix_text(w))
        code = cli.main(["analyze", "--family", states.FAMILY_GHZ_W_CONVEX, "--param", "0.6",
                         "--pair", "AB", "--witness", str(path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID, err
        assert err.startswith("error: ") and "Traceback" not in err
        return
    with pytest.raises((operators.OperatorError, linalg.LinalgError)):
        if entry == "BoundConfig":
            BoundConfig(p=0.5, q=0.5, witness=w)
        else:
            detect_genuine(GHZ_W_06, pair=("A", "B"), witness=w)


class TestBoundConfig:
    def test_rejects_out_of_range_weights(self):
        for p, q in ((0.0, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, 1.0001)):
            with pytest.raises(BoundsError):
                BoundConfig(p=p, q=q, witness=XY)

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
            assert np.abs(np.sort(raw.real) - spec).max() <= 1e-12

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
        reduced = lemmas.example_reduced(family, param)
        pair = states.EXAMPLE_PAIRS[family]
        raw = np.linalg.eigvals(rho.matrix @ _kron_embed(reduced.matrix, pair))
        spec = product_spectrum(rho, reduced, pair)
        assert np.abs(np.sort(raw.real) - spec).max() <= 1e-12

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

    def test_embed_is_exact_lift(self, rng):
        # the index gather copies entries: no roundoff against the kron oracle
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for pair in permutations(states.LABELS, 2):
            assert np.array_equal(embed_pair(op, pair), _kron_embed(op, pair))

    def test_product_spectrum_is_real_and_psd_shaped(self, rng):
        rho = random_state(rng, 3)
        reduced = states.partial_trace(rho, "A")
        spec = product_spectrum(rho, reduced, ("B", "C"))
        assert spec[0] >= -1e-12
        assert spec[-1] <= 1.0 + 1e-12


ORDERED_PAIRS = tuple(permutations(states.LABELS, 2))


class TestOrderedPairs:
    """A pair is ordered: ("C", "A") reduces to rho_CA with C in the first
    slot, so that embed_pair and the witness see the operator they name."""

    def test_records_hold_the_ordered_marginal(self, rng):
        for _ in range(5):
            rho = random_state(rng, 3)
            for (pair, record) in pair_records(rho, ORDERED_PAIRS):
                want = corpus.marginal(rho.matrix, pair)
                assert np.abs(record.reduced.matrix - want).max() <= 1e-15, pair

    @pytest.mark.parametrize("pair", [p for p in ORDERED_PAIRS if p[0] > p[1]], ids="".join)
    def test_descending_pair_matches_its_ascending_twin(self, rng, pair):
        twin = pair[::-1]
        for _ in range(5):
            rho = random_state(rng, 3)
            (_, record), (_, ascending) = pair_records(rho, [pair, twin])
            for name in ("lambda_min_product", "lambda_max_product"):
                assert getattr(record, name) == pytest.approx(
                    getattr(ascending, name), abs=1e-12), name
            assert record.negativity == pytest.approx(ascending.negativity, abs=1e-12)
            for name in ("lambda_max_embedded", "lambda_k_embedded", "lambda_max_pt",
                         "trace_pt_squared"):
                assert getattr(record, name) == pytest.approx(
                    getattr(ascending, name), abs=1e-12), name

    def test_reversed_pure_w1_pair_keeps_its_product_spectrum(self):
        # rho_AC read with C in the first slot used to lift a swapped
        # operator: lambda_max of the product fell from 0.5512 to 0.1156
        rho = states.make_example(states.FAMILY_PURE_W1, 0.5)
        reports = [full_report(rho, BoundConfig(p=0.5, q=0.5, witness=XZ, reduced_pair=pair))
                   for pair in (("A", "C"), ("C", "A"))]
        for name in ("lambda_min_product", "lambda_max_product", "Z"):
            assert reports[1].intermediates[name] == pytest.approx(
                reports[0].intermediates[name], abs=1e-12), name
        assert reports[1].intermediates["lambda_max_product"] == pytest.approx(0.5512, abs=1e-4)
        ascending = detect_genuine(rho, pair=("A", "C"))
        descending = detect_genuine(rho, pair=("C", "A"))
        assert (descending.outcome, descending.route) == (ascending.outcome, ascending.route)
        assert descending.value == pytest.approx(ascending.value, abs=1e-12)


class TestStackedProducts:
    """One product_spectrum call solves a whole stack, each member as its single call does,
    and every record holds its pair's product extremes as two plain fields."""

    @staticmethod
    def _assert_stack_is_each_single_call(rhos, reductions, pairs):
        stacked = product_spectrum(rhos, reductions, pairs)
        singles = [product_spectrum(*member) for member in zip(rhos, reductions, pairs)]
        assert stacked.tolist() == [spectrum.tolist() for spectrum in singles]

    @pytest.mark.parametrize("pair", ORDERED_PAIRS, ids="".join)
    def test_stack_matches_single_calls_on_random_states(self, rng, pair):
        rhos = [states.validate(corpus.random_density(rng, 8, rank), 3) for rank in range(1, 9)]
        self._assert_stack_is_each_single_call(
            rhos, [states.reduce_to_pair(rho, pair) for rho in rhos], [pair] * len(rhos))

    @pytest.mark.parametrize("pair", ORDERED_PAIRS, ids="".join)
    def test_stack_matches_single_calls_on_a_family_grid(self, pair):
        rhos = states.make_examples(states.FAMILY_GHZ_W_CONVEX, np.linspace(0.4, 0.9, 50))
        self._assert_stack_is_each_single_call(
            rhos, states.reduce_to_pairs(rhos, pair), [pair] * len(rhos))

    def test_stack_of_mixed_pairs_embeds_each_member_on_its_own(self, rng):
        rho = random_state(rng, 3)
        self._assert_stack_is_each_single_call(
            [rho] * len(ORDERED_PAIRS), [states.reduce_to_pair(rho, pair) for pair in ORDERED_PAIRS],
            ORDERED_PAIRS)

    def test_record_products_are_their_product_spectrum(self, rng):
        for rank in range(1, 9):
            rho = states.validate(corpus.random_density(rng, 8, rank), 3)
            for pair, record in pair_records(rho, ORDERED_PAIRS):
                spectrum = product_spectrum(rho, record.reduced, pair)
                assert (record.lambda_min_product, record.lambda_max_product) == (
                    spectrum[0], spectrum[-1]), (rank, pair)


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
        # the listed weight sits inside the genuine p window
        assert rep.genuine_p_window.contains(0.0065)
        # admissible windows share an endpoint with the genuine ones
        assert rep.p_window.lower == pytest.approx(rep.genuine_p_window.upper)
        assert rep.q_window.lower == pytest.approx(rep.genuine_q_window.upper)

    def test_bounds_vanish_at_unit_weight_exactly(self):
        rho, cfg, _ = _f1_report()
        reduced = states.partial_trace(rho, "B")
        from svetlichny.nonlocality import s_nl_detected
        s_nl = s_nl_detected(reduced, XZ)
        assert is_detected(reduced, XZ)
        spectra = pair_spectra(rho, reduced, ("A", "C"))
        lower, upper = spectra.bounds(spectra.detected(s_nl), 1.0, 1.0)
        assert lower == 0.0
        assert upper == 0.0


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
        rho5 = lemmas.example_reduced(states.FAMILY_IDENTITY_W, 0.82)
        default_r = undetected_strength(k_value(rho5, XY), p_max_optimal(rho5)).r
        assert inter["r"] == pytest.approx(default_r, abs=1e-15)

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
        _, _, rep = _f5_report()
        inter = rep.intermediates
        rho5 = lemmas.example_reduced(states.FAMILY_IDENTITY_W, 0.82)
        default_r = undetected_strength(k_value(rho5, XY), p_max_optimal(rho5)).r
        assert inter["r"] == pytest.approx(default_r, abs=1e-15)
        # the reported strength is S_NL_new at that weight
        assert inter["s_nl_new"] == pytest.approx(
            inter["r"] * (inter["p_max"] - 0.75) + (1.0 - inter["r"]) * inter["k"], abs=1e-15)

    def test_bounds_vanish_at_unit_weight_exactly(self):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        reduced = states.partial_trace(rho, "A")
        strength = s_nl_new(reduced, XY, 0.0)
        assert not is_detected(reduced, XY)
        spectra = pair_spectra(rho, reduced, ("B", "C"))
        routes = spectra.undetected(strength.k, spectra.witness_max(XY))
        lower, upper = spectra.bounds(routes, 1.0, 1.0)
        assert lower == 0.0
        assert upper == 0.0

    def test_genuine_p_window_tracks_h_sign(self):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        reduced = lemmas.example_reduced(states.FAMILY_IDENTITY_W, 0.82)
        strength = s_nl_new(reduced, XY, 0.0)
        spectra = pair_spectra(rho, reduced)
        wr_max = spectra.witness_max(XY)
        (_, genuine), _ = spectra.windows(spectra.undetected(strength.k, wr_max))
        assert not genuine.empty
        # a vanishing strength leaves H at the positive product floor, and
        # a positive H has to close the genuine window
        (_, closed), _ = spectra.windows(spectra.undetected(1e-12, wr_max))
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
        # the verdict's pair is a tuple whatever sequence the caller passed
        rho = states.make_example(states.FAMILY_PURE_W1, 0.92)
        for pair, expected in ((("A", "C"), ("A", "C")), (["A", "B"], ("A", "B"))):
            verdict = detect_genuine(rho, pair=pair)
            assert verdict.outcome == "genuine"
            assert verdict.pair == expected

    def test_verdict_value_sits_at_window_midpoint(self):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        verdict = detect_genuine(rho)
        assert verdict.value == pytest.approx(verdict.window.midpoint, abs=1e-15)

    @pytest.mark.parametrize("table,param", [
        (table, row[0]) for table, rows in reproduce.TABLES.items() for row in rows])
    def test_verdict_window_is_the_reports_genuine_window(self, table, param):
        # the search and the report read one evaluation of the firing
        # candidate, so their windows agree exactly
        rho = states.make_example(states.FAMILIES[table - 1], param)
        verdict = detect_genuine(rho)
        assert verdict.outcome == "genuine"
        witness = operators.plane_witness(verdict.witness_label)
        report = full_report(rho, BoundConfig(p=0.5, q=0.5, witness=witness,
                                              reduced_pair=verdict.pair))
        assert verdict.route == f"{report.regime}-{verdict.parameter}"
        genuine = (report.genuine_p_window if verdict.parameter == "p"
                   else report.genuine_q_window)
        assert verdict.window == genuine


SEARCH_ORDER = (("A", "B"), ("A", "C"), ("B", "C"))


class TestSolveCounts:
    """Each 8x8 spectrum is computed once: the state once, by validation
    (it also gives the state's square root), and the products of every
    pair a record set holds in one stacked solve, when the records are
    built. The 4x4 matrices of all pairs share one stacked solve."""

    def test_full_report_diagonalizes_state_and_product_only(self, solves):
        for pair in (("B", "C"), ("A", "C")):
            solves.clear()
            rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
            full_report(rho, BoundConfig(p=0.5, q=0.5, witness=XY, reduced_pair=pair))
            assert solves[8] == 2, (pair, solves)

    @pytest.mark.parametrize("pair", [None, ("B", "C"), ("A", "C")], ids=str)
    def test_detect_genuine_solves_state_once(self, solves, pair):
        solves.clear()
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        verdict = detect_genuine(rho, pair=pair)
        assert verdict.outcome == "genuine"
        # the state, then the product of each pair searched
        assert solves[8] == 1 + (len(SEARCH_ORDER) if pair is None else 1), solves

    def test_unvalidated_state_is_solved_once(self, solves):
        matrix = states.make_example(states.FAMILY_IDENTITY_W, 0.82).matrix
        rho = states.DensityMatrix(qubits=3, matrix=matrix)
        solves.clear()
        pair_records(rho)
        assert solves[8] == 1 + len(SEARCH_ORDER) and solves[4] == 2 * len(SEARCH_ORDER), solves
        # a second record set solves its products again, never the state
        detect_genuine(rho)
        assert solves[8] == 1 + 2 * len(SEARCH_ORDER), solves

    def test_search_firing_on_ab_solves_no_other_product(self, solves):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        records = pair_records(rho)
        solves.clear()
        verdict = search_records(records)
        assert verdict.pair == ("A", "B")
        # the records arrive with every product: the search solves none
        assert solves[8] == 0, solves

    def test_detect_genuine_without_verdict_tries_every_pair(self, solves):
        rho = states.make_reference("GHZ")
        solves.clear()
        assert detect_genuine(rho).outcome == "not-applicable"
        # no GHZ pair is entangled, so no route is formed; the record set still
        # holds every pair's product, from one stacked solve
        assert solves[8] == len(SEARCH_ORDER), solves

    def test_search_solves_no_p_max(self, solves):
        # every (pair, plane) candidate, undetected ones included, reads K
        # alone: P_max is a 3x3 solve that only the report needs
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        records = list(pair_records(rho))
        solves.clear()
        for _, spectra in records:
            for plane in operators.PLANES:
                try:
                    _candidate_windows(spectra, operators.plane_witness(plane))
                except (NonlocalityError, BoundsError):
                    pass
        assert solves[3] == 0, solves

    def test_k_not_positive_is_skipped_before_any_solve(self, solves):
        # pair AC of this pure state is entangled and missed by the xz
        # witness with K = -0.0643: the replacement strength is undefined
        gen = np.random.default_rng(0)
        for _ in range(5):
            ket = corpus.random_pure(gen, 8)
        rho = states.validate(np.outer(ket, ket.conj()), 3)
        spectra = dict(pair_records(rho))[("A", "C")]
        solves.clear()
        with pytest.raises(WindowParameterError, match="K > 0"):
            spectra.routes(XZ)
        assert sum(solves.values()) == 0, solves


class TestRoutesCache:
    """A record evaluates each witness once, keyed by the witness's value."""

    def test_equal_witnesses_share_one_evaluation(self, solves):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        spectra = pair_spectra(rho, lemmas.example_reduced(states.FAMILY_IDENTITY_W, 0.82))
        solves.clear()
        first = spectra.routes(XY)
        assert spectra.routes(XY.copy()) is first
        # one 4x4 solve between them: the congruence rho_ij^{1/2} W rho_ij^{1/2}
        assert solves[4] == 1, solves

    def test_witness_changed_in_place_is_evaluated_again(self, solves):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        spectra = pair_spectra(rho, lemmas.example_reduced(states.FAMILY_IDENTITY_W, 0.82))
        witness = XY.copy()
        first = spectra.routes(witness)
        solves.clear()
        witness *= 0.5
        halved = spectra.routes(witness)
        assert solves[4] == 1, solves
        assert halved.strength == pytest.approx(0.5 * first.strength, rel=1e-12)
        assert halved.lower_numerator != first.lower_numerator
        assert spectra.routes(XY) is first


class TestWeightIndependence:
    """The paper states the undetected bounds through S_NL_new at a weight
    r; the certificate reads K alone. Recovering K from S_NL_new at any
    admissible r and evaluating the paper's H and F with numpy gives the
    H and F of the certificate's report."""

    @staticmethod
    def _paper_h_f(rho, reduced, pair, witness, r):
        def root(m):
            values, vectors = np.linalg.eigh(m)
            return (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T

        strength = s_nl_new(reduced, witness, r)
        k = (strength.s_nl_new - r * (strength.p_max - 0.75)) / (1.0 - r)
        rho_values = np.linalg.eigvalsh(rho.matrix)
        state_root, pair_root = root(rho.matrix), root(reduced.matrix)
        product = np.linalg.eigvalsh(state_root @ embed_pair(reduced.matrix, pair) @ state_root)
        pt = np.linalg.eigvalsh(corpus.partial_transpose(reduced.matrix))
        n = -pt[pt < 0.0].sum()
        h = product[0] - k * n * pt[-1] * rho_values[-1] / np.min(pt ** 2)
        wr_max = np.linalg.eigvalsh(pair_root @ witness @ pair_root)[-1]
        f = 4.0 * product[-1] - rho_values[0] / wr_max * (8.0 * n * k - np.sum(pt ** 2))
        return h, f

    def _assert_weight_free(self, rho, pair, witness):
        reduced = states.partial_trace(
            rho, next(label for label in states.LABELS if label not in pair))
        report = full_report(rho, BoundConfig(p=0.5, q=0.5, witness=witness,
                                              reduced_pair=pair))
        assert report.regime == "undetected"
        inter = report.intermediates
        cap = r_cap(inter["k"], inter["p_max"])
        for r in (0.0, 0.25 * cap, inter["r"], 0.9 * cap):
            h, f = self._paper_h_f(rho, reduced, pair, witness, r)
            assert inter["H"] == pytest.approx(h, abs=1e-10), r
            assert inter["F"] == pytest.approx(f, abs=1e-10), r

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
        self._assert_weight_free(rho, tuple(pair), XY)

    def test_random_pure_states(self, rng):
        checked = 0
        for _ in range(20):
            ket = corpus.random_pure(rng, 8)
            rho = states.validate(np.outer(ket, ket.conj()), 3)
            for pair in SEARCH_ORDER:
                traced = next(label for label in states.LABELS if label not in pair)
                reduced = states.partial_trace(rho, traced)
                for plane in operators.PLANES:
                    w = operators.plane_witness(plane)
                    if states.negativity(reduced) <= NEG_TOL or is_detected(reduced, w):
                        continue
                    try:
                        self._assert_weight_free(rho, pair, w)
                    except (NonlocalityError, BoundsError):
                        continue
                    checked += 1
        assert checked >= 20, checked


_NUMBERS = dict(lambda_min_rho=0.1, lambda_max_rho=0.6, lambda_max_embedded=0.5,
                lambda_k_embedded=0.2, lambda_max_pt=0.4, lambda_min_pt_squared=0.02,
                trace_pt_squared=0.3, negativity=0.1,
                lambda_min_product=0.01, lambda_max_product=0.3)


def _middle(grid: bool, number: float, changed: float):
    """changed itself, or a three-point grid holding it between two copies of number."""
    return np.array([number, changed, number]) if grid else changed


def _record(grid: bool, **changed) -> PairSpectra:
    """A listed record of _NUMBERS, the changed fields taking their value at the grid's middle."""
    values = {name: _middle(grid, number, changed.get(name, number))
              for name, number in _NUMBERS.items()}
    return PairSpectra(**values)


def _flat(values) -> list:
    return [x for v in values for x in (_flat(v) if isinstance(v, tuple) else [v])]


class TestSingularHandling:
    def test_singular_denominator_raises(self):
        # a pure product reduced pair has zero negativity, which the
        # undetected route reports before any denominator is formed
        rho = states.make_reference("product-000")
        cfg = BoundConfig(p=0.5, q=0.5, witness=XY, reduced_pair=("B", "C"))
        from svetlichny.nonlocality import NonlocalityError
        with pytest.raises((NonlocalityError, SingularDenominatorError,
                            BoundsError)):
            full_report(rho, cfg)

    @pytest.mark.parametrize("grid", [False, True], ids=["scalar", "grid"])
    @pytest.mark.parametrize("vanishing, s_nl", [
        # the S_NL at which _record's detected p-route edge 2N + lambda_max_embedded vanishes
        ("window", -(0.5 / 2.0 + 0.01) / (2.0 * 0.6)),
        ("lambda_k_embedded", 0.05),
        ("lambda_min_pt_squared", 0.05),
    ], ids=["window", "lambda_k", "pt2_min"])
    def test_vanishing_denominator_raises(self, vanishing, s_nl, grid):
        # on a grid only the middle point vanishes, and the whole evaluation raises
        record = _record(grid, **({} if vanishing == "window" else {vanishing: 0.0}))
        strength = _middle(grid, 0.05, s_nl)
        with pytest.raises(SingularDenominatorError):
            if vanishing == "lambda_min_pt_squared":
                record.undetected(strength, 0.5)
            else:
                record.window_edges(record.detected(strength))


class TestGridRecord:
    """A record whose fields are arrays over a grid evaluates each point as its own record."""

    @pytest.mark.parametrize("regime, source", [
        ("detected", "listed"), ("undetected", "listed"),
        ("detected", "solved"), ("undetected", "solved"),
    ], ids=["detected", "undetected", "detected-solved", "undetected-solved"])
    def test_grid_record_gives_the_scalar_values(self, regime, source):
        if source == "listed":
            # lambda_min_rho is zero at the last point, which like families 3 and 4
            # lists no witness maximum or Tr[(rho^T)^2] (NaN here): F's witness
            # correction applies at the other points only
            points = [reproduce._PRINTED[5](x) for x in (0.82, 0.87, 0.92)]
            points[-1].update(lambda_min_rho=0.0, lambda_max_witness_state=np.nan,
                              trace_pt_squared=np.nan)
            grid = reproduce._listed_spectra({name: np.array([qs[name] for qs in points])
                                              for name in points[0]})
            records = [reproduce._listed_spectra(qs) for qs in points]
            wr_max = np.array([qs["lambda_max_witness_state"] for qs in points])
        else:
            # grid_record's fields, products included, are build_records's rows,
            # and its witness maxima the ones each row solves on its own
            rhos = states.make_examples(states.FAMILY_IDENTITY_W, [0.82, 0.87, 0.92])
            reductions = [states.reduce_to_pair(rho, ("B", "C")) for rho in rhos]
            grid = grid_record(rhos, reductions, ("B", "C"))
            records = build_records(rhos, reductions, [("B", "C")] * 3)
            for name in _NUMBERS:
                assert getattr(grid, name).tolist() == [getattr(r, name) for r in records], name
            wr_max = grid.witness_max(XY)
            assert wr_max.tolist() == [r.witness_max(XY) for r in records]
        strengths = np.array([0.05, 0.2, 0.3])

        def evaluate(record, strength, wr):
            routes = (record.detected(strength) if regime == "detected"
                      else record.undetected(strength, wr))
            return routes[1:], record.bounds(routes, 0.9, 0.8), record.window_edges(routes)

        columns = [np.broadcast_to(c, 3) for c in _flat(evaluate(grid, strengths, wr_max))]
        for i, record in enumerate(records):
            expected = _flat(evaluate(record, float(strengths[i]), float(wr_max[i])))
            assert [float(c[i]) for c in columns] == [float(x) for x in expected], i

"""Certificate windows, the bounds at operator weights p and q, and the verdict search.

The frozen decimals were computed from the defining eigenvalue
expressions in a standalone script before this module existed; they pin
the detected route on the first worked family and the undetected route
on the fifth.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from svetlichny import bounds, cli, linalg, operators, optimize, reproduce, states
from svetlichny.bounds import (
    BoundConfig,
    BoundsError,
    PairSpectra,
    Routes,
    SingularDenominatorError,
    Window,
    _SQRT2,
    _candidate_windows,
    _window_edges,
    detect_genuine,
    embed_pair,
    full_report,
    pair_records,
    product_spectrum,
    search_records,
    stack_record,
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
from conftest import (REBUILDS, assert_checked_on_rebuild, assert_immutable, pair_root,
                      random_state, rebuild)
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
        # half-open, as _window_edges names the windows: [lower, upper)
        assert w.contains(0.2)
        assert not w.contains(0.4)

    @pytest.mark.parametrize("end", ["lower", "upper"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_end_is_rejected(self, end, value):
        # a NaN end would build an empty window, which no route could tell from a closed one
        ends = {"lower": 0.2, "upper": 0.4, end: value}
        with pytest.raises(BoundsError, match=rf"^window {end} end -?(nan|inf) is not finite$"):
            Window(**ends)

    @pytest.mark.parametrize("lower", [-np.inf, np.nan, np.array([-0.1, -np.inf])],
                             ids=["inf", "nan", "array"])
    def test_non_finite_numerator_opens_no_window(self, lower):
        # a huge witness overflows H; its edges would be NaN, with a numpy warning
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        ((_, record),) = pair_records(rho, [("B", "C")])
        with pytest.raises(BoundsError, match=r"^window numerator -?(inf|nan) is not finite$"):
            record.window_edges(Routes("undetected", 0.2, lower, 0.1))

    @pytest.mark.parametrize("lower", [-1.7e308, np.array([-0.1, -1.7e308])],
                             ids=["number", "array"])
    def test_numerator_whose_double_overflows_opens_no_window(self, lower):
        # finite, but 2N and sqrt(2) N are not: the error names the numerator,
        # before any arithmetic could warn or make a NaN edge
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        ((_, record),) = pair_records(rho, [("B", "C")])
        with pytest.raises(BoundsError, match=r"^window numerator -1\.7e\+308 is too large"):
            record.window_edges(Routes("undetected", 0.2, lower, 0.1))
        cutoff, edge = _window_edges(np.finfo(float).max / 2.0, 1.0)
        assert np.isfinite([cutoff, edge]).all()


    @pytest.mark.parametrize("lower", [-6e307, np.array([-0.1, -6e307])],
                             ids=["number", "array"])
    def test_bound_that_overflows_is_rejected(self, lower):
        # below the window limit, so the windows form, but 8 (1 - p) H / (p lambda_max)
        # overflows at p = 0.5; the upper bound is checked the same way
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        ((_, record),) = pair_records(rho, [("B", "C")])
        routes = Routes("undetected", 0.2, lower, 0.1)
        record.window_edges(routes)
        with np.errstate(over="ignore"), pytest.raises(
                BoundsError, match=r"^lower bound -inf is not finite$"):
            record.bounds(routes, 0.5, 0.5)
        with np.errstate(over="ignore"), pytest.raises(
                BoundsError, match=r"^upper bound inf is not finite$"):
            record.bounds(Routes("undetected", 0.2, -0.1, 6e307), 0.5, 1e-3)


class TestFiringRule:
    """Every route's genuine window is [cutoff, edge) = [sqrt(2) x/(sqrt(2) x + 1), 2x/(2x + 1))
    in the ratio x = N/D of its numerator to its signed denominator. It opens for x > 0 and
    stays shut for x in [-1/2, 0] and for x <= -1/sqrt(2); in the gap between, the formula
    opens a spurious window reaching below 0 and above 1, which no candidate has reached."""

    GAP = (-1.0 / np.sqrt(2.0), -0.5)

    @given(n=st.floats(-1e3, 1e3), d=st.floats(1e-3, 1e3), negative=st.booleans())
    @example(n=-0.5, d=1.0, negative=False)
    @example(n=-1.0 / np.sqrt(2.0), d=1.0, negative=False)
    @example(n=0.6, d=1.0, negative=True)
    @example(n=1.0, d=2.0, negative=False)
    @example(n=0.0, d=1.0, negative=False)
    @example(n=-1.0, d=1.0, negative=False)
    @settings(max_examples=500, deadline=None)
    def test_window_edges_open_on_the_ratio(self, n, d, negative):
        d = -d if negative else d
        if abs(2.0 * n + d) <= bounds.SINGULAR_TOL or abs(_SQRT2 * n + d) <= bounds.SINGULAR_TOL:
            with pytest.raises(SingularDenominatorError):
                _window_edges(n, d)
            return
        cutoff, edge = _window_edges(n, d)
        genuine = Window(cutoff, edge)
        x = n / d
        if 1e-8 <= x <= 1e8:
            assert not genuine.empty, (n, d)
        elif -0.5 <= x <= 0.0 or x <= self.GAP[0]:
            assert genuine.empty, (n, d)
        elif self.GAP[0] < x < self.GAP[1]:
            # no route reads this: the bound never crosses the thresholds here
            assert not genuine.empty and cutoff < 0.0 and edge > 1.0, (n, d)

    def test_the_gap_opens_a_window_around_the_unit_interval(self):
        cutoff, edge = _window_edges(-0.6, 1.0)
        assert (cutoff, edge) == pytest.approx((-5.6, 6.0), abs=0.01)

    @staticmethod
    def _sweep_states() -> list[states.DensityMatrix]:
        """282 states: placed products in all three places, biseparable mixtures and random
        states of ranks 1-8."""
        matrices = [corpus.placed(pair, single, lone)
                    for pair, single in corpus.product_factors(np.random.default_rng(1987))
                    for lone in corpus.PARTIES]
        gen = np.random.default_rng(7)
        matrices += [corpus.random_biseparable(gen) for _ in range(100)]
        gen = np.random.default_rng(13)
        matrices += [corpus.random_density(gen, 8, rank) for rank in range(1, 9) for _ in range(10)]
        return [states.validate(m, 3) for m in matrices]

    @staticmethod
    def _best_chsh_witness(record: PairSpectra) -> np.ndarray:
        """W = 2I - B_opt, from the settings maximize_chsh gives the record's reduced pair."""
        optimum = optimize.maximize_chsh(states.DensityMatrix(qubits=2, matrix=record.reduced))
        settings = operators.ChshSettings(*map(operators.spin_observable, optimum.vectors))
        return operators.chsh_witness(operators.chsh_operator(settings))

    def test_every_formed_candidate_fires_on_its_sign_and_misses_the_gap(self):
        # the three plane witnesses, and each pair's own best CHSH witness
        planes = [("plane", operators.plane_witness(plane)) for plane in operators.PLANES]
        formed, opened = Counter(), Counter()
        for rho in self._sweep_states():
            for pair, record in pair_records(rho, ORDERED_PAIRS):
                for kind, w in planes + [("best", self._best_chsh_witness(record))]:
                    try:
                        routes = record.routes(w)
                        (_, p_gen), (_, q_gen) = record.windows(routes)
                    except bounds.CANDIDATE_ERRORS:
                        continue
                    formed[kind] += 1
                    # the undetected p route fires for H < 0, against -lambda_max
                    p_sign = 1.0 if routes.regime == "detected" else -1.0
                    for numerator, denominator, genuine, sign in (
                            (routes.lower_numerator, p_sign * record.lambda_max_embedded,
                             p_gen, p_sign),
                            (routes.upper_numerator, record.lambda_k, q_gen, 1.0)):
                        ratio = numerator / denominator
                        assert not self.GAP[0] < ratio < self.GAP[1], (pair, routes)
                        if not genuine.empty:
                            opened[kind] += 1
                            assert sign * numerator > 0.0, (pair, routes)
        assert (formed["plane"], opened["plane"]) == (1813, 3624)
        assert (formed["best"], opened["best"]) == (552, 1104)


GHZ_W_06 = states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.6)

PAIR_ENTRY_POINTS = {
    "reduce_to_pair": lambda pair: states.reduce_to_pair(GHZ_W_06, pair),
    "embed_pair": lambda pair: embed_pair(np.eye(4), pair),
    "BoundConfig": lambda pair: BoundConfig(p=0.5, q=0.5, witness=XY, reduced_pair=pair),
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

    def test_no_field_of_a_config_or_a_pair_record_can_be_set_or_deleted(self):
        assert_immutable(BoundConfig(p=0.5, q=0.5, witness=XY))
        for _, record in pair_records(states.make_example(states.FAMILY_IDENTITY_W, 0.82)):
            assert_immutable(record)

    @pytest.mark.parametrize("path", REBUILDS)
    @pytest.mark.parametrize("bad, error", [
        ({"p": 1.5}, BoundsError),
        ({"q": 0.0}, BoundsError),
        ({"witness": np.eye(3)}, operators.OperatorError),
        ({"reduced_pair": ("A", "A")}, states.StateError),
    ], ids=["p", "q", "witness", "pair"])
    def test_every_rebuild_checks_as_the_constructor_does(self, path, bad, error):
        cfg = BoundConfig(p=0.5, q=0.5, witness=XY, reduced_pair=("A", "C"))
        assert_checked_on_rebuild(cfg, path, error, **bad)

    @pytest.mark.parametrize("path", REBUILDS)
    def test_a_rebuild_keeps_the_symmetrized_witness(self, path):
        # a witness Hermitian only to tolerance is stored as its Hermitian part
        skewed = XY + 1e-14j * np.triu(np.ones((4, 4)), 1)
        cfg = rebuild(BoundConfig(p=0.5, q=0.5, witness=XY), path, witness=skewed)
        assert cfg.witness.tobytes() == operators.witness_matrix(skewed).tobytes()
        assert np.array_equal(cfg.witness, cfg.witness.conj().T)


PAIRS = (("A", "B"), ("A", "C"), ("B", "C"), ("C", "A"))


class TestEmbedding:
    @pytest.mark.parametrize("pair", PAIRS, ids="".join)
    def test_embed_matches_index_oracle_for_general_operator(self, rng, pair):
        # a non-Hermitian operator with no tensor symmetry: a misplaced or
        # swapped slot changes the lift
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.abs(embed_pair(op, pair) - lemmas.lift(op, pair)).max() <= 1e-15

    @pytest.mark.parametrize("pair", PAIRS[:3], ids="".join)
    def test_product_spectrum_matches_raw_product(self, rng, pair):
        # the raw product rho (I x rho_ij) is not Hermitian; its eigenvalues
        # must still be the spectrum product_spectrum reports
        for _ in range(5):
            rho = random_state(rng, 3)
            reduced = random_state(rng, 2)
            raw = np.linalg.eigvals(rho.matrix @ lemmas.lift(reduced.matrix, pair))
            assert np.abs(raw.imag).max() <= 1e-12
            spec = product_spectrum([rho], pair_root(reduced)[None], [pair])[0]
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
        raw = np.linalg.eigvals(rho.matrix @ lemmas.lift(reduced.matrix, pair))
        spec = product_spectrum([rho], pair_root(reduced)[None], [pair])[0]
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
            assert np.array_equal(embed_pair(op, pair), lemmas.lift(op, pair))

    def test_mixed_pair_stack_lifts_each_member_on_its_own(self, rng):
        # one gather, each member through its own pair's table
        pairs = list(permutations(states.LABELS, 2)) * 3
        ops = rng.normal(size=(len(pairs), 4, 4)) + 1j * rng.normal(size=(len(pairs), 4, 4))
        lifted = embed_pair(ops, pairs)
        assert lifted.shape == (len(pairs), 8, 8)
        for op, pair, lift in zip(ops, pairs, lifted):
            assert lift.tobytes() == embed_pair(op, pair).tobytes()
            assert np.array_equal(lift, lemmas.lift(op, pair))  # kron's zeros carry signs

    def test_lift_is_the_adjoint_of_the_marginal(self, rng):
        # Re Tr[embed_pair(X) rho] = Re Tr[X rho_ij]: the lift writes each entry where
        # marginals reads its terms, on every ordered pair and on a stack that mixes them
        def pairing(a, b):
            return np.trace(a @ b).real

        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        op, rho = draw(4, 4), draw(8, 8)
        for pair in ORDERED_PAIRS:
            want = pairing(op, states.marginals(rho, [pair])[0])
            assert pairing(embed_pair(op, pair), rho) == pytest.approx(want, rel=1e-15), pair
        ops, rhos = draw(len(ORDERED_PAIRS), 4, 4), draw(len(ORDERED_PAIRS), 8, 8)
        for op, lift, rho, marginal in zip(ops, embed_pair(ops, ORDERED_PAIRS), rhos,
                                           states.marginals(rhos, ORDERED_PAIRS)):
            assert pairing(lift, rho) == pytest.approx(pairing(op, marginal), rel=1e-15)

    def test_a_stack_takes_one_pair_per_member(self):
        with pytest.raises(states.StateError, match="2 pairs for 3 pair operators"):
            embed_pair(np.zeros((3, 4, 4)), [("A", "B"), ("B", "C")])
        assert embed_pair(np.zeros((0, 4, 4)), []).shape == (0, 8, 8)

    def test_product_spectrum_is_real_and_psd_shaped(self, rng):
        rho = random_state(rng, 3)
        reduced = states.partial_trace(rho, "A")
        spec = product_spectrum([rho], pair_root(reduced)[None], [("B", "C")])[0]
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
                assert np.abs(record.reduced - want).max() <= 1e-15, pair

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
        roots = pair_root(list(reductions))
        stacked = product_spectrum(rhos, roots, pairs)
        singles = [product_spectrum([rho], root[None], [pair])[0]
                   for rho, root, pair in zip(rhos, roots, pairs)]
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
        # states of every rank, each on all six ordered pairs, interleaved in one stack
        rhos = [states.validate(corpus.random_density(rng, 8, rank), 3) for rank in range(1, 9)]
        members = [(rho, pair) for rho in rhos for pair in ORDERED_PAIRS]
        self._assert_stack_is_each_single_call(
            [rho for rho, _ in members],
            [states.reduce_to_pair(rho, pair) for rho, pair in members],
            [pair for _, pair in members])

    def test_records_reduce_and_lift_their_pairs_in_one_gather_each(self, monkeypatch, rng):
        calls = {"marginals": 0, "embed_pair": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(bounds, "marginals", counting("marginals", states.marginals))
        monkeypatch.setattr(bounds, "embed_pair", counting("embed_pair", bounds.embed_pair))
        for rank in (1, 3, 8):
            rho = states.validate(corpus.random_density(rng, 8, rank), 3)
            for pairs in (bounds.SEARCH_ORDER, ORDERED_PAIRS):
                calls.update(marginals=0, embed_pair=0)
                records = pair_records(rho, pairs)
                assert calls == {"marginals": 1, "embed_pair": 1}
                for (pair, record), reduced in zip(records, states.marginals(
                        np.array([rho.matrix] * len(pairs)), pairs)):
                    assert record.reduced.tobytes() == reduced.tobytes()
                    assert record.reduced.tobytes() == states.reduce_to_pair(
                        rho, pair).matrix.tobytes()

    def test_records_build_one_index_for_their_reduction_and_lift(self):
        # states holds the one index: the lift reads the one the reduction built
        rho = states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.6)
        states._stack_index.cache_clear()
        pair_records(rho, bounds.SEARCH_ORDER)
        info = states._stack_index.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_a_grid_on_one_pair_checks_its_pair_as_often_as_a_grid_of_one(self, monkeypatch):
        # no per-member loop: the gathers' indices are built per distinct pair
        checked = []

        def counted(pair):
            checked.append(pair)
            return pair_positions(pair)

        pair_positions = states.pair_positions
        monkeypatch.setattr(states, "pair_positions", counted)
        pair = states.EXAMPLE_PAIRS[states.FAMILY_GHZ_W_CONVEX]
        counts = []
        for members in (1, 50):
            states._stack_index.cache_clear()
            checked.clear()
            rhos = states.make_examples(states.FAMILY_GHZ_W_CONVEX,
                                        np.linspace(0.4, 0.9, members))
            reductions = states.reduce_to_pairs(rhos, pair)
            stack_record(rhos, np.array([r.matrix for r in reductions]), [pair] * members)
            counts.append(len(checked))
        assert counts[0] == counts[1] <= 3

    @pytest.mark.parametrize("rank", range(1, 9))
    def test_extremes_match_the_raw_product_on_random_states(self, rng, rank):
        # the congruence of the pair's 4x4 root against the eigenvalues of
        # the non-Hermitian product rho (I x rho_ij), on every ordered pair
        for _ in range(3):
            rho = states.validate(corpus.random_density(rng, 8, rank), 3)
            reductions = [states.reduce_to_pair(rho, pair) for pair in ORDERED_PAIRS]
            spectra = product_spectrum([rho] * len(ORDERED_PAIRS), pair_root(reductions),
                                       ORDERED_PAIRS)
            for pair, reduced, spectrum in zip(ORDERED_PAIRS, reductions, spectra):
                want = lemmas.product_extremes(rho, reduced, pair)
                assert np.abs(np.array(want) - spectrum[[0, -1]]).max() <= 1e-12, (rank, pair)

    @pytest.mark.parametrize("family", states.FAMILIES)
    def test_extremes_match_the_raw_product_on_a_family_grid(self, family):
        index = states.FAMILIES.index(family) + 1
        grid = np.linspace(*reproduce.CLOSED_FORM_RANGES[index], reproduce.GRID_POINTS)
        rhos = states.make_examples(family, grid)
        reductions = states.example_reductions(family, grid)
        pair = states.EXAMPLE_PAIRS[family]
        spectra = product_spectrum(rhos, pair_root(reductions), [pair] * len(rhos))
        for x, rho, reduced, spectrum in zip(grid, rhos, reductions, spectra):
            want = lemmas.product_extremes(rho, reduced, pair)
            assert np.abs(np.array(want) - spectrum[[0, -1]]).max() <= 1e-12, x

    def test_record_products_are_their_product_spectrum(self, rng):
        for rank in (*range(1, 9), *range(1, 9)):
            rho = states.validate(corpus.random_density(rng, 8, rank), 3)
            for pair, record in pair_records(rho, ORDERED_PAIRS):
                spectrum = product_spectrum([rho], record.reduced_root[None], [pair])[0]
                assert (record.lambda_min_product, record.lambda_max_product) == (
                    spectrum[0], spectrum[-1]), (rank, pair)


class TestPairings:
    """Every record keeps its reduced pair and rho_ij rho_ij^T from one stacked partial
    transpose, and reads both witness pairings off them: a grid record gives each
    point's pairings bit for bit, and the search forms no partial transpose."""

    WITNESSES = [operators.plane_witness(plane) for plane in operators.PLANES]

    def _assert_grid_is_each_point(self, rhos, reductions, pair, witnesses):
        grid = stack_record(rhos, np.array([r.matrix for r in reductions]), [pair] * len(rhos))
        points = [stack_record([rho], reduced.matrix[None], [pair]).points()[0]
                  for rho, reduced in zip(rhos, reductions)]
        for w in witnesses:
            for column, values in zip(grid.pairings(w), zip(*(p.pairings(w) for p in points))):
                assert column.tobytes() == np.array(values).tobytes()

    @pytest.mark.parametrize("family", states.FAMILIES)
    def test_grid_pairings_are_each_points_on_a_family_grid(self, family):
        index = states.FAMILIES.index(family) + 1
        grid = np.linspace(*reproduce.CLOSED_FORM_RANGES[index], reproduce.GRID_POINTS)
        self._assert_grid_is_each_point(
            states.make_examples(family, grid), states.example_reductions(family, grid),
            states.EXAMPLE_PAIRS[family], self.WITNESSES + [reproduce._family_witness(index)])

    @pytest.mark.parametrize("pair", ORDERED_PAIRS, ids="".join)
    def test_grid_pairings_are_each_points_on_random_states(self, rng, pair):
        rhos = [states.validate(corpus.random_density(rng, 8, rank), 3)
                for rank in range(1, 9) for _ in range(3)]
        self._assert_grid_is_each_point(rhos, states.reduce_to_pairs(rhos, pair), pair,
                                        self.WITNESSES)

    def test_pairings_are_the_single_state_pairings(self, rng):
        for rank in (*range(1, 9), *range(1, 9)):
            rho = states.validate(corpus.random_density(rng, 8, rank), 3)
            for pair, record in pair_records(rho, ORDERED_PAIRS):
                reduced = states.reduce_to_pair(rho, pair)
                product = reduced.matrix @ states.partial_transpose(reduced)
                for w in self.WITNESSES:
                    assert tuple(map(float, record.pairings(w))) == (
                        linalg.trace_product(w, reduced.matrix),
                        linalg.trace_product(w, product)), (rank, pair)

    def test_transposes_are_formed_once_per_record_set(self, monkeypatch, rng):
        calls, undetected = [], []

        def counting(fn, log):
            def counted(*args, **kwargs):
                log.append(1)
                return fn(*args, **kwargs)
            return counted

        for module in (bounds, states):
            monkeypatch.setattr(module, "partial_transposes",
                                counting(states.partial_transposes, calls))
        monkeypatch.setattr(bounds, "positive_k", counting(bounds.positive_k, undetected))
        rhos = [states.make_example(states.FAMILY_IDENTITY_W, 0.82)] + [
            states.validate(corpus.random_density(rng, 8, rank), 3) for rank in (1, 2, 3)]
        for rho in rhos:
            calls.clear()
            records = pair_records(rho)
            assert len(calls) == 1
            search_records(records)
            assert len(calls) == 1
        # the searches reached undetected candidates, which read K
        assert undetected


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
        ((_, spectra),) = pair_records(rho, [("A", "C")])
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
        ((_, spectra),) = pair_records(rho, [("B", "C")])
        routes = spectra.undetected(strength.k, spectra.witness_max(XY))
        lower, upper = spectra.bounds(routes, 1.0, 1.0)
        assert lower == 0.0
        assert upper == 0.0

    def test_genuine_p_window_tracks_h_sign(self):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        reduced = lemmas.example_reduced(states.FAMILY_IDENTITY_W, 0.82)
        strength = s_nl_new(reduced, XY, 0.0)
        ((_, spectra),) = pair_records(rho, [("B", "C")])
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
    (no eigenvector of it is read), and the products of every
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


class TestPrintedNumbers:
    """The report's d1+-, d2+-, G and detected admissible p window end against
    lemmas.report_numbers, on family points of both regimes and random states.
    The paper's p window end is never below 1, so the report closes the window
    at 1, the end of p's domain."""

    # (family, parameter, pair, witness plane, witness scale); a scaled witness
    # raises S_NL until the paper's detected admissible p window end is finite
    FAMILY_CASES = [
        (states.FAMILY_PURE_W1, 0.92, "AC", "xz", 1.0),
        (states.FAMILY_PURE_W1, 0.65, "AB", "xz", 4.0),
        (states.FAMILY_MAXIMAL_SLICE, 0.1, "AB", "xz", 4.0),
        (states.FAMILY_MAXIMAL_SLICE, 0.567, "AB", "xz", 4.0),
        (states.FAMILY_MAXIMAL_SLICE, 1.2, "AB", "xy", 1.0),
        (states.FAMILY_GHZ_W_CONVEX, 0.5, "BC", "xy", 1.0),
        (states.FAMILY_IDENTITY_W, 0.82, "BC", "xy", 1.0),
        (states.FAMILY_IDENTITY_W, 0.92, "AC", "xy", 2.0),
    ]

    @staticmethod
    def _assert_printed(report, oracle):
        assert report.regime == oracle["regime"]
        inter = report.intermediates
        if report.regime == "detected":
            for name in ("d1_plus", "d1_minus", "d2_plus", "d2_minus"):
                assert inter[name] == pytest.approx(oracle[name], rel=1e-9, abs=1e-12), name
            assert oracle["p_upper"] >= 1.0
            assert report.p_window.upper == min(oracle["p_upper"], 1.0)
        else:
            assert inter["G"] == pytest.approx(oracle["G"], rel=1e-8)

    def test_family_points(self):
        closing = Counter()
        for family, param, pair, plane, scale in self.FAMILY_CASES:
            rho = states.make_example(family, param)
            witness = scale * operators.plane_witness(plane)
            report = full_report(rho, BoundConfig(p=0.5, q=0.5, witness=witness,
                                                  reduced_pair=tuple(pair)))
            oracle = lemmas.report_numbers(rho, tuple(pair), witness, 0.5)
            self._assert_printed(report, oracle)
            closing[report.regime, oracle.get("p_upper", 1.0) != 1.0] += 1
        assert closing == {("detected", False): 2, ("detected", True): 2,
                           ("undetected", False): 4}

    def test_random_states(self, rng):
        checked = Counter()
        for rank in (*range(1, 9), *range(1, 9)):
            rho = states.validate(corpus.random_density(rng, 8, rank), 3)
            for pair in (("A", "B"), ("A", "C"), ("B", "C")):
                try:
                    report = full_report(rho, BoundConfig(p=0.3, q=0.5, witness=XY,
                                                          reduced_pair=pair))
                except bounds.CANDIDATE_ERRORS:
                    continue
                self._assert_printed(report, lemmas.report_numbers(rho, pair, XY, 0.3))
                checked[report.regime] += 1
        assert checked["undetected"] >= 8

    def test_cli_json_prints_them(self, tmp_path, capsys):
        path = tmp_path / "w.mat"
        witness = 4.0 * XZ
        path.write_text(cli.format_matrix_text(witness))
        for family, param in ((states.FAMILY_MAXIMAL_SLICE, "0.1"),
                              (states.FAMILY_IDENTITY_W, "0.92")):
            assert cli.main(["analyze", "--family", family, "--param", param, "--pair", "AB",
                             "--witness", str(path), "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)["report"]
            rho = states.make_example(family, float(param))
            oracle = lemmas.report_numbers(rho, ("A", "B"), witness, report["p"])
            assert report["regime"] == oracle["regime"]
            inter = report["intermediates"]
            if oracle["regime"] == "detected":
                assert oracle["p_upper"] > 1.0  # so the printed end is the cut at 1
                assert report["p_window"]["upper"] == min(oracle["p_upper"], 1.0)
                for name in ("d1_plus", "d1_minus", "d2_plus", "d2_minus"):
                    assert inter[name] == pytest.approx(oracle[name], rel=1e-9), name
            else:
                assert inter["G"] == pytest.approx(oracle["G"], rel=1e-8)


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
            # a stack record's fields, products included, are each state's own record's,
            # and its witness maxima the ones each record solves on its own
            rhos = states.make_examples(states.FAMILY_IDENTITY_W, [0.82, 0.87, 0.92])
            reductions = states.marginals(np.array([rho.matrix for rho in rhos]),
                                          [("B", "C")] * 3)
            grid = stack_record(rhos, reductions, [("B", "C")] * 3)
            records = [pair_records(rho, [("B", "C")])[0][1] for rho in rhos]
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

    def test_a_stack_of_states_and_pairs_cuts_into_each_states_records(self, rng):
        # two states times the search's pairs, reduced in one gather: each point of the one
        # record is, bit for bit, the record its own state's pair_records builds
        rhos = [states.validate(corpus.random_density(rng, 8, rank), 3) for rank in (2, 8)]
        members = [(rho, pair) for rho in rhos for pair in bounds.SEARCH_ORDER]
        pairs = [pair for _, pair in members]
        reductions = states.marginals(np.array([rho.matrix for rho, _ in members]), pairs)
        points = stack_record([rho for rho, _ in members], reductions, pairs).points()
        expected = [record for rho in rhos for _, record in pair_records(rho)]
        assert len(points) == len(expected) == 6
        for i, (point, record) in enumerate(zip(points, expected)):
            for name in PairSpectra._fields:
                got, want = getattr(point, name), getattr(record, name)
                if isinstance(want, np.ndarray):
                    assert got.tobytes() == want.tobytes(), (i, name)
                else:
                    assert type(got) is float and got == want, (i, name)

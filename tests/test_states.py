"""State construction, reductions, and negativity against index oracles.

partial_trace and partial_transpose are checked against the
index-summation oracles of tests/corpus.py, written independently of the
library code, so a bug in the reshaping logic cannot hide in both places.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svetlichny import linalg, states
from conftest import random_state
import corpus
import lemmas


class TestValidate:
    def test_accepts_proper_density_matrix(self, rng):
        rho = states.validate(corpus.random_density(rng, 8), 3)
        assert rho.qubits == 3
        assert rho.dim == 8

    def test_keeps_the_eigensystem_it_solved(self, rng, solves):
        matrix = corpus.random_density(rng, 8)
        solves.clear()
        rho = states.validate(matrix, 3)
        values, vectors = rho.eigensystem
        assert solves[8] == 1, solves
        assert np.array_equal(values, np.linalg.eigh(rho.matrix)[0])
        assert np.allclose((vectors * values) @ vectors.conj().T, rho.matrix, atol=1e-14)
        # a cached solve is not part of the state's value
        assert rho == states.DensityMatrix(qubits=3, matrix=rho.matrix)
        assert "eigensystem" not in repr(rho)

    def test_rejects_non_unit_trace(self):
        with pytest.raises(states.StateError):
            states.validate(np.eye(8), 3)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(states.StateError):
            states.validate(m, 2)

    def test_rejects_wrong_dimension(self, rng):
        with pytest.raises(states.StateError):
            states.validate(corpus.random_density(rng, 4), 3)


class TestValidateStack:
    """A (k, d, d) stack passes the same gates as its members, one by one."""

    @staticmethod
    def _error(candidate, qubits):
        with pytest.raises(states.InvalidStateError) as excinfo:
            states.validate(candidate, qubits)
        return excinfo.value

    @staticmethod
    def _bad(reason, rng):
        m = corpus.random_density(rng, 8)
        if reason == "not-hermitian":
            m[0, 1] += 1e-6
        elif reason == "trace-not-one":
            m *= 1.0 + 1e-8
        else:
            # a negative diagonal entry, with the trace kept at one
            m[0, 0] -= 1.6
            m += 0.2 * np.eye(8)
        return m

    @pytest.mark.parametrize("reason", ("not-hermitian", "trace-not-one", "not-psd"))
    @pytest.mark.parametrize("position", (0, 2, 4))
    def test_one_bad_member_raises_its_own_error(self, rng, reason, position):
        bad = self._bad(reason, rng)
        alone = self._error(bad, 3)
        assert alone.reason == reason
        stack = [corpus.random_density(rng, 8) for _ in range(5)]
        stack[position] = bad
        stacked = self._error(np.array(stack), 3)
        assert type(stacked) is type(alone)
        assert (stacked.reason, str(stacked)) == (alone.reason, str(alone))

    @pytest.mark.parametrize("reason", ("not-hermitian", "trace-not-one", "not-psd"))
    def test_single_matrix_is_a_stack_of_one(self, rng, reason):
        bad = self._bad(reason, rng)
        assert str(self._error(bad, 3)) == str(self._error(bad[None], 3))
        good = corpus.random_density(rng, 8)
        (member,) = states.validate(good[None], 3)
        single = states.validate(good, 3)
        assert member.qubits == single.qubits
        assert np.array_equal(member.matrix, single.matrix)
        for got, want in zip(member.eigensystem, single.eigensystem):
            assert np.array_equal(got, want)

    def test_dimension_errors_name_the_member_shape(self, rng):
        assert str(self._error(corpus.random_density(rng, 4), 3)) == (
            "bad-dimension: expected 8x8, got (4, 4)")
        assert str(self._error(np.zeros(8), 3)) == "bad-dimension: expected 8x8, got (8,)"
        assert str(self._error(np.zeros((2, 4, 4)), 3)) == (
            "bad-dimension: expected 8x8, got (4, 4)")

    def test_members_match_single_validation_bit_for_bit(self, rng, solves):
        stack = np.array([corpus.random_density(rng, 8) for _ in range(6)])
        solves.clear()
        members = states.validate(stack, 3)
        assert dict(solves) == {8: 6}
        assert len(members) == 6
        for matrix, member in zip(stack, members):
            single = states.validate(matrix, 3)
            assert np.array_equal(member.matrix, single.matrix)
            for got, want in zip(member.eigensystem, single.eigensystem):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("family", states.FAMILIES)
    def test_family_grid_members_match_single_builds(self, family):
        lo, hi = states.FAMILY_RANGES[family]
        grid = np.linspace(lo, hi, 9)[1:-1].tolist()
        for build, builds in ((states.make_example, states.make_examples),
                              (lemmas.example_reduced, states.example_reductions)):
            if family == states.FAMILY_MAXIMAL_SLICE and build is lemmas.example_reduced:
                grid = [x for x in grid if x >= np.pi / 3]
            for param, member in zip(grid, builds(family, grid), strict=True):
                single = build(family, param)
                assert np.array_equal(member.matrix, single.matrix), (family, param)
                for got, want in zip(member.eigensystem, single.eigensystem):
                    assert np.array_equal(got, want), (family, param)

    @pytest.mark.parametrize("family", states.FAMILIES)
    @pytest.mark.parametrize("position", (0, 3, 6))
    def test_out_of_range_parameter_anywhere_in_a_grid_raises(self, family, position):
        lo, hi = states.FAMILY_RANGES[family]
        grid = np.linspace(lo, hi, 9)[1:-1].tolist()
        grid[position] = hi + 0.1
        with pytest.raises(states.ParameterRangeError):
            states.make_examples(family, grid)
        with pytest.raises(states.ParameterRangeError):
            states.example_reductions(family, grid)


class TestValidateGatesOnce:
    """validate symmetrizes its input once and hands the symmetrized stack to the
    kernel's LAPACK step, which keeps the size cap and the solver-failure mapping."""

    @pytest.fixture
    def symmetrized(self, monkeypatch):
        calls = []
        symmetrize = linalg.symmetrize

        def counted(m):
            calls.append(np.shape(m))
            return symmetrize(m)

        monkeypatch.setattr(linalg, "symmetrize", counted)
        return calls

    @pytest.mark.parametrize("members", (None, 1, 5), ids=("single", "stack-1", "stack-5"))
    def test_symmetrizes_once_and_keeps_the_eigh_bits(self, rng, symmetrized, members):
        if members is None:
            candidate = corpus.random_density(rng, 8)
            rhos = [states.validate(candidate, 3)]
        else:
            candidate = np.array([corpus.random_density(rng, 8) for _ in range(members)])
            rhos = states.validate(candidate, 3)
        assert symmetrized == [(1, 8, 8) if members is None else (members, 8, 8)]
        for rho in rhos:
            values, vectors = rho.eigensystem
            want_values, want_vectors = np.linalg.eigh(rho.matrix)
            assert np.array_equal(values, want_values)
            assert np.array_equal(vectors, want_vectors)

    def test_solver_failure_is_no_convergence(self, rng, monkeypatch):
        def fail(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(linalg.NoConvergenceError):
            states.validate(corpus.random_density(rng, 8), 3)
        with pytest.raises(linalg.NoConvergenceError):
            states.validate(np.array([corpus.random_density(rng, 8)] * 2), 3)

    def test_four_qubits_exceed_the_kernel(self, rng):
        with pytest.raises(linalg.DimensionMismatchError) as excinfo:
            states.validate(corpus.random_density(rng, 16), 4)
        assert str(excinfo.value) == f"kernel handles dimensions <= {linalg.MAX_DIM}, got 16"


class TestPartialTrace:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           traced=st.sampled_from(states.LABELS))
    def test_matches_index_oracle(self, seed, traced):
        gen = np.random.default_rng(seed)
        rho = states.validate(corpus.random_density(gen, 8), 3)
        reduced = states.partial_trace(rho, traced)
        expected = corpus.marginal(rho.matrix, corpus.PARTIES.replace(traced, ""))
        assert np.abs(reduced.matrix - expected).max() <= 1e-13

    def test_reduced_state_is_valid(self, rng):
        rho = random_state(rng, 3)
        for label in states.LABELS:
            reduced = states.partial_trace(rho, label)
            assert reduced.qubits == 2
            assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_tolerated_negative_eigenvalues_survive_reduction(self):
        # -0.9e-9 twice passes validation; tracing out C adds the two into
        # one -1.8e-9 diagonal entry, which a second check would reject
        m = np.diag([1 + 1.8e-9, 0, 0, 0, 0, 0, -0.9e-9, -0.9e-9]).astype(complex)
        rho = states.validate(m, 3)
        reduced = states.partial_trace(rho, "C")
        assert reduced.qubits == 2
        assert reduced.matrix[3, 3] == pytest.approx(-1.8e-9, abs=1e-15)

    def test_product_state_reduces_to_factor(self):
        rho = states.make_reference("product-000")
        reduced = states.partial_trace(rho, "A")
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(reduced.matrix, expected, atol=1e-14)


class TestPartialTranspose:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_index_oracle(self, seed):
        gen = np.random.default_rng(seed)
        rho = states.validate(corpus.random_density(gen, 4), 2)
        out = states.partial_transpose(rho)
        expected = corpus.partial_transpose(rho.matrix)
        assert np.abs(out - expected).max() <= 1e-13

    def test_involution(self, rng):
        rho = random_state(rng, 2)
        once = states.partial_transpose(rho)
        twice = corpus.partial_transpose(once)
        assert np.allclose(twice, rho.matrix, atol=1e-14)

    def test_preserves_trace_and_hermiticity(self, rng):
        rho = random_state(rng, 2)
        out = states.partial_transpose(rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out, out.conj().T, atol=1e-13)


class TestStackedReductions:
    """reduce_to_pairs and partial_transposes are the one kernel each: the
    single-state functions are the same code on a stack of one."""

    @pytest.mark.parametrize("members", (1, 50))
    @pytest.mark.parametrize("pair", list(itertools.permutations(states.LABELS, 2)), ids="".join)
    def test_stack_gives_the_bits_of_single_calls_and_the_oracle(self, rng, pair, members):
        rhos = states.validate(
            np.array([corpus.random_density(rng, 8, rank=1 + i % 8) for i in range(members)]), 3)
        reductions = states.reduce_to_pairs(rhos, pair)
        transposes = states.partial_transposes([reduced.matrix for reduced in reductions])
        assert len(reductions) == members and transposes.shape == (members, 4, 4)
        for rho, reduced, transposed in zip(rhos, reductions, transposes):
            assert reduced.qubits == 2
            marginal = reduced.matrix.tobytes()
            assert marginal == states.reduce_to_pair(rho, pair).matrix.tobytes()
            assert marginal == corpus.marginal(rho.matrix, pair).tobytes()
            assert transposed.tobytes() == states.partial_transpose(reduced).tobytes()
            assert transposed.tobytes() == corpus.partial_transpose(reduced.matrix).tobytes()

    def test_wrong_qubit_count_is_rejected(self, rng):
        two, three = random_state(rng, 2), random_state(rng, 3)
        for reduce in (lambda: states.reduce_to_pairs([two, two], ("A", "B")),
                       lambda: states.reduce_to_pair(two, ("A", "B")),
                       lambda: states.partial_trace(two, "A")):
            with pytest.raises(states.InvalidStateError, match="partial_trace expects a 3-qubit"):
                reduce()
        for transpose in (lambda: states.partial_transposes([three.matrix] * 2),
                          lambda: states.partial_transpose(three)):
            with pytest.raises(states.InvalidStateError,
                               match="partial_transpose expects a 2-qubit"):
                transpose()

    def test_transpose_commutes_with_the_hermiticity_gate(self, rng):
        # bounds gates the reductions and transposes the gated stack
        stack = np.array([corpus.random_density(rng, 4) for _ in range(6)])
        noisy = stack + 1e-12 * (rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape))
        assert (states.partial_transposes(linalg.symmetrize(noisy)).tobytes()
                == linalg.symmetrize(states.partial_transposes(noisy)).tobytes())
        noisy[3, 0, 2] += 1e-6
        messages = set()
        for candidate in (noisy, states.partial_transposes(noisy)):
            with pytest.raises(linalg.NotHermitianError) as caught:
                linalg.symmetrize(candidate)
            messages.add(str(caught.value))
        assert len(messages) == 1

    def test_empty_stacks_give_empty_results(self):
        assert states.reduce_to_pairs([], ("A", "B")) == []
        assert states.partial_transposes(np.zeros((0, 4, 4))).shape == (0, 4, 4)


class TestNegativity:
    def test_bell_state_is_half(self):
        rho = states.make_reference("Bell-Phi+")
        assert states.negativity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_separable_mixtures_have_zero(self, rng):
        for _ in range(50):
            rho = states.validate(corpus.random_product_two_qubit(rng), 2)
            assert states.negativity(rho) <= 1e-12

    def test_transpose_side_is_irrelevant(self, rng):
        # negativity transposes the second qubit; the first-qubit transpose
        # has the same spectrum (pure states, so the pair is entangled)
        for _ in range(20):
            ket = corpus.random_pure(rng, 4)
            rho = states.validate(np.outer(ket, ket.conj()), 2)
            first_pt = rho.matrix.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
            first = np.linalg.eigvalsh(first_pt)
            first_negativity = -first[first < 0.0].sum()
            assert first_negativity > 1e-3
            assert states.negativity(rho) == pytest.approx(first_negativity, abs=1e-12)


class TestPartialTransposeNumbers:
    def test_stack_gives_each_row_its_own_numbers(self, rng):
        spectra = np.array([linalg.hermitian_eigenvalues(states.partial_transpose(
            random_state(rng, 2))) for _ in range(5)])
        columns = states.partial_transpose_numbers(spectra)
        assert all(isinstance(c, np.ndarray) and c.shape == (5,) for c in columns)
        rows = [states.partial_transpose_numbers(row) for row in spectra]
        assert list(zip(*(c.tolist() for c in columns))) == rows

    def test_ppt_row_has_positive_zero_negativity(self):
        # -0.0 would print as "-0.0" in a JSON report
        n = states.partial_transpose_numbers(np.array([[-0.5, 0.0, 0.5, 1.0],
                                                       [0.0, 0.1, 0.4, 0.5]]))[0]
        assert n.tolist() == [0.5, 0.0]
        assert math.copysign(1.0, n[1]) == 1.0
        assert math.copysign(1.0, states.partial_transpose_numbers([0.0, 0.1, 0.4, 0.5])[0]) == 1.0


class TestExampleFamilies:
    def test_all_families_produce_valid_states(self):
        for family in states.FAMILIES:
            lo, hi = states.FAMILY_RANGES[family]
            param = 0.5 * (lo + hi)
            rho = states.make_example(family, param)
            assert rho.qubits == 3

    def test_out_of_range_parameter_rejected(self):
        with pytest.raises(states.StateError):
            states.make_example(states.FAMILY_PURE_W1, 0.99)
        with pytest.raises(states.StateError):
            states.make_example(states.FAMILY_MIXED_GHZ_2W, 0.81)

    @pytest.mark.parametrize("family, param, message", [
        (states.FAMILY_PURE_W1, -0.1,
         "pure-W-class-1 parameter -0.1 outside validity range [0.0, 0.953939]"),
        (states.FAMILY_IDENTITY_W, 0.816,
         "identity-W parameter 0.816 outside validity range (0.816, 1.0]"),
        (states.FAMILY_MAXIMAL_SLICE, 0.0,
         "maximal-slice parameter 0.0 outside validity range (0.0, 1.5707963267948966)"),
    ], ids=["closed", "open-left", "open"])
    def test_range_error_shows_each_end_as_accepted(self, family, param, message):
        with pytest.raises(states.ParameterRangeError) as caught:
            states.make_example(family, param)
        assert str(caught.value) == message

    def test_grid_range_error_reads_as_the_single_builds(self):
        with pytest.raises(states.ParameterRangeError) as single:
            states.make_example(states.FAMILY_PURE_W1, 2.0)
        with pytest.raises(states.ParameterRangeError) as grid:
            states.make_examples(states.FAMILY_PURE_W1, np.array([0.5, 2.0]))
        assert str(grid.value) == str(single.value) == (
            "pure-W-class-1 parameter 2.0 outside validity range [0.0, 0.953939]")

    def test_unknown_family_rejected(self):
        with pytest.raises(states.StateError):
            states.make_example("no-such-family", 0.5)

    def test_pure_w_class_amplitudes(self):
        lam = 0.92
        rho = states.make_example(states.FAMILY_PURE_W1, lam)
        m = rho.matrix
        assert m[0, 0].real == pytest.approx(lam * lam, abs=1e-12)
        assert m[5, 5].real == pytest.approx(0.09, abs=1e-12)
        assert m[6, 6].real == pytest.approx(0.91 - lam * lam, abs=1e-12)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)

    def test_identity_w_mixes_toward_identity(self):
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.99)
        w = states.make_reference("W")
        assert np.abs(rho.matrix - w.matrix).max() <= 0.02


class TestDesignatedReduction:
    def test_maximal_slice_uses_designated_matrix(self):
        theta = 1.2
        reduced = lemmas.example_reduced(states.FAMILY_MAXIMAL_SLICE, theta)
        m = reduced.matrix
        assert m[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert m[3, 3].real == pytest.approx(0.5, abs=1e-12)
        assert m[0, 3].real == pytest.approx(np.cos(theta), abs=1e-12)
        assert m[1, 1].real == pytest.approx(0.0, abs=1e-12)

    def test_other_families_match_true_partial_trace(self):
        rho = states.make_example(states.FAMILY_GHZ_W_CONVEX, 0.6)
        reduced = lemmas.example_reduced(states.FAMILY_GHZ_W_CONVEX, 0.6)
        traced = states.partial_trace(rho, "A")
        assert np.allclose(reduced.matrix, traced.matrix, atol=1e-13)


class TestReferences:
    def test_ghz_marginals_are_separable(self):
        rho = states.make_reference("GHZ")
        for label in states.LABELS:
            reduced = states.partial_trace(rho, label)
            assert states.negativity(reduced) <= 1e-12

    def test_w_marginals_are_entangled(self):
        rho = states.make_reference("W")
        for label in states.LABELS:
            reduced = states.partial_trace(rho, label)
            assert states.negativity(reduced) > 0.2

    def test_unknown_reference_rejected(self):
        # make_reference accepts exactly REFERENCE_NAMES, one spelling each
        for name in ("nope", "Bell-Φ+"):
            with pytest.raises(states.StateError):
                states.make_reference(name)

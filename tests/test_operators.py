"""Observable and Bell-operator construction checks.

Includes the frozen witness traces used by the worked examples, so any
drift in sign conventions or plane definitions is caught immediately.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from svetlichny import operators, states
from svetlichny.linalg import LinalgError, NotHermitianError, hermitian_eigenvalues, trace_product
from conftest import REBUILDS, assert_checked_on_rebuild, assert_immutable, random_state, rebuild
import corpus


def _unit(rng):
    v = rng.normal(size=3)
    return operators.UnitVector3.from_array(v / np.linalg.norm(v))


class TestCorrelationMatrix:
    """T against the textbook entries t[m,n,...] = Tr[rho sigma_m (x) sigma_n (x) ...]."""

    def test_matches_textbook_entries_on_random_states(self, rng):
        for _ in range(50):
            rho = random_state(rng, 2)
            t = operators.correlation_tensor(rho)
            assert t.shape == (3, 3) and t.dtype == np.float64
            assert np.allclose(t, corpus.correlation_tensor(rho.matrix), atol=1e-14, rtol=0.0)

    def test_three_qubit_tensor_matches_textbook_entries(self, rng):
        for _ in range(20):
            rho = random_state(rng, 3)
            t = operators.correlation_tensor(rho)
            assert t.shape == (3, 3, 3) and t.dtype == np.float64
            assert np.allclose(t, corpus.correlation_tensor(rho.matrix), atol=1e-14, rtol=0.0)

    def test_bell_phi_plus(self):
        t = operators.correlation_tensor(states.make_reference("Bell-Phi+"))
        assert np.allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-15, rtol=0.0)

    def test_other_qubit_counts_rejected(self):
        with pytest.raises(operators.OperatorError):
            operators.correlation_tensor(states.validate(np.eye(2) / 2.0, 1))


class TestSpinObservable:
    def test_squares_to_identity(self, rng):
        for _ in range(20):
            obs = operators.spin_observable(_unit(rng))
            assert np.allclose(obs @ obs, np.eye(2), atol=1e-12)

    def test_traceless_hermitian(self, rng):
        obs = operators.spin_observable(_unit(rng))
        assert abs(np.trace(obs)) <= 1e-12
        assert np.allclose(obs, obs.conj().T, atol=1e-13)

    def test_axis_cases_recover_paulis(self):
        x = operators.spin_observable(operators.UnitVector3(1.0, 0.0, 0.0))
        z = operators.spin_observable(operators.UnitVector3(0.0, 0.0, 1.0))
        assert np.allclose(x, operators.pauli("x"))
        assert np.allclose(z, operators.pauli("z"))

    def test_rejects_non_unit_direction(self):
        with pytest.raises(operators.OperatorError):
            operators.UnitVector3(1.0, 1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", ["init", "from_array"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_direction(self, bad, axis, build):
        # a NaN norm fails every comparison, so the unit check must fail closed;
        # from_array rejects a non-finite norm before dividing, so nothing warns
        v = [0.6, 0.8, 0.0]
        v[axis] = bad
        with pytest.raises(operators.OperatorError):
            if build == "init":
                operators.UnitVector3(*v)
            else:
                operators.UnitVector3.from_array(v)

    @pytest.mark.parametrize("v", [[1, 0, 0, 0], [1, 0], [[1, 0, 0]]], ids=["4", "2", "1x3"])
    def test_from_array_rejects_a_shape_other_than_three(self, v):
        # the shape is checked before the three components are read, so none is
        # dropped and no IndexError or TypeError escapes
        with pytest.raises(operators.OperatorError, match=r"shape \(3,\), got"):
            operators.UnitVector3.from_array(v)


class TestChshOperator:
    def test_hermitian_and_bounded(self, rng):
        settings = operators.ChshSettings(
            A0=operators.spin_observable(_unit(rng)),
            A1=operators.spin_observable(_unit(rng)),
            B0=operators.spin_observable(_unit(rng)),
            B1=operators.spin_observable(_unit(rng)),
        )
        b = operators.chsh_operator(settings)
        assert np.allclose(b, b.conj().T, atol=1e-12)
        spec = hermitian_eigenvalues(b)
        assert spec[-1] <= 2.0 * math.sqrt(2.0) + 1e-10
        assert spec[0] >= -2.0 * math.sqrt(2.0) - 1e-10

    def test_witness_trace_complements_operator(self, rng):
        settings = operators.ChshSettings(
            A0=operators.spin_observable(_unit(rng)),
            A1=operators.spin_observable(_unit(rng)),
            B0=operators.spin_observable(_unit(rng)),
            B1=operators.spin_observable(_unit(rng)),
        )
        b = operators.chsh_operator(settings)
        w = operators.chsh_witness(b)
        assert np.trace(w).real == pytest.approx(8.0 - np.trace(b).real, abs=1e-12)
        assert np.allclose(w, 2.0 * np.eye(4) - b, atol=1e-13)

    def test_is_the_written_out_sign_rule(self, rng):
        # (+, +, +, -): a term counts +1 when at most one party is primed
        for _ in range(20):
            a0, a1, b0, b1 = (operators.spin_observable(_unit(rng)) for _ in range(4))
            b = operators.chsh_operator(operators.ChshSettings(A0=a0, A1=a1, B0=b0, B1=b1))
            expected = np.kron(a0, b0) + np.kron(a0, b1) + np.kron(a1, b0) - np.kron(a1, b1)
            assert np.array_equal(b, expected)

    def test_variant_signs_are_the_rule_with_b1_negated(self, rng):
        # the (+, -, +, +) arrangement of one worked example's witness
        for _ in range(20):
            a0, a1, b0, b1 = (operators.spin_observable(_unit(rng)) for _ in range(4))
            b = operators.chsh_operator(operators.ChshSettings(A0=a0, A1=a1, B0=b0, B1=-b1))
            expected = np.kron(a0, b0) - np.kron(a0, b1) + np.kron(a1, b0) + np.kron(a1, b1)
            assert np.array_equal(b, expected)

    def test_integer_observables_are_kept_complex(self):
        # the settings keep the complex arrays they checked, so the operator is
        # the Kronecker sum of those arrays, bit for bit
        lists = {"A0": [[0, 1], [1, 0]], "A1": [[1, 0], [0, -1]],
                 "B0": [[1, 1], [1, -1]], "B1": [[1, -1], [-1, -1]]}
        settings = operators.ChshSettings(**lists)
        assert all(getattr(settings, name).dtype == np.complex128 for name in lists)
        a0, a1, b0, b1 = (np.asarray(m, dtype=complex) for m in lists.values())
        expected = np.kron(a0, b0) + np.kron(a0, b1) + np.kron(a1, b0) - np.kron(a1, b1)
        b = operators.chsh_operator(settings)
        assert b.dtype == np.complex128
        assert b.tobytes() == expected.tobytes()

    def test_non_hermitian_observable_rejected(self):
        with pytest.raises(NotHermitianError):
            operators.ChshSettings(
                A0=np.array([[0.0, 1.0], [0.0, 0.0]]),
                A1=operators.pauli("y"),
                B0=operators.pauli("x"),
                B1=operators.pauli("y"),
            )


class TestPlaneOperators:
    def test_plane_operator_form(self):
        for plane in operators.PLANES:
            b = operators.chsh_plane_operator(plane)
            i, j = plane
            expected = math.sqrt(2.0) * (
                np.kron(operators.pauli(i), operators.pauli(i))
                + np.kron(operators.pauli(j), operators.pauli(j)))
            assert np.allclose(b, expected, atol=1e-12)

    def test_plane_witness_eigenvalues(self):
        w = operators.plane_witness("xy")
        spec = hermitian_eigenvalues(w)
        assert spec[0] == pytest.approx(2.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
        assert spec[-1] == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), abs=1e-12)

    def test_unknown_plane_rejected(self):
        with pytest.raises(operators.OperatorError):
            operators.chsh_plane_operator("xw")
        with pytest.raises(operators.OperatorError):
            operators.plane_witness("xw")

    @pytest.mark.parametrize("plane", operators.PLANES)
    def test_plane_witness_is_a_shared_read_only_constant(self, plane):
        w = operators.plane_witness(plane)
        assert w is operators.plane_witness(plane)
        assert np.array_equal(w, operators.chsh_witness(operators.chsh_plane_operator(plane)))
        with pytest.raises(ValueError):
            w[0, 0] = 0.0
        with pytest.raises(ValueError):
            w += 1.0
        assert np.array_equal(w, operators.chsh_witness(operators.chsh_plane_operator(plane)))


class TestFrozenWitnessTraces:
    """Witness expectations that the worked examples rely on."""

    def test_mixed_ghz_2w_custom_witness_trace(self):
        settings = operators.ChshSettings(
            A0=operators.pauli("x"),
            A1=operators.pauli("y"),
            B0=0.95 * operators.pauli("x") + 0.95 * operators.pauli("y")
            + 0.447 * operators.pauli("z"),
            # the witness's (+, -, +, +) signs are the CHSH rule with B1 negated
            B1=-(-0.95 * operators.pauli("x") + 0.95 * operators.pauli("y")
                 + 0.447 * operators.pauli("z")),
        )
        b = operators.chsh_operator(settings)
        w = operators.chsh_witness(b)
        rho = states.make_example(states.FAMILY_MIXED_GHZ_2W, 0.55)
        reduced = states.partial_trace(rho, "A")
        assert trace_product(w, reduced.matrix) == pytest.approx(-2.0 / 75.0, abs=1e-12)

    def test_pure_w_class_xz_witness_trace(self):
        lam = 0.92
        rho = states.make_example(states.FAMILY_PURE_W1, lam)
        reduced = states.partial_trace(rho, "B")
        w = operators.plane_witness("xz")
        expected = 2.0 - math.sqrt(2.0) * (0.6 * lam + 2.0 * lam * lam - 0.82)
        assert trace_product(w, reduced.matrix) == pytest.approx(expected, abs=1e-12)


class TestSvetlichnyOperator:
    def _random_settings(self, rng):
        return operators.SvetlichnySettings(
            a=_unit(rng), a_prime=_unit(rng),
            b=_unit(rng), b_prime=_unit(rng),
            c=_unit(rng), c_prime=_unit(rng),
        )

    def test_hermitian_traceless(self, rng):
        s = operators.svetlichny_operator(self._random_settings(rng))
        assert np.allclose(s, s.conj().T, atol=1e-12)
        assert abs(np.trace(s)) <= 1e-10

    def test_matches_the_nested_eight_term_formula(self):
        rng = np.random.default_rng(3066)
        for _ in range(200):
            settings = self._random_settings(rng)
            a, ap, b, bp, c, cp = (operators.spin_observable(v) for v in
                                   (settings.a, settings.a_prime, settings.b,
                                    settings.b_prime, settings.c, settings.c_prime))
            nested = (np.kron(a, np.kron(b, c + cp) + np.kron(bp, c - cp))
                      + np.kron(ap, np.kron(b, c - cp) - np.kron(bp, c + cp)))
            s = operators.svetlichny_operator(settings)
            assert np.max(np.abs(s - nested)) <= 1e-14

    def test_operator_norm_within_quantum_bound(self, rng):
        bound = 4.0 * math.sqrt(2.0)
        for _ in range(20):
            s = operators.svetlichny_operator(self._random_settings(rng))
            spec = hermitian_eigenvalues(s)
            assert spec[-1] <= bound + 1e-9
            assert spec[0] >= -bound - 1e-9

    def test_expectations_bounded_on_random_states(self, rng):
        bound = 4.0 * math.sqrt(2.0) + 1e-9
        for _ in range(20):
            s = operators.svetlichny_operator(self._random_settings(rng))
            rho = random_state(rng, 3)
            assert abs(trace_product(s, rho.matrix)) <= bound

    def test_ghz_attains_quantum_maximum(self):
        half = math.sqrt(0.5)
        settings = operators.SvetlichnySettings(
            a=operators.UnitVector3(1.0, 0.0, 0.0),
            a_prime=operators.UnitVector3(0.0, 1.0, 0.0),
            b=operators.UnitVector3(half, -half, 0.0),
            b_prime=operators.UnitVector3(half, half, 0.0),
            c=operators.UnitVector3(1.0, 0.0, 0.0),
            c_prime=operators.UnitVector3(0.0, 1.0, 0.0),
        )
        s = operators.svetlichny_operator(settings)
        ghz = states.make_reference("GHZ")
        value = abs(trace_product(s, ghz.matrix))
        assert value == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)

    def test_vectors_roundtrip(self, rng):
        settings = self._random_settings(rng)
        vecs = settings.vectors()
        assert len(vecs) == 6
        rebuilt = operators.SvetlichnySettings(
            a=operators.UnitVector3.from_array(vecs[0]),
            a_prime=operators.UnitVector3.from_array(vecs[1]),
            b=operators.UnitVector3.from_array(vecs[2]),
            b_prime=operators.UnitVector3.from_array(vecs[3]),
            c=operators.UnitVector3.from_array(vecs[4]),
            c_prime=operators.UnitVector3.from_array(vecs[5]),
        )
        assert rebuilt == settings


class TestRecords:
    """The settings records are tuples: no field can be set or deleted, and a checked one
    checks on every rebuild as its constructor does."""

    @pytest.mark.parametrize("build", [
        lambda: operators.UnitVector3(0.6, 0.8, 0.0),
        lambda: operators.SvetlichnySettings(*[operators.UnitVector3(0.0, 0.0, 1.0)] * 6),
        lambda: operators.ChshSettings(*operators.PAULIS, operators.PAULI_X),
    ], ids=["UnitVector3", "SvetlichnySettings", "ChshSettings"])
    def test_no_field_can_be_set_or_deleted(self, build):
        assert_immutable(build())

    @pytest.mark.parametrize("path", REBUILDS)
    @pytest.mark.parametrize("bad", [{"x": 0.7}, {"z": math.nan}, {"y": math.inf}],
                             ids=["long", "nan", "inf"])
    def test_a_direction_is_checked_on_every_rebuild(self, path, bad):
        assert_checked_on_rebuild(operators.UnitVector3(0.6, 0.8, 0.0), path,
                                  operators.OperatorError, **bad)

    @pytest.mark.parametrize("path", REBUILDS)
    @pytest.mark.parametrize("bad, error", [
        ({"B0": np.eye(3)}, operators.OperatorError),
        ({"A1": [[0.0, 1.0], [0.0, 0.0]]}, NotHermitianError),
        ({"B1": [[math.nan, 0.0], [0.0, 1.0]]}, LinalgError),
    ], ids=["3x3", "non-hermitian", "nan"])
    def test_chsh_settings_are_checked_on_every_rebuild(self, path, bad, error):
        settings = operators.ChshSettings(*operators.PAULIS, operators.PAULI_X)
        assert_checked_on_rebuild(settings, path, error, **bad)

    @pytest.mark.parametrize("path", REBUILDS)
    def test_a_rebuild_keeps_the_complex_arrays(self, path):
        settings = rebuild(operators.ChshSettings(*operators.PAULIS, operators.PAULI_X), path,
                           A0=[[0, 1], [1, 0]])
        assert settings.A0.dtype == np.complex128
        assert np.array_equal(settings.A0, operators.PAULI_X)

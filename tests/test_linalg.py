"""Eigensolver and trace-inequality checks against independent oracles.

The kernel's eigensolver (LAPACK behind the kernel's gates) is compared
against numpy.linalg.eigvalsh and against a cyclic Jacobi solver kept
here, which shares no code with LAPACK; the gates themselves (dimension,
finiteness, hermiticity, solver failure) are exercised directly, and
checked against the two-pass gates they replaced, kept here as the
reference. The two-sided trace inequality, whose oracle lives in
tests/lemmas.py, is exercised with hypothesis-driven PSD operands.
"""

from __future__ import annotations

import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svetlichny import bounds, linalg, operators, states
import corpus
import lemmas

JACOBI_OFFDIAG_TOL = 1e-13
JACOBI_MAX_SWEEPS = 64


def _random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g + g.conj().T


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def jacobi_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix, the kernel's oracle.

    Returns (values, vectors) with values ascending and vectors[:, i] the
    unit eigenvector for values[i]. Each rotation kills one off-diagonal
    pair; sweeps repeat until the off-diagonal Frobenius mass drops below
    JACOBI_OFFDIAG_TOL. Convergence is quadratic, so well under ten sweeps
    suffice at these dimensions.
    """
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    for _ in range(JACOBI_MAX_SWEEPS):
        if _offdiag_norm(a) < JACOBI_OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                mag = abs(g)
                if mag == 0.0:
                    continue
                phase = g / mag
                theta = 0.5 * np.arctan2(2.0 * mag, (a[p, p] - a[q, q]).real)
                c = np.cos(theta)
                s = np.sin(theta)
                r = np.eye(n, dtype=complex)
                r[p, p] = c
                r[p, q] = -s
                r[q, p] = s * np.conj(phase)
                r[q, q] = c * np.conj(phase)
                a = r.conj().T @ a @ r
                v = v @ r
    assert _offdiag_norm(a) < JACOBI_OFFDIAG_TOL, "Jacobi sweeps exhausted"
    values = np.diag(a).real.copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


class TestEigensystem:
    def test_matches_numpy_eigh_on_random_hermitian(self, rng):
        for dim in (2, 3, 4, 8):
            for _ in range(25):
                m = _random_hermitian(rng, dim)
                values, vectors = linalg.hermitian_eigensystem(m)
                reference = np.linalg.eigvalsh(m)
                assert np.allclose(values, reference, atol=1e-10)
                recon = vectors @ np.diag(values) @ vectors.conj().T
                assert np.allclose(recon, m, atol=1e-9)

    def test_matches_jacobi_oracle_on_random_hermitian(self, rng):
        for dim in (2, 3, 4, 8):
            for _ in range(25):
                m = _random_hermitian(rng, dim)
                values, vectors = linalg.hermitian_eigensystem(m)
                reference, ref_vectors = jacobi_eigensystem(m)
                assert np.allclose(values, reference, atol=1e-10)
                recon = vectors @ np.diag(values) @ vectors.conj().T
                assert np.allclose(recon, m, atol=1e-9)
                # the spectrum is simple, so each eigenvector agrees up to a phase
                overlaps = np.abs(np.sum(vectors.conj() * ref_vectors, axis=0))
                assert np.allclose(overlaps, 1.0, atol=1e-8)

    def test_matches_jacobi_oracle_on_degenerate_spectrum(self, rng):
        # an embedded reduced pair doubles every multiplicity
        u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        m = (u * np.repeat([0.0, 0.1, 0.3, 0.6], 2)) @ u.conj().T
        values, _ = linalg.hermitian_eigensystem(m)
        assert np.allclose(values, jacobi_eigensystem(m)[0], atol=1e-10)
        assert np.allclose(values, np.repeat([0.0, 0.1, 0.3, 0.6], 2), atol=1e-10)

    def test_eigenvalues_sorted_ascending(self, rng):
        m = _random_hermitian(rng, 8)
        spec = linalg.hermitian_eigenvalues(m)
        assert list(spec) == sorted(spec)
        assert spec.min() == spec[0]
        assert spec.max() == spec[-1]

    def test_shift_invariance(self, rng):
        m = _random_hermitian(rng, 4)
        shifted = m + 3.5 * np.eye(4)
        a = linalg.hermitian_eigenvalues(m)
        b = linalg.hermitian_eigenvalues(shifted)
        assert np.allclose(np.asarray(b) - np.asarray(a), 3.5, atol=1e-10)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(linalg.NotHermitianError):
            linalg.hermitian_eigenvalues(bad)


class TestKernelGates:
    def test_rejects_dimension_above_max(self):
        with pytest.raises(linalg.DimensionMismatchError):
            linalg.hermitian_eigensystem(np.eye(linalg.MAX_DIM + 1))
        with pytest.raises(linalg.DimensionMismatchError):
            linalg.hermitian_eigenvalues(np.eye(linalg.MAX_DIM + 1))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                             ids=["nan", "inf", "-inf", "imag-nan"])
    def test_rejects_non_finite_entries(self, entry):
        m = np.eye(4, dtype=complex)
        m[1, 1] = entry
        with pytest.raises(linalg.LinalgError) as excinfo:
            linalg.hermitian_eigenvalues(m)
        # the finiteness gate answers, not a later hermiticity or solver failure
        assert excinfo.type is linalg.LinalgError

    def test_solver_failure_is_no_convergence(self, monkeypatch):
        def fail(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        # the vector solve is eigh, the value-only solve eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(linalg.NoConvergenceError):
            linalg.hermitian_eigensystem(np.eye(4))
        with pytest.raises(linalg.NoConvergenceError):
            linalg.hermitian_eigenvalues(np.eye(4))

    def test_solver_failure_skips_only_that_candidate(self, monkeypatch):
        # identity-W 0.82 certifies first on pair AB with the xy witness,
        # through a route that diagonalizes rho_AB^{1/2} W rho_AB^{1/2}
        rho = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        first = bounds.detect_genuine(rho)
        assert (first.pair, first.witness_label) == (("A", "B"), "xy")
        values, vectors = np.linalg.eigh(states.partial_trace(rho, "C").matrix)
        root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
        target = root @ operators.plane_witness("xy") @ root
        failed = []

        def failing_on_target(solve):
            def solver(a, *args, **kwargs):
                if np.shape(a) == (4, 4) and np.allclose(a, target, atol=1e-12):
                    failed.append(True)
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return solve(a, *args, **kwargs)
            return solver

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, failing_on_target(getattr(np.linalg, name)))
        verdict = bounds.detect_genuine(rho)
        assert failed
        assert verdict.outcome == "genuine"
        assert (verdict.pair, verdict.witness_label) != (("A", "B"), "xy")


class TestStacks:
    """A (k, n, n) stack goes through the same gates and solver as its members,
    checked once as a whole."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_stack_gives_the_bits_of_per_matrix_calls(self, rng, dim):
        stack = np.array([_random_hermitian(rng, dim) for _ in range(5)])
        values, vectors = linalg.hermitian_eigensystem(stack)
        assert values.shape == (5, dim) and vectors.shape == (5, dim, dim)
        for member, member_values, member_vectors in zip(stack, values, vectors):
            one_values, one_vectors = linalg.hermitian_eigensystem(member)
            assert np.array_equal(member_values, one_values)
            assert np.array_equal(member_vectors, one_vectors)
        roots = linalg.eigen_root(*linalg.hermitian_eigensystem(stack @ stack))
        for member, root in zip(stack, roots):
            assert np.array_equal(
                root, linalg.eigen_root(*linalg.hermitian_eigensystem(member @ member)))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_value_only_stack_gives_the_bits_of_per_matrix_calls(self, rng, dim):
        stack = np.array([_random_hermitian(rng, dim) for _ in range(5)])
        values = linalg.hermitian_eigenvalues(stack)
        assert values.shape == (5, dim)
        for member, member_values in zip(stack, values):
            assert linalg.hermitian_eigenvalues(member).tobytes() == member_values.tobytes()
        # eigvalsh's bits are not eigh's, but the spectra agree to roundoff
        assert np.allclose(values, linalg.hermitian_eigensystem(stack)[0], atol=1e-12)

    def test_value_only_solve_computes_no_vectors(self, rng, monkeypatch):
        def fail(a, *args, **kwargs):
            raise AssertionError("eigh called for a spectrum alone")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        spectrum = linalg.hermitian_eigenvalues(_random_hermitian(rng, 4))
        assert spectrum.shape == (4,)
        root = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
        assert linalg.congruence_eigenvalues(root, np.eye(4)).tolist() == [0.0, 0.0625, 0.0625, 0.25]

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)],
                             ids=["nan", "inf", "imag-nan"])
    def test_one_non_finite_member_fails_the_stack(self, rng, entry):
        stack = np.array([_random_hermitian(rng, 4) for _ in range(3)])
        stack[1, 2, 2] = entry
        with pytest.raises(linalg.LinalgError) as excinfo:
            linalg.hermitian_eigensystem(stack)
        assert excinfo.type is linalg.LinalgError

    def test_one_non_hermitian_member_fails_the_stack(self, rng):
        stack = np.array([_random_hermitian(rng, 4) for _ in range(3)])
        stack[2, 0, 3] += 1e-6
        with pytest.raises(linalg.NotHermitianError):
            linalg.hermitian_eigensystem(stack)

    def test_stack_above_max_dimension_is_rejected(self):
        stack = np.array([np.eye(linalg.MAX_DIM + 1)] * 2)
        with pytest.raises(linalg.DimensionMismatchError):
            linalg.hermitian_eigensystem(stack)

    def test_non_square_or_deeper_input_is_rejected(self):
        for shape in ((2, 4, 3), (2, 2, 4, 4), (4,)):
            with pytest.raises(linalg.DimensionMismatchError):
                linalg.hermitian_eigensystem(np.zeros(shape))


class TestFirstNonzero:
    def test_negative_entry_counts_as_nonzero(self):
        spec = linalg.hermitian_eigenvalues(np.diag([0.0, -0.3, 0.7, 0.6]))
        assert linalg.first_nonzero_eigenvalue(spec) == pytest.approx(-0.3)

    def test_skips_leading_zeros(self):
        spec = linalg.hermitian_eigenvalues(np.diag([0.0, 0.0, 0.25, 0.75]))
        assert linalg.first_nonzero_eigenvalue(spec) == pytest.approx(0.25)

    def test_all_zero_raises(self):
        spec = linalg.hermitian_eigenvalues(np.zeros((2, 2)))
        with pytest.raises(linalg.AllZeroSpectrumError):
            linalg.first_nonzero_eigenvalue(spec)

    def test_stack_gives_each_row_its_own_value(self, rng):
        spectra = np.sort(rng.normal(size=(6, 4)), axis=1)
        spectra[1, :2] = 0.0
        spectra[2, 0] = 5e-10
        firsts = linalg.first_nonzero_eigenvalue(spectra)
        assert isinstance(firsts, np.ndarray) and firsts.shape == (6,)
        assert firsts.tolist() == [linalg.first_nonzero_eigenvalue(row) for row in spectra]

    def test_stack_with_an_all_zero_row_raises(self, rng):
        spectra = np.sort(rng.normal(size=(3, 4)), axis=1)
        spectra[1] = [-1e-10, 0.0, 0.0, 1e-10]
        with pytest.raises(linalg.AllZeroSpectrumError):
            linalg.first_nonzero_eigenvalue(spectra)


class TestPsdSqrt:
    def test_square_recovers_input(self, rng):
        m = corpus.random_density(rng, 4)
        root = linalg.eigen_root(*linalg.hermitian_eigensystem(m))
        assert np.allclose(root @ root, m, atol=1e-10)

    def test_clips_tiny_negative_eigenvalues(self):
        m = np.diag([1.0, -1e-14])
        root = linalg.eigen_root(*linalg.hermitian_eigensystem(m))
        assert np.allclose(root @ root, np.diag([1.0, 0.0]), atol=1e-12)


class TestTraceProduct:
    def test_matches_numpy_trace(self, rng):
        a = _random_hermitian(rng, 4)
        b = _random_hermitian(rng, 4)
        assert linalg.trace_product(a, b) == pytest.approx(
            np.trace(a @ b).real, abs=1e-12)

    def test_stack_gives_one_pairing_per_member(self, rng):
        w = _random_hermitian(rng, 4)
        stack = np.array([_random_hermitian(rng, 4) for _ in range(5)])
        pairings = linalg.trace_product(w, stack)
        assert pairings.shape == (5,)
        assert pairings.tolist() == [linalg.trace_product(w, m) for m in stack]


class TestSandwich:
    @settings(max_examples=1000, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           dim=st.sampled_from((2, 3, 4)))
    def test_two_sided_trace_inequality_on_psd(self, seed, dim):
        gen = np.random.default_rng(seed)
        g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        m = g @ g.conj().T
        h = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        n = h @ h.conj().T
        lo, mid, hi = lemmas.sandwich(m, n)
        assert lo - 1e-10 <= mid <= hi + 1e-10

    def test_identity_operand_is_tight(self):
        m = np.diag([0.25, 0.75])
        lo, mid, hi = lemmas.sandwich(m, np.eye(2))
        assert lo == pytest.approx(0.5)
        assert mid == pytest.approx(1.0)
        assert hi == pytest.approx(1.5)


class TestSymmetrize:
    def test_averages_roundoff(self):
        m = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 3e-12j, 2.0]])
        out = linalg.symmetrize(m)
        assert np.allclose(out, out.conj().T, atol=0)

    def test_rejects_genuinely_asymmetric(self):
        with pytest.raises(linalg.NotHermitianError):
            linalg.symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_finite_extremes_give_no_warning(self):
        # M + M† would overflow at 1e308; halving first keeps the sum finite,
        # and a residual beyond the largest float is reported as inf
        big = np.eye(8) * 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.symmetrize(big).tobytes() == big.astype(complex).tobytes()
            with pytest.raises(linalg.NotHermitianError, match="residual inf exceeds"):
                linalg.symmetrize(np.array([[0.0, 1e308], [-1e308, 0.0]]))


class TestCongruence:
    @pytest.fixture
    def root(self):
        gen = np.random.default_rng(3)
        g = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        pair = g @ g.conj().T
        return linalg.eigen_root(*linalg.hermitian_eigensystem(pair / np.trace(pair).real))

    def test_keeps_the_bits_of_the_gated_solve(self, rng, root):
        w = _random_hermitian(rng, 4)
        for roots in (root, np.stack([root, root.conj()])):
            expected = linalg.hermitian_eigenvalues(roots @ w @ roots)
            assert linalg.congruence_eigenvalues(roots, w).tobytes() == expected.tobytes()

    def test_huge_exact_operand_is_solved_not_gated(self, root):
        # root (1e308 I) root is Hermitian up to a roundoff near 1e291, which
        # the absolute gate rejects; its spectrum is 1e308 times root^2's
        big = 1e308 * np.eye(4)
        with pytest.raises(linalg.NotHermitianError, match="residual 2.502e"):
            linalg.hermitian_eigenvalues(root @ big @ root)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = linalg.congruence_eigenvalues(root, big)
        expected = 1e308 * linalg.hermitian_eigenvalues(root @ root)
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)

    def test_non_finite_product_is_rejected(self):
        # 4 I (1.7e308 I) overflows: the finiteness check answers, with no numpy warning
        with warnings.catch_warnings(), pytest.raises(linalg.LinalgError) as excinfo:
            warnings.simplefilter("error")
            linalg.congruence_eigenvalues(4.0 * np.eye(4), 1.7e308 * np.eye(4))
        assert excinfo.type is linalg.LinalgError
        assert str(excinfo.value) == "matrix contains NaN or Inf entries"


POISONS = (np.nan, np.inf, -np.inf)


def _two_pass_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise linalg.DimensionMismatchError(
            f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise linalg.LinalgError("matrix contains NaN or Inf entries")
    return a


def two_pass_symmetrize(m) -> np.ndarray:
    """The reference gate: the whole input checked for finiteness, then the residual."""
    a = _two_pass_square(m)
    adjoint = np.swapaxes(a, -1, -2).conj()
    residual = np.max(np.abs(a - adjoint))
    if residual > linalg.HERMITICITY_TOL:
        raise linalg.NotHermitianError(
            f"hermiticity residual {residual:.3e} exceeds {linalg.HERMITICITY_TOL:.0e}")
    return (a + adjoint) / 2


def two_pass_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    a = two_pass_symmetrize(m)
    n = a.shape[-1]
    if n > linalg.MAX_DIM:
        raise linalg.DimensionMismatchError(f"kernel handles dimensions <= {linalg.MAX_DIM}, got {n}")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise linalg.NoConvergenceError(f"eigh did not converge: {exc}") from exc
    return values, vectors


def _gate_input(gen, shape) -> np.ndarray:
    """A Hermitian matrix or stack of the shape (random, for a shape that is not square),
    then one of: a NaN or Inf in the real part, the imaginary part or both, at a
    diagonal, an off-diagonal or a mirrored pair of positions of one member; a
    perturbation at 0.5 to 2 times HERMITICITY_TOL; a 1e300 scale; nothing."""
    g = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    if shape[-1] == shape[-2]:
        g = g + np.swapaxes(g, -1, -2).conj()
    m = g * 10.0 ** int(gen.integers(-2, 3))
    flat = m.reshape(-1, *shape[-2:])
    member = flat[gen.integers(len(flat))]
    n = min(shape[-2:])
    i, j = (int(x) for x in gen.integers(n, size=2))
    kind = gen.integers(4)
    if kind == 0:
        where = gen.integers(3)
        if where == 0:
            j = i
        elif i == j:
            j = (i + 1) % n
        part = gen.integers(3)
        for cell in ([(i, j), (j, i)] if where == 2 else [(i, j)]):
            if part != 1:
                member.real[cell] = gen.choice(POISONS)
            if part != 0:
                member.imag[cell] = gen.choice(POISONS)
    elif kind == 1:
        scale = gen.choice((0.5, 0.99, 1.01, 2.0))
        member[i, j] += linalg.HERMITICITY_TOL * scale * np.exp(2j * np.pi * gen.random())
    elif kind == 2:
        m *= 1e300
    return m


def _single_shape(gen) -> tuple[int, ...]:
    n = int(gen.choice((2, 3, 4, 8, 9)))
    kind = gen.integers(8)
    if kind < 4:
        return (n, n)
    if kind < 7:
        return (int(gen.integers(1, 4)), n, n)
    return (n, n + 1) if gen.integers(2) else (2, 2, n, n)


def _outcome(gate, *args):
    """The exception's type and message, or the bits of the result."""
    try:
        result = gate(*args)
    except Exception as exc:  # a RuntimeWarning too, raised under the "error" filter
        return type(exc), str(exc)
    parts = (np.asarray(part) for part in (result if isinstance(result, tuple) else (result,)))
    return [(part.dtype.str, part.shape, part.tobytes()) for part in parts]


class TestOnePassGates:
    """A gate reads its matrix in one pass and checks finiteness only once that pass
    has failed. On seeded inputs it gives what the two-pass gates give: the same
    exception type and message, or the same result bits, and never a warning."""

    CASES = 2000

    def _compare(self, gate, reference, draw):
        gen = np.random.default_rng(2028)
        outcomes = collections.Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(self.CASES):
                args = draw(gen)
                got = _outcome(gate, *args)
                assert got == _outcome(reference, *args), args
                outcomes[got[0] if isinstance(got, tuple) else "result"] += 1
        return outcomes

    @pytest.mark.parametrize("gate, reference", [
        (linalg.symmetrize, two_pass_symmetrize),
        (linalg.hermitian_eigensystem, two_pass_eigensystem),
    ], ids=["symmetrize", "hermitian_eigensystem"])
    def test_single_matrix_gates(self, gate, reference):
        outcomes = self._compare(gate, reference,
                                 lambda gen: [_gate_input(gen, _single_shape(gen))])
        assert {"result", linalg.LinalgError, linalg.NotHermitianError,
                linalg.DimensionMismatchError} <= set(outcomes), outcomes

    def test_overflowing_pairing_is_returned(self):
        # finite operands whose pairing overflows give inf, not a finiteness error
        a = np.full((4, 4), 1e300 + 0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.trace_product(a, a) == np.inf

    def test_eigen_root_clamps_like_clip(self):
        values = np.array([[-0.0, 0.0, 5e-324, -5e-324, -1e-14, 0.25, np.inf, np.nan]])
        vectors = np.eye(8)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = (vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]) @ vectors
            got = linalg.eigen_root(values, vectors)
        assert got.tobytes() == expected.tobytes()

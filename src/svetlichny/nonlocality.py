"""Two-qubit nonlocality quantities.

Two regimes, two measures. When a CHSH witness detects the reduced state
(Tr[W rho] < 0) the strength is S_NL = max{-Tr[W rho]/8, 0}. When the
state is entangled but the witness misses it, the replacement measure is

    S_NL_new = r (P_max - 3/4) + (1 - r) K,

with K = Tr[W rho rho^T]/(4 N(rho)), P_max the best CHSH-game winning
probability, and r a mixing weight kept below the cap that guarantees
positivity. The certificates built on this measure read K alone, so
they take no r and report the strength at the default weight, half the
cap; s_nl_new evaluates it at any admissible r. The K bounds
(lemma_lower/upper in spirit) sandwich K without needing the product
trace, which is what makes the undetected-regime certificates computable
from printed spectral data alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .operators import PAULIS
from .states import DensityMatrix, negativity, partial_transpose, partial_transpose_numbers

NEG_TOL = 1e-12
EXPECTATION_TOL = 1e-9
TSIRELSON = 2 * np.sqrt(2.0)


class NonlocalityError(ValueError):
    pass


class ZeroNegativityError(NonlocalityError):
    """K and its bounds divide by the negativity; separable inputs have none."""


class RegimeMismatchError(NonlocalityError):
    """Raised when an operation's regime hypothesis (detected vs not) fails."""


class WindowParameterError(NonlocalityError):
    """r, K, or P_max outside the domain the formulas require."""


class RegimeMismatchWarning(UserWarning):
    pass


@dataclass(frozen=True)
class NonlocalityStrength:
    variant: str                      # "detected" | "undetected"
    s_nl: float | None = None         # detected
    s_nl_new: float | None = None     # undetected
    k: float | None = None
    p_max: float | None = None
    r: float | None = None

    @classmethod
    def detected(cls, s_nl: float) -> "NonlocalityStrength":
        return cls(variant="detected", s_nl=s_nl)

    @classmethod
    def undetected(cls, s_nl_new: float, k: float, p_max: float, r: float) -> "NonlocalityStrength":
        return cls(variant="undetected", s_nl_new=s_nl_new, k=k, p_max=p_max, r=r)


def correlation_tensor(rho: DensityMatrix) -> np.ndarray:
    """Pauli correlations T[m, n, ...] = Tr[rho sigma_m (x) sigma_n (x) ...].

    Shape (3, 3) for two qubits, (3, 3, 3) for three.
    """
    n = rho.qubits
    if n not in (2, 3):
        raise NonlocalityError(f"expected two or three qubits, got {n}")
    rows, cols, out = "abc"[:n], "abcdef"[n:2 * n], "mno"[:n]
    subscripts = ",".join([rows + cols, *map("".join, zip(out, cols, rows))])
    return np.real(np.einsum(f"{subscripts}->{out}", rho.matrix.reshape((2,) * (2 * n)),
                             *[PAULIS] * n))


def horodecki_m(rho: DensityMatrix) -> float:
    """Sum of the two largest eigenvalues of T^t T; CHSH violation iff > 1."""
    t = correlation_tensor(rho)
    values = linalg.hermitian_eigenvalues(t.T @ t)
    return float(values[-1] + values[-2])


def p_max_from_expectation(chsh_expectation: float) -> float:
    """Winning probability (1 + <B>/4)/2 of the CHSH game at a given expectation."""
    if abs(chsh_expectation) > TSIRELSON + EXPECTATION_TOL:
        raise WindowParameterError(
            f"|<B>| = {float(abs(chsh_expectation))} exceeds the quantum bound 2*sqrt(2)"
        )
    return 0.5 * (1.0 + chsh_expectation / 4.0)


def p_max_optimal(rho: DensityMatrix) -> float:
    """Best winning probability over all settings: (1 + sqrt(M)/2)/2."""
    return 0.5 * (1.0 + np.sqrt(max(horodecki_m(rho), 0.0)) / 2.0)


def is_detected(rho: DensityMatrix, w: np.ndarray) -> bool:
    return linalg.trace_product(w, rho.matrix) < 0.0


def s_nl_detected(rho: DensityMatrix, w: np.ndarray) -> float:
    """max{-Tr[W rho]/8, 0}; zero whenever the witness fails to detect."""
    return max(-linalg.trace_product(w, rho.matrix) / 8.0, 0.0)


def _entangled_negativity(n: float) -> float:
    if n <= NEG_TOL:
        raise ZeroNegativityError(f"negativity {float(n)} is numerically zero; K is undefined")
    return n


def k_value(rho: DensityMatrix, w: np.ndarray) -> float:
    """K = Tr[W rho rho^T]/(4 N(rho)).

    Defined for entangled inputs. The formula itself does not care which
    regime the witness is in; calling it on a detected state is almost
    always a sign the caller mixed up the two measures, so that case is
    flagged with a warning rather than an error.
    """
    if is_detected(rho, w):
        warnings.warn(
            "k_value evaluated on a witness-detected state; the detected-regime "
            "measure is s_nl_detected",
            RegimeMismatchWarning,
            stacklevel=2,
        )
    return k_from_negativity(rho, w, negativity(rho))


def k_from_negativity(rho: DensityMatrix, w: np.ndarray, n: float) -> float:
    """k_value's arithmetic for a negativity N already read off the same partial transpose."""
    n = _entangled_negativity(n)
    return linalg.trace_product(w, rho.matrix @ partial_transpose(rho)) / (4.0 * n)


def _bound_transpose_numbers(rho: DensityMatrix, w: np.ndarray) -> tuple[float, ...]:
    """partial_transpose_numbers of rho, once the K bounds' hypotheses are checked."""
    numbers = partial_transpose_numbers(linalg.hermitian_eigenvalues(partial_transpose(rho)))
    _entangled_negativity(numbers[0])
    if is_detected(rho, w):
        raise RegimeMismatchError(
            "bound hypotheses require the witness not to detect the state (Tr[W rho] >= 0)"
        )
    return numbers


def k_lower_bound(rho: DensityMatrix, w: np.ndarray) -> float:
    """lambda_min[(rho^T)^2] Tr[W rho] / (4 lambda_max(rho^T) N(rho))."""
    n, pt_max, pt2_min, _ = _bound_transpose_numbers(rho, w)
    return pt2_min * linalg.trace_product(w, rho.matrix) / (4.0 * pt_max * n)


def k_upper_bound(rho: DensityMatrix, w: np.ndarray) -> float:
    """[lambda_max(W rho) Tr[W rho] + Tr[(rho^T)^2]] / (8 N(rho)).

    lambda_max(W rho) is taken from the Hermitian congruence
    rho^{1/2} W rho^{1/2}, which shares the product's spectrum.
    """
    n, _, _, pt2_trace = _bound_transpose_numbers(rho, w)
    wr_max = float(linalg.congruence_eigenvalues(linalg.psd_sqrt(rho.matrix), w)[-1])
    return (wr_max * linalg.trace_product(w, rho.matrix) + pt2_trace) / (8.0 * n)


def r_cap(k: float, p_max: float) -> float:
    """Upper limit K/(3/4 - P_max + K) on the mixing weight r, clamped to (0, 1].

    Positivity of S_NL_new needs r below this value when P_max <= 3/4.
    When P_max exceeds 3/4 both terms of S_NL_new are positive for every r:
    the formula lands above 1, or its denominator is not positive once
    P_max >= 3/4 + K, and either way the cap is vacuous.
    """
    if k <= 0.0:
        raise WindowParameterError(f"the cap needs K > 0, got {float(k)}")
    denominator = 0.75 - p_max + k
    if denominator <= 0.0:
        return 1.0
    return min(k / denominator, 1.0)


def undetected_strength(k: float, p_max: float, r: float | None = None) -> NonlocalityStrength:
    """Undetected-regime strength r (P_max - 3/4) + (1 - r) K from K and P_max.

    r must sit in [0, r_cap), the cap that keeps the result positive, so
    the constraint is enforced; r = None takes the default, the midpoint.
    """
    cap = r_cap(k, p_max)
    if r is None:
        r = 0.5 * cap
    elif not 0.0 <= r < cap:
        raise WindowParameterError(f"r = {float(r)} outside [0, {float(cap)})")
    value = r * (p_max - 0.75) + (1.0 - r) * k
    return NonlocalityStrength.undetected(s_nl_new=value, k=k, p_max=p_max, r=r)


def s_nl_new(rho: DensityMatrix, w: np.ndarray, r: float) -> NonlocalityStrength:
    """Undetected-regime strength of rho under w at the weight r."""
    return undetected_strength(k_value(rho, w), p_max_optimal(rho), r)

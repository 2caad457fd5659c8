"""Two-qubit nonlocality quantities.

Two regimes, two measures. When a CHSH witness detects the reduced state
(Tr[W rho] < 0) the strength is S_NL = max{-Tr[W rho]/8, 0}. When the
state is entangled but the witness misses it, the replacement measure is

    S_NL_new = r (P_max - 3/4) + (1 - r) K,

with K = Tr[W rho rho^T]/(4 N(rho)), P_max the best CHSH-game winning
probability, and r a mixing weight kept below the cap that guarantees
positivity. The certificates built on this measure read K alone (and
need K > 0, the cap's own hypothesis, checked by positive_k), so they
take no r; a report forms NonlocalityStrength at the default weight,
half the cap, and s_nl_new evaluates it at any admissible r. S_NL and K
are formulas of the pairings Tr[W rho] and Tr[W rho rho^T], which the
single-state functions and a certificate record's pairings
(bounds.PairSpectra.pairings) both form with linalg.trace_product. That
kernel checks no operand, so each single-state function checks its own
at its entry: the witness by operators.witness_matrix, the one witness
rule, then the state's qubit count. Both formulas also evaluate
elementwise over arrays of pairings (and negativities), and the strength
over an array of weights r; each guard then checks the whole array and
raises as it does for one number.

The Pauli correlation tensor T that horodecki_m reads is built by
operators.correlation_tensor, in the base layer, so that the optimizer
reads T without importing this module.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from . import linalg
from .operators import correlation_tensor, witness_matrix
from .states import DensityMatrix, negativity, partial_transpose

NEG_TOL = 1e-12


class NonlocalityError(ValueError):
    pass


class ZeroNegativityError(NonlocalityError):
    """K divides by the negativity; separable inputs have none."""


class WindowParameterError(NonlocalityError):
    """r, K, or P_max outside the domain the formulas require."""


class RegimeMismatchWarning(UserWarning):
    pass


class NonlocalityStrength(NamedTuple):
    """S_NL_new = r (P_max - 3/4) + (1 - r) K, with the K, P_max and r it was formed from.

    s_nl_new and r are arrays when the strength was formed on an array of weights.
    """

    s_nl_new: float
    k: float
    p_max: float
    r: float


def _two_qubit(rho: DensityMatrix) -> DensityMatrix:
    """rho itself, once it is a two-qubit state: every quantity here is one of a pair."""
    if rho.qubits != 2:
        raise NonlocalityError(f"expected a two-qubit state, got {rho.qubits} qubits")
    return rho


def horodecki_m(rho: DensityMatrix) -> float:
    """Sum of the two largest eigenvalues of T^t T; CHSH violation iff > 1."""
    t = correlation_tensor(_two_qubit(rho))
    values = linalg.hermitian_eigenvalues(t.T @ t)
    return float(values[-1] + values[-2])


def p_max_optimal(rho: DensityMatrix) -> float:
    """Best winning probability over all settings: (1 + sqrt(M)/2)/2."""
    return 0.5 * (1.0 + math.sqrt(max(horodecki_m(rho), 0.0)) / 2.0)


def is_detected(rho: DensityMatrix, w: np.ndarray) -> bool:
    return bool(linalg.trace_product(witness_matrix(w), _two_qubit(rho).matrix) < 0.0)


def s_nl_detected(rho: DensityMatrix, w: np.ndarray) -> float:
    """max{-Tr[W rho]/8, 0}; zero whenever the witness fails to detect."""
    pairing = linalg.trace_product(witness_matrix(w), _two_qubit(rho).matrix)
    return float(s_nl_from_pairing(pairing))


def s_nl_from_pairing(pairing):
    """S_NL = max{-Tr[W rho]/8, 0} from the pairing Tr[W rho], or elementwise from an array."""
    return np.maximum(-_finite_pairing(pairing) / 8.0, 0.0)


def k_value(rho: DensityMatrix, w: np.ndarray) -> float:
    """K = Tr[W rho rho^T]/(4 N(rho)).

    Defined for entangled inputs. The formula itself does not care which
    regime the witness is in; calling it on a detected state is almost
    always a sign the caller mixed up the two measures, so that case is
    flagged with a warning rather than an error.
    """
    w = witness_matrix(w)
    if linalg.trace_product(w, _two_qubit(rho).matrix) < 0.0:
        warnings.warn(
            "k_value evaluated on a witness-detected state; the detected-regime "
            "measure is s_nl_detected",
            RegimeMismatchWarning,
            stacklevel=2,
        )
    pairing = float(linalg.trace_product(w, rho.matrix @ partial_transpose(rho)))
    return k_from_pairing(pairing, negativity(rho))


def k_from_pairing(pairing, n):
    """K = Tr[W rho rho^T]/(4 N) from the pairing and the negativity, or elementwise from arrays."""
    return _finite_pairing(pairing) / (4.0 * _nonzero_negativity(n))


def _finite_pairing(pairing):
    """The pairing itself, once every entry is finite."""
    bad = np.logical_not((pairing > -math.inf) & (pairing < math.inf))  # a NaN fails both
    if _anywhere(bad):
        raise NonlocalityError(f"pairing {_first(pairing, bad)} is not finite")
    return pairing


def _nonzero_negativity(n):
    """N itself, once every entry is finite and not numerically zero: K divides by it."""
    bad = np.logical_not((n > NEG_TOL) & (n < math.inf))  # a NaN fails both comparisons
    if _anywhere(bad):
        first = _first(n, bad)
        fault = "numerically zero" if math.isfinite(first) else "not finite"
        raise ZeroNegativityError(f"negativity {first} is {fault}; K is undefined")
    return n


def _anywhere(mask) -> bool:
    """Whether a guard's comparison holds at some entry of an array, or at all for one number.

    On a number it skips numpy's reduction, which costs more than the
    arithmetic it guards. Private, so the benchmark tracer leaves a call
    this cheap unwrapped.
    """
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _first(values, mask) -> float:
    """The first entry of values where mask holds, as a plain float for messages."""
    return float(np.asarray(values)[mask].flat[0])


def positive_k(k: float) -> float:
    """K itself, once it is positive, or once every entry of an array is: the cap, and so
    S_NL_new, is defined only then. A NaN is not positive."""
    bad = np.logical_not(k > 0.0)
    if _anywhere(bad):
        raise WindowParameterError(f"the cap needs K > 0, got {_first(k, bad)}")
    return k


def r_cap(k: float, p_max: float) -> float:
    """Upper limit K/(3/4 - P_max + K) on the mixing weight r, clamped to (0, 1].

    Positivity of S_NL_new needs r below this value when P_max <= 3/4.
    When P_max exceeds 3/4 both terms of S_NL_new are positive for every r:
    the formula lands above 1, or its denominator is not positive once
    P_max >= 3/4 + K, and either way the cap is vacuous. A NaN or infinite
    P_max, or an infinite K, is rejected, since the comparison below would
    let it through.
    """
    k = positive_k(k)
    for name, value in (("K", k), ("P_max", p_max)):
        if not math.isfinite(value):
            raise WindowParameterError(f"{name} = {float(value)} is not finite")
    denominator = 0.75 - p_max + k
    if denominator <= 0.0:
        return 1.0
    return min(k / denominator, 1.0)


def undetected_strength(k: float, p_max: float,
                        r: float | np.ndarray | None = None) -> NonlocalityStrength:
    """Undetected-regime strength r (P_max - 3/4) + (1 - r) K from K and P_max.

    r must sit in [0, r_cap), the cap that keeps the result positive, so
    the constraint is enforced, on every entry of an array of weights;
    r = None takes the default, the midpoint.
    """
    cap = r_cap(k, p_max)
    if r is None:
        r = 0.5 * cap
    else:
        weights = np.asarray(r)
        outside = ~((0.0 <= weights) & (weights < cap))
        if _anywhere(outside):
            raise WindowParameterError(f"r = {_first(r, outside)} outside [0, {float(cap)})")
    value = r * (p_max - 0.75) + (1.0 - r) * k
    return NonlocalityStrength(s_nl_new=value, k=k, p_max=p_max, r=r)


def s_nl_new(rho: DensityMatrix, w: np.ndarray, r: float) -> NonlocalityStrength:
    """Undetected-regime strength of rho under w at the weight r."""
    return undetected_strength(k_value(rho, w), p_max_optimal(rho), r)

"""Certificates of genuine tripartite nonlocality from reduced-pair data.

Every certificate here has the same shape. Mix the three-qubit Svetlichny
operator with a witness lifted from a two-qubit reduced pair, demand that
the mixture stay within the biseparable bound, and solve for the mixing
parameter. The admissible parameter ranges (lower routes in p, upper
routes in q) depend only on spectra of the state, of the embedded reduced
pair, and on the nonlocality strength of that pair. When the range forced
by the biseparable bound excludes values that the quantum maximum still
permits, the gap is a parameter window whose nonemptiness certifies
genuine nonlocality without ever optimizing measurement settings.

Four routes: detected regime (witness expectation negative) gives the
p-route and q-route built from S_NL; undetected regime (entangled but
witness-positive) gives the corresponding routes built from the
replacement strength. The verdict search tries all of them.

One PairSpectra record per (state, pair) holds every number the routes
read, and its methods are the only certificate arithmetic; the records
of one state share a single solve of the state.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import EigenSpectrum
from .nonlocality import (
    NonlocalityError,
    NonlocalityStrength,
    NEG_TOL,
    is_detected,
    k_from_negativity,
    p_max_optimal,
    s_nl_detected,
    undetected_strength,
)
from .operators import PLANES, plane_witness
from .states import (
    DensityMatrix,
    LABELS,
    partial_trace,
    partial_transpose,
)

WINDOW_EMPTY_TOL = 1e-9
SINGULAR_TOL = 1e-12
SEARCH_ORDER = (("A", "B"), ("A", "C"), ("B", "C"))

_SQRT2 = np.sqrt(2.0)


class BoundsError(ValueError):
    pass


class SingularDenominatorError(BoundsError):
    """A certificate formula divides by a quantity that vanished."""


@dataclass(frozen=True)
class Window:
    """Half-open parameter interval; empty when it is narrower than tolerance."""

    lower: float
    upper: float
    empty: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        object.__setattr__(
            self, "empty", not (self.upper - self.lower > WINDOW_EMPTY_TOL)
        )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float) -> bool:
        return (not self.empty) and self.lower < value < self.upper


@dataclass(frozen=True)
class BoundConfig:
    """Mixing parameters and reduction choices for one certificate evaluation.

    p weights the lower-route mixture, q the upper-route mixture; both are
    strictly positive because every bound divides by them. The witness acts
    on the ordered reduced pair; the partial transpose always acts on the
    second qubit of that pair. The undetected routes read the strength
    through K alone, so no mixing weight r is needed.
    """

    p: float
    q: float
    witness: np.ndarray
    reduced_pair: tuple[str, str] = ("B", "C")

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise BoundsError(f"p must lie in (0, 1], got {self.p}")
        if not 0.0 < self.q <= 1.0:
            raise BoundsError(f"q must lie in (0, 1], got {self.q}")
        w = np.asarray(self.witness, dtype=complex)
        if w.shape != (4, 4):
            raise BoundsError("witness must be a 4x4 matrix")
        linalg.symmetrize(w)
        _pair_positions(self.reduced_pair)


@dataclass(frozen=True)
class BoundsReport:
    """Everything one certificate evaluation produced, windows included."""

    regime: str
    sv_lower: float
    sv_upper: float
    p_window: Window
    q_window: Window
    genuine_p_window: Window
    genuine_q_window: Window
    intermediates: dict[str, float]


@dataclass(frozen=True)
class Verdict:
    """Outcome of the certificate search over pairs and witnesses.

    route identifies the firing certificate (detected-p, detected-q,
    undetected-p, undetected-q); value is the midpoint of the genuine
    window, the mixing parameter that witnesses the verdict.
    """

    outcome: str
    route: str | None = None
    parameter: str | None = None
    value: float | None = None
    window: Window | None = None
    pair: tuple[str, str] | None = None
    witness_label: str | None = None


def _pair_positions(pair: tuple[str, str]) -> tuple[int, int]:
    if len(pair) != 2 or len(set(pair)) != 2:
        raise BoundsError(f"reduced pair must name two distinct qubits, got {pair}")
    try:
        return tuple(LABELS.index(label) for label in pair)
    except ValueError:
        raise BoundsError(f"pair labels must come from {LABELS}, got {pair}") from None


def embed_pair(op_pair: np.ndarray, pair: tuple[str, str] = ("B", "C")) -> np.ndarray:
    """Lift a two-qubit operator to three qubits, identity on the rest.

    The pair is ordered: its first label takes the operator's first tensor
    slot. Basis convention is |abc> at index 4a + 2b + c.
    """
    op = np.asarray(op_pair, dtype=complex)
    if op.shape != (4, 4):
        raise BoundsError("pair operator must be 4x4")
    first, second = _pair_positions(pair)
    spectator = 3 - first - second
    # tensor axes of op (x) I: (first, second, spectator) for rows, then columns
    lifted = np.kron(op, np.eye(2)).reshape((2,) * 6)
    slots = (first, second, spectator)
    return np.moveaxis(lifted, range(6), slots + tuple(3 + k for k in slots)).reshape(8, 8)


def _congruence_spectrum(root: np.ndarray, op: np.ndarray) -> EigenSpectrum:
    """Spectrum of root op root, which the raw product root^2 op shares."""
    return linalg.hermitian_eigenvalues(root @ op @ root)


def product_spectrum(rho_abc: DensityMatrix, rho_ij: DensityMatrix,
                     pair: tuple[str, str] = ("B", "C")) -> EigenSpectrum:
    """Spectrum of the state times the embedded reduced pair.

    The raw product is not Hermitian, but it is similar to the congruence
    of the embedded operator by the square root of the state, so its
    spectrum is real whenever the state is a genuine density matrix. A
    hermiticity failure of the congruence signals an invalid input.
    """
    root = linalg.psd_sqrt(rho_abc.matrix)
    return _congruence_spectrum(root, embed_pair(rho_ij.matrix, pair))


def _bound(numerator: float, visibility: float, denominator: float) -> float:
    """8 (1 - v) N / (v D), the shape of every visibility bound."""
    return 8.0 * (1.0 - visibility) * numerator / (visibility * denominator)


def _windows(numerator: float, denominator: float,
             admissible_upper: float = 1.0) -> tuple[Window, Window]:
    """Admissible and genuine windows of one route.

    The route's bound reaches the biseparable threshold at 2N/(2N + D),
    where the admissible window opens, and the quantum maximum at
    sqrt(2) N/(sqrt(2) N + D), where the genuine window opens.
    """
    edge_den = 2.0 * numerator + denominator
    cutoff_den = _SQRT2 * numerator + denominator
    if abs(edge_den) <= SINGULAR_TOL or abs(cutoff_den) <= SINGULAR_TOL:
        raise SingularDenominatorError("window denominator vanished")
    edge = 2.0 * numerator / edge_den
    return Window(edge, admissible_upper), Window(_SQRT2 * numerator / cutoff_den, edge)


@dataclass(frozen=True)
class PairSpectra:
    """Every spectral number the certificates read, for one (state, pair).

    pair_spectra fills it from four eigensolves: the state (which also
    yields its square root), the product congruence
    rho^{1/2} embed(rho_ij) rho^{1/2}, the reduced pair and its partial
    transpose. Embedding the pair only doubles multiplicities, so the
    embedded extremes are read off the 4x4 spectrum. The partial-transpose
    numbers, the pair and its square root are None in records built from
    listed data that lacks them.

    The methods are the certificate arithmetic. A lower route feeds its
    numerator to lower_bound and p_windows, an upper route to upper_bound
    and q_windows. The detected regime takes both numerators from S_NL;
    the undetected regime takes H for the lower route and F/4 for the
    upper one, since the paper's 2 (1 - q) F/(q lambda_k) is the upper
    shape with numerator F/4.
    """

    lambda_min_rho: float
    lambda_max_rho: float
    lambda_min_product: float
    lambda_max_product: float
    lambda_max_embedded: float
    lambda_k_embedded: float
    lambda_max_pt: float | None = None
    lambda_min_pt_squared: float | None = None
    trace_pt_squared: float | None = None
    negativity: float | None = None
    reduced_root: np.ndarray | None = field(default=None, repr=False, compare=False)
    reduced: DensityMatrix | None = field(default=None, repr=False, compare=False)

    @property
    def lambda_k(self) -> float:
        """First nonzero embedded eigenvalue, checked for use as a divisor."""
        if self.lambda_k_embedded <= SINGULAR_TOL:
            raise SingularDenominatorError("smallest nonzero embedded eigenvalue vanished")
        return self.lambda_k_embedded

    @cached_property
    def p_max(self) -> float:
        """The pair's best CHSH winning probability, solved on first use only."""
        return p_max_optimal(self.reduced)

    def route_numerators(self, witness: np.ndarray
                         ) -> tuple[NonlocalityStrength, float, float]:
        """The pair's strength under the witness, then the lower- and upper-route numerators.

        The undetected routes read K alone; the strength is reported at the default weight.
        """
        if is_detected(self.reduced, witness):
            strength = NonlocalityStrength.detected(s_nl_detected(self.reduced, witness))
            return (strength, *self.detected_numerators(strength.s_nl))
        k = k_from_negativity(self.reduced, witness, self.negativity)
        strength = undetected_strength(k, self.p_max)
        f = self.f_value(k, self.witness_max(witness))
        return strength, self.h_value(k), f / 4.0

    def witness_max(self, witness: np.ndarray) -> float:
        """lambda_max(rho_ij^{1/2} W rho_ij^{1/2}), the top of the spectrum of W rho_ij."""
        wr_max = _congruence_spectrum(
            self.reduced_root, np.asarray(witness, dtype=complex)).lambda_max
        if abs(wr_max) <= SINGULAR_TOL:
            raise SingularDenominatorError("witness-state product has no spectral radius")
        return wr_max

    def detected_numerators(self, s_nl: float) -> tuple[float, float]:
        """Lower-route and upper-route numerators of the detected regime."""
        return (self.lambda_min_product + 2.0 * s_nl * self.lambda_max_rho,
                self.lambda_max_product + 2.0 * s_nl * self.lambda_min_rho)

    def h_value(self, k: float) -> float:
        """H: the product floor discounted by the replacement strength's K."""
        pt2_min = self.lambda_min_pt_squared
        if pt2_min <= SINGULAR_TOL:
            raise SingularDenominatorError("squared partial transpose is singular")
        return self.lambda_min_product - (
            k * self.negativity * self.lambda_max_pt * self.lambda_max_rho / pt2_min)

    def f_value(self, k: float, wr_max: float | None) -> float:
        """F: four times the product ceiling, corrected through the witness.

        The correction carries a factor lambda_min(rho), so a state with
        lambda_min(rho) = 0 drops it and needs no witness numbers.
        """
        if self.lambda_min_rho == 0.0:
            return 4.0 * self.lambda_max_product
        return 4.0 * self.lambda_max_product - (self.lambda_min_rho / wr_max) * (
            8.0 * self.negativity * k - self.trace_pt_squared)

    def lower_bound(self, numerator: float, p: float) -> float:
        return _bound(numerator, p, self.lambda_max_embedded)

    def upper_bound(self, numerator: float, q: float) -> float:
        return _bound(numerator, q, self.lambda_k)

    def p_windows(self, numerator: float, detected: bool) -> tuple[Window, Window]:
        """Admissible and genuine windows of a lower route.

        The undetected route fires with H < 0 and so meets the negative
        thresholds, which flips the sign of lambda_max. The detected
        admissible window closes at 2N/(2N - lambda_max) when that
        denominator is positive, at 1 otherwise.
        """
        emb_max = self.lambda_max_embedded
        if not detected:
            return _windows(numerator, -emb_max)
        d_minus = 2.0 * numerator - emb_max
        return _windows(numerator, emb_max, 2.0 * numerator / d_minus if d_minus > 0.0 else 1.0)

    def q_windows(self, numerator: float) -> tuple[Window, Window]:
        """Admissible and genuine windows of an upper route."""
        return _windows(numerator, self.lambda_k)


def pair_spectra(rho_abc: DensityMatrix, rho_ij: DensityMatrix,
                 pair: tuple[str, str] = ("B", "C"),
                 state: tuple[EigenSpectrum, np.ndarray] | None = None) -> PairSpectra:
    """Diagonalize once what every certificate on this pair needs.

    state, when given, is linalg.spectral_root(rho_abc.matrix);
    pair_records passes it so that all pairs of one state share a solve.
    The negativity is the one states.negativity computes, read off the
    same partial-transpose spectrum.
    """
    rho, root = state if state is not None else linalg.spectral_root(rho_abc.matrix)
    reduced, reduced_root = linalg.spectral_root(rho_ij.matrix)
    product = _congruence_spectrum(root, embed_pair(rho_ij.matrix, pair))
    pt = linalg.hermitian_eigenvalues(partial_transpose(rho_ij)).values
    return PairSpectra(
        lambda_min_rho=rho.lambda_min,
        lambda_max_rho=rho.lambda_max,
        lambda_min_product=product.lambda_min,
        lambda_max_product=product.lambda_max,
        lambda_max_embedded=reduced.lambda_max,
        lambda_k_embedded=linalg.first_nonzero_eigenvalue(reduced),
        lambda_max_pt=pt[-1],
        lambda_min_pt_squared=min(v * v for v in pt),
        trace_pt_squared=sum(v * v for v in pt),
        negativity=float(-sum(v for v in pt if v < 0.0)),
        reduced_root=reduced_root,
        reduced=rho_ij,
    )


def _reduce(rho_abc: DensityMatrix, pair: tuple[str, str]) -> DensityMatrix:
    positions = _pair_positions(pair)
    return partial_trace(rho_abc, next(lbl for k, lbl in enumerate(LABELS) if k not in positions))


def pair_records(rho_abc: DensityMatrix, pairs: Iterable[tuple[str, str]] = SEARCH_ORDER
                 ) -> Iterator[tuple[tuple[str, str], PairSpectra]]:
    """(pair, record) for each pair in turn, built on first use from one solve of the state."""
    state = linalg.spectral_root(rho_abc.matrix)
    for pair in pairs:
        yield pair, pair_spectra(rho_abc, _reduce(rho_abc, pair), pair, state=state)


def full_report(rho_abc: DensityMatrix, cfg: BoundConfig) -> BoundsReport:
    """Evaluate the applicable route pair and collect every intermediate."""
    spectra = pair_spectra(rho_abc, _reduce(rho_abc, cfg.reduced_pair), cfg.reduced_pair)
    return _report(spectra, cfg.witness, (cfg.p, cfg.q))[0]


def midpoint_report(spectra: PairSpectra, witness: np.ndarray
                    ) -> tuple[BoundsReport, float, float]:
    """The record's report at its genuine-window midpoints (0.5 where one is empty), and that (p, q)."""
    return _report(spectra, witness, None)


def _report(spectra: PairSpectra, witness: np.ndarray,
            pq: tuple[float, float] | None) -> tuple[BoundsReport, float, float]:
    strength, low, high = spectra.route_numerators(witness)
    detected = strength.variant == "detected"
    emb_max = spectra.lambda_max_embedded
    lam_k = spectra.lambda_k
    p_adm, p_gen = spectra.p_windows(low, detected)
    q_adm, q_gen = spectra.q_windows(high)
    # the windows do not depend on p or q, so one evaluation serves the midpoints
    p, q = pq if pq is not None else (0.5 if w.empty else w.midpoint for w in (p_gen, q_gen))
    intermediates = {
        "lambda_min_product": spectra.lambda_min_product,
        "lambda_max_product": spectra.lambda_max_product,
        "lambda_max_embedded": emb_max,
        "lambda_k_embedded": lam_k,
        "lambda_min_rho": spectra.lambda_min_rho,
        "lambda_max_rho": spectra.lambda_max_rho,
        "Z": spectra.negativity * spectra.lambda_max_pt,
    }
    if detected:
        intermediates.update(
            {
                "d1_plus": 2.0 * low + emb_max,
                "d1_minus": 2.0 * low - emb_max,
                "d2_plus": 2.0 * high + lam_k,
                "d2_minus": 2.0 * high - lam_k,
                "s_nl": strength.s_nl,
            }
        )
    else:
        intermediates.update(
            {
                "H": low,
                "F": 4.0 * high,
                "G": spectra.lambda_max_rho
                * strength.k
                * intermediates["Z"]
                / (p * spectra.lambda_min_pt_squared * emb_max),
                "s_nl_new": strength.s_nl_new,
                "k": strength.k,
                "p_max": strength.p_max,
                "r": strength.r,
            }
        )
    return BoundsReport(
        regime=strength.variant,
        sv_lower=spectra.lower_bound(low, p),
        sv_upper=spectra.upper_bound(high, q),
        p_window=p_adm,
        q_window=q_adm,
        genuine_p_window=p_gen,
        genuine_q_window=q_gen,
        intermediates=intermediates,
    ), p, q


def detect_genuine(rho_abc: DensityMatrix, pair: tuple[str, str] | None = None,
                   witness: np.ndarray | None = None) -> Verdict:
    """Search reduced pairs and witnesses for a firing certificate.

    Tries every reduced pair (or just the requested one) against the three
    plane witnesses plus any user witness, detected routes before
    undetected, in a fixed order so the answer is deterministic. The first
    nonempty genuine window wins. With no firing window the verdict is
    inconclusive when some pair was entangled, not-applicable otherwise.
    Records are built as the search reaches their pair.
    """
    return search_records(pair_records(rho_abc, SEARCH_ORDER if pair is None else (pair,)),
                          witness)


def search_records(records: Iterable[tuple[tuple[str, str], PairSpectra]],
                   witness: np.ndarray | None = None) -> Verdict:
    """detect_genuine's search over (pair, record) items, in their order.

    A candidate whose strength or windows cannot be formed (zero
    negativity, a vanished denominator) is skipped.
    """
    witnesses: list[tuple[str, np.ndarray]] = [
        (plane, plane_witness(plane)) for plane in PLANES
    ]
    if witness is not None:
        witnesses.append(("user", np.asarray(witness, dtype=complex)))

    any_entangled = False
    for candidate_pair, spectra in records:
        if spectra.negativity > NEG_TOL:
            any_entangled = True
        for label, w in witnesses:
            try:
                routes = _candidate_windows(spectra, w)
            except (NonlocalityError, BoundsError, linalg.LinalgError):
                continue
            for route, parameter, genuine in routes:
                if not genuine.empty:
                    return Verdict(
                        outcome="genuine",
                        route=route,
                        parameter=parameter,
                        value=genuine.midpoint,
                        window=genuine,
                        pair=candidate_pair,
                        witness_label=label,
                    )
    if any_entangled:
        return Verdict(outcome="inconclusive")
    return Verdict(outcome="not-applicable")


def _candidate_windows(spectra: PairSpectra, witness: np.ndarray
                       ) -> list[tuple[str, str, Window]]:
    strength, low, high = spectra.route_numerators(witness)
    detected = strength.variant == "detected"
    return [(f"{strength.variant}-p", "p", spectra.p_windows(low, detected)[1]),
            (f"{strength.variant}-q", "q", spectra.q_windows(high)[1])]

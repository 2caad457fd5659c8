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
witness-positive) gives the corresponding routes built from K, the part
of the replacement strength they read. The verdict search tries all of
them, and skips a candidate with K <= 0, where the replacement strength
is undefined. S_NL reads the witness pairing Tr[W rho_ij], K the pairing
Tr[W rho_ij rho_ij^T], both off the matrices the record keeps.

One PairSpectra record per (state, pair) holds every number and matrix
the routes read, and its methods are the only certificate arithmetic.
A record is immutable data: each (pair, witness) candidate is evaluated
into a Routes value where it is read, by the search and by the report.
One builder, stack_record, reads any stack of (state, reduction, pair)
points into one record of arrays: each state's spectrum is the one
validation solved, the reductions are solved with their eigenvectors,
for their square roots, in one gated call, their partial transposes,
formed by one stacked call, are solved without eigenvectors, and the
products, from those 4x4 roots, in one stacked product_spectrum call.
Only a reduced pair's root reads eigenvectors: no 8x8 matrix is ever
solved for them. pair_records reduces one state's pairs in one
states.marginals call and cuts the stack's record into one record of
floats per pair (PairSpectra.points); product_spectrum lifts the roots
in one states.embed_pair call, the marginal's adjoint, which reads the
index the reduction built. A closed-form grid is the same builder's
stack, kept as one record of arrays.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .nonlocality import (
    NonlocalityError,
    NEG_TOL,
    _anywhere,
    _first,
    k_from_pairing,
    p_max_optimal,
    positive_k,
    s_nl_from_pairing,
    undetected_strength,
)
from .operators import PLANES, plane_witness, witness_matrix
from .states import (
    DensityMatrix,
    embed_pair,
    marginals,
    pair_positions,
    partial_transpose_numbers,
    partial_transposes,
)

WINDOW_EMPTY_TOL = 1e-9
SINGULAR_TOL = 1e-12
SEARCH_ORDER = (("A", "B"), ("A", "C"), ("B", "C"))

_SQRT2 = np.sqrt(2.0)
# the largest numerator whose 2N, and so every window edge's terms, stays finite
_EDGE_NUMERATOR_MAX = np.finfo(float).max / 2.0


class BoundsError(ValueError):
    pass


class SingularDenominatorError(BoundsError):
    """A certificate formula divides by a quantity that vanished."""


# Raised by a candidate that cannot be formed: the search skips it, svet analyze reports it.
CANDIDATE_ERRORS = (NonlocalityError, BoundsError, linalg.LinalgError)


@dataclass(frozen=True)
class Window:
    """Half-open parameter interval with finite ends; empty when narrower than tolerance."""

    lower: float
    upper: float
    empty: bool = field(init=False)

    def __post_init__(self) -> None:
        for end in ("lower", "upper"):
            value = float(getattr(self, end))
            if not math.isfinite(value):
                raise BoundsError(f"window {end} end {value} is not finite")
            object.__setattr__(self, end, value)
        object.__setattr__(
            self, "empty", not (self.upper - self.lower > WINDOW_EMPTY_TOL)
        )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float) -> bool:
        return (not self.empty) and self.lower <= value < self.upper


class BoundConfig(NamedTuple("BoundConfig", [("p", float), ("q", float), ("witness", np.ndarray),
                                             ("reduced_pair", tuple[str, str])])):
    """Mixing parameters and reduction choices for one certificate evaluation.

    p weights the lower-route mixture, q the upper-route mixture; both are
    strictly positive because every bound divides by them. The witness acts
    on the ordered reduced pair; the partial transpose always acts on the
    second qubit of that pair. The undetected routes read the strength
    through K alone, so no mixing weight r is needed. Every build, _replace
    included, checks them and keeps the symmetrized witness.
    """

    __slots__ = ()

    def __new__(cls, p: float, q: float, witness: np.ndarray,
                reduced_pair: tuple[str, str] = ("B", "C")):
        if not 0.0 < p <= 1.0:
            raise BoundsError(f"p must lie in (0, 1], got {p}")
        if not 0.0 < q <= 1.0:
            raise BoundsError(f"q must lie in (0, 1], got {q}")
        witness = witness_matrix(witness)
        pair_positions(reduced_pair)
        return super().__new__(cls, p, q, witness, reduced_pair)

    @classmethod
    def _make(cls, iterable) -> "BoundConfig":
        return cls(*iterable)


@dataclass(frozen=True)
class BoundsReport:
    """Everything one certificate evaluation produced, its (p, q) and windows included."""

    regime: str
    sv_lower: float
    sv_upper: float
    p: float
    q: float
    p_window: Window
    q_window: Window
    genuine_p_window: Window
    genuine_q_window: Window
    intermediates: dict[str, float]


class Routes(NamedTuple):
    """One (pair, witness) candidate: regime, the strength its numerators read
    (S_NL, or K, which is positive), and the p- and q-route numerators."""

    regime: str
    strength: float
    lower_numerator: float
    upper_numerator: float


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


def product_spectrum(states: Sequence[DensityMatrix], roots: np.ndarray,
                     pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """Ascending spectrum of each state times its embedded reduced pair, one row per member
    of the stack, from the pair's Hermitian square root.

    The raw product rho E, E = embed(rho_ij), is not Hermitian. But
    E^{1/2} = embed(root_ij), and for any square A and B the products AB
    and BA share their spectrum, so rho E = (rho E^{1/2}) E^{1/2} has the
    spectrum of the congruence E^{1/2} rho E^{1/2}, which is Hermitian.
    The similarity needs the embedded pair to be PSD, not the state. Every
    pair that reaches it is a marginal of a validated state or a validated
    designated matrix, and linalg.eigen_root clips its tolerance band.

    The states come as a sequence, the roots as a (k, 4, 4) stack and one
    pair per member, lifted by one embed_pair call and solved in one
    call. One state is the stack of one.
    """
    return linalg.congruence_eigenvalues(embed_pair(roots, pairs),
                                         np.array([rho.matrix for rho in states]))


def _bound(numerator: float, weight: float, denominator: float) -> float:
    """8 (1 - w) N / (w D), the shape of every bound: w is the weight of the
    mixture of the Svetlichny operator with the lifted witness, not a noise
    visibility of the state."""
    return 8.0 * (1.0 - weight) * numerator / (weight * denominator)


def _window_edges(numerator, denominator) -> tuple:
    """(cutoff, edge) of one route, elementwise over arrays.

    The route's bound reaches the biseparable threshold at the edge
    2N/(2N + D), where the admissible window [edge, 1) opens, and the
    quantum maximum at the cutoff sqrt(2) N/(sqrt(2) N + D),
    where the genuine window [cutoff, edge) opens. A numerator that is not
    finite (a huge user witness overflows H or F) opens no window, and
    would only make NaN edges; nor does a finite one so large that 2N
    overflows, which would make them before any arithmetic warned.
    """
    infinite = ~np.isfinite(numerator)
    if _anywhere(infinite):
        raise BoundsError(f"window numerator {_first(numerator, infinite)} is not finite")
    huge = abs(numerator) > _EDGE_NUMERATOR_MAX
    if _anywhere(huge):
        raise BoundsError(f"window numerator {_first(numerator, huge)} is too large: "
                          "its window edges overflow")
    edge_den = 2.0 * numerator + denominator
    cutoff_den = _SQRT2 * numerator + denominator
    if _anywhere((abs(edge_den) <= SINGULAR_TOL) | (abs(cutoff_den) <= SINGULAR_TOL)):
        raise SingularDenominatorError("window denominator vanished")
    return _SQRT2 * numerator / cutoff_den, 2.0 * numerator / edge_den


class PairSpectra(NamedTuple):
    """Every spectral number the certificates read, for one (state, pair) or for a stack of them.

    stack_record fills it, over a stack of points, from each state's
    spectrum, from the spectra of the reduced pair and its partial
    transpose, and from the extremes of the product congruence
    embed(rho_ij)^{1/2} rho embed(rho_ij)^{1/2} (product_spectrum, with
    the pair's root from the pair's own solve). Embedding the pair only
    doubles multiplicities, so the embedded extremes are read off the 4x4
    spectrum. Beside the numbers it keeps the reduced pair's matrix, its
    square root and the product rho_ij rho_ij^T, which are None, as are
    the partial-transpose numbers, in records built from listed data that
    lacks them. A stack record holds arrays over the stack in its number
    fields and a (k, 4, 4) stack in each matrix field; points cuts it into
    one record of floats per point. As a tuple, its ==, hash and repr read
    all thirteen fields, the matrices included.

    The methods are the certificate arithmetic. pairings(witness) gives
    the two witness pairings the strengths read; routes(witness) is the
    one regime dispatch on them, for a record of one point; detected
    (from S_NL) and undetected (from K) give the two regimes' numerators
    to callers that hold the strength already. bounds, window_edges and
    windows read a Routes value: the lower route divides by lambda_max of
    the embedded pair, the upper route by lambda_k. The paper's undetected
    2 (1 - q) F/(q lambda_k) is the upper shape with numerator F/4.

    pairings, detected, undetected, bounds, window_edges and witness_max
    also work elementwise: on a strength given as an array, and on a stack
    record. Each guard then checks the whole array and raises as it does
    for one number.
    """

    lambda_min_rho: float
    lambda_max_rho: float
    lambda_max_embedded: float
    lambda_k_embedded: float
    lambda_min_product: float
    lambda_max_product: float
    lambda_max_pt: float | None = None
    lambda_min_pt_squared: float | None = None
    trace_pt_squared: float | None = None
    negativity: float | None = None
    reduced_root: np.ndarray | None = None
    reduced: np.ndarray | None = None
    reduced_pt_product: np.ndarray | None = None

    def points(self) -> list[PairSpectra]:
        """A stack record cut into one record per point: floats in its number fields, one 4x4
        matrix in each matrix field."""
        return [PairSpectra(*point) for point in
                zip(*(c if c.ndim == 3 else c.tolist() for c in self))]

    @property
    def lambda_k(self) -> float:
        """First nonzero embedded eigenvalue, checked for use as a divisor."""
        if _anywhere(self.lambda_k_embedded <= SINGULAR_TOL):
            raise SingularDenominatorError("smallest nonzero embedded eigenvalue vanished")
        return self.lambda_k_embedded

    def routes(self, witness: np.ndarray) -> Routes:
        """The candidate under this witness, evaluated on every call.

        An undetected candidate with K <= 0 raises WindowParameterError
        before any solve: the replacement strength is undefined there.
        """
        w = np.asarray(witness, dtype=complex)
        pairing, product_pairing = map(float, self.pairings(w))
        if pairing < 0.0:
            return self.detected(float(s_nl_from_pairing(pairing)))
        k = positive_k(k_from_pairing(product_pairing, self.negativity))
        return self.undetected(k, self.witness_max(w))

    def pairings(self, witness: np.ndarray) -> tuple:
        """(Tr[W rho_ij], Tr[W rho_ij rho_ij^T]), the pairings S_NL and K read; one per point
        of a stack record."""
        w = np.asarray(witness, dtype=complex)
        return tuple(linalg.trace_product(w, m) for m in (self.reduced, self.reduced_pt_product))

    def witness_max(self, witness: np.ndarray):
        """lambda_max(rho_ij^{1/2} W rho_ij^{1/2}), the top of the spectrum of W rho_ij,
        checked for use as a divisor; one per point of a stack record, from one stacked solve."""
        wr_max = linalg.congruence_eigenvalues(
            self.reduced_root, np.asarray(witness, dtype=complex))[..., -1]
        if _anywhere(abs(wr_max) <= SINGULAR_TOL):
            raise SingularDenominatorError("witness-state product has no spectral radius")
        return wr_max if wr_max.ndim else float(wr_max)

    def detected(self, s_nl: float) -> Routes:
        """Both numerators of the detected regime, from S_NL."""
        return Routes("detected", s_nl,
                      self.lambda_min_product + 2.0 * s_nl * self.lambda_max_rho,
                      self.lambda_max_product + 2.0 * s_nl * self.lambda_min_rho)

    def undetected(self, k: float, wr_max: float | None) -> Routes:
        """H and F/4, the numerators of the undetected regime, from K.

        F's witness correction carries a factor lambda_min(rho), so a
        state with lambda_min(rho) = 0 drops it and needs no wr_max; on a
        stack record, each point with lambda_min(rho) = 0 drops it.
        """
        pt2_min = self.lambda_min_pt_squared
        if _anywhere(pt2_min <= SINGULAR_TOL):
            raise SingularDenominatorError("squared partial transpose is singular")
        h = self.lambda_min_product - (
            k * self.negativity * self.lambda_max_pt * self.lambda_max_rho / pt2_min)
        f = 4.0 * self.lambda_max_product
        corrected = self.lambda_min_rho != 0.0
        if _anywhere(corrected):
            f_corrected = f - (self.lambda_min_rho / wr_max) * (
                8.0 * self.negativity * k - self.trace_pt_squared)
            f = (np.where(corrected, f_corrected, f) if isinstance(corrected, np.ndarray)
                 else f_corrected)
        return Routes("undetected", k, h, f / 4.0)

    def bounds(self, routes: Routes, p: float, q: float) -> tuple[float, float]:
        """The lower route's bound at weight p and the upper route's at weight q.

        A numerator below the window limit can still overflow its bound (a
        huge user witness at a small weight), which raises, as a window end
        that is not finite does.
        """
        pair = (_bound(routes.lower_numerator, p, self.lambda_max_embedded),
                _bound(routes.upper_numerator, q, self.lambda_k))
        for end, bound in zip(("lower", "upper"), pair):
            infinite = (~np.isfinite(bound) if isinstance(bound, np.ndarray)
                        else not math.isfinite(bound))
            if _anywhere(infinite):
                raise BoundsError(f"{end} bound {_first(bound, infinite)} is not finite")
        return pair

    def window_edges(self, routes: Routes) -> tuple[tuple, tuple]:
        """(cutoff, edge) of the lower route in p, then of the upper route in q.

        The undetected lower route fires with H < 0 and so meets the
        negative thresholds, which flips the sign of lambda_max.
        """
        sign = 1.0 if routes.regime == "detected" else -1.0
        return (_window_edges(routes.lower_numerator, sign * self.lambda_max_embedded),
                _window_edges(routes.upper_numerator, self.lambda_k))

    def windows(self, routes: Routes) -> tuple[tuple[Window, Window], tuple[Window, Window]]:
        """(admissible, genuine) windows of the lower route in p, then of the upper route in q,
        for a record of numbers. Both admissible windows close at 1, the end of the weights'
        domain (0, 1]: the paper's detected p window end 2N/(2N - lambda_max) applies only
        where 2N > lambda_max >= 0, and there it exceeds 1."""
        (p_cutoff, p_edge), (q_cutoff, q_edge) = self.window_edges(routes)
        return ((Window(p_edge, 1.0), Window(p_cutoff, p_edge)),
                (Window(q_edge, 1.0), Window(q_cutoff, q_edge)))


def stack_record(states: Sequence[DensityMatrix], reductions: np.ndarray,
                 pairs: Sequence[tuple[str, str]]) -> PairSpectra:
    """The one record builder: the record of a stack of (state, reduction, pair) points, each
    number field an array over the stack and each matrix field a (k, 4, 4) stack.

    The reductions come as one (k, 4, 4) stack, one pair per member; the
    pairs are the caller's to check. Each state's spectrum is the one
    validation solved. The reductions are solved with their eigenvectors
    in one gated call, and their roots come from those eigensystems. A
    partial transpose only moves entries, and it commutes with the
    adjoint, so a reduction passes the gates exactly when its partial
    transpose does: the partial transposes, from one stacked call, go
    straight to the solver's LAPACK step, without eigenvectors. A
    validated state's reductions are exactly Hermitian, so the gates would
    leave them as they are. The negativity and the other partial-transpose
    numbers come from partial_transpose_numbers, the formula
    states.negativity reads, and the products from the roots, in one
    stacked product_spectrum call.
    """
    state_values = np.array([rho.spectrum for rho in states])
    reduced_values, reduced_vectors = linalg.hermitian_eigensystem(reductions)
    transposes = partial_transposes(reductions)
    pt_values = linalg._solve(transposes, vectors=False)
    roots = linalg.eigen_root(reduced_values, reduced_vectors)
    n, pt_max, pt2_min, pt2_trace = partial_transpose_numbers(pt_values)
    products = product_spectrum(states, roots, pairs)
    return PairSpectra(lambda_min_rho=state_values[:, 0], lambda_max_rho=state_values[:, -1],
                       lambda_max_embedded=reduced_values[:, -1],
                       lambda_k_embedded=linalg.first_nonzero_eigenvalue(reduced_values),
                       lambda_min_product=products[:, 0], lambda_max_product=products[:, -1],
                       lambda_max_pt=pt_max, lambda_min_pt_squared=pt2_min,
                       trace_pt_squared=pt2_trace, negativity=n, reduced_root=roots,
                       reduced=reductions, reduced_pt_product=reductions @ transposes)


def pair_records(rho_abc: DensityMatrix, pairs: Iterable[tuple[str, str]] = SEARCH_ORDER
                 ) -> list[tuple[tuple[str, str], PairSpectra]]:
    """(pair, record) for each pair, as a tuple, all built together from one marginals gather."""
    pairs = [tuple(pair) for pair in pairs]
    stack = np.broadcast_to(rho_abc.matrix, (len(pairs), *rho_abc.matrix.shape))
    return list(zip(pairs, stack_record([rho_abc] * len(pairs), marginals(stack, pairs),
                                        pairs).points()))


def full_report(rho_abc: DensityMatrix, cfg: BoundConfig) -> BoundsReport:
    """Evaluate the applicable route pair and collect every intermediate."""
    ((_, spectra),) = pair_records(rho_abc, [cfg.reduced_pair])
    return _report(spectra, cfg.witness, (cfg.p, cfg.q))


def midpoint_report(spectra: PairSpectra, witness: np.ndarray) -> BoundsReport:
    """The record's report at its genuine-window midpoints (0.5 where one is empty)."""
    return _report(spectra, witness, None)


def _report(spectra: PairSpectra, witness: np.ndarray,
            pq: tuple[float, float] | None) -> BoundsReport:
    routes = spectra.routes(witness)
    low, high = routes.lower_numerator, routes.upper_numerator
    emb_max = spectra.lambda_max_embedded
    lam_k = spectra.lambda_k
    (p_adm, p_gen), (q_adm, q_gen) = spectra.windows(routes)
    # the windows do not depend on p or q, so one evaluation serves the midpoints
    p, q = pq if pq is not None else (0.5 if w.empty else w.midpoint for w in (p_gen, q_gen))
    sv_lower, sv_upper = spectra.bounds(routes, p, q)
    intermediates = {
        "lambda_min_product": spectra.lambda_min_product,
        "lambda_max_product": spectra.lambda_max_product,
        "lambda_max_embedded": emb_max,
        "lambda_k_embedded": lam_k,
        "lambda_min_rho": spectra.lambda_min_rho,
        "lambda_max_rho": spectra.lambda_max_rho,
        "Z": spectra.negativity * spectra.lambda_max_pt,
    }
    if routes.regime == "detected":
        intermediates.update(d1_plus=2.0 * low + emb_max, d1_minus=2.0 * low - emb_max,
                             d2_plus=2.0 * high + lam_k, d2_minus=2.0 * high - lam_k,
                             s_nl=routes.strength)
    else:
        # the reported strength, at the default weight, is formed here only
        strength = undetected_strength(
            routes.strength, p_max_optimal(DensityMatrix(qubits=2, matrix=spectra.reduced)))
        g = (spectra.lambda_max_rho * strength.k * intermediates["Z"]
             / (p * spectra.lambda_min_pt_squared * emb_max))
        intermediates.update(H=low, F=4.0 * high, G=g, s_nl_new=strength.s_nl_new,
                             k=strength.k, p_max=strength.p_max, r=strength.r)
    return BoundsReport(regime=routes.regime, sv_lower=sv_lower, sv_upper=sv_upper, p=p, q=q,
                        p_window=p_adm, q_window=q_adm, genuine_p_window=p_gen,
                        genuine_q_window=q_gen, intermediates=intermediates)


def detect_genuine(rho_abc: DensityMatrix, pair: tuple[str, str] | None = None,
                   witness: np.ndarray | None = None) -> Verdict:
    """Search reduced pairs and witnesses for a firing certificate.

    Tries every reduced pair (or just the requested one) against the three
    plane witnesses plus any user witness, detected routes before
    undetected, in a fixed order so the answer is deterministic. The first
    nonempty genuine window wins. With no firing window the verdict is
    inconclusive when some pair was entangled, not-applicable otherwise.
    """
    return search_records(pair_records(rho_abc, SEARCH_ORDER if pair is None else (pair,)),
                          witness)


def search_records(records: Iterable[tuple[tuple[str, str], PairSpectra]],
                   witness: np.ndarray | None = None) -> Verdict:
    """detect_genuine's search over (pair, record) items, in their order.

    A user witness is checked before any candidate. A candidate whose
    strength or windows cannot be formed (zero negativity, K <= 0, a
    vanished denominator) raises one of CANDIDATE_ERRORS and is skipped.
    """
    witnesses: list[tuple[str, np.ndarray]] = [
        (plane, plane_witness(plane)) for plane in PLANES
    ]
    if witness is not None:
        witnesses.append(("user", witness_matrix(witness)))

    any_entangled = False
    for candidate_pair, spectra in records:
        if spectra.negativity > NEG_TOL:
            any_entangled = True
        for label, w in witnesses:
            try:
                routes = _candidate_windows(spectra, w)
            except CANDIDATE_ERRORS:
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
    """The candidate's two genuine windows, the only ones the search reads, tagged by route."""
    routes = spectra.routes(witness)
    (p_cutoff, p_edge), (q_cutoff, q_edge) = spectra.window_edges(routes)
    return [(f"{routes.regime}-p", "p", Window(p_cutoff, p_edge)),
            (f"{routes.regime}-q", "q", Window(q_cutoff, q_edge))]

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
is undefined.

One PairSpectra record per (state, pair) holds every number the routes
read, and its methods are the only certificate arithmetic; each (pair,
witness) is evaluated once, into the Routes value that the report and
the search read. build_records builds the records of many (state,
reduction, pair) triples together: each state's eigensystem is the one
validation solved, and one stacked solve covers the partial transposes
and the reductions not solved yet. A record's 8x8 product spectrum is
solved only when a route reads it; solve_products and witness_maxima
solve the products and the witness congruences of many records in one
stacked call each, through the same congruence the single-record reads
solve.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from typing import NamedTuple

import numpy as np

from . import linalg
from .nonlocality import (
    NonlocalityError,
    NEG_TOL,
    _anywhere,
    is_detected,
    k_from_negativity,
    p_max_optimal,
    positive_k,
    s_nl_detected,
    undetected_strength,
)
from .operators import PLANES, plane_witness
from .states import (
    DensityMatrix,
    LABELS,
    partial_transpose,
    partial_transpose_numbers,
    reduce_to_pair,
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


def _pair_positions(pair: tuple[str, str]) -> tuple[int, int]:
    if len(pair) != 2 or len(set(pair)) != 2:
        raise BoundsError(f"reduced pair must name two distinct qubits, got {pair}")
    try:
        return tuple(LABELS.index(label) for label in pair)
    except ValueError:
        raise BoundsError(f"pair labels must come from {LABELS}, got {pair}") from None


def _embedding_index(pair: tuple[str, str]) -> np.ndarray:
    """Where each entry of the lift reads from op.reshape(16) with a zero appended.

    Entry (r, c) is op[pair bits of r, pair bits of c] when r and c agree
    on the spectator qubit, and zero (index 16) otherwise.
    """
    first, second = _pair_positions(pair)
    bits = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1  # columns A, B, C
    sub = 2 * bits[:, first] + bits[:, second]
    spectator = bits[:, 3 - first - second]
    return np.where(spectator[:, None] == spectator[None, :], 4 * sub[:, None] + sub[None, :], 16)


_EMBEDDING = {pair: _embedding_index(pair) for pair in permutations(LABELS, 2)}


def embed_pair(op_pair: np.ndarray, pair: tuple[str, str] = ("B", "C")) -> np.ndarray:
    """Lift a two-qubit operator, or each of a (k, 4, 4) stack, to three qubits, identity on the rest.

    The pair is ordered: its first label takes the operator's first tensor
    slot. Basis convention is |abc> at index 4a + 2b + c.
    """
    op = np.asarray(op_pair, dtype=complex)
    if op.ndim not in (2, 3) or op.shape[-2:] != (4, 4):
        raise BoundsError("pair operator must be 4x4")
    _pair_positions(pair)
    flat = op.reshape(op.shape[:-2] + (16,))
    padded = np.concatenate([flat, np.zeros(op.shape[:-2] + (1,), dtype=complex)], axis=-1)
    return padded[..., _EMBEDDING[tuple(pair)]]


def product_spectrum(rho_abc: DensityMatrix, rho_ij: DensityMatrix,
                     pair: tuple[str, str] = ("B", "C")) -> np.ndarray:
    """Ascending spectrum of the state times the embedded reduced pair.

    The raw product is not Hermitian, but it is similar to the congruence
    of the embedded operator by the square root of the state, so its
    spectrum is real whenever the state is a genuine density matrix. A
    hermiticity failure of the congruence signals an invalid input.
    product_spectra solves the same congruence for a stack.
    """
    return _product_spectra(*rho_abc.eigensystem, rho_ij.matrix, pair)


def product_spectra(states: Sequence[DensityMatrix], reductions: Sequence[DensityMatrix],
                    pair: tuple[str, str] = ("B", "C")) -> np.ndarray:
    """product_spectrum of each (state, reduction), one row each, from one stacked congruence solve."""
    values, vectors = (np.array(part) for part in zip(*(rho.eigensystem for rho in states)))
    return _product_spectra(values, vectors, np.array([rho.matrix for rho in reductions]), pair)


def _product_spectra(values: np.ndarray, vectors: np.ndarray, reduced: np.ndarray,
                     pair: tuple[str, str]) -> np.ndarray:
    """The product congruence's spectrum for one state or a stack, its root taken from the
    eigensystem that validation solved."""
    return linalg.congruence_eigenvalues(linalg.eigen_root(values, vectors),
                                         embed_pair(reduced, pair))


def _bound(numerator: float, visibility: float, denominator: float) -> float:
    """8 (1 - v) N / (v D), the shape of every visibility bound."""
    return 8.0 * (1.0 - visibility) * numerator / (visibility * denominator)


def _window_edges(numerator, denominator, admissible_upper=1.0) -> tuple:
    """(cutoff, edge, admissible_upper) of one route, elementwise over arrays.

    The route's bound reaches the biseparable threshold at the edge
    2N/(2N + D), where the admissible window [edge, admissible_upper)
    opens, and the quantum maximum at the cutoff sqrt(2) N/(sqrt(2) N + D),
    where the genuine window [cutoff, edge) opens.
    """
    edge_den = 2.0 * numerator + denominator
    cutoff_den = _SQRT2 * numerator + denominator
    if _anywhere((abs(edge_den) <= SINGULAR_TOL) | (abs(cutoff_den) <= SINGULAR_TOL)):
        raise SingularDenominatorError("window denominator vanished")
    return _SQRT2 * numerator / cutoff_den, 2.0 * numerator / edge_den, admissible_upper


@dataclass(frozen=True)
class PairSpectra:
    """Every spectral number the certificates read, for one (state, pair).

    The builder fills it from the state's eigensystem and from the spectra
    of the reduced pair and its partial transpose. Embedding the pair only
    doubles multiplicities, so the embedded extremes are read off the 4x4
    spectrum. The extremes of the product congruence
    rho^{1/2} embed(rho_ij) rho^{1/2} are solved on first read
    (product_spectrum, with the root from the same eigensystem), or given
    as listed_product. The
    partial-transpose numbers, the reduced pair, its labels and square
    root and the state are None in records built from listed data that
    lacks them.

    The methods are the certificate arithmetic. routes(witness) is the
    one regime dispatch; detected (from S_NL) and undetected (from K)
    give the two regimes' numerators to callers that hold the strength
    already. bounds, window_edges and windows read a Routes value: the
    lower route divides by lambda_max of the embedded pair, the upper
    route by lambda_k. The paper's undetected 2 (1 - q) F/(q lambda_k) is
    the upper shape with numerator F/4.

    detected, undetected, bounds and window_edges also work elementwise:
    on a strength given as an array, and on a record whose number fields
    (listed_product included) are arrays over a grid. Each guard then
    checks the whole array and raises as it does for one number.
    """

    lambda_min_rho: float
    lambda_max_rho: float
    lambda_max_embedded: float
    lambda_k_embedded: float
    listed_product: tuple[float | None, float | None] | None = None
    lambda_max_pt: float | None = None
    lambda_min_pt_squared: float | None = None
    trace_pt_squared: float | None = None
    negativity: float | None = None
    reduced_root: np.ndarray | None = field(default=None, repr=False, compare=False)
    reduced: DensityMatrix | None = field(default=None, repr=False, compare=False)
    pair: tuple[str, str] | None = None
    state: DensityMatrix | None = field(default=None, repr=False, compare=False)
    _routes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def product(self) -> tuple[float, float]:
        """(lambda_min, lambda_max) of the product congruence, solved on first read only.

        solve_products fills it for many records at once.
        """
        if self.listed_product is not None:
            return self.listed_product
        return _extremes(product_spectrum(self.state, self.reduced, self.pair))

    @property
    def lambda_min_product(self) -> float:
        return self.product[0]

    @property
    def lambda_max_product(self) -> float:
        return self.product[1]

    @property
    def lambda_k(self) -> float:
        """First nonzero embedded eigenvalue, checked for use as a divisor."""
        if _anywhere(self.lambda_k_embedded <= SINGULAR_TOL):
            raise SingularDenominatorError("smallest nonzero embedded eigenvalue vanished")
        return self.lambda_k_embedded

    def routes(self, witness: np.ndarray) -> Routes:
        """The candidate under this witness, cached by the witness's value.

        An undetected candidate with K <= 0 raises WindowParameterError
        before any solve: the replacement strength is undefined there.
        """
        w = np.asarray(witness, dtype=complex)
        key = w.tobytes()
        if key not in self._routes:
            if is_detected(self.reduced, w):
                routes = self.detected(s_nl_detected(self.reduced, w))
            else:
                k = positive_k(k_from_negativity(self.reduced, w, self.negativity))
                routes = self.undetected(k, self.witness_max(w))
            self._routes[key] = routes
        return self._routes[key]

    def witness_max(self, witness: np.ndarray) -> float:
        """lambda_max(rho_ij^{1/2} W rho_ij^{1/2}), the top of the spectrum of W rho_ij."""
        return _witness_maxima(self.reduced_root, witness)[0]

    def detected(self, s_nl: float) -> Routes:
        """Both numerators of the detected regime, from S_NL."""
        return Routes("detected", s_nl,
                      self.lambda_min_product + 2.0 * s_nl * self.lambda_max_rho,
                      self.lambda_max_product + 2.0 * s_nl * self.lambda_min_rho)

    def undetected(self, k: float, wr_max: float | None) -> Routes:
        """H and F/4, the numerators of the undetected regime, from K.

        F's witness correction carries a factor lambda_min(rho), so a
        state with lambda_min(rho) = 0 drops it and needs no wr_max; on a
        grid record, each point with lambda_min(rho) = 0 drops it.
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
        """The lower route's bound at visibility p and the upper route's at q."""
        return (_bound(routes.lower_numerator, p, self.lambda_max_embedded),
                _bound(routes.upper_numerator, q, self.lambda_k))

    def window_edges(self, routes: Routes) -> tuple[tuple, tuple]:
        """(cutoff, edge, admissible upper) of the lower route in p, then of the upper route in q.

        The undetected lower route fires with H < 0 and so meets the
        negative thresholds, which flips the sign of lambda_max. The
        detected admissible p window closes at 2N/(2N - lambda_max) when
        that denominator is positive, at 1 otherwise.
        """
        low, emb_max = routes.lower_numerator, self.lambda_max_embedded
        if routes.regime == "detected":
            d_minus = 2.0 * low - emb_max
            closes = d_minus > 0.0
            # the inner where keeps a non-positive d_minus out of the division
            p_edges = _window_edges(low, emb_max, np.where(
                closes, 2.0 * low / np.where(closes, d_minus, 1.0), 1.0))
        else:
            p_edges = _window_edges(low, -emb_max)
        return p_edges, _window_edges(routes.upper_numerator, self.lambda_k)

    def windows(self, routes: Routes) -> tuple[tuple[Window, Window], tuple[Window, Window]]:
        """(admissible, genuine) windows of the lower route in p, then of the upper route in q,
        for a record of numbers."""
        (p_cutoff, p_edge, p_upper), (q_cutoff, q_edge, q_upper) = self.window_edges(routes)
        return ((Window(p_edge, p_upper), Window(p_cutoff, p_edge)),
                (Window(q_edge, q_upper), Window(q_cutoff, q_edge)))


def pair_spectra(rho_abc: DensityMatrix, rho_ij: DensityMatrix,
                 pair: tuple[str, str] = ("B", "C")) -> PairSpectra:
    """The record of one reduced pair: build_records on a stack of one."""
    _pair_positions(pair)
    return build_records([rho_abc], [rho_ij], [pair])[0]


def build_records(states: Sequence[DensityMatrix], reductions: Sequence[DensityMatrix],
                  pairs: Sequence[tuple[str, str]]) -> list[PairSpectra]:
    """One record per (state, reduction, pair), from one gated solve of their 4x4 matrices.

    Each state's eigensystem is the one validation computed. The stack
    holds every second-qubit partial transpose, then each reduction whose
    eigensystem is not solved yet (a validated reduction, such as
    maximal-slice's designated matrix, arrives solved); the reductions'
    square roots come from those eigensystems. The negativity and the
    other partial-transpose numbers come from partial_transpose_numbers,
    the formula states.negativity reads. The pairs are the caller's to
    check.
    """
    k = len(reductions)
    cached = [rho.__dict__.get("eigensystem") for rho in reductions]
    values, vectors = linalg.hermitian_eigensystem(
        [partial_transpose(rho) for rho in reductions]
        + [rho.matrix for rho, system in zip(reductions, cached) if system is None])
    reduced_values, reduced_vectors = values[k:], vectors[k:]
    if any(system is not None for system in cached):
        solved = zip(reduced_values, reduced_vectors)
        reduced_values, reduced_vectors = (np.array(part) for part in zip(*(
            system or next(solved) for system in cached)))
    roots = linalg.eigen_root(reduced_values, reduced_vectors)
    records = []
    for i, (rho_abc, rho_ij, pair) in enumerate(zip(states, reductions, pairs)):
        state_values = rho_abc.eigensystem[0]
        n, pt_max, pt2_min, pt2_trace = partial_transpose_numbers(values[i])
        records.append(PairSpectra(
            lambda_min_rho=float(state_values[0]),
            lambda_max_rho=float(state_values[-1]),
            lambda_max_embedded=float(reduced_values[i, -1]),
            lambda_k_embedded=linalg.first_nonzero_eigenvalue(reduced_values[i]),
            lambda_max_pt=pt_max,
            lambda_min_pt_squared=pt2_min,
            trace_pt_squared=pt2_trace,
            negativity=n,
            reduced_root=roots[i],
            reduced=rho_ij,
            pair=pair,
            state=rho_abc,
        ))
    return records


def _extremes(spectrum: np.ndarray) -> tuple[float, float]:
    return tuple(spectrum[[0, -1]].tolist())


def solve_products(records: Sequence[PairSpectra]) -> None:
    """Fill the product of every record built from a state that has not read it yet,
    with one stacked congruence solve per pair."""
    pending = [r for r in records if r.state is not None and "product" not in r.__dict__]
    for pair in dict.fromkeys(r.pair for r in pending):
        group = [r for r in pending if r.pair == pair]
        spectra = product_spectra([r.state for r in group], [r.reduced for r in group], pair)
        for record, spectrum in zip(group, spectra):
            record.__dict__["product"] = _extremes(spectrum)


def witness_maxima(records: Sequence[PairSpectra], witness: np.ndarray) -> list[float]:
    """PairSpectra.witness_max of each record, from one stacked congruence solve."""
    return _witness_maxima(np.array([record.reduced_root for record in records]), witness)


def _witness_maxima(roots: np.ndarray, witness: np.ndarray) -> list[float]:
    """Top of the spectrum of root W root, for one root or each of a stack,
    each checked for use as a divisor."""
    maxima = linalg.congruence_eigenvalues(
        roots, np.asarray(witness, dtype=complex))[..., -1:].reshape(-1).tolist()
    if any(abs(wr_max) <= SINGULAR_TOL for wr_max in maxima):
        raise SingularDenominatorError("witness-state product has no spectral radius")
    return maxima


def pair_records(rho_abc: DensityMatrix, pairs: Iterable[tuple[str, str]] = SEARCH_ORDER
                 ) -> list[tuple[tuple[str, str], PairSpectra]]:
    """(pair, record) for each pair, all built together; products are solved as read."""
    pairs = list(pairs)
    for pair in pairs:
        _pair_positions(pair)
    return list(zip(pairs, build_records(
        [rho_abc] * len(pairs), [reduce_to_pair(rho_abc, p) for p in pairs], pairs)))


def full_report(rho_abc: DensityMatrix, cfg: BoundConfig) -> BoundsReport:
    """Evaluate the applicable route pair and collect every intermediate."""
    spectra = pair_spectra(rho_abc, reduce_to_pair(rho_abc, cfg.reduced_pair), cfg.reduced_pair)
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
        intermediates.update(
            {
                "d1_plus": 2.0 * low + emb_max,
                "d1_minus": 2.0 * low - emb_max,
                "d2_plus": 2.0 * high + lam_k,
                "d2_minus": 2.0 * high - lam_k,
                "s_nl": routes.strength,
            }
        )
    else:
        # the reported strength, at the default weight, is formed here only
        strength = undetected_strength(routes.strength, p_max_optimal(spectra.reduced))
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
        regime=routes.regime,
        sv_lower=sv_lower,
        sv_upper=sv_upper,
        p=p,
        q=q,
        p_window=p_adm,
        q_window=q_adm,
        genuine_p_window=p_gen,
        genuine_q_window=q_gen,
        intermediates=intermediates,
    )


def detect_genuine(rho_abc: DensityMatrix, pair: tuple[str, str] | None = None,
                   witness: np.ndarray | None = None) -> Verdict:
    """Search reduced pairs and witnesses for a firing certificate.

    Tries every reduced pair (or just the requested one) against the three
    plane witnesses plus any user witness, detected routes before
    undetected, in a fixed order so the answer is deterministic. The first
    nonempty genuine window wins. With no firing window the verdict is
    inconclusive when some pair was entangled, not-applicable otherwise.
    Each pair's product is solved only when its candidates read it.
    """
    return search_records(pair_records(rho_abc, SEARCH_ORDER if pair is None else (pair,)),
                          witness)


def search_records(records: Iterable[tuple[tuple[str, str], PairSpectra]],
                   witness: np.ndarray | None = None) -> Verdict:
    """detect_genuine's search over (pair, record) items, in their order.

    A candidate whose strength or windows cannot be formed (zero
    negativity, K <= 0, a vanished denominator) is skipped.
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
    routes = spectra.routes(witness)
    (_, p_gen), (_, q_gen) = spectra.windows(routes)
    return [(f"{routes.regime}-p", "p", p_gen), (f"{routes.regime}-q", "q", q_gen)]

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
the search read. One column builder reads the numbers of many (state,
reduction, pair) points together, one array per field: each state's
eigensystem is the one validation solved, the reductions are gated as
one stack, their partial transposes' spectra are solved without
eigenvectors in one call, the reductions not solved yet with them, for
their roots, in one more, and the products in one stacked
product_spectrum call. build_records cuts the columns into one record
of floats per point; grid_record keeps them as one record of arrays
over a grid on one pair, whose witness maxima come from one more
stacked solve.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import permutations
from typing import NamedTuple

import numpy as np

from . import linalg
from .nonlocality import (
    NonlocalityError,
    NEG_TOL,
    _anywhere,
    k_from_negativity,
    p_max_optimal,
    positive_k,
    s_nl_from_pairing,
    undetected_strength,
)
from .operators import PLANES, plane_witness, witness_matrix
from .states import (
    DensityMatrix,
    pair_positions,
    partial_transpose_numbers,
    partial_transposes,
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


# Raised by a candidate that cannot be formed: the search skips it, svet analyze reports it.
CANDIDATE_ERRORS = (NonlocalityError, BoundsError, linalg.LinalgError)


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
        object.__setattr__(self, "witness", witness_matrix(self.witness))
        pair_positions(self.reduced_pair)


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


def _embedding_index(first: int, second: int) -> np.ndarray:
    """Where each entry of the lift reads from op.reshape(16) with a zero appended.

    first and second are the pair's positions in LABELS. Entry (r, c) is
    op[pair bits of r, pair bits of c] when r and c agree on the spectator
    qubit, and zero (index 16) otherwise.
    """
    bits = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1  # columns A, B, C
    sub = 2 * bits[:, first] + bits[:, second]
    spectator = bits[:, 3 - first - second]
    return np.where(spectator[:, None] == spectator[None, :], 4 * sub[:, None] + sub[None, :], 16)


_EMBEDDING = {pair: _embedding_index(*pair) for pair in permutations(range(3), 2)}  # by position


def embed_pair(op_pair: np.ndarray, pair: tuple[str, str] = ("B", "C")) -> np.ndarray:
    """Lift a two-qubit operator, or each of a (k, 4, 4) stack, to three qubits, identity on the rest.

    The pair is ordered: its first label takes the operator's first tensor
    slot. Basis convention is |abc> at index 4a + 2b + c.
    """
    op = np.asarray(op_pair, dtype=complex)
    if op.ndim not in (2, 3) or op.shape[-2:] != (4, 4):
        raise BoundsError("pair operator must be 4x4")
    index = _EMBEDDING[pair_positions(pair)]
    flat = op.reshape(op.shape[:-2] + (16,))
    padded = np.concatenate([flat, np.zeros(op.shape[:-2] + (1,), dtype=complex)], axis=-1)
    return padded[..., index]


def product_spectrum(rho_abc: DensityMatrix | Sequence[DensityMatrix],
                     rho_ij: DensityMatrix | Sequence[DensityMatrix],
                     pair: tuple[str, str] | Sequence[tuple[str, str]] = ("B", "C")) -> np.ndarray:
    """Ascending spectrum of the state times the embedded reduced pair, or one row of it per
    member of a stack.

    The raw product is not Hermitian, but it is similar to the congruence
    of the embedded operator by the square root of the state, so its
    spectrum is real whenever the state is a genuine density matrix. A
    hermiticity failure of the congruence signals an invalid input. The
    root comes from the eigensystem that validation solved.

    A stack gives the states and reductions as equal-length sequences and
    one pair per member, and solves them all in one call; a stack on one
    pair is embedded by one gather. One state is the stack of one.
    """
    single = isinstance(rho_abc, DensityMatrix)
    states, reductions, pairs = ([rho_abc], [rho_ij], [pair]) if single else (rho_abc, rho_ij, pair)
    values, vectors = (np.array(part) for part in zip(*(rho.eigensystem for rho in states)))
    reduced = np.array([rho.matrix for rho in reductions])
    first = tuple(pairs[0])
    embedded = (embed_pair(reduced, first) if all(tuple(p) == first for p in pairs)
                else np.array([embed_pair(m, p) for m, p in zip(reduced, pairs)]))
    spectra = linalg.congruence_eigenvalues(linalg.eigen_root(values, vectors), embedded)
    return spectra[0] if single else spectra


def _bound(numerator: float, weight: float, denominator: float) -> float:
    """8 (1 - w) N / (w D), the shape of every bound: w is the weight of the
    mixture of the Svetlichny operator with the lifted witness, not a noise
    visibility of the state."""
    return 8.0 * (1.0 - weight) * numerator / (weight * denominator)


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
    """Every spectral number the certificates read, for one (state, pair) or for a grid of them.

    build_records fills it from the state's eigensystem, from the spectra
    of the reduced pair and its partial transpose, and from the extremes
    of the product congruence rho^{1/2} embed(rho_ij) rho^{1/2}
    (product_spectrum, with the root from the same eigensystem). Embedding
    the pair only doubles multiplicities, so the embedded extremes are
    read off the 4x4 spectrum. The partial-transpose numbers, the reduced
    pair and its square root are None in records built from listed data
    that lacks them. A grid record (grid_record) holds arrays over the
    grid in its number fields and reduced_root, and leaves reduced None,
    so routes, which reads the reduced pair, serves records of one point
    only.

    The methods are the certificate arithmetic. routes(witness) is the
    one regime dispatch; detected (from S_NL) and undetected (from K)
    give the two regimes' numerators to callers that hold the strength
    already. bounds, window_edges and windows read a Routes value: the
    lower route divides by lambda_max of the embedded pair, the upper
    route by lambda_k. The paper's undetected 2 (1 - q) F/(q lambda_k) is
    the upper shape with numerator F/4.

    detected, undetected, bounds, window_edges and witness_max also work
    elementwise: on a strength given as an array, and on a grid record.
    Each guard then checks the whole array and raises as it does for one
    number.
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
    reduced_root: np.ndarray | None = field(default=None, repr=False, compare=False)
    reduced: DensityMatrix | None = field(default=None, repr=False, compare=False)
    _routes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
            pairing = linalg.trace_product(w, self.reduced.matrix)
            if pairing < 0.0:
                routes = self.detected(float(s_nl_from_pairing(pairing)))
            else:
                k = positive_k(k_from_negativity(self.reduced, w, self.negativity))
                routes = self.undetected(k, self.witness_max(w))
            self._routes[key] = routes
        return self._routes[key]

    def witness_max(self, witness: np.ndarray):
        """lambda_max(rho_ij^{1/2} W rho_ij^{1/2}), the top of the spectrum of W rho_ij,
        checked for use as a divisor; one per point of a grid record, from one stacked solve."""
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
        """The lower route's bound at weight p and the upper route's at weight q."""
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
    pair_positions(pair)
    return build_records([rho_abc], [rho_ij], [pair])[0]


def build_records(states: Sequence[DensityMatrix], reductions: Sequence[DensityMatrix],
                  pairs: Sequence[tuple[str, str]]) -> list[PairSpectra]:
    """One record of floats per (state, reduction, pair), from the rows of _columns.

    The pairs are the caller's to check.
    """
    columns, roots = _columns(states, reductions, pairs)
    rows = zip(*(column.tolist() for column in columns.values()))
    return [PairSpectra(**dict(zip(columns, row)), reduced_root=root, reduced=rho_ij)
            for row, root, rho_ij in zip(rows, roots, reductions)]


def grid_record(states: Sequence[DensityMatrix], reductions: Sequence[DensityMatrix],
                pair: tuple[str, str]) -> PairSpectra:
    """One record for a grid of (state, reduction) points on one pair, each field an array:
    the columns of build_records, uncut."""
    columns, roots = _columns(states, reductions, [pair] * len(states))
    return PairSpectra(**columns, reduced_root=roots)


def _columns(states: Sequence[DensityMatrix], reductions: Sequence[DensityMatrix],
             pairs: Sequence[tuple[str, str]]) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Every number field of the records of (state, reduction, pair) points, one array each, and
    the reductions' square roots, from one gated stack of their 4x4 matrices.

    Each state's spectrum is the eigensystem validation solved.
    linalg.symmetrize gates the reductions' stack once. A partial
    transpose only moves entries, so a reduction passes the gates exactly
    when its partial transpose does, and the partial transposes of the
    gated stack are the gated partial transposes, bit for bit; their
    spectra are solved without eigenvectors. Each reduction whose
    eigensystem is not solved yet (a validated reduction, such as
    maximal-slice's designated matrix, arrives solved) is solved with
    them, and the roots come from those eigensystems. The negativity and
    the other partial-transpose numbers come from
    partial_transpose_numbers, the formula states.negativity reads, and
    the products from one stacked product_spectrum call.
    """
    state_values = np.array([rho.eigensystem[0] for rho in states])
    cached = [rho.solved_eigensystem for rho in reductions]
    unsolved = [i for i, system in enumerate(cached) if system is None]
    gated = linalg.symmetrize([rho.matrix for rho in reductions])
    pt_values = linalg._solve(partial_transposes(gated), vectors=False)
    reduced = linalg._solve(gated[unsolved], vectors=True) if unsolved else ((), ())
    if len(unsolved) < len(cached):
        solved = zip(*reduced)
        reduced = [np.array(part) for part in zip(*(system or next(solved) for system in cached))]
    reduced_values, reduced_vectors = reduced
    n, pt_max, pt2_min, pt2_trace = partial_transpose_numbers(pt_values)
    products = product_spectrum(states, reductions, pairs)
    columns = dict(lambda_min_rho=state_values[:, 0], lambda_max_rho=state_values[:, -1],
                   lambda_max_embedded=reduced_values[:, -1],
                   lambda_k_embedded=linalg.first_nonzero_eigenvalue(reduced_values),
                   lambda_min_product=products[:, 0], lambda_max_product=products[:, -1],
                   lambda_max_pt=pt_max, lambda_min_pt_squared=pt2_min,
                   trace_pt_squared=pt2_trace, negativity=n)
    return columns, linalg.eigen_root(reduced_values, reduced_vectors)


def pair_records(rho_abc: DensityMatrix, pairs: Iterable[tuple[str, str]] = SEARCH_ORDER
                 ) -> list[tuple[tuple[str, str], PairSpectra]]:
    """(pair, record) for each pair, as a tuple, all built together."""
    pairs = [tuple(pair) for pair in pairs]
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
    routes = spectra.routes(witness)
    (_, p_gen), (_, q_gen) = spectra.windows(routes)
    return [(f"{routes.regime}-p", "p", p_gen), (f"{routes.regime}-q", "q", q_gen)]

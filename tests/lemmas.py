"""Oracles for the tests: the paper's lemmas, and the closed-form check one point at a time.

Each lemma is written with numpy from the printed formula, not through
the package (PairSpectra, partial_transpose_numbers, the linalg kernel),
so that a test comparing the two checks one against the other; the
partial transpose is the one in tests/corpus.py. None of them is read by
the package itself: the certificates read K = Tr[W rho rho^T]/(4 N(rho))
directly.

- The K bounds hold for an NPT pair whose witness does not detect it
  (Tr[W rho] >= 0); outside that hypothesis they raise HypothesisError.
- The two-sided trace inequality
  lambda_min(M) Tr N <= Tr[M N] <= lambda_max(M) Tr N holds for Hermitian
  M and positive semidefinite N.
- product_extremes reads the extremes of the raw, non-Hermitian product
  rho (I x rho_ij) with numpy.linalg.eigvals, the definition that
  bounds.product_spectrum's congruence of the pair's square root stands
  in for; lift is its index-wise embedding of the pair's operator.
- report_numbers gives the numbers a report prints beyond its bounds and
  windows: d1+- and d2+- and the paper's admissible p window end in the
  detected regime, G in the undetected one. That end is never below 1,
  so a report, whose p lies in (0, 1], closes the window at 1.

closed_form_general and table_scans are the other kind of oracle: the
general route of the closed-form check and the weight and strength scans
of a table row, written one grid point at a time through the package's
scalar formulas (make_example, a stack record of one, the record's methods), against
which the package's array evaluations are compared. example_reduced is
their one-parameter designated reduction.
"""

from __future__ import annotations

import numpy as np

from svetlichny import linalg, nonlocality, reproduce, states
from svetlichny.bounds import stack_record
import corpus

NEG_TOL = 1e-12


class HypothesisError(ValueError):
    """The state or the witness falls outside a lemma's hypothesis."""


def _matrix(rho) -> np.ndarray:
    return np.asarray(getattr(rho, "matrix", rho), dtype=complex)


def _spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending spectrum of a Hermitian matrix, from numpy.linalg.eigh.

    The package reads every spectrum it needs no eigenvectors for, N's
    among them, from eigvalsh, a second LAPACK driver. N is small near the PPT border and the K bounds
    divide by it, so the two drivers move them by up to 7e-10, 1.8e-12
    relative: the tests compare them at a relative tolerance.
    """
    return np.linalg.eigh(m)[0]


def _lemma_inputs(rho, w) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(rho, rho^T, N(rho), Tr[W rho]) once the K bounds' hypotheses hold."""
    m = _matrix(rho)
    pt = corpus.partial_transpose(m)
    n = float(-np.clip(_spectrum(pt), None, 0.0).sum())
    if n <= NEG_TOL:
        raise HypothesisError(f"the K bounds need an NPT pair, got N = {n}")
    trw = float(np.trace(np.asarray(w) @ m).real)
    if trw < 0.0:
        raise HypothesisError(f"the K bounds need Tr[W rho] >= 0, got {trw}")
    return m, pt, n, trw


def k_lower_bound(rho, w) -> float:
    """lambda_min[(rho^T)^2] Tr[W rho] / (4 lambda_max(rho^T) N(rho))."""
    _, pt, n, trw = _lemma_inputs(rho, w)
    pt2_min = float(_spectrum(pt @ pt)[0])
    pt_max = float(_spectrum(pt)[-1])
    return pt2_min * trw / (4.0 * pt_max * n)


def k_upper_bound(rho, w) -> float:
    """[lambda_max(W rho) Tr[W rho] + Tr[(rho^T)^2]] / (8 N(rho)).

    W rho is not Hermitian, but it is similar to rho^{1/2} W rho^{1/2},
    whose spectrum is read instead.
    """
    m, pt, n, trw = _lemma_inputs(rho, w)
    values, vectors = np.linalg.eigh(m)
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    wr_max = float(_spectrum(root @ np.asarray(w) @ root)[-1])
    return (wr_max * trw + float(np.trace(pt @ pt).real)) / (8.0 * n)


def sandwich(m, n) -> tuple[float, float, float]:
    """(lambda_min(M) Tr N, Tr[M N], lambda_max(M) Tr N), in order when N is PSD."""
    m = np.asarray(m, dtype=complex)
    n = np.asarray(n, dtype=complex)
    values = _spectrum(m)
    tn = float(np.trace(n).real)
    return float(values[0]) * tn, float(np.trace(m @ n).real), float(values[-1]) * tn


def lift(op: np.ndarray, pair: tuple[str, str]) -> np.ndarray:
    """Index-wise lift: kron(op, I) on qubit order (pair, spectator),
    with tensor axes then permuted back to A, B, C."""
    slots = [corpus.PARTIES.index(label) for label in pair]
    order = slots + [k for k in range(3) if k not in slots]
    inverse = list(np.argsort(order))
    lifted = np.kron(op, np.eye(2)).reshape([2] * 6)
    return lifted.transpose(inverse + [3 + k for k in inverse]).reshape(8, 8)


def product_extremes(rho_abc, rho_ij, pair: tuple[str, str]) -> tuple[float, float]:
    """(lambda_min, lambda_max) of rho_abc (I x rho_ij), from the sorted real parts of the
    raw product's eigenvalues."""
    values = np.sort(np.linalg.eigvals(_matrix(rho_abc) @ lift(_matrix(rho_ij), pair)).real)
    return float(values[0]), float(values[-1])


def report_numbers(rho_abc, pair: tuple[str, str], w, p: float) -> dict:
    """The numbers a report derives from its spectra at lower weight p, from the definitions.

    Detected (Tr[W rho_ij] < 0): with S_NL = -Tr[W rho_ij]/8, the lower
    and upper numerators N1 = lambda_min(P) + 2 S_NL lambda_max(rho) and
    N2 = lambda_max(P) + 2 S_NL lambda_min(rho), P = rho (I x rho_ij),
    give d1+- = 2 N1 +- lambda_max(rho_ij) and d2+- = 2 N2 +- lambda_k,
    the first nonzero eigenvalue of rho_ij; the admissible p window ends at
    2 N1 / d1- where d1- > 0, at 1 otherwise. Undetected: with
    K = Tr[W rho_ij rho_ij^T]/(4N) and Z = N lambda_max(rho_ij^T),
    G = lambda_max(rho) K Z / (p lambda_min[(rho_ij^T)^2] lambda_max(rho_ij)).
    """
    m = _matrix(rho_abc)
    reduced = corpus.marginal(m, pair)
    w = np.asarray(w, dtype=complex)
    state, pair_values = _spectrum(m), _spectrum(reduced)
    lam_min_product, lam_max_product = product_extremes(m, reduced, pair)
    trw = float(np.trace(w @ reduced).real)
    if trw < 0.0:
        s_nl = -trw / 8.0
        low = lam_min_product + 2.0 * s_nl * state[-1]
        high = lam_max_product + 2.0 * s_nl * state[0]
        lam_k = next(v for v in pair_values if abs(v) > 1e-9)
        d1_minus = 2.0 * low - pair_values[-1]
        return {"regime": "detected", "d1_plus": 2.0 * low + pair_values[-1],
                "d1_minus": d1_minus, "d2_plus": 2.0 * high + lam_k,
                "d2_minus": 2.0 * high - lam_k,
                "p_upper": 2.0 * low / d1_minus if d1_minus > 0.0 else 1.0}
    pt = corpus.partial_transpose(reduced)
    pt_values = _spectrum(pt)
    n = float(-pt_values[pt_values < 0.0].sum())
    k = float(np.trace(w @ reduced @ pt).real) / (4.0 * n)
    z = n * pt_values[-1]
    return {"regime": "undetected",
            "G": state[-1] * k * z / (p * np.min(pt_values ** 2) * pair_values[-1])}


def example_reduced(family: str, param: float):
    """The designated reduced state at one parameter: states.example_reductions on a list of one."""
    return states.example_reductions(family, [param])[0]


def closed_form_general(family: int, param: float) -> dict:
    """Every listed quantity of one closed-form grid point, from its own state and record.

    Families 1 and 2 take the detected regime, the others the undetected
    one; maximal-slice reads its designated matrix, which is not a
    reduction of its state.
    """
    name = states.FAMILIES[family - 1]
    pair = states.EXAMPLE_PAIRS[name]
    rho = states.make_example(name, param)
    reduced = (example_reduced(name, param) if name == states.FAMILY_MAXIMAL_SLICE
               else states.reduce_to_pair(rho, pair))
    w = reproduce._family_witness(family)
    spectra = stack_record([rho], reduced.matrix[None], [pair]).points()[0]
    out = {name: getattr(spectra, name) for name in (
        "lambda_min_rho", "lambda_max_rho", "lambda_max_embedded", "lambda_k_embedded",
        "lambda_min_product", "lambda_max_product", "lambda_max_pt", "lambda_min_pt_squared",
        "trace_pt_squared", "negativity")}
    if family in (1, 2):
        s_nl = out["s_nl"] = nonlocality.s_nl_detected(reduced, w)
        routes = spectra.detected(s_nl)
    else:
        pt = states.partial_transpose(reduced)
        out["trace_witness_product"] = linalg.trace_product(w, reduced.matrix @ pt)
        wr_max = out["lambda_max_witness_state"] = spectra.witness_max(w)
        k = nonlocality.k_from_pairing(out["trace_witness_product"], spectra.negativity)
        routes = spectra.undetected(k, wr_max)
    (_, p_gen), (_, q_gen) = spectra.windows(routes)
    out["p_window"] = (p_gen.lower, p_gen.upper)
    out["q_window"] = (q_gen.lower, q_gen.upper)
    return out


def table_scans(which: int, row) -> tuple[float, tuple[float, float] | None]:
    """(first in-band weight r or 0, (achieved delta, best strength) or None) of one row
    of tables 3 to 5, one scan point at a time.

    The strength scan, run when the row misses, takes the smallest delta
    over the stated strength band, the first such strength on a tie.
    """
    qs = reproduce._PRINTED[which](row.parameter)
    spectra = reproduce._listed_spectra(qs)
    wr_max = qs.get("lambda_max_witness_state")
    k = qs["trace_witness_product"] / (4.0 * qs["negativity"])
    p_max = nonlocality.p_max_optimal(
        example_reduced(states.FAMILIES[which - 1], row.parameter))
    cap = nonlocality.r_cap(k, p_max)
    band = reproduce.STRENGTH_BANDS[which]
    weight_band = reproduce.WEIGHT_BANDS.get(which)
    admissible = [
        r for r in np.linspace(0.0, cap, reproduce.SCAN_POINTS, endpoint=False)
        if band[0] <= nonlocality.undetected_strength(k, p_max, float(r)).s_nl_new <= band[1]
        and (weight_band is None or weight_band[0] <= r <= weight_band[1])]
    first = float(admissible[0]) if admissible else 0.0
    if row.status == reproduce.STATUS_MATCH:
        return first, None

    def delta_at(strength):
        lo, hi = spectra.bounds(spectra.undetected(strength, wr_max), row.p, row.q)
        return max(abs(lo - row.paper_lower), abs(hi - row.paper_upper))

    r0 = (sum(weight_band) / 2.0) if weight_band is not None else cap / 2.0
    return first, min((delta_at((s - r0 * (p_max - 0.75)) / (1.0 - r0)), s)
                      for s in np.linspace(band[0], band[1], reproduce.SCAN_POINTS))

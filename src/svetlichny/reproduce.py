"""Recompute the bundled reference tables and closed forms, report deltas.

The five worked families ship with reference data: tables of operator
parameters (p, q) with the certificate bounds they produce, and closed
forms for every spectral quantity those certificates consume. This module
rebuilds each table row through the certificate formulas and attaches a
match or discrepancy status, then cross-checks every closed form against
the general eigensolver route on a parameter grid. Each family's grid is
validated and solved as one stack, and bounds.stack_record reads it into
one record whose fields are arrays over the grid (its 4x4 matrices, its
products and its witness congruences solved in one call each). Both
sides then run once per grid on arrays, through the formulas and record
methods one point uses (the witness pairings are the record's, bit for
bit those of one point; the listed forms land within 2 ulp of one point
at a time, as numpy's array power and a Python float's ** n can differ
in the last bit), and each deviation is reduced by one max.

Two routes coexist on purpose. Table rows are evaluated from the closed
forms exactly as the reference derivation used them, so a row mismatch
points at the reference arithmetic rather than at our pipeline; the
closed forms themselves are then compared against the general route, and
a deviation there becomes an erratum entry. Each quantity is keyed by
the name the checks report it under (lambda_max_embedded, s_nl, ...),
and one function, _family_routes, picks a family's regime from them for
the table rows, the listed windows and the general route alike.
Discrepancies are data, not failures: nothing here raises on a mismatch,
and the erratum, like the reports, renders results the caller holds.

Every table row is evaluated once: its listed components form a
PairSpectra record, and the bounds, both deltas and the tolerance test
follow from its routes. Rows of the last three tables hold for a weight
r that the reference data does not list per row. Their bounds read the
strength only through K, so r only decides admissibility: a grid over r
below the cap must put the strength (and r, where stated) inside the
stated bands for the row to match. The scan is attached to the row so
the check stays auditable; rows that still miss get a second scan
forcing the strength band directly. Each scan scores its 200 points in
one array evaluation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import nonlocality, operators, states
from .bounds import PairSpectra, Routes, stack_record

TABLE_TOLERANCE = {1: 5e-3, 2: 5e-3, 3: 1e-2, 4: 1e-2, 5: 1e-2}
CLOSED_FORM_TOL = 1e-9
SCAN_POINTS = 200
GRID_POINTS = 50

STATUS_MATCH = "match"
STATUS_DISCREPANCY = "discrepancy"

CSV_COLUMNS = ("param", "p", "q", "computed_lower", "computed_upper",
               "paper_lower", "paper_upper", "delta_lower", "delta_upper",
               "status")
# TableRow's value fields, named as the CSV columns between param and status
_ROW_VALUES = ("parameter",) + CSV_COLUMNS[1:-1]

_SQRT2 = np.sqrt(2.0)
_SQRT5 = np.sqrt(5.0)

# Reference rows: (family parameter, p, q, lower bound, upper bound).
TABLES = {
    1: ((0.92, 0.0065, 0.95, 4.8875, 5.2471),
        (0.93, 0.035, 0.9695, 4.3762, 4.6088),
        (0.94, 0.596, 0.9822, 4.4457, 4.7243),
        (0.95, 0.0873, 0.9951, 4.1946, 4.7047)),
    2: ((0.55, 0.012, 0.65, 4.4833, 5.3846),
        (0.65, 0.014, 0.75, 4.5324, 4.6864),
        (0.70, 0.016, 0.78, 4.2622, 4.7385),
        (0.78, 0.0175, 0.83, 4.3356, 4.6863)),
    3: ((1.2, 0.65, 0.85, -4.7555, 4.7917),
        (1.3, 0.78, 0.76, -5.1357, 5.2385),
        (1.4, 0.91, 0.68, -5.1099, 5.6212),
        (1.5, 0.985, 0.67, -5.3324, 4.5781)),
    4: ((0.5, 0.86, 0.75, -5.5122, 4.667),
        (0.6, 0.93, 0.79, -5.6407, 4.3746),
        (0.7, 0.975, 0.82, -4.8916, 4.6028),
        (0.8, 0.992, 0.87, -4.9253, 4.5663)),
    5: ((0.82, 0.993, 0.89, -5.10054, 5.5735),
        (0.87, 0.9969, 0.92, -4.857, 5.3888),
        (0.92, 0.9989, 0.95, -5.0963, 5.2761),
        (0.97, 0.99985, 0.98, -5.5196, 5.4439)),
}

# Stated band for the replacement strength per scanned table, and for the
# weight r where one is stated alongside it.
STRENGTH_BANDS = {3: (0.05, 1.5), 4: (0.05, 8.0727), 5: (0.54124, 0.5484)}
WEIGHT_BANDS = {5: (0.61, 0.69)}

# Closed-form comparison grids. Family 1 starts where the witness first
# detects the reduced pair, family 3 stays inside the positive cone of
# its designated reduced matrix, and families 3 and 5 stop short of the
# endpoint where the strength or the first nonzero eigenvalue degenerates.
CLOSED_FORM_RANGES = {
    1: (0.918, 0.9539),
    2: (0.5, 0.8),
    3: (1.05, np.pi / 2 - 0.01),
    4: (0.4, 0.9),
    5: (0.817, 0.99),
}


class ScanResult(NamedTuple):
    """Record of one per-row parameter scan.

    name is the scanned quantity. The "r" scan tests admissibility: best
    is its first grid point in the stated bands (0 when none is) and
    achieved_delta the row's max(delta_lower, delta_upper), the same at
    every r. The "s_nl_new" scan moves the bounds: best minimizes that
    delta and achieved_delta is the minimum.
    """

    name: str
    grid: tuple[float, ...]
    best: float
    achieved_delta: float


class TableRow(NamedTuple):
    """One reference row recomputed.

    paper_lower and paper_upper carry the bundled reference bounds; the
    computed values are ours, deltas are absolute differences, and status is
    "match" exactly when both deltas stay within the table tolerance (at
    an in-band scan point, for the scanned tables).
    """

    parameter: float
    p: float
    q: float
    computed_lower: float
    computed_upper: float
    paper_lower: float
    paper_upper: float
    delta_lower: float
    delta_upper: float
    status: str
    scan: ScanResult | None = None
    strength_scan: ScanResult | None = None


class ClosedFormCheck(NamedTuple):
    """Largest deviation of one listed closed form from the general route; its
    _asdict() is the body of an erratum closed-form entry."""

    family: int
    quantity: str
    max_deviation: float

    @property
    def status(self) -> str:
        if self.max_deviation <= CLOSED_FORM_TOL:
            return STATUS_MATCH
        return STATUS_DISCREPANCY


# Family 2's witness, built at import like the plane witnesses; shared,
# so read-only. It is written 2I - A0B0 + A0B1 - A1B0 - A1B1: the one CHSH
# sign rule with B1 -> -B1, so B1 enters negated.
_FAMILY2_WITNESS = operators.chsh_witness(operators.chsh_operator(
    operators.ChshSettings(
        A0=operators.PAULI_X,
        A1=operators.PAULI_Y,
        B0=0.95 * operators.PAULI_X + 0.95 * operators.PAULI_Y
            + 0.447 * operators.PAULI_Z,
        B1=-(-0.95 * operators.PAULI_X + 0.95 * operators.PAULI_Y
             + 0.447 * operators.PAULI_Z),
    ),
))
_FAMILY2_WITNESS.flags.writeable = False


def _family_witness(family: int) -> np.ndarray:
    """Witness operator each family's analysis runs with."""
    if family == 1:
        return operators.plane_witness("xz")
    if family == 2:
        return _FAMILY2_WITNESS
    return operators.plane_witness("xy")


# ---------------------------------------------------------------------------
# Listed closed forms, frozen verbatim. Decimal constants that are plain
# roundings of exact surds (0.848528 for 0.6 sqrt(2), 0.5333 for 8/15,
# 0.00333 for 1/300) are carried as the surds, otherwise a 1e-9 comparison
# would only measure typesetting. Constants with no exact antecedent are
# kept as listed.

def _printed_family1(lam: float) -> dict:
    return {
        "s_nl": (0.6 * _SQRT2 * lam + 2.0 * _SQRT2 * lam ** 2
                 - 2.0 - 0.82 * _SQRT2) / 8.0,
        "lambda_max_embedded": 0.09 + lam ** 2,
        "lambda_k_embedded": 0.91 - lam ** 2,
        "lambda_min_product": 0.0,
        "lambda_max_product": 0.09 * lam ** 2 + lam ** 4,
        "lambda_max_rho": 1.0,
        "lambda_min_rho": 0.0,
    }


def _printed_family2(t: float) -> dict:
    return {
        "s_nl": 1.0 / 300.0,
        "lambda_max_embedded": 8.0 / 15.0,
        "lambda_k_embedded": (1.1 - t) / 3.0,
        "lambda_min_product": 0.0,
        "lambda_max_product": t * (4.3 - t) / 9.0,
        "lambda_max_rho": t,
        "lambda_min_rho": 0.0,
    }


def _printed_family3(theta: float) -> dict:
    c = np.cos(theta)
    return {
        "lambda_max_embedded": (1.0 + 2.0 * c) / 2.0,
        "lambda_k_embedded": (1.0 - 2.0 * c) / 2.0,
        "lambda_min_product": 0.0,
        "lambda_max_product": (3.0 - np.cos(2.0 * theta)) / 8.0,
        "lambda_max_rho": 1.0,
        "lambda_min_rho": 0.0,
        "trace_witness_product": 1.0,
        "lambda_min_pt_squared": c ** 2,
        "lambda_max_pt": 0.5,
        "negativity": c,
    }


def _printed_family4(ps: float) -> dict:
    rad = np.sqrt(256.0 - 640.0 * ps + 672.0 * ps ** 2
                  - 232.0 * ps ** 3 + 25.0 * ps ** 4)
    return {
        "lambda_max_embedded": (4.0 - ps) / 6.0,
        "lambda_k_embedded": (1.0 - ps) / 3.0,
        "lambda_min_product": 0.0,
        "lambda_max_product": (16.0 - 8.0 * ps + ps ** 2 + rad) / 72.0,
        "lambda_max_rho": (3.0 + np.sqrt(9.0 - 30.0 * ps + 30.0 * ps ** 2)) / 6.0,
        "lambda_min_rho": 0.0,
        "trace_witness_product": (6.0 - 4.0 * _SQRT2 + 2.0 * _SQRT2 * ps
                                  + (3.0 + 2.0 * _SQRT2) * ps ** 2) / 9.0,
        "lambda_min_pt_squared": (1.0 - ps) ** 2 * (3.0 - _SQRT5) / 18.0,
        "lambda_max_pt": (2.0 + ps) / 6.0,
        "negativity": (1.0 - ps) * (_SQRT5 - 1.0) / 6.0,
    }


def _printed_family5(ps: float) -> dict:
    # The listed product ceiling divides by 28, which exceeds any
    # admissible eigenvalue scale; the table route reads it as 288 (the
    # closed-form check still compares the listed 28, see below).
    rad = np.sqrt(27.0 * ps ** 2 + 42.0 * ps ** 3 - 3.0 * ps ** 4)
    return {
        "lambda_max_embedded": (3.0 + 5.0 * ps) / 12.0,
        "lambda_k_embedded": (1.0 - ps) / 4.0,
        "lambda_min_product": (ps ** 2 - 1.0) / 32.0,
        "lambda_max_product": (9.0 + 30.0 * ps + 25.0 * ps ** 2 + 8.0 * rad) / 288.0,
        "lambda_max_rho": (1.0 + 7.0 * ps) / 8.0,
        "lambda_min_rho": (1.0 - ps) / 8.0,
        "trace_witness_product": (9.0 - 6.0 * _SQRT2 * ps
                                  + (3.0 - 2.0 * _SQRT2) * ps ** 2) / 18.0,
        "lambda_min_pt_squared": (9.0 - 6.0 * ps + 21.0 * ps ** 2
                                  - 4.0 * _SQRT5 * ps * (3.0 - ps)) / 144.0,
        "lambda_max_pt": (3.0 - ps + 2.0 * _SQRT5 * ps) / 12.0,
        "negativity": (ps * (1.0 + 2.0 * _SQRT5) - 3.0) / 12.0,
        "lambda_max_witness_state": (3.0 + ps) / 6.0,
        "trace_pt_squared": (9.0 + 11.0 * ps ** 2) / 36.0,
    }


_PRINTED = {
    1: _printed_family1,
    2: _printed_family2,
    3: _printed_family3,
    4: _printed_family4,
    5: _printed_family5,
}

# Families whose witness detects the reduced pair; the others take the undetected route.
_DETECTED = {1, 2}

# Listed quantities, named as reported and in report order.
_QUANTITIES = ("s_nl", "lambda_max_embedded", "lambda_min_product", "lambda_max_product",
               "lambda_k_embedded", "lambda_max_rho", "lambda_min_rho",
               "trace_witness_product", "lambda_min_pt_squared", "lambda_max_pt",
               "negativity", "lambda_max_witness_state", "trace_pt_squared",
               "p_window", "q_window")

# Quantities that name a PairSpectra field.
_RECORD_FIELDS = tuple(name for name in PairSpectra._fields if name in _QUANTITIES)


def _listed_spectra(qs: dict) -> PairSpectra:
    """Listed spectral components as the record the certificate arithmetic reads."""
    return PairSpectra(**{name: qs.get(name) for name in _RECORD_FIELDS})


def _family_routes(family: int, spectra: PairSpectra, quantities: dict) -> Routes:
    """The module's one regime choice: the family's routes from its quantities, listed or
    computed, one number or one array each, keyed by their reported names."""
    if family in _DETECTED:
        return spectra.detected(quantities["s_nl"])
    return spectra.undetected(
        nonlocality.k_from_pairing(quantities["trace_witness_product"], quantities["negativity"]),
        quantities.get("lambda_max_witness_state"))


def _genuine_windows(family: int, spectra: PairSpectra, quantities: dict) -> tuple[tuple, tuple]:
    """Genuine (p window, q window) of the family's routes, each (lower, upper), elementwise
    over a grid."""
    return spectra.window_edges(_family_routes(family, spectra, quantities))


def _printed_windows(family: int, param, qs: dict) -> tuple[tuple, tuple]:
    """Listed genuine windows from the listed quantities qs, as _genuine_windows gives them."""
    if family in (1, 2):
        p_win, q_win = _genuine_windows(family, _listed_spectra(qs), qs)
        if family == 2:
            # The q window is listed with standalone decimal denominators; the
            # middle coefficient 0.3423 has no exact antecedent and is kept.
            t = param
            num = t * (4.3 - t)
            q_win = (0.1571 * num / (0.3667 + 0.3423 * t - 0.1571 * t ** 2),
                     0.2222 * num / (0.3667 + 0.6222 * t - 0.2222 * t ** 2))
        return p_win, q_win
    if family == 3:
        c = np.cos(param)
        sec = 1.0 / c
        a = 3.0 - np.cos(2.0 * param)
        p_win = (_SQRT2 * sec ** 3 / (8.0 + 4.0 * sec + _SQRT2 * sec ** 3),
                 1.0 / (1.0 + 2.0 * c ** 2 + 4.0 * c ** 3))
        q_win = (a / (a + 2.0 * _SQRT2 * (1.0 - 2.0 * c)),
                 a / (5.0 - 4.0 * c - np.cos(2.0 * param)))
        return p_win, q_win
    if family == 4:
        ps = param
        rad9 = np.sqrt(9.0 - 30.0 * ps + 30.0 * ps ** 2)
        t9 = 6.0 - 4.0 * _SQRT2 + 2.0 * _SQRT2 * ps + (3.0 + 2.0 * _SQRT2) * ps ** 2
        h = ((2.0 + ps) * t9 * (3.0 + rad9)
             / (72.0 * (-3.0 + _SQRT5 * (1.0 - ps) ** 2 + 6.0 * ps - 3.0 * ps ** 2)))
        e = (4.0 - ps) / 6.0
        p_win = (_SQRT2 * h / (_SQRT2 * h - e), 2.0 * h / (2.0 * h - e))
        rad = np.sqrt(256.0 - 640.0 * ps + 672.0 * ps ** 2
                      - 232.0 * ps ** 3 + 25.0 * ps ** 4)
        num = 16.0 - 8.0 * ps + ps ** 2 + rad
        q_win = (num / (16.0 + 12.0 * _SQRT2 - 4.0 * (2.0 + 3.0 * _SQRT2) * ps
                        + ps ** 2 + rad),
                 num / (28.0 - 20.0 * ps + ps ** 2 + rad))
        return p_win, q_win
    ps = param
    h = (qs["lambda_min_product"]
         - (qs["trace_witness_product"] / 4.0) * qs["lambda_max_pt"] * qs["lambda_max_rho"]
         / qs["lambda_min_pt_squared"])
    e = (3.0 + ps) / 12.0
    p_win = (_SQRT2 * h / (_SQRT2 * h - e), 2.0 * h / (2.0 * h - e))
    # The listed q window uses the embedded ceiling e (not the first
    # nonzero eigenvalue) and flips a sign in its upper denominator.
    f = (4.0 * qs["lambda_max_product"]
         - (qs["lambda_min_rho"] / qs["lambda_max_witness_state"])
         * (2.0 * qs["trace_witness_product"] - qs["trace_pt_squared"]))
    q_win = (f / (f + 2.0 * _SQRT2 * e), f / (f - 2.0 * _SQRT2 * e))
    return p_win, q_win


# ---------------------------------------------------------------------------
# Table rows from listed components, exactly the table formulas.

def _scan_weights(which: int, p_max: float, k: float, delta: float, within: bool,
                  delta_at) -> tuple[bool, ScanResult, ScanResult | None]:
    """Weight work for one row of tables 3 to 5, whose bounds at K miss by delta.

    The row matches when it is within tolerance and some weight r of the
    grid below the cap puts the strength (and r, where stated) inside the
    stated bands. A row that misses also gets the strength scan, which
    reads delta_at(k), the row's delta with the bounds taken at each
    strength of an array k. Each scan evaluates its whole grid at once.
    Returns (matched, r scan, strength scan or None).
    """
    cap = nonlocality.r_cap(k, p_max)
    band = STRENGTH_BANDS[which]
    weight_band = WEIGHT_BANDS.get(which)
    grid = np.linspace(0.0, cap, SCAN_POINTS, endpoint=False)
    strength = nonlocality.undetected_strength(k, p_max, grid).s_nl_new
    in_band = (band[0] <= strength) & (strength <= band[1])
    if weight_band is not None:
        in_band &= (weight_band[0] <= grid) & (grid <= weight_band[1])
    admissible = grid[in_band]
    scan = ScanResult("r", tuple(grid.tolist()),
                      float(admissible[0]) if admissible.size else 0.0, float(delta))
    if admissible.size and within:
        return True, scan, None
    # Force the stated strength band directly at a fixed in-band weight,
    # documenting how far the row stays off even then.
    r0 = (sum(weight_band) / 2.0) if weight_band is not None else cap / 2.0
    s_grid = np.linspace(band[0], band[1], SCAN_POINTS)
    deltas = delta_at((s_grid - r0 * (p_max - 0.75)) / (1.0 - r0))
    best = int(np.argmin(deltas))
    return False, scan, ScanResult("s_nl_new", tuple(s_grid.tolist()),
                                   float(s_grid[best]), float(deltas[best]))


def reproduce_table(which: int) -> list[TableRow]:
    """Recompute every row of one reference table.

    Each row is evaluated once, through the listed components in its
    family's regime; tables 3 to 5 additionally scan the weight r for
    admissibility as described in the module docstring. Discrepant rows
    are returned, never raised.
    """
    if which not in TABLES:
        raise ValueError(f"no such table: {which!r}")
    params = [row[0] for row in TABLES[which]]
    # the weight scans (of the tables with a stated strength band) read P_max, from one stack
    p_maxes = ([nonlocality.p_max_optimal(rho) for rho in
                states.example_reductions(states.FAMILIES[which - 1], params)]
               if which in STRENGTH_BANDS else [None] * len(params))
    rows = []
    for (param, p, q, ref_lo, ref_hi), p_max in zip(TABLES[which], p_maxes):
        qs = _PRINTED[which](param)
        spectra = _listed_spectra(qs)
        routes = _family_routes(which, spectra, qs)
        lo, hi = spectra.bounds(routes, p, q)
        delta_lo, delta_hi = abs(lo - ref_lo), abs(hi - ref_hi)
        delta = max(delta_lo, delta_hi)
        matched = delta <= TABLE_TOLERANCE[which]
        scan = strength_scan = None
        if p_max is not None:
            wr_max = qs.get("lambda_max_witness_state")
            def delta_at(k):
                k_lo, k_hi = spectra.bounds(spectra.undetected(k, wr_max), p, q)
                return np.maximum(abs(k_lo - ref_lo), abs(k_hi - ref_hi))
            matched, scan, strength_scan = _scan_weights(
                which, p_max, routes.strength, delta, matched, delta_at)
        rows.append(TableRow(parameter=param, p=p, q=q,
                             computed_lower=float(lo), computed_upper=float(hi),
                             paper_lower=ref_lo, paper_upper=ref_hi,
                             delta_lower=float(delta_lo),
                             delta_upper=float(delta_hi),
                             status=STATUS_MATCH if matched else STATUS_DISCREPANCY,
                             scan=scan, strength_scan=strength_scan))
    return rows


# ---------------------------------------------------------------------------
# Closed-form cross-checks against the general route.

def _closed_form_printed(family: int, param) -> dict:
    """Every listed quantity at param, or elementwise over an array; a window is (lower, upper)."""
    qs = _PRINTED[family](param)
    if family == 5:
        # the product ceiling exactly as listed, denominator 28
        rad = np.sqrt(27.0 * param ** 2 + 42.0 * param ** 3 - 3.0 * param ** 4)
        qs["lambda_max_product"] = (9.0 + 30.0 * param + 25.0 * param ** 2
                                    + 8.0 * rad) / 28.0
    qs["p_window"], qs["q_window"] = _printed_windows(family, param, qs)
    return qs


def _closed_forms_general(family: int, params) -> dict[str, np.ndarray]:
    """The general route's value of every listed quantity over the grid, one array each.

    The grid's states and reductions are built as one stack each and read
    into one stack record, so the pairings, numerators and windows are
    evaluated once, elementwise, through the record's methods and the
    nonlocality formulas. A window's array holds one (lower, upper) row
    per parameter.
    """
    name = states.FAMILIES[family - 1]
    pair = states.EXAMPLE_PAIRS[name]
    rhos = states.make_examples(name, params)
    # maximal-slice's designated matrix is not a reduction of rho
    reductions = (states.example_reductions(name, params) if name == states.FAMILY_MAXIMAL_SLICE
                  else states.reduce_to_pairs(rhos, pair))
    spectra = stack_record(rhos, np.array([rho.matrix for rho in reductions]),
                           [pair] * len(rhos))
    w = _family_witness(family)
    columns = {field: getattr(spectra, field) for field in _RECORD_FIELDS}
    pairing, product_pairing = spectra.pairings(w)
    if family in _DETECTED:
        columns["s_nl"] = nonlocality.s_nl_from_pairing(pairing)
    else:
        columns["trace_witness_product"] = product_pairing
        columns["lambda_max_witness_state"] = spectra.witness_max(w)
    columns["p_window"], columns["q_window"] = (
        np.column_stack(edges) for edges in _genuine_windows(family, spectra, columns))
    return columns


def reproduce_closed_forms(family: int) -> list[ClosedFormCheck]:
    """Compare every listed closed form with the general route on a grid.

    Returns one check per quantity with the grid-wide maximum absolute
    deviation (window quantities take the worse endpoint). Both sides are
    evaluated once on the whole grid, as arrays, and each deviation is
    reduced by one max.
    """
    if family not in CLOSED_FORM_RANGES:
        raise ValueError(f"no such family index: {family!r}")
    grid = np.linspace(*CLOSED_FORM_RANGES[family], GRID_POINTS)
    general = _closed_forms_general(family, grid)
    listed = _closed_form_printed(family, grid)
    # transposed, a listed (lower, upper) window holds one row per point, as general's does
    return [ClosedFormCheck(family, name,
                            float(np.max(np.abs(np.transpose(listed[name]) - general[name]))))
            for name in _QUANTITIES if name in listed]


# ---------------------------------------------------------------------------
# Erratum assembly and renderers.

_ROW_NOTES = {
    (1, 0.94): ("neither bound reproduces with the listed p = 0.596; "
                "p = 0.0596 reproduces the listed lower bound to 5e-5, so "
                "the listed value appears to drop a leading zero"),
}

_TABLE_NOTES = {
    2: ("the listed lower bounds follow from the strength rounded to "
        "0.0033; the exact strength 1/300 leaves residuals near 4e-2"),
    5: ("no admissible weight r realizes a strength inside the stated "
        "band; the strength tops out near 0.24 at r = 0, and forcing the "
        "band leaves residuals above 4"),
}

_FORM_NOTES = {
    (1, "lambda_max_product"): (
        "listed form factors as lambda0^2 (0.09 + lambda0^2) and does not "
        "match the spectrum of the operator product"),
    (1, "q_window"): "inherits the lambda_max_product mismatch",
    (2, "lambda_max_product"): (
        "listed form does not match the spectrum of the operator product"),
    (2, "q_window"): (
        "inherits the lambda_max_product mismatch; the middle denominator "
        "coefficient 0.3423 is also inconsistent with the listed "
        "quantities (expanding them gives 0.6757)"),
    (4, "lambda_max_product"): (
        "listed radicand matches the listed q window numerator but not "
        "the spectrum of the operator product"),
    (4, "q_window"): "inherits the lambda_max_product mismatch",
    (5, "lambda_min_product"): (
        "listed form is negative although both product factors are "
        "positive semidefinite; the computed floor equals (1 - p_s)^2/32"),
    (5, "lambda_max_product"): (
        "listed denominator 28 exceeds every admissible eigenvalue scale; "
        "reading it as 288 still deviates from the computed spectrum"),
    (5, "p_window"): "inherits the lambda_min_product mismatch through H",
    (5, "q_window"): (
        "built from the embedded ceiling with a sign flip in its upper "
        "denominator where the general route uses the first nonzero "
        "embedded eigenvalue; also inherits the lambda_max_product "
        "mismatch"),
}


def erratum_entries(tables: dict[int, list[TableRow]],
                    forms: dict[int, list[ClosedFormCheck]]) -> list[dict]:
    """Machine-readable record of every discrepancy among the given results.

    tables maps a table number to its reproduce_table rows and forms a
    family to its reproduce_closed_forms checks; nothing is evaluated here.
    """
    entries = []
    for which in sorted(tables):
        for row in tables[which]:
            if row.status != STATUS_DISCREPANCY:
                continue
            note = _ROW_NOTES.get((which, row.parameter),
                                  _TABLE_NOTES.get(which, ""))
            entry = {"kind": "table-row", "table": which,
                     **{name: getattr(row, name) for name in _ROW_VALUES}, "note": note}
            if row.scan is not None:
                entry["scan_best_r"] = row.scan.best
                entry["scan_achieved_delta"] = row.scan.achieved_delta
            if row.strength_scan is not None:
                entry["strength_scan_best"] = row.strength_scan.best
                entry["strength_scan_achieved_delta"] = (
                    row.strength_scan.achieved_delta)
            entries.append(entry)
    for family in sorted(forms):
        for check in forms[family]:
            if check.status != STATUS_DISCREPANCY:
                continue
            entries.append({"kind": "closed-form",
                            **check._asdict(),
                            "note": _FORM_NOTES.get((family, check.quantity), "")})
    return entries


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def render_table_csv(rows: list[TableRow]) -> str:
    """CSV report, one line per row, columns per CSV_COLUMNS."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join([_fmt(getattr(row, name)) for name in _ROW_VALUES]
                              + [row.status]))
    return "\n".join(lines) + "\n"


def render_table_text(which: int, rows: list[TableRow]) -> str:
    """Aligned plain-text report with scan annotations."""
    widths = (9, 8, 8, 15, 15, 12, 12, 12, 12, 12)
    header = "".join(name.ljust(w) for name, w in zip(CSV_COLUMNS, widths))
    lines = [f"table {which}  (tolerance {TABLE_TOLERANCE[which]:g})", header]
    for row in rows:
        cells = (_fmt(row.parameter), _fmt(row.p), _fmt(row.q),
                 f"{row.computed_lower:.6f}", f"{row.computed_upper:.6f}",
                 _fmt(row.paper_lower), _fmt(row.paper_upper),
                 f"{row.delta_lower:.2e}", f"{row.delta_upper:.2e}",
                 row.status)
        lines.append("".join(cell.ljust(w) for cell, w in zip(cells, widths)))
        if row.scan is not None:
            lines.append(f"    scan r: best {row.scan.best:.6f} of "
                         f"{len(row.scan.grid)} points in [0, "
                         f"{row.scan.grid[-1]:.6f}], achieved delta "
                         f"{row.scan.achieved_delta:.3e}")
        if row.strength_scan is not None:
            lines.append(f"    scan s_nl_new: best {row.strength_scan.best:.6f} "
                         f"in stated band, achieved delta "
                         f"{row.strength_scan.achieved_delta:.3e}")
    return "\n".join(lines) + "\n"

"""Reference-table regeneration: frozen statuses, deltas, and erratum.

Every expected number here came from running the table and closed-form
routes once and inspecting each disagreement by hand; the suite freezes
that audit so future edits cannot silently change which rows reproduce.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

from svetlichny import nonlocality, operators, reproduce, states
from svetlichny.bounds import pair_spectra, product_spectrum

EXPECTED_STATUSES = {
    1: ("match", "match", "discrepancy", "match"),
    2: ("discrepancy",) * 4,
    3: ("match",) * 4,
    4: ("match",) * 4,
    5: ("discrepancy",) * 4,
}


@pytest.fixture(scope="module")
def tables():
    return {which: reproduce.reproduce_table(which) for which in range(1, 6)}


@pytest.fixture(scope="module")
def checks():
    return {family: reproduce.reproduce_closed_forms(family)
            for family in range(1, 6)}


@pytest.fixture(scope="module")
def entries(tables, checks):
    return reproduce.erratum_entries(tables, checks)


class TestRowStatuses:
    @pytest.mark.parametrize("which", range(1, 6))
    def test_statuses_frozen(self, tables, which):
        got = tuple(row.status for row in tables[which])
        assert got == EXPECTED_STATUSES[which]

    @pytest.mark.parametrize("which", range(1, 6))
    def test_rows_carry_listed_values(self, tables, which):
        for row, listed in zip(tables[which], reproduce.TABLES[which]):
            assert row.parameter == listed[0]
            assert row.p == listed[1]
            assert row.q == listed[2]
            assert row.paper_lower == listed[3]
            assert row.paper_upper == listed[4]

    def test_matching_rows_within_tolerance(self, tables):
        for which, rows in tables.items():
            tol = reproduce.TABLE_TOLERANCE[which]
            for row in rows:
                if row.status == reproduce.STATUS_MATCH:
                    assert row.delta_lower <= tol, (which, row.parameter)
                    assert row.delta_upper <= tol, (which, row.parameter)


class TestFrozenDeltas:
    def test_table1_leading_zero_row(self, tables):
        row = tables[1][2]
        assert row.parameter == 0.94
        assert row.sv_lower == pytest.approx(0.19098996158008139, abs=1e-9)
        assert row.delta_upper <= 6e-5

    def test_table2_lower_bounds(self, tables):
        computed = [row.sv_lower for row in tables[2]]
        expected = [4.528333, 4.577857, 4.305000, 4.379143]
        assert computed == pytest.approx(expected, abs=1e-5)
        for row in tables[2]:
            assert row.delta_upper <= 5e-5
            assert 0.04 <= row.delta_lower <= 0.05

    def test_table5_residuals_stay_large(self, tables):
        for row in tables[5]:
            assert row.delta_lower > 4.0
            assert row.scan is not None
            assert row.scan.achieved_delta > 4.0
            assert row.strength_scan is not None
            assert row.strength_scan.achieved_delta > 4.0

    @pytest.mark.parametrize("which", (3, 4, 5))
    def test_weight_scan_decides_admissibility_only(self, tables, which):
        # the bounds read the strength only through K, so each row is
        # evaluated once and the scan keeps its first in-band weight; table
        # 5 has none, and falls back to r = 0
        band = reproduce.STRENGTH_BANDS[which]
        weights = reproduce.WEIGHT_BANDS.get(which, (0.0, 1.0))
        for row in tables[which]:
            reduced = states.example_reduced(states.FAMILIES[which - 1], row.parameter)
            k = nonlocality.k_value(reduced, operators.plane_witness("xy"))
            p_max = nonlocality.p_max_optimal(reduced)
            in_band = [r for r in row.scan.grid
                       if band[0] <= r * (p_max - 0.75) + (1.0 - r) * k <= band[1]
                       and weights[0] <= r <= weights[1]]
            assert row.scan.best == (in_band[0] if in_band else 0.0)
            assert (which == 5) == (not in_band)
            assert row.scan.achieved_delta == max(row.delta_lower, row.delta_upper)

    def test_table3_scans_found_in_band_points(self, tables):
        for row in tables[3]:
            assert row.scan is not None
            assert row.scan.name == "r"
            assert row.scan.achieved_delta <= 1e-2


class TestClosedForms:
    EXPECTED_RED = {
        (1, "lambda_max_product"), (1, "q_window"),
        (2, "lambda_max_product"), (2, "q_window"),
        (4, "lambda_max_product"), (4, "q_window"),
        (5, "lambda_min_product"), (5, "lambda_max_product"),
        (5, "p_window"), (5, "q_window"),
    }

    def test_red_set_is_exactly_the_frozen_one(self, checks):
        red = {(family, c.quantity)
               for family, group in checks.items()
               for c in group if c.status == reproduce.STATUS_DISCREPANCY}
        assert red == self.EXPECTED_RED

    def test_green_quantities_are_tight(self, checks):
        for family, group in checks.items():
            for c in group:
                if (family, c.quantity) not in self.EXPECTED_RED:
                    assert c.max_deviation <= reproduce.CLOSED_FORM_TOL, (
                        family, c.quantity, c.max_deviation)

    def test_frozen_red_magnitudes(self, checks):
        by_key = {(family, c.quantity): c.max_deviation
                  for family, group in checks.items() for c in group}
        assert by_key[(1, "lambda_max_product")] == pytest.approx(0.0899932744935441, rel=1e-6)
        assert by_key[(1, "q_window")] == pytest.approx(5.476e-3, rel=1e-3)
        assert by_key[(2, "lambda_max_product")] == pytest.approx(7.111e-2, rel=1e-3)
        assert by_key[(2, "q_window")] == pytest.approx(2.947e-2, rel=1e-3)
        assert by_key[(4, "lambda_max_product")] == pytest.approx(1.938e-1, rel=1e-3)
        assert by_key[(4, "q_window")] == pytest.approx(5.091e-2, rel=1e-3)
        assert by_key[(5, "lambda_min_product")] == pytest.approx(1.144e-2, rel=1e-3)
        assert by_key[(5, "p_window")] == pytest.approx(1.704e-1, rel=1e-3)
        assert by_key[(5, "q_window")] == pytest.approx(1.182e-1, rel=1e-3)
        assert by_key[(5, "lambda_max_product")] == pytest.approx(4.001, rel=1e-3)

    def test_grid_size_respected(self):
        group = reproduce.reproduce_closed_forms(3, grid_points=10)
        assert all(c.max_deviation >= 0.0 for c in group)


class TestFamilyWitness:
    def test_family2_witness_is_a_shared_read_only_constant(self):
        w = reproduce._family_witness(2)
        assert w is reproduce._family_witness(2)
        settings = operators.ChshSettings(
            A0=operators.pauli("x"),
            A1=operators.pauli("y"),
            B0=0.95 * operators.pauli("x") + 0.95 * operators.pauli("y")
            + 0.447 * operators.pauli("z"),
            B1=-0.95 * operators.pauli("x") + 0.95 * operators.pauli("y")
            + 0.447 * operators.pauli("z"),
        )
        expected = operators.chsh_witness(
            operators.chsh_operator(settings, signs=operators.SIGNS_VARIANT))
        assert np.array_equal(w, expected)
        with pytest.raises(ValueError):
            w[0, 0] = 0.0


class TestErratum:
    def test_counts(self, entries):
        assert len(entries) == 19
        kinds = [e["kind"] for e in entries]
        assert kinds.count("table-row") == 9
        assert kinds.count("closed-form") == 10

    def test_table_rows_cover_all_discrepancies(self, entries):
        got = sorted((e["table"], e["parameter"])
                     for e in entries if e["kind"] == "table-row")
        expected = sorted([(1, 0.94)]
                          + [(2, t) for t in (0.55, 0.65, 0.70, 0.78)]
                          + [(5, s) for s in (0.82, 0.87, 0.92, 0.97)])
        assert got == pytest.approx(expected)

    def test_leading_zero_note_present(self, entries):
        row = next(e for e in entries
                   if e["kind"] == "table-row" and e["table"] == 1)
        assert "leading zero" in row["note"]

    def test_table5_entries_carry_both_scans(self, entries):
        for e in entries:
            if e["kind"] == "table-row" and e["table"] == 5:
                assert e["scan_best_r"] == 0.0
                assert e["strength_scan_best"] == pytest.approx(0.5484)
                assert e["strength_scan_achieved_delta"] > 4.0
                assert "stated band" in e["note"]

    def test_closed_form_entries_have_deviations(self, entries):
        for e in entries:
            if e["kind"] == "closed-form":
                assert e["max_deviation"] > reproduce.CLOSED_FORM_TOL
                assert 1 <= e["family"] <= 5


class TestErratumReasons:
    """The reason each erratum note gives, checked on its own numbers."""

    def test_table2_follows_from_rounded_strength(self):
        # the listed rows come back once the strength is rounded to 0.0033,
        # both through the table formula and through the certificate route
        family = states.FAMILY_MIXED_GHZ_2W
        witness = reproduce._family_witness(2)
        tol = reproduce.TABLE_TOLERANCE[2]
        for param, p, q, ref_lo, ref_hi in reproduce.TABLES[2]:
            qs = dict(reproduce._PRINTED[2](param), snl=0.0033)
            lo, hi = reproduce._detected_bounds(qs, p, q)
            assert abs(lo - ref_lo) <= tol, (param, lo, ref_lo)
            assert abs(hi - ref_hi) <= tol, (param, hi, ref_hi)
            reduced = states.example_reduced(family, param)
            assert nonlocality.is_detected(reduced, witness)
            spectra = pair_spectra(states.make_example(family, param), reduced,
                                   states.EXAMPLE_PAIRS[family])
            certified, _ = spectra.bounds(spectra.detected(0.0033), p, q)
            assert abs(certified - ref_lo) <= tol, (param, certified, ref_lo)

    def test_table1_lower_bound_with_leading_zero_restored(self):
        param, p, q, ref_lo, _ = reproduce.TABLES[1][2]
        assert (param, p) == (0.94, 0.596)
        lo, _ = reproduce._detected_bounds(reproduce._PRINTED[1](param),
                                           0.0596, q)
        assert abs(lo - ref_lo) <= 5e-5

    @pytest.mark.parametrize("row", reproduce.TABLES[5],
                             ids=lambda row: str(row[0]))
    def test_table5_strength_tops_out_below_band(self, row):
        # for P_max < 3/4 the strength falls with r, so r = 0 gives its
        # largest admissible value K
        reduced = states.example_reduced(states.FAMILY_IDENTITY_W, row[0])
        witness = operators.plane_witness("xy")
        k = nonlocality.k_value(reduced, witness)
        p_max = nonlocality.p_max_optimal(reduced)
        assert p_max < 0.75
        cap = nonlocality.r_cap(k, p_max)
        strengths = [nonlocality.s_nl_new(reduced, witness, float(r)).s_nl_new
                     for r in np.linspace(0.0, cap, 20, endpoint=False)]
        assert max(strengths) == pytest.approx(k, abs=1e-15)
        assert k < reproduce.STRENGTH_BANDS[5][0]

    def test_family1_product_ceiling_closed_form(self):
        # the listed form is lambda^2 (0.09 + lambda^2); the spectrum of the
        # operator product tops out at (lambda^2 + 0.09)^2 + (0.91 - lambda^2)^2
        family = states.FAMILY_PURE_W1
        pair = states.EXAMPLE_PAIRS[family]
        for lam in np.linspace(*reproduce.CLOSED_FORM_RANGES[1], 10):
            lam2 = lam ** 2
            top = product_spectrum(states.make_example(family, lam),
                                   states.example_reduced(family, lam),
                                   pair)[-1]
            assert top == pytest.approx((lam2 + 0.09) ** 2 + (0.91 - lam2) ** 2,
                                        abs=1e-12)


class TestRendering:
    def test_csv_columns_and_rows(self, tables):
        text = reproduce.render_table_csv(tables[1])
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        assert tuple(header) == reproduce.CSV_COLUMNS
        rows = list(reader)
        assert len(rows) == 4
        statuses = [r[header.index("status")] for r in rows]
        assert statuses == list(EXPECTED_STATUSES[1])

    def test_csv_numbers_parse_back(self, tables):
        text = reproduce.render_table_csv(tables[4])
        reader = csv.DictReader(io.StringIO(text))
        for parsed, row in zip(reader, tables[4]):
            assert float(parsed["computed_lower"]) == pytest.approx(
                row.sv_lower, rel=1e-9)
            assert float(parsed["delta_upper"]) == pytest.approx(
                row.delta_upper, rel=1e-9)

    def test_text_render_mentions_scans_for_scanned_tables(self, tables):
        text = reproduce.render_table_text(5, tables[5])
        assert "scan r" in text
        assert "scan s_nl_new" in text
        plain = reproduce.render_table_text(1, tables[1])
        assert "scan r" not in plain

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            reproduce.reproduce_table(7)


class TestBandConstants:
    def test_strength_bands(self):
        assert reproduce.STRENGTH_BANDS[3] == (0.05, 1.5)
        assert reproduce.STRENGTH_BANDS[4] == (0.05, 8.0727)
        assert reproduce.STRENGTH_BANDS[5] == (0.54124, 0.5484)
        assert reproduce.WEIGHT_BANDS[5] == (0.61, 0.69)

    def test_family5_band_unreachable(self):
        # the replacement strength tops out at K (r = 0), far below the
        # stated band floor, which is why every table-5 row is discrepant
        reduced = states.example_reduced(states.FAMILY_IDENTITY_W, 0.82)
        w = operators.plane_witness("xy")
        k = nonlocality.k_value(reduced, w)
        assert k < reproduce.STRENGTH_BANDS[5][0]

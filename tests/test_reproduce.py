"""Reference-table regeneration: frozen statuses, deltas, and erratum.

Every expected number here came from running the table and closed-form
routes once and inspecting each disagreement by hand; the suite freezes
that audit so future edits cannot silently change which rows reproduce.
"""

from __future__ import annotations

import csv
import io
from dataclasses import fields

import numpy as np
import pytest

from conftest import pair_root
import lemmas
from svetlichny import linalg, nonlocality, operators, reproduce, states
from svetlichny.bounds import pair_records, product_spectrum, stack_record

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
        assert row.computed_lower == pytest.approx(0.19098996158008139, abs=1e-9)
        assert row.delta_upper <= 6e-5

    def test_table2_lower_bounds(self, tables):
        computed = [row.computed_lower for row in tables[2]]
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
            reduced = lemmas.example_reduced(states.FAMILIES[which - 1], row.parameter)
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


class TestClosedFormGrid:
    """Each family's grid is validated, reduced and solved as one stack."""

    # stacked solves per family, counted at the kernel's LAPACK step: the
    # states, maximal-slice's designated matrices (their spectra), the
    # records' reductions (their roots, maximal-slice's designated
    # matrices a second time) and partial transposes, the products, and
    # the witness congruences of the undetected families
    # (150/150/250/200/200 one point at a time on the 50-point grid)
    CALLS = {1: 4, 2: 4, 3: 6, 4: 5, 5: 5}
    # matrices per grid point, by size: what the per-point route solved
    PER_POINT = {1: {8: 2, 4: 2}, 2: {8: 2, 4: 2}, 3: {8: 2, 4: 4},
                 4: {8: 2, 4: 3}, 5: {8: 2, 4: 3}}

    @pytest.mark.parametrize("points", (10, 50))
    @pytest.mark.parametrize("family", range(1, 6))
    def test_solve_calls_do_not_grow_with_the_grid(self, monkeypatch, solves, family, points):
        monkeypatch.setattr(reproduce, "GRID_POINTS", points)
        calls = []
        solver = linalg._solve

        def counted(m, vectors):
            calls.append((np.shape(m), vectors))
            return solver(m, vectors)

        monkeypatch.setattr(linalg, "_solve", counted)
        reproduce.reproduce_closed_forms(family)
        assert len(calls) == self.CALLS[family], calls
        assert dict(solves) == {size: n * points for size, n in self.PER_POINT[family].items()}

    @pytest.mark.parametrize("family", range(1, 6))
    def test_grid_negativity_is_each_reductions_own(self, family):
        # the grid's partial transposes are solved in one value-only stack,
        # states.negativity's one at a time: the bits agree
        name = states.FAMILIES[family - 1]
        params = np.linspace(*reproduce.CLOSED_FORM_RANGES[family], 10)
        reductions = states.example_reductions(name, params)
        record = stack_record(states.make_examples(name, params),
                              np.array([r.matrix for r in reductions]),
                              [states.EXAMPLE_PAIRS[name]] * len(params))
        assert record.negativity.tolist() == [states.negativity(r) for r in reductions]

    @pytest.mark.parametrize("family", range(1, 6))
    def test_grid_route_equals_the_per_point_route(self, family):
        # one column per quantity, a window's holding one (lower, upper) row
        # per point; entry i of each equals the per-point route at grid[i]
        grid = np.linspace(*reproduce.CLOSED_FORM_RANGES[family], reproduce.GRID_POINTS).tolist()
        columns = reproduce._closed_forms_general(family, grid)
        assert {len(column) for column in columns.values()} == {reproduce.GRID_POINTS}
        for i, param in enumerate(grid):
            point = {name: tuple(column[i].tolist()) if column.ndim == 2 else column[i]
                     for name, column in columns.items()}
            assert point == lemmas.closed_form_general(family, param), (family, param)


class TestRegime:
    """_DETECTED, each family's hard-coded regime, is the one its witness gives."""

    @pytest.mark.parametrize("family", range(1, 6))
    def test_detected_families_are_the_ones_the_witness_detects(self, family):
        # every table row and every closed-form grid point
        params = [row[0] for row in reproduce.TABLES[family]] + np.linspace(
            *reproduce.CLOSED_FORM_RANGES[family], reproduce.GRID_POINTS).tolist()
        witness = reproduce._family_witness(family)
        reductions = states.example_reductions(states.FAMILIES[family - 1], params)
        for param, reduced in zip(params, reductions, strict=True):
            assert nonlocality.is_detected(reduced, witness) == (
                family in reproduce._DETECTED), (family, param)


class TestListedGrid:
    """The listed closed forms are evaluated once per grid, as arrays."""

    @pytest.mark.parametrize("family", range(1, 6))
    def test_grid_is_within_two_ulp_of_each_point(self, family):
        # numpy's array power and a Python float's ** n can differ in the last bit
        grid = np.linspace(*reproduce.CLOSED_FORM_RANGES[family], reproduce.GRID_POINTS)
        listed = reproduce._closed_form_printed(family, grid)
        points = [reproduce._closed_form_printed(family, x) for x in grid.tolist()]
        assert {"p_window", "q_window"} <= set(listed)
        for name, values in listed.items():
            # a window is a (lower, upper) pair; per point, one row of the transpose
            expected = np.array([point[name] for point in points])
            got = np.broadcast_to(np.transpose(values), expected.shape)
            np.testing.assert_array_max_ulp(got, expected, maxulp=2)

    def test_each_family_builds_its_listed_forms_once(self, monkeypatch):
        calls = []
        for family, build in list(reproduce._PRINTED.items()):
            def counted(param, family=family, build=build):
                calls.append(family)
                return build(param)
            monkeypatch.setitem(reproduce._PRINTED, family, counted)
        for family in range(1, 6):
            reproduce.reproduce_closed_forms(family)
        assert calls == [1, 2, 3, 4, 5]


class TestScans:
    """Each row scan evaluates its grid at once; the per-point loop is the oracle."""

    @pytest.mark.parametrize("which", (3, 4, 5))
    def test_scans_equal_the_per_point_loop(self, tables, which):
        for row in tables[which]:
            first, strength = lemmas.table_scans(which, row)
            assert row.scan.best == first, row.parameter
            if strength is None:
                assert row.strength_scan is None
            else:
                best_delta, best = strength
                assert row.strength_scan.best == best, row.parameter
                assert row.strength_scan.achieved_delta == best_delta, row.parameter
        # only table 5's rows miss, so only they carry a strength scan
        assert any(row.strength_scan is not None for row in tables[which]) == (which == 5)


class TestFamilyWitness:
    def test_family2_witness_is_a_shared_read_only_constant(self):
        w = reproduce._family_witness(2)
        assert w is reproduce._family_witness(2)
        settings = operators.ChshSettings(
            A0=operators.pauli("x"),
            A1=operators.pauli("y"),
            B0=0.95 * operators.pauli("x") + 0.95 * operators.pauli("y")
            + 0.447 * operators.pauli("z"),
            # the witness's (+, -, +, +) signs are the CHSH rule with B1 negated
            B1=-(-0.95 * operators.pauli("x") + 0.95 * operators.pauli("y")
                 + 0.447 * operators.pauli("z")),
        )
        expected = operators.chsh_witness(operators.chsh_operator(settings))
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

    def test_every_note_has_an_entry(self, entries):
        # a note keyed by a mistyped row, table or quantity would never print
        rows = {(e["table"], e["parameter"]) for e in entries if e["kind"] == "table-row"}
        forms = {(e["family"], e["quantity"]) for e in entries if e["kind"] == "closed-form"}
        assert set(reproduce._ROW_NOTES) <= rows
        assert set(reproduce._TABLE_NOTES) <= {table for table, _ in rows}
        assert set(reproduce._FORM_NOTES) <= forms


class TestRecordContract:
    """The CSV and the erratum write the records' own fields, in their order."""

    def test_outputs_are_the_record_fields(self, tables, entries):
        values = [f.name for f in fields(reproduce.TableRow)
                  if f.name not in ("status", "scan", "strength_scan")]
        header = next(csv.reader(io.StringIO(reproduce.render_table_csv(tables[1]))))
        assert header[0] == "param" and header[-1] == "status"
        assert ["parameter"] + header[1:-1] == values
        checks = [f.name for f in fields(reproduce.ClosedFormCheck)]
        for entry in entries:
            keys = list(entry)
            if entry["kind"] == "table-row":
                assert keys[keys.index("table") + 1:keys.index("note")] == values
            else:
                assert keys[1:keys.index("note")] == checks


class TestErratumReasons:
    """The reason each erratum note gives, checked on its own numbers."""

    def test_table2_follows_from_rounded_strength(self):
        # the listed rows come back once the strength is rounded to 0.0033,
        # both through the table formula and through the certificate route
        family = states.FAMILY_MIXED_GHZ_2W
        witness = reproduce._family_witness(2)
        tol = reproduce.TABLE_TOLERANCE[2]
        for param, p, q, ref_lo, ref_hi in reproduce.TABLES[2]:
            listed = reproduce._listed_spectra(reproduce._PRINTED[2](param))
            lo, hi = listed.bounds(listed.detected(0.0033), p, q)
            assert abs(lo - ref_lo) <= tol, (param, lo, ref_lo)
            assert abs(hi - ref_hi) <= tol, (param, hi, ref_hi)
            reduced = lemmas.example_reduced(family, param)
            assert nonlocality.is_detected(reduced, witness)
            ((_, spectra),) = pair_records(states.make_example(family, param),
                                           [states.EXAMPLE_PAIRS[family]])
            certified, _ = spectra.bounds(spectra.detected(0.0033), p, q)
            assert abs(certified - ref_lo) <= tol, (param, certified, ref_lo)

    def test_table1_lower_bound_with_leading_zero_restored(self):
        param, p, q, ref_lo, _ = reproduce.TABLES[1][2]
        assert (param, p) == (0.94, 0.596)
        qs = reproduce._PRINTED[1](param)
        listed = reproduce._listed_spectra(qs)
        lo, _ = listed.bounds(listed.detected(qs["s_nl"]), 0.0596, q)
        assert abs(lo - ref_lo) <= 5e-5

    @pytest.mark.parametrize("row", reproduce.TABLES[5],
                             ids=lambda row: str(row[0]))
    def test_table5_strength_tops_out_below_band(self, row):
        # for P_max < 3/4 the strength falls with r, so r = 0 gives its
        # largest admissible value K
        reduced = lemmas.example_reduced(states.FAMILY_IDENTITY_W, row[0])
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
            top = product_spectrum([states.make_example(family, lam)],
                                   pair_root(lemmas.example_reduced(family, lam))[None],
                                   [pair])[0][-1]
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
                row.computed_lower, rel=1e-9)
            assert float(parsed["delta_upper"]) == pytest.approx(
                row.delta_upper, rel=1e-9)

    def test_text_render_mentions_scans_for_scanned_tables(self, tables):
        text = reproduce.render_table_text(5, tables[5])
        assert "scan r" in text
        assert "scan s_nl_new" in text
        plain = reproduce.render_table_text(1, tables[1])
        assert "scan r" not in plain

    @pytest.mark.parametrize("which, parameter, scan_line", (
        (3, "1.5", "    scan r: best 0.580000 of 200 points in [0, 0.995000], "
                   "achieved delta 2.835e-05"),
        (5, "0.82", "    scan s_nl_new: best 0.548400 in stated band, "
                    "achieved delta 4.572e+00"),
    ), ids=("table3-1.5", "table5-0.82"))
    def test_scan_lines_pinned(self, tables, which, parameter, scan_line):
        lines = reproduce.render_table_text(which, tables[which]).splitlines()
        row = next(i for i, line in enumerate(lines) if line.split()[0] == parameter)
        assert scan_line in lines[row + 1:row + 3]

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
        reduced = lemmas.example_reduced(states.FAMILY_IDENTITY_W, 0.82)
        w = operators.plane_witness("xy")
        k = nonlocality.k_value(reduced, w)
        assert k < reproduce.STRENGTH_BANDS[5][0]

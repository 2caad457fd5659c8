"""Acceptance gate: one criterion per test, one printed verdict line each.

Each test evaluates its criterion exactly as stated, prints a single
PASS/FAIL line, and then asserts. Criteria that the bundled reference
values genuinely fail are left to fail; the erratum produced by the
reproduce module documents every such disagreement with our recomputed
numbers and a note giving its reason. Those criteria check the erratum
first, so they fail on their count alone and only for a documented
reason. Weakening a tolerance to force a green result would defeat the
point of the gate.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from svetlichny import nonlocality, operators, reproduce, states
from svetlichny.bounds import detect_genuine, pair_spectra
from svetlichny.optimize import (
    chsh_expectation,
    maximize_chsh,
    maximize_svetlichny,
)
import corpus
import lemmas

XY = operators.plane_witness("xy")
XZ = operators.plane_witness("xz")


def _verdict(num: int, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[C{num}] {mark} - {detail}", flush=True)


@pytest.fixture(scope="module")
def erratum():
    """Erratum entries keyed (table, parameter) for table rows and
    (family, quantity) for closed forms."""
    keyed = {}
    tables = {which: reproduce.reproduce_table(which) for which in reproduce.TABLES}
    forms = {family: reproduce.reproduce_closed_forms(family) for family in reproduce.TABLES}
    for e in reproduce.erratum_entries(tables, forms):
        if e["kind"] == "table-row":
            keyed[(e["table"], e["parameter"])] = e
        else:
            keyed[(e["family"], e["quantity"])] = e
    return keyed


def _explained(entry, *fields) -> bool:
    """An erratum entry explains a failure when it gives a reason in a
    non-empty note and carries the recomputed fields."""
    return (entry is not None and bool(entry.get("note"))
            and all(name in entry for name in fields))


def _table_criterion(num: int, table: int, tolerance: float, budget: float,
                     erratum: dict):
    """Tables I and II share one shape: >=3/4 rows within tolerance and
    every failing row explained in the erratum with recomputed values."""
    assert reproduce.TABLE_TOLERANCE[table] == tolerance
    t0 = time.perf_counter()
    rows = reproduce.reproduce_table(table)
    elapsed = time.perf_counter() - t0
    matches = sum(r.status == reproduce.STATUS_MATCH for r in rows)
    failing = [r for r in rows if r.status != reproduce.STATUS_MATCH]
    unexplained = [
        r.parameter for r in failing
        if not _explained(erratum.get((table, r.parameter)),
                          "computed_lower", "computed_upper")]
    ok = (matches >= 3) and not unexplained and (elapsed < budget)
    _verdict(num, ok,
             f"table {table}: {matches}/4 rows within {tolerance}, "
             f"{len(failing) - len(unexplained)}/{len(failing)} failing rows "
             f"explained in erratum, {elapsed:.2f}s (budget {budget:.0f}s)")
    assert not unexplained, (
        f"table {table} rows failing without an erratum note: {unexplained}")
    assert elapsed < budget
    assert matches >= 3, (
        f"only {matches}/4 rows of table {table} reproduce within {tolerance}; "
        f"failures: {[(r.parameter, r.delta_lower, r.delta_upper) for r in failing]}")


class TestCriterion1:
    def test_c1_table1_rows_reproduce_or_erratum(self, erratum):
        _table_criterion(1, table=1, tolerance=5e-3, budget=1.0,
                         erratum=erratum)


class TestCriterion2:
    def test_c2_table2_rows_reproduce_or_erratum(self, erratum):
        _table_criterion(2, table=2, tolerance=5e-3, budget=1.0,
                         erratum=erratum)


class TestCriterion3:
    def test_c3_scanned_tables_reproduce_seventy_percent(self, erratum):
        assert all(reproduce.TABLE_TOLERANCE[which] == 1e-2 for which in (3, 4, 5))
        t0 = time.perf_counter()
        all_rows = [(which, row)
                    for which in (3, 4, 5)
                    for row in reproduce.reproduce_table(which)]
        elapsed = time.perf_counter() - t0
        reproduced = [row for _, row in all_rows
                      if row.status == reproduce.STATUS_MATCH]
        missing = [(which, row.parameter) for which, row in all_rows
                   if row.status != reproduce.STATUS_MATCH
                   and not _explained(erratum.get((which, row.parameter)),
                                      "computed_lower", "computed_upper")]
        share = len(reproduced) / len(all_rows)
        ok = (share >= 0.70) and not missing and (elapsed < 30.0)
        _verdict(3, ok,
                 f"tables 3-5: {len(reproduced)}/{len(all_rows)} rows reproduce "
                 f"in stated bands within 1e-2 ({share:.0%}), "
                 f"failures without an erratum note: {len(missing)}, "
                 f"{elapsed:.2f}s (budget 30s)")
        assert not missing, (
            f"rows failing without an erratum note: {missing}")
        assert elapsed < 30.0
        assert share >= 0.70, (
            f"{len(reproduced)}/{len(all_rows)} rows reproduce ({share:.0%}); "
            "every table-5 row misses because no admissible weight r puts the "
            "replacement strength inside the stated band (it tops out near "
            "0.24 at r = 0, under the 0.54124 band floor)")


class TestCriterion4:
    def test_c4_closed_forms_match_general_route(self, erratum):
        assert reproduce.GRID_POINTS == 50
        t0 = time.perf_counter()
        failures = []
        total = 0
        for family in range(1, 6):
            for check in reproduce.reproduce_closed_forms(family):
                total += 1
                if check.max_deviation > 1e-9:
                    failures.append(
                        (family, check.quantity, check.max_deviation))
        elapsed = time.perf_counter() - t0
        unexplained = [(family, quantity) for family, quantity, _ in failures
                       if not _explained(erratum.get((family, quantity)),
                                         "max_deviation")]
        ok = not failures and elapsed < 10.0
        _verdict(4, ok,
                 f"closed forms: {total - len(failures)}/{total} quantities "
                 f"within 1e-9 on 50-point grids, failures without an "
                 f"erratum note: {len(unexplained)}, {elapsed:.2f}s "
                 f"(budget 10s)")
        assert not unexplained, (
            f"closed forms failing without an erratum note: {unexplained}")
        assert elapsed < 10.0
        assert not failures, (
            "printed forms disagreeing with the general route: "
            + "; ".join(f"family {f} {q} off by {d:.3e}" for f, q, d in failures))


class TestCriterion5:
    def test_c5_optimizer_anchors_and_biseparable_ceiling(self):
        t0 = time.perf_counter()
        ghz = maximize_svetlichny(states.make_reference("GHZ"), restarts=12, seed=5).value
        bell = maximize_chsh(states.make_reference("Bell-Phi+")).value
        rng = np.random.default_rng(606)
        worst = 0.0
        for i in range(50):
            rho = states.validate(corpus.random_biseparable(rng), 3)
            opt = maximize_svetlichny(rho, restarts=4, seed=2000 + i)
            worst = max(worst, opt.value)
        elapsed = time.perf_counter() - t0
        ghz_err = abs(ghz - 4.0 * math.sqrt(2.0))
        bell_err = abs(bell - 2.0 * math.sqrt(2.0))
        ok = (ghz_err <= 1e-6 and bell_err <= 1e-6
              and worst <= 4.0 + 1e-4 and elapsed < 60.0)
        _verdict(5, ok,
                 f"GHZ err {ghz_err:.1e}, Bell err {bell_err:.1e}, "
                 f"50 biseparable max {worst:.6f} <= 4+1e-4, {elapsed:.1f}s "
                 f"(budget 60s)")
        assert ghz_err <= 1e-6
        assert bell_err <= 1e-6
        assert worst <= 4.0 + 1e-4
        assert elapsed < 60.0


class TestCriterion6:
    def test_c6_chsh_optimum_matches_horodecki(self):
        rng = np.random.default_rng(606)
        worst = 0.0
        boundary_skips = 0
        for i in range(200):
            rho = states.validate(corpus.random_density(rng, 4), 2)
            m = nonlocality.horodecki_m(rho)
            optimum = maximize_chsh(rho)
            opt = optimum.value
            # the operator trace shares no code with the closed form
            settings = operators.ChshSettings(*map(operators.spin_observable,
                                                   optimum.vectors))
            assert abs(chsh_expectation(rho, settings) - opt) <= 1e-12, (i, opt)
            worst = max(worst, abs(opt - 2.0 * math.sqrt(m)))
            assert abs(opt - 2.0 * math.sqrt(m)) <= 1e-4, (i, m, opt)
            if abs(m - 1.0) <= 2e-4:
                boundary_skips += 1
                continue
            assert (m > 1.0) == (opt > 2.0), (i, m, opt)
        _verdict(6, True,
                 f"200 random states: worst |opt - 2 sqrt(M)| = {worst:.1e} "
                 f"<= 1e-4, the expectation at its settings within 1e-12, "
                 f"violation iff M > 1 "
                 f"({boundary_skips} within 2e-4 of the boundary skipped)")


class TestCriterion7:
    def test_c7_k_sandwich_on_undetected_grids(self):
        failures = []
        grids = {
            states.FAMILY_MAXIMAL_SLICE: reproduce.CLOSED_FORM_RANGES[3],
            states.FAMILY_GHZ_W_CONVEX: reproduce.CLOSED_FORM_RANGES[4],
            states.FAMILY_IDENTITY_W: reproduce.CLOSED_FORM_RANGES[5],
        }
        points = 0
        for family, (lo, hi) in grids.items():
            for param in np.linspace(lo, hi, 50):
                reduced = lemmas.example_reduced(family, float(param))
                k = nonlocality.k_value(reduced, XY)
                k_lo = lemmas.k_lower_bound(reduced, XY)
                k_hi = lemmas.k_upper_bound(reduced, XY)
                points += 1
                if not (k_lo - 1e-10 <= k <= k_hi + 1e-10):
                    failures.append((family, param, k_lo, k, k_hi))
        _verdict(7, not failures,
                 f"k sandwich holds at {points - len(failures)}/{points} "
                 f"grid points of families 3-5 within 1e-10")
        assert not failures


class TestCriterion8:
    def test_c8_property_suites(self):
        rng = np.random.default_rng(20260814)
        # two-sided trace inequality on PSD operands, 1000 trials
        sandwich_ok = True
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            m = corpus.random_density(rng, dim) * float(rng.uniform(0.5, 3.0))
            n = corpus.random_density(rng, dim) * float(rng.uniform(0.5, 3.0))
            lo, mid, hi = lemmas.sandwich(m, n)
            if not (lo - 1e-10 <= mid <= hi + 1e-10):
                sandwich_ok = False
                break
        # reduction and transpose against index oracles, 1e-13
        oracle_ok = True
        for _ in range(200):
            rho3 = states.validate(corpus.random_density(rng, 8), 3)
            label = states.LABELS[int(rng.integers(3))]
            ours = states.partial_trace(rho3, label).matrix
            ref = corpus.marginal(rho3.matrix, corpus.PARTIES.replace(label, ""))
            if np.abs(ours - ref).max() > 1e-13:
                oracle_ok = False
                break
            rho2 = states.validate(corpus.random_density(rng, 4), 2)
            ours_pt = states.partial_transpose(rho2)
            ref_pt = corpus.partial_transpose(rho2.matrix)
            if np.abs(ours_pt - ref_pt).max() > 1e-13:
                oracle_ok = False
                break
        # negativity vanishes on separable mixtures
        separable_ok = all(
            states.negativity(states.validate(corpus.random_product_two_qubit(rng), 2))
            <= 1e-12
            for _ in range(100))
        # every bound formula returns exactly zero at unit weight
        rho1 = states.make_example(states.FAMILY_PURE_W1, 0.92)
        red1 = states.partial_trace(rho1, "B")
        s_nl = nonlocality.s_nl_detected(red1, XZ)
        spectra1 = pair_spectra(rho1, red1, ("A", "C"))
        lower1, upper1 = spectra1.bounds(spectra1.detected(s_nl), 1.0, 1.0)
        rho5 = states.make_example(states.FAMILY_IDENTITY_W, 0.82)
        red5 = states.partial_trace(rho5, "A")
        k5 = nonlocality.s_nl_new(red5, XY, 0.0).k
        spectra5 = pair_spectra(rho5, red5, ("B", "C"))
        lower5, upper5 = spectra5.bounds(
            spectra5.undetected(k5, spectra5.witness_max(XY)), 1.0, 1.0)
        vanish_ok = (
            nonlocality.is_detected(red1, XZ)
            and not nonlocality.is_detected(red5, XY)
            and lower1 == 0.0
            and upper1 == 0.0
            and lower5 == 0.0
            and upper5 == 0.0)
        # restart determinism, bit for bit
        det_a = maximize_svetlichny(rho5, restarts=6, seed=17)
        det_b = maximize_svetlichny(rho5, restarts=6, seed=17)
        determinism_ok = det_a == det_b

        ok = (sandwich_ok and oracle_ok and separable_ok and vanish_ok
              and determinism_ok)
        _verdict(8, ok,
                 f"sandwich(1000)={sandwich_ok}, oracles(200)={oracle_ok}, "
                 f"separable(100)={separable_ok}, vanish-at-1={vanish_ok}, "
                 f"determinism={determinism_ok}")
        assert sandwich_ok
        assert oracle_ok
        assert separable_ok
        assert vanish_ok
        assert determinism_ok


class TestCriterion9:
    def test_c9_verdicts_on_reference_rows_and_null_states(self):
        failures = []
        for which, rows in reproduce.TABLES.items():
            family = states.FAMILIES[which - 1]
            for row in rows:
                verdict = detect_genuine(states.make_example(family, row[0]))
                if verdict.outcome != "genuine":
                    failures.append((family, row[0], verdict.outcome))
        product = detect_genuine(states.make_reference("product-000")).outcome
        mixed = detect_genuine(states.validate(np.eye(8) / 8.0, 3)).outcome
        ok = (not failures and product == "not-applicable"
              and mixed == "not-applicable")
        _verdict(9, ok,
                 f"genuine on all {sum(len(r) for r in reproduce.TABLES.values())} "
                 f"reference rows (failures: {len(failures)}), "
                 f"product-000 -> {product}, identity/8 -> {mixed}")
        assert not failures
        assert product == "not-applicable"
        assert mixed == "not-applicable"

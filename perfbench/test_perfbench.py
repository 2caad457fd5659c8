"""Tests of the benchmark's own oracles and tracer.

    python3 -m pytest perfbench -q

Each oracle helper is held against a closed-form value and against the
package function it stands in for, so a mismatch points at one side.
"""

from __future__ import annotations

import math
import signal
import sys
from time import perf_counter

import numpy as np
import pytest

import calibrate
import oracle
import run
import tracer as tracing
import workloads


@pytest.fixture(scope="module")
def pkg():
    run.import_cli()
    return {name: sys.modules[f"svetlichny.{name}"]
            for name in ("bounds", "optimize", "operators", "states", "nonlocality")}


def _plane(phi: float) -> list[float]:
    return [math.cos(phi), math.sin(phi), 0.0]


# GHZ correlations in the xy plane are cos(phi_a + phi_b + phi_c); these
# angles make all eight Svetlichny terms +sqrt(2)/2.
GHZ_OPTIMAL = [_plane(phi) for phi in (0.0, math.pi / 2, 0.0, math.pi / 2,
                                       -math.pi / 4, math.pi / 4)]


def test_svetlichny_operator_reaches_4_sqrt2_on_ghz(pkg):
    ghz = oracle.REFERENCE_STATES["GHZ"]
    assert oracle.svetlichny_value(ghz, *GHZ_OPTIMAL) == pytest.approx(4 * math.sqrt(2), abs=1e-12)
    unit = pkg["operators"].UnitVector3.from_array
    settings = pkg["operators"].SvetlichnySettings(*(unit(v) for v in GHZ_OPTIMAL))
    rho = pkg["states"].make_reference("GHZ")
    assert pkg["optimize"].svetlichny_expectation(rho, settings) == pytest.approx(
        oracle.svetlichny_value(ghz, *GHZ_OPTIMAL), abs=1e-12)


def test_chsh_operator_and_horodecki_reach_tsirelson_on_bell():
    bell = oracle.REFERENCE_STATES["Bell-Phi+"]
    s = 1 / math.sqrt(2)
    value = oracle.chsh_value(bell, [0, 0, 1], [1, 0, 0], [s, 0, s], [-s, 0, s])
    assert value == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert oracle.horodecki_chsh_max(bell) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_horodecki_matches_package(pkg):
    rng = np.random.default_rng(7)
    for _ in range(5):
        rho3 = oracle.random_state(rng, 3)
        pair = oracle.partial_trace(rho3, "A")
        m = pkg["nonlocality"].horodecki_m(pkg["states"].validate(pair, 2))
        assert oracle.horodecki_chsh_max(pair) == pytest.approx(2 * math.sqrt(m), abs=1e-9)


@pytest.mark.parametrize("pair", [("A", "B"), ("B", "A"), ("A", "C"),
                                  ("C", "A"), ("B", "C"), ("C", "B")])
def test_index_built_embedding_matches_package(pkg, pair):
    rng = np.random.default_rng(11)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(oracle.embed_pair(op, pair), pkg["bounds"].embed_pair(op, pair))


def test_reductions_and_negativity_match_package(pkg):
    states = pkg["states"]
    rng = np.random.default_rng(3)
    for rank in workloads.RANDOM_RANKS:
        rho = oracle.random_state(rng, rank)
        assert np.linalg.matrix_rank(rho, tol=1e-10) == rank
        dm = states.validate(rho, 3)
        for traced in oracle.LABELS:
            reduced = states.partial_trace(dm, traced)
            assert np.allclose(oracle.partial_trace(rho, traced), reduced.matrix, atol=1e-14)
            assert np.allclose(oracle.partial_transpose_second(reduced.matrix),
                               states.partial_transpose(reduced), atol=0)
            assert oracle.negativity(reduced.matrix) == pytest.approx(
                states.negativity(reduced), abs=1e-10)


def test_states_match_package(pkg):
    states = pkg["states"]
    for family, (low, high) in workloads.FAMILY_RANGES.items():
        x = 0.5 * (low + high)
        assert np.allclose(oracle.family_state(family, x),
                           states.make_example(family, x).matrix, atol=1e-14)
    for name, rho in oracle.REFERENCE_STATES.items():
        assert np.allclose(rho, states.make_reference(name).matrix, atol=1e-14)


def test_certificate_spectra_match_report(pkg):
    bounds, states, operators = pkg["bounds"], pkg["states"], pkg["operators"]
    rho = states.make_example("identity-W", 0.82)
    report = bounds.full_report(rho, bounds.BoundConfig(
        p=0.5, q=0.5, witness=operators.plane_witness("xy"), reduced_pair=("B", "C")))
    for name, want in oracle.certificate_spectra(oracle.family_state("identity-W", 0.82),
                                                 ("B", "C")).items():
        assert report.intermediates[name] == pytest.approx(want, abs=1e-10), name


def test_matrix_file_round_trips_through_the_parser(pkg):
    cli = run.import_cli()
    rho = oracle.random_state(np.random.default_rng(5), 3)
    assert np.array_equal(cli.parse_matrix_text(oracle.format_matrix(rho)), rho)


def test_numbers_close():
    assert oracle.numbers_close({"a": [1.0, "x", None]}, {"a": [1.0 + 1e-12, "x", None]})
    assert not oracle.numbers_close({"a": [1.0]}, {"a": [1.1]})
    assert not oracle.numbers_close({"a": 1.0}, {"a": 1.0, "b": 2.0})
    assert not oracle.numbers_close([True], [1.0])


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(50)]
    value, percentile, n = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert (percentile, n) == (80.0, 50)
    assert run.tail(samples[:run.TAIL_MIN_SAMPLES - 1]) is None


def test_calibrated_time_divides_each_stretch_by_its_slowdown():
    marks = [(1.0, 1.1, 2.0), (5.0, 5.1, 9.0)]  # the second lies outside the interval
    wall, calibrated = calibrate.calibrated(0.0, 2.1, 1.0, marks, 2.0)
    assert wall == pytest.approx(2.0)
    assert calibrated == pytest.approx(1.0 / 1.5 + 1.0 / 2.0)


def test_sampler_reads_during_an_interval_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        end = perf_counter() + 10 * calibrate.SAMPLE_INTERVAL_S
        while perf_counter() < end:
            pass
    assert len(sampler.marks) >= 2
    assert all(start < stop and slowdown > 0 for start, stop, slowdown in sampler.marks)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", "cli", 0.0, 10.0, -1, 0, None],
        ["bounds.detect_genuine", "bounds", 1.0, 9.0, 0, 0, None],
        ["linalg.hermitian_eigensystem", "linalg", 2.0, 5.0, 1, 0, ((8, b"x"),)],
        ["linalg.numpy.eigh", "linalg", 3.0, 4.0, 2, 0, ((8, b"x"),)],
        ["linalg.hermitian_eigensystem", "linalg", 5.0, 6.0, 1, 0, ((4, b"x"),)],
    ]
    m = tracing.layer_metrics(spans, [1.0])
    assert m["cli.self_ms"] == pytest.approx(2e3)
    assert m["bounds.self_ms"] == pytest.approx(4e3)
    assert m["linalg.self_ms"] == pytest.approx(4e3)
    assert (m["linalg.eig8_calls"], m["linalg.eig4_calls"]) == (1, 1)
    assert m["linalg.eig_distinct_ratio"] == pytest.approx(1.0)


def test_tracer_counts_repeat_and_uninstall_restores(pkg):
    cli = run.import_cli()
    linalg = sys.modules["svetlichny.linalg"]
    original = linalg.hermitian_eigenvalues, np.linalg.eigh
    tracer = tracing.Tracer()
    tracer.install()
    counts = []
    try:
        for _ in range(2):
            tracer.reset()
            tracer.op = 0
            assert cli.main(run.PROBE[:-2]) == 0
            tracer.op = None
            counts.append(tracing.solves_by_size(tracer.spans))
    finally:
        tracer.uninstall()
    assert counts[0] == counts[1] and sum(counts[0].values()) > 0
    assert (linalg.hermitian_eigenvalues, np.linalg.eigh) == original

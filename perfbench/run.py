"""Benchmark for `svet analyze`, `svet optimize` and `svet reproduce`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each operation is one in-process call of `svetlichny.cli.main(argv)` on
inputs built from --seed (see workloads.py), checked afterwards against
independent numpy oracles (oracle.py). A failed check or a raised
exception counts as a failed operation and never stops the pass.

Every reported time is calibrated: the wall time of each operation and
of each set-up is scaled by a machine-speed gauge read before, after and
every 20 ms during it (calibrate.py), because this kind of shared host
changes speed by up to 2x within seconds. Raw wall times are printed too.

--trace 0 measures end to end:
- setup_s: purge and re-import the package, then build the inputs;
  median of SETUP_REPEATS repeats.
- pass_s: one untimed warm-up pass, then whole passes over the inputs
  until --seconds have gone by; the median pass, checks left outside.
- op_p50_ms: median over operations of each operation's median latency.
- peak_rss_mb: the process's peak resident set.
Printed but not in the final JSON, because they do not exist or are 0 on
some workload: op_tail_ms (with its percentile and sample count),
fail_ratio (with the name of every failed check), converged_ratio on
optimize and the verdict counts per pass on certify.

--trace 1 runs untraced passes for half the time, then wraps the
package's functions (tracer.py) and runs at least two traced passes. It
reports per-operation counts and self times by module, checks that every
count repeats exactly between traced passes, reports the tracing
overhead as traced minus untraced pass_s, and writes the spans of the
last traced pass to .perfbench_run/ in the checkout. On certify it also
traces the identity-W 0.82 analyze call twice and prints its solves by
matrix size.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics. Without a package to import under src/
the benchmark exits 2 without printing it. BLAS threads are pinned to 1
before numpy loads: the matrices are 8x8 and threads only add noise.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_REPEATS = 21
# With 10 samples beyond it, 40 samples put the tail percentile at p75 or higher.
TAIL_MIN_SAMPLES = 40
PROBE = ["analyze", "--family", "identity-W", "--param", "0.82", "--format", "json"]


class MissingProgram(Exception):
    pass


def import_cli():
    """Import svetlichny.cli afresh from this checkout's src/ and nowhere else."""
    for name in [n for n in sys.modules if n == "svetlichny" or n.startswith("svetlichny.")]:
        del sys.modules[name]
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)
    try:
        cli = importlib.import_module("svetlichny.cli")
    except ImportError as exc:
        raise MissingProgram(f"cannot import svetlichny from {SOURCE}: {exc}") from None
    if not os.path.abspath(cli.__file__).startswith(SOURCE + os.sep):
        raise MissingProgram(f"svetlichny resolved to {cli.__file__}, outside {SOURCE}")
    return cli


def timed(fn, before: float):
    """Run fn under the gauge: (its result, wall s, calibrated s, reading after)."""
    with calibrate.Sampler() as sampler:
        start = perf_counter()
        result = fn()
        end = perf_counter()
    after = calibrate.boundary_reading()
    wall, calibrated = calibrate.calibrated(start, end, before, sampler.marks, after)
    return result, wall, calibrated, after


def setup(workload: str, seed: int, work: str):
    """Median calibrated time of (import, build inputs) over the repeats, and the last result."""
    times = []
    before = calibrate.boundary_reading()
    for _ in range(SETUP_REPEATS):
        (cli, ops), _, calibrated, before = timed(
            lambda: (import_cli(), workloads.WORKLOADS[workload](seed, work)), before)
        times.append(calibrated)
    return statistics.median(times), cli, ops


class Tally:
    """Operations attempted and failed, failures by check, facts per pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures = collections.Counter()
        self.example: dict[str, str] = {}

    def record(self, op, code, stdout: str) -> dict:
        self.attempted += 1
        try:
            if isinstance(code, Exception):
                raise workloads.CheckFailed(f"raised {type(code).__name__}")
            return op.check(code, stdout)
        except workloads.CheckFailed as exc:
            check = str(exc)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            check = f"unreadable output ({type(exc).__name__})"
        self.failed += 1
        self.failures[check] += 1
        self.example.setdefault(check, op.label)
        return {}


def call(cli, argv, before: float):
    """One CLI call with output captured: (exit code or exception, stdout, wall s,
    calibrated s, gauge reading after)."""
    def invoke():
        try:
            return cli.main(argv)
        except Exception as exc:  # a crash fails this operation, not the pass
            return exc

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code, wall, calibrated, after = timed(invoke, before)
    return code, out.getvalue(), wall, calibrated, after


class Pass(NamedTuple):
    """Per-operation times of one pass: calibrated, raw wall, and the ratio between them."""

    calibrated: list[float]
    raw: list[float]
    scales: list[float]
    facts: collections.Counter


def run_pass(cli, ops, tally: Tally, tracer=None) -> Pass:
    result = Pass([], [], [], collections.Counter())
    before = calibrate.boundary_reading()
    for index, op in enumerate(ops):
        if op.prepare:
            op.prepare()
        if tracer:
            tracer.op = index
        code, stdout, wall, calibrated, before = call(cli, op.argv, before)
        if tracer:
            tracer.op = None
        result.calibrated.append(calibrated)
        result.raw.append(wall)
        result.scales.append(calibrated / wall)
        result.facts.update(f"{k}={v}" for k, v in tally.record(op, code, stdout).items())
    return result


def timed_passes(cli, ops, seconds: float, tally: Tally) -> list[Pass]:
    """Whole passes until `seconds` of wall time have gone by."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(cli, ops, tally))
    return passes


def pass_seconds(passes: list[Pass]) -> float:
    return statistics.median(sum(p.calibrated) for p in passes)


def tail(samples: list[float]):
    """Highest percentile with at least 10 samples beyond it, or None below TAIL_MIN_SAMPLES."""
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def converged(facts: collections.Counter) -> tuple[int, int]:
    """Optimize calls whose winning restart converged, and optimize calls."""
    return facts["converged=True"], facts["converged=True"] + facts["converged=False"]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "commit": commit_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "SVET_SEED": os.environ.get("SVET_SEED"),
    }


def commit_hash() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(args, cli, ops, tally: Tally, lines: list[str]) -> dict:
    run_pass(cli, ops, tally)  # warm-up
    passes = timed_passes(cli, ops, args.seconds, tally)
    samples = [x for p in passes for x in p.calibrated]
    raw = [x for p in passes for x in p.raw]
    metrics = {
        "pass_s": (pass_seconds(passes), "s"),
        "op_p50_ms": (statistics.median(
            statistics.median(column) for column in zip(*(p.calibrated for p in passes))) * 1e3,
            "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines.append(f"passes: {len(passes)}, operations per pass: {len(ops)}; raw wall time: "
                 f"pass median {statistics.median(sum(p.raw) for p in passes):.4f} s, "
                 f"op p50 {statistics.median(raw) * 1e3:.4f} ms, machine speed "
                 f"{statistics.median(x for p in passes for x in p.scales):.3f} of reference")
    spread = tail(samples)
    if spread is None:
        lines.append(f"op_tail_ms: not reported ({len(samples)} samples, "
                     f"needs {TAIL_MIN_SAMPLES})")
    else:
        value, pct, n = spread
        lines.append(f"op_tail_ms: {value * 1e3:.4f} ms at p{pct:.1f} of {n} samples")
    facts = passes[-1].facts
    hits, calls = converged(facts)
    if calls:
        lines.append(f"converged_ratio: {hits}/{calls} calls")
    verdicts = {k.split("=", 1)[1]: v for k, v in facts.items() if k.startswith("verdict=")}
    if verdicts:
        lines.append(f"verdicts per pass: {json.dumps(dict(sorted(verdicts.items())))}")
    return metrics


def measure_traced(args, cli, ops, tally: Tally, lines: list[str]):
    run_pass(cli, ops, tally)  # warm-up
    untraced = timed_passes(cli, ops, args.seconds / 2, tally)
    tracer = tracing.Tracer()
    tracer.install()
    traced, per_pass, probes = [], [], []
    try:
        start = perf_counter()
        while len(traced) < 2 or perf_counter() - start < args.seconds / 2:
            tracer.reset()
            traced.append(run_pass(cli, ops, tally, tracer))
            per_pass.append(tracing.layer_metrics(tracer.spans, traced[-1].scales))
        os.makedirs(RUN_DIR, exist_ok=True)
        spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed,
                                 "labels": [op.label for op in ops]})
        if args.workload == "certify":
            probe = workloads.Op("identity-W 0.82", PROBE, lambda code, out: {})
            for _ in range(2):
                tracer.reset()
                run_pass(cli, [probe], tally, tracer)
                probes.append(dict(sorted(tracing.solves_by_size(tracer.spans).items())))
    finally:
        tracer.uninstall()
    counts = [{k: m[k] for k in tracing.COUNT_METRICS} for m in per_pass]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        tally.failed += 1
        tally.failures["trace.counts_repeat"] += 1
    if probes:
        lines.append(f"identity-W 0.82 analyze, solves by matrix size: {probes}")
        if probes[0] != probes[1]:
            tally.failed += 1
            tally.failures["trace.probe_repeat"] += 1
    lines.append(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, "
                 f"counts repeat exactly: {repeat}; spans in {os.path.relpath(spans_path, ROOT)}")
    lines.append("raw wall time: traced pass median "
                 f"{statistics.median(sum(p.raw) for p in traced):.4f} s, untraced "
                 f"{statistics.median(sum(p.raw) for p in untraced):.4f} s")
    metrics = {}
    for name in per_pass[0]:
        unit = "ms" if name.endswith("_ms") else ("ratio" if name.endswith("ratio")
                                                  else "count")
        metrics[name] = (statistics.median(m[name] for m in per_pass), unit)
    hits, calls = converged(traced[-1].facts)
    metrics["optimize.converged_ratio"] = (hits / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_s"] = (pass_seconds(traced) - pass_seconds(untraced), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup_s, cli, ops = setup(args.workload, args.seed, work)
        tally = Tally()
        lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
                 f"trace={args.trace}",
                 f"environment: {json.dumps(environment())}"]
        if args.trace:
            metrics = measure_traced(args, cli, ops, tally, lines)
        else:
            metrics = {"setup_s": (setup_s, "s"), **measure(args, cli, ops, tally, lines)}
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines.append(f"fail_ratio: {tally.failed}/{tally.attempted}")
    for check, count in sorted(tally.failures.items()):
        example = tally.example.get(check)
        lines.append(f"  failed check {check}: {count}"
                     + (f" (first: {example})" if example else ""))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The nakamura benchmark: one workload, one seed, one closed-loop run.

Usage, from the repository root::

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 30 --trace 0

The run is a single-process, single-threaded closed loop: one caller, each
op starting when the previous one returns.  The seed makes the inputs; the
library under test, imported from ``src/``, only ever sees those inputs.
Ops run in whole rounds of the workload's schedule until their summed time
reaches ``--seconds``.  After each op, outside its timed region, every
verdict is compared with :mod:`reference`; an op fails when it raises or
when any verdict differs.

``--trace 0`` reports the end-to-end metrics.  Their timings are scaled to
a reference machine speed by :mod:`calibrate`, which times a fixed kernel
after every op; the unscaled figures are printed too.

* ``setup_s``: median, over nine fresh interpreters, of the time to import
  ``nakamura`` and load one round of the workload's spec documents through
  ``cli.spec_from_document``.  Input generation is not included.  Each is
  scaled by the reference imports of :mod:`calibrate`, timed in a fresh
  interpreter started just after it.
* ``ops_per_s``: ops completed per second of summed op time.
* ``op_p50_ms`` and ``op_p90_ms``: op latency percentiles.
* ``peak_rss_mb``: this process's own peak resident set size.
* ``ok_ratio``: ops whose every verdict matched, over ops attempted.

``--trace 1`` alternates untraced rounds with rounds that record one span
per library call, writes the spans to ``perfbench/out/``, and reports each
layer's busy time, call count and work counts per traced op.  Per op, so
that a figure follows the layer's speed and not how many rounds fit in
``--seconds``: the traced ops are whole rounds, so the mix is the same in
every run.  The gap between traced and untraced rounds is the tracing
overhead.  These timings are not scaled.

Before the final line the run prints human-readable lines: the machine
facts, each metric with its unit and sample count, the unscaled timings as
one ``unscaled:`` JSON object, and every failing op.
The final line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 9
# Reserved for checking a later claimed gain; never used while tuning.
HELD_OUT_SEED = 90210

# Per-layer metrics: one ``.ms`` and one ``.calls`` each.
TIMED_FUNCTIONS = {
    "cohomology": (
        "hodge_table", "betti_numbers", "dolbeault_generators",
        "admissible_character_set", "frolicher_degenerates",
        "deformation_dimension", "pkahler_status", "ce_betti_oracle",
    ),
    "forms": ("d", "wedge", "conjugate", "del_", "dbar"),
    "construct": ("analyze_integer_matrix", "build_spec"),
    "automorphisms": (
        "commutant_search", "verify_candidate", "deck_conjugate",
        "h_coset_group", "e_mode_space",
    ),
    "model": ("validate_spec", "kodaira_dimension"),
    "tau": ("canonical_triple", "same_fiber"),
    "cli": ("spec_from_document", "document_from_spec"),
}
COUNTS = (
    "cohomology.subsets",
    "cohomology.dolbeault_generators.out",
    "forms.terms_out",
    "automorphisms.commutant_search.states",
    "automorphisms.commutant_search.found",
)

SETUP_CHILD = """
import json, sys, time
docs = json.load(sys.stdin)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nakamura
from nakamura.cli import spec_from_document
specs = [spec_from_document(doc) for doc in docs]
print(time.perf_counter() - t0)
"""


def import_library():
    """Import ``nakamura`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "nakamura" / "__init__.py").is_file():
        sys.exit(f"error: no nakamura package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nakamura

    if SRC not in Path(nakamura.__file__).resolve().parents:
        sys.exit(f"error: nakamura was imported from {nakamura.__file__}")


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else "unknown"
    return ref


def machine_facts(args):
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def child_seconds(code, *args, stdin=""):
    """Run ``code`` in a fresh interpreter; it prints a time in seconds."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def setup_seconds(workload_cls, seed):
    """Median import-plus-load time over fresh interpreters, each scaled by
    the reference imports timed next to it, and the unscaled median."""
    wl = workload_cls(seed)
    docs = json.dumps([wl.document(wl.next_op()) for _ in wl.schedule])
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        setup = child_seconds(SETUP_CHILD, str(SRC), stdin=docs)
        reference = child_seconds(calibrate.IMPORT_CHILD)
        times.append(setup)
        scaled.append(setup * calibrate.IMPORT_REFERENCE_S / reference)
    return statistics.median(scaled), statistics.median(times)


class Samples:
    """What a run observed: each op's latency, kernel times measured just
    after each op (one per started 0.1 s of the op, so every stretch of the
    run is sampled alike), and each failed op with its problems."""

    def __init__(self):
        self.latencies = []
        self.kernel = []
        self.failures = []

    def speed(self):
        return calibrate.speed(self.kernel)


def run_round(wl, tracer, samples):
    """Run one round of the workload's schedule into ``samples``."""
    for _ in wl.schedule:
        op = wl.next_op()
        prepared = wl.prepare(op)
        tracer.begin_op(op.index)
        t0 = perf_counter()
        try:
            out = wl.run(op, prepared, tracer)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        samples.latencies.append(perf_counter() - t0)
        tracer.end_op()
        problems = [error] if error else wl.check(op, out)
        if problems:
            samples.failures.append((op, problems))
        for _ in range(1 + int(samples.latencies[-1] / 0.1)):
            samples.kernel.append(calibrate.measure())


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least ``q`` percent
    of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def report_failures(failures):
    for op, problems in failures:
        print(f"failed op {op.index} shape={op.shape}: {'; '.join(problems[:3])}")


def end_to_end(args, workload_cls):
    setup, setup_raw = setup_seconds(workload_cls, args.seed)
    wl = workload_cls(args.seed)
    samples = Samples()
    while sum(samples.latencies) < args.seconds:
        run_round(wl, NullTracer(), samples)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw, failures = samples.latencies, samples.failures
    speed = samples.speed()
    scaled = [x * speed for x in raw]
    n = len(raw)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "op_p50_ms": (percentile(scaled, 50) * 1000, "ms"),
        "op_p90_ms": (percentile(scaled, 90) * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_ratio": ((n - len(failures)) / n, "ratio"),
    }
    p90 = percentile(raw, 90)
    print(f"ops: {n} over {sum(raw):.3f} s of op time; "
          f"{sum(1 for x in raw if x > p90)} samples above p90")
    print("unscaled: " + json.dumps({
        "setup_s": setup_raw,
        "ops_per_s": n / sum(raw),
        "op_p50_ms": percentile(raw, 50) * 1000,
        "op_p90_ms": p90 * 1000,
    }))
    print(f"machine speed against the reference: {speed:.4f} "
          f"({len(samples.kernel)} kernel samples)")
    print(f"fail_ratio = {len(failures)}/{n} = {len(failures) / n:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    report_failures(failures)
    return n, failures, metrics


def per_layer(args, workload_cls):
    """Alternate untraced and traced rounds of one op stream (in the order
    ABBA, so a steady drift in machine speed cancels) until the traced
    rounds reach half of ``--seconds``.  Both halves see the same shapes.
    Every figure is per traced op."""
    wl = workload_cls(args.seed)
    tracer = Tracer()
    plain, traced_samples = Samples(), Samples()
    pair = 0
    while sum(traced_samples.latencies) < args.seconds / 2:
        order = (False, True) if pair % 2 == 0 else (True, False)
        for traced_round in order:
            if traced_round:
                run_round(wl, tracer, traced_samples)
            else:
                run_round(wl, NullTracer(), plain)
        pair += 1
    ops = len(traced_samples.latencies)
    failures = plain.failures + traced_samples.failures
    untraced = sum(plain.latencies) / len(plain.latencies)
    traced = sum(traced_samples.latencies) / ops

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
    times = tracer.self_times()
    metrics = {}
    for layer, names in TIMED_FUNCTIONS.items():
        for fn in names:
            calls, total, _ = times.get(f"{layer}.{fn}", (0, 0.0, 0.0))
            metrics[f"{layer}.{fn}.ms"] = (total * 1000 / ops, "ms/op")
            metrics[f"{layer}.{fn}.calls"] = (calls / ops, "count/op")
    layer_self = {layer: 0.0 for layer in ("op",) + tuple(TIMED_FUNCTIONS)}
    for name, (_, _, self_s) in times.items():
        layer_self[name.split(".")[0]] += self_s / ops
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_ms"] = (self_s * 1000, "ms/op")
    metrics["cohomology.self_share"] = (layer_self["cohomology"] / traced, "ratio")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name] / ops, "count/op")
    base = tracer.counts["construct.exact_ratio.base"]
    metrics["construct.exact_ratio"] = (
        tracer.counts["construct.exact"] / base if base else 0.0, "ratio")
    metrics["construct.exact_ratio.base"] = (base / ops, "count/op")
    states = tracer.counts["automorphisms.commutant_search.states"]
    metrics["automorphisms.commutant_search.hit_ratio"] = (
        tracer.counts["automorphisms.commutant_search.found"] / states if states else 0.0,
        "ratio")
    metrics["ops.traced_ms"] = (traced * 1000, "ms/op")
    metrics["ops.untraced_ms"] = (untraced * 1000, "ms/op")
    metrics["trace.overhead_ratio"] = (traced / untraced - 1, "ratio")
    metrics["trace.spans"] = (len(tracer.spans) / ops, "count/op")

    print(f"traced ops: {ops}, {traced * 1000:.3f} ms/op; "
          f"untraced ops: {len(plain.latencies)}, {untraced * 1000:.3f} ms/op")
    print(f"self time per traced op and layer ({args.workload}):")
    for layer, self_s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:14s} {self_s * 1000:10.3f} ms  {self_s / traced:6.1%}")
    report_failures(failures)
    return ops + len(plain.latencies), failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]

    measure = per_layer if args.trace else end_to_end
    n, failures, metrics = measure(args, workload_cls)
    print("facts: " + json.dumps(dict(machine_facts(args), ops=n)))
    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

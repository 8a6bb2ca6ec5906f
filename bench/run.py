"""Benchmark for toricount: one workload per run, untraced or traced.

    python3 bench/run.py --workload nef_count --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it imports toricount from the
checkout's src/ and nothing else of the repository.  The seed draws the
workload's inputs.  Set-up (import toricount afresh, build the lattices,
the height evaluators, alpha and c_P) runs SETUPS times, and each of the
last COLD_PASSES set-ups is followed by a cold pass of the workload's
operations.  Later passes then run one after another until the next one
would end more than --seconds after the first set-up.  Timings are
rescaled to a fixed core speed, as CoreSpeed explains.
Every operation is checked against `reference`.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of BENCHMARK.json; the traced run alternates traced and untraced later
passes so it can report its own overhead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Raw results and the spans of a traced run are written to bench/results/.
"""

import argparse
import gc
import importlib
import json
import platform
import random
import resource
import signal
import statistics
import sys
from fractions import Fraction
from itertools import cycle
from math import gcd
from pathlib import Path
from time import perf_counter

import reference
from tracing import Tracer
from workloads import KNOWN_FAULT, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUPS = 7
COLD_PASSES = 3
CALIBRATION_ROUNDS = 300
SAMPLE_PERIOD_S = 0.025
# the calibration loop's time on an unloaded core of the machine where the
# benchmark was defined; timings are rescaled to this speed
REFERENCE_CALIBRATION_S = 0.0008


def import_toricount():
    """A fresh import of toricount from the checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "toricount" or m.startswith("toricount.")]:
        del sys.modules[name]
    tc = importlib.import_module("toricount")
    if SRC.resolve() not in Path(tc.__file__).resolve().parents:
        raise ImportError(f"toricount came from {tc.__file__}, not {SRC}")
    return tc


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work of the kind
    toricount does (Fraction arithmetic, gcds, dict stores): the speed of
    the core right now."""
    t0 = perf_counter()
    table, f, g = {}, Fraction(1), 0
    for i in range(1, CALIBRATION_ROUNDS):
        table[i * 7919 % 1009] = i
        f = f * Fraction(i + 1, i + 2) if i % 3 else f + Fraction(1, i)
        g = gcd(g + i * i, 3 * i)
    return perf_counter() - t0


class CoreSpeed:
    """Times a block of work and samples the core's speed while it runs.

    Neighbours on a shared host slow every instruction of this process, by
    up to half and for seconds at a time.  A SIGALRM every SAMPLE_PERIOD_S
    runs `calibrate` between two bytecodes of the work.  The block's own
    time is its wall time less the time spent in those samples; `scaled`
    rescales it by the mean sample to the speed REFERENCE_CALIBRATION_S
    stands for.
    """

    def __init__(self):
        self.inside = []

    def _sample(self, signum, frame):
        self.inside.append(calibrate())

    def run(self, work):
        """(result, seconds, samples) of one call of work()."""
        gc.collect()  # so no garbage of an earlier block is collected here
        before = calibrate()
        self.inside = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = perf_counter()
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        samples = [before, *self.inside, calibrate()]
        return result, wall - sum(self.inside), samples


def scaled(seconds, samples):
    return seconds * REFERENCE_CALIBRATION_S / statistics.fmean(samples)


def run_pass(ops):
    outcomes = []
    for name, op in ops:
        try:
            ok, observed = op()
        except Exception as exc:  # an operation that raises has failed
            ok, observed = False, {"error": repr(exc)}
        outcomes.append((name, ok, observed))
    return outcomes


# per-layer metric "<layer>.<name>": a total of the layer's spans, or the
# ratio of two totals, and its unit
LAYER_METRICS = [
    ("counting.enumerate_region", "calls", None, "count"),
    ("counting.enumerate_region", "s", None, "s"),
    ("counting.enumerate_region", "self_s", None, "s"),
    ("counting.enumerate_region", "candidates", None, "count"),
    ("counting.enumerate_region", "candidates_per_s", ("candidates", "s"),
     "1/s"),
    ("counting.enumerate_region", "hit_ratio", ("tuples", "candidates"),
     "ratio"),
    ("counting.coordinate_bounds", "calls", None, "count"),
    ("counting.coordinate_bounds", "s", None, "s"),
    ("heights.multi_height", "calls", None, "count"),
    ("heights.multi_height", "s", None, "s"),
    ("counting.count_cone_box", "s", None, "s"),
    ("counting.tabulate_f", "s", None, "s"),
    ("counting.hyperbola_sum", "s", None, "s"),
    ("counting.hyperbola_sum", "cells", None, "count"),
    ("verify.run_experiment", "s", None, "s"),
    ("tamagawa.tamagawa", "s", None, "s"),
    ("tamagawa.euler_product", "s", None, "s"),
    ("tamagawa.euler_product", "primes", None, "count"),
    ("tamagawa.archimedean_density", "s", None, "s"),
    ("tamagawa.archimedean_density", "samples_per_s", ("samples", "s"),
     "1/s"),
    ("fans.class_lattice", "s", None, "s"),
    ("cones.effective_decomposition", "s", None, "s"),
    ("cones.alpha_constant", "s", None, "s"),
    ("cones.c_p_constant", "s", None, "s"),
]


def layer_metrics(tracer, traced_passes, overhead):
    """Per-layer values per set-up plus per traced pass; a layer that was
    never called reads 0."""
    totals = tracer.totals({"setup": 1 / SETUPS,
                            "traced": 1 / traced_passes})
    out = {}
    for layer, name, ratio, unit in LAYER_METRICS:
        agg = totals[layer]
        if ratio is None:
            value = agg.get(name, 0.0)
        else:
            num, den = ratio
            value = agg.get(num, 0.0) / agg[den] if agg.get(den) else 0.0
        out[f"{layer}.{name}"] = (value, unit)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toricount" / "__init__.py").is_file():
        print(f"bench: no toricount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference.self_check()

    workload = WORKLOADS[args.workload]
    inputs = workload.draw(random.Random(f"{args.workload}:{args.seed}"))
    tracer = Tracer() if args.trace else None

    # Each set-up imports toricount afresh; the last COLD_PASSES are each
    # followed by a cold pass, and later passes reuse the last set-up.
    speed = CoreSpeed()
    setup_s, passes, failures, attempted = [], [], [], 0
    analysis_ok = True

    def set_up():
        tc = import_toricount()
        if tracer:
            tracer.phase = "setup"
            tracer.install()
        return tc, workload.setup(tc)

    def timed_pass(kind, ops):
        nonlocal attempted
        if kind == "traced":
            tracer.phase = kind
            tracer.install()
        outcomes, seconds, samples = speed.run(lambda: run_pass(ops))
        if tracer:
            tracer.uninstall()
        passes.append((kind, seconds, samples))
        attempted += len(outcomes)
        failures.extend((len(passes) - 1, name, observed)
                        for name, ok, observed in outcomes if not ok)
        return seconds

    window = perf_counter()
    for cycle_index in range(SETUPS):
        (tc, (lats, analysis)), seconds, samples = speed.run(set_up)
        if tracer:
            tracer.uninstall()
        setup_s.append((seconds, samples))
        analysis_ok = analysis_ok and workload.analysis_ok(analysis)
        ops = workload.ops(tc, lats, inputs)
        if cycle_index >= SETUPS - COLD_PASSES:
            timed_pass("cold", ops)

    needed = {"plain", "traced"} if tracer else {"plain"}
    for kind in cycle(["traced", "plain"] if tracer else ["plain"]):
        seconds = timed_pass(kind, ops)
        if (needed <= {k for k, _, _ in passes}
                and perf_counter() - window + seconds > args.seconds):
            break

    def timing(kind):
        return statistics.median(scaled(s, c) for k, s, c in passes
                                 if k == kind)

    correct = analysis_ok and all(name == KNOWN_FAULT
                                  for _, name, _ in failures)
    if tracer:
        metrics = layer_metrics(
            tracer, sum(k == "traced" for k, _, _ in passes),
            timing("traced") - timing("plain"))
    else:
        metrics = {
            "setup_s": (statistics.median(scaled(s, c) for s, c in setup_s),
                        "s"),
            "cold_pass_s": (timing("cold"), "s"),
            "pass_s": (timing("plain"), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "toricount": tc.__version__}
    raw = dict(meta, inputs=repr(inputs), setup_s=setup_s, passes=passes,
               operations=[name for name, _ in ops], failures=failures,
               result=result)
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(raw, fh, indent=1, default=str)
    if tracer:
        tracer.write(RESULTS / f"{stem}.spans.json", meta)

    for _, name, observed in (f for f in failures if f[0] == 0):
        print(f"failed: {name}: {observed}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

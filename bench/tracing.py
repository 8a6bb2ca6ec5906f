"""Spans around calls into toricount, for the traced run of the benchmark.

A Tracer replaces the functions named in LAYERS by wrappers that record one
span per call: layer name, start, end, parent span, the phase of the run
and a few counters read off the call's arguments and result.  Every binding
of the same function object in any toricount module is replaced, so calls
through the package re-exports and through `from .x import f` are traced as
well.  `uninstall` puts the originals back.  Spans stay in memory and are
written once, by `write`, at the end of the run.
"""

import json
import sys
from functools import wraps
from time import perf_counter

import reference


def _enumeration(args, kwargs, result):
    lattice = args[0] if args else kwargs["lattice"]
    # each counted magnitude tuple carries 2^d canonical sign patterns
    return {"candidates": result.visited,
            "tuples": result.count >> lattice.fan.dim}


def _cells(args, kwargs, result):
    table = args[0] if args else kwargs["table"]
    return {"cells": len(table.data)}


def _primes(args, kwargs, result):
    return {"primes": reference.prime_count(int(result["p_max"]))}


def _samples(args, kwargs, result):
    return {"samples": result["samples"]}


# layer name -> (module, attribute or Class.method, counters of one call)
LAYERS = {
    "counting.enumerate_region": ("toricount.counting", "enumerate_region",
                                  _enumeration),
    "counting.coordinate_bounds": ("toricount.counting", "coordinate_bounds",
                                   None),
    "heights.multi_height": ("toricount.heights",
                             "HeightEvaluator.multi_height", None),
    "counting.count_cone_box": ("toricount.counting", "count_cone_box", None),
    "counting.tabulate_f": ("toricount.counting", "tabulate_f", None),
    "counting.hyperbola_sum": ("toricount.counting", "hyperbola_sum", _cells),
    "verify.run_experiment": ("toricount.verify", "run_experiment", None),
    "tamagawa.tamagawa": ("toricount.tamagawa", "tamagawa", None),
    "tamagawa.euler_product": ("toricount.tamagawa", "euler_product",
                               _primes),
    "tamagawa.archimedean_density": ("toricount.tamagawa",
                                     "archimedean_density", _samples),
    "fans.class_lattice": ("toricount.fans", "class_lattice", None),
    "cones.effective_decomposition": ("toricount.cones",
                                      "effective_decomposition", None),
    "cones.alpha_constant": ("toricount.cones", "alpha_constant", None),
    "cones.c_p_constant": ("toricount.cones", "c_p_constant", None),
}

FIELDS = ("name", "start", "end", "parent", "phase", "counters")


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None
        self._stack = []
        self._patches = []
        self._t0 = perf_counter()

    def _wrap(self, name, fn, counters):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            span = [name, start, start, stack[-1] if stack else -1,
                    self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counters is not None:
                span[5] = counters(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap the layers of the toricount modules now in sys.modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "toricount" or k.startswith("toricount.")]
        for name, (modname, attr, counters) in LAYERS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original, counters))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def totals(self, phase_weights):
        """Per layer: calls, seconds, self seconds and counters, each summed
        over the spans of a phase times that phase's weight."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0.0, "s": 0.0, "self_s": 0.0}
               for name in LAYERS}
        for i, (name, start, end, _, phase, counters) in enumerate(
                self.spans):
            w = phase_weights.get(phase)
            if w is None:
                continue
            agg = out[name]
            agg["calls"] += w
            agg["s"] += (end - start) * w
            agg["self_s"] += (end - start - child[i]) * w
            for key, value in (counters or {}).items():
                agg[key] = agg.get(key, 0.0) + value * w
        return out

    def write(self, path, meta):
        spans = [[name, start - self._t0, end - self._t0, parent, phase,
                  counters]
                 for name, start, end, parent, phase, counters in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": FIELDS, "spans": spans}, fh)

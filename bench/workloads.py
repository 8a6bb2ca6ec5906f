"""The benchmark's four workloads.

Each workload draws its inputs from a seeded random.Random, builds what it
needs in `setup`, and returns the operations of one pass from `ops`.  An
operation calls toricount's public API and compares the output with a value
from `reference`, computed without toricount; it returns (ok, observed).
"""

import random
from fractions import Fraction

import reference as ref

BAND = 0.01  # B values are drawn uniformly within +-1% of the nominal size
SAMPLES = 10 ** 6  # Monte Carlo samples of omega_inf; p_max is the default

# Fails on every pass: euler_product's tail_bound is a least-squares fit of
# a 1 + c/p^2 model and leaves out the rounding of the running float
# product, so at p_max = 10^6 on P3 it is smaller than the actual error.
KNOWN_FAULT = "euler_product P3 p_max=10^6 within tail_bound"


def _near(rng, nominal):
    return round(nominal * (1 + rng.uniform(-BAND, BAND)))


def _direct(tc, lat, name, B):
    want = ref.count_anticanonical(name, B)

    def op():
        got = tc.count_anticanonical(lat, B)["count"]
        return got == want, {"count": got, "reference": want}
    return f"count {name} B={B}", op


def _inclusion_exclusion(tc, lat, name, B):
    want = ref.count_anticanonical(name, B)

    def op():
        ie = tc.count_anticanonical(lat, B, mode="inclusion_exclusion")
        direct = tc.count_anticanonical(lat, B)["count"]
        ok = ie["count"] == direct == want
        return ok, {"inclusion_exclusion": ie["count"], "direct": direct,
                    "reference": want}
    return f"inclusion-exclusion {name} B={B}", op


def _cone_box(tc, lat, b, wall_seed, tau):
    want = ref.count_cone_box_p1xp1(b, b)

    def op():
        exp = tc.Experiment(lat, "cone_box", [b], seed=wall_seed, tau=tau)
        rows, summary = tc.run_experiment(exp)
        got = rows[0]["count"]
        ok = got == want and bool(summary["checks"]) and all(
            c["histogram_total_ok"] and c["empty_boxes_ok"] and c["tail_ok"]
            for c in summary["checks"])
        return ok, {"count": got, "reference": want,
                    "checks": summary["checks"]}
    return f"cone_box P1xP1 B=({b},{b}) walls={wall_seed}", op


def _hyperbola(tc, lat, grid, tau):
    want = [ref.count_p1xp1(b) for b in grid]

    def op():
        exp = tc.Experiment(lat, "hyperbola", grid, tau=tau)
        rows, summary = tc.run_experiment(exp)
        seen = [(r["sum_ceil"], r["count"], r["sum_floor"]) for r in rows]
        # rounding heights up can only drop points, rounding down only add
        ok = (len(seen) == len(want) and summary["sandwich_ok_all"]
              and all(lo <= got <= hi and got == w
                      for (lo, got, hi), w in zip(seen, want)))
        return ok, {"ceil_direct_floor": seen, "reference": want}
    return f"hyperbola P1xP1 grid={grid}", op


def _tamagawa(tc, lat, name, seed):
    e_ref, w_ref = ref.euler_closed_form(name), ref.omega_inf(name)
    rho = ref.shape(name)[2]

    def op():
        rep = tc.tamagawa(lat, samples=SAMPLES, seed=seed)
        e, w = rep["euler"]["value"], rep["omega_inf"]["value"]
        stderr, tau = rep["omega_inf"]["stderr"], rep["tau"]["value"]
        e_tol = e_ref * ref.euler_truncation_bound(
            name, rep["euler"]["p_max"]) + 1e-12
        ok = (abs(e - e_ref) <= e_tol and abs(w - w_ref) <= 4 * stderr
              and abs(tau - 0.5 ** rho * w * e) <= 1e-12 * abs(tau))
        return ok, {"euler": e, "euler_ref": e_ref, "euler_tol": e_tol,
                    "omega_inf": w, "stderr": stderr, "omega_ref": w_ref,
                    "tau": tau}
    return f"tamagawa {name} seed={seed}", op


def _alpha(tc, lat, name):
    def op():
        got = tc.alpha_constant([list(c) for c in lat.classes],
                                list(lat.anticanonical))
        return got == ref.ALPHA[name], {"alpha": str(got)}
    return f"alpha {name}", op


def _c_p(tc, lat, name):
    def op():
        omega = list(lat.anticanonical)
        got = tc.c_p_constant(tc.hyperbola_polytope([omega], omega))["exact"]
        return got == ref.c_p(name), {"c_P": str(got)}
    return f"c_P {name}", op


def _tail_bound(tc, lat):
    e_ref = ref.euler_closed_form("P3")

    def op():
        ep = tc.euler_product(lat.fan, 10 ** 6)
        err = abs(ep["value"] - e_ref)
        return err <= ep["tail_bound"], {"error": err,
                                         "tail_bound": ep["tail_bound"]}
    return KNOWN_FAULT, op


def _box_count(b, wall_seed):
    """Boxes that count_cone_box enumerates on P1xP1 at B = (b, b): per
    axis the kept boxes and one beyond.  It repeats the wall draw of
    counting.build_box_decomposition and serves only to balance work; if
    that draw changes, the balance is lost but no check is affected."""
    rng = random.Random(wall_seed)
    total = 1
    for _ in range(2):
        den = rng.randrange(1 << 28, 1 << 29)
        ratio = Fraction(den + rng.randrange(den // 2, 2 * den), den)
        n, x = 1, Fraction(1)
        while x * ratio <= b:
            x *= ratio
            n += 1
        total *= n + 1
    return total


class Workload:
    fans = ()

    def setup(self, tc):
        """Lattices, height evaluators and the alpha and c_P of each fan, as
        `toricount analyze` builds them; returns (lattices, analysis)."""
        lats, analysis = {}, {}
        for name in self.fans:
            lat = tc.class_lattice(tc.builtin_fan(name))
            tc.canonicalize(lat, (1,) * lat.fan.n_rays)  # builds the evaluator
            omega = list(lat.anticanonical)
            alpha = tc.alpha_constant([list(c) for c in lat.classes], omega)
            cp = tc.c_p_constant(tc.hyperbola_polytope([omega], omega))
            lats[name] = lat
            analysis[name] = (alpha, cp["exact"])
        return lats, analysis

    def analysis_ok(self, analysis):
        return all(alpha == ref.ALPHA[name] and cp == ref.c_p(name)
                   for name, (alpha, cp) in analysis.items())


class NefCount(Workload):
    """Every basis class nef: the integer table path with numpy leaves."""

    fans = ("P2", "P1xP1", "P3")

    def draw(self, rng):
        return {"P2": _near(rng, 3 * 10 ** 5), "P1xP1": _near(rng, 3 * 10 ** 4),
                "P3": _near(rng, 3 * 10 ** 4), "ie": _near(rng, 5000)}

    def ops(self, tc, lats, inputs):
        out = [_direct(tc, lats[name], name, inputs[name])
               for name in ("P2", "P1xP1", "P3")]
        out.append(_inclusion_exclusion(tc, lats["P1xP1"], "P1xP1",
                                        inputs["ie"]))
        return out


class F1Count(Workload):
    """F1's basis class (0,1) is not nef: every leaf goes to multi_height."""

    fans = ("F1",)

    def draw(self, rng):
        return {"F1": _near(rng, 10 ** 4)}

    def ops(self, tc, lats, inputs):
        return [_direct(tc, lats["F1"], "F1", inputs["F1"])]


class Hyperbola(Workload):
    """Cone boxes with seeded walls and rounded-height tables on P1xP1."""

    fans = ("P1xP1",)
    CONE_BOXES = 4
    CONE_BOX_B = 12
    BOXES = 20  # boxes enumerated per cone box, kept and beyond

    def draw(self, rng):
        # B within 1% above 12 keeps the counted points and moves the walls;
        # wall seeds are drawn until they give BOXES boxes, so that every
        # seed asks for the same number of enumerations
        boxes = []
        for _ in range(self.CONE_BOXES):
            b = Fraction(self.CONE_BOX_B * 1000 + rng.randrange(
                round(self.CONE_BOX_B * 1000 * BAND)), 1000)
            seed = rng.randrange(1 << 30)
            while _box_count(b, seed) != self.BOXES:
                seed = rng.randrange(1 << 30)
            boxes.append((b, seed))
        top = _near(rng, 500)
        return {"cone_boxes": boxes, "grid": [top // 10, top // 3, top]}

    def ops(self, tc, lats, inputs):
        lat, tau = lats["P1xP1"], ref.tau("P1xP1")
        out = [_cone_box(tc, lat, b, seed, tau)
               for b, seed in inputs["cone_boxes"]]
        out.append(_hyperbola(tc, lat, inputs["grid"], tau))
        return out


class Constants(Workload):
    """tamagawa, alpha and c_P on every fan: no enumeration at all."""

    fans = ("P1", "P2", "P3", "P1xP1", "F1")

    def draw(self, rng):
        return {name: rng.randrange(1 << 30) for name in self.fans}

    def ops(self, tc, lats, inputs):
        out = []
        for name in self.fans:
            lat = lats[name]
            out += [_tamagawa(tc, lat, name, inputs[name]),
                    _alpha(tc, lat, name), _c_p(tc, lat, name)]
        out.append(_tail_bound(tc, lats["P3"]))
        return out


WORKLOADS = {"nef_count": NefCount(), "f1_count": F1Count(),
             "hyperbola": Hyperbola(), "constants": Constants()}

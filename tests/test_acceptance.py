"""Acceptance gate: one test per criterion, one pass/fail line each.

Tolerances and time limits live in the individual test docstrings; the
Tamagawa constants are computed once per fan at p_max = 10^5 rather than
hardcoded, and criterion 3 checks their exact omega_inf against 10^6-sample
Monte Carlo runs of archimedean_density.
"""

import time
from fractions import Fraction

import pytest
from scipy.special import zeta

from toricount import cones, counting, heights
from toricount.tamagawa import archimedean_density
from toricount.verify import Experiment, run_experiment

from conftest import default_boxes, get_lattice, random_points


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def taus():
    from toricount.tamagawa import tamagawa
    t0 = time.time()
    out = {}
    for name in ("P1", "P2", "P1xP1"):
        out[name] = tamagawa(get_lattice(name), p_max=10 ** 5)
    out["_elapsed"] = time.time() - t0
    return out


def test_criterion_1_oracle_equivalence():
    """Fast enumerator equals the brute-force oracle on all four fans."""
    from naive_oracle import naive_anticanonical_count
    t0 = time.time()
    results = {}
    ok = True
    for name in ("P1", "P2", "P1xP1", "F1"):
        lat = get_lattice(name)
        fast = counting.count_anticanonical(lat, 1000)["count"]
        slow = naive_anticanonical_count(lat, 1000)
        results[name] = (fast, slow)
        ok = ok and fast == slow
    dt = time.time() - t0
    ok = ok and dt < 60
    detail = ", ".join(f"{k}: {v[0]}=={v[1]}" for k, v in results.items())
    _report(1, ok, f"B=1000 exact equality in {dt:.1f}s ({detail})")


def test_criterion_2_alpha_and_cp_exact():
    """alpha and c_P take their exact rational values, independent of the
    triangulation order."""
    targets = {"P1": Fraction(1, 2), "P2": Fraction(1, 3),
               "P1xP1": Fraction(1, 4)}
    ok = True
    notes = []
    for name, want in targets.items():
        lat = get_lattice(name)
        classes = [list(c) for c in lat.classes]
        omega = list(lat.anticanonical)
        got = cones.alpha_constant(classes, omega)
        ok = ok and got == want
        notes.append(f"alpha({name})={got}")
    for name in ("P1", "P2", "P1xP1", "F1"):
        lat = get_lattice(name)
        classes = [list(c) for c in lat.classes]
        omega = list(lat.anticanonical)
        a = cones.alpha_constant(classes, omega, order="lex")
        b = cones.alpha_constant(classes, omega, order="revlex")
        ok = ok and a == b
    for rho in (1, 2, 3):
        poly = cones.hyperbola_polytope([[1] * rho], [1] * rho)
        cp = cones.c_p_constant(poly)["exact"]
        fact = 1
        for i in range(2, rho):
            fact *= i
        ok = ok and cp == Fraction(1, fact)
        notes.append(f"c_P(rho={rho})={cp}")
    _report(2, ok, "; ".join(notes))


def test_criterion_3_local_and_archimedean_densities(taus):
    """Euler products hit the zeta closed forms at p_max = 10^5; the exact
    omega_inf is 8 / 24 / 64, and the Monte Carlo archimedean ratio is
    box-independent and lands within 1% of it."""
    z2 = 1.0 / float(zeta(2))
    z3 = 1.0 / float(zeta(3))
    t0 = time.time()
    ok = True
    notes = []
    for name, target in (("P1", z2), ("P2", z3), ("P1xP1", z2 * z2)):
        val = taus[name]["euler"]["value"]
        diff = abs(val - target)
        ok = ok and diff < 1e-4
        notes.append(f"euler({name}) off by {diff:.2e}")
    closed = {"P1": 8.0, "P2": 24.0, "P1xP1": 64.0}
    sampled = {}
    for name, target in closed.items():
        exact = taus[name]["omega_inf"]["value"]
        lat = get_lattice(name)
        sampled[name] = archimedean_density(lat, default_boxes(lat.rank)[0],
                                            samples=10 ** 6, seed=0)
        v = sampled[name]["value"]
        rel = abs(v - exact) / exact
        ok = ok and exact == target and rel < 0.01
        notes.append(f"omega_inf({name})={exact:g}, sampled {v:.3f}")
    lat = get_lattice("P2")
    runs = [sampled["P2"]]
    for s, box in enumerate(default_boxes(lat.rank)[1:], start=1):
        runs.append(archimedean_density(lat, box, samples=10 ** 6, seed=s))
    zmax = 0.0
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            gap = abs(runs[i]["value"] - runs[j]["value"])
            sig = (runs[i]["stderr"] ** 2 + runs[j]["stderr"] ** 2) ** 0.5
            zmax = max(zmax, gap / sig if sig else 0.0)
    ok = ok and zmax <= 3.0
    dt = time.time() - t0 + taus["_elapsed"]
    ok = ok and dt < 300
    _report(3, ok, "; ".join(notes) + f"; box z_max={zmax:.2f}; {dt:.0f}s")


def test_criterion_4_projective_leading_constant(taus):
    """N(B)/B lands within 5% of alpha tau on P1 at 10^5 and P2 at 10^6."""
    t0 = time.time()
    ok = True
    notes = []
    for name, B in (("P1", 10 ** 5), ("P2", 10 ** 6)):
        lat = get_lattice(name)
        alpha = float(cones.alpha_constant([list(c) for c in lat.classes],
                                           list(lat.anticanonical)))
        target = alpha * taus[name]["tau"]["value"]
        count = counting.count_anticanonical(lat, B)["count"]
        rel = abs(count / B - target) / target
        ok = ok and rel < 0.05
        notes.append(f"{name}: N/B={count / B:.4f} vs {target:.4f} "
                     f"({100 * rel:.2f}%)")
    dt = time.time() - t0
    ok = ok and dt < 600
    _report(4, ok, "; ".join(notes) + f"; {dt:.0f}s")


def test_criterion_5_rank_two_log_power(taus):
    """P1xP1 counts over {10^3, 10^4, 10^5}: the fitted c of
    c B log B + c2 B lands within 20% of alpha tau, and direct equals
    inclusion-exclusion at every grid point."""
    t0 = time.time()
    tau = taus["P1xP1"]["tau"]["value"]
    exp = Experiment(get_lattice("P1xP1"), "anticanonical",
                     [10 ** 3, 10 ** 4, 10 ** 5], tau=tau)
    rows, summary = run_experiment(exp)
    target = float(Fraction(summary["alpha"])) * tau
    rel = abs(summary["fitted_c"] - target) / target
    ok = summary["ie_equal_all"] and rel < 0.20
    dt = time.time() - t0
    ok = ok and dt < 1200
    _report(5, ok,
            f"fitted c={summary['fitted_c']:.4f} vs alpha*tau={target:.4f} "
            f"({100 * rel:.1f}%), IE equal at all points, counts="
            f"{[r['count'] for r in rows]}; {dt:.0f}s")


@pytest.fixture(scope="module")
def cone_box_report(taus):
    lat = get_lattice("P1xP1")
    return counting.count_cone_box(lat, [[1, 0], [0, 1]], (100, 100), seed=7,
                                   tau=taus["P1xP1"]["tau"]["value"])


def test_criterion_6a_empty_boxes(cone_box_report):
    """Boxes past the emptiness bound contain no points, exactly."""
    r = cone_box_report
    _report("6a", bool(r["empty_boxes_ok"]),
            f"all boxes beyond kept={r['kept']} are empty; "
            f"histogram total {r['histogram_total']} == count {r['count']}: "
            f"{r['histogram_total'] == r['count']}")


def test_criterion_6b_nu_tail(cone_box_report):
    """The dropped-box nu tail obeys the c/min(B)^d bound with
    d = min <omega, L_i^*>."""
    t = cone_box_report["tail"]
    ok = t["ok"] and t["d"] == 2.0
    _report("6b", ok,
            f"tail sum {t['sum']:.3e} <= {t['bound_c']:.2f}/"
            f"{t['min_B']:.0f}^{t['d']:.0f}")


def test_criterion_6c_rounded_height_sandwich():
    """Floor and ceiling rounded-height sums bracket the exact count."""
    t0 = time.time()
    lat = get_lattice("P1xP1")
    B = 10 ** 4
    floor_t, ceil_t = counting.tabulate_f(
        lat, [[1, 0], [0, 1]], [200, 200],
        extra_constraints=[(list(lat.anticanonical), 16 * B, 0)])
    down = counting.hyperbola_sum(ceil_t, [[2, 2]], B)
    up = counting.hyperbola_sum(floor_t, [[2, 2]], B)
    direct = counting.count_anticanonical(lat, B)["count"]
    ok = down <= direct <= up
    dt = time.time() - t0
    _report("6c", ok, f"{down} <= {direct} <= {up} at B=10^4; {dt:.0f}s")


def test_criterion_6d_cone_box_ratio(cone_box_report):
    """Count over prediction sits in [0.8, 1.2] at B = (10^2, 10^2)."""
    r = cone_box_report
    ok = 0.8 <= r["ratio"] <= 1.2
    _report("6d", ok, f"count={r['count']}, ratio={r['ratio']:.4f}")


def test_criterion_7_height_invariants():
    """Effectivity, the coordinate bound, multiplicativity, and sign-orbit
    invariance on 10^4 seeded points per fan."""
    t0 = time.time()
    ok = True
    checked = 0
    for name in ("P1", "P2", "P1xP1", "F1"):
        lat = get_lattice(name)
        ev = heights._evaluator(lat)
        classes = lat.classes
        omega = lat.anticanonical
        pts = random_points(lat, 10 ** 4, seed=42)
        for k, pt in enumerate(pts):
            mh = ev.multi_height(pt)
            h_omega = mh.of_class(omega)
            prod = Fraction(1)
            for lam, y in enumerate(pt.coords):
                h = mh.of_class(classes[lam])
                if h < 1 or abs(y) > h:
                    ok = False
                prod *= h
            if prod != h_omega:
                ok = False
            if k % 512 == 0:
                base = mh.values
                for m in ev.sign_orbit(pt.coords):
                    if ev.multi_height(m).values != base:
                        ok = False
            checked += 1
    dt = time.time() - t0
    ok = ok and dt < 120
    _report(7, ok, f"{checked} points across 4 fans in {dt:.0f}s")


def test_criterion_8_intersections_vanish():
    """Counts on the overlap of the forced two-cone split of the quadrant,
    normalized by B log B, decrease on the top grid points."""
    exp = Experiment(get_lattice("P1xP1"), "intersections",
                     [10 ** 2, 10 ** 3, 10 ** 4],
                     params={"cones": ([(1, 0), (1, 1)], [(1, 1), (0, 1)])})
    rows, summary = run_experiment(exp)
    vals = summary["normalized"]
    ok = summary["tail_decreasing"] and summary["all_decreasing"]
    _report(8, ok, "normalized counts " +
            " > ".join(f"{v:.4f}" for v in vals))

"""Local densities, Euler products, and the archimedean density."""

from fractions import Fraction
from math import log, pi, sqrt

import pytest
from scipy.special import zeta

import importlib

from toricount.errors import DegenerateInputError
from toricount.fans import class_lattice, make_fan

tamagawa = importlib.import_module("toricount.tamagawa")

from conftest import BUILTIN_NAMES, default_boxes, get_lattice


def test_is_prime():
    assert [n for n in range(20) if tamagawa.is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19]
    assert not tamagawa.is_prime(121)
    assert tamagawa.is_prime(997)


def test_primes_up_to():
    assert tamagawa.primes_up_to(1) == []
    assert tamagawa.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = tamagawa.primes_up_to(10 ** 4)
    assert len(ps) == 1229
    assert all(tamagawa.is_prime(p) for p in ps[:50])


def test_local_density_values():
    assert tamagawa.local_density(get_lattice("P1").fan, 2) == Fraction(3, 2)
    assert tamagawa.local_density(get_lattice("P2").fan, 3) == Fraction(13, 9)
    assert tamagawa.local_density(get_lattice("P1xP1").fan, 2) == Fraction(9, 4)
    assert tamagawa.local_density(get_lattice("F1").fan, 2) == Fraction(9, 4)
    assert tamagawa.local_density(get_lattice("P3").fan, 2) == Fraction(15, 8)


def test_local_density_point_count_formula():
    # #X(F_p) = sum over primes of the cyclotomic-style face count; for
    # projective space it collapses to 1 + p + ... + p^d over p^d
    for name, d in (("P1", 1), ("P2", 2), ("P3", 3)):
        fan = get_lattice(name).fan
        for p in (2, 3, 5, 7, 11):
            expect = Fraction(sum(p ** k for k in range(d + 1)), p ** d)
            assert tamagawa.local_density(fan, p) == expect


def test_local_density_rejects_composite():
    with pytest.raises(DegenerateInputError):
        tamagawa.local_density(get_lattice("P1").fan, 6)


def test_product_fan_densities_multiply():
    p1 = get_lattice("P1").fan
    pp = get_lattice("P1xP1").fan
    for p in tamagawa.primes_up_to(200):
        assert tamagawa.local_density(pp, p) == \
            tamagawa.local_density(p1, p) ** 2


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_convergence_factor_quadratic(name):
    """(1 - 1/p)^rho omega_p = 1 + O(1/p^2) with a uniform constant."""
    lat = get_lattice(name)
    rho = lat.rank
    for p in tamagawa.primes_up_to(500):
        factor = (1 - Fraction(1, p)) ** rho * \
            tamagawa.local_density(lat.fan, p)
        assert abs(factor - 1) <= Fraction(2, p * p)


def test_euler_product_closed_forms():
    z2 = 1.0 / zeta(2)
    z3 = 1.0 / zeta(3)
    p_max = 2000
    e1 = tamagawa.euler_product(get_lattice("P1").fan, p_max)
    e2 = tamagawa.euler_product(get_lattice("P2").fan, p_max)
    e4 = tamagawa.euler_product(get_lattice("P1xP1").fan, p_max)
    assert e1["value"] == pytest.approx(z2, abs=5e-4)
    assert e2["value"] == pytest.approx(z3, abs=5e-4)
    assert e4["value"] == pytest.approx(z2 * z2, abs=5e-4)
    for e, target in ((e1, z2), (e2, z3), (e4, z2 * z2)):
        assert e["tail_bound"] > 0
        assert abs(e["value"] - target) <= max(3 * e["tail_bound"], 1e-4)
        assert e["p_max"] == p_max


def test_euler_polynomial():
    """(1 - 1/p)^rho omega_p = Q(1/p) with integer Q = 1 + O(x^2)."""
    q = {name: tamagawa.euler_polynomial(get_lattice(name).fan)
         for name in BUILTIN_NAMES}
    assert q["P1"] == [1, 0, -1]
    assert q["P3"] == [1, 0, 0, 0, -1]
    assert q["P1xP1"] == q["F1"] == [1, 0, -2, 0, 1]
    for name in BUILTIN_NAMES:
        fan = get_lattice(name).fan
        rho = fan.n_rays - fan.dim
        for p in (2, 3, 97):
            value = sum(c * Fraction(1, p) ** j for j, c in enumerate(q[name]))
            assert value == (1 - Fraction(1, p)) ** rho * \
                tamagawa.local_density(fan, p)


@pytest.mark.parametrize("name,p_max", [
    ("P1", 10 ** 3), ("P1", 10 ** 5), ("P2", 10 ** 4), ("P1xP1", 10 ** 4),
    ("F1", 10 ** 3), ("P3", 10 ** 5), ("P3", 10 ** 6)])
def test_euler_tail_bound_is_proven(name, p_max):
    """|E - value| <= tail_bound against the zeta closed forms."""
    exact = {"P1": 1 / zeta(2), "P2": 1 / zeta(3), "P3": 1 / zeta(4),
             "P1xP1": 1 / zeta(2) ** 2, "F1": 1 / zeta(2) ** 2}[name]
    e = tamagawa.euler_product(get_lattice(name).fan, p_max)
    assert abs(e["value"] - exact) <= e["tail_bound"]
    # not vacuous: sum_{p > P} p^-2 ~ 1/(P log P) costs the bound a log
    assert e["tail_bound"] < 2 * log(p_max) * max(abs(e["value"] - exact),
                                                  1e-11)


def test_euler_product_enforces_minimum_pmax():
    with pytest.raises(DegenerateInputError):
        tamagawa.euler_product(get_lattice("P1").fan, 50)


def test_omega_p_table():
    fan = get_lattice("P1").fan
    table = {p: tamagawa.local_density(fan, p)
             for p in tamagawa.primes_up_to(100)}
    assert len(table) == 25
    assert table[2] == Fraction(3, 2)
    assert table[97] == Fraction(98, 97)


def test_nu_of_box():
    p1 = get_lattice("P1")
    assert tamagawa.nu_of_box(p1, [(1, 2)]) == Fraction(3, 2)
    pp = get_lattice("P1xP1")
    assert tamagawa.nu_of_box(pp, [(1, 2), (1, 2)]) == Fraction(9, 4)
    assert tamagawa.nu_of_box(
        pp, [(Fraction(1, 2), Fraction(3, 2)), (1, 2)]) == Fraction(3, 2)
    # orientation is the caller's job; a flipped box just signs the measure
    assert tamagawa.nu_of_box(p1, [(2, 1)]) == -Fraction(3, 2)


def test_archimedean_p1_closed_form():
    lat = get_lattice("P1")
    out = tamagawa.archimedean_density(lat, [(1, 2)], samples=200000, seed=4)
    assert out["samples"] >= 190000
    assert out["nu"] == Fraction(3, 2)
    assert abs(out["value"] - 8.0) < 4 * out["stderr"] + 0.01


def test_archimedean_p2_closed_form():
    lat = get_lattice("P2")
    out = tamagawa.archimedean_density(lat, [(1, 2)], samples=200000, seed=4)
    assert abs(out["value"] - 24.0) < 4 * out["stderr"] + 0.02


def test_archimedean_p1xp1_closed_form():
    lat = get_lattice("P1xP1")
    out = tamagawa.archimedean_density(lat, [(1, 2), (1, 2)],
                                       samples=300000, seed=4)
    assert abs(out["value"] - 64.0) < 4 * out["stderr"] + 0.05


def test_archimedean_box_invariance():
    """The volume-to-nu ratio does not depend on the chosen box."""
    lat = get_lattice("P2")
    outs = [tamagawa.archimedean_density(lat, box, samples=200000, seed=s)
            for s, box in enumerate(default_boxes(lat.rank))]
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            gap = abs(outs[i]["value"] - outs[j]["value"])
            sigma = sqrt(outs[i]["stderr"] ** 2 + outs[j]["stderr"] ** 2)
            assert gap <= 3 * sigma + 0.01


def test_archimedean_determinism_and_seed_sensitivity():
    lat = get_lattice("P1")
    a = tamagawa.archimedean_density(lat, [(1, 2)], samples=50000, seed=9)
    b = tamagawa.archimedean_density(lat, [(1, 2)], samples=50000, seed=9)
    c = tamagawa.archimedean_density(lat, [(1, 2)], samples=50000, seed=10)
    assert a["value"] == b["value"] and a["hits"] == b["hits"]
    assert a["value"] != c["value"]


def test_archimedean_rejects_bad_box():
    lat = get_lattice("P1")
    with pytest.raises(DegenerateInputError):
        tamagawa.archimedean_density(lat, [(0, 2)], samples=10000)
    with pytest.raises(DegenerateInputError):
        tamagawa.archimedean_density(lat, [(3, 2)], samples=10000)


def test_default_boxes_are_distinct():
    boxes = default_boxes(2)
    assert len(boxes) == 3
    assert len({tuple(map(tuple, b)) for b in boxes}) == 3
    assert all(len(b) == 2 for b in boxes)


def test_tamagawa_report_p1():
    lat = get_lattice("P1")
    rep = tamagawa.tamagawa(lat, p_max=300)
    assert rep["rho"] == 1
    assert rep["normalization"] == 0.5
    assert rep["note"] == "operational Tamagawa number"
    assert rep["tau"]["value"] == pytest.approx(
        rep["normalization"] * rep["omega_inf"]["value"] *
        rep["euler"]["value"])
    assert rep["tau"]["error"] >= 0
    assert rep["euler"]["p_max"] == 300
    # classical value: tau(P1) = 4/zeta(2) with this height normalization
    assert rep["tau"]["value"] == pytest.approx(4.0 / zeta(2), abs=0.06)


_ZETA_FORMS = {"P1": (2,), "P2": (3,), "P3": (4,), "P1xP1": (2, 2),
               "F1": (2, 2)}


def test_tamagawa_samples_nothing(monkeypatch):
    """omega_inf = 2^n |Sigma_max| without a single sample, and tau.error is
    the proven Euler tail bound alone: it covers the closed-form tau."""
    def refuse(*args, **kwargs):
        raise AssertionError("tamagawa called archimedean_density")

    monkeypatch.setattr(tamagawa, "archimedean_density", refuse)
    exact = {"P1": 8, "P2": 24, "P1xP1": 64, "F1": 64, "P3": 64}
    for name in BUILTIN_NAMES:
        lat = get_lattice(name)
        rep = tamagawa.tamagawa(lat)
        w = rep["omega_inf"]["value"]
        assert w == exact[name] and rep["omega_inf"]["stderr"] == 0.0
        assert rep["tau"]["error"] == \
            0.5 ** lat.rank * w * rep["euler"]["tail_bound"]
        closed = 0.5 ** lat.rank * w
        for k in _ZETA_FORMS[name]:
            closed /= zeta(k)
        assert abs(rep["tau"]["value"] - closed) <= rep["tau"]["error"]
        assert tamagawa.tamagawa(lat, samples=1000, seed=7) == rep


_OFF_BUILTIN_FANS = {
    "F2": ([(1, 0), (0, 1), (-1, 2), (0, -1)],
           [(0, 1), (1, 2), (2, 3), (0, 3)]),
    # P2 blown up in two torus-fixed points: 5 rays, rho = 3
    "BlP2": ([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)],
             [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "P1xP2": ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)],
              [(0, 2, 3), (0, 3, 4), (0, 2, 4), (1, 2, 3), (1, 3, 4),
               (1, 2, 4)]),
}


@pytest.mark.parametrize("name", list(_OFF_BUILTIN_FANS))
def test_omega_inf_closed_form_matches_monte_carlo(name):
    """The closed form 2^n |Sigma_max| against the sampled volume ratio on
    fans outside the builtins."""
    rays, max_cones = _OFF_BUILTIN_FANS[name]
    lat = class_lattice(make_fan(len(rays[0]), rays, max_cones, name=name))
    w = tamagawa.tamagawa(lat, p_max=100)["omega_inf"]["value"]
    assert w == 2 ** len(rays) * len(max_cones)
    out = tamagawa.archimedean_density(lat, default_boxes(lat.rank)[0],
                                       samples=200000, seed=4)
    assert abs(out["value"] - w) < 4 * out["stderr"]

"""Experiment harness: run one counting theorem over a grid of height bounds,
compare the exact counts with the predicted main term, fit the leading
coefficient, and emit byte-deterministic reports.

Each runner returns (rows, summary).  Rows always carry B, count, prediction,
ratio; extra keys are kept in the JSON report but dropped from the CSV.
`Experiment.budget` bounds the candidates visited over the whole run: each
count gets what the counts before it have left.
"""

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, log

from . import counting, linalg
from .cones import dual_cone, effective_decomposition, nu_simplicial
from .errors import DegenerateInputError
from .tamagawa import tamagawa

THEOREMS = ("multiheight", "box", "cone_box", "per_cone", "anticanonical",
            "hyperbola", "intersections")


@dataclass
class Experiment:
    """One verification run: a lattice, a theorem tag, and a B grid.

    tau may be preset to skip the Tamagawa computation; seed draws the
    cone-box wall ratios; params carries the theorem-specific extras
    (boxes, u, l_rows, cone, cones, ...).
    """

    lattice: object
    theorem: str
    grid: list
    seed: int = 0
    tau: float = None
    p_max: int = 10 ** 4
    budget: int = counting.DEFAULT_BUDGET
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise DegenerateInputError(
                f"unknown theorem {self.theorem!r}; choose from {THEOREMS}")
        grid = [Fraction(b) for b in self.grid]
        if not grid or any(b <= 0 for b in grid):
            raise DegenerateInputError("B grid must be positive rationals")
        if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
            raise DegenerateInputError("B grid must be strictly increasing")
        self.grid = grid

    def ensure_tau(self):
        if self.tau is None:
            self.tau = tamagawa(self.lattice,
                                p_max=self.p_max)["tau"]["value"]
        return self.tau


def _ratio(count, prediction):
    if prediction:
        return count / prediction
    return float("nan") if count else 1.0


def _basis_rows(exp):
    rho = exp.lattice.rank
    return exp.params.get("l_rows",
                          [[1 if j == i else 0 for j in range(rho)]
                           for i in range(rho)])


def fit_leading(grid, counts, rho):
    """Least squares for count = c * B log(B)^{rho-1} + c2 * B.

    Falls back to the one-parameter fit c = count / (B log^{rho-1} B) when
    the design is singular (rho = 1, or a single grid point).
    """
    xs = [(float(b) * log(float(b)) ** (rho - 1), float(b)) for b in grid]
    ys = [float(c) for c in counts]
    if len(grid) >= 2:
        s11 = sum(x[0] * x[0] for x in xs)
        s12 = sum(x[0] * x[1] for x in xs)
        s22 = sum(x[1] * x[1] for x in xs)
        t1 = sum(x[0] * y for x, y in zip(xs, ys))
        t2 = sum(x[1] * y for x, y in zip(xs, ys))
        det = s11 * s22 - s12 * s12
        if det > 1e-9 * s11 * s22:
            c = (t1 * s22 - t2 * s12) / det
            c2 = (s11 * t2 - s12 * t1) / det
            return c, c2
    x = xs[-1][0]
    return (ys[-1] / x if x else float("nan")), 0.0


# -- theorem runners ---------------------------------------------------------

def _default_direction(lattice):
    """An interior point u of the dual effective cone with <omega, u> = 1."""
    gens = dual_cone([list(c) for c in lattice.classes], lattice.rank)
    if not gens:
        raise DegenerateInputError("dual effective cone has no generators")
    g = [sum(Fraction(v[i]) for v in gens) for i in range(lattice.rank)]
    scale = sum(Fraction(w) * x for w, x in zip(lattice.anticanonical, g))
    if scale <= 0:
        raise DegenerateInputError("anticanonical pairing is not positive")
    return [x / scale for x in g]


def run_multiheight(exp):
    """Counts in the moving region D + log(B) u against nu(D) tau B^e."""
    lat = exp.lattice
    tau = exp.ensure_tau()
    rho = lat.rank
    boxes = exp.params.get("boxes", [[(1, 2)] * rho])
    u = exp.params.get("u")
    if u is None:
        u = _default_direction(lat)
    rows = []
    nu = expo = None
    spent = 0
    for b in exp.grid:
        r = counting.count_translated_polyhedron(lat, boxes, u, b, tau=tau,
                                                 budget=exp.budget - spent)
        spent += r["visited"]
        nu, expo = r["nu"], r["exponent"]
        pred = r.get("prediction", 0.0)
        rows.append({"B": b, "count": r["count"], "prediction": pred,
                     "ratio": _ratio(r["count"], pred)})
    summary = {"theorem": "multiheight", "tau": tau, "nu": str(nu),
               "exponent": str(expo), "u": [str(Fraction(x)) for x in u],
               "final_ratio": rows[-1]["ratio"]}
    return rows, summary


def run_box(exp):
    """count_box over the grid with B_i = B on every axis."""
    lat = exp.lattice
    tau = exp.ensure_tau()
    rho = lat.rank
    l_rows = _basis_rows(exp)
    lows = exp.params.get("lows", [1] * rho)
    highs = exp.params.get("highs", [2] * rho)
    rows = []
    r = None
    spent = 0
    for b in exp.grid:
        r = counting.count_box(lat, l_rows, lows, highs, [b] * rho, tau=tau,
                               budget=exp.budget - spent)
        spent += r["visited"]
        rows.append({"B": b, "count": r["count"],
                     "prediction": r["prediction"], "ratio": r["ratio"]})
    summary = {"theorem": "box", "tau": tau,
               "exponents": [str(c) for c in r["exponents"]],
               "final_ratio": rows[-1]["ratio"]}
    return rows, summary


def run_cone_box(exp):
    """count_cone_box over the grid, with the histogram side-conditions."""
    lat = exp.lattice
    tau = exp.ensure_tau()
    l_rows = _basis_rows(exp)
    histogram = exp.params.get("histogram", True)
    rows, checks = [], []
    spent = 0
    for b in exp.grid:
        r = counting.count_cone_box(lat, l_rows, [b] * lat.rank,
                                    seed=exp.seed, tau=tau,
                                    budget=exp.budget - spent,
                                    histogram=histogram)
        spent += r["visited"]
        rows.append({"B": b, "count": r["count"],
                     "prediction": r["prediction"], "ratio": r["ratio"]})
        if histogram:
            checks.append({"B": str(b),
                           "empty_boxes_ok": r["empty_boxes_ok"],
                           "histogram_total_ok":
                               r["histogram_total"] == r["count"],
                           "tail_ok": r["tail"]["ok"]})
    summary = {"theorem": "cone_box", "tau": tau, "checks": checks,
               "all_checks_ok": all(c["empty_boxes_ok"]
                                    and c["histogram_total_ok"]
                                    and c["tail_ok"] for c in checks),
               "final_ratio": rows[-1]["ratio"]}
    return rows, summary


def run_per_cone(exp):
    """#{h in C_B, h in Lambda} vs nu(-Lambda) tau B log^{rho-1}(B)/(rho-1)!."""
    lat = exp.lattice
    tau = exp.ensure_tau()
    rho = lat.rank
    gens = exp.params.get("cone")
    if gens is None:
        dec = effective_decomposition([list(c) for c in lat.classes],
                                      list(lat.anticanonical))
        j = exp.params.get("cone_index", 0)
        if not 0 <= j < len(dec.cones):
            raise DegenerateInputError(
                f"cone index {j} out of range; the decomposition has "
                f"{len(dec.cones)} pieces")
        gens = dec.cones[j]
        nu_neg = dec.nus[j]
    else:
        nu_neg = nu_simplicial([list(g) for g in gens],
                               [Fraction(x) for x in lat.anticanonical])
    region = counting.anticanonical_region(lat, cone_generators=gens)
    lead = float(nu_neg) * tau / factorial(rho - 1)
    rows, counts = [], []
    spent = 0
    for b in exp.grid:
        res = counting.enumerate_region(lat, region, b,
                                        budget=exp.budget - spent)
        spent += res.visited
        cnt = res.count
        counts.append(cnt)
        pred = lead * float(b) * log(float(b)) ** (rho - 1)
        rows.append({"B": b, "count": cnt, "prediction": pred,
                     "ratio": _ratio(cnt, pred)})
    c_fit, c2_fit = fit_leading(exp.grid, counts, rho)
    summary = {"theorem": "per_cone", "tau": tau, "nu_neg": str(nu_neg),
               "target_c": lead, "fitted_c": c_fit, "fitted_c2": c2_fit,
               "rel_err": abs(c_fit - lead) / lead}
    return rows, summary


def run_anticanonical(exp):
    """Full anticanonical count, direct and inclusion-exclusion, vs alpha tau."""
    lat = exp.lattice
    tau = exp.ensure_tau()
    rho = lat.rank
    dec = effective_decomposition([list(c) for c in lat.classes],
                                  list(lat.anticanonical))
    lead = float(dec.alpha) * tau
    rows, counts, ie_ok = [], [], True
    spent = 0
    for b in exp.grid:
        r = counting.count_anticanonical(lat, b, mode="direct",
                                         budget=exp.budget - spent)
        spent += r["visited"]
        direct = r["count"]
        r = counting.count_anticanonical(lat, b, mode="inclusion_exclusion",
                                         decomposition=dec,
                                         budget=exp.budget - spent)
        spent += r["visited"]
        ie = r["count"]
        equal = direct == ie
        ie_ok = ie_ok and equal
        counts.append(direct)
        pred = lead * float(b) * log(float(b)) ** (rho - 1)
        rows.append({"B": b, "count": direct, "prediction": pred,
                     "ratio": _ratio(direct, pred), "ie_count": ie,
                     "ie_equal": equal})
    c_fit, c2_fit = fit_leading(exp.grid, counts, rho)
    summary = {"theorem": "anticanonical", "tau": tau,
               "alpha": str(dec.alpha), "pieces": len(dec.cones),
               "ie_equal_all": ie_ok, "target_c": lead, "fitted_c": c_fit,
               "fitted_c2": c2_fit, "rel_err": abs(c_fit - lead) / lead}
    return rows, summary


def run_hyperbola(exp):
    """Rounded-height sums bracket the direct count on the cone of the L_i;
    both follow the nu(-Lambda) tau main term.

    alphas solves sum_i alpha_i L_i = omega (_dual_basis_data, which also
    checks that every alpha_i > 0), and the sums run over prod y^alpha <= B
    (counting.tabulate_f).  The summary's `caps` are the largest y_i at the
    top of the grid, and `boxes` counts the staircase boxes enumerated for
    both tables and their `visited`.
    """
    lat = exp.lattice
    tau = exp.ensure_tau()
    rho = lat.rank
    l_rows = _basis_rows(exp)
    alphas, _, _, nu_neg = counting._dual_basis_data(lat, l_rows)
    caps = [linalg.floor_rational_power(exp.grid[-1], x.denominator,
                                        x.numerator) for x in alphas]
    f_floor, f_ceil = counting.tabulate_f(lat, l_rows, [alphas], exp.grid,
                                          budget=exp.budget)
    tables = [f_floor] if f_ceil is f_floor else [f_floor, f_ceil]
    spent = sum(t.visited for t in tables)
    boxes = {"count": sum(len(t.data) for t in tables), "visited": spent}
    lead = float(nu_neg) * tau / factorial(rho - 1)
    region = counting.Region([(lat.anticanonical, 1, 1)],
                             facets=[[int(x) for x in row] for row in l_rows])
    rows, sandwich_ok = [], True
    for b in exp.grid:
        lo = counting.hyperbola_sum(f_ceil, [alphas], b)
        hi = counting.hyperbola_sum(f_floor, [alphas], b)
        res = counting.enumerate_region(lat, region, b,
                                        budget=exp.budget - spent)
        spent += res.visited
        direct = res.count
        ok = lo <= direct <= hi
        sandwich_ok = sandwich_ok and ok
        pred = lead * float(b) * log(float(b)) ** (rho - 1)
        rows.append({"B": b, "count": direct, "prediction": pred,
                     "ratio": _ratio(direct, pred),
                     "sum_ceil": lo, "sum_floor": hi, "sandwich_ok": ok})
    summary = {"theorem": "hyperbola", "tau": tau, "nu_neg": str(nu_neg),
               "alphas": [str(x) for x in alphas], "caps": caps,
               "boxes": boxes, "sandwich_ok_all": sandwich_ok,
               "final_ratio": rows[-1]["ratio"]}
    return rows, summary


def run_intersections(exp):
    """Counts on the overlap of two cones, normalized by B log^{rho-1}(B);
    the normalized sequence must die off along the grid."""
    lat = exp.lattice
    rho = lat.rank
    pair = exp.params.get("cones")
    if pair is None or len(pair) != 2:
        raise DegenerateInputError(
            "intersections needs params['cones'] = (generators1, generators2)")
    facets = []
    for gens in pair:
        facets.extend(tuple(f) for f in dual_cone([list(g) for g in gens],
                                                  rho))
    region = counting.anticanonical_region(lat, facets=facets)
    rows = []
    spent = 0
    for b in exp.grid:
        res = counting.enumerate_region(lat, region, b,
                                        budget=exp.budget - spent)
        spent += res.visited
        cnt = res.count
        bf = float(b)
        denom = bf * log(bf) ** (rho - 1) if bf > 1 else bf
        rows.append({"B": b, "count": cnt, "prediction": 0.0,
                     "ratio": cnt / denom})
    vals = [r["ratio"] for r in rows]
    summary = {"theorem": "intersections", "normalized": vals,
               "tail_decreasing": len(vals) < 2 or vals[-1] < vals[-2],
               "all_decreasing": all(b <= a for a, b in zip(vals, vals[1:]))}
    return rows, summary


_RUNNERS = {
    "multiheight": run_multiheight,
    "box": run_box,
    "cone_box": run_cone_box,
    "per_cone": run_per_cone,
    "anticanonical": run_anticanonical,
    "hyperbola": run_hyperbola,
    "intersections": run_intersections,
}


def run_experiment(exp):
    """Dispatch to the theorem runner; returns (rows, summary)."""
    return _RUNNERS[exp.theorem](exp)


# -- reports -----------------------------------------------------------------

def _num(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else str(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def rows_to_csv(rows):
    out = ["B,count,prediction,ratio"]
    for r in rows:
        out.append(",".join(_num(r[k])
                            for k in ("B", "count", "prediction", "ratio")))
    return "\n".join(out) + "\n"


def _json_safe(obj):
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else str(obj)
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def rows_to_json(rows, summary=None):
    payload = {"rows": _json_safe(rows)}
    if summary is not None:
        payload["summary"] = _json_safe(summary)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def rows_to_gnuplot(rows, data_name):
    data = ["# B count prediction ratio"]
    for r in rows:
        data.append(" ".join(_num(r[k])
                             for k in ("B", "count", "prediction", "ratio")))
    script = "\n".join([
        "set logscale x",
        "set xlabel 'B'",
        "set ylabel 'count'",
        "set key left top",
        f"plot '{data_name}' using 1:2 with points title 'count', \\",
        f"     '{data_name}' using 1:3 with lines title 'prediction'",
        "",
    ])
    return "\n".join(data) + "\n", script


def emit_report(rows, fmt, out_base, summary=None):
    """Write the report files for out_base ('<dir>/<stem>'); returns paths.

    csv: <stem>.csv with the fixed four-column header.
    json: <stem>.json with all row keys plus the summary.
    gnuplot: <stem>.dat and <stem>.gp, the script naming the data file by
    its basename so the pair relocates together.
    """
    paths = []
    if fmt == "csv":
        p = out_base + ".csv"
        with open(p, "w") as fh:
            fh.write(rows_to_csv(rows))
        paths.append(p)
    elif fmt == "json":
        p = out_base + ".json"
        with open(p, "w") as fh:
            fh.write(rows_to_json(rows, summary))
        paths.append(p)
    elif fmt == "gnuplot":
        dp, sp = out_base + ".dat", out_base + ".gp"
        data, script = rows_to_gnuplot(rows, os.path.basename(dp))
        with open(dp, "w") as fh:
            fh.write(data)
        with open(sp, "w") as fh:
            fh.write(script)
        paths.extend([dp, sp])
    else:
        raise DegenerateInputError(f"unknown report format {fmt!r}")
    return paths

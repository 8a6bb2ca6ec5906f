"""Command line front end.

Subcommands: analyze, constants, count, verify, hyperbola.  Exit codes:
0 success, 2 invalid input (bad fan, bad region, bad parameters), 3 compute
budget exceeded.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import counting, verify
from .cones import (c_p_constant, constants_block, dual_cone,
                    effective_decomposition, hyperbola_polytope)
from .errors import BudgetError, DegenerateInputError, MalformedFanError, \
    ValidationError
from .fans import class_lattice, resolve_fan, validate_fan
from .tamagawa import tamagawa


def _frac(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DegenerateInputError(f"not a rational: {text!r}") from exc


def _grid(text):
    return [_frac(part) for part in text.split(",") if part]


def _load(name_or_path):
    fan = resolve_fan(name_or_path)
    diag = validate_fan(fan)
    if not diag.ok:
        raise MalformedFanError("; ".join(diag.problems))
    return class_lattice(fan)


def _emit(payload, args, stem):
    text = json.dumps(verify._json_safe(payload), indent=2, sort_keys=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, stem + ".json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(path)
    else:
        print(text)


def _emit_rows(rows, summary, args, stem):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        base = os.path.join(args.out, stem)
        paths = verify.emit_report(rows, args.format, base, summary=summary)
        for p in paths:
            print(p)
    elif args.format == "csv":
        sys.stdout.write(verify.rows_to_csv(rows))
    elif args.format == "gnuplot":
        data, script = verify.rows_to_gnuplot(rows, stem + ".dat")
        sys.stdout.write(data)
        sys.stdout.write(script)
    else:
        sys.stdout.write(verify.rows_to_json(rows, summary))


def cmd_analyze(args):
    lat = _load(args.fan)
    fan = lat.fan
    dec = effective_decomposition([list(c) for c in lat.classes],
                                  list(lat.anticanonical))
    cp = None
    try:
        poly = hyperbola_polytope([list(lat.anticanonical)],
                                  list(lat.anticanonical))
        cp = c_p_constant(poly)
    except DegenerateInputError:
        pass
    payload = {
        "fan": fan.to_dict(),
        "picard_rank": lat.rank,
        "classes": [list(c) for c in lat.classes],
        "anticanonical": list(lat.anticanonical),
        "basis_nef": [lat.is_nef(tuple(1 if j == i else 0
                                       for j in range(lat.rank)))
                      for i in range(lat.rank)],
        "constants": constants_block(dec, cp),
        "triangulation": {"pieces": len(dec.cones),
                          "cones": [[list(g) for g in c]
                                    for c in dec.cones]},
    }
    _emit(payload, args, "analyze")
    return 0


def cmd_constants(args):
    lat = _load(args.fan)
    dec = effective_decomposition([list(c) for c in lat.classes],
                                  list(lat.anticanonical))
    rep = tamagawa(lat, p_max=args.pmax)
    rep["alpha"] = str(dec.alpha)
    rep["alpha_tau"] = float(dec.alpha) * rep["tau"]["value"]
    _emit(rep, args, "constants")
    return 0


def _count_range(packed):
    lattice, region, b, lo, hi, budget = packed
    res = counting.enumerate_region(lattice, region, b, budget=budget,
                                    first_range=(lo, hi))
    return res.count, res.visited


def cmd_count(args):
    lat = _load(args.fan)
    with open(args.region) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DegenerateInputError(f"region file: {exc}") from exc
    region = counting.region_from_json(obj)
    b = _frac(args.B)
    t0 = time.perf_counter()
    if args.workers > 1:
        ranges = counting.partition_first_coordinate(lat, region, b,
                                                     args.workers)
        jobs = [(lat, region, b, lo, hi, args.budget) for lo, hi in ranges]
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            parts = list(pool.map(_count_range, jobs))
        count = sum(p[0] for p in parts)
        visited = sum(p[1] for p in parts)
    else:
        res = counting.enumerate_region(lat, region, b, budget=args.budget)
        count, visited = res.count, res.visited
    elapsed = time.perf_counter() - t0
    payload = {"B": str(b), "count": count, "prediction": None,
               "ratio": None, "visited": visited}
    print(f"timing_s={elapsed:.3f}", file=sys.stderr)
    _emit(payload, args, "count")
    return 0


def _forced_split(dec, rho):
    """Two cones meeting in a facet: the first two pieces, or a split of a
    lone simplicial piece along the sum of its first two generators."""
    if len(dec.cones) >= 2:
        return dec.cones[0], dec.cones[1]
    if rho < 2:
        raise DegenerateInputError(
            "intersections needs Picard rank at least 2")
    g = [list(v) for v in dec.cones[0]]
    mid = [a + b for a, b in zip(g[0], g[1])]
    return [g[0], mid] + g[2:], [mid, g[1]] + g[2:]


def _experiment(args, lat, theorem, params, **extra):
    return verify.Experiment(lat, theorem, _grid(args.grid), tau=args.tau,
                             p_max=args.pmax, budget=args.budget,
                             params=params, **extra)


def cmd_verify(args):
    lat = _load(args.fan)
    params = {}
    if args.theorem == "per_cone":
        params["cone_index"] = args.cone
    if args.theorem == "intersections":
        dec = effective_decomposition([list(c) for c in lat.classes],
                                      list(lat.anticanonical))
        params["cones"] = _forced_split(dec, lat.rank)
    exp = _experiment(args, lat, args.theorem, params, seed=args.seed)
    rows, summary = verify.run_experiment(exp)
    _emit_rows(rows, summary, args, f"verify_{args.theorem}")
    return 0


def cmd_hyperbola(args):
    lat = _load(args.fan)
    rho = lat.rank
    dec = effective_decomposition([list(c) for c in lat.classes],
                                  list(lat.anticanonical))
    if not 0 <= args.cone < len(dec.cones):
        raise DegenerateInputError(
            f"cone index {args.cone} out of range; the decomposition has "
            f"{len(dec.cones)} pieces")
    gens = dec.cones[args.cone]
    l_rows = [list(f) for f in dual_cone([list(g) for g in gens], rho)]
    if len(l_rows) != rho:
        raise DegenerateInputError("decomposition piece is not simplicial")
    exp = _experiment(args, lat, "hyperbola", {"l_rows": l_rows})
    rows, summary = verify.run_experiment(exp)
    _emit_rows(rows, summary, args, f"hyperbola_{args.cone}")
    return 0


def _add_common(sub):
    sub.add_argument("fan", help="builtin fan name or path to a fan file")
    sub.add_argument("--out", default=None, help="report directory")
    sub.add_argument("--format", default="json",
                     choices=("csv", "json", "gnuplot"))


def _add_tau_opts(sub):
    sub.add_argument("--tau", type=float, default=None,
                     help="preset Tamagawa value (skips its computation)")
    sub.add_argument("--pmax", type=int, default=10 ** 4)
    sub.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="toricount",
        description="rational point counts and expected constants for "
                    "smooth complete split toric varieties")
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("analyze", help="fan, Picard group, alpha, "
                                        "triangulation")
    _add_common(s)
    s.set_defaults(fn=cmd_analyze)

    s = subs.add_parser("constants", help="alpha, Euler product, "
                                          "archimedean density, tau")
    _add_common(s)
    s.add_argument("--pmax", type=int, default=10 ** 4)
    s.set_defaults(fn=cmd_constants)

    s = subs.add_parser("count", help="exact count of a region at one B")
    _add_common(s)
    s.add_argument("--region", required=True, help="region JSON file")
    s.add_argument("--B", required=True, help="height bound, a rational")
    s.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
    s.add_argument("--workers", type=int, default=1)
    s.set_defaults(fn=cmd_count)

    s = subs.add_parser("verify", help="run one counting theorem over a "
                                       "B grid")
    _add_common(s)
    s.add_argument("--theorem", required=True, choices=verify.THEOREMS)
    s.add_argument("--grid", required=True,
                   help="comma-separated increasing B values")
    s.add_argument("--cone", type=int, default=0,
                   help="decomposition piece for per_cone")
    s.add_argument("--seed", type=int, default=0,
                   help="seed of the cone-box wall ratios")
    _add_tau_opts(s)
    s.set_defaults(fn=cmd_verify)

    s = subs.add_parser("hyperbola", help="rounded-height sums on one "
                                          "decomposition piece")
    _add_common(s)
    s.add_argument("--cone", type=int, default=0)
    s.add_argument("--grid", required=True)
    _add_tau_opts(s)
    s.set_defaults(fn=cmd_hyperbola)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

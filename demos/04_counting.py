"""Anticanonical point counts against alpha tau B log(B)^{rho-1}.

Counts are exact; the prediction uses tau from a truncated Euler product.  On P1xP1 the
inclusion-exclusion count over the triangulated effective cone must
agree with the direct count at every height bound.
"""

import time

from toricount import Experiment, class_lattice, resolve_fan, run_experiment, tamagawa


def table(name, grid, p_max=2000):
    lat = class_lattice(resolve_fan(name))
    tau = tamagawa(lat, p_max=p_max)["tau"]["value"]
    t0 = time.time()
    rows, summary = run_experiment(
        Experiment(lat, "anticanonical", grid, tau=tau))
    print(f"== {name}: alpha = {summary['alpha']}, tau ~= {tau:.4f}, "
          f"{summary['pieces']} cone piece(s) ==")
    print(f"{'B':>9} {'count':>10} {'prediction':>12} {'ratio':>7} {'IE':>3}")
    for r in rows:
        print(f"{int(r['B']):>9} {r['count']:>10} {r['prediction']:>12.1f} "
              f"{r['ratio']:>7.4f} {'ok' if r['ie_equal'] else 'NO':>3}")
    print(f"fitted leading constant {summary['fitted_c']:.4f} "
          f"vs alpha*tau = {summary['target_c']:.4f} "
          f"(rel err {100 * summary['rel_err']:.1f}%), "
          f"{time.time() - t0:.1f}s\n")


if __name__ == "__main__":
    table("P2", [100, 1000, 10000, 100000])
    table("P1xP1", [100, 1000, 10000])

"""Two exact bookkeeping devices behind the counts.

First, the box decomposition: points of P1xP1 with both partial heights
bounded are split into half-open geometric boxes, each counted as a
difference of the corner counts N(c) = #{1 <= H_{L_i} <= c_i}; corners at
the wall below 1 must count exactly 0 and the dropped nu mass obeys a
power tail.

Second, the rounded-height sums: over the staircase {y : y_0^2 y_1^2 <= B},
each run of equal caps of the last coordinate is one box of rounded
heights, counted by one enumeration; the floor and ceiling sums bracket
the exact anticanonical count, and with integer heights the three
numbers coincide.
"""

from toricount import (class_lattice, count_anticanonical, count_cone_box,
                       hyperbola_sum, resolve_fan, tabulate_f, tamagawa)


def box_demo(lat, tau):
    rep = count_cone_box(lat, [[1, 0], [0, 1]], (20, 20), seed=7, tau=tau)
    print(f"count at B=(20,20): {rep['count']}, "
          f"prediction {rep['prediction']:.0f}, ratio {rep['ratio']:.4f}")
    print(f"wall ratios {[str(r) for r in rep['ratios']]}, "
          f"kept {rep['kept']} boxes")
    print(f"corners at the wall below 1 all count 0: {rep['empty_boxes_ok']}")
    print(f"histogram total {rep['histogram_total']} == count: "
          f"{rep['histogram_total'] == rep['count']}")
    t = rep["tail"]
    print(f"dropped nu mass {t['sum']:.2e} <= "
          f"{t['bound_c']:.2f}/{t['min_B']:.0f}^{t['d']:.0f}: {t['ok']}")
    top = sorted(rep["histogram"].items(), key=lambda kv: -kv[1])[:5]
    print("five heaviest boxes (n_vec: points): "
          + ", ".join(f"{n}: {c}" for n, c in top))


def sandwich_demo(lat, B=400):
    # both rows are nef, so their heights are integers: the floor and
    # ceiling boxes coincide and one table serves both sums
    floor_t, ceil_t = tabulate_f(lat, [[1, 0], [0, 1]], [[2, 2]], [B])
    lo = hyperbola_sum(ceil_t, [[2, 2]], B)
    hi = hyperbola_sum(floor_t, [[2, 2]], B)
    direct = count_anticanonical(lat, B)["count"]
    print(f"\nceil sum {lo} <= direct {direct} <= floor sum {hi} at B={B}")
    print(f"staircase boxes: {len(floor_t.data)}, one table for both sums: "
          f"{floor_t is ceil_t}")


if __name__ == "__main__":
    lat = class_lattice(resolve_fan("P1xP1"))
    tau = tamagawa(lat, p_max=1000)["tau"]["value"]
    box_demo(lat, tau)
    sandwich_demo(lat)

"""Multi-heights of a single torus point, as integer max-monomials.

Every rational point of the dense torus lifts to primitive integer Cox
coordinates, unique up to a finite sign group.  The script canonicalizes
one point of the Hirzebruch surface F1 and evaluates its multi-height the
way every count does: each basis class splits as e_i = a_i - b_i with a_i
and b_i nef, and the height of a nef class at a canonical point is the
largest of its monomials, one per maximal cone.
"""

from fractions import Fraction
from math import prod

from toricount import builtin_fan, canonicalize, class_lattice, multi_height
from toricount.heights import HeightEvaluator


def main():
    lat = class_lattice(builtin_fan("F1"))
    pt = canonicalize(lat, (3, -5, 2, 7))
    print(f"canonical Cox coordinates of (3, -5, 2, 7): {pt.coords}")

    mh = multi_height(lat, pt)
    print(f"multi-height on the Picard basis: {', '.join(map(str, mh.values))}")
    print(f"anticanonical height: {mh.of_class(lat.anticanonical)}")

    a, b, mono = HeightEvaluator(lat).nef_split
    ay = [abs(y) for y in pt.coords]
    for i, (ai, bi, lists) in enumerate(zip(a, b, mono)):
        tops = []
        for ws in lists:
            vals = [prod(y ** e for y, e in zip(ay, w)) for w in ws]
            print(f"  monomials {ws}: {vals}")
            tops.append(max(vals))
        print(f"H_e{i} = H_{tuple(ai)} / H_{tuple(bi)} = {tops[0]} / {tops[1]}")
        assert Fraction(*tops) == mh.values[i]

    print("every basis height is a ratio of integer max-monomials")


if __name__ == "__main__":
    main()

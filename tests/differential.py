"""Differential check of enumerate_region between two source trees.

    PYTHONPATH=src python3 tests/differential.py > new.jsonl

prints one JSON line per seeded region: the seeded _closed_region and
_random_region draws of test_counting on each of the 8 tested fans
(conftest), with the count, visited, reused and order of enumerate_region,
or the class and message of the error it raised.  Run it on two trees and
`diff` the outputs: a change that must not move any count, visited, reused
or order shows no difference.  The draws depend only on the seeds, so both
trees count the same regions.  --closed and --random set the draws per
fan (125 and 60 by default); a larger run, such as --closed 500 --random
200, checks more regions.  pytest does not collect this file.
"""

import argparse
import json
import random
import sys

from conftest import BUILTIN_NAMES, OFF_BUILTIN_FANS, get_lattice
from test_counting import _closed_region, _random_region
from toricount.counting import enumerate_region

KINDS = {"closed": _closed_region, "random": _random_region}
BUDGET = 10 ** 6  # of each count


def outcome(lat, region, B):
    try:
        res = enumerate_region(lat, region, B, budget=BUDGET)
    except Exception as exc:  # the error is the outcome to compare
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"count": res.count, "visited": res.visited,
            "reused": res.reused, "order": list(res.order)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--closed", type=int, default=125,
                    help="closed regions per fan (default 125)")
    ap.add_argument("--random", type=int, default=60,
                    help="random regions per fan (default 60)")
    args = ap.parse_args(argv)
    for name in BUILTIN_NAMES + list(OFF_BUILTIN_FANS):
        lat = get_lattice(name)
        for kind, draws in (("closed", args.closed),
                            ("random", args.random)):
            rng = random.Random(f"differential-{name}-{kind}")
            for i in range(draws):
                region, B = KINDS[kind](rng, lat)
                line = {"fan": name, "kind": kind, "i": i, "B": str(B)}
                line.update(outcome(lat, region, B))
                print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

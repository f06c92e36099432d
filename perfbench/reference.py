"""Reference figures for perfbench/README.md.

    python3 perfbench/reference.py

Prints, from the library in `src/`: the time of
certify_projcover_structure(Session(ell), 1, 1) at ell 5 and 8 (median
of three), the size of the P(1,2) dump at ell 8 as the CLI writes it,
and the time of one dense multiply in Q(zeta_32) (median of 7 batches).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import uqwb  # noqa: E402
from uqwb.cyclotomic import Cyc  # noqa: E402


def median_time(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    for ell in (5, 8):
        s = uqwb.Session(ell)
        t = median_time(lambda: uqwb.certify_projcover_structure(s, 1, 1), 3)
        print("certify_projcover_structure(Session(%d), 1, 1): %.3f s"
              % (ell, t))

    s = uqwb.Session(8)
    dump = uqwb.dump_module(uqwb.build_projective_cover(s, 1, 2))
    text = json.dumps(dump, indent=1, sort_keys=True) + "\n"
    entries = [x for g in ("E", "F", "H") for row in dump[g] for x in row]
    print("P(1,2) dump at ell 8: %d bytes, %d dense entries, %d nonzero"
          % (len(text), len(entries),
             sum(x != "(0)*t^0" for x in entries)))

    rng = random.Random(0)

    def dense():
        acc = Cyc.from_rational(s, 0)
        for k in range(s.phi):
            f = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            acc = acc + Cyc.zeta_power(s, k).scale(f)
        return acc

    a, b = dense(), dense()
    n = 200
    t = median_time(lambda: [a * b for _ in range(n)], 7) / n
    print("dense Cyc multiply in Q(zeta_%d) (phi %d): %.1f us"
          % (s.M, s.phi, t * 1e6))


if __name__ == "__main__":
    main()

"""Timing comparison of the compiled counting kernels vs the pure fallback.

Runs each hot kernel on the same integer inputs through both backends,
checks they agree, and prints a per-kernel speedup table.  Input sizes
are chosen so the slowest pure run stays around a second.

The t_o_linehash rows compare two algorithms: the pure pivot-direction
counter (O(n^2) memory), which is the only route the package takes, and
the compiled line-hash (O(n^4) memory), kept as its independent reference.
They run at n = 20 and n = 32; the "+MB" columns show how far each run
raised the process's peak RSS, so only the first run to need more memory
than anything before it reads above 0.

Usage: python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import resource
import time

from addcomb import _kernels_py
from addcomb.sets import SplitMix64

try:
    from addcomb import _kernels_cy

    HAVE_CY = True
except ImportError:
    HAVE_CY = False


def _ints(rng: SplitMix64, n: int, lo: int, hi: int) -> list:
    vals = set()
    while len(vals) < n:
        vals.add(lo + rng.below(hi - lo + 1))
    return sorted(vals)


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def bench(fn, args, repeat: int):
    best = None
    out = None
    peak = _peak_mb()
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return out, best, _peak_mb() - peak


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=1)
    ns = ap.parse_args()

    rng = SplitMix64(42)
    a = _ints(rng, 8, -500, 500)
    b = _ints(rng, 8, -500, 500)
    c = _ints(rng, 8, -500, 500)
    g1 = _ints(rng, 20, -200, 200)
    g2 = _ints(rng, 20, -200, 200)
    g3 = _ints(rng, 20, -200, 200)
    pxs = _ints(rng, 400, -1000, 1000)
    pys = [pxs[(i * 7 + 3) % len(pxs)] for i in range(len(pxs))]
    las = [1 + rng.below(20) for _ in range(400)]
    lbs = [1 + rng.below(20) for _ in range(400)]
    lcs = [rng.below(2001) - 1000 for _ in range(400)]
    x = _ints(rng, 300, 1, 4000)
    y = _ints(rng, 300, 1, 4000)
    h = _ints(rng, 32, -128, 128)  # drawn last: earlier inputs stay as before

    # (row label, kernel name, arguments)
    cases = [
        ("collinear_six_counts", "collinear_six_counts", (a, b, c)),
        ("t_o pivot/linehash n=20", "t_o_linehash", (g1, g2, g3)),
        ("t_o pivot/linehash n=32", "t_o_linehash", (h, h, h)),
        ("count_incidences", "count_incidences", (pxs, pys, las, lbs, lcs)),
        ("mul_pairs_count", "mul_pairs_count", (x, y)),
    ]

    print(f"{'kernel':<24} {'pure (s)':>10} {'+MB':>6} {'compiled (s)':>13} "
          f"{'+MB':>6} {'speedup':>8}")
    for label, name, args in cases:
        out_py, t_py, mb_py = bench(getattr(_kernels_py, name), args, ns.repeat)
        if HAVE_CY:
            out_cy, t_cy, mb_cy = bench(getattr(_kernels_cy, name), args, ns.repeat)
            assert out_py == out_cy, f"{label}: backend mismatch {out_py} != {out_cy}"
            print(f"{label:<24} {t_py:>10.4f} {mb_py:>6.1f} {t_cy:>13.4f} "
                  f"{mb_cy:>6.1f} {t_py / t_cy:>7.1f}x")
        else:
            print(f"{label:<24} {t_py:>10.4f} {mb_py:>6.1f} {'n/a':>13} "
                  f"{'n/a':>6} {'n/a':>8}")
    if not HAVE_CY:
        print("compiled extension not available; pure backend only")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Tabulate telescopers for the k-regular graph generating functions.

For each k the script builds the scalar-product presentation, extracts a
telescoper (the exact, certified direct driver up to k = 6, where it is
about ten times faster than modular; the modular evaluation /
interpolation pipeline from k = 7 up, see --modular-from), checks the
resulting ODE against the exponential generating series, and prints one
table row with timings.  A modular row is followed by a line that lists each
prime with the number of evaluation points it used, read from the
transcript's points= lines.

Typical use:

    python3 scripts/kregular_table.py            # k = 2..5
    python3 scripts/kregular_table.py --max-k 6  # include the k = 6 stretch run
"""

import argparse
import re
import time

from weylred.kregular import (
    model_polynomials,
    regular_presentation,
    scalar_product_series,
    verify_ode_on_series,
)
from weylred.telescoping import ModularConfig, telescope_direct, telescope_modular


def points_per_prime(transcript):
    """(prime, points) for each prime[i] of a modular transcript that got as
    far as its points= line (the kept primes and the consistency prime)."""
    out, prime = [], None
    for line in transcript:
        head = re.match(r"prime\[\d+\] (\d+)$", line)
        if head:
            prime = int(head.group(1))
        points = re.match(r"\s+points=(\d+) ", line)
        if points and prime is not None:
            out.append((prime, int(points.group(1))))
    return out


def one_row(k, args):
    t0 = time.monotonic()
    _, pres = regular_presentation(k)
    t_build = time.monotonic() - t0

    t0 = time.monotonic()
    points = []
    if k < args.modular_from:
        tele = telescope_direct(pres)
        mode = "direct"
    else:
        cfg = ModularConfig(seed=args.seed, max_points=args.point_budget)
        run = telescope_modular(pres, config=cfg)
        tele = run.telescoper
        mode = f"modular[{len(run.primes_used)}p]"
        points = points_per_prime(run.transcript)
    t_tel = time.monotonic() - t0

    check = "-"
    if args.series_terms:
        f, g = model_polynomials(k)
        series = scalar_product_series(f, g, args.series_terms)
        ok = verify_ode_on_series(tele, series, allow_partial=True)
        check = "ok" if ok else "FAIL"
    return mode, tele.order, max(tele.degrees), t_build, t_tel, check, points


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-k", type=int, default=2)
    ap.add_argument("--max-k", type=int, default=5)
    ap.add_argument("--modular-from", type=int, default=7,
                    help="switch from the direct driver to the modular "
                         "pipeline at this k (default 7)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--point-budget", type=int, default=ModularConfig.max_points,
                    help="evaluation points per reconstructed entry and prime")
    ap.add_argument("--series-terms", type=int, default=12,
                    help="verify the ODE against this many series terms "
                         "(0 skips the check)")
    args = ap.parse_args()

    print(f"{'k':>2}  {'mode':<12} {'order':>5} {'degree':>6} "
          f"{'build(s)':>9} {'telescope(s)':>12} {'series':>7}")
    for k in range(args.min_k, args.max_k + 1):
        mode, order, degree, tb, tt, check, points = one_row(k, args)
        print(f"{k:>2}  {mode:<12} {order:>5} {degree:>6} "
              f"{tb:>9.2f} {tt:>12.2f} {check:>7}", flush=True)
        if points:
            print("    points per prime: "
                  + ", ".join(f"{p}: {n}" for p, n in points), flush=True)


if __name__ == "__main__":
    main()

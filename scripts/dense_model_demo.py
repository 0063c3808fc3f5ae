#!/usr/bin/env python3
"""Trace dense-model quality against anti-uniform family size.

Samples a sparse random set, then for a growing prefix of one fixed test
family solves the dense-model program and records the achieved norm (the
worst correlation between mu - g and any family member).  Richer families
impose more constraints, so the norm can only grow with size; how slowly
it grows tells you how large a family the counting-lemma budget can
afford.  This script puts numbers on that growth.

Because families are prefix-consistent, the size-m run reuses the same
members as the size-M > m run: the curve is monotone nondecreasing by
construction, and the printout shows the growth rate directly.

Example:
    python3 scripts/dense_model_demo.py --n 307 --p 0.2 --sizes 8,32,128,512
"""

import argparse
import json
import sys
import time

from sparselab.sample import sample_ensemble
from sparselab.systems import build_system
from sparselab.transfer import build_family, solve_dense_model

# an achieved norm at or below this is the LP's rounding, not a fit error,
# so a growth ratio against it means nothing
ROUND_OFF = 1e-12


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=307, help="a prime")
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--p", type=float, default=0.2)
    ap.add_argument("--m", type=int, default=4, help="sets in the ensemble")
    ap.add_argument("--sizes", default="4,16,64,256,1024",
                    help="comma-separated family sizes to try")
    ap.add_argument("--eps", type=float, default=0.0,
                    help="slack for the positive-part scaling")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="JSON output path")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys_obj = build_system(kind="ap", n=args.n, k=args.k)
    ens = sample_ensemble(sys_obj.ground, args.p, args.m, args.seed)
    mu = ens.averaged_measure()

    sizes = sorted({int(s) for s in args.sizes.split(",")})
    family = build_family(sys_obj, ens, sizes[-1], seed=args.seed)

    print(f"Z_{args.n}, k={args.k}, p={args.p}, ensemble of {args.m}, "
          f"E mu = {float(mu.dense().mean()):.4f}")
    print(f"{'size':>6}  {'achieved':>10}  {'lp_opt':>10}  "
          f"{'status':<14}  {'secs':>6}")
    rows = []
    for size in sizes:
        t0 = time.perf_counter()
        res = solve_dense_model(mu, family.prefix(size), eps=args.eps)
        secs = time.perf_counter() - t0
        rows.append({"family_size": size,
                     "achieved_norm": res.achieved_norm,
                     "lp_optimum": res.lp_optimum,
                     "status": res.status,
                     "seconds": round(secs, 3)})
        print(f"{size:>6d}  {res.achieved_norm:>10.5f}  "
              f"{res.lp_optimum:>10.5f}  {res.status:<14}  {secs:>6.2f}")

    norms = [r["achieved_norm"] for r in rows]
    if len(norms) > 1 and norms[0] > ROUND_OFF:
        print(f"\nnorm grew {norms[-1] / norms[0]:.3f}x while the family "
              f"grew {sizes[-1] // sizes[0]}x")
    elif len(norms) > 1:
        print(f"\nno growth ratio: the norm at size {sizes[0]} "
              f"({norms[0]:.1e}) is round-off")

    if args.out:
        payload = {"n": args.n, "k": args.k, "p": args.p, "m": args.m,
                   "eps": args.eps, "seed": args.seed, "curve": rows}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote curve to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sweep destination capacity vs first-phase power for several fixed power
splits (both budget modes, 4 relays) and write the CSV.

Usage: python scripts/run_power_sweep.py --out power_sweep.csv [--seed 0] [--n-instances 100]
       [--workers 1]  (more workers pay only from about 500 instances; see README)
"""

import argparse

from anbeam.experiments import emit_csv, power_sweep_spec, run_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="power_sweep.csv")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-instances", type=int, default=100)
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()

    spec = power_sweep_spec(seed=args.seed, n_instances=args.n_instances)
    rows = run_sweep(spec, workers=args.workers)
    emit_csv(rows, args.out)
    print(f"{len(rows)} rows -> {args.out}")
    for row in rows[:6]:
        print(f"  m={row.m} p1={row.p1:g} alpha={row.alpha} {row.budget_mode}: "
              f"mean={row.mean_c_d:.4f} std={row.std_c_d:.4f}")


if __name__ == "__main__":
    main()

"""Command-line entry points: solve one scenario, run a sweep, validate
solvers against the brute-force oracles.

Only sweep starts worker processes; validate runs in one process and
ignores --workers.
"""

from __future__ import annotations

import logging
import sys
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from . import experiments, oracles, serialization
from .errors import BeamformingError, OracleEvalError
from .individual_solver import solve_individual
from .model import (
    alpha_for_threshold,
    derive_model,
    noise_residual_scale,
    relay_snrs,
    simulate_noise_residual,
    strongest_relay,
)
from .total_solver import build_d_tilde, solve_total
from .types import IndividualBudget, SignalRealization, SystemParams, TotalBudget

# argparse and json are imported where they are used, so that importing this
# module costs neither
if TYPE_CHECKING:
    import argparse

# Gap tolerances the validate suites enforce (analytic must not lose to the
# oracle by more than this).
VALIDATE_GAP_TOTAL = 1e-6
VALIDATE_GAP_INDIVIDUAL = 1e-4
VALIDATE_EIGEN_REL = 1e-10
# With a correct solver a relay-snr estimate lands more than 7 sigma from the
# formula with probability 2.6e-12 per comparison.
VALIDATE_SIGMAS = 7.0


def _cmd_solve(args) -> int:
    import json
    instance, params = serialization.load_scenario(args.input)
    if params.gamma is None:  # a scenario has no alpha to take its place
        raise ValueError("params.gamma: solve derives alpha from it, so it must not be null")
    if isinstance(params.budget, TotalBudget):
        solution = solve_total(instance, params)
    else:
        solution = solve_individual(instance, params)
    if args.json:
        print(json.dumps(serialization.solution_to_dict(solution), indent=2))
        return 0
    print(f"alpha              = {solution.alpha:.12g}")
    print(f"c_d                = {solution.c_d:.12g} bits/channel use")
    print(f"second_phase_power = {solution.second_phase_power:.12g}")
    for i, wi in enumerate(solution.w):
        print(f"w[{i}]               = {wi.real:+.12g}{wi.imag:+.12g}j")
    return 0


def _cmd_sweep(args) -> int:
    import json
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = experiments.spec_from_dict(json.load(fh))
    rows = experiments.run_sweep(spec, workers=args.workers)
    experiments.emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _check(ok: bool, label: str, detail: str, failures: List[str]) -> None:
    tag = "ok  " if ok else "FAIL"
    print(f"[{tag}] {label}: {detail}")
    if not ok:
        failures.append(label)


def _random_scenario(rng: np.random.Generator, m: int):
    instance = experiments.sample_instance(m, experiments.ChannelVariances(), rng)
    p1 = float(rng.uniform(0.5, 8.0))
    ceiling = relay_snrs(instance, p1, 1.0)[strongest_relay(instance)]
    gamma = float(rng.uniform(0.2, 0.9)) * ceiling
    return instance, p1, gamma


def _suite_total(seed: int, count: int, failures: List[str]) -> None:
    rng = np.random.default_rng(np.random.SeedSequence(0x7E57, spawn_key=(seed, 0)))
    for k in range(count):
        m = int(rng.integers(1, 7))
        instance, p1, gamma = _random_scenario(rng, m)
        params = SystemParams(p1, gamma, TotalBudget(float(rng.uniform(1.0, 10.0))))
        report = oracles.oracle_total(instance, params, n_samples=20_000,
                                      seed=seed * 1000 + k)
        _check(report.gap >= -VALIDATE_GAP_TOTAL, f"total[{k}]",
               f"gap={report.gap:.3e} evals={report.samples_or_evals}", failures)
        solution = solve_total(instance, params)
        derived = derive_model(instance, p1, solution.alpha)
        d_tilde = build_d_tilde(derived, params.budget.p_tot)
        try:
            eigen, _ = oracles.power_iteration_rank1(d_tilde, np.conj(derived.h))
        except OracleEvalError as err:
            _check(False, f"total-eigen[{k}]", str(err), failures)
            continue
        rel = abs(eigen - solution.diagnostics.rayleigh_value) / max(eigen, 1e-300)
        _check(rel <= VALIDATE_EIGEN_REL, f"total-eigen[{k}]",
               f"rel={rel:.3e}", failures)


def _suite_individual(seed: int, count: int, failures: List[str]) -> None:
    rng = np.random.default_rng(np.random.SeedSequence(0x7E57, spawn_key=(seed, 1)))
    for k in range(count):
        m = int(rng.integers(1, 4))
        instance, p1, gamma = _random_scenario(rng, m)
        params = SystemParams(p1, gamma,
                              IndividualBudget(5.0, np.full(m, 0.1)))
        report = oracles.oracle_individual_grid(instance, params)
        _check(report.gap >= -VALIDATE_GAP_INDIVIDUAL, f"individual[{k}]",
               f"gap={report.gap:.3e} evals={report.samples_or_evals}", failures)


def _suite_signals(seed: int, count: int, failures: List[str]) -> None:
    rng = np.random.default_rng(np.random.SeedSequence(0x7E57, spawn_key=(seed, 2)))
    n_symbols = 10_000_000_000
    sigma_rel = VALIDATE_SIGMAS * np.sqrt(2.0 / n_symbols)
    for k in range(count):
        m = int(rng.integers(1, 5))
        instance, p1, gamma = _random_scenario(rng, m)
        alpha = alpha_for_threshold(instance, p1, gamma)
        snrs = relay_snrs(instance, p1, alpha)
        e = strongest_relay(instance)
        _check(abs(snrs[e] - gamma) <= 1e-12 * gamma, f"threshold[{k}]",
               f"gamma_err={abs(snrs[e] - gamma):.3e}", failures)
        w = (rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))
        measured = oracles.empirical_snr(instance, p1, alpha, w, n_symbols,
                                         seed=seed * 100 + k)
        worst = float(np.max(np.abs(measured.relays - snrs) / snrs))
        _check(worst <= sigma_rel, f"relay-snr[{k}]",
               f"worst_rel_err={worst:.3e} limit={sigma_rel:.3e}", failures)
        realization = SignalRealization(
            x=complex(rng.normal(), rng.normal()),
            u=complex(rng.normal(), rng.normal()),
            z=rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))
        residual = abs(simulate_noise_residual(instance, p1, alpha, w, realization))
        scale = noise_residual_scale(instance, p1, alpha, w)
        _check(residual <= 1e-12 * max(scale, 1e-300), f"cancel[{k}]",
               f"residual={residual:.3e} scale={scale:.3e}", failures)


def _cmd_validate(args) -> int:
    if args.count is not None and args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    experiments.resolve_workers(args.workers)  # checked, then unused
    failures: List[str] = []
    if args.suite == "total":
        _suite_total(args.seed, args.count or 25, failures)
    elif args.suite == "individual":
        _suite_individual(args.seed, args.count or 15, failures)
    else:
        _suite_signals(args.seed, args.count or 5, failures)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="anbeam",
        description="Two-phase relay beamforming with source-injected "
                    "artificial noise: solvers, sweeps and oracle validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one scenario file")
    p_solve.add_argument("--input", required=True, help="scenario JSON path")
    p_solve.add_argument("--json", action="store_true", help="emit JSON output")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep to CSV")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON path")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes (default 1)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="cross-check solvers against oracles")
    p_val.add_argument("--suite", required=True,
                       choices=("total", "individual", "signals"))
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--count", type=int, default=None,
                       help="number of random scenarios per suite")
    p_val.add_argument("--workers", type=int, default=None,
                       help="checked but has no effect: validate runs in one process")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BeamformingError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

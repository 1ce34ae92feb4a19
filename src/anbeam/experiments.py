"""Monte Carlo sweep harness: seeded instance sampling, grid execution, CSV.

Reproducibility design
----------------------

Instance randomness is keyed by (seed, instance slot, attempt) only — not by
the grid point.  Combined with a fixed draw order (h_sd first, then each
relay's source-side and destination-side gain in turn), instance slot s is
literally the same network at every (p1, alpha) grid point, and at a smaller
relay count it is a prefix of the same network.  Mean-capacity trends along
p1, alpha or M therefore hold instance-by-instance, not just on average, and
sweeps are byte-identical across worker counts (grid points are independent
tasks; aggregation happens in fixed slot order).

A grid point is solved as one batch per budget mode: every slot's instance
is drawn, stacked into an InstanceBatch and handed to solve_total_batch and
solve_individual_batch, which report failures per row (a batch larger than
BATCH_ELEMENTS rows x relays is split in equal parts, which changes no
value).  A slot that fails in either mode (e.g. an infeasible SNR threshold
at low p1) advances its attempt counter at that grid point; the failed slots
are redrawn together as a smaller batch, and each replacement is logged and
counted, never silently dropped.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .individual_solver import solve_individual_batch
from .total_solver import solve_total_batch
from .types import (IndividualBudget, InstanceBatch, NetworkInstance, SystemParams,
                    TotalBudget)

log = logging.getLogger(__name__)

# Seed-sequence entropy tag for experiment instance streams (the oracle module
# uses its own tag, so harness and oracle draws can never collide).
HARNESS_NAMESPACE = 0xBEA7

ENV_WORKERS = "ANBEAM_WORKERS"

BUDGET_MODES = ("total", "individual")


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ANBEAM_WORKERS, else 1."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get(ENV_WORKERS)
    return max(1, int(env)) if env else 1


@dataclass(frozen=True)
class ChannelVariances:
    """Total variances of the CN channel gains per link type."""

    sr: float = 1.0
    rd: float = 1.0
    sd: float = 0.25

    def __post_init__(self):
        if min(self.sr, self.rd, self.sd) <= 0:
            raise ValueError("all channel variances must be positive")


def instance_stream(seed: int, slot: int, attempt: int = 0) -> np.random.Generator:
    """Generator for one instance slot; attempt > 0 selects replacements."""
    return np.random.default_rng(
        np.random.SeedSequence(HARNESS_NAMESPACE, spawn_key=(seed, slot, attempt)))


def sample_instance(m: int, variances: ChannelVariances,
                    stream: np.random.Generator, sigma2: float = 1.0) -> NetworkInstance:
    """Draw one network: h_sd ~ CN(0, sd), each relay's h_si ~ CN(0, sr) and
    h_id ~ CN(0, rd), with the per-relay draws interleaved so a smaller relay
    count consumes a prefix of the same stream."""
    if m < 1:
        raise ValueError("need at least one relay")
    raw = stream.standard_normal(2 + 4 * m)
    h_sd = complex(raw[0], raw[1]) * math.sqrt(variances.sd / 2.0)
    rest = raw[2:].reshape(m, 4)
    h_sr = (rest[:, 0] + 1j * rest[:, 1]) * math.sqrt(variances.sr / 2.0)
    h_rd = (rest[:, 2] + 1j * rest[:, 3]) * math.sqrt(variances.rd / 2.0)
    return NetworkInstance(h_sd=h_sd, h_sr=h_sr, h_rd=h_rd, sigma2=sigma2)


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of a sweep; everything needed to reproduce it.

    Exactly one of alpha_values (fixed power splits) or gamma (power split
    derived per instance from the relay SNR threshold) must be given.  The
    total budget is always derived as p_tot = p_s + m * p_i so both budget
    modes spend the same power.
    """

    m_values: Tuple[int, ...]
    p1_values: Tuple[float, ...]
    alpha_values: Optional[Tuple[float, ...]] = None
    gamma: Optional[float] = None
    budget_mode: str = "both"
    p_s: float = 5.0
    p_i: float = 0.1
    n_instances: int = 100
    seed: int = 0
    variance_sr: float = 1.0
    variance_rd: float = 1.0
    variance_sd: float = 0.25
    sigma2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "p1_values", tuple(float(p) for p in self.p1_values))
        if self.alpha_values is not None:
            object.__setattr__(self, "alpha_values",
                               tuple(float(a) for a in self.alpha_values))
        if (self.alpha_values is None) == (self.gamma is None):
            raise ValueError("give exactly one of alpha_values or gamma")
        if not all(0.0 < a <= 1.0 for a in self.alpha_values or ()):
            # alpha = 0 sends no message power: both solvers reject it
            raise ValueError("alpha_values must lie in (0, 1]")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and positive")
        if not all(0.0 < p < math.inf for p in self.p1_values):
            raise ValueError("p1_values must be finite and positive")
        if not 0.0 < self.p_s < math.inf:
            raise ValueError("p_s must be finite and positive")
        if not 0.0 <= self.p_i < math.inf:
            raise ValueError("p_i must be finite and nonnegative")
        if self.budget_mode not in ("total", "individual", "both"):
            raise ValueError(f"unknown budget_mode {self.budget_mode!r}")
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if min(self.m_values, default=1) < 1:
            raise ValueError("relay counts must be >= 1")
        ChannelVariances(self.variance_sr, self.variance_rd, self.variance_sd)
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")

    @property
    def variances(self) -> ChannelVariances:
        return ChannelVariances(self.variance_sr, self.variance_rd, self.variance_sd)

    @property
    def modes(self) -> Tuple[str, ...]:
        if self.budget_mode == "both":
            return BUDGET_MODES
        return (self.budget_mode,)

    def alpha_grid(self) -> Tuple[Optional[float], ...]:
        """Fixed alpha values, or (None,) meaning derive from gamma."""
        if self.alpha_values is not None:
            return self.alpha_values
        return (None,)


@dataclass(frozen=True)
class ExperimentRow:
    m: int
    p1: float
    alpha: str  # fixed alpha rendered as a number, or "gamma=<value>"
    budget_mode: str
    mean_c_d: float
    std_c_d: float
    n_instances: int
    seed: int


@dataclass
class GridPointResult:
    """Per-instance capacities for one (m, p1, alpha) grid point, one array
    per requested budget mode, in instance-slot order."""

    c_d: Dict[str, np.ndarray]
    resamples: int


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def alpha_label(spec: ExperimentSpec, alpha: Optional[float]) -> str:
    return _fmt(alpha) if alpha is not None else f"gamma={_fmt(spec.gamma)}"


# Largest batch the solvers get, in rows x relays.  Their working set is a few
# dozen arrays of that size, so this bounds a grid point's memory at large M or
# n_instances; with 100 slots, every M <= 163 is still one batch.
BATCH_ELEMENTS = 1 << 14


def solve_grid_point(spec: ExperimentSpec, m: int, p1: float,
                     alpha: Optional[float]) -> GridPointResult:
    """Solve all instance slots at one grid point, in every requested budget
    mode, sharing the instance set across modes.

    Each round draws the pending slots' instances and solves them as one
    batch per mode (split in equal parts of at most BATCH_ELEMENTS rows x
    relays).  A slot whose solve fails in any mode is redrawn (next attempt)
    for all modes together in the next round; the first mode's error is the
    one logged.
    """
    p_tot = spec.p_s + m * spec.p_i
    params = {"total": SystemParams(p1, spec.gamma, TotalBudget(p_tot)),
              "individual": SystemParams(p1, spec.gamma,
                                         IndividualBudget(spec.p_s, np.full(m, spec.p_i)))}
    solvers = {"total": solve_total_batch, "individual": solve_individual_batch}
    values = {mode: np.empty(spec.n_instances) for mode in spec.modes}
    attempts = np.zeros(spec.n_instances, dtype=int)
    pending = np.arange(spec.n_instances)
    resamples = 0
    while pending.size:
        failed = []
        for rows in np.array_split(pending, -(-pending.size * m // BATCH_ELEMENTS)):
            batch = InstanceBatch.stack(
                sample_instance(m, spec.variances,
                                instance_stream(spec.seed, int(slot), int(attempts[slot])),
                                spec.sigma2)
                for slot in rows)
            errors = [None] * len(rows)
            for mode in spec.modes:
                solved = solvers[mode](batch, params[mode], alpha=alpha)
                values[mode][rows] = solved.c_d  # a failed slot's is rewritten on redraw
                errors = [first or err for first, err in zip(errors, solved.errors)]
            failed += [(int(slot), err) for slot, err in zip(rows, errors) if err is not None]
        for slot, err in failed:
            resamples += 1
            attempts[slot] += 1
            log.warning("slot %d at (m=%d, p1=%g, %s) resampled (attempt %d): %s",
                        slot, m, p1, alpha_label(spec, alpha), attempts[slot], err)
            if attempts[slot] > 100:
                raise RuntimeError(
                    f"slot {slot} failed 100 consecutive resamples") from err
        pending = np.array([slot for slot, _ in failed], dtype=int)
    return GridPointResult(c_d=values, resamples=resamples)


def grid_points(spec: ExperimentSpec) -> List[Tuple[int, float, Optional[float]]]:
    """Grid-point order is the row order of the emitted CSV."""
    return [(m, p1, alpha)
            for m in spec.m_values
            for p1 in spec.p1_values
            for alpha in spec.alpha_grid()]


def run_sweep(spec: ExperimentSpec, workers: Optional[int] = None) -> List[ExperimentRow]:
    """Execute the sweep and aggregate one row per (grid point, budget mode).

    Aggregation uses numpy's fixed-order reductions over the slot-ordered
    arrays, so the row values do not depend on the worker count.
    """
    points = grid_points(spec)
    n_workers = resolve_workers(workers)
    if n_workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(solve_grid_point, [spec] * len(points), *zip(*points)))
    else:
        results = [solve_grid_point(spec, m, p1, a) for m, p1, a in points]
    total_resamples = sum(r.resamples for r in results)
    if total_resamples:
        log.info("sweep finished with %d resampled instances", total_resamples)
    rows: List[ExperimentRow] = []
    for (m, p1, alpha), result in zip(points, results):
        for mode in spec.modes:
            arr = result.c_d[mode]
            rows.append(ExperimentRow(
                m=m, p1=p1, alpha=alpha_label(spec, alpha), budget_mode=mode,
                mean_c_d=float(np.mean(arr)), std_c_d=float(np.std(arr)),
                n_instances=spec.n_instances, seed=spec.seed))
    return rows


CSV_HEADER = "m,p1,alpha,budget_mode,mean_c_d,std_c_d,n_instances,seed"


def emit_csv(rows: List[ExperimentRow], destination) -> None:
    """Write rows in grid order with 12-significant-digit decimals."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join([
            str(row.m), _fmt(row.p1), row.alpha, row.budget_mode,
            _fmt(row.mean_c_d), _fmt(row.std_c_d),
            str(row.n_instances), str(row.seed),
        ]))
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Canned sweeps mirroring the standard evaluation protocol


def power_sweep_spec(seed: int = 0, n_instances: int = 100) -> ExperimentSpec:
    """Capacity vs first-phase power for several fixed power splits, both
    budget modes, at four relays."""
    return ExperimentSpec(
        m_values=(4,),
        p1_values=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
        alpha_values=(0.3, 0.6, 0.9),
        budget_mode="both",
        n_instances=n_instances,
        seed=seed,
    )


def relay_count_sweep_spec(seed: int = 0, n_instances: int = 100) -> ExperimentSpec:
    """Capacity vs relay count at fixed first-phase power, both budget modes."""
    return ExperimentSpec(
        m_values=tuple(range(2, 11)),
        p1_values=(5.0,),
        alpha_values=(0.6,),
        budget_mode="both",
        n_instances=n_instances,
        seed=seed,
    )


def spec_to_dict(spec: ExperimentSpec) -> dict:
    doc = {
        "m_values": list(spec.m_values),
        "p1_values": list(spec.p1_values),
        "budget_mode": spec.budget_mode,
        "p_s": spec.p_s,
        "p_i": spec.p_i,
        "n_instances": spec.n_instances,
        "seed": spec.seed,
        "variance_sr": spec.variance_sr,
        "variance_rd": spec.variance_rd,
        "variance_sd": spec.variance_sd,
        "sigma2": spec.sigma2,
    }
    if spec.alpha_values is not None:
        doc["alpha_values"] = list(spec.alpha_values)
    if spec.gamma is not None:
        doc["gamma"] = spec.gamma
    return doc


def spec_from_dict(doc: dict) -> ExperimentSpec:
    return ExperimentSpec(**doc)

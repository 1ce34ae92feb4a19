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

All grid points of one relay count are solved as one batch per budget mode
(solve_grid_points): each row is one (grid point, slot), with p1 and a fixed
alpha per row, and the batch is split in equal parts of at most
BATCH_ELEMENTS rows x relays and BATCH_ROWS rows, which changes no value.
Each round takes its rows in (slot, attempt) key order; the call's _KeyDraws
builds each key's network once, for sample_instance to return to each of the
key's consecutive rows.  A part is the field constructor's stack of its rows'
gain buffers, which solve_total_batch and solve_individual_batch share
(model.py forms its channel arrays once); they report failures per row.
A row that fails in either mode (e.g. an infeasible SNR threshold at low p1)
advances its slot's attempt counter at its own grid point; the failed rows
are redrawn together as a smaller batch, and each replacement is logged and
counted, never silently dropped.  run_sweep hands each worker a contiguous
chunk of a relay count's grid points; solve_grid_point is the one-point
call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import MISSING, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .individual_solver import solve_individual_batch
from .serialization import _integer, _list_of, _real, _reject_unknown
from .total_solver import solve_total_batch
from .types import IndividualBudget, NetworkInstance, SystemParams, TotalBudget, check_gamma

log = logging.getLogger(__name__)

# Seed-sequence entropy tag for experiment instance streams (the oracle module
# uses its own tag, so harness and oracle draws can never collide).
HARNESS_NAMESPACE = 0xBEA7

BUDGET_MODES = ("total", "individual")

# numpy sizes an array in bytes by an np.intp.  A sweep's largest arrays are
# a row's 2 + 4m float64 normal draws and one float64 per row of every grid
# point, n_instances rows each, so larger counts fail inside numpy.
_MAX_FLOAT64S = np.iinfo(np.intp).max // 8
_MAX_RELAYS = (_MAX_FLOAT64S - 2) // 4


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Worker count: the explicit argument, else 1; a count that is not an
    integer, or is below 1, is a ValueError."""
    if explicit is None:
        return 1
    workers = _integer(explicit, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True)
class ChannelVariances:
    """Total variances of the CN channel gains per link type."""

    sr: float = 1.0
    rd: float = 1.0
    sd: float = 0.25

    def __post_init__(self):
        for name in ("sr", "rd", "sd"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"variance_{name} must be finite and positive")


def instance_stream(seed: int, slot: int, attempt: int = 0) -> np.random.Generator:
    """Generator for one instance slot; attempt > 0 selects replacements."""
    return np.random.default_rng(
        np.random.SeedSequence(HARNESS_NAMESPACE, spawn_key=(seed, slot, attempt)))


def _gain_scales(m: int, variances: ChannelVariances) -> np.ndarray:
    """sqrt(variance / 2) of each gain of a draw, in its order, as complex."""
    return np.sqrt(np.array([variances.sd] + [variances.sr, variances.rd] * m) / 2).astype(complex)


def sample_instance(m: int, variances: ChannelVariances,
                    stream: np.random.Generator, sigma2: float = 1.0) -> NetworkInstance:
    """Draw one network: h_sd ~ CN(0, sd), each relay's h_si ~ CN(0, sr) and
    h_id ~ CN(0, rd), with the per-relay draws interleaved so a smaller relay
    count consumes a prefix of the same stream.  The draw, read as complex,
    is scaled in one multiply whose product the network owns, so the drawn
    array is never written.  A call keeps nothing; a _KeyDraws stream, made
    with this m, variances and sigma2, returns its key's network instead.  An
    m that is not an integer of at least 1 is a ValueError naming it."""
    if isinstance(stream, _KeyDraws):
        return stream.network
    m = _integer(m, "m")
    if m < 1:
        raise ValueError(f"m={m}: need at least one relay")
    draw = stream.standard_normal(2 + 4 * m)
    return NetworkInstance._of_gains(draw.view(complex) * _gain_scales(m, variances), sigma2)


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
        for name, convert in dict(m_values=_integer, p1_values=_real, alpha_values=_real).items():
            if name != "alpha_values" or self.alpha_values is not None:
                values = tuple(_list_of(convert)(getattr(self, name), name))
                if not values:
                    raise ValueError(f"{name} must not be empty")
                object.__setattr__(self, name, values)
        for name in ("n_instances", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("p_s", "p_i", "variance_sr", "variance_rd", "variance_sd", "sigma2"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", check_gamma(_real(self.gamma, "gamma")))
        if (self.alpha_values is None) == (self.gamma is None):
            raise ValueError("give exactly one of alpha_values or gamma")
        if not all(0.0 < a <= 1.0 for a in self.alpha_values or ()):
            # the split a solve accepts (model.resolve_alphas), named here by field
            raise ValueError("alpha_values must lie in (0, 1]")
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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if min(self.m_values) < 1:
            raise ValueError("m_values: relay counts must be >= 1")
        if max(self.m_values) > _MAX_RELAYS:
            raise ValueError(f"m_values: relay counts must be <= {_MAX_RELAYS}, "
                             "whose draw of 2 + 4m normals fills numpy's largest array")
        points = len(self.p1_values) * len(self.alpha_grid())
        if self.n_instances > _MAX_FLOAT64S // points:
            raise ValueError(f"n_instances must be <= {_MAX_FLOAT64S // points} at {points} "
                             "grid point(s), whose rows fill numpy's largest array")
        ChannelVariances(self.variance_sr, self.variance_rd, self.variance_sd)
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError("sigma2 must be finite and positive")

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
# dozen arrays of that size, so this bounds a batch's memory at large M.  A
# part's rows span all grid points of a relay count, so BATCH_ROWS binds up to
# M = 16 and this cap from M = 17 on (256 rows per part at M = 64).
BATCH_ELEMENTS = 1 << 14
# Largest batch the solvers get, in rows.  A part's stack and two batch solves
# take 0.8 ms at 1 row and 2.0 ms at 412 rows (M = 4, best of 7 x 50 calls,
# shared 2-vCPU x86 VM), so fewer parts save a fixed cost each.  Peak RSS of
# three power sweeps (3,300 rows) in one process: 36.9 MiB at 512 rows
# (7 parts), 37.6 MiB at 1,024 (4 parts, +1.9%) and 40.8 MiB as one part
# (+11%), hence a cap.
BATCH_ROWS = 1 << 10


class _KeyDraws:
    """One solve_grid_points call's cache of one (slot, attempt) key's
    network, which sample_instance returns to each of the key's rows.  It
    serves only the m, variances and sigma2 it was made with: of(slot,
    attempt) seeds, draws and builds a new key's network once."""

    def __init__(self, seed: int, m: int, variances: ChannelVariances, sigma2: float):
        self.seed, self.size, self.sigma2 = seed, 2 + 4 * m, sigma2
        self.scales, self.key, self.network = _gain_scales(m, variances), None, None

    def of(self, slot: int, attempt: int) -> "_KeyDraws":
        if (slot, attempt) != self.key:
            self.key = slot, attempt
            draw = instance_stream(self.seed, slot, attempt).standard_normal(self.size)
            self.network = NetworkInstance._of_gains(draw.view(complex) * self.scales, self.sigma2)
        return self


def solve_grid_points(spec: ExperimentSpec, m: int,
                      points: Sequence[Tuple[float, Optional[float]]]) -> List[GridPointResult]:
    """Solve all instance slots of the given (p1, alpha) grid points of one
    relay count, in every requested budget mode, sharing the instance set
    across modes; one GridPointResult per point, in order.

    Row j * n_instances + s of the batch is slot s of point j; p1 and a
    fixed alpha are per-row values (alpha is None at every point, meaning
    derived per row from gamma, or at none).  Each round solves the pending
    rows in (slot, point) order, the rows of one (slot, attempt) key sharing
    its network, as one batch per mode split in equal parts of at most
    BATCH_ELEMENTS rows x relays and BATCH_ROWS rows.  A row whose solve
    fails in any mode is redrawn (next attempt of its slot at its own grid
    point) for all modes together in the next round; the failures are
    logged in row order, the first mode's error for each, which is raised
    once a slot has failed its draw and 100 resamples.
    """
    n = spec.n_instances
    p1_rows = np.repeat([p1 for p1, _ in points], n)
    fixed = [alpha is not None for _, alpha in points]
    if any(fixed) and not all(fixed):
        raise ValueError("grid points must all fix alpha or all derive it from gamma")
    alpha_rows = np.repeat([alpha for _, alpha in points], n) if any(fixed) else None
    variances = spec.variances
    budgets = {"total": TotalBudget(spec.p_s + m * spec.p_i),
               "individual": IndividualBudget(spec.p_s, np.full(m, spec.p_i))}
    solvers = {"total": solve_total_batch, "individual": solve_individual_batch}
    values = {mode: np.empty(p1_rows.size) for mode in spec.modes}
    attempts = np.zeros(p1_rows.size, dtype=int)
    resamples = np.zeros(len(points), dtype=int)
    pending = np.arange(p1_rows.size)
    draws = _KeyDraws(spec.seed, m, variances, spec.sigma2)
    while pending.size:
        # (slot, point) order: every pending row is at the round's attempt,
        # so the rows of one key are consecutive and share one network
        pending = pending[np.argsort(pending % n, kind="stable")]
        failed = []
        per_part = min(max(1, BATCH_ELEMENTS // m), BATCH_ROWS)
        for rows in np.array_split(pending, -(-pending.size // per_part)):
            # slots and attempts as Python ints: int() of a numpy scalar costs per row
            gains = np.array([
                sample_instance(m, variances, draws.of(slot, attempt), spec.sigma2)._gains
                for slot, attempt in zip((rows % n).tolist(), attempts[rows].tolist())])
            batch = NetworkInstance(h_sd=gains[:, 0], h_sr=gains[:, 1::2], h_rd=gains[:, 2::2],
                                    sigma2=spec.sigma2)
            del gains  # the fields are copies: free the buffer before the solves
            alphas = None if alpha_rows is None else alpha_rows[rows]
            errors = [None] * len(rows)
            for mode in spec.modes:
                params = SystemParams(p1_rows[rows], spec.gamma, budgets[mode])
                solved = solvers[mode](batch, params, alpha=alphas)
                values[mode][rows] = solved.c_d  # a failed row's is rewritten on redraw
                errors = [first or err for first, err in zip(errors, solved.errors)]
            failed += [(int(row), err) for row, err in zip(rows, errors) if err is not None]
        failed.sort(key=lambda row_err: row_err[0])
        for row, err in failed:
            point, slot = divmod(row, n)
            resamples[point] += 1
            attempts[row] += 1
            p1, alpha = points[point]
            log.warning("slot %d at (m=%d, p1=%g, %s) resampled (attempt %d): %s",
                        slot, m, p1, alpha_label(spec, alpha), attempts[row], err)
            if attempts[row] > 100:
                raise type(err)(f"slot {slot} at (m={m}, p1={p1:g}, {alpha_label(spec, alpha)})"
                                f" failed 100 consecutive resamples, the last: {err}") from err
        pending = np.array([row for row, _ in failed], dtype=int)
    return [GridPointResult(c_d={mode: values[mode][j * n:(j + 1) * n] for mode in spec.modes},
                            resamples=int(resamples[j]))
            for j in range(len(points))]


def solve_grid_point(spec: ExperimentSpec, m: int, p1: float,
                     alpha: Optional[float]) -> GridPointResult:
    """Solve all instance slots at one grid point: solve_grid_points for one
    point."""
    return solve_grid_points(spec, m, [(p1, alpha)])[0]


def _tasks(spec: ExperimentSpec, chunks: int) -> List[Tuple[int, list]]:
    """(m, points) per task: each relay count's grid points in at most
    `chunks` contiguous chunks of near-equal size.  Tasks and their points
    are in the row order of the emitted CSV (m, then p1, then alpha)."""
    points = [(p1, alpha) for p1 in spec.p1_values for alpha in spec.alpha_grid()]
    size = -(-len(points) // chunks)
    return [(m, points[i:i + size]) for m in spec.m_values
            for i in range(0, len(points), size)]


def run_sweep(spec: ExperimentSpec, workers: Optional[int] = None) -> List[ExperimentRow]:
    """Execute the sweep and aggregate one row per (grid point, budget mode).

    Each task solves a contiguous chunk of one relay count's grid points
    through solve_grid_points; with one worker a chunk is all of them.
    Aggregation uses numpy's fixed-order reductions over the slot-ordered
    arrays, so the row values do not depend on the worker count.
    """
    n_workers = resolve_workers(workers)
    tasks = _tasks(spec, n_workers)
    if n_workers > 1 and len(tasks) > 1:
        # imported here: importing the package starts no pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            chunks = list(pool.map(solve_grid_points, [spec] * len(tasks), *zip(*tasks)))
    else:
        chunks = [solve_grid_points(spec, m, points) for m, points in tasks]
    total_resamples = sum(r.resamples for chunk in chunks for r in chunk)
    if total_resamples:
        log.info("sweep finished with %d resampled instances", total_resamples)
    rows: List[ExperimentRow] = []
    for (m, points), chunk in zip(tasks, chunks):
        for (p1, alpha), result in zip(points, chunk):
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
    """Spec document of every ExperimentSpec field: tuples as lists, a None
    field left out."""
    doc = {f.name: getattr(spec, f.name) for f in fields(ExperimentSpec)}
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in doc.items() if value is not None}


def spec_from_dict(doc: dict) -> ExperimentSpec:
    """ExperimentSpec of a spec document; an unknown or missing field is a
    ValueError naming it."""
    if not isinstance(doc, dict):
        raise ValueError("a sweep spec must be a JSON object")
    known = {f.name: f.default is MISSING for f in fields(ExperimentSpec)}
    _reject_unknown(doc, known)
    missing = [name for name, required in known.items() if required and name not in doc]
    if missing:
        raise ValueError(f"spec lacks required field(s): {', '.join(missing)}")
    return ExperimentSpec(**doc)

"""Beamforming under separate source and per-relay power caps.

The solve decomposes cleanly:

1. Phases: each weight's phase is chosen to cancel its channel phase, making
   every term of the beam gain real nonnegative (phases do not enter the
   objective denominator, and the source's cancellation-term power depends on
   the same aligned sum).
2. Magnitudes: with u_i = |w_i h_id| and u1 = |w_0|, the source power
   constraint is an ellipse in (u1, c2.u) and the SINR reduces to a
   one-dimensional problem in r = ||u_active||.  Unconstrained in the relay
   bounds, r* has a closed form; with bounds, a greedy active-set loop clamps
   the worst violator at its cap and re-solves the 1-D problem, now with
   offset terms t1 (clamped amplitude mass, weighted by c) and t2
   (1 + clamped squared amplitudes), via a quartic stationarity polynomial.

The quartic here is the exact stationarity condition of the reduced
objective obtained by squaring the derivative once; squaring can introduce
spurious roots, so the root is always selected by direct objective
comparison rather than sign reasoning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateAlpha, InfeasibleBudget, NoFeasibleRoot
from .model import capacity_dest, derive_model, resolve_alpha, second_phase_power
from .tolerances import Tolerances, from_env
from .types import (
    BeamSolution,
    DerivedModel,
    IndividualBudget,
    IndividualSolveDiagnostics,
    NetworkInstance,
    SystemParams,
    _frozen_array,
    _set,
)


def optimal_phases(instance: NetworkInstance) -> np.ndarray:
    """Weight phases aligning every beam-gain term to the positive real axis:
    arg(w_0) = -arg(h_sd), arg(w_i) = -(arg(h_si) + arg(h_id))."""
    return np.concatenate((
        [-np.angle(instance.h_sd)],
        -(np.angle(instance.h_sr) + np.angle(instance.h_rd)),
    ))


@dataclass(frozen=True, eq=False)
class MagnitudeProblem:
    """State of the reduced magnitude optimization over the active relays.

    c: channel magnitudes [|h_sd|, |h_s1|, ...]; u_max: per-relay amplitude
    caps; t1/t2: contributions accumulated from clamped relays (t1 in
    amplitude units, t2 = 1 + sum of squared clamped amplitudes); active:
    relay indices still free; tau: ||c over active relays||.
    """

    c: np.ndarray
    u_max: np.ndarray
    eta1: float
    eta2: float
    eta3: float
    t1: float = 0.0
    t2: float = 1.0
    active: Tuple[int, ...] = ()
    tau: float = 0.0

    def __post_init__(self):
        _set(self, "c", _frozen_array(self.c, float))
        _set(self, "u_max", _frozen_array(self.u_max, float))
        _set(self, "active", tuple(int(i) for i in self.active))
        if self.t1 < 0 or self.t2 < 1.0 - 1e-15:
            raise ValueError("t1 must be >= 0 and t2 >= 1")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")

    @property
    def c1(self) -> float:
        return float(self.c[0])

    def radicand(self, r: float) -> float:
        """eta1 - eta2 (t1 + tau r)^2 = u1^2 at total relay contribution r."""
        y = self.t1 + self.tau * r
        return self.eta1 - self.eta2 * y * y

    def objective(self, r: float) -> float:
        """Scaled destination SINR (c1 u1 + c2.u)^2 / (t2 + r^2) at radius r,
        with u1 on the source-power surface; -inf when r is infeasible."""
        rad = self.radicand(r)
        if rad < 0:
            return -math.inf
        y = self.t1 + self.tau * r
        return (y + self.c1 * math.sqrt(rad)) ** 2 / (self.t2 + r * r)


def initial_problem(derived: DerivedModel) -> MagnitudeProblem:
    """Magnitude problem before any clamping: all relays active, no offsets."""
    if derived.u_max is None:
        raise ValueError("derived model lacks individual-budget quantities")
    active = tuple(range(derived.m))
    return MagnitudeProblem(
        c=derived.c,
        u_max=derived.u_max,
        eta1=derived.eta1,
        eta2=derived.eta2,
        eta3=derived.eta3,
        active=active,
        tau=float(np.linalg.norm(derived.c[1:])),
    )


def after_clamp(problem: MagnitudeProblem, i: int) -> MagnitudeProblem:
    """Fix relay i at its amplitude cap and fold it into the offsets."""
    if i not in problem.active:
        raise ValueError(f"relay {i} is not active")
    active = tuple(j for j in problem.active if j != i)
    return MagnitudeProblem(
        c=problem.c,
        u_max=problem.u_max,
        eta1=problem.eta1,
        eta2=problem.eta2,
        eta3=problem.eta3,
        t1=problem.t1 + problem.c[i + 1] * problem.u_max[i],
        t2=problem.t2 + problem.u_max[i] ** 2,
        active=active,
        tau=float(np.linalg.norm(problem.c[1:][list(active)])) if active else 0.0,
    )


def solve_source_only(problem: MagnitudeProblem) -> Tuple[float, np.ndarray, float]:
    """Closed-form optimum when only the source power constraint binds.

    r* = sqrt(tau^2 eta1 / (eta2 tau^4 + (eta1 + tau^2 eta2)^2 c1^2)), relay
    amplitudes along the c-direction (Cauchy-Schwarz), and
    u1 = sqrt(eta1 - eta2 tau^2 r*^2) from power equality.  Valid only for the
    unclamped problem (t1 = 0, t2 = 1).
    """
    if problem.eta1 <= 0:
        raise InfeasibleBudget(f"eta1={problem.eta1!r} <= 0: no source power available")
    if problem.t1 != 0.0 or problem.t2 != 1.0:
        raise ValueError("solve_source_only expects the unclamped problem")
    tau, c1 = problem.tau, problem.c1
    if tau <= 0.0:
        return math.sqrt(problem.eta1), np.zeros(len(problem.u_max)), 0.0
    try:  # overflows as alpha -> 0, as a Python float or a numpy scalar
        with np.errstate(over="raise"):
            r = math.sqrt(tau ** 2 * problem.eta1
                          / (problem.eta2 * tau ** 4
                             + (problem.eta1 + tau ** 2 * problem.eta2) ** 2 * c1 ** 2))
    except (OverflowError, FloatingPointError) as err:
        raise DegenerateAlpha(f"alpha too small: eta1={problem.eta1!r} overflows r*") from err
    u = np.zeros(len(problem.u_max))
    for i in problem.active:
        u[i] = problem.c[i + 1] / tau * r
    u1 = math.sqrt(max(problem.radicand(r), 0.0))
    return u1, u, r


@dataclass(frozen=True)
class QuarticCoeffs:
    """Stationarity polynomial q0 r^4 + q1 r^3 + q2 r^2 + q3 r + q4 = 0 of the
    clamped 1-D problem (q0 the leading coefficient)."""

    q0: float
    q1: float
    q2: float
    q3: float
    q4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2, self.q3, self.q4])


def quartic_coeffs(problem: MagnitudeProblem) -> QuarticCoeffs:
    """Coefficients of the stationarity quartic for the clamped 1-D problem.

    Derivation sketch: with y = t1 + tau r the objective is
    psi(r) = (y + c1 sqrt(eta1 - eta2 y^2))^2 / (t2 + r^2).  Setting psi' = 0,
    isolating the square root and squaring once yields
    (eta1 - eta2 y^2) Q^2 = c1^2 (eta2 y Q + eta1 r)^2 with Q = tau t2 - t1 r,
    which expands to the quartic below.  At t1 = 0, t2 = 1 the odd and leading
    coefficients vanish and -q4/q2 is the square of the closed-form r* of
    solve_source_only.
    """
    e1, e2, e3 = problem.eta1, problem.eta2, problem.eta3
    t1, t2, tau, c1 = problem.t1, problem.t2, problem.tau, problem.c1
    x = tau * tau * t2 - t1 * t1
    q0 = e2 * e3 * tau * tau * t1 * t1
    q1 = -2.0 * e2 * t1 * tau * (e3 * x + c1 * c1 * e1)
    q2 = (-e1 * t1 * t1
          + e2 * e3 * (x * x - 2.0 * t1 * t1 * t2 * tau * tau)
          + c1 * c1 * e1 * (e1 + 2.0 * e2 * x))
    q3 = 2.0 * tau * t2 * t1 * e3 * (e1 - e2 * t1 * t1 + e2 * tau * tau * t2)
    q4 = -t2 * t2 * tau * tau * (e1 - e2 * e3 * t1 * t1)
    return QuarticCoeffs(q0, q1, q2, q3, q4)


@dataclass(frozen=True)
class RootCandidate:
    """One admissible point of the 1-D problem with its objective value."""

    r: float
    value: float
    kind: str  # "root" | "zero" | "radicand-boundary"


def select_root(coeffs: QuarticCoeffs, problem: MagnitudeProblem,
                tol: Optional[Tolerances] = None,
                ) -> Tuple[RootCandidate, Tuple[RootCandidate, ...]]:
    """Pick the best admissible candidate of the clamped 1-D problem.

    Candidates: real positive polynomial roots with nonnegative radicand, the
    r = 0 boundary, and the radicand-zero boundary where u1 hits 0.  The
    winner is whichever maximizes the objective directly — squaring in the
    derivation can introduce roots that are stationary points of the squared
    equation only, and those lose the comparison automatically.
    """
    tol = tol or from_env()
    candidates = []

    def consider(r: float, kind: str):
        rad = problem.radicand(r)
        guard = tol.radicand_guard * max(problem.eta1, 1.0)
        if rad < -guard:
            return
        if rad >= 0:
            value = problem.objective(r)
        else:
            # inside the guard band: score as the u1 = 0 boundary point
            y = problem.t1 + problem.tau * r
            value = y * y / (problem.t2 + r * r)
        if math.isfinite(value):
            candidates.append(RootCandidate(float(r), float(value), kind))

    consider(0.0, "zero")
    if problem.eta2 > 0 and problem.tau > 0:
        r_ub = (math.sqrt(problem.eta1 / problem.eta2) - problem.t1) / problem.tau
        if r_ub > 0:
            consider(r_ub, "radicand-boundary")
    arr = coeffs.as_array()
    scale = float(np.max(np.abs(arr)))
    if scale > 0:
        # strip numerically-zero leading coefficients before the companion solve
        keep = np.abs(arr) > 1e-14 * scale
        first = int(np.argmax(keep))
        reduced = arr[first:]
        if len(reduced) > 1:
            for z in np.roots(reduced):
                if abs(z.imag) <= tol.real_root * max(1.0, abs(z.real)) and z.real > 0:
                    consider(float(z.real), "root")
    if not candidates:
        raise NoFeasibleRoot(
            "no admissible r: even r=0 violates the source-power radicand "
            f"(eta1 - eta2 t1^2 = {problem.radicand(0.0)!r})")
    best = max(candidates, key=lambda cand: (cand.value, -cand.r))
    return best, tuple(candidates)


def _resolve_active(problem: MagnitudeProblem, first_pass: bool,
                    tol: Tolerances) -> Tuple[float, np.ndarray, Tuple[RootCandidate, ...]]:
    """One inner solve: closed form on the first pass, quartic afterwards.
    Returns (r, u over all relays, candidates examined)."""
    u = np.zeros(len(problem.u_max))
    if not problem.active or problem.tau <= 0.0:
        return 0.0, u, ()
    if first_pass:
        _, u, r = solve_source_only(problem)
        return r, u, ()
    best, candidates = select_root(quartic_coeffs(problem), problem, tol)
    r = best.r
    for i in problem.active:
        u[i] = problem.c[i + 1] / problem.tau * r
    return r, u, candidates


def solve_individual(instance: NetworkInstance, params: SystemParams,
                     alpha: Optional[float] = None,
                     tol: Optional[Tolerances] = None) -> BeamSolution:
    """Optimal weights under separate source and per-relay power caps.

    Greedy active-set loop: solve ignoring relay caps; while some active
    relay exceeds its cap, clamp the proportionally worst violator (ties to
    the lowest index) at the cap exactly, fold it into (t1, t2) and re-solve
    the 1-D problem over the remaining relays via the stationarity quartic.
    Terminates in at most M clamps.  The source amplitude then follows from
    power equality, phases are applied, and relay weights are recovered as
    w_i = u_i/|h_id| * exp(j phi_i).
    """
    budget = params.budget
    if not isinstance(budget, IndividualBudget):
        raise TypeError("solve_individual requires an IndividualBudget")
    tol = tol or from_env()
    a = resolve_alpha(instance, params.p1, params.gamma, alpha)
    derived = derive_model(instance, params.p1, a, budget)
    problem = initial_problem(derived)

    m = instance.m
    u = np.zeros(m)
    clamped: list[int] = []
    candidates: Tuple[RootCandidate, ...] = ()
    r = 0.0
    iterations = 0
    while True:
        iterations += 1
        try:
            r, u_active, candidates = _resolve_active(
                problem, first_pass=(iterations == 1), tol=tol)
        except NoFeasibleRoot as err:
            raise InfeasibleBudget(
                "clamped relay amplitudes exceed what the source can cancel: "
                + str(err)) from err
        for i in problem.active:
            u[i] = u_active[i]
        worst_idx, worst_ratio = -1, 1.0 + tol.bound_slack
        for i in problem.active:
            cap = problem.u_max[i]
            ratio = math.inf if cap <= 0.0 else u[i] / cap
            if ratio > worst_ratio:
                worst_idx, worst_ratio = i, ratio
        if worst_idx < 0:
            break
        u[worst_idx] = problem.u_max[worst_idx]
        clamped.append(worst_idx)
        problem = after_clamp(problem, worst_idx)

    total = problem.t1 + problem.tau * r
    rad = problem.eta1 - problem.eta2 * total * total
    if rad < -tol.radicand_guard * max(problem.eta1, 1.0):
        raise InfeasibleBudget(
            f"source power cannot cancel the forwarded noise (radicand {rad!r})")
    u1 = math.sqrt(max(rad, 0.0))

    phases = optimal_phases(instance)
    w = np.zeros(m + 1, dtype=complex)
    w[0] = u1 * np.exp(1j * phases[0])
    gains_rd = np.abs(instance.h_rd)
    for i in range(m):
        if gains_rd[i] > 0 and u[i] > 0:
            w[i + 1] = u[i] / gains_rd[i] * np.exp(1j * phases[i + 1])
    return BeamSolution(
        w=w,
        alpha=a,
        c_d=capacity_dest(instance, params.p1, a, w),
        second_phase_power=second_phase_power(instance, params.p1, a, w),
        diagnostics=IndividualSolveDiagnostics(
            clamped=tuple(sorted(clamped)),
            iterations=iterations,
            chosen_r=float(r),
            root_candidates=candidates,
        ),
    )

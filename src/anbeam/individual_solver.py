"""Beamforming under separate source and per-relay power caps.

The solve decomposes cleanly:

1. Phases: each weight's phase is chosen to cancel its channel phase, making
   every term of the beam gain real nonnegative (phases do not enter the
   objective denominator, and the source's cancellation-term power depends on
   the same aligned sum).
2. Magnitudes: with u_i = |w_i h_id| and u1 = |w_0|, the source power
   constraint is an ellipse in (u1, c2.u) and the SINR reduces to a
   one-dimensional problem in r = ||u_active||.  Unconstrained in the relay
   bounds, r* has a closed form; with bounds, the greedy active-set answer
   clamps the worst violators at their caps and re-solves the 1-D problem,
   now with offset terms t1 (clamped amplitude mass, weighted by c) and t2
   (1 + clamped squared amplitudes), via a quartic stationarity polynomial.

The quartic here is the exact stationarity condition of the reduced
objective obtained by squaring the derivative once; squaring can introduce
spurious roots, so the root is always selected by direct objective
comparison rather than sign reasoning.

The greedy never needs to be run: it clamps in the fixed order of the
closed form's ratios u_i/u_max,i, so one sort, prefix sums of the offsets and
a sign test of the reduced objective's slope at each breakpoint give the
number of clamps directly (_clamp_scan).  solve_individual_batch then solves
one quartic per row, the rows of each degree in one eigvals call on their
stacked companion matrices.  solve_individual is the N = 1 call, and
MagnitudeProblem, solve_source_only, quartic_coeffs and select_root are
one-row views of the same array expressions.

_magnitude_problem is the one place the problem's constants are formed,
for one network or a stack, and it forms them in the problem's own units:
c = [|h_sd|, |h_s1|, ...] 2^-e, e the binary exponent of |h_sd|, with eta2
taken on that c.  Next to channel units, r, u, eta1, eta3 and t2 are the
same and y, t1, tau and the quartic differ by powers of two, so nothing
rounds differently, and a gain-scaled copy of a network (h -> k h,
sigma2 -> k^2 sigma2) gets the same problem.  A solve reports t1 and tau
in these units.

The batch keeps each row's clamped set, offsets and chosen r, not the
candidates its quartic solve compared: select_root on the row's final
MagnitudeProblem gives those on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InfeasibleBudget, NonFiniteSolution
from .model import (_check_rows, _dot, _per_relay, relay_input_powers, resolve_alphas,
                    solved_values)
from .types import (
    BeamSolution,
    Budget,
    IndividualBudget,
    IndividualDiagnostics,
    NetworkInstance,
    SystemParams,
    _frozen_array,
    _set,
)

# Relative slack accepted on the per-relay amplitude caps before a relay counts
# as violating its cap.
BOUND_SLACK = 1e-10
# A polynomial root counts as real when |Im| <= REAL_ROOT * max(1, |Re|).
REAL_ROOT = 1e-9
# A source-power radicand in [-RADICAND_GUARD * max(eta1, 1), 0) is rounding:
# it is scored as u1 = 0 rather than rejected.
RADICAND_GUARD = 1e-12


def optimal_phases(instance: NetworkInstance) -> np.ndarray:
    """Weight phases aligning every beam-gain term to the positive real axis:
    arg(w_0) = -arg(h_sd), arg(w_i) = -(arg(h_si) + arg(h_id)).  Works over
    a trailing relay axis, so a batch gets one row of phases per instance."""
    return np.concatenate((
        -_per_relay(np.angle(instance.h_sd)),
        -(np.angle(instance.h_sr) + np.angle(instance.h_rd)),
    ), axis=-1)


# ---------------------------------------------------------------------------
# Array expressions of the magnitude problem; each takes floats or arrays.


def _magnitude_problem(instance: NetworkInstance, p1, alpha, budget: Budget):
    """(c, u_max, eta1, eta2, eta3) of the magnitude problem of one network,
    or of every row of a stack with p1 and alpha each a scalar or one value
    per row: the one place they are formed.

    * c = [|h_sd|, |h_s1|, ..., |h_sM|] 2^-e, e the binary exponent of |h_sd|
      (np.frexp), so c1 = c[..., 0] is in [0.5, 1) (module docstring).
    * u_max,i = |h_id| sqrt(P_i) / sqrt(|h_si|^2 p1 + sigma2) — the cap on
      the effective amplitude u_i = |w_i h_id| implied by relay i's power
      cap.  (The |h_id| factor is required by that change of variables; the
      roots are taken apart, as P_i / T_i loses digits when it is subnormal.)
    * eta1 = P_s/(alpha p1), eta2 = (1-alpha)/(alpha c1^2), eta3 = 1+eta2 c1^2.
    """
    if not isinstance(budget, IndividualBudget):
        raise TypeError("solve_individual requires an IndividualBudget")
    _check_rows(instance, p1, "p1")
    _check_rows(instance, alpha, "alpha")
    if not np.all((0.0 < alpha) & (alpha <= 1.0)):
        raise ValueError(f"alpha={alpha!r} outside (0, 1]: the individual-budget "
                         "constants divide by alpha")
    if len(budget.p_i) != instance.m:
        raise ValueError("budget.p_i length must equal the relay count")
    gain_sd = np.abs(instance.h_sd)
    e = np.frexp(gain_sd)[1]
    c = np.ldexp(np.concatenate((_per_relay(gain_sd), np.abs(instance.h_sr)), axis=-1),
                 -_per_relay(e))
    c1 = c[..., 0]
    eta2 = (1.0 - alpha) / (alpha * c1 ** 2)
    u_max = (np.abs(instance.h_rd) * np.sqrt(budget.p_i)
             / np.sqrt(relay_input_powers(instance, p1)))
    return c, u_max, budget.p_s / (alpha * p1), eta2, 1.0 + eta2 * c1 ** 2


def _radicand(eta1, eta2, t1, tau, r):
    """(y, u1^2) at total relay contribution r: y = t1 + tau r and
    u1^2 = eta1 - eta2 y^2."""
    y = t1 + tau * r
    return y, eta1 - eta2 * y * y


def _surface_value(y, rad, c1, t2, r):
    """Scaled destination SINR (y + c1 u1)^2 / (t2 + r^2) with u1 = sqrt(rad)
    on the source-power surface."""
    return (y + c1 * np.sqrt(rad)) ** 2 / (t2 + r * r)


def _active_norm(c2: np.ndarray, active: Optional[np.ndarray] = None):
    """tau = ||c2 over the active relays||, over a trailing relay axis."""
    if active is not None:
        c2 = np.where(active, c2, 0.0)
    return np.sqrt(_dot(c2, c2))


def _source_only(tau, eta1, eta2, c1, c2):
    """(r*, u, finite) of the unclamped problem with tau > 0:
    r* = sqrt(tau^2 eta1 / (eta2 tau^4 + (eta1 + tau^2 eta2)^2 c1^2)), and
    the relay amplitudes u = c2 r* / tau along c2 (Cauchy-Schwarz), over a
    trailing relay axis.  Every term can overflow (huge gains or budgets, or
    alpha -> 0), and an infinite denominator gives r* = 0, so `finite`
    covers the intermediates."""
    tau, c1 = np.asarray(tau, dtype=float), np.asarray(c1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        num = tau ** 2 * eta1
        den = eta2 * tau ** 4 + (eta1 + tau ** 2 * eta2) ** 2 * c1 ** 2
        r = np.sqrt(num / den)
        u = c2 / _per_relay(tau) * _per_relay(r)
    return r, u, np.isfinite(num) & np.isfinite(den) & np.isfinite(r)


def _quartic(e1, e2, e3, t1, t2, tau, c1):
    """Coefficients (q0, ..., q4), highest power first, of the stationarity
    quartic of the clamped 1-D problem (see quartic_coeffs)."""
    x = tau * tau * t2 - t1 * t1
    q0 = e2 * e3 * tau * tau * t1 * t1
    q1 = -2.0 * e2 * t1 * tau * (e3 * x + c1 * c1 * e1)
    q2 = (-e1 * t1 * t1
          + e2 * e3 * (x * x - 2.0 * t1 * t1 * t2 * tau * tau)
          + c1 * c1 * e1 * (e1 + 2.0 * e2 * x))
    q3 = 2.0 * tau * t2 * t1 * e3 * (e1 - e2 * t1 * t1 + e2 * tau * tau * t2)
    q4 = -t2 * t2 * tau * tau * (e1 - e2 * e3 * t1 * t1)
    return q0, q1, q2, q3, q4


def _quartic_roots(q: np.ndarray) -> np.ndarray:
    """Roots of each row of q (K, 5), padded with NaN to (K, 4).

    Leading coefficients below 1e-14 of a row's largest are stripped; the
    rows of each remaining degree share one eigvals call on their stacked
    companion matrices (those np.roots builds).  A zero constant term gives
    an exact root 0 (a zero column), which the r > 0 filter drops.  Rows
    with a non-finite coefficient get no roots.
    """
    roots = np.full((len(q), 4), np.nan, dtype=complex)
    mag = np.abs(q)
    scale = np.max(mag, axis=1)
    usable = np.isfinite(scale) & (scale > 0.0)
    first = np.argmax(mag > 1e-14 * scale[:, None], axis=1)
    for degree in range(1, 5):
        rows = np.flatnonzero(usable & (first == 4 - degree))
        if rows.size:
            lead = q[rows, 4 - degree:]
            companion = np.zeros((len(rows), degree, degree))
            companion[:, 0, :] = -lead[:, 1:] / lead[:, :1]
            companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
            roots[rows, :degree] = np.linalg.eigvals(companion)
    return roots


@dataclass(frozen=True)
class RootCandidate:
    """One admissible point of the clamped 1-D magnitude problem with its
    objective value."""

    r: float
    value: float
    kind: str  # "root" | "zero" | "radicand-boundary"


# Kind of each candidate column of _candidates: r = 0, the radicand-zero
# boundary, then up to four roots of the stationarity quartic.
CANDIDATE_KINDS = ("zero", "radicand-boundary", "root", "root", "root", "root")


def _candidates(q, eta1, eta2, t1, t2, tau, c1):
    """Candidates of K clamped 1-D problems at once, as (r, value, valid),
    each (K, 6) with the columns of CANDIDATE_KINDS: r = 0, the radicand-zero
    boundary where u1 hits 0, and the real positive quartic roots.

    A present candidate is valid when its radicand is not below
    -RADICAND_GUARD * max(eta1, 1) and its value is finite; a radicand inside
    that guard band is scored as the u1 = 0 boundary point.
    """
    shape = (len(q), len(CANDIDATE_KINDS))
    r = np.zeros(shape)
    present = np.zeros(shape, dtype=bool)
    present[:, 0] = True
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r_ub = (np.sqrt(eta1 / eta2) - t1) / tau
        present[:, 1] = (eta2 > 0.0) & (tau > 0.0) & (r_ub > 0.0)
        r[:, 1] = np.where(present[:, 1], r_ub, 0.0)
        roots = _quartic_roots(q)
        present[:, 2:] = ((roots.real > 0.0)
                          & (np.abs(roots.imag)
                             <= REAL_ROOT * np.maximum(1.0, np.abs(roots.real))))
        r[:, 2:] = np.where(present[:, 2:], roots.real, 0.0)
        col = (slice(None), None)
        y, rad = _radicand(eta1[col], eta2[col], t1[col], tau[col], r)
        value = np.where(rad >= 0.0, _surface_value(y, rad, c1[col], t2[col], r),
                         y * y / (t2[col] + r * r))
    guard = RADICAND_GUARD * np.maximum(eta1, 1.0)
    valid = present & ~(rad < -guard[col]) & np.isfinite(value)
    return r, value, valid


def _best(r: np.ndarray, value: np.ndarray, valid: np.ndarray):
    """(column of each row's best valid candidate by (value, -r), first
    column on ties; whether the row has a valid candidate at all)."""
    top = np.max(np.where(valid, value, -np.inf), axis=1)
    tied = valid & (value == top[:, None])
    return np.argmin(np.where(tied, r, np.inf), axis=1), valid.any(axis=1)


def _infeasible_budget(rad) -> InfeasibleBudget:
    """Error of a magnitude problem with no admissible r, naming its radicand."""
    return InfeasibleBudget("the source power cannot cancel the noise the relays "
                            f"forward (source-power radicand {float(rad)!r})")


def _r_star_overflow(eta1) -> NonFiniteSolution:
    return NonFiniteSolution(f"the closed-form r* overflows a float (eta1={float(eta1)!r})")


# ---------------------------------------------------------------------------
# One-row views


@dataclass(frozen=True, eq=False)
class MagnitudeProblem:
    """State of the reduced magnitude optimization over the active relays.

    c: magnitudes [|h_sd|, |h_s1|, ...] (initial_problem scales them by
    2^-e); u_max: per-relay amplitude caps; t1/t2: contributions accumulated
    from clamped relays (t1 in the units of c times amplitude, t2 = 1 + sum
    of squared clamped amplitudes); active: relay indices still free; tau:
    ||c over active relays||.
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
        return _radicand(self.eta1, self.eta2, self.t1, self.tau, r)[1]

    def objective(self, r: float) -> float:
        """Scaled destination SINR (c1 u1 + c2.u)^2 / (t2 + r^2) at radius r,
        with u1 on the source-power surface; -inf when r is infeasible."""
        y, rad = _radicand(self.eta1, self.eta2, self.t1, self.tau, r)
        if rad < 0:
            return -math.inf
        return float(_surface_value(y, rad, self.c1, self.t2, r))


def initial_problem(instance: NetworkInstance, p1: float, alpha: float,
                    budget: Budget) -> MagnitudeProblem:
    """Magnitude problem of one network before any clamping: all relays
    active, no offsets, in the problem's own units (_magnitude_problem)."""
    c, u_max, eta1, eta2, eta3 = _magnitude_problem(instance, p1, alpha, budget)
    return MagnitudeProblem(c=c, u_max=u_max, eta1=float(eta1), eta2=float(eta2),
                            eta3=float(eta3), active=tuple(range(instance.m)),
                            tau=float(_active_norm(c[1:])))


def solve_source_only(problem: MagnitudeProblem) -> Tuple[float, np.ndarray, float]:
    """Closed-form optimum when only the source power constraint binds.

    r* and the relay amplitudes along the active c as _source_only gives
    them, and u1 = sqrt(eta1 - eta2 tau^2 r*^2) from power equality.  Valid
    only for the unclamped problem (t1 = 0, t2 = 1).
    """
    if problem.eta1 <= 0:
        raise InfeasibleBudget(f"eta1={problem.eta1!r} <= 0: no source power available")
    if problem.t1 != 0.0 or problem.t2 != 1.0:
        raise ValueError("solve_source_only expects the unclamped problem")
    if problem.tau <= 0.0:
        return math.sqrt(problem.eta1), np.zeros(len(problem.u_max)), 0.0
    active = list(problem.active)
    c2 = np.zeros(len(problem.u_max))
    c2[active] = problem.c[1:][active]
    r, u, finite = _source_only(problem.tau, problem.eta1, problem.eta2, problem.c1, c2)
    if not finite:
        raise _r_star_overflow(problem.eta1)
    r = float(r)
    return math.sqrt(max(problem.radicand(r), 0.0)), u, r


def quartic_coeffs(problem: MagnitudeProblem) -> np.ndarray:
    """Coefficients (q0, ..., q4), highest power first, of the stationarity
    quartic q0 r^4 + q1 r^3 + q2 r^2 + q3 r + q4 = 0 of the clamped 1-D
    problem, as a (5,) float array.

    Derivation sketch: with y = t1 + tau r the objective is
    psi(r) = (y + c1 sqrt(eta1 - eta2 y^2))^2 / (t2 + r^2).  Setting psi' = 0,
    isolating the square root and squaring once yields
    (eta1 - eta2 y^2) Q^2 = c1^2 (eta2 y Q + eta1 r)^2 with Q = tau t2 - t1 r,
    which expands to the quartic below.  At t1 = 0, t2 = 1 the odd and leading
    coefficients vanish and -q4/q2 is the square of the closed-form r* of
    solve_source_only.
    """
    return np.array(_quartic(problem.eta1, problem.eta2, problem.eta3, problem.t1,
                             problem.t2, problem.tau, problem.c1), dtype=float)


def select_root(coeffs: np.ndarray, problem: MagnitudeProblem,
                ) -> Tuple[RootCandidate, Tuple[RootCandidate, ...]]:
    """Pick the best admissible candidate of the clamped 1-D problem.

    Candidates: real positive polynomial roots with nonnegative radicand, the
    r = 0 boundary, and the radicand-zero boundary where u1 hits 0.  The
    winner is whichever maximizes the objective directly — squaring in the
    derivation can introduce roots that are stationary points of the squared
    equation only, and those lose the comparison automatically.
    """
    row = [np.array([x], dtype=float) for x in (
        problem.eta1, problem.eta2, problem.t1, problem.t2, problem.tau, problem.c1)]
    r, value, valid = _candidates(coeffs[None, :], *row)
    best, ok = _best(r, value, valid)
    if not ok[0]:
        raise _infeasible_budget(problem.radicand(0.0))
    found = [RootCandidate(float(x), float(v), kind)
             for x, v, kind in zip(r[0], value[0], CANDIDATE_KINDS)]
    return found[best[0]], tuple(c for c, keep in zip(found, valid[0]) if keep)


# ---------------------------------------------------------------------------
# The solvers


def _clamp_scan(ratio0, cap, c1, c2, eta1, eta2):
    """Where the greedy clamp sequence of each row stops, found in one pass.

    On the active relays u_i = c_i r / tau, so every active ratio u_i/cap_i
    scales by the same factor after each re-solve, and the greedy clamps the
    relays in one fixed order: descending ratio0 = u/cap at the closed form,
    first index on ties (ratio0 is inf where the cap is 0).  With the first K
    of that order clamped, the offsets are prefix sums (np.cumsum adds in the
    greedy's order, so they are its t1 and t2 bit for bit) and tau_K is a
    suffix sum.  The K-clamped objective psi_K(r) = N(r)^2 / (t2 + r^2),
    N = y + c1 sqrt(eta1 - eta2 y^2) and y = t1 + tau r, is quasi-concave on
    its feasible interval (N concave and >= 0 over a convex positive
    sqrt(t2 + r^2)), so its optimum passes the breakpoint x of relay
    order[K] exactly when psi_K'(x) > 0:

        tau (1 - c1 eta2 y / s) (t2 + x^2) - (y + c1 s) x > 0,  s = sqrt(rad).

    A relay with a zero cap is always clamped.  Every row must violate at
    K = 0 (the greedy's ratio test on the closed form, which the caller
    applies).  A row stops at the first K that does not violate, which is
    also where a greedy re-solve without admissible candidates stops: that
    needs rad < 0 at r = 0, hence at x.  A quartic that overflows at an
    earlier K is not tested for: with only zero caps clamped (t1 = 0, t2 = 1)
    its q2 is the closed form's finite denominator, and an alpha small enough
    to overflow it otherwise shrinks r* like sqrt(alpha), far below the
    breakpoints of positive caps.  Returns
    (clamped, t1, t2): the (N, M) mask of its first K relays in clamp order,
    and the offsets after those K clamps (N,).
    """
    n, m = cap.shape
    order = np.argsort(-ratio0, axis=1, kind="stable")
    cap = np.take_along_axis(cap, order, axis=1)
    c2 = np.take_along_axis(c2, order, axis=1)
    t1 = np.zeros((n, m + 1))
    np.multiply(c2, cap, out=t1[:, 1:])
    np.cumsum(t1, axis=1, out=t1)
    t2 = np.ones((n, m + 1))
    np.multiply(cap, cap, out=t2[:, 1:])
    np.cumsum(t2, axis=1, out=t2)
    tau = np.cumsum((c2 * c2)[:, ::-1], axis=1)[:, ::-1]
    np.sqrt(tau, out=tau)

    # relay order[K]'s breakpoint x in r, and the sign of psi_K'(x)
    col = (slice(None), None)
    x = (1.0 + BOUND_SLACK) * (cap / c2) * tau
    y, rad = _radicand(eta1[col], eta2[col], t1[:, :m], tau, x)
    s = np.sqrt(rad)
    slope = (tau * (1.0 - c1[col] * eta2[col] * y / s) * (t2[:, :m] + x * x)
             - (y + c1[col] * s) * x)
    violates = (rad > 0.0) & (tau > 0.0) & np.isfinite(x) & (slope > 0.0)
    violates |= cap == 0.0
    violates[:, 0] = True  # the caller's ratio test on the closed form
    k = np.where(violates.all(axis=1), m, np.argmin(violates, axis=1))
    clamped = np.zeros((n, m), dtype=bool)
    np.put_along_axis(clamped, order, np.arange(m) < k[:, None], axis=1)
    return clamped, t1[np.arange(n), k], t2[np.arange(n), k]


# Failed rows carry alpha = 1 and their arithmetic runs on quietly: it is
# never read, and every non-finite value a healthy row can reach is tested for
# explicitly.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve_individual_batch(batch: NetworkInstance, params: SystemParams,
                           alpha=None) -> BeamSolution:
    """Optimal weights under separate source and per-relay power caps for
    every row of a batch; alpha as in solve_total_batch.

    The closed form solves the problem without relay caps.  Where a cap is
    exceeded, the greedy active-set answer follows: the proportionally worst
    violators are clamped at their caps exactly (ties to the lowest index),
    folded into (t1, t2), and the 1-D problem over the remaining relays is
    re-solved by the stationarity quartic.  The clamp count comes from one
    breakpoint scan per row (_clamp_scan), so each row solves one quartic,
    and all of them share one eigvals call.  The source amplitude then
    follows from power equality, phases are applied, and relay weights are
    recovered as w_i = u_i/|h_id| * exp(j phi_i).

    Rows fail independently: InfeasibleThreshold (gamma out of reach),
    InfeasibleBudget (the source cannot cancel the noise the clamped relays
    forward) or NonFiniteSolution (r*, the quartic, w, C_d or the
    second-phase power leaves the float range).
    """
    p1 = params.p1
    a, errors = resolve_alphas(batch, p1, params.gamma, alpha)
    c, u_max, eta1, eta2, eta3 = _magnitude_problem(batch, p1, a, params.budget)
    c1, c2 = c[:, 0], c[:, 1:]
    n, m = batch.n, batch.m
    clamped = np.zeros((n, m), dtype=bool)
    t1, t2 = np.zeros(n), np.ones(n)
    tau = _active_norm(c2)
    r = np.zeros(n)
    u = np.zeros((n, m))

    rows = np.flatnonzero(~errors.failed & (tau > 0.0))
    r[rows], u[rows], finite = _source_only(tau[rows], eta1[rows], eta2[rows], c1[rows],
                                            c2[rows])
    errors.fail(rows[~finite], lambda i: _r_star_overflow(eta1[i]))

    live = np.flatnonzero(~errors.failed)
    ratio0 = np.where(u_max[live] > 0.0, u[live] / u_max[live], np.inf)
    over = np.max(ratio0, axis=1, initial=-np.inf) > 1.0 + BOUND_SLACK
    live = live[over]
    if live.size:  # no row violates a cap at M = 0
        clamped[live], t1[live], t2[live] = _clamp_scan(
            ratio0[over], u_max[live], c1[live], c2[live], eta1[live], eta2[live])

    tau[live] = _active_norm(c2[live], ~clamped[live])
    r[live] = 0.0  # also the answer where nothing is left to re-solve
    u[live] = np.where(clamped[live], u_max[live], 0.0)
    rows = live[tau[live] > 0.0]
    if rows.size:
        q = np.stack(_quartic(eta1[rows], eta2[rows], eta3[rows], t1[rows], t2[rows],
                              tau[rows], c1[rows]), axis=-1)
        errors.fail(rows[~np.isfinite(q).all(axis=1)], lambda i: NonFiniteSolution(
            "the stationarity quartic's coefficients overflow a float"))
        cand = _candidates(q, eta1[rows], eta2[rows], t1[rows], t2[rows], tau[rows],
                           c1[rows])
        best, ok = _best(*cand)
        errors.fail(rows[~ok], lambda i: _infeasible_budget(
            eta1[i] - eta2[i] * t1[i] * t1[i]))
        r[rows] = cand[0][np.arange(len(rows)), best]
        u[rows] = np.where(clamped[rows], u[rows],
                           c2[rows] / tau[rows, None] * r[rows, None])

    total = t1 + tau * r
    rad = eta1 - eta2 * total * total
    errors.fail(np.flatnonzero(rad < -RADICAND_GUARD * np.maximum(eta1, 1.0)),
                lambda i: _infeasible_budget(rad[i]))
    phases = optimal_phases(batch)
    gains_rd = np.abs(batch.h_rd)
    relay_w = np.where((gains_rd > 0.0) & (u > 0.0),
                       u / gains_rd * np.exp(1j * phases[:, 1:]), 0.0)
    w = np.concatenate(
        ((np.sqrt(np.maximum(rad, 0.0)) * np.exp(1j * phases[:, 0]))[:, None], relay_w),
        axis=-1)
    return solved_values(batch, p1, a, w, errors, IndividualDiagnostics(
        clamped=clamped, t1=t1, t2=t2, tau=tau, chosen_r=r))


def solve_individual(instance: NetworkInstance, params: SystemParams,
                     alpha: Optional[float] = None) -> BeamSolution:
    """Optimal weights under separate source and per-relay power caps for one
    instance: the N = 1 case of solve_individual_batch."""
    _check_rows(instance, params.p1, "p1")
    return solve_individual_batch(NetworkInstance.stack([instance]), params, alpha).row(0)

"""Beamforming under separate source and per-relay power caps.

The solve decomposes cleanly:

1. Phases: each weight's phase is chosen to cancel its channel phase, making
   every term of the beam gain real nonnegative (phases do not enter the
   objective denominator, and the source's cancellation-term power depends on
   the same aligned sum).
2. Magnitudes: with u_i = |w_i h_id| and u1 = |w_0|, the source power
   constraint is the ellipse u1^2 + eta2 y^2 = eta1 in u1 and y = c2.u, and
   the SINR reduces to a one-dimensional problem in r = ||u_active||.
   Unconstrained in the relay bounds, the optimum has a closed form; with
   bounds, the greedy active-set answer clamps the worst violators at their
   caps and re-solves the 1-D problem, now with offset terms t1 (clamped
   amplitude mass, weighted by c) and t2 (1 + clamped squared amplitudes).

The 1-D problem is solved in the angle theta of the ellipse, y = t1 + tau r
= y_max cos(theta) and u1 = sqrt(eta1) sin(theta) (quartic_coeffs).  Its
closed form and its stationarity quartic in t = tan(theta/2) need no
squaring, so the quartic has no spurious roots, and nothing overflows where
the angle's constants are finite.  On t >= 0 the quartic is convex and
nonpositive at 0, so it has one root there, found by Newton's method (_root)
and compared against r = 0.
At alpha = 1 (eta2 = 0) there is no ellipse: u1 = sqrt(eta1), and the
stationary r = tau t2 / (t1 + c1 sqrt(eta1)) is compared against r = 0.

The greedy never needs to be run.  The active amplitudes u_i = c_i r / tau
share the factor r / tau, so the greedy clamps in the fixed order of
descending c_i/u_max,i, compared in logs so that no ratio overflows or
underflows.  One test decides every clamp count K: whether the optimum of
the K-clamped problem passes the next relay's breakpoint, by the sign of
the reduced objective's slope there (_passes).  It runs on each row's first
relay alone, and only the rows that clamp it are sorted and scanned through
prefix sums of the offsets (_clamp_scan).  solve_individual_batch then
solves one quartic per clamped row, all rows in one vectorized Newton
iteration, and the closed form answers the rest.
solve_individual is the N = 1 call, and MagnitudeProblem, solve_source_only,
quartic_coeffs and select_root are one-row views of the same array
expressions.

_magnitude_problem is the one place the problem's constants are formed,
for one network or a stack, and it forms them in the problem's own units:
c = [|h_sd|, |h_s1|, ...] 2^-e, e the binary exponent of |h_sd|, with eta2
taken on that c.  Next to channel units, r, u, eta1, t2, A, B, phi and the
quartic are the same and y, t1, tau and y_max differ by powers of two, so
nothing rounds differently, and a gain-scaled copy of a network
(h -> k h, sigma2 -> k^2 sigma2) gets the same problem.  A solve reports t1
and tau in these units.

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
    """(c, u_max, eta1, eta2) of the magnitude problem of one network, or of
    every row of a stack with p1 and alpha each a scalar or one value per
    row: the one place they are formed.

    * c = [|h_sd|, |h_s1|, ..., |h_sM|] 2^-e, e the binary exponent of |h_sd|
      (np.frexp), so c1 = c[..., 0] is in [0.5, 1) (module docstring).
    * u_max,i = |h_id| sqrt(P_i) / sqrt(|h_si|^2 p1 + sigma2) — the cap on
      the effective amplitude u_i = |w_i h_id| implied by relay i's power
      cap.  (The |h_id| factor is required by that change of variables; the
      roots are taken apart, as P_i / T_i loses digits when it is subnormal.)
    * eta1 = P_s/(alpha p1), eta2 = (1-alpha)/(alpha c1^2) (module docstring).
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
    u_max = (np.abs(instance.h_rd) * np.sqrt(budget.p_i)
             / np.sqrt(relay_input_powers(instance, p1)))
    return c, u_max, budget.p_s / (alpha * p1), (1.0 - alpha) / (alpha * c[..., 0] ** 2)


def _active_norm(c2: np.ndarray, active: Optional[np.ndarray] = None):
    """tau = ||c2 over the active relays||, over a trailing relay axis."""
    if active is not None:
        c2 = np.where(active, c2, 0.0)
    return np.sqrt(_dot(c2, c2))


def _angles(eta1, eta2, t1, t2, tau, c1):
    """(y_max, cos phi, sin phi, ka, kb, B) of the 1-D problem in the angle
    (quartic_coeffs): y_max = sqrt(eta1) / sqrt(eta2) is inf at alpha = 1,
    phi is taken apart without a trigonometric call, and A enters as the pair
    (ka, kb) = (A, 1) / (1 + A), which stays in [0, 1] also where A^2
    overflows or A is 0 or inf."""
    tan_phi = c1 * np.sqrt(eta2)
    cos_phi = 1.0 / np.hypot(1.0, tan_phi)
    y_max = np.sqrt(eta1) / np.sqrt(eta2)
    big_a = tau * np.sqrt(t2) / y_max
    return (y_max, cos_phi, tan_phi * cos_phi, 1.0 / (1.0 + 1.0 / big_a),
            1.0 / (1.0 + big_a), t1 / y_max)


def _source_only(tau, eta1, eta2, c1):
    """(r*, u1) of the unclamped problem (t1 = 0, t2 = 1) with tau > 0; the
    relay amplitudes are u = c2 r* / tau, along c2 (Cauchy-Schwarz).

    tan(theta*) = (1 + A^-2) tan(phi), and theta* itself is never formed:
    atan near pi/2 loses the relative precision of cos(theta*).  r* =
    y_max cos(theta*) / tau is at most about tan(phi)^-1/2, so it cannot
    overflow.  At alpha = 1, r* = tau / (c1 sqrt(eta1)) and u1 = sqrt(eta1).
    """
    y_max, cos_phi, sin_phi, ka, kb, _ = _angles(eta1, eta2, 0.0, 1.0, tau, c1)
    root_eta1 = np.sqrt(eta1)
    tan_t = (ka * ka + kb * kb) / (ka * ka) * (sin_phi / cos_phi)
    flat = eta2 == 0.0
    r = np.where(flat, tau / (c1 * root_eta1), y_max / np.hypot(1.0, tan_t) / tau)
    return r, np.where(flat, root_eta1, root_eta1 / np.hypot(1.0, 1.0 / tan_t))


def _quartic(eta1, eta2, t1, t2, tau, c1):
    """Coefficients (q0, ..., q4), highest power first, of the stationarity
    quartic in t = tan(theta/2) on the last axis (see quartic_coeffs)."""
    _, cos_phi, sin_phi, ka, kb, big_b = _angles(eta1, eta2, t1, t2, tau, c1)
    a2, b2 = ka * ka, kb * kb
    return np.stack((sin_phi * (a2 + (1.0 + big_b) ** 2 * b2),
                     2.0 * cos_phi * (a2 + big_b * (1.0 + big_b) * b2),
                     np.zeros_like(big_b),
                     2.0 * cos_phi * (a2 - big_b * (1.0 - big_b) * b2),
                     -sin_phi * (a2 + (1.0 - big_b) ** 2 * b2)), axis=-1)


def _root(q: np.ndarray, t_hi: np.ndarray) -> np.ndarray:
    """The root in [0, t_hi] of each row's quartic q (K, 5), nan where there
    is none.

    On t >= 0 the quartic is convex (q0, q1 >= 0 and q2 = 0) and q4 <= 0, so
    it has one root there, in [0, t_hi] exactly where P(t_hi) >= 0.  Newton's
    method from t_hi descends onto it without overshooting; a row steps while
    (|P(t)|, t) decreases, which floats cannot do forever, so a long step that
    rounds to below the root is followed by the one back onto it.
    """
    def newton(rows, t):  # (P(t), t - P(t) / P'(t)) of the rows
        q0, q1, _, q3, q4 = q[rows].T
        value = ((q0 * t + q1) * t * t + q3) * t + q4
        return value, t - value / ((4.0 * q0 * t + 3.0 * q1) * t * t + q3)

    value, step = newton(slice(None), t_hi)
    t = np.where(value >= 0.0, t_hi, np.nan)
    rows = np.flatnonzero(t >= 0.0)
    value, step = value[rows], step[rows]
    while rows.size:
        new_value, new_step = newton(rows, step)
        now, new = np.abs(value), np.abs(new_value)
        better = (new < now) | ((new == now) & (step < t[rows]))
        rows = rows[better]
        t[rows] = step[better]
        value, step = new_value[better], new_step[better]
    return t


@dataclass(frozen=True)
class RootCandidate:
    """One admissible point of the clamped 1-D magnitude problem with its
    value, the objective up to a factor common to the problem's candidates."""

    r: float
    value: float
    kind: str  # "zero" | "root"


# Kind of each candidate column of _candidates: r = 0, then the quartic's root.
CANDIDATE_KINDS = ("zero", "root")


def _candidates(q, eta1, eta2, t1, t2, tau, c1):
    """Candidates of K clamped 1-D problems at once, as (r, u1, value,
    valid), each (K, 2) with the columns of CANDIDATE_KINDS: r = 0 (u1 the
    root of its radicand, as the batch takes it) and the root of q in the
    admissible [0, tan(arccos(B) / 2)], valid where its value is not nan
    (where A << 1 the root's gap cos(theta) - B is rounding noise, and r = 0
    far better).  value is cos^2(theta - phi) / (A^2 + (cos(theta) - B)^2) /
    (1 + A)^2, and at alpha = 1, for r = 0 and tau t2 / (t1 + c1 u1), the
    objective."""
    y_max, cos_phi, sin_phi, ka, kb, big_b = _angles(eta1, eta2, t1, t2, tau, c1)
    col = (slice(None), None)
    t = _root(q, np.sqrt((1.0 - big_b) / (1.0 + big_b)))[col]
    root_eta1 = np.sqrt(eta1)[col]
    u1 = np.concatenate((np.sqrt(eta1 - eta2 * t1 * t1)[col],
                         root_eta1 * (2.0 * t / (1.0 + t * t))), axis=1)
    cos = np.concatenate((big_b[col], (1.0 - t) * (1.0 + t) / (1.0 + t * t)), axis=1)
    gap = cos - big_b[col]
    value = ((cos * cos_phi[col] + u1 / root_eta1 * sin_phi[col]) ** 2
             / (ka[col] ** 2 + (gap * kb[col]) ** 2))
    r = gap * y_max[col] / tau[col]
    r[:, 0] = 0.0  # also at tau = 0
    present = gap >= 0.0
    present[:, 1] &= tau > 0.0  # without active relays only r = 0 is left
    flat = np.flatnonzero(eta2 == 0.0)
    if flat.size:  # alpha = 1: no ellipse
        source = c1[flat] * np.sqrt(eta1[flat])
        r[flat, 1] = tau[flat] * t2[flat] / (t1[flat] + source)
        rf = r[flat]
        value[flat] = ((t1[flat, None] + tau[flat, None] * rf + source[:, None]) ** 2
                       / (t2[flat, None] + rf * rf))
        u1[flat] = root_eta1[flat]
        present[flat] = ~np.isnan(rf)
    return r, u1, value, present & ~np.isnan(value)


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


# ---------------------------------------------------------------------------
# One-row views


@dataclass(frozen=True, eq=False)
class MagnitudeProblem:
    """State of the reduced magnitude optimization over the active relays.

    c: magnitudes [|h_sd|, |h_s1|, ...] (initial_problem scales them by
    2^-e); u_max: per-relay amplitude caps; eta1, eta2: the source-power
    constants, eta3 = 1 + eta2 c1^2; t1/t2: contributions accumulated from
    clamped relays (t1 in the units of c times amplitude, t2 = 1 + sum of
    squared clamped amplitudes); active: relay indices still free; tau:
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
        y = self.t1 + self.tau * r
        return self.eta1 - self.eta2 * y * y

    def objective(self, r: float) -> float:
        """Scaled destination SINR (c1 u1 + c2.u)^2 / (t2 + r^2) at radius r,
        with u1 on the source-power surface; -inf when r is infeasible."""
        rad = self.radicand(r)
        if rad < 0:
            return -math.inf
        return float((self.t1 + self.tau * r + self.c1 * math.sqrt(rad)) ** 2
                     / (self.t2 + r * r))


def initial_problem(instance: NetworkInstance, p1: float, alpha: float,
                    budget: Budget) -> MagnitudeProblem:
    """Magnitude problem of one network before any clamping: all relays
    active, no offsets, in the problem's own units (_magnitude_problem)."""
    c, u_max, eta1, eta2 = _magnitude_problem(instance, p1, alpha, budget)
    return MagnitudeProblem(c=c, u_max=u_max, eta1=float(eta1), eta2=float(eta2),
                            eta3=float(1.0 + eta2 * c[0] ** 2),
                            active=tuple(range(instance.m)), tau=float(_active_norm(c[1:])))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve_source_only(problem: MagnitudeProblem) -> Tuple[float, np.ndarray, float]:
    """Closed-form optimum when only the source power constraint binds.

    (u1, u, r*): u1 and r* as _source_only gives them, and the relay
    amplitudes u = c2 r* / tau along the active c.  Valid only for the
    unclamped problem (t1 = 0, t2 = 1).
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
    r, u1 = _source_only(problem.tau, problem.eta1, problem.eta2, problem.c1)
    return float(u1), c2 / problem.tau * r, float(r)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def quartic_coeffs(problem: MagnitudeProblem) -> np.ndarray:
    """Coefficients (q0, ..., q4), highest power first, of the stationarity
    quartic q0 t^4 + q1 t^3 + q2 t^2 + q3 t + q4 = 0 of the clamped 1-D
    problem in t = tan(theta/2), as a (5,) float array.

    Derivation sketch: on the ellipse, y = y_max cos(theta) and u1 =
    sqrt(eta1) sin(theta), y_max = sqrt(eta1/eta2).  With tan(phi) = c1
    sqrt(eta2), A = tau sqrt(t2) / y_max and B = t1 / y_max, the objective is
    proportional to cos^2(theta - phi) / (A^2 + (cos(theta) - B)^2) on
    [0, arccos B] (B > 1 leaves none), maximal unclamped at tan(theta*) =
    (1 + A^-2) tan(phi).  With K = A^2 + B^2, c = cos(phi), s = sin(phi), its
    derivative vanishes where -K sin(theta - phi) + s cos(theta) + (B/2)
    sin(2 theta - phi) - (3B/2) s = 0, in t: s (K + 1 + 2B) t^4 + 2c (K + B)
    t^3 + 2c (K - B) t - s (K + 1 - 2B) = 0, returned times 1/(1 + A)^2 so
    that A^2 does not overflow.  At alpha = 1 (s = 0) every coefficient is 0.
    """
    return _quartic(problem.eta1, problem.eta2, problem.t1, problem.t2, problem.tau,
                    problem.c1)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def select_root(coeffs: np.ndarray, problem: MagnitudeProblem,
                ) -> Tuple[RootCandidate, Tuple[RootCandidate, ...]]:
    """Pick the best admissible candidate of the clamped 1-D problem.

    Candidates: the r = 0 boundary and the quartic's root in the admissible
    interval of t, where it has one.
    """
    row = [np.array([x], dtype=float) for x in (
        problem.eta1, problem.eta2, problem.t1, problem.t2, problem.tau, problem.c1)]
    r, _, value, valid = _candidates(coeffs[None, :], *row)
    best, ok = _best(r, value, valid)
    if not ok[0]:
        raise _infeasible_budget(problem.radicand(0.0))
    found = [RootCandidate(float(x), float(v), kind)
             for x, v, kind in zip(r[0], value[0], CANDIDATE_KINDS)]
    return found[best[0]], tuple(c for c, keep in zip(found, valid[0]) if keep)


# ---------------------------------------------------------------------------
# The solvers


def _passes(cap, c2, tau, t1, t2, c1, eta1, eta2):
    """Whether the optimum of the 1-D problem with offsets (t1, t2) over
    active relays of norm tau passes the breakpoint of one of them, of
    amplitude cap `cap` and gain c2, so that the relay must be clamped.

    The breakpoint is x = (1 + BOUND_SLACK) cap (tau / c2) in r: tau >= c2,
    so tau / c2 cannot underflow where cap / c2 can.  The objective psi(r) =
    N(r)^2 / (t2 + r^2), N = y + c1 sqrt(eta1 - eta2 y^2) and y = t1 + tau r,
    is quasi-concave on its feasible interval (N concave and >= 0 over a
    convex positive sqrt(t2 + r^2)), so its optimum passes x exactly when
    psi'(x) > 0, written so that no terms cancel:

        (tau t2 - t1 x) (1 - c1 eta2 y / s) - c1 eta1 x / s > 0,

    with s = sqrt(eta1 - eta2 y^2) > 0 at y = t1 + tau x.  A relay with a
    zero cap always passes.  Takes arrays that broadcast.
    """
    x = (1.0 + BOUND_SLACK) * cap * (tau / c2)
    y = t1 + tau * x
    s = np.sqrt(eta1 - eta2 * y * y)
    slope = (tau * t2 - t1 * x) * (1.0 - c1 * eta2 * y / s) - c1 * eta1 * x / s
    return (cap == 0.0) | ((s > 0.0) & (tau > 0.0) & np.isfinite(x) & (slope > 0.0))


def _clamp_scan(key, cap, c1, c2, eta1, eta2):
    """Where the greedy clamp sequence of each row stops, found in one pass.

    On the active relays u_i = c_i r / tau, so every active ratio u_i/cap_i
    scales by the same factor after each re-solve, and the greedy clamps the
    relays in one fixed order: ascending key = log2(cap) - log2(c2), first
    index on ties (key is -inf where the cap is 0).  With the first K of
    that order clamped, the offsets are prefix sums (np.cumsum adds in the
    greedy's order, so they are its t1 and t2 bit for bit) and tau_K is a
    suffix sum.  A row stops at the first K whose relay order[K] does not
    pass (_passes), which is also where a greedy re-solve without admissible
    candidates stops: that needs rad < 0 at r = 0, hence at the breakpoint.
    Returns (clamped, t1, t2): the (N, M) mask of its first K relays in
    clamp order, and the offsets after those K clamps (N,).
    """
    n, m = cap.shape
    order = np.argsort(key, axis=1, kind="stable")
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
    col = (slice(None), None)
    violates = _passes(cap, c2, tau, t1[:, :m], t2[:, :m], c1[col], eta1[col], eta2[col])
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

    The greedy active-set answer: the proportionally worst violators of
    their caps are clamped there exactly (ties to the lowest index), folded
    into (t1, t2), and the 1-D problem over the remaining relays is solved
    again.  The clamp count K comes from one breakpoint test (_passes), on
    each row's first relay in clamp order and then, for the rows that clamp
    it, on every relay in one scan (_clamp_scan).  Rows with K = 0 take the
    closed form, the others solve one quartic each, all of them in one
    Newton iteration (_root).  The source amplitude comes from the chosen
    angle, phases are applied, and relay weights are recovered as w_i =
    u_i/|h_id| * exp(j phi_i).  Where a relay weight is subnormal, its
    amplitude rounds to a few bits, so u1 is capped again on the rounded
    amplitudes.

    Rows fail independently: InfeasibleThreshold (gamma out of reach),
    InfeasibleBudget (the source cannot cancel the noise the clamped relays
    forward, or the rounded amplitudes of subnormal weights) or
    NonFiniteSolution (eta1, eta2, tau, w, C_d or the second-phase power
    leaves the float range).
    """
    p1 = params.p1
    a, errors = resolve_alphas(batch, p1, params.gamma, alpha)
    c, u_max, eta1, eta2 = _magnitude_problem(batch, p1, a, params.budget)
    c1, c2 = c[:, 0], c[:, 1:]
    n, m = batch.n, batch.m
    clamped = np.zeros((n, m), dtype=bool)
    t1, t2 = np.zeros(n), np.ones(n)
    tau = _active_norm(c2)
    errors.fail(np.flatnonzero(~(np.isfinite(eta1) & np.isfinite(eta2) & np.isfinite(tau))),
                lambda i: NonFiniteSolution(
                    f"the magnitude problem overflows a float (eta1={float(eta1[i])!r}, "
                    f"eta2={float(eta2[i])!r}, tau={float(tau[i])!r})"))

    if m:  # only the rows whose optimum passes their first relay's breakpoint clamp
        key = np.where(u_max > 0.0, np.log2(u_max) - np.log2(c2), -np.inf)
        live = np.flatnonzero(~errors.failed)
        top = live, np.argmin(key[live], axis=1)
        live = live[_passes(u_max[top], c2[top], tau[live], 0.0, 1.0, c1[live], eta1[live],
                            eta2[live])]
        clamped[live], t1[live], t2[live] = _clamp_scan(
            key[live], u_max[live], c1[live], c2[live], eta1[live], eta2[live])
    free = ~clamped.any(axis=1)
    tau[~free] = _active_norm(c2[~free], ~clamped[~free])
    rad = eta1 - eta2 * t1 * t1  # u1^2 at r = 0, the answer where no relay is active
    errors.fail(np.flatnonzero(rad < 0.0), lambda i: _infeasible_budget(rad[i]))
    r, u1 = np.zeros(n), np.sqrt(rad)
    solved = ~errors.failed & (tau > 0.0)
    rows = np.flatnonzero(solved & free)
    r[rows], u1[rows] = _source_only(tau[rows], eta1[rows], eta2[rows], c1[rows])
    rows = np.flatnonzero(solved & ~free)
    if rows.size:
        args = (eta1[rows], eta2[rows], t1[rows], t2[rows], tau[rows], c1[rows])
        r_c, u1_c, value, valid = _candidates(_quartic(*args), *args)
        pick = np.arange(len(rows)), _best(r_c, value, valid)[0]
        r[rows], u1[rows] = r_c[pick], u1_c[pick]
    # nan on the active relays where tau = 0, which relay_w's u > 0 test zeroes
    u = np.where(clamped, u_max, c2 / tau[:, None] * r[:, None])

    phases = optimal_phases(batch)
    gains_rd = np.abs(batch.h_rd)
    mag = u / gains_rd
    relay_w = np.where((gains_rd > 0.0) & (u > 0.0), mag * np.exp(1j * phases[:, 1:]), 0.0)
    rows = np.flatnonzero(np.any((0.0 < mag) & (mag < np.finfo(float).tiny), axis=1))
    if rows.size:  # subnormal weights round their amplitudes: cap u1 on the rounded ones
        y = _dot(c2[rows], np.abs(relay_w[rows] * gains_rd[rows]))
        rad[rows] = eta1[rows] - eta2[rows] * y * y
        errors.fail(rows[rad[rows] < 0.0], lambda i: _infeasible_budget(rad[i]))
        u1[rows] = np.minimum(u1[rows], np.sqrt(rad[rows]))
    w = np.concatenate(((u1 * np.exp(1j * phases[:, 0]))[:, None], relay_w), axis=-1)
    return solved_values(batch, p1, a, w, errors, IndividualDiagnostics(
        clamped=clamped, t1=t1, t2=t2, tau=tau, chosen_r=r))


def solve_individual(instance: NetworkInstance, params: SystemParams,
                     alpha: Optional[float] = None) -> BeamSolution:
    """Optimal weights under separate source and per-relay power caps for one
    instance: the N = 1 case of solve_individual_batch."""
    _check_rows(instance, params.p1, "p1")
    return solve_individual_batch(NetworkInstance.stack([instance]), params, alpha).row(0)

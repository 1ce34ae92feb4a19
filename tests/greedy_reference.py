"""The greedy active-set loop that solve_individual_batch used to run, kept as
the independent reference for its breakpoint scan.

Each round, every row whose proportionally worst active relay exceeds its cap
(by more than BOUND_SLACK, first index on ties, inf where the cap is 0)
clamps that relay at its cap, folds it into (t1, t2) and re-solves the 1-D
problem over the remaining relays with the stationarity quartic.  The loop
ends when no row has a violator left; rows fail independently.  BOUND_SLACK
is read from individual_solver at call time, so a test that patches it
there changes both sides.  The ratio test reads u = c2 r / tau, so it is
exact only where u does not underflow: where it does, ratios of 0 tie and
the loop clamps them in index order, which the solver's log-domain order
does not.

Only the loop is independent: the closed form, the per-round 1-D solve
(_quartic, _candidates with its Newton root _root, _best) and the final
feasibility test (a negative source-power radicand eta1 - eta2 t1^2 at
r = 0) are the solver's own, so a fault in those is shared and this
reference cannot catch it.  It passed alpha = 1 rows whose 1-D solve had
lost its only root; the grid oracle caught them.
"""

import numpy as np

from anbeam import individual_solver
from anbeam.errors import InfeasibleBudget, NonFiniteSolution
from anbeam.individual_solver import (_active_norm, _best, _candidates, _magnitude_problem,
                                      _quartic, _source_only, optimal_phases)
from anbeam.model import capacity_dest, resolve_alphas
from anbeam.types import NetworkInstance, SystemParams


def greedy_reference(batch: NetworkInstance, params: SystemParams, alpha=None):
    """(errors, clamped, t1, t2, tau, c_d) of every row: errors holds one
    exception object or None per row, clamped is the (N, M) mask of clamped
    relays, and the rest are (N,) arrays."""
    p1 = params.p1
    a, errors = resolve_alphas(batch, p1, params.gamma, alpha)
    c, u_max, eta1, eta2 = _magnitude_problem(batch, p1, a, params.budget)
    c1, c2 = c[:, 0], c[:, 1:]
    n, m = batch.n, batch.m
    active = np.ones((n, m), dtype=bool)
    t1, t2 = np.zeros(n), np.ones(n)
    tau = _active_norm(c2)
    r = np.zeros(n)
    u1 = np.sqrt(eta1)
    u = np.zeros((n, m))

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        errors.fail(np.flatnonzero(~(np.isfinite(eta1) & np.isfinite(eta2) & np.isfinite(tau))),
                    lambda i: NonFiniteSolution(""))
        rows = np.flatnonzero(~errors.failed & (tau > 0.0))
        r[rows], u1[rows] = _source_only(tau[rows], eta1[rows], eta2[rows], c1[rows])
        u[rows] = c2[rows] / tau[rows, None] * r[rows, None]

        live = np.flatnonzero(~errors.failed & active.any(axis=1))
        while live.size:
            cap = u_max[live]
            ratio = np.where(cap > 0.0, u[live] / cap, np.inf)
            ratio[~active[live]] = -np.inf
            worst = np.argmax(ratio, axis=1)
            violating = ratio[np.arange(len(live)), worst] > 1.0 + individual_solver.BOUND_SLACK
            live, worst = live[violating], worst[violating]
            if not live.size:
                break
            cap = u_max[live, worst]
            u[live, worst] = cap
            active[live, worst] = False
            t1[live] = t1[live] + c2[live, worst] * cap
            t2[live] = t2[live] + cap ** 2
            tau[live] = _active_norm(c2[live], active[live])

            rest = live[tau[live] <= 0.0]  # nothing left to re-solve: r = 0
            r[rest] = 0.0
            u[rest] = np.where(active[rest], 0.0, u[rest])
            rows = live[tau[live] > 0.0]
            if rows.size:
                args = (eta1[rows], eta2[rows], t1[rows], t2[rows], tau[rows], c1[rows])
                r_c, u1_c, value, valid = _candidates(_quartic(*args), *args)
                best, ok = _best(r_c, value, valid)
                errors.fail(rows[~ok], lambda i: InfeasibleBudget(""))
                pick = np.arange(len(rows)), best
                r[rows], u1[rows] = r_c[pick], u1_c[pick]
                u[rows] = np.where(active[rows],
                                   c2[rows] / tau[rows, None] * r[rows, None], u[rows])
            live = live[~errors.failed[live]]

        rad = eta1 - eta2 * t1 * t1
        errors.fail(np.flatnonzero(rad < 0.0), lambda i: InfeasibleBudget(""))
        u1[tau <= 0.0] = np.sqrt(rad[tau <= 0.0])
        phases = optimal_phases(batch)
        gains_rd = np.abs(batch.h_rd)
        relay_w = np.where((gains_rd > 0.0) & (u > 0.0),
                           u / gains_rd * np.exp(1j * phases[:, 1:]), 0.0)
        w = np.concatenate(((u1 * np.exp(1j * phases[:, 0]))[:, None], relay_w), axis=-1)
        c_d = capacity_dest(batch, p1, a, w)
    return errors.errors, ~active, t1, t2, tau, c_d

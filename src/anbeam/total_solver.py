"""Closed-form beamforming under a single total second-phase power cap.

Maximizing the destination SINR subject to w' D w <= P_tot is a generalized
Rayleigh quotient in disguise: substituting the power constraint (tight at the
optimum) turns the objective into |h^T w|^2 / (w' (D/P_tot + D_h) w), whose
maximizer for the rank-1 numerator is w* = mu * D_tilde^{-1} conj(h) scaled
back onto the power boundary.  D_tilde is diagonal plus rank one, so the
solve is an O(M) Sherman-Morrison update on model.py's kept channel arrays;
the dense assemblies below, of a DerivedModel, are the reference for the
oracles, the validate eigen check and the tests, never the solve path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import NonFiniteSolution
from .model import (_check_rows, _dot, cancellation_gains, combined_gains, noise_amp_diag,
                    relay_input_powers, resolve_alphas, second_phase_power, solved_values)
from .types import (
    BeamSolution,
    DerivedModel,
    NetworkInstance,
    SystemParams,
    TotalBudget,
    TotalDiagnostics,
)


@np.errstate(over="ignore", invalid="ignore")
def dense_power_matrix(derived: DerivedModel) -> np.ndarray:
    """Dense D = blockdiag(alpha*p1, diag(T) + (1-alpha)*p1*conj(g)g^T)."""
    m = derived.m
    d = np.zeros((m + 1, m + 1), dtype=complex)
    d[0, 0] = derived.alpha * derived.p1
    if m:
        d[1:, 1:] = ((1.0 - derived.alpha) * derived.p1
                     * np.outer(np.conj(derived.g), derived.g)
                     + np.diag(derived.t_diag))
    return d


def build_d_tilde(derived: DerivedModel, p_tot: float) -> np.ndarray:
    """Dense D_tilde = D/P_tot + D_h, the Hermitian positive definite
    denominator of the substituted Rayleigh quotient.

    Definiteness needs alpha > 0: the source row of D_h is zero, so with
    alpha = 0 the first row/column of D_tilde vanishes entirely.  An entry
    that is not finite raises NonFiniteSolution naming D_tilde.
    """
    if derived.alpha <= 0.0:
        raise ValueError(f"alpha={float(derived.alpha)!r} must be positive: D_tilde is "
                         "singular at 0")
    if p_tot <= 0.0:
        raise ValueError("p_tot must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        d_tilde = dense_power_matrix(derived) / p_tot + np.diag(derived.d_h_diag)
    if not np.isfinite(d_tilde).all():
        raise NonFiniteSolution("D_tilde has an entry that is not finite: it overflows a float")
    return d_tilde


# Failed rows compute numbers that are never read, quietly; a healthy row's
# overflow is caught by solved_values' finiteness tests on w and C_d.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve_total_batch(batch: NetworkInstance, params: SystemParams,
                      alpha=None) -> BeamSolution:
    """Optimal weights under the total budget for every row of a batch;
    alpha from params.gamma (per row) unless given explicitly.  params.p1 and
    an explicit alpha are each a scalar or one value per row.

    w* = mu * v with v = D_tilde^{-1} conj(h) and mu chosen so the power
    constraint holds with equality; the achieved SINR ratio equals the
    Rayleigh value h^T v.  Each returned w is rotated so the beam gain h^T w
    is real nonnegative (the objective is blind to a global phase).

    D_tilde = blockdiag(alpha p1/P_tot, diag(d) + k conj(g) g^T) with
    d = T/P_tot + |h_rd|^2 and k = (1-alpha) p1/P_tot, so v_0 =
    conj(h_sd) P_tot/(alpha p1) and the relay block is the Sherman-Morrison
    update y - z k (g^T y)/(1 + k g^T z), y = conj(h_r)/d, z = conj(g)/d.
    As h_r = h_sd g, y = conj(h_sd) z and the update is y/(1 + k g^T z)
    exactly; this form skips a subtraction that cancels when |h_sd| is small.

    Rows fail independently: InfeasibleThreshold (gamma out of reach) or
    NonFiniteSolution (v, w, C_d or the second-phase power leaves the float
    range).  resolve_alphas
    judges alpha, so every row's alpha is in (0, 1].
    """
    budget = params.budget
    if not isinstance(budget, TotalBudget):
        raise TypeError("solve_total requires a TotalBudget")
    p1, p_tot = params.p1, budget.p_tot
    a, errors = resolve_alphas(batch, p1, params.gamma, alpha)
    h = combined_gains(batch)
    h_bar = np.conj(h)
    d = relay_input_powers(batch, p1) / p_tot + noise_amp_diag(batch)[:, 1:]
    k = (1.0 - a) * p1 / p_tot
    g_z = np.sum(np.abs(cancellation_gains(batch)) ** 2 / d, axis=-1)
    v = np.concatenate(((h_bar[:, 0] * p_tot / (a * p1))[:, None],
                        h_bar[:, 1:] / d / (1.0 + k * g_z)[:, None]), axis=-1)
    # |v_0|^2 overflows as alpha -> 0, so mu is taken on v rescaled to max 1;
    # a v that overflows itself gives a nan w, which solved_values fails
    scale = np.max(np.abs(v), axis=-1)
    mu = np.sqrt(p_tot / second_phase_power(batch, p1, a, v / scale[:, None])) / scale
    w = mu[:, None] * v
    b = _dot(h, w)
    gain = np.abs(b)
    w = w * np.where(gain > 0, np.conj(b) / gain, 1.0)[:, None]
    return solved_values(batch, p1, a, w, errors,
                         TotalDiagnostics(v=v, mu=mu, rayleigh_value=np.real(_dot(h, v))))


def solve_total(instance: NetworkInstance, params: SystemParams,
                alpha: Optional[float] = None) -> BeamSolution:
    """Optimal weights under the total budget for one instance: the N = 1
    case of solve_total_batch."""
    _check_rows(instance, params.p1, "p1")
    return solve_total_batch(NetworkInstance.stack([instance]), params, alpha).row(0)

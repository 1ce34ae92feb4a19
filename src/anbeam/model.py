"""Channel-derived quantities, SNR/capacity formulas and signal propagation.

Conventions used throughout:

* Capacities are in bits per channel use with a 1/2 pre-log (the protocol
  spends two phases per message symbol); logs are base 2.
* The destination combines the two phases by maximum ratio combining, so the
  two SINRs add inside the log.
* Complex Gaussian CN(0, v) means independent real/imaginary parts, each
  N(0, v/2).
* The beam gain is the plain (unconjugated) product h^T w of combined channel
  gains and weights, matching the physical received coefficient of the
  message symbol.
* The solver-side formulas (phase-1 SINRs, gain vectors, beam SINR,
  capacity, second-phase power and the threshold split) work over a
  trailing relay axis.  They take a single NetworkInstance or a stack
  alike, with p1 and alpha each a scalar or one value per row, so the
  batched solvers share every formula with the single-instance ones.
* The arrays that depend on the channels alone (combined_gains,
  cancellation_gains, noise_amp_diag, relay_power_gains) are formed the
  first time a formula needs them and kept in the instance or stack, so the
  two budget solves of a stack form each once; they are returned read-only,
  and, as an instance is immutable, never go stale.
* The signal-level functions propagate one symbol or an array of them, so
  the cancellation check and the Monte Carlo oracle share one reception.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .errors import InfeasibleThreshold, NonFiniteSolution, RowErrors, SingularObservation
from .types import (
    BeamSolution,
    DerivedModel,
    NetworkInstance,
    SignalRealization,
    check_gamma,
)

# alpha_monotonicity_threshold rejects x_e within this relative distance of its pole 1.
SINGULAR_GUARD = 1e-9


def _per_relay(x) -> np.ndarray:
    """x with a trailing axis, so a per-instance value (a scalar, or one per
    row of a batch) broadcasts against per-relay arrays."""
    return np.asarray(x)[..., None]


def _kept(form):
    """form(instance) formed once per NetworkInstance: the first call keeps
    its array, read-only, in the instance, and later calls return it."""
    key = "_kept_" + form.__name__

    @functools.wraps(form)
    def kept(instance: NetworkInstance) -> np.ndarray:
        value = instance.__dict__.get(key)
        if value is None:
            value = instance.__dict__[key] = form(instance)
            value.setflags(write=False)
        return value
    return kept


@_kept
def relay_power_gains(instance: NetworkInstance) -> np.ndarray:
    """|h_si|^2 of every relay: the source->relay power gains."""
    return np.square(np.abs(instance.h_sr))


def strongest_relay(instance: NetworkInstance) -> int:
    """Index of the relay with the largest source-side gain |h_si|^2.

    Ties break toward the lowest index. This relay bounds every relay's SNR
    from above for any power split, so the threshold constraint only needs to
    be enforced there.
    """
    if instance.m == 0:
        raise ValueError("instance has no relays: strongest_relay needs at least one")
    return int(np.argmax(relay_power_gains(instance)))


def alpha_for_threshold(instance: NetworkInstance, p1: float, gamma: float) -> float:
    """Message-power fraction alpha that puts the strongest relay exactly at
    SNR gamma: resolve_alphas for one instance, where an infeasible
    threshold raises.

    alpha = (1 + sigma2/(|h_se|^2 p1)) / (1 + 1/gamma).  Raising alpha above
    this value would push the strongest relay past the threshold; lowering it
    only wastes destination SNR, so the solvers pin alpha here.
    """
    _check_rows(instance, p1, "p1")
    alphas, errors = resolve_alphas(NetworkInstance.stack([instance]), p1, gamma, None)
    if errors.errors[0] is not None:
        raise errors.errors[0]
    return float(alphas[0])


def _phase1_sinr(gain2, sigma2: float, p1: float, alpha):
    """First-phase SINR of a receiver with channel power gain2 (scalar or
    array, alpha broadcasting against it), the artificial noise acting as
    interference: gain2 alpha p1 / (sigma2 + gain2 (1-alpha) p1)."""
    return gain2 * alpha * p1 / (sigma2 + gain2 * (1.0 - alpha) * p1)


def relay_snrs(instance: NetworkInstance, p1, alpha) -> np.ndarray:
    """First-phase SNR at every relay, the artificial noise acting as
    interference."""
    return _phase1_sinr(relay_power_gains(instance), instance.sigma2, _per_relay(p1),
                        _per_relay(alpha))


def capacity_relay(instance: NetworkInstance, p1: float, alpha: float, i: int) -> float:
    """Capacity of relay i's first-phase reception; an SNR that is not
    finite raises NonFiniteSolution naming it."""
    with np.errstate(over="ignore", invalid="ignore"):
        snr = float(relay_snrs(instance, p1, alpha)[i])
    if not math.isfinite(snr):
        raise NonFiniteSolution(f"relay {i}'s SNR={snr!r} is not finite: it overflows a float")
    return 0.5 * math.log2(1.0 + snr)


def direct_sinr(instance: NetworkInstance, p1: float, alpha) -> float:
    """First-phase destination SINR on the direct link, artificial noise
    counted as interference."""
    return _phase1_sinr(np.square(np.abs(instance.h_sd)), instance.sigma2, p1, alpha)


@_kept
def combined_gains(instance: NetworkInstance) -> np.ndarray:
    """Length-(M+1) vector [h_sd, h_s1*h_1d, ..., h_sM*h_Md] of end-to-end
    gains seen by the second-phase weights."""
    return np.concatenate((_per_relay(instance.h_sd), instance.h_sr * instance.h_rd),
                          axis=-1)


@_kept
def noise_amp_diag(instance: NetworkInstance) -> np.ndarray:
    """Diagonal [0, |h_1d|^2, ...]: how relay weights amplify relay noise at
    the destination (the source's own weight forwards no receiver noise)."""
    gains = np.square(np.abs(instance.h_rd))
    return np.concatenate((np.zeros(gains.shape[:-1] + (1,)), gains), axis=-1)


def _dot(a: np.ndarray, b: np.ndarray):
    """Unconjugated sum over the trailing axis."""
    return np.einsum("...i,...i->...", a, b)


def beam_sinr(instance: NetworkInstance, p1: float, alpha, w: np.ndarray) -> float:
    """Second-phase destination SINR for weights w.

    alpha p1 |h^T w|^2 / (sigma2 (1 + sum_i |w_i|^2 |h_id|^2)).  The
    artificial noise does not appear: the source's second-phase signal cancels
    the forwarded copies exactly.
    """
    w = np.asarray(w, dtype=complex)
    b = _dot(combined_gains(instance), w)
    dh = noise_amp_diag(instance)
    return (alpha * p1 * np.square(np.abs(b))
            / (instance.sigma2 * (1.0 + np.sum(dh * np.square(np.abs(w)), axis=-1))))


def capacity_dest(instance: NetworkInstance, p1: float, alpha, w: np.ndarray) -> float:
    """Destination capacity with MRC over the direct phase-1 reception and the
    beamformed phase-2 reception."""
    return 0.5 * np.log2(1.0 + direct_sinr(instance, p1, alpha)
                         + beam_sinr(instance, p1, alpha, w))


def secrecy_rate(instance: NetworkInstance, p1: float, alpha: float, w: np.ndarray) -> float:
    """C_d minus the best relay's capacity; negative values mean no secrecy.

    The minimum of C_d - C_i over relays is attained at the strongest relay,
    so only that one is evaluated.  A destination or relay SNR that is not
    finite raises NonFiniteSolution naming the value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = strongest_relay(instance)
        c_d = float(capacity_dest(instance, p1, alpha, w))
    if not math.isfinite(c_d):
        raise NonFiniteSolution(f"C_d={c_d!r} is not finite: the destination SNR overflows a float")
    return c_d - capacity_relay(instance, p1, alpha, e)


def alpha_monotonicity_threshold(instance: NetworkInstance, p1: float) -> float:
    """Threshold on the normalized beam factor above which the secrecy rate is
    nondecreasing in alpha.

    With the full-power SNRs x_j = |h_sj|^2 p1/sigma2 (destination, strongest
    relay), it is (1 + x_d)(x_e - x_d)/(1 - x_e): the rho form (rho_d - rho_e)
    rho_d / ((rho_d - 1)^2 (rho_e - 2)) at rho_j = 1 + 1/x_j.  The predicate
    compares f(w) = |h^T w|^2 p1 / (sigma2 (1 + w' D_h w)) against it.  It is
    sufficient only for x_e < 1 (rho_e > 2, noisy relay link): no claim is made
    for x_e > 1, x_e = 1 is rejected outright, and a non-finite SNR raises
    NonFiniteSolution naming both.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x_d = float(direct_sinr(instance, p1, 1.0))
        x_e = float(np.max(relay_snrs(instance, p1, 1.0)))
    if not (math.isfinite(x_d) and math.isfinite(x_e)):
        raise NonFiniteSolution(f"the full-power SNRs x_d={x_d!r} and x_e={x_e!r} must be finite")
    if abs(1.0 - x_e) < SINGULAR_GUARD * x_e:
        raise SingularObservation(
            f"x_e = {x_e!r} is at the excluded value 1 (rho_e = 2); the threshold is undefined")
    return (1.0 + x_d) * (x_e - x_d) / (1.0 - x_e)


def secrecy_monotone_in_alpha(instance: NetworkInstance, p1: float, w: np.ndarray) -> bool:
    """True when the fixed-w beam factor clears alpha_monotonicity_threshold,
    i.e. the sufficient condition for d(secrecy)/d(alpha) >= 0 holds.  The
    beam factor f(w) is the beam SINR at alpha = 1; one that is not finite
    raises NonFiniteSolution naming it."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = float(beam_sinr(instance, p1, 1.0, w))
    if not math.isfinite(f):
        raise NonFiniteSolution(f"the beam factor f(w)={f!r} is not finite: it overflows a float")
    return f >= alpha_monotonicity_threshold(instance, p1)


@_kept
def cancellation_gains(instance: NetworkInstance) -> np.ndarray:
    """g_i = h_si h_id / h_sd: per-relay coefficient the source needs in its
    second-phase transmission so the forwarded artificial noise cancels."""
    return instance.h_sr * instance.h_rd / _per_relay(instance.h_sd)


def relay_input_powers(instance: NetworkInstance, p1) -> np.ndarray:
    """Expected received power at each relay, |h_si|^2 p1 + sigma2 — the factor
    a relay weight multiplies when spending transmit power."""
    return relay_power_gains(instance) * _per_relay(p1) + instance.sigma2


def second_phase_power(instance: NetworkInstance, p1: float, alpha,
                       w: np.ndarray) -> float:
    """Total transmit power spent in the second phase by source and relays.

    alpha p1 |w_0|^2 + (1-alpha) p1 |sum_i g_i w_i|^2
    + sum_i (|h_si|^2 p1 + sigma2) |w_i|^2, i.e. the quadratic form w' D w
    of D = blockdiag(alpha p1, diag(T) + (1-alpha) p1 conj(g) g^T) in O(M).
    """
    w = np.asarray(w, dtype=complex)
    relay_w = w[..., 1:]
    source = (alpha * p1 * np.square(np.abs(w[..., 0]))
              + (1.0 - alpha) * p1 * np.square(np.abs(_dot(cancellation_gains(instance), relay_w))))
    relays = np.sum(relay_input_powers(instance, p1) * np.square(np.abs(relay_w)), axis=-1)
    return source + relays


def solved_values(batch: NetworkInstance, p1, alpha: np.ndarray, w: np.ndarray,
                  errors: RowErrors, diagnostics) -> BeamSolution:
    """The BeamSolution of a solved stack, with each row's C_d and
    second-phase power: the tail both solvers share.  A row whose weights,
    C_d or second-phase power is not finite fails with NonFiniteSolution:
    its SNRs or powers overflow a float, so the row has no answer to report.
    Call under np.errstate(over="ignore", invalid="ignore")."""
    c_d = capacity_dest(batch, p1, alpha, w)
    power = second_phase_power(batch, p1, alpha, w)
    errors.fail(np.flatnonzero(~np.isfinite(w).all(axis=-1)), lambda i: NonFiniteSolution(
        "the weights are not finite: the inputs' powers overflow a float"))
    errors.fail(np.flatnonzero(~np.isfinite(c_d)), lambda i: NonFiniteSolution(
        f"C_d={float(c_d[i])!r}: the destination SNR overflows a float"))
    errors.fail(np.flatnonzero(~np.isfinite(power)), lambda i: NonFiniteSolution(
        f"second_phase_power={float(power[i])!r}: a relay's input power or weight "
        "overflows a float"))
    return BeamSolution(w=w, alpha=alpha, c_d=c_d, second_phase_power=power,
                        diagnostics=diagnostics, errors=tuple(errors.errors))


def derive_model(instance: NetworkInstance, p1: float, alpha: float) -> DerivedModel:
    """The dense references' input (dense_power_matrix, build_d_tilde) for one
    (instance, p1, alpha), or for every row of a stack of networks with p1 and
    alpha each a scalar or one value per row; the solvers read the kept arrays."""
    _check_rows(instance, p1, "p1")
    _check_rows(instance, alpha, "alpha")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return DerivedModel(
            alpha=alpha,
            p1=p1,
            h=combined_gains(instance),
            g=cancellation_gains(instance),
            d_h_diag=noise_amp_diag(instance),
            t_diag=relay_input_powers(instance, p1),
        )


def _check_rows(instance, value, name: str) -> None:
    """A per-row parameter is a scalar, or, for a stack of networks, holds
    exactly one value per row."""
    if not np.ndim(value):
        return
    if not np.ndim(instance.h_sd):
        raise ValueError(f"{name} must be a scalar for a single instance, "
                         f"got shape {np.shape(value)}")
    if np.shape(value) != (instance.n,):
        raise ValueError(f"{name} must be a scalar or hold one value per row "
                         f"({instance.n}), got shape {np.shape(value)}")


def resolve_alphas(batch: NetworkInstance, p1, gamma: Optional[float],
                   alpha) -> "tuple[np.ndarray, RowErrors]":
    """Pick the power split of every row of a batch, the one place a solve's
    alpha is judged: an explicit alpha (a scalar or one per row, as p1 is)
    wins, otherwise derive it from the relay SNR threshold gamma: exactly 1
    at gamma = the strongest relay's full-power SNR, and clipped at 1 where
    rounding puts it one ulp above.  Returns (alpha per row, every one in
    (0, 1], RowErrors): a row fails with InfeasibleThreshold when its
    strongest relay cannot reach gamma, and then carries alpha = 1.  A bad
    p1 or gamma (check_gamma), or an explicit alpha outside (0, 1], is a
    ValueError."""
    _check_rows(batch, p1, "p1")
    _check_rows(batch, alpha, "alpha")
    if not np.all((0.0 < np.asarray(p1)) & (np.asarray(p1) < math.inf)):
        raise ValueError(f"p1={p1!r} must be finite and positive")
    errors = RowErrors(batch.n)
    if alpha is not None:
        alphas = np.broadcast_to(np.asarray(alpha, dtype=float), (batch.n,)).copy()
        bad = np.flatnonzero(~((0.0 < alphas) & (alphas <= 1.0)))
        if bad.size:
            raise ValueError(f"alpha={float(alphas[bad[0]])!r} at row {bad[0]} outside (0, 1]")
        return alphas, errors
    if gamma is None:
        raise ValueError("either alpha or gamma must be given")
    check_gamma(gamma)
    if batch.m == 0:
        raise ValueError("instance has no relays: gamma, a relay SNR threshold, needs one")
    gain2 = np.max(relay_power_gains(batch), axis=-1)
    # a zero gain gives alpha = inf, but its ceiling 0 < gamma marks it infeasible
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ceiling = gain2 * p1 / batch.sigma2
        alphas = (1.0 + batch.sigma2 / (gain2 * p1)) / (1.0 + 1.0 / gamma)
    errors.fail(np.flatnonzero(gamma > ceiling), lambda i: InfeasibleThreshold(
        f"gamma={float(gamma)!r} exceeds the strongest relay's full-power SNR "
        f"{float(ceiling[i])!r}; no alpha <= 1 can reach it"))
    return np.where(gamma >= ceiling, 1.0, np.minimum(alphas, 1.0)), errors


# ---------------------------------------------------------------------------
# Signal-level propagation: one symbol or an array of them (see SignalRealization)

def check_signal_inputs(instance: NetworkInstance, p1: float, alpha: float,
                        w: np.ndarray) -> np.ndarray:
    """w as a complex array, after the checks every signal-level check makes:
    a bad p1, alpha (outside [0, 1]: both ends of the split propagate) or w
    is a ValueError naming it.  w must hold the M+1 finite weights."""
    _check_rows(instance, p1, "p1")
    _check_rows(instance, alpha, "alpha")
    if not 0.0 < p1 < math.inf:
        raise ValueError(f"p1={p1!r} must be finite and positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha!r} outside [0, 1]")
    w = np.asarray(w, dtype=complex)
    if w.shape != (instance.m + 1,):
        raise ValueError(f"w must hold M+1 = {instance.m + 1} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"w must be finite, got {w!r}")
    return w


def first_phase_tx(p1: float, alpha: float, realization: SignalRealization):
    """Source's phase-1 signal: message plus artificial noise."""
    return (math.sqrt(alpha * p1) * realization.x
            + math.sqrt((1.0 - alpha) * p1) * realization.u)


def second_phase_source_tx(instance: NetworkInstance, p1: float, alpha: float,
                           w: np.ndarray, realization: SignalRealization):
    """Source's phase-2 signal: its own beam share of the message minus the
    term that cancels the relays' forwarded artificial noise."""
    cancel = np.dot(cancellation_gains(instance), np.asarray(w, dtype=complex)[1:])
    return (math.sqrt(alpha * p1) * w[0] * realization.x
            - math.sqrt((1.0 - alpha) * p1) * cancel * realization.u)


def destination_phase2_rx(instance: NetworkInstance, p1: float, alpha: float,
                          w: np.ndarray, realization: SignalRealization):
    """Destination's phase-2 reception: direct path from the source plus every
    relay forwarding its noisy phase-1 reception, plus local noise z[..., -1]."""
    w = np.asarray(w, dtype=complex)
    s1 = first_phase_tx(p1, alpha, realization)
    relay_rx = instance.h_sr * _per_relay(s1) + realization.z[..., :instance.m]
    relay_contrib = np.dot(w[1:] * relay_rx, instance.h_rd)
    direct = instance.h_sd * second_phase_source_tx(instance, p1, alpha, w, realization)
    return direct + relay_contrib + realization.z[..., -1]


def simulate_noise_residual(instance: NetworkInstance, p1: float, alpha: float,
                            w: np.ndarray, realization: SignalRealization) -> complex:
    """Coefficient multiplying the artificial-noise symbol u in the
    destination's phase-2 reception, measured by actually propagating the
    realization through both phases.

    By construction the relays' forwarded noise and the source's cancellation
    term are equal and opposite, so the result is zero up to floating
    rounding.  The reception is affine in u, so the coefficient is the
    propagated reception at u = 1 minus the one at u = 0, both with the
    realization's x and z: genuine cancellation error shows up rather than an
    algebraic identity, whatever the realization's own u.
    """
    w = check_signal_inputs(instance, p1, alpha, w)
    if np.shape(realization.z)[-1:] != (instance.m + 1,):
        raise ValueError(f"z must be M+1 = {instance.m + 1} wide, "
                         f"got shape {np.shape(realization.z)}")
    unit = SignalRealization(x=realization.x, u=1.0, z=realization.z)
    zeroed = SignalRealization(x=realization.x, u=0.0, z=realization.z)
    return complex(destination_phase2_rx(instance, p1, alpha, w, unit)
                   - destination_phase2_rx(instance, p1, alpha, w, zeroed))


def noise_residual_scale(instance: NetworkInstance, p1: float, alpha: float,
                         w: np.ndarray) -> float:
    """Natural magnitude scale of the two cancelling u-terms, for judging a
    residual 'small': sqrt((1-alpha) p1) sum_i |w_i h_si h_id|.  A scale
    that is not finite raises NonFiniteSolution naming it."""
    w = check_signal_inputs(instance, p1, alpha, w)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(math.sqrt((1.0 - alpha) * p1)
                      * np.sum(np.abs(w[1:] * combined_gains(instance)[1:])))
    if not math.isfinite(scale):
        raise NonFiniteSolution(f"the noise residual scale={scale!r} is not finite: "
                                "it overflows a float")
    return scale

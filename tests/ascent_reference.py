"""The dense per-coordinate ascent that oracle_total used to run, kept as the
independent reference for its O(1) trial scores, and two bit-exact
references for oracle_total's faster arithmetic.

Each coordinate stacks its four trials w + s e_k, s in (step, -step,
j step, -j step), into a (4, M+1) array, finds their powers with a
three-operand einsum over the dense D, rescales them onto the boundary and
scores them with the batch evaluator _cd_evaluator.  The sampling stage
finds the sample powers with the same einsum.

one_array_scan scores all boundary samples as one array, with the zgemm and
einsum oracle_total applies to each block of them, and complex_step_score
scores one trial by rank-one updates in complex arithmetic: oracle_total's
blocked scan and its one-pass real step scores must match them to the bit.
"""

import math
from typing import Callable, Tuple

import numpy as np

from anbeam.model import combined_gains, derive_model, direct_sinr, noise_amp_diag
from anbeam.oracles import _cd_evaluator, _oracle_rng
from anbeam.total_solver import dense_power_matrix, solve_total
from anbeam.types import NetworkInstance, SystemParams


def _projected_ascent(cd: Callable[[np.ndarray], np.ndarray], d: np.ndarray, p_tot: float,
                      w0: np.ndarray, max_sweeps: int,
                      min_step: float) -> Tuple[float, np.ndarray, int]:
    """Greedy coordinate ascent of the C_d evaluator cd on the power boundary
    w' D w = p_tot."""
    w = w0.copy()
    best = float(cd(w[None, :])[0])
    evals = 1
    step = 0.3
    sweeps = 0
    trial = np.empty((4, len(w)), dtype=complex)  # w with one coordinate stepped 4 ways
    while step > min_step and sweeps < max_sweeps:
        sweeps += 1
        improved = False
        steps = np.array([step, -step, 1j * step, -1j * step])
        for k in range(len(w)):
            trial[:] = w
            trial[:, k] += steps
            power = np.real(np.einsum("ni,ij,nj->n", np.conj(trial), d, trial))
            if power.min() > 0:
                scaled = trial * np.sqrt(p_tot / power)[:, None]
            else:
                ok = power > 0
                if not ok.any():
                    continue
                scaled = trial[ok] * np.sqrt(p_tot / power[ok])[:, None]
            values = cd(scaled)
            evals += len(values)
            j = int(np.argmax(values))
            if values[j] > best:
                best, w, improved = float(values[j]), scaled[j], True
        if not improved:
            step *= 0.5
    return best, w, evals


def ascent_reference(instance: NetworkInstance, params: SystemParams, n_samples: int, *,
                     seed: int, ascent_sweeps: int,
                     ascent_min_step: float) -> Tuple[float, int]:
    """(oracle_value, samples_or_evals) of oracle_total on the same oracle
    stream, through the dense sampling stage and ascent."""
    a = solve_total(instance, params).alpha
    d = dense_power_matrix(derive_model(instance, params.p1, a))
    p_tot = params.budget.p_tot
    rng = _oracle_rng(seed, 0)
    m1 = instance.m + 1
    w = rng.normal(size=(n_samples, m1)) + 1j * rng.normal(size=(n_samples, m1))
    power = np.real(np.einsum("ni,ij,nj->n", np.conj(w), d, w))
    w *= np.sqrt(p_tot / power)[:, None]
    cd = _cd_evaluator(instance, params.p1, a)
    best_w = w[int(np.argmax(cd(w)))]
    best, _, evals = _projected_ascent(cd, d, p_tot, best_w, max_sweeps=ascent_sweeps,
                                       min_step=ascent_min_step)
    return best, n_samples + evals


def one_array_scan(d: np.ndarray, cd: Callable[[np.ndarray], np.ndarray], p_tot: float,
                   n_samples: int, m1: int, seed: int) -> Tuple[int, np.ndarray]:
    """(index, row) of the best of oracle_total's n_samples boundary samples
    on the (seed, 0) oracle stream, scored all at once: one zgemm and einsum
    for the powers, one np.argmax."""
    rng = _oracle_rng(seed, 0)
    w = rng.normal(size=(n_samples, m1)) + 1j * rng.normal(size=(n_samples, m1))
    power = np.real(np.einsum("ni,ni->n", np.conj(w), w @ d.T))
    w *= np.sqrt(p_tot / power)[:, None]
    j = int(np.argmax(cd(w)))
    return j, w[j]


def complex_step_score(instance: NetworkInstance, p1: float, alpha: float, d: np.ndarray,
                       p_tot: float, w: np.ndarray, k: int, s: complex):
    """(power, C_d) of w + s e_k rescaled onto w'Dw = p_tot, or None at power
    <= 0: the quadratic forms of w are computed densely, then moved by s in
    complex arithmetic (w'Dw by 2 Re(conj(s) (Dw)_k) + |s|^2 D_kk, h^T w by
    s h_k, the noise term by (2 Re(conj(w_k) s) + |s|^2) d_h,k)."""
    h, d_h = combined_gains(instance), noise_amp_diag(instance)
    dw = d @ w
    power = float(np.vdot(w, dw).real)
    b = complex(h @ w)
    n = float(np.abs(w) ** 2 @ d_h)
    s2 = abs(s) ** 2
    power += 2.0 * (s.conjugate() * complex(dw[k])).real + s2 * float(d[k, k].real)
    if not power > 0.0:
        return None
    b += s * complex(h[k])
    n += (2.0 * (complex(w[k]).conjugate() * s).real + s2) * float(d_h[k])
    direct = float(direct_sinr(instance, p1, alpha))
    snr = float(alpha * p1 / instance.sigma2)
    return power, 0.5 * math.log2(1.0 + direct + snr * abs(b) ** 2 / (power / p_tot + n))

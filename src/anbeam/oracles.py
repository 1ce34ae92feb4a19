"""Independent numerical verifiers for the analytic solvers.

Everything here is deliberately brute-force: random sampling plus projected
coordinate ascent for the total-budget problem, dense grids for small
individually-constrained problems, one dense LU solve for the rank-1 eigen
identity, and signal-level Monte Carlo for the SNR formulas.  Oracles are
slow by design and never used in the production solve path.  The
total-budget oracle draws all its normals at once but scores the boundary
samples SAMPLE_BLOCK rows at a time, so its complex samples and their
temporaries never take more than SAMPLE_BLOCK rows, and it keeps the sample
one scan over all rows would pick.  The ascent scores the four steps of each
coordinate in one O(1) pass by rank-one updates of the dense quadratic
forms, in real arithmetic that rounds as the complex updates do, and
recomputes the forms from w after each accepted step.  No oracle or
validate suite calls golden_section: the acceptance gate and the magnitude
tests check the closed-form r* and the quartic's root against it.

Oracle randomness lives in its own seed namespace so oracle draws can never
collide with experiment-harness draws.  Every oracle runs in the calling
thread.  The signal Monte Carlo's estimates are sums of squared linear forms
of n_symbols iid symbol vectors, so they depend on the symbols' 2M+8 real
normals only through the Gram matrix R = sum r r^T.  That matrix has the
Wishart(n_symbols, I) law, and it is drawn directly through its Bartlett
factor (chi-square diagonal, standard normals below it): the estimates have
the distribution of propagating n_symbols drawn symbols, at O(M^2) cost
instead of O(n_symbols * M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import OracleEvalError
from .individual_solver import solve_individual
from .model import (check_signal_inputs, combined_gains, derive_model, destination_phase2_rx,
                    direct_sinr, noise_amp_diag)
from .serialization import _integer
from .total_solver import dense_power_matrix, solve_total
from .types import (IndividualBudget, NetworkInstance, SignalRealization, SystemParams,
                    TotalBudget, _frozen_array, _set)

# Seed-sequence entropy tag for all oracle RNG streams.
ORACLE_NAMESPACE = 0xC0FFEE

# Rows of boundary samples oracle_total scores at once, so that a block's
# complex samples and temporaries stay within a few hundred KiB at M <= 8.
# Every block size picks the same sample.
SAMPLE_BLOCK = 2048


def _oracle_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(ORACLE_NAMESPACE,
                                                        spawn_key=(seed, *key)))


@dataclass(frozen=True)
class OracleReport:
    """Comparison of an analytic solution against a brute-force verifier.

    gap = analytic_value - oracle_value; for maximization problems a gap
    below -tolerance means the closed form lost to brute force, which is the
    failure the oracles exist to catch.
    """

    analytic_value: float
    oracle_value: float
    gap: float
    argmax_distance: float
    samples_or_evals: int


@dataclass(frozen=True)
class GoldenResult:
    x: float
    value: float
    iterations: int
    evals: int


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-10) -> GoldenResult:
    """Golden-section maximization of a unimodal f on [lo, hi].

    The bracket shrinks by the golden ratio each iteration, so the iteration
    count is ~ log((hi-lo)/tol) / log(1/invphi), at most 200.  For
    non-unimodal f the result is still the best of the interior search and
    both endpoints.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")

    evals = 0

    def fx(x: float) -> float:
        nonlocal evals
        evals += 1
        v = f(x)
        if math.isnan(v):
            raise OracleEvalError(f"objective returned NaN at {x!r}")
        return v

    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fx(c), fx(d)
    iterations = 0
    while (b - a) > tol and iterations < 200:
        iterations += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fx(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fx(d)
    candidates = [(0.5 * (a + b), fx(0.5 * (a + b))), (lo, fx(lo)), (hi, fx(hi))]
    x, value = max(candidates, key=lambda t: t[1])
    return GoldenResult(float(x), float(value), iterations, evals)


# ---------------------------------------------------------------------------
# Total-budget oracle: random boundary sampling + projected coordinate ascent


def _cd_evaluator(instance: NetworkInstance, p1: float, alpha: float,
                  ) -> Callable[[np.ndarray], np.ndarray]:
    """capacity_dest for batches of weight vectors (rows of w_batch), as a
    function of the batch; the gains and the direct SINR are computed once."""
    h = combined_gains(instance)
    d_h = noise_amp_diag(instance)
    direct = direct_sinr(instance, p1, alpha)
    gain = alpha * p1

    def values(w_batch: np.ndarray) -> np.ndarray:
        b = w_batch @ h
        den = 1.0 + np.abs(w_batch) ** 2 @ d_h
        snr2 = gain * np.abs(b) ** 2 / (instance.sigma2 * den)
        return 0.5 * np.log2(1.0 + direct + snr2)

    return values


def _step_scorer(instance: NetworkInstance, p1: float, alpha: float, d: np.ndarray,
                 p_tot: float) -> Tuple[Callable, Callable]:
    """refresh(w) -> (state, C_d(w)), the state (w, Dw, w'Dw, h^T w,
    sum_i |w_i|^2 d_h,i) computed densely; scores(state, k, step) -> the four
    trials w + s e_k, s in (step, -step, i step, -i step), each as its power
    and its C_d rescaled onto w'Dw = p_tot (None at power <= 0), in one O(1)
    pass.  w'Dw moves by 2 Re(conj(s) (Dw)_k) + |s|^2 D_kk, h^T w by s h_k and
    the noise term by (2 Re(conj(w_k) s) + |s|^2) d_h,k.  Re(conj(s) z) is
    +-step Re z at s = +-step and +-step Im z at s = +-i step, and |s|^2 is
    step**2: each real product rounds to the bits of its complex form."""
    h, d_h = combined_gains(instance), noise_amp_diag(instance)
    h_k, dh_k, d_kk = h.tolist(), d_h.tolist(), np.real(np.diag(d)).tolist()
    base = 1.0 + float(direct_sinr(instance, p1, alpha))
    snr = float(alpha * p1 / instance.sigma2)
    log2 = math.log2

    def scores(state, k, step):
        w, dw, power, b, n = state
        step2 = step ** 2
        grow, dh = step2 * d_kk[k], dh_k[k]
        p_re, p_im = 2.0 * (step * dw[k].real), 2.0 * (step * dw[k].imag)
        n_re, n_im = 2.0 * (w[k].real * step), 2.0 * (w[k].imag * step)
        b_re = step * h_k[k]  # s h_k at s = step, and 1j * b_re at s = i step
        b_im = 1j * b_re
        pa, pb, pc, pd = (power + (p_re + grow), power + (grow - p_re),
                          power + (p_im + grow), power + (grow - p_im))
        na, nb, nc, nd = (n + (n_re + step2) * dh, n + (step2 - n_re) * dh,
                          n + (n_im + step2) * dh, n + (step2 - n_im) * dh)
        # c^2 |b|^2 / (1 + c^2 n) with c^2 = p_tot/power
        return ((pa, 0.5 * log2(base + snr * abs(b + b_re) ** 2 / (pa / p_tot + na)))
                if pa > 0.0 else None,
                (pb, 0.5 * log2(base + snr * abs(b - b_re) ** 2 / (pb / p_tot + nb)))
                if pb > 0.0 else None,
                (pc, 0.5 * log2(base + snr * abs(b + b_im) ** 2 / (pc / p_tot + nc)))
                if pc > 0.0 else None,
                (pd, 0.5 * log2(base + snr * abs(b - b_im) ** 2 / (pd / p_tot + nd)))
                if pd > 0.0 else None)

    def refresh(w):
        dw = d @ w
        state = (w.tolist(), dw.tolist(), float(np.vdot(w, dw).real), complex(h @ w),
                 float(np.abs(w) ** 2 @ d_h))
        return state, scores(state, 0, 0.0)[0][1]  # the zero step scores w itself

    return refresh, scores


def _projected_ascent(refresh: Callable, scores: Callable, p_tot: float, w0: np.ndarray,
                      max_sweeps: int, min_step: float) -> Tuple[float, np.ndarray, int]:
    """Greedy coordinate ascent of C_d on the power boundary w'Dw = p_tot,
    scored by _step_scorer's refresh and scores; the state is refreshed from
    w after each move, so rounding does not accumulate."""
    w = w0
    state, best = refresh(w)
    evals = 1
    step = 0.3
    sweeps = 0
    while step > min_step and sweeps < max_sweeps:
        sweeps += 1
        improved = False
        steps = (step, -step, 1j * step, -1j * step)
        for k in range(len(w)):
            top, move = best, None
            for s, scored in zip(steps, scores(state, k, step)):
                if scored is not None:
                    evals += 1
                    if scored[1] > top:
                        top, move = scored[1], (s, scored[0])
            if move is not None:
                w = w.copy()
                w[k] += move[0]
                w *= math.sqrt(p_tot / move[1])
                state, best = refresh(w)
                improved = True
        if not improved:
            step *= 0.5
    return best, w, evals


def _best_sample(re: np.ndarray, im: np.ndarray, d: np.ndarray, p_tot: float,
                 cd: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The sample w = re + 1j im, rescaled onto w'Dw = p_tot, that
    np.argmax(cd(w)) picks over all rows: the first maximum, or the first
    NaN.  The rows are scored SAMPLE_BLOCK at a time, so the complex samples
    and the temporaries never take more than SAMPLE_BLOCK rows."""
    best, best_w = math.nan, None
    for start in range(0, len(re), SAMPLE_BLOCK):
        rows = slice(start, start + SAMPLE_BLOCK)
        w = np.stack((re[rows], im[rows]), -1).view(complex)[..., 0]
        # one zgemm: row n of w D^T is D w_n
        power = np.real(np.einsum("ni,ni->n", np.conj(w), w @ d.T))
        w *= np.sqrt(p_tot / power)[:, None]
        values = cd(w)
        j = int(np.argmax(values))
        # a later block wins only with a strictly larger value, or with the
        # first NaN, as np.argmax over all rows would pick
        if best_w is None or not (math.isnan(best) or values[j] <= best):
            best, best_w = float(values[j]), w[j]
    return best_w


def oracle_total(instance: NetworkInstance, params: SystemParams,
                 n_samples: int, *, alpha: Optional[float] = None,
                 seed: int = 0, ascent_sweeps: int = 200,
                 ascent_min_step: float = 1e-7) -> OracleReport:
    """Brute-force check of solve_total: sample n_samples directions on the
    power boundary from the (seed, 0) oracle stream, refine the best by
    projected coordinate ascent, compare C_d values.  An n_samples that is not
    an integer of at least 1 is a ValueError naming it."""
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not isinstance(params.budget, TotalBudget):
        raise TypeError("oracle_total requires a TotalBudget")
    solution = solve_total(instance, params, alpha=alpha)
    a = solution.alpha
    derived = derive_model(instance, params.p1, a)
    d = dense_power_matrix(derived)
    p_tot = params.budget.p_tot

    rng = _oracle_rng(seed, 0)
    shape = (n_samples, instance.m + 1)
    re, im = rng.normal(size=shape), rng.normal(size=shape)
    best_w = _best_sample(re, im, d, p_tot, _cd_evaluator(instance, params.p1, a))
    refresh, scores = _step_scorer(instance, params.p1, a, d, p_tot)
    best_cd, best_w, ascent_evals = _projected_ascent(
        refresh, scores, p_tot, best_w, max_sweeps=ascent_sweeps, min_step=ascent_min_step)

    # weights are compared up to the global phase the objective ignores
    cross = abs(np.vdot(solution.w, best_w))
    dist = math.sqrt(max(
        float(np.vdot(best_w, best_w).real + np.vdot(solution.w, solution.w).real)
        - 2.0 * cross, 0.0))
    return OracleReport(
        analytic_value=solution.c_d,
        oracle_value=best_cd,
        gap=solution.c_d - best_cd,
        argmax_distance=dist,
        samples_or_evals=n_samples + ascent_evals,
    )


def power_iteration_rank1(d_tilde: np.ndarray, h_bar: np.ndarray) -> Tuple[float, int]:
    """Dominant eigenvalue of D_tilde^{-1} h_bar h_bar', and the number of
    operator applications (always 1).

    The operator has rank one, so its only nonzero eigenvalue is
    h_bar' D_tilde^{-1} h_bar, with eigenvector D_tilde^{-1} h_bar: one dense
    LU solve gives it.  It should match the Rayleigh value of the
    closed-form solve.  A D_tilde that np.linalg.solve finds singular raises
    OracleEvalError; at |h_sd| many decades below the relay gains, which the
    solvers accept, LU does find it singular.
    """
    try:
        y = np.linalg.solve(d_tilde, h_bar)
    except np.linalg.LinAlgError as err:
        raise OracleEvalError(f"D_tilde is singular in double precision ({err})") from err
    return float(np.real(np.vdot(h_bar, y))), 1


# ---------------------------------------------------------------------------
# Individual-budget oracle: dense grid with local refinement

_GRID_MAX_RELAYS = 3


def oracle_individual_grid(instance: NetworkInstance, params: SystemParams,
                           *, alpha: Optional[float] = None) -> OracleReport:
    """Brute-force check of solve_individual on the box of relay amplitudes.

    Exhaustive grid over [0, u_max,1] x ... x [0, u_max,M] with the source
    amplitude taken from power equality wherever feasible, then repeated
    zoom-in refinement around the best cell until the cell size drops below
    1e-3 of the search box.  Each axis is pre-clipped at the source-budget
    feasibility bound sqrt(eta1/eta2)/c_i so that generous relay caps do not
    inflate the box.  Guarded to M <= 3.  The caps u_max,i =
    |h_id| sqrt(p_i / (|h_si|^2 p1 + sigma2)), eta1 = p_s/(alpha p1) and
    eta2 = (1-alpha)/(alpha |h_sd|^2) are formed here, in channel units,
    from the channels and the budget, not taken from the solver.

    The oracle value is 0.5 log2(1 + direct SINR + alpha p1 / sigma2 psi*) for
    the grid's best psi* of psi(u) = (c1 u1 + c2 . u)^2 / (1 + |u|^2): the
    capacity with every beam term phase-aligned, which is optimal (README,
    Limitations).  It uses neither the solver's phases nor capacity_dest.
    """
    m = instance.m
    if m > _GRID_MAX_RELAYS:
        raise ValueError(f"instance has {m} relays: the grid oracle takes M <= {_GRID_MAX_RELAYS}")
    if not isinstance(params.budget, IndividualBudget):
        raise TypeError("oracle_individual_grid requires an IndividualBudget")
    solution = solve_individual(instance, params, alpha=alpha)
    a, p1, budget = solution.alpha, params.p1, params.budget
    c1, c2 = np.abs(instance.h_sd), np.abs(instance.h_sr)
    u_max = (np.abs(instance.h_rd) * np.sqrt(budget.p_i)
             / np.sqrt(c2 ** 2 * p1 + instance.sigma2))
    eta1, eta2 = budget.p_s / (a * p1), (1.0 - a) / (a * c1 ** 2)

    def batch_value(u_batch: np.ndarray) -> np.ndarray:
        total = u_batch @ c2
        rad = eta1 - eta2 * total ** 2
        feasible = rad >= 0
        u1 = np.sqrt(np.where(feasible, rad, 0.0))
        value = (c1 * u1 + total) ** 2 / (1.0 + np.sum(u_batch ** 2, axis=1))
        value[~feasible] = -np.inf
        return value

    u_analytic = np.abs(np.asarray(solution.w)[1:]) * np.abs(instance.h_rd)

    lo = np.zeros(m)
    hi = u_max.copy()
    if eta2 > 0:
        # beyond this the source has no power left for the message at all
        feas = math.sqrt(max(eta1, 0.0) / eta2) * (1.0 + 1e-9)
        positive = c2 > 0
        hi[positive] = np.minimum(hi[positive], feas / c2[positive])
    target = 1e-3 * max(float(np.max(hi, initial=0.0)), 1e-12)
    n = 41 if m >= 3 else 61
    evals = 0
    for _ in range(12):
        axes = [np.linspace(lo[i], hi[i], n) if hi[i] > lo[i] else np.array([lo[i]])
                for i in range(m)]
        mesh = np.meshgrid(*axes, indexing="ij")
        u_batch = np.stack([g.ravel() for g in mesh], axis=1) if m else np.zeros((1, 0))
        values = batch_value(u_batch)
        evals += len(values)
        best = int(np.argmax(values))
        best_u, best_psi = u_batch[best], float(values[best])
        span = np.array([(hi[i] - lo[i]) / (len(axes[i]) - 1) if len(axes[i]) > 1 else 0.0
                         for i in range(m)])
        if float(np.max(span, initial=0.0)) <= target:
            break
        lo = np.clip(best_u - 1.5 * span, 0.0, u_max)
        hi = np.clip(best_u + 1.5 * span, 0.0, u_max)
        n = 21
    oracle_cd = 0.5 * math.log2(1.0 + direct_sinr(instance, p1, a)
                                + a * p1 / instance.sigma2 * best_psi)

    return OracleReport(
        analytic_value=solution.c_d,
        oracle_value=oracle_cd,
        gap=solution.c_d - oracle_cd,
        argmax_distance=float(np.linalg.norm(best_u - u_analytic)),
        samples_or_evals=evals,
    )


# ---------------------------------------------------------------------------
# Signal-level Monte Carlo


@dataclass(frozen=True)
class EmpiricalSnr:
    """Sample-average SINRs of n_symbols random symbols sent through both
    phases; u_leak_power is the measured artificial-noise power reaching the
    destination in phase 2 (should sit at the numerical floor)."""

    direct: float
    beam: float
    relays: np.ndarray
    u_leak_power: float
    n_symbols: int

    def __post_init__(self):
        for name in ("direct", "beam", "u_leak_power"):
            _set(self, name, float(getattr(self, name)))
        _set(self, "relays", _frozen_array(self.relays, float))


def _normal_gram(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """The real Gram matrix sum r r^T of n iid N(0, I_d) vectors r, drawn from
    its Wishart(n, I_d) law: A A^T for the lower-triangular Bartlett factor A
    with sqrt(chi-square(n - i)) at (i, i) and standard normals below the
    diagonal (Bartlett 1933; Anderson, An Introduction to Multivariate
    Statistical Analysis, ch. 7).  Needs n >= d."""
    a = np.zeros((d, d))
    a[np.diag_indices(d)] = np.sqrt(rng.chisquare(n - np.arange(d)))
    a[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
    return a @ a.T


def empirical_snr(instance: NetworkInstance, p1: float, alpha: float,
                  w: np.ndarray, n_symbols: int, seed: int = 0) -> EmpiricalSnr:
    """Monte Carlo estimate of the direct, beam and per-relay SINRs.

    Each symbol draws x, u ~ CN(0,1) and receiver noises ~ CN(0, sigma2):
    relay noises, the destination's phase-1 noise and its phase-2 noise.
    Every estimate is a sum over the n_symbols symbols of |c . v|^2 for a
    fixed coefficient row c over v = (x, u, z_1..z_M, z_d1, z_d2), and v is
    a scaled (re + 1j im) of the symbol's 2M+8 iid standard normals r, laid
    out as the real parts of v's entries, then their imaginary parts.  So
    every estimate is the quadratic form of its row, mapped onto the
    normals, with the real Gram matrix R = sum r r^T.  For iid N(0, I)
    vectors R is exactly Wishart(n_symbols, I), so R is drawn from that law
    (_normal_gram, from the (seed, 0xE) oracle stream) instead of from
    n_symbols propagated symbols: the estimates have the same distribution,
    and n_symbols must be at least 2M+8.  The phase-2 reception's row is
    read off one model.destination_phase2_rx call on the M+4 basis
    symbols; the leak row is that row minus the beam and noise rows.
    Estimates are ratios of sample-mean powers; their relative error is
    ~ sqrt(2 / n_symbols).
    """
    if n_symbols < 10_000:
        raise ValueError("n_symbols must be >= 10^4 for meaningful estimates")
    m = instance.m
    per_symbol = 2 * m + 8
    if n_symbols < per_symbol:
        raise ValueError(f"n_symbols must be >= 2M+8 = {per_symbol} for M = {m} relays "
                         f"(the Wishart draw needs as many degrees of freedom), "
                         f"got {n_symbols}")
    w = check_signal_inputs(instance, p1, alpha, w)
    amp_x = math.sqrt(alpha * p1)
    amp_u = math.sqrt((1.0 - alpha) * p1)

    # rows over v: relay signals, relay interferences, direct signal, direct
    # interference, beam signal, beam noise, artificial-noise leak
    basis = np.eye(m + 4, dtype=complex)
    y2 = destination_phase2_rx(instance, p1, alpha, w, SignalRealization(
        x=basis[0], u=basis[1], z=basis[:, np.r_[2:m + 2, m + 3]]))
    rows = np.zeros((2 * m + 5, m + 4), dtype=complex)
    rows[:m, 0] = amp_x * instance.h_sr
    rows[m:2 * m, 1] = amp_u * instance.h_sr
    rows[m:2 * m, 2:m + 2] = np.eye(m)
    rows[2 * m, 0] = amp_x * instance.h_sd
    rows[2 * m + 1, [1, m + 2]] = amp_u * instance.h_sd, 1.0
    rows[2 * m + 2, 0] = amp_x * np.dot(combined_gains(instance), w)
    rows[2 * m + 3, 2:] = np.r_[w[1:] * instance.h_rd, 0.0, 1.0]
    rows[2 * m + 4] = y2 - rows[2 * m + 2] - rows[2 * m + 3]
    # each v entry is scale * (re + 1j im) of two normals: v's real parts,
    # then its imaginary parts
    noise_sd = math.sqrt(instance.sigma2 / 2.0)
    scaled = rows * np.r_[math.sqrt(0.5), math.sqrt(0.5), np.full(m + 2, noise_sd)]
    coeffs = np.hstack([scaled, 1j * scaled])

    gram = _normal_gram(_oracle_rng(seed, 0xE), per_symbol, n_symbols)
    sums = np.einsum("ki,ij,kj->k", coeffs, gram, coeffs.conj()).real
    direct_sig, direct_int, beam_sig, beam_noise, leak = sums[2 * m:]
    return EmpiricalSnr(
        direct=direct_sig / direct_int,
        beam=beam_sig / beam_noise,
        relays=sums[:m] / sums[m:2 * m],
        u_leak_power=leak / n_symbols,
        n_symbols=n_symbols,
    )

"""The verifiers themselves: golden section, sampling/ascent, grid search,
power iteration and the signal-level Monte Carlo."""

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from anbeam import individual_solver, model, oracles
from anbeam.errors import OracleEvalError
from anbeam.individual_solver import solve_individual
from anbeam.model import (
    alpha_for_threshold,
    capacity_dest,
    combined_gains,
    derive_model,
    destination_phase2_rx,
    direct_sinr,
    noise_residual_scale,
    relay_snrs,
    simulate_noise_residual,
    strongest_relay,
)
from anbeam.oracles import (
    ORACLE_NAMESPACE,
    OracleReport,
    empirical_snr,
    golden_section,
    oracle_individual_grid,
    oracle_total,
    power_iteration_rank1,
)
from anbeam.total_solver import build_d_tilde, dense_power_matrix, solve_total
from anbeam.types import (IndividualBudget, NetworkInstance, SignalRealization, SystemParams,
                          TotalBudget)
from ascent_reference import ascent_reference, complex_step_score, one_array_scan
from conftest import make_instance, random_weights


def _gamma_for(inst, p1, frac=0.5):
    e = strongest_relay(inst)
    return frac * abs(inst.h_sr[e]) ** 2 * p1 / inst.sigma2


# ---------------------------------------------------------------------------
# golden section


def test_golden_parabola():
    res = golden_section(lambda r: -(r - 1.0) ** 2, 0.0, 2.0, tol=1e-10)
    assert res.x == pytest.approx(1.0, abs=1e-7)
    assert res.value == pytest.approx(0.0, abs=1e-14)


def test_golden_constant_function():
    res = golden_section(lambda r: 2.5, 0.0, 1.0, tol=1e-8)
    assert res.value == 2.5
    assert 0.0 <= res.x <= 1.0


def test_golden_iteration_count_tracks_bracket_shrink():
    res = golden_section(lambda r: -(r - 0.3) ** 2, 0.0, 1.0, tol=1e-9)
    predicted = math.log(1.0 / 1e-9) / math.log(1.0 / ((math.sqrt(5) - 1) / 2))
    assert abs(res.iterations - predicted) <= 3


def test_golden_returns_best_endpoint_for_monotone_function():
    res = golden_section(lambda r: r, 0.0, 4.0, tol=1e-9)
    assert res.x == pytest.approx(4.0, abs=1e-6)
    assert res.value == pytest.approx(4.0, abs=1e-6)


def test_golden_worked_magnitude_example():
    def f(r):
        rad = 1.0 - r * r
        return -np.inf if rad < 0 else (r + math.sqrt(rad)) ** 2 / (1 + r * r)

    res = golden_section(f, 0.0, 1.0, tol=1e-12)
    assert res.x == pytest.approx(1 / math.sqrt(5), abs=1e-7)
    assert res.value == pytest.approx(1.5, abs=1e-12)


def test_golden_rejects_nan():
    with pytest.raises(OracleEvalError):
        golden_section(lambda r: float("nan"), 0.0, 1.0)


def test_golden_rejects_bad_bracket():
    with pytest.raises(ValueError):
        golden_section(lambda r: r, 1.0, 1.0)


# ---------------------------------------------------------------------------
# total-budget oracle


def test_oracle_total_analytic_wins_m1(rng):
    inst = make_instance(rng, 1)
    p1 = 3.0
    params = SystemParams(p1, _gamma_for(inst, p1), TotalBudget(4.0))
    report = oracle_total(inst, params, 100_000, seed=11)
    assert report.gap >= -1e-6
    assert report.samples_or_evals >= 100_000


def test_oracle_total_exact_without_relays():
    inst = NetworkInstance(h_sd=0.8 - 0.6j, h_sr=[], h_rd=[], sigma2=1.0)
    params = SystemParams(2.0, None, TotalBudget(3.0))
    report = oracle_total(inst, params, 500, alpha=0.7, seed=1)
    # 1-D problem: every boundary sample is the optimum up to phase
    assert abs(report.gap) <= 1e-12
    assert report.argmax_distance <= 1e-6


def test_oracle_individual_grid_exact_without_relays():
    inst = NetworkInstance(h_sd=0.5 - 0.2j, h_sr=[], h_rd=[], sigma2=1.3)
    params = SystemParams(2.0, None, IndividualBudget(3.0, []))
    report = oracle_individual_grid(inst, params, alpha=0.6)
    # no relay amplitudes to search: the one grid point is the solver's answer
    assert report.gap == 0.0 and report.argmax_distance == 0.0


def test_oracle_total_deterministic_in_seed(rng):
    inst = make_instance(rng, 2)
    params = SystemParams(2.0, _gamma_for(inst, 2.0), TotalBudget(5.0))
    r1 = oracle_total(inst, params, 5000, seed=3)
    r2 = oracle_total(inst, params, 5000, seed=3)
    assert r1 == r2


def _complex(pair):
    return np.asarray(pair[0]) + 1j * np.asarray(pair[1])


@pytest.mark.parametrize(
    "case", json.loads((Path(__file__).with_name("data") / "oracle_total_golden.json")
                       .read_text()),
    ids=lambda case: f"m{len(case['instance']['h_sr'][0])}-seed{case['seed']}")
def test_oracle_total_reproduces_recorded_reports(case):
    """oracle_total (sampling plus projected ascent) reproduces three recorded
    reports exactly, so any change to the ascent's arithmetic shows here."""
    inst = NetworkInstance(h_sd=complex(*case["instance"]["h_sd"]),
                           h_sr=_complex(case["instance"]["h_sr"]),
                           h_rd=_complex(case["instance"]["h_rd"]),
                           sigma2=case["instance"]["sigma2"])
    params = SystemParams(case["p1"], case["gamma"], TotalBudget(case["p_tot"]))
    report = oracle_total(inst, params, case["n_samples"], seed=case["seed"],
                          **case["kwargs"])
    assert report == OracleReport(**case["report"])


@pytest.mark.parametrize("m", [1, 3, 8])
def test_oracle_total_follows_the_dense_reference_ascent(m):
    """The O(1) trial scores take the dense ascent's path: at the acceptance
    gate's settings, every report counts the same trials and reaches the same
    value as the per-coordinate einsum loop of ascent_reference."""
    rng = np.random.default_rng(0xA5C + m)
    for k in range(17):
        inst = make_instance(rng, m)
        p1 = float(rng.uniform(0.5, 5.0))
        params = SystemParams(p1, _gamma_for(inst, p1, float(rng.uniform(0.2, 0.9))),
                              TotalBudget(float(rng.uniform(1.0, 10.0))))
        kwargs = dict(seed=k, ascent_sweeps=60, ascent_min_step=1e-5)
        report = oracle_total(inst, params, 512, **kwargs)
        value, evals = ascent_reference(inst, params, 512, **kwargs)
        assert report.samples_or_evals == evals
        assert abs(report.oracle_value - value) <= 1e-12


@pytest.mark.parametrize("m", [1, 3, 8])
def test_oracle_total_scores_sample_blocks_as_one_array(m):
    """Across block boundaries (three blocks, the last one partial) the
    blocked scan picks the one-array scan's sample to the bit: each report
    equals that sample's ascent exactly."""
    rng = np.random.default_rng(0xB10C + m)
    n = 2 * oracles.SAMPLE_BLOCK + 17
    blocks = set()
    for k in range(6):
        inst = make_instance(rng, m)
        p1 = float(rng.uniform(0.5, 5.0))
        params = SystemParams(p1, _gamma_for(inst, p1, float(rng.uniform(0.2, 0.9))),
                              TotalBudget(float(rng.uniform(1.0, 10.0))))
        report = oracle_total(inst, params, n, seed=k, ascent_sweeps=60, ascent_min_step=1e-5)
        a = solve_total(inst, params).alpha
        d = dense_power_matrix(derive_model(inst, p1, a))
        p_tot = params.budget.p_tot
        j, w0 = one_array_scan(d, oracles._cd_evaluator(inst, p1, a), p_tot, n, m + 1, k)
        value, _, evals = oracles._projected_ascent(
            *oracles._step_scorer(inst, p1, a, d, p_tot), p_tot, w0, max_sweeps=60,
            min_step=1e-5)
        assert (report.oracle_value, report.samples_or_evals) == (value, n + evals)
        blocks.add(j // oracles.SAMPLE_BLOCK)
    assert max(blocks) > 0  # some best sample lies beyond the first block


@pytest.mark.parametrize("case", ["tie", "later-max", "nan-later", "nan-first", "all-inf"])
def test_best_sample_picks_what_argmax_over_all_rows_picks(case):
    """Block by block, _best_sample keeps the first maximum over all rows,
    or the first NaN, as np.argmax over the whole score array does."""
    block = oracles.SAMPLE_BLOCK
    n = 2 * block + 17
    values = np.linspace(0.0, 1.0, n)[::-1].copy()  # row 0 is the maximum
    if case == "tie":
        values[block + 3] = values[0]
    elif case == "later-max":
        values[2 * block + 5] = 2.0
    elif case == "nan-later":
        values[block + 7], values[2 * block + 1] = np.nan, 2.0
    elif case == "nan-first":
        values[3], values[block + 1] = np.nan, 2.0
    else:
        values[:] = -np.inf
    # row i points along (1, i), so the picked row names its index
    re = np.stack([np.ones(n), np.arange(n, dtype=float)], axis=1)
    scored = iter(values[i:i + block] for i in range(0, n, block))
    best = oracles._best_sample(re, np.zeros((n, 2)), np.eye(2), 1.0, lambda w: next(scored))
    assert round(best[1].real / best[0].real) == int(np.argmax(values))


@pytest.mark.parametrize("m", [1, 4, 16, 64])
def test_step_score_matches_the_rescaled_trial(rng, m):
    """The one pass scores each axis step w + s e_k, s in (step, -step,
    i step, -i step), as _cd_evaluator scores that trial explicitly rescaled
    onto w'Dw = p_tot, and bit for bit as the rank-one update in complex
    arithmetic does; refresh scores w itself."""
    inst = make_instance(rng, m)
    p1, alpha, p_tot = 2.0, 0.6, 3.0
    d = dense_power_matrix(derive_model(inst, p1, alpha))
    cd = oracles._cd_evaluator(inst, p1, alpha)
    refresh, scores = oracles._step_scorer(inst, p1, alpha, d, p_tot)

    def explicit(w):
        power = float(np.real(np.vdot(w, d @ w)))
        return power, float(cd((w * math.sqrt(p_tot / power))[None, :])[0])

    for _ in range(10):
        w = random_weights(rng, m, scale=float(rng.uniform(0.1, 3.0)))
        state, value = refresh(w)
        assert value == pytest.approx(explicit(w)[1], rel=1e-12)
        for step in (0.3, 1e-5, float(rng.uniform(1e-7, 2.0))):
            k = int(rng.integers(m + 1))
            steps = (step, -step, 1j * step, -1j * step)
            for s, scored in zip(steps, scores(state, k, step), strict=True):
                stepped = w.copy()
                stepped[k] += s
                assert scored == pytest.approx(explicit(stepped), rel=1e-12)
                assert scored == complex_step_score(inst, p1, alpha, d, p_tot, w, k, s)


def test_oracle_total_rejects_bad_args(rng):
    inst = make_instance(rng, 1)
    with pytest.raises(ValueError):
        oracle_total(inst, SystemParams(2.0, 0.1, TotalBudget(1.0)), 0)
    with pytest.raises(TypeError):
        oracle_total(inst, SystemParams(2.0, 0.1, IndividualBudget(1.0, [0.1])), 10)


def test_oracle_individual_grid_rejects_a_total_budget(rng):
    inst = make_instance(rng, 2)
    with pytest.raises(TypeError, match="IndividualBudget"):
        oracle_individual_grid(inst, SystemParams(2.0, None, TotalBudget(5.0)), alpha=0.5)


def test_power_iteration_rank1_immediate_convergence(rng):
    for _ in range(10):
        inst = make_instance(rng, int(rng.integers(1, 6)))
        p1 = float(rng.uniform(0.5, 6.0))
        a = float(rng.uniform(0.1, 1.0))
        derived = derive_model(inst, p1, a)
        d_tilde = build_d_tilde(derived, 4.0)
        h_bar = np.conj(derived.h)
        value, iterations = power_iteration_rank1(d_tilde, h_bar)
        direct = float(np.real(np.dot(derived.h, np.linalg.solve(d_tilde, h_bar))))
        assert value == pytest.approx(direct, rel=1e-12)
        assert iterations <= 2


def test_power_iteration_rank1_singular_d_tilde_is_oracle_error():
    d_tilde = np.diag([1.0, 0.0, 2.0]).astype(complex)  # exactly singular
    with pytest.raises(OracleEvalError, match="D_tilde is singular"):
        power_iteration_rank1(d_tilde, np.ones(3, dtype=complex))


# ---------------------------------------------------------------------------
# individual-budget grid oracle


def test_grid_matches_analytic_with_binding_bound(rng):
    found = 0
    for _ in range(20):
        inst = make_instance(rng, 1)
        params = SystemParams(2.0, None, IndividualBudget(5.0, np.array([0.1])))
        sol = solve_individual(inst, params, alpha=0.6)
        if not sol.diagnostics.clamped:
            continue
        report = oracle_individual_grid(inst, params, alpha=0.6)
        assert report.gap >= -1e-8
        assert report.argmax_distance <= 1e-3  # within the refined cell
        found += 1
    assert found >= 10


def test_grid_reduces_to_source_only_with_huge_bounds(rng):
    inst = make_instance(rng, 2)
    params = SystemParams(2.0, None, IndividualBudget(5.0, np.full(2, 1e9)))
    report = oracle_individual_grid(inst, params, alpha=0.5)
    assert report.gap == pytest.approx(0.0, abs=1e-7)


def test_grid_trivial_when_all_caps_zero(rng):
    inst = make_instance(rng, 2)
    params = SystemParams(2.0, None, IndividualBudget(5.0, np.zeros(2)))
    report = oracle_individual_grid(inst, params, alpha=0.5)
    assert report.gap == pytest.approx(0.0, abs=1e-14)
    assert report.argmax_distance == 0.0


def test_grid_cost_guard(rng):
    inst = make_instance(rng, 4)
    params = SystemParams(2.0, None, IndividualBudget(5.0, np.full(4, 0.1)))
    with pytest.raises(ValueError, match="^instance has 4 relays: the grid oracle takes M <= 3"):
        oracle_individual_grid(inst, params, alpha=0.5)


def test_grid_gap_small_across_random_instances(rng):
    for _ in range(25):
        m = int(rng.integers(1, 4))
        inst = make_instance(rng, m)
        p1 = float(rng.uniform(0.5, 6.0))
        params = SystemParams(p1, None, IndividualBudget(5.0, np.full(m, 0.1)))
        report = oracle_individual_grid(inst, params, alpha=float(rng.uniform(0.2, 0.9)))
        assert report.gap >= -1e-4


def test_grid_confirms_an_alpha_1_network_with_a_near_double_root():
    """At alpha = 1 a squared stationarity condition of this network had a
    near-double root that read as complex, and the solve fell back to r = 0:
    a gap of -9.675 bits."""
    inst = NetworkInstance(h_sd=2.34e-6, h_sr=[8.05e6, 1.41e5], h_rd=[8.04e5, 5.72e-3],
                           sigma2=209.0)
    params = SystemParams(1.3e-5, None, IndividualBudget(9.36e-7, [2.36e7, 3.23e7]))
    assert oracle_individual_grid(inst, params, alpha=1.0).gap >= -1e-4


def _patch_every_binding(monkeypatch, name, faulty):
    """Replace the function `name` in every anbeam module that binds it, as a
    fault in the function itself would show."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "anbeam" and hasattr(module, name):
            monkeypatch.setattr(module, name, faulty)


def _shift_relay_phases(monkeypatch):
    aligned = individual_solver.optimal_phases

    def shifted(instance):
        phases = aligned(instance)
        phases[..., 1:] += 0.5
        return phases

    _patch_every_binding(monkeypatch, "optimal_phases", shifted)


def _under_report_capacity(monkeypatch):
    exact = model.capacity_dest
    _patch_every_binding(monkeypatch, "capacity_dest", lambda *args: exact(*args) - 0.1)


@pytest.mark.parametrize("fault", [None, _shift_relay_phases, _under_report_capacity],
                         ids=["no-fault", "relay-phases-off", "capacity-under-reported"])
@pytest.mark.parametrize("m, cap, clamped", [
    (1, 0.1, (0,)), (1, 10.0, ()), (2, 0.1, (0, 1)), (2, 10.0, ()), (3, 0.1, (0, 1, 2)),
])
def test_grid_scores_its_own_optimum_so_a_solver_fault_shows(fault, m, cap, clamped,
                                                            monkeypatch):
    """The grid scores psi* directly, not weights rebuilt with the solver's
    phases and capacity formula: an optimal_phases that is 0.5 rad off on
    every relay, or a capacity_dest that under-reports by 0.1 bit, gives a
    clearly negative gap, with caps binding or not."""
    inst = make_instance(np.random.default_rng(2), m)
    params = SystemParams(2.0, None, IndividualBudget(5.0, np.full(m, cap)))
    assert solve_individual(inst, params, alpha=0.6).diagnostics.clamped == clamped
    if fault is None:
        assert oracle_individual_grid(inst, params, alpha=0.6).gap >= -1e-12
    else:
        fault(monkeypatch)
        assert oracle_individual_grid(inst, params, alpha=0.6).gap < -1e-3


# ---------------------------------------------------------------------------
# signal-level Monte Carlo


def test_empirical_relay_snr_tracks_threshold(rng):
    inst = make_instance(rng, 3)
    p1 = 3.0
    gamma = _gamma_for(inst, p1, 0.6)
    a = alpha_for_threshold(inst, p1, gamma)
    w = random_weights(rng, 3)
    n = 200_000
    measured = empirical_snr(inst, p1, a, w, n, seed=21)
    limit = 3.0 * math.sqrt(2.0 / n)
    analytic = relay_snrs(inst, p1, a)
    assert np.all(np.abs(measured.relays - analytic) <= limit * analytic)
    e = strongest_relay(inst)
    assert measured.relays[e] == pytest.approx(gamma, rel=limit)


def test_empirical_direct_and_beam_match_formulas(rng):
    inst = make_instance(rng, 2)
    p1, a = 2.0, 0.55
    w = random_weights(rng, 2)
    n = 400_000
    measured = empirical_snr(inst, p1, a, w, n, seed=9)
    limit = 3.0 * math.sqrt(2.0 / n)
    assert measured.direct == pytest.approx(direct_sinr(inst, p1, a), rel=limit)
    analytic_cd = capacity_dest(inst, p1, a, w)
    empirical_cd = 0.5 * math.log2(1.0 + measured.direct + measured.beam)
    assert empirical_cd == pytest.approx(analytic_cd, rel=0.01)


def test_empirical_message_silent_at_zero_alpha(rng):
    inst = make_instance(rng, 2)
    measured = empirical_snr(inst, 2.0, 0.0, random_weights(rng, 2), 20_000, seed=2)
    assert np.all(measured.relays == 0.0)
    assert measured.direct == 0.0


def test_empirical_noise_leak_at_floor(rng):
    inst = make_instance(rng, 3)
    w = random_weights(rng, 3)
    measured = empirical_snr(inst, 2.0, 0.6, w, 50_000, seed=4)
    # the forwarded artificial noise cancels; only rounding survives
    assert measured.u_leak_power <= 1e-25


def test_empirical_leak_measures_the_model_reception(rng, monkeypatch):
    """A reception that leaks 0.1 u gives a leak power near E|0.1 u|^2 = 0.01:
    the leak comes from model.py's reception, not from the SINR formulas."""
    inst = make_instance(rng, 2)
    w = random_weights(rng, 2)
    reception = oracles.destination_phase2_rx
    monkeypatch.setattr(oracles, "destination_phase2_rx",
                        lambda *args: reception(*args) + 0.1 * args[-1].u)
    measured = empirical_snr(inst, 2.0, 0.5, w, 100_000, seed=2)
    assert measured.u_leak_power == pytest.approx(0.01, rel=6.0 / math.sqrt(100_000))


def test_empirical_requires_enough_symbols(rng):
    inst = make_instance(rng, 1)
    with pytest.raises(ValueError):
        empirical_snr(inst, 2.0, 0.5, random_weights(rng, 1), 100)


def test_empirical_estimates_pinned():
    """relays, direct and beam of one fixed instance and seed to 1e-12: this
    pins the Gram matrix draw (its stream and the Bartlett factor's draw
    order) and the layout of the coefficients over the normals."""
    inst = NetworkInstance(h_sd=0.31 - 0.42j, h_sr=[0.9 + 0.2j, -0.5 + 0.7j, 0.1 - 1.1j],
                           h_rd=[0.4 - 0.3j, 1.2 + 0.1j, -0.6 + 0.5j], sigma2=0.8)
    w = np.array([0.7 - 0.2j, -0.3 + 0.9j, 0.5 + 0.4j, -1.1 - 0.6j])
    measured = empirical_snr(inst, 2.5, 0.35, w, 300_000, seed=7)
    assert measured.direct == pytest.approx(0.19180862904936827, rel=1e-12)
    assert measured.beam == pytest.approx(0.4325520426565552, rel=1e-12)
    assert measured.relays == pytest.approx(
        [0.3416994207544814, 0.322897840516724, 0.3840284582734107], rel=1e-12)
    assert measured.u_leak_power <= 1e-25


@pytest.mark.parametrize("n", [10_000, 10_000_000_000], ids=["n1e4", "n1e10"])
def test_empirical_estimates_have_the_law_of_the_symbol_estimator(rng, n):
    """Over 1,600 seeds at M = 3 and n symbols, each relay's and the direct
    estimate's relative error has a std within 10% of sqrt(2/n) and a mean
    within 4 standard errors of 0: the law of the ratio of sample-mean
    powers over n propagated symbols, which a Gram matrix drawn from its
    Wishart law must keep.  n = 10^10 is what validate's relay-snr check
    draws, so its 7-sigma limit rests on this std."""
    inst = make_instance(rng, 3)
    p1, a = 2.0, 0.5
    w = random_weights(rng, 3)
    seeds = 1_600
    analytic = np.r_[relay_snrs(inst, p1, a), direct_sinr(inst, p1, a)]
    estimates = [empirical_snr(inst, p1, a, w, n, seed=seed) for seed in range(seeds)]
    errors = np.array([np.r_[e.relays, e.direct] for e in estimates]) / analytic - 1.0
    std = errors.std(axis=0, ddof=1)
    assert np.all(np.abs(std / math.sqrt(2.0 / n) - 1.0) <= 0.1)
    assert np.all(np.abs(errors.mean(axis=0)) <= 4.0 * std / math.sqrt(seeds))


def test_empirical_names_the_degrees_of_freedom_limit(rng):
    """The Bartlett factor needs n_symbols >= 2M+8 degrees of freedom; below
    that a ValueError names n_symbols and the bound (checked before the
    (M+4)^2 basis is built), and at the bound the draw works."""
    inst = make_instance(rng, 5_000)
    with pytest.raises(ValueError, match=r"^n_symbols must be >= 2M\+8 = 10008 for M = 5000 "
                                         r"relays .*, got 10000$"):
        empirical_snr(inst, 2.0, 0.5, random_weights(rng, 5_000), 10_000)
    gram = oracles._normal_gram(np.random.default_rng(0), 14, 14)
    assert np.all(np.isfinite(gram)) and np.allclose(gram, gram.T)


_SIGNAL_CHECKS = {
    "empirical_snr": lambda inst, p1, a, w: empirical_snr(inst, p1, a, w, 10_000),
    "simulate_noise_residual": lambda inst, p1, a, w: simulate_noise_residual(
        inst, p1, a, w, SignalRealization(x=1.0, u=1.0, z=np.ones(inst.m + 1))),
    "noise_residual_scale": noise_residual_scale,
}


@pytest.mark.parametrize("name", sorted(_SIGNAL_CHECKS))
@pytest.mark.parametrize("p1, alpha, field", [
    (math.nan, 0.5, "p1"), (math.inf, 0.5, "p1"), (-1.0, 0.5, "p1"), (0.0, 0.5, "p1"),
    (2.0, math.nan, "alpha"), (2.0, 1.5, "alpha"), (2.0, -0.1, "alpha"),
], ids=["nan-p1", "inf-p1", "negative-p1", "zero-p1", "nan-alpha", "alpha-above-1",
        "negative-alpha"])
def test_signal_checks_reject_a_bad_p1_or_alpha_naming_it(rng, name, p1, alpha, field):
    inst = make_instance(rng, 2)
    w = random_weights(rng, 2)
    with pytest.raises(ValueError, match=f"^{field}="):
        _SIGNAL_CHECKS[name](inst, p1, alpha, w)
    for edge in (0.0, 1.0):  # both ends of the power split stay valid
        _SIGNAL_CHECKS[name](inst, 2.0, edge, w)


@pytest.mark.parametrize("name", sorted(_SIGNAL_CHECKS))
@pytest.mark.parametrize("w", [
    np.ones(2), np.ones(4), np.ones((1, 3)), np.array([1.0, math.nan, 1.0]),
    np.array([1.0, 1.0, complex(0.0, math.inf)]),
], ids=["short", "long", "2-d", "nan", "inf"])
def test_signal_checks_reject_a_bad_w_naming_it(rng, name, w):
    """w must hold the M+1 finite weights: unchecked, a 2-relay w of length 2
    broadcasts against the relay gains and a NaN weight gives a NaN SINR."""
    inst = make_instance(rng, 2)
    with pytest.raises(ValueError, match="^w must"):
        _SIGNAL_CHECKS[name](inst, 2.0, 0.5, w)


@pytest.mark.parametrize("z", [np.ones(2), np.ones(4), np.ones((5, 2)), 1.0],
                         ids=["narrow", "wide", "narrow-rows", "scalar"])
def test_noise_residual_rejects_a_z_not_m_plus_1_wide(rng, z):
    """Unchecked, a 2-entry z for 2 relays reads the last relay's noise as the
    destination's and gives 0j."""
    inst = make_instance(rng, 2)
    realization = SignalRealization(x=1.0, u=1.0, z=z)
    with pytest.raises(ValueError, match="^z must"):
        simulate_noise_residual(inst, 2.0, 0.5, random_weights(rng, 2), realization)


def _reference_empirical_snr(inst, p1, alpha, w, n_symbols, seed):
    """empirical_snr by the plain algorithm: per chunk of 2^17 symbols, ten
    rng.normal calls on the (seed, 0xE, chunk) oracle stream in the order
    x, u, relay noises (n x M), phase-1 noise, phase-2 noise (real part, then
    imaginary part, each), then the whole chunk propagated at once."""
    w = np.asarray(w, dtype=complex)
    m = inst.m
    amp_x, amp_u = math.sqrt(alpha * p1), math.sqrt((1.0 - alpha) * p1)
    noise_sd = math.sqrt(inst.sigma2 / 2.0)
    beam_coeff = amp_x * np.dot(combined_gains(inst), w)
    relay_sig, relay_int = np.zeros(m), np.zeros(m)
    direct_sig = direct_int = beam_sig = beam_noise = leak = 0.0
    for k, done in enumerate(range(0, n_symbols, 1 << 17)):
        n = min(1 << 17, n_symbols - done)
        stream = np.random.default_rng(
            np.random.SeedSequence(ORACLE_NAMESPACE, spawn_key=(seed, 0xE, k)))

        def cn(shape, scale):
            return scale * (stream.normal(size=shape) + 1j * stream.normal(size=shape))

        x, u = cn(n, math.sqrt(0.5)), cn(n, math.sqrt(0.5))
        z = np.empty((n, m + 1), dtype=complex)
        z[:, :m] = cn((n, m), noise_sd)
        z_d1 = cn(n, noise_sd)
        z[:, m] = cn(n, noise_sd)
        relay_sig += np.sum(np.abs(np.outer(amp_x * x, inst.h_sr)) ** 2, axis=0)
        relay_int += np.sum(np.abs(np.outer(amp_u * u, inst.h_sr) + z[:, :m]) ** 2, axis=0)
        direct_sig += np.sum(np.abs(inst.h_sd * amp_x * x) ** 2)
        direct_int += np.sum(np.abs(inst.h_sd * amp_u * u + z_d1) ** 2)
        y2 = destination_phase2_rx(inst, p1, alpha, w, SignalRealization(x=x, u=u, z=z))
        noise_part = z[:, :m] @ (w[1:] * inst.h_rd) + z[:, m]
        beam_sig += np.sum(np.abs(beam_coeff * x) ** 2)
        beam_noise += np.sum(np.abs(noise_part) ** 2)
        leak += np.sum(np.abs(y2 - beam_coeff * x - noise_part) ** 2)
    return (direct_sig / direct_int, beam_sig / beam_noise, relay_sig / relay_int,
            leak / n_symbols)


def _reference_gram(m, n_symbols, seed):
    """The real Gram matrix of the normals _reference_empirical_snr draws, in
    empirical_snr's layout: the real parts of (x, u, z_1..z_M, z_d1, z_d2),
    then their imaginary parts."""
    gram = np.zeros((2 * m + 8, 2 * m + 8))
    for k, done in enumerate(range(0, n_symbols, 1 << 17)):
        n = min(1 << 17, n_symbols - done)
        stream = np.random.default_rng(
            np.random.SeedSequence(ORACLE_NAMESPACE, spawn_key=(seed, 0xE, k)))
        x_re, x_im, u_re, u_im = (stream.normal(size=n) for _ in range(4))
        z_re, z_im = stream.normal(size=(n, m)), stream.normal(size=(n, m))
        d1_re, d1_im, d2_re, d2_im = (stream.normal(size=n) for _ in range(4))
        r = np.column_stack([x_re, u_re, z_re, d1_re, d2_re, x_im, u_im, z_im, d1_im, d2_im])
        gram += r.T @ r
    return gram


@pytest.mark.parametrize("n_symbols", [10_000, 300_000], ids=lambda n: f"n{n}")
@pytest.mark.parametrize("m", [0, 1, 4], ids=lambda m: f"m{m}")
def test_empirical_on_the_plain_algorithms_normals_matches_it(rng, monkeypatch, m, n_symbols):
    """Given the Gram matrix of the normals the plain algorithm draws,
    empirical_snr's estimates are the plain algorithm's up to summation
    order: the coefficient rows and their layout over the normals are
    pinned, and only the Gram matrix's draw differs."""
    inst = make_instance(rng, m)
    w = random_weights(rng, m)
    gram = _reference_gram(m, n_symbols, 6)

    def injected(draw_rng, d, n):
        assert (d, n) == (2 * m + 8, n_symbols)
        return gram

    monkeypatch.setattr(oracles, "_normal_gram", injected)
    measured = empirical_snr(inst, 2.0, 0.5, w, n_symbols, seed=6)
    direct, beam, relays, leak = _reference_empirical_snr(inst, 2.0, 0.5, w, n_symbols, 6)
    assert measured.direct == pytest.approx(direct, rel=1e-13)
    assert measured.beam == pytest.approx(beam, rel=1e-13)
    assert measured.relays.shape == (m,)
    assert measured.relays == pytest.approx(relays, rel=1e-13)
    assert measured.u_leak_power <= 1e-25 and leak <= 1e-25
    assert measured.n_symbols == n_symbols


def test_empirical_result_is_immutable(rng):
    inst = make_instance(rng, 2)
    measured = empirical_snr(inst, 2.0, 0.5, random_weights(rng, 2), 10_000, seed=3)
    assert not measured.relays.flags.writeable
    for name in ("direct", "beam", "u_leak_power"):
        assert type(getattr(measured, name)) is float
    with pytest.raises(ValueError):
        measured.relays[0] = 0.0


def test_empirical_draw_error_propagates_and_starts_no_thread(rng, monkeypatch):
    """An error from the oracle stream reaches the caller unchanged, and a
    call, returning or raising, leaves the thread count as it found it."""
    inst = make_instance(rng, 2)
    w = random_weights(rng, 2)
    before = threading.active_count()
    empirical_snr(inst, 2.0, 0.5, w, 300_000, seed=1)
    assert threading.active_count() == before

    error = RuntimeError("draw failed")

    def failing_rng(seed, *key):
        raise error

    monkeypatch.setattr(oracles, "_oracle_rng", failing_rng)
    with pytest.raises(RuntimeError) as raised:
        empirical_snr(inst, 2.0, 0.5, w, 300_000, seed=1)
    assert raised.value is error
    assert threading.active_count() == before


def test_empirical_concurrent_calls_agree(rng):
    """Four calls at once, with a short switch interval, give the estimates
    of a lone call bit for bit: a call shares no state with another."""
    inst = make_instance(rng, 2)
    w = random_weights(rng, 2)
    alone = empirical_snr(inst, 2.0, 0.5, w, 150_000, seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(empirical_snr, inst, 2.0, 0.5, w, 150_000, seed=5)
                       for _ in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        assert (result.direct, result.beam, result.u_leak_power) == (
            alone.direct, alone.beam, alone.u_leak_power)
        assert np.array_equal(result.relays, alone.relays)

"""Closed-form total-budget solver against its own contracts and the dense
matrix assembly."""

import math
import warnings

import numpy as np
import pytest

from anbeam import model
from anbeam.errors import BeamformingError, NonFiniteSolution
from anbeam.model import (capacity_dest, derive_model, relay_snrs, second_phase_power,
                          strongest_relay)
from anbeam.total_solver import build_d_tilde, dense_power_matrix, solve_total, solve_total_batch
from anbeam.types import (
    DerivedModel,
    IndividualBudget,
    NetworkInstance,
    SystemParams,
    TotalBudget,
)
from conftest import make_instance


def _random_case(rng, m, p_tot=None):
    inst = make_instance(rng, m)
    p1 = float(rng.uniform(0.5, 8.0))
    e = strongest_relay(inst)
    gamma = float(rng.uniform(0.2, 0.9)) * abs(inst.h_sr[e]) ** 2 * p1 / inst.sigma2
    p_tot = p_tot if p_tot is not None else float(rng.uniform(1.0, 10.0))
    return inst, SystemParams(p1, gamma, TotalBudget(p_tot))


# ---------------------------------------------------------------------------
# D_tilde assembly


def test_d_tilde_no_relays_scalar():
    inst = NetworkInstance(h_sd=1.5, h_sr=[], h_rd=[], sigma2=1.0)
    derived = derive_model(inst, p1=2.0, alpha=0.5)
    d_tilde = build_d_tilde(derived, p_tot=4.0)
    assert d_tilde.shape == (1, 1)
    assert d_tilde[0, 0] == pytest.approx(0.5 * 2.0 / 4.0)


def test_d_tilde_diagonal_when_cancellation_gains_vanish():
    # force g = 0 in a hand-built derived model: the rank-1 term drops out
    derived = DerivedModel(
        alpha=0.5, p1=2.0,
        h=np.array([1.0, 0.5, 0.25], dtype=complex),
        g=np.zeros(2, dtype=complex),
        d_h_diag=np.array([0.0, 0.6, 0.8]),
        t_diag=np.array([1.9, 1.3]),
    )
    d_tilde = build_d_tilde(derived, p_tot=5.0)
    assert np.allclose(d_tilde, np.diag(np.diag(d_tilde)))
    expected = np.array([0.5 * 2.0 / 5.0, 1.9 / 5.0 + 0.6, 1.3 / 5.0 + 0.8])
    assert np.diag(d_tilde).real == pytest.approx(expected)


def test_d_tilde_matches_dense_assembly(rng):
    inst = make_instance(rng, 3)
    derived = derive_model(inst, 2.0, 0.6)
    p_tot = 4.4
    dense = dense_power_matrix(derived) / p_tot + np.diag(derived.d_h_diag)
    assert np.allclose(build_d_tilde(derived, p_tot), dense, rtol=0, atol=0)


def test_d_tilde_rejects_zero_alpha(rng):
    inst = make_instance(rng, 2)
    derived = derive_model(inst, 2.0, 0.0)
    with pytest.raises(ValueError, match=r"^alpha=0\.0 must be positive: D_tilde is singular"):
        build_d_tilde(derived, 3.0)


@pytest.mark.parametrize("p_tot", [0.0, -1.0])
def test_d_tilde_rejects_nonpositive_budget(rng, p_tot):
    derived = derive_model(make_instance(rng, 2), 2.0, 0.5)
    with pytest.raises(ValueError, match="^p_tot must be positive$"):
        build_d_tilde(derived, p_tot)


@pytest.mark.parametrize("h_sr, p_tot, d_finite", [
    ([1e200, 0.5], 4.0, False),   # |h_s1|^2 p1 and |g_1|^2 overflow: D holds inf
    ([1.0, 0.5], 1e-310, True),   # D is finite, D / p_tot overflows
], ids=["gains", "budget"])
def test_d_tilde_names_an_entry_that_is_not_finite(h_sr, p_tot, d_finite):
    """The dense reference path forms overflowing entries without a numpy
    warning; build_d_tilde then raises NonFiniteSolution naming D_tilde,
    while dense_power_matrix returns D as it is."""
    inst = NetworkInstance(h_sd=1.0, h_sr=h_sr, h_rd=[1.0, 0.3], sigma2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        derived = derive_model(inst, 2.0, 0.5)
        assert np.isfinite(dense_power_matrix(derived)).all() == d_finite
        with pytest.raises(NonFiniteSolution, match="^D_tilde has an entry that is not finite"):
            build_d_tilde(derived, p_tot)


def test_d_tilde_hermitian_positive_definite(rng):
    for _ in range(20):
        inst = make_instance(rng, int(rng.integers(1, 6)))
        derived = derive_model(inst, float(rng.uniform(0.5, 5.0)),
                               float(rng.uniform(0.01, 1.0)))
        d_tilde = build_d_tilde(derived, float(rng.uniform(0.5, 10.0)))
        assert np.allclose(d_tilde, d_tilde.conj().T)
        assert np.all(np.linalg.eigvalsh(d_tilde) > 0)


# ---------------------------------------------------------------------------
# the solve itself


def test_solve_no_relays_closed_form():
    inst = NetworkInstance(h_sd=1.0 * np.exp(1j * 0.8), h_sr=[], h_rd=[], sigma2=1.0)
    p1, p_tot = 1.0, 3.0
    sol = solve_total(inst, SystemParams(p1, None, TotalBudget(p_tot)), alpha=1.0)
    # scalar problem: all power into w0, phase cancelling h_sd
    expected_mag = np.sqrt(p_tot / (1.0 * p1))
    assert abs(sol.w[0]) == pytest.approx(expected_mag, rel=1e-12)
    assert np.angle(sol.w[0] * inst.h_sd) == pytest.approx(0.0, abs=1e-12)
    # beam SINR term reduces to |h_sd|^2 p_tot / sigma2
    assert sol.c_d == pytest.approx(0.5 * np.log2(1 + p1 + p_tot), rel=1e-12)


def test_power_constraint_tight(rng):
    for _ in range(30):
        inst, params = _random_case(rng, int(rng.integers(1, 6)))
        sol = solve_total(inst, params)
        assert sol.second_phase_power == pytest.approx(params.budget.p_tot, rel=1e-10)


def test_snr_ratio_equals_rayleigh_value(rng):
    for _ in range(30):
        inst, params = _random_case(rng, int(rng.integers(1, 6)))
        sol = solve_total(inst, params)
        derived = derive_model(inst, params.p1, sol.alpha)
        num = abs(np.dot(derived.h, sol.w)) ** 2
        den = 1.0 + float(np.sum(derived.d_h_diag * np.abs(sol.w) ** 2))
        assert num / den == pytest.approx(sol.diagnostics.rayleigh_value, rel=1e-10)


def test_beam_gain_is_real_nonnegative(rng):
    for _ in range(20):
        inst, params = _random_case(rng, 3)
        sol = solve_total(inst, params)
        b = np.dot(derive_model(inst, params.p1, sol.alpha).h, sol.w)
        assert b.imag == pytest.approx(0.0, abs=1e-10 * abs(b))
        assert b.real >= 0


def test_linear_solve_residual(rng):
    for _ in range(20):
        inst, params = _random_case(rng, int(rng.integers(1, 8)))
        sol = solve_total(inst, params)
        derived = derive_model(inst, params.p1, sol.alpha)
        d_tilde = build_d_tilde(derived, params.budget.p_tot)
        h_bar = np.conj(derived.h)
        res = np.linalg.norm(d_tilde @ sol.diagnostics.v - h_bar)
        assert res <= 1e-10 * np.linalg.norm(h_bar)


def test_rayleigh_objective_scale_invariant(rng):
    inst, params = _random_case(rng, 3)
    sol = solve_total(inst, params)
    derived = derive_model(inst, params.p1, sol.alpha)
    d_tilde = build_d_tilde(derived, params.budget.p_tot)

    def substituted(w):
        return abs(np.dot(derived.h, w)) ** 2 / np.real(np.conj(w) @ d_tilde @ w)

    v = sol.diagnostics.v
    for t in (0.1, 1.0, 7.3):
        assert substituted(t * v) == pytest.approx(substituted(v), rel=1e-12)


def test_optimality_against_projected_perturbations(rng):
    inst, params = _random_case(rng, 3)
    sol = solve_total(inst, params)
    derived = derive_model(inst, params.p1, sol.alpha)
    d = dense_power_matrix(derived)
    p_tot = params.budget.p_tot
    deltas = 0.25 * (rng.normal(size=(10_000, 4)) + 1j * rng.normal(size=(10_000, 4)))
    trials = sol.w[None, :] + deltas
    power = np.real(np.einsum("ni,ij,nj->n", np.conj(trials), d, trials))
    trials *= np.sqrt(p_tot / power)[:, None]
    for w in trials[:200]:
        assert capacity_dest(inst, params.p1, sol.alpha, w) <= sol.c_d + 1e-9
    # vectorized check over the whole batch through the same formula
    h = derived.h
    dh = derived.d_h_diag
    snr2 = sol.alpha * params.p1 * np.abs(trials @ h) ** 2 / (
        inst.sigma2 * (1.0 + np.abs(trials) ** 2 @ dh))
    base = 2.0 ** (2.0 * sol.c_d) - 1.0
    direct = base - sol.alpha * params.p1 * abs(np.dot(h, sol.w)) ** 2 / (
        inst.sigma2 * (1.0 + float(np.sum(dh * np.abs(sol.w) ** 2))))
    cd_all = 0.5 * np.log2(1.0 + direct + snr2)
    assert np.all(cd_all <= sol.c_d + 1e-9)


def test_derived_alpha_used_when_not_given(rng):
    inst, params = _random_case(rng, 2)
    sol = solve_total(inst, params)
    e = strongest_relay(inst)
    assert relay_snrs(inst, params.p1, sol.alpha)[e] == pytest.approx(params.gamma, rel=1e-12)


def test_rejects_individual_budget(rng):
    inst = make_instance(rng, 2)
    params = SystemParams(2.0, 0.4, IndividualBudget(5.0, np.full(2, 0.1)))
    with pytest.raises(TypeError):
        solve_total(inst, params)


def test_explicit_alpha_overrides_gamma(rng):
    inst, params = _random_case(rng, 2)
    sol = solve_total(inst, params, alpha=0.37)
    assert sol.alpha == 0.37
    # explicit alpha must beat or match any other split only at its own alpha;
    # just confirm power accounting still closes
    assert second_phase_power(inst, params.p1, 0.37, sol.w) == \
        pytest.approx(params.budget.p_tot, rel=1e-10)


# ---------------------------------------------------------------------------
# the structured O(M) solve against the dense reference


def _dense_solution(inst, params, alpha):
    """The dense solve: v = D_tilde^{-1} conj(h) by LU, mu from the dense D."""
    derived = derive_model(inst, params.p1, alpha)
    v = np.linalg.solve(build_d_tilde(derived, params.budget.p_tot), np.conj(derived.h))
    mu = np.sqrt(params.budget.p_tot
                 / np.real(np.conj(v) @ dense_power_matrix(derived) @ v))
    return v, capacity_dest(inst, params.p1, alpha, mu * v)


@pytest.mark.parametrize("alpha", [1e-300, 1e-160, 0.05, 0.6, 1.0])
@pytest.mark.parametrize("m", [0, 1, 4, 10, 64, 256])
def test_structured_solve_matches_dense_reference(rng, m, alpha):
    for _ in range(3):
        inst = make_instance(rng, m)
        params = SystemParams(float(rng.uniform(0.5, 8.0)), None,
                              TotalBudget(float(rng.uniform(1.0, 10.0))))
        sol = solve_total(inst, params, alpha=alpha)
        v_dense, c_d_dense = _dense_solution(inst, params, alpha)
        v = sol.diagnostics.v
        # max norms: the 2-norm of v overflows at alpha = 1e-300
        assert np.max(np.abs(v - v_dense)) <= 1e-12 * np.max(np.abs(v_dense))
        assert sol.c_d == pytest.approx(c_d_dense, rel=1e-12)
        assert sol.second_phase_power == pytest.approx(params.budget.p_tot, rel=1e-8)


@pytest.mark.parametrize("alpha", [1e-300, 1e-160])
def test_vanishing_alpha_keeps_the_dense_answer(alpha):
    # |v_0|^2 overflows a float here; the solve must still return the finite
    # value of the dense path, which tends to 0.5 log2(1 + |h_sd|^2 P/sigma2)
    inst = NetworkInstance(h_sd=0.3 - 0.4j, h_sr=[1.0 + 0.5j, -0.7 + 0.2j, 0.1 - 1.2j],
                           h_rd=[0.4 - 0.9j, 1.1 + 0.3j, -0.6 - 0.6j], sigma2=1.0)
    params = SystemParams(2.0, None, TotalBudget(5.0))
    sol = solve_total(inst, params, alpha=alpha)
    assert sol.c_d == pytest.approx(0.5849625007211562, rel=1e-12)
    assert sol.c_d == pytest.approx(0.5 * math.log2(1.0 + 0.25 * 5.0), rel=1e-12)
    assert second_phase_power(inst, params.p1, alpha, sol.w) == pytest.approx(5.0, rel=1e-8)


def test_extreme_gains_where_the_dense_solve_is_singular():
    # D_tilde is numerically singular in double precision here (a dense LU
    # solve raises LinAlgError); the reference C_d was computed at 80 digits
    inst = NetworkInstance(h_sd=1e-8, h_sr=[1e4, 1e4j], h_rd=[1e4, -1e4], sigma2=1e-12)
    params = SystemParams(2.0, None, TotalBudget(5.0))
    try:
        sol = solve_total(inst, params, alpha=0.6)
    except BeamformingError:
        return
    assert np.all(np.isfinite(sol.w))
    assert sol.second_phase_power == pytest.approx(5.0, rel=1e-8)
    assert sol.c_d == pytest.approx(0.00098756285716464173, rel=1e-10)


def test_solve_rejects_zero_alpha(rng):
    inst, params = _random_case(rng, 3)
    with pytest.raises(ValueError, match=r"^alpha=0\.0 at row 0 outside \(0, 1\]"):
        solve_total(inst, params, alpha=0.0)


def test_batch_solve_builds_no_derived_model(monkeypatch):
    def stack():
        rng = np.random.default_rng(7)
        return NetworkInstance.stack([make_instance(rng, 3) for _ in range(3)])
    params = SystemParams(np.array([0.7, 2.0, 5.5]), None, TotalBudget(4.0))
    alphas = np.array([0.2, 0.6, 1.0])
    expected = solve_total_batch(stack(), params, alphas)

    def built(*args, **kwargs):
        raise AssertionError("solve_total_batch built a DerivedModel")
    monkeypatch.setattr(model, "derive_model", built)
    monkeypatch.setattr(DerivedModel, "__post_init__", built)
    solved = solve_total_batch(stack(), params, alphas)
    for name in ("w", "alpha", "c_d", "second_phase_power"):
        assert np.array_equal(getattr(solved, name), getattr(expected, name))

"""Phase alignment, the closed-form source-only optimum, the stationarity
quartic and the clamp scan, checked against the greedy loop it replaces."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anbeam import individual_solver
from anbeam.errors import BeamformingError, InfeasibleBudget, NonFiniteSolution
from anbeam.individual_solver import (
    MagnitudeProblem,
    initial_problem,
    optimal_phases,
    quartic_coeffs,
    select_root,
    solve_individual,
    solve_individual_batch,
    solve_source_only,
)
from anbeam.model import (
    combined_gains,
    direct_sinr,
    relay_input_powers,
)
from anbeam.oracles import golden_section
from anbeam.total_solver import solve_total
from anbeam.types import (
    IndividualBudget,
    NetworkInstance,
    SystemParams,
    TotalBudget,
)
from conftest import assert_individual_answer, make_instance
from greedy_reference import greedy_reference


def _params(m, p_s=5.0, p_i=0.1, p1=2.0, gamma=None):
    return SystemParams(p1, gamma, IndividualBudget(p_s, np.full(m, p_i)))


def _source_power(inst, p1, alpha, w):
    g = inst.h_sr * inst.h_rd / inst.h_sd
    return (alpha * p1 * abs(w[0]) ** 2
            + (1 - alpha) * p1 * abs(np.dot(g, w[1:])) ** 2)


# ---------------------------------------------------------------------------
# phases


def test_phases_zero_for_positive_real_channels():
    inst = NetworkInstance(h_sd=1.0, h_sr=[2.0, 0.5], h_rd=[1.5, 3.0], sigma2=1.0)
    assert optimal_phases(inst) == pytest.approx(np.zeros(3))


def test_phase_of_imaginary_direct_gain():
    inst = NetworkInstance(h_sd=1j, h_sr=[1.0], h_rd=[1.0], sigma2=1.0)
    assert optimal_phases(inst)[0] == pytest.approx(-np.pi / 2)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_aligned_beam_gain_real_with_nonnegative_terms(m, seed):
    rng = np.random.default_rng(seed)
    inst = make_instance(rng, m)
    phases = optimal_phases(inst)
    mags = rng.uniform(0.1, 2.0, m + 1)
    w = mags * np.exp(1j * phases)
    terms = combined_gains(inst) * w
    assert np.max(np.abs(terms.imag)) <= 1e-12 * np.max(np.abs(terms))
    assert np.all(terms.real >= -1e-12)


# ---------------------------------------------------------------------------
# source-only closed form


def _bare_problem(c1, c2, eta1, eta2, u_max=None):
    c2 = np.asarray(c2, dtype=float)
    m = len(c2)
    return MagnitudeProblem(
        c=np.concatenate(([c1], c2)),
        u_max=np.full(m, 1e6) if u_max is None else np.asarray(u_max, float),
        eta1=eta1, eta2=eta2, eta3=1 + eta2 * c1 * c1,
        active=tuple(range(m)), tau=float(np.linalg.norm(c2)),
    )


def test_source_only_collapses_without_relays():
    prob = _bare_problem(1.0, [], eta1=2.0, eta2=0.5)
    u1, u, r = solve_source_only(prob)
    assert (u1, r) == (pytest.approx(math.sqrt(2.0)), 0.0)
    assert u.size == 0


def test_source_only_worked_example():
    prob = _bare_problem(1.0, [1.0], eta1=1.0, eta2=1.0)
    u1, u, r = solve_source_only(prob)
    assert r == pytest.approx(1 / math.sqrt(5), rel=1e-12)
    assert u[0] == pytest.approx(r, rel=1e-12)  # single relay: u = (c2/tau) r = r
    assert u1 == pytest.approx(math.sqrt(4 / 5), rel=1e-12)
    assert prob.objective(r) == pytest.approx(1.5, rel=1e-12)


def test_source_only_matches_golden_section(rng):
    for _ in range(50):
        m = int(rng.integers(1, 5))
        prob = _bare_problem(float(rng.uniform(0.2, 2.0)),
                             rng.uniform(0.1, 2.0, m),
                             eta1=float(rng.uniform(0.3, 6.0)),
                             eta2=float(rng.uniform(0.05, 2.0)))
        _, _, r = solve_source_only(prob)
        hi = math.sqrt(prob.eta1 / prob.eta2) / prob.tau
        ref = golden_section(prob.objective, 0.0, hi, tol=1e-11)
        # argmax localization of a smooth max is sqrt(eps)-limited in floating
        # point, so the positional tolerance scales with the bracket
        assert abs(r - ref.x) <= 1e-7 * max(1.0, hi)
        assert prob.objective(r) >= ref.value - 1e-10


def test_source_only_stationarity_by_finite_difference(rng):
    for _ in range(20):
        prob = _bare_problem(float(rng.uniform(0.2, 2.0)),
                             rng.uniform(0.1, 2.0, 3),
                             eta1=float(rng.uniform(0.3, 6.0)),
                             eta2=float(rng.uniform(0.05, 2.0)))
        _, _, r = solve_source_only(prob)
        h = 1e-6 * max(r, 1.0)
        deriv = (prob.objective(r + h) - prob.objective(r - h)) / (2 * h)
        assert abs(deriv) <= 1e-8 * max(prob.objective(r), 1.0)


def test_source_only_power_equality(rng):
    # reconstructed on a real network: alpha p1 u1^2 + ((1-a)p1/c1^2)(c2.u)^2 = p_s
    inst = make_instance(rng, 3)
    p1, a, p_s = 2.0, 0.6, 5.0
    prob = initial_problem(inst, p1, a, IndividualBudget(p_s, np.full(3, 1e9)))
    u1, u, r = solve_source_only(prob)
    c1 = prob.c[0]  # c's common scale 2^-e cancels in the ratio below
    lhs = a * p1 * u1 ** 2 + (1 - a) * p1 / c1 ** 2 * float(np.dot(prob.c[1:], u)) ** 2
    assert lhs == pytest.approx(p_s, rel=1e-10)


def test_source_only_rejects_nonpositive_budget_constant():
    prob = _bare_problem(1.0, [1.0], eta1=0.0, eta2=1.0)
    with pytest.raises(InfeasibleBudget):
        solve_source_only(prob)


# ---------------------------------------------------------------------------
# stationarity quartic


def _clamped_problem(rng):
    c1 = float(rng.uniform(0.2, 2.0))
    tau = float(rng.uniform(0.1, 2.0))
    eta1 = float(rng.uniform(0.3, 6.0))
    eta2 = float(rng.uniform(0.05, 2.0))
    t1 = float(rng.uniform(0.0, 0.95 * math.sqrt(eta1 / eta2)))
    t2 = 1.0 + float(rng.uniform(0.0, 3.0))
    return MagnitudeProblem(c=np.array([c1, 1.0]), u_max=np.array([1e6]),
                            eta1=eta1, eta2=eta2, eta3=1 + eta2 * c1 * c1,
                            t1=t1, t2=t2, active=(0,), tau=tau)


def test_quartic_reduces_to_closed_form():
    """Worked example, with y_max = A = 1 and phi = pi/4: tan(theta*) = 2, so
    r* = cos(theta*) = 1/sqrt(5), and the quartic in t = tan(theta/2) is
    (t^2 + 1)(q0 t^2 + q1 t - q0), whose positive root is tan(theta*/2) =
    (sqrt(5) - 1)/2."""
    prob = _bare_problem(1.0, [1.0], eta1=1.0, eta2=1.0)
    q = quartic_coeffs(prob)
    assert (q[0], q[1], q[2]) == (-q[4], q[3], 0.0)
    t = (math.sqrt(q[1] ** 2 + 4.0 * q[0] ** 2) - q[1]) / (2.0 * q[0])
    assert t == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-12)


_DECADES = st.floats(-30.0, 30.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    _DECADES,  # log10 A
    st.one_of(st.just(0.0), st.just(1.0), st.floats(-30.0, 0.0).map(lambda e: 10.0 ** e)),  # B
    _DECADES,  # log10 tan(phi)
    st.floats(0.0, 30.0),  # log10 t2
), min_size=1, max_size=8))
def test_quartic_has_one_root_in_the_admissible_interval(rows):
    """On t >= 0 the quartic is convex and q4 <= 0 (q0, q1 >= 0, q2 = 0), and
    _root gives its one root there: nan exactly where P(t_hi) < 0, otherwise
    a t in [0, t_hi] where P vanishes to rounding.  A, B, phi and t2 span
    +-30 decades, several rows per call."""
    log_a, big_b, log_tan_phi, log_t2 = map(np.array, zip(*rows))
    c1 = np.full(len(rows), 0.75)
    eta2 = (10.0 ** log_tan_phi / c1) ** 2
    y_max = 1.0 / np.sqrt(eta2)  # at eta1 = 1
    t2 = 10.0 ** log_t2
    args = (np.ones(len(rows)), eta2, big_b * y_max, t2, 10.0 ** log_a * y_max / np.sqrt(t2), c1)
    q = individual_solver._quartic(*args)
    assert np.all(q[:, :2] >= 0.0) and np.all(q[:, 2] == 0.0) and np.all(q[:, 4] <= 0.0)
    b = individual_solver._angles(*args)[5]  # t1 / y_max <= 1, as rounding is monotone
    t_hi = np.sqrt((1.0 - b) / (1.0 + b))
    t = individual_solver._root(q, t_hi)
    p_hi = np.array([np.polyval(row, x) for row, x in zip(q, t_hi)])
    np.testing.assert_array_equal(np.isnan(t), p_hi < 0.0)
    ok = ~np.isnan(t)
    assert np.all((0.0 <= t[ok]) & (t[ok] <= t_hi[ok]))
    terms = q[ok] * t[ok, None] ** np.arange(4, -1, -1)
    assert np.all(np.abs(terms.sum(axis=1))
                  <= 16.0 * np.finfo(float).eps * np.abs(terms).sum(axis=1))


@settings(max_examples=80, deadline=None)
@given(
    c1=st.floats(0.1, 3.0), tau=st.floats(0.1, 3.0),
    eta1=st.floats(0.1, 8.0), eta2=st.floats(0.01, 3.0),
)
def test_quartic_reduction_identity(c1, tau, eta1, eta2):
    """At t1=0, t2=1 the admissible quartic root is the closed-form r*."""
    prob = _bare_problem(c1, [tau], eta1=eta1, eta2=eta2)
    _, _, r_closed = solve_source_only(prob)
    best, _ = select_root(quartic_coeffs(prob), prob)
    assert best.r == pytest.approx(r_closed, rel=1e-10, abs=1e-13)


def test_quartic_factors_without_t1(rng):
    """At B = t1 / y_max = 0 the quartic is (t^2 + 1)(q0 t^2 + q1 t - q0),
    whatever t2 is, and q2 is always 0."""
    prob = _bare_problem(1.3, rng.uniform(0.1, 2.0, 2),
                         eta1=2.0, eta2=0.7)
    object.__setattr__(prob, "t2", 1.9)
    q = quartic_coeffs(prob)
    assert (q[0], q[1], q[2]) == (-q[4], q[3], 0.0)
    assert q[0] > 0.0 and q[1] > 0.0


def test_quartic_root_matches_golden_section_when_clamped(rng):
    for _ in range(100):
        prob = _clamped_problem(rng)
        best, _ = select_root(quartic_coeffs(prob), prob)
        hi = (math.sqrt(prob.eta1 / prob.eta2) - prob.t1) / prob.tau
        ref = golden_section(prob.objective, 0.0, hi, tol=1e-11)
        assert prob.objective(best.r) >= ref.value - 1e-10
        # a coarse grid guards golden-section against multimodality
        grid = np.linspace(0.0, hi, 2000)
        grid_best = max(prob.objective(r) for r in grid)
        assert prob.objective(best.r) >= grid_best - 1e-8


def test_select_root_prefers_higher_objective_among_roots(rng):
    """The winner has the highest value, and the values rank the candidates
    as the objective does.  Nothing is squared in the quartic, so it has no
    spurious roots: at most one is admissible."""
    compared = 0
    for _ in range(300):
        prob = _clamped_problem(rng)
        best, candidates = select_root(quartic_coeffs(prob), prob)
        assert best.value == max(c.value for c in candidates)
        assert sum(c.kind == "root" for c in candidates) <= 1
        top = prob.objective(best.r)
        assert all(prob.objective(c.r) <= top * (1.0 + 1e-12) for c in candidates)
        compared += len(candidates) == 2
    assert compared >= 100


def test_select_root_zero_boundary_fallback():
    """Inward-pointing objective: every quartic root is inadmissible and the
    r=0 boundary wins."""
    prob = MagnitudeProblem(c=np.array([1.0, 1.0]), u_max=np.array([10.0]),
                            eta1=1.5, eta2=1.0, eta3=2.0, t1=1.0, t2=2.0,
                            active=(0,), tau=0.2)
    best, candidates = select_root(quartic_coeffs(prob), prob)
    assert best.kind == "zero" and best.r == 0.0
    assert not any(c.kind == "root" for c in candidates)
    ref = golden_section(prob.objective, 0.0, (math.sqrt(1.5) - 1.0) / 0.2, tol=1e-11)
    assert prob.objective(best.r) >= ref.value - 1e-10


def test_select_root_keeps_r_zero_where_the_root_is_rounding_noise():
    """With A << 1 the root's gap cos(theta) - B is rounding noise: its r,
    about 4.5e9, has an objective about 2e-18 against 46.8 at r = 0, so the
    r = 0 candidate must stay in the comparison."""
    c1, eta2 = 0.583876665250324, 1997828.8838633308
    prob = MagnitudeProblem(c=np.array([c1, 1.0]), u_max=np.array([1.0]),
                            eta1=137.27849063287317, eta2=eta2, eta3=1.0 + eta2 * c1 * c1,
                            t1=9.076737924223587e-06, t2=1.0, active=(0,),
                            tau=9.011787887269493e-29)
    best, candidates = select_root(quartic_coeffs(prob), prob)
    assert best.kind == "zero" and best.r == 0.0
    root = next(c for c in candidates if c.kind == "root")
    assert prob.objective(root.r) < 1e-10 < 46.0 < prob.objective(0.0)


def test_select_root_infeasible_offsets():
    prob = MagnitudeProblem(c=np.array([1.0, 1.0]), u_max=np.array([1.0]),
                            eta1=0.5, eta2=1.0, eta3=2.0, t1=1.0, t2=2.0,
                            active=(0,), tau=0.5)
    # the class the batch solver gives a row with the same outcome
    with pytest.raises(InfeasibleBudget, match=r"radicand -0\.5\)"):
        select_root(quartic_coeffs(prob), prob)


# ---------------------------------------------------------------------------
# the full solve


def test_generous_bounds_reduce_to_source_only(rng):
    for _ in range(20):
        m = int(rng.integers(1, 5))
        inst = make_instance(rng, m)
        p1, a = 2.0, float(rng.uniform(0.2, 0.95))
        sol = solve_individual(inst, _params(m, p_i=1e12, p1=p1), alpha=a)
        assert sol.diagnostics.clamped == ()
        u1, u, _ = solve_source_only(
            initial_problem(inst, p1, a, IndividualBudget(5.0, np.full(m, 1e12))))
        assert np.abs(sol.w[0]) == pytest.approx(u1, rel=1e-10)
        assert np.abs(sol.w[1:]) * np.abs(inst.h_rd) == pytest.approx(u, rel=1e-10)


def test_all_bounds_zero_fully_clamped(rng):
    m = 3
    inst = make_instance(rng, m)
    p1, a, p_s = 2.0, 0.6, 5.0
    sol = solve_individual(inst, _params(m, p_s=p_s, p_i=0.0, p1=p1), alpha=a)
    assert sol.diagnostics.clamped == (0, 1, 2)
    assert np.all(sol.w[1:] == 0)
    eta1 = p_s / (a * p1)
    assert abs(sol.w[0]) == pytest.approx(math.sqrt(eta1), rel=1e-12)
    c1 = abs(inst.h_sd)
    expected = 0.5 * math.log2(1 + direct_sinr(inst, p1, a)
                               + c1 ** 2 * eta1 * a * p1 / inst.sigma2)
    assert sol.c_d == pytest.approx(expected, rel=1e-12)


def test_solve_without_relays_is_the_source_only_answer():
    """At M = 0 the source spends p_s on the message alone: the beam term of
    C_d is |h_sd|^2 p_s / sigma2, and nothing is clamped."""
    inst = NetworkInstance(h_sd=0.5 - 0.2j, h_sr=[], h_rd=[], sigma2=1.3)
    p1, a, p_s = 2.0, 0.6, 3.0
    sol = solve_individual(inst, SystemParams(p1, None, IndividualBudget(p_s, [])), alpha=a)
    expected = 0.5 * math.log2(1 + direct_sinr(inst, p1, a)
                               + abs(inst.h_sd) ** 2 * p_s / inst.sigma2)
    assert sol.c_d == pytest.approx(expected, rel=1e-15)
    assert sol.diagnostics.clamped == () and sol.diagnostics.chosen_r == 0.0


def test_constraints_hold_on_random_instances(rng):
    for _ in range(100):
        m = int(rng.integers(1, 6))
        inst = make_instance(rng, m)
        p1 = float(rng.uniform(0.5, 8.0))
        a = float(rng.uniform(0.15, 0.95))
        p_s, p_i = 5.0, 0.1
        sol = solve_individual(inst, _params(m, p_s=p_s, p_i=p_i, p1=p1), alpha=a)
        assert _source_power(inst, p1, a, sol.w) == pytest.approx(p_s, rel=1e-8)
        relay_power = relay_input_powers(inst, p1) * np.abs(sol.w[1:]) ** 2
        assert np.all(relay_power <= p_i * (1 + 1e-9))
        assert len(sol.diagnostics.clamped) <= m


def test_clamped_relays_sit_exactly_at_their_caps(rng):
    found = 0
    for _ in range(50):
        m = int(rng.integers(1, 4))
        inst = make_instance(rng, m)
        sol = solve_individual(inst, _params(m), alpha=0.6)
        prob = initial_problem(inst, 2.0, 0.6, IndividualBudget(5.0, np.full(m, 0.1)))
        u = np.abs(sol.w[1:]) * np.abs(inst.h_rd)
        for i in sol.diagnostics.clamped:
            assert u[i] == pytest.approx(prob.u_max[i], rel=1e-12)
            found += 1
    assert found >= 10


@pytest.mark.parametrize("p_i", [3e-77, 1e-80])
def test_a_cap_far_below_the_relay_input_power_is_met_exactly(p_i):
    """p_i / T goes subnormal at T = 1e242, which once put a clamped relay
    2.7e-6 above its cap at p_i = 3e-77 and 0.6% below it at 1e-80."""
    inst = NetworkInstance(h_sd=1e121, h_sr=[1e121], h_rd=[1.0], sigma2=1.0)
    sol = solve_individual(inst, SystemParams(1.0, None, IndividualBudget(1.0, [p_i])),
                           alpha=0.5)
    assert sol.diagnostics.clamped == (0,)
    amplitude = math.sqrt(relay_input_powers(inst, 1.0)[0]) * abs(sol.w[1])
    assert amplitude == pytest.approx(math.sqrt(p_i), rel=1e-15, abs=0.0)


def test_value_monotone_in_relay_caps(rng):
    inst = make_instance(rng, 3)
    previous = math.inf
    for scale in (4.0, 1.0, 0.25, 0.05, 0.0):
        params = SystemParams(2.0, None,
                              IndividualBudget(5.0, scale * np.full(3, 0.1)))
        cd = solve_individual(inst, params, alpha=0.6).c_d
        assert cd <= previous + 1e-12
        previous = cd


def test_single_cap_shrink_never_helps(rng):
    inst = make_instance(rng, 3)
    base = np.full(3, 0.1)
    previous = math.inf
    for p_first in (0.5, 0.1, 0.02, 0.0):
        p_i = base.copy()
        p_i[0] = p_first
        cd = solve_individual(
            inst, SystemParams(2.0, None, IndividualBudget(5.0, p_i)), alpha=0.6).c_d
        assert cd <= previous + 1e-12
        previous = cd


def test_rejects_total_budget(rng):
    inst = make_instance(rng, 2)
    with pytest.raises(TypeError):
        solve_individual(inst, SystemParams(2.0, 0.4, TotalBudget(5.0)))


@pytest.mark.parametrize("call, error, message", [
    (lambda inst, b: solve_individual(inst, SystemParams(2.0, None, b), alpha=0.0),
     ValueError, r"^alpha=0\.0 at row 0 outside \(0, 1\]"),
    (lambda inst, b: initial_problem(inst, 2.0, 0.0, b), ValueError,
     r"^alpha=0\.0 outside \(0, 1\]"),
    (lambda inst, b: solve_individual(inst, SystemParams(
        2.0, None, IndividualBudget(5.0, np.full(4, 0.1))), alpha=0.5),
     ValueError, "budget.p_i length must equal the relay count"),
    (lambda inst, b: initial_problem(inst, 2.0, 0.5, IndividualBudget(5.0, np.full(2, 0.1))),
     ValueError, "budget.p_i length must equal the relay count"),
    (lambda inst, b: MagnitudeProblem([1.0, 1.0], [1.0], 1.0, 1.0, 2.0, t1=-0.1),
     ValueError, "^t1 must be >= 0 and t2 >= 1$"),
    (lambda inst, b: MagnitudeProblem([1.0, 1.0], [1.0], 1.0, 1.0, 2.0, t2=0.5),
     ValueError, "^t1 must be >= 0 and t2 >= 1$"),
    (lambda inst, b: MagnitudeProblem([1.0, 1.0], [1.0], 1.0, 1.0, 2.0, tau=-1.0),
     ValueError, "^tau must be nonnegative$"),
    (lambda inst, b: initial_problem(inst, 2.0, 0.5, TotalBudget(5.0)),
     TypeError, "^solve_individual requires an IndividualBudget$"),
    (lambda inst, b: solve_source_only(MagnitudeProblem([1.0, 1.0], [1.0], 1.0, 1.0, 2.0, t1=0.5)),
     ValueError, "^solve_source_only expects the unclamped problem$"),
], ids=["solve-zero-alpha", "derive-zero-alpha", "solve-long-p_i", "derive-short-p_i",
        "negative-t1", "t2-below-1", "negative-tau", "initial-total-budget",
        "source-only-clamped"])
def test_individual_budget_rejects_zero_alpha_and_mismatched_caps(rng, call, error,
                                                                 message):
    inst = make_instance(rng, 3)
    with pytest.raises(error, match=message):
        call(inst, IndividualBudget(5.0, np.full(3, 0.1)))


def test_clamp_bookkeeping_on_the_kernel(rng):
    """A clamp folds the relay's cap into (t1, t2) and drops it from tau; a
    row of the same batch whose caps hold keeps the unclamped problem."""
    inst = make_instance(rng, 3)
    h_sr = inst.h_sr.copy()
    h_sr[1] = 1e-6  # relay 1 then receives almost nothing and stays under its cap
    quiet = NetworkInstance(h_sd=inst.h_sd, h_sr=h_sr, h_rd=inst.h_rd, sigma2=inst.sigma2)
    budget = IndividualBudget(5.0, np.array([1e9, 1e-4, 1e9]))
    sol = solve_individual_batch(NetworkInstance.stack([inst, quiet]),
                                 SystemParams(2.0, None, budget), alpha=0.6)
    assert sol.errors == (None, None)
    diag = sol.diagnostics
    prob = initial_problem(inst, 2.0, 0.6, budget)
    assert tuple(np.flatnonzero(diag.clamped[0])) == (1,)
    assert diag.t1[0] == pytest.approx(prob.c[2] * prob.u_max[1])
    assert diag.t2[0] == pytest.approx(1.0 + prob.u_max[1] ** 2)
    assert diag.tau[0] == pytest.approx(math.hypot(prob.c[1], prob.c[3]))
    quiet_prob = initial_problem(quiet, 2.0, 0.6, budget)
    assert not diag.clamped[1].any()
    assert (diag.t1[1], diag.t2[1]) == (0.0, 1.0)
    assert diag.tau[1] == pytest.approx(quiet_prob.tau)


# Inputs whose closed-form r*, formed in r, overflowed a float: a vanishing
# alpha, explicit or derived from gamma, and a source cap of 1e300.  Each is
# (gamma, alpha, p_s).
ONCE_OVERFLOWING = {
    "alpha-1e-160": (None, 1e-160, 5.0), "alpha-1e-300": (None, 1e-300, 5.0),
    "gamma-1e-160": (1e-160, None, 5.0), "gamma-1e-300": (1e-300, None, 5.0),
    "huge-p_s": (None, 0.5, 1e300),
}


@pytest.mark.parametrize("case", sorted(ONCE_OVERFLOWING))
def test_vanishing_alpha_or_huge_source_cap_is_answered(rng, case):
    """Each is answered within budget, at or above the source-only point, and
    the source-only view of its unclamped problem is finite and spends the
    source cap exactly."""
    gamma, alpha, p_s = ONCE_OVERFLOWING[case]
    inst = make_instance(rng, 3)
    params = SystemParams(2.0, gamma, IndividualBudget(p_s, np.full(3, 0.1)))
    sol = solve_individual(inst, params, alpha=alpha)
    assert_individual_answer(inst, params, sol)
    prob = initial_problem(inst, 2.0, sol.alpha, IndividualBudget(p_s, np.full(3, 1e300)))
    u1, u, r = solve_source_only(prob)
    assert math.isfinite(u1) and math.isfinite(r) and np.isfinite(u).all()
    y = float(np.dot(prob.c[1:], u))
    assert u1 ** 2 + prob.eta2 * y * y == pytest.approx(prob.eta1, rel=1e-12)


def test_clamped_row_at_alpha_just_below_one_takes_its_stationary_root():
    """An M = 4 network at alpha = 1 - 1.1e-16 whose final problem (relays 0
    and 2 clamped) is optimal just above r = 0, at r = 2.92e-4: the answer
    beats C_d = 1.1565682545939293, the r = 0 point, and on the final problem
    the chosen r reaches the optimum 9247075.4292751582 (found with 60-digit
    arithmetic) to 1e-10."""
    inst = NetworkInstance(
        h_sd=126.11250899133591 - 1655.9846710542904j,
        h_sr=[2107.479890474965 - 144.44504158630434j, -0.08890812225695385 + 0.06084937445389548j,
              19.065166828506094 - 4.940454649541868j, 1665.8306449111053 + 722.1191557048583j],
        h_rd=[-9.59068050862079e-05 - 0.0002907123978673281j,
              1.549462062296498e-07 - 7.505560869863355e-09j,
              -0.0028469201228535695 + 0.0008620638578878754j,
              570791.3896461966 + 259179.59459232248j],
        sigma2=378124.90691040584)
    params = SystemParams(3.870083062044825e-08, None, IndividualBudget(
        0.5442023817573749,
        [0.05167996335950992, 10696.043057956282, 0.0002293923872895543, 2536304.0971100167]))
    sol = solve_individual(inst, params, alpha=0.9999999999999999)
    assert sol.c_d > 1.1565683
    assert_individual_answer(inst, params, sol)

    c1, eta2 = 0.8109276443045531, 1.688285997580597e-16
    prob = MagnitudeProblem(c=np.array([c1, 1.0]), u_max=np.array([1.0]),
                            eta1=14061775.239258982, eta2=eta2, eta3=1.0 + eta2 * c1 * c1,
                            t1=1.1743704187383643e-07, t2=1.0000000000000182, active=(0,),
                            tau=0.8865294165004379)
    best, _ = select_root(quartic_coeffs(prob), prob)
    assert prob.objective(best.r) >= 9247075.4292751582 * (1.0 - 1e-10)


# Rows whose weights are finite but whose second-phase power is not.  The
# first network's relay 0 has an input power |h_s0|^2 p1 = inf and weight 0,
# so its power term is inf * 0 = nan (its C_d came out finite, as 393.4).
# The second is a gain-scaled copy (k = 1e-155) of a regular network with
# sigma2 = |h_sd|^2: its relay weights, about 1/k, square to inf.
NON_FINITE_POWER = {
    "nan-power": (
        NetworkInstance(h_sd=1e89, h_sr=[3e95, 7.6e37, 1.5e52], h_rd=[4e-72, 7.2e79, 1e-113],
                        sigma2=1.4e-146),
        SystemParams(1.24e149, 2.45e-21, IndividualBudget(1e-87, [4.4e-88, 4.9e-30, 8.7e86])),
        None, "nan"),
    "subnormal-sigma2": (
        NetworkInstance(h_sd=1e-155, h_sr=[1e-155, 5e-156], h_rd=[8e-156, 1.2e-155],
                        sigma2=1e-155 ** 2),
        SystemParams(2.0, None, IndividualBudget(5.0, [0.1, 0.1])), 0.6, "inf"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_POWER))
def test_a_non_finite_second_phase_power_fails_the_row(case):
    inst, params, alpha, value = NON_FINITE_POWER[case]
    with pytest.raises(NonFiniteSolution, match=rf"^second_phase_power={value}: "):
        solve_individual(inst, params, alpha=alpha)
    sol = solve_individual_batch(NetworkInstance.stack([inst]), params, alpha=alpha)
    assert isinstance(sol.errors[0], NonFiniteSolution)


def _random_batch(rng, n, m):
    """CN gains as in the experiments, with about one gain in ten set to 0."""
    def cn(size, var):
        sd = math.sqrt(var / 2.0)
        return rng.normal(0.0, sd, size) + 1j * rng.normal(0.0, sd, size)

    h_sr, h_rd = cn((n, m), 1.0), cn((n, m), 1.0)
    h_sr[rng.random((n, m)) < 0.1] = 0.0
    h_rd[rng.random((n, m)) < 0.1] = 0.0
    return NetworkInstance(h_sd=cn(n, 0.25), h_sr=h_sr, h_rd=h_rd, sigma2=1.0)


@pytest.mark.parametrize("slack", (1e-12, 1e-10, 1e-8), ids=("strict", "default", "loose"))
def test_clamp_scan_reproduces_the_greedy_loop(slack, monkeypatch):
    """The scan stops where the greedy loop stops: same error class, clamped
    set and offsets (t1, t2 bit for bit: both add in clamp order), and the
    same C_d.  BOUND_SLACK enters the scan's breakpoints, so slacks on both
    sides of the default are checked as well.  Besides the fixed alphas,
    gamma = 1 gives each row its own alpha and fails the rows that cannot
    reach it."""
    monkeypatch.setattr(individual_solver, "BOUND_SLACK", slack)
    rng = np.random.default_rng(0x5CA7)
    multi_clamp = failed = 0
    for m in (1, 2, 3, 5, 17, 40, 100):
        for alpha, gamma in ((1e-150, None), (1e-30, None), (1e-6, None), (0.3, None),
                             (1.0, None), (1e-160, None), (None, 1.0)):
            p_i = 10.0 ** rng.uniform(-4.0, 1.0, m)
            p_i[rng.random(m) < 0.1] = 0.0
            params = SystemParams(float(10.0 ** rng.uniform(-1.0, 1.5)), gamma,
                                  IndividualBudget(float(10.0 ** rng.uniform(-1.0, 1.5)), p_i))
            batch = _random_batch(rng, 30, m)
            errors, clamped, t1, t2, tau, c_d = greedy_reference(batch, params, alpha)
            sol = solve_individual_batch(batch, params, alpha=alpha)
            diag = sol.diagnostics
            assert [type(e) for e in sol.errors] == [type(e) for e in errors]
            np.testing.assert_array_equal(diag.clamped, clamped)
            np.testing.assert_array_equal(diag.t1, t1)
            np.testing.assert_array_equal(diag.t2, t2)
            np.testing.assert_array_equal(diag.tau, tau)
            ok = np.array([e is None for e in errors])
            np.testing.assert_allclose(sol.c_d[ok], c_d[ok], rtol=1e-13, atol=0.0)
            multi_clamp += int(np.sum(clamped[ok].sum(axis=1) >= 2))
            failed += int(np.sum(~ok))
    assert multi_clamp >= 200 and failed >= 30


def test_select_root_on_the_rebuilt_final_problem_gives_chosen_r():
    """The batch keeps no root candidates: select_root on a clamped row's
    final MagnitudeProblem, its initial_problem with the row's clamped set,
    offsets and tau put in, picks the batch's chosen_r bit for bit (also
    r = 0 where every relay is clamped)."""
    rng = np.random.default_rng(0xCA4D)
    checked = {}
    for m in (4, 10, 64):
        for p_i in (0.1, 0.01, 0.003):
            budget = IndividualBudget(5.0, np.full(m, p_i))
            batch = _random_batch(rng, 40, m)
            sol = solve_individual_batch(batch, SystemParams(2.0, None, budget), alpha=0.6)
            diag = sol.diagnostics
            for i in range(batch.n):
                if sol.errors[i] is not None or not diag.clamped[i].any():
                    continue
                inst = NetworkInstance(h_sd=batch.h_sd[i], h_sr=batch.h_sr[i],
                                       h_rd=batch.h_rd[i], sigma2=batch.sigma2)
                prob = dataclasses.replace(
                    initial_problem(inst, 2.0, 0.6, budget), t1=diag.t1[i], t2=diag.t2[i],
                    active=np.flatnonzero(~diag.clamped[i]), tau=diag.tau[i])
                best, _ = select_root(quartic_coeffs(prob), prob)
                assert best.r == diag.chosen_r[i]
                # rows with a relay left active solved a quartic
                checked[m] = checked.get(m, 0) + int(diag.tau[i] > 0.0)
    assert len(checked) == 3 and min(checked.values()) >= 20


# ---------------------------------------------------------------------------
# gain scale: (k h, k^2 sigma2) is the same network as (h, sigma2)


def _gain_scaled(inst, k):
    return NetworkInstance(h_sd=k * inst.h_sd, h_sr=k * inst.h_sr, h_rd=k * inst.h_rd,
                           sigma2=k * k * inst.sigma2)


def _scaled_outcomes(m, seed, alpha, budget, gain=1.0, power=1.0):
    """Outcomes (a BeamSolution or the error raised) of one seeded network
    and of its copy with gains scaled by `gain` and sigma2, p1 and the
    budget by `power` on top."""
    rng = np.random.default_rng(seed)
    inst = make_instance(rng, m)
    p1, p_s = 10.0 ** rng.uniform(-1.0, 1.0, 2)
    p_i = 10.0 ** rng.uniform(-3.0, 0.0, m)
    outcomes = []
    for net, k in ((inst, 1.0), (_gain_scaled(inst, gain), power)):
        net = NetworkInstance(h_sd=net.h_sd, h_sr=net.h_sr, h_rd=net.h_rd,
                              sigma2=k * net.sigma2)
        if budget == "total":
            solve, params = solve_total, SystemParams(k * p1, None, TotalBudget(k * p_s))
        else:
            solve, params = solve_individual, SystemParams(
                k * p1, None, IndividualBudget(k * p_s, k * p_i))
        try:
            outcomes.append(solve(net, params, alpha=alpha))
        except (BeamformingError, ValueError) as err:
            outcomes.append(err)
    return outcomes


def _same_answer(plain, scaled):
    if isinstance(plain, Exception) or isinstance(scaled, Exception):
        assert type(scaled) is type(plain)
    else:
        assert scaled.c_d == pytest.approx(plain.c_d, rel=1e-13, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(0, 8), seed=st.integers(0, 2 ** 31 - 1),
       log10_k=st.floats(-150.0, 150.0), alpha=st.floats(0.05, 1.0),
       budget=st.sampled_from(["total", "individual"]))
def test_gain_scaled_copy_gets_the_same_answer(m, seed, log10_k, alpha, budget):
    """Both budgets see gains, powers and sigma2 only through |h|^2 p / sigma2:
    solving (k h, k^2 sigma2) gives the C_d of (h, sigma2) to rounding, or
    the same named error."""
    _same_answer(*_scaled_outcomes(m, seed, alpha, budget, gain=10.0 ** log10_k))


@settings(max_examples=100, deadline=None)
@given(m=st.integers(0, 8), seed=st.integers(0, 2 ** 31 - 1),
       log10_k=st.floats(-100.0, 100.0), alpha=st.floats(0.05, 1.0),
       budget=st.sampled_from(["total", "individual"]))
def test_power_scaled_copy_gets_the_same_answer(m, seed, log10_k, alpha, budget):
    """Scaling sigma2, p1 and the budget by one k leaves every SNR, and so
    C_d, as it was (or the same named error)."""
    _same_answer(*_scaled_outcomes(m, seed, alpha, budget, power=10.0 ** log10_k))


def test_power_of_two_gain_scale_is_bit_exact():
    """At k = 2^j the individual solve rounds nothing differently: wherever
    every |k h|^2 and k^2 sigma2 is a normal float, C_d, w0, chosen_r, t1,
    t2, tau (all in the problem's own units) and the clamped set are bit for
    bit those of (h, sigma2), and w_relay k too."""
    rng = np.random.default_rng(0x2E)
    tiny = np.finfo(float).tiny
    compared = clamped = 0
    for m in range(1, 7):
        for alpha in (0.6, 1.0):
            for _ in range(5):
                inst = make_instance(rng, m)
                params = _params(m, p_i=0.1 * rng.uniform(0.1, 1.0))
                base = solve_individual(inst, params, alpha=alpha)
                d0 = base.diagnostics
                clamped += bool(d0.clamped)
                for j in (-500, -300, -60, -1, 1, 60, 300, 500):
                    k = 2.0 ** j
                    scaled = _gain_scaled(inst, k)
                    squares = np.abs(np.concatenate(([scaled.h_sd], scaled.h_sr,
                                                     scaled.h_rd))) ** 2
                    if not np.all(squares >= tiny) or scaled.sigma2 < tiny:
                        continue
                    sol = solve_individual(scaled, params, alpha=alpha)
                    d = sol.diagnostics
                    assert (sol.c_d, sol.w[0], d.chosen_r, d.t2, d.clamped) == (
                        base.c_d, base.w[0], d0.chosen_r, d0.t2, d0.clamped)
                    np.testing.assert_array_equal(sol.w[1:] * k, base.w[1:])
                    assert (d.t1, d.tau) == (d0.t1, d0.tau)
                    compared += 1
    assert compared >= 400 and clamped >= 20


def test_source_only_view_is_scale_free(rng):
    """solve_source_only on initial_problem works in the problem's own units,
    as the batch does: a gain-scaled copy gets the unscaled r* and u within
    1e-14 at k = 1e80 .. 1e150, where r* once overflowed in channel units,
    and bit for bit at k = 2^j."""
    budget = IndividualBudget(5.0, np.full(4, 1e12))
    for _ in range(20):
        inst = make_instance(rng, 4)
        a = float(rng.uniform(0.2, 0.95))
        _, u0, r0 = solve_source_only(initial_problem(inst, 2.0, a, budget))
        for k in (1e80, 1e100, 1e150):
            _, u, r = solve_source_only(initial_problem(_gain_scaled(inst, k), 2.0, a, budget))
            assert r == pytest.approx(r0, rel=1e-14, abs=0.0)
            assert u == pytest.approx(u0, rel=1e-14, abs=0.0)
        for j in (-300, -60, 60, 300):
            _, u, r = solve_source_only(
                initial_problem(_gain_scaled(inst, 2.0 ** j), 2.0, a, budget))
            assert r == r0
            np.testing.assert_array_equal(u, u0)

"""Formula-level tests for the channel model, capacities and signal propagation."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anbeam.errors import (BeamformingError, InfeasibleThreshold, NonFiniteSolution,
                           SingularObservation)
from anbeam.experiments import ChannelVariances, ExperimentSpec, instance_stream, sample_instance
from anbeam.individual_solver import initial_problem, solve_individual, solve_individual_batch
from anbeam.model import (
    alpha_for_threshold,
    alpha_monotonicity_threshold,
    beam_sinr,
    capacity_dest,
    capacity_relay,
    cancellation_gains,
    combined_gains,
    derive_model,
    destination_phase2_rx,
    direct_sinr,
    noise_amp_diag,
    noise_residual_scale,
    relay_input_powers,
    relay_power_gains,
    relay_snrs,
    resolve_alphas,
    second_phase_power,
    secrecy_monotone_in_alpha,
    secrecy_rate,
    simulate_noise_residual,
    strongest_relay,
)
from anbeam.oracles import oracle_individual_grid, oracle_total
from anbeam.total_solver import dense_power_matrix, solve_total, solve_total_batch
from anbeam.types import (
    IndividualBudget,
    NetworkInstance,
    SignalRealization,
    SystemParams,
    TotalBudget,
)
from conftest import assert_individual_answer, make_instance, power_amplitudes, random_weights


# ---------------------------------------------------------------------------
# construction guards


def test_instance_rejects_nonpositive_noise():
    with pytest.raises(ValueError):
        NetworkInstance(h_sd=1.0, h_sr=[1.0], h_rd=[1.0], sigma2=0.0)


def test_instance_rejects_vanishing_direct_gain():
    # h_sd = 0 is the one direct gain rejected: the cancellation signal
    # divides by it.  Any nonzero gain is accepted, however small
    with pytest.raises(ValueError, match="h_sd"):
        NetworkInstance(h_sd=0.0, h_sr=[1.0], h_rd=[1.0], sigma2=1.0)
    with pytest.raises(ValueError, match="h_sd"):
        NetworkInstance(h_sd=[1.0, 0.0, 0.5j], h_sr=np.ones((3, 1)), h_rd=np.ones((3, 1)),
                        sigma2=1.0)
    NetworkInstance(h_sd=5e-324, h_sr=[1.0], h_rd=[1.0], sigma2=1.0)


def test_instance_rejects_mismatched_relay_vectors():
    with pytest.raises(ValueError):
        NetworkInstance(h_sd=1.0, h_sr=[1.0, 2.0], h_rd=[1.0], sigma2=1.0)


def _part(gains):
    """A sweep part of the given rows' buffers, built as solve_grid_points builds it."""
    return NetworkInstance(h_sd=gains[:, 0], h_sr=gains[:, 1::2], h_rd=gains[:, 2::2],
                           sigma2=1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: NetworkInstance(h_sd=np.ones(3), h_sr=np.ones((2, 2)), h_rd=np.ones((2, 2)),
                             sigma2=1.0), "h_sd must hold one gain per row of h_sr"),
    (lambda: NetworkInstance.stack([]), "cannot stack an empty list"),
    (lambda: NetworkInstance.stack([
        NetworkInstance(h_sd=1.0, h_sr=[1.0], h_rd=[1.0], sigma2=sigma2)
        for sigma2 in (1.0, 2.0)]), "stacked instances must share sigma2"),
    (lambda: NetworkInstance.stack([
        NetworkInstance(h_sd=1.0, h_sr=np.ones(m), h_rd=np.ones(m), sigma2=1.0)
        for m in (2, 3, 2)]), r"stacked instances must share the relay count, got M in \[2, 3\]"),
    (lambda: NetworkInstance(h_sd=1.0, h_sr=[[1.0, 2.0]], h_rd=[1.0, 2.0], sigma2=1.0),
     "h_sr and h_rd must be 1-dimensional"),
    (lambda: NetworkInstance.stack([NetworkInstance.stack([
        NetworkInstance(h_sd=1.0, h_sr=[1.0], h_rd=[1.0], sigma2=1.0)] * 2)] * 2),
     "h_sr and h_rd must be 2-dimensional"),
    # a sweep part is the field constructor on the column slices of its rows' drawn
    # buffers [h_sd, h_s1, h_1d, ...]; the owning path behind sample_instance takes
    # one such row, whose length is odd
    (lambda: _part(np.ones((2, 2, 3), complex)), "h_sr and h_rd must be 2-dimensional"),
    (lambda: _part(np.ones((2, 4), complex)), "h_sr and h_rd must have the same shape"),
    (lambda: NetworkInstance._of_gains(np.ones(4, complex), 1.0),
     "h_sr and h_rd must have the same shape"),
    (lambda: NetworkInstance._of_gains(np.array([1.0, 1.0, np.nan], complex), 1.0),
     "h_rd must be finite"),
    (lambda: _part(np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], complex)),
     "h_sd must be nonzero"),
    (lambda: NetworkInstance._of_gains(np.ones((2, 3), complex), 1.0),
     "h_sr and h_rd must be 1-dimensional"),
    # a scalar h_sd of any form is a single network's, a 2-D one no stack's
    (lambda: NetworkInstance(h_sd=np.complex128(1.0), h_sr=np.ones((1, 2)), h_rd=np.ones((1, 2)),
                             sigma2=1.0), "h_sr and h_rd must be 1-dimensional"),
    (lambda: NetworkInstance(h_sd=np.array(1.0), h_sr=np.ones((1, 2)), h_rd=np.ones((1, 2)),
                             sigma2=1.0), "h_sr and h_rd must be 1-dimensional"),
    (lambda: NetworkInstance(h_sd=2, h_sr=np.ones((1, 2)), h_rd=np.ones((1, 2)), sigma2=1.0),
     "h_sr and h_rd must be 1-dimensional"),
    (lambda: NetworkInstance(h_sd=np.ones((2, 1)), h_sr=np.ones((2, 2)), h_rd=np.ones((2, 2)),
                             sigma2=1.0), "h_sd must hold one gain per row of h_sr"),
], ids=["short-h_sd", "empty-stack", "mixed-sigma2", "mixed-m", "2d-h_sr", "stack-of-stacks",
        "3d-buffer", "even-stack-buffer", "even-buffer", "nan-buffer", "zero-h_sd-buffer",
        "2d-buffer", "complex128-h_sd-2d-h_sr", "0d-h_sd-2d-h_sr", "int-h_sd-2d-h_sr",
        "2d-h_sd"])
def test_instance_and_batch_shapes_are_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# one constructor per validated field, with that field set to the given value
_FIELD_BUILDERS = {
    "h_sd": lambda x: NetworkInstance(h_sd=x, h_sr=[1.0], h_rd=[1.0], sigma2=1.0),
    "h_sr": lambda x: NetworkInstance(h_sd=1.0, h_sr=[1.0, x], h_rd=[1.0, 1.0], sigma2=1.0),
    "h_rd": lambda x: NetworkInstance(h_sd=1.0, h_sr=[1.0, 1.0], h_rd=[x, 1.0], sigma2=1.0),
    "sigma2": lambda x: NetworkInstance(h_sd=1.0, h_sr=[1.0], h_rd=[1.0], sigma2=x),
    "p_tot": lambda x: TotalBudget(x),
    "p_s": lambda x: IndividualBudget(x, [0.1]),
    "p_i": lambda x: IndividualBudget(5.0, [0.1, x]),
    "p1": lambda x: SystemParams(x, 0.5, TotalBudget(1.0)),
    "gamma": lambda x: SystemParams(2.0, x, TotalBudget(1.0)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(_FIELD_BUILDERS))
def test_domain_types_reject_non_finite_fields(name, value):
    _FIELD_BUILDERS[name](1.0)  # the finite baseline is accepted
    with pytest.raises(ValueError, match=name):
        _FIELD_BUILDERS[name](value)


_NAN, _INF = math.nan, math.inf


# a single network's h_sd is checked as a Python complex, a stack's as an
# array; both must reject a non-finite real or imaginary part by name
@pytest.mark.parametrize("name, build", [
    ("h_sd", lambda: NetworkInstance(h_sd=complex(1, _NAN), h_sr=[1.0], h_rd=[1.0], sigma2=1.0)),
    ("h_sd", lambda: NetworkInstance(h_sd=complex(_INF, 0), h_sr=[1.0], h_rd=[1.0], sigma2=1.0)),
    ("h_sd", lambda: NetworkInstance(h_sd=np.complex128(_NAN), h_sr=[1.0], h_rd=[1.0],
                                     sigma2=1.0)),
    ("h_sd", lambda: NetworkInstance(h_sd=np.array(complex(0.5, -_INF)), h_sr=[1.0],
                                     h_rd=[1.0], sigma2=1.0)),
    ("h_sd", lambda: NetworkInstance(h_sd=-_INF, h_sr=[1.0], h_rd=[1.0], sigma2=1.0)),
    ("h_sd", lambda: NetworkInstance(h_sd=np.float64(_NAN), h_sr=[1.0], h_rd=[1.0], sigma2=1.0)),
    ("h_sr", lambda: NetworkInstance(h_sd=1.0, h_sr=[1.0, complex(1, _NAN)], h_rd=[1.0, 1.0],
                                     sigma2=1.0)),
    ("h_rd", lambda: NetworkInstance(h_sd=1.0, h_sr=[1.0, 1.0], h_rd=[complex(0, _INF), 1.0],
                                     sigma2=1.0)),
    ("h_sd", lambda: NetworkInstance(h_sd=[1.0, complex(1, _NAN), 0.5], h_sr=np.ones((3, 2)),
                                     h_rd=np.ones((3, 2)), sigma2=1.0)),
    ("h_sr", lambda: NetworkInstance(h_sd=np.ones(2), h_sr=[[1.0, 1.0], [1.0, complex(0, _NAN)]],
                                     h_rd=np.ones((2, 2)), sigma2=1.0)),
    ("h_rd", lambda: NetworkInstance(h_sd=np.ones(2), h_sr=np.ones((2, 2)),
                                     h_rd=[[complex(1, -_INF), 1.0], [1.0, 1.0]], sigma2=1.0)),
], ids=["h_sd-nan-imag", "h_sd-inf-real", "h_sd-complex128-nan", "h_sd-0d-array",
        "h_sd-real-inf", "h_sd-float64-nan", "h_sr-nan-imag", "h_rd-inf-imag", "stack-h_sd-row",
        "stack-h_sr-row", "stack-h_rd-row"])
def test_non_finite_complex_channels_are_rejected_by_name(name, build):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        build()


def _drawn(m, n=None):
    """A sampled network of m relays, or a stack of n of them."""
    rows = [sample_instance(m, ChannelVariances(), instance_stream(5, slot))
            for slot in range(n or 1)]
    return rows[0] if n is None else NetworkInstance.stack(rows)


@pytest.mark.parametrize("m", [1, 4, 256])
def test_stack_is_np_stack_of_the_rows(m):
    rows = [sample_instance(m, ChannelVariances(), instance_stream(2, slot)) for slot in range(7)]
    batch = NetworkInstance.stack(rows)
    for name in ("h_sr", "h_rd"):
        want = np.stack([getattr(row, name) for row in rows])
        got = getattr(batch, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes() and not got.flags.writeable
    assert batch.h_sd.tobytes() == np.array([row.h_sd for row in rows]).tobytes()


_KEPT = [combined_gains, cancellation_gains, noise_amp_diag, relay_power_gains]


@pytest.mark.parametrize("form", _KEPT, ids=lambda form: form.__name__)
@pytest.mark.parametrize("n", [None, 6], ids=["single", "stack"])
def test_kept_channel_array_is_read_only_formula_formed_once(form, n):
    instance = _drawn(4, n)
    kept = form(instance)
    fresh = form.__wrapped__(instance)  # the formula itself, evaluated anew
    assert kept is not fresh and kept.tobytes() == fresh.tobytes()
    assert kept.dtype == fresh.dtype and kept.shape == fresh.shape
    assert not kept.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        kept[..., 0] = 0.0
    assert form(instance) is kept


@pytest.mark.parametrize("form", _KEPT, ids=lambda form: form.__name__)
def test_kept_channel_arrays_are_not_shared_by_a_copy_or_a_new_stack(form):
    rows = [_drawn(3) for _ in range(2)]
    for old, new in [(rows[0], dataclasses.replace(rows[0])),
                     (rows[0], dataclasses.replace(rows[0], h_sr=rows[0].h_sr * 2.0)),
                     (NetworkInstance.stack(rows), NetworkInstance.stack(rows))]:
        kept = form(old)
        assert form(new) is not kept
        assert form(new).tobytes() == form.__wrapped__(new).tobytes()


def test_relay_input_powers_keep_their_bits():
    batch = _drawn(5, 8)
    p1 = np.linspace(0.5, 10.0, 8)
    want = np.square(np.abs(batch.h_sr)) * p1[:, None] + batch.sigma2
    assert relay_input_powers(batch, p1).tobytes() == want.tobytes()


@pytest.mark.parametrize("h_sd", [-0.0, 0j, complex(-0.0, -0.0), np.array(0j)],
                         ids=["negative-zero", "complex-zero", "signed-complex-zero", "0d-zero"])
def test_every_zero_direct_gain_is_rejected(h_sd):
    with pytest.raises(ValueError, match="^h_sd must be nonzero"):
        NetworkInstance(h_sd=h_sd, h_sr=[1.0], h_rd=[1.0], sigma2=1.0)


@pytest.mark.parametrize("h_sd", [0.5 - 0.25j, np.complex128(0.5 - 0.25j),
                                  np.array(0.5 - 0.25j), 0.5, np.float64(0.5), 2],
                         ids=["complex", "complex128", "0d-array", "float", "float64", "int"])
def test_a_single_networks_h_sd_is_kept_as_a_python_complex(h_sd):
    inst = NetworkInstance(h_sd=h_sd, h_sr=[1.0], h_rd=[1.0], sigma2=1.0)
    assert type(inst.h_sd) is complex and inst.h_sd == complex(h_sd)


def test_smallest_imaginary_direct_gain_is_accepted():
    inst = NetworkInstance(h_sd=5e-324j, h_sr=[1.0], h_rd=[1.0], sigma2=1.0)
    assert inst.h_sd == 5e-324j and type(inst.h_sd) is complex


def test_instance_arrays_are_immutable():
    inst = NetworkInstance(h_sd=1.0, h_sr=[1.0], h_rd=[2.0], sigma2=1.0)
    with pytest.raises(ValueError):
        inst.h_sr[0] = 5.0


# ---------------------------------------------------------------------------
# strongest relay


def test_strongest_relay_tie_breaks_low():
    gains = np.sqrt([0.2, 0.9, 0.9])
    inst = NetworkInstance(h_sd=1.0, h_sr=gains, h_rd=np.ones(3), sigma2=1.0)
    assert strongest_relay(inst) == 1


def test_strongest_relay_singleton():
    inst = NetworkInstance(h_sd=1.0, h_sr=[1.0], h_rd=[1.0], sigma2=1.0)
    assert strongest_relay(inst) == 0


def test_strongest_relay_matches_linear_scan(rng):
    for _ in range(20):
        inst = make_instance(rng, 8)
        best, best_gain = 0, -1.0
        for i in range(8):
            gain = abs(inst.h_sr[i]) ** 2
            if gain > best_gain:
                best, best_gain = i, gain
        assert strongest_relay(inst) == best


def test_strongest_relay_requires_relays():
    inst = NetworkInstance(h_sd=1.0, h_sr=[], h_rd=[], sigma2=1.0)
    with pytest.raises(ValueError, match="^instance has no relays: strongest_relay"):
        strongest_relay(inst)


# ---------------------------------------------------------------------------
# power split from the SNR threshold


UNIT = NetworkInstance(h_sd=1.0, h_sr=[1.0], h_rd=[1.0], sigma2=1.0)


def test_alpha_at_threshold_ceiling_is_one():
    assert alpha_for_threshold(UNIT, p1=1.0, gamma=1.0) == pytest.approx(1.0)


def test_alpha_for_half_threshold():
    a = alpha_for_threshold(UNIT, p1=1.0, gamma=0.5)
    assert a == pytest.approx(2.0 / 3.0)
    assert relay_snrs(UNIT, 1.0, a)[0] == pytest.approx(0.5)


def test_alpha_infeasible_threshold():
    with pytest.raises(InfeasibleThreshold):
        alpha_for_threshold(UNIT, p1=1.0, gamma=2.0)


def test_alpha_for_zero_relay_gains_is_infeasible_without_warnings():
    """With every h_sr zero the strongest relay's ceiling is 0: the split
    reports InfeasibleThreshold and does not warn about the zero gain."""
    inst = NetworkInstance(h_sd=0.5, h_sr=[0.0, 0.0], h_rd=[1.0, 1.0], sigma2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleThreshold):
            alpha_for_threshold(inst, p1=2.0, gamma=1.0)


def test_alpha_with_an_overflowing_ceiling_is_its_limit_without_warnings():
    """|h_sr|^2 p1 = 1e310 overflows: the ceiling is inf, gamma is reached
    and alpha is (1 + 0) / (1 + 1/gamma), with no overflow warning."""
    inst = NetworkInstance(h_sd=1.0, h_sr=[1e150, 1.0], h_rd=[1.0, 1.0], sigma2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert alpha_for_threshold(inst, p1=1e10, gamma=1.0) == 0.5
        alphas, errors = resolve_alphas(NetworkInstance.stack([inst]), 1e10, 1.0, None)
    assert alphas.tolist() == [0.5] and errors.errors == [None]


@pytest.mark.parametrize("split", [
    lambda p1, gamma: alpha_for_threshold(UNIT, p1, gamma),
    lambda p1, gamma: resolve_alphas(NetworkInstance.stack([UNIT]), p1, gamma, None),
], ids=["alpha_for_threshold", "resolve_alphas"])
@pytest.mark.parametrize("p1, gamma, name", [
    (1.0, math.nan, "gamma"),
    (1.0, -1.0, "gamma"),
    (1.0, 0.0, "gamma"),
    (1.0, math.inf, "gamma"),
    (1.0, 1e-310, "gamma"),
    (math.nan, 0.5, "p1"),
    (-1.0, 0.5, "p1"),
    (0.0, 0.5, "p1"),
    (math.inf, 0.5, "p1"),
], ids=["nan-gamma", "negative-gamma", "zero-gamma", "inf-gamma", "underflowing-gamma", "nan-p1",
        "negative-p1", "zero-p1", "inf-p1"])
def test_threshold_split_rejects_bad_inputs_by_name(split, p1, gamma, name):
    with pytest.raises(ValueError, match=f"^{name}="):
        split(p1, gamma)


@pytest.mark.parametrize("split, message", [
    (lambda: alpha_for_threshold(UNIT, 1.0, None), "^either alpha or gamma must be given$"),
    (lambda: solve_total_batch(NetworkInstance.stack([NetworkInstance(
        h_sd=1.0, h_sr=[], h_rd=[], sigma2=1.0)] * 2), SystemParams(1.0, 0.5, TotalBudget(1.0))),
     "^instance has no relays: gamma, a relay SNR threshold, needs one$"),
], ids=["neither-alpha-nor-gamma", "gamma-without-relays"])
def test_threshold_split_needs_gamma_and_a_relay(split, message):
    with pytest.raises(ValueError, match=message):
        split()


def test_alpha_round_trip_and_dominance(rng):
    for _ in range(50):
        m = int(rng.integers(1, 7))
        inst = make_instance(rng, m)
        p1 = float(rng.uniform(0.5, 8.0))
        e = strongest_relay(inst)
        gamma = float(rng.uniform(0.05, 0.999)) * abs(inst.h_sr[e]) ** 2 * p1 / inst.sigma2
        a = alpha_for_threshold(inst, p1, gamma)
        assert 0.0 < a <= 1.0
        assert relay_snrs(inst, p1, a)[e] == pytest.approx(gamma, rel=1e-12)
        assert np.all(relay_snrs(inst, p1, a) <= gamma * (1.0 + 1e-12))


# sigma2 = 0.3 and |h_s1|^2 p1 = 0.81 * 3: at gamma = the strongest relay's
# full-power SNR, the split formula rounds to 1 + 2^-52, not 1
EDGE = NetworkInstance(h_sd=0.5, h_sr=[0.9, 0.3j], h_rd=[0.8, 0.4], sigma2=0.3)
EDGE_GAMMA = float(abs(EDGE.h_sr[0]) ** 2 * 3.0 / EDGE.sigma2)
EDGE_BUDGETS = {solve_total: TotalBudget(4.0),
                solve_individual: IndividualBudget(2.0, np.full(2, 0.5))}


def test_split_at_the_full_power_snr_is_exactly_one():
    gain2 = abs(EDGE.h_sr[0]) ** 2
    assert (1.0 + EDGE.sigma2 / (gain2 * 3.0)) / (1.0 + 1.0 / EDGE_GAMMA) == 1.0 + 2.0 ** -52
    assert alpha_for_threshold(EDGE, 3.0, EDGE_GAMMA) == 1.0
    for solve, budget in EDGE_BUDGETS.items():
        assert solve(EDGE, SystemParams(3.0, EDGE_GAMMA, budget)).alpha == 1.0
    assert relay_snrs(EDGE, 3.0, 1.0)[0] == pytest.approx(EDGE_GAMMA, rel=1e-12, abs=0.0)


def test_threshold_one_ulp_out_of_reach_prints_both_values_in_full():
    gamma = float(np.nextafter(EDGE_GAMMA, math.inf))
    with pytest.raises(InfeasibleThreshold, match="^" + re.escape(
            f"gamma={gamma!r} exceeds the strongest relay's full-power SNR {EDGE_GAMMA!r};")):
        alpha_for_threshold(EDGE, 3.0, gamma)


@pytest.mark.parametrize("solve", [solve_total, solve_individual], ids=lambda f: f.__name__)
def test_gamma_whose_split_underflows_fails_each_row(solve):
    """At or below gamma ~ 5.56e-309, 1/gamma overflows and the derived alpha
    would underflow to 0 whatever the row.  That depends on gamma alone, so
    every place gamma enters rejects it with one message naming gamma, and
    the smallest gamma above the bound gives a positive split."""
    underflow = ("^gamma=1e-310 must be finite and above 5.56e-309, "
                 "where 1/gamma overflows a float$")
    mode = "total" if solve is solve_total else "individual"
    with pytest.raises(ValueError, match=underflow):
        SystemParams(3.0, 1e-310, EDGE_BUDGETS[solve])
    with pytest.raises(ValueError, match=underflow):
        ExperimentSpec(m_values=[2], p1_values=[3.0], gamma=1e-310, budget_mode=mode)
    with pytest.raises(ValueError, match=underflow):
        alpha_for_threshold(EDGE, 3.0, 1e-310)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=underflow):
            resolve_alphas(NetworkInstance.stack([EDGE, EDGE]), 3.0, np.float64(1e-310), None)
        smallest = float(np.nextafter(1.0 / np.finfo(float).max, 1.0))
        assert math.isfinite(1.0 / smallest)
        SystemParams(3.0, smallest, EDGE_BUDGETS[solve])
        ExperimentSpec(m_values=[2], p1_values=[3.0], gamma=smallest, budget_mode=mode)
        assert 0.0 < alpha_for_threshold(EDGE, 3.0, smallest) < 1e-307


@pytest.mark.parametrize("entry, solve", [
    (lambda inst, params: solve_total(inst, params, alpha=0.0), solve_total),
    (lambda inst, params: solve_individual(inst, params, alpha=0.0), solve_individual),
    (lambda inst, params: solve_total_batch(
        NetworkInstance.stack([inst, inst]), params, alpha=np.array([0.5, 0.0])), solve_total),
    (lambda inst, params: solve_individual_batch(
        NetworkInstance.stack([inst, inst]), params, alpha=np.array([0.5, 0.0])),
     solve_individual),
    (lambda inst, params: oracle_total(inst, params, 16, alpha=0.0), solve_total),
    (lambda inst, params: oracle_individual_grid(inst, params, alpha=0.0), solve_individual),
], ids=["solve_total", "solve_individual", "solve_total_batch", "solve_individual_batch",
        "oracle_total", "oracle_individual_grid"])
def test_every_solve_entry_rejects_a_zero_alpha_row(entry, solve):
    with pytest.raises(ValueError, match="^alpha="):
        entry(EDGE, SystemParams(2.0, None, EDGE_BUDGETS[solve]))


# ---------------------------------------------------------------------------
# SNRs and capacities


def test_relay_snr_extremes():
    assert relay_snrs(UNIT, 1.0, 0.0)[0] == 0.0
    assert relay_snrs(UNIT, 3.0, 1.0)[0] == pytest.approx(3.0)


def test_relay_snr_example():
    assert relay_snrs(UNIT, 1.0, 2.0 / 3.0)[0] == pytest.approx(0.5)


def test_relay_snr_nondecreasing_in_alpha(rng):
    inst = make_instance(rng, 3)
    grid = np.linspace(0.0, 1.0, 100)
    for i in range(3):
        snrs = [relay_snrs(inst, 2.5, a)[i] for a in grid]
        assert np.all(np.diff(snrs) >= -1e-15)


def test_capacity_relay_and_the_threshold_read_the_one_relay_snr():
    """capacity_relay and the gamma -> alpha map read the relay SNR that
    relay_snrs computes, bit for bit: a gamma set to the strongest relay's
    full-power SNR gives alpha exactly 1 and is never out of reach."""
    rng = np.random.default_rng(0x5E1A)
    for _ in range(2000):
        m = int(rng.integers(1, 7))
        inst = make_instance(rng, m, sigma2=float(rng.uniform(0.1, 10.0)))
        p1, a = float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.05, 1.0))
        snrs = relay_snrs(inst, p1, a)
        for i in range(m):
            assert capacity_relay(inst, p1, a, i) == 0.5 * math.log2(1.0 + float(snrs[i]))
        ceiling = relay_snrs(inst, p1, 1.0)[strongest_relay(inst)]
        assert alpha_for_threshold(inst, p1, ceiling) == 1.0


@pytest.mark.parametrize("p1,expected", [(1.0, 0.5), (3.0, 1.0)])
def test_capacity_relay_values(p1, expected):
    # alpha=1 makes Gamma = p1 here, so C = 1/2 log2(1 + p1)
    assert capacity_relay(UNIT, p1, 1.0, 0) == pytest.approx(expected)


def test_capacity_relay_zero_at_zero_alpha():
    assert capacity_relay(UNIT, 1.0, 0.0, 0) == 0.0


def test_capacity_dest_zero_alpha(rng):
    inst = make_instance(rng, 2)
    w = random_weights(rng, 2)
    assert capacity_dest(inst, 4.0, 0.0, w) == 0.0


def test_capacity_dest_direct_only():
    inst = NetworkInstance(h_sd=1.0, h_sr=[0.3], h_rd=[0.3], sigma2=1.0)
    w = np.zeros(2, dtype=complex)
    assert capacity_dest(inst, 1.0, 1.0, w) == pytest.approx(0.5)


def test_capacity_dest_with_zero_weights_is_direct_formula(rng):
    for _ in range(10):
        inst = make_instance(rng, 3)
        a = float(rng.uniform(0.0, 1.0))
        w = np.zeros(4, dtype=complex)
        assert capacity_dest(inst, 2.0, a, w) == \
            0.5 * np.log2(1.0 + direct_sinr(inst, 2.0, a))


def test_secrecy_rate_is_worst_case_over_relays(rng):
    for _ in range(20):
        m = int(rng.integers(1, 6))
        inst = make_instance(rng, m)
        a = float(rng.uniform(0.1, 0.95))
        w = random_weights(rng, m)
        cd = capacity_dest(inst, 3.0, a, w)
        exhaustive = min(cd - capacity_relay(inst, 3.0, a, i) for i in range(m))
        assert secrecy_rate(inst, 3.0, a, w) == pytest.approx(exhaustive, abs=1e-14)


def test_secrecy_rate_zero_at_zero_alpha(rng):
    inst = make_instance(rng, 2)
    assert secrecy_rate(inst, 3.0, 0.0, random_weights(rng, 2)) == 0.0


def test_relay_and_secrecy_capacities_name_an_overflowing_snr():
    """|h_sd|^2 and |h_s1|^2 overflow a float: capacity_relay and
    secrecy_rate raise NonFiniteSolution naming the SNR that is not finite,
    without a numpy warning, and the finite relay still has its capacity."""
    inst = NetworkInstance(h_sd=1e160, h_sr=[1e160, 1.0], h_rd=[1.0, 1.0], sigma2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSolution, match=r"^relay 0's SNR=nan is not finite"):
            capacity_relay(inst, 1.0, 0.5, 0)
        assert capacity_relay(inst, 1.0, 0.5, 1) == 0.5 * math.log2(1.0 + 0.5 / 1.5)
        with pytest.raises(NonFiniteSolution, match=r"^C_d=nan is not finite"):
            secrecy_rate(inst, 1.0, 0.5, np.array([1.0, 0.0, 0.0]))
        direct = NetworkInstance(h_sd=1.0, h_sr=inst.h_sr, h_rd=inst.h_rd, sigma2=1.0)
        with pytest.raises(NonFiniteSolution, match=r"^relay 0's SNR=nan is not finite"):
            secrecy_rate(direct, 1.0, 0.5, np.array([1.0, 0.0, 0.0]))


def test_noise_residual_names_an_overflowing_reception():
    """|h_s1 h_1d| overflows a float, so the forwarded and cancelling u-terms
    are both infinite: simulate_noise_residual raises NonFiniteSolution
    naming the residual, without a numpy warning."""
    inst = NetworkInstance(h_sd=1.0, h_sr=[1e200], h_rd=[1e200], sigma2=1.0)
    realization = SignalRealization(x=1.0, u=1.0, z=np.ones(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        named = r"^the noise residual=\(nan\+nanj\) is not finite$"
        with pytest.raises(NonFiniteSolution, match=named):
            simulate_noise_residual(inst, 1.0, 0.5, np.array([1.0, 1.0]), realization)


def test_secrecy_rate_needs_relays():
    inst = NetworkInstance(h_sd=1.0, h_sr=[], h_rd=[], sigma2=1.0)
    with pytest.raises(ValueError, match="^instance has no relays: strongest_relay"):
        secrecy_rate(inst, 1.0, 0.5, np.array([1.0 + 0j]))


# ---------------------------------------------------------------------------
# monotonicity-in-alpha threshold


def test_monotonicity_threshold_zero_for_matched_gains():
    inst = NetworkInstance(h_sd=0.7, h_sr=[0.7j], h_rd=[1.0], sigma2=1.0)
    assert alpha_monotonicity_threshold(inst, 1.0) == pytest.approx(0.0)
    assert secrecy_monotone_in_alpha(inst, 1.0, np.zeros(2, dtype=complex))


def test_monotonicity_threshold_singular_case():
    # sigma2 = |h_se|^2 p1 puts rho_e exactly at the excluded value 2
    with pytest.raises(SingularObservation):
        alpha_monotonicity_threshold(UNIT, 1.0)


def _rho_threshold(instance, p1):
    """The threshold in its rho_j = 1 + sigma2/(|h_sj|^2 p1) form, at the
    strongest relay: the reference for the SNR form."""
    e = strongest_relay(instance)
    rho_d = instance.sigma2 / (abs(instance.h_sd) ** 2 * p1) + 1.0
    rho_e = instance.sigma2 / (abs(instance.h_sr[e]) ** 2 * p1) + 1.0
    return (rho_d - rho_e) * rho_d / ((rho_d - 1.0) ** 2 * (rho_e - 2.0))


def test_monotonicity_threshold_matches_rho_form(rng):
    for _ in range(1500):
        inst = make_instance(rng, int(rng.integers(1, 6)))
        p1 = float(rng.uniform(0.1, 10.0))
        expected = _rho_threshold(inst, p1)
        assert alpha_monotonicity_threshold(inst, p1) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("h_sd, h_sr, expected", [
    (1e-170, [1.0, 0.5], -2.0),   # x_d = 0: the rho form divides by zero
    (1e-100, [1.0, 0.5], -2.0),   # x_d = 2e-200: (rho_d - 1)^2 overflows
    (1.0, [1e-170, 1e-170], -6.0),  # x_e = 0: rho_e is inf, the rho form nan
])
def test_monotonicity_threshold_at_extreme_networks(h_sd, h_sr, expected):
    inst = NetworkInstance(h_sd=h_sd, h_sr=h_sr, h_rd=[1.0, 0.3], sigma2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert alpha_monotonicity_threshold(inst, 2.0) == expected


def test_monotonicity_threshold_names_an_overflowing_snr():
    # |h_s1|^2 = 1e400 overflows a float, so x_e is not finite
    inst = NetworkInstance(h_sd=1.0, h_sr=[1e200, 0.5], h_rd=[1.0, 0.3], sigma2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSolution, match=r"x_d=2\.0 and x_e=nan"):
            alpha_monotonicity_threshold(inst, 2.0)


def test_monotone_predicate_names_a_beam_factor_that_is_not_finite():
    # |h_s1 h_1d|^2 and |h_1d|^2 overflow a float: f(w) = inf / inf
    inst = NetworkInstance(h_sd=1.0, h_sr=[1e200], h_rd=[1e200], sigma2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSolution, match=r"^the beam factor f\(w\)=nan is not finite"):
            secrecy_monotone_in_alpha(inst, 2.0, np.array([1.0, 1.0]))


def test_monotonic_secrecy_when_predicate_holds(rng):
    """Finite-difference check: while the beam factor clears the threshold
    (and the relay side sits in the rho_e > 2 regime), the secrecy rate is
    nondecreasing along alpha for a fixed w."""
    checked = 0
    for _ in range(60):
        inst = make_instance(rng, 2)
        weak = NetworkInstance(h_sd=inst.h_sd, h_sr=0.1 * inst.h_sr,
                               h_rd=inst.h_rd, sigma2=1.0)
        p1 = 2.0
        e = strongest_relay(weak)
        rho_e = weak.sigma2 / (abs(weak.h_sr[e]) ** 2 * p1) + 1.0
        if rho_e <= 2.05:
            continue
        w = random_weights(rng, 2)
        if not secrecy_monotone_in_alpha(weak, p1, w):
            continue
        grid = np.linspace(0.01, 0.99, 99)
        values = [secrecy_rate(weak, p1, a, w) for a in grid]
        assert np.all(np.diff(values) >= -1e-9), np.min(np.diff(values))
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# second-phase power accounting


def test_power_zero_weights(rng):
    inst = make_instance(rng, 3)
    assert second_phase_power(inst, 2.0, 0.5, np.zeros(4, dtype=complex)) == 0.0


def test_power_no_relays_block_collapse():
    inst = NetworkInstance(h_sd=2.0, h_sr=[], h_rd=[], sigma2=1.0)
    w = np.array([1.5 - 0.5j])
    assert second_phase_power(inst, 3.0, 0.4, w) == \
        pytest.approx(0.4 * 3.0 * abs(w[0]) ** 2)


def test_power_block_formula_matches_dense_quadratic(rng):
    for _ in range(1000):
        m = int(rng.integers(0, 5))
        inst = make_instance(rng, m)
        a = float(rng.uniform(0.0, 1.0))
        w = random_weights(rng, m)
        d = dense_power_matrix(derive_model(inst, 2.2, a))
        dense = float(np.real(np.conj(w) @ d @ w))
        assert second_phase_power(inst, 2.2, a, w) == pytest.approx(dense, rel=1e-12)


def test_power_matches_monte_carlo_waveforms(rng):
    """Empirical mean transmit power of actual second-phase waveforms."""
    inst = make_instance(rng, 3)
    p1, a = 2.0, 0.55
    w = random_weights(rng, 3)
    n = 100_000
    scale = math.sqrt(0.5)
    x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    u = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    z = math.sqrt(inst.sigma2 / 2.0) * (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
    s1 = math.sqrt(a * p1) * x + math.sqrt((1 - a) * p1) * u
    relay_rx = np.outer(s1, inst.h_sr) + z
    g = inst.h_sr * inst.h_rd / inst.h_sd
    src_tx = math.sqrt(a * p1) * w[0] * x - math.sqrt((1 - a) * p1) * np.dot(g, w[1:]) * u
    power = np.mean(np.abs(src_tx) ** 2) + np.sum(
        np.mean(np.abs(relay_rx * w[1:]) ** 2, axis=0))
    assert second_phase_power(inst, p1, a, w) == pytest.approx(float(power), rel=0.01)


# ---------------------------------------------------------------------------
# artificial-noise cancellation


def _random_realization(rng, m):
    return SignalRealization(
        x=complex(rng.normal(), rng.normal()),
        u=complex(rng.normal(), rng.normal()),
        z=rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1),
    )


def test_noise_residual_small_for_random_draws(rng):
    """The residual is within 1e-12 of its scale, and a realization with
    u = 0 is propagated like any other: same x and z, same coefficient."""
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        inst = make_instance(rng, m)
        a = float(rng.uniform(0.0, 1.0))
        w = random_weights(rng, m)
        realization = _random_realization(rng, m)
        res = simulate_noise_residual(inst, 3.0, a, w, realization)
        scale = noise_residual_scale(inst, 3.0, a, w)
        assert abs(res) <= 1e-12 * max(scale, 1e-300)
        silent = SignalRealization(x=realization.x, u=0.0, z=realization.z)
        assert simulate_noise_residual(inst, 3.0, a, w, silent) == res


def test_noise_residual_zero_weights(rng):
    inst = make_instance(rng, 2)
    res = simulate_noise_residual(inst, 3.0, 0.5, np.zeros(3, dtype=complex),
                                  _random_realization(rng, 2))
    assert res == 0.0


def test_phase2_message_coefficient(rng):
    """With noises and artificial noise silenced, the phase-2 reception is
    exactly sqrt(alpha p1) (w0 h_sd + sum w_i h_si h_id) x."""
    inst = make_instance(rng, 3)
    a, p1 = 0.6, 2.0
    w = random_weights(rng, 3)
    x = complex(rng.normal(), rng.normal())
    clean = SignalRealization(x=x, u=0.0, z=np.zeros(4, dtype=complex))
    rx = destination_phase2_rx(inst, p1, a, w, clean)
    coeff = math.sqrt(a * p1) * (w[0] * inst.h_sd + np.dot(w[1:], inst.h_sr * inst.h_rd))
    assert rx == pytest.approx(coeff * x, rel=1e-12)


def test_phase2_reception_over_symbol_arrays_matches_per_symbol_calls(rng):
    """n symbols in one call give, row by row, what n one-symbol calls give."""
    n = 64
    for m in (0, 1, 4):
        inst = make_instance(rng, m)
        w = random_weights(rng, m)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        z = rng.normal(size=(n, m + 1)) + 1j * rng.normal(size=(n, m + 1))
        many = SignalRealization(x=x, u=u, z=z)
        assert not many.x.flags.writeable and not many.z.flags.writeable
        rx = destination_phase2_rx(inst, 2.0, 0.4, w, many)
        assert rx.shape == (n,)
        for k in range(n):
            one = SignalRealization(x=x[k], u=u[k], z=z[k])
            assert type(one.x) is complex and type(one.u) is complex
            expected = destination_phase2_rx(inst, 2.0, 0.4, w, one)
            assert abs(rx[k] - expected) <= 1e-13 * abs(expected)


def test_signal_realization_keeps_its_own_copy_of_the_symbols(rng):
    """Writing to the caller's arrays after construction leaves the
    realization as it was built."""
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    z = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    realization = SignalRealization(x=x, u=u, z=z)
    built = [realization.x.copy(), realization.u.copy(), realization.z.copy()]
    x[0] = u[0] = z[0, 0] = 5.0
    for kept, before in zip((realization.x, realization.u, realization.z), built):
        assert np.array_equal(kept, before) and not kept.flags.writeable


@pytest.mark.parametrize("m", [0, 1, 4])
def test_phase2_reception_is_the_linear_form_of_its_basis_responses(rng, m):
    """The phase-2 reception is linear in (x, u, z): the row of its responses
    to the M+3 basis symbols reproduces it on random symbols, and zero
    symbols give 0.  empirical_snr's quadratic forms rest on this."""
    inst = make_instance(rng, m)
    w = random_weights(rng, m)
    basis = np.eye(m + 3, dtype=complex)  # x, u, then z's M+1 columns
    row = destination_phase2_rx(inst, 2.0, 0.4, w,
                                SignalRealization(x=basis[0], u=basis[1], z=basis[:, 2:]))
    v = rng.normal(size=(64, m + 3)) + 1j * rng.normal(size=(64, m + 3))
    rx = destination_phase2_rx(inst, 2.0, 0.4, w,
                               SignalRealization(x=v[:, 0], u=v[:, 1], z=v[:, 2:]))
    assert np.all(np.abs(v @ row - rx) <= 1e-13 * np.abs(rx))
    zero = np.zeros((64, m + 3), dtype=complex)
    assert np.all(destination_phase2_rx(inst, 2.0, 0.4, w, SignalRealization(
        x=zero[:, 0], u=zero[:, 1], z=zero[:, 2:])) == 0.0)


# ---------------------------------------------------------------------------
# derived model


def test_magnitude_problem_constants(rng):
    """The individual-budget constants come from initial_problem, with c the
    channel magnitudes scaled by a power of two that puts c1 in [0.5, 1);
    derive_model keeps the vectors both budgets share."""
    inst = make_instance(rng, 3)
    p1, a = 2.0, 0.6
    budget = IndividualBudget(p_s=5.0, p_i=np.full(3, 0.1))
    prob = initial_problem(inst, p1, a, budget)
    scale = prob.c1 / abs(inst.h_sd)
    assert 0.5 <= prob.c1 < 1.0 and scale == 2.0 ** round(math.log2(scale))
    assert prob.c[1:] == pytest.approx(scale * np.abs(inst.h_sr))
    c1 = prob.c1
    assert prob.eta1 == pytest.approx(5.0 / (a * p1))
    assert prob.eta2 == pytest.approx((1 - a) / (a * c1 ** 2))
    assert prob.eta3 == pytest.approx(1 + prob.eta2 * c1 ** 2)
    expected_umax = np.abs(inst.h_rd) * np.sqrt(
        0.1 / (np.abs(inst.h_sr) ** 2 * p1 + inst.sigma2))
    assert prob.u_max == pytest.approx(expected_umax)
    assert np.all(prob.u_max >= 0)
    assert derive_model(inst, p1, a).h == pytest.approx(combined_gains(inst))


def test_derive_model_power_matrix_definite(rng):
    for _ in range(20):
        inst = make_instance(rng, 3)
        a = float(rng.uniform(0.05, 0.999))
        d = dense_power_matrix(derive_model(inst, 2.0, a))
        assert np.allclose(d, d.conj().T)
        eigs = np.linalg.eigvalsh(d)
        assert np.all(eigs > 0)


def test_beam_sinr_scale_free_in_phase(rng):
    inst = make_instance(rng, 2)
    w = random_weights(rng, 2)
    a = beam_sinr(inst, 2.0, 0.5, w)
    b = beam_sinr(inst, 2.0, 0.5, w * np.exp(1j * 0.73))
    assert a == pytest.approx(b, rel=1e-12)


# a couple of properties where randomized shrinking adds value


@settings(max_examples=60, deadline=None)
@given(
    gains=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6),
    alpha=st.floats(0.0, 1.0),
    p1=st.floats(0.1, 10.0),
)
def test_relay_snr_bounded_by_full_power(gains, alpha, p1):
    m = len(gains)
    inst = NetworkInstance(h_sd=1.0, h_sr=np.sqrt(gains), h_rd=np.ones(m), sigma2=1.0)
    for i in range(m):
        snr = relay_snrs(inst, p1, alpha)[i]
        assert 0.0 <= snr <= gains[i] * p1 + 1e-12


# ---------------------------------------------------------------------------
# the whole float range: a finite answer within budget, or a named error


def _wide_network(m, seed):
    """(inst, p1, p_s, p_i, p_tot): gains, sigma2, p1 and the budgets of an
    m-relay network drawn log-uniform over 1e-100 .. 1e100."""
    rng = np.random.default_rng(seed)
    gains = 10.0 ** rng.uniform(-100.0, 100.0, 2 * m + 1) * np.exp(
        2j * np.pi * rng.uniform(size=2 * m + 1))
    sigma2, p1, p_s, p_tot = 10.0 ** rng.uniform(-100.0, 100.0, 4)
    p_i = 10.0 ** rng.uniform(-100.0, 100.0, m)
    inst = NetworkInstance(h_sd=gains[0], h_sr=gains[1::2], h_rd=gains[2::2], sigma2=sigma2)
    return inst, p1, p_s, p_i, p_tot


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       log10_alpha=st.floats(-30.0, 0.0))
@example(m=7, seed=0, log10_alpha=0.0)
# a subnormal relay weight, rounded to a few bits, broke the source cap
@example(m=7, seed=946878792, log10_alpha=-4.5)
@example(m=5, seed=3152834176, log10_alpha=-6.043805110406808)
@example(m=3, seed=3008052171, log10_alpha=-0.44678930416713314)
@example(m=7, seed=2101998809, log10_alpha=-2.4412225800998506)
# u = c2 r / tau underflowed to 0, so the clamp order broke a relay cap
@example(m=5, seed=2216671964, log10_alpha=-1.3458074243268285)
@example(m=4, seed=1323884864, log10_alpha=-10.355822312022568)
@example(m=7, seed=3211390890, log10_alpha=-2.0036911779033844)
@example(m=6, seed=2253889584, log10_alpha=-11.019473696015773)
@example(m=7, seed=853316708, log10_alpha=-3.3791366797652422)
@example(m=8, seed=852081386, log10_alpha=-9.257053718610745)
@example(m=4, seed=1355296502, log10_alpha=-9.777148997975665)
# a scalar's ** 2 rounded apart from an array's, so C_d missed its recomputation
@example(m=7, seed=3309908785, log10_alpha=-11.842377479119243)
@example(m=8, seed=982268199, log10_alpha=-0.497563515105373)
@example(m=4, seed=341470222, log10_alpha=-19.240544845441523)
def test_every_solve_is_finite_within_budget_or_a_named_error(m, seed, log10_alpha):
    """On _wide_network, each solve returns a finite w whose C_d is
    capacity_dest(w) and which meets its budget to 1e-12, or raises a
    BeamformingError or ValueError.  An individual-budget answer also
    reaches the C_d of the feasible points feasible_c_d builds from the
    channels.  The first example is an alpha = 1 network whose clamp scan,
    with a slope lost to cancellation, once stopped one relay short: C_d =
    3.547 against 189.556 with every relay at its cap.  The others once
    broke a cap or C_d, as the comments above them say."""
    inst, p1, p_s, p_i, p_tot = _wide_network(m, seed)
    alpha = 10.0 ** log10_alpha
    for solve, budget in ((solve_total, TotalBudget(p_tot)),
                          (solve_individual, IndividualBudget(p_s, p_i))):
        params = SystemParams(p1, None, budget)
        try:
            sol = solve(inst, params, alpha=alpha)
        except (BeamformingError, ValueError):
            continue
        if isinstance(budget, IndividualBudget):
            assert_individual_answer(inst, params, sol)
            continue
        assert np.isfinite(sol.w).all() and math.isfinite(sol.c_d)
        assert math.isfinite(sol.second_phase_power)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            assert sol.c_d == capacity_dest(inst, p1, sol.alpha, sol.w)
        source, relays = power_amplitudes(inst, p1, sol.alpha, sol.w)
        assert math.hypot(source, *relays) <= math.sqrt(p_tot) * (1.0 + 1e-12)


def test_a_breakpoint_whose_cap_over_c2_underflows_clamps_nothing():
    """The last relay comes first in clamp order, and its cap / c2 (1.0e-202
    / 9.7e132) underflows to 0, but tau / c2 >= 1 does not: formed as cap
    (tau / c2), its breakpoint is 1.0e-202, above the optimum's r = 3.3e-224,
    and the network is answered with every relay active."""
    inst, p1, p_s, p_i, _ = _wide_network(4, 4070546912)
    params = SystemParams(p1, None, IndividualBudget(p_s, p_i))
    sol = solve_individual(inst, params, alpha=10.0 ** -16.189634050056018)
    assert sol.diagnostics.clamped == ()
    assert_individual_answer(inst, params, sol)

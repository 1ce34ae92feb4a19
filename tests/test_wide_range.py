"""Seeded wide-range smoke test of the public single-network functions: on
networks whose gains, noise power, powers and budgets lie many decades
apart, each either answers or raises a named domain error (a
BeamformingError) or a ValueError, never a foreign exception."""

import warnings

import numpy as np
import pytest

from anbeam.errors import BeamformingError
from anbeam.individual_solver import solve_individual
from anbeam.model import (
    alpha_for_threshold,
    alpha_monotonicity_threshold,
    capacity_relay,
    combined_gains,
    derive_model,
    noise_residual_scale,
    secrecy_monotone_in_alpha,
    secrecy_rate,
    simulate_noise_residual,
)
from anbeam.oracles import (empirical_snr, oracle_individual_grid, oracle_total,
                            power_iteration_rank1)
from anbeam.total_solver import build_d_tilde, solve_total
from anbeam.types import (IndividualBudget, NetworkInstance, SignalRealization, SystemParams,
                          TotalBudget)

NETWORKS_PER_RANGE = 40

# Functions held to raising no numpy RuntimeWarning either; the others may
# warn where a float overflows, which this test does not judge.
WARNING_FREE = {"alpha_monotonicity_threshold", "capacity_relay", "secrecy_rate",
                "alpha_for_threshold", "solve_total", "solve_individual",
                "noise_residual_scale", "power_iteration_rank1", "secrecy_monotone_in_alpha"}


def _draw(rng, decades):
    """A network of 1-4 relays, its p1, budgets, alpha and probe weights:
    gains log-uniform in magnitude over +-decades with a uniform phase;
    sigma2, p1, p_tot, p_s, p_i and gamma log-uniform over +-decades; alpha
    log-uniform in [1e-5, 1]."""
    m = int(rng.integers(1, 5))

    def spread(size=None):
        return 10.0 ** rng.uniform(-decades, decades, size)

    def gains(size=None):
        return spread(size) * np.exp(2j * np.pi * rng.uniform(size=size))

    instance = NetworkInstance(h_sd=complex(gains()), h_sr=gains(m), h_rd=gains(m),
                               sigma2=float(spread()))
    p1 = float(spread())
    total = SystemParams(p1, None, TotalBudget(float(spread())))
    individual = SystemParams(p1, None, IndividualBudget(float(spread()), spread(m)))
    alpha = float(10.0 ** rng.uniform(-5.0, 0.0))
    w = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
    return instance, p1, total, individual, alpha, w, float(spread())


def _calls(instance, p1, total, individual, alpha, w, gamma):
    m = instance.m
    yield "capacity_relay", lambda: capacity_relay(instance, p1, alpha, m - 1)
    yield "secrecy_rate", lambda: secrecy_rate(instance, p1, alpha, w)
    yield "alpha_monotonicity_threshold", lambda: alpha_monotonicity_threshold(instance, p1)
    yield "secrecy_monotone_in_alpha", lambda: secrecy_monotone_in_alpha(instance, p1, w)
    yield "alpha_for_threshold", lambda: alpha_for_threshold(instance, p1, gamma)
    yield "power_iteration_rank1", lambda: power_iteration_rank1(
        build_d_tilde(derive_model(instance, p1, alpha), total.budget.p_tot),
        np.conj(combined_gains(instance)))
    yield "solve_total", lambda: solve_total(instance, total, alpha=alpha)
    yield "solve_individual", lambda: solve_individual(instance, individual, alpha=alpha)
    yield "simulate_noise_residual", lambda: simulate_noise_residual(
        instance, p1, alpha, w, SignalRealization(x=1.0, u=1.0, z=np.ones(m + 1)))
    yield "noise_residual_scale", lambda: noise_residual_scale(instance, p1, alpha, w)
    yield "empirical_snr", lambda: empirical_snr(instance, p1, alpha, w, 10_000)
    if m <= 2:
        yield "oracle_individual_grid", lambda: oracle_individual_grid(
            instance, individual, alpha=alpha)
    yield "oracle_total", lambda: oracle_total(instance, total, 16, alpha=alpha)


@pytest.mark.parametrize("decades", [20, 100, 150])
def test_public_functions_answer_or_name_the_error(decades):
    rng = np.random.default_rng(np.random.SeedSequence(0x51DE, spawn_key=(decades,)))
    foreign = []
    for k in range(NETWORKS_PER_RANGE):
        for name, call in _calls(*_draw(rng, decades)):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error" if name in WARNING_FREE else "ignore",
                                          RuntimeWarning)
                    call()
            except (BeamformingError, ValueError):
                pass
            except Exception as err:  # any other class is the failure
                foreign.append(f"network {k}: {name} raised {err!r}")
    assert not foreign, "\n".join(foreign)

"""Shared fixtures: seeded RNGs, random network factories and the checks of
an individual-budget answer."""

import math

import numpy as np
import pytest

from anbeam.model import cancellation_gains, capacity_dest, relay_input_powers
from anbeam.types import NetworkInstance


@pytest.fixture
def rng():
    return np.random.default_rng(0xA11CE)


def make_instance(rng, m, var_sr=1.0, var_rd=1.0, var_sd=0.25, sigma2=1.0):
    """Random network with CN gains; mirrors the experiment defaults."""
    def cn(var, size=None):
        sd = np.sqrt(var / 2.0)
        return rng.normal(0.0, sd, size) + 1j * rng.normal(0.0, sd, size)

    return NetworkInstance(
        h_sd=complex(cn(var_sd)),
        h_sr=cn(var_sr, m),
        h_rd=cn(var_rd, m),
        sigma2=sigma2,
    )


@pytest.fixture
def instance_factory():
    return make_instance


def random_weights(rng, m, scale=1.0):
    return scale * (rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))


def power_amplitudes(inst, p1, alpha, w):
    """(source, relays): the square roots of the source's second-phase power
    and of each relay's, formed from amplitudes, so that none of them passes
    through a square that goes subnormal."""
    source = math.sqrt(alpha * p1) * abs(w[0])
    if alpha < 1.0:  # at alpha = 1 the cancellation term carries no power
        cancel = math.sqrt((1.0 - alpha) * p1) * abs(np.dot(cancellation_gains(inst), w[1:]))
        source = math.hypot(source, cancel)
    return source, np.sqrt(relay_input_powers(inst, p1)) * np.abs(w[1:])


def feasible_c_d(inst, p1, alpha, budget):
    """C_d of points that meet an individual budget, built from the channels
    alone: the source alone at its cap, and at alpha = 1, where the source's
    power does not depend on the relays', the source and every relay at its
    cap, each on its aligned phase.  A point whose C_d overflows is left out."""
    source = math.sqrt(budget.p_s / (alpha * p1)) * np.exp(-1j * np.angle(inst.h_sd))
    points = [np.concatenate(([source], np.zeros(inst.m)))]
    if alpha == 1.0:
        relays = (np.sqrt(budget.p_i) / np.sqrt(relay_input_powers(inst, p1))
                  * np.exp(-1j * (np.angle(inst.h_sr) + np.angle(inst.h_rd))))
        points.append(np.concatenate(([source], relays)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = [capacity_dest(inst, p1, alpha, w) for w in points]
    return [v for v in values if math.isfinite(v)]


def assert_individual_answer(inst, params, sol):
    """sol answers the individual budget of params: a finite w, C_d and
    second-phase power, C_d = capacity_dest(w), every cap met to 1e-12, and
    C_d at or above each of feasible_c_d's points, to 1e-12."""
    p1, budget = params.p1, params.budget
    assert np.isfinite(sol.w).all() and math.isfinite(sol.c_d)
    assert math.isfinite(sol.second_phase_power)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        assert sol.c_d == capacity_dest(inst, p1, sol.alpha, sol.w)
    source, relays = power_amplitudes(inst, p1, sol.alpha, sol.w)
    slack = 1.0 + 1e-12
    assert source <= math.sqrt(budget.p_s) * slack
    assert np.all(relays <= np.sqrt(budget.p_i) * slack)
    for value in feasible_c_d(inst, p1, sol.alpha, budget):
        assert sol.c_d >= value * (1.0 - 1e-12)

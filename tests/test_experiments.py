"""Sweep harness: seeded sampling, grid execution, aggregation and CSV."""

import csv
import hashlib
import itertools
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from anbeam import experiments
from anbeam.errors import (BeamformingError, InfeasibleBudget, InfeasibleThreshold,
                           NonFiniteSolution)
from anbeam.experiments import (
    CSV_HEADER,
    ChannelVariances,
    ExperimentSpec,
    alpha_label,
    emit_csv,
    power_sweep_spec,
    relay_count_sweep_spec,
    instance_stream,
    resolve_workers,
    run_sweep,
    sample_instance,
    solve_grid_point,
    solve_grid_points,
    spec_from_dict,
    spec_to_dict,
)
from anbeam.individual_solver import solve_individual, solve_individual_batch
from anbeam.model import alpha_for_threshold, derive_model
from anbeam.oracles import oracle_total
from anbeam.serialization import params_to_dict
from anbeam.total_solver import build_d_tilde, solve_total, solve_total_batch
from anbeam.types import (IndividualBudget, NetworkInstance, SystemParams,
                          TotalBudget)

GOLDEN = Path(__file__).with_name("data") / "grid_point_golden.json"


def wide_array_spec(seed=0):
    """M up to 256, tight relay caps and the gamma-derived power split."""
    return ExperimentSpec(m_values=(10, 64, 256), p1_values=(0.5, 2.0, 5.0, 10.0),
                          gamma=1.0, p_i=0.01, seed=seed)


HEADLINE_SWEEPS = {"power-sweep": power_sweep_spec,
                   "relay-count": relay_count_sweep_spec,
                   "wide-array": wide_array_spec}


def _tiny_spec(**overrides):
    kwargs = dict(m_values=(2,), p1_values=(2.0,), alpha_values=(0.6,),
                  budget_mode="both", n_instances=4, seed=7)
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


# ---------------------------------------------------------------------------
# instance sampling


def test_sample_instance_deterministic():
    v = ChannelVariances()
    a = sample_instance(3, v, instance_stream(1, 0))
    b = sample_instance(3, v, instance_stream(1, 0))
    assert a.h_sd == b.h_sd
    assert np.array_equal(a.h_sr, b.h_sr)
    assert np.array_equal(a.h_rd, b.h_rd)


def test_sample_instance_slots_differ():
    v = ChannelVariances()
    a = sample_instance(2, v, instance_stream(1, 0))
    b = sample_instance(2, v, instance_stream(1, 1))
    assert a.h_sd != b.h_sd


def test_sample_instance_prefix_property():
    """The same slot at a smaller relay count is a prefix of the larger one,
    so capacity-vs-M trends compare nested networks."""
    v = ChannelVariances()
    small = sample_instance(2, v, instance_stream(3, 5))
    big = sample_instance(6, v, instance_stream(3, 5))
    assert small.h_sd == big.h_sd
    assert np.array_equal(small.h_sr, big.h_sr[:2])
    assert np.array_equal(small.h_rd, big.h_rd[:2])


def test_sample_instance_variances():
    v = ChannelVariances(sr=1.0, rd=2.0, sd=0.25)
    n = 20_000
    sd = np.empty(n)
    sr = np.empty(n)
    rd = np.empty(n)
    re_sd = np.empty(n)
    for slot in range(n):
        inst = sample_instance(1, v, instance_stream(0, slot))
        sd[slot] = abs(inst.h_sd) ** 2
        sr[slot] = abs(inst.h_sr[0]) ** 2
        rd[slot] = abs(inst.h_rd[0]) ** 2
        re_sd[slot] = inst.h_sd.real ** 2
    assert np.mean(sd) == pytest.approx(0.25, rel=0.05)
    assert np.mean(sr) == pytest.approx(1.0, rel=0.05)
    assert np.mean(rd) == pytest.approx(2.0, rel=0.05)
    # circularly symmetric: each component carries half the variance
    assert np.mean(re_sd) == pytest.approx(0.125, rel=0.07)


def test_sample_instance_rejects_zero_relays():
    with pytest.raises(ValueError):
        sample_instance(0, ChannelVariances(), instance_stream(0, 0))


class _RecordingStream:
    """A generator whose standard_normal draws are kept for inspection."""

    def __init__(self, stream):
        self.stream, self.draws = stream, []

    def standard_normal(self, size):
        self.draws.append(self.stream.standard_normal(size))
        return self.draws[-1]


def test_sample_instance_shares_no_memory_with_the_draw():
    """The instance copies the generator's draw: neither a later draw from
    the same generator nor a write into the drawn array changes it, and its
    relay gains are read-only."""
    stream = _RecordingStream(instance_stream(5, 2))
    first = sample_instance(4, ChannelVariances(), stream)
    kept = (first.h_sd, first.h_sr.copy(), first.h_rd.copy())
    second = sample_instance(4, ChannelVariances(), stream)
    assert second.h_sd != kept[0]
    for draw in stream.draws:
        for gains in (first.h_sr, first.h_rd):
            assert not np.shares_memory(gains, draw)
    stream.draws[0][:] = np.nan
    assert first.h_sd == kept[0]
    assert np.array_equal(first.h_sr, kept[1]) and np.array_equal(first.h_rd, kept[2])
    for gains in (first.h_sr, first.h_rd):
        assert not gains.flags.writeable
        with pytest.raises(ValueError):
            gains[0] = 0.0


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.ravel().view(np.uint64),
                                                 b.ravel().view(np.uint64))


def test_sample_instance_is_the_scaled_draw_bit_for_bit():
    """Every drawn network is its draw scaled as written out below (a copy of
    the draw, h_sr and h_rd scaled in place by sqrt(variance / 2), h_sd a
    Python complex times its scale), bit for bit, through a fresh stream and
    through a sweep call's _KeyDraws alike, at two variance sets and three
    relay counts; every row of a key gets the key's one network, whose gain
    buffer is read-only.  A part built as solve_grid_points builds it (the
    field constructor on the column slices of one np.array of the rows'
    buffers), a stack of the rows and a stack of networks built field by
    field from them all keep the same bits in C-contiguous, read-only copies
    of their fields and no gain buffer; neither stacking nor solving a
    network built field by field gives it one."""
    for variances in (ChannelVariances(), ChannelVariances(sr=2.0, rd=0.5, sd=3.0)):
        for m in (1, 4, 256):
            draws = experiments._KeyDraws(11, m, variances, 2.0)
            for slot in range(3):
                rows = [sample_instance(m, variances, draws.of(slot, 0), 2.0) for _ in range(2)]
                assert rows[1] is rows[0] and not rows[0]._gains.flags.writeable
                rows.append(sample_instance(m, variances, instance_stream(11, slot), 2.0))

                gains = instance_stream(11, slot).standard_normal(2 + 4 * m).view(complex)
                h_sr, h_rd = gains[1::2], gains[2::2]
                h_sr *= math.sqrt(variances.sr / 2.0)
                h_rd *= math.sqrt(variances.rd / 2.0)
                h_sd = complex(gains[0]) * math.sqrt(variances.sd / 2.0)
                for row in rows:
                    assert type(row.h_sd) is complex and row.sigma2 == 2.0
                    assert _same_bits(row.h_sd, h_sd)
                    assert _same_bits(row.h_sr, h_sr) and _same_bits(row.h_rd, h_rd)

                built = [NetworkInstance(h_sd=row.h_sd, h_sr=row.h_sr, h_rd=row.h_rd, sigma2=2.0)
                         for row in rows]
                buffers = np.array([row._gains for row in rows])
                part = NetworkInstance(h_sd=buffers[:, 0], h_sr=buffers[:, 1::2],
                                       h_rd=buffers[:, 2::2], sigma2=2.0)
                for batch in (part, NetworkInstance.stack(rows), NetworkInstance.stack(built)):
                    assert "_gains" not in vars(batch)
                    for name, row in (("h_sd", h_sd), ("h_sr", h_sr), ("h_rd", h_rd)):
                        value = getattr(batch, name)
                        assert value.flags.c_contiguous and not value.flags.writeable
                        assert _same_bits(value, [row] * 3)
                solve_total(built[0], SystemParams(2.0, None, TotalBudget(4.0)), alpha=0.5)
                assert not any("_gains" in vars(inst) for inst in built)


class _Returns:
    """A stream whose standard_normal returns one given array, whatever the
    size asked for."""

    def __init__(self, draw):
        self.draw = draw

    def standard_normal(self, size):
        return self.draw


def test_sample_instance_keeps_no_state():
    """Given any stream that is not a _KeyDraws, every call builds a fresh
    network with the bits a fresh writable copy of its draw gives (the path
    the bit-for-bit test above pins): also for the same read-only array that
    owns its memory, handed back with the same m, variances object and
    sigma2.  The other inputs are a different m, sigma2 or variances object,
    a writable draw, a read-only view of a writable draw, and a read-only
    draw made writable again, each mutated between calls."""
    variances = ChannelVariances()

    def check_fresh(m, variances, draw, sigma2, previous):
        got = sample_instance(m, variances, _Returns(draw), sigma2)
        want = sample_instance(m, variances, _Returns(draw.copy()), sigma2)
        assert got is not previous and got.m == m and got.sigma2 == sigma2
        for name in ("h_sd", "h_sr", "h_rd"):
            assert _same_bits(getattr(got, name), getattr(want, name))
        return got

    frozen = instance_stream(11, 2).standard_normal(18)
    frozen.setflags(write=False)
    assert frozen.flags.owndata
    previous = None
    for args in ((variances, 2.0), (variances, 2.0), (variances, 2), (variances, 3.0),
                 (variances, 3.0), (ChannelVariances(), 3.0)):
        previous = check_fresh(4, args[0], frozen, args[1], previous)
    assert sample_instance(4, variances, instance_stream(11, 2)) is not \
        sample_instance(4, variances, instance_stream(11, 2))

    # one complex normal broadcasts against the scales of every m
    one = np.random.default_rng(1).standard_normal(2)
    one.setflags(write=False)
    for m, previous_m in ((1, 2), (2, 1)):
        check_fresh(m, variances, one, 1.0, sample_instance(previous_m, variances, _Returns(one)))

    rng = np.random.default_rng(2)
    thawed = rng.standard_normal(18)
    thawed.setflags(write=False)
    previous = sample_instance(4, variances, _Returns(thawed))
    previous = check_fresh(4, variances, thawed, 1.0, previous)
    thawed.setflags(write=True)
    thawed *= 2.0
    check_fresh(4, variances, thawed, 1.0, previous)
    writable, base = rng.standard_normal(18), rng.standard_normal(18)
    view = base[:]
    view.setflags(write=False)
    for draw, written in ((writable, writable), (view, base)):
        previous = sample_instance(4, variances, _Returns(draw))
        written *= 2.0
        check_fresh(4, variances, draw, 1.0, previous)


@pytest.mark.parametrize("m", [True, 2.0, "3"], ids=["bool", "float", "string"])
def test_sample_instance_rejects_a_count_that_is_not_an_int(m):
    with pytest.raises(ValueError, match=f"^m: expected an integer, got {m!r}$"):
        sample_instance(m, ChannelVariances(), instance_stream(0, 0))


def test_sample_instance_accepts_a_numpy_integer_count():
    want = sample_instance(4, ChannelVariances(), instance_stream(0, 3))
    got = sample_instance(np.int64(4), ChannelVariances(), instance_stream(0, 3))
    assert got.m == 4 and got.h_sd == want.h_sd
    assert np.array_equal(got.h_sr, want.h_sr) and np.array_equal(got.h_rd, want.h_rd)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_requires_exactly_one_split_rule():
    with pytest.raises(ValueError, match="exactly one"):
        _tiny_spec(alpha_values=(0.5,), gamma=0.3)
    with pytest.raises(ValueError, match="exactly one"):
        _tiny_spec(alpha_values=None)


def test_spec_rejects_bad_mode_and_counts():
    with pytest.raises(ValueError, match="budget_mode"):
        _tiny_spec(budget_mode="either")
    with pytest.raises(ValueError):
        _tiny_spec(n_instances=0)
    with pytest.raises(ValueError):
        _tiny_spec(m_values=(0,))
    with pytest.raises(ValueError):
        _tiny_spec(variance_sd=0.0)
    with pytest.raises(ValueError):
        _tiny_spec(sigma2=-1.0)


@pytest.mark.parametrize("overrides", [
    dict(p_s=-1.0), dict(p_s=0.0), dict(p_s=float("nan")), dict(p_s=float("inf")),
    dict(p_i=-0.1), dict(p_i=float("nan")), dict(p_i=float("inf")),
    dict(p1_values=(2.0, 0.0)), dict(p1_values=(-1.0,)),
    dict(p1_values=(float("nan"),)), dict(p1_values=(float("inf"),)),
    dict(alpha_values=(2.0,)), dict(alpha_values=(0.5, -0.1)),
    dict(alpha_values=(float("nan"),)), dict(alpha_values=(float("inf"),)),
    dict(alpha_values=None, gamma=0.0), dict(alpha_values=None, gamma=-1.0),
    dict(alpha_values=None, gamma=float("nan")), dict(alpha_values=None, gamma=float("inf")),
    dict(alpha_values=(0.0,)),
])
def test_spec_rejects_bad_budgets_powers_and_splits(overrides):
    with pytest.raises(ValueError):
        _tiny_spec(**overrides)


@pytest.mark.parametrize("overrides, field", [
    (dict(m_values=(2, 10 ** 400)), "m_values"),
    (dict(m_values=(2 ** 63,)), "m_values"),
    (dict(m_values=(experiments._MAX_RELAYS + 1,)), "m_values"),
    (dict(n_instances=2 ** 63), "n_instances"),
    (dict(n_instances=(2 ** 63 - 1) // 8 // 3 + 1, p1_values=(1.0, 2.0, 3.0)), "n_instances"),
], ids=["m-too-large-for-a-float", "m-2**63", "m-one-past-the-bound", "n-2**63",
        "n-one-past-the-bound-at-3-points"])
def test_spec_rejects_counts_numpy_cannot_size(overrides, field):
    with pytest.raises(ValueError, match=f"^{field}"):
        _tiny_spec(**overrides)


def test_spec_accepts_the_largest_counts_numpy_can_size():
    # (2 + 4m) float64 draws and one float64 per row of every grid point fill
    # at most 2^63 - 1 bytes
    m = experiments._MAX_RELAYS
    assert 8 * (2 + 4 * m) <= 2 ** 63 - 1 < 8 * (2 + 4 * (m + 1))
    _tiny_spec(m_values=(m,))
    _tiny_spec(n_instances=(2 ** 63 - 1) // 8 // 3, p1_values=(1.0, 2.0, 3.0))


def test_spec_accepts_boundary_values():
    _tiny_spec(p_i=0.0, alpha_values=(1.0,))
    _tiny_spec(alpha_values=None, gamma=1e-6)


def test_spec_rejection_of_zero_alpha_names_the_field():
    # both solvers reject alpha = 0, so a sweep over it could only fail
    with pytest.raises(ValueError, match="alpha_values"):
        _tiny_spec(alpha_values=(0.6, 0.0))


@pytest.mark.parametrize("build, field", [
    (lambda: _tiny_spec(m_values=()), "m_values"),
    (lambda: _tiny_spec(p1_values=[]), "p1_values"),
    (lambda: _tiny_spec(alpha_values=()), "alpha_values"),
    (lambda: _tiny_spec(m_values=(2.7,)), "m_values"),
    (lambda: _tiny_spec(m_values=(True,)), "m_values"),
    (lambda: _tiny_spec(n_instances=2.5), "n_instances"),
    (lambda: _tiny_spec(n_instances=True), "n_instances"),
    (lambda: _tiny_spec(seed=1.5), "seed"),
    (lambda: _tiny_spec(seed=-1), "seed"),
    (lambda: _tiny_spec(variance_sr=float("nan")), "variance_sr"),
    (lambda: _tiny_spec(variance_sd=float("inf")), "variance_sd"),
    (lambda: _tiny_spec(sigma2=float("nan")), "sigma2"),
    (lambda: spec_from_dict({**spec_to_dict(_tiny_spec()), "n_instance": 5}),
     "n_instance"),
    (lambda: resolve_workers(-3), "workers"),
    (lambda: ExperimentSpec(m_values=4, p1_values=(1.0,), alpha_values=(0.5,)), "m_values"),
    (lambda: spec_from_dict([spec_to_dict(_tiny_spec())]), "JSON object"),
    (lambda: spec_from_dict({k: v for k, v in spec_to_dict(_tiny_spec()).items()
                             if k != "m_values"}), "m_values"),
    (lambda: sample_instance(True, ChannelVariances(), instance_stream(0, 0)),
     "^m: expected an integer, got True$"),
    (lambda: sample_instance(2.5, ChannelVariances(), instance_stream(0, 0)),
     "^m: expected an integer, got 2.5$"),
    (lambda: oracle_total(NetworkInstance(h_sd=1.0, h_sr=[1.0], h_rd=[1.0], sigma2=1.0),
                          SystemParams(2.0, None, TotalBudget(1.0)), 2.5, alpha=0.5),
     "^n_samples: expected an integer, got 2.5$"),
], ids=["empty-m", "empty-p1", "empty-alpha", "fractional-m", "bool-m",
        "fractional-count", "bool-count", "fractional-seed", "negative-seed",
        "nan-variance", "infinite-variance", "nan-noise", "unknown-key", "negative-workers",
        "scalar-m", "list-doc", "missing-m", "bool-sampled-m", "fractional-sampled-m",
        "fractional-oracle-samples"])
def test_bad_sweep_settings_are_value_errors_naming_the_field(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_spec_round_trip():
    spec = power_sweep_spec(seed=9, n_instances=13)
    assert spec_from_dict(spec_to_dict(spec)) == spec
    spec_g = _tiny_spec(alpha_values=None, gamma=0.4)
    assert spec_from_dict(spec_to_dict(spec_g)) == spec_g
    # every field away from its default (alpha_values excludes gamma)
    spec_all = ExperimentSpec(m_values=(3, 5), p1_values=(0.5, 4.0), gamma=0.7,
                              budget_mode="total", p_s=2.0, p_i=0.3, n_instances=9,
                              seed=11, variance_sr=2.0, variance_rd=0.5,
                              variance_sd=0.75, sigma2=1.5)
    assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec_all)))) == spec_all


def test_grid_point_order_is_row_major():
    """Rows run over m, then p1, then alpha, then budget mode, also when
    each relay count's grid points are split over two workers."""
    spec = ExperimentSpec(m_values=(2, 3), p1_values=(1.0, 2.0),
                          alpha_values=(0.3, 0.6), n_instances=1)
    expected = list(itertools.product((2, 3), (1.0, 2.0), ("0.3", "0.6"),
                                      ("total", "individual")))
    for workers in (1, 2):
        rows = run_sweep(spec, workers=workers)
        assert [(row.m, row.p1, row.alpha, row.budget_mode) for row in rows] == expected


def test_alpha_label_forms():
    assert alpha_label(_tiny_spec(), 0.3) == "0.3"
    spec_g = _tiny_spec(alpha_values=None, gamma=0.25)
    assert alpha_label(spec_g, None) == "gamma=0.25"


# ---------------------------------------------------------------------------
# grid execution


def test_solve_grid_point_shares_instances_across_modes():
    result = solve_grid_point(_tiny_spec(), 2, 2.0, 0.6)
    assert set(result.c_d) == {"total", "individual"}
    assert result.resamples == 0
    # same instances, bigger feasible set: total always at least individual
    assert np.all(result.c_d["total"] >= result.c_d["individual"] - 1e-9)


def test_solve_grid_point_resamples_on_infeasible_threshold(caplog):
    # gamma above what most draws' strongest relay can support trips the
    # threshold-infeasible path; those slots are replaced (deterministic at
    # this seed: the stream only depends on seed/slot/attempt)
    spec = _tiny_spec(alpha_values=None, gamma=3.0, n_instances=3,
                      budget_mode="total")
    with caplog.at_level(logging.WARNING, logger="anbeam.experiments"):
        result = solve_grid_point(spec, 2, 2.0, None)
    assert result.resamples > 0
    assert any("resampled" in rec.message for rec in caplog.records)
    assert np.all(np.isfinite(result.c_d["total"]))


def test_run_sweep_deterministic():
    spec = _tiny_spec()
    rows1 = run_sweep(spec)
    rows2 = run_sweep(spec)
    assert rows1 == rows2


def test_run_sweep_worker_count_invariant(caplog):
    spec = ExperimentSpec(m_values=(1, 2), p1_values=(1.0, 3.0),
                          alpha_values=(0.5,), budget_mode="both",
                          n_instances=3, seed=2)
    assert run_sweep(spec, workers=1) == run_sweep(spec, workers=3)
    # uneven chunks: three grid points per relay count over two workers
    spec = ExperimentSpec(m_values=(1, 2), p1_values=(1.0, 3.0, 5.0),
                          alpha_values=(0.5,), budget_mode="both",
                          n_instances=3, seed=2)
    assert run_sweep(spec, workers=1) == run_sweep(spec, workers=2)
    # gamma-derived alpha: the resampled rows are redrawn in each worker's own chunk
    spec = ExperimentSpec(m_values=(10,), p1_values=(0.5, 0.6, 2.0), gamma=1.0, p_i=0.01, seed=0)
    with caplog.at_level(logging.INFO, logger="anbeam.experiments"):
        assert run_sweep(spec, workers=1) == run_sweep(spec, workers=2)
    finished = [rec.args[0] for rec in caplog.records if "sweep finished" in rec.message]
    assert len(finished) == 2 and finished[0] == finished[1] > 0


def test_run_sweep_row_shape():
    spec = _tiny_spec(budget_mode="total")
    rows = run_sweep(spec)
    assert len(rows) == 1
    row = rows[0]
    assert (row.m, row.p1, row.alpha, row.budget_mode) == (2, 2.0, "0.6", "total")
    assert row.n_instances == 4 and row.seed == 7
    assert row.std_c_d >= 0.0


def test_run_sweep_mean_matches_direct_average():
    spec = _tiny_spec(budget_mode="individual")
    rows = run_sweep(spec)
    point = solve_grid_point(spec, 2, 2.0, 0.6)
    arr = point.c_d["individual"]
    assert rows[0].mean_c_d == float(np.mean(arr))
    assert rows[0].std_c_d == float(np.std(arr))


# ---------------------------------------------------------------------------
# batched grid points


def _params(spec, m, p1):
    return {"total": SystemParams(p1, spec.gamma, TotalBudget(spec.p_s + m * spec.p_i)),
            "individual": SystemParams(p1, spec.gamma,
                                       IndividualBudget(spec.p_s, np.full(m, spec.p_i)))}


def _slot_by_slot(spec, m, p1, alpha):
    """The per-slot loop that the batched solve_grid_point replaced: draw a
    slot's instance and solve it alone in each mode, redrawing until every
    mode succeeds.  Returns the final instances, the solutions per mode and
    the resample count."""
    solvers = {"total": solve_total, "individual": solve_individual}
    params = _params(spec, m, p1)
    instances, solutions, resamples = [], {mode: [] for mode in spec.modes}, 0
    for slot in range(spec.n_instances):
        attempt = 0
        while True:
            inst = sample_instance(m, spec.variances,
                                   instance_stream(spec.seed, slot, attempt), spec.sigma2)
            try:
                got = {mode: solvers[mode](inst, params[mode], alpha=alpha)
                       for mode in spec.modes}
                break
            except BeamformingError:
                attempt += 1
                resamples += 1
        instances.append(inst)
        for mode in spec.modes:
            solutions[mode].append(got[mode])
    return instances, solutions, resamples


@pytest.mark.parametrize("m", [1, 4, 10, 64, 256])
@pytest.mark.parametrize("split", ["alpha", "gamma"])
def test_batched_grid_point_matches_slot_by_slot_solves(m, split):
    # tight relay caps so the larger arrays clamp; gamma = 1 at p1 = 2 makes
    # some slots resample at small M
    alpha, gamma = (0.6, None) if split == "alpha" else (None, 1.0)
    spec = ExperimentSpec(m_values=(m,), p1_values=(2.0,),
                          alpha_values=None if alpha is None else (alpha,), gamma=gamma,
                          p_i=0.01, n_instances=12, seed=11)
    result = solve_grid_point(spec, m, 2.0, alpha)
    instances, solutions, resamples = _slot_by_slot(spec, m, 2.0, alpha)
    assert result.resamples == resamples
    for mode in spec.modes:
        expected = np.array([sol.c_d for sol in solutions[mode]])
        np.testing.assert_allclose(result.c_d[mode], expected, rtol=1e-13, atol=0)
    batch = solve_individual_batch(NetworkInstance.stack(instances),
                                   _params(spec, m, 2.0)["individual"], alpha=alpha)
    clamped = [batch.row(i).diagnostics.clamped for i in range(len(instances))]
    assert clamped == [sol.diagnostics.clamped for sol in solutions["individual"]]
    if m >= 10:
        assert any(clamped)


@pytest.mark.parametrize("kernel, single", [(solve_total_batch, solve_total),
                                            (solve_individual_batch, solve_individual)],
                         ids=["total", "individual"])
def test_single_solve_diagnostics_are_its_batch_row(kernel, single):
    """A single solve reports its batch row's diagnostics: each field equals
    batch.diagnostics.row(i)'s and the batch array at row i, with floats for
    the per-row scalars and the clamped relays as a tuple of indices."""
    m = 6
    instances = [sample_instance(m, ChannelVariances(), instance_stream(4, slot))
                 for slot in range(24)]
    params = _params(_tiny_spec(m_values=(m,), p_i=0.05), m, 2.0)[
        "total" if single is solve_total else "individual"]
    batch = kernel(NetworkInstance.stack(instances), params, alpha=0.6)
    diag = batch.diagnostics
    assert not any(batch.errors)
    for i, inst in enumerate(instances):
        alone = vars(single(inst, params, alpha=0.6).diagnostics)
        row = vars(diag.row(i))
        assert alone.keys() == row.keys() == vars(diag).keys()
        for name, value in alone.items():
            if name == "clamped":
                assert value == row[name] == tuple(np.flatnonzero(diag.clamped[i]))
                assert all(type(j) is int for j in value)
            elif name == "v":
                assert value.shape == (m + 1,) and not value.flags.writeable
                assert np.array_equal(value, row[name]) and np.array_equal(value, diag.v[i])
            else:
                assert type(value) is type(row[name]) is float
                assert value == row[name] == vars(diag)[name][i]
    if single is solve_individual:
        clamped = [diag.row(i).clamped for i in range(len(instances))]
        assert any(clamped) and not all(clamped)


def test_split_batches_give_the_same_grid_point(monkeypatch):
    # gamma = 1 at p1 = 0.5 resamples many slots, so later rounds split too
    spec = ExperimentSpec(m_values=(10,), p1_values=(0.5,), gamma=1.0, p_i=0.01,
                          n_instances=30, seed=0)
    whole = solve_grid_point(spec, 10, 0.5, None)
    sizes = []
    monkeypatch.setattr(experiments, "solve_total_batch",
                        lambda batch, *args, **kwargs: sizes.append(batch.n)
                        or solve_total_batch(batch, *args, **kwargs))
    # batches of at most 3 rows (3 x 10 of 35 elements), then at most 4 rows
    for cap, value, rows in (("BATCH_ELEMENTS", 35, 3), ("BATCH_ROWS", 4, 4)):
        sizes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(experiments, cap, value)
            split = solve_grid_point(spec, 10, 0.5, None)
        assert sizes[0] == rows and max(sizes) == rows
        assert whole.resamples > 0 and split.resamples == whole.resamples
        for mode in spec.modes:
            assert np.array_equal(split.c_d[mode], whole.c_d[mode])


def test_batch_with_infeasible_rows_leaves_feasible_rows_unchanged():
    # weak relays cannot reach gamma: those rows fail, the rest must get
    # exactly what they get alone
    spec = _tiny_spec(m_values=(4,), alpha_values=None, gamma=1.5, n_instances=16)
    instances = [sample_instance(4, spec.variances, instance_stream(3, slot))
                 for slot in range(spec.n_instances)]
    instances[5] = NetworkInstance(h_sd=instances[5].h_sd, h_sr=instances[5].h_sr * 1e-3,
                                   h_rd=instances[5].h_rd, sigma2=1.0)
    params = _params(spec, 4, 2.0)
    batch = NetworkInstance.stack(instances)
    for mode, kernel, single in (("total", solve_total_batch, solve_total),
                                 ("individual", solve_individual_batch, solve_individual)):
        solved = kernel(batch, params[mode])
        failed = [i for i, err in enumerate(solved.errors) if err is not None]
        assert 5 in failed and len(failed) < len(instances)
        for i, inst in enumerate(instances):
            if i in failed:
                assert isinstance(solved.errors[i], InfeasibleThreshold)
                with pytest.raises(InfeasibleThreshold):
                    single(inst, params[mode])
                continue
            alone = single(inst, params[mode])
            row = solved.row(i)
            assert (row.c_d, row.alpha) == (alone.c_d, alone.alpha)
            assert np.array_equal(row.w, alone.w)


@pytest.mark.parametrize("point", json.loads(GOLDEN.read_text()),
                         ids=lambda p: f"{p['sweep']}-m{p['m']}-p1={p['p1']}")
def test_grid_point_matches_values_recorded_before_batching(point):
    """Per-slot C_d and resample counts at three sweep grid points, recorded
    from the slot-by-slot solver that batching replaced."""
    spec = HEADLINE_SWEEPS[point["sweep"]](seed=0)
    result = solve_grid_point(spec, point["m"], point["p1"], point["alpha"])
    assert result.resamples == point["resamples"]
    for mode, values in point["c_d"].items():
        np.testing.assert_allclose(result.c_d[mode], values, rtol=1e-12, atol=0)


def _count_draws(monkeypatch):
    """Record (slot, attempt) of every instance drawn through the module
    globals solve_grid_point uses."""
    draws = []
    stream, sample = experiments.instance_stream, experiments.sample_instance

    def counting_stream(seed, slot, attempt=0):
        draws.append((slot, attempt))
        return stream(seed, slot, attempt)

    def counting_sample(*args, **kwargs):
        counting_sample.calls += 1
        return sample(*args, **kwargs)

    counting_sample.calls = 0
    monkeypatch.setattr(experiments, "instance_stream", counting_stream)
    monkeypatch.setattr(experiments, "sample_instance", counting_sample)
    return draws, counting_sample


def test_resamples_draw_once_and_log_their_exception(monkeypatch, caplog):
    draws, sample = _count_draws(monkeypatch)
    spec = ExperimentSpec(m_values=(10,), p1_values=(0.5,), gamma=1.0, p_i=0.01,
                          n_instances=40, seed=0)
    with caplog.at_level(logging.WARNING, logger="anbeam.experiments"):
        result = solve_grid_point(spec, 10, 0.5, None)
    assert result.resamples > 0
    assert sample.calls == spec.n_instances + result.resamples == len(draws)
    records = [rec for rec in caplog.records if "resampled" in rec.message]
    assert len(records) == result.resamples
    assert all(isinstance(rec.args[-1], InfeasibleThreshold) for rec in records)
    # every slot is drawn at attempts 0, 1, ... without gaps
    for slot in range(spec.n_instances):
        attempts = [a for s, a in draws if s == slot]
        assert attempts == list(range(len(attempts)))


def test_slot_failing_only_in_individual_mode_is_redrawn_for_both(monkeypatch, caplog):
    draws, sample = _count_draws(monkeypatch)
    kernel = experiments.solve_individual_batch

    def fail_first_row_once(batch, params, alpha=None):
        solved = kernel(batch, params, alpha=alpha)
        if not fail_first_row_once.done:
            fail_first_row_once.done = True
            errors = (InfeasibleBudget("injected"),) + solved.errors[1:]
            object.__setattr__(solved, "errors", errors)
        return solved

    fail_first_row_once.done = False
    monkeypatch.setattr(experiments, "solve_individual_batch", fail_first_row_once)
    spec = _tiny_spec(n_instances=3)
    with caplog.at_level(logging.WARNING, logger="anbeam.experiments"):
        result = solve_grid_point(spec, 2, 2.0, 0.6)
    assert result.resamples == 1 and sample.calls == 4
    assert draws == [(0, 0), (1, 0), (2, 0), (0, 1)]
    [record] = [rec for rec in caplog.records if "resampled" in rec.message]
    assert isinstance(record.args[-1], InfeasibleBudget)
    redrawn = sample_instance(2, spec.variances, instance_stream(spec.seed, 0, 1))
    params = _params(spec, 2, 2.0)
    assert result.c_d["total"][0] == solve_total(redrawn, params["total"], alpha=0.6).c_d
    assert result.c_d["individual"][0] == \
        solve_individual(redrawn, params["individual"], alpha=0.6).c_d


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("sweep", sorted(HEADLINE_SWEEPS))
def test_grid_points_solved_together_match_one_point_at_a_time(sweep, seed):
    """Batching a relay count's grid points changes no value and no resample
    count (at M = 256 the wide-array batch also splits into parts)."""
    spec = HEADLINE_SWEEPS[sweep](seed=seed)
    points = [(p1, alpha) for p1 in spec.p1_values for alpha in spec.alpha_grid()]
    for m in spec.m_values:
        together = solve_grid_points(spec, m, points)
        assert len(together) == len(points)
        for (p1, alpha), got in zip(points, together):
            alone = solve_grid_point(spec, m, p1, alpha)
            assert got.resamples == alone.resamples
            for mode in spec.modes:
                assert np.array_equal(got.c_d[mode], alone.c_d[mode])


def test_grid_points_redraw_failed_rows_at_their_own_point(monkeypatch, caplog):
    draws, sample = _count_draws(monkeypatch)
    spec = ExperimentSpec(m_values=(10,), p1_values=(0.5, 2.0), gamma=1.0, p_i=0.01,
                          n_instances=40, seed=0)
    points = [(0.5, None), (2.0, None)]
    with caplog.at_level(logging.WARNING, logger="anbeam.experiments"):
        results = solve_grid_points(spec, 10, points)
    total = sum(result.resamples for result in results)
    assert results[0].resamples > results[1].resamples
    assert sample.calls == 2 * spec.n_instances + total
    records = [rec for rec in caplog.records if "resampled" in rec.message]
    assert len(records) == total
    for (p1, _), result in zip(points, results):
        assert sum(rec.args[2] == p1 for rec in records) == result.resamples
    # each (slot, attempt) drawn at either point is seeded once, however
    # many rows draw it
    assert len(draws) == len(set(draws))
    assert set(draws) == ({(slot, 0) for slot in range(spec.n_instances)}
                          | {(rec.args[0], rec.args[4]) for rec in records})


def test_every_row_draws_its_keys_network(monkeypatch, caplog):
    """A row's instance is the one a freshly seeded stream of its (slot,
    attempt) gives, also where the key's draw served a row at another point
    before it (the slots resampled at p1 = 0.6 are resampled at 0.5 too, so
    replacement keys recur as well)."""
    drawn = []
    sample = experiments.sample_instance

    def recording_sample(*args, **kwargs):
        drawn.append(sample(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(experiments, "sample_instance", recording_sample)
    spec = ExperimentSpec(m_values=(10,), p1_values=(0.5, 0.6, 2.0), gamma=1.0, p_i=0.01,
                          seed=0)
    points = [(p1, None) for p1 in spec.p1_values]
    with caplog.at_level(logging.WARNING, logger="anbeam.experiments"):
        solve_grid_points(spec, 10, points)
    # each round draws its rows in (slot, point) order; round k's rows are
    # those whose resample to attempt k was logged
    redrawn = [(rec.args[4], rec.args[0], spec.p1_values.index(rec.args[2]))
               for rec in caplog.records if "resampled" in rec.message]
    keys = [(slot, 0) for slot in range(spec.n_instances) for _ in points]
    keys += [(slot, attempt) for attempt, slot, _ in sorted(redrawn)]
    replacements = [key for key in keys if key[1] > 0]
    assert max(attempt for _, attempt in replacements) == 3
    assert len(set(replacements)) < len(replacements)
    assert len(drawn) == len(keys)
    for (slot, attempt), got in zip(keys, drawn):
        want = sample_instance(10, spec.variances, instance_stream(spec.seed, slot, attempt))
        assert complex(got.h_sd) == want.h_sd
        assert got.h_sr.tobytes() == want.h_sr.tobytes()
        assert got.h_rd.tobytes() == want.h_rd.tobytes()


@pytest.mark.parametrize("batch_rows", [None, 4], ids=["default-parts", "4-row-parts"])
def test_each_key_is_seeded_once_per_call(monkeypatch, caplog, batch_rows):
    """However the rows of one (slot, attempt) key fall into parts, the key's
    stream is seeded once, and each round's resamples are logged in (point,
    slot) order."""
    draws, sample = _count_draws(monkeypatch)
    if batch_rows is not None:
        monkeypatch.setattr(experiments, "BATCH_ROWS", batch_rows)
    spec = ExperimentSpec(m_values=(10,), p1_values=(0.5, 0.6, 2.0), gamma=1.0, p_i=0.01,
                          seed=0)
    points = [(p1, None) for p1 in spec.p1_values]
    with caplog.at_level(logging.WARNING, logger="anbeam.experiments"):
        results = solve_grid_points(spec, 10, points)
    records = [rec for rec in caplog.records if "resampled" in rec.message]
    keys = {(slot, 0) for slot in range(spec.n_instances)}
    keys |= {(rec.args[0], rec.args[4]) for rec in records}
    assert sample.calls == len(points) * spec.n_instances + len(records)
    assert sorted(draws) == sorted(keys)
    assert len(records) == sum(result.resamples for result in results) > 0
    logged = [(rec.args[4], spec.p1_values.index(rec.args[2]), rec.args[0]) for rec in records]
    assert logged == sorted(logged)


@pytest.mark.parametrize("batch_rows", [None, 4], ids=["default-parts", "4-row-parts"])
def test_each_key_builds_one_network(monkeypatch, caplog, batch_rows):
    """A row still gets its network from one sample_instance call, but the
    rows of one (slot, attempt) key share the network its first row built,
    however they fall into parts: one one-network build per key."""
    draws, sample = _count_draws(monkeypatch)
    of_gains = NetworkInstance._of_gains

    def counting_of_gains(gains, sigma2):
        counting_of_gains.one_network_builds += gains.ndim == 1
        return of_gains(gains, sigma2)

    counting_of_gains.one_network_builds = 0
    monkeypatch.setattr(NetworkInstance, "_of_gains", staticmethod(counting_of_gains))
    if batch_rows is not None:
        monkeypatch.setattr(experiments, "BATCH_ROWS", batch_rows)
    spec = ExperimentSpec(m_values=(10,), p1_values=(0.5, 0.6, 2.0), gamma=1.0, p_i=0.01,
                          seed=0)
    points = [(p1, None) for p1 in spec.p1_values]
    with caplog.at_level(logging.WARNING, logger="anbeam.experiments"):
        results = solve_grid_points(spec, 10, points)
    resamples = sum(result.resamples for result in results)
    assert resamples > 0
    assert sample.calls == len(points) * spec.n_instances + resamples
    # draws lists each seeded key once
    assert counting_of_gains.one_network_builds == len(set(draws)) == len(draws)


def test_grid_points_must_agree_on_how_alpha_is_set():
    with pytest.raises(ValueError, match="alpha"):
        solve_grid_points(_tiny_spec(), 2, [(2.0, 0.6), (2.0, None)])


def test_slot_failing_every_attempt_stops_after_100_resamples(monkeypatch):
    kernel = experiments.solve_total_batch

    def fail_first_row(batch, params, alpha=None):
        solved = kernel(batch, params, alpha=alpha)
        object.__setattr__(solved, "errors", (InfeasibleBudget("injected"),) + solved.errors[1:])
        return solved

    monkeypatch.setattr(experiments, "solve_total_batch", fail_first_row)
    with pytest.raises(InfeasibleBudget, match="100 consecutive") as raised:
        solve_grid_point(_tiny_spec(n_instances=2, budget_mode="total"), 2, 2.0, 0.6)
    assert str(raised.value) == ("slot 0 at (m=2, p1=2, 0.6) failed 100 consecutive "
                                 "resamples, the last: injected")


# Seed-0 CSV sha256 of the headline sweeps.  They rest on numpy's Generator
# streams, which numpy does not promise to keep across releases; these were
# recorded with numpy 2.4.6, the version CI installs.
SWEEP_SHA256 = {
    "power-sweep": "fe83d8f121d33077d201ddc9ca23bb036ebc00038870cf269f0d1b8460e7cdf1",
    "relay-count": "78afaf12f249d0c08c5c0165d3989b47715a163ea2f6d3c99b4ef624148bb29b",
    "wide-array": "42f5b9e1c8d9e5a48730882e37141a63ae74952718c3231af4d6ca34de1e3f73",
}


@pytest.mark.parametrize("sweep", sorted(SWEEP_SHA256))
def test_headline_sweep_csv_bytes_are_pinned(sweep, tmp_path):
    path = tmp_path / f"{sweep}.csv"
    emit_csv(run_sweep(HEADLINE_SWEEPS[sweep](seed=0), workers=1), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_SHA256[sweep]


# ---------------------------------------------------------------------------
# per-row p1 and alpha


def _draws(m, n, seed=3):
    return NetworkInstance.stack(
        sample_instance(m, ChannelVariances(), instance_stream(seed, slot)) for slot in range(n))


SOLVERS = {"total": solve_total_batch, "individual": solve_individual_batch}


@pytest.mark.parametrize("mode", sorted(SOLVERS))
def test_per_row_p1_and_alpha_match_scalar_solves(mode):
    batch = _draws(4, 6)
    budget = _params(_tiny_spec(m_values=(4,)), 4, 1.0)[mode].budget
    p1 = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 3.0])
    for gamma, alpha in ((None, np.linspace(0.2, 1.0, 6)), (0.3, None)):
        rows = SOLVERS[mode](batch, SystemParams(p1, gamma, budget), alpha=alpha)
        for i in range(batch.n):
            alone = SOLVERS[mode](batch, SystemParams(p1[i], gamma, budget),
                                  alpha=None if alpha is None else alpha[i])
            assert type(rows.errors[i]) is type(alone.errors[i])
            if rows.errors[i] is None:
                assert (rows.c_d[i], rows.alpha[i]) == (alone.c_d[i], alone.alpha[i])
                assert np.array_equal(rows.w[i], alone.w[i])


@pytest.mark.parametrize("mode", sorted(SOLVERS))
@pytest.mark.parametrize("p1, alpha, message", [
    (np.full(5, 2.0), None, r"p1 must be a scalar or hold one value per row \(6\)"),
    (np.full(7, 2.0), 0.5, r"p1 must be a scalar or hold one value per row \(6\)"),
    (2.0, np.full(5, 0.5), r"alpha must be a scalar or hold one value per row \(6\)"),
    (2.0, np.array([0.5] * 5 + [np.nan]), r"alpha=nan at row 5 outside \(0, 1\]"),
    (2.0, np.array([0.5] * 5 + [1.5]), r"alpha=1.5 at row 5 outside \(0, 1\]"),
    (2.0, np.array([0.5] * 5 + [-0.1]), r"alpha=-0.1 at row 5 outside \(0, 1\]"),
    (2.0, 1.5, r"alpha=1.5 at row 0 outside \(0, 1\]"),
], ids=["short-p1", "long-p1", "short-alpha", "nan-alpha", "alpha-above-1",
        "negative-alpha", "scalar-alpha-above-1"])
def test_per_row_values_are_checked(mode, p1, alpha, message):
    budget = _params(_tiny_spec(m_values=(4,)), 4, 1.0)[mode].budget
    with pytest.raises(ValueError, match=message):
        SOLVERS[mode](_draws(4, 6), SystemParams(p1, 0.3, budget), alpha=alpha)


# (in-range gains, the change that overflows the answer, the error it raises)
OVERFLOWING = {
    # a direct SNR of about 1e310 sends C_d to inf; at h_sd = 1 it is about 1e300
    "c_d": (dict(h_sd=1.0, h_sr=[1.0, 0.5], h_rd=[1.0, 2.0], sigma2=1e-300),
            {"h_sd": 1e5}, "C_d=inf: the destination SNR overflows a float"),
    # relay 1's input power |h_sr|^2 p1 overflows, and inf * 0 makes the weights nan
    "w": (dict(h_sd=1.0, h_sr=[1.0, 1.0], h_rd=[1.0, 1e-200], sigma2=1.0),
          {"h_sr": [1.0, 1e160]},
          "the weights are not finite: the inputs' powers overflow a float"),
}
BUDGETS = {"total": TotalBudget(4.0), "individual": IndividualBudget(2.0, np.full(2, 1.0))}


@pytest.mark.parametrize("mode, cause", [("total", "c_d"), ("individual", "c_d"),
                                         ("total", "w")])
def test_row_whose_answer_is_not_finite_fails_by_name(mode, cause):
    """A row whose C_d or weights leave the float range fails with
    NonFiniteSolution, so sweeps redraw it; its in-range twin, solved in the
    same batch, keeps the finite answer it gets alone."""
    gains, change, message = OVERFLOWING[cause]
    twin = NetworkInstance(**gains)
    params = SystemParams(2.0, None, BUDGETS[mode])
    overflowing = NetworkInstance(**{**gains, **change})
    solved = SOLVERS[mode](NetworkInstance.stack([overflowing, twin]), params, alpha=0.5)
    assert isinstance(solved.errors[0], NonFiniteSolution)
    assert str(solved.errors[0]) == message
    alone = SOLVERS[mode](NetworkInstance.stack([twin]), params, alpha=0.5)
    assert solved.errors[1] is None and np.isfinite(solved.c_d[1])
    assert solved.c_d[1] == alone.c_d[0] and np.array_equal(solved.w[1], alone.w[0])


# Overflows that come from the gains or the budgets at an ordinary alpha: the
# error names what overflowed, not alpha.  The individual budget's relay gain,
# 1e400 times |h_sd|, overflows tau in the magnitude problem's own units.
OVERFLOWING_AT_ORDINARY_ALPHA = {
    "total": (NetworkInstance(h_sd=1.0, h_sr=[1e160], h_rd=[1.0], sigma2=1.0),
              TotalBudget(4.0), "the weights are not finite: the inputs' powers overflow a float"),
    "individual": (NetworkInstance(h_sd=1e-200, h_sr=[1e200, 1.0], h_rd=[1.0, 1.0], sigma2=1.0),
                   IndividualBudget(4.0, np.full(2, 0.1)),
                   "the magnitude problem overflows a float (eta1=4.0, "
                   "eta2=1.7067336779066409, tau=inf)"),
}


@pytest.mark.parametrize("mode", sorted(OVERFLOWING_AT_ORDINARY_ALPHA))
def test_overflow_from_gains_or_budgets_does_not_blame_alpha(mode):
    instance, budget, message = OVERFLOWING_AT_ORDINARY_ALPHA[mode]
    solved = SOLVERS[mode](NetworkInstance.stack([instance]), SystemParams(2.0, None, budget),
                           alpha=0.5)
    assert isinstance(solved.errors[0], NonFiniteSolution)
    assert str(solved.errors[0]) == message and "alpha" not in message


SINGLE_INSTANCE_USES = {
    "derive-model": lambda inst, params: derive_model(inst, params.p1, 0.5),
    "build-d-tilde": lambda inst, params: build_d_tilde(derive_model(inst, params.p1, 0.5),
                                                        params.budget.p_tot),
    "resolve-alpha": lambda inst, params: alpha_for_threshold(inst, params.p1, params.gamma),
    "oracle-total": lambda inst, params: oracle_total(inst, params, 4),
    "params-to-dict": lambda inst, params: params_to_dict(params),
    "solve-total": lambda inst, params: solve_total(inst, params),
    "solve-individual": lambda inst, params: solve_individual(
        inst, SystemParams(params.p1, params.gamma, IndividualBudget(2.0, np.full(inst.m, 0.1)))),
}


@pytest.mark.parametrize("use", sorted(SINGLE_INSTANCE_USES))
@pytest.mark.parametrize("p1", [[2.0], [2.0, 3.0]], ids=["one-row", "two-rows"])
def test_single_instance_uses_reject_per_row_p1(use, p1):
    """A per-row p1 serves batch solves only; everything that works on one
    instance names p1 rather than failing on the array."""
    instance = sample_instance(4, ChannelVariances(), instance_stream(3, 0))
    params = SystemParams(np.array(p1), 0.3, TotalBudget(4.0))
    with pytest.raises(ValueError, match="p1 must be a scalar"):
        SINGLE_INSTANCE_USES[use](instance, params)


@pytest.mark.parametrize("p1", [[1.0, np.nan], [1.0, -1.0], [1.0, np.inf], [1.0, 0.0],
                                [[1.0, 2.0]]])
def test_per_row_p1_is_finite_and_positive(p1):
    with pytest.raises(ValueError, match="p1"):
        SystemParams(np.array(p1), None, TotalBudget(1.0))


# ---------------------------------------------------------------------------
# CSV


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_rows_parse_back(tmp_path):
    spec = _tiny_spec()
    rows = run_sweep(spec)
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == len(rows)
    for rec, row in zip(records, rows):
        assert int(rec["m"]) == row.m
        assert float(rec["p1"]) == row.p1
        assert rec["alpha"] == row.alpha
        assert rec["budget_mode"] == row.budget_mode
        # 12 significant digits round-trip the doubles we produce here
        assert float(rec["mean_c_d"]) == pytest.approx(row.mean_c_d, rel=1e-11)
        assert int(rec["n_instances"]) == row.n_instances
        assert int(rec["seed"]) == row.seed


# ---------------------------------------------------------------------------
# canned sweeps and worker resolution


def test_canned_specs_shapes():
    f2 = power_sweep_spec()
    assert f2.m_values == (4,) and len(f2.p1_values) == 11
    assert f2.alpha_values == (0.3, 0.6, 0.9) and f2.budget_mode == "both"
    f3 = relay_count_sweep_spec()
    assert f3.m_values == tuple(range(2, 11))
    assert f3.p1_values == (5.0,) and f3.alpha_values == (0.6,)


def test_resolve_workers():
    assert resolve_workers() == 1
    assert resolve_workers(4) == 4
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        resolve_workers(0)
    for bad in (2.7, True, "3"):
        with pytest.raises(ValueError, match=f"^workers: expected an integer, got {bad!r}$"):
            resolve_workers(bad)


def test_resolve_workers_reads_no_environment(monkeypatch):
    monkeypatch.setenv("ANBEAM_WORKERS", "abc")
    assert resolve_workers() == 1

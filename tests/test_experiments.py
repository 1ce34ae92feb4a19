"""Sweep harness: seeded sampling, grid execution, aggregation and CSV."""

import csv
import io
import logging

import numpy as np
import pytest

from anbeam.experiments import (
    CSV_HEADER,
    ChannelVariances,
    ExperimentSpec,
    alpha_label,
    emit_csv,
    power_sweep_spec,
    relay_count_sweep_spec,
    grid_points,
    instance_stream,
    resolve_workers,
    run_sweep,
    sample_instance,
    solve_grid_point,
    spec_from_dict,
    spec_to_dict,
)


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
])
def test_spec_rejects_bad_budgets_powers_and_splits(overrides):
    with pytest.raises(ValueError):
        _tiny_spec(**overrides)


def test_spec_accepts_boundary_values():
    _tiny_spec(p_i=0.0, alpha_values=(0.0, 1.0))
    _tiny_spec(alpha_values=None, gamma=1e-6)


def test_spec_round_trip():
    spec = power_sweep_spec(seed=9, n_instances=13)
    assert spec_from_dict(spec_to_dict(spec)) == spec
    spec_g = _tiny_spec(alpha_values=None, gamma=0.4)
    assert spec_from_dict(spec_to_dict(spec_g)) == spec_g


def test_grid_point_order_is_row_major():
    spec = ExperimentSpec(m_values=(2, 3), p1_values=(1.0, 2.0),
                          alpha_values=(0.5,), n_instances=1)
    assert grid_points(spec) == [(2, 1.0, 0.5), (2, 2.0, 0.5),
                                 (3, 1.0, 0.5), (3, 2.0, 0.5)]


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


def test_run_sweep_worker_count_invariant():
    spec = ExperimentSpec(m_values=(1, 2), p1_values=(1.0, 3.0),
                          alpha_values=(0.5,), budget_mode="both",
                          n_instances=3, seed=2)
    assert run_sweep(spec, workers=1) == run_sweep(spec, workers=3)


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


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("ANBEAM_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(4) == 4
    assert resolve_workers(0) == 1
    monkeypatch.setenv("ANBEAM_WORKERS", "6")
    assert resolve_workers() == 6
    assert resolve_workers(2) == 2

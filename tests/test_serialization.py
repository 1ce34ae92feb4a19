"""JSON round-trips for instances, parameters, scenarios and reports."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anbeam.oracles import OracleReport
from anbeam.serialization import (
    dump_scenario,
    instance_from_dict,
    instance_to_dict,
    load_scenario,
    params_from_dict,
    params_to_dict,
    report_to_dict,
    scenario_from_dict,
    scenario_to_dict,
    solution_to_dict,
)
from anbeam.total_solver import solve_total
from anbeam.individual_solver import solve_individual
from anbeam.types import IndividualBudget, NetworkInstance, SystemParams, TotalBudget
from conftest import make_instance


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
nonzeroish = st.floats(min_value=0.1, max_value=1e3, allow_nan=False)


@given(re_sd=finite, im_sd=finite, re_sr=finite, im_sr=finite,
       re_rd=finite, im_rd=finite, sigma2=nonzeroish)
def test_instance_round_trip(re_sd, im_sd, re_sr, im_sr, re_rd, im_rd, sigma2):
    h_sd = complex(re_sd, im_sd)
    if h_sd == 0:
        h_sd = 1.0 + 0.0j
    inst = NetworkInstance(h_sd=h_sd, h_sr=[complex(re_sr, im_sr)],
                           h_rd=[complex(re_rd, im_rd)], sigma2=sigma2)
    back = instance_from_dict(instance_to_dict(inst))
    assert back.h_sd == inst.h_sd
    assert np.array_equal(back.h_sr, inst.h_sr)
    assert np.array_equal(back.h_rd, inst.h_rd)
    assert back.sigma2 == inst.sigma2


def test_params_round_trip_total():
    params = SystemParams(2.5, 0.75, TotalBudget(4.0))
    back = params_from_dict(params_to_dict(params))
    assert back.p1 == 2.5 and back.gamma == 0.75
    assert isinstance(back.budget, TotalBudget) and back.budget.p_tot == 4.0


def test_params_round_trip_individual_without_gamma():
    params = SystemParams(1.0, None, IndividualBudget(3.0, [0.1, 0.0, 0.2]))
    back = params_from_dict(params_to_dict(params))
    assert back.gamma is None
    assert isinstance(back.budget, IndividualBudget)
    assert back.budget.p_s == 3.0
    assert np.array_equal(back.budget.p_i, [0.1, 0.0, 0.2])


def test_params_to_dict_rejects_an_unknown_budget_type():
    with pytest.raises(TypeError, match="^unknown budget type object$"):
        params_to_dict(SystemParams(1.0, None, object()))


def test_unknown_budget_kind_rejected():
    d = params_to_dict(SystemParams(1.0, None, TotalBudget(1.0)))
    d["budget"]["kind"] = "communal"
    with pytest.raises(ValueError, match="communal"):
        params_from_dict(d)


INDIVIDUAL = IndividualBudget(5.0, [0.1, 0.1])


def _scenario_doc(budget=INDIVIDUAL):
    inst = NetworkInstance(h_sd=0.5, h_sr=[1.0, 0.5j], h_rd=[1.0, 1.0], sigma2=1.0)
    return scenario_to_dict(inst, SystemParams(2.0, 0.4, budget))


_DELETE = object()


def _with(doc, path, value=_DELETE):
    """doc with the field at the dotted path set to value, or deleted."""
    *parents, key = path.split(".")
    parent = doc
    for name in parents:
        parent = parent[name]
    if value is _DELETE:
        del parent[key]
    else:
        parent[key] = value
    return doc


@pytest.mark.parametrize("mutate, field", [
    (lambda d: _with(d, "params"), "params"),
    (lambda d: _with(d, "instance"), "instance"),
    (lambda d: _with(d, "params.p1", [2.0]), "params.p1"),
    (lambda d: _with(d, "params.p1", None), "params.p1"),
    (lambda d: _with(d, "params.p1", "2"), "params.p1"),
    (lambda d: _with(d, "params.gamma", [0.4]), "params.gamma"),
    (lambda d: _with(d, "instance.h_sd", 0.5), "instance.h_sd"),
    (lambda d: _with(d, "instance.h_sd", [1.0, 0.0, 0.0]), "instance.h_sd"),
    (lambda d: _with(d, "instance.h_sr", 1.0), "instance.h_sr"),
    (lambda d: _with(d, "instance.h_rd", [[1.0, 0.0], [None, 0.0]]), "instance.h_rd[1]"),
    (lambda d: _with(d, "instance.sigma2"), "instance.sigma2"),
    (lambda d: _with(d, "params.budget.kind"), "params.budget.kind"),
    (lambda d: _with(d, "params.budget", "total"), "params.budget"),
    (lambda d: _with(d, "params.budget.p_s"), "params.budget.p_s"),
    (lambda d: _with(d, "params.budget.p_i", 0.1), "params.budget.p_i"),
    (lambda d: _with(d, "params.budget.p_i", [0.1, "x"]), "params.budget.p_i[1]"),
    (lambda d: _with(d, "params.budget.p_i", [0.1]), "params.budget.p_i"),
    (lambda d: _with(d, "params.budget.p_i", [0.1] * 3), "params.budget.p_i"),
    (lambda d: _with(d, "instance", []), "instance"),
    (lambda d: [d], "scenario"),
], ids=["no-params", "no-instance", "list-p1", "null-p1", "string-p1", "list-gamma",
        "scalar-h_sd", "triple-h_sd", "scalar-h_sr", "null-h_rd-part", "no-sigma2",
        "no-budget-kind", "string-budget", "no-p_s", "scalar-p_i", "string-p_i-item",
        "short-p_i", "long-p_i",
        "list-instance", "list-scenario"])
def test_malformed_scenario_is_value_error_naming_the_field(mutate, field):
    with pytest.raises(ValueError, match=f"^{re.escape(field)}[ :]"):
        scenario_from_dict(mutate(_scenario_doc()))


@pytest.mark.parametrize("path, budget", [
    ("surplus", INDIVIDUAL),
    ("instance.sigma", INDIVIDUAL),
    ("params.gama", INDIVIDUAL),
    ("params.budget.p_tot", INDIVIDUAL),
    ("params.budget.p_s", TotalBudget(5.0)),
], ids=["scenario", "instance", "params", "individual-budget", "total-budget"])
def test_unknown_scenario_field_is_value_error_naming_its_path(path, budget):
    """An unknown key at any of the four levels is rejected, not dropped."""
    with pytest.raises(ValueError, match=f"^unknown field\\(s\\): {re.escape(path)}$"):
        scenario_from_dict(_with(_scenario_doc(budget), path, 1.0))


def test_scenario_round_trip(rng):
    inst = make_instance(rng, 2)
    params = SystemParams(2.0, 0.4, TotalBudget(5.0))
    scen = scenario_from_dict(scenario_to_dict(inst, params))
    assert scen[0].h_sd == inst.h_sd
    assert np.array_equal(scen[0].h_sr, inst.h_sr)
    assert scen[1].budget.p_tot == 5.0


def test_scenario_file_round_trip(tmp_path, rng):
    inst = make_instance(rng, 3)
    params = SystemParams(2.0, None, IndividualBudget(4.0, np.full(3, 0.2)))
    path = tmp_path / "scenario.json"
    dump_scenario(inst, params, path)
    inst2, params2 = load_scenario(path)
    assert np.array_equal(inst2.h_rd, inst.h_rd)
    assert np.array_equal(params2.budget.p_i, params.budget.p_i)


def test_solution_to_dict_total(rng):
    inst = make_instance(rng, 2)
    params = SystemParams(2.0, None, TotalBudget(4.0))
    sol = solve_total(inst, params, alpha=0.6)
    d = solution_to_dict(sol)
    assert d["alpha"] == 0.6
    assert len(d["w"]) == 3 and len(d["w"][0]) == 2
    assert d["diagnostics"]["kind"] == "total"
    assert d["diagnostics"]["rayleigh_value"] > 0


def test_solution_to_dict_individual(rng):
    inst = make_instance(rng, 2)
    params = SystemParams(2.0, None, IndividualBudget(4.0, np.full(2, 0.1)))
    sol = solve_individual(inst, params, alpha=0.6)
    d = solution_to_dict(sol)
    assert d["diagnostics"]["kind"] == "individual"
    assert isinstance(d["diagnostics"]["clamped"], list)
    assert d["c_d"] == sol.c_d


def test_report_to_dict():
    rep = OracleReport(analytic_value=1.0, oracle_value=0.9, gap=0.1,
                       argmax_distance=0.01, samples_or_evals=100)
    d = report_to_dict(rep)
    assert d == {"analytic_value": 1.0, "oracle_value": 0.9, "gap": 0.1,
                 "argmax_distance": 0.01, "samples_or_evals": 100}

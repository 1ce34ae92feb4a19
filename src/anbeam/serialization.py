"""JSON schemas for instances, parameters, solutions and oracle reports.

Complex numbers are stored as two-element [re, im] arrays.  Floats survive a
round trip losslessly (JSON rendering uses Python's shortest-repr floats).

Scenario document::

    {
      "instance": {
        "h_sd": [re, im],
        "h_sr": [[re, im], ...],
        "h_rd": [[re, im], ...],
        "sigma2": <float>
      },
      "params": {
        "p1": <float>,
        "gamma": <float or null>,
        "budget": {"kind": "total", "p_tot": <float>}
                  or {"kind": "individual", "p_s": <float>, "p_i": [<float>, ...]}
      }
    }
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .types import (
    BeamSolution,
    IndividualBudget,
    IndividualDiagnostics,
    NetworkInstance,
    SystemParams,
    TotalBudget,
    TotalDiagnostics,
)

if TYPE_CHECKING:
    from .oracles import OracleReport


def _c2pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _integer(value, name: str) -> int:
    """value as an int; a bool or a non-integral number is rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: expected a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}: the integer is too large for a float (above 1.8e308)") from None


def _reject_unknown(doc, known, path: str = "") -> None:
    """A ValueError naming each key of the JSON object doc outside `known` by
    its dotted path under `path`; a doc that is not an object passes."""
    if isinstance(doc, dict) and any(key not in known for key in doc):
        raise ValueError("unknown field(s): " + ", ".join(sorted(
            f"{path}.{key}" if path else str(key) for key in doc if key not in known)))


def _field(doc, name: str, convert=lambda value, name: value):
    """convert(value, name) of the field `name`, a dotted path whose last part
    is its key in doc; a doc that is not a JSON object, or that lacks the
    key, is a ValueError naming the field."""
    parent, _, key = name.rpartition(".")
    if not isinstance(doc, dict):
        raise ValueError(f"{parent or 'scenario'} must be a JSON object, "
                         f"got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{name} is missing")
    return convert(doc[key], name)


def _list_of(convert):
    """Converter of a JSON list (or a tuple) whose items convert converts."""
    def converter(values, name: str) -> list:
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"{name}: expected a list, got {values!r}")
        return [convert(x, f"{name}[{i}]") for i, x in enumerate(values)]
    return converter


def _pair2c(pair, name: str) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"{name}: expected an [re, im] pair, got {pair!r}")
    return complex(_real(pair[0], name), _real(pair[1], name))


def instance_to_dict(instance: NetworkInstance) -> dict:
    return {
        "h_sd": _c2pair(instance.h_sd),
        "h_sr": [_c2pair(z) for z in instance.h_sr],
        "h_rd": [_c2pair(z) for z in instance.h_rd],
        "sigma2": instance.sigma2,
    }


def instance_from_dict(doc: dict) -> NetworkInstance:
    """NetworkInstance of a scenario's instance document; a missing, malformed
    or unknown field is a ValueError naming it (e.g. instance.h_sd)."""
    _reject_unknown(doc, ("h_sd", "h_sr", "h_rd", "sigma2"), "instance")
    return NetworkInstance(
        h_sd=_field(doc, "instance.h_sd", _pair2c),
        h_sr=np.array(_field(doc, "instance.h_sr", _list_of(_pair2c)), dtype=complex),
        h_rd=np.array(_field(doc, "instance.h_rd", _list_of(_pair2c)), dtype=complex),
        sigma2=_field(doc, "instance.sigma2", _real),
    )


def params_to_dict(params: SystemParams) -> dict:
    budget = params.budget
    if isinstance(budget, TotalBudget):
        budget_doc = {"kind": "total", "p_tot": budget.p_tot}
    elif isinstance(budget, IndividualBudget):
        budget_doc = {"kind": "individual", "p_s": budget.p_s,
                      "p_i": [float(p) for p in budget.p_i]}
    else:
        raise TypeError(f"unknown budget type {type(budget).__name__}")
    if np.ndim(params.p1):
        raise ValueError("p1 must be a scalar: a scenario holds a single instance")
    return {"p1": params.p1, "gamma": params.gamma, "budget": budget_doc}


def params_from_dict(doc: dict) -> SystemParams:
    """SystemParams of a scenario's params document; a missing, malformed or
    unknown field is a ValueError naming it (e.g. params.budget.kind)."""
    _reject_unknown(doc, ("p1", "gamma", "budget"), "params")
    budget_doc = _field(doc, "params.budget")
    kind = _field(budget_doc, "params.budget.kind")
    if kind == "total":
        _reject_unknown(budget_doc, ("kind", "p_tot"), "params.budget")
        budget = TotalBudget(p_tot=_field(budget_doc, "params.budget.p_tot", _real))
    elif kind == "individual":
        _reject_unknown(budget_doc, ("kind", "p_s", "p_i"), "params.budget")
        budget = IndividualBudget(
            p_s=_field(budget_doc, "params.budget.p_s", _real),
            p_i=_field(budget_doc, "params.budget.p_i", _list_of(_real)))
    else:
        raise ValueError(f"params.budget.kind: unknown budget kind {kind!r}")
    gamma = doc.get("gamma")
    return SystemParams(p1=_field(doc, "params.p1", _real),
                        gamma=None if gamma is None else _real(gamma, "params.gamma"),
                        budget=budget)


def scenario_to_dict(instance: NetworkInstance, params: SystemParams) -> dict:
    return {"instance": instance_to_dict(instance), "params": params_to_dict(params)}


def scenario_from_dict(doc: dict) -> Tuple[NetworkInstance, SystemParams]:
    """(instance, params) of a scenario document; a malformed or unknown field,
    or a params.budget.p_i without one cap per relay, is a ValueError naming it."""
    _reject_unknown(doc, ("instance", "params"))
    instance = instance_from_dict(_field(doc, "instance"))
    params = params_from_dict(_field(doc, "params"))
    if isinstance(params.budget, IndividualBudget) and len(params.budget.p_i) != instance.m:
        raise ValueError(f"params.budget.p_i length must equal the relay count: "
                         f"{len(params.budget.p_i)} caps for {instance.m} relays")
    return instance, params


def load_scenario(path) -> Tuple[NetworkInstance, SystemParams]:
    import json
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def dump_scenario(instance: NetworkInstance, params: SystemParams, path) -> None:
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(instance, params), fh, indent=2)
        fh.write("\n")


def solution_to_dict(solution: BeamSolution) -> dict:
    doc = {
        "w": [_c2pair(z) for z in solution.w],
        "alpha": solution.alpha,
        "c_d": solution.c_d,
        "second_phase_power": solution.second_phase_power,
    }
    diag = solution.diagnostics
    if isinstance(diag, TotalDiagnostics):
        doc["diagnostics"] = {
            "kind": "total",
            "mu": diag.mu,
            "rayleigh_value": diag.rayleigh_value,
        }
    elif isinstance(diag, IndividualDiagnostics):
        doc["diagnostics"] = {
            "kind": "individual",
            "clamped": list(diag.clamped),
            "chosen_r": diag.chosen_r,
        }
    return doc


def report_to_dict(report: OracleReport) -> dict:
    return {
        "analytic_value": report.analytic_value,
        "oracle_value": report.oracle_value,
        "gap": report.gap,
        "argmax_distance": report.argmax_distance,
        "samples_or_evals": report.samples_or_evals,
    }

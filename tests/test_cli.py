"""Command-line entry points: solve, sweep, validate."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anbeam import cli
from anbeam.cli import main
from anbeam.experiments import CSV_HEADER, relay_count_sweep_spec, spec_to_dict
from anbeam.individual_solver import solve_individual
from anbeam.serialization import dump_scenario
from anbeam.types import IndividualBudget, NetworkInstance, SystemParams, TotalBudget
from conftest import assert_individual_answer, make_instance

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def total_scenario(tmp_path, rng):
    inst = make_instance(rng, 2)
    gamma = 0.5 * max(abs(h) ** 2 for h in inst.h_sr) * 2.0 / inst.sigma2
    path = tmp_path / "scenario.json"
    dump_scenario(inst, SystemParams(2.0, gamma, TotalBudget(4.0)), path)
    return path


def test_solve_human_output(total_scenario, capsys):
    assert main(["solve", "--input", str(total_scenario)]) == 0
    out = capsys.readouterr().out
    assert "c_d" in out and "alpha" in out and "w[" in out


def test_solve_json_output(total_scenario, capsys):
    assert main(["solve", "--input", str(total_scenario), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["kind"] == "total"
    assert doc["c_d"] > 0
    assert len(doc["w"]) == 3


def test_solve_individual_scenario(tmp_path, rng, capsys):
    inst = make_instance(rng, 3)
    path = tmp_path / "ind.json"
    dump_scenario(inst, SystemParams(2.0, 0.2, IndividualBudget(5.0, np.full(3, 0.1))),
                  path)
    assert main(["solve", "--input", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["kind"] == "individual"
    assert 0.0 < doc["alpha"] < 1.0


def test_solve_missing_file_is_clean_error(tmp_path, capsys):
    code = main(["solve", "--input", str(tmp_path / "nope.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_solve_infeasible_threshold_is_clean_error(tmp_path, rng, capsys):
    inst = make_instance(rng, 1)
    gamma = 10.0 * abs(inst.h_sr[0]) ** 2 * 2.0 / inst.sigma2
    path = tmp_path / "bad.json"
    dump_scenario(inst, SystemParams(2.0, gamma, TotalBudget(4.0)), path)
    assert main(["solve", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_vanishing_alpha_is_answered(tmp_path, rng, capsys):
    """gamma = 1e-160 pins alpha near 1e-160, where the individual solver's
    closed-form radius, formed in r, overflowed a float: solve prints the
    answer of solve_individual, which meets the budget."""
    inst = make_instance(rng, 3)
    params = SystemParams(2.0, 1e-160, IndividualBudget(5.0, np.full(3, 0.1)))
    path = tmp_path / "tiny.json"
    dump_scenario(inst, params, path)
    assert main(["solve", "--input", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    sol = solve_individual(inst, params)
    assert_individual_answer(inst, params, sol)
    assert doc["c_d"] == sol.c_d
    assert [complex(*pair) for pair in doc["w"]] == list(sol.w)


def test_solve_malformed_scenario_exits_2_naming_the_field(total_scenario, tmp_path,
                                                          capsys):
    doc = json.loads(total_scenario.read_text())
    doc["params"]["p1"] = [2.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "params.p1" in err and "Traceback" not in err


def test_solve_overflowing_answer_exits_2_naming_it(tmp_path, capsys):
    """A direct SNR of about 1e310 sends C_d to inf: solve names that and
    prints no JSON with a non-finite number in it."""
    inst = NetworkInstance(h_sd=1e5, h_sr=[1.0, 0.5], h_rd=[1.0, 2.0], sigma2=1e-300)
    path = tmp_path / "huge.json"
    dump_scenario(inst, SystemParams(2.0, 1e-3, TotalBudget(4.0)), path)
    assert main(["solve", "--input", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: C_d=inf: the destination SNR overflows a float\n"


def test_solve_integer_too_large_for_a_float_exits_2_naming_it(total_scenario, tmp_path,
                                                              capsys):
    doc = json.loads(total_scenario.read_text())
    doc["params"]["p1"] = 10 ** 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: params.p1: the integer is too large for a float (above 1.8e308)\n"


def test_solve_unknown_field_exits_2_naming_it(total_scenario, tmp_path, capsys):
    doc = json.loads(total_scenario.read_text())
    doc["params"]["gama"] = doc["params"].pop("gamma")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown field(s): params.gama\n"


def test_solve_null_gamma_exits_2_naming_it(total_scenario, tmp_path, capsys):
    """A scenario has no alpha field, so solve needs gamma to derive it."""
    doc = json.loads(total_scenario.read_text())
    doc["params"]["gamma"] = None
    path = tmp_path / "no-gamma.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: params.gamma:") and err.count("\n") == 1


def test_solve_p_i_of_wrong_length_exits_2_naming_it(tmp_path, rng, capsys):
    inst = make_instance(rng, 2)
    path = tmp_path / "ind.json"
    dump_scenario(inst, SystemParams(2.0, 0.2, IndividualBudget(5.0, np.full(3, 0.1))),
                  path)
    assert main(["solve", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "params.budget.p_i length must equal the relay count" in err
    assert "3 caps for 2 relays" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_sweep_end_to_end(tmp_path):
    spec = relay_count_sweep_spec(seed=1, n_instances=2)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(spec)))
    out_path = tmp_path / "rows.csv"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "m,p1,alpha,budget_mode,mean_c_d,std_c_d,n_instances,seed"
    # 9 relay counts x 1 power x 1 alpha x 2 modes
    assert len(lines) == 1 + 18


def test_sweep_worker_flag_matches_serial(tmp_path):
    spec = relay_count_sweep_spec(seed=1, n_instances=2)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(spec)))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(a),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--spec", str(spec_path), "--out", str(b),
                 "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_bad_spec_is_clean_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"m_values": [2], "p1_values": [1.0],
                                     "alpha_values": [0.5], "gamma": 0.3}))
    assert main(["sweep", "--spec", str(spec_path), "--out",
                 str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("override, field", [
    ({"m_values": [2.7]}, "m_values"),
    ({"p1_values": []}, "p1_values"),
    ({"n_instances": 2.5}, "n_instances"),
    ({"seed": -1}, "seed"),
    ({"relays": 4}, "relays"),
    ({"m_values": 4}, "m_values"),
    ({"p_s": 10 ** 400}, "p_s: the integer is too large for a float"),
    ({"m_values": [10 ** 400]}, "m_values: relay counts must be <="),
    ({"n_instances": 2 ** 63}, "n_instances must be <="),
    ({"m_values": [2 ** 63]}, "m_values: relay counts must be <="),
], ids=["fractional-m", "empty-p1", "fractional-count", "negative-seed", "unknown-key",
        "scalar-m", "integer-too-large-for-a-float", "m-too-large-for-a-float",
        "count-beyond-numpy", "m-beyond-numpy"])
def test_sweep_bad_field_exits_2_naming_it(override, field, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    doc = {**spec_to_dict(relay_count_sweep_spec(seed=1, n_instances=1)), **override}
    spec_path.write_text(json.dumps(doc))
    assert main(["sweep", "--spec", str(spec_path), "--out",
                 str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err and "Traceback" not in err


def test_sweep_slot_failing_every_resample_exits_2_naming_the_grid_point(tmp_path, capsys):
    """At gamma = 1e6 no drawn network reaches the threshold, so slot 0 fails
    its draw and 100 resamples."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"m_values": [2], "p1_values": [1.0], "gamma": 1e6,
                                     "n_instances": 2}))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in err
    assert errors[0].startswith("error: slot 0 at (m=2, p1=1, gamma=1000000) failed 100 "
                                "consecutive resamples, the last: ")
    assert "gamma" in errors[0].split("the last: ")[1]
    assert not out.exists()


def test_sweep_gamma_whose_split_underflows_exits_2_without_resampling(tmp_path, capsys):
    """At gamma = 1e-310, 1/gamma overflows whatever the draw, so the spec is
    rejected before any slot is drawn."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"m_values": [2], "p1_values": [1.0], "gamma": 1e-310,
                                     "n_instances": 2}))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: gamma=1e-310 must be finite and above 5.56e-309, "
                   "where 1/gamma overflows a float\n")
    assert not out.exists()


def test_sweep_zero_workers_exits_2_with_one_line(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(relay_count_sweep_spec(seed=1, n_instances=1))))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out), "--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "workers" in err
    assert not out.exists()


# sha256 of the stdout of `validate --suite signals --seed 3 --count 3` with
# numpy 2.4.6, the version CI pins: a change to the Monte Carlo oracle's draws
# or arithmetic that moves a printed digit shows here.
SIGNALS_SEED3_SHA256 = "a06cd1cafd007a530fe16acbb2f80d1915093ba0fd705b0f2ec2c60a59807b5f"


@pytest.mark.parametrize("suite", ["total", "individual", "signals"])
def test_validate_suites_pass(suite, capsys):
    assert main(["validate", "--suite", suite, "--seed", "3", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "[ok  ]" in out
    assert "[FAIL]" not in out
    if suite == "signals":
        assert hashlib.sha256(out.encode()).hexdigest() == SIGNALS_SEED3_SHA256


# sha256 of the stdout of `validate --suite SUITE --seed 0` at the default
# counts, with numpy 2.4.6: a change to an oracle's draws or arithmetic that
# moves a printed digit or an eval count shows here, as the sweep digests show
# a solver's.
VALIDATE_SEED0_SHA256 = {
    "total": "7c39409d8a9de1ffe5504b4160295a233c0461a9c550e1b8d9e8b68e3559fb41",
    "individual": "0bb5423bbf646ae7ed06c54e2b166748d2613656341311244bf5303c70bdb97a",
}


@pytest.mark.parametrize("suite", sorted(VALIDATE_SEED0_SHA256))
def test_validate_stdout_at_seed_0_is_pinned(suite, capsys):
    assert main(["validate", "--suite", suite, "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_SEED0_SHA256[suite]


def test_validate_signals_passes_on_seeds_0_to_199(capsys):
    """The relay-snr limit is 7 sigma, so a correct solver passes every seed
    (a false alarm has probability 2.6e-12 per comparison)."""
    failing = [seed for seed in range(200)
               if main(["validate", "--suite", "signals", "--seed", str(seed)]) != 0]
    assert failing == []
    assert "[FAIL]" not in capsys.readouterr().out


def test_validate_total_ignores_workers_and_starts_no_pool(monkeypatch, capsys):
    """validate runs in one process: --workers 2 prints the bytes of
    --workers 1, and nothing it calls may start a process pool."""
    def no_pool(*args, **kwargs):
        raise AssertionError("validate started a process pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    outputs = []
    for workers in ("1", "2"):
        assert main(["validate", "--suite", "total", "--count", "3",
                     "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_importing_the_cli_loads_no_process_pool():
    """Only a pooled sweep imports the process pool: a fresh interpreter that
    imports the package and its CLI has not loaded it."""
    code = ("import sys, anbeam, anbeam.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "False"


def test_validate_singular_d_tilde_is_a_failed_check(monkeypatch, capsys):
    """The eigen check reports a singular dense D_tilde as its own FAIL line
    and the suite goes on, rather than crashing the command."""
    monkeypatch.setattr(cli, "build_d_tilde",
                        lambda derived, p_tot: np.zeros((derived.m + 1, derived.m + 1)))
    assert main(["validate", "--suite", "total", "--seed", "3", "--count", "2"]) == 1
    out = capsys.readouterr().out
    assert "[ok  ] total[1]" in out
    assert "[FAIL] total-eigen[0]: D_tilde is singular" in out
    assert "[FAIL] total-eigen[1]: D_tilde is singular" in out


@pytest.mark.parametrize("flags, name", [
    (["--count", "0"], "--count"),
    (["--count", "-3"], "--count"),
    (["--seed", "-1"], "--seed"),
    (["--workers", "-4"], "workers"),
], ids=["zero-count", "negative-count", "negative-seed", "negative-workers"])
def test_validate_bad_flag_exits_2_before_any_check(flags, name, capsys):
    assert main(["validate", "--suite", "individual", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and name in captured.err


def test_validate_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["validate", "--suite", "everything"])


@pytest.mark.parametrize("script, rows", [
    ("run_power_sweep.py", 66),
    ("run_relay_count_sweep.py", 18),
])
def test_headline_script_runs(script, rows, tmp_path):
    """The headline sweep scripts run end to end as a user runs them."""
    out = tmp_path / "rows.csv"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    subprocess.run([sys.executable, str(REPO / "scripts" / script),
                    "--n-instances", "2", "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=120)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + rows

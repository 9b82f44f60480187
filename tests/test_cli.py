import ast
import contextlib
import errno
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from fluidq import cli, expode, fluid, simulator
from fluidq.distributions import Exponential
from fluidq.equilibrium import equilibrium_state
from fluidq.fluid import EquilibriumShaped, FluidConfig, InitialCondition, solve

EXP = {"family": "exponential", "rate": 1.0}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_minimal_fluid_solve_fills_defaults(tmp_path):
    path = _write_config(tmp_path, {"mode": "fluid-solve", "arrival_rate": 1.0,
                                    "patience": EXP, "service": EXP})
    cfg = cli.parse_config(path)
    assert cfg["mode"] == "fluid-solve"
    assert cfg["dt"] == 1e-3
    assert cfg["horizon"] == 10.0
    assert cfg["seed"] == 12345
    # every input comes back built and typed, so the runners only compute
    assert type(cfg["seed"]) is int and type(cfg["dt"]) is float
    assert cfg["profile_times"] == ()
    assert isinstance(cfg["probes"], np.ndarray) and cfg["probes"].shape == (512,)
    assert isinstance(cfg["initial"], fluid.ValidatedInitial)


def test_unknown_key_is_exit_code_4(tmp_path):
    path = _write_config(tmp_path, {"mode": "fluid-solve", "arrival_rate": 1.0,
                                    "patience": EXP, "service": EXP, "lamda": 2.0})
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(path)
    assert err.value.exit_code == cli.EXIT_UNKNOWN_KEY
    assert "lamda" in str(err.value)


def test_missing_required_field_is_exit_code_5(tmp_path):
    path = _write_config(tmp_path, {"mode": "simulate", "arrival_rate": 1.2,
                                    "patience": EXP, "service": EXP})
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(path)
    assert err.value.exit_code == cli.EXIT_MODE_MISMATCH
    assert "n" in str(err.value)


@pytest.mark.parametrize("field", [{"initial": {"r0": 0.5}}, {"dt": 0.0}],
                         ids=["queue without full servers", "dt not positive"])
def test_an_input_the_library_refuses_is_exit_code_5(field, tmp_path):
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(_write_config(tmp_path, {**_SOLVE, **field}))
    assert err.value.exit_code == cli.EXIT_MODE_MISMATCH


def test_missing_file_is_exit_code_2(tmp_path):
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(str(tmp_path / "nope.json"))
    assert err.value.exit_code == cli.EXIT_MISSING_FILE


def test_malformed_json_is_exit_code_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{mode: fluid-solve")
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(str(path))
    assert err.value.exit_code == cli.EXIT_MALFORMED


def test_snapshot_times_must_align_with_dt(tmp_path):
    path = _write_config(tmp_path, {"mode": "compare", "arrival_rate": 1.2,
                                    "patience": EXP, "service": EXP, "n": [2],
                                    "snapshot_times": [1.0005]})
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(path)
    assert err.value.exit_code == cli.EXIT_MODE_MISMATCH


def test_main_exit_codes_for_config_errors(tmp_path):
    assert cli.main(["--config", str(tmp_path / "nope.json")]) == cli.EXIT_MISSING_FILE


_SOLVE = {"mode": "fluid-solve", "arrival_rate": 1.2, "patience": EXP, "service": EXP,
          "horizon": 1.0, "dt": 0.01}
_SIM = {"mode": "simulate", "arrival_rate": 1.2, "patience": EXP, "service": EXP,
        "n": 4, "horizon": 2.0, "snapshot_times": [1.0, 2.0], "replications": 1}

# one bad law per law key, each in a mode that reads it: (key, config)
_BAD_LAWS = {
    "lognormal patience of negative cv": ("patience", {
        **_SOLVE, "patience": {"family": "lognormal", "mean": 1.0, "cv": -1.0}}),
    "equilibrium service with lo above hi": ("service", {
        "mode": "equilibrium", "arrival_rate": 1.2, "patience": EXP,
        "service": {"family": "uniform", "lo": 2.0, "hi": 1.0}}),
    "weibull arrival in compare": ("arrival", {
        **_SIM, "mode": "compare", "n": [4], "arrival": {"family": "weibull"}}),
    "gc-check law of negative rate": ("distribution", {
        "mode": "gc-check", "distribution": {"family": "exponential", "rate": -1.0}}),
}

EXIT_CASES = {
    **{case: (doc, cli.EXIT_MODE_MISMATCH) for case, (_, doc) in _BAD_LAWS.items()},
    "missing file": (None, cli.EXIT_MISSING_FILE),
    "malformed JSON": ("{mode: fluid-solve", cli.EXIT_MALFORMED),
    "unknown key": ({**_SOLVE, "lamda": 2.0}, cli.EXIT_UNKNOWN_KEY),
    "invariant violation": ({**_SOLVE, "arrival_rate": 20.0, "horizon": 4.0, "dt": 0.2,
                             "patience": {"family": "uniform", "lo": 1.0, "hi": 1.2}},
                            cli.EXIT_INVARIANT),
    "zero servers": ({**_SIM, "n": 0}, cli.EXIT_MODE_MISMATCH),
    "zero servers in a list": ({**_SIM, "mode": "compare", "n": [4, 0]},
                               cli.EXIT_MODE_MISMATCH),
    "horizon off the dt grid": ({**_SOLVE, "dt": 0.3}, cli.EXIT_MODE_MISMATCH),
    "queue without full servers": ({**_SOLVE, "initial": {"r0": 0.5}}, cli.EXIT_MODE_MISMATCH),
    "fluid step never converges": ({**_SOLVE, "arrival_rate": 2.0}, cli.EXIT_NO_CONVERGENCE),
    "fluid step never converges in ode-check": ({"mode": "ode-check", "rho": 2.0, "alpha": 1.0,
                                                 "mu": 1.0, "horizon": 1.0, "dt": 0.01},
                                                cli.EXIT_NO_CONVERGENCE),
    "fluid step never converges in compare": ({**_SIM, "mode": "compare", "arrival_rate": 2.0,
                                               "n": [4]}, cli.EXIT_NO_CONVERGENCE),
    "tolerance is not a key": ({**_SOLVE, "arrival_rate": 2.0, "tolerance": 1e-10},
                               cli.EXIT_UNKNOWN_KEY),
    "dt not positive": ({**_SOLVE, "dt": 0.0}, cli.EXIT_MODE_MISMATCH),
    "probe grid of one point": ({**_SOLVE, "probes": {"count": 1}}, cli.EXIT_MODE_MISMATCH),
    "probe bound not a number": ({**_SIM, "mode": "compare", "n": [4], "probes": {"lo": "low"}},
                                 cli.EXIT_MODE_MISMATCH),
    "probes in simulate": ({**_SIM, "probes": {"count": 65}}, cli.EXIT_MODE_MISMATCH),
    "probes in equilibrium": ({"mode": "equilibrium", "arrival_rate": 1.2, "patience": EXP,
                               "service": EXP, "probes": {"count": 65}}, cli.EXIT_MODE_MISMATCH),
    "initial kind misspelled": ({**_SIM, "initial": {"kind": "equilbrium"}},
                                cli.EXIT_MODE_MISMATCH),
    "initial kind with another key": ({**_SIM, "initial": {"kind": "equilibrium", "r0": 0.2}},
                                      cli.EXIT_MODE_MISMATCH),
    "initial key misspelled": ({**_SIM, "initial": {"r0": 0.0, "server_profle": {
                                    "kind": "equilibrium-shaped", "z": 1.0}}},
                               cli.EXIT_MODE_MISMATCH),
    "server profile key unknown": ({**_SOLVE, "initial": {"r0": 0.1, "server_profile": {
                                        "kind": "equilibrium-shaped", "z": 1.0, "shape": 2}}},
                                   cli.EXIT_MODE_MISMATCH),
    "compare without replications": ({**_SIM, "mode": "compare", "n": [4],
                                      "replications": 0}, cli.EXIT_MODE_MISMATCH),
    "gc-check with too few samples": ({"mode": "gc-check", "distribution": EXP,
                                       "sample_count": 50}, cli.EXIT_MODE_MISMATCH),
    "arrival rate not a number": ({**_SOLVE, "arrival_rate": "fast"}, cli.EXIT_MODE_MISMATCH),
    "seed not a number": ({**_SIM, "seed": "lucky"}, cli.EXIT_MODE_MISMATCH),
    "snapshot time not a number": ({**_SIM, "snapshot_times": [1.0, None]},
                                   cli.EXIT_MODE_MISMATCH),
    "ode-check rate not a number": ({"mode": "ode-check", "rho": [1.0], "alpha": 1.0,
                                     "mu": 1.0, "horizon": 1.0}, cli.EXIT_MODE_MISMATCH),
    "equilibrium-shaped profile without z": (
        {**_SOLVE, "initial": {"r0": 0.1, "server_profile": {"kind": "equilibrium-shaped"}}},
        cli.EXIT_MODE_MISMATCH),
    "simulate from an invalid initial state": ({**_SIM, "initial": {"r0": 0.5}},
                                               cli.EXIT_MODE_MISMATCH),
    "patience without density": ({**_SOLVE, "patience": {"family": "deterministic",
                                                         "value": 1.0}},
                                 cli.EXIT_MODE_MISMATCH),
    "bad arrival distribution": ({**_SIM, "arrival": {"family": "weibull"}},
                                 cli.EXIT_MODE_MISMATCH),
    "arrival mean off 1/arrival_rate": ({**_SIM, "arrival": {"family": "exponential", "rate": 5.0}},
                                        cli.EXIT_MODE_MISMATCH),
    "arrival mean off 1/arrival_rate in compare": (
        {**_SIM, "mode": "compare", "n": [4], "arrival_rate": 1.5,
         "arrival": {"family": "exponential", "rate": 5.0}}, cli.EXIT_MODE_MISMATCH),
    "empty server-count list in simulate": ({**_SIM, "n": []}, cli.EXIT_MODE_MISMATCH),
    "empty server-count list in compare": ({**_SIM, "mode": "compare", "n": []},
                                           cli.EXIT_MODE_MISMATCH),
    "distribution rate a string": ({**_SOLVE, "patience": {"family": "exponential", "rate": "a"}},
                                   cli.EXIT_MODE_MISMATCH),
    "distribution rate a bool": ({**_SOLVE, "patience": {"family": "exponential", "rate": True}},
                                 cli.EXIT_MODE_MISMATCH),
    "distribution bound null": ({**_SOLVE, "patience": {"family": "uniform", "lo": None, "hi": 2}},
                                cli.EXIT_MODE_MISMATCH),
    "hyperexponential weights not lists": (
        {**_SOLVE, "patience": {"family": "hyperexponential", "weights": 1, "rates": 1}},
        cli.EXIT_MODE_MISMATCH),
    "hyperexponential weight a string": (
        {**_SOLVE, "patience": {"family": "hyperexponential", "weights": [0.5, "a"],
                                "rates": [1.0, 2.0]}},
        cli.EXIT_MODE_MISMATCH),
    "lognormal mean a string": ({**_SOLVE, "service": {"family": "lognormal", "mean": "x", "cv": 1}},
                                cli.EXIT_MODE_MISMATCH),
    "lognormal mean overflows": ({**_SOLVE, "patience": {"family": "lognormal", "mu": 0,
                                                         "sigma": 1000}},
                                 cli.EXIT_MODE_MISMATCH),
    "lognormal sigma overflows": ({**_SOLVE, "patience": {"family": "lognormal", "mean": 1e308,
                                                          "cv": 1e300}},
                                  cli.EXIT_MODE_MISMATCH),
    "distribution family a list": ({**_SOLVE, "service": {"family": ["exponential"]}},
                                   cli.EXIT_MODE_MISMATCH),
    "snapshot beyond the horizon": ({**_SIM, "snapshot_times": [1.0, 3.0]},
                                    cli.EXIT_MODE_MISMATCH),
    "profile time beyond the horizon": ({**_SOLVE, "profile_times": [2.0]},
                                        cli.EXIT_MODE_MISMATCH),
    "profile time below zero": ({**_SOLVE, "profile_times": [-1.0]}, cli.EXIT_MODE_MISMATCH),
    "ode-check rate not positive": ({"mode": "ode-check", "rho": 1.0, "alpha": 1.0, "mu": 0.0,
                                     "horizon": 1.0}, cli.EXIT_MODE_MISMATCH),
    "arrival rate beyond the float range": ({**_SOLVE, "arrival_rate": 10 ** 400},
                                            cli.EXIT_MODE_MISMATCH),
    "server count beyond the float range": ({**_SIM, "n": 10 ** 400}, cli.EXIT_MODE_MISMATCH),
    "probe count beyond the float range": ({**_SOLVE, "probes": {"count": 10 ** 400}},
                                           cli.EXIT_MODE_MISMATCH),
    "compare without snapshots": ({**_SIM, "mode": "compare", "n": [4], "snapshot_times": []},
                                  cli.EXIT_MODE_MISMATCH),
    "equilibrium arrival rate not positive": ({"mode": "equilibrium", "arrival_rate": -1.5,
                                               "patience": EXP, "service": EXP},
                                              cli.EXIT_MODE_MISMATCH),
    "probes key misspelled": ({**_SOLVE, "probes": {"cnt": 8}}, cli.EXIT_MODE_MISMATCH),
    "out null": ({**_SOLVE, "out": None}, cli.EXIT_MODE_MISMATCH),
    "horizon below dt": ({**_SOLVE, "horizon": -1}, cli.EXIT_MODE_MISMATCH),
    "ode-check start beyond the buffer's reach": (   # x0 >= 1 + rho mu / alpha = 2.5
        {"mode": "ode-check", "rho": 1.5, "alpha": 1.0, "mu": 1.0, "x0": 3}, cli.EXIT_MODE_MISMATCH),
    "z on an empty server profile": ({**_SOLVE, "initial": {"r0": 0.0, "server_profile": {
                                          "kind": "empty", "z": 1}}}, cli.EXIT_MODE_MISMATCH),
    "compare with snapshots out of order": ({**_SIM, "mode": "compare", "n": [4],
                                             "snapshot_times": [2.0, 1.0]}, cli.EXIT_MODE_MISMATCH),
    "ode-check start beyond the buffer's reach at H=100": (
        {"mode": "ode-check", "rho": 1.5, "alpha": 1.0, "mu": 1.0, "x0": 3, "horizon": 100.0,
         "dt": 1e-3}, cli.EXIT_MODE_MISMATCH),
    "ode-check traffic intensity zero": ({"mode": "ode-check", "rho": 0, "alpha": 1.0, "mu": 1.0,
                                          "horizon": 1.0}, cli.EXIT_MODE_MISMATCH),
    "ode-check horizon off the dt grid": ({"mode": "ode-check", "rho": 1.5, "alpha": 1.0,
                                           "mu": 1.0, "horizon": 1.0, "dt": 0.3},
                                          cli.EXIT_MODE_MISMATCH),
    # {t:g} prints both as 1e+06, so the second profile file would overwrite the first
    "profile times that print alike": ({**_SOLVE, "dt": 1.0, "horizon": 1000001,
                                        "profile_times": [1000000, 1000001]},
                                       cli.EXIT_MODE_MISMATCH),
    "profile time given twice": ({**_SOLVE, "profile_times": [0.5, 0.5]}, cli.EXIT_MODE_MISMATCH),
    "probe grid beyond the float range": ({**_SOLVE, "probes": {"lo": -1e308, "hi": 1e308,
                                                                "count": 3}},
                                          cli.EXIT_MODE_MISMATCH),
    "probe grid below the float resolution": ({**_SOLVE, "probes": {"lo": 0, "hi": 5e-324,
                                                                    "count": 4}},
                                              cli.EXIT_MODE_MISMATCH),
    "probe grid beyond memory": ({**_SOLVE, "probes": {"count": 10 ** 15}},
                                 cli.EXIT_MODE_MISMATCH),
    "probe 2**52 steps of dt out": ({**_SOLVE, "probes": {"lo": 0, "hi": 1e308, "count": 3}},
                                    cli.EXIT_MODE_MISMATCH),
    "probe 2**52 steps of dt out in compare": (
        {**_SIM, "mode": "compare", "n": [4], "dt": 0.01, "probes": {"hi": 2.0**52 * 0.01}},
        cli.EXIT_MODE_MISMATCH),
    "patience without density in compare": (
        {**_SIM, "mode": "compare", "n": [4, 4], "replications": 2,
         "patience": {"family": "deterministic", "value": 1.0}}, cli.EXIT_MODE_MISMATCH),
}

# the exact stderr line of some cases
EXIT_MESSAGES = {
    **{case: "error: no-convergence: inner Newton iteration exceeded its cap"
       for case in EXIT_CASES if case.startswith("fluid step never converges")},
    "horizon below dt": "error: horizon must be at least dt",
    "ode-check start beyond the buffer's reach": (
        "error: invalid-init: virtual buffer mass must be finite; "
        "a queue of lambda*N_F or more has no offered wait"),
    "z on an empty server profile": "error: invalid server profile {'kind': 'empty', 'z': 1}",
    "compare without snapshots": "error: snapshot_times must not be an empty list",
    "compare with snapshots out of order": "error: snapshot_times must be sorted, got [2.0, 1.0]",
    "ode-check traffic intensity zero": "error: traffic intensity rho must be positive",
    "ode-check horizon off the dt grid": "error: horizon 1.0 is not on the grid of dt=0.3",
    "profile times that print alike": (
        "error: profile_times entries 1000000.0 and 1000001.0 both write profiles_t1e+06.csv"),
    "profile time given twice": "error: profile_times entries 0.5 and 0.5 both write profiles_t0.5.csv",
    "probe grid beyond the float range": (
        "error: probe grid from -1e+308 to 1e+308 spans more than the float range"),
    "probe grid below the float resolution": (
        "error: probe grid of 4 points from 0.0 to 5e-324 is not strictly increasing"),
    "probe grid beyond memory": (
        "error: probe grid of 1000000000000000 points does not fit in memory"),
    **{case: "error: probes must lie below 2**52 steps of dt=0.01"
       for case in ("probe 2**52 steps of dt out", "probe 2**52 steps of dt out in compare")},
    "patience without density in compare": (
        "error: invalid patience distribution: CDF is neither Lipschitz nor of bounded hazard"),
}

# cases that must exit before the work they would waste: the functions never called
_NOT_REACHED = {
    "compare without snapshots": [(fluid, "solve"), (simulator, "run")],
    "compare with snapshots out of order": [(fluid, "solve")],
    "ode-check start beyond the buffer's reach at H=100": [(expode, "integrate")],
    "ode-check traffic intensity zero": [(expode, "integrate")],
    "ode-check horizon off the dt grid": [(expode, "integrate")],
    "profile times that print alike": [(fluid, "solve")],
    "profile time given twice": [(fluid, "solve")],
    "probe grid beyond the float range": [(fluid, "solve")],
    "probe grid below the float resolution": [(fluid, "solve")],
    "probe 2**52 steps of dt out": [(fluid, "solve")],
    "probe 2**52 steps of dt out in compare": [(fluid, "solve"), (simulator, "run")],
    "patience without density in compare": [(fluid, "solve"), (simulator, "run")],
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_each_error_exits_with_its_code_and_one_line(case, tmp_path, capsys, monkeypatch):
    doc, expected = EXIT_CASES[case]
    if case.startswith("fluid step never converges"):
        monkeypatch.setattr(fluid, "_INNER_CAP", 1)   # one Newton step cannot reach a root
    path = tmp_path / "config.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out)]) == expected
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    if case in EXIT_MESSAGES:
        assert err == EXIT_MESSAGES[case] + "\n"
    assert not out.exists()   # out is made with the first file, and a failed run writes none


@pytest.mark.parametrize("case", sorted(_NOT_REACHED))
def test_a_bad_input_exits_before_the_work_it_would_waste(case, tmp_path, monkeypatch):
    def spy(name):
        def reached(*args, **kwargs):
            raise AssertionError(f"{name} ran for a bad input")
        return reached

    for module, name in _NOT_REACHED[case]:
        monkeypatch.setattr(module, name, spy(name))
    doc, expected = EXIT_CASES[case]
    assert cli.main(["--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == expected


def _running_sum(dt, k):
    t = 0.0
    for _ in range(k):
        t += dt
    return t


# times against the grid of _SOLVE (dt 0.01, horizon 1): (t, its index, or None if off the grid)
_GRID_TIMES = {
    "k dt": (37 * 0.01, 37),
    "horizon as k dt": (100 * 0.01, 100),
    "running sum of dt": (_running_sum(0.01, 70), 70),
    "running sum of dt to the horizon": (_running_sum(0.01, 100), 100),   # 1 + 7e-16
    "1e-10 off the grid, relative": (0.37 * (1.0 + 1e-10), None),
}


@pytest.mark.parametrize("route", ["FluidConfig", "FluidSolution", "parse_config"])
@pytest.mark.parametrize("case", sorted(_GRID_TIMES))
def test_one_grid_rule_for_the_library_and_the_cli(case, route, tmp_path):
    t, k = _GRID_TIMES[case]
    if route == "parse_config":
        path = _write_config(tmp_path, {**_SOLVE, "profile_times": [t]})
        check, error = (lambda: cli.parse_config(path)["profile_times"] == (t,)), cli.ConfigError
    else:
        fc = FluidConfig(arrival_rate=1.2, patience=Exponential(1.0), service=Exponential(1.0),
                         horizon=1.0, dt=0.01)
        owner = fc if route == "FluidConfig" else solve(fc)
        check, error = (lambda: owner.grid_index(t) == k), fluid.FluidModelError
    if k is None:
        with pytest.raises(error, match="grid"):
            check()
    else:
        assert check()


@pytest.mark.parametrize("mode", ["simulate", "compare"])
def test_a_snapshot_a_rounding_past_the_horizon_is_simulated(mode, tmp_path):
    # 0.1 + 0.1 + 0.1 lies on the grid up to the horizon 0.3 by the one grid rule, so
    # the simulator takes it too, in both modes
    t = _running_sum(0.1, 3)
    assert t > 0.3
    doc = {**_SIM, "mode": mode, "n": [4], "horizon": 0.3, "dt": 0.1, "snapshot_times": [t]}
    assert cli.main(["--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_OK


@pytest.mark.parametrize("case", sorted(_BAD_LAWS))
def test_a_bad_law_exits_5_before_the_output_directory_is_made(case, tmp_path, capsys):
    key, doc = _BAD_LAWS[case]
    out = tmp_path / "out"
    assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(out)]) == (
        cli.EXIT_MODE_MISMATCH)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: invalid {key!r} distribution: ")
    assert not out.exists()


def _modules_after(roots: tuple, code: str, *args: str) -> list:
    """The modules under the top-level packages roots that a fresh interpreter holds after
    it runs code with sys.argv[1:] = args."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (f"import sys; sys.path.insert(0, {src!r})\n{code}\n"
              f"print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))")
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_scipy_is_imported_only_where_a_lognormal_law_is_built(tmp_path):
    docs = {"solve": _SOLVE,
            "ode": {"mode": "ode-check", "rho": 1.2, "alpha": 1.0, "mu": 1.0, "horizon": 1.0,
                    "dt": 0.01},
            "gc": {"mode": "gc-check", "distribution": EXP, "sample_count": 1000}}
    paths = [_write_config(tmp_path, doc, f"{name}.json") for name, doc in docs.items()]
    runs = ("import fluidq, fluidq.cli\n"
            "for path in sys.argv[1:]:\n"
            "    if fluidq.cli.main(['--config', path, '--out', path + '.out']):\n"
            "        sys.exit(path)")
    assert _modules_after(("scipy",), runs, *paths) == []
    lognormal = _write_config(tmp_path, {**_SOLVE, "patience": {
        "family": "lognormal", "mean": 1.0, "cv": 1.0}}, "logn.json")
    assert "scipy.special" in _modules_after(
        ("scipy",), "import fluidq.cli; fluidq.cli.parse_config(sys.argv[1])", lognormal)
    assert "scipy.special" in _modules_after(
        ("scipy",), "from fluidq import LogNormal; LogNormal.from_mean_cv(1, 1)")


def test_a_forked_compare_loads_no_process_pool_module(tmp_path):
    path = _write_config(tmp_path, {**_SIM, "mode": "compare", "n": [4, 8], "replications": 2})
    run = ("import os, fluidq.cli\n"
           "os.sched_getaffinity = lambda pid: {0, 1}\n"
           "forks, fork = [], os.fork\n"
           "os.fork = lambda: forks.append(0) or fork()\n"
           "if fluidq.cli.main(['--config', sys.argv[1], '--out', sys.argv[1] + '.out']):\n"
           "    sys.exit('compare failed')\n"
           "if len(forks) != 2:\n"
           "    sys.exit(f'{len(forks)} workers forked, not 2')")
    assert _modules_after(("multiprocessing", "concurrent", "mmap"), run, path) == []


def test_an_arrival_law_of_mean_one_over_arrival_rate_runs(tmp_path):
    doc = {**_SIM, "arrival": {"family": "uniform", "lo": 0.0, "hi": 2.0 / 1.2}}
    assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sim_n4_rep000.csv").exists()


@pytest.mark.parametrize("t", [2.0, -1.0])
def test_profile_time_off_the_horizon_is_rejected_before_any_output(t, tmp_path, capsys):
    path = _write_config(tmp_path, {**_SOLVE, "profile_times": [0.5, t]})
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["--config", path, "--out", str(out)]) == cli.EXIT_MODE_MISMATCH
    assert capsys.readouterr().err == (
        f"error: profile_times entry {t!r} lies outside [0, horizon=1.0]\n")
    assert list(out.iterdir()) == []


_COARSE = {"mode": "fluid-solve", "arrival_rate": 100.0,
           "patience": {"family": "lognormal", "mean": 1.0, "cv": 1.0},
           "service": {"family": "uniform", "lo": 0.0, "hi": 2.0}, "horizon": 2.0}


def test_a_grid_too_coarse_names_the_time_and_arrival_rate_dt(tmp_path, capsys):
    # lambda dt = 50: the step equation cannot follow the first cells' jump
    path = _write_config(tmp_path, {**_COARSE, "dt": 0.5})
    assert cli.main(["--config", path, "--out", str(tmp_path / "coarse")]) == cli.EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "invariant-violation: B nondecreasing fails at t=1.5 "
        "(arrival_rate*dt = 50.0; a finer dt may resolve it)\n")
    assert cli.main(["--config", path, "--set", "dt=0.01",
                     "--out", str(tmp_path / "fine")]) == cli.EXIT_OK


@pytest.mark.parametrize("blocked", ["out under a file", "output file is a directory",
                                     "disk full while writing"])
def test_unwritable_output_exits_8_with_one_line(blocked, tmp_path, capsys, monkeypatch):
    path = _write_config(tmp_path, {"mode": "equilibrium", "arrival_rate": 1.2,
                                    "patience": EXP, "service": EXP})
    (tmp_path / "eq.json").write_text("")
    out = tmp_path / "eq.json" / "sub"
    if blocked == "output file is a directory":
        out = tmp_path / "o"
        (out / "equilibrium.json").mkdir(parents=True)
    if blocked == "disk full while writing":   # open succeeds, and the write fails
        out = tmp_path / "o"

        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(json, "dump", full)
    assert cli.main(["--config", path, "--out", str(out)]) == cli.EXIT_OUTPUT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {out / 'equilibrium.json'}: ")
    assert "Traceback" not in err


_MINIMAL = {  # each mode with exactly its required keys
    "fluid-solve": {"arrival_rate": 1.2, "patience": EXP, "service": EXP},
    "equilibrium": {"arrival_rate": 1.2, "patience": EXP, "service": EXP},
    "ode-check": {"rho": 1.2, "alpha": 1.0, "mu": 1.0},
    "simulate": {"arrival_rate": 1.2, "patience": EXP, "service": EXP, "n": 4},
    "compare": {"arrival_rate": 1.2, "patience": EXP, "service": EXP, "n": [4],
                "snapshot_times": [1.0]},
    "gc-check": {"distribution": EXP},
}


@pytest.mark.parametrize("mode", sorted(_MINIMAL))
def test_required_keys_suffice_to_parse(mode, tmp_path):
    cfg = cli.parse_config(_write_config(tmp_path, {"mode": mode, **_MINIMAL[mode]}))
    assert set(cfg) == {"mode", "seed", "out"} | {
        key for key, default in cli.MODE_KEYS[mode].items() if default is not cli.OPTIONAL}


@pytest.mark.parametrize("mode,key", [(mode, key) for mode in sorted(_MINIMAL)
                                      for key in _MINIMAL[mode]])
def test_dropping_a_required_key_exits_5_and_names_it(mode, key, tmp_path, capsys):
    doc = {"mode": mode, **_MINIMAL[mode]}
    del doc[key]
    path = _write_config(tmp_path, doc)
    assert cli.main(["--config", path, "--out", str(tmp_path)]) == cli.EXIT_MODE_MISMATCH
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.rstrip().endswith(f"requires missing field(s): {key}")


_SEEDED = {"arrival_rate": 1.5, "patience": EXP, "service": EXP, "n": [40, 160],
           "horizon": 1.0, "snapshot_times": [0.0, 1.0], "replications": 2, "seed": 3}


def _equilibrium_masses():
    state = equilibrium_state(1.5, Exponential(1.0), Exponential(1.0))
    return state.virtual_mass, state.busy_mass


@pytest.mark.parametrize("mode", ["simulate", "compare"])
@pytest.mark.parametrize("initial", [
    "equilibrium",
    {"kind": "equilibrium"},
    {"r0": 0.4, "server_profile": {"kind": "equilibrium-shaped", "z": 1.0}},
], ids=["equilibrium", "kind-equilibrium", "r0-and-z"])
def test_every_initial_form_seeds_the_simulator(mode, initial, tmp_path, monkeypatch):
    # each replication runs in a forked worker, so the recorder leaves one file per run
    records = tmp_path / "runs"
    records.mkdir()
    run = simulator.run

    def record(sim_cfg, replication_index=0):
        snaps = run(sim_cfg, replication_index)
        first = snaps[0]
        (records / f"{sim_cfg.num_servers}-{replication_index}.json").write_text(
            json.dumps([first.time, first.virtual_size, first.busy_servers]))
        return snaps

    monkeypatch.setattr(simulator, "run", record)
    _cpus(monkeypatch, 2)
    path = _write_config(tmp_path, {**_SEEDED, "mode": mode, "initial": initial})
    assert cli.main(["--config", path, "--out", str(tmp_path / "out")]) == 0
    r0, z0 = (0.4, 1.0) if isinstance(initial, dict) and "r0" in initial else _equilibrium_masses()
    reps = range(_SEEDED["replications"])
    assert sorted(p.name for p in records.iterdir()) == sorted(
        f"{n}-{i}.json" for n in _SEEDED["n"] for i in reps)
    for n in _SEEDED["n"]:
        for i in reps:
            time, virtual, busy = json.loads((records / f"{n}-{i}.json").read_text())
            assert time == 0.0
            assert virtual == math.floor(n * r0) > 0
            assert busy == math.floor(n * z0) == n


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the worker processes each cli.main call forks, one list per call."""
    runs, fork, main = [], os.fork, cli.main

    def spy_fork():
        pid = fork()
        if pid:
            runs[-1].append(pid)
        return pid

    def spy_main(argv=None):
        runs.append([])
        return main(argv)

    monkeypatch.setattr(os, "fork", spy_fork)
    monkeypatch.setattr(cli, "main", spy_main)
    return runs


def _running(pids: list) -> int:
    """How many of the child processes pids have not exited; none is reaped."""
    return sum(os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
               for pid in pids)


@contextlib.contextmanager
def _nothing_left():
    """Checks that no child process, live or unreaped, and no new descriptor outlive the
    block."""
    fds = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("mode", ["simulate", "compare"])
def test_replications_write_the_same_bytes_in_process_and_forked(mode, tmp_path, monkeypatch,
                                                                 forks):
    path = _write_config(tmp_path, {**_SEEDED, "mode": mode, "initial": "equilibrium"})
    outs = {}
    # 4 tasks: in process; 2 workers; 3 workers, whose shares are 2, 1 and 1 tasks; 4 workers
    for cpus in (1, 2, 3, 8):
        _cpus(monkeypatch, cpus)
        outs[cpus] = tmp_path / f"cpus{cpus}"
        with _nothing_left():
            assert cli.main(["--config", path, "--out", str(outs[cpus])]) == cli.EXIT_OK
    assert [len(pids) for pids in forks] == [0, 2, 3, 4]
    names = sorted(p.name for p in outs[1].iterdir())
    assert len(names) == (4 if mode == "simulate" else 1)
    for cpus in (2, 3, 8):
        assert sorted(p.name for p in outs[cpus].iterdir()) == names
        for name in names:
            assert (outs[cpus] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("mode,cpus,n,replications", [
    ("simulate", 2, 4, 1), ("compare", 2, [4], 1), ("compare", 1, [4, 8], 2)],
    ids=["simulate one task", "compare one task", "compare one cpu"])
def test_one_task_or_one_cpu_starts_no_process(mode, cpus, n, replications, tmp_path,
                                               monkeypatch, forks):
    _cpus(monkeypatch, cpus)
    doc = {**_SIM, "mode": mode, "n": n, "replications": replications}
    assert cli.main(["--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert forks == [[]]


@pytest.mark.parametrize("mode", ["simulate", "compare"])
@pytest.mark.parametrize("error,code,line", [
    (None, cli.EXIT_WORKER_DIED, "error: a replication process died before it returned "
                                 "its result; no output was written"),
    (ValueError("bad replication"), cli.EXIT_MODE_MISMATCH, "error: bad replication"),
    (OSError(errno.ENOMEM, os.strerror(errno.ENOMEM)), cli.EXIT_OUTPUT,
     f"error: [Errno {errno.ENOMEM}] {os.strerror(errno.ENOMEM)}")],
    ids=["dies", "raises", "raises OSError"])
def test_a_failed_replication_process_exits_with_its_code_and_one_line(
        mode, error, code, line, tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def run(*args, **kwargs):
        assert os.getpid() != parent, "a replication ran in process"
        if error is None:
            os._exit(1)
        raise error

    monkeypatch.setattr(simulator, "run", run)   # forked workers inherit the patch
    _cpus(monkeypatch, 2)
    doc = {**_SIM, "mode": mode, "n": [4], "replications": 2}
    out = tmp_path / "out"
    with _nothing_left():
        assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(out)]) == code
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_a_replication_process_that_cannot_be_started_exits_6(tmp_path, monkeypatch, capsys):
    fork, started = os.fork, []

    def second_fails():   # the first worker starts, the system refuses the second
        if started:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        started.append(fork())
        return started[-1]

    monkeypatch.setattr(os, "fork", second_fails)
    _cpus(monkeypatch, 2)
    doc = {**_SIM, "mode": "compare", "n": [4], "replications": 2}
    out = tmp_path / "out"
    with _nothing_left():
        assert cli.main(["--config", _write_config(tmp_path, doc),
                         "--out", str(out)]) == cli.EXIT_WORKER_DIED
    assert capsys.readouterr().err == (
        f"error: a replication process could not be started: [Errno {errno.EAGAIN}] "
        f"{os.strerror(errno.EAGAIN)}\n")
    assert not out.exists()


def test_probes_far_beyond_the_horizon_solve_in_bounded_memory(tmp_path):
    # hi = 1e6 is 1e8 steps of dt: one FFT over the whole grid would take 2**27 floats
    # (1 GiB an array); each probe's tile takes 256
    doc = {**_SOLVE, "profile_times": [1.0], "probes": {"lo": -1.0, "hi": 1e6, "count": 3}}
    out = tmp_path / "out"
    assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_OK
    rows = np.loadtxt(out / "profiles_t1.csv", delimiter=",", skiprows=1)
    assert rows[:, 0].tolist() == [-1.0, 499999.5, 1e6]
    assert rows[0, 2] > 0.0 and rows[1:, 2].tolist() == [0.0, 0.0]   # sf(5e5) underflows


def _recorded_slow_runs(monkeypatch, records, ends=None):
    """simulator.run, patched to leave one file in records per replication it starts, and
    in ends, when given, one per replication it ends, and to take 0.2 s more, so that a
    replication is still running when the parent's solve ends."""
    run = simulator.run

    def slow(sim_cfg, replication_index=0):
        name = f"{sim_cfg.num_servers}-{replication_index}"
        (records / name).touch()
        time.sleep(0.2)
        snaps = run(sim_cfg, replication_index)
        if ends is not None:
            (ends / name).touch()
        return snaps

    monkeypatch.setattr(simulator, "run", slow)   # forked workers inherit the patch


@pytest.mark.parametrize("error,code", [
    (fluid.InvariantViolationError("invariant-violated: Q > 0 with Z < 1 at t=0.5"),
     cli.EXIT_INVARIANT),
    (fluid.NoConvergenceError("no-convergence: inner Newton iteration exceeded its cap"),
     cli.EXIT_NO_CONVERGENCE)], ids=["invariant", "no convergence"])
def test_a_fluid_error_while_the_replications_run_cancels_them(error, code, tmp_path,
                                                               monkeypatch, capsys):
    records, ends = tmp_path / "runs", tmp_path / "ends"
    records.mkdir()
    ends.mkdir()
    _recorded_slow_runs(monkeypatch, records, ends)

    def solve(*args, **kwargs):   # fails once a replication runs
        while not any(records.iterdir()):
            time.sleep(0.005)
        raise error

    monkeypatch.setattr(fluid, "solve", solve)
    _cpus(monkeypatch, 2)
    doc = {**_SIM, "mode": "compare", "n": [4, 8], "replications": 10}
    out = tmp_path / "out"
    with _nothing_left():
        assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == [
        str(error) if code == cli.EXIT_INVARIANT else f"error: {error}"]
    assert not out.exists()
    # each of the 2 workers is killed in the first replication it runs (0.2 s), if it has
    # started one: it starts no other of its 10 and ends none
    assert 1 <= len(list(records.iterdir())) <= 2
    assert list(ends.iterdir()) == []


def test_compare_starts_its_replications_before_the_fluid_solve(tmp_path, monkeypatch, forks):
    records = tmp_path / "runs"
    records.mkdir()
    _recorded_slow_runs(monkeypatch, records)
    seen, real = [], fluid.solve

    def solve(*args, **kwargs):
        seen.append(_running(forks[-1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(fluid, "solve", solve)
    _cpus(monkeypatch, 2)
    doc = {**_SIM, "mode": "compare", "n": [4, 8], "replications": 2}
    with _nothing_left():
        assert cli.main(["--config", _write_config(tmp_path, doc),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert seen == [2]
    assert len(list(records.iterdir())) == 4


def test_every_replication_ends_before_the_slowed_solve_returns(tmp_path, monkeypatch):
    # 2 replications a worker, each read on 512 probes at 10 snapshots: more than a 64 KiB
    # pipe holds, so a worker that sent its first before its last would wait for the
    # parent to read, after the solve
    records = tmp_path / "ends"
    records.mkdir()
    read, real, solved = simulator.read_on_probes, fluid.solve, []

    def recorded_read(snaps, probes):
        readings = read(snaps, probes)
        assert len(pickle.dumps(readings)) > 65536
        (records / f"{time.monotonic()!r}-{os.getpid()}").touch()
        return readings

    def slow_solve(*args, **kwargs):
        time.sleep(0.3)
        sol = real(*args, **kwargs)
        solved.append(time.monotonic())
        return sol

    monkeypatch.setattr(simulator, "read_on_probes", recorded_read)
    monkeypatch.setattr(fluid, "solve", slow_solve)
    _cpus(monkeypatch, 2)
    doc = {**_SIM, "mode": "compare", "n": [4, 8], "replications": 2, "horizon": 10.0,
           "dt": 0.01, "snapshot_times": [float(t) for t in range(1, 11)]}
    assert cli.main(["--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    ends = [float(p.name.split("-")[0]) for p in records.iterdir()]
    assert len(ends) == 4 and max(ends) < solved[0]


def test_equilibrium_string_and_dict_forms_give_identical_simulations(tmp_path):
    outs = []
    for i, initial in enumerate(["equilibrium", {"kind": "equilibrium"}]):
        path = _write_config(tmp_path, {**_SEEDED, "mode": "simulate", "initial": initial},
                             name=f"config{i}.json")
        outs.append(tmp_path / f"run{i}")
        assert cli.main(["--config", path, "--out", str(outs[-1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) and len(names) == 4
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_equilibrium_mode_emits_json(tmp_path, capsys):
    path = _write_config(tmp_path, {"mode": "equilibrium", "arrival_rate": 0.8,
                                    "patience": EXP, "service": EXP})
    code = cli.main(["--config", path, "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["w"] == 0.0
    assert doc["Z_inf"] == pytest.approx(0.8)
    assert doc["rho"] == pytest.approx(0.8)
    assert "w" in capsys.readouterr().out


def test_equilibrium_json_round_trips_into_invariant_fluid_run(tmp_path):
    path = _write_config(tmp_path, {"mode": "equilibrium", "arrival_rate": 1.2,
                                    "patience": EXP, "service": EXP})
    assert cli.main(["--config", path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert set(doc) == {"w", "w_bracket", "Q_inf", "Z_inf", "R_inf",
                        "abandonment_fraction", "rho"}
    init = InitialCondition(float(doc["R_inf"]), EquilibriumShaped(float(doc["Z_inf"])))
    cfg = FluidConfig(arrival_rate=1.2, patience=Exponential(1.0), service=Exponential(1.0),
                      horizon=5.0, dt=1e-3)
    sol = solve(cfg, init)
    assert float(np.max(np.abs(sol.system - sol.system[0]))) <= 1e-3


def test_ode_check_mode(tmp_path, capsys):
    path = _write_config(tmp_path, {"mode": "ode-check", "rho": 2.0, "alpha": 2.0,
                                    "mu": 1.0, "horizon": 2.0})
    assert cli.main(["--config", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "sup_diff" in out
    header = (tmp_path / "ode_check.csv").read_text().splitlines()[0]
    assert header == "t,X_ode,X_fluid,diff"


def test_fluid_solve_outputs_are_deterministic(tmp_path):
    doc = {"mode": "fluid-solve", "arrival_rate": 1.2, "patience": EXP, "service": EXP,
           "horizon": 1.0, "profile_times": [0.5, 1.0]}
    path = _write_config(tmp_path, doc)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["--config", path, "--out", str(out1)]) == 0
    assert cli.main(["--config", path, "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "profiles_t0.5.csv", "profiles_t1.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    first = (out1 / "trajectory.csv").read_text().splitlines()
    assert first[0] == "t,X,Q,Z,R,B"
    assert len(first) == 1002  # header + 1001 grid points


def test_set_overrides_take_precedence(tmp_path):
    doc = {"mode": "fluid-solve", "arrival_rate": 1.2, "patience": EXP, "service": EXP,
           "horizon": 4.0}
    path = _write_config(tmp_path, doc)
    cfg = cli.parse_config(path, {"horizon": 2.0})
    assert cfg["horizon"] == 2.0
    code = cli.main(["--config", path, "--set", "horizon=2.0", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2002


def test_simulate_mode_writes_per_replication_csv(tmp_path):
    doc = {"mode": "simulate", "arrival_rate": 1.2, "patience": EXP, "service": EXP,
           "n": 4, "horizon": 2.0, "snapshot_times": [1.0, 2.0], "replications": 2,
           "seed": 7}
    path = _write_config(tmp_path, doc)
    assert cli.main(["--config", path, "--out", str(tmp_path)]) == 0
    for rep in (0, 1):
        lines = (tmp_path / f"sim_n4_rep{rep:03d}.csv").read_text().splitlines()
        assert lines[0] == "t,Q,R,Z,X,abandoned,completed,Q_scaled,R_scaled,Z_scaled,X_scaled"
        assert len(lines) == 3


def test_compare_mode_emits_summary_rows(tmp_path):
    doc = {"mode": "compare", "arrival_rate": 1.2, "patience": EXP, "service": EXP,
           "n": [2, 4, 8], "horizon": 2.0, "snapshot_times": [1.0, 2.0],
           "replications": 2, "seed": 7, "probes": {"count": 65, "lo": -2.0, "hi": 2.0}}
    path = _write_config(tmp_path, doc)
    assert cli.main(["--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "compare_report.csv").read_text().splitlines()
    assert lines[0] == ("n,t,mean_dist_buffer,max_dist_buffer,mean_dist_server,"
                        "max_dist_server,mean_absQ,mean_absZ")
    summary = [ln for ln in lines[1:] if ln.split(",")[1] == "all"]
    assert len(summary) == 3
    assert len(lines) == 1 + 3 * 2 + 3  # header + per-(n,t) rows + summaries


def test_compare_mode_is_deterministic(tmp_path):
    doc = {"mode": "compare", "arrival_rate": 1.2, "patience": EXP, "service": EXP,
           "n": [3], "horizon": 1.0, "snapshot_times": [1.0], "replications": 2,
           "seed": 11, "probes": {"count": 33, "lo": -1.0, "hi": 1.0}}
    path = _write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--config", path, "--out", str(out1)]) == 0
    assert cli.main(["--config", path, "--out", str(out2)]) == 0
    assert (out1 / "compare_report.csv").read_bytes() == (out2 / "compare_report.csv").read_bytes()


def test_gc_check_mode(tmp_path, capsys):
    doc = {"mode": "gc-check", "distribution": EXP, "sample_count": 400, "seed": 3}
    path = _write_config(tmp_path, doc)
    assert cli.main(["--config", path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "gc_check.json").read_text())
    assert doc["sample_count"] == 400
    assert doc["ks_bound_95"] == pytest.approx(1.36 / math.sqrt(400))
    assert "gc_statistic" in capsys.readouterr().out


_RATE_NS = [50, 200, 800, 3200]


@pytest.mark.parametrize("initial", ["empty", "equilibrium"])
def test_compare_queue_gap_falls_at_the_root_n_rate(initial, tmp_path):
    # the fluid limit is a law of large numbers with O(n^-1/2) fluctuations (Whitt, Fluid
    # models for multiserver queues with abandonments, 2006), so log(mean sup |Q - q|)
    # falls against log n with slope near -1/2; at seeds 1, 2, 3 and 2026 the fitted
    # slopes were -0.455 to -0.496 from empty and -0.498 to -0.549 from equilibrium
    doc = {"mode": "compare", "arrival_rate": 1.5, "patience": EXP,
           "service": {"family": "lognormal", "mean": 1.0, "cv": 1.0}, "initial": initial,
           "n": _RATE_NS, "replications": 8, "horizon": 4.0, "seed": 2026,
           "snapshot_times": [0.5 * i for i in range(1, 9)]}
    path = _write_config(tmp_path, doc)
    assert cli.main(["--config", path, "--out", str(tmp_path)]) == 0
    rows = [ln.split(",") for ln in (tmp_path / "compare_report.csv").read_text().splitlines()]
    gaps = [float(row[6]) for row in rows[1:] if row[1] == "all"]
    slope = np.polyfit(np.log(_RATE_NS), np.log(gaps), 1)[0]
    assert -0.65 <= slope <= -0.35, slope
    # a slope does not see an order-one bias, so sqrt(n) mean_absQ at n=3200 is bounded too.
    # Over seeds 1-14, 2026 and 12345 the sup over the snapshots read 1.22-1.95 from empty
    # and 1.39-2.25 from equilibrium.  A bias in the seeding shows most at the first
    # snapshot, 0 from empty and 0.38-0.96 from equilibrium; with a seeded buffer 0.05 n
    # too large it read 1.10-1.79 at seeds 1-10 and 2026 (1.79 at 2026)
    first = next(float(row[6]) for row in rows[1:] if row[0] == str(_RATE_NS[-1]))
    assert math.sqrt(_RATE_NS[-1]) * gaps[-1] <= 2.5, gaps[-1]
    assert math.sqrt(_RATE_NS[-1]) * first <= 1.2, first


def _old_csv(header: list, rows: list) -> str:
    """The CSV writer's former rule, cell by cell: %.17g for a float, str() for any other."""
    return "".join(",".join("%.17g" % cell if isinstance(cell, float) else str(cell)
                            for cell in row) + "\n" for row in [header, *rows])


_COUNTS = [0, 37, 3200, 10 ** 7]
_SPECIAL_FLOATS = [math.nan, math.inf, -0.0, 5e-324, 1e17, 0.1]


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025])   # about the 1024-row blocks
def test_the_array_writer_keeps_the_per_cell_bytes(count, tmp_path):
    # a row as simulate writes one: a time, an integer count, any float and the count scaled
    header = ["t", "count", "x", "scaled"]
    rows = [[0.001 * i, _COUNTS[i % 4], _SPECIAL_FLOATS[i % 6], _COUNTS[i % 4] / 3]
            for i in range(count)]
    cli._write_csv(str(tmp_path), "rows.csv", header,
                   (cli._floats(4), np.array(rows, dtype=float).reshape(count, 4)))
    assert (tmp_path / "rows.csv").read_bytes() == _old_csv(header, rows).encode()


def test_compare_summary_rows_keep_the_per_cell_bytes(tmp_path):
    # the report's n was an int and its summary t the string "all"; the other cells floats
    doc = {"mode": "compare", "arrival_rate": 1.5, "patience": EXP, "service": EXP,
           "n": [20, 3200], "replications": 2, "horizon": 2.0, "snapshot_times": [1.0, 2.0]}
    assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(tmp_path)]) == 0
    report = (tmp_path / "compare_report.csv").read_text()
    header, *lines = report.splitlines()
    rows = [[int(n), t if t == "all" else float(t), *map(float, cells)]
            for n, t, *cells in (line.split(",") for line in lines)]
    assert [row[1] for row in rows].count("all") == 2
    assert report == _old_csv(header.split(","), rows)


def test_fluid_solve_bytes_do_not_depend_on_the_blas_kernel_or_thread_count(tmp_path):
    # every sum of the march and the profiles is an einsum; with BLAS products this run's
    # trajectory and profile moved under the Sandybridge kernel, its profile on one thread
    doc = {"mode": "fluid-solve", "arrival_rate": 1.5,
           "patience": {"family": "lognormal", "mean": 1.0, "cv": 1.0},
           "service": {"family": "hyperexponential", "weights": [0.4, 0.6], "rates": [0.5, 2.0]},
           "horizon": 17.0, "dt": 1e-3, "probes": {"lo": -3.0, "hi": 6.0, "count": 17},
           "profile_times": [17.0]}
    path = _write_config(tmp_path, doc)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OPENBLAS_") and k not in ("OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    outputs = {}
    for name, setting in {"default": {}, "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
                          "one-thread": {"OPENBLAS_NUM_THREADS": "1"}}.items():
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "fluidq.cli", "--config", path, "--out", str(out)],
                       env={**env, **setting}, check=True)
        outputs[name] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert sorted(outputs["default"]) == ["profiles_t17.csv", "trajectory.csv"]
    assert outputs["sandybridge"] == outputs["default"]
    assert outputs["one-thread"] == outputs["default"]


def test_compare_report_bytes_are_pinned(tmp_path):
    # pinned bytes: a change in the order of any mean or maximum over replications or
    # times moves a last digit here.  Recorded with numpy 2.4 on x86-64; another numpy
    # or CPU can move a last bit of the profiles and so this digest.
    hyp = {"family": "hyperexponential", "weights": [0.4, 0.6], "rates": [0.5, 2.0]}
    doc = {"mode": "compare", "arrival_rate": 1.5, "patience": hyp,
           "service": {"family": "lognormal", "mean": 1.0, "cv": 1.0},
           "initial": "equilibrium", "n": [20, 80], "replications": 2, "seed": 3,
           "horizon": 2.0, "snapshot_times": [0.5, 1.0, 1.5, 2.0]}
    path = _write_config(tmp_path, doc)
    assert cli.main(["--config", path, "--out", str(tmp_path)]) == 0
    report = (tmp_path / "compare_report.csv").read_bytes()
    assert len(report.splitlines()) == 1 + 2 * 4 + 2
    assert hashlib.sha256(report).hexdigest() == (
        "212518745ddc8772d25d049018d0656ed7849243822d7cfe995eb3a28e317d05")

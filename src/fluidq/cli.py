"""Command-line front end: config ingestion, experiment orchestration, CSV/JSON output.

One JSON config file drives a run; --set key=value overrides individual
fields for sweep scripting.  Exit codes: 0 success, 1 solver invariant
violation, 2 missing config file, 3 malformed JSON, 4 unknown key,
5 invalid input (mode/field mismatch, bad values, distributions or initial
states, or a fluid step that does not converge).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import equilibrium as eq
from . import expode, fluid, simulator
from .distributions import DistributionError, DistributionSpec, Exponential, distribution_from_dict
from .measures import uniform_probes

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_MISSING_FILE = 2
EXIT_MALFORMED = 3
EXIT_UNKNOWN_KEY = 4
EXIT_MODE_MISMATCH = 5

MODES = ("fluid-solve", "equilibrium", "ode-check", "simulate", "compare", "gc-check")

_COMMON_KEYS = {"mode", "seed", "out"}
_MODE_KEYS = {
    "fluid-solve": {"arrival_rate", "patience", "service", "horizon", "dt", "tolerance",
                    "initial", "profile_times", "probes"},
    "equilibrium": {"arrival_rate", "patience", "service"},
    "ode-check": {"rho", "alpha", "mu", "x0", "horizon", "dt"},
    "simulate": {"arrival_rate", "patience", "service", "arrival", "n", "horizon", "dt",
                 "snapshot_times", "replications", "initial"},
    "compare": {"arrival_rate", "patience", "service", "arrival", "n", "horizon", "dt",
                "snapshot_times", "replications", "initial", "probes"},
    "gc-check": {"distribution", "sample_count"},
}
_MODE_REQUIRED = {
    "fluid-solve": {"arrival_rate", "patience", "service"},
    "equilibrium": {"arrival_rate", "patience", "service"},
    "ode-check": {"rho", "alpha", "mu"},
    "simulate": {"arrival_rate", "patience", "service", "n"},
    "compare": {"arrival_rate", "patience", "service", "n", "snapshot_times"},
    "gc-check": {"distribution"},
}
_ALL_KEYS = _COMMON_KEYS | set().union(*_MODE_KEYS.values())
_GRID_MODES = {"fluid-solve", "ode-check", "compare"}   # modes that march a dt grid
# numeric fields, each with the least whole value it takes (None: any finite number)
_NUMERIC_KEYS = {"arrival_rate": None, "horizon": None, "dt": None, "tolerance": None,
                 "rho": None, "alpha": None, "mu": None, "x0": None,
                 "snapshot_times": None, "profile_times": None,
                 "n": 1, "replications": 1, "seed": 0, "sample_count": 0}
_TIME_LISTS = {"snapshot_times", "profile_times"}


class ConfigError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


@dataclass
class RunConfig:
    mode: str
    raw: dict
    out: str = "."

    def __getitem__(self, key):
        return self.raw[key]

    def get(self, key, default=None):
        return self.raw.get(key, default)


def _require(raw: dict, mode: str) -> None:
    missing = sorted(_MODE_REQUIRED[mode] - set(raw))
    if missing:
        raise ConfigError(EXIT_MODE_MISMATCH,
                          f"mode {mode!r} requires missing field(s): {', '.join(missing)}")


def _number(value, what: str, least=None):
    """value if it is a finite JSON number, and a whole one >= least when least is given."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    if ok and least is not None:
        ok = float(value).is_integer() and value >= least
    if not ok:
        kind = "a finite number" if least is None else f"a whole number >= {least}"
        raise ConfigError(EXIT_MODE_MISMATCH, f"{what} must be {kind}, got {value!r}")
    return value


def _check_numbers(raw: dict) -> None:
    for key, least in _NUMERIC_KEYS.items():
        if key not in raw:
            continue
        value = raw[key]
        listed = key in _TIME_LISTS or (key == "n" and isinstance(value, list))
        if listed and not isinstance(value, list):
            raise ConfigError(EXIT_MODE_MISMATCH, f"{key} must be a list, got {value!r}")
        for v in value if listed else [value]:
            _number(v, f"{key} entry" if listed else key, least)


def _off_grid(t: float, dt: float) -> bool:
    return abs(t - round(t / dt) * dt) > 1e-12 * max(1.0, abs(t))


def _check_grid_alignment(raw: dict) -> None:
    dt = float(raw.get("dt", 1e-3))
    if not dt > 0.0:
        raise ConfigError(EXIT_MODE_MISMATCH, f"dt must be positive, got {dt!r}")
    for key in ("snapshot_times", "profile_times"):
        for t in raw.get(key, []):
            if _off_grid(t, dt):
                raise ConfigError(EXIT_MODE_MISMATCH,
                                  f"{key} entry {t!r} is not a multiple of dt={dt!r}")
    if raw["mode"] in _GRID_MODES and _off_grid(float(raw["horizon"]), dt):
        raise ConfigError(EXIT_MODE_MISMATCH,
                          f"horizon {raw['horizon']!r} is not a multiple of dt={dt!r}")


def parse_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Strict parse: unknown keys are errors; defaults are filled per mode."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(EXIT_MISSING_FILE, f"cannot read config file {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(EXIT_MALFORMED, f"malformed config JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(EXIT_MALFORMED, "config must be a JSON object")
    if overrides:
        raw = {**raw, **overrides}

    unknown = sorted(set(raw) - _ALL_KEYS)
    if unknown:
        raise ConfigError(EXIT_UNKNOWN_KEY, f"unknown config key(s): {', '.join(unknown)}")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(EXIT_MODE_MISMATCH, f"mode must be one of {MODES}, got {mode!r}")
    allowed = _COMMON_KEYS | _MODE_KEYS[mode]
    misplaced = sorted(set(raw) - allowed)
    if misplaced:
        raise ConfigError(EXIT_MODE_MISMATCH,
                          f"field(s) not applicable to mode {mode!r}: {', '.join(misplaced)}")
    _require(raw, mode)

    defaults = {"seed": 12345, "horizon": 10.0, "dt": 1e-3, "replications": 20}
    for key, val in defaults.items():
        if key in allowed or key in _COMMON_KEYS:
            raw.setdefault(key, val)
    _check_numbers(raw)
    _check_grid_alignment(raw)
    return RunConfig(mode=mode, raw=raw, out=str(raw.get("out", ".")))


def _dist(raw, key) -> DistributionSpec:
    try:
        return distribution_from_dict(raw[key])
    except DistributionError as exc:
        raise ConfigError(EXIT_MODE_MISMATCH, f"invalid {key!r} distribution: {exc}") from exc


def _probes(cfg: RunConfig) -> np.ndarray:
    spec = cfg.get("probes", {}) or {}
    if not isinstance(spec, dict):
        raise ConfigError(EXIT_MODE_MISMATCH, f"probes must be an object, got {spec!r}")
    horizon = float(cfg.get("horizon", 10.0))
    lo = _number(spec.get("lo", -horizon), "probes lo")
    hi = _number(spec.get("hi", horizon), "probes hi")
    count = _number(spec.get("count", 512), "probes count", least=2)
    try:
        return uniform_probes(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise ConfigError(EXIT_MODE_MISMATCH, f"invalid probes: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


_SERVER_SHAPES = {"equilibrium-shaped": fluid.EquilibriumShaped,
                  "service-complement": fluid.ServiceComplementShaped}


def _initial_condition(cfg: RunConfig, fc: fluid.FluidConfig) -> fluid.InitialCondition:
    spec = cfg.get("initial")
    if spec in (None, "empty"):
        return fluid.InitialCondition()
    if spec in ("equilibrium", {"kind": "equilibrium"}):
        return eq.equilibrium_state(fc.arrival_rate, fc.patience, fc.service).initial_condition()
    if not (isinstance(spec, dict) and set(spec) <= {"r0", "server_profile"}):
        raise ConfigError(EXIT_MODE_MISMATCH, f"invalid initial condition spec: {spec!r}")
    profile_spec = spec.get("server_profile", {"kind": "empty"})
    kind = profile_spec.get("kind", "empty") if isinstance(profile_spec, dict) else None
    if kind not in ("empty", *_SERVER_SHAPES) or not set(profile_spec) <= {"kind", "z"}:
        raise ConfigError(EXIT_MODE_MISMATCH, f"invalid server profile {profile_spec!r}")
    if kind == "empty":
        profile = fluid.EMPTY_SERVERS
    else:
        z = _number(profile_spec.get("z"), f"{kind} server profile z")
        profile = _SERVER_SHAPES[kind](float(z))
    r0 = _number(spec.get("r0", 0.0), "initial r0")
    return fluid.InitialCondition(virtual_buffer_mass=float(r0), server_profile=profile)


def _fluid_model(cfg: RunConfig):
    """The fluid config and its validated initial state, which also seeds the simulator."""
    fc = fluid.FluidConfig(
        arrival_rate=float(cfg["arrival_rate"]),
        patience=_dist(cfg.raw, "patience"), service=_dist(cfg.raw, "service"),
        horizon=float(cfg["horizon"]), dt=float(cfg["dt"]),
        tol=float(cfg.get("tolerance", 1e-10)),
    )
    return fc, fluid.validate_initial(fc, _initial_condition(cfg, fc))


# -- mode runners ---------------------------------------------------------------


def _run_fluid_solve(cfg: RunConfig, out: str) -> int:
    sol = fluid.solve(*_fluid_model(cfg))
    _write_csv(os.path.join(out, "trajectory.csv"), ["t", "X", "Q", "Z", "R", "B"],
               np.column_stack((sol.times, sol.system, sol.queue, sol.busy, sol.virtual,
                                sol.scheduled)).tolist())
    probes = _probes(cfg)
    times = [float(t) for t in cfg.get("profile_times", [])]
    for t, profiles in zip(times, sol.profiles(times, probes)):
        _write_csv(os.path.join(out, f"profiles_t{t:g}.csv"),
                   ["x", "buffer_tail", "server_tail"],
                   np.column_stack((probes, profiles.buffer.tail_at(probes),
                                    profiles.server.tail_at(probes))).tolist())
    return EXIT_OK


def _run_equilibrium(cfg: RunConfig, out: str) -> int:
    state = eq.equilibrium_state(
        float(cfg["arrival_rate"]), _dist(cfg.raw, "patience"), _dist(cfg.raw, "service"))
    doc = state.to_json_dict()
    with open(os.path.join(out, "equilibrium.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def _run_ode_check(cfg: RunConfig, out: str) -> int:
    try:
        oc = expode.ExpOdeConfig(
            service_rate=float(cfg["mu"]), patience_rate=float(cfg["alpha"]),
            traffic_intensity=float(cfg["rho"]), x0=float(cfg.get("x0", 0.0)),
            horizon=float(cfg["horizon"]), dt=float(cfg["dt"]),
        )
    except ValueError as exc:
        raise ConfigError(EXIT_MODE_MISMATCH, f"invalid ode-check config: {exc}") from exc
    result = expode.cross_check(oc)
    _write_csv(os.path.join(out, "ode_check.csv"), ["t", "X_ode", "X_fluid", "diff"],
               np.column_stack((result.times, result.ode, result.fluid,
                                np.abs(result.fluid - result.ode))).tolist())
    print(f"sup_diff = {result.sup_diff:.6e}")
    return EXIT_OK


def _snapshot_times(cfg: RunConfig) -> tuple:
    return tuple(float(t) for t in cfg.get("snapshot_times", [float(cfg["horizon"])]))


def _sim_configs(cfg: RunConfig, fc: fluid.FluidConfig, init: fluid.ValidatedInitial):
    """One simulator config per n, each seeded from the fluid start state."""
    base_arrival = (_dist(cfg.raw, "arrival") if "arrival" in cfg.raw
                    else Exponential(fc.arrival_rate))
    ns = cfg["n"] if isinstance(cfg["n"], list) else [cfg["n"]]
    for n in map(int, ns):
        try:
            sim_cfg = simulator.SimConfig(
                num_servers=n,
                interarrival=base_arrival.time_scaled(1.0 / n),
                patience=fc.patience, service=fc.service,
                horizon=fc.horizon,
                snapshot_times=_snapshot_times(cfg),
                seed=int(cfg["seed"]),
                replications=int(cfg["replications"]),
                initial=init,
            )
        except ValueError as exc:
            raise ConfigError(EXIT_MODE_MISMATCH, f"invalid simulation config: {exc}") from exc
        yield n, sim_cfg


def _run_simulate(cfg: RunConfig, out: str) -> int:
    for n, sim_cfg in _sim_configs(cfg, *_fluid_model(cfg)):
        reps = simulator.run_replications(sim_cfg)
        for i, rep in enumerate(reps):
            rows = []
            for s in rep:
                scaled = simulator.fluid_scale(s, n)
                rows.append([s.time, s.queue_size, s.virtual_size, s.busy_servers,
                             s.system_size, s.abandoned, s.completed,
                             scaled.queue_size, scaled.virtual_size,
                             scaled.busy_servers, scaled.system_size])
            _write_csv(os.path.join(out, f"sim_n{n}_rep{i:03d}.csv"),
                       ["t", "Q", "R", "Z", "X", "abandoned", "completed",
                        "Q_scaled", "R_scaled", "Z_scaled", "X_scaled"], rows)
    return EXIT_OK


def _run_compare(cfg: RunConfig, out: str) -> int:
    probes = _probes(cfg)
    fc, init = _fluid_model(cfg)
    sol = fluid.solve(fc, init)
    sims = list(_sim_configs(cfg, fc, init))  # validated before the profiles are built
    profiles = sol.profiles(_snapshot_times(cfg), probes)
    rows = []
    summaries = []
    for n, sim_cfg in sims:
        reps = simulator.run_replications(sim_cfg)
        scaled = [[simulator.fluid_scale(s, n) for s in rep] for rep in reps]
        comp = simulator.compare_to_fluid(scaled, sol, probes, profiles)
        for j, t in enumerate(comp.times):
            rows.append([n, t, comp.mean_buffer_dist[j], comp.max_buffer_dist[j],
                         comp.mean_server_dist[j], comp.max_server_dist[j],
                         comp.mean_queue_gap[j], comp.mean_busy_gap[j]])
        summaries.append([n, "all", float(np.mean(comp.mean_buffer_dist)),
                          float(np.max(comp.max_buffer_dist)),
                          float(np.mean(comp.mean_server_dist)),
                          float(np.max(comp.max_server_dist)),
                          comp.mean_sup_queue_gap, comp.mean_final_busy_gap])
    _write_csv(os.path.join(out, "compare_report.csv"),
               ["n", "t", "mean_dist_buffer", "max_dist_buffer", "mean_dist_server",
                "max_dist_server", "mean_absQ", "mean_absZ"], rows + summaries)
    return EXIT_OK


def _run_gc_check(cfg: RunConfig, out: str) -> int:
    dist = _dist(cfg.raw, "distribution")
    count = int(cfg.get("sample_count", 10_000))
    try:
        stat = simulator.gc_diagnostic(dist, count, int(cfg["seed"]))
    except ValueError as exc:
        raise ConfigError(EXIT_MODE_MISMATCH, f"invalid gc-check config: {exc}") from exc
    doc = {"family": cfg["distribution"]["family"], "sample_count": count,
           "statistic": stat, "ks_bound_95": 1.36 / math.sqrt(count)}
    with open(os.path.join(out, "gc_check.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"gc_statistic = {stat:.6e}")
    return EXIT_OK


_RUNNERS = {
    "fluid-solve": _run_fluid_solve,
    "equilibrium": _run_equilibrium,
    "ode-check": _run_ode_check,
    "simulate": _run_simulate,
    "compare": _run_compare,
    "gc-check": _run_gc_check,
}


def execute(cfg: RunConfig, out_dir: str | None = None) -> int:
    """Dispatch a parsed config; returns the process exit code."""
    out = out_dir or cfg.out
    os.makedirs(out, exist_ok=True)
    try:
        return _RUNNERS[cfg.mode](cfg, out)
    except fluid.InvariantViolationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVARIANT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (fluid.FluidModelError, fluid.NoConvergenceError, DistributionError,
            eq.EquilibriumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODE_MISMATCH


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(EXIT_MODE_MISMATCH, f"--set expects key=value, got {text!r}")
    key, _, value = text.partition("=")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fluidq", description=__doc__)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config field (value parsed as JSON when possible)")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
    args = parser.parse_args(argv)
    try:
        overrides = dict(_parse_override(s) for s in args.set)
        cfg = parse_config(args.config, overrides)
        return execute(cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

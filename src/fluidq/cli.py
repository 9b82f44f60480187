"""Command-line front end: config ingestion, experiment orchestration, CSV/JSON output.

One JSON config file drives a run; --set key=value overrides individual
fields for sweep scripting.  MODE_KEYS is the one table of each mode's keys:
it gives each key its default, or marks it required.  parse_config is the one
check phase: it returns every input built and typed, so the mode runners only
compute and write, and out is made with the first file.  simulate and compare
run their replications in processes forked with os.fork, one per CPU this
process may use, each with a fixed share of the tasks and one pipe that carries
all its results after its last task; they write the same bytes as in process.
compare forks before its fluid solve: a worker returns its replications read on
the probe grid, and the parent, once it has solved, takes the gaps.  Exit codes:
0 success, 1 solver invariant violation, 2 missing config file, 3 malformed
JSON, 4 unknown key, 5 invalid input (mode/field mismatch, bad values,
distributions or initial states, or a fluid step that does not converge), 6 a
replication process died.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import sys

import numpy as np

from . import equilibrium as eq
from . import expode, fluid, simulator
from .distributions import (DistributionError, Exponential, distribution_from_dict,
                            is_finite_number)
from .measures import uniform_probes

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_MISSING_FILE = 2
EXIT_MALFORMED = 3
EXIT_UNKNOWN_KEY = 4
EXIT_MODE_MISMATCH = 5
EXIT_WORKER_DIED = 6

REQUIRED = object()  # a key the mode cannot run without
OPTIONAL = object()  # a key with no default: its runner gives its absence a meaning

_COMMON_KEYS = {"mode": REQUIRED, "seed": 12345, "out": "."}
_LAWS = {"arrival_rate": REQUIRED, "patience": REQUIRED, "service": REQUIRED}
_GRID = {"horizon": fluid.FluidConfig.horizon, "dt": fluid.FluidConfig.dt}
# simulate and compare: "arrival" absent is a Poisson stream at arrival_rate
_SIM_KEYS = {**_LAWS, **_GRID, "arrival": OPTIONAL, "n": REQUIRED, "replications": 20,
             "initial": "empty"}
MODE_KEYS = {
    "fluid-solve": {**_LAWS, **_GRID, "initial": "empty", "profile_times": [], "probes": {}},
    "equilibrium": _LAWS,
    "ode-check": {"rho": REQUIRED, "alpha": REQUIRED, "mu": REQUIRED, "x0": 0.0, **_GRID},
    # simulate: "snapshot_times" absent is [horizon]
    "simulate": {**_SIM_KEYS, "snapshot_times": OPTIONAL},
    "compare": {**_SIM_KEYS, "snapshot_times": REQUIRED, "probes": {}},
    "gc-check": {"distribution": REQUIRED, "sample_count": 10_000},
}
MODES = tuple(MODE_KEYS)
_ALL_KEYS = set(_COMMON_KEYS).union(*MODE_KEYS.values())
# numeric fields, each with the least whole value it takes (None: any finite number)
_NUMERIC_KEYS = {"arrival_rate": None, "horizon": None, "dt": None,
                 "rho": None, "alpha": None, "mu": None, "x0": None,
                 "snapshot_times": None, "profile_times": None,
                 "n": 1, "replications": 1, "seed": 0, "sample_count": 0}
_TIME_LISTS = {"snapshot_times", "profile_times"}
_PROFILE_FILE = "profiles_t{:g}.csv"   # fluid-solve's profile at one of profile_times


class ConfigError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


class WorkerDied(RuntimeError):
    """A replication process ended before it returned its result (killed, out of memory)."""


def _number(value, what: str, least=None):
    """value as a float if it is a finite JSON number, as an int if it is a whole one >= least."""
    ok = is_finite_number(value) and (least is None or float(value).is_integer() and value >= least)
    if not ok:
        kind = "a finite number" if least is None else f"a whole number >= {least}"
        raise ConfigError(EXIT_MODE_MISMATCH, f"{what} must be {kind}, got {value!r}")
    return float(value) if least is None else int(value)


def _numbers(raw: dict, keys: dict) -> dict:
    """Each numeric field of raw, checked and typed: n as a list, the times as a tuple.

    A list the mode requires (keys) must not be empty; snapshot times must be sorted."""
    typed = {}
    for key, least in _NUMERIC_KEYS.items():
        if key not in raw:
            continue
        value = raw[key]
        listed = key in _TIME_LISTS or (key == "n" and isinstance(value, list))
        if listed and not isinstance(value, list):
            raise ConfigError(EXIT_MODE_MISMATCH, f"{key} must be a list, got {value!r}")
        if value == [] and keys[key] is REQUIRED:
            raise ConfigError(EXIT_MODE_MISMATCH, f"{key} must not be an empty list")
        entries = [_number(v, f"{key} entry" if listed else key, least)
                   for v in (value if listed else [value])]
        if key == "snapshot_times" and entries != sorted(entries):
            raise ConfigError(EXIT_MODE_MISMATCH, f"snapshot_times must be sorted, got {value!r}")
        typed[key] = entries if key == "n" else tuple(entries) if listed else entries[0]
    return typed


def _build_laws(raw: dict) -> None:
    """Each law literal in raw replaced by the law it names, built once."""
    for key in ("patience", "service", "arrival", "distribution"):
        if key in raw:
            try:
                raw[key] = distribution_from_dict(raw[key])
            except DistributionError as exc:
                raise ConfigError(EXIT_MODE_MISMATCH, f"invalid {key!r} distribution: {exc}") from exc


def _fluid_config(cfg: dict) -> fluid.FluidConfig:
    return fluid.FluidConfig(**{key: cfg[key] for key in (*_LAWS, *_GRID)})


_SERVER_SHAPES = {"equilibrium-shaped": fluid.EquilibriumShaped,
                  "service-complement": fluid.ServiceComplementShaped}


def _initial_condition(spec, fc: fluid.FluidConfig) -> fluid.InitialCondition:
    if spec in (None, "empty"):
        return fluid.InitialCondition()
    if spec in ("equilibrium", {"kind": "equilibrium"}):
        return eq.equilibrium_state(fc.arrival_rate, fc.patience, fc.service).initial_condition()
    if not (isinstance(spec, dict) and set(spec) <= {"r0", "server_profile"}):
        raise ConfigError(EXIT_MODE_MISMATCH, f"invalid initial condition spec: {spec!r}")
    profile_spec = spec.get("server_profile", {"kind": "empty"})
    kind = profile_spec.get("kind", "empty") if isinstance(profile_spec, dict) else None
    keys = {"kind"} if kind == "empty" else {"kind", "z"}   # an empty profile has no mass z
    if kind not in ("empty", *_SERVER_SHAPES) or not set(profile_spec) <= keys:
        raise ConfigError(EXIT_MODE_MISMATCH, f"invalid server profile {profile_spec!r}")
    if kind == "empty":
        profile = fluid.EMPTY_SERVERS
    else:
        profile = _SERVER_SHAPES[kind](_number(profile_spec.get("z"), f"{kind} server profile z"))
    r0 = _number(spec.get("r0", 0.0), "initial r0")
    return fluid.InitialCondition(virtual_buffer_mass=r0, server_profile=profile)


def _probes(spec, horizon: float) -> np.ndarray:
    spec = spec or {}
    if not (isinstance(spec, dict) and set(spec) <= {"lo", "hi", "count"}):
        raise ConfigError(EXIT_MODE_MISMATCH,
                          f"probes must be an object with keys lo, hi and count, got {spec!r}")
    count = _number(spec.get("count", 512), "probes count", least=2)
    try:
        return uniform_probes(_number(spec.get("lo", -horizon), "probes lo"),
                              _number(spec.get("hi", horizon), "probes hi"), count)
    except MemoryError as exc:
        raise ConfigError(EXIT_MODE_MISMATCH,
                          f"probe grid of {count} points does not fit in memory") from exc


def parse_config(path: str, overrides: dict | None = None) -> dict:
    """Strict parse, the CLI's one check phase: unknown keys are errors; MODE_KEYS fills defaults.

    Each input comes back built under its key: numbers as float, or int where a whole one
    is asked for; n as a list, the time lists as tuples; laws as DistributionSpecs; probes
    as the grid array; initial as the fluid.ValidatedInitial of the mode's FluidConfig.
    """
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
    keys = {**_COMMON_KEYS, **MODE_KEYS[mode]}
    misplaced = sorted(set(raw) - set(keys))
    if misplaced:
        raise ConfigError(EXIT_MODE_MISMATCH,
                          f"field(s) not applicable to mode {mode!r}: {', '.join(misplaced)}")
    missing = sorted(key for key, default in keys.items() if default is REQUIRED and key not in raw)
    if missing:
        raise ConfigError(EXIT_MODE_MISMATCH,
                          f"mode {mode!r} requires missing field(s): {', '.join(missing)}")
    for key, default in keys.items():
        if default is not REQUIRED and default is not OPTIONAL:
            raw.setdefault(key, default)   # a list or dict default comes back rebuilt
    if not (isinstance(raw["out"], str) and raw["out"]):
        raise ConfigError(EXIT_MODE_MISMATCH, f"out must be a directory name, got {raw['out']!r}")
    raw.update(_numbers(raw, keys))
    _build_laws(raw)
    if mode in ("fluid-solve", "compare"):   # the modes that solve the fluid model
        try:
            raw["service"].validate_as_service()
            raw["patience"].validate_as_patience()
        except DistributionError as exc:
            raise ConfigError(EXIT_MODE_MISMATCH, str(exc)) from exc
    if "initial" in raw:   # fluid-solve, simulate and compare start the fluid model
        fc = _fluid_config(raw)
        for key in _TIME_LISTS & raw.keys():
            for t in raw[key]:
                try:
                    fc.grid_index(t, f"{key} entry")
                except fluid.FluidModelError as exc:
                    raise ConfigError(EXIT_MODE_MISMATCH, str(exc)) from exc
        raw["initial"] = fluid.validate_initial(fc, _initial_condition(raw["initial"], fc))
    files = {}   # profile file name -> the profile time that writes it
    for t in raw.get("profile_times", ()):
        name = _PROFILE_FILE.format(t)
        if name in files:
            raise ConfigError(EXIT_MODE_MISMATCH,
                              f"profile_times entries {files[name]!r} and {t!r} both write {name}")
        files[name] = t
    if "probes" in raw:
        raw["probes"] = _probes(raw["probes"], raw["horizon"])
    if "arrival" in raw and abs(raw["arrival"].mean * raw["arrival_rate"] - 1.0) > 1e-9:
        raise ConfigError(EXIT_MODE_MISMATCH, f"arrival mean {raw['arrival'].mean!r} is not "
                                              f"1/arrival_rate = {1.0 / raw['arrival_rate']!r}")
    return raw


def _create(out: str, name: str):
    """out/name open for writing; out is made here, so a run that writes nothing leaves no out."""
    os.makedirs(out, exist_ok=True)
    return open(os.path.join(out, name), "w", encoding="utf-8", newline="")


def _floats(cells: int) -> str:   # a line of cells floats, each %.17g: counts print as digits
    return ",".join(["%.17g"] * cells) + "\n"


def _write_csv(out: str, name: str, header: list, *tables) -> None:
    """The header, then each (line, rows) table: rows a 2-D float array, formatted by the
    %-template line of one row, 1024 rows to one % operation."""
    with _create(out, name) as fh:
        fh.write(",".join(header) + "\n")
        for line, rows in tables:
            for block in np.split(rows, range(1024, len(rows), 1024)):
                fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_json(out: str, name: str, doc: dict) -> None:
    with _create(out, name) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- mode runners ---------------------------------------------------------------


def _run_fluid_solve(cfg: dict, out: str) -> None:
    sol = fluid.solve(_fluid_config(cfg), cfg["initial"])
    _write_csv(out, "trajectory.csv", ["t", "X", "Q", "Z", "R", "B"],
               (_floats(6), np.column_stack((sol.times, sol.system, sol.queue, sol.busy,
                                             sol.virtual, sol.scheduled))))
    probes, times = cfg["probes"], cfg["profile_times"]
    for t, profiles in zip(times, sol.profiles(times, probes)):
        _write_csv(out, _PROFILE_FILE.format(t), ["x", "buffer_tail", "server_tail"],
                   (_floats(3), np.column_stack((probes, profiles.buffer.tail_at(probes),
                                                 profiles.server.tail_at(probes)))))


def _run_equilibrium(cfg: dict, out: str) -> None:
    doc = eq.equilibrium_state(cfg["arrival_rate"], cfg["patience"], cfg["service"]).to_json_dict()
    _write_json(out, "equilibrium.json", doc)
    print(json.dumps(doc, sort_keys=True))


def _run_ode_check(cfg: dict, out: str) -> None:
    result = expode.cross_check(expode.ExpOdeConfig(
        service_rate=cfg["mu"], patience_rate=cfg["alpha"], traffic_intensity=cfg["rho"],
        x0=cfg["x0"], horizon=cfg["horizon"], dt=cfg["dt"],
    ))
    _write_csv(out, "ode_check.csv", ["t", "X_ode", "X_fluid", "diff"],
               (_floats(4), np.column_stack((result.times, result.ode, result.fluid,
                                             np.abs(result.fluid - result.ode)))))
    print(f"sup_diff = {result.sup_diff:.6e}")


def _sim_tasks(cfg: dict) -> list:
    """(n, simulator config, replication index) of every replication, n by n in index
    order; each config seeded from the fluid start state."""
    arrival = cfg["arrival"] if "arrival" in cfg else Exponential(cfg["arrival_rate"])
    tasks = []
    for n in cfg["n"]:
        sim_cfg = simulator.SimConfig(
            num_servers=n, interarrival=arrival.time_scaled(1.0 / n),
            patience=cfg["patience"], service=cfg["service"],
            snapshot_times=cfg.get("snapshot_times", (cfg["horizon"],)),
            seed=cfg["seed"], initial=cfg["initial"])
        tasks += [(n, sim_cfg, i) for i in range(cfg["replications"])]
    return tasks


def _serve(fn, share: list, cancel, reads: list, write: int):
    """A forked worker's whole life: it closes the pipe read ends it inherited, runs
    fn(*task) for each task of its share, each started only while cancel[0] is 0, writes
    one pickle of (True, results) or (False, the exception) to write, and leaves through
    os._exit, so it never returns into the caller's stack."""
    code = 1
    try:
        for fd in reads:   # else a write after the parent closed its end would wait forever
            os.close(fd)
        try:
            message = True, [fn(*task) for task in share if not cancel[0]]
        except Exception as exc:
            message = False, exc
        with open(write, "wb") as fh:
            pickle.dump(message, fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _receive(read: int) -> list:
    """The results a worker sent to its pipe's read end; a worker's exception is raised."""
    try:
        with open(read, "rb", closefd=False) as fh:
            ok, value = pickle.load(fh)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise WorkerDied("a replication process died before it returned its result; "
                         "no output was written") from exc
    if not ok:
        raise value
    return value


@contextlib.contextmanager
def _map(fn, tasks: list):
    """Yields fn(*task) for each task, in task order, as an iterator: from W = min(CPUs,
    tasks) processes forked on entry, when both are two or more; in process as it is read
    otherwise, and where the platform reports no CPU affinity (macOS, Windows).

    Worker w inherits fn and tasks, so neither is pickled, and runs tasks w, w + W,
    w + 2W, ...  Only after its last task does it send its results, one pickle down its
    own pipe, so no worker waits on a full pipe while the caller works in the block.  The
    first read takes the pipes in worker order: a worker that died raises WorkerDied, a
    worker's exception is raised again.  An error in the block tells every worker to
    start no further task and waits for the running ones.  Every child is reaped and
    every pipe closed on each way out."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(tasks))
    if workers < 2:
        yield (fn(*task) for task in tasks)
        return
    import mmap

    cancel = mmap.mmap(-1, 1)   # one byte shared with the workers: nonzero cancels
    reads, pids = [], []
    try:
        for w in range(workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, tasks[w::workers], cancel, reads, write)
                pids.append(pid)
            finally:
                os.close(write)

        def results():
            shares = [_receive(read) for read in reads]
            for k in range(len(tasks)):
                yield shares[k % workers][k // workers]

        yield results()
    finally:
        cancel[0] = 1
        for read in reads:   # a worker still writing then fails and exits
            os.close(read)
        for pid in pids:
            os.waitpid(pid, 0)
        cancel.close()


def _simulate_rows(n: int, sim_cfg: simulator.SimConfig, i: int) -> np.ndarray:
    rows = []
    for s in simulator.run(sim_cfg, i):
        scaled = simulator.fluid_scale(s, n)
        rows.append([s.time, s.queue_size, s.virtual_size, s.busy_servers,
                     s.system_size, s.abandoned, s.completed,
                     scaled.queue_size, scaled.virtual_size,
                     scaled.busy_servers, scaled.system_size])
    return np.array(rows, dtype=float)


def _run_simulate(cfg: dict, out: str) -> None:
    tasks = _sim_tasks(cfg)
    with _map(_simulate_rows, tasks) as results:
        results = list(results)   # every replication, before the first file
    for (n, _, i), rows in zip(tasks, results):
        _write_csv(out, f"sim_n{n}_rep{i:03d}.csv",
                   ["t", "Q", "R", "Z", "X", "abandoned", "completed",
                    "Q_scaled", "R_scaled", "Z_scaled", "X_scaled"], (_floats(11), rows))


def _run_compare(cfg: dict, out: str) -> None:
    tasks, times, probes = _sim_tasks(cfg), cfg["snapshot_times"], cfg["probes"]

    def replication_on_probes(n, sim_cfg, i):   # needs no fluid value, so starts first
        return simulator.read_on_probes(
            [simulator.fluid_scale(s, n) for s in simulator.run(sim_cfg, i)], probes)

    with _map(replication_on_probes, tasks) as readings:
        sol = fluid.solve(_fluid_config(cfg), cfg["initial"])
        profiles = sol.profiles(times, probes)
        results = [simulator.gaps_to_fluid(r, sol, profiles) for r in readings]
    reps = cfg["replications"]
    rows, summaries = [], []
    for j, n in enumerate(cfg["n"]):
        gaps = np.array(results[j * reps:(j + 1) * reps])   # (replication, gap, time)
        buffer, server, queue, busy = gaps.transpose(1, 0, 2)
        means = [buffer.mean(axis=0), buffer.max(axis=0), server.mean(axis=0),
                 server.max(axis=0), queue.mean(axis=0), busy.mean(axis=0)]
        rows.append(np.column_stack((np.full(len(times), n), times, *means)))
        summaries.append([n, np.mean(means[0]), np.max(means[1]), np.mean(means[2]),
                          np.max(means[3]), np.mean(queue.max(axis=1)), np.mean(busy[:, -1])])
    _write_csv(out, "compare_report.csv",
               ["n", "t", "mean_dist_buffer", "max_dist_buffer", "mean_dist_server",
                "max_dist_server", "mean_absQ", "mean_absZ"],
               (_floats(8), np.concatenate(rows)),
               ("%.17g,all," + _floats(6), np.array(summaries, dtype=float)))


def _run_gc_check(cfg: dict, out: str) -> None:
    count, law = cfg["sample_count"], cfg["distribution"]
    stat = simulator.gc_diagnostic(law, count, cfg["seed"])
    _write_json(out, "gc_check.json", {"family": law.family, "sample_count": count,
                                       "statistic": stat, "ks_bound_95": 1.36 / math.sqrt(count)})
    print(f"gc_statistic = {stat:.6e}")


_RUNNERS = {
    "fluid-solve": _run_fluid_solve,
    "equilibrium": _run_equilibrium,
    "ode-check": _run_ode_check,
    "simulate": _run_simulate,
    "compare": _run_compare,
    "gc-check": _run_gc_check,
}


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(EXIT_MODE_MISMATCH, f"--set expects key=value, got {text!r}")
    key, _, value = text.partition("=")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def main(argv=None) -> int:
    """Parse, run the mode, and map every error to its exit code and one stderr line."""
    parser = argparse.ArgumentParser(prog="fluidq", description=__doc__)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config field (value parsed as JSON when possible)")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, dict(_parse_override(s) for s in args.set))
        _RUNNERS[cfg["mode"]](cfg, args.out or cfg["out"])
        return EXIT_OK
    except fluid.InvariantViolationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVARIANT
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED
    except (ConfigError, ValueError, fluid.NoConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, ConfigError) else EXIT_MODE_MISMATCH


if __name__ == "__main__":
    sys.exit(main())

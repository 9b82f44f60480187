"""One timed fluidq invocation in a fresh process.

    python3 perfbench/worker.py --src SRC --config CFG --out DIR --result FILE
        [--setup-only | --deps-only] [--trace FILE]

Times the set-up (importing fluidq from SRC and parsing the config) and the
call into `fluidq.cli.main`, then writes the times, the exit code, the peak
resident set size and the run context as JSON to FILE.  A fixed calibration
loop is timed just before and just after the call, so that the caller can
take changes in the host's speed out of the call's time.  With --trace the
call runs under the per-layer tracer, whose data goes to the trace FILE.
With --deps-only it times only the import of fluidq's heavy dependencies,
the calibration of the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback


def _openblas() -> dict:
    """OpenBLAS version and the thread count it runs with, where numpy exposes them."""
    import ctypes
    import glob

    import numpy as np

    info = {"version": None, "threads": None}
    try:
        info["version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


CAL_REPEATS = 15


def calibrate() -> float:
    """Median time of a fixed pure-Python and numpy loop: the host's speed right now.

    The loop does the kinds of work fluidq does (interpreted scalar code and
    numpy array passes) and touches nothing of fluidq, so a change to fluidq
    cannot change its time.
    """
    import numpy as np

    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        a = np.arange(100_000, dtype=float)
        for _ in range(10):
            a = np.sqrt(a * 1.0001 + 1.0)
        times.append(time.perf_counter() - start)
    return sorted(times)[CAL_REPEATS // 2]


def peak_rss_mb() -> float:
    """Peak resident set of this process alone.

    On Linux ru_maxrss survives execve, so a freshly spawned worker would
    report its parent's peak whenever that is higher; VmHWM does not.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_context() -> dict:
    import fluidq
    import numpy
    import scipy

    env_keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QF_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "fluidq": fluidq.__version__,
        "blas_env": {k: os.environ.get(k) for k in env_keys},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--deps-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    result = {"exit_code": None, "error": None}
    try:
        start = time.perf_counter()
        if args.deps_only:
            import numpy, scipy.special  # noqa: E401, F401  what fluidq imports at start-up
            result["deps_s"] = time.perf_counter() - start
            return _write(args.result, result)
        sys.path.insert(0, args.src)
        from fluidq import cli
        cli.parse_config(args.config)
        result["setup_s"] = time.perf_counter() - start
        if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
            raise RuntimeError(f"fluidq imported from {cli.__file__}, not from {args.src}")

        if args.setup_only:
            result["context"] = run_context()
        else:
            result["cal_s"] = [calibrate()]
            restore, tracer = None, None
            if args.trace:
                from tracing import Tracer, instrument
                tracer = Tracer()
                restore = instrument(tracer)
            try:
                start = time.perf_counter()
                result["exit_code"] = cli.main(["--config", args.config, "--out", args.out])
                result["wall_s"] = time.perf_counter() - start
            finally:
                if restore is not None:
                    restore()
            result["cal_s"].append(calibrate())
            if tracer is not None:
                with open(args.trace, "w", encoding="utf-8") as fh:
                    json.dump(tracer.to_json(), fh)
    except Exception:  # reported to the harness, which counts the invocation as failed
        result["error"] = traceback.format_exc()
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    result["peak_rss_mb"] = peak_rss_mb()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())

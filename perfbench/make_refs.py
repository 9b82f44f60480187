"""Regenerate the reference outputs of the deterministic fluid workloads.

    python3 perfbench/make_refs.py

Runs each fluid workload once, at full and at smoke size, through the CLI of
the checkout's src/ and keeps its trajectory (every stride-th row) and
profile CSVs under perfbench/ref/.  Run it only at a commit whose fluid
outputs are known to be right: the gates compare later commits with these.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from workloads import REF_DIR, WORKLOADS, reference_dir, reference_files, write_config, write_csv

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fluidq import cli

    scratch = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_refs_"))
    try:
        for name, workload in WORKLOADS.items():
            for smoke in (False, True):
                cfg = workload.config(0, smoke)
                if cfg["mode"] != "fluid-solve":
                    break
                write_config(scratch / "config.json", cfg)
                out = scratch / "out"
                shutil.rmtree(out, ignore_errors=True)
                if cli.main(["--config", str(scratch / "config.json"), "--out", str(out)]):
                    raise SystemExit(f"{name}: fluidq failed")
                ref = reference_dir(REF_DIR, name, smoke)
                shutil.rmtree(ref, ignore_errors=True)
                ref.mkdir(parents=True)
                for file_name, header, values in reference_files(out):
                    write_csv(ref / file_name, header, values)
                problems = workload.gate(out, cfg, ref)
                if problems:
                    raise SystemExit(f"{name}: fresh outputs fail their gate: {problems}")
                print(f"{name} ({'smoke' if smoke else 'full'}): wrote {ref}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

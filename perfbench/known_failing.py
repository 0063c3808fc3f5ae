"""Inputs of the experiment loop that fail today, recorded but never timed.

    python3 perfbench/known_failing.py

Timing these now would make the later fix read as a slowdown, so they are
not workloads.  This script runs each reproduction once from the root of
the checkout and prints, as JSON, whether it still fails and with what last
line of error.  The change that fixes one adds it as a workload separately.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWEEP_N100003 = ("from sparselab.cli import SweepConfig, run_sweep; "
                 "run_sweep(SweepConfig(system={'kind': 'ap', 'n': 100003, "
                 "'k': 3}, c_grid=[8.0], trials=1, seed=42))")

# (name, argv, last error line when recorded)
KNOWN = [
    ("dense-model-n1009",
     [sys.executable, "-m", "sparselab.cli", "dense-model", "--system", "ap",
      "--n", "1009", "--k", "3", "--p", "0.12", "--family-size", "64"],
     "sparselab.systems.EnumerationGuardError: exact split count needs "
     "16273152 rows; use mode='mc'"),
    ("sweep-count-n100003-C8",
     [sys.executable, "-c", SWEEP_N100003],
     "sparselab.systems.EnumerationGuardError: |S| = 10000500006 and support "
     "2448 both exceed the guard; use mode='mc'"),
    ("dense-model-demo-defaults",
     [sys.executable, "scripts/dense_model_demo.py"],
     "ValueError: ap system demands prime n for its fiber guarantees; 301 is "
     "composite (pass require_prime=False to override)"),
]


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    rows = []
    for name, argv, recorded in KNOWN:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=170)
        lines = proc.stderr.strip().splitlines()
        rows.append({"name": name, "argv": argv[1:], "exit": proc.returncode,
                     "error": lines[-1] if lines else None,
                     "recorded_error": recorded,
                     "still_fails": proc.returncode != 0})
    print(json.dumps(rows, indent=2))


if __name__ == "__main__":
    main()

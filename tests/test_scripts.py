"""The scripts under scripts/ run on their own defaults."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import sparselab
from sparselab.systems import build_system

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dense_model_demo_defaults_build_a_system():
    args = _load("dense_model_demo").parse_args([])
    sys_obj = build_system(kind="ap", n=args.n, k=args.k)
    assert (sys_obj.n, sys_obj.k) == (args.n, args.k)


def test_dense_model_demo_runs_at_a_tiny_size(tmp_path):
    src = str(Path(sparselab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "curve.json"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "dense_model_demo.py"),
                           "--n", "31", "--sizes", "4,16", "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    curve = json.loads(out.read_text())["curve"]
    assert [row["family_size"] for row in curve] == [4, 16]


def test_dense_model_demo_gives_no_ratio_against_round_off(capsys):
    # at the default n the size-4 norm is about 1e-15
    assert _load("dense_model_demo").main(["--sizes", "4,16"]) == 0
    out = capsys.readouterr().out
    assert "norm grew" not in out
    assert "no growth ratio" in out

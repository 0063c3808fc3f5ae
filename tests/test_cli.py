"""CLI behaviour: exit codes, output schema, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparselab
from sparselab.cli import (CSV_COLUMNS, SweepConfig, main, run_sweep)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- exit codes -----------------------------------------------------------

def test_verify_system_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-system", "--system", "ap",
                           "--n", "101", "--k", "3")
    assert code == 0
    report = json.loads(out)
    assert report["homogeneous"] and report["two_dof"]
    assert report["pair_profile"]["sigma"] == 1
    assert report["pair_profile"]["t"] == 100


def test_verify_system_failure_gives_exit_one(capsys):
    code, out, _ = run_cli(capsys, "verify-system", "--system", "interval-ap",
                           "--n", "40", "--k", "3")
    assert code == 1
    assert not json.loads(out)["ok"]


def test_sampled_two_dof_skips_empty_fibers(capsys):
    # n = 701 is past the exhaustive budget, so two-dof is probed; the
    # probes that land on x >= n - 2, where S_1(x) is empty, are skipped
    code, out, _ = run_cli(capsys, "verify-system", "--system", "interval-ap",
                           "--n", "701", "--k", "3")
    assert code == 1
    report = json.loads(out)
    assert report["two_dof_mode"] == "sampled" and report["two_dof"]
    assert not report["ok"] and not report["homogeneous"]


def test_usage_errors_give_exit_two(capsys):
    code, _, err = run_cli(capsys, "oracle", "no-such-oracle")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["code"] == 2
    code, _, err = run_cli(capsys, "properties")   # missing --system
    assert code == 2
    assert "error" in json.loads(err.strip().splitlines()[-1])
    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 2


def test_enumeration_guard_gives_exit_two(capsys):
    # the exact split count of 4-term progressions at n=1009 gathers more
    # rows than the guard allows; there is no FFT for k = 4
    code, out, err = run_cli(capsys, "dense-model", "--system", "ap",
                             "--n", "1009", "--k", "4", "--p", "0.12",
                             "--family-size", "16")
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["code"] == 2
    assert "exact split count needs" in payload["error"]
    # the message states the work and the guard, and points at no mode
    assert "guard" in payload["error"] and "mode=" not in payload["error"]


FROZEN_DENSE_MODEL_CLI = json.loads(
    (Path(__file__).parent / "frozen_dense_model_cli.json").read_text())


def test_fft_priced_guards_admit_the_3ap_loop(capsys):
    # on 3-term progressions over odd n the guards price the FFT: the exact
    # split count at n = 1009 and property 3 on Z_10007 both run; the
    # dense-model stdout, counting block included, is frozen byte for byte
    case = FROZEN_DENSE_MODEL_CLI[1]
    assert case["argv"] == ["dense-model", "--system", "ap", "--n", "1009",
                            "--k", "3", "--p", "0.12", "--family-size", "64"]
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])
    report = json.loads(out)
    assert report["ok"] and report["counting"]["mode"] == "exact"
    code, out, _ = run_cli(capsys, "properties", "--system", "ap", "--n",
                           "10007", "--k", "3", "--p", "0.08",
                           "--properties", "0,1,2,3")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["name"] for r in reports] == [f"property{i}" for i in range(4)]
    assert reports[1]["detail"]["mode"] == "exact"


def _error_payload(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["code"] == 2
    return payload["error"]


def test_missing_descriptor_field_gives_exit_two(capsys):
    error = _error_payload(capsys, "verify-system", "--system", "ap")
    assert "missing field 'n'" in error
    error = _error_payload(capsys, "verify-system", "--system",
                           '{"n": 101, "k": 3}')
    assert "missing field 'kind'" in error


def test_property_number_out_of_range_gives_exit_two(capsys):
    error = _error_payload(capsys, "properties", "--system", "ap", "--n", "101",
                           "--k", "3", "--p", "0.5", "--properties", "0,7")
    assert "0..3" in error


def test_empty_ensemble_gives_exit_two(capsys):
    error = _error_payload(capsys, "properties", "--system", "ap", "--n", "101",
                           "--k", "3", "--p", "0.5", "--m", "0")
    assert "m >= 1" in error


def test_properties_command(capsys):
    code, out, _ = run_cli(capsys, "properties", "--system", "ap",
                           "--n", "101", "--k", "3", "--p", "1.0",
                           "--m", "3", "--properties", "0,1,2")
    assert code == 0
    report = json.loads(out)
    assert len(report["reports"]) == 3
    assert all(r["ok"] for r in report["reports"])


def test_conditions_command(capsys):
    code, out, _ = run_cli(capsys, "conditions", "--system", "ap",
                           "--n", "1009", "--k", "3", "--p", "0.2",
                           "--alpha", "0.1")
    assert code == 0
    code1, out1, _ = run_cli(capsys, "conditions", "--system", "ap",
                             "--n", "1009", "--k", "3", "--p", "0.02",
                             "--alpha", "0.1", "--seed", "1")
    assert code1 == 1
    assert not json.loads(out1)["ok"]


def test_oracle_commands(capsys):
    code, out, _ = run_cli(capsys, "oracle", "extremal", "--n", "5",
                           "--pattern", "K3")
    assert code == 0 and json.loads(out)["value"] == 6
    code, out, _ = run_cli(capsys, "oracle", "ramsey", "--host", "complete:6",
                           "--pattern", "K3", "--r", "2")
    assert code == 0 and json.loads(out)["value"] == 2
    code, out, _ = run_cli(capsys, "oracle", "pattern-stats",
                           "--pattern", "K4")
    assert code == 0
    assert json.loads(out)["m_k"] == [5, 2]
    code, out, _ = run_cli(capsys, "oracle", "varnavides", "--system", "ap",
                           "--n", "5", "--k", "3", "--rho", "0.4")
    assert code == 0 and json.loads(out)["value"] == 0
    code, out, _ = run_cli(capsys, "oracle", "free-subset", "--system", "ap",
                           "--n", "101", "--k", "3", "--p", "0.1")
    assert code == 0 and json.loads(out)["certified"]


FROZEN_COPY_CLI = json.loads(
    (Path(__file__).parent / "frozen_copy_cli.json").read_text())


@pytest.mark.parametrize("case", FROZEN_COPY_CLI,
                         ids=[c["argv"][0] for c in FROZEN_COPY_CLI])
def test_copy_system_commands_frozen(capsys, case):
    # conditions reaches pair_intersection through w_kernel, the sweep the
    # support-mode count, extremal the copy search through a new edge
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


def test_dense_model_command(capsys):
    code, out, _ = run_cli(capsys, "dense-model", "--system", "ap",
                           "--n", "101", "--k", "3", "--p", "0.3",
                           "--m", "2", "--family-size", "32",
                           "--target-norm", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["lp_status"] == "optimal"
    assert float(report["achieved_norm"]) <= 0.5


def test_dense_model_stdout_frozen(capsys):
    # the whole report, counting block included, byte for byte
    case = FROZEN_DENSE_MODEL_CLI[0]
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


# --- sweep ----------------------------------------------------------------

def _sweep_args(out_path, extra=()):
    return ["sweep", "--system", "ap", "--n", "101", "--k", "3",
            "--c-grid", "0.5,4", "--trials", "4", "--seed", "9",
            "--format", "csv", "--out", str(out_path), *extra]


def test_sweep_csv_schema(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(_sweep_args(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 4 * 3          # C cells x trials x stat rows
    assert all(len(r) == len(CSV_COLUMNS) for r in rows)
    assert all(r[-1] == "" for r in rows)  # millis empty by default
    assert {r[7] for r in rows} == {"set_size", "normalized_count",
                                    "count_stderr"}


def test_sweep_rerun_byte_identical(tmp_path):
    a, b, c = (tmp_path / x for x in ("a.csv", "b.csv", "c.csv"))
    assert main(_sweep_args(a)) == 0
    assert main(_sweep_args(b)) == 0
    assert main(_sweep_args(c, ["--threads", "2"])) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_sweep_zero_trials_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    args = ["sweep", "--system", "ap", "--n", "13", "--k", "3",
            "--c-grid", "1", "--trials", "0", "--format", "csv",
            "--out", str(out)]
    assert main(args) == 0
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_sweep_json_summary(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--system", "ap", "--n", "101",
                           "--k", "3", "--c-grid", "0.5,4", "--trials", "5",
                           "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_s"] == 0.5
    assert len(payload["per_C"]) == 2
    low, high = payload["per_C"]
    assert high["frequency"] >= low["frequency"]
    for cell in payload["per_C"]:
        assert cell["trials"] == 5
        lo, hi = cell["ci95"]
        assert 0.0 <= lo <= cell["frequency"] <= hi <= 1.0
    assert len(payload["records"]) == 10


def test_sweep_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": {"kind": "ap", "n": 13, "k": 3},
        "c_grid": [1.0], "trials": 2, "seed": 11, "target":
        "count-concentration"}))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                           "--trials", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["trials"] == 3       # CLI wins
    assert payload["config"]["seed"] == 11        # config survives


def test_sweep_density_target(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--system", "ap", "--n", "101",
                           "--k", "3", "--c-grid", "0.3", "--trials", "3",
                           "--target", "density", "--rho", "0.8")
    assert code == 0
    payload = json.loads(out)
    names = {s[0] for r in payload["records"] for s in r["stats"]}
    assert "free_density" in names


def test_run_sweep_api_matches_cli(tmp_path):
    config = SweepConfig(system={"kind": "ap", "n": 101, "k": 3},
                         c_grid=[0.5, 4.0], trials=4, seed=9)
    records, summary = run_sweep(config)
    assert len(records) == 8
    assert [r.trial for r in records] == [0, 1, 2, 3] * 2
    # per-trial seeds are stable hashes, not sequential
    assert len({r.seed for r in records}) == 8
    out = tmp_path / "api.csv"
    assert main(_sweep_args(out)) == 0
    from sparselab.cli import _records_to_csv
    assert _records_to_csv(records, summary, False) == out.read_text()


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "sparselab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ["verify-system", "properties", "conditions", "sweep",
                "dense-model", "oracle"]:
        assert sub in proc.stdout


def test_import_does_not_load_scipy():
    # scipy loads only when an LP runs; the import costs about 0.6 s and
    # 49 MB in every process.  numpy.polynomial has no user in the package.
    src = str(Path(sparselab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, sparselab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

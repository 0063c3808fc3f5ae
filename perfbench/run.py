"""Benchmark of the sparselab experiment loop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are listed in ``BENCHMARK.json`` and described in
``perfbench/README.md``.

With ``--trace 0`` the run times closed-loop rounds of the workload for S
seconds and reports the end-to-end metrics.  With ``--trace 1`` it wraps the
public functions of every layer (``tracing.py``) and reports per-layer
metrics instead, plus the tracing overhead measured against an untraced pass
over the same inputs.  Every trial's output is checked (``check.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (machine, tail percentile, failures).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Trial  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# share of --seconds spent on paired untraced/traced rounds that calibrate
# the tracing overhead
CALIBRATION_SHARE = 0.4
# time spent on the speed kernel, as a share of the time spent on rounds
KERNEL_SHARE = 0.05
# a round is scaled by the kernel runs within this many seconds of its
# midpoint (a longer round: by the runs right before and after it)
SPEED_WINDOW_S = 0.5

E2E_UNITS = {"trials_per_s": "1/s", "trial_ms_p50": "ms",
             "trial_ms_tail": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package source)."""


def import_package():
    if not (SRC / "sparselab" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'sparselab'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sparselab
    import sparselab.cli  # noqa: F401  (all layers, as run_sweep sees them)
    return sparselab


def machine_info():
    info = {"nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or None,
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    info["git_commit"] = _git_commit()
    digest = hashlib.sha256()
    for path in sorted((SRC / "sparselab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()[:16]
    return info


def _git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    try:
        # the ceiling stops git from finding a repository above the checkout
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              env=dict(os.environ,
                                       GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure_setup(workload, repeats):
    """Median seconds, scaled to the reference machine, to import sparselab
    and build the workload's systems, each time in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             json.dumps(workload.systems())],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()}")
        raw, kernel = (float(v) for v in proc.stdout.split()[-2:])
        times.append((raw * speed.scale([kernel]), raw))
    return statistics.median(t for t, _ in times), times


def run_rounds(workload, sl, seed, first, budget_s=None, rounds=None):
    """Closed loop: start round after round until the rounds have been busy
    for budget_s seconds (or `rounds` rounds ran).

    Between rounds the speed kernel runs until it has taken KERNEL_SHARE of
    the busy time.  Each trial's ``factor`` is set from the kernel runs
    around its round.  Returns (trials, rounds, busy seconds, busy seconds
    scaled to the reference machine)."""
    trials = []
    kernels = [_kernel()]
    spans = []
    busy = 0.0
    r = first
    while (r - first < rounds) if rounds is not None else busy < budget_s:
        first_trial = len(trials)
        t0 = time.perf_counter()
        try:
            trials += workload.round(sl, seed, r)
        except Exception:
            err = traceback.format_exc()
            print(f"round {r} raised:\n{err}", file=sys.stderr)
            trials += _failed(workload, r, err)
        t1 = time.perf_counter()
        busy += t1 - t0
        spans.append((t0, t1, first_trial))
        kernels.append(_kernel())
        while sum(k for _, k in kernels) < KERNEL_SHARE * busy:
            kernels.append(_kernel())
        r += 1
    return trials, r - first, busy, _scale_rounds(trials, spans, kernels)


def _kernel():
    """(end time, seconds) of one speed-kernel run."""
    seconds = speed.kernel()
    return time.perf_counter(), seconds


def _scale_rounds(trials, spans, kernels):
    """Set each trial's factor from the kernel runs around its round
    (start, end, index of its first trial); returns the scaled busy
    seconds."""
    scaled = 0.0
    for i, (t0, t1, first) in enumerate(spans):
        mid = (t0 + t1) / 2.0
        reach = max(SPEED_WINDOW_S, (t1 - t0) / 2.0)
        # the run right after the round always counts: its midpoint is
        # within (t1 - t0) / 2 + k of the round's
        factor = speed.scale([k for end, k in kernels
                              if abs(end - k / 2.0 - mid) <= reach + k])
        last = spans[i + 1][2] if i + 1 < len(spans) else len(trials)
        for trial in trials[first:last]:
            trial.factor = factor
        scaled += (t1 - t0) * factor
    return scaled


def _failed(workload, r, err):
    return [Trial(f"{workload.name}/r{r}/cell{c}", float("nan"), {}, err)
            for c in range(workload.cells)]


def check_trials(workload, trials, seed):
    """Check every trial; returns (failed count, reference-checked count)."""
    reference = check.load_reference(workload.name, seed, workload.size)
    failed = 0
    compared = 0
    for trial in trials:
        problems = [trial.error.splitlines()[-1]] if trial.error else []
        if not problems:
            try:
                problems = workload.check(trial)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"output not checkable: {exc!r}"]
            if trial.key in reference:
                compared += 1
                problems += check.compare_reference(trial.out,
                                                    reference[trial.key])
        if problems:
            failed += 1
            print(f"{trial.key}: " + "; ".join(problems), file=sys.stderr)
    return failed, compared


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    values above it; the maximum when there are ten or fewer."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def run(name, seed=None, seconds=20.0, trace=False, size="full",
        setup_repeats=5):
    """One benchmark run; returns (summary, details)."""
    sl = import_package()
    workload = WORKLOADS[name](size)
    seed = workload.default_seed if seed is None else seed
    details = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": int(trace), "size": size, "machine": machine_info()}
    setup_s, setup_runs = measure_setup(workload, setup_repeats)
    details["setup_runs_s"] = setup_runs
    workload.prepare(sl)
    run_rounds(workload, sl, seed, -1, rounds=1)          # warm-up
    if trace:
        summary = _traced(workload, sl, seed, seconds, details)
    else:
        summary = _timed(workload, sl, seed, seconds, setup_s, details)
    return summary, details


def _timed(workload, sl, seed, seconds, setup_s, details):
    trials, rounds, busy, scaled_busy = run_rounds(workload, sl, seed, 0,
                                                   budget_s=seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, compared = check_trials(workload, trials, seed)
    done = [t for t in trials if t.error is None]
    raw = [t.millis for t in done] or [0.0]
    scaled = [t.millis * t.factor for t in done] or [0.0]
    tail_ms, tail_pct = tail(scaled)
    metrics = {
        "trials_per_s": len(trials) / scaled_busy,
        "trial_ms_p50": statistics.median(scaled),
        "trial_ms_tail": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }
    details.update({
        "rounds": rounds, "busy_s": busy, "speed_factor": scaled_busy / busy,
        "raw": {"trials_per_s": len(trials) / busy,
                "trial_ms_p50": statistics.median(raw),
                "trial_ms_tail": tail(raw)[0]},
        "tail_percentile": tail_pct, "tail_trials": len(raw),
        "failed_frac": {"value": failed / max(len(trials), 1),
                        "unit": "fraction"},
        "reference_compared": compared})
    return _summary(trials, failed,
                    {k: (v, E2E_UNITS[k]) for k, v in metrics.items()})


def _traced(workload, sl, seed, seconds, details):
    """Calibrate overhead on paired rounds (same inputs, untraced and traced,
    alternating which runs first), then trace further rounds."""
    tracer = Tracer()
    plain = traced = busy = 0.0
    first = []
    r = 0
    try:
        while busy < seconds * CALIBRATION_SHARE:
            for on in ((False, True) if r % 2 == 0 else (True, False)):
                if on:
                    details["absent"] = tracer.install(sl)
                trials, _, wall, _ = run_rounds(workload, sl, seed, r,
                                                rounds=1)
                busy += wall
                if on:
                    tracer.restore()
                    first += trials
                    traced += wall
                else:
                    plain += wall
            r += 1
        tracer.install(sl)
        rest, more, rest_wall, _ = run_rounds(
            workload, sl, seed, r, budget_s=max(0.0, seconds - busy))
    finally:
        tracer.restore()
    trials = first + rest
    failed, compared = check_trials(workload, trials, seed)
    metrics = tracer.metrics(len(trials))
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "fraction")
    metrics["trace.trial_s"] = ((traced + rest_wall) / len(trials),
                                "s/trial")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{workload.name}.json"
    tracer.write(spans_path)
    details.update({"rounds": r + more,
                    "spans": str(spans_path.relative_to(ROOT)),
                    "span_count": tracer.span_count,
                    "spans_kept": len(tracer.spans),
                    "failed_frac": {"value": failed / max(len(trials), 1),
                                    "unit": "fraction"},
                    "reference_compared": compared})
    return _summary(trials, failed, metrics)


def _summary(trials, failed, metrics):
    return {"correct": failed == 0 and bool(trials),
            "attempted": len(trials), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's "
                             "acceptance-test seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        summary, details = run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

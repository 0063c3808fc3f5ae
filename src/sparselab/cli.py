"""Experiment orchestration: system diagnostics, property/condition suites,
threshold sweeps around the critical exponent, dense-model runs, and oracle
queries, with CSV/JSON output.

Exit codes: 0 all requested checks pass, 1 check failures, 2 usage errors.
CSV schema (stable): system, n, alpha_s, C, p, trial, seed, stat_name,
stat_value, pass, millis.  The millis column is left empty unless
--emit-timings is given, so reruns of the same config are byte-identical
regardless of thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys as _sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .conv import count_functional
from .core import make_measure
from .oracles import (HostGraph, adversary_colouring, adversary_free_subset,
                      critical_exponent, extremal_number, pattern_stats,
                      ramsey_multiplicity, supersaturation_count,
                      varnavides_count)
from .sample import sample_ensemble, sample_subset, stable_hash
from .systems import (EnumerationGuardError, PatternHypergraph, build_system,
                      pair_profile, verify_homogeneity, verify_two_dof)
from .transfer import build_family, solve_dense_model, verify_counting_lemma
from .verify import check_conditions, check_properties

CSV_COLUMNS = ["system", "n", "alpha_s", "C", "p", "trial", "seed",
               "stat_name", "stat_value", "pass", "millis"]


@dataclass
class SweepConfig:
    system: dict
    c_grid: list
    trials: int = 10
    seed: int = 0
    target: str = "count-concentration"
    conc_lo: float = 0.5
    conc_hi: float = 2.0
    density_threshold: float = 0.9
    colours: int = 2
    budget: int = 10 ** 6
    threads: int = 1
    emit_timings: bool = False

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, d):
        return cls(**d)


@dataclass
class ExperimentRecord:
    c_index: int
    C: float
    p: float
    trial: int
    seed: int
    stats: list                      # (name, value, ok) triples
    millis: float = 0.0

    @property
    def ok(self):
        return all(flag for _, _, flag in self.stats)


def _system_label(desc):
    """Compact CSV-safe label: kind plus non-n parameters."""
    parts = []
    for key in sorted(desc):
        if key in ("kind", "n"):
            continue
        val = desc[key]
        if isinstance(val, dict):
            val = val.get("name") or f"v{val.get('v')}e{len(val.get('edges', []))}"
        parts.append(f"{key}={val}")
    inner = ";".join(parts)
    return f"{desc['kind']}[{inner}]" if inner else desc["kind"]


def _trial_stats(sys_obj, target, p, seed, config):
    """The measured (name, value, ok) triples for one seeded trial."""
    U = sample_subset(sys_obj.ground, p, seed)
    stats = [("set_size", float(U.size), True)]
    if target == "count-concentration":
        if U.size == 0:
            stats.append(("normalized_count", 0.0, False))
            stats.append(("count_stderr", 0.0, True))
            return stats
        mu = make_measure(sys_obj.ground, U, "associated", p=p)
        value = count_functional(sys_obj, mu, mode="auto")
        ok = config.conc_lo <= value <= config.conc_hi
        stats.append(("normalized_count", float(value), ok))
        # the count is exact; the CSV schema keeps the column
        stats.append(("count_stderr", 0.0, True))
    elif target == "density":
        rep = adversary_free_subset(sys_obj, U, budget=config.budget)
        stats.append(("tuples_in_set", float(rep.tuples_in_U), True))
        stats.append(("free_density", float(rep.density),
                      rep.density >= config.density_threshold))
    elif target == "colouring":
        _, mono = adversary_colouring(sys_obj, U, config.colours,
                                      budget=config.budget, seed=seed)
        norm = mono / (p ** sys_obj.k * sys_obj.size)
        stats.append(("mono_count", float(mono), mono > 0))
        stats.append(("normalized_mono", float(norm), mono > 0))
    else:
        raise ValueError(f"unknown sweep target {target!r}")
    return stats


def _sweep_task(config_dict, c_index, trial):
    config = SweepConfig.from_json(config_dict)
    sys_obj = build_system(config.system)
    alpha = float(critical_exponent(sys_obj))
    C = float(config.c_grid[c_index])
    p = min(1.0, C * sys_obj.ground.size ** (-alpha))
    seed = stable_hash(config.seed, c_index, trial)
    t0 = time.perf_counter()
    stats = _trial_stats(sys_obj, config.target, p, seed, config)
    millis = (time.perf_counter() - t0) * 1000.0
    return {"c_index": c_index, "C": C, "p": p, "trial": trial, "seed": seed,
            "stats": stats, "millis": millis}


def run_sweep(config: SweepConfig):
    """All (C, trial) cells of the sweep; deterministic given the config.

    Returns (records sorted by (C index, trial), summary dict with per-C
    success frequencies and bootstrap confidence intervals).
    """
    sys_obj = build_system(config.system)
    alpha = float(critical_exponent(sys_obj))
    tasks = [(ci, t) for ci in range(len(config.c_grid))
             for t in range(config.trials)]
    config_dict = config.to_json()
    if config.threads > 1 and tasks:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            raw = list(pool.map(_sweep_task,
                                [config_dict] * len(tasks),
                                [ci for ci, _ in tasks],
                                [t for _, t in tasks]))
    else:
        raw = [_sweep_task(config_dict, ci, t) for ci, t in tasks]
    raw.sort(key=lambda r: (r["c_index"], r["trial"]))
    records = [ExperimentRecord(**r) for r in raw]
    per_c = []
    for ci, C in enumerate(config.c_grid):
        cell = [r for r in records if r.c_index == ci]
        succ = sum(1 for r in cell if r.ok)
        entry = {"C": float(C),
                 "p": cell[0].p if cell else min(
                     1.0, float(C) * sys_obj.ground.size ** (-alpha)),
                 "trials": len(cell), "successes": succ,
                 "frequency": succ / len(cell) if cell else None,
                 "ci95": _bootstrap_ci([r.ok for r in cell], config.seed, ci)}
        per_c.append(entry)
    summary = {"config": config.to_json(), "alpha_s": alpha,
               "n": sys_obj.ground.size, "system": _system_label(config.system),
               "per_C": per_c,
               "total_millis": sum(r.millis for r in records)}
    return records, summary


def _bootstrap_ci(flags, seed, c_index, resamples=1000):
    if not flags:
        return None
    rng = np.random.default_rng(stable_hash(seed, "bootstrap", c_index))
    arr = np.array(flags, dtype=float)
    draws = rng.integers(0, arr.size, size=(resamples, arr.size))
    freqs = arr[draws].mean(axis=1)
    return [float(np.percentile(freqs, 2.5)), float(np.percentile(freqs, 97.5))]


def _records_to_csv(records, summary, emit_timings):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    label = summary["system"]
    n = summary["n"]
    alpha = summary["alpha_s"]
    for r in records:
        for name, value, ok in r.stats:
            writer.writerow([
                label, n, repr(float(alpha)), repr(float(r.C)),
                repr(float(r.p)), r.trial, r.seed, name, repr(float(value)),
                "true" if ok else "false",
                str(int(r.millis)) if emit_timings else ""])
    return buf.getvalue()


# --- check targets --------------------------------------------------------

def run_check(target, args):
    """Dispatch to the verify/transfer/oracles modules; returns (report, ok)."""
    if target == "verify-system":
        return _check_system(args)
    if target == "properties":
        return _check_properties(args)
    if target == "conditions":
        return _check_conditions(args)
    if target == "dense-model":
        return _check_dense_model(args)
    if target == "oracle":
        return _check_oracle(args)
    raise ValueError(f"unknown check target {target!r}")


def _build_from_args(args):
    if args.system is None:
        raise ValueError("--system is required for this command")
    text = args.system
    if text.strip().startswith("{"):
        desc = json.loads(text)
    else:
        desc = {"kind": text}
    if args.n is not None:
        desc.setdefault("n", args.n)
    if args.k is not None:
        desc.setdefault("k", args.k)
    return build_system(desc)


def _check_system(args):
    sys_obj = _build_from_args(args)
    probes = args.probes
    small = sys_obj.size * sys_obj.k ** 2 <= 10 ** 6
    homo = verify_homogeneity(sys_obj, sample=None if small else probes,
                              seed=args.seed)
    mode = "exhaustive" if small else "sampled"
    two = verify_two_dof(sys_obj, mode=mode, samples=probes, seed=args.seed)
    prof = pair_profile(sys_obj, sample=None if small else probes,
                        seed=args.seed)
    ok = bool(homo.ok and two.ok and prof.uniform)
    report = {"system": sys_obj.descriptor(), "size": sys_obj.size,
              "homogeneous": bool(homo.ok), "fiber_sizes": homo.detail,
              "two_dof": bool(two.ok), "two_dof_mode": mode,
              "two_dof_detail": two.detail,
              "pair_profile": prof.to_json(), "ok": ok}
    if two.witness is not None:
        report["two_dof_witness"] = two.witness
    return report, ok


def _check_properties(args):
    sys_obj = _build_from_args(args)
    if args.p is None:
        raise ValueError("--p is required for properties")
    ens = sample_ensemble(sys_obj.ground, args.p, args.m, args.seed)
    which = tuple(int(w) for w in args.properties.split(","))
    reports = check_properties(sys_obj, ens, which=which, eta=args.eta,
                               tol0=args.tol, lam=args.lam,
                               x_samples=args.probes // 8 or 16,
                               seed=args.seed)
    ok = all(r.ok for r in reports)
    return {"system": sys_obj.descriptor(), "p": args.p, "m": args.m,
            "reports": [r.to_json() for r in reports], "ok": ok}, ok


def _check_conditions(args):
    sys_obj = _build_from_args(args)
    if args.p is None:
        raise ValueError("--p is required for conditions")
    reports = check_conditions(sys_obj, args.p, trials=args.trials or 1,
                               alpha=args.alpha, seed=args.seed)
    ok = all(r.ok for r in reports)
    return {"system": sys_obj.descriptor(), "p": args.p, "alpha": args.alpha,
            "reports": [r.to_json() for r in reports], "ok": ok}, ok


def _check_dense_model(args):
    sys_obj = _build_from_args(args)
    if args.p is None:
        raise ValueError("--p is required for dense-model")
    ens = sample_ensemble(sys_obj.ground, args.p, args.m, args.seed)
    fam = build_family(sys_obj, ens, args.family_size, seed=args.seed)
    mu = ens.averaged_measure()
    res = solve_dense_model(mu, fam, eps=args.eps)
    lemma = verify_counting_lemma(sys_obj, ens.measures(), res.g,
                                  eta=sys_obj.k * res.achieved_norm,
                                  seed=args.seed)
    ok = res.status == "optimal" and bool(lemma["ok"])
    if args.target_norm is not None:
        ok = ok and res.achieved_norm <= args.target_norm
    report = {"system": sys_obj.descriptor(), "p": args.p, "m": args.m,
              "family_size": len(fam), "achieved_norm": res.achieved_norm,
              "lp_status": res.status, "scaling": res.scaling,
              "counting": lemma,
              "ok": ok}
    return report, ok


def _parse_host(text):
    name, _, num = text.partition(":")
    if name == "complete":
        return HostGraph.complete(int(num))
    if name == "cycle":
        return HostGraph.cycle(int(num))
    raise ValueError(f"unknown host {text!r} (use complete:N or cycle:N)")


def _check_oracle(args):
    name = args.name
    if name == "pattern-stats":
        stats = pattern_stats(PatternHypergraph.from_json(args.pattern))
        return {"oracle": name, **stats.to_json(), "ok": True}, True
    if name == "extremal":
        value, witness = extremal_number(
            args.n, PatternHypergraph.from_json(args.pattern),
            budget=args.budget)
        return {"oracle": name, "value": value, "witness": witness,
                "ok": True}, True
    if name == "supersaturation":
        value = supersaturation_count(_parse_host(args.host),
                                      PatternHypergraph.from_json(args.pattern))
        return {"oracle": name, "value": value, "ok": True}, True
    if name == "ramsey":
        value, witness = ramsey_multiplicity(
            _parse_host(args.host), PatternHypergraph.from_json(args.pattern),
            args.r, mode=args.mode, budget=args.budget, seed=args.seed)
        return {"oracle": name, "value": value, "witness": witness,
                "ok": True}, True
    if name == "varnavides":
        sys_obj = _build_from_args(args)
        value, witness = varnavides_count(sys_obj, args.rho)
        return {"oracle": name, "value": value, "witness": witness,
                "ok": True}, True
    if name == "free-subset":
        sys_obj = _build_from_args(args)
        if args.p is None:
            raise ValueError("--p is required for free-subset")
        U = sample_subset(sys_obj.ground, args.p, args.seed)
        rep = adversary_free_subset(sys_obj, U, budget=args.budget)
        return {"oracle": name, **rep.to_json(), "ok": True}, True
    if name == "colouring":
        sys_obj = _build_from_args(args)
        if args.p is None:
            raise ValueError("--p is required for colouring")
        U = sample_subset(sys_obj.ground, args.p, args.seed)
        colouring, mono = adversary_colouring(sys_obj, U, args.r,
                                              budget=args.budget,
                                              seed=args.seed)
        return {"oracle": name, "mono_count": mono, "colouring": colouring,
                "ok": True}, True
    raise ValueError(f"unknown oracle {name!r}")


# --- argument parsing -----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message, "code": 2}), file=_sys.stderr)
        raise SystemExit(2)


def _add_common(sub):
    sub.add_argument("--system", help="system kind or JSON descriptor")
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--p", type=float)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default="json")
    sub.add_argument("--threads", type=int,
                     default=int(os.environ.get("LAB_THREADS", "1")))
    sub.add_argument("--budget", type=int, default=10 ** 6)


def make_parser():
    parser = _Parser(prog="sparselab",
                     description="sparse-set configuration laboratory")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-system", parents=[], help="fiber/two-dof/"
                        "pair-profile diagnostics")
    _add_common(p)
    p.add_argument("--probes", type=int, default=10 ** 4)

    p = subs.add_parser("properties", help="numbered property suite")
    _add_common(p)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--properties", default="0,1,2")
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--lam", type=float, default=0.1)
    p.add_argument("--probes", type=int, default=1024)

    p = subs.add_parser("conditions", help="single-density condition checks")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=1)

    p = subs.add_parser("sweep", help="threshold sweep over a C grid")
    _add_common(p)
    p.add_argument("--config", help="JSON config file (flags override)")
    p.add_argument("--c-grid", help="comma-separated C multipliers")
    p.add_argument("--trials", type=int)
    p.add_argument("--target", choices=["count-concentration", "density",
                                        "colouring"])
    p.add_argument("--rho", type=float, help="density threshold for the "
                   "density target")
    p.add_argument("--r", type=int, help="colour count for the colouring "
                   "target")
    p.add_argument("--emit-timings", action="store_true",
                   help="fill the millis column (breaks byte-identity)")

    p = subs.add_parser("dense-model", help="LP dense model + counting check")
    _add_common(p)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--family-size", type=int, default=128)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--target-norm", type=float)

    p = subs.add_parser("oracle", help="exact oracle queries")
    _add_common(p)
    p.add_argument("name", choices=["pattern-stats", "extremal",
                                    "supersaturation", "ramsey", "varnavides",
                                    "free-subset", "colouring"])
    p.add_argument("--pattern", default="K3")
    p.add_argument("--host", default="complete:5")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--mode", choices=["exhaustive", "heuristic"],
                   default="exhaustive")
    return parser


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
        if not text.endswith("\n"):
            _sys.stdout.write("\n")


def _sweep_command(args):
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    desc = base.get("system")
    if args.system is not None:
        text = args.system
        desc = json.loads(text) if text.strip().startswith("{") else \
            {"kind": text}
    if desc is None:
        raise ValueError("sweep needs --system or a config file")
    if args.n is not None:
        desc.setdefault("n", args.n)
    if args.k is not None:
        desc.setdefault("k", args.k)
    c_grid = base.get("c_grid")
    if args.c_grid is not None:
        c_grid = [float(v) for v in args.c_grid.split(",")]
    if not c_grid:
        raise ValueError("sweep needs --c-grid")
    config = SweepConfig(
        system=desc, c_grid=[float(c) for c in c_grid],
        trials=args.trials if args.trials is not None
        else base.get("trials", 10),
        seed=args.seed if args.seed is not None else base.get("seed", 0),
        target=args.target or base.get("target", "count-concentration"),
        density_threshold=args.rho if args.rho is not None
        else base.get("density_threshold", 0.9),
        colours=args.r if args.r is not None else base.get("colours", 2),
        budget=args.budget, threads=max(1, args.threads),
        emit_timings=bool(args.emit_timings))
    records, summary = run_sweep(config)
    if args.format == "csv":
        _emit(_records_to_csv(records, summary, config.emit_timings), args.out)
    else:
        payload = dict(summary)
        payload["records"] = [
            {"C": r.C, "p": r.p, "trial": r.trial, "seed": r.seed,
             "stats": [[n, v, bool(f)] for n, v, f in r.stats],
             "ok": r.ok} for r in records]
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        if args.command == "sweep":
            return _sweep_command(args)
        if args.seed is None:
            args.seed = 0
        report, ok = run_check(args.command, args)
        _emit(json.dumps(report, indent=2, sort_keys=True, default=str),
              args.out)
        return 0 if ok else 1
    except (ValueError, FileNotFoundError, json.JSONDecodeError,
            EnumerationGuardError) as exc:
        print(json.dumps({"error": str(exc), "code": 2}), file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

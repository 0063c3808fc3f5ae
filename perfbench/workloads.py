"""The four workloads: each is one real use of the experiment loop
(system -> sample -> verify -> dense model -> oracle cross-check) and each
loads a different layer.  See README.md beside this file for why each was
chosen and which layer metrics should move it.

A workload runs in rounds.  Round r draws fresh inputs from (seed, r) and
returns one Trial per result cell; the package is called only through the
attributes of its modules at call time, so traced runs see every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import check

AP = {"kind": "ap", "k": 3}


@dataclass
class Trial:
    key: str
    millis: float
    out: dict = field(default_factory=dict)
    error: str | None = None
    factor: float = 1.0     # scales millis to the reference machine


def _sweep(sl, n, c_grid, config_seed, target, r, trials=1, **extra):
    """One run_sweep call; returns its (C, trial) cells."""
    config = sl.cli.SweepConfig(system=dict(AP, n=n), c_grid=list(c_grid),
                                trials=trials, seed=config_seed, target=target,
                                threads=1, **extra)
    records, _ = sl.cli.run_sweep(config)
    cells = []
    for rec in records:
        out = {"config_seed": config_seed, "c_index": rec.c_index,
               "trial": rec.trial, "C": rec.C, "p": rec.p, "seed": rec.seed,
               "ok": bool(rec.ok)}
        for name, value, _ in rec.stats:
            out[name] = float(value)
        cells.append(Trial(f"{target}/r{r}/C{rec.C:g}/t{rec.trial}",
                           float(rec.millis), out))
    return cells


class SweepCount:
    name = "sweep-count"
    default_seed = 42
    sizes = {"full": {"n": 10007, "c_grid": [1.0, 2.0, 4.0, 8.0, 16.0]},
             "tiny": {"n": 1009, "c_grid": [1.0, 4.0]}}
    ref_fields = ["C", "p", "seed", "set_size", "normalized_count",
                  "count_stderr", "ok"]

    def __init__(self, size):
        self.size = size
        self.cfg = self.sizes[size]
        self.cells = len(self.cfg["c_grid"])

    def systems(self):
        return [dict(AP, n=self.cfg["n"])]

    def prepare(self, sl):
        pass

    def round(self, sl, seed, r):
        return _sweep(sl, self.cfg["n"], self.cfg["c_grid"],
                      check.stable_hash(seed, self.name, r),
                      "count-concentration", r)

    def check(self, trial):
        return check.check_count_cell(self.cfg["n"], trial.out)


class Adversary:
    name = "adversary"
    default_seed = 42
    # (target, C grid, trials) per round.  The cell types take about 130
    # (density, C=2), 290 (colouring) and 730 ms (density, C=4).  One, two
    # and two of them per round put trial_ms_p50 inside the colouring cells
    # and trial_ms_tail inside the C=4 density cells, several trials away
    # from the gaps between types, where a percentile jumps from run to run.
    sizes = {"full": {"n": 10007, "budget": 20000,
                      "sweeps": [("density", [2.0], 1), ("density", [4.0], 2),
                                 ("colouring", [2.0], 2)]},
             "tiny": {"n": 1009, "budget": 200,
                      "sweeps": [("density", [2.0], 1),
                                 ("colouring", [2.0], 1)]}}
    ref_fields = ["C", "p", "seed", "set_size", "tuples_in_set",
                  "free_density", "mono_count", "normalized_mono", "ok"]

    def __init__(self, size):
        self.size = size
        self.cfg = self.sizes[size]
        self.cells = sum(len(grid) * trials
                         for _, grid, trials in self.cfg["sweeps"])

    def systems(self):
        return [dict(AP, n=self.cfg["n"])]

    def prepare(self, sl):
        pass

    def round(self, sl, seed, r):
        # the default local-search budget of 10^6 evaluations runs to
        # exhaustion and takes tens of seconds per trial
        cells = []
        for target, grid, trials in self.cfg["sweeps"]:
            extra = ({"colours": 2, "budget": self.cfg["budget"]}
                     if target == "colouring" else {})
            cells += _sweep(sl, self.cfg["n"], grid,
                            check.stable_hash(seed, target, grid[0], r),
                            target, r, trials=trials, **extra)
        return cells

    def check(self, trial):
        if "mono_count" in trial.out:
            return check.check_colouring_cell(self.cfg["n"], trial.out)
        return check.check_density_cell(self.cfg["n"], trial.out)


class Properties:
    """Acceptance criterion 4: property suite 0/1/2 on Z_n at p = 8 n^-1/2."""

    name = "properties"
    default_seed = 777
    sizes = {"full": {"n": 10007, "x_samples": 96, "pair_budget": 12},
             "tiny": {"n": 2003, "x_samples": 8, "pair_budget": 2}}
    m = 4
    thresholds = (0.05, 0.1, 1.5)      # tol0, eta, threshold2
    ref_fields = ["seed", "sizes", "sums", "property0", "property1",
                  "property2", "ok0", "ok1", "ok2", "probe_values"]
    cells = 1

    def __init__(self, size):
        self.size = size
        self.cfg = self.sizes[size]
        self.p = 8 * self.cfg["n"] ** -0.5

    def systems(self):
        return [dict(AP, n=self.cfg["n"])]

    def prepare(self, sl):
        self.sys = sl.systems.build_system(self.systems()[0])

    def round(self, sl, seed, r):
        s = check.stable_hash(seed, "properties", r)
        tol0, eta, thr2 = self.thresholds
        t0 = time.perf_counter()
        ens = sl.sample.sample_ensemble(self.sys.ground, self.p, self.m, s)
        reports = sl.verify.check_properties(
            self.sys, ens, which=(0, 1, 2), eta=eta, tol0=tol0,
            threshold2=thr2, x_samples=self.cfg["x_samples"],
            pair_budget=self.cfg["pair_budget"], seed=s)
        millis = (time.perf_counter() - t0) * 1000.0
        out = {"seed": s, "sizes": [int(U.size) for U in ens.sets],
               "sums": [int(U.sum()) for U in ens.sets]}
        for i, rep in enumerate(reports):
            out[f"property{i}"] = float(rep.statistic)
            out[f"ok{i}"] = bool(rep.ok)
        # the property statistics hardly depend on the convolution values
        # (property 1 is 0 and property 2 depends only on |U_i|), so convolve
        # is also probed, untimed, with two non-constant measures at each j
        mus = ens.measures()
        out["probe_values"] = [
            float(v)
            for j, a, b, xs in check.conv_probe_args(self.cfg["n"], self.m, s)
            for v in sl.conv.convolve(self.sys, j, [mus[a - 1], mus[b - 1]],
                                      xs=xs).values]
        return [Trial(f"properties/r{r}", millis, out)]

    def check(self, trial):
        return check.check_properties(self.cfg["n"], self.p, self.m,
                                      self.thresholds, trial.out)


class Transfer:
    """Acceptance criterion 5: dense model and counting lemma on Z_101."""

    name = "transfer"
    default_seed = 555
    sizes = {"full": {"n": 101, "family": 256},
             "tiny": {"n": 31, "family": 16}}
    p = 0.3
    m = 4
    ref_fields = ["seed", "sizes", "sums", "members", "status",
                  "achieved_norm", "split_value", "count_value", "gap", "ok"]
    cells = 1

    def __init__(self, size):
        self.size = size
        self.cfg = self.sizes[size]

    def systems(self):
        return [dict(AP, n=self.cfg["n"])]

    def prepare(self, sl):
        self.sys = sl.systems.build_system(self.systems()[0])

    def round(self, sl, seed, r):
        s = check.stable_hash(seed, "transfer", r)
        sys_obj = self.sys
        t0 = time.perf_counter()
        ens = sl.sample.sample_ensemble(sys_obj.ground, self.p, self.m, s)
        fam = sl.transfer.build_family(sys_obj, ens, self.cfg["family"],
                                       seed=s)
        mu = ens.averaged_measure()
        res = sl.transfer.solve_dense_model(mu, fam)
        lemma = sl.transfer.verify_counting_lemma(
            sys_obj, ens.measures(), res.g, eta=sys_obj.k * res.achieved_norm,
            seed=s)
        millis = (time.perf_counter() - t0) * 1000.0
        # LP self-consistency, from the family the program built: the norm
        # recomputed from g, and the norm of the feasible constant model
        members = np.stack([f.dense() for f in fam.members])
        phi = members / sys_obj.ground.size
        target = mu.dense()
        g = res.g.dense()
        const = min(1.0, max(0.0, float(target.mean())))
        out = {"seed": s, "sizes": [int(U.size) for U in ens.sets],
               "sums": [int(U.sum()) for U in ens.sets],
               "members": len(fam), "status": res.status,
               "achieved_norm": float(res.achieved_norm),
               "norm_recomputed": float(np.abs(phi @ (target - g)).max()),
               "norm_constant": float(np.abs(phi @ (target - const)).max()),
               "g": [float(v) for v in g],
               # the members at a few points, for check.family_member_values
               "member_values": members[:, check.member_probe_xs(
                   sys_obj.ground.size, s)],
               "split_value": float(lemma["split_value"]),
               "count_value": float(lemma["count_value"]),
               "gap": float(lemma["gap"]), "ok": bool(lemma["ok"])}
        return [Trial(f"transfer/r{r}", millis, out)]

    def check(self, trial):
        return check.check_transfer(self.cfg["n"], self.p, self.m, 3,
                                    trial.out)


WORKLOADS = {w.name: w for w in (SweepCount, Properties, Transfer, Adversary)}

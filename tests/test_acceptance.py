"""End-to-end acceptance checks.

Each test prints one summary line (criterion N: PASS/FAIL) directly to the
terminal, then asserts.  Trial counts and tolerances are fixed; seeds are
frozen, so results are reproducible bit for bit.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sparselab.cli import SweepConfig, _records_to_csv, run_sweep
from sparselab.conv import count_functional
from sparselab.core import make_measure
from sparselab.oracles import (HostGraph, extremal_number, pattern_stats,
                               ramsey_multiplicity, supersaturation_count,
                               varnavides_count)
from sparselab.sample import sample_ensemble, stable_hash
from sparselab.systems import (PatternHypergraph, build_system, pair_profile,
                               verify_homogeneity, verify_two_dof)
from sparselab.transfer import (build_family, solve_dense_model,
                                verify_counting_lemma)
from sparselab.verify import (bernstein_bound, capped_excess_eta,
                              chernoff_bound, check_properties,
                              correlation_bound)


@pytest.fixture()
def report(capsys):
    """One visible pass/fail line per criterion, bypassing output capture."""
    def _report(num, ok, desc, elapsed=None):
        tag = "PASS" if ok else "FAIL"
        extra = f" ({elapsed:.1f}s)" if elapsed is not None else ""
        with capsys.disabled():
            print(f"criterion {num}: {tag} - {desc}{extra}", flush=True)
    return _report


def test_criterion_01_system_diagnostics(report):
    t0 = time.perf_counter()
    ok = True
    for n, exhaustive in ((101, True), (1009, False)):
        sys_obj = build_system(kind="ap", n=n, k=3)
        homo = verify_homogeneity(sys_obj)
        ok &= homo.ok
        ok &= set(map(tuple, homo.detail["fiber_sizes"].values())) == {(n - 1,)}
        if exhaustive:
            two = verify_two_dof(sys_obj, mode="exhaustive")
            prof = pair_profile(sys_obj)
        else:
            two = verify_two_dof(sys_obj, mode="sampled", samples=10 ** 4,
                                 seed=1)
            prof = pair_profile(sys_obj, sample=10 ** 4, seed=1)
        ok &= two.ok
        ok &= prof.uniform and prof.sigma == 1 and prof.t == n - 1
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 5.0,
            "AP system diagnostics (fibers, two-dof, pair profile)", elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_02_count_concentration(report):
    t0 = time.perf_counter()
    records, summary = run_sweep(SweepConfig(
        system={"kind": "ap", "n": 10007, "k": 3},
        c_grid=[8.0], trials=100, seed=42))
    successes = summary["per_C"][0]["successes"]
    elapsed = time.perf_counter() - t0
    ok = successes >= 95 and elapsed < 60.0
    report(2, ok, f"count concentration at C=8: {successes}/100 in [0.5,2]",
            elapsed)
    assert successes >= 95
    assert elapsed < 60.0


def test_criterion_03_subcritical_adversary(report):
    t0 = time.perf_counter()
    records, summary = run_sweep(SweepConfig(
        system={"kind": "ap", "n": 10007, "k": 3},
        c_grid=[0.1], trials=100, seed=42,
        target="density", density_threshold=0.9))
    successes = summary["per_C"][0]["successes"]
    elapsed = time.perf_counter() - t0
    ok = successes >= 90 and elapsed < 60.0
    report(3, ok, f"subcritical free-subset density >= 0.9: {successes}/100",
            elapsed)
    assert successes >= 90
    assert elapsed < 60.0


def test_criterion_04_property_suite(report):
    t0 = time.perf_counter()
    sys_obj = build_system(kind="ap", n=10007, k=3)
    p = 8 * 10007 ** -0.5
    tallies = [0, 0, 0]
    for t in range(100):
        seed = stable_hash(777, "properties", t)
        ens = sample_ensemble(sys_obj.ground, p, 4, seed)
        reports = check_properties(sys_obj, ens, which=(0, 1, 2), eta=0.1,
                                   tol0=0.05, threshold2=1.5, x_samples=96,
                                   pair_budget=12, seed=seed)
        for i, rep in enumerate(reports):
            tallies[i] += rep.ok
    elapsed = time.perf_counter() - t0
    ok = all(t >= 95 for t in tallies)
    report(4, ok, f"property suite 0/1/2: {tallies[0]}/{tallies[1]}/"
            f"{tallies[2]} of 100", elapsed)
    assert tallies[0] >= 95, "norm deviation (tol 0.05)"
    assert tallies[1] >= 95, "cap discrepancy (eta 0.1)"
    assert tallies[2] >= 95, "mixed sup (1.5)"


def test_criterion_05_counting_lemma_transfer(report):
    t0 = time.perf_counter()
    sys_obj = build_system(kind="ap", n=101, k=3)
    successes = 0
    for t in range(100):
        seed = stable_hash(555, "transfer", t)
        ens = sample_ensemble(sys_obj.ground, 0.3, 4, seed)
        fam = build_family(sys_obj, ens, 256, seed=seed)
        res = solve_dense_model(ens.averaged_measure(), fam)
        rep = verify_counting_lemma(sys_obj, ens.measures(), res.g,
                                    eta=sys_obj.k * res.achieved_norm,
                                    seed=seed)
        successes += rep["ok"]
    elapsed = time.perf_counter() - t0
    ok = successes >= 90 and elapsed < 600.0
    report(5, ok, f"counting-lemma transfer gap <= 4(k eta'): "
            f"{successes}/100", elapsed)
    assert successes >= 90
    assert elapsed < 600.0


def test_criterion_06_oracle_exactness(report):
    t0 = time.perf_counter()
    K3 = PatternHypergraph.complete(3)
    ex5, _ = extremal_number(5, K3)
    r6, _ = ramsey_multiplicity(HostGraph.complete(6), K3, 2)
    r5, _ = ramsey_multiplicity(HostGraph.complete(5), K3, 2)
    ap5 = build_system(kind="ap", n=5, k=3)
    free2, _ = varnavides_count(ap5, 2 / 5)
    forced3, _ = varnavides_count(ap5, 3 / 5)
    sup = supersaturation_count(HostGraph.complete(5), K3)
    elapsed = time.perf_counter() - t0
    values = (ex5, r6, r5, free2, forced3 > 0, sup)
    ok = values == (6, 2, 0, 0, True, 60) and elapsed < 60.0
    report(6, ok, f"oracle exactness ex/ramsey/varnavides/supersat = "
            f"{values}", elapsed)
    assert values == (6, 2, 0, 0, True, 60)
    assert elapsed < 60.0


def test_criterion_07_pattern_statistics(report):
    s3 = pattern_stats(PatternHypergraph.complete(3))
    s4 = pattern_stats(PatternHypergraph.complete(4))
    fano = pattern_stats(PatternHypergraph.fano())
    ok = (s3.m_k == Fraction(2)
          and s4.m_k == Fraction(5, 2)
          and s4.critical_exponent == Fraction(2, 5)
          and fano.m_k == Fraction(3, 2)
          and fano.critical_exponent == Fraction(2, 3))
    report(7, ok, "pattern densities m_2(K3)=2, m_2(K4)=5/2, m_3(Fano)=3/2")
    assert ok


def test_criterion_08_tail_calculators(report):
    exact = (
        abs(chernoff_bound(1, 0.5, 8) - 2 * math.exp(-1))
        <= 1e-12 * 2 * math.exp(-1)
        and abs(bernstein_bound(1, 1, 1) - math.exp(-0.375))
        <= 1e-12 * math.exp(-0.375)
        and abs(capped_excess_eta(1 / 14) - math.exp(-1) / 2)
        <= 1e-12 * math.exp(-1) / 2)
    grid = [0.1, 0.5, 1.0, 2.0]
    cher = [chernoff_bound(d, 0.3, 500) for d in grid]
    bern = [bernstein_bound(x, 1.0, 2.0) for x in grid]
    monotone = (cher == sorted(cher, reverse=True)
                and bern == sorted(bern, reverse=True))
    rng = np.random.default_rng(7)
    sizes = rng.binomial(1000, 0.2, size=10 ** 4)
    empirical = float(np.mean(sizes / 200 - 1.0 >= 0.1))
    dominated = empirical <= correlation_bound(0.1, 0.2, 1000, 1.0)
    ok = exact and monotone and dominated
    report(8, ok, "tail calculators exact to 1e-12, monotone, one-sided "
            "bound dominates Monte Carlo")
    assert exact and monotone and dominated


def test_criterion_09_sweep_determinism(report):
    config = dict(system={"kind": "ap", "n": 101, "k": 3},
                  c_grid=[0.5, 4.0], trials=5, seed=13)
    outputs = []
    for threads in (1, 2, 1):
        records, summary = run_sweep(SweepConfig(**config, threads=threads))
        outputs.append(_records_to_csv(records, summary, False))
    ok = outputs[0] == outputs[1] == outputs[2]
    report(9, ok, "sweep CSV byte-identical across reruns and thread counts")
    assert ok


def test_criterion_10_module_cross_agreement(report):
    rng = np.random.default_rng(12)
    checked = 0
    ok = True
    patterns = [PatternHypergraph.complete(3), PatternHypergraph.complete(4),
                PatternHypergraph.cycle(4)]
    for n in (5, 6, 7):
        hosts = [HostGraph.complete(n), HostGraph.cycle(n)]
        full = list(itertools.combinations(range(n), 2))
        keep = [e for e in full if rng.uniform() < 0.5]
        if keep:
            hosts.append(HostGraph.from_edges(n, keep))
        for K in patterns:
            if K.num_vertices > n:
                continue
            sys_obj = build_system(kind="copies", n=n, pattern=K)
            for host in hosts:
                direct = supersaturation_count(host, K)
                edges = [sys_obj.ground.index(e) for e in host.edges]
                f = make_measure(sys_obj.ground, edges, "characteristic")
                cnt = count_functional(sys_obj, f, mode="exact")
                scaled = cnt * sys_obj.size * (
                    len(edges) / sys_obj.ground.size) ** K.num_edges
                ok &= round(scaled) == direct and abs(scaled - direct) < 1e-6
                checked += 1
    report(10, ok, f"supersaturation == renormalized count functional on "
            f"{checked} host/pattern pairs")
    assert ok

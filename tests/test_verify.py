"""Tests for property/condition checks and tail bounds."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sparselab.sample import sample_ensemble
from sparselab.systems import build_system
from sparselab.verify import (
    BasicAntiUniform,
    bernstein_bound,
    capped_excess_eta,
    chernoff_bound,
    check_conditions,
    check_properties,
    correlation_bound,
    sample_anti_uniform,
)

# property and condition reports on ap, compared with exact float equality so
# that a change in the probes' rng draws shows; each case lists its inputs
FROZEN = json.loads((Path(__file__).parent / "frozen_reports.json").read_text())


# --- closed-form values ---------------------------------------------------

def test_chernoff_frozen_value():
    # delta=1, p=0.5, size=8: 2 exp(-1*0.5*8/4) = 2/e
    assert chernoff_bound(1.0, 0.5, 8) == pytest.approx(2.0 * math.exp(-1.0),
                                                        rel=1e-12)


def test_bernstein_frozen_value():
    # t=1, M=1, var=1: exp(-1/(2*(1+1/3))) = exp(-3/8)
    assert bernstein_bound(1.0, 1.0, 1.0) == pytest.approx(
        math.exp(-0.375), rel=1e-12)


def test_capped_excess_frozen_value():
    # alpha = 1/14: 7*(1/14)*exp(-1) = e^{-1}/2
    assert capped_excess_eta(1.0 / 14.0) == pytest.approx(
        0.5 * math.exp(-1.0), rel=1e-12)


def test_correlation_frozen_value():
    assert correlation_bound(0.1, 0.2, 1000, 1.0) == pytest.approx(
        math.exp(-0.01 * 0.2 * 1000 / 3.0), rel=1e-12)


def test_bound_validation():
    with pytest.raises(ValueError):
        chernoff_bound(-1, 0.5, 8)
    with pytest.raises(ValueError):
        chernoff_bound(1, 1.5, 8)
    with pytest.raises(ValueError):
        bernstein_bound(0, 1, 1)
    with pytest.raises(ValueError):
        correlation_bound(0.5, 0.2, 100, 0.4)   # needs C >= lam
    with pytest.raises(ValueError):
        capped_excess_eta(0)


def test_bounds_monotone():
    # larger deviations give smaller bounds
    grid = [0.1, 0.5, 1.0, 2.0]
    cher = [chernoff_bound(d, 0.3, 500) for d in grid]
    assert all(a > b for a, b in zip(cher, cher[1:]))
    bern = [bernstein_bound(t, 1.0, 2.0) for t in grid]
    assert all(a > b for a, b in zip(bern, bern[1:]))
    # capped excess shrinks with alpha
    ce = [capped_excess_eta(a) for a in [0.2, 0.1, 0.05, 0.01]]
    assert all(a > b for a, b in zip(ce, ce[1:]))


def test_correlation_bound_covers_binomial_tail():
    # psi == 1 (so C = 1): <mu - 1, psi> = |U|/(p|X|) - 1.  Compare the
    # one-sided bound with the empirical upper tail of the binomial law.
    n, p, lam = 1000, 0.2, 0.1
    rng = np.random.default_rng(7)
    sizes = rng.binomial(n, p, size=10 ** 4)
    empirical = float(np.mean(sizes / (p * n) - 1.0 >= lam))
    bound = correlation_bound(lam, p, n, 1.0)
    assert empirical <= bound
    # the bound should not be vacuous at these settings
    assert bound < 1.0


# --- property checks ------------------------------------------------------

def test_properties_all_pass_at_full_density():
    sys = build_system(kind="ap", n=101, k=3)
    ens = sample_ensemble(sys.ground, 1.0, 4, 0)
    reports = check_properties(sys, ens, which=(0, 1, 2, 3), seed=1)
    by_name = {r.name: r for r in reports}
    assert set(by_name) == {"property0", "property1", "property2", "property3"}
    # p = 1 makes every measure identically one, so everything is exact
    assert by_name["property0"].statistic == pytest.approx(0.0, abs=1e-12)
    assert by_name["property1"].statistic == pytest.approx(0.0, abs=1e-12)
    assert by_name["property2"].statistic == pytest.approx(1.0, abs=1e-12)
    assert by_name["property3"].statistic == pytest.approx(0.0, abs=1e-12)
    assert all(r.ok for r in reports)


def test_properties_random_density_deterministic():
    sys = build_system(kind="ap", n=101, k=3)
    ens = sample_ensemble(sys.ground, 0.4, 4, 5)
    a = check_properties(sys, ens, which=(0, 1, 2), tol0=0.2, eta=0.3, seed=9)
    b = check_properties(sys, ens, which=(0, 1, 2), tol0=0.2, eta=0.3, seed=9)
    for ra, rb in zip(a, b):
        assert ra.statistic == rb.statistic and ra.ok == rb.ok
    by_name = {r.name: r for r in a}
    assert by_name["property0"].ok
    assert len(by_name["property0"].witness["per_set_deviation"]) == 4
    assert by_name["property1"].detail["combos_checked"] <= 12
    # property 2 at j = k has no measure slots and equals 1 somewhere
    assert by_name["property2"].statistic >= 1.0


def test_property1_flags_heavy_overlap():
    # identical tiny sets make conv_1(mu, mu) spike far above the cap
    sys = build_system(kind="ap", n=101, k=3)
    ens = sample_ensemble(sys.ground, 0.05, 2, 3)
    # force both sets equal to exaggerate diagonal spikes
    ens.sets[1] = ens.sets[0]
    reports = check_properties(sys, ens, which=(1,), eta=1e-4, seed=0)
    assert not reports[0].ok
    assert reports[0].statistic > 1e-4
    assert "j" in reports[0].witness


def test_property3_with_indicators():
    sys = build_system(kind="ap", n=101, k=3)
    ens = sample_ensemble(sys.ground, 0.5, 3, 11)
    V = np.arange(0, 50)
    reports = check_properties(sys, ens, which=(3,), lam=2.0, p3_products=10,
                               p3_indicator_sets=[V], seed=2)
    assert reports[0].detail["with_indicators"]
    assert reports[0].ok
    assert reports[0].statistic < 2.0


@pytest.mark.parametrize("case", FROZEN["properties"],
                         ids=lambda c: f"n{c['n']}-k{c['k']}"
                         + ("-p3" if 3 in c["which"] else ""))
def test_property_reports_frozen(case):
    # n = 101 and 3-term n = 10007 (by FFT) take the exact branch, k = 4 at
    # n = 10007 the sampled one; the property-3 witness holds plain ints
    sys = build_system(kind="ap", n=case["n"], k=case["k"])
    ens = sample_ensemble(sys.ground, case["p"], case["m"], case["ens_seed"])
    reports = check_properties(sys, ens, which=tuple(case["which"]),
                               **case["kw"])
    got = json.loads(json.dumps([r.to_json() for r in reports]))
    assert got == case["reports"]


def test_anti_uniform_profile_validation():
    sys = build_system(kind="ap", n=101, k=3)
    ens = sample_ensemble(sys.ground, 0.5, 3, 0)
    with pytest.raises(ValueError):
        sample_anti_uniform(sys, ens, 1, (2, 2))
    with pytest.raises(ValueError):
        sample_anti_uniform(sys, ens, 2, (1, 2))   # wrong arity for j=2
    with pytest.raises(ValueError):
        sample_anti_uniform(sys, ens, 1, (1, 7))   # index out of range
    phi = sample_anti_uniform(sys, ens, 2, (3,), g_mode="constant",
                              g_value=1.0, seed=4)
    assert isinstance(phi, BasicAntiUniform)
    vals = phi.function.dense()
    assert vals.min() >= 0.0 and vals.max() <= 2.0
    assert phi.j == 2 and phi.indices == (3,)


# --- condition checks -----------------------------------------------------

def test_conditions_above_cutoff():
    # k=3 pair kernel: the cutoff for alpha=0.1 on Z_1009 sits near
    # (alpha * t)^{-1/2} ~ 0.0996; p = 0.2 is safely above it.
    sys = build_system(kind="ap", n=1009, k=3)
    reports = check_conditions(sys, p=0.2, trials=1, alpha=0.1, seed=0,
                               pair_samples=300)
    by_name = {r.name: r for r in reports}
    assert by_name["condition1"].ok
    assert by_name["condition1"].statistic <= 1.5
    assert by_name["condition2"].ok
    assert by_name["condition2"].detail["nonzero_kernels"] > 0


def test_conditions_below_cutoff():
    # p = 0.02 is far below the cutoff: any occupied kernel value 1/p
    # overshoots alpha * p * t, so the check must fail once one is seen.
    sys = build_system(kind="ap", n=1009, k=3)
    reports = check_conditions(sys, p=0.02, trials=1, alpha=0.1, seed=1,
                               pair_samples=400)
    by_name = {r.name: r for r in reports}
    assert by_name["condition2"].detail["nonzero_kernels"] > 0
    assert not by_name["condition2"].ok
    assert by_name["condition2"].statistic > 1.0
    assert by_name["condition2"].witness["W"] > 0


def test_condition2_frozen_report():
    # values recorded before t(x) moved from np.unique over a second fiber
    # build to a bincount over the one fiber the probe draws y from
    sys = build_system(kind="ap", n=1009, k=3)
    for p, seed, stat, witness, hits in [
            (0.2, 0, 0.24801587301587297,
             {"trial": 0, "x": 482, "y": 821, "W": 5.0, "t": 1008}, 55),
            (0.02, 1, 24.8015873015873,
             {"trial": 0, "x": 532, "y": 670, "W": 50.0, "t": 1008}, 4)]:
        rep = check_conditions(sys, p=p, trials=1, alpha=0.1, seed=seed,
                               pair_samples=300)[1]
        assert rep.statistic == stat
        assert rep.witness == witness
        assert rep.detail["nonzero_kernels"] == hits


@pytest.mark.parametrize("case", FROZEN["conditions"],
                         ids=lambda c: f"n{c['n']}-k{c['k']}")
def test_condition_reports_frozen(case):
    # with k = 3 a convolution with one constant slot barely depends on x;
    # k = 4 makes condition 1 depend on the probed points
    sys = build_system(kind="ap", n=case["n"], k=case["k"])
    reports = check_conditions(sys, case["p"], **case["kw"])
    got = json.loads(json.dumps([r.to_json() for r in reports]))
    assert got == case["reports"]


def test_condition2_skips_empty_fibers():
    # interval-ap: S_1(x) is empty for x >= n - 2, and t(x) = (n - 1 - x) // 2
    n = 11
    sys = build_system({"kind": "interval-ap", "n": n, "k": 3})
    rep = check_conditions(sys, 0.5, seed=1)[1]
    w = rep.witness
    assert rep.detail["nonzero_kernels"] > 0
    assert w["t"] == (n - 1 - w["x"]) // 2 > 0
    assert (w["y"] - w["x"]) % 2 == 0 and w["x"] < w["y"] < n

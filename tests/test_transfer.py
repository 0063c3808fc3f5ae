"""Tests for the dense-model machinery."""

import numpy as np
import pytest

from sparselab.conv import count_functional
from sparselab.core import WeightFunction, inner_product, lp_norm
from sparselab.sample import sample_ensemble
from sparselab.systems import build_system
from sparselab.transfer import (
    build_family,
    solve_dense_model,
    verify_counting_lemma,
)


def family_norm(h, family):
    """max over members of |<h, phi>|."""
    return float(np.abs(family.matrix() @ h.dense()).max()) / h.domain.size


@pytest.fixture(scope="module")
def ap101():
    return build_system(kind="ap", n=101, k=3)


@pytest.fixture(scope="module")
def ens101(ap101):
    return sample_ensemble(ap101.ground, 0.3, 4, 2024)


# --- family ---------------------------------------------------------------

def test_family_size_one_is_constant(ap101, ens101):
    fam = build_family(ap101, ens101, 1, seed=0)
    assert len(fam) == 1
    assert fam.descriptors[0] == {"kind": "constant"}
    assert np.all(fam.members[0].dense() == 1.0)


def test_family_members_bounded(ap101, ens101):
    fam = build_family(ap101, ens101, 64, seed=1)
    mat = fam.matrix()
    assert mat.shape == (64, 101)
    assert mat.min() >= 0.0 and mat.max() <= 2.0


def test_family_prefix_consistency(ap101, ens101):
    small = build_family(ap101, ens101, 40, seed=7)
    large = build_family(ap101, ens101, 90, seed=7)
    assert np.allclose(small.matrix(), large.matrix()[:40])
    pre = large.prefix(40)
    assert np.allclose(pre.matrix(), small.matrix())
    with pytest.raises(ValueError):
        large.prefix(0)


def test_family_indicator_members(ap101, ens101):
    V = np.arange(10, 40)
    fam = build_family(ap101, ens101, 8, sets=[V], seed=0)
    assert len(fam) == 9
    chi = fam.members[-1]
    assert fam.descriptors[-1]["kind"] == "indicator"
    # <f, chi_V> = (|V|/|X|) E_{x in V} f(x)
    rng = np.random.default_rng(0)
    f = WeightFunction(ap101.ground, values=rng.uniform(0, 2, 101))
    lhs = inner_product(f, chi)
    rhs = (V.size / 101) * f.dense()[V].mean()
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_antiuniform_norm_basics(ap101, ens101):
    fam = build_family(ap101, ens101, 32, seed=3)
    zero = WeightFunction.constant(ap101.ground, 0.0)
    assert family_norm(zero, fam) == 0.0
    rng = np.random.default_rng(5)
    h = WeightFunction(ap101.ground, values=rng.normal(size=101))
    norm = family_norm(h, fam)
    assert norm >= abs(np.mean(h.dense())) - 1e-12  # constant member
    assert norm <= 2.0 * lp_norm(h, 1) + 1e-12      # members capped at 2


def test_duality_convex_combinations(ap101, ens101):
    # any convex combination psi of members satisfies |<h, psi>| <= norm
    fam = build_family(ap101, ens101, 24, seed=4)
    rng = np.random.default_rng(9)
    mat = fam.matrix()
    for _ in range(20):
        w = rng.dirichlet(np.ones(len(fam)))
        psi = WeightFunction(ap101.ground, values=w @ mat)
        h = WeightFunction(ap101.ground, values=rng.normal(size=101))
        assert abs(inner_product(h, psi)) <= family_norm(h, fam) + 1e-10


# --- dense-model solve ----------------------------------------------------

def test_solve_bounded_input_exactly_representable(ap101, ens101):
    fam = build_family(ap101, ens101, 48, seed=2)
    rng = np.random.default_rng(3)
    f = WeightFunction(ap101.ground, values=rng.uniform(0, 1, 101))
    res = solve_dense_model(f, fam)
    assert res.status == "optimal"
    assert res.achieved_norm <= 1e-7
    g = res.g.dense()
    assert g.min() >= 0.0 and g.max() <= 1.0


def test_solve_rejects_negative_input(ap101, ens101):
    fam = build_family(ap101, ens101, 4, seed=0)
    f = WeightFunction(ap101.ground, values=np.full(101, -0.5))
    with pytest.raises(ValueError):
        solve_dense_model(f, fam)


def test_solve_sparse_measure_close_to_constant(ap101, ens101):
    # associated measure of a density-0.3 set has a dense model within 0.1,
    # cross-checked against a grid search over constant g.
    fam = build_family(ap101, ens101, 200, seed=6)
    mu = ens101.associated_measure(1)
    res = solve_dense_model(mu, fam)
    assert res.status == "optimal"
    assert res.achieved_norm <= 0.1
    best_const = min(
        family_norm(
            WeightFunction(ap101.ground, values=mu.dense() - c), fam)
        for c in np.linspace(0.0, 1.0, 201))
    assert res.achieved_norm <= best_const + 1e-9
    # expectations match to within the norm (constant-1 member)
    assert abs(np.mean(mu.dense()) - np.mean(res.g.dense())) <= \
        res.achieved_norm + 1e-9


def test_solve_optimum_monotone_in_family(ap101, ens101):
    big = build_family(ap101, ens101, 120, seed=8)
    mu = ens101.associated_measure(2)
    opts = []
    for size in [12, 40, 120]:
        res = solve_dense_model(mu, big.prefix(size))
        assert res.status == "optimal"
        opts.append(res.achieved_norm)
    assert opts[0] <= opts[1] + 1e-8
    assert opts[1] <= opts[2] + 1e-8


def test_solve_scaled_variant(ap101, ens101):
    fam = build_family(ap101, ens101, 32, seed=1)
    mu = ens101.associated_measure(3)
    res = solve_dense_model(mu, fam, eps=0.5)
    assert res.scaling == pytest.approx(2.0 / 3.0)
    direct = family_norm(
        WeightFunction(ap101.ground, values=mu.dense() * res.scaling
                       - res.g.dense()), fam)
    assert res.achieved_norm == pytest.approx(direct, abs=1e-12)


# --- counting lemma -------------------------------------------------------

def test_counting_lemma_identical_functions():
    sys = build_system(kind="ap", n=13, k=3)
    g = WeightFunction.constant(sys.ground, 0.5)
    report = verify_counting_lemma(sys, [g, g], g, eta=0.0)
    assert report["gap"] == pytest.approx(0.0, abs=1e-12)
    assert report["ok"]
    weaker = verify_counting_lemma(sys, [g, g], g, eta=0.5)
    assert weaker["threshold"] > report["threshold"]
    assert weaker["ok"]


def test_counting_lemma_dense_model_instance(ap101, ens101):
    fam = build_family(ap101, ens101, 128, seed=11)
    mu = ens101.averaged_measure()
    res = solve_dense_model(mu, fam)
    fs = ens101.measures()[:2]
    report = verify_counting_lemma(ap101, fs, res.g,
                                   eta=3 * res.achieved_norm)
    assert report["split_value"] >= 0.0
    assert report["count_value"] >= 0.0
    assert "gap" in report and "threshold" in report


def test_counting_lemma_benchmark_call(ap101, ens101):
    # the call the transfer benchmark workload makes, seed included
    fam = build_family(ap101, ens101, 64, seed=5)
    res = solve_dense_model(ens101.averaged_measure(), fam)
    eta = ap101.k * res.achieved_norm
    lemma = verify_counting_lemma(ap101, ens101.measures(), res.g, eta=eta,
                                  seed=5)
    assert {"split_value", "count_value", "gap", "ok"} <= lemma.keys()
    assert lemma["gap"] == abs(lemma["split_value"] - lemma["count_value"])
    assert lemma["threshold"] == 4 * eta
    assert lemma["ok"] == (lemma["gap"] <= 4 * eta)
    # counting is exact only: there is no sampled mode
    with pytest.raises(ValueError, match="unknown mode"):
        count_functional(ap101, res.g, mode="mc")

"""The reduced dense-model LP against the full two-rows-per-member LP.

solve_dense_model gives HiGHS the rows of each distinct member (first
occurrence, in member order) that the box bounds do not already satisfy.
Its g, optimum, iteration count and status must equal the full formulation
(bruteforce.ref_solve_dense_model) bit for bit, and achieved_norm must
still cover every member of the family.

On families built by build_family, HiGHS presolve still finds work in the
reduced LP, both solves end in the same postsolve, and they meet bit for
bit.  A hand-built mixed-sign family leaves presolve nothing to remove once
the redundant rows are gone, so HiGHS solves it without presolve and
postsolve: same iterations and status, but g agrees only to rounding
(within 5.4e-12 over 200 such families), so those cases take a tolerance.
"""

import numpy as np
import pytest

from sparselab.core import WeightFunction
from sparselab.sample import sample_ensemble
from sparselab.systems import APSystem
from sparselab.transfer import (AntiUniformFamily, build_family,
                                solve_dense_model)

from bruteforce import ref_solve_dense_model


@pytest.fixture(scope="module")
def ap101():
    return APSystem(101, 3)


def _assert_equal_to_reference(f, family, eps=0.0, atol=0.0):
    res = solve_dense_model(f, family, eps=eps)
    g, lp_opt, iterations, status, achieved = ref_solve_dense_model(
        f.dense(), family.matrix(), eps=eps)
    assert res.iterations == iterations
    assert res.status == status
    assert np.abs(res.g.dense() - g).max() <= atol
    assert abs(res.lp_optimum - lp_opt) <= atol
    assert abs(res.achieved_norm - achieved) <= atol
    return res


def _norm_over_all_members(f, family, res):
    Phi = family.matrix() / family.domain.size
    return float(np.abs(Phi @ (f.dense() * res.scaling - res.g.dense())).max())


def _mixed_sign_family(domain, seed):
    """Constant 1, mixed-sign rows, all-zero rows, an all-negative row and
    repeats of several of them, in an interleaved order."""
    rng = np.random.default_rng(seed)
    X = domain.size
    mixed = rng.normal(0.0, 1.0, size=(12, X))
    negative = -rng.uniform(0.0, 2.0, size=(1, X))
    rows = np.concatenate([np.ones((1, X)), mixed[:6], np.zeros((1, X)),
                           mixed[2:4], negative, mixed[6:], np.zeros((1, X)),
                           mixed[:1], negative])
    return AntiUniformFamily(domain, rows, [{"kind": "hand"}] * len(rows))


@pytest.mark.parametrize("seed", range(24))
def test_ap101_equals_full_lp(ap101, seed):
    ens = sample_ensemble(ap101.ground, 0.3, 4, seed)
    fam = build_family(ap101, ens, 256, seed=seed)
    assert np.unique(fam.matrix(), axis=0).shape[0] < len(fam)
    _assert_equal_to_reference(ens.averaged_measure(), fam)


def test_ap1009_equals_full_lp():
    sys = APSystem(1009, 3)
    ens = sample_ensemble(sys.ground, 0.3, 4, 5)
    _assert_equal_to_reference(ens.averaged_measure(),
                               build_family(sys, ens, 256, seed=5))


def test_indicator_members_with_slack_equal_full_lp(ap101):
    ens = sample_ensemble(ap101.ground, 0.3, 4, 77)
    fam = build_family(ap101, ens, 64, sets=list(ens.sets) + [ens.sets[0]],
                       seed=77)
    _assert_equal_to_reference(ens.averaged_measure(), fam, eps=0.05)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_sign_family_equals_full_lp(ap101, seed):
    fam = _mixed_sign_family(ap101.ground, seed)
    rng = np.random.default_rng(100 + seed)
    f = WeightFunction(ap101.ground, values=rng.uniform(0.0, 2.0, 101))
    res = _assert_equal_to_reference(f, fam, atol=1e-9)
    assert res.achieved_norm == _norm_over_all_members(f, fam, res)


@pytest.mark.parametrize("value", [0.0, 1.0, 2.0],
                         ids=["zero", "one", "two"])
def test_constant_target_equals_full_lp(ap101, value):
    # every member is nonnegative, so f = 0 leaves no lower row that can
    # bind, and f = 1 or 2 no upper row
    ens = sample_ensemble(ap101.ground, 0.3, 4, 9)
    fam = build_family(ap101, ens, 128, seed=9)
    f = WeightFunction.constant(ap101.ground, value)
    res = _assert_equal_to_reference(f, fam)
    assert res.achieved_norm == _norm_over_all_members(f, fam, res)


def test_no_row_can_bind(ap101):
    # all-zero members satisfy both rows for every g: the solver gets none
    fam = AntiUniformFamily(ap101.ground, np.zeros((3, 101)),
                            [{"kind": "hand"}] * 3)
    f = WeightFunction(ap101.ground, values=np.linspace(0.0, 2.0, 101))
    res = _assert_equal_to_reference(f, fam)
    assert res.status == "optimal"
    assert res.lp_optimum == 0.0 and res.achieved_norm == 0.0


def test_norm_covers_members_with_no_kept_row(ap101):
    # members 2 and 4 repeat members 0 and 1, and the all-zero member 3
    # has no row; the norm is still the maximum over all five
    fam = _mixed_sign_family(ap101.ground, 3)
    rows = fam.matrix()[[0, 1, 0, 7, 1]]
    fam = AntiUniformFamily(ap101.ground, rows, [{"kind": "hand"}] * 5)
    f = WeightFunction(ap101.ground, values=np.linspace(0.0, 2.0, 101))
    res = _assert_equal_to_reference(f, fam, atol=1e-9)
    assert res.family_size == 5
    assert res.achieved_norm == _norm_over_all_members(f, fam, res)

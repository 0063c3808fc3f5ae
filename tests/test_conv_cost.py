"""Tests of conv.convolution_cost, the one cost model behind every guard on
a convolution and behind verify's choice of full-X over sampled probes.

Each guard must raise exactly when the cost of the evaluator that runs
exceeds the guard's limit, on a system where convolve takes the FFT (3-term
ap over odd n) and on systems where it always gathers (ap k = 4, polyap).
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest

from sparselab import conv, verify
from sparselab.conv import (_fiber_means, convolution_cost, convolve,
                            count_functional, split_capped_count)
from sparselab.core import WeightFunction
from sparselab.sample import derive_seed, sample_ensemble
from sparselab.systems import (APSystem, EnumerationGuardError,
                               PolyAPSystem)
from sparselab.verify import (EXACT_FULL_GUARD, anti_uniform_matrix,
                              check_conditions, check_properties)

SYSTEMS = [APSystem(101, 3), APSystem(101, 4), PolyAPSystem(101, 3, 2)]
IDS = ["ap-k3-fft", "ap-k4", "polyap"]


def test_cost_is_the_cheaper_evaluator():
    sys = APSystem(1009, 3)
    X = sys.ground.size
    for npoints, rows in [(1, 1), (13, 1), (14, 1), (X, 1), (5, 64)]:
        gather = rows * npoints * sys.fiber_size(1)
        fft = conv.FFT_FIXED + rows * conv.FFT_COST * X * math.log2(X)
        work, use_fft = convolution_cost(sys, 1, npoints, rows)
        assert use_fft == (gather > fft)
        assert work == (math.ceil(fft) if use_fft else gather)
        assert convolution_cost(sys, 1, npoints, rows,
                                gather_only=True) == (gather, False)
    for other in SYSTEMS[1:] + [APSystem(100, 3, require_prime=False)]:
        gather = 7 * other.ground.size * other.fiber_size(2)
        assert convolution_cost(other, 2, other.ground.size, 7) == (gather,
                                                                    False)


@pytest.mark.parametrize("n, rows, switch", [(101, 1, 38), (1009, 1, 14),
                                             (10007, 1, 15), (101, 256, 8)])
def test_fft_switch_points(n, rows, switch):
    sys = APSystem(n, 3)
    for j in (1, 2, 3):
        assert not convolution_cost(sys, j, switch - 1, rows)[1]
        assert convolution_cost(sys, j, switch, rows)[1]


def _raises_iff_over(call, limit_name, module, work, match=None):
    """call() passes with the limit at work and raises one below it."""
    with mock.patch.object(module, limit_name, work):
        call()
    with mock.patch.object(module, limit_name, work - 1):
        with pytest.raises((EnumerationGuardError, ValueError), match=match):
            call()


@pytest.mark.parametrize("sys", SYSTEMS, ids=IDS)
def test_full_convolution_guard_reads_one_row(sys):
    X = sys.ground.size
    args = [np.ones((3, X))] * (sys.k - 1)     # three stacked rows
    for j in range(1, sys.k + 1):
        work, use_fft = convolution_cost(sys, j, X)
        assert use_fft == (sys.k == 3 and isinstance(sys, APSystem))
        _raises_iff_over(lambda: convolve(sys, j, args), "ENUM_GUARD", conv,
                         work, match=f"needs {work} rows")


@pytest.mark.parametrize("sys", SYSTEMS, ids=IDS)
def test_split_count_guard_reads_every_row(sys):
    X = sys.ground.size
    rng = np.random.default_rng(1)
    fs = [rng.uniform(0.0, 2.0, X) for _ in range(3)]
    work = convolution_cost(sys, 1, X, rows=3 ** (sys.k - 1))[0]
    assert work > convolution_cost(sys, 1, X)[0]
    _raises_iff_over(lambda: split_capped_count(sys, fs), "ENUM_GUARD", conv,
                     work, match=f"needs {work} rows")


@pytest.mark.parametrize("sys", SYSTEMS, ids=IDS)
def test_exact_count_guard_reads_the_gathered_support_rows(sys):
    # the exact count always gathers, even where convolve would take the FFT
    supp = np.arange(0, sys.ground.size, 2)
    f = WeightFunction.indicator(sys.ground, supp)
    work = supp.size * sys.fiber_size(1)
    assert convolution_cost(sys, 1, supp.size, gather_only=True) == (work,
                                                                     False)
    _raises_iff_over(lambda: count_functional(sys, f, mode="exact"),
                     "ENUM_GUARD", conv, work)
    # auto: with the limit below |U|^2 k the support rule is out, and the
    # exact branch is taken exactly when its gather rows fit; below that,
    # 3-term ap counts by the FFT while one full-X row of it fits, and
    # every other system raises
    assert supp.size ** 2 * sys.k > work
    want = count_functional(sys, f, mode="exact")
    with mock.patch.object(conv, "ENUM_GUARD", work):
        assert count_functional(sys, f) == want
    fft_work, fft = convolution_cost(sys, 1, sys.ground.size)
    assert fft == (sys.k == 3 and isinstance(sys, APSystem))
    if fft:
        with mock.patch.object(conv, "ENUM_GUARD", work - 1):
            assert count_functional(sys, f) == pytest.approx(want, rel=1e-12)
    with mock.patch.object(conv, "ENUM_GUARD", min(work, fft_work) - 1):
        with pytest.raises(EnumerationGuardError, match="both exceed the guard"):
            count_functional(sys, f)


@pytest.mark.parametrize("sys", SYSTEMS, ids=IDS)
def test_full_x_probe_choice_reads_the_cost(sys):
    X = sys.ground.size
    work = convolution_cost(sys, 1, X)[0]
    ens = sample_ensemble(sys.ground, 0.3, 3, 2)
    profile = [(1, tuple(range(1, sys.k)), "constant", 1.0, "full", 0)]
    _raises_iff_over(lambda: anti_uniform_matrix(sys, ens, profile),
                     "EXACT_FULL_GUARD", verify, work)

    def modes(limit):
        with mock.patch.object(verify, "EXACT_FULL_GUARD", limit):
            props = check_properties(sys, ens, which=(1, 2), x_samples=4,
                                     pair_budget=2, seed=3)
            conds = check_conditions(sys, 0.3, x_samples=4, pair_samples=2)
        return [r.detail["mode"] for r in props + conds[:1]]

    assert modes(work) == ["exact"] * 3
    assert modes(work - 1) == ["sampled_x"] * 3
    # property 3 is refused exactly when the full-X evaluation is
    _raises_iff_over(
        lambda: check_properties(sys, ens, which=(3,), p3_products=1),
        "EXACT_FULL_GUARD", verify, work)


def _all_x(sys, j, arrs):
    return _fiber_means(sys, j, arrs, np.arange(sys.ground.size))


def test_exact_mode_at_n2003_matches_the_gather_over_all_x():
    # one full-X gather here is 2003 * 2002 rows, over EXACT_FULL_GUARD; the
    # FFT is far under it, so the probes now run on all of X
    sys = APSystem(2003, 3)
    X = sys.ground.size
    assert convolution_cost(sys, 1, X, gather_only=True)[0] > EXACT_FULL_GUARD
    assert convolution_cost(sys, 1, X)[1]
    k, m, p = 3, 3, 0.05
    ens = sample_ensemble(sys.ground, p, m, 8)
    mus = [mu.dense() for mu in ens.measures()]
    ones = np.ones(X)
    combos = [(j, t) for j in range(1, k + 1)
              for t in itertools.permutations(range(m), k - 1)]
    p1, p2 = check_properties(sys, ens, which=(1, 2), pair_budget=len(combos),
                              seed=4)
    assert p1.detail["mode"] == p2.detail["mode"] == "exact"
    assert p1.statistic > 0
    want1 = max(np.maximum(_all_x(sys, j, [mus[i] for i in t]) - conv.CAP,
                           0.0).mean() for j, t in combos)
    assert p1.statistic == pytest.approx(want1, rel=1e-9, abs=1e-12)
    want2 = max(_all_x(sys, j, [ones] * (j - 1) + [mus[i] for i in t]).max()
                for j in range(2, k + 1)
                for t in itertools.permutations(range(m), k - j))
    assert p2.statistic == pytest.approx(want2, rel=1e-12)

    c1 = check_conditions(sys, p, trials=2, pair_samples=1, seed=6)[0]
    assert c1.detail["mode"] == "exact"
    want = 0.0
    for trial in range(2):
        cmus = [mu.dense() for mu in sample_ensemble(
            sys.ground, p, k, derive_seed(6, "cond", trial)).measures()]
        for j in range(1, k + 1):
            positions = [i for i in range(1, k + 1) if i != j]
            for measured in positions:      # one measure, one constant slot
                args = [cmus[i - 1] if i == measured else ones
                        for i in positions]
                want = max(want, _all_x(sys, j, args).max())
    assert c1.statistic == pytest.approx(want, rel=1e-12)

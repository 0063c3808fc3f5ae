"""Tests of the FFT evaluator for 3-term progressions in conv.

convolve hands ap k = 3 over odd n to conv._fft_means when
conv.convolution_cost finds the gather would read more fiber rows than
FFT_FIXED + FFT_COST * X log2 X per row.  The FFT values are checked
against the gather engine and against the definition of conv_j written out
from brute-force fibers; the routing rule is checked on both sides.  The
memo of WeightFunction spectra must leave every value bit-identical, die
with its functions, and cut a property round's forward transforms; the FFT
count must agree with the exact count and with brute force.
"""

import gc
from unittest import mock

import numpy as np
import pytest

from sparselab import conv
from sparselab.conv import (_fft_count, _fft_means, _fiber_means,
                            capped_convolve, convolution_cost, convolve,
                            count_functional)
from sparselab.core import WeightFunction, make_measure
from sparselab.sample import derive_seed, sample_ensemble
from sparselab.systems import APSystem, PolyAPSystem
from sparselab.verify import check_properties

from bruteforce import brute_aps, brute_convolution, brute_count


def _arrays(sys, seed):
    """A dense function and a sparse measure-like one (1/p on a p-set)."""
    rng = np.random.default_rng(seed)
    n = sys.ground.size
    dense = rng.uniform(0.0, 3.0, n)
    sparse = np.where(rng.uniform(size=n) < 0.2, 5.0, 0.0)
    return [dense, sparse]


def _definition(n, j, arrs, x, allow_d0):
    """conv_j at x from the fiber {(y, y+d, y+2d) : y + (j-1)d = x}."""
    ds = range(0 if allow_d0 else 1, n)
    fiber = [tuple((x + (i - j + 1) * d) % n for i in range(3)) for d in ds]
    slots = [i for i in (1, 2, 3) if i != j]
    funcs = {i: dict(enumerate(a.tolist())) for i, a in zip(slots, arrs)}
    return brute_convolution(fiber, j, funcs, x)


def _close(got, want, arrs):
    scale = max(1.0, float(arrs[0].max() * arrs[1].max()))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * scale)


@pytest.mark.parametrize("allow_d0", [False, True], ids=["d!=0", "d0"])
@pytest.mark.parametrize("n", [11, 101, 1009, 10007, 105])
def test_fft_matches_gather_and_definition(n, allow_d0):
    # 105 = 3 * 5 * 7: an odd composite ground set
    sys = APSystem(n, 3, allow_d0=allow_d0, require_prime=n != 105)
    arrs = _arrays(sys, n)
    funcs = [WeightFunction(sys.ground, values=a) for a in arrs]
    rng = np.random.default_rng(n)
    xs = None if n <= 1009 else rng.integers(0, n, size=64)
    points = np.arange(n) if xs is None else xs
    for j in (1, 2, 3):
        # n = 11 sits below the fixed cost of the rule: convolve gathers,
        # and the FFT values are checked on their own
        assert convolution_cost(sys, j, points.size)[1] == (n != 11)
        fft = _fft_means(sys, j, arrs, points)
        gather = _fiber_means(sys, j, arrs, points)
        got = convolve(sys, j, funcs, xs=xs).values
        assert np.array_equal(got, fft if n != 11 else gather)
        _close(fft, gather, arrs)
        for t in rng.integers(0, points.size, size=6):
            x = int(points[t])
            assert fft[t] == pytest.approx(
                _definition(n, j, arrs, x, allow_d0), rel=1e-12, abs=1e-12)


def test_fft_sampled_points_with_repeats_and_empty():
    sys = APSystem(101, 3)
    arrs = _arrays(sys, 7)
    funcs = [WeightFunction(sys.ground, values=a) for a in arrs]
    xs = np.array([5, 5, 100, 0, 5, 37] * 8)
    for j in (1, 2, 3):
        assert convolution_cost(sys, j, xs.size)[1]
        res = convolve(sys, j, funcs, xs=xs)
        assert res.values.shape == xs.shape
        assert np.array_equal(res.at, xs)
        full = convolve(sys, j, funcs).values
        assert np.array_equal(res.values, full[xs])
        _close(res.values, _fiber_means(sys, j, arrs, xs), arrs)
        empty = convolve(sys, j, funcs, xs=[])
        assert empty.values.shape == (0,) and empty.at.shape == (0,)


def test_fft_path_still_rejects_points_out_of_range():
    sys = APSystem(101, 3)
    f = WeightFunction.constant(sys.ground, 1.0)
    many = list(range(60))
    assert convolution_cost(sys, 1, len(many) + 1)[1]
    for bad in (-1, -101, 101):
        with pytest.raises(ValueError, match="out of range"):
            convolve(sys, 1, [f, f], xs=many + [bad])


@pytest.mark.parametrize("sys", [APSystem(100, 3, require_prime=False),
                                 APSystem(101, 4), PolyAPSystem(101, 3, 2)],
                         ids=["ap-even-n", "ap-k4", "polyap"])
def test_other_systems_stay_on_the_gather(sys):
    rng = np.random.default_rng(3)
    arrs = [rng.uniform(0.0, 3.0, sys.ground.size) for _ in range(sys.k - 1)]
    funcs = [WeightFunction(sys.ground, values=a) for a in arrs]
    points = np.arange(sys.ground.size)
    with mock.patch.object(conv, "_fft_means", side_effect=AssertionError):
        for j in range(1, sys.k + 1):
            assert not convolution_cost(sys, j, points.size)[1]
            got = convolve(sys, j, funcs).values
            assert np.array_equal(got, _fiber_means(sys, j, arrs, points))


def test_few_points_at_large_n_stay_on_the_gather():
    sys = APSystem(10007, 3)
    arrs = _arrays(sys, 10007)
    funcs = [WeightFunction(sys.ground, values=a) for a in arrs]
    xs = np.random.default_rng(1).integers(0, sys.n, size=8)
    with mock.patch.object(conv, "_fft_means", side_effect=AssertionError):
        for j in (1, 2, 3):
            got = convolve(sys, j, funcs, xs=xs).values
            assert np.array_equal(got, _fiber_means(sys, j, arrs, xs))


def test_capped_convolve_clips_round_off_at_exact_zeros():
    # conv_j of the measure of {0..9} in Z_101 is exactly 0 wherever no
    # progression through x has its other two entries in the set
    sys = APSystem(101, 3)
    mu = make_measure(sys.ground, range(10), "characteristic")
    arrs = [mu.dense()] * 2
    points = np.arange(sys.n)
    for j in (1, 2, 3):
        exact = _fiber_means(sys, j, arrs, points)
        zeros = exact == 0.0
        assert zeros.sum() > 50
        got = capped_convolve(sys, j, [mu, mu]).values
        assert got.min() >= 0.0 and got.max() <= conv.CAP
        assert np.all(got[zeros] <= 1e-12)
        _close(got, np.minimum(exact, conv.CAP), arrs)


def test_smooth_length_is_the_least_5_smooth_bound():
    def smooth(L):
        for p in (2, 3, 5):
            while L % p == 0:
                L //= p
        return L == 1

    for m in range(1, 3000):
        want = next(L for L in range(m, 2 * m + 1) if smooth(L))
        assert conv._smooth_length(m) == want


# --- the memo of forward transforms ------------------------------------

@pytest.mark.parametrize("n", [101, 10007])
def test_memoised_spectra_leave_values_bit_identical(n):
    sys = APSystem(n, 3)
    arrs = _arrays(sys, n + 1)
    funcs = [WeightFunction(sys.ground, values=a) for a in arrs]
    for j in (1, 2, 3):
        assert convolution_cost(sys, j, n)[1]
        first = convolve(sys, j, funcs).values
        assert funcs[0] in conv._SPECTRA and funcs[1] in conv._SPECTRA
        again = convolve(sys, j, funcs).values
        fresh = convolve(sys, j, [WeightFunction(sys.ground, values=a)
                                  for a in arrs]).values
        raw = convolve(sys, j, arrs).values
        assert np.array_equal(again, first)
        assert np.array_equal(fresh, first)
        assert np.array_equal(raw, first)
    # one spectrum per argument and dilation: plain (j = 2), halved, negated
    assert set(conv._SPECTRA[funcs[0]]) == {None, "half", "neg"}


def test_memo_dies_with_its_functions():
    sys = APSystem(101, 3)
    gc.collect()
    before = len(conv._SPECTRA)
    funcs = [WeightFunction(sys.ground, values=a) for a in _arrays(sys, 5)]
    for j in (1, 2, 3):
        convolve(sys, j, funcs)
    assert len(conv._SPECTRA) == before + 2
    del funcs
    gc.collect()
    assert len(conv._SPECTRA) == before


def test_property_round_transforms_each_measure_once_per_dilation():
    # the properties benchmark inputs: 17 full-X convolutions of 4 measures
    # and the constant, which hold at most 4 * 3 + 3 distinct spectra
    sys = APSystem(10007, 3)
    for r in range(3):
        ens = sample_ensemble(sys.ground, 8 * sys.n ** -0.5, 4,
                              derive_seed(777, "properties", r))
        with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as fwd, \
                mock.patch.object(np.fft, "irfft", wraps=np.fft.irfft) as inv:
            check_properties(sys, ens, which=(0, 1, 2), pair_budget=12,
                             seed=r)
        assert fwd.call_count <= 15
        assert inv.call_count == 17


# --- the FFT count -------------------------------------------------------

@pytest.mark.parametrize("n", [101, 1009])
def test_fft_count_matches_the_exact_count(n):
    sys = APSystem(n, 3)
    for f in [WeightFunction(sys.ground, values=a) for a in _arrays(sys, n)]:
        want = count_functional(sys, f, mode="exact")
        assert _fft_count(sys, f) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("allow_d0", [False, True], ids=["d!=0", "d0"])
def test_fft_count_matches_brute_force(allow_d0):
    sys = APSystem(13, 3, allow_d0=allow_d0)
    rng = np.random.default_rng(17)
    arr = np.where(rng.uniform(size=13) < 0.6, rng.uniform(0.5, 2.0, 13), 0.0)
    want = brute_count(brute_aps(13, 3, allow_d0),
                       dict(enumerate(arr.tolist())))
    got = _fft_count(sys, WeightFunction(sys.ground, values=arr))
    assert got == pytest.approx(want, rel=1e-12)


def test_auto_count_takes_the_fft_only_past_both_guards():
    # a full support at n = 10007: 10^8 exact rows and 3 * 10^8 support
    # completions are over ENUM_GUARD, one FFT row is not
    sys = APSystem(10007, 3)
    ones = WeightFunction.constant(sys.ground, 1.0)
    assert count_functional(sys, ones) == pytest.approx(1.0, rel=1e-12)
    f = WeightFunction(sys.ground, values=_arrays(sys, 3)[0])
    with mock.patch.object(conv, "_fft_count", wraps=_fft_count) as fft:
        assert count_functional(sys, f) == _fft_count(sys, f)
        # a small support stays in support mode
        sparse = make_measure(sys.ground, range(0, sys.n, 10),
                              "characteristic")
        count_functional(sys, sparse)
    assert fft.call_count == 1

"""The one-pass anti-uniform family build against the per-member loop.

build_family draws every member's profile first, takes all random subsets
from one seed-batched uniform01 call and makes each position j with one
capped convolution of stacked arguments.  Its matrix, descriptors and
provenance must equal the per-member loop it replaced
(bruteforce.ref_build_family) bit for bit, on the FFT side of the cost rule
(ap, k = 3, odd n) and on the gather side (polyap, even n, k = 4).
"""

import numpy as np
import pytest

import sparselab as sl
from sparselab import conv
from sparselab.conv import capped_convolve, split_capped_count
from sparselab.core import inner_product
from sparselab.sample import derive_seed, sample_ensemble, uniform01
from sparselab.systems import APSystem, PolyAPSystem
from sparselab.transfer import build_family
from sparselab.verify import sample_anti_uniform

from bruteforce import ref_build_family


def _ensemble(sys, seed):
    return sample_ensemble(sys.ground, 0.3, 4, 1000 + seed)


def _assert_equal_to_reference(sys, ens, size, seed, sets=None):
    fam = build_family(sys, ens, size, sets=sets, seed=seed)
    matrix, descriptors, provenance = ref_build_family(sl, sys, ens, size,
                                                       sets=sets, seed=seed)
    assert np.array_equal(fam.matrix(), matrix)
    assert fam.descriptors == descriptors
    assert fam.provenance == provenance
    assert len(fam) == len(fam.members) == matrix.shape[0]
    return fam


@pytest.mark.parametrize("size", [1, 33, 34, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_family_equals_per_member_loop_fft_side(size, seed):
    # 33 is the constant plus every structured profile for k = 3, m = 4;
    # 34 adds the first random profile
    sys = APSystem(101, 3)
    assert conv.convolution_cost(sys, 1, sys.n)[1]
    _assert_equal_to_reference(sys, _ensemble(sys, seed), size, seed)


@pytest.mark.parametrize("size", [34, 256])
def test_family_equals_per_member_loop_at_n1009(size):
    sys = APSystem(1009, 3)
    _assert_equal_to_reference(sys, _ensemble(sys, 5), size, 5)


@pytest.mark.parametrize("sys", [PolyAPSystem(101, 3, 2),
                                 APSystem(100, 3, require_prime=False),
                                 APSystem(101, 4)],
                         ids=["polyap", "ap-even-n", "ap-k4"])
def test_family_equals_per_member_loop_gather_side(sys):
    assert not conv.convolution_cost(sys, 1, sys.ground.size, 256)[1]
    for seed in (3, 4):
        _assert_equal_to_reference(sys, _ensemble(sys, seed), 80, seed)


def test_family_with_sets_equals_per_member_loop():
    sys = APSystem(101, 3)
    sets = [np.arange(10, 40), np.array([3, 50, 99])]
    fam = _assert_equal_to_reference(sys, _ensemble(sys, 6), 40, 6,
                                     sets=sets)
    assert len(fam) == 42


def test_family_prefix_agrees_bit_for_bit():
    sys = APSystem(101, 3)
    ens = _ensemble(sys, 7)
    small = build_family(sys, ens, 40, seed=7)
    large = build_family(sys, ens, 200, seed=7)
    assert np.array_equal(small.matrix(), large.matrix()[:40])
    assert small.descriptors == large.descriptors[:40]
    assert np.array_equal(large.prefix(40).matrix(), small.matrix())


@pytest.mark.parametrize("rows", [1, 7])
def test_family_with_forced_fft_chunks(monkeypatch, rows):
    for n in (101, 1009):
        sys = APSystem(n, 3)
        length = conv._smooth_length(2 * n - 1)
        monkeypatch.setattr(conv, "BATCH_ELEMENTS", rows * length)
        _assert_equal_to_reference(sys, _ensemble(sys, 8), 64, 8)


def test_uniform01_over_a_seed_array_equals_per_seed_calls():
    idx = np.arange(257)
    seeds = [0, 1, 12345, 2 ** 63 + 5, 2 ** 64 - 1, -3,
             derive_seed(9, "family", 0)]
    stacked = uniform01(seeds, idx)
    assert stacked.shape == (len(seeds), idx.size)
    for row, seed in zip(stacked, seeds):
        assert np.array_equal(row, uniform01(seed, idx))
    assert np.array_equal(uniform01(np.array(seeds[:3]), idx), stacked[:3])
    # small and large seeds together (numpy would turn such a list to float)
    big = [5, 2 ** 63 + 5]
    assert np.array_equal(uniform01(big, idx)[1], uniform01(2 ** 63 + 5, idx))
    assert uniform01([], idx).shape == (0, idx.size)


def test_sample_anti_uniform_equals_the_family_row():
    sys = APSystem(101, 3)
    ens = _ensemble(sys, 9)
    seed = 9
    fam = build_family(sys, ens, 120, seed=seed)
    for r, desc in enumerate(fam.descriptors[1:], start=1):
        if "g_constant" in desc:
            kw = {"g_mode": "constant", "g_value": desc["g_constant"],
                  "seed": seed}
        elif "g_density" in desc:
            kw = {"g_value": desc["g_density"], "f_mode": desc["f_mode"],
                  "seed": derive_seed(seed, "family", r - 33)}
        else:
            kw = {"seed": seed}
        phi = sample_anti_uniform(sys, ens, desc["j"], desc["indices"], **kw)
        assert np.array_equal(phi.function.dense(), fam.matrix()[r])


@pytest.mark.parametrize("sys", [APSystem(101, 3), PolyAPSystem(101, 3, 2)],
                         ids=["ap", "polyap"])
def test_exact_split_count_equals_per_combination_loop(sys):
    ens = _ensemble(sys, 10)
    fs = ens.measures()
    fbar = sl.core.WeightFunction(sys.ground,
                                  values=sum(f.dense() for f in fs) / len(fs))
    total = 0.0
    for combo in np.ndindex(len(fs), len(fs)):
        res = capped_convolve(sys, 1, [fs[c] for c in combo])
        total += inner_product(
            fbar, sl.core.WeightFunction(sys.ground, values=res.values))
    assert split_capped_count(sys, fs) == total / len(fs) ** 2


def test_batched_convolve_rows_equal_single_calls():
    # at n = 10007 a transform chunk holds 3 of the 9 rows
    for n in (101, 10007):
        sys = APSystem(n, 3)
        rng = np.random.default_rng(11)
        g, h = rng.uniform(0.0, 2.0, (2, 9, sys.n))
        for j in (1, 2, 3):
            got = conv.convolve(sys, j, [g, h]).values
            assert got.shape == (9, sys.n)
            for r in range(9):
                single = conv.convolve(sys, j, [g[r], h[r]]).values
                assert np.array_equal(got[r], single)
    assert conv.BATCH_ELEMENTS // conv._smooth_length(2 * n - 1) == 3
    with pytest.raises(ValueError, match="same"):
        conv.convolve(sys, 1, [g, h[0]])

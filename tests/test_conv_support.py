"""The blocked support count on ap against the per-point loop it replaced.

conv._support_count counts tuples through the support of f on ap in blocks of
support pairs.  The reference below is the loop it replaced, one vectorised
completion of a against the whole support per support point a, written here
from the ap arithmetic alone; the two must agree bit for bit (==), and both
with tests/bruteforce.py at small n.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sparselab.cli import main
from sparselab.conv import count_functional
from sparselab.core import WeightFunction, make_measure
from sparselab.systems import APSystem, CHUNK_ELEMENTS

from bruteforce import brute_aps, brute_count


def ref_support_count(sys, f):
    """Per support point a: the progressions (a, b, ..., a + (k-1)(b-a))
    mod n for every b in the support (b = a only with allow_d0), their
    products summed as one array."""
    arr = f.dense()
    supp = f.support_indices()
    if supp.size == 0:
        return 0.0
    total = 0.0
    for a in supp:
        d = (supp - a) % sys.n
        if not sys.allow_d0:
            d = d[d != 0]
        mats = (a + np.outer(d, np.arange(sys.k))) % sys.n
        prod = arr[mats[:, 0]]
        for i in range(1, sys.k):
            prod *= arr[mats[:, i]]
        total += float(prod.sum())
    return total / sys.size


def _random_f(sys, size, seed, weighted):
    rng = np.random.default_rng(seed)
    supp = rng.choice(sys.n, size=size, replace=False)
    if size and not weighted:
        return make_measure(sys.ground, supp, "associated",
                            p=size / sys.n)
    vals = np.zeros(sys.n)
    vals[supp] = rng.uniform(0.1, 3.0, size=size)
    return WeightFunction(sys.ground, values=vals)


# at n = 1009 one block holds CHUNK_ELEMENTS // |U| points: 128 points fit
# one block of 128 x 128 pairs, 127 and 129 sit either side of it
SIZES = [0, 1, 2, 127, 128, 129, 500]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("allow_d0", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_support_count_is_the_per_point_loop(k, allow_d0, weighted):
    assert 128 * 128 == CHUNK_ELEMENTS
    sys = APSystem(1009, k, allow_d0=allow_d0)
    for size in SIZES:
        f = _random_f(sys, size, 1000 * k + size, weighted)
        got = count_functional(sys, f, mode="support")
        assert got == ref_support_count(sys, f), size


@pytest.mark.parametrize("k", [3, 4])
def test_support_count_at_n10007_is_the_per_point_loop(k):
    sys = APSystem(10007, k)
    f = _random_f(sys, 700, k, weighted=True)
    assert count_functional(sys, f, mode="support") == \
        ref_support_count(sys, f)


@pytest.mark.parametrize("n", [7, 13, 31])
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("allow_d0", [False, True])
def test_support_count_matches_bruteforce(n, k, allow_d0):
    sys = APSystem(n, k, allow_d0=allow_d0)
    tuples_ = brute_aps(n, k, allow_d0=allow_d0)
    rng = np.random.default_rng(n * k)
    for size in (1, 2, n // 2, n):
        f = _random_f(sys, size, int(rng.integers(2 ** 31)), weighted=True)
        fd = {i: float(v) for i, v in enumerate(f.dense()) if v}
        assert count_functional(sys, f, mode="support") == pytest.approx(
            brute_count(tuples_, fd), rel=1e-12, abs=1e-15)


FROZEN_SWEEP_COUNT = json.loads(
    (Path(__file__).parent / "frozen_sweep_count_cli.json").read_text())


@pytest.mark.parametrize("case", FROZEN_SWEEP_COUNT,
                         ids=[f"k{c['argv'][6]}" for c in FROZEN_SWEEP_COUNT])
def test_count_concentration_sweep_frozen(capsys, case):
    # the sweep CSV of the per-point loop, byte for byte; at C = 16 (k = 3)
    # the support spans about 17 blocks
    assert main(case["argv"]) == case["code"]
    assert capsys.readouterr().out == case["stdout"]

"""Differential tests of the chunked gather engine behind conv.

The engine is checked against the stdlib oracles in bruteforce.py on every
system kind, and on the translation-invariant kinds against the per-point
fiber loop it replaced, bit for bit.  The bit-identity tests call the engine
(conv._fiber_means) directly, since convolve hands 3-term ap points above the
FFT crossover to the FFT evaluator (tests/test_conv_fft.py).
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import systems
from sparselab.conv import _fiber_means, convolve, count_functional
from sparselab.core import WeightFunction
from sparselab.systems import (APSystem, CopySystem, HomothetySystem,
                               IntervalAPSystem, PatternHypergraph,
                               PolyAPSystem, SchurSystem, pair_profile)

from bruteforce import (brute_aps, brute_convolution, brute_copy_tuples,
                        brute_count, brute_homothets, brute_interval_aps,
                        brute_polyaps, brute_schur_triples)

PATH3 = PatternHypergraph(2, 4, ((0, 1), (1, 2), (2, 3)))

# (system, its tuples in raw entries) at small n, one per kind
KINDS = {
    "ap": (lambda: APSystem(11, 3), lambda: brute_aps(11, 3)),
    "ap-d0": (lambda: APSystem(7, 4, allow_d0=True),
              lambda: brute_aps(7, 4, allow_d0=True)),
    "polyap": (lambda: PolyAPSystem(31, 3, 2), lambda: brute_polyaps(31, 3, 2)),
    "homothety": (lambda: HomothetySystem(5, 2, [(0, 0), (0, 1), (1, 0)]),
                  lambda: brute_homothets(5, 2, [(0, 0), (0, 1), (1, 0)])),
    "schur": (lambda: SchurSystem(11), lambda: brute_schur_triples(11)),
    "interval-ap": (lambda: IntervalAPSystem(12, 3),
                    lambda: brute_interval_aps(12, 3)),
    "copies": (lambda: CopySystem(5, PATH3),
               lambda: brute_copy_tuples(5, PATH3.edges, 4)),
}


@functools.cache
def _kind(name):
    make_sys, make_tuples = KINDS[name]
    return make_sys(), make_tuples()


def per_point_reference(sys, j, arrs, xs):
    """The loop the engine replaced: one fiber_matrix and one mean per x."""
    out = np.empty(len(xs))
    for t, x in enumerate(xs):
        mat = sys.fiber_matrix(j, int(x))
        prod = np.ones(mat.shape[0])
        pos = 0
        for i in range(1, sys.k + 1):
            if i == j:
                continue
            prod *= arrs[pos][mat[:, i - 1]]
            pos += 1
        out[t] = prod.mean()
    return out


def _raw(sys, arr):
    """A value array as a dict keyed by the raw ground elements."""
    return {sys.ground.element(i): float(v) for i, v in enumerate(arr)}


values = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def conv_case(draw, name):
    sys, _ = _kind(name)
    X = sys.ground.size
    j = draw(st.integers(1, sys.k))
    arrs = [np.array(draw(st.lists(values, min_size=X, max_size=X)))
            for _ in range(sys.k - 1)]
    xs = draw(st.one_of(
        st.none(),
        st.just([]),
        st.lists(st.integers(0, X - 1), min_size=1, max_size=2 * X)))
    chunk = draw(st.sampled_from([1, 40, systems.CHUNK_ELEMENTS]))
    return j, arrs, xs, chunk


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_engine_matches_bruteforce(name, data):
    sys, tuples_ = _kind(name)
    j, arrs, xs, chunk = data.draw(conv_case(name))
    funcs = [WeightFunction(sys.ground, values=a) for a in arrs]
    with mock.patch.object(systems, "CHUNK_ELEMENTS", chunk):
        res = convolve(sys, j, funcs, xs=xs)
    points = range(sys.ground.size) if xs is None else xs
    assert res.values.shape == (len(points),)
    slots = [i for i in range(1, sys.k + 1) if i != j]
    raw = {i: _raw(sys, a) for i, a in zip(slots, arrs)}
    for got, x in zip(res.values, points):
        want = brute_convolution(tuples_, j, raw, sys.ground.element(x))
        assert got == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("name", ["ap", "ap-d0", "polyap"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_engine_bit_identical_to_per_point_loop(name, data):
    sys, _ = _kind(name)
    j, arrs, xs, chunk = data.draw(conv_case(name))
    points = np.arange(sys.ground.size) if xs is None else np.array(
        xs, dtype=np.int64)
    with mock.patch.object(systems, "CHUNK_ELEMENTS", chunk):
        got = _fiber_means(sys, j, arrs, points)
    assert np.array_equal(got, per_point_reference(sys, j, arrs, points))


@pytest.mark.parametrize("sys", [APSystem(1009, 3), APSystem(10007, 3),
                                 PolyAPSystem(1009, 4, 2)],
                         ids=["ap-1009", "ap-10007", "polyap-1009"])
def test_engine_bit_identical_at_scale(sys):
    # many points per chunk at n=1009, one fiber per chunk at n=10007
    rng = np.random.default_rng(sys.n)
    X = sys.ground.size
    arrs = [rng.uniform(0, 3, X) for _ in range(sys.k - 1)]
    for j in range(1, sys.k + 1):
        points = np.arange(X) if X < 2000 else rng.integers(0, X, size=48)
        got = _fiber_means(sys, j, arrs, points)
        assert np.array_equal(got, per_point_reference(sys, j, arrs, points))


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_exact_count_matches_bruteforce(name, data):
    sys, tuples_ = _kind(name)
    X = sys.ground.size
    arr = np.array(data.draw(st.lists(values, min_size=X, max_size=X)))
    chunk = data.draw(st.sampled_from([1, 40, systems.CHUNK_ELEMENTS]))
    f = WeightFunction(sys.ground, values=arr)
    with mock.patch.object(systems, "CHUNK_ELEMENTS", chunk):
        got = count_functional(sys, f, mode="exact")
    assert got == pytest.approx(brute_count(tuples_, _raw(sys, arr)),
                                rel=0, abs=1e-12)


def _profile_reference(sys, xs):
    sigma, t = set(), set()
    for x in xs:
        mat = sys.fiber_matrix(1, int(x))
        _, counts = np.unique(mat[:, sys.k - 1], return_counts=True)
        sigma.update(int(c) for c in counts)
        t.add(int(counts.size))
    return sorted(sigma), sorted(t)


@pytest.mark.parametrize("name", sorted(KINDS))
@pytest.mark.parametrize("chunk", [1, 40, systems.CHUNK_ELEMENTS])
def test_pair_profile_matches_per_point_unique(name, chunk):
    sys, _ = _kind(name)
    with mock.patch.object(systems, "CHUNK_ELEMENTS", chunk):
        full = pair_profile(sys)
        sampled = pair_profile(sys, sample=40, seed=3)
    X = sys.ground.size
    assert (full.observed_sigma, full.observed_t) == _profile_reference(
        sys, range(X))
    xs = np.random.default_rng(3).integers(0, X, size=40)
    assert (sampled.observed_sigma, sampled.observed_t) == _profile_reference(
        sys, xs)


def test_convolve_rejects_points_outside_the_ground_set():
    sys = APSystem(11, 3)
    f = WeightFunction.constant(sys.ground, 1.0)
    with pytest.raises(ValueError):
        convolve(sys, 1, [f, f], xs=[0, 11])
    with pytest.raises(ValueError):
        convolve(sys, 1, [f, f], xs=[-1])

"""Pair completion on every two-degrees-of-freedom kind, against brute force.

SequenceSystem.complete_pairs is the one completion map of each kind; the
support count and tuples_within reach it through pair_blocks wherever
by_pairs prices pairs cheaper than fiber rows, and gather fibers elsewhere.
Both paths are checked against tests/bruteforce.py on either side of that
switch.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

from sparselab.conv import count_functional
from sparselab.core import WeightFunction
from sparselab.oracles import tuples_within
from sparselab.systems import APSystem, HomothetySystem

from bruteforce import brute_aps, brute_count, brute_homothets
from test_conv_engine import KINDS

TWO_DOF = ["ap", "ap-d0", "interval-ap", "polyap", "homothety", "schur"]


def _system(name):
    make_sys, make_tuples = KINDS[name]
    sys = make_sys()
    index = {sys.ground.element(i): i for i in range(sys.ground.size)}
    return sys, [tuple(index[e] for e in s) for s in make_tuples()]


@pytest.mark.parametrize("name", TWO_DOF)
def test_complete_pairs_is_the_bruteforce_map(name):
    sys, tuples_ = _system(name)
    X = sys.ground.size
    a, b = np.arange(X)[:, None], np.arange(X)
    for i, j in itertools.permutations(range(1, sys.k + 1), 2):
        want = {(s[i - 1], s[j - 1]): s for s in tuples_}
        cols, valid = sys.complete_pairs(i, j, a, b)
        assert valid.shape == (X, X)
        got = np.stack([np.broadcast_to(c, (X, X)) for c in cols], axis=-1)
        for x, y in itertools.product(range(X), repeat=2):
            assert valid[x, y] == ((x, y) in want), (i, j, x, y)
            if valid[x, y]:
                assert tuple((got[x, y] % X).tolist()) == want[x, y]


def test_homothety_completion_skips_degenerate_dilations():
    # over Z_6, d = 3 is read off (b - a) = 3 (1, 1) cleanly, but it maps
    # P_3 - P_1 = (2, 0) to 0, so P_1 and P_3 collide and no tuple exists
    pts = [(0, 0), (1, 1), (2, 0)]
    sys = HomothetySystem(6, 2, pts, require_prime=False)
    X = sys.ground.size
    index = {sys.ground.element(i): i for i in range(X)}
    want = {}
    for s in brute_homothets(6, 2, pts):
        t = tuple(index[e] for e in s)
        want[t[:2]] = t
    cols, valid = sys.complete_pairs(1, 2, np.arange(X)[:, None],
                                     np.arange(X))
    assert not valid[index[(0, 0)], index[(3, 3)]]
    assert {(int(x), int(y)) for x, y in zip(*np.nonzero(valid))} == set(want)
    got = np.stack([np.broadcast_to(c, (X, X)) for c in cols], axis=-1) % X
    for (x, y), t in want.items():
        assert tuple(got[x, y].tolist()) == t


def _supports(sys):
    """Support sizes on both sides of by_pairs' switch, and U = X."""
    X, S1 = sys.ground.size, sys.fiber_size(1)
    return sorted({2, S1 + 1, S1 + 2, X} & set(range(1, X + 1)))


def _check_both_paths(sys, tuples_, sizes):
    """count_functional(mode="support") and tuples_within (as a set) against
    brute force at random supports of each size, with the path by_pairs does
    not pick patched to fail; returns the set of by_pairs values met."""
    X = sys.ground.size
    rng = np.random.default_rng(len(tuples_))
    seen = set()
    for m in sizes:
        pairs = sys.by_pairs(m)
        seen.add(pairs)
        U = np.sort(rng.choice(X, size=m, replace=False))
        vals = np.zeros(X)
        vals[U] = rng.uniform(0.1, 3.0, size=m)
        f = WeightFunction(sys.ground, values=vals)
        other = "fiber_blocks" if pairs else "complete_pairs"
        with mock.patch.object(sys, other, side_effect=AssertionError(other)):
            count = count_functional(sys, f, mode="support")
            within = tuples_within(sys, U)
        assert count == pytest.approx(
            brute_count(tuples_, dict(enumerate(vals))), rel=1e-12, abs=1e-15)
        inside = set(U.tolist())
        want = {s for s in tuples_ if s[0] != s[1] and set(s) <= inside}
        assert within.shape == (len(want), sys.k) and within.dtype == np.int64
        assert set(map(tuple, within.tolist())) == want
    return seen


@pytest.mark.parametrize("name", TWO_DOF)
def test_support_count_and_tuples_within_on_both_paths(name):
    sys, tuples_ = _system(name)
    sizes = _supports(sys)
    assert [sys.by_pairs(m) for m in sizes] == [
        m - 1 <= sys.fiber_size(1) for m in sizes]
    # ap takes pairs even at U = X; the other kinds meet both paths
    assert _check_both_paths(sys, tuples_, sizes) == (
        {True} if name.startswith("ap") else {True, False})


# over Z_15 a coordinate of P_j - P_i can have no inverse.  In the first set
# P_2 - P_1 = (3, 1) still fixes d through its second coordinate; in the
# second, (3, 0) maps d and d + 5 alike, so positions 1, 2 fix no tuple; in
# the third, positions 1, k fix none
COMPOSITE = [[(0, 0), (3, 1), (1, 0)], [(0, 0), (3, 0), (1, 0)],
             [(0, 0), (1, 0), (3, 0)]]


@pytest.mark.parametrize("pts", COMPOSITE)
def test_homothety_over_composite_n(pts):
    sys = HomothetySystem(15, 2, pts, require_prime=False)
    X = sys.ground.size
    index = {sys.ground.element(i): i for i in range(X)}
    tuples_ = [tuple(index[e] for e in s) for s in brute_homothets(15, 2, pts)]
    for i, j in itertools.permutations(range(1, 4), 2):
        through = {}
        for s in tuples_:
            through.setdefault((s[i - 1], s[j - 1]), set()).add(s)
        assert sys.pairs_fix(i, j) == all(
            len(ts) == 1 for ts in through.values())
        # valid marks the pairs in some tuple, and cols give one of them
        cols, valid = sys.complete_pairs(i, j, np.arange(X)[:, None],
                                         np.arange(X))
        assert {(int(x), int(y)) for x, y in zip(*np.nonzero(valid))} == \
            set(through)
        got = np.stack([np.broadcast_to(c, (X, X)) for c in cols], axis=-1)
        for (x, y), ts in through.items():
            assert tuple((got[x, y] % X).tolist()) in ts
    ends = {}
    for s in tuples_:
        ends.setdefault((s[0], s[-1]), []).append(s)
    for x, y in itertools.product(range(0, X, 16), range(X)):
        assert sorted(map(tuple, sys.pair_intersection(x, y).tolist())) == \
            sorted(ends.get((x, y), []))
    seen = _check_both_paths(sys, tuples_, [2, 15, 16, 60])
    assert seen == ({True, False} if sys.pairs_fix(1, 2) else {False})


def test_ap_pair_intersection_where_positions_fix_no_tuple():
    # over Z_20, gaps d and d + 10 agree at positions 1 and 3
    sys = APSystem(20, 3, require_prime=False)
    assert sys.pairs_fix(1, 2) and not sys.pairs_fix(1, 3)
    ends = {}
    for s in brute_aps(20, 3):
        ends.setdefault((s[0], s[-1]), []).append(s)
    for x, y in itertools.product(range(20), repeat=2):
        assert sorted(map(tuple, sys.pair_intersection(x, y).tolist())) == \
            sorted(ends.get((x, y), []))

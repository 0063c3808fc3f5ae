"""The copy-system injection search (systems.injections) and its callers.

Pair intersections are checked against a filter of brute_copy_tuples on
every pair.  The outputs whose order depends on the search (fiber rows,
tuples_within lists, support-mode sums, extremal witnesses) are frozen
values and compared exactly; their contents are also checked against the
brute-force oracles.  The patterns include a star whose edge order differs
from its vertex order and a path, listed out of edge-closing order, with an
isolated fifth vertex.
"""

import itertools

import numpy as np
import pytest

from sparselab.conv import count_functional
from sparselab.core import WeightFunction
from sparselab.oracles import extremal_number, tuples_within
from sparselab.systems import CopySystem, PatternHypergraph, injections

from bruteforce import brute_copy_tuples, brute_count, brute_labeled_copies

PATH3 = PatternHypergraph(2, 4, ((0, 1), (1, 2), (2, 3)))
PATTERNS = {
    "K3": PatternHypergraph.complete(3),
    "C4": PatternHypergraph.cycle(4),
    "star": PatternHypergraph(2, 4, ((2, 3), (0, 3), (1, 3))),
    "isolated": PatternHypergraph(2, 5, ((2, 3), (0, 1), (1, 2))),
}


def _brute_tuples(sys):
    """S by brute force, as element indices."""
    K = sys.pattern
    return [tuple(sys.ground.index(e) for e in t)
            for t in brute_copy_tuples(sys.n, K.edges, K.num_vertices)]


# --- pair intersections ---------------------------------------------------

@pytest.mark.parametrize("K, n", [
    (PatternHypergraph.complete(3), 5),
    (PatternHypergraph.complete(4), 5),
    (PatternHypergraph.cycle(4), 5),
    (PatternHypergraph.cycle(5), 6),
    (PATH3, 5),
    (PatternHypergraph.fano(), 7),
    (PatternHypergraph(3, 4, ((0, 1, 2), (0, 1, 3), (1, 2, 3))), 5),
], ids=["K3", "K4", "C4", "C5", "path", "fano", "3-uniform"])
def test_pair_intersection_matches_bruteforce_on_every_pair(K, n):
    sys = CopySystem(n, K)
    by_pair = {}
    for s in _brute_tuples(sys):
        by_pair.setdefault((s[0], s[-1]), []).append(s)
    X = sys.ground.size
    for x, y in itertools.product(range(X), repeat=2):
        got = sys.pair_intersection(x, y)
        assert got.shape == (len(by_pair.get((x, y), [])), sys.k)
        assert [tuple(r) for r in got.tolist()] == sorted(by_pair.get((x, y), []))


def test_injections_pins_and_host():
    K = PatternHypergraph.complete(3)
    assert list(injections(K, 3)) == [
        ((0, 1), (0, 2), (1, 2)), ((0, 2), (0, 1), (1, 2)),
        ((0, 1), (1, 2), (0, 2)), ((1, 2), (0, 1), (0, 2)),
        ((0, 2), (1, 2), (0, 1)), ((1, 2), (0, 2), (0, 1))]
    pinned = list(injections(K, 4, allowed={0: [3], 1: [0, 2]}))
    assert pinned == [((0, 3), (1, 3), (0, 1)), ((0, 3), (2, 3), (0, 2)),
                      ((2, 3), (0, 3), (0, 2)), ((2, 3), (1, 3), (1, 2))]
    path = {(0, 1), (1, 2), (2, 3)}
    assert list(injections(K, 4, host=path)) == []


# --- frozen, order-sensitive outputs --------------------------------------

FIBER = {  # (n, j, x): rows of fiber_matrix(j, x)
    "K3": ((4, 1, 3), [(3, 0, 1), (3, 4, 5), (3, 1, 0), (3, 5, 4)]),
    "C4": ((5, 1, 3), [(3, 6, 4, 1), (3, 6, 5, 2), (3, 8, 4, 0), (3, 8, 7, 2),
                       (3, 9, 5, 0), (3, 9, 7, 1), (3, 0, 4, 8), (3, 0, 5, 9),
                       (3, 1, 4, 6), (3, 1, 7, 9), (3, 2, 5, 6), (3, 2, 7, 8)]),
    "star": ((5, 2, 3), [(8, 3, 6), (9, 3, 6), (6, 3, 8), (9, 3, 8), (6, 3, 9),
                         (8, 3, 9), (1, 3, 0), (2, 3, 0), (0, 3, 1), (2, 3, 1),
                         (0, 3, 2), (1, 3, 2)]),
    "isolated": ((5, 1, 3), [(3, 4, 1), (3, 5, 2), (3, 4, 0), (3, 7, 2),
                             (3, 5, 0), (3, 7, 1), (3, 4, 8), (3, 5, 9),
                             (3, 4, 6), (3, 7, 9), (3, 5, 6), (3, 7, 8)]),
}

WITHIN = {  # (n, m): tuples_within(sys, range(m))
    "K3": ((4, 5), [(0, 1, 3), (0, 2, 4), (1, 0, 3), (2, 0, 4), (0, 3, 1),
                    (0, 4, 2), (3, 0, 1), (4, 0, 2), (1, 3, 0), (3, 1, 0),
                    (2, 4, 0), (4, 2, 0)]),
    "C4": ((5, 6), [(1, 4, 5, 2), (2, 5, 4, 1), (4, 1, 2, 5), (5, 2, 1, 4),
                    (1, 2, 5, 4), (4, 5, 2, 1), (2, 1, 4, 5), (5, 4, 1, 2)]),
    "star": ((4, 5), [(4, 0, 3), (3, 0, 4), (2, 0, 1), (1, 0, 2), (4, 3, 0),
                      (2, 1, 0), (0, 3, 4), (0, 1, 2), (3, 4, 0), (1, 2, 0),
                      (0, 4, 3), (0, 2, 1)]),
    "isolated": ((5, 6), [(5, 1, 4), (4, 2, 5), (2, 4, 1), (3, 4, 1),
                          (1, 5, 2), (3, 5, 2), (5, 1, 0), (5, 1, 2),
                          (2, 4, 0), (3, 4, 0), (2, 4, 5), (4, 2, 0),
                          (4, 2, 1), (1, 5, 0), (3, 5, 0), (1, 5, 4),
                          (4, 3, 0), (5, 3, 0), (4, 3, 1), (5, 3, 2)]),
}

# support-mode counts of f(e) = (index of e + 1) pi / 10 on the WITHIN
# systems; the sums are taken in search order, each product in the order
# the edges close
SUPPORT = {"K3": "1.3875308814434169", "C4": "8.120021828594442",
           "star": "1.271257343892292", "isolated": "4.772899523654151"}

EXTREMAL = {  # n, then the value and witness of extremal_number(n, K)
    "K3": (5, 6, [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]),
    "C4": (6, 7, [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 2], [3, 4]]),
    "star": (6, 6, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]),
    "isolated": (7, 6, [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6]]),
}


@pytest.mark.parametrize("name", PATTERNS)
def test_fiber_rows_frozen(name):
    (n, j, x), rows = FIBER[name]
    sys = CopySystem(n, PATTERNS[name])
    got = [tuple(r) for r in sys.fiber_matrix(j, x).tolist()]
    assert got == rows
    assert sorted(got) == sorted(s for s in _brute_tuples(sys) if s[j - 1] == x)


@pytest.mark.parametrize("name", PATTERNS)
def test_tuples_within_frozen(name):
    (n, m), expected = WITHIN[name]
    K = PATTERNS[name]
    sys = CopySystem(n, K)
    got = list(map(tuple, tuples_within(sys, range(m)).tolist()))
    assert got == expected
    assert sorted(got) == sorted(s for s in _brute_tuples(sys)
                                 if all(v < m for v in s))
    host = {sys.ground.element(u) for u in range(m)}
    assert len(got) == brute_labeled_copies(host, K.edges, K.num_vertices, n)


@pytest.mark.parametrize("name", PATTERNS)
def test_support_count_frozen(name):
    (n, _), _ = WITHIN[name]
    sys = CopySystem(n, PATTERNS[name])
    vals = (np.arange(sys.ground.size) + 1) * np.pi / 10
    value = count_functional(sys, WeightFunction(sys.ground, values=vals),
                             mode="support")
    assert repr(value) == SUPPORT[name]
    expected = brute_count(_brute_tuples(sys), dict(enumerate(vals)))
    assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", PATTERNS)
def test_extremal_witness_frozen(name):
    n, value, witness = EXTREMAL[name]
    K = PATTERNS[name]
    assert extremal_number(n, K) == (value, witness)
    edges = {tuple(e) for e in witness}
    assert len(edges) == value
    assert brute_labeled_copies(edges, K.edges, K.num_vertices, n) == 0
    # every edge the witness leaves out would close a copy of K
    for e in set(itertools.combinations(range(n), 2)) - edges:
        assert brute_labeled_copies(edges | {e}, K.edges, K.num_vertices, n)

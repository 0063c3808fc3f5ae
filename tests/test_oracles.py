"""Tests for the brute-force oracles and adversarial heuristics."""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from sparselab import oracles
from sparselab.conv import count_functional
from sparselab.core import make_measure
from sparselab.oracles import (
    AdversaryReport,
    HostGraph,
    adversary_colouring,
    adversary_free_subset,
    critical_exponent,
    extremal_number,
    pattern_stats,
    ramsey_multiplicity,
    supersaturation_count,
    tuples_within,
    varnavides_count,
)
from sparselab.sample import derive_seed, sample_subset
from sparselab.systems import (APSystem, CopySystem, IntervalAPSystem,
                               PatternHypergraph, PolyAPSystem, SchurSystem,
                               SequenceSystem, build_system)

from bruteforce import (brute_aps, ref_free_subset, ref_min_mono_exhaustive,
                        ref_min_mono_local_search, ref_tuples_within_pairs)
from test_conv_engine import KINDS

K3 = PatternHypergraph.complete(3)
K4 = PatternHypergraph.complete(4)
C4 = PatternHypergraph.cycle(4)


# --- pattern statistics ---------------------------------------------------

def test_pattern_stats_exact_rationals():
    s3 = pattern_stats(K3)
    assert s3.m_k == Fraction(2) and s3.critical_exponent == Fraction(1, 2)
    s4 = pattern_stats(K4)
    assert s4.m_k == Fraction(5, 2) and s4.critical_exponent == Fraction(2, 5)
    fano = pattern_stats(PatternHypergraph.fano())
    assert fano.m_k == Fraction(3, 2)
    assert fano.critical_exponent == Fraction(2, 3)
    assert s3.strictly_balanced and s4.strictly_balanced
    assert fano.strictly_balanced


def test_pattern_stats_unbalanced_witness():
    # K4 with a pendant edge: overall density drops but the K4 inside keeps
    # its own, so strict balance fails with that sub-pattern as witness
    edges = list(K4.edges) + [(3, 4)]
    K = PatternHypergraph(2, 5, tuple(edges))
    stats = pattern_stats(K)
    assert stats.m_k == Fraction(6, 3)
    assert not stats.strictly_balanced
    # the witness is a proper sub-pattern at least as dense as the whole
    w = stats.witness
    assert len(w["vertices"]) < 5
    assert Fraction(*w["m_k"]) >= stats.m_k
    with pytest.raises(ValueError):
        pattern_stats(PatternHypergraph(2, 2, ((0, 1),)))


def test_critical_exponents_by_kind():
    assert critical_exponent(build_system(kind="ap", n=13, k=3)) == Fraction(1, 2)
    assert critical_exponent(build_system(kind="ap", n=13, k=5)) == Fraction(1, 4)
    assert critical_exponent(
        build_system(kind="copies", n=8, pattern="K4")) == Fraction(2, 5)
    assert critical_exponent(
        build_system(kind="schur", n=13)) == Fraction(1, 2)
    poly = build_system(kind="polyap", n=53, k=3, r=2)
    assert critical_exponent(poly) == Fraction(1, 4)


# --- varnavides -----------------------------------------------------------

def test_varnavides_full_density_gives_all_tuples():
    sys = build_system(kind="ap", n=5, k=3)
    count, witness = varnavides_count(sys, 1.0)
    assert count == sys.size == 20
    assert witness == list(range(5))


def test_varnavides_z5_free_size_two():
    sys = build_system(kind="ap", n=5, k=3)
    # every 3-subset of Z_5 carries an AP, so density 3/5 forces tuples...
    count3, _ = varnavides_count(sys, 3 / 5)
    assert count3 > 0
    # ...while 2-element subsets never do: max AP-free size is 2
    count2, witness = varnavides_count(sys, 2 / 5)
    assert count2 == 0 and len(witness) == 2


def test_varnavides_monotone_in_density():
    sys = build_system(kind="ap", n=13, k=3)
    counts = [varnavides_count(sys, m / 13)[0] for m in (2, 5, 8, 10, 13)]
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] == sys.size


def test_varnavides_branch_and_bound_agrees():
    sys = build_system(kind="ap", n=7, k=3)
    exact, _ = varnavides_count(sys, 5 / 7)
    bb, witness = varnavides_count(sys, 5 / 7, guard=10, node_budget=10 ** 5)
    assert bb == exact
    assert len(witness) == 5
    with pytest.raises(ValueError, match="adversary_free_subset"):
        varnavides_count(sys, 5 / 7, guard=10)
    with pytest.raises(ValueError, match="budget"):
        varnavides_count(sys, 5 / 7, guard=10, node_budget=3)


# --- supersaturation and cross-agreement ----------------------------------

def test_supersaturation_known_values():
    assert supersaturation_count(HostGraph.complete(5), K3) == 60
    assert supersaturation_count(HostGraph.cycle(5), K3) == 0
    empty = HostGraph.from_edges(6, [])
    assert supersaturation_count(empty, K3) == 0
    assert supersaturation_count(HostGraph.complete(4), C4) == 3 * 8
    with pytest.raises(ValueError):
        supersaturation_count(HostGraph.complete(5), PatternHypergraph(
            3, 4, tuple(itertools.combinations(range(4), 3))))


def _hosts(n, rng):
    yield HostGraph.complete(n)
    yield HostGraph.cycle(n)
    full = list(itertools.combinations(range(n), 2))
    keep = [e for e in full if rng.uniform() < 0.5]
    if keep:
        yield HostGraph.from_edges(n, keep)


def test_supersaturation_matches_count_functional():
    # labeled copies == count_functional on the copy system with the host's
    # characteristic measure, renormalized by |S| (|X|/|E|)^{-e_K}
    rng = np.random.default_rng(12)
    for n in (5, 6, 7):
        for K in (K3, K4, C4):
            if K.num_vertices > n:
                continue
            sys = build_system(kind="copies", n=n, pattern=K)
            for host in _hosts(n, rng):
                direct = supersaturation_count(host, K)
                edges = [sys.ground.index(e) for e in host.edges]
                f = make_measure(sys.ground, edges, "characteristic")
                cnt = count_functional(sys, f, mode="exact")
                scaled = cnt * sys.size * (
                    len(edges) / sys.ground.size) ** K.num_edges
                assert scaled == pytest.approx(direct, abs=1e-6)


# --- ramsey multiplicity --------------------------------------------------

def _recount_mono(witness, n, r):
    total = 0
    for tri in itertools.combinations(range(n), 3):
        cols = {witness[str(e)] for e in itertools.combinations(tri, 2)}
        if len(cols) == 1:
            total += 1
    return total


def test_ramsey_k6_two_mono_triangles():
    count, witness = ramsey_multiplicity(HostGraph.complete(6), K3, 2)
    assert count == 2
    assert _recount_mono(witness, 6, 2) == 2


def test_ramsey_k5_zero():
    count, witness = ramsey_multiplicity(HostGraph.complete(5), K3, 2)
    assert count == 0
    assert _recount_mono(witness, 5, 2) == 0


def test_ramsey_one_colour_counts_all_copies():
    count, _ = ramsey_multiplicity(HostGraph.complete(6), K3, 1)
    assert count == 20   # C(6,3) unordered triangles


def test_ramsey_invariant_under_relabeling():
    rng = np.random.default_rng(3)
    host = HostGraph.complete(6)
    base, _ = ramsey_multiplicity(host, K3, 2)
    for _ in range(3):
        perm = list(rng.permutation(6))
        relabelled = HostGraph.from_edges(
            6, [tuple(perm[u] for u in e) for e in host.edges])
        again, _ = ramsey_multiplicity(relabelled, K3, 2)
        assert again == base


def test_ramsey_guard_and_heuristic():
    big = HostGraph.complete(8)     # 2^27 colourings: over the guard
    with pytest.raises(ValueError, match="heuristic"):
        ramsey_multiplicity(big, K3, 2)
    count, witness = ramsey_multiplicity(HostGraph.complete(5), K3, 2,
                                         mode="heuristic", budget=4000, seed=1)
    assert count == 0
    assert _recount_mono(witness, 5, 2) == 0


# --- extremal numbers -----------------------------------------------------

def test_extremal_known_values():
    val4, wit4 = extremal_number(4, K3)
    assert val4 == 4
    val5, wit5 = extremal_number(5, K3)
    assert val5 == 6
    assert len(wit5) == 6
    # the witness is triangle-free
    assert supersaturation_count(
        HostGraph.from_edges(5, [tuple(e) for e in wit5]), K3) == 0


def test_extremal_pattern_too_large():
    val, wit = extremal_number(3, K4)
    assert val == 3 and len(wit) == 3    # all edges fit, no K4 possible
    with pytest.raises(ValueError):
        extremal_number(6, K3, budget=5)


# --- adversaries ----------------------------------------------------------

def test_tuples_within_matches_bruteforce():
    sys = build_system(kind="ap", n=13, k=3)
    rng = np.random.default_rng(4)
    U = sorted(rng.choice(13, size=8, replace=False))
    got = set(map(tuple, tuples_within(sys, U).tolist()))
    expected = {s for s in brute_aps(13, 3) if set(s).issubset(U)}
    assert got == expected


def test_tuples_within_copy_system():
    sys = build_system(kind="copies", n=5, pattern="K3")
    all_edges = list(range(sys.ground.size))
    assert len(tuples_within(sys, all_edges)) == 60
    # C_5 edge subset holds no triangle
    cyc = [sys.ground.index(tuple(sorted((i, (i + 1) % 5)))) for i in range(5)]
    assert tuples_within(sys, cyc).tolist() == []


def test_adversary_free_subset_z5():
    sys = build_system(kind="ap", n=5, k=3)
    rep = adversary_free_subset(sys, range(5))
    assert isinstance(rep, AdversaryReport)
    assert rep.certified
    assert len(rep.subset) == 2 and rep.density == pytest.approx(0.4)
    assert rep.tuples_in_U == 20


def test_adversary_free_subset_trivial_cases():
    sys = build_system(kind="ap", n=13, k=3)
    rep = adversary_free_subset(sys, [])
    assert rep.subset == [] and rep.density == 1.0
    rep2 = adversary_free_subset(sys, [0, 1])
    assert rep2.subset == [0, 1] and rep2.density == 1.0


def test_adversary_free_subset_sparse_set():
    sys = build_system(kind="ap", n=101, k=3)
    rng = np.random.default_rng(8)
    U = sorted(rng.choice(101, size=20, replace=False))
    rep = adversary_free_subset(sys, U)
    assert rep.certified
    assert rep.density >= 0.5
    assert set(rep.subset) | set(rep.removed) == set(U)


def test_adversary_colouring_pentagon():
    sys = build_system(kind="copies", n=5, pattern="K3")
    U = list(range(sys.ground.size))
    colouring, count = adversary_colouring(sys, U, 2, budget=6000, seed=2)
    assert count == 0
    assert len(colouring) == 10


def test_adversary_colouring_many_colours():
    sys = build_system(kind="ap", n=13, k=3)
    colouring, count = adversary_colouring(sys, range(13), 13)
    assert count == 0
    assert sorted(int(c) for c in colouring.values()) == list(range(13))


def test_adversary_colouring_deterministic():
    sys = build_system(kind="ap", n=11, k=3)
    a = adversary_colouring(sys, range(11), 2, budget=800, seed=5)
    b = adversary_colouring(sys, range(11), 2, budget=800, seed=5)
    assert a == b


# --- differential tests against the scalar loops --------------------------

@pytest.mark.parametrize("name", sorted(KINDS))
def test_tuples_within_every_kind_matches_bruteforce(name):
    make_sys, make_tuples = KINDS[name]
    sys = make_sys()
    X = sys.ground.size
    index = {sys.ground.element(i): i for i in range(X)}
    # tuples with s_1 = s_2 (ap with d = 0) are never reported
    every = [tuple(index[e] for e in s) for s in make_tuples()
             if s[0] != s[1]]
    rng = np.random.default_rng(11)
    for size in (0, 2, X // 3, X // 2, X):
        U = sorted(int(u) for u in rng.choice(X, size=size, replace=False))
        got = list(map(tuple, tuples_within(sys, U).tolist()))
        assert len(got) == len(set(got))
        assert set(got) == {s for s in every if set(s) <= set(U)}


@pytest.mark.parametrize("n,allow_d0", [(101, False), (101, True),
                                        (1009, False)])
def test_tuples_within_ap_equals_scalar_loop(n, allow_d0):
    sys = APSystem(n, 3, allow_d0=allow_d0)
    for seed, p in [(0, 0.1), (1, 0.3), (2, 0.6)]:
        U = sample_subset(sys.ground, p, seed)
        assert list(map(tuple, tuples_within(sys, U).tolist())) == \
            ref_tuples_within_pairs(sys, U)


def test_tuples_within_guard_states_its_cost():
    sys = build_system(kind="ap", n=101, k=3)
    with pytest.raises(ValueError, match=r"needs 400 completions .*guard 399"):
        tuples_within(sys, range(20), guard=399)
    # one AP (x, (x + z)/2, z) per ordered pair x != z of equal parity
    assert len(tuples_within(sys, range(20), guard=400)) == 2 * 10 * 9


def test_tuples_within_guard_counts_scanned_fiber_rows():
    # on polyap |S_1| = 5 is far below |U| - 1, so tuples_within scans the
    # |U||S_1| = 30 * 5 fiber rows, not the |U|^2 = 900 pairs
    sys = PolyAPSystem(101, 3, 2)
    U = range(1, 31)
    assert sys.fiber_size(1) == 5 and not sys.by_pairs(30)
    with pytest.raises(ValueError, match=r"scans at least 150 fiber rows "
                                         r".*\|U\| = 30.*guard 149"):
        tuples_within(sys, U, guard=149)
    assert len(tuples_within(sys, U, guard=30 * 5)) == len(
        tuples_within(sys, U))


def test_tuples_within_guard_counts_rows_of_unequal_fibers():
    # interval-ap fibers shrink towards n - 1: U = X scans sum_x
    # floor((60 - x) / 2) = 900 rows, not |U| times the largest fiber, 1830
    sys = IntervalAPSystem(61, 3)
    assert sys.fiber_size(1) == 30 and not sys.by_pairs(61)
    with pytest.raises(ValueError, match=r"scans at least 900 fiber rows "
                                         r".*\|U\| = 61.*guard 899"):
        tuples_within(sys, range(61), guard=899)
    assert len(tuples_within(sys, range(61), guard=900)) == len(
        tuples_within(sys, range(61)))


def test_tuples_within_guard_counts_copies_found():
    # every C4 in K_8 lies inside U = all 28 edges: 8 * 7 * 6 * 5 = 1680
    sys = CopySystem(8, C4)
    U = range(28)
    with pytest.raises(ValueError, match=r"finds at least 2 copies .*"
                                         r"\|U\| = 28.*guard 1$"):
        tuples_within(sys, U, guard=1)
    everything = tuples_within(sys, U)
    assert len(everything) == 1680
    assert tuples_within(sys, U, guard=1680).tolist() == everything.tolist()
    with pytest.raises(ValueError, match="guard 1679"):
        tuples_within(sys, U, guard=1679)


class FiberOnlyAP(SequenceSystem):
    """An ap system seen only through its fibers (no pair completion)."""

    def __init__(self, inner):
        super().__init__(inner.ground, inner.k)
        self.inner = inner

    def fiber_matrix(self, j, x):
        return self.inner.fiber_matrix(j, x)


def test_tuples_within_fiber_path_matches_bulk_path():
    # with d = 0 the fibers hold rows (a, a, a), which neither path reports
    for n, k in [(11, 3), (13, 4)]:
        sys = APSystem(n, k, allow_d0=True)
        for seed, p in [(0, 0.4), (1, 0.8), (2, 1.0)]:
            U = sample_subset(sys.ground, p, seed)
            assert sorted(tuples_within(FiberOnlyAP(sys), U).tolist()) == \
                sorted(tuples_within(sys, U).tolist())


ADVERSARY_SYSTEMS = [({"kind": "ap", "n": 101, "k": 3}, 0.3),
                     # d = 10 in Z_20 gives (x, x + 10, x): a repeated entry
                     ({"kind": "ap", "n": 20, "k": 3,
                       "require_prime": False}, 0.7),
                     ({"kind": "ap", "n": 1009, "k": 3}, 0.08),
                     ({"kind": "polyap", "n": 101, "k": 3, "r": 2}, 0.5),
                     ({"kind": "schur", "n": 53}, 0.4),
                     ({"kind": "copies", "n": 6, "pattern": "K3"}, 0.6)]


@pytest.mark.parametrize("desc,p", ADVERSARY_SYSTEMS)
def test_adversary_free_subset_equals_reference(desc, p):
    sys = build_system(desc)
    for seed in range(4):
        U = sample_subset(sys.ground, p, seed)
        rep = adversary_free_subset(sys, U)
        subset, removed = ref_free_subset(tuples_within(sys, U), U)
        assert (rep.subset, rep.removed) == (subset, removed)
        assert rep.tuples_in_U == len(tuples_within(sys, U))


@pytest.mark.parametrize("desc,p", ADVERSARY_SYSTEMS)
def test_adversary_colouring_equals_reference(desc, p):
    sys = build_system(desc)
    for seed, r, budget in [(0, 2, 600), (1, 2, 2000), (2, 3, 900)]:
        U = sorted(int(u) for u in sample_subset(sys.ground, p, seed))
        pos = {u: i for i, u in enumerate(U)}
        tidx = [tuple(pos[v] for v in s) for s in tuples_within(sys, U)]
        rng = np.random.default_rng(derive_seed(seed, "colouring"))
        count, col = ref_min_mono_local_search(tidx, len(U), r, budget, rng)
        colouring, got = adversary_colouring(sys, U, r, budget=budget,
                                             seed=seed)
        assert got == count
        assert colouring == {str(u): col[i] for i, u in enumerate(U)}


def _triangle_tuples(n):
    edges = list(itertools.combinations(range(n), 2))
    index = {e: i for i, e in enumerate(edges)}
    return edges, [sorted(index[e] for e in itertools.combinations(tri, 2))
                   for tri in itertools.combinations(range(n), 3)]


@pytest.mark.parametrize("n,r", [(5, 2), (6, 2), (5, 3)])
def test_ramsey_multiplicity_equals_reference(n, r):
    edges, tuples_ = _triangle_tuples(n)
    host = HostGraph.complete(n)
    if r ** len(edges) <= 2 ** 24:
        count, col = ref_min_mono_exhaustive(tuples_, len(edges), r)
        got, witness = ramsey_multiplicity(host, K3, r)
        assert got == count
        assert witness == {str(e): col[i] for i, e in enumerate(edges)}
    for seed, budget in [(0, 300), (1, 3000), (4, 20000)]:
        rng = np.random.default_rng(derive_seed(seed, "ramsey"))
        count, col = ref_min_mono_local_search(tuples_, len(edges), r,
                                               budget, rng)
        got, witness = ramsey_multiplicity(host, K3, r, mode="heuristic",
                                           budget=budget, seed=seed)
        assert got == count
        assert witness == {str(e): col[i] for i, e in enumerate(edges)}


@pytest.mark.parametrize("make_sys", [
    lambda: SchurSystem(11),
    # d = 0 gives tuples (x, x, x): one element fills every entry
    lambda: APSystem(7, 3, allow_d0=True),
    # d = 4 in Z_8 gives (x, x + 4, x): one element fills two of three
    lambda: APSystem(8, 3, allow_d0=True, require_prime=False),
])
def test_ramsey_multiplicity_system_equals_reference(make_sys):
    # Ramsey multiplicity of a system: colourings of its ground set, on
    # tuples with repeated entries, through the colourer directly
    sys = make_sys()
    X = sys.ground.size
    tuples_ = [tuple(int(v) for v in s) for s in sys.tuples()]
    for r in (2, 3):
        if r ** X <= 2 ** 16:
            assert oracles._min_mono_colouring(
                tuples_, X, r, "exhaustive", 0, 0, "ramsey-sys") == \
                ref_min_mono_exhaustive(tuples_, X, r)
        for seed, budget in [(0, 100), (1, 1000), (2, 5000)]:
            rng = np.random.default_rng(derive_seed(seed, "ramsey-sys"))
            assert oracles._min_mono_colouring(
                tuples_, X, r, "heuristic", budget, seed, "ramsey-sys") == \
                ref_min_mono_local_search(tuples_, X, r, budget, rng)


def test_colour_counts_are_checked_by_a_recount():
    # the check is a raise, not an assert, so it also runs under python -O
    sys = build_system(kind="ap", n=13, k=3)
    tuples_ = [tuple(int(v) for v in s) for s in sys.tuples()]
    with mock.patch.object(oracles, "_mono_count", lambda tuples_, col: -1):
        with pytest.raises(AssertionError, match="recount"):
            oracles._min_mono_colouring(tuples_, 13, 2, "heuristic", 200, 0,
                                        "ramsey-sys")

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.systems import (APSystem, CopySystem, EnumerationGuardError,
                               HomothetySystem, IntervalAPSystem,
                               PatternHypergraph, PolyAPSystem, SchurSystem,
                               build_system, is_probable_prime, pair_profile,
                               verify_homogeneity, verify_two_dof)

from bruteforce import (brute_aps, brute_copy_tuples, brute_homothets,
                        brute_interval_aps, brute_polyaps,
                        brute_schur_triples)


# --- construction against brute-force enumeration -------------------------

def test_ap_z7_matches_bruteforce():
    sys = APSystem(7, 3)
    assert sys.size == 42
    for j in (1, 2, 3):
        assert sys.fiber_size(j) == 6
    assert sorted(sys.tuples()) == sorted(brute_aps(7, 3))


def test_ap_z5_fiber_at_zero():
    sys = APSystem(5, 3)
    fiber = set(sys.enumerate_fiber(1, 0))
    assert fiber == {(0, 1, 2), (0, 2, 4), (0, 3, 1), (0, 4, 3)}


def test_ap_with_degenerate_difference():
    sys = APSystem(7, 3, allow_d0=True)
    assert sys.size == 49
    assert sys.fiber_size(2) == 7
    assert (3, 3, 3) in set(sys.tuples())


def test_interval_ap_matches_bruteforce():
    sys = IntervalAPSystem(10, 3)
    assert sorted(sys.tuples()) == sorted(brute_interval_aps(10, 3))
    assert sys.size == len(brute_interval_aps(10, 3))


def test_polyap_matches_bruteforce():
    sys = PolyAPSystem(53, 3, 2)
    # gaps d^2 with 3 d^2 <= 53: d in {1,2,3,4}
    assert sys.fiber_size(1) == 4
    assert sorted(sys.tuples()) == sorted(brute_polyaps(53, 3, 2))


def test_schur_matches_bruteforce():
    sys = SchurSystem(7)
    got = sorted(sys.tuples())
    want = sorted(tuple(v - 1 for v in t) for t in brute_schur_triples(7))
    assert got == want
    assert sys.fiber_size(1) == 4  # n - 3 under the pairwise-distinct convention
    assert any("n-2" in note for note in sys.notes)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 11, 12, 15, 30, 101])
def test_schur_size_is_cached_closed_form(n):
    sys = SchurSystem(n, require_prime=False)
    assert sys.size == ((n - 2) ** 2 if n % 2 == 0 else (n - 1) * (n - 3))
    assert sys.size == len(brute_schur_triples(n))
    assert "size" in vars(sys)  # computed once, then read from the instance


def test_homothety_matches_bruteforce():
    pts = [(0, 0), (0, 1), (1, 0)]
    sys = HomothetySystem(7, 2, pts)
    want = sorted(
        tuple(sys.ground.index(img) for img in h) for h in brute_homothets(7, 2, pts))
    assert sorted(sys.tuples()) == want
    assert sys.size == 49 * 6


def test_copies_k3_n5():
    sys = CopySystem(5, PatternHypergraph.complete(3))
    assert sys.size == 60
    assert sys.fiber_size(1) == 6  # 2! * (n-2)
    want = sorted(
        tuple(sys.ground.index(e) for e in t)
        for t in brute_copy_tuples(5, PatternHypergraph.complete(3).edges, 3))
    assert sorted(sys.tuples()) == want


def test_copies_k4_fiber_closed_form():
    for n in (7, 9):
        sys = CopySystem(n, PatternHypergraph.complete(4))
        assert sys.fiber_size(1) == 2 * (n - 2) * (n - 3)
        mat = sys.fiber_matrix(1, 0)
        assert mat.shape == (2 * (n - 2) * (n - 3), 6)
        assert np.all(mat[:, 0] == 0)


def test_fano_pattern_shape():
    f = PatternHypergraph.fano()
    assert f.k == 3 and f.num_vertices == 7 and f.num_edges == 7
    # every pair of lines meets in exactly one point
    for a, b in itertools.combinations(f.edges, 2):
        assert len(set(a) & set(b)) == 1


# --- homogeneity ----------------------------------------------------------

def test_ap_homogeneous():
    rep = verify_homogeneity(APSystem(11, 3))
    assert rep.ok
    assert rep.detail["fiber_sizes"] == {1: [10], 2: [10], 3: [10]}


def test_interval_ap_not_homogeneous():
    rep = verify_homogeneity(IntervalAPSystem(12, 3))
    assert not rep.ok
    assert rep.witness is not None


def test_schur_homogeneous():
    rep = verify_homogeneity(SchurSystem(7))
    assert rep.ok
    assert rep.detail["fiber_sizes"][1] == [4]


def test_homothety_homogeneous():
    rep = verify_homogeneity(HomothetySystem(5, 2, [(0, 0), (1, 0), (0, 1)]))
    assert rep.ok


def test_homogeneity_consistency_with_size():
    # homogeneous fiber size must equal |S| / |X|
    for sys in [APSystem(13, 4), SchurSystem(11), PolyAPSystem(31, 3, 2)]:
        rep = verify_homogeneity(sys)
        assert rep.ok
        (m,) = rep.detail["fiber_sizes"][1]
        assert m * sys.ground.size == sys.size


# --- two degrees of freedom ----------------------------------------------

def test_ap_two_dof_exhaustive():
    assert verify_two_dof(APSystem(7, 3)).ok
    assert verify_two_dof(APSystem(11, 4)).ok


def test_schur_two_dof_exhaustive():
    assert verify_two_dof(SchurSystem(11)).ok


def test_polyap_two_dof_exhaustive():
    assert verify_two_dof(PolyAPSystem(53, 3, 2)).ok


def test_homothety_two_dof_exhaustive():
    assert verify_two_dof(HomothetySystem(7, 2, [(0, 0), (0, 1), (1, 1)])).ok


def test_copies_not_two_dof():
    sys = CopySystem(6, PatternHypergraph.complete(4))
    rep = verify_two_dof(sys, mode="exhaustive")
    assert not rep.ok
    s, t = rep.witness["s"], rep.witness["t"]
    assert s != t
    i, j = rep.witness["positions"]
    assert s[i - 1] == t[i - 1] and s[j - 1] == t[j - 1]


def test_copies_not_two_dof_sampled():
    sys = CopySystem(9, PatternHypergraph.complete(4))
    rep = verify_two_dof(sys, mode="sampled", samples=300, seed=5)
    assert not rep.ok


def test_ap_two_dof_sampled_large():
    rep = verify_two_dof(APSystem(1009, 3), mode="sampled", samples=500, seed=1)
    assert rep.ok and rep.detail["failures"] == 0


def test_two_dof_guard():
    with pytest.raises(EnumerationGuardError):
        verify_two_dof(APSystem(10007, 3), mode="exhaustive")


# --- pair profile ---------------------------------------------------------

def test_ap_pair_profile_exhaustive():
    prof = pair_profile(APSystem(11, 3))
    assert prof.uniform and prof.sigma == 1 and prof.t == 10


def test_schur_pair_profile():
    prof = pair_profile(SchurSystem(7))
    assert prof.sigma == 1
    assert prof.uniform and prof.t == 4


def test_copies_k3_pair_profile():
    sys = CopySystem(8, PatternHypergraph.complete(3))
    prof = pair_profile(sys)
    assert prof.uniform and prof.sigma == 1 and prof.t == 2 * (8 - 2)
    # direct intersection probes: sharing one vertex vs disjoint
    g = sys.ground
    assert sys.pair_intersection(g.index((0, 1)), g.index((1, 2))).shape[0] == 1
    assert sys.pair_intersection(g.index((0, 1)), g.index((2, 3))).shape[0] == 0


def test_interval_ap_pair_profile_not_uniform():
    prof = pair_profile(IntervalAPSystem(12, 3))
    assert not prof.uniform


def test_ap_pair_profile_sampled():
    prof = pair_profile(APSystem(1009, 3), sample=50, seed=3)
    assert prof.uniform and prof.sigma == 1 and prof.t == 1008


# --- completions (hypothesis) ---------------------------------------------

def _complete_one(sys, i, j, a, b):
    """complete_pairs on one pair: the tuple reduced mod |X|, or None."""
    cols, valid = sys.complete_pairs(i, j, np.array([a]), np.array([b]))
    if not valid[0]:
        return None
    return tuple(int(c[0]) % sys.ground.size for c in cols)


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_ap_complete_pair_agrees_with_fiber(xseed, dseed):
    sys = APSystem(13, 4)
    x = xseed % 13
    d = 1 + dseed % 12
    s = tuple((x + (h - 1) * d) % 13 for h in range(1, 5))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert _complete_one(sys, i, j, s[i - 1], s[j - 1]) == s


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_schur_complete_pair_roundtrip(seed):
    sys = SchurSystem(11)
    rng = np.random.default_rng(seed)
    x = int(rng.integers(0, sys.ground.size))
    row = sys.fiber_matrix(1, x)
    s = tuple(int(v) for v in row[rng.integers(0, row.shape[0])])
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        assert _complete_one(sys, i, j, s[i - 1], s[j - 1]) == s


# --- constructors, descriptors, guards ------------------------------------

def test_build_system_round_trips():
    for desc in [
        {"kind": "ap", "n": 11, "k": 3},
        {"kind": "interval-ap", "n": 10, "k": 3},
        {"kind": "polyap", "n": 31, "k": 3, "r": 2},
        {"kind": "schur", "n": 7},
        {"kind": "homothety", "n": 5, "r": 2, "points": [[0, 0], [0, 1], [1, 0]]},
        {"kind": "copies", "n": 6, "pattern": {"k": 2, "v": 3,
                                               "edges": [[0, 1], [0, 2], [1, 2]]}},
    ]:
        sys = build_system(desc)
        rebuilt = build_system(sys.descriptor())
        assert rebuilt.descriptor() == sys.descriptor()
        assert rebuilt.size == sys.size


def test_pattern_names():
    assert PatternHypergraph.from_json("K4").num_edges == 6
    assert PatternHypergraph.from_json("C4").num_edges == 4
    assert PatternHypergraph.from_json("fano").num_edges == 7


def test_primality_flag():
    assert is_probable_prime(10007) and is_probable_prime(1009)
    assert not is_probable_prime(10006)
    with pytest.raises(ValueError):
        APSystem(10, 3)
    assert APSystem(10, 3, require_prime=False).size == 90
    with pytest.raises(ValueError):
        SchurSystem(9)


def test_pattern_validation():
    with pytest.raises(ValueError):
        PatternHypergraph(2, 3, ((0, 0),))
    with pytest.raises(ValueError):
        PatternHypergraph(2, 3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        PatternHypergraph(2, 2, ((0, 3),))


def test_sampled_two_dof_reports_the_probes_made():
    # interval-ap: S_1(x) is empty for x >= n - 2; a replay of the draws
    # counts the probes that land there and are skipped
    n, samples, seed = 41, 500, 3
    sys = build_system({"kind": "interval-ap", "n": n, "k": 3})
    rng = np.random.default_rng(seed)
    skipped = 0
    for _ in range(samples):
        rng.choice(np.arange(1, 4), size=2, replace=False)
        x = int(rng.integers(0, n))
        rng.integers(0, 2 ** 62)
        skipped += x >= n - 2
    assert skipped > 0
    rep = verify_two_dof(sys, mode="sampled", samples=samples, seed=seed)
    assert rep.detail["probes"] == samples - skipped
    full = verify_two_dof(APSystem(101, 3), mode="sampled", samples=samples)
    assert full.detail["probes"] == samples

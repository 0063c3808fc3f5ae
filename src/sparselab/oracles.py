"""Exact brute-force oracles and adversarial heuristics.

Everything here is ground truth for the rest of the package: pattern
densities as exact rationals, minimum configuration counts over all subsets
of a given density, labeled copy counts, minimum monochromatic counts over
all colourings, extremal numbers by branch and bound, and certified
configuration-free subsets / low-monochromatic colourings found by greedy
plus local search.

Exhaustive enumerations carry hard guards and raise rather than degrade;
heuristic results are always re-counted from scratch before being returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .sample import derive_seed
from .systems import (CopySystem, PatternHypergraph, SequenceSystem,
                      injections)

EXHAUSTIVE_GUARD = 2 ** 24


# --- pattern statistics ---------------------------------------------------

@dataclass
class PatternStats:
    m_k: Fraction
    strictly_balanced: bool
    witness: dict | None
    critical_exponent: Fraction

    @property
    def m_k_float(self):
        return float(self.m_k)

    def to_json(self):
        return {"m_k": [self.m_k.numerator, self.m_k.denominator],
                "m_k_float": self.m_k_float,
                "strictly_balanced": self.strictly_balanced,
                "witness": self.witness,
                "critical_exponent": [self.critical_exponent.numerator,
                                      self.critical_exponent.denominator]}


def pattern_stats(K: PatternHypergraph) -> PatternStats:
    """Exact density m_k = (e_K - 1)/(v_K - k), strict balance verdict with
    a violating sub-pattern witness if any, and the copy-system exponent
    1/m_k."""
    v, e, k = K.num_vertices, K.num_edges, K.k
    if v <= k:
        raise ValueError("density undefined: pattern needs more than k vertices")
    m_k = Fraction(e - 1, v - k)
    balanced, witness = True, None
    # induced sub-patterns dominate any sub-pattern on the same vertices,
    # so scanning proper vertex subsets suffices
    for width in range(k + 1, v):
        for W in itertools.combinations(range(v), width):
            Wset = set(W)
            e_L = sum(1 for edge in K.edges if Wset.issuperset(edge))
            if e_L < 1:
                continue
            m_L = Fraction(e_L - 1, width - k)
            if m_L >= m_k:
                balanced, witness = False, {"vertices": list(W), "edges": e_L,
                                            "m_k": [m_L.numerator,
                                                    m_L.denominator]}
                break
        if not balanced:
            break
    return PatternStats(m_k, balanced, witness, 1 / m_k)


def critical_exponent(sys: SequenceSystem) -> Fraction:
    """Threshold exponent alpha with p ~ |X|^{-alpha}: 1/m_k for copy
    systems, gamma/(k-1) for two-degrees-of-freedom systems."""
    if isinstance(sys, CopySystem):
        return pattern_stats(sys.pattern).critical_exponent
    if sys.gamma is None:
        raise ValueError(f"no critical exponent known for {sys.kind} systems")
    return Fraction(sys.gamma) / (sys.k - 1)


# --- host graphs ----------------------------------------------------------

@dataclass(frozen=True)
class HostGraph:
    """A k-uniform host: n vertices plus a set of sorted vertex tuples."""

    n: int
    edges: frozenset
    k: int = 2

    @staticmethod
    def from_edges(n, edges, k=2):
        clean = frozenset(tuple(sorted(e)) for e in edges)
        for e in clean:
            if len(e) != k or not all(0 <= u < n for u in e):
                raise ValueError(f"bad edge {e} for n={n}, k={k}")
        return HostGraph(n, clean, k)

    @staticmethod
    def complete(n, k=2):
        return HostGraph(n, frozenset(itertools.combinations(range(n), k)), k)

    @staticmethod
    def cycle(n):
        return HostGraph.from_edges(
            n, [tuple(sorted((i, (i + 1) % n))) for i in range(n)])


def supersaturation_count(G: HostGraph, K: PatternHypergraph) -> int:
    """Exact number of labeled copies: injections of V(K) into G preserving
    every edge."""
    if K.k != G.k:
        raise ValueError("pattern and host uniformity differ")
    return sum(1 for _ in injections(K, G.n, host=G.edges))


# --- minimum counts over subsets and colourings ---------------------------

def varnavides_count(sys: SequenceSystem, rho, guard=EXHAUSTIVE_GUARD,
                     node_budget=None):
    """Minimum number of tuples fully inside B, over all B with
    |B| >= rho |X| (attained at |B| = ceil(rho |X|) by monotonicity).

    Exhaustive when C(|X|, m) fits the guard; otherwise branch and bound
    under node_budget.  Returns (count, minimizing subset).
    """
    X = sys.ground.size
    m = math.ceil(rho * X)
    if m <= 0:
        return 0, []
    if m > X:
        raise ValueError("density above 1")
    masks = [sum(1 << int(v) for v in set(s))
             for s in sys.tuples(guard=EXHAUSTIVE_GUARD)]

    def forced_count(chosen_bits):
        return sum(1 for mk in masks if mk & chosen_bits == mk)

    if math.comb(X, m) <= guard:
        best, witness = None, None
        for B in itertools.combinations(range(X), m):
            cnt = forced_count(sum(1 << v for v in B))
            if best is None or cnt < best:
                best, witness = cnt, list(B)
                if best == 0:
                    break
        return best, witness
    if node_budget is None:
        raise ValueError(
            f"C({X},{m}) exceeds the exhaustive guard; pass node_budget for "
            "branch-and-bound or use adversary_free_subset for a heuristic")
    # branch and bound over include/exclude element decisions
    best = [len(masks) + 1, None]
    nodes = [0]

    def walk(x, chosen, chosen_bits):
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise ValueError(
                "node budget exceeded; use adversary_free_subset for a "
                "heuristic witness")
        if len(chosen) == m:
            cnt = forced_count(chosen_bits)
            if cnt < best[0]:
                best[0], best[1] = cnt, list(chosen)
            return
        if X - x < m - len(chosen):
            return
        if forced_count(chosen_bits) >= best[0]:
            return
        chosen.append(x)
        walk(x + 1, chosen, chosen_bits | (1 << x))
        chosen.pop()
        walk(x + 1, chosen, chosen_bits)

    walk(0, [], 0)
    return best[0], best[1]


def _copies_in_host(host: HostGraph, K: PatternHypergraph):
    """Distinct unordered copies, each as a frozenset of host edges."""
    return sorted({frozenset(imgs)
                   for imgs in injections(K, host.n, host=host.edges)},
                  key=sorted)


def _mono_count(tuples_, col):
    """Tuples whose entries all carry one colour under col."""
    return sum(1 for s in tuples_ if all(col[v] == col[s[0]] for v in s[1:]))


def _min_mono_colouring(tuples_, size, r, mode, budget, seed, label,
                        guard=EXHAUSTIVE_GUARD):
    """Minimum number of monochromatic tuples over r-colourings of
    range(size); tuples_ are index tuples into range(size).

    Exhaustive mode fixes the colour of element 0 (colour permutations are
    symmetries) and scans the rest.  Heuristic mode restarts a greedy local
    search from random colourings (rng labelled `label`) until `budget`
    single-colour evaluations are spent or a colouring with no monochromatic
    tuple is found; each restart's result is an upper bound, and the best is
    recounted from scratch before it is returned.  Returns (count, colouring
    list).
    """
    if mode == "exhaustive":
        if r ** size > guard:
            raise ValueError(
                f"{r}^{size} colourings exceed the exhaustive guard; "
                "use mode='heuristic'")
        best, witness = None, None
        for rest in itertools.product(range(r), repeat=size - 1):
            col = (0,) + rest
            cnt = _mono_count(tuples_, col)
            if best is None or cnt < best:
                best, witness = cnt, list(col)
                if best == 0:
                    break
        return best, witness
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")
    # counts[t][c]: entries of tuple t coloured c.  Recolouring element i,
    # which fills m entries of t, to c makes t monochromatic iff
    # counts[t][c] + (m if c != col[i] else 0) == len(t); tuples not
    # through i add the same number to every colour's score, so the local
    # score picks the same colour as a global recount would.
    counts = [[0] * r for _ in tuples_]
    through = [[] for _ in range(size)]
    for row, s in zip(counts, tuples_):
        for i in set(s):
            through[i].append((row, s.count(i), len(s)))
    rng = np.random.default_rng(derive_seed(seed, label))
    best, witness = None, None
    evals = 0
    while evals < budget:
        col = list(rng.integers(0, r, size=size))
        for row, s in zip(counts, tuples_):
            row[:] = [0] * r
            for v in s:
                row[col[v]] += 1
        improved = True
        while improved and evals < budget:
            improved = False
            for i in range(size):
                base = col[i]
                scores = [(sum(1 for row, m, k in through[i]
                               if row[c] + (m if c != base else 0) == k), c)
                          for c in range(r)]
                evals += r
                cnt, c = min(scores)
                col[i] = c
                if c != base:
                    for row, m, _ in through[i]:
                        row[base] -= m
                        row[c] += m
                    if cnt < scores[base][0]:
                        improved = True
        cnt = sum(1 for row, s in zip(counts, tuples_) if max(row) == len(s))
        if best is None or cnt < best:
            best, witness = cnt, list(col)
        if best == 0:
            break
    if _mono_count(tuples_, witness) != best:
        raise AssertionError("colour counts disagree with a recount")
    return best, witness


def ramsey_multiplicity(host: HostGraph, K: PatternHypergraph, r,
                        mode="exhaustive", guard=EXHAUSTIVE_GUARD,
                        budget=20000, seed=0):
    """Minimum number of monochromatic (unordered) copies of K over all
    r-colourings of the host's edges: exhaustive, or an upper bound from
    the heuristic search (see _min_mono_colouring).  Returns (count,
    colouring dict)."""
    if r < 1:
        raise ValueError("need at least one colour")
    edges = sorted(host.edges)
    index = {e: i for i, e in enumerate(edges)}
    copy_idx = [sorted(index[e] for e in c) for c in _copies_in_host(host, K)]
    if r == 1 or not copy_idx:
        return len(copy_idx), {str(e): 0 for e in edges}
    best, witness = _min_mono_colouring(copy_idx, len(edges), r, mode, budget,
                                        seed, "ramsey", guard)
    return best, {str(e): witness[i] for i, e in enumerate(edges)}


# --- extremal numbers -----------------------------------------------------

def _has_copy_through(edge_set, new_edge, K, n):
    """Does edge_set + new_edge contain a copy of K using new_edge?"""
    all_edges = edge_set | {new_edge}
    for anchor in K.edges:
        order = list(anchor) + [u for u in range(K.num_vertices)
                                if u not in anchor]
        copies = injections(K, n, order=order, host=all_edges,
                            allowed=dict.fromkeys(anchor, new_edge))
        if next(copies, None) is not None:
            return True
    return False


def extremal_number(n, K: PatternHypergraph, budget=10 ** 7):
    """ex(n, K): the largest K-free edge count in the complete k-uniform
    host on n vertices, by include-first branch and bound with the trivial
    remaining-edges bound.  Returns (value, witness edge list)."""
    all_edges = list(itertools.combinations(range(n), K.k))
    E = len(all_edges)
    best = [-1, None]
    nodes = [0]

    def walk(i, chosen):
        nodes[0] += 1
        if nodes[0] > budget:
            raise ValueError("branch-and-bound budget exceeded")
        if len(chosen) + (E - i) <= best[0]:
            return
        if i == E:
            if len(chosen) > best[0]:
                best[0] = len(chosen)
                best[1] = sorted(chosen)
            return
        e = all_edges[i]
        if not _has_copy_through(chosen, e, K, n):
            chosen.add(e)
            walk(i + 1, chosen)
            chosen.discard(e)
        walk(i + 1, chosen)

    walk(0, set())
    return best[0], [list(e) for e in best[1]]


# --- adversarial witnesses ------------------------------------------------

def tuples_within(sys: SequenceSystem, U, guard=10 ** 7):
    """Every tuple of S with all entries in U and s_1 != s_2, as one (T, k)
    int64 array of element indices, a-major over a = s_1 in sorted U.

    Sequence systems complete the ordered pairs (a, b) of U at positions
    1, 2 (sys.pair_blocks, b ascending) or scan the fibers S_1(a)
    (sys.fiber_blocks, fiber order), whichever sys.by_pairs prices cheaper.
    Copy systems keep the injections whose edge images all lie in U (U as
    the host of systems.injections), lexicographic in the vertex map.  The
    guard bounds the work: |U|^2 completions (up front), the fiber rows
    scanned, or for copies the tuples found.
    """
    U = np.sort(np.asarray(U, dtype=np.int64).reshape(-1))
    if isinstance(sys, CopySystem):
        host = frozenset(sys.ground.element(int(u)) for u in U)
        found = itertools.islice(injections(sys.pattern, sys.n, host=host),
                                 guard + 1)
        out = [tuple(sys.edge_rank(img) for img in imgs) for imgs in found]
        if len(out) > guard:
            raise ValueError(
                f"support enumeration finds at least {guard + 1} copies "
                f"inside U (|U| = {U.size}), over the guard {guard}")
        return np.array(out, dtype=np.int64).reshape(-1, sys.k)
    if sys.by_pairs(U.size):
        if U.size ** 2 > guard:
            raise ValueError(
                f"support enumeration needs {U.size ** 2} completions "
                f"(|U|^2), over the guard {guard}")
        blocks = ((cols, valid) for _, cols, valid in sys.pair_blocks(U))
    else:
        blocks = _fiber_rows(sys, U, guard)
    X = sys.ground.size
    inside = np.zeros(X, dtype=bool)
    inside[U] = True
    out = [np.empty((0, sys.k), dtype=np.int64)]
    for cols, keep in blocks:
        for c in cols:
            keep = keep & np.take(inside, c, mode="wrap")
        rows = np.stack([np.broadcast_to(c, keep.shape)[keep] for c in cols],
                        axis=1) % X
        out.append(rows[rows[:, 0] != rows[:, 1]])
    return np.concatenate(out)


def _fiber_rows(sys, U, guard):
    """Yield (cols, True) per block of the fibers S_1(a), a in U, with a
    itself as position 1, raising once the rows scanned pass the guard."""
    scanned = 0
    for lo, cols, cnt in sys.fiber_blocks(1, U):
        scanned += int(cnt.sum())
        if scanned > guard:
            raise ValueError(
                f"support enumeration scans at least {scanned} fiber rows "
                f"(|U| = {U.size}), over the guard {guard}")
        first = np.repeat(U[lo:lo + cnt.size], cnt).reshape(cols[0].shape)
        yield [first] + cols, True


@dataclass
class AdversaryReport:
    subset: list
    density: float
    removed: list
    tuples_in_U: int
    certified: bool
    detail: dict = field(default_factory=dict)

    def to_json(self):
        return {"subset": self.subset, "density": self.density,
                "removed": self.removed, "tuples_in_U": self.tuples_in_U,
                "certified": self.certified, "detail": self.detail}


def adversary_free_subset(sys: SequenceSystem, U,
                          budget=10 ** 6) -> AdversaryReport:
    """Greedy removal of high-coverage elements until no tuple survives,
    followed by a re-add pass; the returned subset is certified free by an
    independent recount.  Density is |A|/|U| (1.0 for empty U).

    Each step removes the element of U in the most live tuples, the smallest
    on ties; the re-add pass, in ascending order, puts back every removed
    element whose tuples all keep another element outside the subset.
    """
    U = sorted(int(u) for u in U)
    if not U:
        return AdversaryReport([], 1.0, [], 0, True)
    tuples_ = tuples_within(sys, U, guard=budget)
    n_u = len(U)
    pos = np.zeros(sys.ground.size, dtype=np.int64)
    pos[U] = np.arange(n_u)
    # members[t]: the distinct positions in U of tuple t, repeats replaced
    # by the spare slot n_u, which is never live and never outside
    members = np.sort(pos[tuples_], axis=1)
    members[:, 1:][members[:, 1:] == members[:, :-1]] = n_u
    tids = np.repeat(np.arange(len(tuples_)), members.shape[1])
    flat = members.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[order], np.arange(n_u + 1))
    cover = [tids[order[starts[i]:starts[i + 1]]] for i in range(n_u)]
    live = np.bincount(flat, minlength=n_u + 1)
    live[n_u] = -1
    alive = np.ones(len(tuples_), dtype=bool)
    left = len(tuples_)
    while left:
        i = int(np.argmax(live))
        live[i] = -1
        dead = cover[i][alive[cover[i]]]
        alive[dead] = False
        left -= dead.size
        live -= np.bincount(members[dead].ravel(), minlength=n_u + 1)
    outside = np.zeros(n_u + 1, dtype=bool)
    outside[:n_u] = live[:n_u] < 0
    for i in np.flatnonzero(outside[:n_u]):
        others = members[cover[i]]
        if np.all(np.any(outside[others] & (others != i), axis=1)):
            outside[i] = False
    A = [u for u, out in zip(U, outside) if not out]
    removed = [u for u, out in zip(U, outside) if out]
    if tuples_within(sys, A, guard=budget).size:
        raise AssertionError("adversary produced an uncertified subset")
    return AdversaryReport(A, len(A) / len(U), removed, len(tuples_), True)


def adversary_colouring(sys: SequenceSystem, U, r, budget=5000, seed=0):
    """Colour U with r colours to minimize monochromatic tuples of S inside
    U by the heuristic search of _min_mono_colouring.  Returns (colouring
    dict, count), with the count re-derived from the returned colouring."""
    if r < 1:
        raise ValueError("need at least one colour")
    U = sorted(int(u) for u in U)
    if not U:
        return {}, 0
    pos = np.zeros(sys.ground.size, dtype=np.int64)
    pos[U] = np.arange(len(U))
    tidx = pos[tuples_within(sys, U)].tolist()
    if r >= len(U):
        col = list(range(len(U)))
        cnt = _mono_count(tidx, col)
    else:
        cnt, col = _min_mono_colouring(tidx, len(U), r, "heuristic", budget,
                                       seed, "colouring")
    return {str(u): col[i] for i, u in enumerate(U)}, cnt

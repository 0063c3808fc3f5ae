"""Independent brute-force oracles used by the test suite.

Everything here is written against the raw definitions with plain loops and
stdlib only -- no imports from sparselab -- so frozen expected values in the
tests are computed by code that shares nothing with the implementation.
"""

import itertools
import math
from fractions import Fraction


def brute_aps(n, k, allow_d0=False):
    """All (x, x+d, ..., x+(k-1)d) mod n with d in [0 or 1, n-1]."""
    out = []
    for x in range(n):
        for d in range(0 if allow_d0 else 1, n):
            out.append(tuple((x + i * d) % n for i in range(k)))
    return out


def brute_interval_aps(n, k):
    out = []
    for x in range(n):
        for d in range(1, n):
            tup = tuple(x + i * d for i in range(k))
            if tup[-1] <= n - 1:
                out.append(tup)
    return out


def brute_polyaps(n, k, r):
    out = []
    d = 1
    gaps = []
    while k * d ** r <= n:
        gaps.append(d ** r % n)
        d += 1
    for x in range(n):
        for g in gaps:
            out.append(tuple((x + i * g) % n for i in range(k)))
    return out


def brute_schur_triples(n):
    """(x, y, x+y) over Z_n \\ {0}, entries pairwise distinct.  Residues."""
    out = []
    for x in range(1, n):
        for y in range(1, n):
            z = (x + y) % n
            if z == 0:
                continue
            if len({x, y, z}) == 3:
                out.append((x, y, z))
    return out


def brute_homothets(n, r, points):
    """a + d*P over Z_n^r, d != 0, images pairwise distinct.  Coordinate tuples."""
    pts = [tuple(c % n for c in p) for p in points]
    out = []
    for a in itertools.product(range(n), repeat=r):
        for d in range(1, n):
            imgs = tuple(tuple((a[t] + d * p[t]) % n for t in range(r)) for p in pts)
            if len(set(imgs)) == len(imgs):
                out.append(imgs)
    return out


def brute_copy_tuples(n, edges, v):
    """Edge-image tuples of all injections [v] -> [n]; edges as vertex tuples."""
    out = []
    for phi in itertools.permutations(range(n), v):
        out.append(tuple(tuple(sorted(phi[u] for u in e)) for e in edges))
    return out


def brute_convolution(tuples_, j, funcs, x):
    """E_{s in S_j(x)} prod_{i != j} funcs[i](s_i); funcs keyed by 1-based
    position, values are dicts or callables on raw entries."""
    def ev(fn, e):
        return fn(e) if callable(fn) else fn.get(e, 0.0)

    fiber = [s for s in tuples_ if s[j - 1] == x]
    if not fiber:
        return 0.0
    total = 0.0
    for s in fiber:
        prod = 1.0
        for i in range(1, len(s) + 1):
            if i != j:
                prod *= ev(funcs[i], s[i - 1])
        total += prod
    return total / len(fiber)


def brute_capped_convolution(tuples_, j, funcs, x, cap=2.0):
    return min(brute_convolution(tuples_, j, funcs, x), cap)


def brute_split_capped(tuples_, fs, universe, cap=2.0):
    """E over index tuples of <f_{i_1}, capped conv_1(f_{i_2},..,f_{i_k})>,
    fs a list of dicts element -> value, inner products averaged over
    `universe`."""
    m = len(fs)
    k = len(tuples_[0])
    total = 0.0
    for combo in itertools.product(range(m), repeat=k):
        funcs = {i + 1: fs[combo[i]] for i in range(k)}
        acc = 0.0
        for x in universe:
            conv = brute_capped_convolution(tuples_, 1, funcs, x, cap)
            acc += fs[combo[0]].get(x, 0.0) * conv
        total += acc / len(universe)
    return total / m ** k


def brute_count(tuples_, f):
    """|S|^{-1} sum_s prod_i f(s_i)."""
    def ev(e):
        return f(e) if callable(f) else f.get(e, 0.0)

    total = 0.0
    for s in tuples_:
        prod = 1.0
        for e in s:
            prod *= ev(e)
        total += prod
    return total / len(tuples_)


def brute_labeled_copies(host_edges, pattern_edges, pattern_v, host_n):
    """Number of injections phi: [v] -> [host] with every pattern edge image
    in host_edges (a set of sorted tuples)."""
    count = 0
    for phi in itertools.permutations(range(host_n), pattern_v):
        if all(tuple(sorted(phi[u] for u in e)) in host_edges for e in pattern_edges):
            count += 1
    return count


def brute_mk(edges, v, k):
    """(e-1)/(v-k) as an exact fraction."""
    return Fraction(len(edges) - 1, v - k)


# --- reference copies of the adversary loops ------------------------------
#
# These are the scalar loops the array-based oracles replaced, kept as
# references: the seeded results of the oracles must equal theirs.  They
# take the system's parameters or an rng (anything with integers) from the
# caller, so this file still imports nothing from sparselab.

def ref_tuples_within_pairs(sys, U):
    """Complete every ordered pair a != b of U at positions 1, 2 of the ap
    system (sys.n, sys.k) and keep the tuples inside U, a-major with b
    ascending.  Its gap b - a is non-zero, so allow_d0 plays no part."""
    n, k = sys.n, sys.k
    U = sorted(int(u) for u in U)
    U_set = set(U)
    out = []
    for a in U:
        for b in U:
            if a == b:
                continue
            s = tuple((a + h * (b - a)) % n for h in range(k))
            if all(v in U_set for v in s):
                out.append(s)
    return out


def ref_free_subset(tuples_, U):
    """Greedy cover: remove the element in the most live tuples (smallest
    on ties) until none is live, then re-add, in ascending order, every
    removed element whose tuples keep another element outside.  Returns
    (subset, removed), both sorted."""
    U = sorted(int(u) for u in U)
    cover = {u: set() for u in U}
    for t, s in enumerate(tuples_):
        for v in set(s):
            cover[v].add(t)
    alive = set(range(len(tuples_)))
    A = set(U)
    removed = []
    while alive:
        u = max(A, key=lambda v: (len(cover[v] & alive), -v))
        A.discard(u)
        removed.append(u)
        alive -= cover[u]
    for u in sorted(removed):
        if all(any(v not in A and v != u for v in set(s))
               for s in (tuples_[t] for t in cover[u])):
            A.add(u)
    return sorted(A), sorted(set(U) - A)


def ref_mono_count(tuples_, col):
    return sum(1 for s in tuples_ if all(col[v] == col[s[0]] for v in s[1:]))


def ref_min_mono_exhaustive(tuples_, size, r):
    """Scan every colouring with element 0 coloured 0; (count, colouring)."""
    best, witness = None, None
    for rest in itertools.product(range(r), repeat=size - 1):
        col = (0,) + rest
        cnt = ref_mono_count(tuples_, col)
        if best is None or cnt < best:
            best, witness = cnt, list(col)
            if best == 0:
                break
    return best, witness


def ref_min_mono_local_search(tuples_, size, r, budget, rng):
    """Restarted local search scoring each recolouring by a full recount;
    (count, colouring)."""
    best, witness = None, None
    evals = 0
    while evals < budget:
        col = list(rng.integers(0, r, size=size))
        improved = True
        while improved and evals < budget:
            improved = False
            for i in range(size):
                base = col[i]
                scores = []
                for c in range(r):
                    col[i] = c
                    scores.append((ref_mono_count(tuples_, col), c))
                    evals += 1
                cnt, c = min(scores)
                col[i] = c
                if c != base and cnt < scores[base][0]:
                    improved = True
        cnt = ref_mono_count(tuples_, col)
        if best is None or cnt < best:
            best, witness = cnt, list(col)
        if best == 0:
            break
    return best, witness


# --- reference copy of the per-member family loop -------------------------
#
# build_family used to make each member with its own sample_anti_uniform
# call: one sample_subset per random g slot and per mask, one associated
# measure per f slot and one capped convolution.  That loop is kept here as
# the reference the one-pass build must equal bit for bit.  It takes the
# package from the caller (`sl`), so this file still imports nothing from
# sparselab; it needs numpy for the arrays the package works on.

def ref_build_family(sl, sys, ensemble, size, sets=None, seed=0):
    """(matrix, descriptors, provenance) of build_family, member by member."""
    import numpy as np

    WeightFunction = sl.core.WeightFunction
    derive_seed = sl.sample.derive_seed
    sample_subset = sl.sample.sample_subset
    domain = sys.ground

    def member(j, tup, g_mode, g_value, f_mode, member_seed):
        gs = []
        for slot in range(j - 1):
            if g_mode == "constant":
                gs.append(WeightFunction.constant(domain, g_value))
            else:
                sub = sample_subset(domain, g_value,
                                    derive_seed(member_seed, "g", slot))
                gs.append(WeightFunction.indicator(domain, sub))
        fs = []
        for slot, i in enumerate(tup):
            mu = ensemble.associated_measure(i)
            if f_mode == "masked":
                keep = sample_subset(domain, 0.75,
                                     derive_seed(member_seed, "f", slot))
                mask = np.zeros(domain.size)
                mask[keep] = 1.0
                mu = WeightFunction(domain, values=mu.dense() * mask)
            fs.append(mu)
        return sl.conv.capped_convolve(sys, j, gs + fs).values

    rows = [np.ones(domain.size)]
    descriptors = [{"kind": "constant"}]
    structured = [(j, tup, c) for j in range(1, sys.k + 1)
                  for tup in itertools.permutations(range(1, ensemble.m + 1),
                                                    sys.k - j)
                  for c in ((None,) if j == 1 else (1.0, 0.75, 0.5, 0.25))]
    for j, tup, c in structured:
        if len(rows) >= size:
            break
        desc = {"kind": "basic", "j": j, "indices": list(tup)}
        if c is None:
            rows.append(member(j, tup, "random_indicator", 0.5, "full", seed))
        else:
            rows.append(member(j, tup, "constant", c, "full", seed))
            desc["g_constant"] = c
        descriptors.append(desc)
    idx = 0
    while len(rows) < size:
        member_seed = derive_seed(seed, "family", idx)
        rng = np.random.default_rng(member_seed)
        j = int(rng.integers(1, sys.k + 1))
        tup = tuple(int(v) for v in rng.permutation(ensemble.m)[: sys.k - j] + 1)
        g_value = float(rng.uniform(0.25, 1.0))
        f_mode = "masked" if rng.uniform() < 0.5 else "full"
        rows.append(member(j, tup, "random_indicator", g_value, f_mode,
                           member_seed))
        descriptors.append({"kind": "basic", "j": j, "indices": list(tup),
                            "g_density": g_value, "f_mode": f_mode})
        idx += 1
    for V in (sets or []):
        rows.append(WeightFunction.indicator(domain, V).dense())
        descriptors.append({"kind": "indicator",
                            "size": int(np.asarray(V).size)})
    provenance = {"size": size, "seed": seed, "system": sys.descriptor(),
                  "ensemble_seed": ensemble.master_seed,
                  "indicators": len(sets or [])}
    return np.array(rows), descriptors, provenance


# --- reference copy of the full dense-model LP ----------------------------
#
# solve_dense_model used to hand HiGHS two rows per family member, with
# duplicates and rows the box bounds satisfy.  That formulation is kept here
# as the reference the reduced LP must equal bit for bit.  It works on plain
# arrays, so this file still imports nothing from sparselab.

def ref_solve_dense_model(fd, matrix, eps=0.0):
    """(g, lp_optimum, iterations, status, achieved_norm) of the LP
    min over 0 <= g <= 1 of max_i |<fd/(1+eps) - g, matrix_i>| with the
    rows phi_i.g - t <= b_i and -phi_i.g - t <= -b_i for every member."""
    import numpy as np
    from scipy.optimize import linprog

    X = fd.size
    target = fd * (1.0 / (1.0 + eps))
    Phi = matrix / X
    b = Phi @ target
    M = Phi.shape[0]
    c = np.zeros(X + 1)
    c[-1] = 1.0
    A = np.zeros((2 * M, X + 1))
    A[:M, :X] = Phi
    A[M:, :X] = -Phi
    A[:, -1] = -1.0
    res = linprog(c, A_ub=A, b_ub=np.concatenate([b, -b]),
                  bounds=[(0.0, 1.0)] * X + [(0.0, None)], method="highs")
    if res.x is not None:
        g = np.clip(res.x[:X], 0.0, 1.0)
        status = "optimal" if res.status == 0 else f"best-so-far:{res.message}"
        lp_opt = float(res.fun) if res.fun is not None else math.inf
    else:
        g = np.clip(target, 0.0, 1.0)
        status = f"fallback:{res.message}"
        lp_opt = math.inf
    achieved = float(np.abs(Phi @ (target - g)).max())
    return g, lp_opt, int(getattr(res, "nit", 0) or 0), status, achieved

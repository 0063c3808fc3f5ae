"""Checks of workload outputs that do not use the code under test.

Two kinds of check run on every trial:

* independent recomputation: the benchmark redraws each random set from
  its seed with its own copy of the counter-based sampler, counts 3-term
  progressions by FFT, bounds how few elements a progression-free subset
  can drop, evaluates convolutions and anti-uniform family members at
  seeded probe points, and recomputes the dense-model counting lemma with
  plain numpy;
* reference values recorded from the seed commit (``reference/*.json``) for
  the default and one held-out seed, compared exactly for tallies and
  counts and within ``TOLERANCE`` for float statistics, because a batched
  or FFT evaluator changes the last bits.

Each check returns a list of problems; an empty list means the trial is
correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# (relative, absolute) tolerance per float field; every other field must
# match exactly.
TOLERANCE = {
    "p": (1e-15, 0.0),
    "normalized_count": (1e-9, 1e-12),
    "count_stderr": (0.0, 1e-12),
    "free_density": (1e-12, 0.0),
    "normalized_mono": (1e-9, 0.0),
    "property0": (1e-9, 1e-12),
    "property1": (1e-9, 1e-12),
    "property2": (1e-9, 1e-12),
    "probe_values": (1e-9, 1e-12),
    "member_values": (1e-9, 1e-12),
    "achieved_norm": (0.0, 1e-7),
    "split_value": (1e-9, 1e-12),
    "count_value": (0.0, 1e-6),
    "gap": (0.0, 1e-6),
}

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def stable_hash(*parts):
    """64-bit seed from labelled parts (the package's seed-derivation rule)."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def derive_seed(master, *labels):
    return stable_hash("derive", master, *labels)


def _mix64(z):
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)) & _MASK
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK
        return z ^ (z >> np.uint64(31))


def sample_subset(n, p, seed):
    """Indices x < n with hash64(seed, x) < p: the package's documented
    inclusion rule, so every set a trial used can be redrawn here."""
    keyed = _mix64(np.arange(n, dtype=np.uint64)
                   ^ _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))
    draws = (keyed >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return np.nonzero(draws < p)[0].astype(np.int64)


def ap3_count(n, U):
    """Ordered tuples (x, x+d, x+2d) mod odd n, d != 0, inside U.

    s[m] counts pairs (a, c) in U x U with a + c = m; each middle b in U
    contributes s[2b], including its own d = 0 tuple once."""
    ind = np.zeros(n)
    ind[U] = 1.0
    s = np.rint(np.fft.irfft(np.fft.rfft(ind) ** 2, n))
    return int(s[(2 * np.asarray(U)) % n].sum()) - len(U)


def ap3_tuples_through(n, U):
    """For each b in U, the number of ordered 3-term progressions in U that
    contain b (as first, middle or last term)."""
    ind = np.zeros(n)
    ind[U] = 1.0
    F = np.fft.rfft(ind)
    middle = np.rint(np.fft.irfft(F ** 2, n))[(2 * U) % n] - 1
    # b first: d with b+d, b+2d in U, i.e. c in U with 2c - b in U, c != b;
    # b last is the same count with d -> -d
    doubled = np.zeros(n)
    doubled[(2 * U) % n] = 1.0
    first = np.rint(np.fft.irfft(np.fft.rfft(doubled) * np.conj(F), n))[U] - 1
    return middle + 2 * first


def _ap3_index(n):
    x = np.arange(n)[:, None]
    d = np.arange(1, n)[None, :]
    return (x + d) % n, (x + 2 * d) % n


def ap3_count_functional(n, g):
    """E over (x, x+d, x+2d), d != 0, of g g g."""
    i1, i2 = _ap3_index(n)
    return float((g[:, None] * g[i1] * g[i2]).mean())


def ap3_split_capped(n, fs, cap=2.0):
    """Mean over (a, b) of <fbar, min(conv_1(f_a, f_b), cap)>."""
    i1, i2 = _ap3_index(n)
    fbar = sum(fs) / len(fs)
    vals = [float(np.dot(fbar, np.minimum((fa[i1] * fb[i2]).mean(axis=1),
                                          cap))) / n
            for fa in fs for fb in fs]
    return float(np.mean(vals))


def close(field, got, want):
    rel, abs_ = TOLERANCE[field]
    return abs(got - want) <= abs_ + rel * abs(want)


def load_reference(workload, seed, size):
    """Recorded outputs of the first trials for this seed, by trial key."""
    path = REFERENCE_DIR / f"{workload}.json"
    if size != "full" or not path.is_file():
        return {}
    with open(path) as fh:
        data = json.load(fh)
    return data["seeds"].get(str(seed), {})


def _close_values(field, got, want):
    """Whether got matches want within the field's tolerance: numbers, or
    lists of numbers of the same length."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close_values(field, g, w) for g, w in zip(got, want)))
    return (isinstance(want, (int, float)) and isinstance(got, (int, float))
            and close(field, float(got), float(want)))


def compare_reference(out, ref):
    """Problems where the trial's fields differ from the recorded ones."""
    problems = []
    for field, want in ref.items():
        got = out.get(field)
        if field in TOLERANCE:
            ok = _close_values(field, got, want)
        else:
            ok = got == want
        if not ok:
            problems.append(f"{field}: got {got!r}, reference {want!r}")
    return problems


def _sweep_cell(n, out):
    """Shared sweep-cell checks; returns (problems, U)."""
    problems = []
    cell_seed = stable_hash(out["config_seed"], out["c_index"], out["trial"])
    if out["seed"] != cell_seed:
        problems.append(f"cell seed {out['seed']} != {cell_seed}")
    p = min(1.0, out["C"] * n ** -0.5)
    if not close("p", out["p"], p):
        problems.append(f"p {out['p']!r} != {p!r}")
    U = sample_subset(n, out["p"], out["seed"])
    if out["set_size"] != U.size:
        problems.append(f"set_size {out['set_size']} != {U.size}")
    return problems, U


def check_count_cell(n, out):
    problems, U = _sweep_cell(n, out)
    want = ap3_count(n, U) / (out["p"] ** 3 * n * (n - 1))
    got = out["normalized_count"]
    if not close("normalized_count", got, want):
        problems.append(f"normalized_count {got!r} != {want!r}")
    if out["count_stderr"] != 0.0:
        problems.append("count_stderr is not 0 for an exact count")
    if out["ok"] != (0.5 <= got <= 2.0):
        problems.append("pass flag disagrees with the [0.5, 2] window")
    return problems


def check_density_cell(n, out):
    problems, U = _sweep_cell(n, out)
    tuples = ap3_count(n, U)
    if out["tuples_in_set"] != tuples:
        problems.append(f"tuples_in_set {out['tuples_in_set']} != {tuples}")
    dens = out["free_density"]
    kept = dens * U.size
    if not (0.0 < dens <= 1.0 and abs(kept - round(kept)) < 1e-6):
        problems.append(f"free_density {dens!r} is not |A|/|U|")
    elif tuples:
        # U minus A meets every progression in U, and each removed b meets
        # at most max_b t_b of them
        need = -(-tuples // int(ap3_tuples_through(n, U).max()))
        if U.size - round(kept) < need:
            problems.append(f"free_density {dens!r} removes {U.size - round(kept)}"
                            f" elements; hitting {tuples} progressions needs "
                            f">= {need}")
    if out["ok"] != (dens >= 0.9):
        problems.append("pass flag disagrees with the 0.9 threshold")
    return problems


def check_colouring_cell(n, out):
    problems, U = _sweep_cell(n, out)
    tuples = ap3_count(n, U)
    mono = out["mono_count"]
    if not (0 <= mono <= tuples and mono == int(mono)):
        problems.append(f"mono_count {mono!r} outside [0, {tuples}]")
    want = mono / (out["p"] ** 3 * (n * (n - 1)))
    if not close("normalized_mono", out["normalized_mono"], want):
        problems.append(f"normalized_mono {out['normalized_mono']!r} != {want!r}")
    if out["ok"] != (mono > 0):
        problems.append("pass flag disagrees with mono_count > 0")
    return problems


def ensemble_sets(n, p, m, seed):
    return [sample_subset(n, p, derive_seed(seed, "ensemble", i))
            for i in range(m)]


def _check_sets(out, sets):
    sizes = [int(U.size) for U in sets]
    sums = [int(U.sum()) for U in sets]
    if out["sizes"] != sizes or out["sums"] != sums:
        return ["ensemble sets differ from the seeded draw"]
    return []


def conv_probe_args(n, m, seed, points=8):
    """(j, a, b, xs) at which Properties probes conv_j(mu_a, mu_b): every
    position j once, with a seeded pair of distinct ensemble indices and
    seeded points xs."""
    rng = np.random.default_rng(stable_hash(seed, "conv-probe"))
    args = []
    for j in (1, 2, 3):
        a, b = (int(i) + 1 for i in rng.permutation(m)[:2])
        args.append((j, a, b, [int(x) for x in rng.integers(0, n, size=points)]))
    return args


def conv_probe_values(n, p, sets, args):
    """conv_j(mu_a, mu_b)(x) on the 3-AP system with mu_i = 1/p on U_i, for
    every x of every probe: the number of d != 0 with x + (i - j) d in U_a
    and x + (i' - j) d in U_b, for the positions i < i' other than j, over
    p^2 (n - 1)."""
    d = np.arange(1, n)
    values = []
    for j, a, b, xs in args:
        oa, ob = (i - j for i in (1, 2, 3) if i != j)
        ina = np.zeros(n, dtype=bool)
        ina[sets[a - 1]] = True
        inb = np.zeros(n, dtype=bool)
        inb[sets[b - 1]] = True
        for x in xs:
            hits = ina[(x + oa * d) % n] & inb[(x + ob * d) % n]
            values.append(int(hits.sum()) / (p * p * (n - 1)))
    return values


def check_properties(n, p, m, thresholds, out):
    sets = ensemble_sets(n, p, m, out["seed"])
    problems = _check_sets(out, sets)
    sizes = np.array([U.size for U in sets], dtype=float)
    want0 = abs(sizes.sum() / (m * p * n) - 1.0)
    if not close("property0", out["property0"], want0):
        problems.append(f"property0 {out['property0']!r} != {want0!r}")
    # conv_2(1, mu_i)(x) = |U_i minus {x}| / (p (n-1)); j = 3 is identically 1
    lo = max(1.0, float((sizes - 1).max()) / (p * (n - 1)))
    hi = max(1.0, float(sizes.max()) / (p * (n - 1)))
    if not lo - 1e-9 <= out["property2"] <= hi + 1e-9:
        problems.append(f"property2 {out['property2']!r} outside [{lo}, {hi}]")
    stat1 = out["property1"]
    if not (math.isfinite(stat1) and stat1 >= 0.0):
        problems.append(f"property1 {stat1!r} is not a finite excess")
    want = conv_probe_values(n, p, sets,
                             conv_probe_args(n, m, out["seed"]))
    got = out["probe_values"]
    if not _close_values("probe_values", got, want):
        problems.append(f"convolve at probe points {got!r} != {want!r}")
    for i, thr in enumerate(thresholds):
        if out[f"ok{i}"] != (out[f"property{i}"] <= thr):
            problems.append(f"property{i} pass flag disagrees with {thr}")
    return problems


def member_probe_xs(n, seed, points=8):
    """Seeded points at which Transfer keeps every family member's values."""
    rng = np.random.default_rng(stable_hash(seed, "member-probe"))
    return [int(x) for x in rng.integers(0, n, size=points)]


def family_profiles(m, size, seed):
    """(j, indices, g, f_mode, member seed) of each member of
    build_family(size) after the constant 1, in order: first every (j,
    distinct indices) with g = ("constant", c) for four c (j = 1 has no g
    slot and comes once), then seeded random profiles with
    g = ("random", density), a random indicator."""
    profiles = []
    for j in (1, 2, 3):
        for tup in itertools.permutations(range(1, m + 1), 3 - j):
            for c in ((1.0,) if j == 1 else (1.0, 0.75, 0.5, 0.25)):
                profiles.append((j, tup, ("constant", c), "full", seed))
    del profiles[size - 1:]
    idx = 0
    while len(profiles) < size - 1:
        member_seed = derive_seed(seed, "family", idx)
        rng = np.random.default_rng(member_seed)
        j = int(rng.integers(1, 4))
        tup = tuple(int(v) + 1 for v in rng.permutation(m)[:3 - j])
        g = ("random", float(rng.uniform(0.25, 1.0)))
        f_mode = "masked" if rng.uniform() < 0.5 else "full"
        profiles.append((j, tup, g, f_mode, member_seed))
        idx += 1
    return profiles


def family_member_values(n, p, sets, seed, size, xs):
    """Values at xs of the members of build_family(size): capped conv_j of
    j - 1 leading g's and trailing f's, f = mu_i masked by a density-3/4
    subset in f_mode "masked"."""
    xs = np.asarray(xs)[:, None]
    d = np.arange(1, n)[None, :]
    rows = [np.ones(xs.shape[0])]
    for j, tup, g, f_mode, member_seed in family_profiles(len(sets), size,
                                                          seed):
        kind, value = g
        args = []
        for slot in range(j - 1):
            if kind == "random":
                h = np.zeros(n)
                h[sample_subset(n, value, derive_seed(member_seed, "g",
                                                      slot))] = 1.0
            else:
                h = np.full(n, value)
            args.append(h)
        for slot, i in enumerate(tup):
            h = np.zeros(n)
            h[sets[i - 1]] = 1.0 / p
            if f_mode == "masked":
                keep = np.zeros(n)
                keep[sample_subset(n, 0.75, derive_seed(member_seed, "f",
                                                        slot))] = 1.0
                h *= keep
            args.append(h)
        prod = np.ones((xs.shape[0], n - 1))
        for pos, h in zip((i for i in (1, 2, 3) if i != j), args):
            prod *= h[(xs + (pos - j) * d) % n]
        rows.append(np.minimum(prod.mean(axis=1), 2.0))
    return np.array(rows)


def check_transfer(n, p, m, k, out):
    sets = ensemble_sets(n, p, m, out["seed"])
    problems = _check_sets(out, sets)
    if out["status"] != "optimal":
        problems.append(f"LP status {out['status']!r}")
    g = np.asarray(out["g"])
    if g.min() < 0.0 or g.max() > 1.0:
        problems.append("dense model leaves [0, 1]")
    norm = out["achieved_norm"]
    if abs(norm - out["norm_recomputed"]) > 1e-9:
        problems.append(f"achieved_norm {norm!r} != recomputed "
                        f"{out['norm_recomputed']!r}")
    if norm > out["norm_constant"] + 1e-7:
        problems.append(f"achieved_norm {norm!r} exceeds the constant model's "
                        f"{out['norm_constant']!r}")
    got = out["member_values"]
    want = family_member_values(n, p, sets, out["seed"], out["members"],
                                member_probe_xs(n, out["seed"]))
    if got.shape != want.shape:
        problems.append(f"family members {got.shape} != {want.shape}")
    else:
        bad = np.nonzero(~np.isclose(got, want, *TOLERANCE["member_values"])
                         .all(axis=1))[0]
        if bad.size:
            problems.append(f"{bad.size} family members (first "
                            f"{bad[:5].tolist()}) differ from their profiles "
                            "at the probe points")
    fs = []
    for U in sets:
        f = np.zeros(n)
        f[U] = 1.0 / p
        fs.append(f)
    split = ap3_split_capped(n, fs)
    count = ap3_count_functional(n, g)
    if not close("split_value", out["split_value"], split):
        problems.append(f"split_value {out['split_value']!r} != {split!r}")
    if not close("count_value", out["count_value"], count):
        problems.append(f"count_value {out['count_value']!r} != {count!r}")
    gap = out["gap"]
    if not close("gap", gap, abs(split - count)):
        problems.append(f"gap {gap!r} != {abs(split - count)!r}")
    if out["ok"] != (gap <= 4.0 * (k * norm)):
        problems.append("counting-lemma flag disagrees with gap <= 4 eta")
    return problems

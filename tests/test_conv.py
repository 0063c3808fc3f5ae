import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.conv import (CAP, capped_convolve, convolve, count_functional,
                            split_capped_count, w_kernel)
from sparselab.core import GroundSet, WeightFunction, inner_product, lp_norm, make_measure
from sparselab.sample import sample_subset
from sparselab.systems import (APSystem, CopySystem, EnumerationGuardError,
                               HomothetySystem, PatternHypergraph,
                               PolyAPSystem, SchurSystem)

from bruteforce import (brute_aps, brute_convolution, brute_count,
                        brute_split_capped)


def _wf(domain, d):
    v = np.zeros(domain.size)
    for i, x in d.items():
        v[i] = x
    return WeightFunction(domain, values=v)


def test_convolve_z5_worked_example():
    sys = APSystem(5, 3)
    h = make_measure(sys.ground, [0, 1], "characteristic")  # height 5/2
    res = convolve(sys, 1, [h, h])
    assert res.values[4] == pytest.approx(25 / 16)  # only (4,0,1) survives
    assert res.values[0] == pytest.approx(0.0)
    hd = {0: 2.5, 1: 2.5}
    for x in range(5):
        want = brute_convolution(brute_aps(5, 3), 1, {2: hd, 3: hd}, x)
        assert res.values[x] == pytest.approx(want)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=25, deadline=None)
def test_convolve_matches_bruteforce_random(seed):
    rng = np.random.default_rng(seed)
    sys = APSystem(7, 3)
    tuples_ = brute_aps(7, 3)
    fs = [dict(enumerate(rng.uniform(0, 3, size=7))) for _ in range(2)]
    j = int(rng.integers(1, 4))
    funcs = {i: fs[t] for t, i in enumerate(i for i in (1, 2, 3) if i != j)}
    res = convolve(sys, j, [_wf(sys.ground, f) for f in funcs.values()])
    for x in range(7):
        assert res.values[x] == pytest.approx(
            brute_convolution(tuples_, j, funcs, x), abs=1e-9)


def test_convolve_copy_system_matches_bruteforce():
    sys = CopySystem(5, PatternHypergraph.complete(3))
    rng = np.random.default_rng(7)
    vals = rng.uniform(0, 2, size=sys.ground.size)
    f = WeightFunction(sys.ground, values=vals)
    res = convolve(sys, 2, [f, f])
    # brute force over raw injections
    edges = sys.pattern.edges
    for x in (0, 3, 9):
        x_set = sys.ground.element(x)
        acc, cnt = 0.0, 0
        for phi in itertools.permutations(range(5), 3):
            imgs = [tuple(sorted(phi[u] for u in e)) for e in edges]
            if imgs[1] != x_set:
                continue
            acc += vals[sys.ground.index(imgs[0])] * vals[sys.ground.index(imgs[2])]
            cnt += 1
        assert res.values[x] == pytest.approx(acc / cnt)


def test_adjointness_across_positions():
    # <h_j, conv_j(others)> is the same for every j: the full product count
    sys = APSystem(11, 3)
    rng = np.random.default_rng(2)
    hs = [WeightFunction(sys.ground, values=rng.uniform(-1, 2, 11))
          for _ in range(3)]
    vals = []
    for j in (1, 2, 3):
        others = [hs[i] for i in range(3) if i != j - 1]
        res = convolve(sys, j, others)
        vals.append(inner_product(hs[j - 1], WeightFunction(sys.ground, values=res.values)))
    assert vals[0] == pytest.approx(vals[1], abs=1e-9)
    assert vals[1] == pytest.approx(vals[2], abs=1e-9)


def test_adjointness_copy_system():
    sys = CopySystem(6, PatternHypergraph.complete(3))
    rng = np.random.default_rng(3)
    hs = [WeightFunction(sys.ground, values=rng.uniform(0, 1.5, sys.ground.size))
          for _ in range(3)]
    vals = []
    for j in (1, 2, 3):
        others = [hs[i] for i in range(3) if i != j - 1]
        res = convolve(sys, j, others)
        vals.append(inner_product(hs[j - 1], WeightFunction(sys.ground, values=res.values)))
    assert max(vals) - min(vals) == pytest.approx(0.0, abs=1e-9)


def test_capped_convolve_caps_at_two():
    sys = APSystem(7, 3)
    big = WeightFunction(sys.ground, values=np.full(7, 3.0))
    plain = convolve(sys, 1, [big, big])
    capped = capped_convolve(sys, 1, [big, big])
    assert np.all(plain.values == pytest.approx(9.0))
    assert np.all(capped.values == pytest.approx(CAP))
    np.testing.assert_allclose(capped.values, np.minimum(plain.values, CAP))


def test_capped_convolve_rejects_negative():
    sys = APSystem(7, 3)
    neg = WeightFunction(sys.ground, values=np.full(7, -0.1))
    with pytest.raises(ValueError):
        capped_convolve(sys, 1, [neg, neg])


def test_count_functional_ap_z5_small_support():
    sys = APSystem(5, 3)
    f = make_measure(sys.ground, [0, 1], "characteristic")
    val = count_functional(sys, f, mode="exact")
    assert val == pytest.approx(0.0)


def test_count_functional_modes_agree():
    sys = APSystem(13, 3)
    rng = np.random.default_rng(11)
    supp = rng.choice(13, size=5, replace=False)
    fd = {int(i): float(rng.uniform(0.5, 2)) for i in supp}
    f = _wf(sys.ground, fd)
    exact = count_functional(sys, f, mode="exact")
    support = count_functional(sys, f, mode="support")
    brute = brute_count(brute_aps(13, 3), fd)
    assert exact == pytest.approx(brute, abs=1e-12)
    assert support == pytest.approx(brute, abs=1e-12)


def test_count_functional_support_no_bulk_paths():
    # schur/homothety/polyap use the generic pair-completion loop
    rng = np.random.default_rng(23)
    for sys in [SchurSystem(11), PolyAPSystem(31, 3, 2),
                HomothetySystem(5, 2, [(0, 0), (0, 1), (1, 0)])]:
        supp = rng.choice(sys.ground.size, size=4, replace=False)
        fd = {int(i): float(rng.uniform(0.5, 2)) for i in supp}
        f = _wf(sys.ground, fd)
        exact = count_functional(sys, f, mode="exact")
        support = count_functional(sys, f, mode="support")
        assert support == pytest.approx(exact, abs=1e-12)


def test_count_functional_copy_support_matches_exact():
    sys = CopySystem(6, PatternHypergraph.complete(3))
    rng = np.random.default_rng(5)
    supp = rng.choice(sys.ground.size, size=6, replace=False)
    fd = {int(i): float(rng.uniform(0.5, 2)) for i in supp}
    f = _wf(sys.ground, fd)
    exact = count_functional(sys, f, mode="exact")
    support = count_functional(sys, f, mode="support")
    assert support == pytest.approx(exact, abs=1e-12)


def test_count_functional_adjoint_form():
    sys = APSystem(11, 3)
    rng = np.random.default_rng(17)
    f = WeightFunction(sys.ground, values=rng.uniform(0, 2, 11))
    cnt = count_functional(sys, f, mode="exact")
    res = convolve(sys, 1, [f, f])
    assert cnt == pytest.approx(inner_product(f, WeightFunction(sys.ground, values=res.values)))


def test_count_guard():
    # the exact count gathers 10007 * 10006 rows over a full support
    sys = APSystem(10007, 3)
    f = WeightFunction.constant(sys.ground, 1.0)
    with pytest.raises(EnumerationGuardError):
        count_functional(sys, f, mode="exact")
    # a full-X gather for 4-term progressions: no FFT to fall back on
    sys4 = APSystem(10007, 4)
    g = WeightFunction.constant(sys4.ground, 1.0)
    with pytest.raises(EnumerationGuardError):
        convolve(sys4, 1, [g, g, g])


def test_split_capped_count_matches_bruteforce():
    sys = APSystem(7, 3)
    rng = np.random.default_rng(29)
    fs_d = []
    for _ in range(2):
        supp = rng.choice(7, size=4, replace=False)
        fs_d.append({int(i): float(rng.uniform(0, 4)) for i in supp})
    fs = [_wf(sys.ground, d) for d in fs_d]
    got = split_capped_count(sys, fs)
    want = brute_split_capped(brute_aps(7, 3), fs_d, list(range(7)))
    assert got == pytest.approx(want, abs=1e-12)


def test_w_kernel_ap_midpoint():
    sys = APSystem(11, 3)
    rng = np.random.default_rng(41)
    mu = WeightFunction(sys.ground, values=rng.uniform(0, 3, 11))
    inv2 = pow(2, -1, 11)
    for x, y in [(0, 4), (3, 3), (5, 9)]:
        res = w_kernel(sys, [mu], x, y)
        if x == y:
            assert res.intersection_size == 0 and res.value == 0.0
        else:
            mid = ((x + y) * inv2) % 11
            assert res.intersection_size == 1
            assert res.value == pytest.approx(mu.dense()[mid])


def test_w_kernel_two_dof_ceiling():
    # with associated measures in the middle slots, W is at most p^{-(k-2)}
    sys = APSystem(101, 4)
    p = 0.3
    U2 = sample_subset(sys.ground, p, seed=4)
    U3 = sample_subset(sys.ground, p, seed=5)
    mus = [make_measure(sys.ground, U, "associated", p=p) for U in (U2, U3)]
    worst = 0.0
    rng = np.random.default_rng(6)
    for _ in range(300):
        x, y = rng.integers(0, 101, size=2)
        res = w_kernel(sys, mus, int(x), int(y))
        worst = max(worst, res.value)
        assert res.intersection_size <= 1
    assert worst <= p ** (-2) + 1e-9
    assert worst > 0  # sampling should hit at least one occupied pair


def test_w_kernel_copy_k3():
    sys = CopySystem(8, PatternHypergraph.complete(3))
    g = sys.ground
    vals = np.zeros(g.size)
    third = g.index((0, 2))
    vals[third] = 1.75
    mu = WeightFunction(g, values=vals)
    res = w_kernel(sys, [mu], g.index((0, 1)), g.index((1, 2)))
    # the unique completing injection uses edge {0,2} in the middle slot
    assert res.intersection_size == 1
    assert res.value == pytest.approx(1.75)


def test_precounting_identity_on_checked_instance():
    # Split capped count vs dense count plus the telescoped correction:
    # within 2*eta once the averaging width m reaches 2 k^3 / eta,
    # provided the L1 and sup-side hypotheses hold (checked explicitly).
    sys = APSystem(7, 3)
    n, k, p, eta = 7, 3, 0.5, 1.0
    m = 54  # = 2 k^3 / eta
    rng = np.random.default_rng(1234)
    fs, mus = [], []
    for t in range(m):
        U = sample_subset(sys.ground, p, seed=5000 + t)
        if U.size == 0:
            U = np.array([t % n])
        mu = make_measure(sys.ground, U, "associated", p=p)
        mus.append(mu)
        mask = rng.uniform(0.5, 1.0, n)
        fs.append(WeightFunction(sys.ground, values=mu.dense() * mask))
    g = WeightFunction(sys.ground, values=rng.uniform(0, 1, n))

    # hypotheses: measure mass, capped L1 differences, constant-slot sup
    assert all(lp_norm(mu, 1) <= 2 for mu in mus)
    ones = WeightFunction.constant(sys.ground, 1.0)
    for a, b in itertools.permutations(range(m), 2):
        if a >= 6 or b >= 6:  # full quadratic scan is wasteful; spot check
            continue
        plain = convolve(sys, 1, [mus[a], mus[b]])
        excess = np.maximum(plain.values - CAP, 0.0).mean()
        assert excess <= eta
    for i in range(6):
        res = convolve(sys, 2, [ones, mus[i]])
        assert res.values.max() <= CAP + 1e-9

    split = split_capped_count(sys, fs)
    dense = count_functional(sys, g, mode="exact")
    correction = 0.0
    for j in range(1, k + 1):
        acc = np.zeros(n)
        combos = list(itertools.product(range(m), repeat=k - j))
        for combo in combos:
            args = [g] * (j - 1) + [fs[c] for c in combo]
            acc += capped_convolve(sys, j, args).values
        phi = WeightFunction(sys.ground, values=acc / len(combos))
        fbar = WeightFunction(sys.ground,
                              values=sum(f.dense() for f in fs) / m)
        diff = WeightFunction(sys.ground, values=fbar.dense() - g.dense())
        correction += inner_product(diff, phi)
    residual = abs(split - dense - correction)
    assert residual <= 2 * eta
    # frozen empirical regression value for this seeded instance
    assert residual <= 0.25

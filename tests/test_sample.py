import numpy as np
import pytest

from sparselab.core import GroundSet, lp_norm
from sparselab.sample import (derive_seed, sample_ensemble, sample_subset,
                              stable_hash, uniform01)


def test_sampling_is_deterministic():
    g = GroundSet.cyclic(500)
    a = sample_subset(g, 0.3, seed=7)
    b = sample_subset(g, 0.3, seed=7)
    np.testing.assert_array_equal(a, b)
    c = sample_subset(g, 0.3, seed=8)
    assert not np.array_equal(a, c)


def test_draws_are_order_independent():
    idx = np.array([5, 2, 9, 2])
    batch = uniform01(123, idx)
    singles = np.array([uniform01(123, np.array([i]))[0] for i in idx])
    np.testing.assert_array_equal(batch, singles)
    assert batch[1] == batch[3]  # same element, same draw


def test_stable_hash_frozen_value():
    # frozen so that on-disk seeds stay valid across refactors
    assert stable_hash("a", 1, (2, 3)) == 6616769351705172820
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") == derive_seed(1, "x")


def test_subset_size_law():
    g = GroundSet.cyclic(400)
    p = 0.25
    sizes = [sample_subset(g, p, seed=s).size for s in range(400)]
    mean = np.mean(sizes)
    # Bin(400, .25): mean 100, sd ~8.7; 400 trials -> sem ~0.43
    assert abs(mean - 100) < 3
    var = np.var(sizes)
    assert 0.6 * 75 < var < 1.4 * 75


def test_density_edge_cases():
    g = GroundSet.cyclic(50)
    assert sample_subset(g, 0.0, 1).size == 0
    assert sample_subset(g, 1.0, 1).size == 50
    with pytest.raises(ValueError):
        sample_subset(g, 1.5, 1)


def test_ensemble_structure():
    g = GroundSet.cyclic(200)
    ens = sample_ensemble(g, 0.3, 4, master_seed=11)
    assert ens.m == 4 and len(ens.sets) == 4
    assert len(set(ens.seeds)) == 4
    mus = ens.measures()
    for U, mu in zip(ens.sets, mus):
        assert lp_norm(mu, 1) == pytest.approx(U.size / (0.3 * 200))
    avg = ens.averaged_measure()
    want = sum(mu.dense() for mu in mus) / 4
    np.testing.assert_allclose(avg.dense(), want)

"""Random subsets of a ground set, deterministically seeded.

Inclusion draws are counter-based: element x goes into the sample iff
hash64(seed, index(x)) < p, where hash64 is a splitmix64-style mixer.  The
draw for a given (seed, element) never depends on evaluation order or on how
many other elements are probed, so resampling and parallel sweeps reproduce
byte-identically.

Derived seeds (per ensemble member, per trial, per grid cell) come from a
blake2b digest of labelled parts, so they are stable across processes and
Python versions regardless of PYTHONHASHSEED.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .core import GroundSet, WeightFunction, make_measure

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix64(z):
    """splitmix64 finalizer, vectorized over uint64 arrays (wraparound wanted)."""
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)) & _MASK
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK
        return z ^ (z >> np.uint64(31))


def uniform01(seed, indices):
    """Uniform [0,1) draw per index, keyed by (seed, index) only.  A sequence
    of seeds gives one row per seed, equal to that seed's own call."""
    idx = np.asarray(indices, dtype=np.uint64)
    one = isinstance(seed, (int, np.integer))
    keys = np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in
                     ([seed] if one else seed)], dtype=np.uint64)
    keyed = _mix64(idx ^ _mix64(keys[:, None]))
    draws = (keyed >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return draws[0] if one else draws


def stable_hash(*parts):
    """64-bit seed derived from labelled parts; stable across runs/processes."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def derive_seed(master, *labels):
    return stable_hash("derive", master, *labels)


def sample_subset(domain: GroundSet, p: float, seed: int) -> np.ndarray:
    """Element indices of a density-p random subset of X (sorted int64)."""
    if not 0 <= p <= 1:
        raise ValueError("density p must lie in [0, 1]")
    draws = uniform01(seed, np.arange(domain.size))
    return np.nonzero(draws < p)[0].astype(np.int64)


@dataclass
class RandomEnsemble:
    """m independent density-p subsets U_1..U_m of one ground set."""

    domain: GroundSet
    p: float
    m: int
    master_seed: int
    sets: list = field(default_factory=list)
    seeds: list = field(default_factory=list)

    def associated_measure(self, i) -> WeightFunction:
        """mu_i = p^{-1} on U_i (1-based i, matching position indices)."""
        return make_measure(self.domain, self.sets[i - 1], "associated", p=self.p)

    def measures(self):
        return [self.associated_measure(i) for i in range(1, self.m + 1)]

    def averaged_measure(self) -> WeightFunction:
        """mu = m^{-1} (mu_1 + ... + mu_m)."""
        acc = np.zeros(self.domain.size)
        for mu in self.measures():
            acc = acc + mu.dense()
        return WeightFunction(self.domain, values=acc / self.m)


def sample_ensemble(domain: GroundSet, p: float, m: int, master_seed: int) -> RandomEnsemble:
    if m < 1:
        raise ValueError("an ensemble needs m >= 1 sets")
    seeds = [derive_seed(master_seed, "ensemble", i) for i in range(m)]
    sets = [sample_subset(domain, p, s) for s in seeds]
    return RandomEnsemble(domain, p, m, master_seed, sets, seeds)

"""Ground sets and weight functions.

Everything downstream works over a finite ground set X with a fixed element
ordering, and real-valued weight functions on X.  Expectations are always
uniform over X: E_x f(x) = |X|^{-1} sum_x f(x), the inner product is
<f,g> = E_x f(x)g(x), and L^p norms use the same normalized expectation.

Three ground set kinds are supported:

  * cyclic(n)       -- Z_n, elements 0..n-1 (optionally with 0 removed);
  * grid(n, r)      -- Z_n^r, elements are r-tuples, little-endian base-n index;
  * ksubsets(n, k)  -- k-element subsets of {0..n-1}, lexicographic rank.

A weight function is a read-only dense numpy vector over X.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GroundSet:
    kind: str  # "cyclic" | "grid" | "ksubsets"
    n: int
    r: int = 1
    k: int = 1
    exclude_zero: bool = False

    @staticmethod
    def cyclic(n, exclude_zero=False):
        if n < 2:
            raise ValueError("cyclic ground set needs n >= 2")
        return GroundSet("cyclic", n, exclude_zero=exclude_zero)

    @staticmethod
    def grid(n, r):
        if n < 2 or r < 1:
            raise ValueError("grid ground set needs n >= 2, r >= 1")
        return GroundSet("grid", n, r=r)

    @staticmethod
    def ksubsets(n, k):
        if not 1 <= k <= n:
            raise ValueError("ksubsets ground set needs 1 <= k <= n")
        return GroundSet("ksubsets", n, k=k)

    @property
    def size(self):
        if self.kind == "cyclic":
            return self.n - 1 if self.exclude_zero else self.n
        if self.kind == "grid":
            return self.n ** self.r
        if self.kind == "ksubsets":
            return math.comb(self.n, self.k)
        raise ValueError(f"unknown ground set kind {self.kind!r}")

    # --- element <-> index bijection ------------------------------------

    def element(self, i):
        """The i-th element under the fixed ordering."""
        size = self.size
        if not 0 <= i < size:
            raise IndexError(f"index {i} out of range for |X|={size}")
        if self.kind == "cyclic":
            return i + 1 if self.exclude_zero else i
        if self.kind == "grid":
            coords = []
            for _ in range(self.r):
                coords.append(i % self.n)
                i //= self.n
            return tuple(coords)
        return _unrank_subset(i, self.n, self.k)

    def index(self, e):
        """Rank of an element; inverse of element()."""
        if self.kind == "cyclic":
            e = int(e)
            if self.exclude_zero:
                if not 1 <= e < self.n:
                    raise ValueError(f"{e} not in Z_{self.n} minus 0")
                return e - 1
            if not 0 <= e < self.n:
                raise ValueError(f"{e} not in Z_{self.n}")
            return e
        if self.kind == "grid":
            if len(e) != self.r:
                raise ValueError(f"grid element needs {self.r} coordinates")
            idx = 0
            for c in reversed(e):
                if not 0 <= c < self.n:
                    raise ValueError(f"coordinate {c} out of range")
                idx = idx * self.n + int(c)
            return idx
        return _rank_subset(tuple(sorted(e)), self.n, self.k)


def _rank_subset(s, n, k):
    """Lexicographic rank of a sorted k-tuple of distinct ints in 0..n-1."""
    if len(s) != k or len(set(s)) != k:
        raise ValueError(f"expected {k} distinct vertices, got {s}")
    rank = 0
    prev = -1
    for pos, v in enumerate(s):
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        for w in range(prev + 1, v):
            rank += math.comb(n - 1 - w, k - 1 - pos)
        prev = v
    return rank


def _unrank_subset(rank, n, k):
    out = []
    v = 0
    for pos in range(k):
        while True:
            block = math.comb(n - 1 - v, k - 1 - pos)
            if rank < block:
                break
            rank -= block
            v += 1
        out.append(v)
        v += 1
    return tuple(out)


class WeightFunction:
    """Real-valued function on a ground set, stored as a dense vector over X.

    Instances are treated as immutable; the array is marked read-only.
    """

    def __init__(self, domain: GroundSet, values):
        self.domain = domain
        arr = np.asarray(values, dtype=float)
        if arr.shape != (domain.size,):
            raise ValueError(
                f"dense values need shape ({domain.size},), got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        self._dense = arr

    # --- constructors ----------------------------------------------------

    @staticmethod
    def constant(domain, c):
        return WeightFunction(domain, values=np.full(domain.size, float(c)))

    @staticmethod
    def indicator(domain, indices):
        v = np.zeros(domain.size)
        v[np.asarray(indices, dtype=int)] = 1.0
        return WeightFunction(domain, values=v)

    # --- storage ---------------------------------------------------------

    def dense(self):
        """Values as a read-only numpy vector over all of X."""
        return self._dense

    def support_indices(self):
        return np.nonzero(self._dense)[0].astype(np.int64)

    def __repr__(self):
        return f"WeightFunction({self.domain.kind}, |X|={self.domain.size})"


def inner_product(f: WeightFunction, g: WeightFunction) -> float:
    """<f, g> = E_x f(x) g(x)."""
    if f.domain != g.domain:
        raise ValueError(f"domain mismatch: {f.domain} vs {g.domain}")
    return float(np.dot(f._dense, g._dense)) / f.domain.size


def lp_norm(f: WeightFunction, p) -> float:
    """||f||_p under the normalized E_x, with ||f||_inf = max_x |f(x)|."""
    if p == math.inf or p == "inf":
        return float(np.max(np.abs(f._dense))) if f.domain.size else 0.0
    p = float(p)
    if p < 1:
        raise ValueError("lp_norm needs p >= 1 or inf")
    s = float(np.sum(np.abs(f._dense) ** p))
    return (s / f.domain.size) ** (1.0 / p)


def make_measure(domain: GroundSet, subset, mode="characteristic",
                 p=None) -> WeightFunction:
    """Measure of a subset U of X.

    characteristic: |X|/|U| on U, 0 elsewhere -- always has L1 norm exactly 1.
    associated:     1/p on U, 0 elsewhere     -- L1 norm |U|/(p|X|), the
                    sparse-random normalization for U drawn at density p.
    """
    idx = np.asarray(subset, dtype=np.int64)
    if idx.size != np.unique(idx).size:
        raise ValueError("subset contains repeated indices")
    if idx.size and (idx.min() < 0 or idx.max() >= domain.size):
        raise ValueError("subset index out of range")
    if mode == "characteristic":
        if idx.size == 0:
            raise ValueError("characteristic measure of the empty set is undefined")
        height = domain.size / idx.size
    elif mode == "associated":
        if p is None or not 0 < p <= 1:
            raise ValueError("associated measure needs a density 0 < p <= 1")
        if idx.size == 0:
            warnings.warn("associated measure of an empty set is identically zero")
        height = 1.0 / p
    else:
        raise ValueError(f"unknown measure mode {mode!r}")
    v = np.zeros(domain.size)
    v[idx] = height
    return WeightFunction(domain, values=v)

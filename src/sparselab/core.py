"""Ground sets and weight functions.

Everything downstream works over a finite ground set X with a fixed element
ordering, and real-valued weight functions on X.  Expectations are always
uniform over X: E_x f(x) = |X|^{-1} sum_x f(x), the inner product is
<f,g> = E_x f(x)g(x), and L^p norms use the same normalized expectation.

Three ground set kinds are supported:

  * cyclic(n)       -- Z_n, elements 0..n-1 (optionally with 0 removed);
  * grid(n, r)      -- Z_n^r, elements are r-tuples, little-endian base-n index;
  * ksubsets(n, k)  -- k-element subsets of {0..n-1}, lexicographic rank.

Weight functions store either a dense numpy vector over X or a sparse
{index: value} dict; the calculus is storage-agnostic.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# Dense storage is the default up to this many elements; beyond it callers
# should hand in sparse data.
DENSE_LIMIT = 2 ** 24


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

    def elements(self):
        for i in range(self.size):
            yield self.element(i)

    # --- serialization ---------------------------------------------------

    def to_json(self):
        d = {"kind": self.kind, "n": self.n}
        if self.kind == "grid":
            d["r"] = self.r
        if self.kind == "ksubsets":
            d["k"] = self.k
        if self.exclude_zero:
            d["exclude_zero"] = True
        return d

    @staticmethod
    def from_json(d):
        kind = d["kind"]
        if kind == "cyclic":
            return GroundSet.cyclic(d["n"], d.get("exclude_zero", False))
        if kind == "grid":
            return GroundSet.grid(d["n"], d["r"])
        if kind == "ksubsets":
            return GroundSet.ksubsets(d["n"], d["k"])
        raise ValueError(f"unknown ground set kind {kind!r}")


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
    """Real-valued function on a ground set, dense or sparse storage.

    Sparse storage means "zero off the stored support".  Instances are
    treated as immutable; dense arrays are marked read-only.
    """

    def __init__(self, domain: GroundSet, values=None, sparse=None):
        if (values is None) == (sparse is None):
            raise ValueError("give exactly one of values= or sparse=")
        self.domain = domain
        if values is not None:
            arr = np.asarray(values, dtype=float)
            if arr.shape != (domain.size,):
                raise ValueError(
                    f"dense values need shape ({domain.size},), got {arr.shape}")
            arr = arr.copy()
            arr.flags.writeable = False
            self._dense = arr
            self._sparse = None
        else:
            self._dense = None
            self._sparse = {int(i): float(v) for i, v in sparse.items()}
            for i in self._sparse:
                if not 0 <= i < domain.size:
                    raise ValueError(f"sparse index {i} out of range")

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

    @property
    def is_sparse(self):
        return self._sparse is not None

    def dense(self):
        """Values as a read-only numpy vector over all of X."""
        if self._dense is not None:
            return self._dense
        if self.domain.size > DENSE_LIMIT:
            raise ValueError("domain too large to densify")
        v = np.zeros(self.domain.size)
        for i, x in self._sparse.items():
            v[i] = x
        v.flags.writeable = False
        return v

    def sparse_items(self):
        if self._sparse is not None:
            return dict(self._sparse)
        nz = np.nonzero(self._dense)[0]
        return {int(i): float(self._dense[i]) for i in nz}

    def value_at(self, i):
        if self._dense is not None:
            return float(self._dense[i])
        return self._sparse.get(int(i), 0.0)

    def support_indices(self):
        if self._sparse is not None:
            return np.array(sorted(i for i, v in self._sparse.items() if v != 0.0),
                            dtype=np.int64)
        return np.nonzero(self._dense)[0].astype(np.int64)

    # --- serialization ---------------------------------------------------

    def to_json(self):
        d = {"domain": self.domain.to_json()}
        if self._dense is not None:
            d["storage"] = "dense"
            d["values"] = [float(v) for v in self._dense]
        else:
            d["storage"] = "sparse"
            d["entries"] = {str(i): v for i, v in sorted(self._sparse.items())}
        return d

    @staticmethod
    def from_json(d):
        domain = GroundSet.from_json(d["domain"])
        if d["storage"] == "dense":
            return WeightFunction(domain, values=d["values"])
        return WeightFunction(domain,
                              sparse={int(i): v for i, v in d["entries"].items()})

    def dumps(self):
        return json.dumps(self.to_json())

    @staticmethod
    def loads(s):
        return WeightFunction.from_json(json.loads(s))

    def __repr__(self):
        store = "sparse" if self.is_sparse else "dense"
        return f"WeightFunction({self.domain.kind}, |X|={self.domain.size}, {store})"


def _check_same_domain(f, g):
    if f.domain != g.domain:
        raise ValueError(f"domain mismatch: {f.domain} vs {g.domain}")


def expectation(f: WeightFunction) -> float:
    """E_x f(x) = |X|^{-1} sum_x f(x)."""
    if f.is_sparse:
        return math.fsum(f._sparse.values()) / f.domain.size
    return float(np.sum(f._dense)) / f.domain.size


def inner_product(f: WeightFunction, g: WeightFunction) -> float:
    """<f, g> = E_x f(x) g(x)."""
    _check_same_domain(f, g)
    if not f.is_sparse and not g.is_sparse:
        return float(np.dot(f._dense, g._dense)) / f.domain.size
    # iterate the sparser side
    if f.is_sparse:
        sp, other = f, g
    else:
        sp, other = g, f
    total = math.fsum(v * other.value_at(i) for i, v in sp._sparse.items())
    return total / f.domain.size


def lp_norm(f: WeightFunction, p) -> float:
    """||f||_p under the normalized E_x, with ||f||_inf = max_x |f(x)|."""
    if p == math.inf or p == "inf":
        if f.is_sparse:
            vals = [abs(v) for v in f._sparse.values()]
            # zero off support counts whenever the support is proper
            if len(f._sparse) < f.domain.size:
                vals.append(0.0)
            return max(vals) if vals else 0.0
        return float(np.max(np.abs(f._dense))) if f.domain.size else 0.0
    p = float(p)
    if p < 1:
        raise ValueError("lp_norm needs p >= 1 or inf")
    if f.is_sparse:
        s = math.fsum(abs(v) ** p for v in f._sparse.values())
    else:
        s = float(np.sum(np.abs(f._dense) ** p))
    return (s / f.domain.size) ** (1.0 / p)


def make_measure(domain: GroundSet, subset, mode="characteristic", p=None,
                 sparse=None) -> WeightFunction:
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
    if sparse is None:
        sparse = domain.size > DENSE_LIMIT
    if sparse:
        return WeightFunction(domain, sparse={int(i): height for i in idx})
    v = np.zeros(domain.size)
    v[idx] = height
    return WeightFunction(domain, values=v)

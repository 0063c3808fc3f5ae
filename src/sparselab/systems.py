"""Homogeneous systems of ordered k-tuples over a ground set.

A sequence system S is a set of ordered k-tuples of elements of a ground set
X.  The fiber S_j(x) is the set of tuples whose j-th entry is x (positions
are 1-based).  S is homogeneous when, for each j, all fibers S_j(x) have the
same size; summing over x this forces |S_j(x)| * |X| = |S| for every j, so
the common size is also independent of j.

S has two degrees of freedom when agreeing in any two positions forces two
tuples to be equal.  For such systems the pair intersections S_1(x) n S_k(y)
have size 0 or a constant sigma, and t(x) counts the y with a non-empty
intersection.

Built-in kinds:

  ap          -- arithmetic progressions (x, x+d, ..., x+(k-1)d) in Z_n, d != 0
                 (optionally d = 0 included for degenerate-count experiments);
  interval-ap -- non-wrapping progressions inside {0..n-1}; a deliberately
                 NON-homogeneous control system;
  polyap      -- progressions with power gaps a, a+d^r, ..., a+(k-1)d^r with
                 1 <= d <= floor((n/k)^{1/r}); the range cap restores two
                 degrees of freedom;
  homothety   -- homothetic images a + d.P of a fixed point set P in Z_n^r;
  schur       -- triples (x, y, x+y) over Z_n with 0 removed, entries pairwise
                 distinct;
  copies      -- labelled ordered copies of a pattern hypergraph K inside the
                 complete k-uniform hypergraph on n vertices: tuples are the
                 edge images (phi(e_1), ..., phi(e_r)) under injections phi.

All tuples are reported as tuples of ELEMENT INDICES into the ground set, so
weight-function arrays can be indexed directly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import GroundSet, _rank_subset

ENUM_GUARD = 10 ** 7

# fiber rows per gather chunk; larger chunks spill the temporaries out of cache
CHUNK_ELEMENTS = 2 ** 14


class EnumerationGuardError(RuntimeError):
    """Raised when an exact enumeration would exceed the work guard."""


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for sp in small:
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PatternHypergraph:
    """k-uniform pattern with labelled (ordered) edges."""

    k: int
    num_vertices: int
    edges: tuple  # tuple of sorted vertex-tuples; order fixes tuple positions

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if len(e) != self.k or len(set(e)) != self.k:
                raise ValueError(f"edge {e} is not a {self.k}-set")
            if any(not 0 <= v < self.num_vertices for v in e):
                raise ValueError(f"edge {e} has a vertex out of range")
            if tuple(sorted(e)) != tuple(e):
                raise ValueError(f"edge {e} must be stored sorted")
            if e in seen:
                raise ValueError(f"repeated edge {e}")
            seen.add(e)
        if not self.edges:
            raise ValueError("pattern needs at least one edge")

    @property
    def num_edges(self):
        return len(self.edges)

    @staticmethod
    def complete(t):
        """K_t as a graph pattern (k = 2)."""
        return PatternHypergraph(
            2, t, tuple(tuple(e) for e in itertools.combinations(range(t), 2)))

    @staticmethod
    def cycle(length):
        if length < 3:
            raise ValueError("cycle needs length >= 3")
        edges = [tuple(sorted((i, (i + 1) % length))) for i in range(length)]
        return PatternHypergraph(2, length, tuple(edges))

    @staticmethod
    def fano():
        """The seven-point plane as a 3-uniform pattern."""
        lines = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6),
                 (0, 4, 5), (1, 5, 6), (0, 2, 6)]
        return PatternHypergraph(3, 7, tuple(tuple(sorted(l)) for l in lines))

    def to_json(self):
        return {"k": self.k, "v": self.num_vertices,
                "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json(d):
        if isinstance(d, PatternHypergraph):
            return d
        if isinstance(d, str):
            return _pattern_by_name(d)
        edges = tuple(tuple(sorted(e)) for e in d["edges"])
        v = d.get("v", 1 + max(max(e) for e in edges))
        return PatternHypergraph(d["k"], v, edges)


def _pattern_by_name(name):
    name = name.upper().replace("_", "")
    if name.startswith("K") and name[1:].isdigit():
        return PatternHypergraph.complete(int(name[1:]))
    if name.startswith("C") and name[1:].isdigit():
        return PatternHypergraph.cycle(int(name[1:]))
    if name == "FANO":
        return PatternHypergraph.fano()
    raise ValueError(f"unknown pattern name {name!r}")


@dataclass
class SystemReport:
    check: str
    ok: bool
    detail: dict = field(default_factory=dict)
    witness: object = None
    notes: list = field(default_factory=list)

    def to_json(self):
        return {"check": self.check, "ok": bool(self.ok), "detail": self.detail,
                "witness": self.witness, "notes": self.notes}


@dataclass
class PairProfile:
    sigma: object            # the constant intersection size, if uniform
    t: object                # the constant |K(x)|, if uniform
    uniform: bool
    observed_sigma: list
    observed_t: list
    checked_x: int
    notes: list = field(default_factory=list)

    def to_json(self):
        return {"sigma": self.sigma, "t": self.t, "uniform": self.uniform,
                "observed_sigma": self.observed_sigma,
                "observed_t": self.observed_t,
                "checked_x": self.checked_x, "notes": self.notes}


class SequenceSystem:
    """Base class; subclasses fill in fibers and (optionally) completions."""

    kind = "abstract"
    claims_two_dof = False
    gamma = None  # fiber growth exponent |S_j(x)| ~ |X|^gamma, when meaningful

    def __init__(self, ground: GroundSet, k: int):
        self.ground = ground
        self.k = k
        self.notes = []
        self._fiber_cache = {}

    # --- interface -------------------------------------------------------

    @property
    def size(self):
        raise NotImplementedError

    def fiber_matrix(self, j, x):
        """All tuples with position j equal to element-index x, as an
        (fiber, k) int64 array of element indices."""
        raise NotImplementedError

    def enumerate_fiber(self, j, x):
        for row in self.fiber_matrix(j, x):
            yield tuple(int(v) for v in row)

    def fiber_size(self, j):
        if j not in self._fiber_cache:
            self._fiber_cache[j] = int(self.fiber_matrix(j, 0).shape[0])
        return self._fiber_cache[j]

    def fiber_block(self, j, xs):
        """The fibers S_j(x), x in xs, as (cols, counts): counts[t] =
        |S_j(xs[t])| and one index array per position i != j, in order.
        Entries lie in [0, 2|X|) and index concatenate([a, a]).  Columns are
        (len(xs), R) when all fibers have size R, else stacked (sum counts,).
        """
        mats = [self.fiber_matrix(j, int(x)) for x in xs]
        counts = np.array([m.shape[0] for m in mats], dtype=np.int64)
        rows = (np.concatenate(mats) if mats
                else np.empty((0, self.k), dtype=np.int64))
        cols = [rows[:, i] for i in range(self.k) if i != j - 1]
        if counts.size and np.all(counts == counts[0]):
            cols = [c.reshape(counts.size, -1) for c in cols]
        return cols, counts

    def fiber_blocks(self, j, xs):
        """Yield (lo, cols, counts): fiber_block of xs[lo:lo + step], with
        step points holding about CHUNK_ELEMENTS fiber rows."""
        step = max(1, CHUNK_ELEMENTS // max(self.fiber_size(j), 1))
        for lo in range(0, len(xs), step):
            cols, counts = self.fiber_block(j, xs[lo:lo + step])
            yield lo, cols, counts

    def complete_pairs(self, i, j, a, b):
        """(cols, valid) for broadcastable int arrays a, b of element indices:
        cols holds the k index arrays of the tuples with positions i, j equal
        to a, b, each entry congruent mod |X| to the element index (left
        unreduced where that is cheaper: read them with np.take(mode="wrap")),
        and valid marks the pairs that complete to a tuple of S.  Only systems
        claiming two degrees of freedom complete pairs, each kind in
        _complete(i, j, a, b) with a, b int64 arrays and i != j."""
        if not self.claims_two_dof:
            raise ValueError(
                f"{self.kind} system does not support pair completion")
        if i == j:
            raise ValueError("positions must differ")
        return self._complete(i, j, np.asarray(a, dtype=np.int64),
                              np.asarray(b, dtype=np.int64))

    def pairs_fix(self, i, j):
        """Whether positions i, j fix the rest of every tuple of S."""
        return self.claims_two_dof

    def by_pairs(self, m):
        """Whether m support points cost no more to scan by completing their
        m(m-1) ordered pairs than by gathering their m |S_1| fiber rows."""
        return self.pairs_fix(1, 2) and m - 1 <= self.fiber_size(1)

    def pair_blocks(self, U):
        """Yield (lo, cols, valid): complete_pairs(1, 2, a, b) for a block of
        points a = U[lo:lo + step] (a column) against all of U (a row), step
        about CHUNK_ELEMENTS // |U|: a-major, b in U's order, b = a too."""
        U = np.asarray(U, dtype=np.int64)
        step = max(1, CHUNK_ELEMENTS // max(U.size, 1))
        for lo in range(0, U.size, step):
            cols, valid = self.complete_pairs(1, 2, U[lo:lo + step, None], U)
            yield lo, cols, valid

    def pair_intersection(self, x, y):
        """Tuples in S_1(x) n S_k(y), as a (m, k) array."""
        if self.pairs_fix(1, self.k):
            cols, valid = self.complete_pairs(1, self.k, np.array([x]),
                                              np.array([y]))
            return np.stack(cols, axis=1)[valid] % self.ground.size
        mat = self.fiber_matrix(1, x)
        return mat[mat[:, self.k - 1] == y]

    def tuples(self, guard=ENUM_GUARD):
        """Iterate all of S (disjoint union of the S_1(x))."""
        if self.size > guard:
            raise EnumerationGuardError(
                f"enumerating S needs {self.size} tuples, over the guard "
                f"of {guard}")
        for x in range(self.ground.size):
            yield from self.enumerate_fiber(1, x)

    def descriptor(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor()})"


def _require_prime(n, kind, require_prime):
    if require_prime and not is_probable_prime(n):
        raise ValueError(
            f"{kind} system demands prime n for its fiber guarantees; "
            f"{n} is composite (pass require_prime=False to override)")


class _Progressions(SequenceSystem):
    """Progressions (x, x+g, ..., x+(k-1)g) mod n over a fixed gap set.

    The fibers are translates, S_j(x) = x + B_j with B_j = fiber_matrix(j, 0),
    so a gather block is x + B_j: it lies in [0, 2n) and indexes the doubled
    value array without a reduction mod n."""

    def __init__(self, n, k, gaps):
        super().__init__(GroundSet.cyclic(n), k)
        self.n = n
        self._gaps = gaps
        self._bases = {}  # j -> the k-1 columns of B_j that a gather needs

    @property
    def size(self):
        return self.n * len(self._gaps)

    def fiber_matrix(self, j, x):
        offs = np.arange(1, self.k + 1, dtype=np.int64) - j
        return (x + np.outer(self._gaps, offs)) % self.n

    def fiber_block(self, j, xs):
        if j not in self._bases:
            mat = self.fiber_matrix(j, 0)
            self._bases[j] = [mat[:, i].copy() for i in range(self.k)
                              if i != j - 1]
        xs = np.asarray(xs, dtype=np.int64)[:, None]
        return ([xs + b for b in self._bases[j]],
                np.full(xs.shape[0], len(self._gaps), dtype=np.int64))

    def _complete(self, i, j, a, b):
        """Column h is a + (h-i) g, g = (b-a)/(j-i) mod n the gap, written
        c b - (c-1) a with c = (h-i)/(j-i) in (-n/2, n/2] and left unreduced
        (within k n of 0 on positions 1, 2).  No pair is valid when j - i is
        not invertible mod n."""
        n = self.n
        try:
            inv = pow(j - i, -1, n)
        except ValueError:
            return [a] * self.k, np.zeros(np.broadcast(a, b).shape, dtype=bool)
        cols = []
        for h in range(1, self.k + 1):
            c = (h - i) * inv % n
            c -= n if 2 * c > n else 0
            cols.append(a if h == i else b if h == j else c * b - (c - 1) * a)
        return cols, self._gap_ok(a, b, inv)

    def pairs_fix(self, i, j):
        return math.gcd(j - i, self.n) == 1     # else no pair is valid

    def _gap_ok(self, a, b, inv):
        # the gap (b-a) inv against a membership mask, each term reduced first
        mask = np.zeros(self.n, dtype=bool)
        mask[self._gaps] = True
        return np.take(mask, inv * b % self.n - inv * a % self.n, mode="wrap")


class APSystem(_Progressions):
    """(x, x+d, ..., x+(k-1)d) mod n; d != 0 unless allow_d0."""

    kind = "ap"
    claims_two_dof = True
    gamma = Fraction(1)

    def __init__(self, n, k, allow_d0=False, require_prime=True):
        if k < 2 or n <= k:
            raise ValueError("ap system needs 2 <= k < n")
        _require_prime(n, "ap", require_prime)
        super().__init__(n, k, np.arange(0 if allow_d0 else 1, n,
                                         dtype=np.int64))
        self.allow_d0 = allow_d0

    def _gap_ok(self, a, b, inv):
        # every gap but 0 (b = a), or every gap with allow_d0; a broadcast
        # compare costs about its width, so use the narrowest index type
        if self.allow_d0:
            return np.ones(np.broadcast(a, b).shape, dtype=bool)
        t = np.min_scalar_type(self.n - 1)
        return a.astype(t) != b.astype(t)

    @functools.cached_property
    def halve_negate(self):
        """The index maps w -> w/2 and v -> -v mod n (odd n only), built on
        first use: A = g[half] is A(w) = g(w/2) and B = h[neg] is B(v) = h(-v).
        """
        idx = np.arange(self.n, dtype=np.int64)
        return idx * pow(2, -1, self.n) % self.n, -idx % self.n

    def descriptor(self):
        return {"kind": "ap", "n": self.n, "k": self.k, "allow_d0": self.allow_d0}


class IntervalAPSystem(SequenceSystem):
    """Non-wrapping progressions in {0..n-1}; fibers shrink near the ends,
    so this system is NOT homogeneous -- kept as a diagnostics control."""

    kind = "interval-ap"
    claims_two_dof = True

    def __init__(self, n, k):
        if k < 2 or n <= k:
            raise ValueError("interval-ap system needs 2 <= k < n")
        super().__init__(GroundSet.cyclic(n), k)
        self.n = n

    @property
    def size(self):
        dmax = (self.n - 1) // (self.k - 1)
        return sum(self.n - (self.k - 1) * d for d in range(1, dmax + 1))

    def fiber_size(self, j):
        # the largest fiber at position j: every gap up to (n-1)/(k-1) fits
        # at x = (j-1) * gap, and no larger gap fits anywhere
        return (self.n - 1) // (self.k - 1)

    def fiber_matrix(self, j, x):
        d = np.arange(1, self.fiber_size(j) + 1, dtype=np.int64)
        d = d[(x - (j - 1) * d >= 0) & (x + (self.k - j) * d < self.n)]
        return x + np.outer(d, np.arange(1, self.k + 1, dtype=np.int64) - j)

    def _complete(self, i, j, a, b):
        step, rem = np.divmod(b - a, j - i)
        first = a - (i - 1) * step
        last = first + (self.k - 1) * step
        valid = (rem == 0) & (step >= 1) & (first >= 0) & (last < self.n)
        return [first + h * step for h in range(self.k)], valid

    def descriptor(self):
        return {"kind": "interval-ap", "n": self.n, "k": self.k}


class PolyAPSystem(_Progressions):
    """a, a+d^r, ..., a+(k-1)d^r mod n with 1 <= d <= floor((n/k)^{1/r}).

    The range cap keeps the powers d^r distinct as integers below n, which is
    what restores two degrees of freedom."""

    kind = "polyap"
    claims_two_dof = True

    def __init__(self, n, k, r, require_prime=True):
        if k < 2 or r < 1:
            raise ValueError("polyap system needs k >= 2, r >= 1")
        _require_prime(n, "polyap", require_prime)
        dmax = 1
        while k * (dmax + 1) ** r <= n:
            dmax += 1
        if k * dmax ** r > n:
            raise ValueError(f"no admissible gap for n={n}, k={k}, r={r}")
        super().__init__(n, k, np.arange(1, dmax + 1, dtype=np.int64) ** r % n)
        self.r = r
        self.gamma = Fraction(1, r)

    def descriptor(self):
        return {"kind": "polyap", "n": self.n, "k": self.k, "r": self.r}


class HomothetySystem(SequenceSystem):
    """Images a + d.P of a point set P = (p_1..p_k) in Z_n^r, d != 0 mod n."""

    kind = "homothety"
    claims_two_dof = True

    def __init__(self, n, r, points, require_prime=True):
        pts = tuple(tuple(int(c) % n for c in pt) for pt in points)
        if len(pts) < 2:
            raise ValueError("homothety system needs at least 2 points")
        if any(len(pt) != r for pt in pts):
            raise ValueError(f"points must have {r} coordinates")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct mod n")
        _require_prime(n, "homothety", require_prime)
        super().__init__(GroundSet.grid(n, r), len(pts))
        self.n, self.r = n, r
        self.points = pts
        self._P = np.array(pts, dtype=np.int64)  # (k, r)
        # d is degenerate when it maps some P_i - P_j (i < j) to 0 mod n
        i, j = np.triu_indices(self.k, 1)
        d = np.arange(1, n, dtype=np.int64)
        rel = d[:, None, None] * (self._P[i] - self._P[j]) % n
        self._dvals = d[~np.any(np.all(rel == 0, axis=-1), axis=1)]
        if not self._dvals.size:
            raise ValueError("every dilation is degenerate for this point set")
        self.gamma = Fraction(1, r)
        self._radix = np.array([n ** t for t in range(r)], dtype=np.int64)
        self._codes = {}

    @property
    def size(self):
        return self.n ** self.r * len(self._dvals)

    def _encode(self, coords):
        # coords: (..., r) little-endian base-n
        return (coords * self._radix).sum(axis=-1)

    def fiber_matrix(self, j, x):
        base = np.array(self.ground.element(x), dtype=np.int64)  # (r,)
        rel = self._P - self._P[j - 1]                            # (k, r)
        coords = (base[None, None, :] + self._dvals[:, None, None] * rel[None, :, :]) % self.n
        return self._encode(coords)

    def _dilations(self, i, j):
        """(codes, ds): admissible ds stably sorted by code of d (P_j - P_i)."""
        if (i, j) not in self._codes:
            codes = self._encode(self._dvals[:, None]
                                 * (self._P[j - 1] - self._P[i - 1]) % self.n)
            order = np.argsort(codes, kind="stable")
            self._codes[i, j] = codes[order], self._dvals[order]
        return self._codes[i, j]

    def pairs_fix(self, i, j):
        # over composite n two admissible dilations can agree on P_j - P_i;
        # a pair then lies in several tuples, and counts scan the fibers
        codes, _ = self._dilations(i, j)
        return bool(np.all(codes[1:] != codes[:-1]))

    def _complete(self, i, j, a, b):
        """The dilation d is the one whose code d (P_j - P_i) mod n is that
        of b - a; where several share it (see pairs_fix) the least is taken."""
        n = self.n
        xa = a[..., None] // self._radix % n                  # (..., r)
        code = self._encode((b[..., None] // self._radix - xa) % n)
        codes, ds = self._dilations(i, j)
        at = np.minimum(np.searchsorted(codes, code), codes.size - 1)
        d = ds[at]
        offs = self._P - self._P[i - 1]
        return ([self._encode((xa + d[..., None] * o) % n) for o in offs],
                codes[at] == code)

    def descriptor(self):
        return {"kind": "homothety", "n": self.n, "r": self.r,
                "points": [list(pt) for pt in self.points]}


class SchurSystem(SequenceSystem):
    """Triples (x, y, x+y) over Z_n with 0 removed, entries pairwise distinct.

    Ground elements are the residues 1..n-1; element index = residue - 1.
    The fiber size is measured (n-3 at odd prime n; see self.notes).
    """

    kind = "schur"
    claims_two_dof = True
    gamma = Fraction(1)

    def __init__(self, n, require_prime=True):
        if n < 5:
            raise ValueError("schur system needs n >= 5")
        _require_prime(n, "schur", require_prime)
        super().__init__(GroundSet.cyclic(n, exclude_zero=True), 3)
        self.n = n
        self.notes.append(
            "fiber size measured with all three entries pairwise distinct "
            "(n-3 for odd prime n); conventions permitting x = y would give n-2")

    @functools.cached_property
    def size(self):
        # (n-1)^2 pairs of non-zero residues, less x = y and x + y = 0 (n-1
        # each), plus x = y = n/2, which both remove when n is even
        n = self.n
        return (n - 2) ** 2 if n % 2 == 0 else (n - 1) * (n - 3)

    def _residue_rows(self, j, res):
        n = self.n
        others = np.arange(1, n, dtype=np.int64)
        if j < 3:   # the other of x, y runs over all but res and -res
            v = others[(others != res) & (others != (n - res) % n)]
            xy = [np.full_like(v, res), v][::3 - 2 * j]
            return np.stack(xy + [(res + v) % n], axis=1)
        half = (res * pow(2, -1, n)) % n
        x = others[(others != res) & (others != half)]
        y = (res - x) % n
        rows = np.stack([x, y, np.full_like(x, res)], axis=1)
        return rows[np.all(rows != 0, axis=1)]

    def fiber_matrix(self, j, x):
        return self._residue_rows(j, x + 1) - 1  # residues -> indices

    def _complete(self, i, j, a, b):
        r = {i: a + 1, j: b + 1}                          # residues
        m = 6 - i - j                                      # the third position
        r[m] = (r[1] + r[2] if m == 3 else r[3] - r[3 - m]) % self.n
        x, y, z = r[1], r[2], r[3]
        valid = (r[m] != 0) & (x != y) & (x != z) & (y != z)
        return [x - 1, y - 1, z - 1], valid

    def descriptor(self):
        return {"kind": "schur", "n": self.n}


def injections(pattern, n, order=None, allowed=None, host=None):
    """Edge images (phi(e_1), ..., phi(e_r)), each a sorted vertex tuple, of
    the injective maps phi from the vertices in `order` (default all of
    V(K), ascending) into range(n), lexicographic along `order`.

    allowed[u] lists the images vertex u may take, ascending (default
    range(n)).  With a host (any container of sorted vertex tuples) every
    edge image must lie in it, tested as soon as the edge's last vertex in
    `order` is placed.  Vertices left out of `order` must lie on no edge.
    """
    order = range(pattern.num_vertices) if order is None else list(order)
    allowed = allowed or {}
    step = {u: t for t, u in enumerate(order)}
    closing = [[] for _ in order]
    for i, e in enumerate(pattern.edges):
        closing[max(step[u] for u in e)].append((i, e))
    choices = [allowed.get(u, range(n)) for u in order]
    last = len(order) - 1
    phi = [0] * pattern.num_vertices
    used = [False] * n
    images = [None] * pattern.num_edges

    def place(t):
        u = order[t]
        for w in choices[t]:
            if used[w]:
                continue
            phi[u] = w
            for i, e in closing[t]:
                img = tuple(sorted([phi[v] for v in e]))
                if host is not None and img not in host:
                    break
                images[i] = img
            else:
                if t == last:
                    yield tuple(images)
                else:
                    used[w] = True
                    yield from place(t + 1)
                    used[w] = False

    yield from place(0)


class CopySystem(SequenceSystem):
    """Labelled ordered copies of a pattern K in the complete k-uniform
    hypergraph on n vertices.

    S is the set of injections phi: V(K) -> [n], one tuple per injection,
    with entries the edge images phi(e_1)..phi(e_r).  |S| = n(n-1)...(n-v+1)
    and the fiber through a fixed edge has size k!(n-k)...(n-v+1).
    """

    kind = "copies"
    claims_two_dof = False

    def __init__(self, n, pattern: PatternHypergraph):
        if n < pattern.num_vertices:
            raise ValueError("host needs at least as many vertices as the pattern")
        super().__init__(GroundSet.ksubsets(n, pattern.k), pattern.num_edges)
        self.n = n
        self.pattern = pattern
        self._rank_cache = {}
        if pattern.num_vertices > pattern.k:
            self.gamma = Fraction(1)  # placeholder; copies use 1/m_k instead

    @property
    def size(self):
        return math.perm(self.n, self.pattern.num_vertices)

    def edge_rank(self, verts):
        key = tuple(sorted(verts))
        if key not in self._rank_cache:
            self._rank_cache[key] = _rank_subset(key, self.n, self.pattern.k)
        return self._rank_cache[key]

    def fiber_size(self, j):
        kk, v = self.pattern.k, self.pattern.num_vertices
        return math.factorial(kk) * math.perm(self.n - kk, v - kk)

    def injection_tuple(self, phi):
        """Edge-image tuple of a vertex map given as a sequence over V(K)."""
        return tuple(self.edge_rank([phi[u] for u in e]) for e in self.pattern.edges)

    def fiber_matrix(self, j, x, guard=ENUM_GUARD):
        if self.fiber_size(j) > guard:
            raise EnumerationGuardError(
                f"copy fiber of size {self.fiber_size(j)} exceeds guard {guard}")
        root = self.pattern.edges[j - 1]
        x_set = self.ground.element(x)
        others = [u for u in range(self.pattern.num_vertices) if u not in root]
        rows = [[self.edge_rank(img) for img in imgs] for imgs in injections(
            self.pattern, self.n, order=list(root) + others,
            allowed=dict.fromkeys(root, x_set))]
        return np.array(rows, dtype=np.int64)

    def sample_injection(self, seed):
        rng = np.random.default_rng(seed)
        return list(rng.permutation(self.n)[: self.pattern.num_vertices])

    def pair_intersection(self, x, y, guard=ENUM_GUARD):
        e_first = self.pattern.edges[0]
        e_last = self.pattern.edges[-1]
        x_set, y_set = self.ground.element(x), self.ground.element(y)
        shared = set(e_first) & set(e_last)
        both = [w for w in x_set if w in y_set]
        # phi maps e_1 onto x and e_r onto y, so e_1 n e_r onto x n y
        if len(shared) != len(both):
            return np.empty((0, self.k), dtype=np.int64)
        placed = len(set(e_first) | set(e_last))
        if math.perm(self.n - placed, self.pattern.num_vertices - placed) > guard:
            raise EnumerationGuardError("pair intersection exceeds guard")
        allowed = dict.fromkeys(e_first, [w for w in x_set if w not in both])
        allowed.update(dict.fromkeys(e_last, [w for w in y_set if w not in both]))
        allowed.update(dict.fromkeys(shared, both))
        # one row per injection: S is a set of injections, so no dedup here
        return np.array(sorted(
            tuple(self.edge_rank(img) for img in imgs)
            for imgs in injections(self.pattern, self.n, allowed=allowed)),
            dtype=np.int64)

    def tuples(self, guard=ENUM_GUARD):
        if self.size > guard:
            raise EnumerationGuardError(
                f"|S| = {self.size} exceeds guard {guard}")
        for phi in itertools.permutations(range(self.n), self.pattern.num_vertices):
            yield self.injection_tuple(phi)

    def descriptor(self):
        return {"kind": "copies", "n": self.n, "pattern": self.pattern.to_json()}


class _Descriptor(dict):
    def __missing__(self, key):
        raise ValueError(f"system descriptor is missing field {key!r}")


def build_system(descriptor=None, **kwargs) -> SequenceSystem:
    """Build a system from a JSON-style descriptor (or keyword arguments);
    a missing field is a ValueError that names it."""
    d = _Descriptor(descriptor or {})
    d.update(kwargs)
    kind = d["kind"]
    if kind == "ap":
        return APSystem(d["n"], d["k"], d.get("allow_d0", False),
                        d.get("require_prime", True))
    if kind == "interval-ap":
        return IntervalAPSystem(d["n"], d["k"])
    if kind == "polyap":
        return PolyAPSystem(d["n"], d["k"], d["r"], d.get("require_prime", True))
    if kind == "homothety":
        return HomothetySystem(d["n"], d["r"], d["points"],
                               d.get("require_prime", True))
    if kind == "schur":
        return SchurSystem(d["n"], d.get("require_prime", True))
    if kind == "copies":
        return CopySystem(d["n"], PatternHypergraph.from_json(d["pattern"]))
    raise ValueError(f"unknown system kind {kind!r}")


# --- diagnostics ----------------------------------------------------------

def verify_homogeneity(sys: SequenceSystem, sample=None, seed=0,
                       guard=ENUM_GUARD) -> SystemReport:
    """Measure fiber sizes by enumeration, for all x (sample=None) or for
    `sample` random x per position."""
    X = sys.ground.size
    if sample is None:
        xs = range(X)
        for j in range(1, sys.k + 1):
            budget_j = X * max(sys.fiber_size(j), 1)
            if budget_j > guard:
                raise EnumerationGuardError(
                    f"exhaustive homogeneity check needs {budget_j} fiber rows "
                    f"at position {j}; pass sample=N")
    else:
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, X, size=sample)
    sizes = {}
    witness = None
    ok = True
    checked = 0
    for j in range(1, sys.k + 1):
        seen = {}
        for x in xs:
            m = int(sys.fiber_matrix(j, int(x)).shape[0])
            seen.setdefault(m, int(x))
            checked += 1
        sizes[j] = sorted(seen)
        if len(seen) > 1:
            ok = False
            witness = {"j": j, "sizes": {str(m): x for m, x in seen.items()}}
    # homogeneity also forces the per-position sizes to agree with |S|/|X|
    flat = {s[0] for s in sizes.values() if len(s) == 1}
    if ok and len(flat) > 1:
        ok = False
        witness = {"per_position_sizes": {j: s[0] for j, s in sizes.items()}}
    return SystemReport("homogeneity", ok,
                        detail={"fiber_sizes": sizes, "checked": checked,
                                "mode": "exhaustive" if sample is None else "sampled"},
                        witness=witness, notes=list(sys.notes))


def verify_two_dof(sys: SequenceSystem, mode="exhaustive", samples=2000, seed=0,
                   guard=ENUM_GUARD) -> SystemReport:
    """Does agreement in two positions force equality?

    exhaustive: one pass over S per position pair with a completion map --
    O(|S| k^2) but logically equivalent to comparing all pairs.
    sampled: random tuples probed against reconstruction (two-dof claimants)
    or against re-randomized injections (copy systems).
    """
    k = sys.k
    if mode == "exhaustive":
        work = sys.size * k * (k - 1) // 2
        if work > guard:
            raise EnumerationGuardError(
                f"exhaustive two-dof pass needs {work} map insertions; "
                "use mode='sampled'")
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                seen = {}
                for s in sys.tuples(guard=guard):
                    key = (s[i - 1], s[j - 1])
                    if key in seen and seen[key] != s:
                        return SystemReport(
                            "two_dof", False,
                            detail={"mode": "exhaustive"},
                            witness={"positions": (i, j),
                                     "s": list(seen[key]), "t": list(s)})
                    seen[key] = s
        return SystemReport("two_dof", True,
                            detail={"mode": "exhaustive",
                                    "pairs_checked": k * (k - 1) // 2})
    # sampled
    rng = np.random.default_rng(seed)
    X = sys.ground.size
    failures = skipped = 0
    witness = None
    for _ in range(samples):
        i, j = sorted(rng.choice(np.arange(1, k + 1), size=2, replace=False))
        if isinstance(sys, CopySystem):
            phi = sys.sample_injection(int(rng.integers(0, 2 ** 62)))
            s = sys.injection_tuple(phi)
            # keep the vertices of edges i and j, re-randomize the rest
            keep = set(sys.pattern.edges[i - 1]) | set(sys.pattern.edges[j - 1])
            pool = [w for w in range(sys.n)
                    if w not in [phi[u] for u in keep]]
            rng.shuffle(pool)
            free = [u for u in range(sys.pattern.num_vertices) if u not in keep]
            phi2 = list(phi)
            for u, w in zip(free, pool):
                phi2[u] = w
            t = sys.injection_tuple(phi2)
            if t != s and t[i - 1] == s[i - 1] and t[j - 1] == s[j - 1]:
                failures += 1
                if witness is None:
                    witness = {"positions": (int(i), int(j)),
                               "s": list(s), "t": list(t)}
        else:
            x = int(rng.integers(0, X))
            row_seed = int(rng.integers(0, 2 ** 62))
            mat = sys.fiber_matrix(1, x)
            if mat.shape[0] == 0:
                skipped += 1    # empty S_1(x), as non-homogeneous systems have
                continue
            rng_row = np.random.default_rng(row_seed)
            row = mat[rng_row.integers(0, mat.shape[0], size=1)[0]]
            s = tuple(int(v) for v in row)
            cols, valid = sys.complete_pairs(int(i), int(j),
                                             np.array([s[i - 1]]),
                                             np.array([s[j - 1]]))
            t = tuple(int(c[0]) % X for c in cols) if valid[0] else None
            if t != s:
                failures += 1
                if witness is None:
                    witness = {"positions": (int(i), int(j)), "s": list(s),
                               "completed": None if t is None else list(t)}
    return SystemReport("two_dof", failures == 0,
                        detail={"mode": "sampled", "probes": samples - skipped,
                                "failures": failures},
                        witness=witness)


def pair_profile(sys: SequenceSystem, sample=None, seed=0,
                 guard=ENUM_GUARD) -> PairProfile:
    """Intersection profile of S_1(x) with the S_k(y).

    For each probed x, bucket the fiber S_1(x) by its final entry: the bucket
    sizes are the non-zero |S_1(x) n S_k(y)| and the bucket count is t(x).
    """
    X = sys.ground.size
    if sample is None:
        budget = X * max(sys.fiber_size(1), 1)
        if budget > guard:
            raise EnumerationGuardError(
                f"exhaustive pair profile needs {budget} rows; pass sample=N")
        xs = np.arange(X)
    else:
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, X, size=sample)
    sigma_seen, t_seen = set(), set()
    for _, cols, counts in sys.fiber_blocks(1, xs):
        probe = np.repeat(np.arange(counts.size), counts)
        # sort (probe, last entry) keys; each run of equal keys is one bucket
        keys = np.sort(probe * X + cols[-1].ravel() % X)
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        sigma_seen.update(np.unique(np.diff(starts, append=keys.size)).tolist())
        t_seen.update(np.unique(np.bincount(keys[starts] // X,
                                            minlength=counts.size)).tolist())
    uniform = len(sigma_seen) == 1 and len(t_seen) == 1
    return PairProfile(
        sigma=next(iter(sigma_seen)) if len(sigma_seen) == 1 else None,
        t=next(iter(t_seen)) if len(t_seen) == 1 else None,
        uniform=uniform,
        observed_sigma=sorted(sigma_seen),
        observed_t=sorted(t_seen),
        checked_x=len(xs),
        notes=list(sys.notes))

"""Convolution calculus over a sequence system.

For a system S of k-tuples and functions h_1..h_k on the ground set, the
j-th convolution is

    conv_j(h_1,..,h_k)(x) = E_{s in S_j(x)} prod_{i != j} h_i(s_i)

(the j-th argument is never evaluated; we pass k-1 functions in increasing
position order).  The capped convolution truncates pointwise at the fixed
cap 2.  The counting functional is E_{s in S} f(s_1)...f(s_k), which by
adjointness equals <f, conv_1(f,..,f)>.

Fiber averages come from one chunked gather engine: a block of points
becomes the index block of their fibers (SequenceSystem.fiber_blocks), the
k-1 argument arrays are gathered from it, multiplied and reduced per point.
On 3-term progressions over odd n, convolve has a second evaluator: conv_j
is a cyclic convolution once one argument is dilated by 2^{-1} (Tao & Vu,
Additive Combinatorics, ch. 4), so one padded real FFT gives it at every x.

Its forward transforms of WeightFunction arguments are memoised per function
and dilation (plain, w -> g(w/2) or v -> h(-v)), and an entry lives as long
as its function: a property check that convolves the same few measures
again and again transforms each of them at most once per dilation.  Raw
arrays are transformed on every call.

convolve also takes stacked (B, X) arguments, B evaluations in one call;
the FFT transforms them (never memoised) in chunks under BATCH_ELEMENTS, the
gather row by row.  convolution_cost prices B rows in gather rows: B |points|
|S_j| on the gather, FFT_FIXED + B * FFT_COST * X log2 X on the FFT (a cost
per call plus one per row), which convolve runs where it is cheaper.  For
one row that switches at 38, 14 and 15 points at n = 101, 1009 and 10007;
interleaved timings put the crossover at about 36, 8-12 and 15-16.  256 rows
at n = 101 switch at 8 points.  Every convolution guard, and verify's choice
of full-X over sampled probes, compares this cost with its limit.

Counting is exact and has two evaluation modes:

  exact    -- the gather engine: sum_x f(x) times the fiber sum of
              conv_1(f,..,f) at x, over the support of f (|supp f| |S_1| rows);
  support  -- enumerate only tuples through the support of f.  On the
              two-degrees-of-freedom systems the ordered support pairs (a, b)
              are completed by the kind's complete_pairs, in blocks of about
              CHUNK_ELEMENTS pairs (SequenceSystem.pair_blocks), wherever
              that costs no more than the gather engine (by_pairs: |U|(|U|-1)
              pairs against |U||S_1| fiber rows; ap always takes pairs), and
              by the gather engine elsewhere.  The columns stay unreduced and
              are read through np.take(mode="wrap").  On ap each a's row is
              summed on its own and added in a-order, so the count is
              bit-identical to one completion call per support point.  Copy
              systems use the injections (systems.injections) of the covered
              pattern vertices into the support's vertices.

auto takes support mode, else exact mode, where its guard admits it.  Past
both, on 3-term ap over odd n, it counts E_x f(x) conv_1(f,f)(x) with conv_1
from the FFT on all of X (the FFT count) while one full-X row fits the
guard; otherwise it raises.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import WeightFunction, inner_product
from .systems import (ENUM_GUARD, APSystem, CopySystem,
                      EnumerationGuardError, SequenceSystem, injections)

CAP = 2.0
# the FFT's cost in gather rows: FFT_FIXED per call, FFT_COST X log2 X per row
FFT_FIXED = 3000
FFT_COST = 1.1
# transform elements (rows x padded length) per FFT chunk
BATCH_ELEMENTS = 2 ** 16
# WeightFunction -> {dilation: rfft}; immutable functions keep their spectra
_SPECTRA = weakref.WeakKeyDictionary()


def _dense_list(sys, funcs, expect):
    """Argument arrays: a WeightFunction's values, or an (X,) or (B, X) array."""
    if len(funcs) != expect:
        raise ValueError(f"need {expect} functions, got {len(funcs)}")
    out = []
    for f in funcs:
        if isinstance(f, WeightFunction) and f.domain != sys.ground:
            raise ValueError("function domain does not match the system")
        a = f.dense() if isinstance(f, WeightFunction) else np.asarray(f, float)
        if a.ndim not in (1, 2) or a.shape[-1] != sys.ground.size:
            raise ValueError("argument arrays must be (X,) or (B, X)")
        out.append(a)
    return out


@dataclass
class ConvolutionResult:
    j: int
    at: object            # None for all of X, else int64 array of x indices
    values: np.ndarray


def _fiber_sums(sys, j, arrs, points):
    """(sums, counts): sum over S_j(x) of prod_{i != j} arrs(s_i), and
    |S_j(x)|, for each x in points.

    sums / counts reproduces a per-fiber prod.mean() bit for bit on
    equal-size fibers: each row of the block is reduced as one contiguous
    run, exactly as a single fiber would be."""
    doubled = [np.concatenate([a, a]) for a in arrs]
    sums = np.empty(points.size)
    counts = np.empty(points.size, dtype=np.int64)
    for lo, cols, cnt in sys.fiber_blocks(j, points):
        hi = lo + cnt.size
        counts[lo:hi] = cnt
        if not cols:        # k = 1: the empty product on every fiber row
            sums[lo:hi] = cnt
            continue
        prod = doubled[0][cols[0]]
        for a, c in zip(doubled[1:], cols[1:]):
            prod *= a[c]
        if prod.ndim == 2:
            sums[lo:hi] = prod.sum(axis=1)
        else:
            owner = np.repeat(np.arange(cnt.size), cnt)
            sums[lo:hi] = np.bincount(owner, weights=prod,
                                      minlength=cnt.size)
    return sums, counts


def _fiber_means(sys, j, arrs, points):
    sums, counts = _fiber_sums(sys, j, arrs, points)
    return np.divide(sums, counts, out=np.zeros(points.size),
                     where=counts > 0)


@functools.cache
def _smooth_length(m):
    """The least 2^a 3^b 5^c >= m, a length numpy.fft transforms quickly."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def convolution_cost(sys, j, npoints, rows=1, gather_only=False):
    """(work, fft) for `rows` stacked conv_j evaluations at `npoints` points:
    the work, in gather rows, of the evaluator convolve runs, and whether
    that is the FFT.  The gather reads rows * npoints * |S_j| fiber rows; on
    3-term ap over odd n the FFT costs FFT_FIXED + rows * FFT_COST * X log2 X
    and runs where that is smaller.  gather_only prices the gather alone."""
    gather = rows * npoints * max(sys.fiber_size(j), 1)
    if gather_only or not (isinstance(sys, APSystem) and sys.k == 3
                           and sys.n % 2 == 1):
        return gather, False
    X = sys.ground.size
    fft = FFT_FIXED + rows * FFT_COST * X * math.log2(X)
    return (math.ceil(fft), True) if gather > fft else (gather, False)


def _spectrum(sys, a, dilation, L, func=None):
    """rfft(a, L) of a (X,) or (B, X) array, dilated first ("half": w ->
    a(w/2), "neg": v -> a(-v), None: as is).  With func, the WeightFunction
    whose values a holds, the spectrum is memoised for func's lifetime."""
    memo = {} if func is None else _SPECTRA.setdefault(func, {})
    if dilation not in memo:
        if dilation is not None:
            a = np.take(a, sys.halve_negate[dilation == "neg"], axis=-1)
        memo[dilation] = np.fft.rfft(a, L)
        memo[dilation].flags.writeable = False
    return memo[dilation]


def _fft_means(sys, j, arrs, points, funcs=(None, None)):
    """conv_j at points on the 3-term ap system over odd n, for (X,) or
    stacked (B, X) arguments, read off one cyclic convolution (*, mod n) of
    the whole of X per row:

      conv_2(g,h)(x) = [(g*h)(2x) - g(x)h(x)] / (n-1)
      conv_1(g,h)(x) = [(A*B)(x) - g(x)h(x)] / (n-1),  A(w) = g(w/2), B(v) = h(-v)
      conv_3(g,h) = conv_1(h,g)

    The subtracted product is the d = 0 term; with allow_d0 it stays and the
    divisor is n.  The cyclic convolution is the linear one, padded to a
    5-smooth length and folded mod n.  funcs holds, per argument, the
    WeightFunction it came from (or None), whose spectra are memoised.
    Stacked rows go in chunks of BATCH_ELEMENTS // length; each row's
    values equal a one-row call's."""
    n = sys.n
    (g, h), (fg, fh) = arrs, funcs
    if j == 3:
        g, h, fg, fh = h, g, fh, fg
    at = 2 * points % n if j == 2 else points
    dg, dh = (None, None) if j == 2 else ("half", "neg")
    L = _smooth_length(2 * n - 1)
    step = max(1, BATCH_ELEMENTS // L)
    out = np.empty(g.shape[:-1] + points.shape)
    for lo in range(0, len(g) if g.ndim == 2 else 1, step):
        rows = slice(lo, lo + step) if g.ndim == 2 else ...
        gs, hs = g[rows], h[rows]
        lin = np.fft.irfft(_spectrum(sys, gs, dg, L, fg)
                           * _spectrum(sys, hs, dh, L, fh), L)
        cyc = lin[..., :n]
        cyc[..., :n - 1] += lin[..., n:2 * n - 1]
        if sys.allow_d0:
            out[rows] = cyc[..., at] / n
        else:
            out[rows] = ((cyc[..., at] - gs[..., points] * hs[..., points])
                         / (n - 1))
    return out


def _means(sys, j, arrs, points, funcs):
    """conv_j at points by the evaluator convolution_cost picks."""
    stacked = bool(arrs) and arrs[0].ndim == 2
    if convolution_cost(sys, j, points.size,
                        len(arrs[0]) if stacked else 1)[1]:
        return _fft_means(sys, j, arrs, points, funcs)
    if not stacked:
        return _fiber_means(sys, j, arrs, points)
    return np.array([_fiber_means(sys, j, list(row), points)
                     for row in zip(*arrs)]).reshape(-1, points.size)


def convolve(sys: SequenceSystem, j: int, funcs, xs=None) -> ConvolutionResult:
    """conv_j of k-1 functions (increasing position order, position j skipped).

    Arguments are WeightFunctions or arrays over X; with (B, X) arrays the
    values are (B, |points|), row r from row r of every argument.  xs=None
    evaluates at every x (refused when convolution_cost of one row there
    exceeds ENUM_GUARD), else only at the given indices (repeats allowed).
    """
    if not 1 <= j <= sys.k:
        raise ValueError(f"position j={j} out of range 1..{sys.k}")
    arrs = _dense_list(sys, funcs, sys.k - 1)
    X = sys.ground.size
    if xs is None:
        points = np.arange(X)
        work = convolution_cost(sys, j, X)[0]
        if work > ENUM_GUARD:
            raise EnumerationGuardError(
                f"full exact convolution needs {work} rows; pass xs=")
    else:
        points = np.asarray(xs, dtype=np.int64).reshape(-1)
        if points.size and (points.min() < 0 or points.max() >= X):
            raise ValueError("convolution points out of range")
    if len({a.shape for a in arrs}) > 1:
        raise ValueError("arguments must all be (X,) or all the same (B, X)")
    funcs = [f if isinstance(f, WeightFunction) else None for f in funcs]
    return ConvolutionResult(j, None if xs is None else points,
                             _means(sys, j, arrs, points, funcs))


def capped_convolve(sys, j, funcs, xs=None) -> ConvolutionResult:
    """conv_j clipped to [0, 2]; arguments must be non-negative.  The lower
    clip removes FFT round-off below an exact zero."""
    arrs = _dense_list(sys, funcs, sys.k - 1)
    if any(a.size and a.min() < 0 for a in arrs):
        raise ValueError("capped convolution needs non-negative arguments")
    res = convolve(sys, j, funcs, xs)
    res.values = np.clip(res.values, 0.0, CAP)
    return res


def count_functional(sys: SequenceSystem, f: WeightFunction, mode="auto"):
    """E_{s in S} f(s_1)...f(s_k), exactly: mode is "auto", "exact" or
    "support"."""
    if f.domain != sys.ground:
        raise ValueError("function domain does not match the system")
    supp = f.support_indices()
    exact_work = convolution_cost(sys, 1, supp.size, gather_only=True)[0]
    if mode == "auto":
        if sys.claims_two_dof and supp.size ** 2 * sys.k <= ENUM_GUARD:
            mode = "support"
        elif isinstance(sys, CopySystem) and supp.size * sys.k <= ENUM_GUARD:
            mode = "support"
        elif exact_work <= ENUM_GUARD:
            mode = "exact"
        else:
            fft_work, fft = convolution_cost(sys, 1, sys.ground.size)
            if not fft or fft_work > ENUM_GUARD:
                raise EnumerationGuardError(
                    f"|S| = {sys.size} and support {supp.size} both exceed "
                    f"the guard of {ENUM_GUARD} rows for an exact count")
            return _fft_count(sys, f)
    if mode == "exact":
        if exact_work > ENUM_GUARD:
            raise EnumerationGuardError(f"exact count needs {exact_work} rows")
        return _gather_count(sys, f.dense(), supp)
    if mode == "support":
        return _support_count(sys, f, supp)
    raise ValueError(f"unknown mode {mode!r}")


def _gather_count(sys, arr, points):
    """The count of f = arr by adjointness: sum over x in points (the
    support of f) of f(x) times the fiber sum of conv_1(f,..,f) at x."""
    sums, _ = _fiber_sums(sys, 1, [arr] * (sys.k - 1), points)
    return float(np.dot(arr[points], sums)) / sys.size


def _fft_count(sys, f):
    """The count of f on 3-term ap over odd n: E_x f(x) conv_1(f,f)(x), with
    conv_1 on all of X from the FFT (f's spectra memoised)."""
    arr = f.dense()
    conv1 = _fft_means(sys, 1, [arr, arr], np.arange(arr.size), (f, f))
    return float(np.dot(arr, conv1)) / arr.size


def _support_count(sys, f, supp):
    if supp.size == 0:
        return 0.0
    if isinstance(sys, CopySystem):
        return _copy_support_count(sys, f)
    if not sys.claims_two_dof:
        raise ValueError("support mode needs two degrees of freedom or copies")
    if supp.size ** 2 * sys.k > ENUM_GUARD:
        raise EnumerationGuardError(
            f"support enumeration needs {supp.size ** 2 * sys.k} completions")
    arr = f.dense()
    if not sys.by_pairs(supp.size):
        return _gather_count(sys, arr, supp)
    # positions 1 and 2 of a pair's completion hold a and b themselves;
    # einsum forms their outer product faster than a broadcast multiply
    vals = arr[supp]
    total = 0.0
    for lo, cols, valid in sys.pair_blocks(supp):
        prod = np.einsum("i,j->ij", vals[lo:lo + valid.shape[0]], vals)
        for c in cols[2:]:
            prod *= np.take(arr, c, mode="wrap")
        # per-row sums exist for ap alone: there every a keeps |U| - 1 pairs
        # (|U| with allow_d0), so the kept products divide into a's rows and
        # the rounding is that of one completion call per a.  Elsewhere the
        # divisibility is a cheap stand-in that can hold by coincidence; the
        # split then moves only the last bits of an exact count
        prod = prod[valid]
        rows = valid.shape[0] if prod.size % valid.shape[0] == 0 else 1
        for s in prod.reshape(rows, -1).sum(axis=1).tolist():
            total += s
    return total / sys.size


def _copy_support_count(sys, f):
    """|S|^{-1} times the sum of prod_e f(phi(e)) over the injections phi of
    the covered pattern vertices whose edge images all lie in the support
    of f, times perm(n - covered, isolated) for the isolated vertices.  Each
    product is multiplied in the order its edges close along the search,
    which fixes its rounding."""
    ground = sys.ground
    arr = f.dense()
    vals = {}
    for i in f.support_indices():
        vals[ground.element(int(i))] = float(arr[i])
    verts = sorted({w for e in vals for w in e})
    pattern = sys.pattern
    order = sorted({u for e in pattern.edges for u in e})
    step = {u: t for t, u in enumerate(order)}
    closing = sorted(range(pattern.num_edges),
                     key=lambda i: max(step[u] for u in pattern.edges[i]))
    total = 0.0
    for imgs in injections(pattern, sys.n, order=order,
                           allowed=dict.fromkeys(order, verts), host=vals):
        acc = 1.0
        for i in closing:
            acc *= vals[imgs[i]]
        total += acc
    isolated = pattern.num_vertices - len(order)
    if isolated:
        total *= math.perm(sys.n - len(order), isolated)
    return total / sys.size


def split_capped_count(sys: SequenceSystem, fs):
    """E over index tuples (i_1..i_k) in [m]^k of
    <f_{i_1}, capped conv_1(f_{i_2},..,f_{i_k})>, exactly.

    Linearity in the first slot lets us average the f_i once and loop only
    over the m^{k-1} trailing tuples, stacked into one capped convolution.
    """
    m = len(fs)
    if m == 0:
        raise ValueError("need at least one function")
    arrs = _dense_list(sys, fs, m)
    fbar = WeightFunction(sys.ground, values=sum(arrs) / m)
    k = sys.k
    work = convolution_cost(sys, 1, sys.ground.size, rows=m ** (k - 1))[0]
    if work > ENUM_GUARD:
        raise EnumerationGuardError(
            f"exact split count needs {work} rows, over the guard of "
            f"{ENUM_GUARD}")
    combos = list(np.ndindex(*([m] * (k - 1))))
    stacks = [np.array([arrs[c[slot]] for c in combos])
              for slot in range(k - 1)]
    # k = 1 stacks nothing: one combination, a 1-D result
    res = capped_convolve(sys, 1, stacks)
    total = 0.0
    for row in np.atleast_2d(res.values):
        total += inner_product(fbar, WeightFunction(sys.ground, values=row))
    return total / len(combos)


@dataclass
class WKernelValue:
    value: float
    intersection_size: int


def w_kernel(sys: SequenceSystem, mid_funcs, x, y) -> WKernelValue:
    """W(x, y) = E over S_1(x) n S_k(y) of prod_{i=2..k-1} mid_i(s_i)."""
    if len(mid_funcs) != sys.k - 2:
        raise ValueError(f"need {sys.k - 2} middle functions")
    arrs = [f.dense() for f in mid_funcs]
    inter = sys.pair_intersection(int(x), int(y))
    if inter.shape[0] == 0:
        return WKernelValue(0.0, 0)
    prod = np.ones(inter.shape[0])
    for i in range(2, sys.k):
        prod *= arrs[i - 2][inter[:, i - 1]]
    return WKernelValue(float(prod.mean()), int(inter.shape[0]))

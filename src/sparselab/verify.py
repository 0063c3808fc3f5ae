"""Measure-system property checks, condition checks, and tail bounds.

The numbered properties of an ensemble of associated measures mu_1..mu_m
over a system S (cap fixed at 2 throughout):

  0. ||mu_i||_1 = 1 + o(1).  The pass statistic is the deviation of the
     AVERAGED measure mu = m^{-1} sum mu_i (per-set deviations are reported
     in the witness); tolerance is caller-supplied.
  1. ||conv_j(mu_..) - capped conv_j(mu_..)||_1 <= eta for distinct index
     tuples: the L1 mass above the cap.
  2. sup_x conv_j(1,..,1, mu_..) <= 2 for j >= 2 with distinct indices
     (constant 1 in the leading slots).
  3. |<mu - 1, xi>| < lambda for xi a product of at most d basic
     anti-uniform functions (optionally mixed with set indicators).

The conditions for a single density p over fresh sets U_1..U_k:

  1. every mixed convolution with at least one constant slot stays below 3/2;
  2. the pair kernel W(x, y) = E over S_1(x) n S_k(y) of the middle measures
     stays below alpha * p * t(x), with t(x) the number of occupied y.

Closed-form tail bounds live at the bottom: Chernoff, Bernstein, the
one-sided correlation bound and the expected mass above the cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .conv import CAP, capped_convolve, convolution_cost, convolve, w_kernel
from .core import WeightFunction, inner_product, lp_norm
from .sample import derive_seed, sample_ensemble, uniform01
from .systems import SequenceSystem

# convolutions are evaluated on all of X while one row there costs at most
# this much (conv.convolution_cost, in gather rows), else at sampled x
EXACT_FULL_GUARD = 4 * 10 ** 6


@dataclass
class PropertyReport:
    name: str
    ok: bool
    statistic: float
    threshold: float
    stderr: float = 0.0
    witness: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json(self):
        return {"name": self.name, "ok": bool(self.ok),
                "statistic": self.statistic, "threshold": self.threshold,
                "stderr": self.stderr, "witness": self.witness,
                "detail": self.detail, "notes": self.notes}


@dataclass
class BasicAntiUniform:
    """A sampled basic anti-uniform function: capped conv_j with bounded
    functions in the leading slots and measure-dominated ones trailing."""

    function: object          # WeightFunction (full evaluation)
    j: int
    indices: tuple            # profile: ensemble indices used in f-slots
    g_mode: str
    detail: dict = field(default_factory=dict)


def _probe(sys, j, args, exact, rng, x_samples):
    """conv_j of args on all of X if exact, else at x_samples points drawn
    from rng."""
    xs = None if exact else rng.integers(0, sys.ground.size, size=x_samples)
    return convolve(sys, j, args, xs=xs).values


def sample_anti_uniform(sys: SequenceSystem, ensemble, j, indices,
                        g_mode="random_indicator", g_value=0.5,
                        f_mode="full", seed=0) -> BasicAntiUniform:
    """One basic anti-uniform function, evaluated on all of X: the one row
    of anti_uniform_matrix for this profile."""
    k = sys.k
    if not 1 <= j <= k:
        raise ValueError(f"position j={j} out of range")
    indices = tuple(indices)
    if len(indices) != k - j:
        raise ValueError(f"need {k - j} trailing indices for j={j}")
    if len(set(indices)) != len(indices):
        raise ValueError("ensemble indices in a profile must be distinct")
    if any(not 1 <= i <= ensemble.m for i in indices):
        raise ValueError("ensemble index out of range")
    if (g_mode not in ("constant", "random_indicator")
            or f_mode not in ("full", "masked")
            or g_mode == "random_indicator" and not 0 <= g_value <= 1):
        raise ValueError(f"bad g_mode {g_mode!r}, g_value {g_value!r} or "
                         f"f_mode {f_mode!r}")
    row = anti_uniform_matrix(
        sys, ensemble, [(j, indices, g_mode, g_value, f_mode, seed)])
    return BasicAntiUniform(WeightFunction(sys.ground, values=row[0]), j,
                            indices, g_mode,
                            detail={"f_mode": f_mode, "seed": seed})


def anti_uniform_matrix(sys: SequenceSystem, ensemble, profiles) -> np.ndarray:
    """Basic anti-uniform functions on all of X, one row per valid profile
    (j, indices, g_mode, g_value, f_mode, seed): capped conv_j with g's in
    the positions before j -- the constant g_value, or ("random_indicator")
    a density-g_value random subset seeded derive_seed(seed, "g", slot) --
    and mu_i trailing, masked (f_mode "masked") by a density-3/4 subset
    seeded derive_seed(seed, "f", slot).  All subsets come from one
    uniform01 call; each j is one capped convolution of (B, X) stacks."""
    k, X = sys.k, sys.ground.size
    if profiles and convolution_cost(sys, 1, X)[0] > EXACT_FULL_GUARD:
        raise ValueError("system too large for full anti-uniform evaluation; "
                         "evaluate through check_properties with sampled x")
    mus = {i: ensemble.associated_measure(i).dense()
           for i in sorted({i for p in profiles for i in p[1]})}
    seeds, densities, args = [], [], []
    for j, indices, g_mode, g_value, f_mode, seed in profiles:
        # (value, drawn?, seed label, density) per slot; a drawn slot is
        # its value times a row of random-subset indicators
        g_drawn = g_mode == "random_indicator"
        slots = [(1.0 if g_drawn else g_value, g_drawn, ("g", slot), g_value)
                 for slot in range(j - 1)]
        slots += [(mus[i], f_mode == "masked", ("f", slot), 0.75)
                  for slot, i in enumerate(indices)]
        row = []
        for base, drawn, label, density in slots:
            row.append((base, len(seeds) if drawn else None))
            if drawn:
                seeds.append(derive_seed(seed, *label))
                densities.append(density)
        args.append(row)
    hits = (uniform01(seeds, np.arange(X))
            < np.array(densities)[:, None]).astype(float)
    out = np.empty((len(profiles), X))
    for j in sorted({p[0] for p in profiles}):
        group = [r for r, p in enumerate(profiles) if p[0] == j]
        stacks = np.empty((k - 1, len(group), X))
        for t, r in enumerate(group):
            for slot, (base, d) in enumerate(args[r]):
                stacks[slot, t] = base if d is None else base * hits[d]
        out[group] = capped_convolve(sys, j, list(stacks)).values
    return out


def check_properties(sys: SequenceSystem, ensemble, which=(0, 1, 2, 3),
                     eta=0.1, tol0=0.05, threshold2=CAP, lam=0.1,
                     x_samples=128, pair_budget=12, p3_products=40,
                     p3_degree=3, p3_indicator_sets=(), seed=0) -> list:
    """Run the numbered property checks; returns one PropertyReport each.

    Systems where one full-X convolution costs more than EXACT_FULL_GUARD
    are probed at x_samples random points per index tuple (exact fiber
    averages at each probed x); the others exactly over X.
    """
    if not set(which) <= {0, 1, 2, 3}:
        raise ValueError(f"property numbers lie in 0..3, got {list(which)}")
    reports = []
    m = ensemble.m
    k = sys.k
    rng = np.random.default_rng(derive_seed(seed, "properties"))
    mus = ensemble.measures()
    X = sys.ground.size
    exact = convolution_cost(sys, 1, X)[0] <= EXACT_FULL_GUARD

    if 0 in which:
        per_set = [abs(lp_norm(mu, 1) - 1.0) for mu in mus]
        avg = ensemble.averaged_measure()
        stat = abs(lp_norm(avg, 1) - 1.0)
        worst = int(np.argmax(per_set))
        reports.append(PropertyReport(
            "property0", stat <= tol0, stat, tol0,
            witness={"per_set_deviation": per_set, "worst_index": worst + 1},
            detail={"mode": "exact"},
            notes=["pass statistic is the averaged-measure deviation; "
                   "per-set deviations are in the witness"]))

    if 1 in which:
        combos = [(j, t) for j in range(1, k + 1)
                  for t in itertools.permutations(range(1, m + 1), k - 1)]
        if len(combos) > pair_budget:
            pick = rng.choice(len(combos), size=pair_budget, replace=False)
            combos = [combos[i] for i in pick]
        stat, err, worst = 0.0, 0.0, None
        for j, tup in combos:
            vals = _probe(sys, j, [mus[i - 1] for i in tup], exact, rng,
                          x_samples)
            excess = np.maximum(vals - CAP, 0.0)
            est = float(excess.mean())
            e = 0.0 if exact else float(excess.std(ddof=1) / math.sqrt(excess.size))
            if est > stat:
                stat, err, worst = est, e, {"j": j, "indices": list(tup)}
        reports.append(PropertyReport(
            "property1", stat <= eta, stat, eta, stderr=err,
            witness=worst or {},
            detail={"mode": "exact" if exact else "sampled_x",
                    "combos_checked": len(combos), "x_samples": x_samples}))

    if 2 in which:
        stat, worst = 0.0, None
        checked = 0
        one = WeightFunction.constant(sys.ground, 1.0)
        for j in range(2, k + 1):
            for tup in itertools.permutations(range(1, m + 1), k - j):
                args = [one] * (j - 1) + [mus[i - 1] for i in tup]
                vals = _probe(sys, j, args, exact, rng, x_samples)
                top = float(vals.max()) if vals.size else 0.0
                checked += 1
                if top > stat:
                    stat, worst = top, {"j": j, "indices": list(tup)}
        reports.append(PropertyReport(
            "property2", stat <= threshold2, stat, threshold2,
            witness=worst or {},
            detail={"mode": "exact" if exact else "sampled_x",
                    "combos_checked": checked}))

    if 3 in which:
        if not exact:
            raise ValueError(
                "property 3 needs full anti-uniform evaluation; system too "
                "large (restrict `which` or shrink the system)")
        ones = np.ones(X)
        avg = ensemble.averaged_measure().dense() - ones
        diff = WeightFunction(sys.ground, values=avg)
        indicators = [WeightFunction.indicator(sys.ground, V)
                      for V in p3_indicator_sets]
        stat, worst = 0.0, None
        for t in range(p3_products):
            n_factors = int(rng.integers(1, p3_degree + 1))
            prod = np.ones(X)
            profile = []
            for h in range(n_factors):
                if indicators and rng.uniform() < 0.25:
                    pickv = int(rng.integers(0, len(indicators)))
                    prod = prod * indicators[pickv].dense()
                    profile.append({"indicator": pickv})
                    continue
                j = int(rng.integers(1, k + 1))
                tup = tuple(int(i) + 1 for i in rng.permutation(m)[: k - j])
                phi = sample_anti_uniform(
                    sys, ensemble, j, tup,
                    g_mode="random_indicator",
                    g_value=float(rng.uniform(0.25, 1.0)),
                    seed=derive_seed(seed, "p3", t, h))
                prod = prod * phi.function.dense()
                profile.append({"j": j, "indices": list(tup)})
            val = abs(inner_product(diff, WeightFunction(sys.ground, values=prod)))
            if val > stat:
                stat, worst = val, {"profile": profile}
        reports.append(PropertyReport(
            "property3", stat < lam, stat, lam, witness=worst or {},
            detail={"products": p3_products, "max_degree": p3_degree,
                    "with_indicators": bool(indicators)}))

    return reports


def check_conditions(sys: SequenceSystem, p, trials=1, alpha=0.1, seed=0,
                     x_samples=64, pair_samples=200, threshold1=1.5) -> list:
    """Check the two single-density conditions over `trials` fresh set draws."""
    k = sys.k
    X = sys.ground.size
    exact = convolution_cost(sys, 1, X)[0] <= EXACT_FULL_GUARD
    stat1, worst1 = 0.0, None
    stat2, worst2 = 0.0, None
    hits = 0
    one = WeightFunction.constant(sys.ground, 1.0)
    for trial in range(trials):
        ens = sample_ensemble(sys.ground, p, k, derive_seed(seed, "cond", trial))
        mus = ens.measures()
        rng = np.random.default_rng(derive_seed(seed, "cond-probe", trial))
        # condition 1: at least one constant slot
        for j in range(1, k + 1):
            positions = [i for i in range(1, k + 1) if i != j]
            for width in range(1, k - 1):
                for L in itertools.combinations(positions, width):
                    args = [mus[i - 1] if i in L else one for i in positions]
                    vals = _probe(sys, j, args, exact, rng, x_samples)
                    top = float(vals.max()) if vals.size else 0.0
                    if top > stat1:
                        stat1 = top
                        worst1 = {"trial": trial, "j": j, "measure_slots": list(L)}
        # condition 2: kernel against alpha p t
        mid = mus[1: k - 1]
        for probe in range(pair_samples):
            x = int(rng.integers(0, X))
            row_seed = int(rng.integers(0, 2 ** 62))
            last = sys.fiber_matrix(1, x)[:, k - 1]
            if last.size == 0:
                continue
            # one fiber row drawn from row_seed, as verify_two_dof draws
            # its probes
            rng_row = np.random.default_rng(row_seed)
            y = int(last[rng_row.integers(0, last.size, size=1)[0]])
            t_x = int(np.count_nonzero(np.bincount(last)))
            res = w_kernel(sys, mid, x, y)
            if res.value > 0:
                hits += 1
            ratio = res.value / (alpha * p * t_x)
            if ratio > stat2:
                stat2 = ratio
                worst2 = {"trial": trial, "x": x, "y": y, "W": res.value,
                          "t": t_x}
    return [
        PropertyReport("condition1", stat1 <= threshold1, stat1, threshold1,
                       witness=worst1 or {},
                       detail={"trials": trials,
                               "mode": "exact" if exact else "sampled_x"}),
        PropertyReport("condition2", stat2 <= 1.0, stat2, 1.0,
                       witness=worst2 or {},
                       detail={"trials": trials, "alpha": alpha,
                               "pair_samples": pair_samples,
                               "nonzero_kernels": hits},
                       notes=["statistic is max W(x,y) / (alpha p t(x))"]),
    ]


# --- closed-form tail bounds ---------------------------------------------

def chernoff_bound(delta, p, size):
    """P(||X_p| - p|X|| >= delta p |X|) <= 2 exp(-delta^2 p |X| / 4)."""
    if delta <= 0 or not 0 < p <= 1 or size <= 0:
        raise ValueError("need delta > 0, 0 < p <= 1, size > 0")
    return 2.0 * math.exp(-delta ** 2 * p * size / 4.0)


def bernstein_bound(t, M, var_sum):
    """exp(-t^2 / (2 (sum of variances + M t / 3))) for |Y_j| <= M."""
    if t <= 0 or M <= 0 or var_sum < 0:
        raise ValueError("need t > 0, M > 0, var_sum >= 0")
    return math.exp(-t ** 2 / (2.0 * (var_sum + M * t / 3.0)))


def correlation_bound(lam, p, size, C):
    """One-sided: P(<mu - 1, psi> >= lam) <= exp(-lam^2 p |X| / 3 C^2) for
    0 <= psi <= C with C >= lam."""
    if lam <= 0 or C < lam or not 0 < p <= 1 or size <= 0:
        raise ValueError("need 0 < lam <= C, 0 < p <= 1, size > 0")
    return math.exp(-lam ** 2 * p * size / (3.0 * C ** 2))


def capped_excess_eta(alpha):
    """Expected mass above the cap: at most eta = 7 alpha e^{-1/(14 alpha)},
    valid when the conditional means stay below 3/2 and the per-point bound
    is alpha."""
    if alpha <= 0:
        raise ValueError("need alpha > 0")
    return 7.0 * alpha * math.exp(-1.0 / (14.0 * alpha))

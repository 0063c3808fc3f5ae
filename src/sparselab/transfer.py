"""Dense-model machinery: sampled anti-uniform families, a minimax LP
solver producing the dense model g, and counting-lemma verification.

Everything is stated relative to a FINITE sampled family of basic
anti-uniform functions (capped convolutions with bounded leading slots and
measure-dominated trailing slots, constant 1 always included, optional set
indicators appended).  Guarantees are family-relative by design; the
achieved norm is always recomputed exactly from the returned g rather than
trusted from the solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .conv import count_functional, split_capped_count
from .core import GroundSet, WeightFunction
from .sample import derive_seed
from .verify import anti_uniform_matrix

_G_CONSTANTS = (1.0, 0.75, 0.5, 0.25)


@dataclass
class AntiUniformFamily:
    domain: GroundSet
    values: np.ndarray               # (len, |X|) member values, constant 1 first
    descriptors: list                # one dict per member
    provenance: dict = field(default_factory=dict)

    def __len__(self):
        return self.values.shape[0]

    @property
    def members(self):
        """The members as WeightFunctions."""
        return [WeightFunction(self.domain, values=row) for row in self.values]

    def matrix(self) -> np.ndarray:
        """Member values stacked into a (len, |X|) array."""
        return self.values

    def prefix(self, size) -> "AntiUniformFamily":
        if not 1 <= size <= len(self):
            raise ValueError("prefix size out of range")
        return AntiUniformFamily(self.domain, self.values[:size],
                                 self.descriptors[:size],
                                 dict(self.provenance, prefix=size))


def build_family(sys, ensemble, size, sets=None, seed=0) -> AntiUniformFamily:
    """A family of `size` basic anti-uniform functions over sys/ensemble.

    Construction order is deterministic given the seed, and families of different
    sizes with the same seed agree on their common prefix.  Supplied sets
    become indicator members appended beyond `size`.  Every profile is drawn
    first; the members are then made in one anti_uniform_matrix pass.
    """
    if size < 1:
        raise ValueError("family size must be at least 1")
    domain = sys.ground
    profiles, descriptors = [], [{"kind": "constant"}]
    for j in range(1, sys.k + 1):
        for tup in itertools.permutations(range(1, ensemble.m + 1), sys.k - j):
            # j = 1 has no bounded slot, so it comes once, with no g constant
            for c in ((None,) if j == 1 else _G_CONSTANTS):
                profiles.append((j, tup, "constant", c, "full", seed))
                descriptors.append({"kind": "basic", "j": j,
                                    "indices": list(tup)}
                                   | ({} if c is None else {"g_constant": c}))
    del profiles[size - 1:], descriptors[size:]
    idx = 0
    while len(profiles) < size - 1:
        member_seed = derive_seed(seed, "family", idx)
        rng = np.random.default_rng(member_seed)
        j = int(rng.integers(1, sys.k + 1))
        tup = tuple(int(v) for v in rng.permutation(ensemble.m)[: sys.k - j] + 1)
        g_value = float(rng.uniform(0.25, 1.0))
        f_mode = "masked" if rng.uniform() < 0.5 else "full"
        profiles.append((j, tup, "random_indicator", g_value, f_mode,
                         member_seed))
        descriptors.append({"kind": "basic", "j": j, "indices": list(tup),
                            "g_density": g_value, "f_mode": f_mode})
        idx += 1
    rows = [np.ones((1, domain.size)),
            anti_uniform_matrix(sys, ensemble, profiles)]
    for V in (sets or []):
        rows.append(WeightFunction.indicator(domain, V).dense()[None, :])
        descriptors.append({"kind": "indicator",
                            "size": int(np.asarray(V).size)})
    values = np.concatenate(rows)
    values.flags.writeable = False
    return AntiUniformFamily(domain, values, descriptors,
                             provenance={"size": size, "seed": seed,
                                         "system": sys.descriptor(),
                                         "ensemble_seed": ensemble.master_seed,
                                         "indicators": len(sets or [])})


@dataclass
class DenseModelResult:
    g: WeightFunction
    achieved_norm: float
    scaling: float                   # the applied (1+eps)^{-1}
    lp_optimum: float
    status: str
    family_size: int
    iterations: int = 0


def solve_dense_model(f: WeightFunction, family: AntiUniformFamily,
                      eps=0.0) -> DenseModelResult:
    """min over 0 <= g <= 1 of max_phi |<f/(1+eps) - g, phi>| as an LP.

    Variables (g, t).  The solver gets only the rows that can bind, in
    member order, which keeps HiGHS on the vertex it reaches with two rows
    per member: for each distinct member phi (first occurrence),
    phi.g - t <= b when the positive part of phi sums above b, and
    -phi.g - t <= -b when its negative part sums below b; the box bounds
    already satisfy the others.  achieved_norm covers every member and
    comes from a final exact pass, never from the solver's objective.
    """
    from scipy.optimize import linprog  # scipy loads only when an LP runs

    fd = f.dense()
    if fd.min() < 0:
        raise ValueError("dense-model input must be nonnegative")
    X = family.domain.size
    scaling = 1.0 / (1.0 + eps)
    target = fd * scaling
    Phi = family.matrix() / X
    b = Phi @ target
    first = np.sort(np.unique(Phi, axis=0, return_index=True)[1])
    P, bp = Phi[first], b[first]
    upper = np.maximum(P, 0.0).sum(axis=1) > bp
    lower = np.minimum(P, 0.0).sum(axis=1) < bp
    A = np.concatenate([P[upper], -P[lower]])
    A = np.hstack([A, np.full((A.shape[0], 1), -1.0)])
    b_ub = np.concatenate([bp[upper], -bp[lower]])
    c = np.zeros(X + 1)
    c[-1] = 1.0
    bounds = [(0.0, 1.0)] * X + [(0.0, None)]
    res = linprog(c, A_ub=A, b_ub=b_ub, bounds=bounds, method="highs")
    if res.x is not None:
        g_arr = np.clip(res.x[:X], 0.0, 1.0)
        status = "optimal" if res.status == 0 else f"best-so-far:{res.message}"
        lp_opt = float(res.fun) if res.fun is not None else math.inf
    else:
        g_arr = np.clip(target, 0.0, 1.0)
        status = f"fallback:{res.message}"
        lp_opt = math.inf
    g = WeightFunction(family.domain, values=g_arr)
    achieved = float(np.abs(Phi @ (target - g_arr)).max())
    return DenseModelResult(g, achieved, scaling, lp_opt, status,
                            len(family), int(getattr(res, "nit", 0) or 0))


# --- counting-lemma verification -----------------------------------------

def verify_counting_lemma(sys, fs, g, eta, seed=0) -> dict:
    """Compare the m-fold split capped count of fs with the plain count of
    the dense model g, both exact; flag gap <= 4 eta.  The report keeps its
    zero split_stderr and count_stderr and its "exact" mode for readers of
    the dense-model JSON; seed is accepted for existing callers, unused."""
    split_val = split_capped_count(sys, fs)
    cnt_val = count_functional(sys, g)
    gap = abs(split_val - cnt_val)
    threshold = 4.0 * eta
    return {"split_value": split_val, "split_stderr": 0.0,
            "count_value": cnt_val, "count_stderr": 0.0,
            "gap": gap, "eta": eta, "threshold": threshold,
            "ok": gap <= threshold, "mode": "exact"}

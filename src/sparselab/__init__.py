"""sparselab: counting configurations in sparse random subsets.

Ground sets and weight functions (core), sequence systems and their
diagnostics (systems), the convolution calculus (conv), seeded sampling
(sample), property/condition checkers and tail bounds (verify), dense-model
solvers (transfer), exhaustive oracles (oracles), and a CLI (cli).
"""

from .conv import (capped_convolve, convolve, count_functional,
                   counting_gap_bound, split_capped_count)
from .core import (DENSE_LIMIT, GroundSet, WeightFunction, expectation,
                   inner_product, lp_norm, make_measure)
from .oracles import (HostGraph, adversary_colouring, adversary_free_subset,
                      critical_exponent, extremal_number, pattern_stats,
                      ramsey_multiplicity, supersaturation_count,
                      tuples_within, varnavides_count)
from .sample import (RandomEnsemble, sample_ensemble, sample_subset,
                     stable_hash)
from .systems import (EnumerationGuardError, PatternHypergraph, SequenceSystem,
                      build_system, is_probable_prime, pair_profile,
                      verify_homogeneity, verify_two_dof)
from .transfer import (approx_positive_part, build_family, round_to_indicator,
                       solve_dense_model, solve_dense_model_colouring,
                       verify_counting_lemma)
from .verify import check_conditions, check_properties, sample_anti_uniform

__version__ = "0.1.0"

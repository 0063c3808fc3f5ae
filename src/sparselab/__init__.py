"""sparselab: counting configurations in sparse random subsets.

Ground sets and weight functions (core), sequence systems and their
diagnostics (systems), the convolution calculus (conv), seeded sampling
(sample), property/condition checkers and tail bounds (verify), the
dense-model LP and counting-lemma check (transfer), exhaustive oracles
(oracles), and a CLI (cli).
"""

from .conv import (capped_convolve, convolve, count_functional,
                   split_capped_count)
from .core import (GroundSet, WeightFunction, inner_product, lp_norm,
                   make_measure)
from .oracles import (HostGraph, adversary_colouring, adversary_free_subset,
                      critical_exponent, extremal_number, pattern_stats,
                      ramsey_multiplicity, supersaturation_count,
                      tuples_within, varnavides_count)
from .sample import (RandomEnsemble, sample_ensemble, sample_subset,
                     stable_hash)
from .systems import (EnumerationGuardError, PatternHypergraph, SequenceSystem,
                      build_system, is_probable_prime, pair_profile,
                      verify_homogeneity, verify_two_dof)
from .transfer import build_family, solve_dense_model, verify_counting_lemma
from .verify import check_conditions, check_properties, sample_anti_uniform

__version__ = "0.1.0"

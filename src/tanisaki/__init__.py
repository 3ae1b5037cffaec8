"""Exact presentations of Springer-variety cohomology and K-rings."""

from .groebner import (
    DEGREVLEX,
    LEX,
    GroebnerBasis,
    InfiniteQuotient,
    MonomialOrder,
    buchberger,
    hilbert_series,
    normal_form,
    standard_monomials,
)
from .ideals import (
    GeneratorRecord,
    IdealPresentation,
    h_polynomial,
    k_tanisaki_generators,
    tanisaki_generators,
    truncation_certificate,
)
from .lambda_ring import (
    VirtualClass,
    equivalent_lambda_relations,
    gamma_op,
    lambda_series,
    verify_gamma_relations,
)
from .linalg import (
    filtration_check,
    ideal_degree_rank,
    integral_freeness_check,
    jordan_matrix,
    smith_normal_form,
    verify_rank_lemma,
)
from .partitions import (
    Partition,
    PartitionError,
    enumerate_partitions,
    enumerate_subsets,
    garsia_procesi_series,
    parse_partition,
)
from .polynomial import Polynomial, binomial, elementary_symmetric

__version__ = "0.1.0"

__all__ = [
    "DEGREVLEX",
    "LEX",
    "GeneratorRecord",
    "GroebnerBasis",
    "IdealPresentation",
    "InfiniteQuotient",
    "MonomialOrder",
    "Partition",
    "PartitionError",
    "Polynomial",
    "VirtualClass",
    "binomial",
    "buchberger",
    "elementary_symmetric",
    "enumerate_partitions",
    "enumerate_subsets",
    "equivalent_lambda_relations",
    "filtration_check",
    "gamma_op",
    "garsia_procesi_series",
    "h_polynomial",
    "hilbert_series",
    "ideal_degree_rank",
    "integral_freeness_check",
    "jordan_matrix",
    "k_tanisaki_generators",
    "lambda_series",
    "normal_form",
    "parse_partition",
    "smith_normal_form",
    "standard_monomials",
    "tanisaki_generators",
    "truncation_certificate",
    "verify_gamma_relations",
    "verify_rank_lemma",
]

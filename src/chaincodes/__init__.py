"""Exact arithmetic for cyclic and constacyclic codes over finite chain rings."""

from .chainring import (
    EU_POWER_SERIES,
    GALOIS_RING,
    ChainRing,
    ChainRingSpec,
    RingElement,
    eu_ring,
    galois_ring,
    make_ring,
)
from .contraction import (
    ContractionResult,
    concatenate,
    concatenation_code,
    contract_code,
    contract_dual,
    preimage_code,
)
from .cosets import (
    CosetSet,
    CosetUniverse,
    CyclotomicPartition,
    class_count_formula,
    coset,
    cosets,
    count_classes,
    make_partition,
    partition_count,
    representatives,
)
from .errors import (
    BudgetExceeded,
    ChainCodesError,
    NotCyclic,
    SingletonViolation,
    SpecError,
)
from .galois import GaloisExtension, extend
from .modcodes import (
    LinearCode,
    closure_code,
    constashift,
    extend_code,
    full_code,
    intersect_codes,
    is_constacyclic,
    membership,
    res_subring_code,
    residue_code,
    sigma_image,
    sum_codes,
    trace_code,
    weight,
    zero_code,
)
from .oracle import Budget
from .tracecodes import (
    EvalContext,
    code_from_partition,
    context,
    count_cyclic_codes,
    decompose_cyclic,
    enumerate_cyclic_codes,
    irreducible_components,
    irreducible_cyclic_code,
    lrs_code,
    psi,
    trace_eval_code,
)

__version__ = "0.1.0"

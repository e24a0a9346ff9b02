"""qpool: pooling independent observers' quantum states of knowledge.

Each observer measures the same system, learns an outcome, and holds a
density matrix summarizing what they know.  This package computes the
state held by someone who has all the records, checks it against a
first-principles sequential-measurement oracle, and exposes the qubit
closed form in Bloch coordinates.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BadRankError,
    BadTraceError,
    BlochTooLongError,
    DimMismatchError,
    DomainError,
    IncompatibleStatesError,
    LengthMismatchError,
    NotCompleteError,
    NotHermitianError,
    NotPositiveError,
    NotUnitaryError,
    QpoolError,
    SingularSumError,
    TooFewStatesError,
    TooManyStatesError,
    ZeroEffectError,
    ZeroProbabilityError,
)
from .harness import (
    Scenario,
    VerificationReport,
    oracle_pool,
    random_density,
    random_povm,
    run_scenario,
    verify_commuting_reduction,
    verify_three_observer,
    verify_two_observer,
)
from .linalg import (
    bloch_to_density,
    density_to_bloch,
    frobenius_distance,
    hermitian_sqrt,
    hermitianize,
    maximally_mixed,
    trace_product,
    validate_density,
)
from .measurement import (
    EfficientKraus,
    Povm,
    bare_update,
    efficient_update,
    outcome_probabilities,
    posterior_from_outcome,
    sample_outcome,
    validate_povm,
)
from .pooling import (
    PoolReport,
    classical_pool,
    compatibility,
    pool_ordered,
    pool_ordered_multi,
    pool_symmetric,
    pool_symmetric_multi,
)
from .qubit import BlochWeights, bloch_weights, certainty_weight, pool_bloch, weight_factor

__version__ = "0.1.0"

# Every public name imported above, minus the submodules those imports bind.
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType))

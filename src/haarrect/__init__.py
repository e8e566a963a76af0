"""Haar-averaging rectification of almost-morphisms.

Finite groupoids with distinguished cores carry normalized right-invariant
fiber weights; maps from their arrows into compact matrix groups are
corrected by exponentials of fiber-averaged defect logs, and the iteration
contracts the defect quadratically under certified constants.
"""

from .errors import (
    ActionError,
    ConfigError,
    CoreAxiomError,
    DefectOverflow,
    DefectTooLarge,
    GridError,
    HaarrectError,
    InvalidAlgebraVector,
    InvarianceError,
    LogDomainError,
    NonContraction,
    RangeEscape,
)
from .groups import (
    AmbientSets,
    BchConstants,
    NormedAlgebra,
    estimate_bch_constants,
    haar_integrate,
    normalize_algebra_norm,
)
from .groupoids import (
    Core,
    FiniteGroup,
    FiniteGroupoid,
    attach_haar_density,
    build_action_groupoid,
    build_core,
    build_pair_groupoid,
    validate_groupoid,
)
from .rectifier import (
    IterationTrace,
    admissible_defect_radius,
    iterate,
    q_bound,
    verify_core_morphism,
)
from .holo import (
    ComplexModel,
    build_complexified_model,
    core_average_function,
    cr_residual,
    real_restriction_check,
)
from .harness import (
    ExperimentConfig,
    generate_exact_morphism,
    perturb_morphism,
    run_experiment,
)

__version__ = "0.1.0"

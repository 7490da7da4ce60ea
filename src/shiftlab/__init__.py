"""Certified multiplicity bounds for joint invariant subspaces of tensorized shifts.

The package builds finite truncations of classical weighted-shift models
(Hardy, Bergman, Dirichlet, one-parameter weighted Bergman, polynomial
quotient models), tensors them into doubly commuting operator tuples,
constructs the joint invariant subspace S = (Q_1 (x) ... (x) Q_n)-perp with
its nested chain S >= F_1 >= ... >= F, and certifies the minimal number of
generators (the multiplicity) of the associated compressions with matching
lower and upper bounds.
"""

from .errors import (
    ConfigError,
    ContainmentError,
    EigenError,
    InputError,
    InternalConsistencyError,
    ModelError,
    ShiftlabError,
)
from .models import (
    QuotientModel,
    ShiftModel,
    SpaceKind,
    dump_matrix,
    ideal_subspace,
    kernel_vector,
    load_matrix,
    make_quotient,
    make_shift,
    matrix_from_json,
    matrix_to_json,
    prefix_coinvariant,
    shift_weights,
)
from .multiplicity import (
    MultiplicityResult,
    OperatorTuple,
    krylov_closure,
    multiplicity,
    shifted_closure_check,
    wandering_subspace,
)
from .scenarios import (
    ALL_CHECKS,
    Report,
    Scenario,
    load_scenario,
    report_to_text,
    run_scenario,
    scenario_from_json,
)
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    complement_within,
    compress,
    opnorm,
    orthonormalize,
    same_subspace,
)
from .tensorized import (
    ChainDecomposition,
    StructureReport,
    TensorFactor,
    TensorSystem,
    WanderingDecomposition,
    build_system,
    f_chain,
    tensor_factor,
    verify_compression_structure,
    wandering_E,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS",
    "ChainDecomposition",
    "ConfigError",
    "ContainmentError",
    "DEFAULT_TOL",
    "EigenError",
    "InputError",
    "InternalConsistencyError",
    "ModelError",
    "MultiplicityResult",
    "OperatorTuple",
    "QuotientModel",
    "Report",
    "Scenario",
    "ShiftModel",
    "ShiftlabError",
    "SpaceKind",
    "StructureReport",
    "Subspace",
    "TensorFactor",
    "TensorSystem",
    "WanderingDecomposition",
    "build_system",
    "complement_within",
    "compress",
    "dump_matrix",
    "f_chain",
    "ideal_subspace",
    "kernel_vector",
    "krylov_closure",
    "load_matrix",
    "load_scenario",
    "make_quotient",
    "make_shift",
    "matrix_from_json",
    "matrix_to_json",
    "multiplicity",
    "opnorm",
    "orthonormalize",
    "prefix_coinvariant",
    "report_to_text",
    "run_scenario",
    "same_subspace",
    "scenario_from_json",
    "shift_weights",
    "shifted_closure_check",
    "tensor_factor",
    "verify_compression_structure",
    "wandering_E",
    "wandering_subspace",
]

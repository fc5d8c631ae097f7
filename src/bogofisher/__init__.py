"""Quantum Fisher information for small parameters in Bogoliubov transformations.

The package pairs an analytic first-order route (sparse Fock states, a
quadratic generator built from first-order Bogoliubov coefficients, and
closed-form QFI expressions) with an independent brute-force oracle
(exact propagators on the truncated Fock space, Uhlmann fidelity,
finite differences).  A CLI exposes scans, scaling fits, example-state
studies, and fixed-energy amplitude optimization.
"""

from .bogoliubov import (
    BogoliubovFirstOrder,
    ValidationReport,
    beam_splitter,
    load_model,
    parse_model,
    serialize_model,
    single_mode_squeezer,
    two_mode_squeezer,
    validate,
)
from .errors import (
    BogofisherError,
    BudgetError,
    ModelFormatError,
    NumericalBreakdownError,
    SupportError,
    UnitarityError,
    UsageError,
)
from .fock import (
    DensityOperator,
    ModeLayout,
    ModeSubset,
    StateVector,
    average_particle_number,
    inner_product,
    partial_trace,
)
from .harness import (
    OptimizationResult,
    ScanRow,
    eval_named_states,
    fit_scaling,
    optimize_state,
    rows_to_csv,
    scan_fock,
)
from .perturb import (
    FirstOrderPair,
    GeneratorK,
    apply_generator,
    build_generator,
    transform_first_order,
    validity_check,
)
from .qfi import (
    QfiReport,
    overlap_penalty,
    qfi_fock_closed,
    qfi_mixed_matrix_element,
    qfi_pure,
    qfi_pure_report,
    qfi_reduced,
    qfi_two_mode_closed,
    tracing_loss,
    vacuum_loss_bound,
    vacuum_qfi,
)

__version__ = "0.1.0"

__all__ = [
    "BogofisherError",
    "BogoliubovFirstOrder",
    "BudgetError",
    "DensityOperator",
    "DerivativeStates",
    "FidelityEstimate",
    "FirstOrderPair",
    "GeneratorK",
    "ModeLayout",
    "ModeSubset",
    "ModelFormatError",
    "NumericalBreakdownError",
    "OptimizationResult",
    "QfiReport",
    "ScanRow",
    "StateVector",
    "SupportError",
    "UnitarityError",
    "UsageError",
    "ValidationReport",
    "apply_generator",
    "average_particle_number",
    "beam_splitter",
    "build_generator",
    "coherent_state",
    "derivative_states",
    "eval_named_states",
    "fit_scaling",
    "generator_from_model",
    "inner_product",
    "load_model",
    "optimize_state",
    "overlap_penalty",
    "parse_model",
    "partial_trace",
    "qfi_fidelity_mixed",
    "qfi_fidelity_pure",
    "qfi_fock_closed",
    "qfi_mixed_matrix_element",
    "qfi_pure",
    "qfi_pure_report",
    "qfi_reduced",
    "qfi_two_mode_closed",
    "rows_to_csv",
    "scan_fock",
    "serialize_model",
    "single_mode_squeezer",
    "tracing_loss",
    "transform_first_order",
    "two_mode_squeezer",
    "uhlmann_fidelity",
    "vacuum_loss_bound",
    "vacuum_qfi",
    "validate",
    "validity_check",
]


def __getattr__(name: str):
    """The oracle's names in ``__all__``, imported on first access (PEP 562).

    The first-order route imports none of the oracle.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value

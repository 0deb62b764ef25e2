"""Machine-precision checks for parameter-space equivariances.

The package verifies, as numerical residuals on small models, the calculus
that a differentiable equivariance f(H(theta, lam)) = G(f(theta), lam)
imposes on a loss landscape: first- and second-order gradient/Hessian
identities along characteristic directions, fixed-point constraints of
discrete symmetries, homogeneity specializations, eigenvector alignment and
sharpness bounds, conserved charges of gradient flow, and the charge drift
of stochastic gradient flow.
"""

from .diff_engine import DiffConfig, HyperDual, fd_oracle, grad_and_hessian_of_loss, jacobian, second_derivative
from .dynamics import (
    CovarianceReport,
    DriftReport,
    Ensemble,
    NoiseModel,
    NormGrowthReport,
    Trajectory,
    gradient_descent,
    gradient_flow,
    noether_drift_check,
    noise_covariance,
    norm_growth_check,
    sgf,
    write_ensemble,
    write_trajectory_csv,
)
from .errors import (
    CheckFailure,
    ConfigError,
    DegenerateLoss,
    EquichkError,
    InsufficientEnsemble,
    InvalidNoiseModel,
    InvalidParams,
    NonFiniteResult,
    NotConservative,
    NotConverged,
    NotFactoredModel,
    NotFixedPoint,
    NotGoodPosition,
    NotInvolution,
    RuntimeFault,
    Singular,
    StepFailure,
    UnknownSpec,
)
from .identity_checker import (
    CHECK_ANCHORS,
    IdentityReport,
    PlanEntry,
    SuiteSpec,
    check_discrete_first,
    check_discrete_second,
    check_eigen_alignment,
    check_first_order,
    check_homogeneity_specialization,
    check_last_layer_alignment,
    check_mirror,
    check_second_action,
    check_second_quadratic,
    default_suite,
    run_suite,
    sample_positions,
    sharpness_bound,
    stationary_null_count,
    write_reports_jsonl,
    write_summary_csv,
)
from .models import (
    LOSS_NAMES,
    MODEL_NAMES,
    Dataset,
    Loss,
    LossFamily,
    Model,
    ModelSpec,
    build_model,
    expected_loss,
    forward,
    loss_family,
    make_loss,
    per_sample_losses,
    random_params,
)
from .spectral import SpectralSummary, jacobi_eigh, power_eigs, spectral_summary
from .tensor_core import compose, compose_k, invert_square
from .transforms import (
    TRANSFORM_NAMES,
    Charge,
    GoodPositionReport,
    Transformation,
    build_transform,
    characteristic_direction,
    characteristic_output,
    equivariance_residual,
    fixed_point_project,
    good_position,
    mutate,
    noether_charge,
)

__version__ = "0.1.0"

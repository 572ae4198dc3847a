"""Joint rate-distortion analysis of a pair of correlated Gaussian sources.

Compute the joint rate-distortion value of two jointly Gaussian vector
sources under individual squared-error budgets, synthesize the test channel
attaining it, and verify the structural identities that characterize the
optimum (conditional-mean structure, canonical-form determinant identities,
additive-lower-bound equality on the closed-form region, KKT certificates).
"""

from .canonical import (
    CanonicalForm,
    CanonicalPartition,
    canonical_form_of_covariance,
    cvf_objective,
    det_identity_residual,
    to_canonical_form,
)
from .model import (
    DistortionPair,
    GaussianPairSource,
    NotPositiveDefiniteError,
    SourceValidationError,
    gray_lower_bound,
    load_source,
    marginal_rdf,
    mutual_information,
    parse_source,
    source_to_dict,
    validate_source,
)
from .realization import (
    Condition1Report,
    TestChannelRealization,
    conditional_mean_map,
    implied_error_covariance,
    realize,
    verify_condition1,
)
from .sim import (
    CmOptimalityReport,
    DistortionReport,
    SampleBatch,
    check_cm_optimality,
    check_distortion,
    empirical_error_covariance,
    push_channel,
    sample_source,
)
from .solver import (
    ErrorCovariance,
    FeasibilityError,
    KktCertificate,
    SolveBranch,
    SolveReport,
    closed_form_candidate,
    in_region_d,
    kkt_residuals,
    rate_of,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "CanonicalPartition",
    "CmOptimalityReport",
    "Condition1Report",
    "DistortionPair",
    "DistortionReport",
    "ErrorCovariance",
    "FeasibilityError",
    "GaussianPairSource",
    "KktCertificate",
    "NotPositiveDefiniteError",
    "SampleBatch",
    "SolveBranch",
    "SolveReport",
    "SourceValidationError",
    "TestChannelRealization",
    "canonical_form_of_covariance",
    "check_cm_optimality",
    "check_distortion",
    "closed_form_candidate",
    "conditional_mean_map",
    "cvf_objective",
    "det_identity_residual",
    "empirical_error_covariance",
    "gray_lower_bound",
    "implied_error_covariance",
    "in_region_d",
    "kkt_residuals",
    "load_source",
    "marginal_rdf",
    "mutual_information",
    "parse_source",
    "push_channel",
    "rate_of",
    "realize",
    "sample_source",
    "solve",
    "source_to_dict",
    "to_canonical_form",
    "validate_source",
    "verify_condition1",
]

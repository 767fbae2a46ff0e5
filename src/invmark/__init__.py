"""invmark: watermark message-passing networks through a spectral invariant.

The toolkit generates owner-private carrier graphs, trains a model to
predict their normalized algebraic connectivity through a scalar perception
head, verifies ownership with a calibrated bit-match test, simulates
removal attacks with drift accounting, and demonstrates the hardness
reduction for exact removal.
"""

__version__ = "0.1.0"

from .calibration import (
    AuditThresholds,
    alpha_bound,
    beta_fn_bound,
    beta_max,
    calibrate_thresholds,
    fit_pl_constant,
    monte_carlo_null,
    solve_eps_err,
    tau_from_eps,
)
from .carriers import (
    CarrierBundle,
    ProtocolParams,
    build_bundle,
    bundle_from_dict,
    bundle_to_dict,
    double_edge_swap,
    estimate_rho0,
    ks_two_sample,
    sample_carrier,
)
from .graphs import (
    Graph,
    NormalizationConstants,
    SpectrumResult,
    degree_features,
    fit_normalization,
    graph_statistics,
    laplacian,
    lambda2,
    spectrum,
    wl_hash,
)
from .watermark import (
    EmbedConfig,
    VerificationReport,
    drift,
    embed,
    margin,
    verify,
    wm_accuracy,
    wm_loss,
)

__all__ = [
    "__version__",
    "AuditThresholds",
    "CarrierBundle",
    "EmbedConfig",
    "Graph",
    "NormalizationConstants",
    "ProtocolParams",
    "SpectrumResult",
    "VerificationReport",
    "alpha_bound",
    "beta_fn_bound",
    "beta_max",
    "build_bundle",
    "bundle_from_dict",
    "bundle_to_dict",
    "calibrate_thresholds",
    "degree_features",
    "double_edge_swap",
    "drift",
    "embed",
    "estimate_rho0",
    "fit_normalization",
    "fit_pl_constant",
    "graph_statistics",
    "ks_two_sample",
    "lambda2",
    "laplacian",
    "margin",
    "monte_carlo_null",
    "sample_carrier",
    "solve_eps_err",
    "spectrum",
    "tau_from_eps",
    "verify",
    "wl_hash",
    "wm_accuracy",
    "wm_loss",
]

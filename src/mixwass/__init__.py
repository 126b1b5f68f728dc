"""Wasserstein-distance estimation and inference for topic-model mixing measures."""

from __future__ import annotations

import hashlib
from pathlib import Path

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    DegenerateSupport,
    DimError,
    InfeasibleRow,
    InvalidCost,
    InvalidMatrix,
    InvalidParam,
    InvalidSimplex,
    LPFailure,
    MixwassError,
    NumericalError,
    ParseError,
    SingularDesign,
    SingularInformation,
    Unbounded,
    ValidationError,
)
from .numlin import SymMatrixResult, pinv, psd_sqrt, sym_eig  # noqa: F401
from .transport import (  # noqa: F401
    CostMatrix,
    DualPolytope,
    ProbVec,
    TopicMatrix,
    cost_matrix,
    kr_dual_value,
    restricted_polytope,
    support_batch,
    tv_distance,
    wasserstein_primal,
)
from .estimators import (  # noqa: F401
    CountVector,
    CovEstimate,
    Method,
    WeightEstimate,
    debias,
    mle_weights,
    sigma_hat,
    sigma_ls,
    wls_weights,
)
from .inference import (  # noqa: F401
    ConfidenceInterval,
    LimitSampleSet,
    confidence_interval,
    derivative_bootstrap,
    distance_estimate,
    effective_root_n,
    ks_distance,
    ks_two_sample_pvalue,
    limit_sampler,
    m_out_of_n_bootstrap,
    theorem_delta,
)
from .simulate import (  # noqa: F401
    ExperimentReport,
    SimConfig,
    gen_document,
    gen_topic_matrix,
    gen_weights,
    perturb_topics,
    run_ci_experiment,
    run_convergence_experiment,
    run_mle_vs_wls_experiment,
    run_normality_experiment,
)

_build_hash: str | None = None


def build_hash() -> str:
    """Digest of the installed module sources (stable per build)."""
    global _build_hash
    if _build_hash is None:
        h = hashlib.sha256()
        root = Path(__file__).parent
        for src in sorted(root.glob("*.py")):
            h.update(src.name.encode())
            h.update(src.read_bytes())
        _build_hash = h.hexdigest()[:12]
    return _build_hash

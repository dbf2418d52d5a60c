"""Gradient descent with local linear regularization for escaping non-strict
saddle points, and analysis tools for the surrounding geometry: critical-point
classification, small-gradient regions, bifurcation continuation, basin
sampling, and regularization-error bounds."""

import types

from .continuation import ContinuationPath, continuation_trace
from .critical import (
    LOCAL_MAX,
    LOCAL_MIN,
    NON_STRICT_OR_DEGENERATE,
    STRATUM_NEGATIVE,
    STRATUM_POSITIVE,
    STRATUM_ZERO,
    STRICT_SADDLE,
    CriticalPointReport,
    classify_eigenvalues,
    classify_point,
    find_critical_points,
)
from .linalg import (
    NumericalError,
    spectral_norm,
    sym_eigen,
)
from .mlp import (
    Dataset,
    MlpSpec,
    init_params,
    make_blobs,
    mlp_objective,
    pack_params,
    unpack_params,
)
from .objectives import (
    CorpusEntry,
    Objective,
    corpus,
    corpus_names,
    cubic_cone,
    cubic_valley,
    double_degenerate,
    get_objective,
    make_objective,
    make_regularized,
    monkey_line,
    quadratic_bowl,
)
from .optimizer import (
    MODE_PLAIN,
    MODE_REGULARIZED,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_MAX_ITERS,
    STATUS_NUMERICAL_FAILURE,
    OptimizerConfig,
    RegularizationEvent,
    TrajectoryRecord,
    run_plain_gd,
    run_regularized_gd,
)
from .region import (
    ENTER,
    EXIT,
    TANGENT,
    RegionGrid,
    boundary_classify,
    check_assumption_separation,
    check_boundary_assumption,
    halfspace_check,
    theta_region,
)
from .sampling import (
    escape_fraction,
    milnor_sample,
    pl_error_check,
    psi_witness_check,
    run_gd_batch,
    sample_in_box,
    sample_in_region,
    stable_set_fraction,
)

__version__ = "0.1.0"

# every imported public name that is not a module
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, types.ModuleType))

"""hermite-lab: minimal vectors, Hermite best approximations, and the
two-dimensional extension of the Gauss map, with certified arithmetic."""

from .cf import (
    Convergent,
    PartialQuotients,
    cf_expand,
    convergents,
    mirror_value,
    ratio_y,
    reduce_theta,
    tail_value,
)
from .errors import (
    AmbiguousComparison,
    DomainError,
    GridTooCoarse,
    HermiteLabError,
    InsufficientSequence,
    IntegerInput,
    InvalidArgument,
    InvalidQuadratic,
    IndexOutOfRange,
    MisalignedInput,
    NotConsecutive,
    OrbitTerminates,
    ParseError,
    PrecisionExceedsInput,
    SequenceEnds,
    TailUnavailable,
    VerificationMismatch,
)
from .hermite import (
    HermiteFlags,
    flags_via_criterion,
    flags_via_delta_scan,
    flags_via_envelope,
    hermite_subsequence,
)
from .lattice import (
    IntrinsicCoords,
    MinimalVector,
    check_basis,
    complete_sequence,
    intrinsic_coords,
    is_minimal_bruteforce,
    next_minimal,
)
from .natural_extension import (
    DomainPoint,
    contraction_check,
    density_mu,
    in_region_V,
    invariance_residual,
    mu_measure_V,
    orbit,
    step_T,
    step_T_inv,
)
from .numeric import (
    DecimalSpec,
    QuadraticReal,
    QuadraticSpec,
    RationalSpec,
    RealSpec,
    make_decimal,
    parse_real,
    quadratic_or_rational,
    spec_text,
)
from .stats import (
    HERMITE_GROWTH_RATE,
    HERMITE_PROPORTION,
    LEVY_RATE,
    AggregateReport,
    ExperimentConfig,
    ThetaReport,
    analyze_theta,
    run_experiment,
    sample_thetas,
)

__version__ = "0.1.0"

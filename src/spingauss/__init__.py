"""Gaussian oscillator limits of collective qubit ensembles.

The package builds the block decomposition of n identically prepared qubits,
the displaced thermal limit family of a quantum oscillator, trace-preserving
channels carrying one family onto the other, and the measurement-theoretic
benchmarks (discrimination risk, heterodyne estimation risk, covariant versus
heterodyne outcome statistics) that certify the convergence numerically.

Every state is carried in factor form.  The dense constructions the tests
compare against live in ``spingauss.reference``, which the package does not
import or re-export.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    SpinGaussError,
    ValidationError,
)
from .irreps import HalfInteger, LocalParam, spin_coherent_coords
from .numerics import trace_norm
from .oscillator import (
    FockOperator,
    FockTruncation,
    PolarGrid,
    displaced_thermal,
)
from .qubit_model import (
    BlockState,
    ModelParams,
    block_weight,
    concentration_range,
    concentration_set,
    concentration_weight,
    log_multiplicity,
    multiplicity,
    occurring_range,
    rotated_blocks,
    spin_center,
    valid_spins,
)
from .channels import (
    PointStats,
    coherent_vector_distance,
    composition_defect,
    convergence_point,
    inverse_channel,
)
from .measurements import (
    BinaryTestResult,
    McSpec,
    TvEstimate,
    finite_n_discrimination,
    heterodyne_estimation_risk,
    heterodyne_outcome_std,
    heterodyne_risk_reference,
    heterodyne_samples,
    limit_discrimination,
    measurement_tv,
    position_measurement_risk,
)

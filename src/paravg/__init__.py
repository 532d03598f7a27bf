"""paravg: averaging on the discrete paraboloid and its frequency anatomy.

Modules:
    lattice      - finitely supported functions on Z^n (norms, convolution)
    cutoff       - sharp/smooth cutoffs, paraboloid kernels, the average
    expsums      - quadratic exponential sums, the multiplier, rational
                   approximation
    arcs         - Farey fractions, bump ladders, multiplier pieces
    numtheory    - divisor statistics and complete exponential sums
    coefficients - piece Fourier coefficients, quadrature oracle, decay scans
    experiments  - operator norms, extremizer families, scaling fits
    cli          - batch front end (reports, CSV/JSON, SVG plots)
"""

__version__ = "0.1.0"

from . import arcs, coefficients, cutoff, expsums, experiments, lattice, numtheory, reports
from .arcs import (
    ArcSystem,
    BumpLadder,
    FareyFraction,
    PieceSpec,
    bump_psi,
    bump_psi_hat,
    totatives,
)
from .coefficients import (
    CoefficientQuery,
    coefficient_decay_report,
    piece_coefficient,
    piece_coefficient_oracle,
    piece_sup_report,
)
from .cutoff import CutoffProfile, OperatorParams, average, cutoff_checks, paraboloid_kernel
from .expsums import gauss_bound_report, gauss_sum, multiplier
from .experiments import (
    box_extremizer_ratio,
    delta_extremizer_ratio,
    norm_l1_linf,
    norm_l2_l2,
    random_ascent_lower_bound,
    scaling_fit,
    sharp_threshold,
    two_bump_separation_probe,
)
from .lattice import LatticeFunction, box_indicator, convolve, delta, lp_norm, reflect, shift
from .numtheory import paraboloid_divisor_count, ramanujan_sum, truncated_divisor_count
from .reports import ExperimentReport

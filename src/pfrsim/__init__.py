"""Exact sampling over shared randomness with exponential-cost bounds.

A sender holding a target law P and a receiver sharing an i.i.d.
reference sequence from Q can agree on a sample from P by transmitting
a single index.  This package implements the Poisson-process selection
rule that achieves it, the exact law of the transmitted index, integer
code-length functions for encoding it, and matching lower/upper bounds
on the exponential (order-t) codeword cost and order-alpha entropy,
together with a brute-force verification suite and a CLI that exports
figure data as CSV/SVG.
"""

from .bounds import (
    BoundSet,
    c1,
    c2,
    default_alpha_grid,
    lb1,
    lb2,
    optimize_ub,
    sweep,
    sweep_to_csv,
    ub1,
    ub2,
    ub2_epsilon_max,
)
from .codes import (
    CampbellCost,
    LengthFunction,
    OneToOne,
    PowerLaw,
    Universal,
    campbell_cost,
    kraft_sum,
    length,
    lengths,
    renyi_entropy,
)
from .distributions import (
    Distribution,
    DistributionPair,
    Finite,
    Gaussian,
    Laplace,
    kl_divergence,
    parse_distribution,
    renyi_divergence,
)
from .errors import (
    AbsoluteContinuityError,
    DomainError,
    EpsilonRangeError,
    IndexOverflowError,
    IterationCapError,
    NegativeTailError,
    NonConvergenceError,
    NonFiniteError,
    OrderError,
    PfrsimError,
    TailTooHeavyWarning,
    UnsupportedKindError,
)
from .numerics import (
    QuadratureSpec,
    integrate,
    log2_sum_exp,
    log_gamma,
    minimize_scalar,
)
from .oracle import (
    CheckReport,
    GeometricMomentReport,
    LogMomentReport,
    MomentReport,
    run_suite,
    verify_geometric_moment,
    verify_lb_via_optimal_code,
    verify_log_moment,
    verify_moment_bounds,
)
from .pfr import (
    IndexPmf,
    PfrBatch,
    PfrOutcome,
    derive_stream,
    index_pmf,
    log_beta,
    run_pfr,
    run_pfr_many,
    sample_indices,
)

__version__ = "0.1.0"

"""Schur norms of radial kernels on homogeneous trees.

The Schur norm of a distance kernel phi(d(x, y)) on the degree-(q+1) tree is
computed from the trace norm of the Hankel matrix
h[i,j] = phi(i+j) - phi(i+j+2) (resolvent-transformed for finite q), and
cross-validated through spherical-function closed forms, explicit
factorization certificates on finite balls, a disc-integral criterion, and
the 2x2 p-adic lattice model of the tree.
"""

from .errors import (
    DivergentDiagonals,
    DivergentSeries,
    NoConvergence,
    NonFinite,
    NotPrime,
    OrbitEscapesBall,
    SizeCap,
    TreeSchurError,
    UndeclaredTail,
    ZeroDenominator,
)
from .spectral import as_cmatrix, trace_norm
from .symbols import (
    INF,
    FiniteSupport,
    Geometric,
    HankelMatrix,
    LacunarySupport,
    ParityDecomposition,
    RadialSymbol,
    SchurNormReport,
    Undeclared,
    apply_resolvent,
    build_hankel,
    constant_symbol,
    counterexample_block_lower_bound,
    explicit_symbol,
    extract_parity,
    hankel_tail_bound,
    lacunary_counterexample,
    ma_upper_bound,
    parity_symbol,
    power_symbol,
    scale_symbol,
    schur_norm,
)
from .spherical import (
    eigenvalue_from_z,
    ellipse_margin,
    hankel_product_sum,
    schur_norm_in_s,
    schur_norm_in_z,
    spherical_symbol,
    spherical_values,
    spherical_values_closed_form,
)
from .tree import (
    FactorizationCertificate,
    FiniteTreeBall,
    build_ball,
    build_certificate,
    deltaprime_gram,
    empirical_schur_lower_bound,
    reconstruction_max_error,
    smn_entry,
)
from .disc import (
    AnalyticDiscFunction,
    DiscMeasure,
    PolarQuadrature,
    coeff_hankel,
    difference_sequence,
    disc_l1_norm,
    g_from_symbol,
    gamma_coeffs,
    measure_bound,
    moments_from_g,
    optimal_measure,
    peller_sandwich,
)
from .padics import (
    PMatrix2,
    correspondence_check,
    lattice_distance,
    mautner_spherical,
)
from .corpus import trace_class_corpus
from .verify import run_suite

__version__ = "0.1.0"

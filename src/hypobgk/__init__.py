"""Certified decay rates for a linear BGK model with uncertain collisions.

The package turns a periodic linear BGK equation with an uncertain,
z-dependent collision frequency into a finite Fourier-Hermite mode
system, constructs Lyapunov certificates that guarantee exponential
decay of a twisted entropy uniformly over the uncertainty range, evolves
mode stacks and their z-sensitivities exactly in time, and checks the
observed decay against the certified envelopes.
"""

from __future__ import annotations

from .errors import (
    CertificateError,
    ConfigError,
    DataError,
    DomainError,
    HypoBGKError,
    InvalidModelError,
    NotCertifiableError,
    NumericError,
    UsageError,
)
from .spectral import (
    ModeLattice,
    OperatorSet,
    build_operators,
    gauss_hermite_halfweight,
    hermite_polynomials,
)
from .lyapunov import (
    ALPHA_CAP,
    TWIST_GAIN,
    Certificate,
    alpha_limit,
    alpha_max,
    certify,
    parse_alpha_strategy,
    rate_block,
    verify_grid,
)
from .state import CONSERVED_TOL, StateStack
from .models import (
    CollisionFrequencyModel,
    InitialDataSpec,
    affine_model,
    constant_model,
    polynomial_model,
    project_initial,
    random_stack,
    sigma_eval,
    taylor_bound,
    trig_model,
)
from .propagation import ExactPropagator, augmented_generator, propagate
from .analysis import (
    affine_derivative_envelope,
    affine_uniform_envelope,
    check_envelope,
    entropy_envelope,
    entropy_series,
    taylor_derivative_envelope,
)

__version__ = "0.1.0"

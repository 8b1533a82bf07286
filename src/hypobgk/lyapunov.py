"""Lyapunov transforms and certified decay rates for the mode generators.

The plain L2 norm of a mode coefficient vector is not monotone under
d/dt hhat_k = -C_k hhat_k: the relaxation part of C_k only damps the
coefficients beyond the conserved triple, and the streaming part is
skew.  Monotonicity is restored in a twisted inner product <x, P_k x>,
where P_k differs from the identity only in its leading 4 x 4 block

    [ 1        -i a/k    0         0      ]
    [ i a/k     1        -i b/k    0      ]
    [ 0         i b/k    1         -i c/k ]
    [ 0         0        i c/k     1      ],

with a = alpha, b = sqrt(2) alpha, c = sqrt(3) alpha.  The twist feeds
a little of the streaming coupling into the conserved directions, which
is exactly what makes them decay.  P_k is Hermitian with eigenvalues
1 and 1 +/- alpha*sqrt(3 +/- sqrt(6))/|k|, hence positive definite and
uniformly equivalent to the identity whenever alpha*sqrt(3+sqrt(6)) < 1.

For each mode the dissipation matrix C_k^* P_k + P_k C_k splits into a
5 x 5 corner block plus 2*sigma times the identity on the rest.  Sylvester
minors of that corner give a closed-form criterion: all of them are
positive exactly when alpha stays below an explicit threshold
alpha_limit(l, sigma).  The lower-right 3 x 3 minor is

    d3(k, alpha, sigma, l)
        = alpha (72 l^3 alpha^2 - (48 l^2 sigma + 6 sigma^3/k^2) alpha + 8 l sigma^2),

and the smallest certified dissipation-to-energy ratio over one sigma
interval yields the rate constants

    lambda_min = min_sigma  d3(1, alpha, sigma, l) / (4 (sigma - alpha l)^2),
    mu         = lambda_min / (2 (1 + alpha sqrt(3+sqrt(6)))),
    rate       = min(mu, sigma_min),

packaged in a Certificate.  Both minimizations over sigma are exact
and need no search: the paper's closed forms are single-peaked in sigma,
so each minimum over an interval is the smaller of its endpoint values.

  * alpha_limit.  Since 64 l^4 + 16 l^2 s^2 + s^4 = (s^2 + 8 l^2)^2, with
    u = sigma / l the threshold reads 8u / (3 (u^2 + 8 + u sqrt(u^2 + 16))).
    Up to the factor 3/8 its reciprocal has u-derivative
    1 - 8/u^2 + u/sqrt(u^2 + 16), which is strictly increasing from -inf
    to 2 and so has exactly one root: a single peak (alpha_max).
  * rate_block.  Its sigma-derivative is a positive multiple of
    -(sigma - 3 alpha l)(3 sigma^2 - 16 l^2).  The denominator above is
    at least 24, so alpha_limit(l, sigma) < sigma / (3 l): admissibility
    alone forces sigma > 3 alpha l, and the one remaining critical point
    sigma = 4 l / sqrt(3) is a maximum (lambda_min).

The certified matrix inequality

    S_k(sigma) = C_k^* P_k + P_k C_k - 2 mu P_k  >=  0   for every k != 0, M >= 5

is re-checked numerically by verify_grid, exactly and for any M, through
the same block structure.  P_k = I + u T with u = 1/k and the twist T
supported on the leading 4 x 4 block, so S_k(sigma) is affine in u:

    S_k(sigma) = A0 + u A1 + sigma (B0 + u B1),
    A0 = i l [T, STREAM] - 2 mu I,   A1 = -2 mu T,
    B0 = 2 RELAX,                    B1 = RELAX T + T RELAX,

four pieces that do not depend on k.  STREAM is tridiagonal and RELAX is
the identity beyond its third entry.  So the commutator [T, STREAM]
lives in the leading 5 x 5 block, RELAX T + T RELAX and T vanish beyond
it, and outside the 5 x 5 corner S_k(sigma) is the diagonal matrix
(2 sigma - 2 mu) I.  Its spectrum is the spectrum of the corner plus the
eigenvalue 2 sigma - 2 mu of multiplicity M - 5.  A0 and B0 are real and
sit on even offsets from the diagonal, A1 and B1 are purely imaginary and
sit on odd ones, so with D = diag(i^m) the matrix D^-1 S_k(sigma) D is
real symmetric (entry (p, q) times i^(q-p), exact), and u -> -u, the mode
-k, gives the complex conjugate of S_k(sigma).  verify_grid builds the
corner only and takes the tail in closed form, at a cost free of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, DomainError, NumericError, UsageError
from .spectral import MIN_HERMITE, OperatorSet, build_operators

__all__ = [
    "TWIST_GAIN",
    "ALPHA_CAP",
    "Certificate",
    "alpha_limit",
    "alpha_max",
    "rate_block",
    "parse_alpha_strategy",
    "certify",
    "verify_grid",
]

# Largest twist eigenvalue offset: spec(P_k) = 1 +/- alpha*sqrt(3+-sqrt(6))/|k|.
TWIST_GAIN = math.sqrt(3.0 + math.sqrt(6.0))

# Hard admissibility cap: keep 1 - alpha*TWIST_GAIN >= 0.01 so the twisted
# and plain norms never degenerate, whatever the sigma interval allows.
ALPHA_CAP = 0.99 / TWIST_GAIN

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Side of the corner block of the inequality matrix; beyond it the matrix
# is diagonal.  The certified estimates close on the first MIN_HERMITE
# Hermite coefficients.
_CORNER = MIN_HERMITE

_I_POWERS = np.array([1, 1j, -1, -1j])     # i^m for m mod 4


@dataclass(frozen=True)
class Certificate:
    """Decay-rate certificate for one period and collision-frequency range.

    lambda_min already includes a multiplicative safety factor 1 - 1e-6.
    The minimum over sigma is exact (see the module docstring), so the
    factor only has to cover floating-point rounding in rate_block, a few
    ulps, and does so with a wide margin; mu and decay_rate derive from
    the safeguarded value, so the certified inequality holds with margin.
    """

    L: float
    l: float
    sigma_min: float
    sigma_max: float
    alpha: float
    alpha_max: float
    lambda_min: float
    mu: float
    decay_rate: float
    ctilde: float


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha and alpha * TWIST_GAIN < 1.0):
        raise CertificateError(
            f"twist parameter must satisfy 0 <= alpha < {1.0 / TWIST_GAIN:.6g}, "
            f"got alpha={alpha}"
        )


def _twist(alpha: float, M: int) -> np.ndarray:
    """The twist T = k (P_k - I) at size M, the same for every k.

    T is Hermitian and purely imaginary, with -i a, -i b, -i c on its
    first superdiagonal in the leading 4 x 4 block and zeros elsewhere.
    """
    T = np.zeros((M, M), dtype=complex)
    for row, c in enumerate((alpha, math.sqrt(2.0) * alpha, math.sqrt(3.0) * alpha)):
        T[row, row + 1] = -1j * c
        T[row + 1, row] = 1j * c
    return T


def alpha_limit(l, sigma):
    """Admissibility threshold for the twist at wavenumber spacing l.

    All Sylvester minors of the corner dissipation block are positive for
    0 < alpha < alpha_limit(l, sigma).  Evaluated in the rationalized form

        8 l sigma / (3 (sqrt(64 l^4 + 16 l^2 s^2 + s^4) + sqrt(16 l^2 s^2 + s^4)))

    which is free of the subtractive cancellation the naive expression
    suffers for small l.  Accepts scalar or array sigma.

    The first root is sigma^2 + 8 l^2, so with u = sigma / l

        alpha_limit = 8 u / (3 (u^2 + 8 + u sqrt(u^2 + 16))),

    a function of u alone.  The derivative of 3 (u^2 + 8 + u sqrt(u^2 + 16))
    / (8 u), the reciprocal, is (3/8) (1 - 8/u^2 + u/sqrt(u^2 + 16)).  Both
    u-dependent terms increase strictly, the bracket runs from -inf at
    u -> 0 to 2 at u -> inf, so it has exactly one root: alpha_limit has a
    single peak in sigma and no interior minimum on any interval.  The
    same denominator is at least 24, so alpha_limit(l, sigma) < sigma / (3 l).
    """
    sigma = np.asarray(sigma, dtype=float)
    if not (np.asarray(l) > 0).all() or not (sigma > 0).all():
        raise UsageError("alpha_limit needs l > 0 and sigma > 0")
    try:
        l4 = l**4
    except OverflowError:       # a float l above about 1.2e77
        raise CertificateError(
            f"wavenumber spacing l={l} is too large to certify; "
            f"the period L is too small") from None
    with np.errstate(over="ignore"):
        big = np.sqrt(64.0 * l4 + 16.0 * l**2 * sigma**2 + sigma**4)
        small = np.sqrt(16.0 * l**2 * sigma**2 + sigma**4)
    if not np.all(np.isfinite(big)):    # sigma**4 overflows above about 1.2e77
        raise CertificateError(
            f"collision frequency sigma={float(sigma.max())} is too large to "
            f"certify at l={l}")
    out = 8.0 * l * sigma / (3.0 * (big + small))
    return float(out) if out.ndim == 0 else out


def _golden_section_min(f, a: float, b: float, xatol: float = 1e-10):
    """Plain golden-section minimization on [a, b]; returns (x, f(x))."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xatol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def rate_block(l, alpha, sigma):
    """Certified dissipation rate of the k = 1 corner block.

        d3(1, alpha, sigma, l) / (4 (sigma - alpha l)^2)

    with d3 the lower-right 3 x 3 minor (module docstring).  The k = 1 block is the binding one: the only k-dependence of the
    minors is the -6 sigma^3 alpha / k^2 term, which hurts most at k = 1.

    Differentiating,

        d/dsigma rate_block = -alpha^2 (sigma - 3 alpha l)(3 sigma^2 - 16 l^2)
                              / (2 (sigma - alpha l)^3),

    whose denominator is positive wherever rate_block is defined.  The
    critical points are sigma = 3 alpha l and sigma = 4 l / sqrt(3).  The
    first is never admissible: alpha < alpha_limit(l, sigma) < sigma / (3 l)
    means sigma > 3 alpha l.  On the admissible sigma the derivative thus
    has the sign of 16 l^2 - 3 sigma^2, so rate_block rises to a single
    peak at 4 l / sqrt(3) and falls again, and its minimum over an
    interval is the smaller of its two endpoint values.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(alpha > 0.0) or not np.all(alpha < alpha_limit(l, sigma)):
        raise CertificateError(
            f"twist alpha={alpha} outside the admissible range (0, alpha_limit) "
            f"for l={l}"
        )
    if not np.all(sigma > alpha * l):
        raise CertificateError("rate_block needs sigma > alpha * l")
    out = _rate(l, alpha, sigma, *_rate_terms(l, sigma))
    return float(out) if out.ndim == 0 else out


def _rate_terms(l, sigma):
    """The terms of rate_block that do not depend on alpha: (c3, c1, c0) with

        rate_block = alpha (c3 alpha^2 - c1 alpha + c0) / (4 (sigma - alpha l)^2),

    c3 = 72 l^3, c1 = 48 l^2 sigma + 6 sigma^3 and c0 = 8 l sigma^2, the
    coefficients of d3 at k = 1.
    """
    return 72.0 * l**3, 48.0 * l**2 * sigma + 6.0 * sigma**3, 8.0 * l * sigma**2


def _rate(l, alpha, sigma, c3, c1, c0):
    """rate_block from its alpha-free terms, without its checks.

    Works on floats and on arrays alike and gives the same bits for both:
    alpha * alpha, not alpha ** 2, which on a float goes through pow.
    """
    d = sigma - alpha * l
    return alpha * (c3 * (alpha * alpha) - c1 * alpha + c0) / (4.0 * (d * d))


def _lambda_min_objective(l: float, sigma_min: float, sigma_max: float):
    """lambda_min(alpha), the minimum of rate_block(l, alpha, .) over the interval.

    rate_block is single-peaked in sigma (see its docstring), so the
    minimum is the smaller endpoint value.  The alpha-free terms of both
    endpoint values, and alpha_limit at both endpoints, are formed here
    once by rate_block's own numpy expressions.  The returned function
    then evaluates a float alpha in plain float arithmetic, with no numpy
    call, and returns the bits rate_block's array path gives.  It keeps
    rate_block's checks (0 < alpha < alpha_limit at both endpoints and
    sigma > alpha l) and raises CertificateError like it; also when the
    denominator underflows to zero, where numpy would give nan.
    """
    sigma = np.array([sigma_min, sigma_max])
    limit = float(alpha_limit(l, sigma).min())
    c3, c1, c0 = _rate_terms(l, sigma)
    (c1_lo, c1_hi), (c0_lo, c0_hi) = c1.tolist(), c0.tolist()

    def lambda_min(alpha: float) -> float:
        if not 0.0 < alpha < limit:
            raise CertificateError(
                f"twist alpha={alpha} outside the admissible range "
                f"(0, alpha_limit) for l={l}")
        if not sigma_min > alpha * l:
            raise CertificateError("rate_block needs sigma > alpha * l")
        try:
            return min(_rate(l, alpha, sigma_min, c3, c1_lo, c0_lo),
                       _rate(l, alpha, sigma_max, c3, c1_hi, c0_hi))
        except ZeroDivisionError:
            raise CertificateError(
                f"rate_block underflows at sigma_min={sigma_min}") from None

    return lambda_min


def parse_alpha_strategy(strategy) -> tuple[str, float]:
    """Check the form of an alpha strategy and split it into (kind, value).

    "optimize" gives ("optimize", nan); a number or "fixed:<x>" gives
    ("fixed", alpha) for a finite alpha; "fraction:<f>" gives
    ("fraction", f) for 0 < f < 1.  Strings may carry surrounding
    whitespace.  Anything else, booleans included, raises
    CertificateError.  Whether a fixed alpha is admissible depends on the
    sigma interval; certify checks that.
    """
    if isinstance(strategy, str):
        kind, colon, number = strategy.strip().partition(":")
        if kind == "optimize" and not colon:
            return "optimize", math.nan
        if not (colon and kind in ("fixed", "fraction")):
            raise CertificateError(f"unknown alpha strategy {strategy!r}")
        try:
            value = float(number)
        except ValueError:
            raise CertificateError(
                f"alpha strategy {strategy!r} does not end in a number") from None
    else:
        kind = "fixed"
        try:
            if isinstance(strategy, (bool, np.bool_)):
                raise TypeError
            value = float(strategy)
        except (TypeError, ValueError, OverflowError):
            raise CertificateError(
                f"alpha strategy must be a number or a strategy string, "
                f"got {strategy!r}") from None
    if kind == "fixed" and not math.isfinite(value):
        raise CertificateError(f"fixed alpha must be finite, got {value}")
    if kind == "fraction" and not 0.0 < value < 1.0:
        raise CertificateError(f"alpha fraction must lie in (0, 1), got {value}")
    return kind, value


def _resolve_alpha(strategy, amax: float, lambda_min) -> float:
    """Turn an alpha strategy into a concrete admissible value."""
    kind, value = parse_alpha_strategy(strategy)
    if kind == "optimize":
        def mu_of(a: float) -> float:
            return 0.5 * lambda_min(a) / (1.0 + a * TWIST_GAIN)

        # Coarse scan (including the exact midpoint) seeds a local
        # golden-section refinement; keep whichever is better.
        grid = [amax * j / 64.0 for j in range(1, 64)]
        vals = [mu_of(a) for a in grid]
        i = int(np.argmax(vals))
        a_ref, neg = _golden_section_min(lambda a: -mu_of(a), grid[max(i - 1, 0)],
                                         grid[min(i + 1, len(grid) - 1)], 1e-10)
        return a_ref if -neg >= vals[i] else grid[i]
    if kind == "fraction":
        return value * amax
    if not 0.0 < value < amax:
        raise CertificateError(
            f"fixed alpha={value} outside the admissible range (0, {amax:.6g})")
    return value


def alpha_max(l: float, sigma_min: float, sigma_max: float) -> float:
    """Largest twist admissible across a whole collision-frequency range.

    alpha_limit(l, .) has a single peak (see its docstring), so its
    minimum over [sigma_min, sigma_max] is the smaller endpoint value.
    The hard cap ALPHA_CAP keeps the twisted metric safely positive
    definite.
    """
    if not (0.0 < sigma_min <= sigma_max):
        raise UsageError(
            f"need 0 < sigma_min <= sigma_max, got [{sigma_min}, {sigma_max}]")
    if not (l > 0.0 and math.isfinite(l)):
        raise UsageError(f"wavenumber spacing must be positive, got l={l}")
    ends = alpha_limit(l, np.array([sigma_min, sigma_max]))
    return min(float(np.min(ends)), ALPHA_CAP)


def certify(L: float, sigma_min: float, sigma_max: float,
            alpha_strategy="optimize") -> Certificate:
    """Construct the decay certificate for period L and a sigma interval.

    alpha_strategy is either a number (use that alpha, which must lie
    strictly inside (0, alpha_max)), the string "fixed:<value>" or
    "fraction:<f>" (alpha = f * alpha_max), or "optimize" (default),
    which maximizes mu over the admissible interval by a coarse scan of
    63 alphas plus golden-section refinement; parse_alpha_strategy checks
    the form.  For each trial alpha, lambda_min is the exact minimum over
    sigma, the smaller endpoint value of rate_block (see its docstring).
    One objective serves the scan, the refinement and the final
    lambda_min: the alpha-free terms of both endpoint values are formed
    once per call, and each trial alpha then costs a dozen float
    operations and no numpy call, with the bits of rate_block's array
    path (see _lambda_min_objective).

    "fraction:<f>" is not monotone in the sigma interval for f above
    about 0.7: shrinking the interval raises alpha_max, which moves
    alpha = f * alpha_max towards the binding alpha_limit, where
    rate_block falls to 0.  For example certify(10.492766024157467,
    0.331125832853572, 6.298559556731489, "fraction:0.95") certifies a
    decay rate 12.5% larger than the same call on the sub-interval
    [0.331125832853572, 0.331125832853572].  A fixed alpha and
    "optimize" do not lose rate when the interval shrinks (up to
    rounding).
    """
    if not (L > 0.0 and math.isfinite(L)):
        raise CertificateError(f"period L must be positive and finite, got {L}")
    if not (0.0 < sigma_min <= sigma_max and math.isfinite(sigma_max)):
        raise CertificateError(
            f"need 0 < sigma_min <= sigma_max < inf, got [{sigma_min}, {sigma_max}]")
    l = 2.0 * math.pi / L
    amax = alpha_max(l, sigma_min, sigma_max)
    lambda_min = _lambda_min_objective(l, sigma_min, sigma_max)
    alpha = _resolve_alpha(alpha_strategy, amax, lambda_min)
    if not 0.0 < alpha < amax:
        raise CertificateError(
            f"resolved alpha={alpha} outside the admissible range (0, {amax:.6g})")
    lam_min = lambda_min(alpha) * (1.0 - 1e-6)
    if not lam_min > 0.0:
        raise CertificateError(
            f"certified block rate is not positive (lambda_min={lam_min})")
    mu = 0.5 * lam_min / (1.0 + alpha * TWIST_GAIN)
    return Certificate(
        L=L,
        l=l,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        alpha=alpha,
        alpha_max=amax,
        lambda_min=lam_min,
        mu=mu,
        decay_rate=min(mu, sigma_min),
        ctilde=math.sqrt((1.0 + alpha * TWIST_GAIN) / (1.0 - alpha * TWIST_GAIN)),
    )


def _inequality_pieces(l: float, alpha: float, mu: float,
                       ops: OperatorSet) -> tuple[np.ndarray, ...]:
    """(A0, A1, B0, B1) at size ops.M, the same for every k.

    With u = 1/k and P_k = I + u T (T the twist),

        C_k^* P_k + P_k C_k - 2 mu P_k = A0 + u A1 + sigma (B0 + u B1),
        A0 = i l [T, STREAM] - 2 mu I,   A1 = -2 mu T,
        B0 = 2 RELAX,                    B1 = RELAX T + T RELAX.
    """
    T = _twist(alpha, ops.M)
    S, R = ops.stream, ops.relax
    A0 = 1j * l * (T @ S - S @ T) - 2.0 * mu * np.eye(ops.M)
    return A0, -2.0 * mu * T, 2.0 * R, R @ T + T @ R


def verify_grid(cert: Certificate, k_values, sigma_values, M: int):
    """Minimum inequality eigenvalues and norms on a (k, sigma) grid.

    S_k(sigma) = A_k + sigma B_k is affine in u = 1/k: A_k = A0 + u A1 and
    B_k = B0 + u B1, with four pieces that do not depend on k (see
    _inequality_pieces).  Beyond its leading 5 x 5 corner S_k(sigma) is
    (2 sigma - 2 mu) I (module docstring), so the pieces are assembled at
    the corner size only, once per call, and turned to the real frame
    D = diag(i^m): entry (p, q) times i^(q-p), which is exact and keeps
    the spectrum and every entry's modulus.  There each piece must be
    exactly real, else a NumericError is raised; exact zeros stay exact
    under u * 0 and x + 0, so this covers A_k and B_k for every integer k.
    k = 0 is a DomainError, and a negative k is the mode -|k|.  A k or M
    that is not an integer (an integral float is one), an M below
    MIN_HERMITE and a sigma that is not finite and positive are
    UsageErrors.  The spectrum of S_k(sigma) is that of its real symmetric
    corner, from one batched eigensolve with one corner per k and
    distinct sigma (each solved on its own, so repeated sigmas change no
    bit), plus the tail eigenvalue 2 sigma - 2 mu in closed form when
    M > 5.  Nothing of size M is built, so the cost does not depend on M.
    Returns (mins, norms), both of shape (len(k), len(sigma)): the minimum
    eigenvalue and the max-norm of S_k(sigma) at each point, the norm the
    larger of the corner's and the tail's, which is the natural scale for
    an eigenvalue tolerance.

    For alpha > 0 the tail never binds: the corner's entry (3, 3) is
    2 sigma - 6 l alpha - 2 mu, below the tail, and its entry (4, 4) is
    2 sigma - 2 mu itself.  The tail is still included, so the result is
    the spectrum of the whole matrix, whatever alpha and mu hold.
    """
    ks = np.asarray(k_values, dtype=float)
    bad = ks[~(np.isfinite(ks) & (ks == np.round(ks)))]
    if len(bad):
        raise UsageError(f"mode numbers k must be integers, got k={bad[0]}")
    sigmas = np.asarray(sigma_values, dtype=float)
    if not np.all((sigmas > 0.0) & (sigmas < np.inf)):
        raise UsageError("collision frequencies must be positive and finite")
    try:
        whole = M == math.floor(M)
    except (TypeError, ValueError, OverflowError):  # not a number, nan, inf
        whole = False
    if not whole:
        raise UsageError(f"the number of Hermite terms must be an integer, got M={M}")
    if M < MIN_HERMITE:
        raise UsageError(f"need at least {MIN_HERMITE} Hermite terms, got M={M}")
    if np.any(ks == 0.0):
        raise DomainError("the certified inequality concerns modes k != 0 only")
    idx = np.arange(_CORNER)
    frame = _I_POWERS[np.subtract.outer(idx, idx) % 4].conj()   # i^(q-p)
    pieces = [mat * frame for mat in _inequality_pieces(
        cert.l, cert.alpha, cert.mu, build_operators(_CORNER))]
    if any(np.any(mat.imag) for mat in pieces):
        raise NumericError(
            f"the inequality matrix is not real in the frame diag(i^m) at M={M}")
    # rows: A0, A1, B0, B1; then A_k, B_k for every k
    corners = np.array([mat.real for mat in pieces])
    u = 1.0 / ks
    A, B = corners[0::2, None] + u[:, None, None] * corners[1::2, None]
    # each distinct sigma is solved once and scattered back to every point
    # holding it
    distinct, where = np.unique(sigmas, return_inverse=True)
    corner = A[:, None] + distinct[:, None, None] * B[:, None]
    mins = np.linalg.eigvalsh(corner)[..., 0]
    norms = np.abs(corner).max(axis=(-2, -1))
    if M > _CORNER:
        tail = -2.0 * cert.mu + distinct * 2.0
        mins, norms = np.minimum(mins, tail), np.maximum(norms, np.abs(tail))
    return mins[:, where], norms[:, where]

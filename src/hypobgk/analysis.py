"""Twisted entropy, certified decay envelopes, and envelope checking.

The twisted entropy of a derivative level n of a stack is the quadratic
form

    E_n = <hhat_0^(n), hhat_0^(n)>
          + 2 sum_{k=1..K} Re <hhat_k^(n), P_k hhat_k^(n)>,

the k = 0 term carrying the plain metric (its conserved components are
zero) and each k >= 1 term standing in for the conjugate pair (k, -k).
Because the certificate makes every mode dissipate at rate 2 mu in the
twisted metric, the base entropy obeys E_0(t) <= exp(-2 rate t) E_0(0)
with rate = min(mu, sigma_min).

No M x M transform is ever formed.  P_k - I has six nonzeros:
-i c_j / k at (j, j+1) and i c_j / k at (j+1, j) for j < 3, with
c = alpha (1, sqrt 2, sqrt 3).  So each mode costs O(M):

    x* P_k x = |x|^2 + (2/k) sum_{j<3} c_j Im(conj(x_j) x_{j+1}).

entropy_series evaluates this on whole arrays of stack data, such as
the (Z, K+1, N+1, M) data of a batch of z at one time, which is how the
command line consumes the propagation core sample by sample.

For the z-derivative levels the one-way coupling adds source terms, and
the square-root entropies e_n = sqrt(E_n) satisfy a Gronwall chain.
Two certified envelope families result:

  * affine sigma (sigma' = c1): with coupling cpl = |c1| ctilde,
        e_n(t) <= exp(-rate t) sum_i binom(n, i) (cpl t)^i e_{n-i}(0),
    and, when E_n(0) <= H^(2n) for all n, the uniform form
        e_n(t) <= exp(-rate t) (H + cpl t)^n.

  * Taylor-bounded sigma (|sigma^(n)/n!| < C): with chat = ctilde * C,
        e_n(t) <= exp(-rate t) H^n
                  + n! (1+H)^(n+1) min(exp(-rate t) (1 + chat t)^n,
                                       exp((chat - rate) t) 2^(n-1)).

ctilde = sqrt((1 + alpha T)/(1 - alpha T)) with T = sqrt(3 + sqrt(6))
bounds the relaxation projection in the twisted metric; it comes with
the certificate.  check_envelope compares an observed series against an
envelope series pointwise and reports ratios and a verdict; a
non-finite observation is a numeric failure, never a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .lyapunov import Certificate, _check_alpha

__all__ = [
    "DecayReport",
    "entropy_series",
    "entropy_envelope",
    "affine_derivative_envelope",
    "affine_uniform_envelope",
    "taylor_derivative_envelope",
    "gronwall_chain",
    "gronwall_cascade",
    "check_envelope",
]


@dataclass(frozen=True)
class DecayReport:
    """Observed-versus-envelope comparison for one derivative level."""

    times: np.ndarray
    level: int
    observed: np.ndarray
    envelope: np.ndarray
    ratio: np.ndarray
    max_ratio: float
    passed: bool


def _alpha_of(cert_or_alpha) -> float:
    if isinstance(cert_or_alpha, Certificate):
        return cert_or_alpha.alpha
    return float(cert_or_alpha)


def _twisted(coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Entropy of coefficient arrays coeffs[..., k, m], k = 0..K, in closed form."""
    _check_alpha(alpha)
    sq = coeffs.real ** 2 + coeffs.imag ** 2
    norms = sq.sum(axis=-1)                                   # (..., K+1)
    cross = (coeffs[..., 1:, :3].conj() * coeffs[..., 1:, 1:4]).imag
    c = alpha * np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)])
    k = np.arange(1, coeffs.shape[-2])
    modes = norms[..., 1:] + (2.0 / k) * (cross @ c)
    return norms[..., 0] + 2.0 * modes.sum(axis=-1)


def entropy_series(data: np.ndarray, level: int, cert_or_alpha) -> np.ndarray:
    """Entropies of one level of stack data data[..., k, n, m].

    For example the (Z, K+1, N+1, M) data of a batch of z at one time;
    the result has the shape of the leading axes.  Roundoff can leave a
    tiny negative value, which is clamped to 0.
    """
    X = data[..., level, :]
    return np.maximum(_twisted(X, _alpha_of(cert_or_alpha)), 0.0)


def entropy_envelope(initial_entropy: float, rate: float, times) -> np.ndarray:
    """Base decay envelope exp(-2 rate t) E(0)."""
    if initial_entropy < 0.0:
        raise UsageError(f"initial entropy must be >= 0, got {initial_entropy}")
    t = np.asarray(times, dtype=float)
    out = np.exp(-2.0 * rate * t) * initial_entropy
    return float(out) if out.ndim == 0 else out


def gronwall_chain(level: int, times, rate: float, coupling: float,
                   f_init) -> np.ndarray:
    """Envelope for a chain f_n' <= -rate f_n + coupling * n * f_{n-1}.

        f_n(t) <= exp(-rate t) sum_{i=0..n} binom(n, i) (coupling t)^i f_{n-i}(0)

    f_init lists the initial values by level, f_init[0] .. f_init[n];
    the bound is exact when the chain holds with equality.
    """
    if level < 0:
        raise UsageError(f"need level >= 0, got {level}")
    if coupling < 0.0:
        raise UsageError(f"coupling must be >= 0, got {coupling}")
    f0 = [float(v) for v in f_init]
    if len(f0) < level + 1:
        raise UsageError(
            f"need initial values for levels 0..{level}, got {len(f0)}")
    if any(v < 0.0 for v in f0):
        raise UsageError("initial chain values must be >= 0")
    t = np.asarray(times, dtype=float)
    acc = np.zeros_like(t)
    for i in range(level + 1):
        acc += math.comb(level, i) * (coupling * t) ** i * f0[level - i]
    out = np.exp(-rate * t) * acc
    return float(out) if out.ndim == 0 else out


def affine_derivative_envelope(level: int, times, cert_or_rate,
                               coupling: float, sqrt_init) -> np.ndarray:
    """Per-level envelope for affine sigma: the Gronwall chain applied to
    the square-root entropies, with coupling = |c1| * ctilde."""
    rate = cert_or_rate.decay_rate if isinstance(cert_or_rate, Certificate) \
        else float(cert_or_rate)
    return gronwall_chain(level, times, rate, coupling, sqrt_init)


def affine_uniform_envelope(level: int, times, cert_or_rate, coupling: float,
                            H: float) -> np.ndarray:
    """Uniform-seed form exp(-rate t) (H + coupling t)^level.

    Valid when the initial square-root entropies satisfy e_n(0) <= H^n
    for every n <= level (and e_0(0) <= 1)."""
    if level < 0 or H < 0.0 or coupling < 0.0:
        raise UsageError("need level >= 0, H >= 0 and coupling >= 0")
    rate = cert_or_rate.decay_rate if isinstance(cert_or_rate, Certificate) \
        else float(cert_or_rate)
    t = np.asarray(times, dtype=float)
    out = np.exp(-rate * t) * (H + coupling * t) ** level
    return float(out) if out.ndim == 0 else out


def _or_inf(f) -> float:
    """f(), or inf where it overflows the float range."""
    try:
        return f()
    except OverflowError:
        return math.inf


def gronwall_cascade(level: int, t: float, coupling: float,
                     H: float) -> tuple[float, float]:
    """Bounds for a cascade g_n' <= coupling * sum_{i<n} g_i, g_n(0) <= H^n/n!.

    Returns (exact_sum, relaxed):

        exact_sum = H^n/n! + (1+H)^(n+1)
                    sum_{j=1..n} (coupling t)^j / (j! (j-1)!) * (n-1)!/(n-j)!
        relaxed   = H^n/n! + (1+H)^(n+1) min((1 + coupling t)^n,
                                             exp(coupling t) 2^(n-1))

    with exact_sum <= relaxed.  Level 0 has no sources: both bounds are 1.
    """
    if level < 0 or H < 0.0 or coupling < 0.0 or t < 0.0:
        raise UsageError("need level >= 0, t >= 0, H >= 0 and coupling >= 0")
    if level == 0:
        return 1.0, 1.0
    n = level
    head = H**n / math.factorial(n)
    amp = (1.0 + H) ** (n + 1)
    tail = _or_inf(lambda: sum(
        (coupling * t) ** j
        / (math.factorial(j) * math.factorial(j - 1))
        * (math.factorial(n - 1) / math.factorial(n - j))
        for j in range(1, n + 1)
    ))
    exact = head + amp * tail
    # where one branch of the min overflows, the min is the other branch
    relaxed = head + amp * min(
        _or_inf(lambda: (1.0 + coupling * t) ** n),
        _or_inf(lambda: math.exp(coupling * t) * 2.0 ** (n - 1)),
    )
    return exact, relaxed


def taylor_derivative_envelope(level: int, times, cert_or_rate, chat: float,
                               H: float) -> np.ndarray:
    """Per-level envelope for Taylor-bounded sigma.

        exp(-rate t) H^n + n! (1+H)^(n+1) min(exp(-rate t) (1 + chat t)^n,
                                              exp((chat - rate) t) 2^(n-1))

    equal to exp(-rate t) n! times the relaxed cascade bound; valid when
    E_n(0) <= H^(2n) for all n <= level.  Level 0 reduces to exp(-rate t).
    """
    rate = cert_or_rate.decay_rate if isinstance(cert_or_rate, Certificate) \
        else float(cert_or_rate)
    t = np.asarray(times, dtype=float)
    flat = np.atleast_1d(t).astype(float)
    vals = np.array([
        math.exp(-rate * ti) * math.factorial(level)
        * gronwall_cascade(level, ti, chat, H)[1]
        for ti in flat
    ])
    return float(vals[0]) if t.ndim == 0 else vals


def check_envelope(times, observed, envelope, level: int = 0,
                   tol: float = 1e-8) -> DecayReport:
    """Compare an observed series against an envelope series.

    ratio = observed/envelope where the envelope is positive; a zero
    envelope forces the observation to be zero as well (ratio 0), and
    anything above it is an immediate violation (ratio inf).  The check
    passes when every ratio stays below 1 + tol.  A non-finite observation
    or a nan envelope raises NumericError: nan has no verdict.
    """
    t = np.asarray(times, dtype=float)
    obs = np.asarray(observed, dtype=float)
    env = np.asarray(envelope, dtype=float)
    if not (t.shape == obs.shape == env.shape) or t.ndim != 1:
        raise UsageError("times, observed and envelope must be equal-length 1-D")
    if not np.all(np.isfinite(obs)) or np.any(np.isnan(env)):
        raise NumericError(
            f"level {level}: a non-finite observation or a nan envelope "
            f"has no verdict")
    if np.any(obs < 0.0) or np.any(env < 0.0):
        raise UsageError("observed and envelope series must be >= 0")
    if tol <= 0.0:
        raise UsageError(f"tolerance must be positive, got {tol}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(env > 0.0, obs / np.where(env > 0.0, env, 1.0),
                         np.where(obs > 0.0, np.inf, 0.0))
    max_ratio = float(np.max(ratio)) if ratio.size else 0.0
    return DecayReport(
        times=t,
        level=level,
        observed=obs,
        envelope=env,
        ratio=ratio,
        max_ratio=max_ratio,
        passed=bool(max_ratio <= 1.0 + tol),
    )

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

entropy_series evaluates this in the real frame of the propagation
core.  Write x_m = i^m y_m and y = a + i b.  Then |x_m|^2 = |y_m|^2 and
conj(x_j) x_{j+1} = i conj(y_j) y_{j+1}, so

    Im(conj(x_j) x_{j+1}) = a_j a_{j+1} + b_j b_{j+1}:

the form is real on the (re, im) pairs of y, and no complex array is
needed.  entropy_series reads such pairs only, as propagate yields them
or as spectral.real_frame makes them from stack data.

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
                                       exp((chat - rate) t) 2^(n-1)),
    evaluated in log space, so it stays finite at any horizon.

ctilde = sqrt((1 + alpha T)/(1 - alpha T)) with T = sqrt(3 + sqrt(6))
bounds the relaxation projection in the twisted metric; it comes with
the certificate.  Each envelope depends only on the certificate and the
initial values, so it is one series over the time grid.  check_envelope
divides observed series, one row per z sample, by it and returns the
ratios; the caller forms the verdicts.  A non-finite observation is a
numeric failure, never a verdict.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, UsageError
from .lyapunov import _check_alpha

__all__ = [
    "entropy_series",
    "entropy_envelope",
    "affine_derivative_envelope",
    "affine_uniform_envelope",
    "taylor_derivative_envelope",
    "check_envelope",
]


# c / alpha = (1, sqrt 2, sqrt 3), each twice: once for a, once for b
_TWIST = np.repeat([1.0, math.sqrt(2.0), math.sqrt(3.0)], 2)


def _twisted(pairs: np.ndarray, alpha: float) -> np.ndarray:
    """Entropy of real-frame data in closed form.

    pairs[..., k, :] holds a_0, b_0, a_1, b_1, ... of mode k = 0..K, where
    y_m = a_m + i b_m.
    """
    _check_alpha(alpha)
    norms = np.einsum("...i,...i->...", pairs, pairs)          # (..., K+1)
    # sum_{j<3} c_j (a_j a_{j+1} + b_j b_{j+1})
    cross = (pairs[..., 1:, :6] * pairs[..., 1:, 2:8]) @ (alpha * _TWIST)
    k = np.arange(1, pairs.shape[-2])
    modes = norms[..., 1:] + (2.0 / k) * cross
    return norms[..., 0] + 2.0 * modes.sum(axis=-1)


def entropy_series(data: np.ndarray, level: int, alpha: float) -> np.ndarray:
    """Entropies of one level of real-frame data data[..., k, n, m, :].

    For example the (Z, K+1, N+1, M, 2) samples of a batch of z that
    propagate yields; the result has the shape of the leading axes.  Data
    that are not floats, or have fewer than four axes or a last axis other
    than 2, raise UsageError.  alpha is the twist of the certificate.
    Roundoff can leave a tiny negative value, which is clamped to 0.
    """
    data = np.asarray(data)
    if data.dtype.kind != "f" or data.ndim < 4 or data.shape[-1] != 2:
        raise UsageError(
            f"need real-frame pairs data[..., k, n, m, 2] of floats, got "
            f"{data.dtype} data of shape {data.shape}")
    Y = data[..., level, :, :]
    pairs = Y.reshape(Y.shape[:-2] + (-1,))
    return np.maximum(_twisted(pairs, alpha), 0.0)


def entropy_envelope(initial_entropy: float, rate: float, times) -> np.ndarray:
    """Base decay envelope exp(-2 rate t) E(0)."""
    if initial_entropy < 0.0:
        raise UsageError(f"initial entropy must be >= 0, got {initial_entropy}")
    return np.exp(-2.0 * rate * np.asarray(times, dtype=float)) * initial_entropy


def affine_derivative_envelope(level: int, times, rate: float,
                               coupling: float, sqrt_init) -> np.ndarray:
    """Per-level envelope for affine sigma: the Gronwall chain
    f_n' <= -rate f_n + coupling * n * f_{n-1} applied to the square-root
    entropies, with coupling = |c1| * ctilde.

        f_n(t) <= exp(-rate t) sum_{i=0..n} binom(n, i) (coupling t)^i f_{n-i}(0)

    sqrt_init lists the initial values by level, f_0(0) .. f_n(0); the
    bound is exact when the chain holds with equality.  Where the product
    is inf or nan, the sum is taken in log space instead.
    """
    if level < 0:
        raise UsageError(f"need level >= 0, got {level}")
    if coupling < 0.0:
        raise UsageError(f"coupling must be >= 0, got {coupling}")
    f0 = [float(v) for v in sqrt_init]
    if len(f0) < level + 1:
        raise UsageError(
            f"need initial values for levels 0..{level}, got {len(f0)}")
    if any(v < 0.0 for v in f0):
        raise UsageError("initial chain values must be >= 0")
    t = np.asarray(times, dtype=float)
    acc = np.zeros_like(t)
    with np.errstate(all="ignore"):
        for i in range(level + 1):
            acc += math.comb(level, i) * (coupling * t) ** i * f0[level - i]
        log_ct = np.log(coupling) + np.log(t)
        log_acc = np.logaddexp.reduce([
            np.log(math.comb(level, i) * f0[level - i]) + i * log_ct
            for i in range(level + 1)])
        env = np.exp(-rate * t) * acc
        return np.where(np.isfinite(env), env, np.exp(-rate * t + log_acc))[()]


def affine_uniform_envelope(level: int, times, rate: float, coupling: float,
                            H: float) -> np.ndarray:
    """Uniform-seed form exp(-rate t) (H + coupling t)^level.

    Valid when the initial square-root entropies satisfy e_n(0) <= H^n
    for every n <= level (and e_0(0) <= 1).  Where the product is inf or
    nan, the power is taken as n logaddexp(log H, log coupling + log t)."""
    if level < 0 or H < 0.0 or coupling < 0.0:
        raise UsageError("need level >= 0, H >= 0 and coupling >= 0")
    t = np.asarray(times, dtype=float)
    with np.errstate(all="ignore"):
        log_power = level * np.logaddexp(np.log(H), np.log(coupling) + np.log(t))
        env = np.exp(-rate * t) * (H + coupling * t) ** level
        return np.where(np.isfinite(env), env, np.exp(-rate * t + log_power))[()]


def taylor_derivative_envelope(level: int, times, rate: float, chat: float,
                               H: float) -> np.ndarray:
    """Per-level envelope for Taylor-bounded sigma.

        exp(-rate t) H^n + n! (1+H)^(n+1) min(exp(-rate t) (1 + chat t)^n,
                                              exp((chat - rate) t) 2^(n-1))

    that is exp(-rate t) n! times the relaxed bound of the cascade
    g_n' <= chat * sum_{i<n} g_i, g_n(0) <= H^n/n!; valid when
    E_n(0) <= H^(2n) for all n <= level.  Level 0 reduces to exp(-rate t).
    It is evaluated in log space, as

        exp(-rate t + logaddexp(n log H, log n! + (n+1) log(1+H)
                     + min(n log(1 + chat t), chat t + (n-1) log 2)))

    with one exponential at the end, so neither branch of the min
    overflows and at long horizons the envelope underflows to 0 where the
    product form would give inf * 0.
    """
    if level < 0 or H < 0.0 or chat < 0.0:
        raise UsageError("need level >= 0, H >= 0 and chat >= 0")
    t = np.asarray(times, dtype=float)
    n = level
    log_env = -rate * t
    if n > 0:
        with np.errstate(over="ignore"):
            ct = chat * t
        big = np.isinf(ct)
        log1p_ct = np.log1p(np.where(big, 0.0, ct))
        if np.any(big):     # log(1 + chat t) = log chat + log t there
            log1p_ct = np.where(big, math.log(chat)
                                + np.log(np.where(big, t, 1.0)), log1p_ct)
        branch = np.minimum(n * log1p_ct, ct + (n - 1) * math.log(2.0))
        head = n * math.log(H) if H > 0.0 else -math.inf
        log_env = log_env + np.logaddexp(
            head, math.log(math.factorial(n)) + (n + 1) * math.log1p(H)
            + branch)
    with np.errstate(over="ignore"):
        return np.exp(log_env)


def check_envelope(observed, envelope, level: int = 0) -> np.ndarray:
    """Ratios observed/envelope of series against one envelope series.

    observed has shape (..., T), for example one row per z sample, and
    envelope shape (T,).  A zero envelope forces the observation to be
    zero as well (ratio 0), and anything above it is an immediate
    violation (ratio inf).  A non-finite observation or a nan envelope
    raises NumericError: nan has no verdict.
    """
    obs = np.asarray(observed, dtype=float)
    env = np.asarray(envelope, dtype=float)
    if env.ndim != 1 or obs.shape[-1:] != env.shape:
        raise UsageError("observed must have shape (..., T) and envelope (T,)")
    if not np.all(np.isfinite(obs)) or np.any(np.isnan(env)):
        raise NumericError(
            f"level {level}: a non-finite observation or a nan envelope "
            f"has no verdict")
    if np.any(obs < 0.0) or np.any(env < 0.0):
        raise UsageError("observed and envelope series must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(env > 0.0, obs / np.where(env > 0.0, env, 1.0),
                        np.where(obs > 0.0, np.inf, 0.0))

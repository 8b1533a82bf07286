"""Fourier-Hermite spectral reduction of the linear BGK operator.

A perturbation h(x, v) that is L-periodic in x and square integrable
against the inverse Gaussian weight in v is expanded in the tensor basis
e^{i k l x} g_m(v) with l = 2*pi/L.  The velocity basis consists of the
Hermite functions

    g_m(v) = (2*pi * m!)^{-1/2} H_m(v) exp(-v^2/2),

where H_m is the probabilists' Hermite polynomial (H_0 = 1, H_1 = v,
H_{m+1} = v H_m - m H_{m-1}).  These are orthonormal in the weighted
inner product <f, g> = integral of f * conj(g) / M(v) dv with
M(v) = (2*pi)^{-1/2} exp(-v^2/2), and g_0 = M recovers the Maxwellian.

In this basis the BGK transport-relaxation generator acting on the k-th
spatial mode becomes the M x M matrix

    C_k = i k l * STREAM + sigma * RELAX,

where STREAM is the symmetric tridiagonal matrix of multiplication by v
(off-diagonal entries sqrt(m+1)) and RELAX is the diagonal projection
that vanishes on the first three coefficients (mass, momentum, energy
directions, which the collision operator leaves untouched) and is the
identity beyond them.  The evolution of the coefficient vector of mode k
is d/dt hhat_k = -C_k hhat_k; build_operators returns STREAM and RELAX
as their two bands.

Real frame.  With D = diag(i^m) over the Hermite index, D^-1 C_k D =
k l J + sigma RELAX is real, J having STREAM's band below its diagonal
and minus it above.  The package computes on the (re, im) pairs of
y = D^-1 x; real_frame and complex_frame turn stack data x into them and
back exactly, since a power of i only swaps a pair and flips signs.

Only modes k >= 0 are ever stored: the physical field is real, so the
coefficients of mode -k are the complex conjugates of those of mode +k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = [
    "ModeLattice",
    "build_operators",
    "complex_frame",
    "real_frame",
    "hermite_polynomials",
    "gauss_hermite_halfweight",
]

# Minimum number of Hermite coefficients.  The certified dissipation
# estimates close on the first five coefficients, so shorter expansions
# are rejected everywhere.
MIN_HERMITE = 5

I_POWERS = np.array([1, 1j, -1, -1j])      # i^m for m mod 4

# i^-r (a + i b) for r = 0..3 is (a, b), (b, -a), (-a, -b), (-b, a): the
# pair swapped for odd r, times these signs
_TURN_SIGN = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class ModeLattice:
    """Discretization sizes: K Fourier modes on [0, L], M Hermite terms."""

    K: int
    L: float
    M: int

    def __post_init__(self) -> None:
        if self.K < 0:
            raise UsageError(f"need K >= 0 Fourier modes, got K={self.K}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise UsageError(f"period L must be positive and finite, got L={self.L}")
        if self.M < MIN_HERMITE:
            raise UsageError(f"need at least {MIN_HERMITE} Hermite terms, got M={self.M}")

    @property
    def l(self) -> float:
        """Fundamental wavenumber 2*pi/L."""
        return 2.0 * math.pi / self.L


def build_operators(M: int) -> tuple[np.ndarray, np.ndarray]:
    """The streaming and relaxation matrices at size M, as their bands.

    Returns (off, r): STREAM[m, m+1] = STREAM[m+1, m] = off[m] = sqrt(m+1),
    zero elsewhere, and RELAX = diag(r), with zeros on the first three
    entries of r and ones after.
    """
    if M < MIN_HERMITE:
        raise UsageError(f"need at least {MIN_HERMITE} Hermite terms, got M={M}")
    off = np.sqrt(np.arange(1.0, M))
    r = np.ones(M)
    r[:3] = 0.0
    return off, r


def _turn(pairs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """pairs[..., m, :] times i^-r[m], as a new array of (re, im) pairs."""
    r = r % 4
    swapped = np.where((r % 2 == 1)[:, None], pairs[..., ::-1], pairs)
    return swapped * _TURN_SIGN[r]


def real_frame(x) -> np.ndarray:
    """The (re, im) pairs of D^-1 x, shape x.shape + (2,), where
    D = diag(i^m) over the last axis of x, the Hermite index."""
    x = np.asarray(x)
    return _turn(np.stack((x.real, x.imag), axis=-1), np.arange(x.shape[-1]))


def complex_frame(W) -> np.ndarray:
    """Stack data x = D y from the (re, im) pairs W[..., m, :] of y."""
    W = np.asarray(W, dtype=float)
    return _turn(W, -np.arange(W.shape[-2])).view(complex)[..., 0]


def hermite_polynomials(M: int, v: np.ndarray) -> np.ndarray:
    """Normalized Hermite polynomials H_m/sqrt(m!) on a grid, shape (M, len(v)).

    Uses the recurrence p_{m+1} = (v p_m - sqrt(m) p_{m-1}) / sqrt(m+1),
    which stays well scaled up to large m.
    """
    if M < 1:
        raise UsageError(f"need at least one basis term, got M={M}")
    v = np.asarray(v, dtype=float)
    p = np.empty((M, v.shape[0]))
    p[0] = 1.0
    if M > 1:
        p[1] = v
    for m in range(1, M - 1):
        p[m + 1] = (v * p[m] - math.sqrt(m) * p[m - 1]) / math.sqrt(m + 1)
    return p


def gauss_hermite_halfweight(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against exp(-v^2/2) on the line.

    Rescales the standard Gauss-Hermite rule (weight exp(-u^2)) by
    v = sqrt(2) u, so sum(w * p(v)) equals the integral of
    p(v) exp(-v^2/2) exactly for polynomials p of degree <= 2n - 1.
    """
    if n < 1:
        raise UsageError(f"quadrature order must be >= 1, got {n}")
    u, w = np.polynomial.hermite.hermgauss(n)
    return math.sqrt(2.0) * u, math.sqrt(2.0) * w


"""Reference implementations that the fast paths in the package replaced.

The dense-grid plus golden-section searches are what the certificate
and the polynomial range used before the minimizations over sigma and z
were made exact.  certify_array is certify with rate_block's array
expression evaluated for every trial alpha, the objective that the
float-arithmetic one in the package replaced.  step_matrix_reference is
an extended-precision exponential of the dense augmented generator, the
reference for the structured step-matrix kernel; real_frame_jets are
the jets of its rotated generator, and _jet_norm1 their dense 1-norms,
which the band sums of the step-jet build replaced.
build_transforms and entropy_dense are the dense M x M transforms and
the quadratic form the closed-form twisted entropy replaced, and
entropy_complex_frame the closed form on complex data that the
real-frame evaluation replaced.
dense_operators are STREAM and RELAX as dense M x M matrices, assembled
from the bands the package keeps, and assemble_generator is one mode's
generator C_k on its own, the diagonal block of augmented_generator.
inequality_matrix and verify_dense are the dense M x M check of the
certified inequality that the 5 x 5 corner decomposition in verify_grid
replaced, and twist and inequality_pieces the complex pieces of that
decomposition at any M, which verify_grid builds real and at the corner
only; build_reduced_block, the minors and the spectrum of P_k are
the paper's closed forms they are checked against.  evolve_reference
integrates the mode equations with classical RK4, an independent
cross-check of the exact exponential steps, and hermite_functions and
synthesize evaluate an expansion in the velocity basis.
gronwall_cascade is the scalar derivative cascade, with its exact sum
next to the relaxed bound, that taylor_derivative_envelope evaluates
over whole time grids.  Tests compare the package against them; nothing
in the package imports this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from hypobgk.errors import CertificateError, DomainError, NumericError, UsageError
from hypobgk.lyapunov import (ALPHA_CAP, TWIST_GAIN, Certificate, _check_alpha,
                              alpha_limit, alpha_max, rate_block)
from hypobgk.models import sigma_eval
from hypobgk.propagation import augmented_generator
from hypobgk.spectral import MIN_HERMITE, build_operators, hermite_polynomials

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, a: float, b: float, xatol: float = 1e-10):
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


def grid_refine_min(f, lo: float, hi: float, num: int, xatol: float = 1e-10):
    """Dense-grid scan followed by local golden-section refinement.

    f must accept array input.  Returns (argmin, min); the refinement can
    only improve on the best grid point, never lose it.
    """
    if hi == lo:
        return lo, float(f(np.asarray(lo)))
    xs = np.linspace(lo, hi, num)
    ys = np.asarray(f(xs), dtype=float)
    i = int(np.argmin(ys))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, num - 1)]
    x_ref, y_ref = golden_section_min(lambda x: float(f(np.asarray(x))), a, b, xatol)
    if ys[i] <= y_ref:
        return float(xs[i]), float(ys[i])
    return x_ref, y_ref


def lambda_min_search(l: float, alpha: float, sigma_min: float,
                      sigma_max: float, resolution: int = 10_000) -> float:
    """Minimum of rate_block(l, alpha, .) by grid plus golden refinement."""
    _, val = grid_refine_min(lambda s: rate_block(l, alpha, s),
                             sigma_min, sigma_max, resolution)
    return val


def alpha_max_search(l: float, sigma_min: float, sigma_max: float,
                     resolution: int = 10_000) -> float:
    """Minimum of alpha_limit(l, .) by grid plus golden refinement, capped."""
    _, sup = grid_refine_min(lambda s: alpha_limit(l, s),
                             sigma_min, sigma_max, resolution)
    return min(sup, ALPHA_CAP)


def optimized_mu_search(L: float, sigma_min: float, sigma_max: float,
                        resolution: int = 10_000) -> float:
    """mu of the "optimize" strategy, with every sigma minimum searched.

    Same coarse alpha scan and golden refinement as the package, and the
    same 1 - 1e-6 safety factor on lambda_min.
    """
    l = 2.0 * math.pi / L
    amax = alpha_max_search(l, sigma_min, sigma_max, resolution)

    def mu_of(a: float) -> float:
        lam = lambda_min_search(l, a, sigma_min, sigma_max, resolution)
        return 0.5 * lam / (1.0 + a * TWIST_GAIN)

    grid = amax * np.arange(1, 64) / 64.0
    vals = [mu_of(a) for a in grid]
    i = int(np.argmax(vals))
    a_ref, neg = golden_section_min(lambda a: -mu_of(a), grid[max(i - 1, 0)],
                                    grid[min(i + 1, len(grid) - 1)], 1e-10)
    alpha = float(a_ref) if -neg >= vals[i] else float(grid[i])
    lam_min = lambda_min_search(l, alpha, sigma_min, sigma_max,
                                resolution) * (1.0 - 1e-6)
    return 0.5 * lam_min / (1.0 + alpha * TWIST_GAIN)


def rate_block_array(l, alpha, sigma):
    """rate_block as d3(1, alpha, sigma, l) / (4 (sigma - alpha l)^2).

    The array expression the package evaluated for every trial alpha
    before its objective was reduced to float arithmetic, with the same
    admissibility checks.  d3 is minor_det3's expression at k = 1 with
    its powers written as the package's products (l2 = l*l, s2 =
    sigma*sigma) in the package's order: numpy's array powers round
    differently from Python's pow, and from one host to another.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(alpha > 0.0) or not np.all(alpha < alpha_limit(l, sigma)):
        raise CertificateError(f"twist alpha={alpha} outside (0, alpha_limit)")
    if not np.all(sigma > alpha * l):
        raise CertificateError("rate_block needs sigma > alpha * l")
    l2, s2 = l * l, sigma * sigma
    d3 = alpha * (72.0 * (l2 * l) * (alpha * alpha)
                  - (48.0 * l2 * sigma + 6.0 * (s2 * sigma)) * alpha
                  + 8.0 * l * s2)
    d = sigma - alpha * l
    return d3 / (4.0 * (d * d))


def lambda_min_array(l: float, alpha, sigma_min: float, sigma_max: float):
    """Smaller endpoint value of rate_block_array, per alpha of an array."""
    alpha = np.asarray(alpha, dtype=float)[..., None]
    return rate_block_array(l, alpha, np.array([sigma_min, sigma_max])).min(axis=-1)


def certify_array(L: float, sigma_min: float, sigma_max: float,
                  alpha_strategy="optimize") -> Certificate:
    """certify with every lambda_min taken from lambda_min_array.

    The "optimize" scan evaluates one array of 63 alphas, and each
    golden-section trial and the final lambda_min go through numpy too.
    Strategies: "optimize", "fraction:<f>" or a number.
    """
    if not (L > 0.0 and math.isfinite(L)):
        raise CertificateError(f"period L must be positive and finite, got {L}")
    if not (0.0 < sigma_min <= sigma_max and math.isfinite(sigma_max)):
        raise CertificateError("need 0 < sigma_min <= sigma_max < inf")
    l = 2.0 * math.pi / L
    amax = alpha_max(l, sigma_min, sigma_max)

    def mu_of(a):
        lam = lambda_min_array(l, a, sigma_min, sigma_max)
        return 0.5 * lam / (1.0 + a * TWIST_GAIN)

    if alpha_strategy == "optimize":
        grid = amax * np.arange(1, 64) / 64.0
        vals = mu_of(grid)
        i = int(np.argmax(vals))
        a_ref, neg = golden_section_min(lambda a: -float(mu_of(a)),
                                        grid[max(i - 1, 0)],
                                        grid[min(i + 1, len(grid) - 1)], 1e-10)
        alpha = float(a_ref) if -neg >= vals[i] else float(grid[i])
    elif isinstance(alpha_strategy, str):
        alpha = float(alpha_strategy[len("fraction:"):]) * amax
    else:
        alpha = float(alpha_strategy)
    if not 0.0 < alpha < amax:
        raise CertificateError(f"alpha={alpha} outside (0, {amax})")
    lam_min = float(lambda_min_array(l, alpha, sigma_min, sigma_max)) * (1.0 - 1e-6)
    if not lam_min > 0.0:
        raise CertificateError(f"lambda_min={lam_min} is not positive")
    mu = 0.5 * lam_min / (1.0 + alpha * TWIST_GAIN)
    return Certificate(
        L=L, l=l, sigma_min=sigma_min, sigma_max=sigma_max, alpha=alpha,
        alpha_max=amax, lambda_min=lam_min, mu=mu,
        decay_rate=min(mu, sigma_min),
        ctilde=math.sqrt((1.0 + alpha * TWIST_GAIN) / (1.0 - alpha * TWIST_GAIN)),
    )


def poly_extremes_search(coeffs, z_lo: float, z_hi: float,
                         resolution: int = 4097) -> tuple[float, float]:
    """Range of a polynomial on [z_lo, z_hi] by dense grid plus refinement."""
    coeffs = np.asarray(coeffs, dtype=float)
    poly = np.polynomial.polynomial
    if z_lo == z_hi:
        v = float(poly.polyval(z_lo, coeffs))
        return v, v
    _, lo = grid_refine_min(lambda z: poly.polyval(z, coeffs),
                            z_lo, z_hi, resolution, 1e-12)
    _, neg_hi = grid_refine_min(lambda z: -poly.polyval(z, coeffs),
                                z_lo, z_hi, resolution, 1e-12)
    return lo, -neg_hi


def expm_longdouble(A: np.ndarray) -> np.ndarray:
    """exp(A) of a real matrix by a Taylor series in np.longdouble.

    A is scaled by 2**-s to 1-norm <= 1/4; the series is summed until a
    term falls below a thousandth of the longdouble epsilon and the sum
    is squared s times.  The precision is extended only where long double
    is wider than double (80-bit x87 on x86-64 Linux).
    """
    A = np.asarray(A, dtype=np.longdouble)
    norm = float(np.abs(A).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.0 else 0
    X = A / np.longdouble(2.0) ** s
    E = np.eye(A.shape[0], dtype=np.longdouble)
    term = E.copy()
    tiny = np.finfo(np.longdouble).eps * 1e-3
    # np.dot, not @: about twice as fast on long double matrices
    for j in range(1, 100):
        term = np.dot(term, X) / j
        E += term
        if np.abs(term).max() <= tiny:
            break
    for _ in range(s):
        E = np.dot(E, E)
    return E


def _real_frame(k: int, l: float, sigma_derivs, M: int):
    """D^-1 G_k D of the dense augmented generator, with D = diag(i**m)
    over the Hermite index m, and the phases i^(p-q) that rotate back.

    The rotation multiplies entries by powers of i, which is exact, and
    the result is real.
    """
    G = augmented_generator(k, l, sigma_derivs, M)
    m = np.arange(G.shape[0]) % M
    phase = np.array([1, 1j, -1, -1j])[np.subtract.outer(m, m) % 4]
    real_frame = G * phase.conj()
    if np.any(real_frame.imag != 0.0):
        raise AssertionError("the rotated generator is not real")
    return real_frame.real, phase


def real_frame_jets(k: int, l: float, sigma_derivs, M: int) -> np.ndarray:
    """Jet (A_0..A_N) of the real-frame generator D^-1 G_k D, shape
    (N+1, M, M): its block (n, 0) is binom(n, n) A_n = A_n."""
    real_frame, _ = _real_frame(k, l, sigma_derivs, M)
    return real_frame[:, :M].reshape(-1, M, M)


def _jet_norm1(A: np.ndarray) -> np.ndarray:
    """1-norm of the dense block matrix each jet of the batch stands for.

    Block column m holds the blocks binom(m+i, i) A_i, i = 0..N-m.
    """
    n = A.shape[1]
    col = np.abs(A).sum(axis=2)
    return np.max([sum(math.comb(m + i, i) * col[:, i] for i in range(n - m))
                   .max(axis=-1) for m in range(n)], axis=0)


def step_matrix_reference(k: int, l: float, dt: float, sigma_derivs,
                          M: int) -> np.ndarray:
    """exp(-dt G_k) of the dense augmented generator, in extended precision.

    With D = diag(i**m) over the Hermite index m, D^-1 G_k D is real, so
    exp(-dt G_k) = D exp(-dt D^-1 G_k D) D^-1.  The real exponential is
    expm_longdouble; the rotations multiply entries by powers of i.
    """
    real_frame, phase = _real_frame(k, l, sigma_derivs, M)
    R = expm_longdouble(-np.longdouble(dt) * real_frame.astype(np.longdouble))
    return R.astype(float) * phase


def twist(alpha: float, M: int) -> np.ndarray:
    """The twist T = k (P_k - I) at size M, the same for every k.

    T is Hermitian and purely imaginary, with -i a, -i b, -i c on its
    first superdiagonal in the leading 4 x 4 block and zeros elsewhere.
    """
    T = np.zeros((M, M), dtype=complex)
    for row, c in enumerate((alpha, math.sqrt(2.0) * alpha, math.sqrt(3.0) * alpha)):
        T[row, row + 1] = -1j * c
        T[row + 1, row] = 1j * c
    return T


def build_transform(k: int, alpha: float, M: int) -> np.ndarray:
    """Dense twisted-metric matrix P_k at size M.  k must be a nonzero integer."""
    if k == 0:
        raise DomainError("the twisted metric is defined for modes k != 0 only")
    if M < MIN_HERMITE:
        raise UsageError(f"need at least {MIN_HERMITE} Hermite terms, got M={M}")
    _check_alpha(alpha)
    return np.eye(M, dtype=complex) + (1.0 / k) * twist(alpha, M)


@functools.lru_cache(maxsize=64)
def build_transforms(K: int, alpha: float, M: int) -> np.ndarray:
    """Stack [P_0 .. P_K] with P_0 = I; cached, returned read-only."""
    out = np.empty((K + 1, M, M), dtype=complex)
    out[0] = np.eye(M)
    for k in range(1, K + 1):
        out[k] = build_transform(k, alpha, M)
    out.flags.writeable = False
    return out


def entropy_dense(coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Twisted entropy of coeffs[t, k, m] by the dense forms x* P_k x."""
    X = np.asarray(coeffs)
    K, M = X.shape[1] - 1, X.shape[2]
    P = build_transforms(K, alpha, M)
    vals = np.einsum("tm,tm->t", X[:, 0].conj(), X[:, 0]).real
    for k in range(1, K + 1):
        vals = vals + 2.0 * np.einsum(
            "tm,mn,tn->t", X[:, k].conj(), P[k], X[:, k]).real
    return vals


def entropy_complex_frame(coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Twisted entropy of coeffs[..., k, m] by the closed form on complex data,

        |x|^2 + (2/k) sum_{j<3} c_j Im(conj(x_j) x_{j+1}),  c = alpha (1, sqrt 2, sqrt 3),

    summed over the modes with weight 2 for k >= 1.
    """
    _check_alpha(alpha)
    X = np.asarray(coeffs)
    norms = (X.real ** 2 + X.imag ** 2).sum(axis=-1)
    cross = (X[..., 1:, :3].conj() * X[..., 1:, 1:4]).imag
    c = alpha * np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)])
    k = np.arange(1, X.shape[-2])
    modes = norms[..., 1:] + (2.0 / k) * (cross @ c)
    return norms[..., 0] + 2.0 * modes.sum(axis=-1)


def transform_eigenvalues(k: int, alpha: float, M: int) -> np.ndarray:
    """Closed-form spectrum of P_k, sorted ascending."""
    if k == 0:
        raise DomainError("the twisted metric is defined for modes k != 0 only")
    _check_alpha(alpha)
    shift_out = alpha * math.sqrt(3.0 + math.sqrt(6.0)) / abs(k)
    shift_in = alpha * math.sqrt(3.0 - math.sqrt(6.0)) / abs(k)
    eigs = np.ones(M)
    eigs[0] = 1.0 - shift_out
    eigs[1] = 1.0 - shift_in
    eigs[-2] = 1.0 + shift_in
    eigs[-1] = 1.0 + shift_out
    return np.sort(eigs)


def transform_bounds(alpha: float) -> tuple[float, float]:
    """Uniform sandwich (lo, hi) with lo*I <= P_k <= hi*I over all k != 0."""
    _check_alpha(alpha)
    return 1.0 - alpha * TWIST_GAIN, 1.0 + alpha * TWIST_GAIN


def minor_det3(k, alpha, sigma, l):
    """Determinant of the lower-right 3x3 of the corner dissipation block.

        alpha (72 l^3 alpha^2 - (48 l^2 sigma + 6 sigma^3/k^2) alpha + 8 l sigma^2)

    Positive on 0 < alpha < alpha_limit(l, sigma) for every k >= 1; k may
    be math.inf to probe the high-frequency limit.
    """
    if np.any(np.asarray(k) == 0):
        raise DomainError("corner minors are defined for modes k != 0 only")
    k2 = np.asarray(k, dtype=float) ** 2
    out = alpha * (
        72.0 * l**3 * alpha**2
        - (48.0 * l**2 * sigma + 6.0 * sigma**3 / k2) * alpha
        + 8.0 * l * sigma**2
    )
    return float(out) if np.ndim(out) == 0 else out


def minor_det4(k, alpha, sigma, l):
    """Lower-right 4x4 minor: 2 alpha l times minor_det3."""
    return 2.0 * alpha * l * minor_det3(k, alpha, sigma, l)


def minor_det5(k, alpha, sigma, l):
    """Full 5x5 determinant: 4 alpha^2 l^2 times minor_det3."""
    return 4.0 * alpha**2 * l**2 * minor_det3(k, alpha, sigma, l)


def build_reduced_block(k, alpha: float, sigma: float, l: float) -> np.ndarray:
    """Corner 5x5 block of C_k^* P_k + P_k C_k.

    Beyond this block the dissipation matrix is exactly 2*sigma times the
    identity.  k may be math.inf for the high-frequency limit, where the
    sigma/k coupling disappears.
    """
    if k == 0:
        raise DomainError("the corner block is defined for modes k != 0 only")
    s3 = math.sqrt(3.0)
    D = np.zeros((5, 5), dtype=complex)
    D[0, 0] = D[1, 1] = D[2, 2] = 2.0 * l * alpha
    D[3, 3] = 2.0 * sigma - 6.0 * l * alpha
    D[4, 4] = 2.0 * sigma
    D[2, 3] = -1j * s3 * alpha * sigma / k
    D[3, 2] = 1j * s3 * alpha * sigma / k
    D[2, 4] = D[4, 2] = 2.0 * s3 * l * alpha
    return D


def dense_operators(M: int) -> tuple[np.ndarray, np.ndarray]:
    """(STREAM, RELAX) at size M as dense matrices, from their bands."""
    off, r = build_operators(M)
    return np.diag(off, 1) + np.diag(off, -1), np.diag(r)


def assemble_generator(k: int, l: float, sigma: float, M: int) -> np.ndarray:
    """Return C_k = i*k*l*stream + sigma*relax for one spatial mode at size M.

    sigma is the collision frequency at the evaluation point; it must be
    strictly positive.
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise UsageError(f"collision frequency must be positive, got sigma={sigma}")
    if not (l > 0.0 and math.isfinite(l)):
        raise UsageError(f"wavenumber spacing must be positive, got l={l}")
    stream, relax = dense_operators(M)
    return 1j * (k * l) * stream + sigma * relax


def inequality_matrix(k: int, l: float, sigma: float, cert, M: int) -> np.ndarray:
    """C_k^* P_k + P_k C_k - 2 mu P_k at size M, assembled densely."""
    if k == 0:
        raise DomainError("the certified inequality concerns modes k != 0 only")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise UsageError(f"collision frequency must be positive, got {sigma}")
    C = assemble_generator(k, l, sigma, M)
    P = build_transform(k, cert.alpha, M)
    return C.conj().T @ P + P @ C - 2.0 * cert.mu * P


def inequality_pieces(l: float, alpha: float, mu: float,
                      M: int) -> tuple[np.ndarray, ...]:
    """(A0, A1, B0, B1) at size M in the complex frame, the same for every k.

    With u = 1/k and P_k = I + u T (T the twist),

        C_k^* P_k + P_k C_k - 2 mu P_k = A0 + u A1 + sigma (B0 + u B1),
        A0 = i l [T, STREAM] - 2 mu I,   A1 = -2 mu T,
        B0 = 2 RELAX,                    B1 = RELAX T + T RELAX.
    """
    T = twist(alpha, M)
    S, R = dense_operators(M)
    A0 = 1j * l * (T @ S - S @ T) - 2.0 * mu * np.eye(M)
    return A0, -2.0 * mu * T, 2.0 * R, R @ T + T @ R


def verify_dense(k: int, l: float, sigma: float, cert, M: int) -> float:
    """Smallest eigenvalue of inequality_matrix by a dense M x M eigvalsh.

    Nonnegative (up to a tolerance of 1e-10 times the matrix max-norm)
    exactly when the certificate holds for this (k, sigma, M).  The mode
    -k gives the complex conjugate matrix, hence the same spectrum.
    """
    return float(np.linalg.eigvalsh(inequality_matrix(k, l, sigma, cert, M))[0])


def evolve_reference(state, dt: float, model, substeps: int = 1000):
    """One step of a StateStack by fixed-step classical RK4 on every mode."""
    if substeps < 1:
        raise UsageError(f"need substeps >= 1, got {substeps}")
    if dt < 0.0 or not math.isfinite(dt):
        raise UsageError(f"step size must be finite and >= 0, got dt={dt}")
    if dt == 0.0:
        return replace(state, data=state.data.copy())
    lattice = state.lattice
    sigma_derivs = [sigma_eval(model, state.z, i) for i in range(state.levels + 1)]
    h = dt / substeps
    out = np.empty_like(state.data)
    n_lvl = state.levels + 1
    for k in range(lattice.K + 1):
        A = -augmented_generator(k, lattice.l, sigma_derivs, lattice.M)
        y = state.data[k].reshape(-1).copy()
        for _ in range(substeps):
            k1 = A @ y
            k2 = A @ (y + 0.5 * h * k1)
            k3 = A @ (y + 0.5 * h * k2)
            k4 = A @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k] = y.reshape(n_lvl, lattice.M)
    if not np.all(np.isfinite(out.view(float))):
        raise NumericError("reference integrator produced non-finite values")
    return replace(state, t=state.t + dt, data=out)


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
    Python floats throughout, so math.exp and float ** are the references.
    """
    if level < 0 or H < 0.0 or coupling < 0.0 or t < 0.0:
        raise UsageError("need level >= 0, t >= 0, H >= 0 and coupling >= 0")
    if level == 0:
        return 1.0, 1.0
    n, t = level, float(t)
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


def hermite_functions(M: int, v: np.ndarray) -> np.ndarray:
    """Evaluate g_0..g_{M-1} on a velocity grid; returns shape (M, len(v))."""
    v = np.asarray(v, dtype=float)
    return hermite_polynomials(M, v) * ((2.0 * math.pi) ** -0.5 * np.exp(-0.5 * v * v))


def synthesize(coeffs, v: np.ndarray) -> np.ndarray:
    """Evaluate the velocity profile sum_m c_m g_m(v) on a grid."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1:
        raise UsageError("coefficient vector must be 1-D")
    return c @ hermite_functions(c.shape[0], np.asarray(v, dtype=float))

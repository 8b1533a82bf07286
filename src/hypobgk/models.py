"""Collision-frequency families over an uncertainty interval, plus initial data.

The collision frequency sigma is a smooth, strictly positive function of
one uncertainty variable z ranging over a closed interval.  Four
families are supported:

    constant     sigma(z) = s0
    affine       sigma(z) = s0 + c1 z
    trig         sigma(z) = s0 + eps sin(omega z)
    polynomial   sigma(z) = sum_j a_j z^j

Each model knows its exact derivative of any order, its range
[sigma_min, sigma_max] over the domain, and (when one exists) a uniform
Taylor-coefficient bound C with |sigma^(n)(z)/n!| < C for all n and z.
For the trig family such a bound exists only when omega <= 1; larger
frequencies make the derivative magnitudes eps*omega^n/n! unbounded in
n, and requesting the bound raises NotCertifiableError.

The module also turns initial-data descriptions into (K+1, N+1, M) stack
arrays: explicit coefficient lists, separable profiles (finite Fourier
sum in x times a polynomial-times-Gaussian velocity shape, projected by
Gauss-Hermite quadrature that is exact for such data), or seeded random
stacks for property sweeps.  Projection enforces the k = 0
normalization: depending on the chosen mode, offending conserved
components are either cleared or reported as an error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DomainError,
    InvalidModelError,
    NotCertifiableError,
    UsageError,
)
from .spectral import ModeLattice, gauss_hermite_halfweight, hermite_polynomials

__all__ = [
    "CollisionFrequencyModel",
    "constant_model",
    "affine_model",
    "trig_model",
    "polynomial_model",
    "sigma_eval",
    "taylor_bound",
    "InitialDataSpec",
    "random_stack",
    "project_initial",
]

_VARIANTS = ("constant", "affine", "trig", "polynomial")

# Relative head-room added to suprema so the certified bounds are strict.
_MARGIN = 1e-9

# Residual conserved components below this are cleared; larger ones are
# an error in "reject" mode.
_NORMALIZATION_TOL = 1e-10

_MOMENT_NAMES = ("density", "momentum", "energy")


def _compute_bounds(variant: str, params: tuple[float, ...],
                    z_lo: float, z_hi: float) -> tuple[float, float]:
    if variant == "constant":
        return params[0], params[0]
    if variant == "affine":
        s0, c1 = params
        ends = (s0 + c1 * z_lo, s0 + c1 * z_hi)
        return min(ends), max(ends)
    if variant == "trig":
        s0, eps, omega = params
        # endpoints plus interior critical points of sin(omega z); two
        # adjacent critical points are a maximum and a minimum, so once
        # the domain holds two the range is the full [s0 - |eps|, s0 + |eps|]
        candidates = [z_lo, z_hi]
        j_lo = math.floor((omega * z_lo - math.pi / 2.0) / math.pi)
        j_hi = math.ceil((omega * z_hi - math.pi / 2.0) / math.pi)
        for j in range(j_lo, j_hi + 1):
            zc = (math.pi / 2.0 + j * math.pi) / omega
            if z_lo <= zc <= z_hi:
                if len(candidates) == 3:
                    return s0 - abs(eps), s0 + abs(eps)
                candidates.append(zc)
        vals = [s0 + eps * math.sin(omega * zc) for zc in candidates]
        return min(vals), max(vals)
    # endpoints plus the critical points inside the domain
    candidates = [z_lo, z_hi, *_sign_changes(_polyder(params), z_lo, z_hi)]
    vals = np.array([_polyval(z, params) for z in candidates])
    return float(vals.min()), float(vals.max())


def _polyval(x: float, coeffs) -> float:
    """coeffs[0] + coeffs[1] x + ... by Horner's rule on Python floats:
    acc = c + acc x from the leading coefficient down, starting from
    coeffs[-1] + 0 x."""
    acc = coeffs[-1] + x * 0.0
    for c in coeffs[-2::-1]:
        acc = c + acc * x
    return acc


def _polyder(coeffs, n: int = 1) -> list[float]:
    """Coefficients of the n-th derivative of coeffs[0] + coeffs[1] x + ...

    Each derivative maps c to [j c[j] for j = 1..len(c)-1], in Python
    floats; n at least the length leaves [coeffs[0] * 0.0].
    """
    c = list(coeffs)
    if n >= len(c):
        return [c[0] * 0.0]
    for _ in range(n):
        c = [j * c[j] for j in range(1, len(c))]
    return c


def _sign_changes(c: list[float], lo: float, hi: float) -> list[float]:
    """Points of (lo, hi) where the polynomial c[0] + c[1] x + ... changes
    sign, to the last bit.

    Between consecutive sign changes of its derivative the polynomial is
    monotone, so each such piece holds at most one sign change, which
    bisection brackets between two adjacent floats; both are returned.
    Derivatives are walked in a loop, highest first.  Unlike companion-matrix
    roots this cannot lose a root to a tiny leading coefficient.  Before a
    derivative would overflow, its parent is scaled by a power of two,
    which keeps the sign changes and every bit of a finite chain.
    """
    chain = [c]
    while len(chain[-1]) >= 2:
        d = _polyder(chain[-1])
        if not all(map(math.isfinite, d)):
            e = math.frexp(max(map(abs, chain[-1])))[1]
            chain[-1] = [math.ldexp(v, -e) for v in chain[-1]]
            d = _polyder(chain[-1])
        chain.append(d)
    out: list[float] = []
    for p in reversed(chain[:-1]):
        breaks = [lo, *out, hi]
        out = []
        for a, b in zip(breaks, breaks[1:]):
            fa, fb = _polyval(a, p), _polyval(b, p)
            if fa == 0.0 or fb == 0.0 or (fa < 0.0) == (fb < 0.0):
                continue
            while a < 0.5 * (a + b) < b:
                mid = 0.5 * (a + b)
                fm = _polyval(mid, p)
                if fm == 0.0:
                    a = b = mid
                elif (fm < 0.0) == (fa < 0.0):
                    a, fa = mid, fm
                else:
                    b = mid
            out += [a, b]
    return out


@dataclass(frozen=True)
class CollisionFrequencyModel:
    """One collision-frequency family over a closed uncertainty interval."""

    variant: str
    params: tuple[float, ...]
    z_lo: float
    z_hi: float
    sigma_min: float = field(init=False)
    sigma_max: float = field(init=False)

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise InvalidModelError(
                f"unknown model variant {self.variant!r}; expected one of {_VARIANTS}")
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        expected = {"constant": 1, "affine": 2, "trig": 3}
        if self.variant in expected and len(params) != expected[self.variant]:
            raise InvalidModelError(
                f"{self.variant} model takes {expected[self.variant]} parameters, "
                f"got {len(params)}")
        if self.variant == "polynomial" and len(params) < 1:
            raise InvalidModelError("polynomial model needs at least one coefficient")
        if not all(math.isfinite(p) for p in params):
            raise InvalidModelError("model parameters must be finite")
        if self.variant == "trig" and params[2] <= 0.0:
            raise InvalidModelError(
                f"trig model needs omega > 0, got omega={params[2]}")
        if not (math.isfinite(self.z_lo) and math.isfinite(self.z_hi)
                and self.z_lo <= self.z_hi):
            raise InvalidModelError(
                f"invalid z domain [{self.z_lo}, {self.z_hi}]")
        lo, hi = _compute_bounds(self.variant, params, self.z_lo, self.z_hi)
        if not lo > 0.0:
            raise InvalidModelError(
                f"{self.variant} model with parameters {params}: collision "
                f"frequency must stay positive on the domain; "
                f"found minimum {lo:.6g}")
        object.__setattr__(self, "sigma_min", lo)
        object.__setattr__(self, "sigma_max", hi)


def constant_model(sigma0: float, z_domain=(-1.0, 1.0)) -> CollisionFrequencyModel:
    return CollisionFrequencyModel("constant", (sigma0,), z_domain[0], z_domain[1])


def affine_model(sigma0: float, c1: float,
                 z_domain=(-1.0, 1.0)) -> CollisionFrequencyModel:
    return CollisionFrequencyModel("affine", (sigma0, c1), z_domain[0], z_domain[1])


def trig_model(sigma0: float, eps: float, omega: float,
               z_domain=(-math.pi, math.pi)) -> CollisionFrequencyModel:
    return CollisionFrequencyModel("trig", (sigma0, eps, omega),
                                   z_domain[0], z_domain[1])


def polynomial_model(coeffs, z_domain=(-1.0, 1.0)) -> CollisionFrequencyModel:
    return CollisionFrequencyModel("polynomial", tuple(coeffs),
                                   z_domain[0], z_domain[1])


def sigma_eval(model: CollisionFrequencyModel, z: float, n: int = 0) -> float:
    """n-th z-derivative of the collision frequency at z (exact formulas)."""
    if n < 0:
        raise UsageError(f"derivative order must be >= 0, got n={n}")
    if not model.z_lo <= z <= model.z_hi:
        raise DomainError(
            f"z={z} outside the model domain [{model.z_lo}, {model.z_hi}]")
    if model.variant == "constant":
        return model.params[0] if n == 0 else 0.0
    if model.variant == "affine":
        s0, c1 = model.params
        if n == 0:
            return s0 + c1 * z
        return c1 if n == 1 else 0.0
    if model.variant == "trig":
        s0, eps, omega = model.params
        val = eps * omega**n * math.sin(omega * z + n * math.pi / 2.0)
        return s0 + val if n == 0 else val
    if n > len(model.params) - 1:
        return 0.0
    return float(_polyval(z, _polyder(model.params, n) if n else model.params))


def taylor_bound(model: CollisionFrequencyModel) -> float:
    """Uniform bound C with |sigma^(n)(z)/n!| < C for all n >= 0 and z.

    constant/affine: the zeroth and first coefficients are the only
    nonzero ones.  trig with omega <= 1: coefficient magnitudes
    |eps| omega^n / n! peak at n <= 1.  polynomial: bound each scaled
    derivative by its absolute-coefficient sum at the domain radius,
    whose powers are running products.  A 1e-9 relative margin keeps the
    inequality strict.  A bound that is not a finite float raises
    NotCertifiableError.
    """
    if model.variant == "constant":
        return model.params[0] * (1.0 + _MARGIN)
    if model.variant == "affine":
        return max(model.sigma_max, abs(model.params[1])) * (1.0 + _MARGIN)
    if model.variant == "trig":
        _, eps, omega = model.params
        if omega > 1.0:
            raise NotCertifiableError(
                f"the certified Taylor bound covers trig models with "
                f"omega <= 1 only, got omega={omega}; rescale z or lower omega")
        return max(model.sigma_max, abs(eps) * omega) * (1.0 + _MARGIN)
    radius = max(abs(model.z_lo), abs(model.z_hi))
    deg = len(model.params) - 1
    # radius^e as a running product, not pow: a correctly rounded product
    # has the same bits on every host, libm's pow need not; a power beyond
    # the float range is inf, and so is the bound
    powers = [1.0]
    for _ in range(deg):
        powers.append(powers[-1] * radius)
    # a zero coefficient adds only +0.0 to a sum, so it is skipped before
    # its binomial is formed (far beyond the float range at high degree)
    terms = [(j, abs(c)) for j, c in enumerate(model.params) if c]
    best = 0.0
    try:
        for n in range(deg + 1):
            # added in order: from Python 3.12 on, sum() of floats is
            # compensated and would give other bits than 3.10 and 3.11
            total = 0.0
            for j, c in terms:
                if j >= n:
                    total += c * math.comb(j, n) * powers[j - n]
            best = max(best, total)
    except OverflowError:       # math.comb(j, n) beyond the float range
        best = math.inf
    best *= 1.0 + _MARGIN
    if not math.isfinite(best):
        raise NotCertifiableError(
            f"the Taylor bound of this degree-{deg} polynomial is not finite")
    return best


@dataclass(frozen=True)
class InitialDataSpec:
    """Description of initial data, turned into a stack by project_initial.

    kind "coefficients": entries is a tuple of (level, k, m, value).
    kind "separable": fourier is a tuple of (k, value) coefficients of
        e^{i k l x}, velocity_poly the ascending coefficients of p(v) in
        the profile p(v) exp(-v^2/2); fills level 0 only.
    kind "random": seeded Gaussian stack, fill "all" or "level0".
    normalization: "enforce" clears the conserved k = 0 components,
        "reject" raises if any exceeds 1e-10 (smaller residues are
        cleared in both modes).
    """

    kind: str
    entries: tuple = ()
    fourier: tuple = ()
    velocity_poly: tuple = ()
    seed: int = 0
    scale: float = 1.0
    fill: str = "all"
    normalization: str = "enforce"

    def __post_init__(self) -> None:
        if self.kind not in ("coefficients", "separable", "random"):
            raise UsageError(f"unknown initial-data kind {self.kind!r}")
        if self.normalization not in ("enforce", "reject"):
            raise UsageError(
                f"normalization must be 'enforce' or 'reject', "
                f"got {self.normalization!r}")
        if self.kind == "separable" and len(self.velocity_poly) == 0:
            raise UsageError("separable initial data needs velocity_poly")
        if self.kind == "random" and self.fill not in ("all", "level0"):
            raise UsageError(f"unknown random fill mode {self.fill!r}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        for name, values in (("scale", [self.scale]),
                             ("velocity_poly", self.velocity_poly),
                             ("entries", [x[-1] for x in self.entries]),
                             ("fourier", [x[-1] for x in self.fourier])):
            if not all(cmath.isfinite(v) for v in values):
                raise UsageError(f"non-finite value in {name}")


def _apply_normalization(data: np.ndarray, mode: str) -> None:
    bad = np.abs(data[0, :, :3])
    if mode == "reject" and bad.max(initial=0.0) > _NORMALIZATION_TOL:
        n, m = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise DataError(
            f"initial data violates normalization: k=0 {_MOMENT_NAMES[m]} "
            f"component at derivative level {n} is {bad[n, m]:.3e} "
            f"(tolerance {_NORMALIZATION_TOL:g})")
    data[0, :, :3] = 0.0


def random_stack(lattice: ModeLattice, levels: int, rng: np.random.Generator,
                 scale: float = 1.0, fill: str = "all") -> np.ndarray:
    """Seeded complex Gaussian stack data with the k = 0 constraint applied.

    fill="all" randomizes every derivative level, fill="level0" only the
    underived field (higher levels start at zero, matching z-independent
    initial data).
    """
    if levels < 0:
        raise UsageError(f"need levels >= 0, got {levels}")
    if fill not in ("all", "level0"):
        raise UsageError(f"unknown fill mode {fill!r}")
    shape = (lattice.K + 1, levels + 1, lattice.M)
    data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if fill == "level0":
        data[:, 1:, :] = 0.0
    data[0, :, :3] = 0.0
    return data


def project_initial(spec: InitialDataSpec, lattice: ModeLattice,
                    levels: int = 0) -> np.ndarray:
    """The t = 0 stack data (K+1, levels+1, M) described by an InitialDataSpec.

    levels sets the number of stored derivative orders; data the spec
    does not determine starts at zero.  Non-finite data raise DataError.
    """
    if levels < 0:
        raise UsageError(f"need levels >= 0, got {levels}")
    K, M = lattice.K, lattice.M
    if spec.kind == "random":
        rng = np.random.default_rng(spec.seed)
        with np.errstate(over="ignore"):    # inf is reported below
            data = random_stack(lattice, levels, rng, spec.scale, spec.fill)
    else:
        data = np.zeros((K + 1, levels + 1, M), dtype=complex)
        if spec.kind == "coefficients":
            for entry in spec.entries:
                n, k, m, value = entry
                if not (0 <= n <= levels and 0 <= k <= K and 0 <= m < M):
                    raise UsageError(
                        f"coefficient entry (level={n}, k={k}, m={m}) outside "
                        f"the stack (levels<={levels}, K={K}, M={M})")
                data[k, n, m] = complex(value)
        else:
            poly = np.asarray(spec.velocity_poly, dtype=complex)
            # Quadrature exact for p(v) * basis polynomial of any stored order.
            nodes_needed = max(2 * M, (poly.shape[0] - 1 + M) // 2 + 1)
            v, w = gauss_hermite_halfweight(nodes_needed)
            basis = hermite_polynomials(M, v)
            pvals = np.polynomial.polynomial.polyval(v, poly)
            vel_coeffs = basis @ (w * pvals)
            for k, value in spec.fourier:
                k = int(k)
                if not 0 <= k <= K:
                    raise UsageError(
                        f"Fourier index k={k} outside the stored range 0..{K}")
                data[k, 0, :] += complex(value) * vel_coeffs
    _apply_normalization(data, spec.normalization)
    if not np.all(np.isfinite(data)):
        raise DataError("stack contains non-finite coefficients")
    return data

"""Exact-in-time propagation of mode stacks and their z-derivatives.

Differentiating the mode equation d/dt hhat_k = -C_k(z) hhat_k in the
uncertainty variable z gives a one-way coupled chain: writing h^(n) for
the n-th z-derivative field,

    d/dt hhat_k^(n) = -C_k hhat_k^(n)
                      - sum_{i=1..n} binom(n, i) sigma^(i)(z) RELAX hhat_k^(n-i).

Stacking the levels 0..N of one mode produces a block lower-triangular
generator G_k with C_k on the diagonal and binom(n, i) sigma^(i) RELAX on
the i-th sub-diagonal of blocks; the stack then solves the linear ODE
d/dt y = -G_k y, whose exact flow is the matrix exponential exp(-dt G_k).
augmented_generator builds G_k densely; it is the definition the step
matrices are tested against.

The step matrices are not computed from that dense matrix.  Two exact
identities reduce the work:

- Real frame.  With D = diag(i^m) over the Hermite index m,
  D^-1 (i k l STREAM) D = k l (lower - upper), the real antisymmetric
  tridiagonal part of STREAM, and RELAX is unchanged.  Every block of
  G~_k = D^-1 G_k D is real, and exp(-dt G_k) = D exp(-dt G~_k) D^-1:
  rotating back multiplies entry (p, q) by i^(p-q), which is exact.
- Jets.  Block (n, n-i) of G~_k is binom(n, i) A_i with A_0 = C~_k and
  A_i = sigma^(i) RELAX.  Matrices of this form, "jets" (A_0..A_N), are
  closed under products, which follow the Leibniz rule
  (XY)_d = sum_i binom(d, i) X_i Y_{d-i}.  A product costs
  (N+1)(N+2)/2 products of M x M blocks instead of one dense
  ((N+1) M)^3 product.

The step matrices come from the scaling-and-squaring method, run on
jets, in real arithmetic, in stacked numpy calls.  Each jet gets its own
scaling power s from the exact 1-norm of the dense matrix it stands for:
one s shared by the batch would over-scale the low modes and lose
accuracy in the extra squarings.  The approximant is the degree-25
Taylor polynomial for every number of levels, accurate to
double-precision backward error up to the 1-norm theta_25 = 2.43
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011, Table 3.1).  It
takes jet products only, so stepping makes no LAPACK call.

scipy.linalg.expm is not used on the real-frame matrix because its
real-dtype Pade evaluation is about 14 times less accurate than its
complex one on these matrices, an error the squarings then amplify.

Mode k = 0 does not stream: its real-frame generator is sigma RELAX, and
RELAX is diagonal with entries r_m in {0, 1}.  Its jets are therefore the
z-derivatives of exp(-dt sigma(z) r_m), in closed form for every N
(_mode0_diagonals), and mode 0 never enters the Taylor batch.

The generator does not depend on the step size, so its powers are built
once per run and shared by every step size of the run:

- Shared powers.  _generator_powers scales each jet G by 2^-e, exact, to
  a 1-norm in [1/2, 1), sorts the jets by their 1-norm and forms the six
  even powers G^2, G^4, ..., G^12 (six jet products, paid once per z
  slice).  At a step size dt the scaled argument is A = c G with one
  scalar c = -dt 2^(e-s) per jet, so A^k = c^k G^k, and every sum over
  the powers is a stacked coefficient product (_power_sums).  The
  Taylor polynomial is written T_25(A) = E1 + G O1 + G^12 (E2 + G O2),
  with E1, O1, E2 and O2 sums over the six powers, and takes three jet
  products per step size.  Every run, of one step size or many, builds
  its jets this way, so the bits of a jet do not depend on the other
  step sizes of its run.  The sort makes s nondecreasing for every dt,
  so each squaring acts on a suffix of the batch; the squarings
  alternate between the result and a spent buffer.
- Memory rule.  A run keeps G and its six powers of a z slice only while
  another step size still has to be built: a run of one step size keeps
  none, and a run of many drops them at its last new step size.  Within
  a build the Taylor sums fit in three arrays the size of the batch: the
  result, and a pair whose first half is the squarings' spare buffer and
  which is freed when _expm_powers returns.  A 15-step run at K = 16,
  M = 60, N = 2 peaks at 10.08 arrays the size of one slice's jets: G
  and its six powers, the three Taylor arrays and one level-sized
  temporary of a product, for the 16 modes k >= 1.

Everything steps through one z-batched core, propagate.  It takes the
stack data of a batch of z, shape (Z, K+1, N+1, M), and the sigma
derivative rows of those z, shape (Z, N+1), and yields the real-frame
data after each step:

- The step matrices stay jets.  For each distinct step size the core
  builds the real-frame jets of exp(-dt G_k) for every (z, k) pair at
  once and caches them per dt, shape (Z, K+1, N+1, M, M): (N+1) M^2
  reals per pair instead of ((N+1) M)^2 complex entries.  A run that
  brings no cache of its own drops the jets of a step size after the
  last step of that size, so a grid of distinct steps holds one set.
- The data stay in the real frame.  They are rotated once by
  D^-1 = diag(i^-m) and viewed as (re, im) column pairs, so a step is the
  Leibniz product y_d = sum_i binom(d, i) R_i x_{d-i} of the step jet
  with the data jet, on real M x 2 blocks.  propagate yields these
  real-frame samples, and the entropy reads them as they are (it has a
  closed form in that frame).  Only ExactPropagator rotates its sample
  back by D, and multiplying by powers of i is exact.
- The powers and the jets of one step size are built in slices of
  _BUILD_SLICE z rows (_StepJets), because the build temporaries grow
  with the batch: at K = 4, M = 20 a sweep peaked about 0.3 MiB higher
  per z row of a slice, and the build time did not change measurably.
  Every jet gets its own scaling power and its own place in the sort,
  so the slice size changes no bit of the result.

ExactPropagator steps one StateStack at one z through the same core and
caches the jets per dt across its calls.  step_matrix expands the cached
jets of one mode into the dense complex matrix exp(-dt G_k), for
inspection and tests; no stepping path uses dense step matrices.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import NumericError, UsageError
from .models import CollisionFrequencyModel, sigma_eval
from .spectral import ModeLattice, OperatorSet, assemble_generator, build_operators
from .state import StateStack

__all__ = [
    "augmented_generator",
    "ExactPropagator",
    "propagate",
]


def augmented_generator(k: int, l: float, sigma_derivs, ops: OperatorSet) -> np.ndarray:
    """Stacked generator G_k for derivative levels 0..N of one mode.

    sigma_derivs holds the derivatives sigma^(0)(z)..sigma^(N)(z); the
    result has shape ((N+1) M, (N+1) M).
    """
    sigma_derivs = [float(s) for s in sigma_derivs]
    if len(sigma_derivs) < 1:
        raise UsageError("need at least sigma itself in sigma_derivs")
    M = ops.M
    N = len(sigma_derivs) - 1
    C = assemble_generator(k, l, sigma_derivs[0], ops)
    G = np.zeros(((N + 1) * M, (N + 1) * M), dtype=complex)
    for n in range(N + 1):
        G[n * M:(n + 1) * M, n * M:(n + 1) * M] = C
        for i in range(1, n + 1):
            if sigma_derivs[i] != 0.0:
                G[n * M:(n + 1) * M, (n - i) * M:(n - i + 1) * M] = (
                    math.comb(n, i) * sigma_derivs[i] * ops.relax
                )
    return G


def _jet_mul(X: np.ndarray, Y: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Leibniz product (XY)_d = sum_i binom(d, i) X_i Y_{d-i} of jet batches.

    The level axis is third from last: X has shape (..., N+1, M, M) and
    Y (..., N+1, M, P), with equal batch shapes.
    """
    if out is None:
        out = np.empty(Y.shape[:-2] + X.shape[-2:-1] + Y.shape[-1:])
    for d in range(X.shape[-3]):
        acc = np.matmul(X[..., 0, :, :], Y[..., d, :, :], out=out[..., d, :, :])
        for i in range(1, d + 1):
            term = X[..., i, :, :] @ Y[..., d - i, :, :]
            if i < d:                   # binom(d, d) = 1
                term *= math.comb(d, i)
            acc += term
            del term                    # before the next product is allocated
    return out


def _jet_norm1(A: np.ndarray) -> np.ndarray:
    """1-norm of the dense block matrix each jet of the batch stands for.

    Block column m holds the blocks binom(m+i, i) A_i, i = 0..N-m.
    """
    n = A.shape[1]
    col = np.abs(A).sum(axis=2)
    return np.max([sum(math.comb(m + i, i) * col[:, i] for i in range(n - m))
                   .max(axis=-1) for m in range(n)], axis=0)


# Coefficients 1/k! of the degree-25 Taylor polynomial, and the 1-norm
# theta_25 up to which it meets double-precision backward error (Al-Mohy &
# Higham, SIAM J. Sci. Comput. 33(2), 2011, Table 3.1, u = 2^-53).
_TAYLOR25 = np.array([1.0 / math.factorial(k) for k in range(26)])
_THETA25 = 2.43
# Exponents k of the Taylor terms c^k / k! G^(2j+2) over the shared powers,
# for T_25(c G) = E1 + G O1 + G^12 (E2 + G O2): rows E1, O1, E2, O2.  E1
# and O1 also hold the terms 1 and c G, which need no power.
_TAYLOR_SUMS = np.arange(2, 14, 2) + np.array([[0], [1], [12], [13]])


def _generator_powers(stream: np.ndarray, rows: np.ndarray, relax: np.ndarray):
    """Real-frame generator jets of one z slice and their even powers.

    stream[k] is the streaming block of mode k in the real frame and
    rows[z] holds sigma^(0)..sigma^(N) at one z of the slice.

    Each jet G is scaled by 2^-e, exact, to a 1-norm in [1/2, 1), so no
    power can overflow; jets come sorted by their 1-norm.  Returns
    (order, norms, e, G, P): order[j] is the (z, k) row of jet j, norms
    and e the sorted 1-norms and exponents of the unscaled jets, and
    P[:, 0..5] the powers G^2, G^4, ..., G^12.
    """
    n, M = rows.shape[1], len(relax)
    part = rows[:, :, None, None, None]
    A = np.empty((len(rows), len(stream), n, M, M))
    A[:, :, 0] = stream + part[:, 0] * relax
    for i in range(1, n):
        A[:, :, i] = part[:, i] * relax
    A = A.reshape(-1, n, M, M)
    norms = _jet_norm1(A)
    if not np.all(np.isfinite(norms)):
        raise NumericError("step generator has non-finite entries")
    order = np.argsort(norms, kind="stable")
    norms = norms[order]
    _, e = np.frexp(norms)
    G = A[order]
    del A
    G *= np.ldexp(1.0, -e)[:, None, None, None]
    P = np.empty((len(G), 6) + G.shape[1:])
    _jet_mul(G, G, out=P[:, 0])                 # G^2
    _jet_mul(P[:, 0], P[:, 0], out=P[:, 1])     # G^4
    _jet_mul(P[:, 1], P[:, 0], out=P[:, 2])     # G^6
    for i in range(3):                          # G^8, G^10, G^12
        _jet_mul(P[:, 2], P[:, i], out=P[:, 3 + i])
    return order, norms, e, G, P


def _power_sums(P: np.ndarray, coef: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sums sum_j coef[:, r, j] G^(2j+2) over the shared powers, stacked.

    P holds the powers G^2..G^12 of _generator_powers and coef one row of
    six coefficients per sum and jet, shape (B, R, 6).  Returns the sums,
    shape (B, R, N+1, M, M), as one stacked matrix product, into out when
    it is given (contiguous).
    """
    B, _, n, M, _ = P.shape
    if out is None:
        out = np.empty((B, coef.shape[1], n, M, M))
    np.matmul(coef, P.reshape(B, 6, -1), out=out.reshape(B, coef.shape[1], -1))
    return out


def _taylor(G: np.ndarray, P: np.ndarray, c: np.ndarray):
    """T_25(A) at A = c G, and a spare buffer its shape.

    T_25 = E1 + G O1 + G^12 (E2 + G O2), the four sums from the shared
    powers (_power_sums): three jet products and no solve.  The
    temporaries fit in three arrays the size of the batch and one level
    of a product.
    """
    M = P.shape[-1]
    coef = _TAYLOR25[_TAYLOR_SUMS] * c[:, None, None] ** _TAYLOR_SUMS
    diag = np.arange(M)
    S = _power_sums(P, coef[:, 2:])             # E2, O2
    X = _jet_mul(G, S[:, 1])                    # G O2
    X += S[:, 0]
    _jet_mul(P[:, 5], X, out=S[:, 0])           # G^12 (E2 + G O2)
    _power_sums(P, coef[:, 1:2], out=X[:, None])
    X[:, 0, diag, diag] += c[:, None]           # O1
    _jet_mul(G, X, out=S[:, 1])                 # G O1
    S[:, 1] += S[:, 0]
    _power_sums(P, coef[:, :1], out=X[:, None])
    X[:, 0, diag, diag] += 1.0                  # E1
    X += S[:, 1]
    return X, S[:, 0]


def _expm_powers(powers, dt: float) -> np.ndarray:
    """exp(-dt G) of every jet of a slice, in the slice's sorted order.

    The degree-25 Taylor polynomial at A = -dt G / 2^s, with a scaling
    power s per jet, then s squarings.  A = c Gs with c = -dt 2^(e-s) and
    Gs the scaled jet, so its sums come from the shared powers of Gs.
    """
    _, norms, e, G, P = powers
    scaled = dt * norms
    if not np.all(np.isfinite(scaled)):
        raise NumericError("step generator has non-finite entries")
    # dt norm / theta = f 2**s with f < 1, so dt norm / 2**s < theta; the
    # norms are sorted, so s is too
    _, s = np.frexp(scaled / _THETA25)
    s = np.maximum(s, 0)
    out, spare = _taylor(G, P, np.ldexp(-dt, e - s))
    # the jets with s > j form a suffix of the batch; square it from R into
    # the spare buffer and swap, and move the jets whose last squaring is
    # done back into out
    R = out
    first = 0
    for j in range(int(s[-1])):
        done, first = first, int(np.searchsorted(s, j, side="right"))
        if R is not out:
            out[done:first] = R[done:first]
        _jet_mul(R[first:], R[first:], out=spare[first:])
        R, spare = spare, R
    if R is not out:
        out[first:] = R[first:]
    return out


def _mode0_diagonals(rows: np.ndarray, r: np.ndarray, dt: float) -> np.ndarray:
    """Diagonals of the jets of exp(-dt G_0) at every z, shape (Z, N+1, M).

    Mode 0 does not stream: its real-frame generator is sigma RELAX, and
    RELAX is diagonal with entries r_m in {0, 1}.  So the jets are the
    z-derivatives of f = exp(g), g = -dt sigma(z) r_m, and f' = g' f gives
    f_0 = exp(-dt sigma r_m) and
    f_d = -dt r_m sum_{i=1..d} binom(d-1, i-1) sigma^(i) f_{d-i}.
    """
    f = np.empty(rows.shape + r.shape)
    f[:, 0] = np.exp(np.multiply.outer(rows[:, 0], r) * -dt)
    for d in range(1, rows.shape[1]):
        acc = rows[:, 1, None] * f[:, d - 1]
        for i in range(2, d + 1):
            acc += math.comb(d - 1, i - 1) * rows[:, i, None] * f[:, d - i]
        f[:, d] = -dt * r * acc
    return f


# z rows per _generator_powers call; bounds the shared powers and the Taylor
# temporaries (see module doc)
_BUILD_SLICE = 2

_I_POWERS = np.array([1, 1j, -1, -1j])     # i^m for m mod 4


class _StepJets:
    """Builds the real-frame jets of exp(-dt G_k) of one run at any dt.

    sigma_rows[z] holds sigma^(0)..sigma^(N) at one z; a build at dt has
    shape (Z, len(ks), N+1, M, M).  Mode 0 comes in closed form
    (_mode0_diagonals), every other mode from the powers of its
    generator.  builds is the number of step sizes the run will build:
    the powers of each z slice are kept only while a later build will use
    them, so a run of one step size keeps none.
    """

    def __init__(self, ks, l: float, sigma_rows, ops: OperatorSet,
                 builds: int = 1):
        ks = np.asarray(ks, dtype=float)
        twist = np.tril(ops.stream) - np.triu(ops.stream)   # D^-1 (i STREAM) D
        self.zero = np.flatnonzero(ks == 0.0)
        self.modes = np.flatnonzero(ks != 0.0)
        self.stream = ks[self.modes, None, None] * l * twist
        self.rows = np.asarray(sigma_rows, dtype=float)
        self.relax = ops.relax
        self.builds = builds
        self.powers: dict[int, tuple] = {}

    def __call__(self, dt: float) -> np.ndarray:
        Z, n = self.rows.shape
        Kp, M = len(self.modes), len(self.relax)
        K1 = Kp + len(self.zero)
        self.builds -= 1
        out = None
        # a lattice of mode 0 alone has no batch to build
        for z0 in range(0, Z if Kp else 0, _BUILD_SLICE):
            powers = self.powers.pop(z0, None)
            if powers is None:
                powers = _generator_powers(
                    self.stream, self.rows[z0:z0 + _BUILD_SLICE], self.relax)
            if self.builds > 0:
                self.powers[z0] = powers
            R = _expm_powers(powers, dt)
            if out is None:     # after the first slice's temporaries are gone
                out = np.empty((Z, K1, n, M, M))
            order = powers[0]
            out[z0 + order // Kp, self.modes[order % Kp]] = R
        if out is None:
            out = np.empty((Z, K1, n, M, M))
        if len(self.zero):
            f = _mode0_diagonals(self.rows, np.diag(self.relax), dt)
            diag = np.arange(M)
            for k in self.zero:
                jet = out[:, k]
                jet[...] = 0.0
                jet[..., diag, diag] = f
        if not np.all(np.isfinite(out)):
            raise NumericError(
                f"matrix exponential produced non-finite entries at dt={dt}")
        return out


def _cached_jets(jets: dict, dt: float, build: _StepJets) -> np.ndarray:
    """Step jets at dt, from the cache or built into it."""
    R = jets.get(dt)
    if R is None:
        R = jets[dt] = build(dt)
    return R


def _dense_steps(R: np.ndarray) -> np.ndarray:
    """Complex step matrices exp(-dt G_k) from real-frame jets (B, N+1, M, M).

    Block (p, q) is binom(p, p-q) R_{p-q}, rotated back entry by entry:
    (p, q) times i^(p-q), which is exact.
    """
    B, n, M, _ = R.shape
    idx = np.arange(M)
    phase = _I_POWERS[np.subtract.outer(idx, idx) % 4]
    out = np.zeros((B, n * M, n * M), dtype=complex)
    for p in range(n):
        for q in range(p + 1):
            out[:, p * M:(p + 1) * M, q * M:(q + 1) * M] = \
                (math.comb(p, p - q) * R[:, p - q]) * phase
    return out


def propagate(data: np.ndarray, sigma_rows, l: float, ops: OperatorSet,
              dts, jets: dict | None = None):
    """Yield the real-frame data of a batch of z after each step dts[j].

    data[z, k, n, m] has shape (Z, K+1, N+1, M) and sigma_rows[z] holds
    sigma^(0)..sigma^(N) at that z.  Each sample has shape
    (Z, K+1, N+1, M, 2): the (re, im) column pairs of D^-1 x, where
    D = diag(i^m).  A zero step yields the previous sample again; the
    samples must not be written to.  jets caches the step jets per dt;
    pass a dict to keep them across calls.  Without one, the jets of a
    step size are dropped after its last step in dts.
    """
    dts = list(dts)
    last = None
    if jets is None:
        jets = {}
        last = {dt: j for j, dt in enumerate(dts)}
    Z, K1, n, M = data.shape
    build = _StepJets(range(K1), l, sigma_rows, ops,
                      len({dt for dt in dts if dt != 0.0 and dt not in jets}))
    # D^-1 x as (re, im) column pairs: blocks of shape (M, 2)
    W = (data * _I_POWERS[np.arange(M) % 4].conj()).view(float) \
        .reshape(Z, K1, n, M, 2)
    for j, dt in enumerate(dts):
        if dt < 0.0 or not math.isfinite(dt):
            raise UsageError(f"step size must be finite and >= 0, got dt={dt}")
        if dt != 0.0:
            W = _jet_mul(_cached_jets(jets, dt, build), W)
            if last is not None and last[dt] == j:
                del jets[dt]
        yield W


def _complex_frame(W: np.ndarray) -> np.ndarray:
    """Stack data x = D y of real-frame pairs W[..., m, :] of y, exactly."""
    return W.view(complex)[..., 0] * _I_POWERS[np.arange(W.shape[-2]) % 4]


class ExactPropagator:
    """Matrix-exponential stepper for all modes at one (model, z, N).

    A batch-of-one front end to propagate: step jets are cached per dt,
    so repeated steps of one size and several stacks sharing the same
    configuration pay for each exponential once.
    """

    def __init__(self, lattice: ModeLattice, model: CollisionFrequencyModel,
                 z: float, levels: int):
        if levels < 0:
            raise UsageError(f"need levels >= 0, got {levels}")
        self.lattice = lattice
        self.levels = levels
        self.z = z
        self.sigma_derivs = [sigma_eval(model, z, i) for i in range(levels + 1)]
        self.ops = build_operators(lattice.M)
        self._jets: dict[float, np.ndarray] = {}

    def step_matrix(self, k: int, dt: float) -> np.ndarray:
        """exp(-dt G_k), expanded from the cached jets of modes 0..K at dt."""
        K, l = self.lattice.K, self.lattice.l
        if 0 <= k <= K:
            build = _StepJets(range(K + 1), l, [self.sigma_derivs], self.ops)
            R = _cached_jets(self._jets, dt, build)
            return _dense_steps(R[0, k:k + 1])[0]
        build = _StepJets([k], l, [self.sigma_derivs], self.ops)
        return _dense_steps(build(dt)[0])[0]

    def evolve(self, state: StateStack, dt: float) -> StateStack:
        """Advance a stack by dt >= 0 with one exact step per mode."""
        self._check(state)
        W = next(propagate(state.data[None], [self.sigma_derivs],
                           self.lattice.l, self.ops, [dt], self._jets))[0]
        return replace(state, t=state.t + dt, data=_complex_frame(W))

    def _check(self, state: StateStack) -> None:
        if state.lattice != self.lattice:
            raise UsageError("state lattice does not match the propagator lattice")
        if state.levels != self.levels:
            raise UsageError(
                f"state holds N={state.levels} levels, propagator expects "
                f"{self.levels}")
        if state.z != self.z:
            raise UsageError(
                f"state is attached to z={state.z}, propagator to z={self.z}")


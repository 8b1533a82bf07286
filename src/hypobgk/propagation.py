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
  (XY)_d = sum_i binom(d, i) X_i Y_{d-i}, and under solves, which need
  the level-0 block and a forward recursion.  A product costs
  (N+1)(N+2)/2 products of M x M blocks instead of one dense
  ((N+1) M)^3 product.

The step matrices come from the scaling-and-squaring method with the
[13/13] Pade approximant (Higham, SIAM J. Matrix Anal. Appl. 26(4),
2005), run on jets, in real arithmetic, in stacked numpy calls.  Each jet
gets its own scaling power s from the exact 1-norm of the dense matrix
it stands for: one s shared by the batch would over-scale the low modes
and lose accuracy in the extra squarings.  scipy.linalg.expm is not used
on the real-frame matrix because its real-dtype Pade evaluation is about
14 times less accurate than its complex one on these matrices, an error
the squarings then amplify.

The generator does not depend on the step size, so its powers are built
once per run and shared by every step size of the run:

- Shared powers.  _generator_powers scales each jet G by 2^-e, exact, to
  a 1-norm in [1/2, 1), sorts the jets by their 1-norm and forms G^2,
  G^4 and G^6.  At a step size dt the scaled argument is A = c G with
  one scalar c = -dt 2^(e-s) per jet, so A^2 = c^2 G^2 and so on:
  _expm_powers forms the Pade sums U and V from the shared powers with
  per-jet coefficients (one stacked matrix product) and three jet
  products, where a build from scratch needs six.  The sort makes s
  nondecreasing for every dt, so each squaring acts on a suffix of the
  batch, in place.
- Memory rule.  A run keeps the powers of a z slice only while another
  step size still has to be built: a run of one step size keeps none,
  and a run of many drops them at its last new step size.
- One factorization.  The solve (V - U) R = V + U in the jet algebra
  inverts the level-0 block once; every level of the forward recursion
  then multiplies by that inverse: one LAPACK call instead of N+1.  With
  a single level (N = 0) the one call is an LU solve, which keeps the
  digits of strongly decayed entropies closer to exact.

Everything steps through one z-batched core, propagate.  It takes the
stack data of a batch of z, shape (Z, K+1, N+1, M), and the sigma
derivative rows of those z, shape (Z, N+1), and yields the stack data
after each step:

- The step matrices stay jets.  For each distinct step size the core
  builds the real-frame jets of exp(-dt G_k) for every (z, k) pair at
  once and caches them per dt, shape (Z, K+1, N+1, M, M): (N+1) M^2
  reals per pair instead of ((N+1) M)^2 complex entries.  A run that
  brings no cache of its own drops the jets of a step size after the
  last step of that size, so a grid of distinct steps holds one set.
- The data stay in the real frame.  They are rotated once by
  D^-1 = diag(i^-m) and viewed as (re, im) column pairs, so a step is the
  Leibniz product y_d = sum_i binom(d, i) R_i x_{d-i} of the step jet
  with the data jet, on real M x 2 blocks.  Each yielded sample is
  rotated back by D; multiplying by powers of i is exact.
- The powers and the jets of one step size are built in slices of
  _BUILD_SLICE z rows (_StepJets), because the Pade temporaries grow
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
    return out


def _jet_solve(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """R with P R = Q in the jet algebra, in place: Q becomes R.

    One inverse of the level-0 block serves every level of the forward
    recursion R_d = P_0^-1 (Q_d - sum_{i=1..d} binom(d, i) P_i R_{d-i}).
    A single level takes one LU solve instead: the same one LAPACK call,
    and backward stable, which multiplying by an inverse is not.
    """
    if Q.shape[1] == 1:
        Q[:, 0] = np.linalg.solve(P[:, 0], Q[:, 0])
        return Q
    inv0 = np.linalg.inv(P[:, 0])
    for d in range(Q.shape[1]):
        rhs = Q[:, d]
        for i in range(1, d + 1):
            rhs -= math.comb(d, i) * (P[:, i] @ Q[:, d - i])
        Q[:, d] = inv0 @ rhs
    return Q


def _jet_norm1(A: np.ndarray) -> np.ndarray:
    """1-norm of the dense block matrix each jet of the batch stands for.

    Block column m holds the blocks binom(m+i, i) A_i, i = 0..N-m.
    """
    n = A.shape[1]
    col = np.abs(A).sum(axis=2)
    return np.max([sum(math.comb(m + i, i) * col[:, i] for i in range(n - m))
                   .max(axis=-1) for m in range(n)], axis=0)


# Coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and the
# 1-norm theta_13 up to which it meets double-precision backward error
# (Higham 2005, Table 2.3).
_PADE13 = np.array([64764752532480000.0, 32382376266240000.0,
                    7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                    10559470521600.0, 670442572800.0, 33522128640.0,
                    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0])
_THETA13 = 5.371920351148152
# Exponents k of the Pade terms b_k c^k G^k over the powers (G^2, G^4,
# G^6): rows 0 and 1 are the sums that G^6 multiplies in U and V, rows 2
# and 3 the rest of U and V.  U's exponents are odd: they include the
# factor c of A = c G that U = A (...) puts in front.
_PADE_TERMS = np.array([[9, 11, 13], [8, 10, 12], [3, 5, 7], [2, 4, 6]])


def _generator_powers(stream: np.ndarray, rows: np.ndarray, relax: np.ndarray):
    """Real-frame generator jets of one z slice and their even powers.

    stream[k] is the streaming block of mode k in the real frame and
    rows[z] holds sigma^(0)..sigma^(N) at one z of the slice.

    Each jet G is scaled by 2^-e, exact, to a 1-norm in [1/2, 1), so no
    power can overflow; jets come sorted by their 1-norm.  Returns
    (order, norms, e, G, P): order[j] is the (z, k) row of jet j, norms
    and e the sorted 1-norms and exponents of the unscaled jets, and
    P[:, 0..2] the powers G^2, G^4, G^6.
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
    P = np.empty((len(G), 3) + G.shape[1:])
    _jet_mul(G, G, out=P[:, 0])
    _jet_mul(P[:, 0], P[:, 0], out=P[:, 1])
    _jet_mul(P[:, 1], P[:, 0], out=P[:, 2])
    return order, norms, e, G, P


def _expm_powers(powers, dt: float) -> np.ndarray:
    """exp(-dt G) of every jet of a slice, in the slice's sorted order.

    The [13/13] Pade approximant r(A) = (V - U)^-1 (V + U) at
    A = -dt G / 2^s, with a scaling power s per jet, then s squarings.
    A = c Gs with c = -dt 2^(e-s) and Gs the scaled jet, so every power
    of A is a scalar times a shared power of Gs (_generator_powers): U
    and V take three jet products per step size.
    """
    _, norms, e, G, P = powers
    scaled = dt * norms
    if not np.all(np.isfinite(scaled)):
        raise NumericError("step generator has non-finite entries")
    # dt norm / theta_13 = f 2**s with f < 1, so dt norm / 2**s < theta_13;
    # the norms are sorted, so s is too
    _, s = np.frexp(scaled / _THETA13)
    s = np.maximum(s, 0)
    c = np.ldexp(-dt, e - s)
    B, n, M, _ = G.shape
    cpow = c[:, None] ** np.arange(14)
    coef = _PADE13[_PADE_TERMS] * cpow[:, _PADE_TERMS]
    flat = P.reshape(B, 3, -1)
    # UV[:, 0] and UV[:, 1] start as the terms of U / Gs and V outside the
    # product with G^6; one inner sum at a time keeps temporaries small
    UV = np.matmul(coef[:, 2:], flat).reshape(B, 2, n, M, M)
    diag = np.arange(M)
    UV[:, 0, 0, diag, diag] += _PADE13[1] * c[:, None]
    UV[:, 1, 0, diag, diag] += _PADE13[0]
    for r in range(2):
        inner = np.matmul(coef[:, r:r + 1], flat).reshape(G.shape)
        UV[:, r] += _jet_mul(P[:, 2], inner)
    U = _jet_mul(G, UV[:, 0])
    V = UV[:, 1]
    np.subtract(V, U, out=UV[:, 0])     # V - U, into the spent buffer
    U += V                              # V + U
    R = _jet_solve(UV[:, 0], U)
    # squaring the jets with s > j is then squaring a suffix of the batch
    for j in range(int(s[-1])):
        first = int(np.searchsorted(s, j, side="right"))
        R[first:] = _jet_mul(R[first:], R[first:])
    return R


# z rows per _generator_powers call; bounds the Pade temporaries (see
# module doc)
_BUILD_SLICE = 2

_I_POWERS = np.array([1, 1j, -1, -1j])     # i^m for m mod 4


class _StepJets:
    """Builds the real-frame jets of exp(-dt G_k) of one run at any dt.

    sigma_rows[z] holds sigma^(0)..sigma^(N) at one z; a build at dt has
    shape (Z, len(ks), N+1, M, M).  builds is the number of step sizes
    the run will build: the powers of each z slice are kept only while a
    later build will use them, so a run of one step size keeps none.
    """

    def __init__(self, ks, l: float, sigma_rows, ops: OperatorSet,
                 builds: int = 1):
        twist = np.tril(ops.stream) - np.triu(ops.stream)   # D^-1 (i STREAM) D
        self.stream = np.asarray(ks, dtype=float)[:, None, None] * l * twist
        self.rows = np.asarray(sigma_rows, dtype=float)
        self.relax = ops.relax
        self.builds = builds
        self.powers: dict[int, tuple] = {}

    def __call__(self, dt: float) -> np.ndarray:
        Z, n = self.rows.shape
        K1, M = len(self.stream), len(self.relax)
        self.builds -= 1
        out = None
        for z0 in range(0, Z, _BUILD_SLICE):
            powers = self.powers.pop(z0, None)
            if powers is None:
                powers = _generator_powers(
                    self.stream, self.rows[z0:z0 + _BUILD_SLICE], self.relax)
            if self.builds > 0:
                self.powers[z0] = powers
            R = _expm_powers(powers, dt)
            if out is None:     # after the first slice's temporaries are gone
                out = np.empty((Z, K1, n, M, M))
                flat = out.reshape(Z * K1, n, M, M)
            flat[z0 * K1:z0 * K1 + len(R)][powers[0]] = R
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
    """Yield the stack data of a batch of z after each step of size dts[j].

    data[z, k, n, m] has shape (Z, K+1, N+1, M) and sigma_rows[z] holds
    sigma^(0)..sigma^(N) at that z.  jets caches the step jets per dt;
    pass a dict to keep them across calls.  Without one, the jets of a
    step size are dropped after its last step in dts.  Each yielded array
    is new.
    """
    dts = list(dts)
    last = None
    if jets is None:
        jets = {}
        last = {dt: j for j, dt in enumerate(dts)}
    Z, K1, n, M = data.shape
    build = _StepJets(range(K1), l, sigma_rows, ops,
                      len({dt for dt in dts if dt != 0.0 and dt not in jets}))
    rotate = _I_POWERS[np.arange(M) % 4]
    # D^-1 x as (re, im) column pairs: blocks of shape (M, 2)
    W = (data * rotate.conj()).view(float).reshape(Z, K1, n, M, 2)
    for j, dt in enumerate(dts):
        if dt < 0.0 or not math.isfinite(dt):
            raise UsageError(f"step size must be finite and >= 0, got dt={dt}")
        if dt != 0.0:
            W = _jet_mul(_cached_jets(jets, dt, build), W)
            if last is not None and last[dt] == j:
                del jets[dt]
        yield W.reshape(Z, K1, n, 2 * M).view(complex) * rotate


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
        data = next(propagate(state.data[None], [self.sigma_derivs],
                              self.lattice.l, self.ops, [dt], self._jets))[0]
        return replace(state, t=state.t + dt, data=data)

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


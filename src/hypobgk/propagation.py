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

_expm_jets runs the scaling-and-squaring method with the [13/13] Pade
approximant (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005) on jets, in
real arithmetic, in stacked numpy calls.  Each jet gets its own scaling
power s from the exact 1-norm of the dense matrix it stands for: one s
shared by the batch would over-scale the low modes and lose accuracy in
the extra squarings.  scipy.linalg.expm is not used on the real-frame
matrix because its real-dtype Pade evaluation is about 14 times less
accurate than its complex one on these matrices, an error the squarings
then amplify.

Everything steps through one z-batched core, _propagate.  It takes the
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
- The jets of one step size are built in slices of _BUILD_SLICE z rows,
  because the Pade temporaries grow with the batch: two sweep threads at
  K = 4, M = 20 peaked about 0.3 MiB higher per z row of a slice (49 MiB
  with slices of 30 z, 39 MiB with 1), and the build time did not change
  measurably.  Every jet gets its own scaling power, so the slice size
  changes no bit of the result.

ExactPropagator (one z) and trajectory, evolve_exact are the batch-of-one
forms of the core; they cache jets per dt, so repeated steps of equal
size reuse them.  step_matrix expands the cached jets of one mode into
the dense complex matrix exp(-dt G_k), for inspection and tests; no
stepping path uses dense step matrices.
evolve_reference integrates the same ODE with a classical fixed-step
fourth-order Runge-Kutta scheme and serves purely as an independent
cross-check of the exponential path.
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
    "evolve_exact",
    "evolve_reference",
    "trajectory",
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


# Coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and the
# 1-norm theta_13 up to which it meets double-precision backward error
# (Higham 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _jet_mul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Leibniz product (XY)_d = sum_i binom(d, i) X_i Y_{d-i} of jet batches.

    The level axis is third from last: X has shape (..., N+1, M, M) and
    Y (..., N+1, M, P), with equal batch shapes.
    """
    out = np.empty(Y.shape[:-2] + X.shape[-2:-1] + Y.shape[-1:])
    for d in range(X.shape[-3]):
        acc = np.matmul(X[..., 0, :, :], Y[..., d, :, :], out=out[..., d, :, :])
        for i in range(1, d + 1):
            acc += math.comb(d, i) * (X[..., i, :, :] @ Y[..., d - i, :, :])
    return out


def _jet_solve(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """R with P R = Q in the jet algebra, by forward recursion over levels."""
    R = np.empty_like(Q)
    for d in range(Q.shape[1]):
        rhs = Q[:, d]
        for i in range(1, d + 1):
            rhs = rhs - math.comb(d, i) * (P[:, i] @ R[:, d - i])
        R[:, d] = np.linalg.solve(P[:, 0], rhs)
    return R


def _jet_norm1(A: np.ndarray) -> np.ndarray:
    """1-norm of the dense block matrix each jet of the batch stands for.

    Block column m holds the blocks binom(m+i, i) A_i, i = 0..N-m.
    """
    n = A.shape[1]
    col = np.abs(A).sum(axis=2)
    return np.max([sum(math.comb(m + i, i) * col[:, i] for i in range(n - m))
                   .max(axis=-1) for m in range(n)], axis=0)


def _expm_jets(A: np.ndarray) -> np.ndarray:
    """exp of every real jet in the batch A, with a scaling power per jet."""
    norms = _jet_norm1(A)
    if not np.all(np.isfinite(norms)):
        raise NumericError("step generator has non-finite entries")
    # norm / theta_13 = f 2**e with f < 1, so norm / 2**s < theta_13 for s >= e
    _, e = np.frexp(norms / _THETA13)
    s = np.maximum(e, 0)
    # squaring the jets with s_k > j is then squaring a suffix of the batch
    order = np.argsort(s, kind="stable")
    s = s[order]
    A = A[order] * np.ldexp(1.0, -s)[:, None, None, None]
    b = _PADE13
    ident = np.zeros_like(A[0])
    ident[0] = np.eye(A.shape[-1])
    A2 = _jet_mul(A, A)
    A4 = _jet_mul(A2, A2)
    A6 = _jet_mul(A4, A2)
    U = _jet_mul(A, _jet_mul(A6, b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (_jet_mul(A6, b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    R = _jet_solve(V - U, V + U)
    for j in range(int(s[-1])):
        first = int(np.searchsorted(s, j, side="right"))
        R[first:] = _jet_mul(R[first:], R[first:])
    out = np.empty_like(R)
    out[order] = R
    return out


# z rows per _expm_jets call; bounds the Pade temporaries (see module doc)
_BUILD_SLICE = 2

_I_POWERS = np.array([1, 1j, -1, -1j])     # i^m for m mod 4


def _step_jets(ks, l: float, dt: float, sigma_rows, ops: OperatorSet) -> np.ndarray:
    """Real-frame jets of exp(-dt G_k) for every z row and every k in ks.

    sigma_rows[z] holds sigma^(0)..sigma^(N) at one z; the result has
    shape (Z, len(ks), N+1, M, M).
    """
    rows = np.asarray(sigma_rows, dtype=float)
    Z, n = rows.shape
    M = ops.M
    twist = np.tril(ops.stream) - np.triu(ops.stream)   # D^-1 (i STREAM) D
    kl = np.asarray(ks, dtype=float)[:, None, None] * l
    out = np.empty((Z, len(kl), n, M, M))
    for z0 in range(0, Z, _BUILD_SLICE):
        part = rows[z0:z0 + _BUILD_SLICE, :, None, None, None]
        A = np.empty((len(part), len(kl), n, M, M))
        A[:, :, 0] = kl * twist + part[:, 0] * ops.relax
        for i in range(1, n):
            A[:, :, i] = part[:, i] * ops.relax
        out[z0:z0 + len(part)] = _expm_jets(
            -dt * A.reshape(-1, n, M, M)).reshape(A.shape)
    if not np.all(np.isfinite(out)):
        raise NumericError(
            f"matrix exponential produced non-finite entries at dt={dt}")
    return out


def _cached_jets(jets: dict, dt: float, l: float, sigma_rows,
                 ops: OperatorSet, K: int) -> np.ndarray:
    """Step jets of modes 0..K at dt, from the cache or built into it."""
    R = jets.get(dt)
    if R is None:
        R = jets[dt] = _step_jets(range(K + 1), l, dt, sigma_rows, ops)
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


def _propagate(data: np.ndarray, sigma_rows, l: float, ops: OperatorSet,
               dts, jets: dict | None = None):
    """Yield the stack data of a batch of z after each step of size dts[j].

    data[z, k, n, m] has shape (Z, K+1, N+1, M) and sigma_rows[z] holds
    sigma^(0)..sigma^(N) at that z.  jets caches the step jets per dt;
    pass a dict to keep them across calls.  Without one, the jets of a
    step size are dropped after its last step in dts.  Each yielded array
    is new.
    """
    last = None
    if jets is None:
        jets, dts = {}, list(dts)
        last = {dt: j for j, dt in enumerate(dts)}
    Z, K1, n, M = data.shape
    rotate = _I_POWERS[np.arange(M) % 4]
    # D^-1 x as (re, im) column pairs: blocks of shape (M, 2)
    W = (data * rotate.conj()).view(float).reshape(Z, K1, n, M, 2)
    for j, dt in enumerate(dts):
        if dt < 0.0 or not math.isfinite(dt):
            raise UsageError(f"step size must be finite and >= 0, got dt={dt}")
        if dt != 0.0:
            W = _jet_mul(_cached_jets(jets, dt, l, sigma_rows, ops, K1 - 1), W)
            if last is not None and last[dt] == j:
                del jets[dt]
        yield W.reshape(Z, K1, n, 2 * M).view(complex) * rotate


class ExactPropagator:
    """Matrix-exponential stepper for all modes at one (model, z, N).

    A batch-of-one front end to the z-batched core: step jets are cached
    per dt, so trajectories with repeated step sizes and multiple stacks
    sharing the same configuration pay for each exponential once.
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
            R = _cached_jets(self._jets, dt, l, [self.sigma_derivs], self.ops, K)
            return _dense_steps(R[0, k:k + 1])[0]
        return _dense_steps(_step_jets([k], l, dt, [self.sigma_derivs],
                                       self.ops)[0])[0]

    def _run(self, state: StateStack, dts):
        return _propagate(state.data[None], [self.sigma_derivs],
                          self.lattice.l, self.ops, dts, self._jets)

    def evolve(self, state: StateStack, dt: float) -> StateStack:
        """Advance a stack by dt >= 0 with one exact step per mode."""
        self._check(state)
        data = next(self._run(state, [dt]))[0]
        return replace(state, t=state.t + dt, data=data)

    def trajectory(self, state: StateStack, times) -> list[StateStack]:
        """Snapshots at the given nondecreasing times (all >= state.t)."""
        self._check(state)
        times = [float(t) for t in times]
        if any(not math.isfinite(t) for t in times):
            raise UsageError("sample times must be finite")
        if any(b < a for a, b in zip(times, times[1:])):
            raise UsageError("sample times must be nondecreasing")
        if times and times[0] < state.t:
            raise UsageError(
                f"first sample time {times[0]} lies before the state time {state.t}")
        # steps between consecutive sample times, never negative
        dts = np.diff(times, prepend=state.t)
        return [replace(state, t=t, data=data[0])
                for t, data in zip(times, self._run(state, dts))]

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


def evolve_exact(state: StateStack, dt: float,
                 model: CollisionFrequencyModel) -> StateStack:
    """One exact step of size dt for every stored mode."""
    prop = ExactPropagator(state.lattice, model, state.z, state.levels)
    return prop.evolve(state, dt)


def evolve_reference(state: StateStack, dt: float,
                     model: CollisionFrequencyModel,
                     substeps: int = 1000) -> StateStack:
    """Fixed-step classical RK4 integration; cross-check oracle only."""
    if substeps < 1:
        raise UsageError(f"need substeps >= 1, got {substeps}")
    if dt < 0.0 or not math.isfinite(dt):
        raise UsageError(f"step size must be finite and >= 0, got dt={dt}")
    if dt == 0.0:
        return replace(state, data=state.data.copy())
    lattice = state.lattice
    ops = build_operators(lattice.M)
    sigma_derivs = [sigma_eval(model, state.z, i) for i in range(state.levels + 1)]
    h = dt / substeps
    out = np.empty_like(state.data)
    n_lvl = state.levels + 1
    for k in range(lattice.K + 1):
        A = -augmented_generator(k, lattice.l, sigma_derivs, ops)
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


def trajectory(state: StateStack, times,
               model: CollisionFrequencyModel) -> list[StateStack]:
    """Exact snapshots at the given times; see ExactPropagator.trajectory."""
    prop = ExactPropagator(state.lattice, model, state.z, state.levels)
    return prop.trajectory(state, times)

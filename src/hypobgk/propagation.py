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
real arithmetic, for all modes of one step size in stacked numpy calls.
Each mode gets its own scaling power s_k from the exact 1-norm of the
dense matrix its jet stands for: one s shared by the batch would
over-scale the low modes and lose accuracy in the extra squarings.
scipy.linalg.expm is not used on the real-frame matrix because its
real-dtype Pade evaluation is about 14 times less accurate than its
complex one on these matrices, an error the squarings then amplify.

evolve_reference integrates the same ODE with a classical fixed-step
fourth-order Runge-Kutta scheme and serves purely as an independent
cross-check of the exponential path.  ExactPropagator caches the
per-mode step matrices, so repeated steps of equal size, and repeated
trajectories from the same (model, z), reuse them; a missed step size
builds the step matrices of all modes 0..K at once.
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

    Jet batches have shape (B, N+1, M, M): B jets of N+1 blocks each.
    """
    out = np.empty_like(X)
    for d in range(X.shape[1]):
        acc = np.matmul(X[:, 0], Y[:, d], out=out[:, d])
        for i in range(1, d + 1):
            acc += math.comb(d, i) * (X[:, i] @ Y[:, d - i])
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


def _step_matrices(ks, l: float, dt: float, sigma_derivs,
                   ops: OperatorSet) -> np.ndarray:
    """exp(-dt G_k) for every k in ks, shape (len(ks), (N+1) M, (N+1) M).

    Builds the real-frame jets of -dt G_k, exponentiates them with
    _expm_jets and rotates the result back to the complex frame.
    """
    M, n = ops.M, len(sigma_derivs)
    twist = np.tril(ops.stream) - np.triu(ops.stream)   # D^-1 (i STREAM) D
    kl = np.asarray(ks, dtype=float)[:, None, None] * l
    A = np.empty((len(kl), n, M, M))
    A[:, 0] = kl * twist + sigma_derivs[0] * ops.relax
    for i in range(1, n):
        A[:, i] = sigma_derivs[i] * ops.relax
    R = _expm_jets(-dt * A)
    idx = np.arange(M)
    phase = np.array([1, 1j, -1, -1j])[np.subtract.outer(idx, idx) % 4]
    out = np.zeros((len(kl), n * M, n * M), dtype=complex)
    for p in range(n):
        for q in range(p + 1):
            out[:, p * M:(p + 1) * M, q * M:(q + 1) * M] = \
                (math.comb(p, p - q) * R[:, p - q]) * phase
    if not np.all(np.isfinite(out.view(float))):
        raise NumericError(
            f"matrix exponential produced non-finite entries at dt={dt}")
    return out


class ExactPropagator:
    """Matrix-exponential stepper for all modes at one (model, z, N).

    Step matrices are cached per (k, dt), so trajectories with repeated
    step sizes and multiple stacks sharing the same configuration pay
    for each exponential once.
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
        self._steps: dict[tuple[int, float], np.ndarray] = {}

    def step_matrix(self, k: int, dt: float) -> np.ndarray:
        """exp(-dt G_k); a miss builds every stored mode 0..K at this dt."""
        cached = self._steps.get((k, dt))
        if cached is None:
            ks = range(self.lattice.K + 1) if 0 <= k <= self.lattice.K else [k]
            steps = _step_matrices(ks, self.lattice.l, dt, self.sigma_derivs,
                                   self.ops)
            for kk, step in zip(ks, steps):
                self._steps[(kk, dt)] = step
            cached = self._steps[(k, dt)]
        return cached

    def evolve(self, state: StateStack, dt: float) -> StateStack:
        """Advance a stack by dt >= 0 with one exact step per mode."""
        self._check(state)
        if dt < 0.0 or not math.isfinite(dt):
            raise UsageError(f"step size must be finite and >= 0, got dt={dt}")
        if dt == 0.0:
            return replace(state, data=state.data.copy())
        K, M = self.lattice.K, self.lattice.M
        n_lvl = self.levels + 1
        out = np.empty_like(state.data)
        for k in range(K + 1):
            step = self.step_matrix(k, dt)
            out[k] = (step @ state.data[k].reshape(-1)).reshape(n_lvl, M)
        return replace(state, t=state.t + dt, data=out)

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
        snaps = []
        current = state
        for t in times:
            current = self.evolve(current, t - current.t)
            snaps.append(current)
        return snaps

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

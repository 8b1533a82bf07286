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

- Real frame (spectral).  With D = diag(i^m), every block of
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

The generator does not depend on the step size, so _StepJets splits the
build of one run by how often each piece changes:

- Once per run.  The core takes STREAM and RELAX at the data's M as
  their bands: STREAM's off-diagonal off, which the real-frame
  twist holds below its diagonal and negated above it, and RELAX's
  diagonal r.  _band_norms sums every (z, k) jet's 1-norm from the bands
  and the sigma derivatives, each column in the order of a dense column
  sum, so every norm equals the 1-norm of the assembled jet bit for bit.
  All jets of the run are sorted by their norms once, with e the
  exponent that scales each jet by 2^-e, exact, to a 1-norm in [1/2, 1).
- Once per build.  A build (_StepJets._sorted) takes a step h per jet,
  one step size or the ladder's base steps (below): the scaling powers
  s, the scalars c = -h 2^(e-s) and the Taylor coefficients c^k / k!.
  Where h times a norm 2^e f overflows, h < 2^a bounds it by 2^(a+e),
  and s = a + e.
- Per chunk.  The sorted jets are cut into chunks of _BUILD_SLICE z
  rows' worth (_BUILD_SLICE times the modes k != 0).  _generator_powers
  writes a chunk's jets G from the bands, scales them and forms the six
  even powers G^2, G^4, ..., G^12 (six jet products).  At a step the
  scaled argument is A = c G, so A^k = c^k G^k, and every sum over the
  powers is a stacked coefficient product (_power_sums).  The Taylor
  polynomial is written T_25(A) = E1 + G O1 + G^12 (E2 + G O2), with E1,
  O1, E2 and O2 sums over the six powers, and takes three jet products
  per build (_taylor).  The sort makes s nondecreasing along each chunk,
  so each squaring acts on a suffix of it; the squarings alternate
  between the result and a spent buffer.

Every jet keeps its own e, its own s and its own place in the sort, and
the products act on each jet of a chunk alone, so the bits of a jet
depend neither on the other step sizes of its run nor on the chunk it
falls in.

Memory rule.  A build with keep holds each chunk's G and six powers for
the next build, and propagate passes keep to every build but its last
new step size's: a run of one step size, or a ladder run (one build,
rung 0), holds none after its build.  Within a build the Taylor sums fit
in three arrays the size of the chunk: the result, and a pair whose
first half is the squarings' spare buffer and which is freed when
_expm_powers returns.  A 15-step run at K = 16, M = 60, N = 2 (one
chunk) on the jets path peaks at 9.77 arrays the size of its jets: G
and its six powers, the three Taylor arrays and one level-sized
temporary of a product, for the 16 modes k >= 1 (on the ladder, which
such a run takes, at 9.95).  A run also holds a step size's jets from
its first step to its last, so repeating one after other step sizes
holds it through their builds: the same run with its sixth step size
repeated at the end peaks at 10.77 arrays.  The chunks bound the build
temporaries, which grow with the chunk: at K = 4, M = 20 a sweep peaked
about 0.3 MiB higher per z row of a chunk, while a chunk of the whole
30-row batch built only about a quarter faster.

Everything steps through one z-batched core, propagate.  It takes the
stack data of a batch of z, shape (Z, K+1, N+1, M), and the sigma
derivative rows of those z, shape (Z, N+1), and yields the real-frame
data after each step:

- The step matrices stay jets.  For each distinct step size the core
  builds the real-frame jets of exp(-dt G_k) for every (z, k) pair at
  once, shape (Z, K+1, N+1, M, M): (N+1) M^2 reals per pair instead of
  ((N+1) M)^2 complex entries.  It drops the jets of a step size after
  the last step of that size, so a grid of distinct steps holds one set.
- The data stay in the real frame.  real_frame rotates them once by
  D^-1 = diag(i^-m) into (re, im) column pairs, so a step is the
  Leibniz product y_d = sum_i binom(d, i) R_i x_{d-i} of the step jet
  with the data jet, on real M x 2 blocks.  propagate yields these
  real-frame samples, and the entropy reads them as they are (it has a
  closed form in that frame).  Only ExactPropagator rotates its sample
  back, by complex_frame; both rotations are exact.
- The powers and the jets of one step size are built chunk by chunk
  (_StepJets, above), and each chunk's jets are scattered to their
  (z, k) places.

The ladder.  A run uses each jet set once for a step size it takes once
(a log-spaced time grid takes every step size once), so building the
set is the whole cost of such a step.  A run whose step sizes are all
used once may instead apply the exponential to the data (_Ladder),
after Al-Mohy & Higham (2011), with one ladder of squarings per run in
place of per-step-size squarings:

- The base step.  Each (z, k != 0) jet, of 1-norm 2^e f with f in
  [1/2, 1), gets h = 2^(1-e), so h ||G|| = 2 f lies in [1, 2), inside
  theta_25.  L_0 = exp(-h G) is one build at the step h of each jet
  (_StepJets.base), where s = 0 and c = -2 exactly for every jet, so it
  takes no squaring.  The rungs L_i = exp(-2^i h G) = L_(i-1)^2 are
  squared once per run.
- A step.  dt = q h + r exactly, since h is a power of two: r is
  fmod(dt, h) and q = (dt - r) / h, an integer in floats (it can exceed
  2^63).  exp(-dt G) = exp(-r G) prod_{bits i of q} L_i, all functions of
  G, so the step applies the rungs of q's set bits to the data, then the
  degree-25 Taylor action of exp(-r G), with ||r G|| < 2.  That action
  (_Ladder._remainder) reads only G's bands, scaled by 2^-e like the
  jets: kl off below the diagonal and -(kl off) above it on every
  level, and the level mix binom(d, i) sigma^(i)(z) times diag(r).
  Mode 0 keeps its closed form.
- Depth.  q < dt / h, so a jet needs frexp(dt)[1] + e - 1 rungs for the
  largest dt (at least rung 0).  Depth grows with e, so it is
  nondecreasing along the sort, and rung i is held only for the suffix
  of the jets with more than i rungs, as the squarings of a build act on
  a suffix.
- Selection (_ladder).  The ladder is taken by every run whose nonzero
  step sizes are all distinct, at least two of them, with a moving mode
  (K >= 1), when the memory rule below passes.  Such a run steps only by
  the ladder, so it builds no step jets and holds no G or powers beside
  the rungs.  The ladder saves the squarings of every build but one, and
  pays about 25 generator actions per step.  With one BLAS thread and 15
  log-spaced steps it was faster with many z (30 z at K = 4, M = 8,
  N = 0: 23 ms by jets, 14 ms by the ladder) and up to about 4 ms slower
  with one z and M <= 20 (K = 16, M = 20, N = 0: 6.2 ms, 10.0 ms).  A
  run with one step size never gains, because its depth is about the s
  of its jets build.  A run with a repeated step size
  keeps the jets path bit for bit; so do most range grids whose spacing
  is not dyadic: their step sizes split into a few last-bit variants,
  and some of them repeat.
- Memory rule.  The rungs are built at the first step and freed after
  the last one; the build of rung 0 drops G's powers before the
  squarings start.  A run in which some z would hold more rungs than
  _RUNG_SETS = 10 sets of its step jets (K+1 jets each; the jets path
  peaks at about 9.8) takes the jets path.  So do long horizons and
  steps like times [0, 1e300], where q has about a thousand bits; depth
  is read from the exponent of dt, so no q is formed before the rule
  passes.
- Determinism.  The rungs, the rung actions and the Taylor action treat
  each jet alone, so on the ladder a z-batched run equals per-z runs bit
  for bit, as on the jets path.  The path is chosen from the step sizes
  and each z's own rungs, not from the number of z, so a z's bits do not
  depend on its batch, unless another z of the batch fails the memory
  rule.  One-step runs keep the jets path.

ExactPropagator steps one StateStack at one z through the same core, one
step per call, so on the jets path.  step_matrix builds the jets of the
one mode asked and expands them into the dense complex matrix
exp(-dt G_k), for inspection and tests; no stepping path uses dense step
matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .errors import NumericError, UsageError
from .models import CollisionFrequencyModel, sigma_eval
from .spectral import (I_POWERS, ModeLattice, build_operators, complex_frame,
                       real_frame)
from .state import StateStack

__all__ = [
    "augmented_generator",
    "ExactPropagator",
    "propagate",
]


def augmented_generator(k: int, l: float, sigma_derivs, M: int) -> np.ndarray:
    """Stacked generator G_k for derivative levels 0..N of one mode.

    sigma_derivs holds the derivatives sigma^(0)(z)..sigma^(N)(z); the
    result has shape ((N+1) M, (N+1) M), with C_k on the block diagonal,
    assembled from the bands of STREAM and RELAX at size M.
    """
    sigma_derivs = [float(s) for s in sigma_derivs]
    if len(sigma_derivs) < 1:
        raise UsageError("need at least sigma itself in sigma_derivs")
    sigma = sigma_derivs[0]
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise UsageError(f"collision frequency must be positive, got sigma={sigma}")
    if not (l > 0.0 and math.isfinite(l)):
        raise UsageError(f"wavenumber spacing must be positive, got l={l}")
    off, r = build_operators(M)
    N = len(sigma_derivs) - 1
    C = 1j * (k * l) * (np.diag(off, 1) + np.diag(off, -1)) + sigma * np.diag(r)
    G = np.zeros(((N + 1) * M, (N + 1) * M), dtype=complex)
    for n in range(N + 1):
        G[n * M:(n + 1) * M, n * M:(n + 1) * M] = C
        for i in range(1, n + 1):
            if sigma_derivs[i] != 0.0:
                G[n * M:(n + 1) * M, (n - i) * M:(n - i + 1) * M] = (
                    math.comb(n, i) * sigma_derivs[i] * np.diag(r)
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


# Coefficients 1/k! of the degree-25 Taylor polynomial, and the 1-norm
# theta_25 up to which it meets double-precision backward error (Al-Mohy &
# Higham, SIAM J. Sci. Comput. 33(2), 2011, Table 3.1, u = 2^-53).
_TAYLOR25 = np.array([1.0 / math.factorial(k) for k in range(26)])
_THETA25 = 2.43
_TAYLOR_DEGREE = len(_TAYLOR25) - 1
# Exponents k of the Taylor terms c^k / k! G^(2j+2) over the shared powers,
# for T_25(c G) = E1 + G O1 + G^12 (E2 + G O2): rows E1, O1, E2, O2.  E1
# and O1 also hold the terms 1 and c G, which need no power.
_TAYLOR_SUMS = np.arange(2, 14, 2) + np.array([[0], [1], [12], [13]])
# squarings between the checks of _expm_powers for an exactly zero suffix;
# scaling powers below it never pay for a check
_ZERO_CHECK = 64


def _band_norms(kl: np.ndarray, off: np.ndarray, rows: np.ndarray,
                r: np.ndarray):
    """Sorted 1-norms of the real-frame jets of every (z, k) pair.

    The jet of mode k at z has level 0 kl[k] twist + sigma^(0)(z) diag(r),
    where twist holds off below its diagonal and -off above it, and levels
    i >= 1 sigma^(i)(z) diag(r).  Block column m of the dense matrix holds
    the blocks binom(m+i, i) A_i, i = 0..N-m, so its column sums come from
    the bands alone.  Each column of level 0 is summed in row order, as a
    dense column sum is (the zeros it skips add nothing), and the levels
    in the dense order, so every norm equals the 1-norm of the assembled
    jet bit for bit.  Returns (order, norms): order[j] = z len(kl) + k is
    the row of the j-th smallest norm.
    """
    (Z, n), M = rows.shape, len(r)
    col = np.empty((Z, len(kl), n, M))
    diag = np.abs(np.multiply.outer(rows, r))   # |sigma^(i)(z) r_j|
    col[:] = diag[:, None]
    band = np.abs(np.multiply.outer(kl, off))   # |kl off_j|
    above = np.pad(band, ((0, 0), (1, 0)))      # |entry (j-1, j)|
    below = np.pad(band, ((0, 0), (0, 1)))      # |entry (j+1, j)|
    col[:, :, 0] = above + diag[:, None, 0] + below
    col = col.reshape(-1, n, M)
    norms = np.max([sum(math.comb(m + i, i) * col[:, i] for i in range(n - m))
                    .max(axis=-1) for m in range(n)], axis=0)
    if not np.all(np.isfinite(norms)):
        raise NumericError("step generator has non-finite entries")
    order = np.argsort(norms, kind="stable")
    return order, norms[order]


def _generator_powers(kl: np.ndarray, off: np.ndarray, rows: np.ndarray,
                      r: np.ndarray, order: np.ndarray, e: np.ndarray):
    """Real-frame generator jets of one chunk of a run and their even powers.

    The chunk is a stretch of the run's jets in sorted order:
    order[j] = z len(kl) + k is the (z, k) row of its jet j, whose 1-norm
    is 2^e[j] f with f in [1/2, 1).  The bands are written into zeroed
    jets: kl[k] off below the diagonal of level 0, -(kl[k] off) above it,
    and rows[z, i] r, sigma^(i)(z) r, on the diagonal of level i.  Each
    jet G is then scaled by 2^-e, exact, to a 1-norm in [1/2, 1), so no
    power can overflow.  Returns (G, P), with P[:, 0..5] the powers G^2,
    G^4, ..., G^12.
    """
    n, M = rows.shape[1], len(r)
    z, k = np.divmod(order, len(kl))
    G = np.zeros((len(order), n, M, M))
    flat = G.reshape(len(G), n, M * M)
    band = np.multiply.outer(kl[k], off)
    flat[:, 0, M::M + 1] = band                 # entries (m+1, m)
    flat[:, 0, 1::M + 1] = -band                # entries (m, m+1)
    flat[:, :, ::M + 1] = np.multiply.outer(rows[z], r)
    G *= np.ldexp(1.0, -e)[:, None, None, None]
    P = np.empty((len(G), 6) + G.shape[1:])
    _jet_mul(G, G, out=P[:, 0])                 # G^2
    _jet_mul(P[:, 0], P[:, 0], out=P[:, 1])     # G^4
    _jet_mul(P[:, 1], P[:, 0], out=P[:, 2])     # G^6
    for i in range(3):                          # G^8, G^10, G^12
        _jet_mul(P[:, 2], P[:, i], out=P[:, 3 + i])
    return G, P


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


def _taylor(G: np.ndarray, P: np.ndarray, c: np.ndarray, coef: np.ndarray):
    """T_25(A) at A = c G, and a spare buffer its shape.

    T_25 = E1 + G O1 + G^12 (E2 + G O2), the four sums from the shared
    powers (_power_sums) with the coefficients coef[:, r] = c^k / k! at
    the exponents _TAYLOR_SUMS[r]: three jet products and no solve.  The
    temporaries fit in three arrays the size of the batch and one level
    of a product.
    """
    S = _power_sums(P, coef[:, 2:])             # E2, O2
    X = _jet_mul(G, S[:, 1])                    # G O2
    X += S[:, 0]
    _jet_mul(P[:, 5], X, out=S[:, 0])           # G^12 (E2 + G O2)
    M = P.shape[-1]
    diag = X.reshape(len(X), -1)[:, :M * M:M + 1]   # level 0's, a view
    _power_sums(P, coef[:, 1:2], out=X[:, None])
    diag += c[:, None]                          # O1
    _jet_mul(G, X, out=S[:, 1])                 # G O1
    S[:, 1] += S[:, 0]
    _power_sums(P, coef[:, :1], out=X[:, None])
    diag += 1.0                                 # E1
    X += S[:, 1]
    return X, S[:, 0]


def _expm_powers(G: np.ndarray, P: np.ndarray, c: np.ndarray,
                 coef: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp(-dt G) of every jet of a chunk, in the chunk's sorted order.

    The degree-25 Taylor polynomial at A = -dt G / 2^s, with a scaling
    power s per jet, then s squarings.  A = c Gs with c = -dt 2^(e-s) and
    Gs the scaled jet, so its sums come from the shared powers P of Gs;
    coef holds the Taylor coefficients of c (_taylor).  s is
    nondecreasing.  A suffix still squaring is checked every
    _ZERO_CHECK squarings: once it is exactly zero, so is every later
    square, so the squarings stop (t = 1e300 asks for about a thousand)
    and the suffix is written as +0.0, the bits they would give.
    """
    out, spare = _taylor(G, P, c, coef)
    # the jets with s > j form a suffix of the batch; square it from R into
    # the spare buffer and swap, and move the jets whose last squaring is
    # done back into out
    R = out
    first = 0
    for j in range(int(s[-1])):
        done, first = first, int(np.searchsorted(s, j, side="right"))
        if R is not out:
            out[done:first] = R[done:first]
        if j and not j % _ZERO_CHECK and not R[first:].any():
            out[first:] = 0.0
            return out
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
    with np.errstate(over="ignore"):    # exp(-inf) = 0 is the true decay
        f[:, 0] = np.exp(np.multiply.outer(rows[:, 0], r) * -dt)
    for d in range(1, rows.shape[1]):
        acc = rows[:, 1, None] * f[:, d - 1]
        for i in range(2, d + 1):
            acc += math.comb(d - 1, i - 1) * rows[:, i, None] * f[:, d - i]
        f[:, d] = -dt * r * acc
    return f


# z rows' worth of jets per _generator_powers call; bounds the shared powers
# and the Taylor temporaries (see module doc)
_BUILD_SLICE = 2

# rungs each z may hold, in sets of its step jets (K+1 jets); the jets path
# peaks at about 9.8 of them
_RUNG_SETS = 10


class _StepJets:
    """Builds the real-frame jets of exp(-dt G_k) of one run at any dt.

    sigma_rows[z] holds sigma^(0)..sigma^(N) at one z; a build at dt has
    shape (Z, len(ks), N+1, M, M).  The generator is held as its bands
    off and r, as build_operators returns them at size M.  Mode 0 comes
    in closed form (_mode0_diagonals), every other mode from the powers
    of its generator.  The 1-norms and their sort are computed once per run.
    Every build, at one step size (__call__) or at each jet's base step
    (base), is one pass of _sorted: the scaling powers and Taylor
    coefficients once, the powers and products once per chunk of the
    sorted jets.  A build with keep holds each chunk's G and powers for
    the next build, which takes them; a build without keep drops them as
    it goes, so the run holds none after it.
    """

    def __init__(self, ks, l: float, sigma_rows, M: int):
        self.off, self.r = build_operators(M)
        ks = np.asarray(ks, dtype=float)
        self.zero = np.flatnonzero(ks == 0.0)
        self.modes = np.flatnonzero(ks != 0.0)
        self.kl = ks[self.modes] * l
        self.rows = np.asarray(sigma_rows, dtype=float)
        self.chunk = _BUILD_SLICE * max(len(self.modes), 1)   # jets, >= 1
        self.powers: dict[int, tuple] = {}      # (G, P) of the chunk at j0

    @functools.cached_property
    def sorted_norms(self):
        """(order, norms, e): the run's jets sorted by their 1-norms
        (_band_norms), and the exponents e with norms = 2^e f, f in
        [1/2, 1).  Computed at the first build and kept for the run."""
        order, norms = _band_norms(self.kl, self.off, self.rows, self.r)
        return order, norms, np.frexp(norms)[1]

    def _sorted(self, h, keep: bool):
        """One build of exp(-h G) for the sorted jets, h one step size or
        one step per sorted jet: yield (part, R) for each chunk, R the jets
        of the slice part of the sort.  Each chunk's G and powers are
        kept for the next build when keep, else dropped before the yield."""
        ranks, norms, e = self.sorted_norms
        if not np.all(np.isfinite(h)):
            raise NumericError(f"step size is not finite: {h}")
        with np.errstate(over="ignore"):
            scaled = h * norms
        # h norm / theta = f 2**s with f < 1, so h norm / 2**s < theta; the
        # norms are sorted, so s is too.  Where h norm overflows, h < 2**a
        # and norm < 2**e give the bound s = a + e, still nondecreasing
        s = np.where(np.isfinite(scaled),
                     np.maximum(np.frexp(scaled / _THETA25)[1], 0),
                     np.frexp(h)[1] + e)
        c = np.ldexp(-h, e - s)
        coef = _TAYLOR25[_TAYLOR_SUMS] * c[:, None, None] ** _TAYLOR_SUMS
        for j0 in range(0, len(ranks), self.chunk):
            part = slice(j0, j0 + self.chunk)
            powers = self.powers.pop(j0, None)
            if powers is None:
                powers = _generator_powers(self.kl, self.off, self.rows,
                                           self.r, ranks[part], e[part])
            if keep:
                self.powers[j0] = powers
            R = _expm_powers(*powers, c[part], coef[part], s[part])
            del powers
            yield part, R

    def __call__(self, dt: float, keep: bool = False) -> np.ndarray:
        Z, n = self.rows.shape
        Kp, M = len(self.modes), len(self.r)
        K1 = Kp + len(self.zero)
        ranks = self.sorted_norms[0]
        out = None
        # a lattice of mode 0 alone has no batch to build
        for part, R in self._sorted(dt, keep):
            if out is None:     # after the first chunk's temporaries are gone
                out = np.empty((Z, K1, n, M, M))
            z, k = np.divmod(ranks[part], Kp)
            out[z, self.modes[k]] = R
        if out is None:
            out = np.empty((Z, K1, n, M, M))
        for k in self.zero:
            self.mode0(dt, out[:, k])
        if not np.all(np.isfinite(out)):
            raise NumericError(
                f"matrix exponential produced non-finite entries at dt={dt}")
        return out

    def mode0(self, dt: float, out: np.ndarray | None = None) -> np.ndarray:
        """The jets of exp(-dt G_0) at every z, shape (Z, N+1, M, M), dense
        with the closed-form diagonals of _mode0_diagonals; into out when
        it is given."""
        M = len(self.r)
        if out is None:
            out = np.empty(self.rows.shape + (M, M))
        out[...] = 0.0
        diag = np.arange(M)
        out[..., diag, diag] = _mode0_diagonals(self.rows, self.r, dt)
        return out

    def base(self) -> np.ndarray:
        """exp(-h G) of every sorted jet at its base step h = 2^(1-e).

        h norm = 2 f lies in [1, 2), inside theta_25, so the build has
        s = 0 and c = -h 2^e = -2 for every jet, exactly, and no squaring.
        """
        e = self.sorted_norms[2]
        out = None
        for part, R in self._sorted(np.ldexp(1.0, 1 - e), keep=False):
            if out is None:
                out = np.empty((len(e),) + R.shape[1:])
            out[part] = R
        return out


def _depths(e: np.ndarray, once) -> np.ndarray:
    """Rungs of every sorted jet for the once-used step sizes once.

    dt / h with h = 2^(1-e) has floor(log2 dt) + e - 1 as the exponent of
    its leading bit, so q = floor(dt / h) has frexp(dt)[1] + e - 1 bits,
    and no q is formed.  Every jet keeps rung 0, which builds the others.
    """
    return np.maximum(np.frexp(max(once))[1] + e - 1, 1)


def _split(dt, e: np.ndarray):
    """(q, r) with dt = q h + r exactly for the base steps h = 2^(1-e):
    r = fmod(dt, h), and q, an integer in floats, since h is a power of
    two."""
    h = np.ldexp(1.0, 1 - e)
    r = np.fmod(dt, h)
    return (dt - r) / h, r


def _bits(q: np.ndarray, i: int) -> np.ndarray:
    """Bit i of the integers q, held in floats."""
    return np.fmod(np.floor(np.ldexp(q, -i)), 2.0) == 1.0


def _suffixes(depth: np.ndarray) -> np.ndarray:
    """The first jet of each rung i: the jets with more than i rungs."""
    return np.searchsorted(depth, np.arange(depth[-1]), side="right")


def _ladder(build: _StepJets, once):
    """A _Ladder for the step sizes once of a run that uses each of its
    nonzero step sizes once, or None: the selection and memory rule of
    the module docstring."""
    Kp = len(build.modes)
    if len(once) < 2 or not Kp:
        return None
    ranks, _, e = build.sorted_norms
    rungs = np.bincount(ranks // Kp, _depths(e, once))     # per z
    if rungs.max() > _RUNG_SETS * (Kp + len(build.zero)):
        return None
    return _Ladder(build, once)


class _Ladder:
    """exp(-dt G) of the once-used step sizes of a run, applied to the data.

    Each sorted jet has a base step h = 2^(1-e) and rungs
    L_i = exp(-2^i h G), L_0 from _StepJets.base and L_i = L_(i-1)^2.  A
    step dt = q h + r applies the rungs of q's set bits, then the Taylor
    action of exp(-r G) read from the bands of G (_remainder).  The rungs
    are built at the first step and dropped after the last; rung i is
    held only for the suffix of the sorted jets with more than i rungs.
    """

    def __init__(self, build: _StepJets, once):
        self.build = build
        self.steps = len(once)
        ranks, _, e = build.sorted_norms
        self.depth = _depths(e, once)
        z, k = np.divmod(ranks, len(build.modes))
        self.places = z, build.modes[k]
        self.rungs = None
        # the bands of the scaled jets Gs = 2^-e G, in the layout of the data
        # (J, N+1, M, 2), as _generator_powers writes them: kl off below the
        # diagonal, -(kl off) above it, and sigma^(i) r on level i's diagonal
        n, M = build.rows.shape[1], len(build.r)
        scale = np.ldexp(1.0, -e)
        band = (build.kl[k] * scale)[:, None, None, None] * build.off[:, None]
        self.below = np.zeros((len(e), n, M, 2))    # entry (m, m-1) of row m
        self.below[:, :, 1:] = band
        self.above = np.zeros((len(e), n, M, 2))    # entry (m, m+1) of row m
        self.above[:, :, :-1] = -band
        self.relax = np.repeat(build.r, 2)
        a = build.rows[z] * scale[:, None]          # sigma^(i) 2^-e
        self.mix = np.zeros((len(e), n, n))         # levels mix as Leibniz
        for d in range(n):
            for i in range(d + 1):
                self.mix[:, d, d - i] = math.comb(d, i) * a[:, i]

    def _climb(self):
        """[(L_i, first jet of L_i)]: rung 0 for every jet, then the
        squarings of each suffix."""
        firsts = _suffixes(self.depth)
        rungs = [self.build.base()]
        for i in range(1, len(firsts)):
            R = rungs[-1][firsts[i] - firsts[i - 1]:]
            rungs.append(_jet_mul(R, R))
        return list(zip(rungs, firsts))

    def _remainder(self, X: np.ndarray, c: np.ndarray) -> np.ndarray:
        """exp(c Gs) X, in place, by the degree-25 Taylor series.

        c Gs has a 1-norm below 2.  Each term is the previous one times
        c Gs / k, a generator action read from the bands: the level mix
        times relax, then the two off-diagonals of the twist on every level.
        The off-diagonals act on the flat data shifted by one m (two
        floats); their zero entries at m = 0 and m = M-1 keep the shifts
        inside each level.
        """
        J, n, M, _ = X.shape
        mix = self.mix * c[:, None, None]
        below = (self.below * c[:, None, None, None]).reshape(-1)[2:]
        above = (self.above * c[:, None, None, None]).reshape(-1)[:-2]
        tmp = np.empty(len(below))
        v, y = X.reshape(J, n, 2 * M).copy(), np.empty((J, n, 2 * M))
        vf, yf, Xf = v.reshape(-1), y.reshape(-1), X.reshape(-1)
        for k in range(1, _TAYLOR_DEGREE + 1):
            np.matmul(mix, v, out=y)
            y *= self.relax
            np.multiply(below, vf[:-2], out=tmp)
            yf[2:] += tmp
            np.multiply(above, vf[2:], out=tmp)
            yf[:-2] += tmp
            yf *= 1.0 / k
            Xf += yf
            v, y, vf, yf = y, v, yf, vf
        return X

    def __call__(self, W: np.ndarray, dt: float) -> np.ndarray:
        if self.rungs is None:
            self.rungs = self._climb()
        e = self.build.sorted_norms[2]
        q, r = _split(dt, e)
        X = W[self.places]
        for i, (R, first) in enumerate(self.rungs):
            bit = _bits(q[first:], i)
            if bit.any():
                np.copyto(X[first:], _jet_mul(R, X[first:]),
                          where=bit[:, None, None, None])
        out = np.empty_like(W)
        out[self.places] = self._remainder(X, np.ldexp(-r, e))
        for k in self.build.zero:
            out[:, k] = _jet_mul(self.build.mode0(dt), W[:, k])
        self.steps -= 1
        if not self.steps:
            self.rungs = None
        if not np.all(np.isfinite(out)):
            raise NumericError(
                f"matrix exponential produced non-finite entries at dt={dt}")
        return out


def _dense_steps(R: np.ndarray) -> np.ndarray:
    """Complex step matrices exp(-dt G_k) from real-frame jets (B, N+1, M, M).

    Block (p, q) is binom(p, p-q) R_{p-q}, rotated back entry by entry:
    (p, q) times i^(p-q), which is exact.
    """
    B, n, M, _ = R.shape
    idx = np.arange(M)
    phase = I_POWERS[np.subtract.outer(idx, idx) % 4]
    out = np.zeros((B, n * M, n * M), dtype=complex)
    for p in range(n):
        for q in range(p + 1):
            out[:, p * M:(p + 1) * M, q * M:(q + 1) * M] = \
                (math.comb(p, p - q) * R[:, p - q]) * phase
    return out


def propagate(data: np.ndarray, sigma_rows, l: float, dts):
    """Yield the real-frame data of a batch of z after each step dts[j].

    data[z, k, n, m] has shape (Z, K+1, N+1, M) and sigma_rows[z] holds
    sigma^(0)..sigma^(N) at that z, shape (Z, N+1).  Each sample has shape
    (Z, K+1, N+1, M, 2): the (re, im) column pairs of D^-1 x, where
    D = diag(i^m), starting from real_frame(data).  A zero step yields
    the previous sample again; the samples must not be written to.  The jets of a step size are built at
    its first step and dropped after its last, and a run whose nonzero
    step sizes are all distinct may step through the ladder instead
    (module docstring).  Every step size and the shapes of data and
    sigma_rows are checked before the first sample.
    """
    dts = list(dts)
    for dt in dts:
        if not (dt >= 0.0 and math.isfinite(dt)):
            raise UsageError(f"step size must be finite and >= 0, got dt={dt}")
    rows = np.array(sigma_rows, dtype=object)   # ragged rows: shape (Z,)
    if np.ndim(data) != 4 or rows.shape != np.shape(data)[:3:2]:
        raise UsageError(
            f"need stack data of shape (Z, K+1, N+1, M) and sigma_rows of "
            f"shape (Z, N+1), got {np.shape(data)} and {rows.shape}")
    _, K1, _, M = data.shape
    last = {dt: j for j, dt in enumerate(dts)}
    sizes = [dt for dt in last if dt]       # in the order of their first use
    build = _StepJets(range(K1), l, sigma_rows, M)
    ladder = None
    if len(sizes) == len(dts) - dts.count(0.0):
        ladder = _ladder(build, sizes)
    W = real_frame(data)        # D^-1 x as (re, im) column pairs
    jets = {}
    for j, dt in enumerate(dts):
        if dt == 0.0:
            pass
        elif ladder is not None:
            W = ladder(W, dt)
        else:
            if dt not in jets:      # the last new step size drops the powers
                jets[dt] = build(dt, keep=dt != sizes[-1])
            W = _jet_mul(jets[dt], W)
            if last[dt] == j:
                del jets[dt]
        yield W


class ExactPropagator:
    """Matrix-exponential stepper for all modes at one (model, z, N).

    A batch-of-one front end to propagate: evolve is a one-step run, and
    step_matrix expands the jets of one mode into a dense matrix.
    """

    def __init__(self, lattice: ModeLattice, model: CollisionFrequencyModel,
                 z: float, levels: int):
        if levels < 0:
            raise UsageError(f"need levels >= 0, got {levels}")
        self.lattice = lattice
        self.levels = levels
        self.z = z
        self.sigma_derivs = [sigma_eval(model, z, i) for i in range(levels + 1)]

    def step_matrix(self, k: int, dt: float) -> np.ndarray:
        """exp(-dt G_k), expanded from the jets of mode k at dt."""
        build = _StepJets([k], self.lattice.l, [self.sigma_derivs],
                          self.lattice.M)
        return _dense_steps(build(dt)[0])[0]

    def evolve(self, state: StateStack, dt: float) -> StateStack:
        """Advance a stack by dt >= 0 with one exact step per mode."""
        self._check(state)
        W = next(propagate(state.data[None], [self.sigma_derivs],
                           self.lattice.l, [dt]))[0]
        return replace(state, t=state.t + dt, data=complex_frame(W))

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


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

Memory rule.  A build holds one chunk's G and six powers at a time: it
forms them from the bands, builds the chunk's jets and drops them, so
nothing is carried from one build to the next, and each step size forms
the powers again.  Within a build the Taylor sums fit in three arrays
the size of the chunk: the result, and a pair whose first half is the
squarings' spare buffer and which is freed when _expm_powers returns.
A 15-step run at K = 16, M = 60, N = 2 (one chunk) on the jets path
peaks at 9.77 arrays the size of its jets: G and its six powers, the
three Taylor arrays and one level-sized temporary of a product, for the
16 modes k >= 1 (the ladder, which such a run takes, peaks at 3.75;
below).  A run also holds a step size's jets from its first step to its
last, so repeating one after other step sizes holds it through their
builds: the same run with its sixth step size repeated at the end peaks
at 10.77 arrays.  The chunks bound the build temporaries, which grow
with the chunk: at K = 4, M = 20 a sweep peaked about 0.3 MiB higher
per z row of a chunk, while a chunk of the whole 30-row batch built only
about a quarter faster.

Everything steps through one z-batched core, propagate.  It takes the
stack data of a batch of z at t = 0, shape (Z, K+1, N+1, M), the sigma
derivative rows of those z, shape (Z, N+1), and the sample times, and
yields the real-frame data at each time:

- The times become steps here alone (_steps).  A grid equal, bit for
  bit, to np.linspace(t0, t1, n) steps by t0 and then by h = (t1 - t0) /
  (n - 1), so it builds one set of jets where its differences would split
  into last-bit variants; any other grid steps by its differences.
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
set is the whole cost of such a step.  A run whose nonzero step sizes
are all used once may instead apply the exponential to its initial data
(_Ladder), after Al-Mohy & Higham (2011), with one ladder of squarings
per block of samples in place of per-step-size squarings:

- Absolute times.  The sample at time T_j is exp(-T_j G) W_0, with W_0
  = real_frame(data).  It is formed from W_0, not from the sample before
  it, so it agrees with stepping sample to sample to rounding, not bit
  for bit, and runs that share a time give the same bits there.
- The base step.  Each (z, k != 0) jet, of 1-norm 2^e f with f in
  [1/2, 1), gets h = 2^(1-e), so h ||G|| = 2 f lies in [1, 2), inside
  theta_25.  L_0 = exp(-h G) is one build at the step h of each jet
  (_StepJets.base), in chunks of _BASE_SLICE jets, where s = 0 and
  c = -2 exactly for every jet, so it takes no squaring.  The rungs are
  L_i = exp(-2^i h G) = L_(i-1)^2.
- A sample.  T = q h + r exactly, since h is a power of two: r is
  fmod(T, h) and q = (T - r) / h, an integer in floats.
  exp(-T G) = prod_{bits i of q} L_i exp(-r G), all functions of G, so
  they commute, and the sample applies the remainder exp(-r G) to W_0
  first, then the rungs of q's set bits.  Jets of equal e share h, and
  so q and r; the sort makes each such group one stretch of the jets,
  and a rung acts on a group's samples whose bit is set.  Mode 0 keeps
  its closed form at T: its diagonals times W_0, level by level as the
  Leibniz sum (_diagonal_jet_mul).
- The remainder.  With Gs = 2^-e G, exp(-r G) = exp(c Gs) with
  c = -r 2^e and ||c Gs|| < 2, inside theta_25, so the degree-25 Taylor
  series gives it: the sum over k of c^k / k! Gs^k W_0.  The terms
  Gs^k W_0 do not depend on the sample, only the scalars c^k / k! do.
  So a block forms each term once, as Gs times the term before it
  (_Ladder._act), and adds it to every sample of the block times that
  sample's running power of c (_Ladder._remainders): 25 generator
  actions per block, whatever its number of samples, and one scaled
  sum per term over the block.  Each action reads only G's bands,
  scaled by 2^-e like the jets: kl off below the diagonal and -(kl off)
  above it on every level, and the level mix binom(d, i) sigma^(i)(z)
  times diag(r).  A term is one sample's worth of data, and only the
  term being summed and the next one are held.
- Blocks and the climb.  The samples advance in blocks of
  _block_size(M) = max(M // 2, 1) times: a sample holds 2 M reals per
  jet against M^2 for a step jet, so a block is about one set of step
  jets, whatever the number of z.  A block forms its remainders, then
  climbs the rungs once for all its samples (_climb): rung i acts on the
  samples whose q has bit i set, is squared into rung i+1, and is
  dropped.  q < T / h, so a jet needs frexp(T)[1] + e - 1 rungs (at
  least rung 0) for the block's last time T.  Depth grows with e, so it
  is nondecreasing along the sort, and rung i+1 is squared only for the
  suffix of the jets with more than i+1 rungs.  Rung 0 is built at the
  first sample and kept for the next block, which climbs the other
  rungs again; the last block drops it too.
- Memory rule.  At most two rungs are alive at once, beside rung 0
  while another block is to come, and the block of samples.  The
  derivatives_large run (K = 16, M = 60, N = 2, one z, 15 log-spaced
  times: one block) peaks at 3.75 arrays of one set of its step jets,
  while it builds rung 0 (one chunk's G, powers and Taylor sums beside
  the rung); it climbs at 3.44 (two rungs beside the samples) and
  forms its remainders at 2.2.  On the jets path it peaks at 9.77.
  30 z at K = 4, M = 8 (four blocks of four samples) peak at 7.0, while
  a later block forms its remainders: rung 0, the block's samples and
  the scaled term beside the data.
- Selection (_ladder).  The ladder is taken by every run whose nonzero
  step sizes are all distinct, at least two of them, with a moving mode
  (K >= 1), when the rule below passes.  Such a run steps only by the
  ladder, so it builds no step jets.  The ladder saves the squarings of
  every build but one per block, and pays 25 generator actions per
  block.  With one BLAS thread and 15 log-spaced steps (best of 7),
  ladder against jets: 3.5 against 2.8 ms with one z at K = 16, M = 8,
  N = 0 (four blocks, each climbing again); 3.7 against 4.4 ms at
  K = 16, M = 20; 8.3 against 19 ms with 30 z at K = 4, M = 8; and
  35-38 against 168-173 ms on the derivatives_large shape.  A run with
  one step size never gains, because its depth is about the s of its
  jets build.  A run with a repeated step size keeps the jets path bit
  for bit; so does a range grid of three or more times, which steps by
  one step size after its first time.
- The rule counts rungs for the largest step size, not for the climb.
  A run in which some z would need more than _RUNG_SETS = 10 sets of
  its step jets (K+1 jets each) in rungs for its largest step size
  takes the jets path.  The climb goes up to the last time, which needs
  up to about log2 of the number of steps more rungs per jet: on the
  derivatives_large shape the rule counts 163 rungs against its bound
  of 170, and the climb squares 179.  Long horizons and steps like
  times [0, 1e300], where q has about a thousand bits, take the jets
  path; depth is read from the exponent of the step, so no q is formed
  before the rule passes.
- Determinism.  The rungs, the rung actions, the generator actions and
  the scaled sums treat each (sample, jet) pair alone, so on the ladder
  a z-batched run equals per-z runs bit for bit, as on the jets path,
  and the blocks do not move a bit.  The path is chosen from the step
  sizes and each z's own rungs, and the block size from M, not from
  the number of z, so a z's bits do not depend on its batch, unless
  another z of the batch fails the rule.  One-step runs keep the jets
  path.

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


def _diagonal_jet_mul(f: np.ndarray, Y: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """_jet_mul for jets of diagonal matrices, given by their diagonals f,
    shape (..., N+1, M), into out: the same Leibniz sums in the same
    order, each product a row scaling of Y (..., N+1, M, P)."""
    for d in range(f.shape[-2]):
        acc = np.multiply(f[..., 0, :, None], Y[..., d, :, :],
                          out=out[..., d, :, :])
        for i in range(1, d + 1):
            term = f[..., i, :, None] * Y[..., d - i, :, :]
            if i < d:                   # binom(d, d) = 1
                term *= math.comb(d, i)
            acc += term
    return out


# z rows' worth of jets per _generator_powers call; bounds the shared powers
# and the Taylor temporaries (see module doc)
_BUILD_SLICE = 2

# jets per _generator_powers call of the ladder's rung 0, which holds its
# whole result beside the chunk's powers
_BASE_SLICE = 4

# rungs each z may need for its largest step size, in sets of its step jets
# (K+1 jets); the climb to the last time may square a few more (module doc)
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
    sorted jets.  Each chunk's G and powers are dropped once its jets are
    built, so a build keeps nothing for the next.
    """

    def __init__(self, ks, l: float, sigma_rows, M: int):
        self.off, self.r = build_operators(M)
        ks = np.asarray(ks, dtype=float)
        self.zero = np.flatnonzero(ks == 0.0)
        self.modes = np.flatnonzero(ks != 0.0)
        self.kl = ks[self.modes] * l
        self.rows = np.asarray(sigma_rows, dtype=float)
        self.chunk = _BUILD_SLICE * max(len(self.modes), 1)   # jets, >= 1

    @functools.cached_property
    def sorted_norms(self):
        """(order, norms, e): the run's jets sorted by their 1-norms
        (_band_norms), and the exponents e with norms = 2^e f, f in
        [1/2, 1).  Computed at the first build and kept for the run."""
        order, norms = _band_norms(self.kl, self.off, self.rows, self.r)
        return order, norms, np.frexp(norms)[1]

    def _sorted(self, h, chunk: int):
        """One build of exp(-h G) for the sorted jets, h one step size or
        one step per sorted jet: yield (part, R) for each chunk of chunk
        jets, R the jets of the slice part of the sort.  Each chunk's G and
        powers are formed for it and dropped before the yield."""
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
        for j0 in range(0, len(ranks), chunk):
            part = slice(j0, j0 + chunk)
            R = _expm_powers(*_generator_powers(self.kl, self.off, self.rows,
                                                self.r, ranks[part], e[part]),
                             c[part], coef[part], s[part])
            yield part, R

    def __call__(self, dt: float) -> np.ndarray:
        Z, n = self.rows.shape
        Kp, M = len(self.modes), len(self.r)
        K1 = Kp + len(self.zero)
        ranks = self.sorted_norms[0]
        out = None
        # a lattice of mode 0 alone has no batch to build
        for part, R in self._sorted(dt, self.chunk):
            if out is None:     # after the first chunk's temporaries are gone
                out = np.empty((Z, K1, n, M, M))
            z, k = np.divmod(ranks[part], Kp)
            out[z, self.modes[k]] = R
        if out is None:
            out = np.empty((Z, K1, n, M, M))
        diag = np.arange(M)
        for k in self.zero:     # dense, with the closed-form diagonals
            jets = out[:, k]
            jets[...] = 0.0
            jets[..., diag, diag] = _mode0_diagonals(self.rows, self.r, dt)
        if not np.all(np.isfinite(out)):
            raise NumericError(
                f"matrix exponential produced non-finite entries at dt={dt}")
        return out

    def base(self) -> np.ndarray:
        """exp(-h G) of every sorted jet at its base step h = 2^(1-e), in
        chunks of _BASE_SLICE jets.

        h norm = 2 f lies in [1, 2), inside theta_25, so the build has
        s = 0 and c = -h 2^e = -2 for every jet, exactly, and no squaring.
        """
        e = self.sorted_norms[2]
        out = None
        for part, R in self._sorted(np.ldexp(1.0, 1 - e), _BASE_SLICE):
            if out is None:
                out = np.empty((len(e),) + R.shape[1:])
            out[part] = R
        return out


def _depths(e: np.ndarray, longest: float) -> np.ndarray:
    """Rungs of every sorted jet for times up to longest.

    t / h with h = 2^(1-e) has floor(log2 t) + e - 1 as the exponent of
    its leading bit, so q = floor(t / h) has frexp(t)[1] + e - 1 bits,
    and no q is formed.  Every jet keeps rung 0, which builds the others.
    """
    return np.maximum(np.frexp(longest)[1] + e - 1, 1)


def _split(t, e: np.ndarray):
    """(q, r) with t = q h + r exactly for the base steps h = 2^(1-e):
    r = fmod(t, h), and q, an integer in floats, since h is a power of
    two."""
    h = np.ldexp(1.0, 1 - e)
    r = np.fmod(t, h)
    return (t - r) / h, r


def _bits(q: np.ndarray, i: int) -> np.ndarray:
    """Bit i of the integers q, held in floats."""
    return np.fmod(np.floor(np.ldexp(q, -i)), 2.0) == 1.0


def _suffixes(depth: np.ndarray) -> np.ndarray:
    """The first jet of each rung i: the jets with more than i rungs."""
    return np.searchsorted(depth, np.arange(depth[-1]), side="right")


def _climb(R: np.ndarray, firsts: np.ndarray):
    """Yield (first, L_i) for each rung i: L_0 = R, the rung of every
    sorted jet, and L_(i+1) = L_i^2 for the jets from firsts[i+1] on.  Each
    rung is squared once its (first, L_i) has been taken, and the
    generator then holds the next rung only."""
    for i, first in enumerate(firsts):
        yield first, R
        if i + 1 < len(firsts):
            R = R[firsts[i + 1] - first:]
            R = _jet_mul(R, R)


def _block_size(M: int) -> int:
    """Samples a ladder block advances together: a sample holds 2 M reals
    per jet row against M^2 for a step jet, so M // 2 samples take about
    one set of step jets."""
    return max(M // 2, 1)


def _ladder(build: _StepJets, times):
    """A _Ladder for the times of a run that steps to each of them by a
    step size it uses once, or None: the selection rule of the module
    docstring.  The rule counts each jet's rungs for the largest step
    between the times, from t = 0; the climb goes up to the last time, up
    to about log2(len(times)) more rungs per jet."""
    Kp = len(build.modes)
    if len(times) < 2 or not Kp:
        return None
    ranks, _, e = build.sorted_norms
    longest = np.diff(times, prepend=0.0).max()
    rungs = np.bincount(ranks // Kp, _depths(e, longest))       # per z
    if rungs.max() > _RUNG_SETS * (Kp + len(build.zero)):
        return None
    return _Ladder(build, times)


class _Ladder:
    """exp(-T G) applied to the initial data at the times T of a run that
    uses each of its nonzero step sizes once.

    T_j is the time of the j-th nonzero step.  Each sorted jet has a base
    step h = 2^(1-e) and rungs L_i = exp(-2^i h G), L_0 from
    _StepJets.base and L_(i+1) = L_i^2 (_climb).  T = q h + r: the
    remainder exp(-r G) comes first, from the Taylor terms of the initial
    data (_remainders), and the rungs of q's set bits follow.  The
    samples of a block of _block_size times climb the rungs together, and
    each rung is dropped once it is climbed; rung 0 is built at the first
    sample and held until the last block has climbed it.  Jets of equal e
    share h, so they share q and r: the sort makes each such group one
    stretch of the jets.
    """

    def __init__(self, build: _StepJets, times):
        self.build = build
        self.times = times
        ranks, _, e = build.sorted_norms
        z, k = np.divmod(ranks, len(build.modes))
        self.places = z, build.modes[k]
        starts = np.flatnonzero(np.diff(e, prepend=e[0] - 1))
        self.groups = list(zip(starts, np.append(starts[1:], len(e))))
        # the bands of the scaled jets Gs = 2^-e G, in the layout of the data
        # (J, N+1, M, 2), as _generator_powers writes them: kl off below the
        # diagonal, -(kl off) above it, and sigma^(i) r on level i's diagonal
        n, M = build.rows.shape[1], len(build.r)
        scale = np.ldexp(1.0, -e)
        band = (build.kl[k] * scale)[:, None, None, None] * build.off[:, None]
        below = np.zeros((len(e), n, M, 2))     # entry (m, m-1) of row m
        below[:, :, 1:] = band
        above = np.zeros((len(e), n, M, 2))     # entry (m, m+1) of row m
        above[:, :, :-1] = -band
        # flat, to act on the flat data shifted by one m (_act)
        self.below, self.above = below.reshape(-1)[2:], above.reshape(-1)[:-2]
        self.relax = build.r[:, None]
        a = build.rows[z] * scale[:, None]          # sigma^(i) 2^-e
        self.mix = np.zeros((len(e), n, n))         # levels mix as Leibniz
        for d in range(n):
            for i in range(d + 1):
                self.mix[:, d, d - i] = math.comb(d, i) * a[:, i]

    def samples(self, W0: np.ndarray):
        """Yield exp(-T_j G) W0 at each time T_j, shape W0.shape.

        W0 holds the real-frame data.  The times advance in blocks of
        _block_size; all samples of a block are formed before the first
        of them is yielded, and each is released once yielded.  Mode 0
        keeps its closed form at T_j, applied to its diagonals.
        """
        e = self.build.sorted_norms[2]
        X0 = W0[self.places]
        base = self.build.base()
        size = _block_size(W0.shape[-2])
        for b0 in range(0, len(self.times), size):
            T = self.times[b0:b0 + size]
            rungs = _climb(base, _suffixes(_depths(e, T[-1])))
            if b0 + size >= len(self.times):
                base = None     # the last block drops rung 0 once climbed
            X = self._advance(rungs, X0, T)
            out = [self._sample(W0, x, t) for x, t in zip(X, T)]
            del X
            while out:
                yield out.pop(0)

    def _sample(self, W0: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
        """The sample at time t: the advanced data x of the sorted jets in
        their (z, k) places, and mode 0 in closed form, its diagonals times
        W0 level by level."""
        W = np.empty_like(W0)
        W[self.places] = x
        for k in self.build.zero:
            f = _mode0_diagonals(self.build.rows, self.build.r, t)
            _diagonal_jet_mul(f, W0[:, k], out=W[:, k])
        if not np.all(np.isfinite(W)):
            raise NumericError(
                f"matrix exponential produced non-finite entries at t={t}")
        return W

    def _advance(self, rungs, X0: np.ndarray, T: np.ndarray) -> np.ndarray:
        """exp(-T_b G) X0 at the times T of a block, shape (B,) + X0.shape.

        T_b = q h + r.  The remainders exp(-r G) X0 come first
        (_remainders); then each rung (first, L_i) of the climb acts on the
        samples whose q has bit i set, one group of equal e at a time, and
        is dropped once the next one is squared from it.  The remainder and
        the rungs are all functions of G, so they commute.
        """
        e = self.build.sorted_norms[2]
        q, r = _split(T[:, None], e)
        X = self._remainders(X0, np.ldexp(-r, e))
        for i, (first, R) in enumerate(rungs):
            bits = _bits(q, i)
            for a, b in self.groups:
                bit = bits[:, a]
                if a >= first and bit.any():
                    X[bit, a:b] = _jet_mul(R[a - first:b - first], X[bit, a:b])
            del R
        return X

    def _remainders(self, X0: np.ndarray, c: np.ndarray) -> np.ndarray:
        """exp(c Gs) X0 for each row of c, shape (S,) + X0.shape.

        X0 holds the data of every sorted jet, shape (J, N+1, M, 2), and c
        the scalars of S samples, shape (S, J), each c Gs of 1-norm below
        2.  The degree-25 Taylor series is the sum of the terms Gs^k X0,
        which every sample of a jet shares, times running powers c^k / k!:
        _TAYLOR_DEGREE actions of Gs (_act) for any number of samples, and
        one scaled sum per term over the samples.
        """
        # powers[k-1] = c^k / k!, as running products of c / k
        ks = np.arange(1.0, _TAYLOR_DEGREE + 1)[:, None, None]
        powers = np.cumprod(c / ks, axis=0)[..., None, None, None]
        X = np.repeat(X0[None], len(c), axis=0)
        tmp = np.empty(X.shape)
        v = X0
        for power in powers:
            v = self._act(v)
            X += np.multiply(power, v, out=tmp)
        return X

    def _act(self, v: np.ndarray) -> np.ndarray:
        """Gs v for data v of every sorted jet, shape (J, N+1, M, 2), read
        from the bands: the level mix times relax, then the two
        off-diagonals of the twist on every level.  The off-diagonals act
        on the flat data shifted by one m (two floats); their zero entries
        at m = 0 and m = M-1 keep the shifts inside each level."""
        J, n, M, _ = v.shape
        y = np.matmul(self.mix, v.reshape(J, n, 2 * M)).reshape(v.shape)
        y *= self.relax
        vf, yf = v.reshape(-1), y.reshape(-1)
        yf[2:] += self.below * vf[:-2]
        yf[:-2] += self.above * vf[2:]
        return y


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


def _steps(times: np.ndarray) -> list:
    """The steps from t = 0 through the times, by the module doc's rule."""
    n = len(times)
    if n > 1 and np.linspace(times[0], times[-1], n).tobytes() \
            == times.tobytes():
        return [times[0]] + [(times[-1] - times[0]) / (n - 1)] * (n - 1)
    return list(np.diff(times, prepend=0.0))


def propagate(data: np.ndarray, sigma_rows, l: float, times):
    """Yield the real-frame data of a batch of z at each sample time.

    data[z, k, n, m], shape (Z, K+1, N+1, M), holds the data at t = 0 and
    sigma_rows[z] sigma^(0)..sigma^(N) at that z, shape (Z, N+1).  Each
    sample has shape (Z, K+1, N+1, M, 2): the (re, im) column pairs of
    D^-1 x, where D = diag(i^m), starting from real_frame(data).  The
    core steps from t = 0 through the times (_steps); a zero step yields
    the previous sample again, and the samples must not be written to.
    A run whose nonzero step sizes are all distinct may instead form each
    sample from real_frame(data) at its time through the ladder (module
    docstring).  The times, which must be finite, >= 0 and nondecreasing,
    and the shapes of data and sigma_rows are checked before the first
    sample.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)) \
            or np.any(np.diff(times, prepend=0.0) < 0.0):
        raise UsageError(f"need finite times >= 0, nondecreasing: {times}")
    rows = np.array(sigma_rows, dtype=object)   # ragged rows: shape (Z,)
    if np.ndim(data) != 4 or rows.shape != np.shape(data)[:3:2]:
        raise UsageError(
            f"need stack data of shape (Z, K+1, N+1, M) and sigma_rows of "
            f"shape (Z, N+1), got {np.shape(data)} and {rows.shape}")
    _, K1, _, M = data.shape
    steps = _steps(times)
    last = {dt: j for j, dt in enumerate(steps)}
    build = _StepJets(range(K1), l, sigma_rows, M)
    once = len(last) - (0.0 in last) == np.count_nonzero(steps)  # no repeat
    ladder = _ladder(build, times[np.flatnonzero(steps)]) if once else None
    W = real_frame(data)        # D^-1 x as (re, im) column pairs
    if ladder is not None:
        samples = ladder.samples(W)
    jets = {}
    for j, dt in enumerate(steps):     # a zero step yields W again
        if dt and ladder is not None:
            W = next(samples)
        elif dt:
            if dt not in jets:
                jets[dt] = build(dt)
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


"""Entropy functional, Gronwall envelopes and envelope ratios."""

import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hypobgk import (
    InitialDataSpec,
    ModeLattice,
    UsageError,
    affine_model,
    NumericError,
    StateStack,
    affine_derivative_envelope,
    affine_uniform_envelope,
    certify,
    check_envelope,
    entropy_envelope,
    entropy_series,
    project_initial,
    propagate,
    sigma_eval,
    taylor_derivative_envelope,
)
from hypobgk.propagation import _complex_frame
from oracles import (build_transforms, entropy_complex_frame, entropy_dense,
                     gronwall_cascade)

LAT = ModeLattice(K=3, L=2 * math.pi, M=8)


def _state(seed=4, levels=0, z=0.0, scale=1.0):
    spec = InitialDataSpec(kind="random", seed=seed, scale=scale)
    return StateStack(lattice=LAT, z=z, t=0.0,
                      data=project_initial(spec, LAT, levels=levels))


def _trajectory(state, times, model):
    """Stack data of state at each of times, shape (T, K+1, N+1, M)."""
    rows = [[sigma_eval(model, state.z, n) for n in range(state.levels + 1)]]
    return np.stack([_complex_frame(sample[0]) for sample in propagate(
        state.data[None], rows, state.lattice.l,
        np.diff(times, prepend=state.t))])


def test_entropy_hand_value():
    data = np.zeros((LAT.K + 1, 1, LAT.M), dtype=complex)
    data[0, 0, 5] = 2.0          # k = 0 contributes plainly
    data[1, 0, 6] = 1.0 + 1.0j   # far coefficient: P acts as identity there
    val = entropy_series(data, 0, 0.1)
    assert val == pytest.approx(4.0 + 2.0 * 2.0, rel=1e-14)


def test_entropy_twist_engages_leading_coefficients():
    data = np.zeros((LAT.K + 1, 1, LAT.M), dtype=complex)
    data[1, 0, 0] = 1.0
    data[1, 0, 1] = 1.0j
    alpha = 0.2
    P = build_transforms(LAT.K, alpha, LAT.M)
    expect = 2.0 * np.vdot(data[1, 0], P[1] @ data[1, 0]).real
    assert entropy_series(data, 0, alpha) == pytest.approx(expect, rel=1e-14)
    # the off-diagonal twist makes this differ from the flat norm
    assert abs(expect - 4.0) > 1e-3


def test_entropy_bounded_by_norm_sandwich():
    from hypobgk.lyapunov import TWIST_GAIN
    alpha = 0.15
    state = _state(seed=8)
    flat = float(np.sum(np.abs(state.data[0, 0]) ** 2))
    flat += 2.0 * float(np.sum(np.abs(state.data[1:, 0]) ** 2))
    val = entropy_series(state.data, 0, alpha)
    assert (1 - alpha * TWIST_GAIN) * flat - 1e-12 <= val
    assert val <= (1 + alpha * TWIST_GAIN) * flat + 1e-12


def test_entropy_series_matches_pointwise():
    # a series of snapshots in one call, against one call per snapshot
    model = affine_model(1.0, 0.1)
    snaps = _trajectory(_state(z=0.5), [0.0, 0.4, 1.1], model)
    series = entropy_series(snaps, 0, 0.1)
    for i, s in enumerate(snaps):
        assert series[i] == pytest.approx(entropy_series(s, 0, 0.1), rel=1e-13)


def test_transform_stack_is_cached_and_frozen():
    P = build_transforms(2, 0.1, 6)
    assert build_transforms(2, 0.1, 6) is P
    assert_allclose(P[0], np.eye(6), rtol=0)
    with pytest.raises(ValueError):
        P[1, 0, 0] = 5.0


def test_envelope_shape():
    env = entropy_envelope(4.0, 0.5, [0.0, 1.0, 2.0])
    assert_allclose(env, 4.0 * np.exp(-2.0 * 0.5 * np.array([0.0, 1.0, 2.0])),
                    rtol=1e-15)


def test_gronwall_chain_level0():
    out = affine_derivative_envelope(0, [0.0, 2.0], 0.3, 1.0, [5.0])
    assert_allclose(out, 5.0 * np.exp(-0.3 * np.array([0.0, 2.0])), rtol=1e-15)


def test_gronwall_chain_worked_value():
    # binomial sum at n=1: e^{-0.5} (1 + 2*0.5*3) = 4 e^{-0.5}
    out = affine_derivative_envelope(1, [0.5], 1.0, 2.0, [3.0, 1.0])
    assert out[0] == pytest.approx(4.0 * math.exp(-0.5), abs=1e-12)


def test_gronwall_chain_validation():
    with pytest.raises(UsageError):
        affine_derivative_envelope(1, [0.0], 1.0, -1.0, [1.0, 1.0])
    with pytest.raises(UsageError):
        # needs 3 entries
        affine_derivative_envelope(2, [0.0], 1.0, 1.0, [1.0, 1.0])
    with pytest.raises(UsageError):
        affine_derivative_envelope(1, [0.0], 1.0, 1.0, [-1.0, 1.0])


def test_uniform_envelope_worked_value():
    out = affine_uniform_envelope(1, [0.5], 1.0, 2.0, 3.0)
    assert out[0] == pytest.approx(4.0 * math.exp(-0.5), abs=1e-12)


# envelope values of the per-z implementation, kept bit for bit
FIXED_TIMES = [0.0, 0.37, 2.5, 11.0, 80.0]
FIXED_CHAIN = {
    0: [0.9, 0.7181617076973708, 0.1958589511787096, 0.001096797712141577,
        5.763307508955508e-22],
    1: [0.4, 0.3802985425238777, 0.1996673196738512, 0.003262363861558891,
        1.0860632816876157e-20],
    3: [0.7, 0.6168770300667803, 0.3697595976868159, 0.030287982661236047,
        3.85970343215553e-18],
}
FIXED_UNIFORM = {
    0: [1.0, 0.7979574529970785, 0.2176210568652329, 0.0012186641246017523,
        6.403675009950564e-22],
    1: [0.8, 0.7062721416477142, 0.2992289531896952, 0.004058151534923835,
        1.2295056019105086e-20],
    3: [0.5120000000000001, 0.553295015373824, 0.5657297396242675,
        0.04500043655561692, 4.5324494508829e-18],
}


@pytest.mark.parametrize("level", [0, 1, 3])
def test_affine_envelopes_keep_fixed_values(level):
    chain = affine_derivative_envelope(level, FIXED_TIMES, 0.61, 0.23,
                                       [0.9, 0.4, 0.25, 0.7])
    uniform = affine_uniform_envelope(level, FIXED_TIMES, 0.61, 0.23, 0.8)
    assert chain.tolist() == FIXED_CHAIN[level]
    assert uniform.tolist() == FIXED_UNIFORM[level]


@pytest.mark.parametrize("level", range(4))
def test_affine_envelopes_stay_finite_beyond_the_float_range(level):
    # the product forms overflow to inf or 0 * inf there
    times = [1e154, 1e200, 1e308]
    chain = affine_derivative_envelope(level, times, 0.61, 0.23,
                                       [0.9, 0.4, 0.25, 0.7])
    uniform = affine_uniform_envelope(level, times, 0.61, 0.23, 0.8)
    for env in (chain, uniform):
        assert np.all(np.isfinite(env)) and np.all(env >= 0.0)


def test_affine_envelopes_in_log_space_match_exact_arithmetic():
    # rate t = 400 and coupling t = 1e154: the level-3 products are
    # e^-400 * inf, the envelopes themselves about 1e288
    rate, coupling, t, f0, H = 4e-152, 1.0, 1e154, [0.9, 0.4, 0.25, 0.7], 0.8
    with localcontext() as ctx:
        ctx.prec = 40
        decay = (-Decimal(rate) * Decimal(t)).exp()
        ct = Decimal(coupling) * Decimal(t)
        chain = decay * sum(math.comb(3, i) * ct ** i * Decimal(f0[3 - i])
                            for i in range(4))
        uniform = decay * (Decimal(H) + ct) ** 3
    got = affine_derivative_envelope(3, [0.0, t], rate, coupling, f0)
    assert got[0] == f0[3]
    assert got[1] == pytest.approx(float(chain), rel=1e-12)
    assert affine_uniform_envelope(3, [t], rate, coupling, H)[0] == \
        pytest.approx(float(uniform), rel=1e-12)


def test_cascade_worked_values():
    assert gronwall_cascade(0, 1.0, 1.0, 1.0) == (1.0, 1.0)
    exact, relaxed = gronwall_cascade(2, 1.0, 1.0, 1.0)
    assert exact == pytest.approx(12.5, abs=1e-12)
    assert relaxed == pytest.approx(32.5, abs=1e-12)


def test_taylor_envelope_is_scaled_cascade():
    rate, chat, H = 0.4, 0.9, 0.7
    times = np.array([0.0, 0.3, 2.0, 11.0])
    for n in (0, 1, 3):
        env = taylor_derivative_envelope(n, times, rate, chat, H)
        expect = [math.exp(-rate * t) * math.factorial(n)
                  * gronwall_cascade(n, float(t), chat, H)[1] for t in times]
        # the log-space evaluation rounds its exponent
        assert_allclose(env, expect, rtol=1e-13, atol=0)
    assert_allclose(taylor_derivative_envelope(0, times, rate, chat, H),
                    np.exp(-rate * times), rtol=1e-14)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 10), t=st.floats(0.0, 50.0), C=st.floats(1e-6, 10.0),
       H=st.floats(0.0, 10.0))
def test_cascade_exact_below_relaxed(n, t, C, H):
    exact, relaxed = gronwall_cascade(n, t, C, H)
    assert exact <= relaxed * (1.0 + 1e-12)


def test_cascade_where_a_branch_overflows():
    # exp(coupling t) overflows beyond coupling t = 709.78: the min is then
    # the polynomial branch, and where that overflows too the bound is inf
    n, C, H = 2, 1.5, 0.3
    head, amp = H**n / math.factorial(n), (1.0 + H) ** (n + 1)
    for t in (600.0, 5000.0, 1e5):
        exact, relaxed = gronwall_cascade(n, t, C, H)
        assert relaxed == head + amp * (1.0 + C * t) ** n
        assert exact <= relaxed
    assert gronwall_cascade(n, 1e300, C, H) == (math.inf, math.inf)
    env = taylor_derivative_envelope(n, [0.0, 600.0, 1e5], 0.4, C, H)
    assert np.all(np.isfinite(env))


def test_taylor_envelope_against_the_cascade_where_a_branch_overflows():
    # beyond chat t = 709.78 the exponential branch overflows and the
    # polynomial one is the min; at 1e200 both overflow, so the scalar
    # reference is inf * exp(-rate t) = nan, and the log-space envelope 0;
    # at 1.7e308 chat t itself overflows
    rate, chat, H = 0.4, 1.5, 0.3
    times = [0.0, 1.0, 473.0, 600.0, 5000.0, 1e5, 1e200, 1.7e308]
    for n in (1, 2, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = taylor_derivative_envelope(n, times, rate, chat, H)
        expect = [math.exp(-rate * t) * math.factorial(n)
                  * gronwall_cascade(n, t, chat, H)[1] for t in times]
        assert_allclose(env[:-2], expect[:-2], rtol=1e-13, atol=0)
        assert env[-2:].tolist() == [0.0, 0.0]
    assert math.isnan(expect[-2]) and math.isnan(expect[-1])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 10), t=st.floats(0.0, 1e4), rate=st.floats(1e-3, 2.0),
       chat=st.floats(0.0, 10.0), H=st.floats(0.0, 10.0))
def test_taylor_envelope_matches_the_product_form(n, t, rate, chat, H):
    # wherever the product exp(-rate t) n! relaxed is a normal float with a
    # normal first factor, the log-space envelope agrees with it
    decay = math.exp(-rate * t)
    expect = decay * math.factorial(n) * gronwall_cascade(n, t, chat, H)[1]
    assume(decay >= sys.float_info.min
           and sys.float_info.min <= expect < math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = taylor_derivative_envelope(n, [t], rate, chat, H)[0]
    assert env == pytest.approx(expect, rel=1e-13, abs=0)


@pytest.mark.parametrize("observed, envelope", [
    ([1.0, math.nan], [1.0, 1.0]),
    ([1.0, math.inf], [1.0, 1.0]),
    ([1.0, 0.5], [1.0, math.nan]),
], ids=["nan-observed", "inf-observed", "nan-envelope"])
def test_check_envelope_rejects_nan_verdicts(observed, envelope):
    with pytest.raises(NumericError, match="level 3"):
        check_envelope(observed, envelope, level=3)


def test_check_envelope_zero_trajectory():
    times = np.array([0.0, 1.0])
    ratio = check_envelope(np.zeros(2), np.exp(-times))
    assert np.all(ratio <= 1.0 + 1e-8)
    assert_allclose(ratio, 0.0, rtol=0)


def test_check_envelope_constructed_violation():
    times = np.linspace(0.0, 5.0, 6)
    env = np.exp(-times)
    observed = np.exp(-times) * np.exp(0.3 * times) * 0.9
    ratio = check_envelope(observed, env)
    assert not np.all(ratio <= 1.0 + 1e-8)
    assert ratio[-1] > 1.0
    assert ratio.max() == pytest.approx(0.9 * math.exp(1.5), rel=1e-12)


def test_check_envelope_zero_envelope_positive_observed():
    ratio = check_envelope([1.0], [0.0])
    assert math.isinf(ratio.max())
    assert not np.all(ratio <= 1.0 + 1e-8)


def test_check_envelope_takes_one_row_per_z():
    # one envelope over the times, checked against every row at once
    env = np.array([2.0, 1.0, 0.0])
    observed = np.array([[1.0, 0.5, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    ratio = check_envelope(observed, env)
    assert ratio.shape == (3, 3)
    assert ratio.tolist() == [[0.5, 0.5, 0.0], [1.0, 2.0, 0.0],
                              [0.0, 0.0, math.inf]]
    with pytest.raises(UsageError):
        check_envelope(observed, env[:2])
    with pytest.raises(UsageError):
        check_envelope(-observed, env)


def test_per_mode_dissipation_inequality():
    # discrete derivative of the per-mode twisted energy obeys the
    # certified rate with margin (the inequality behind the main envelope)
    cert = certify(2 * math.pi, 1.0, 1.0, alpha_strategy=0.1)
    model = affine_model(1.0, 0.0)
    state = _state(seed=12, z=0.0)
    P = build_transforms(LAT.K, cert.alpha, LAT.M)
    delta = 1e-6
    for t in (0.0, 0.5, 2.0):
        snaps = _trajectory(state, [t, t + delta], model)
        for k in range(1, LAT.K + 1):
            q0 = np.vdot(snaps[0, k, 0], P[k] @ snaps[0, k, 0]).real
            q1 = np.vdot(snaps[1, k, 0], P[k] @ snaps[1, k, 0]).real
            assert (q1 - q0) / delta <= -2.0 * cert.mu * q0 + 1e-8 * max(q0, 1.0)


def test_affine_level_recursion_differential():
    # d/dt sqrt(E_n) <= -lambda sqrt(E_n) + coupling * n * sqrt(E_{n-1});
    # checked by central differences on a fine grid
    model = affine_model(1.0, 0.1)
    cert = certify(2 * math.pi, model.sigma_min, model.sigma_max,
                   alpha_strategy=0.1)
    coupling = abs(model.params[1]) * cert.ctilde
    state = _state(seed=3, levels=2, z=0.5)
    delta = 1e-4
    for t in (0.1, 1.0, 4.0):
        snaps = _trajectory(state, [t - delta, t, t + delta], model)
        g = np.stack([np.sqrt(entropy_series(snaps, n, cert.alpha))
                      for n in range(3)])
        scale = g[:, 1].max()
        for n in (1, 2):
            lhs = (g[n, 2] - g[n, 0]) / (2 * delta)
            rhs = -cert.decay_rate * g[n, 1] + coupling * n * g[n - 1, 1]
            assert lhs <= rhs + 1e-6 * max(scale, 1.0)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(0, 6), M=st.integers(5, 24), T=st.integers(1, 4),
       alpha=st.floats(0.0, 0.3), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e100]))
def test_closed_form_entropy_matches_dense_forms(K, M, T, alpha, seed, scale):
    rng = np.random.default_rng(seed)
    X = scale * (rng.standard_normal((T, K + 1, M))
                 + 1j * rng.standard_normal((T, K + 1, M)))
    X[:, 0, :3] = 0.0
    dense = entropy_dense(X, alpha)
    stacks = X[:, :, None, :]                 # T stacks of one level
    assert_allclose(entropy_series(stacks, 0, alpha), dense, rtol=1e-13, atol=0)
    for s, d in zip(stacks, dense):
        assert entropy_series(s, 0, alpha) == pytest.approx(d, rel=1e-13, abs=0)


@settings(max_examples=200, deadline=None)
@given(K=st.integers(0, 6), M=st.integers(5, 60), N=st.integers(0, 2),
       alpha=st.floats(0.0, 0.3), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e100]))
def test_real_frame_entropy_matches_the_complex_frame(K, M, N, alpha, seed,
                                                     scale):
    # with x_m = i^m y_m, |x|^2 = |y|^2 and Im(conj x_j x_{j+1}) =
    # a_j a_{j+1} + b_j b_{j+1} for y = a + i b: the entropy of the
    # real-frame pairs of D^-1 x is the complex-frame entropy of x
    rng = np.random.default_rng(seed)
    X = scale * (rng.standard_normal((3, K + 1, N + 1, M))
                 + 1j * rng.standard_normal((3, K + 1, N + 1, M)))
    Y = X * np.array([1, -1j, -1, 1j])[np.arange(M) % 4]     # D^-1 x, exact
    pairs = np.stack((Y.real, Y.imag), axis=-1)
    for n in range(N + 1):
        expect = entropy_complex_frame(X[:, :, n], alpha)
        assert_allclose(entropy_series(pairs, n, alpha), expect,
                        rtol=1e-15, atol=0)
        assert_allclose(entropy_series(X, n, alpha), expect,
                        rtol=1e-15, atol=0)

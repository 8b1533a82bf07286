"""Entropy functional, Gronwall envelopes and the report plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hypobgk import (
    InitialDataSpec,
    ModeLattice,
    UsageError,
    affine_model,
    affine_uniform_envelope,
    certify,
    check_envelope,
    entropy,
    entropy_envelope,
    entropy_series,
    gronwall_cascade,
    gronwall_chain,
    project_initial,
    taylor_derivative_envelope,
    trajectory,
    uniform_level_bound,
)
from oracles import build_transforms, entropy_dense

LAT = ModeLattice(K=3, L=2 * math.pi, M=8)


def _state(seed=4, levels=0, z=0.0, scale=1.0):
    spec = InitialDataSpec(kind="random", seed=seed, scale=scale)
    return project_initial(spec, LAT, levels=levels, z=z)


def test_entropy_hand_value():
    data = np.zeros((LAT.K + 1, 1, LAT.M), dtype=complex)
    data[0, 0, 5] = 2.0          # k = 0 contributes plainly
    data[1, 0, 6] = 1.0 + 1.0j   # far coefficient: P acts as identity there
    from hypobgk import StateStack
    state = StateStack(lattice=LAT, z=0.0, t=0.0, data=data)
    val = entropy(state, 0, 0.1)
    assert val.value == pytest.approx(4.0 + 2.0 * 2.0, rel=1e-14)


def test_entropy_twist_engages_leading_coefficients():
    data = np.zeros((LAT.K + 1, 1, LAT.M), dtype=complex)
    data[1, 0, 0] = 1.0
    data[1, 0, 1] = 1.0j
    from hypobgk import StateStack
    state = StateStack(lattice=LAT, z=0.0, t=0.0, data=data)
    alpha = 0.2
    P = build_transforms(LAT.K, alpha, LAT.M)
    expect = 2.0 * np.vdot(data[1, 0], P[1] @ data[1, 0]).real
    assert entropy(state, 0, alpha).value == pytest.approx(expect, rel=1e-14)
    # the off-diagonal twist makes this differ from the flat norm
    assert abs(expect - 4.0) > 1e-3


def test_entropy_bounded_by_norm_sandwich():
    from hypobgk.lyapunov import TWIST_GAIN
    alpha = 0.15
    state = _state(seed=8)
    flat = float(np.sum(np.abs(state.data[0, 0]) ** 2))
    flat += 2.0 * float(np.sum(np.abs(state.data[1:, 0]) ** 2))
    val = entropy(state, 0, alpha).value
    assert (1 - alpha * TWIST_GAIN) * flat - 1e-12 <= val
    assert val <= (1 + alpha * TWIST_GAIN) * flat + 1e-12


def test_entropy_series_matches_pointwise():
    model = affine_model(1.0, 0.1)
    snaps = trajectory(_state(z=0.5), [0.0, 0.4, 1.1], model)
    series = entropy_series(snaps, 0, 0.1)
    for i, s in enumerate(snaps):
        assert series[i] == pytest.approx(entropy(s, 0, 0.1).value, rel=1e-13)


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
    out = gronwall_chain(0, [0.0, 2.0], 0.3, 1.0, [5.0])
    assert_allclose(out, 5.0 * np.exp(-0.3 * np.array([0.0, 2.0])), rtol=1e-15)


def test_gronwall_chain_worked_value():
    # binomial sum at n=1: e^{-0.5} (1 + 2*0.5*3) = 4 e^{-0.5}
    out = gronwall_chain(1, [0.5], 1.0, 2.0, [3.0, 1.0])
    assert out[0] == pytest.approx(4.0 * math.exp(-0.5), abs=1e-12)


def test_gronwall_chain_validation():
    with pytest.raises(UsageError):
        gronwall_chain(1, [0.0], 1.0, -1.0, [1.0, 1.0])
    with pytest.raises(UsageError):
        gronwall_chain(2, [0.0], 1.0, 1.0, [1.0, 1.0])  # needs 3 entries
    with pytest.raises(UsageError):
        gronwall_chain(1, [0.0], 1.0, 1.0, [-1.0, 1.0])


def test_uniform_envelope_worked_value():
    out = affine_uniform_envelope(1, [0.5], 1.0, 2.0, 3.0)
    assert out[0] == pytest.approx(4.0 * math.exp(-0.5), abs=1e-12)


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
        assert_allclose(env, expect, rtol=1e-13)
    assert_allclose(taylor_derivative_envelope(0, times, rate, chat, H),
                    np.exp(-rate * times), rtol=1e-14)


def test_uniform_level_bound_is_relaxed_branch():
    assert uniform_level_bound(3, 0.7, 1.2, 0.5) == pytest.approx(
        gronwall_cascade(3, 0.7, 1.2, 0.5)[1], rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 10), t=st.floats(0.0, 50.0), C=st.floats(1e-6, 10.0),
       H=st.floats(0.0, 10.0))
def test_cascade_exact_below_relaxed(n, t, C, H):
    exact, relaxed = gronwall_cascade(n, t, C, H)
    assert exact <= relaxed * (1.0 + 1e-12)


def test_check_envelope_zero_trajectory():
    times = np.array([0.0, 1.0])
    report = check_envelope(times, np.zeros(2), np.exp(-times))
    assert report.passed
    assert_allclose(report.ratio, 0.0, rtol=0)


def test_check_envelope_constructed_violation():
    times = np.linspace(0.0, 5.0, 6)
    env = np.exp(-times)
    observed = np.exp(-times) * np.exp(0.3 * times) * 0.9
    report = check_envelope(times, observed, env)
    assert not report.passed
    assert report.ratio[-1] > 1.0
    assert report.max_ratio == pytest.approx(0.9 * math.exp(1.5), rel=1e-12)


def test_check_envelope_zero_envelope_positive_observed():
    report = check_envelope([0.0], [1.0], [0.0])
    assert math.isinf(report.max_ratio)
    assert not report.passed


def test_per_mode_dissipation_inequality():
    # discrete derivative of the per-mode twisted energy obeys the
    # certified rate with margin (the inequality behind the main envelope)
    cert = certify(2 * math.pi, 1.0, 1.0, alpha_strategy=0.1)
    model = affine_model(1.0, 0.0)
    state = _state(seed=12, z=0.0)
    P = build_transforms(LAT.K, cert.alpha, LAT.M)
    delta = 1e-6
    for t in (0.0, 0.5, 2.0):
        snaps = trajectory(state, [t, t + delta], model)
        for k in range(1, LAT.K + 1):
            q0 = np.vdot(snaps[0].level(0)[k], P[k] @ snaps[0].level(0)[k]).real
            q1 = np.vdot(snaps[1].level(0)[k], P[k] @ snaps[1].level(0)[k]).real
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
        snaps = trajectory(state, [t - delta, t, t + delta], model)
        g = np.stack([np.sqrt(entropy_series(snaps, n, cert))
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
    lat = ModeLattice(K=K, L=2 * math.pi, M=M)
    from hypobgk import StateStack
    states = [StateStack(lattice=lat, z=0.0, t=0.0, data=x[:, None, :])
              for x in X]
    dense = entropy_dense(X, alpha)
    assert_allclose(entropy_series(states, 0, alpha), dense, rtol=1e-13, atol=0)
    for s, d in zip(states, dense):
        assert entropy(s, 0, alpha).value == pytest.approx(d, rel=1e-13, abs=0)

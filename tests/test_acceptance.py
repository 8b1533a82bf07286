"""Acceptance suite: every certified claim at its stated tolerance.

Each criterion is one test and prints one line

    ACCEPTANCE nn [name]: PASS|FAIL

(visible with pytest -s, or in captured output on failure; pytest -v
additionally shows the per-test verdicts).
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hypobgk import (
    ExactPropagator,
    InitialDataSpec,
    ModeLattice,
    StateStack,
    affine_derivative_envelope,
    affine_model,
    affine_uniform_envelope,
    certify,
    constant_model,
    entropy_envelope,
    entropy_series,
    polynomial_model,
    project_initial,
    propagate,
    random_stack,
    rate_block,
    sigma_eval,
    taylor_bound,
    taylor_derivative_envelope,
    trig_model,
    verify_grid,
)
from hypobgk.cli import main
from hypobgk.lyapunov import TWIST_GAIN
from hypobgk.propagation import _complex_frame
from oracles import evolve_reference, gronwall_cascade, minor_det3

TIMES = np.arange(0.0, 20.0001, 0.5)
DTS = np.diff(TIMES, prepend=0.0)


def _trajectory(state, model):
    """Stack data of state at each of TIMES, shape (T, K+1, N+1, M)."""
    rows = [[sigma_eval(model, state.z, n) for n in range(state.levels + 1)]]
    return np.stack([_complex_frame(sample[0]) for sample in propagate(
        state.data[None], rows, state.lattice.l, DTS)])


def _state(spec, lattice, levels, z):
    """The projected initial data as a t = 0 StateStack at z."""
    return StateStack(lattice=lattice, z=z, t=0.0,
                      data=project_initial(spec, lattice, levels=levels))


def _evolve(state, dt, model):
    prop = ExactPropagator(state.lattice, model, state.z, state.levels)
    return prop.evolve(state, dt)


@contextmanager
def criterion(num, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_certificate_chain():
    with criterion(1, "certificate chain, closed forms"):
        t0 = time.perf_counter()
        cert = certify(2.0 * math.pi, 1.0, 1.0, alpha_strategy=0.1)
        assert abs(cert.alpha_max - (9.0 - math.sqrt(17.0)) / 24.0) <= 1e-12
        assert abs(minor_det3(1, 0.1, 1.0, 1.0) - 0.332) <= 1e-12
        assert abs(rate_block(1.0, 0.1, 1.0) - 0.332 / 3.24) <= 1e-12
        expected_mu = cert.lambda_min / (2.0 * (1.0 + 0.1 * TWIST_GAIN))
        assert abs(cert.mu - expected_mu) <= 1e-12
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_matrix_inequality_grid():
    with criterion(2, "matrix inequality on randomized configurations"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240901)
        ks = list(range(1, 51))
        for _ in range(20):
            L = float(rng.uniform(1.0, 20.0))
            lo = float(rng.uniform(0.2, 5.0))
            hi = float(rng.uniform(lo, 5.0))
            cert = certify(L, lo, hi)
            sigmas = np.linspace(lo, hi, 33)
            for M in (5, 10, 20, 40):
                mins, norms = verify_grid(cert, ks, sigmas, M)
                assert np.all(mins >= -1e-10 * norms)
        assert time.perf_counter() - t0 < 30.0


MODELS = (
    constant_model(1.0),
    affine_model(1.0, 0.1),
    trig_model(2.0, 0.5, 1.0),
    polynomial_model([2.0, -0.4, 0.3]),
)

COMBOS = ((2, 8), (3, 12), (4, 16), (6, 24), (8, 40))


def test_criterion_03_decay_envelope_sweep():
    with criterion(3, "entropy envelope over random data and z samples"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        datasets = {combo: [random_stack(ModeLattice(K=K, L=2 * math.pi, M=M),
                                         0, rng)
                            for _ in range(10)]
                    for combo in COMBOS for K, M in [combo]}
        worst = 0.0
        for model in MODELS:
            cert = certify(2.0 * math.pi, model.sigma_min, model.sigma_max)
            zs = np.linspace(model.z_lo, model.z_hi, 20)
            rows = [[sigma_eval(model, float(z))] for z in zs]
            for (K, M), stacks in datasets.items():
                lat = ModeLattice(K=K, L=2 * math.pi, M=M)
                # one batch of every stack at every z; E[j, s Z + z] at
                # TIMES[j]
                batch = np.repeat(np.stack(stacks), len(zs), axis=0)
                E = np.stack([entropy_series(sample, 0, cert.alpha)
                              for sample in propagate(
                                  batch, rows * len(stacks), lat.l, DTS)])
                for i in range(len(batch)):
                    env = entropy_envelope(float(E[0, i]), cert.decay_rate,
                                           TIMES)
                    worst = max(worst, float(np.max(E[1:, i] / env[1:])))
        assert worst <= 1.0 + 1e-8
        assert time.perf_counter() - t0 < 60.0


def test_criterion_04_k0_rate_fit(tmp_path):
    with criterion(4, "k=0 decay rate recovered by log-linear fit"):
        cfg = {
            "run_id": "k0",
            "domain": {"L": 2 * math.pi, "K": 0, "M": 12, "N": 0},
            "sigma": {"variant": "affine", "sigma0": 1.0, "c1": 0.1,
                      "z_domain": [-1, 1]},
            "time_grid": {"start": 0.0, "stop": 10.0, "num": 21},
            "z_grid": {"points": [0.5]},
            "initial_data": {"type": "random", "seed": 5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path),
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "k0_z000.csv").read_text().strip().splitlines()[2:]]
        t = np.array([float(r[2]) for r in rows])
        E = np.array([float(r[4]) for r in rows])
        slope = np.polyfit(t, np.log(E), 1)[0]
        sigma_z = sigma_eval(affine_model(1.0, 0.1), 0.5)
        assert abs(-slope / 2.0 - sigma_z) / sigma_z <= 1e-6


def _sqrt_entropy_series(snaps, levels, cert):
    return np.stack([np.sqrt(entropy_series(snaps, n, cert.alpha))
                     for n in range(levels + 1)])


def _uniform_H(sqrt0):
    H = 0.0
    for n in range(1, sqrt0.shape[0]):
        if sqrt0[n] > 0.0:
            H = max(H, float(sqrt0[n]) ** (1.0 / n))
    return H * (1.0 + 1e-9)


def test_criterion_05_affine_derivative_envelopes():
    with criterion(5, "affine sensitivity envelopes, chain and uniform"):
        model = affine_model(1.0, 0.1)
        cert = certify(2.0 * math.pi, model.sigma_min, model.sigma_max)
        coupling = abs(model.params[1]) * cert.ctilde
        lat = ModeLattice(K=4, L=2 * math.pi, M=16)
        for z in (-1.0, -0.25, 0.6):
            for seed in (1, 2, 3):
                spec = InitialDataSpec(kind="random", seed=seed, scale=0.8)
                state = _state(spec, lat, 4, z)
                snaps = _trajectory(state, model)
                sq = _sqrt_entropy_series(snaps, 4, cert)
                for n in range(5):
                    env = affine_derivative_envelope(n, TIMES, cert.decay_rate,
                                                     coupling, sq[:n + 1, 0])
                    assert np.all(sq[n] <= env * (1.0 + 1e-8))
                # second family needs the level-0 hypothesis: rescale
                scale = max(float(sq[0, 0]), 1.0)
                scaled = StateStack(lattice=lat, z=z, t=0.0,
                                    data=state.data / scale)
                snaps2 = _trajectory(scaled, model)
                sq2 = _sqrt_entropy_series(snaps2, 4, cert)
                assert sq2[0, 0] <= 1.0 + 1e-12
                H = _uniform_H(sq2[:, 0])
                for n in range(5):
                    env = affine_uniform_envelope(n, TIMES, cert.decay_rate,
                                                  coupling, H)
                    assert np.all(sq2[n] <= env * (1.0 + 1e-8))


def test_criterion_06_taylor_derivative_envelopes():
    with criterion(6, "trig sensitivity envelopes via Taylor majorant"):
        model = trig_model(2.0, 0.5, 1.0)
        cert = certify(2.0 * math.pi, model.sigma_min, model.sigma_max)
        chat = cert.ctilde * taylor_bound(model)
        lat = ModeLattice(K=4, L=2 * math.pi, M=16)
        for z in (-2.0, 0.3, 1.4):
            for seed in (4, 5, 6):
                spec = InitialDataSpec(kind="random", seed=seed, scale=1.0)
                state = _state(spec, lat, 4, z)
                probe = entropy_series(state.data, 0, cert.alpha)
                scale = max(math.sqrt(float(probe)), 1.0)
                state = StateStack(lattice=lat, z=z, t=0.0,
                                   data=state.data / scale)
                snaps = _trajectory(state, model)
                sq = _sqrt_entropy_series(snaps, 4, cert)
                assert sq[0, 0] <= 1.0 + 1e-12
                H = _uniform_H(sq[:, 0])
                for n in range(5):
                    env = taylor_derivative_envelope(n, TIMES, cert.decay_rate,
                                                     chat, H)
                    assert np.all(sq[n] <= env * (1.0 + 1e-8))


def test_criterion_07_sensitivity_finite_differences():
    with criterion(7, "level-1 sensitivity matches centered differences"):
        model = trig_model(2.0, 0.5, 1.0)
        lat = ModeLattice(K=3, L=2 * math.pi, M=10)
        z, T = 0.2, 1.5
        spec = InitialDataSpec(kind="random", seed=9, fill="level0")
        center = _state(spec, lat, 1, z)
        exact = _evolve(center, T, model).data[:, 1]
        errors = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            up = _state(spec, lat, 1, z + eps)
            down = _state(spec, lat, 1, z - eps)
            fd = (_evolve(up, T, model).data[:, 0]
                  - _evolve(down, T, model).data[:, 0]) / (2.0 * eps)
            errors.append(float(np.max(np.abs(fd - exact))))
        for coarse, fine in zip(errors, errors[1:]):
            order = math.log2(coarse / fine)
            assert abs(order - 2.0) <= 0.25


def test_criterion_08_gronwall_oracles():
    with criterion(8, "Gronwall chain and cascade oracles"):
        # worked values
        worked = affine_derivative_envelope(1, [0.5], 1.0, 2.0,
                                            [3.0, 1.0])[0]
        assert abs(worked - 4.0 * math.exp(-0.5)) <= 1e-12
        exact, relaxed = gronwall_cascade(2, 1.0, 1.0, 1.0)
        assert abs(exact - 12.5) <= 1e-12
        assert abs(relaxed - 32.5) <= 1e-12

        # equality ODE y_l' = -rate y_l + C l y_{l-1} attains the chain bound
        rate, C, T = 0.7, 1.3, 2.0
        y0 = np.array([2.0, 1.0, 0.5, 0.25])
        n = y0.shape[0] - 1

        def rhs(y):
            out = -rate * y
            out[1:] += C * np.arange(1, n + 1) * y[:-1]
            return out

        y = y0.copy()
        steps = 4000
        h = T / steps
        for _ in range(steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        for level in range(n + 1):
            bound = affine_derivative_envelope(level, [T], rate, C,
                                               y0[:level + 1])
            assert abs(y[level] - bound[0]) <= 1e-8

        # exact form never exceeds the relaxed form
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            m = int(rng.integers(0, 11))
            c = float(10.0 ** rng.uniform(-3, 1))
            h_val = float(rng.uniform(0.0, 10.0))
            t = float(rng.uniform(0.0, 50.0))
            ex, rel = gronwall_cascade(m, t, c, h_val)
            assert ex <= rel * (1.0 + 1e-12)


def test_criterion_09_conserved_components_stay_zero():
    with criterion(9, "k=0 conserved coefficients stay at zero"):
        lat = ModeLattice(K=3, L=2 * math.pi, M=10)
        runs = (
            (constant_model(1.0), 0.0, 0),
            (affine_model(1.0, 0.1), -0.4, 1),
            (trig_model(2.0, 0.5, 1.0), 0.7, 2),
        )
        residue = 0.0
        for model, z, levels in runs:
            spec = InitialDataSpec(kind="random", seed=31)
            state = _state(spec, lat, levels, z)
            for snap in _trajectory(state, model):
                residue = max(residue,
                              float(np.max(np.abs(snap[0, :, :3]))))
        assert residue <= 1e-14


def test_criterion_10_propagator_exactness():
    with criterion(10, "exponential step against order-4 reference"):
        cases = (
            (2, 20, 0.5, 0, constant_model(1.0)),
            (3, 12, 0.5, 0, affine_model(1.0, 0.1)),
            (4, 10, 0.4, 0, trig_model(2.0, 0.5, 1.0)),
            (3, 12, 0.5, 1, trig_model(2.0, 0.5, 1.0)),
        )
        for K, M, dt, levels, model in cases:
            lat = ModeLattice(K=K, L=2 * math.pi, M=M)
            spec = InitialDataSpec(kind="random", seed=K * 10 + M)
            state = _state(spec, lat, levels, 0.1)
            a = _evolve(state, dt, model)
            b = evolve_reference(state, dt, model, substeps=1000)
            scale = float(np.max(np.abs(a.data)))
            assert float(np.max(np.abs(a.data - b.data))) <= 1e-8 * scale
            one = _evolve(state, dt, model)
            two = _evolve(_evolve(state, dt / 2, model), dt / 2, model)
            assert float(np.max(np.abs(one.data - two.data))) <= 1e-12 * scale

"""Basis, operators and quadrature of the Fourier-Hermite reduction."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypobgk import (
    ModeLattice,
    UsageError,
    augmented_generator,
    build_operators,
    gauss_hermite_halfweight,
    hermite_polynomials,
)
from oracles import hermite_functions, synthesize


def test_lattice_spacing():
    lat = ModeLattice(K=4, L=math.pi, M=8)
    assert lat.l == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("K,L,M", [(-1, 1.0, 8), (2, 0.0, 8), (2, -3.0, 8),
                                   (2, math.inf, 8), (2, 1.0, 4)])
def test_lattice_rejects(K, L, M):
    with pytest.raises(UsageError):
        ModeLattice(K=K, L=L, M=M)


def test_stream_matrix_is_multiplication_by_v():
    # quadrature oracle: stream[a, b] = <v p_b, p_a> under the half weight
    M = 7
    ops = build_operators(M)
    v, w = gauss_hermite_halfweight(40)
    p = hermite_polynomials(M, v)
    gram = (p * w) @ p.T / math.sqrt(2.0 * math.pi)
    assert_allclose(gram, np.eye(M), atol=1e-12)
    vmat = (p * w * v) @ p.T / math.sqrt(2.0 * math.pi)
    assert_allclose(vmat, ops.stream, atol=1e-12)


def test_stream_entries():
    ops = build_operators(6)
    expected = np.sqrt(np.arange(1.0, 6.0))
    assert_allclose(np.diag(ops.stream, 1), expected, rtol=1e-15)
    assert_allclose(ops.stream, ops.stream.T, rtol=0)
    assert np.all(np.diag(ops.stream) == 0.0)


def test_relax_projects_off_conserved():
    ops = build_operators(9)
    assert_allclose(np.diag(ops.relax), [0, 0, 0, 1, 1, 1, 1, 1, 1], rtol=0)
    assert np.count_nonzero(ops.relax - np.diag(np.diag(ops.relax))) == 0


def test_generator_split():
    ops = build_operators(8)
    C = augmented_generator(2, 0.5, [1.3], ops)
    assert_allclose((C + C.conj().T) / 2.0, 1.3 * ops.relax, atol=1e-15)
    assert_allclose((C - C.conj().T) / 2.0, 1j * ops.stream, atol=1e-15)


def test_generator_rejects_bad_sigma():
    ops = build_operators(5)
    with pytest.raises(UsageError):
        augmented_generator(1, 1.0, [0.0], ops)
    with pytest.raises(UsageError):
        augmented_generator(1, -1.0, [1.0], ops)


def test_quadrature_degree_exactness():
    # n nodes integrate polynomials of degree <= 2n-1 against exp(-v^2/2)
    v, w = gauss_hermite_halfweight(6)
    for deg in range(0, 12, 2):
        moment = float(w @ v**deg)
        # E[v^deg] for standard normal times sqrt(2 pi)
        exact = math.sqrt(2.0 * math.pi) * math.prod(range(deg - 1, 0, -2)) \
            if deg > 0 else math.sqrt(2.0 * math.pi)
        assert moment == pytest.approx(exact, rel=1e-12)


def test_hermite_functions_weight():
    v = np.linspace(-3.0, 3.0, 11)
    funcs = hermite_functions(5, v)
    polys = hermite_polynomials(5, v)
    weight = np.exp(-v**2 / 2.0) / math.sqrt(2.0 * math.pi)
    assert_allclose(funcs, polys * weight, rtol=1e-14)


def test_synthesis_projection_roundtrip():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v, w = gauss_hermite_halfweight(30)
    values = synthesize(coeffs, v)
    # projection against p_m under the half weight recovers coefficients
    p = hermite_polynomials(6, v)
    weight = np.exp(-v**2 / 2.0) / math.sqrt(2.0 * math.pi)
    recovered = (p * w) @ (values / weight) / math.sqrt(2.0 * math.pi)
    assert_allclose(recovered, coeffs, atol=1e-12)


def test_moments_against_quadrature():
    # density, momentum and energy, the v-integrals of (1, v, v^2) times
    # the profile, are c_0, c_1 and c_0 + sqrt(2) c_2: the three leading
    # coefficients are the conserved directions RELAX leaves alone
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(8)
    v, w = gauss_hermite_halfweight(40)
    profile = synthesize(coeffs, v)
    weightless = np.real(profile * np.exp(v**2 / 2.0))  # undo the Gaussian
    omega = float(w @ weightless)
    momentum = float(w @ (v * weightless))
    energy = float(w @ (v**2 * weightless))
    assert omega == pytest.approx(coeffs[0], rel=1e-10)
    assert momentum == pytest.approx(coeffs[1], rel=1e-10)
    assert energy == pytest.approx(coeffs[0] + math.sqrt(2.0) * coeffs[2],
                                   rel=1e-10)

"""Collision-frequency models, bounds, Taylor majorants, initial data."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hypobgk import (
    DataError,
    DomainError,
    InitialDataSpec,
    InvalidModelError,
    ModeLattice,
    NotCertifiableError,
    UsageError,
    affine_model,
    constant_model,
    gauss_hermite_halfweight,
    hermite_polynomials,
    polynomial_model,
    project_initial,
    sigma_eval,
    taylor_bound,
    trig_model,
)
from hypobgk import models
from oracles import poly_extremes_search


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_affine_eval_and_bounds():
    m = affine_model(1.0, 0.1)
    assert sigma_eval(m, 0.5) == pytest.approx(1.05, rel=1e-15)
    assert sigma_eval(m, -0.3, n=1) == 0.1
    assert sigma_eval(m, 0.0, n=2) == 0.0
    assert (m.sigma_min, m.sigma_max) == (pytest.approx(0.9), pytest.approx(1.1))


def test_trig_derivatives_match_finite_differences():
    m = trig_model(2.0, 0.5, 0.8)
    eps = 1e-6
    for n in (1, 2, 3):
        fd = (sigma_eval(m, 0.4 + eps, n=n - 1)
              - sigma_eval(m, 0.4 - eps, n=n - 1)) / (2 * eps)
        assert sigma_eval(m, 0.4, n=n) == pytest.approx(fd, rel=1e-7)


def test_trig_bounds_hit_interior_critical_points():
    m = trig_model(2.0, 0.5, 1.0)
    assert (m.sigma_min, m.sigma_max) == (pytest.approx(1.5), pytest.approx(2.5))
    # domain cut before the critical point: endpoint extremes
    m2 = trig_model(2.0, 0.5, 1.0, z_domain=(0.0, 1.0))
    assert m2.sigma_max == pytest.approx(2.0 + 0.5 * math.sin(1.0))


def test_trig_range_search_does_not_grow_with_frequency(monkeypatch):
    # sin(omega z) has about 64 000 critical points on [-1, 1] at
    # omega = 1e5; two adjacent ones already fix the range
    calls = []
    sin = math.sin

    def spy(x):
        calls.append(x)
        return sin(x)

    monkeypatch.setattr(math, "sin", spy)
    m = trig_model(2.0, 0.5, 1e5, z_domain=(-1.0, 1.0))
    assert (m.sigma_min, m.sigma_max) == (1.5, 2.5)
    assert len(calls) <= 3


@settings(max_examples=200, deadline=None)
@given(omega=st.floats(1e-3, 1e6), z_lo=st.floats(-10.0, 10.0),
       periods=st.floats(1.01, 5.0), s0=st.floats(0.5, 5.0),
       ratio=st.floats(-0.99, 0.99))
def test_trig_range_of_a_full_period_domain(omega, z_lo, periods, s0, ratio):
    eps = ratio * s0
    z_hi = z_lo + periods * 2.0 * math.pi / omega
    m = trig_model(s0, eps, omega, z_domain=(z_lo, z_hi))
    assert (m.sigma_min, m.sigma_max) == (s0 - abs(eps), s0 + abs(eps))


def test_polynomial_eval_and_bounds():
    # sigma = 2 - z + z^2, minimum 7/4 at z = 1/2
    m = polynomial_model([2.0, -1.0, 1.0])
    assert sigma_eval(m, 0.5) == pytest.approx(1.75, rel=1e-12)
    assert sigma_eval(m, 0.5, n=1) == pytest.approx(0.0, abs=1e-12)
    assert sigma_eval(m, 0.0, n=2) == pytest.approx(2.0, rel=1e-12)
    assert sigma_eval(m, 0.0, n=7) == 0.0
    lo, hi = m.sigma_min, m.sigma_max
    assert lo == pytest.approx(1.75, rel=1e-9)
    assert hi == pytest.approx(4.0, rel=1e-9)  # at z = -1


def test_eval_outside_domain_rejected():
    m = affine_model(1.0, 0.1)
    with pytest.raises(DomainError):
        sigma_eval(m, 1.5)


@pytest.mark.parametrize("bad", [
    lambda: affine_model(1.0, 2.0),            # 1 + 2z dips below 0
    lambda: trig_model(0.4, 0.5, 1.0),         # eps exceeds sigma0
    lambda: trig_model(2.0, 0.5, 0.0),         # omega must be positive
    lambda: constant_model(-1.0),
    lambda: polynomial_model([0.1, 0.0, -1.0]),
])
def test_nonpositive_or_malformed_models_rejected(bad):
    with pytest.raises(InvalidModelError):
        bad()


def test_invalid_model_message_names_model():
    with pytest.raises(InvalidModelError, match="affine"):
        affine_model(1.0, 2.0)


def test_taylor_bound_dominates_scaled_derivatives():
    # the contract: |sigma^(n)(z)| / n! < C for all n and z in the domain
    models = [constant_model(1.5), affine_model(1.0, 0.1),
              trig_model(2.0, 0.5, 1.0),
              polynomial_model([2.0, -0.4, 0.3, 0.05])]
    for m in models:
        C = taylor_bound(m)
        zs = np.linspace(m.z_lo, m.z_hi, 101)
        for n in range(0, 9):
            worst = max(abs(sigma_eval(m, float(z), n=n)) for z in zs)
            assert worst / math.factorial(n) < C


def test_taylor_bound_trig_frequency_cutoff():
    with pytest.raises(NotCertifiableError, match="omega"):
        taylor_bound(trig_model(2.0, 0.5, 1.5))


def test_taylor_bound_values():
    assert taylor_bound(constant_model(2.0)) == pytest.approx(2.0, rel=1e-8)
    assert taylor_bound(affine_model(1.0, 0.1)) == pytest.approx(1.1, rel=1e-8)
    assert taylor_bound(trig_model(2.0, 0.5, 1.0)) == pytest.approx(2.5,
                                                                    rel=1e-8)


@pytest.mark.parametrize("coeffs", [[2.0, 0.5], [1.5, 0.3, -0.4, 0.2],
                                    [5.0, 0.0, -1e-3]])
def test_taylor_bound_of_zero_padded_polynomials(coeffs):
    # trailing zero coefficients add only +0.0 to each sum: the padded
    # polynomial has the trimmed one's bound bit for bit, even where the
    # binomials of the padding degrees overflow a float
    want = taylor_bound(polynomial_model(coeffs))
    for pad in (1, 40, 1100):
        got = taylor_bound(polynomial_model(coeffs + [0.0] * pad))
        assert math.copysign(1.0, got) == 1.0 and got.hex() == want.hex()


def test_project_coefficients_places_entries():
    lat = ModeLattice(K=3, L=2 * math.pi, M=6)
    spec = InitialDataSpec(kind="coefficients",
                           entries=((0, 1, 2, 1 + 2j), (1, 0, 4, 3.0)))
    stack = project_initial(spec, lat, levels=1)
    assert stack[1, 0, 2] == 1 + 2j
    assert stack[0, 1, 4] == 3.0
    assert np.count_nonzero(stack) == 2


def test_project_coefficients_range_checks():
    lat = ModeLattice(K=2, L=1.0, M=5)
    for entry in ((0, 5, 0, 1.0), (0, 0, 9, 1.0), (2, 0, 4, 1.0)):
        spec = InitialDataSpec(kind="coefficients", entries=(entry,))
        with pytest.raises(Exception):
            project_initial(spec, lat, levels=1)


def test_normalization_reject_names_component():
    lat = ModeLattice(K=1, L=1.0, M=5)
    spec = InitialDataSpec(kind="coefficients", entries=((0, 0, 1, 0.5),),
                           normalization="reject")
    with pytest.raises(DataError, match="momentum"):
        project_initial(spec, lat)


def test_normalization_enforce_clears_conserved():
    lat = ModeLattice(K=1, L=1.0, M=5)
    spec = InitialDataSpec(kind="coefficients", entries=((0, 0, 2, 0.5),
                                                         (0, 0, 3, 0.25)))
    stack = project_initial(spec, lat)
    assert stack[0, 0, 2] == 0.0
    assert stack[0, 0, 3] == 0.25


def test_project_separable_matches_quadrature():
    # velocity profile p(v) exp(-v^2/2) with p = v^3: coefficients are the
    # weighted projections of p onto the normalized Hermite polynomials
    lat = ModeLattice(K=2, L=2 * math.pi, M=8)
    spec = InitialDataSpec(kind="separable", fourier=((1, 0.5 + 0.2j),),
                           velocity_poly=(0.0, 0.0, 0.0, 1.0))
    stack = project_initial(spec, lat)
    v, w = gauss_hermite_halfweight(60)
    p = hermite_polynomials(8, v)
    proj = (p * w) @ v**3
    assert_allclose(stack[1, 0], (0.5 + 0.2j) * proj, atol=1e-12)
    # k=0 stays empty: nothing was requested there
    assert_allclose(stack[0, 0], 0.0, atol=0)


def test_project_random_seed_reproducible():
    lat = ModeLattice(K=2, L=1.0, M=6)
    spec = InitialDataSpec(kind="random", seed=42, scale=0.5)
    a = project_initial(spec, lat, levels=2)
    b = project_initial(spec, lat, levels=2)
    assert np.array_equal(a, b)
    c = project_initial(InitialDataSpec(kind="random", seed=43, scale=0.5),
                        lat, levels=2)
    assert not np.array_equal(a, c)


def test_negative_seed_is_a_usage_error():
    # rejected where the spec is built, before numpy sees the seed
    lat = ModeLattice(K=2, L=1.0, M=6)
    with pytest.raises(UsageError, match="seed must be >= 0, got -1"):
        project_initial(InitialDataSpec(kind="random", seed=-1), lat)


def test_project_random_level0_fill():
    lat = ModeLattice(K=2, L=1.0, M=6)
    spec = InitialDataSpec(kind="random", seed=1, fill="level0")
    stack = project_initial(spec, lat, levels=3)
    assert np.count_nonzero(stack[:, 1:, :]) == 0
    assert np.count_nonzero(stack[:, 0, :]) > 0


@settings(max_examples=60, deadline=None)
@given(tail=st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=6),
       z_lo=st.floats(-2.0, 2.0), width=st.floats(0.0, 3.0))
# a tiny leading coefficient hides the critical point z = -1/2 from
# companion-matrix roots of the derivative
@example(tail=[1.0, 1.0, 5.4930206238644256e-18], z_lo=-1.0, width=1.0)
def test_polynomial_range_contains_searched_range(tail, z_lo, width):
    # the offset keeps sigma positive on any domain inside [-5, 5]
    coeffs = [1.0 + sum(abs(a) * 5.0 ** (j + 1) for j, a in enumerate(tail))]
    coeffs += tail
    z_hi = z_lo + width
    m = polynomial_model(coeffs, (z_lo, z_hi))
    # rounding slack: a few ulps of the largest term on the domain
    r = max(abs(z_lo), abs(z_hi))
    slack = 8 * np.finfo(float).eps * sum(abs(c) * r**j
                                          for j, c in enumerate(coeffs))
    grid = np.polynomial.polynomial.polyval(np.linspace(z_lo, z_hi, 20_001),
                                            coeffs)
    searched = poly_extremes_search(coeffs, z_lo, z_hi)
    assert m.sigma_min <= min(grid.min(), searched[0]) + slack
    assert m.sigma_max >= max(grid.max(), searched[1]) - slack
    # and no wider than the true range: between grid points the polynomial
    # moves by at most its Lipschitz constant times half the spacing
    lip = sum(j * abs(c) * r ** (j - 1) for j, c in enumerate(coeffs) if j)
    reach = lip * width / 20_000 / 2
    assert m.sigma_min >= grid.min() - reach - slack
    assert m.sigma_max <= grid.max() + reach + slack


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(st.floats(allow_nan=False), min_size=1, max_size=8),
       x=st.floats(allow_nan=False))
@example(coeffs=[-0.0], x=1.0)
@example(coeffs=[1e308, 1e308], x=10.0)
def test_scalar_horner_matches_numpy_polyval_bitwise(coeffs, x):
    with np.errstate(all="ignore"):
        ref = np.polynomial.polynomial.polyval(x, np.array(coeffs))
    got = models._polyval(x, coeffs)
    assert type(got) is float
    assert _bits(got) == _bits(ref) or (math.isnan(got) and math.isnan(ref))


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=8))
@example(coeffs=[-2.0])
@example(coeffs=[1.0, 1e308, 1e308])
def test_polyder_matches_numpy_polyder_bitwise(coeffs):
    # every order from 1 to one past the degree, where numpy leaves c[0] * 0
    for n in range(1, len(coeffs) + 1):
        with np.errstate(over="ignore"):
            ref = np.polynomial.polynomial.polyder(np.array(coeffs), n)
        got = models._polyder(coeffs, n)
        assert all(type(c) is float for c in got)
        assert np.array(got).tobytes() == ref.tobytes()


def test_polynomial_models_do_not_import_numpy_polynomial():
    script = "\n".join([
        "import sys",
        "from hypobgk import polynomial_model, sigma_eval, taylor_bound",
        "m = polynomial_model([2.0, -0.4, 0.3, 0.05])",
        "sigma_eval(m, 0.5, n=2), taylor_bound(m)",
        "print('numpy.polynomial' in sys.modules)",
    ])
    src = str(Path(models.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


@settings(max_examples=60, deadline=None)
@given(tail=st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=6),
       z_lo=st.floats(-2.0, 2.0), width=st.floats(0.0, 3.0))
@example(tail=[1.0, 1.0, 5.4930206238644256e-18], z_lo=-1.0, width=1.0)
def test_polynomial_bounds_unchanged_by_the_scalar_horner(tail, z_lo, width):
    # the bounds and every sigma derivative are those numpy's polyval gives
    coeffs = [1.0 + sum(abs(a) * 5.0 ** (j + 1) for j, a in enumerate(tail))]
    coeffs += tail
    domain = (z_lo, z_lo + width)
    fast = polynomial_model(coeffs, domain)
    zs = np.linspace(*domain, 5).tolist()
    derivs = [sigma_eval(fast, z, n) for z in zs for n in range(len(coeffs))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_polyval", lambda x, c:
                   np.polynomial.polynomial.polyval(x, np.asarray(c, float)))
        slow = polynomial_model(coeffs, domain)
        assert [sigma_eval(slow, z, n) for z in zs
                for n in range(len(coeffs))] == derivs
    assert _bits(fast.sigma_min) == _bits(slow.sigma_min)
    assert _bits(fast.sigma_max) == _bits(slow.sigma_max)


def test_degree_1100_range_search_stays_finite(monkeypatch):
    # from the 106th on, the derivatives of 1e-9 z^1100 overflow unless
    # scaled; unscaled, every higher level of the chain bisects towards
    # nan values, half a million Horner evaluations in all
    calls = []
    polyval = models._polyval

    def counted(x, coeffs):
        calls.append(x)
        return polyval(x, coeffs)

    monkeypatch.setattr(models, "_polyval", counted)
    model = polynomial_model([5.0] + [0.0] * 1099 + [1e-9])
    assert (model.sigma_min, model.sigma_max) == (5.0, 5.000000001)
    assert len(calls) < 10_000


def test_range_of_a_polynomial_whose_derivatives_overflow():
    # 200! is far beyond the float range, so the derivative chain of this
    # sigma is scaled on its way down; the range must still be the one a
    # dense search finds
    rng = np.random.default_rng(12)
    coeffs = [60.0] + rng.uniform(-1.0, 1.0, 200).tolist()
    m = polynomial_model(coeffs, (-1.0, 1.0))
    grid = np.polynomial.polynomial.polyval(np.linspace(-1.0, 1.0, 20_001),
                                            coeffs)
    searched = poly_extremes_search(coeffs, -1.0, 1.0)
    slack = 8 * np.finfo(float).eps * sum(map(abs, coeffs))
    assert m.sigma_min <= min(grid.min(), searched[0]) + slack
    assert m.sigma_max >= max(grid.max(), searched[1]) - slack
    assert m.sigma_min == pytest.approx(searched[0], rel=1e-9, abs=0)
    assert m.sigma_max == pytest.approx(searched[1], rel=1e-9, abs=0)

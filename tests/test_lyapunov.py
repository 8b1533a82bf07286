"""Transform matrices, minor determinants and the decay certificate."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hypobgk import (
    CertificateError,
    DomainError,
    UsageError,
    alpha_limit,
    alpha_max,
    certify,
    parse_alpha_strategy,
    rate_block,
    verify_grid,
)
from hypobgk import lyapunov
from hypobgk.lyapunov import ALPHA_CAP, TWIST_GAIN
from hypobgk.spectral import I_POWERS
from oracles import (
    alpha_max_search,
    assemble_generator,
    build_reduced_block,
    build_transform,
    certify_array,
    inequality_matrix,
    inequality_pieces,
    lambda_min_search,
    minor_det3,
    minor_det4,
    minor_det5,
    optimized_mu_search,
    transform_bounds,
    transform_eigenvalues,
    verify_dense,
)

# admissible everywhere below: alpha strictly under the k=1 spectral cap
SAFE_ALPHA = 0.2


def test_twist_gain_value():
    assert TWIST_GAIN == pytest.approx(math.sqrt(3.0 + math.sqrt(6.0)), rel=0)


def test_transform_is_identity_plus_corner():
    P = build_transform(3, 0.15, 9)
    assert_allclose(P[4:, 4:], np.eye(5), rtol=0)
    assert_allclose(P, P.conj().T, rtol=0, atol=0)
    # coupling entries scale like 1/k
    expected01 = -1j * 0.15 / 3.0
    assert P[0, 1] == pytest.approx(expected01, abs=1e-16)
    assert P[1, 2] == pytest.approx(math.sqrt(2.0) * expected01, abs=1e-16)
    assert P[2, 3] == pytest.approx(math.sqrt(3.0) * expected01, abs=1e-16)


def test_transform_eigenvalues_closed_form():
    for k in (1, 2, 7):
        P = build_transform(k, SAFE_ALPHA, 12)
        computed = np.linalg.eigvalsh(P)
        assert_allclose(np.sort(transform_eigenvalues(k, SAFE_ALPHA, 12)),
                        computed, rtol=1e-13)


def test_transform_sandwich():
    lo, hi = transform_bounds(SAFE_ALPHA)
    assert lo == pytest.approx(1.0 - SAFE_ALPHA * TWIST_GAIN, rel=1e-15)
    for k in (1, 2, 5):
        eigs = np.linalg.eigvalsh(build_transform(k, SAFE_ALPHA, 8))
        assert eigs[0] >= lo - 1e-14
        assert eigs[-1] <= hi + 1e-14


def test_transform_rejections():
    with pytest.raises(DomainError):
        build_transform(0, 0.1, 8)
    with pytest.raises(CertificateError):
        build_transform(1, 1.0 / TWIST_GAIN, 8)  # loses positivity at k=1


def test_dissipation_matrix_is_block_plus_relaxation():
    # C_k^* P + P C_k equals the 5x5 corner block padded by 2 sigma I;
    # the closed-form corner must match the dense product exactly.
    k, alpha, sigma, l, M = 2, 0.18, 1.7, 0.9, 12
    C = assemble_generator(k, l, sigma, M)
    P = build_transform(k, alpha, M)
    S = C.conj().T @ P + P @ C
    corner = build_reduced_block(k, alpha, sigma, l)
    dense = np.zeros_like(S)
    dense[:5, :5] = corner
    dense[5:, 5:] = 2.0 * sigma * np.eye(M - 5)
    assert_allclose(S, dense, atol=1e-13)


def test_reduced_block_inf_wavenumber():
    # k = inf drops the 1/k coupling terms but keeps the rest
    finite = build_reduced_block(10**9, 0.1, 1.0, 1.0)
    limit = build_reduced_block(math.inf, 0.1, 1.0, 1.0)
    assert_allclose(finite, limit, atol=1e-8)


@pytest.mark.parametrize("k", [1, 3, math.inf])
def test_minor_determinants_match_dense(k):
    alpha, sigma, l = 0.12, 1.4, 0.8
    D = build_reduced_block(k, alpha, sigma, l)
    for order, fn in ((3, minor_det3), (4, minor_det4), (5, minor_det5)):
        dense = np.linalg.det(D[5 - order:, 5 - order:])
        assert fn(k, alpha, sigma, l) == pytest.approx(dense.real, rel=1e-10)
        assert abs(dense.imag) < 1e-10


def test_minor_chain_identities():
    k, alpha, sigma, l = 2, 0.11, 2.2, 0.6
    d3 = minor_det3(k, alpha, sigma, l)
    assert minor_det4(k, alpha, sigma, l) == pytest.approx(
        2.0 * alpha * l * d3, rel=1e-13)
    assert minor_det5(k, alpha, sigma, l) == pytest.approx(
        4.0 * alpha**2 * l**2 * d3, rel=1e-13)


def test_worked_block_values():
    assert minor_det3(1, 0.1, 1.0, 1.0) == pytest.approx(0.332, abs=1e-12)
    assert rate_block(1.0, 0.1, 1.0) == pytest.approx(0.332 / 3.24, abs=1e-12)


def test_alpha_limit_worked_value():
    assert alpha_limit(1.0, 1.0) == pytest.approx((9.0 - math.sqrt(17.0)) / 24.0,
                                                  abs=1e-15)


def test_alpha_limit_maximum_over_l():
    # the best spacing for sigma = 1 is l = sqrt(3)/4
    grid = np.linspace(0.05, 2.0, 2000)
    vals = alpha_limit(grid, 1.0)
    best = grid[int(np.argmax(vals))]
    assert best == pytest.approx(math.sqrt(3.0) / 4.0, abs=2e-3)
    assert np.max(vals) <= 4.0 / (9.0 * math.sqrt(3.0)) + 1e-12


def test_alpha_limit_is_rate_positivity_threshold():
    l, sigma = 0.7, 1.3
    lim = alpha_limit(l, sigma)
    assert minor_det3(1, lim, sigma, l) == pytest.approx(0.0, abs=1e-12)
    assert minor_det3(1, 0.999 * lim, sigma, l) > 0.0
    assert minor_det3(1, 1.001 * lim, sigma, l) < 0.0


def test_rate_block_rejects_inadmissible():
    lim = alpha_limit(1.0, 1.0)
    with pytest.raises(CertificateError):
        rate_block(1.0, lim * 1.01, 1.0)
    with pytest.raises(CertificateError):
        rate_block(1.0, -0.1, 1.0)


def test_tiny_period_is_not_certifiable():
    # l = 2 pi / L makes the float l**4 overflow below L of about 5e-77
    with pytest.raises(CertificateError):
        alpha_limit(2.0 * math.pi / 1e-80, 1.0)
    with pytest.raises(CertificateError):
        certify(1e-80, 1.0, 1.0)


def test_alpha_max_degenerate_and_cap():
    assert alpha_max(1.0, 1.0, 1.0) == pytest.approx(
        (9.0 - math.sqrt(17.0)) / 24.0, abs=1e-15)
    # the minor threshold is scale invariant and tops out at 4/(9 sqrt 3),
    # strictly under the spectral cap, so the cap never actually binds
    assert alpha_limit(2.0, 3.0) == pytest.approx(
        alpha_limit(2.0 / 3.0, 1.0), rel=1e-13)
    assert 4.0 / (9.0 * math.sqrt(3.0)) < ALPHA_CAP
    assert alpha_max(math.sqrt(3.0) / 4.0, 1.0, 1.0) < ALPHA_CAP


def test_alpha_max_interval_is_min_over_sigma():
    lo, hi = 0.5, 3.0
    interval = alpha_max(1.0, lo, hi)
    sweep = min(float(alpha_limit(1.0, s))
                for s in np.linspace(lo, hi, 2001))
    assert interval <= min(sweep, ALPHA_CAP) + 1e-9


def test_certificate_internal_relations():
    cert = certify(2.0 * math.pi, 1.0, 1.0, alpha_strategy=0.1)
    assert cert.l == pytest.approx(1.0, rel=1e-15)
    T = TWIST_GAIN
    assert cert.mu == pytest.approx(0.5 * cert.lambda_min / (1 + 0.1 * T),
                                    rel=1e-14)
    assert cert.ctilde == pytest.approx(
        math.sqrt((1 + 0.1 * T) / (1 - 0.1 * T)), rel=1e-14)
    assert cert.decay_rate == min(cert.mu, cert.sigma_min)
    assert cert.lambda_min == pytest.approx(
        rate_block(1.0, 0.1, 1.0) * (1.0 - 1e-6), rel=1e-12)


def test_optimizer_no_worse_than_midpoint():
    for (lo, hi) in ((1.0, 1.0), (0.5, 2.0), (0.3, 0.9)):
        best = certify(5.0, lo, hi, alpha_strategy="optimize")
        mid = certify(5.0, lo, hi, alpha_strategy="fraction:0.5")
        assert best.mu >= mid.mu - 1e-15


def test_optimize_does_not_call_rate_block_per_trial(monkeypatch):
    # the objective is formed once per certify; the golden refinement
    # alone evaluates it about 40 times
    calls = []
    real = lyapunov.rate_block

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lyapunov, "rate_block", spy)
    certify(2.0 * math.pi, 0.9, 1.1, alpha_strategy="optimize")
    assert len(calls) <= 2


_CERT_L = st.one_of(st.floats(0.3, 60.0), st.sampled_from([1e-310, 1e300]))
_CERT_SIGMA = st.one_of(st.floats(0.05, 20.0),
                        st.sampled_from([1e-300, 1e-170, 1e-158, 1e80]))


@settings(max_examples=150, deadline=None)
@given(L=_CERT_L, lo=_CERT_SIGMA,
       width=st.one_of(st.floats(0.0, 20.0), st.sampled_from([0.0, 1e-12])),
       ulp=st.booleans(),
       strategy=st.sampled_from(["optimize", "optimize", "fraction:0.5",
                                 "fraction:0.95", 0.01]))
def test_certify_matches_array_objective(L, lo, width, ulp, strategy):
    # bit for bit, including the error type, against every lambda_min
    # computed by rate_block's array path
    hi = float(np.nextafter(lo, np.inf)) if ulp else lo + width
    with np.errstate(all="ignore"):
        try:
            expected = certify_array(L, lo, hi, strategy)
        except Exception as exc:
            with pytest.raises(type(exc)):
                certify(L, lo, hi, strategy)
            return
        got = certify(L, lo, hi, strategy)
    for field in dataclasses.fields(got):
        assert getattr(got, field.name) == getattr(expected, field.name), \
            field.name


def test_alpha_strategy_forms():
    fixed = certify(6.0, 1.0, 2.0, alpha_strategy="fixed:0.05")
    assert fixed.alpha == 0.05
    frac = certify(6.0, 1.0, 2.0, alpha_strategy="fraction:0.25")
    assert frac.alpha == pytest.approx(0.25 * frac.alpha_max, rel=1e-14)
    with pytest.raises(CertificateError):
        certify(6.0, 1.0, 2.0, alpha_strategy="nonsense")
    with pytest.raises(CertificateError):
        certify(6.0, 1.0, 2.0, alpha_strategy=2.0)  # above alpha_max


@pytest.mark.parametrize("strategy, kind, value", [
    (" optimize ", "optimize", math.nan),
    ("fixed: 0.05", "fixed", 0.05),
    (0.05, "fixed", 0.05),
    ("fraction:0.25 ", "fraction", 0.25),
])
def test_parse_alpha_strategy_accepts(strategy, kind, value):
    got_kind, got_value = parse_alpha_strategy(strategy)
    assert got_kind == kind
    assert got_value == value or math.isnan(got_value) and math.isnan(value)


@pytest.mark.parametrize("strategy", [
    "fixed:abc", "fraction:", "fixed:nan", "fixed:inf", "fraction:1",
    "fraction:0", "optimize:1", "fixed 0.1", True, False, None, [0.1],
    math.nan, 10**400,
])
def test_parse_alpha_strategy_rejects(strategy):
    with pytest.raises(CertificateError):
        parse_alpha_strategy(strategy)
    with pytest.raises(CertificateError):
        certify(6.0, 1.0, 2.0, alpha_strategy=strategy)


def test_verify_inequality_positive_for_certificate():
    cert = certify(2.0 * math.pi, 0.8, 1.2)
    for k in (1, 2, 10, 50):
        for M in (5, 9, 17):
            assert verify_dense(k, cert.l, 1.0, cert, M) > -1e-12


def test_verify_inequality_rejects_k0():
    cert = certify(2.0 * math.pi, 1.0, 1.0)
    with pytest.raises(DomainError):
        verify_dense(0, cert.l, 1.0, cert, 8)


def _check_verify_grid_matches_pointwise(sigmas):
    cert = certify(4.0, 0.5, 1.5)
    ks = [1, 3, 7]
    grid = verify_grid(cert, ks, sigmas, 10)
    for i, k in enumerate(ks):
        for j, s in enumerate(sigmas):
            assert grid[0][i, j] == pytest.approx(
                verify_dense(k, cert.l, float(s), cert, 10), rel=1e-10,
                abs=1e-12)
    # and bit for bit the grids of each point alone
    points = np.array([[np.ravel(verify_grid(cert, [k], [s], 10))
                        for s in sigmas] for k in ks])
    assert np.stack(grid, axis=-1).tobytes() == points.tobytes()


def test_verify_grid_matches_pointwise():
    _check_verify_grid_matches_pointwise(np.linspace(0.5, 1.5, 5))


def test_verify_grid_matches_pointwise_unsorted_with_repeats():
    # each distinct sigma is solved once
    _check_verify_grid_matches_pointwise(
        np.array([1.25, 0.5, 1.25, 1.5, 0.5, 0.75, 1.25]))


def test_verify_grid_detects_inflated_rate():
    import dataclasses
    cert = certify(2.0 * math.pi, 1.0, 1.0)
    bad = dataclasses.replace(cert, mu=cert.mu * 10.0)
    grid, _ = verify_grid(bad, [1, 2], np.array([1.0]), 8)
    assert grid.min() < -1e-6


def _dense_grid(cert, ks, sigmas, M):
    """Smallest eigenvalue and max-norm of every dense inequality matrix."""
    mats = [[inequality_matrix(k, cert.l, float(s), cert, M) for s in sigmas]
            for k in ks]
    mins = np.array([[np.linalg.eigvalsh(S)[0] for S in row] for row in mats])
    norms = np.array([[np.abs(S).max() for S in row] for row in mats])
    return mins, norms


@settings(max_examples=40, deadline=None)
@given(L=st.floats(1.0, 20.0), lo=st.floats(0.2, 5.0), width=st.floats(0.0, 5.0),
       strategy=st.sampled_from(["optimize", "fraction:0.05", "fraction:0.5",
                                 "fraction:0.95"]),
       mu_scale=st.sampled_from([1.0, 10.0, 50.0]),
       M=st.sampled_from([5, 6, 7, 40, 80]),
       ks=st.lists(st.integers(1, 60), min_size=1, max_size=4),
       negative=st.integers(-60, -1))
def test_verify_grid_matches_dense_oracle(L, lo, width, strategy, mu_scale, M,
                                          ks, negative):
    cert = certify(L, lo, lo + width, alpha_strategy=strategy)
    cert = dataclasses.replace(cert, mu=cert.mu * mu_scale)
    ks = ks + [negative]
    sigmas = np.linspace(cert.sigma_min, cert.sigma_max, 3)
    mins, norms = verify_grid(cert, ks, sigmas, M)
    dense_mins, dense_norms = _dense_grid(cert, ks, sigmas, M)
    assert np.all(np.abs(mins - dense_mins) <= 1e-14 * dense_norms)
    assert np.all(np.abs(norms - dense_norms) <= 2 * np.spacing(dense_norms))


@settings(max_examples=300, deadline=None)
@given(L=st.floats(0.05, 200.0), lo=st.floats(1e-3, 1e3),
       ratio=st.floats(1.0, 10.0),
       strategy=st.sampled_from(["optimize", "fraction:1e-300",
                                 "fraction:1e-12", "fraction:0.5",
                                 "fraction:0.999999"]),
       mu_scale=st.one_of(st.just(0.0), st.floats(1e-3, 1e30)),
       ks=st.lists(st.integers(-10**6, 10**6).filter(bool), min_size=1,
                   max_size=4),
       where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_verify_grid_corner_covers_the_tail(L, lo, ratio, strategy, mu_scale,
                                            ks, where):
    # beyond its 5 x 5 corner S_k(sigma) is (2 sigma - 2 mu) I, and that
    # tail is the corner's entry (4, 4): the corner's computed smallest
    # eigenvalue lies at or below it and its max-norm covers it, so the
    # tail adds nothing at any M, also when mu dwarfs sigma
    try:
        cert = certify(L, lo, lo * ratio, alpha_strategy=strategy)
    except CertificateError:
        assume(False)
    cert = dataclasses.replace(cert, mu=cert.mu * mu_scale)
    sigmas = cert.sigma_min + (cert.sigma_max - cert.sigma_min) * np.array(where)
    mins, norms = verify_grid(cert, ks, sigmas, 5)
    tail = 2.0 * sigmas - 2.0 * cert.mu
    assert np.all(mins <= tail)
    assert np.all(norms >= np.abs(tail))


def test_verify_grid_with_mu_beyond_sigma():
    # 2 sigma - 2 mu < 0, so the M - 5 tail eigenvalues are negative too;
    # the corner still binds, its entry (3, 3) is 2 sigma - 6 l alpha - 2 mu
    cert = certify(2.0 * math.pi, 0.8, 1.2)
    bad = dataclasses.replace(cert, mu=5.0 * cert.sigma_max)
    ks, sigmas, M = [1, 2, 7, -3], np.linspace(0.8, 1.2, 4), 12
    mins, norms = verify_grid(bad, ks, sigmas, M)
    dense_mins, dense_norms = _dense_grid(bad, ks, sigmas, M)
    tail = 2.0 * sigmas - 2.0 * bad.mu
    assert np.all(tail < 0.0)
    assert np.all(np.abs(mins - dense_mins) <= 1e-14 * dense_norms)
    assert np.all(np.abs(norms - dense_norms) <= 2 * np.spacing(dense_norms))
    assert np.all(mins <= tail - 6.0 * bad.l * bad.alpha + 1e-14 * norms)
    assert np.all(norms >= np.abs(tail))
    # the tail value is an eigenvalue of the dense matrix, M - 5 times
    for s, t in zip(sigmas, tail):
        eigs = np.linalg.eigvalsh(inequality_matrix(2, bad.l, float(s), bad, M))
        assert np.count_nonzero(np.abs(eigs - t) <= 1e-13) >= M - 5


@pytest.mark.parametrize("k", [1, 2, 7, -3])
def test_assembled_corner_is_the_paper_block(k):
    cert = certify(5.0, 0.7, 1.9)
    M, sigma = 9, 1.3
    A0, A1, B0, B1 = inequality_pieces(cert.l, cert.alpha, cert.mu, M)
    u = 1.0 / k
    A, B = A0 + u * A1, B0 + u * B1
    S = A + sigma * B
    P = build_transform(k, cert.alpha, M)
    corner = (build_reduced_block(k, cert.alpha, sigma, cert.l)
              - 2.0 * cert.mu * P[:5, :5])
    assert_allclose(S[:5, :5], corner, rtol=0, atol=1e-14)
    # beyond the corner the matrix is exactly (2 sigma - 2 mu) I
    tail = np.diag(np.full(M - 5, 2.0 * sigma - 2.0 * cert.mu))
    assert np.array_equal(S[5:, 5:], tail)
    assert not np.any(S[:5, 5:]) and not np.any(S[5:, :5])


# entry (p, q) times i^(p-q): D X D^-1 for D = diag(i^m) on the corner
_CORNER_PHASE = I_POWERS[np.subtract.outer(np.arange(5), np.arange(5)) % 4]


@pytest.mark.parametrize("k", [1, 2, 7, -3])
def test_corner_pieces_are_the_paper_block_in_the_real_frame(k):
    cert = certify(5.0, 0.7, 1.9)
    sigma = 1.3
    pieces = lyapunov._corner_pieces(cert.l, cert.alpha, cert.mu)
    for mat in pieces:
        assert mat.dtype == float and np.array_equal(mat, mat.T)
    A0, A1, B0, B1 = pieces
    u = 1.0 / k
    S = (A0 + u * A1) + sigma * (B0 + u * B1)
    P = build_transform(k, cert.alpha, 5)
    corner = build_reduced_block(k, cert.alpha, sigma, cert.l) - 2.0 * cert.mu * P
    assert_allclose(S * _CORNER_PHASE, corner, rtol=0, atol=1e-14)


def _rotated_dense_grid(cert, ks, sigmas, M):
    """verify_grid from the complex pieces at size M: cut to the 5 x 5
    corner, turned real by entry (p, q) times i^(q-p), one eigensolve per
    k, and the tail eigenvalue 2 sigma - 2 mu taken in when M > 5."""
    pieces = [mat[:5, :5] * _CORNER_PHASE.conj()
              for mat in inequality_pieces(cert.l, cert.alpha, cert.mu, M)]
    assert not any(np.any(mat.imag) for mat in pieces)
    A0, A1, B0, B1 = (mat.real for mat in pieces)
    tail = 2.0 * sigmas - 2.0 * cert.mu
    mins, norms = [], []
    for k in ks:
        u = 1.0 / k
        S = (A0 + u * A1) + sigmas[:, None, None] * (B0 + u * B1)
        low, top = np.linalg.eigvalsh(S)[:, 0], np.abs(S).max(axis=(1, 2))
        if M > 5:
            low, top = np.minimum(low, tail), np.maximum(top, np.abs(tail))
        mins.append(low)
        norms.append(top)
    return np.array(mins), np.array(norms)


@settings(max_examples=200, deadline=None)
@given(L=st.floats(0.3, 60.0), lo=st.floats(0.05, 40.0),
       ratio=st.floats(1.0, 5.0),
       strategy=st.sampled_from(["optimize", "fraction:0.05", "fraction:0.5",
                                 "fraction:0.95"]),
       mu_scale=st.floats(1.0, 1e6), M=st.sampled_from([5, 6, 40]))
def test_verify_grid_is_the_rotated_dense_pieces_bitwise(L, lo, ratio,
                                                         strategy, mu_scale,
                                                         M):
    try:
        cert = certify(L, lo, lo * ratio, alpha_strategy=strategy)
    except CertificateError:
        assume(False)
    cert = dataclasses.replace(cert, mu=cert.mu * mu_scale)
    ks = list(range(1, 51)) + [-3]
    sigmas = np.linspace(cert.sigma_min, cert.sigma_max, 7)
    mins, norms = verify_grid(cert, ks, sigmas, M)
    dense_mins, dense_norms = _rotated_dense_grid(cert, ks, sigmas, M)
    assert np.array_equal(mins, dense_mins)
    assert np.array_equal(norms, dense_norms)


def test_verify_grid_rejects_k0():
    cert = certify(2.0 * math.pi, 1.0, 1.0)
    with pytest.raises(DomainError):
        verify_grid(cert, [1, 0], np.array([1.0]), 8)


@pytest.mark.parametrize("k", [1.5, -0.25, math.nan, math.inf])
def test_verify_grid_rejects_non_integer_k(k):
    cert = certify(2.0 * math.pi, 1.0, 1.0)
    with pytest.raises(UsageError, match="integers"):
        verify_grid(cert, [1, k], np.array([1.0]), 8)
    # an integral float is the mode itself
    assert np.array_equal(verify_grid(cert, [2.0], np.array([1.0]), 8),
                          verify_grid(cert, [2], np.array([1.0]), 8))


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_verify_grid_rejects_sigma_not_positive_and_finite(sigma):
    cert = certify(2.0 * math.pi, 1.0, 1.0)
    with pytest.raises(UsageError, match="positive and finite"):
        verify_grid(cert, [1], np.array([1.0, sigma]), 8)


@pytest.mark.parametrize("M", [0, 4, 5.5])
def test_verify_grid_rejects_bad_hermite_count(M):
    cert = certify(2.0 * math.pi, 1.0, 1.0)
    message = "integer" if M == 5.5 else "at least 5 Hermite terms"
    with pytest.raises(UsageError, match=message):
        verify_grid(cert, [1], np.array([1.0]), M)
    # an integral float is the count itself
    assert np.array_equal(verify_grid(cert, [2], np.array([1.0]), 8.0),
                          verify_grid(cert, [2], np.array([1.0]), 8))


def test_verify_grid_is_the_same_for_every_m_beyond_the_corner():
    # the tail (2 sigma - 2 mu) I is taken in closed form, so nothing of
    # size M is built and every M >= 6 gives the same bits
    cert = certify(3.0, 0.6, 2.4)
    ks, sigmas = [1, 2, 7, -3, 50], np.linspace(0.6, 2.4, 5)
    results = {}
    # at the second mu the tail 2 sigma - 2 mu is negative
    for mu in (cert.mu, 5.0 * cert.sigma_max):
        bad = dataclasses.replace(cert, mu=mu)
        for M in (6, 7, 40, 10**6):
            tracemalloc.start()
            results[M] = np.stack(verify_grid(bad, ks, sigmas, M)).tobytes()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # the peak of the M = 10**6 call; one dense M x M piece is 16 TB
        assert peak < 4 * 2**20
        assert len(set(results.values())) == 1


@settings(max_examples=40, deadline=None)
@given(L=st.floats(0.3, 60.0), lo=st.floats(0.05, 20.0),
       width=st.floats(0.0, 20.0),
       strategy=st.sampled_from(["optimize", "fraction:0.05", "fraction:0.95"]),
       mu_scale=st.sampled_from([1.0, 10.0]),
       M=st.sampled_from([5, 6, 40]),
       ks=st.lists(st.integers(1, 10**6), min_size=1, max_size=5))
def test_verify_grid_is_symmetric_in_k(L, lo, width, strategy, mu_scale, M, ks):
    # u = 1/k -> -u conjugates S_k(sigma), so k and -k give the same minima
    cert = certify(L, lo, lo + width, alpha_strategy=strategy)
    cert = dataclasses.replace(cert, mu=cert.mu * mu_scale)
    sigmas = np.linspace(cert.sigma_min, cert.sigma_max, 3)
    plus, plus_norms = verify_grid(cert, ks, sigmas, M)
    minus, minus_norms = verify_grid(cert, [-k for k in ks], sigmas, M)
    assert np.array_equal(plus, minus)
    assert np.array_equal(plus_norms, minus_norms)


@settings(max_examples=60, deadline=None)
@given(l=st.floats(0.2, 6.0), sigma=st.floats(0.2, 5.0),
       frac=st.floats(0.05, 0.95))
def test_rate_block_positive_under_limit(l, sigma, frac):
    alpha = frac * float(alpha_limit(l, sigma))
    assert rate_block(l, alpha, sigma) > 0.0


@settings(max_examples=40, deadline=None)
@given(lo=st.floats(0.3, 2.0), width=st.floats(0.0, 2.0),
       L=st.floats(1.0, 15.0))
def test_certificates_verify_their_own_inequality(lo, width, L):
    cert = certify(L, lo, lo + width)
    assert cert.mu > 0.0
    sigmas = np.linspace(cert.sigma_min, cert.sigma_max, 7)
    mins, norms = verify_grid(cert, [1, 2, 5], sigmas, 8)
    assert np.all(mins >= -1e-10 * norms)


# Closed-form minimizations over sigma against the searches they replaced.
# ULPS bounds the rounding of a handful of float operations.
ULPS = 8 * np.finfo(float).eps
SAFETY = 1.0 - 1e-6


def _dense_min(f, lo, hi, num=200_001):
    return float(np.min(f(np.linspace(lo, hi, num))))


@settings(max_examples=40, deadline=None)
@given(L=st.floats(1.0, 20.0), lo=st.floats(0.05, 10.0),
       width=st.floats(0.0, 10.0), frac=st.floats(0.02, 0.98))
def test_lambda_min_is_exact_minimum_over_sigma(L, lo, width, frac):
    hi = lo + width
    l = 2.0 * math.pi / L
    alpha = frac * alpha_max(l, lo, hi)
    lam = certify(L, lo, hi, alpha_strategy=alpha).lambda_min
    # never above the searched or the densely sampled minimum
    assert lam <= lambda_min_search(l, alpha, lo, hi, 500) * SAFETY * (1 + ULPS)
    dense = _dense_min(lambda s: rate_block(l, alpha, s), lo, hi)
    assert lam <= dense * SAFETY * (1 + ULPS)
    # and attained: the smaller endpoint value of rate_block
    ends = min(rate_block(l, alpha, lo), rate_block(l, alpha, hi)) * SAFETY
    assert lam == pytest.approx(ends, rel=ULPS, abs=0)


@settings(max_examples=60, deadline=None)
@given(l=st.floats(1e-3, 1e3), sigma=st.floats(1e-3, 1e3))
def test_admissible_sigma_exceeds_rate_block_critical_point(l, sigma):
    # alpha < alpha_limit(l, sigma) < sigma / (3 l), so the critical point
    # sigma = 3 alpha l of rate_block is never admissible
    assert 3.0 * l * alpha_limit(l, sigma) < sigma


@settings(max_examples=40, deadline=None)
@given(l=st.floats(0.05, 20.0), lo=st.floats(0.01, 20.0),
       width=st.floats(0.0, 50.0))
def test_alpha_max_is_minimum_of_alpha_limit(l, lo, width):
    hi = lo + width
    amax = alpha_max(l, lo, hi)
    dense = _dense_min(lambda s: alpha_limit(l, s), lo, hi)
    assert amax <= min(dense, ALPHA_CAP) * (1 + ULPS)
    assert amax <= alpha_max_search(l, lo, hi, 500) * (1 + ULPS)
    ends = min(alpha_limit(l, lo), alpha_limit(l, hi), ALPHA_CAP)
    assert amax == pytest.approx(ends, rel=ULPS, abs=0)


@settings(max_examples=15, deadline=None)
@given(L=st.floats(1.0, 20.0), lo=st.floats(0.1, 6.0),
       width=st.floats(0.0, 6.0))
def test_optimized_mu_no_worse_than_searched(L, lo, width):
    hi = lo + width
    mu = certify(L, lo, hi, alpha_strategy="optimize").mu
    assert mu >= optimized_mu_search(L, lo, hi, 300) * (1 - 1e-12)


def _shrink(lo, hi, cut, ulps):
    """Sub-interval of [lo, hi] between the fractions in cut, moved in by ulps."""
    a, b = sorted(cut)
    lo2, hi2 = lo + a * (hi - lo), lo + b * (hi - lo)
    for _ in range(ulps):
        lo2, hi2 = np.nextafter(lo2, np.inf), np.nextafter(hi2, -np.inf)
    lo2 = min(max(lo2, lo), hi)
    return float(lo2), float(min(max(hi2, lo2), hi))


SHRINK = dict(L=st.floats(1.0, 20.0), lo=st.floats(0.1, 6.0),
              width=st.floats(0.0, 6.0),
              cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
              ulps=st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(frac=st.floats(0.02, 0.98), **SHRINK)
def test_shrinking_sigma_interval_never_lowers_rate_fixed_alpha(
        frac, L, lo, width, cut, ulps):
    # exact in real arithmetic; rate_block's rounding near alpha_limit
    # (cancellation in minor_det3) lowered it by up to 9.5e-14 relative on
    # shrinks of a few ulps, so the comparison allows 1e-12
    hi = lo + width
    lo2, hi2 = _shrink(lo, hi, cut, ulps)
    alpha = frac * alpha_max(2.0 * math.pi / L, lo, hi)
    wide = certify(L, lo, hi, alpha_strategy=alpha)
    narrow = certify(L, lo2, hi2, alpha_strategy=alpha)
    assert narrow.lambda_min >= wide.lambda_min * (1 - 1e-12)
    assert narrow.decay_rate >= wide.decay_rate * (1 - 1e-12)


@settings(max_examples=25, deadline=None)
@given(**SHRINK)
def test_shrinking_sigma_interval_never_lowers_rate_optimize(
        L, lo, width, cut, ulps):
    # optimize maximizes mu, so mu and the rate min(mu, sigma_min) may not
    # fall; lambda_min = 2 mu (1 + alpha TWIST_GAIN) moves with the
    # refined alpha and is not monotone
    hi = lo + width
    lo2, hi2 = _shrink(lo, hi, cut, ulps)
    wide = certify(L, lo, hi, alpha_strategy="optimize")
    narrow = certify(L, lo2, hi2, alpha_strategy="optimize")
    assert narrow.mu >= wide.mu * (1 - 1e-9)
    assert narrow.decay_rate >= wide.decay_rate * (1 - 1e-9)

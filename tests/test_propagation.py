"""Exact exponential propagation against structure and a reference integrator."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hypobgk import (
    ExactPropagator,
    InitialDataSpec,
    ModeLattice,
    UsageError,
    affine_model,
    assemble_generator,
    augmented_generator,
    build_operators,
    constant_model,
    entropy_series,
    polynomial_model,
    project_initial,
    propagate,
    sigma_eval,
    trig_model,
)
from hypobgk import propagation
from hypobgk.propagation import _complex_frame
from oracles import build_transform, evolve_reference, step_matrix_reference

LAT = ModeLattice(K=3, L=2 * math.pi, M=8)

# sigma'' != 0 for trig and polynomial; all three stay positive on [-1, 1]
MODELS = {
    "affine": affine_model(1.0, 0.3),
    "trig": trig_model(2.0, 0.5, 1.0),
    "polynomial": polynomial_model([1.5, 0.3, -0.4, 0.2]),
}
STEP_SIZES = (1e-3, 0.1, 1.0, 10.0)


def _random_state(levels=0, seed=2, lattice=LAT, z=0.2):
    spec = InitialDataSpec(kind="random", seed=seed)
    return project_initial(spec, lattice, levels=levels, z=z)


def _propagator(state, model):
    return ExactPropagator(state.lattice, model, state.z, state.levels)


def test_augmented_generator_blocks():
    model = trig_model(2.0, 0.5, 1.0)
    z = 0.3
    ops = build_operators(LAT.M)
    derivs = [sigma_eval(model, z, n=i) for i in range(3)]
    G = augmented_generator(2, LAT.l, derivs, ops)
    M = LAT.M
    base = assemble_generator(2, LAT.l, derivs[0], ops)
    for n in range(3):
        block = G[n * M:(n + 1) * M, n * M:(n + 1) * M]
        assert_allclose(block, base, rtol=0)
        for i in range(1, n + 1):
            sub = G[n * M:(n + 1) * M, (n - i) * M:(n - i + 1) * M]
            assert_allclose(sub, math.comb(n, i) * derivs[i] * ops.relax,
                            rtol=0, atol=0)
        # nothing above the diagonal: lower levels never see higher ones
        assert np.count_nonzero(G[n * M:(n + 1) * M, (n + 1) * M:]) == 0


def test_exact_matches_reference():
    model = affine_model(1.0, 0.1)
    state = _random_state(levels=1)
    a = _propagator(state, model).evolve(state, 0.7)
    b = evolve_reference(state, 0.7, model, substeps=2000)
    assert np.max(np.abs(a.data - b.data)) < 1e-9
    assert a.t == pytest.approx(0.7)


def test_semigroup_property():
    model = trig_model(2.0, 0.5, 1.0)
    state = _random_state(levels=2)
    prop = _propagator(state, model)
    one = prop.evolve(state, 1.0)
    half = prop.evolve(prop.evolve(state, 0.5), 0.5)
    assert np.max(np.abs(one.data - half.data)) < 1e-12
    assert half.t == pytest.approx(1.0, abs=1e-15)


def test_zero_step_is_identity():
    model = constant_model(1.0)
    state = _random_state()
    out = _propagator(state, model).evolve(state, 0.0)
    assert np.array_equal(out.data, state.data)
    assert out is not state


def test_negative_step_rejected():
    model = constant_model(1.0)
    state = _random_state()
    with pytest.raises(UsageError):
        _propagator(state, model).evolve(state, -0.1)


def test_k0_components_decay_at_sigma():
    # mode k = 0 relaxes coefficient-wise at exactly sigma(z)
    model = affine_model(1.0, 0.1)
    z = 0.4
    state = _random_state(z=z)
    out = _propagator(state, model).evolve(state, 2.0)
    decay = math.exp(-sigma_eval(model, z) * 2.0)
    assert_allclose(out.data[0, 0, 3:], state.data[0, 0, 3:] * decay,
                    rtol=1e-13)
    assert np.all(np.abs(out.data[0, 0, :3]) == 0.0)


def test_propagator_cache_and_checks():
    model = constant_model(1.5)
    prop = ExactPropagator(LAT, model, 0.0, 0)
    m1 = prop.step_matrix(1, 0.25)
    jets = prop._jets[0.25]
    # a second lookup expands the cached jets again, it builds nothing
    assert np.array_equal(prop.step_matrix(1, 0.25), m1)
    assert prop._jets == {0.25: jets} and prop._jets[0.25] is jets
    state = _random_state(z=0.0)
    other_z = _random_state(z=0.3)
    with pytest.raises(UsageError):
        prop.evolve(other_z, 0.1)
    deeper = _random_state(levels=1, z=0.0)
    with pytest.raises(UsageError):
        prop.evolve(deeper, 0.1)
    wrong_lat = _random_state(lattice=ModeLattice(K=2, L=2 * math.pi, M=8),
                              z=0.0)
    with pytest.raises(UsageError):
        prop.evolve(wrong_lat, 0.1)


def test_trajectory_matches_single_steps():
    model = trig_model(2.0, 0.3, 0.7)
    state = _random_state(levels=1)
    times = [0.0, 0.5, 1.25, 3.0]
    rows = [[sigma_eval(model, state.z, n) for n in range(2)]]
    snaps = list(propagate(state.data[None], rows, LAT.l,
                           build_operators(LAT.M), np.diff(times, prepend=0.0)))
    prop = _propagator(state, model)
    direct = state
    last = 0.0
    for expect, t in zip(snaps, times):
        direct = prop.evolve(direct, t - last)
        last = t
        assert direct.t == t
        assert np.max(np.abs(direct.data - _complex_frame(expect[0]))) < 1e-12


def test_sensitivity_level_against_finite_differences():
    # level 1 of the augmented flow is the z-derivative of level 0
    model = trig_model(2.0, 0.5, 1.0)
    z, eps, T = 0.2, 1e-5, 1.5
    spec = InitialDataSpec(kind="random", seed=9, fill="level0")
    center = project_initial(spec, LAT, levels=1, z=z)
    up = project_initial(spec, LAT, levels=1, z=z + eps)
    down = project_initial(spec, LAT, levels=1, z=z - eps)
    lvl1 = _propagator(center, model).evolve(center, T).data[:, 1]
    fd = (_propagator(up, model).evolve(up, T).data[:, 0]
          - _propagator(down, model).evolve(down, T).data[:, 0]) / (2 * eps)
    assert np.max(np.abs(lvl1 - fd)) < 1e-8


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("variant, M, N", [
    *[(v, M, N) for v in MODELS for M in (5, 20) for N in range(4)],
    ("affine", 60, 0), ("trig", 60, 1), ("polynomial", 60, 0),
])
def test_step_matrix_against_extended_precision(variant, M, N):
    # K = 16 at l = 1 puts 1-norms of dt G_K up to about 2e3 (9 squarings)
    K, z = 16, 0.3
    lattice = ModeLattice(K=K, L=2 * math.pi, M=M)
    prop = ExactPropagator(lattice, MODELS[variant], z, N)
    for dt in STEP_SIZES:
        for k in (0, 1, K):
            ref = step_matrix_reference(k, lattice.l, dt, prop.sigma_derivs, M)
            assert _rel_err(prop.step_matrix(k, dt), ref) < 1e-13, (dt, k)


@pytest.mark.parametrize("variant", sorted(MODELS))
@pytest.mark.parametrize("M, N", [(5, 3), (20, 2), (60, 1)])
def test_step_matrix_against_dense_expm(variant, M, N):
    K, z = 16, -0.6
    lattice = ModeLattice(K=K, L=2 * math.pi, M=M)
    prop = ExactPropagator(lattice, MODELS[variant], z, N)
    for dt in STEP_SIZES:
        for k in (0, 1, K):
            G = augmented_generator(k, lattice.l, prop.sigma_derivs, prop.ops)
            dense = scipy.linalg.expm(-dt * G)
            assert _rel_err(prop.step_matrix(k, dt), dense) < 2e-13, (dt, k)


def test_step_matrix_builds_every_mode_of_a_step_size():
    prop = ExactPropagator(LAT, MODELS["trig"], 0.1, 2)
    prop.step_matrix(2, 0.5)
    assert list(prop._jets) == [0.5]
    jets = prop._jets[0.5]
    assert jets.shape == (1, LAT.K + 1, 3, LAT.M, LAT.M)
    for k in range(LAT.K + 1):
        prop.step_matrix(k, 0.5)
    assert prop._jets[0.5] is jets
    # a mode outside 0..K is built on its own and not cached
    prop.step_matrix(-2, 0.5)
    assert list(prop._jets) == [0.5] and prop._jets[0.5] is jets


def test_core_drops_step_jets_after_their_last_use(monkeypatch):
    # without a cache of its own a run keeps the jets of a step size only
    # until its last step; a cache passed in keeps every step size
    seen = []
    cached_jets = propagation._cached_jets

    def spy(jets, dt, *args):
        seen.append((jets, dt))
        return cached_jets(jets, dt, *args)

    monkeypatch.setattr(propagation, "_cached_jets", spy)
    model = MODELS["affine"]
    zs = (-0.5, 0.5)
    data = np.stack([project_initial(InitialDataSpec(kind="random", seed=2),
                                     LAT, levels=1, z=z).data for z in zs])
    rows = [[sigma_eval(model, z, n) for n in range(2)] for z in zs]
    ops = build_operators(LAT.M)
    dts = [0.1, 0.2, 0.1, 0.0, 0.3, 0.2, 0.3]
    held = []
    own = []
    for sample in propagation.propagate(data, rows, LAT.l, ops, dts):
        own.append(sample)
        held.append(sorted(seen[-1][0]))
    assert held == [[0.1], [0.1, 0.2], [0.2], [0.2], [0.2, 0.3], [0.3], []]
    jets = {}
    kept = list(propagation.propagate(data, rows, LAT.l, ops, dts, jets))
    assert sorted(jets) == [0.1, 0.2, 0.3]
    for a, b in zip(own, kept):
        assert np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 6), dt=st.floats(1e-3, 10.0), z=st.floats(-1.0, 1.0),
       N=st.integers(0, 2), variant=st.sampled_from(sorted(MODELS)))
def test_opposite_modes_give_conjugate_step_matrices(k, dt, z, N, variant):
    lattice = ModeLattice(K=6, L=2 * math.pi, M=8)
    prop = ExactPropagator(lattice, MODELS[variant], z, N)
    G = augmented_generator(k, lattice.l, prop.sigma_derivs, prop.ops)
    assert np.array_equal(
        augmented_generator(-k, lattice.l, prop.sigma_derivs, prop.ops),
        G.conj())
    plus, minus = prop.step_matrix(k, dt), prop.step_matrix(-k, dt)
    assert np.max(np.abs(minus - plus.conj())) <= 1e-15 * np.max(np.abs(plus))


@pytest.mark.parametrize("N", [0, 2])
def test_batched_core_matches_single_z_runs_bit_for_bit(N, monkeypatch):
    # build slices of 1 and 4 z rows must give the same bits, and so must
    # every z stepped alone through ExactPropagator
    model = MODELS["trig"]
    zs = np.linspace(-0.9, 0.8, 7)
    times = [0.0, 0.3, 0.6, 1.7, 1.7, 5.0]
    rng = np.random.default_rng(5)
    stacks = [project_initial(InitialDataSpec(kind="random", seed=int(s)),
                              LAT, levels=N, z=float(z))
              for s, z in zip(rng.integers(0, 1000, len(zs)), zs)]
    data = np.stack([s.data for s in stacks])
    rows = [[sigma_eval(model, float(z), n) for n in range(N + 1)] for z in zs]
    dts = np.diff(times, prepend=0.0)
    runs = []
    for width in (1, 4):
        monkeypatch.setattr(propagation, "_BUILD_SLICE", width)
        runs.append(list(propagation.propagate(
            data, rows, LAT.l, build_operators(LAT.M), dts)))
    for a, b in zip(*runs):
        assert np.array_equal(a, b)
    for i, (z, state) in enumerate(zip(zs, stacks)):
        prop = ExactPropagator(LAT, model, float(z), N)
        snap = state
        for j, dt in enumerate(dts):
            snap = prop.evolve(snap, dt)
            assert np.array_equal(snap.data, _complex_frame(runs[0][j][i]))
            # the real-frame step agrees with the dense complex step matrices
            if j:
                prev = _complex_frame(runs[0][j - 1][i])
                dense = np.stack([prop.step_matrix(k, dt) @ prev[k].reshape(-1)
                                  for k in range(LAT.K + 1)])
                assert _rel_err(snap.data.reshape(dense.shape), dense) < 1e-13


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 6), dt=st.floats(1e-3, 10.0), z=st.floats(-1.0, 1.0),
       alpha=st.floats(0.0, 0.3), seed=st.integers(0, 2**16))
def test_opposite_modes_have_equal_entropy(k, dt, z, alpha, seed):
    # a real field has hhat_{-k} = conj(hhat_k), and P_{-k} = conj(P_k), so
    # the pair (k, -k) carries twice the entropy of mode k: the factor 2 of
    # the twisted entropy
    lattice = ModeLattice(K=6, L=2 * math.pi, M=8)
    prop = ExactPropagator(lattice, MODELS["trig"], z, 0)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    plus = prop.step_matrix(k, dt) @ x
    minus = prop.step_matrix(-k, dt) @ x.conj()
    e_plus = np.vdot(plus, build_transform(k, alpha, 8) @ plus).real
    e_minus = np.vdot(minus, build_transform(-k, alpha, 8) @ minus).real
    assert abs(e_plus - e_minus) <= 1e-14 * abs(e_plus)
    data = np.zeros((lattice.K + 1, 1, 8), dtype=complex)
    data[k, 0] = plus
    pair = entropy_series(data[None], 0, alpha)[0]
    assert abs(pair - (e_plus + e_minus)) <= 1e-14 * pair


def _stacks(model, lattice, zs, N, seed=2):
    data = np.stack([project_initial(InitialDataSpec(kind="random", seed=seed),
                                     lattice, levels=N, z=z).data for z in zs])
    rows = [[sigma_eval(model, z, n) for n in range(N + 1)] for z in zs]
    return data, rows


def test_generator_powers_built_once_per_slice_and_released(monkeypatch):
    # a run builds the powers of each z slice once, keeps them only while
    # a later step size still needs a build, and a run of one step size
    # keeps none after its step
    built = []
    generator_powers = propagation._generator_powers

    def spy(*args):
        powers = generator_powers(*args)
        built.append([weakref.ref(a) for a in powers[3:]])
        return powers

    monkeypatch.setattr(propagation, "_generator_powers", spy)
    monkeypatch.setattr(propagation, "_BUILD_SLICE", 2)

    def held():
        return sum(ref() is not None for refs in built for ref in refs)

    data, rows = _stacks(MODELS["trig"], LAT, (-0.5, 0.1, 0.5), 1)
    ops = build_operators(LAT.M)
    dts = [0.1, 0.2, 0.1, 0.0, 0.3, 0.2, 0.3]
    seen = [(len(built), held()) for _ in
            propagation.propagate(data, rows, LAT.l, ops, dts)]
    # two slices of G and its powers, alive until the build of 0.3
    assert seen == [(2, 4)] * 4 + [(2, 0)] * 3
    built.clear()
    seen = [(len(built), held()) for _ in
            propagation.propagate(data, rows, LAT.l, ops, [0.25, 0.0, 0.25])]
    assert seen == [(2, 0)] * 3
    # step sizes already in a cache passed in are not built again
    built.clear()
    jets = {}
    list(propagation.propagate(data, rows, LAT.l, ops, [0.1], jets))
    seen = [(len(built), held()) for _ in
            propagation.propagate(data, rows, LAT.l, ops, [0.1, 0.4], jets)]
    assert seen == [(2, 0), (4, 0)]


def test_derivatives_large_shape_against_extended_precision():
    # K = 16, M = 60, N = 2 and the 15 log-spaced steps of a derivatives
    # run, in one run: every step size is checked against the oracle at
    # one mode (the modes cycle through 0..16), and every step matrix
    # equals, bit for bit, a build of its step size alone
    lattice = ModeLattice(K=16, L=2 * math.pi, M=60)
    model = affine_model(1.0, 0.2)
    times = [0.0] + [10.0 ** (-2.0 + i * (math.log10(20.0) + 2.0) / 14)
                     for i in range(15)]
    dts = np.diff(times, prepend=0.0)
    z = 0.3
    data, rows = _stacks(model, lattice, [z], 2)
    jets = {}
    list(propagation.propagate(data, rows, lattice.l,
                                build_operators(lattice.M), dts, jets))
    assert sorted(jets) == sorted(dts[1:])
    for j, dt in enumerate(dts[1:]):
        alone = ExactPropagator(lattice, model, z, 2)
        alone.step_matrix(0, dt)
        assert np.array_equal(alone._jets[dt], jets[dt])
        k = 7 * j % 17
        ref = step_matrix_reference(k, lattice.l, dt, rows[0], lattice.M)
        dense = propagation._dense_steps(jets[dt][0, k:k + 1])[0]
        assert _rel_err(dense, ref) < 1e-13, (dt, k)


@settings(max_examples=20, deadline=None)
@given(variant=st.sampled_from(sorted(MODELS)), M=st.sampled_from([5, 20]),
       N=st.integers(0, 3),
       pool=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=3,
                     unique=True),
       picks=st.lists(st.integers(0, 3), min_size=1, max_size=6),
       z=st.floats(-1.0, 1.0))
def test_runs_mixing_step_sizes_against_extended_precision(variant, M, N, pool,
                                                           picks, z):
    # repeated, distinct and zero steps in one run over three z rows (two
    # build slices): every step matrix of every (z, k) against the oracle
    lattice = ModeLattice(K=2, L=1.0, M=M)
    model = MODELS[variant]
    dts = [(pool + [0.0])[i % (len(pool) + 1)] for i in picks]
    zs = (z, -0.5 * z, 0.9)
    data, rows = _stacks(model, lattice, zs, N)
    jets = {}
    list(propagation.propagate(data, rows, lattice.l, build_operators(M),
                                dts, jets))
    assert sorted(jets) == sorted(set(dts) - {0.0})
    for dt, R in jets.items():
        dense = propagation._dense_steps(R.reshape(-1, N + 1, M, M))
        for i, row in enumerate(rows):
            for k in range(lattice.K + 1):
                ref = step_matrix_reference(k, lattice.l, dt, row, M)
                assert _rel_err(dense[i * 3 + k], ref) < 1e-13, (dt, i, k)


def test_derivatives_large_shape_peak_memory():
    # the 15-step K = 16, M = 60, N = 2 run holds at most 10.8 arrays of
    # one set of step jets above its inputs at any time: G and its six
    # powers, the two Taylor sums, the result, and one level of a product
    lattice = ModeLattice(K=16, L=2 * math.pi, M=60)
    times = [0.0] + [10.0 ** (-2.0 + i * (math.log10(20.0) + 2.0) / 14)
                     for i in range(15)]
    data, rows = _stacks(affine_model(1.0, 0.2), lattice, [0.3], 2)
    ops = build_operators(lattice.M)
    jet_bytes = (lattice.K + 1) * 3 * lattice.M ** 2 * 8
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in propagation.propagate(data, rows, lattice.l, ops,
                                       np.diff(times, prepend=0.0)):
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 10.8 * jet_bytes, peak / jet_bytes


@pytest.mark.parametrize("M", [5, 20, 60])
@pytest.mark.parametrize("N", range(3))
def test_taylor_jets_against_extended_precision(N, M):
    # the degree-25 Taylor polynomial builds the jets of every level count;
    # at step sizes that give the largest jet the scaling powers 0..9,
    # every jet of modes 0, 1, 8 and 16 at two z matches the oracle
    if N > 0 and M == 60:
        pytest.skip("a 180 x 180 long-double oracle costs about 0.4 s")
    lattice = ModeLattice(K=16, L=2 * math.pi, M=M)
    model = MODELS["trig"]
    ks = (0, 1, 8, 16)
    rows = [[sigma_eval(model, z, n) for n in range(N + 1)] for z in (-0.7, 0.4)]
    build = propagation._StepJets(ks, lattice.l, rows, build_operators(M))
    norms = propagation._generator_powers(build.stream, build.rows,
                                          build.relax)[1]
    for target in range(10):
        dt = 0.75 * propagation._THETA25 * 2.0 ** target / norms[-1]
        s = np.maximum(np.frexp(dt * norms / propagation._THETA25)[1], 0)
        assert s[-1] == target
        dense = propagation._dense_steps(build(dt).reshape(-1, N + 1, M, M))
        for i, row in enumerate(rows):
            for j, k in enumerate(ks):
                ref = step_matrix_reference(k, lattice.l, dt, row, M)
                err = _rel_err(dense[i * len(ks) + j], ref)
                assert err < 1e-13, (target, k, err)


@pytest.mark.parametrize("N", range(4))
def test_mode0_closed_form_against_extended_precision(N):
    # mode 0 never enters the Taylor batch: its jets are the z-derivatives
    # of exp(-dt sigma(z) r_m)
    M = 8
    model = MODELS["polynomial"]
    rows = [[sigma_eval(model, z, n) for n in range(N + 1)]
            for z in (-0.9, 0.2, 0.7)]
    build = propagation._StepJets([0], 1.0, rows, build_operators(M))
    assert build.stream.shape[0] == 0
    for dt in STEP_SIZES + (50.0,):
        dense = propagation._dense_steps(build(dt)[:, 0])
        for i, row in enumerate(rows):
            ref = step_matrix_reference(0, 1.0, dt, row, M)
            assert _rel_err(dense[i], ref) < 1e-13, (dt, i)


def test_no_step_calls_lapack(monkeypatch):
    # every level count steps by Taylor jets: products only, no LAPACK
    # solve or inverse
    def never(*args, **kwargs):
        raise AssertionError("a step called LAPACK")

    monkeypatch.setattr(np.linalg, "solve", never)
    monkeypatch.setattr(np.linalg, "inv", never)
    ops = build_operators(LAT.M)
    for N in (0, 1):
        data, rows = _stacks(MODELS["trig"], LAT, (-0.5, 0.1, 0.5), N)
        assert len(list(propagation.propagate(data, rows, LAT.l, ops,
                                              [0.0, 0.1, 0.3, 0.1]))) == 4


def _peak_bytes(lattice, zs, dts):
    """tracemalloc peak of a single-level run of propagate above its inputs."""
    data, rows = _stacks(affine_model(1.0, 0.2), lattice, zs, 0)
    ops = build_operators(lattice.M)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in propagation.propagate(data, rows, lattice.l, ops, dts):
            pass
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("K, M, Z, dts, limit", [
    # a sweep point: 30 z, 80 steps of 0.25
    (4, 20, 30, [0.0] + [0.25] * 80, 1_018_364),
    # the 15 log-spaced steps of a derivatives run at K = 16, M = 60
    (16, 60, 4, np.diff([0.0] + [10.0 ** (-2.0 + i * (math.log10(20.0) + 2.0)
                                          / 14) for i in range(15)],
                        prepend=0.0), 21_193_888),
], ids=["sweep", "derivatives_large"])
def test_single_level_peak_memory(K, M, Z, dts, limit):
    # limit is the peak of this run under the earlier [13/13] Pade build
    # with an LU solve (numpy 2.4); the Taylor build must stay below it
    lattice = ModeLattice(K=K, L=2 * math.pi, M=M)
    peak = _peak_bytes(lattice, list(np.linspace(-1.0, 1.0, Z)), dts)
    assert peak <= limit, peak

"""Exact exponential propagation against structure and a reference integrator."""

import functools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hypobgk import (
    ExactPropagator,
    InitialDataSpec,
    ModeLattice,
    NumericError,
    StateStack,
    UsageError,
    affine_model,
    augmented_generator,
    constant_model,
    entropy_series,
    polynomial_model,
    project_initial,
    propagate,
    sigma_eval,
    trig_model,
)
from hypobgk import propagation
from hypobgk.spectral import complex_frame, real_frame
from oracles import (_jet_norm1, assemble_generator, build_transform,
                     dense_operators, evolve_reference, real_frame_jets,
                     step_matrix_reference)

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
    return StateStack(lattice=lattice, z=z, t=0.0,
                      data=project_initial(spec, lattice, levels=levels))


def _propagator(state, model):
    return ExactPropagator(state.lattice, model, state.z, state.levels)


def test_augmented_generator_blocks():
    model = trig_model(2.0, 0.5, 1.0)
    z = 0.3
    derivs = [sigma_eval(model, z, n=i) for i in range(3)]
    G = augmented_generator(2, LAT.l, derivs, LAT.M)
    M = LAT.M
    base = assemble_generator(2, LAT.l, derivs[0], M)
    _, relax = dense_operators(M)
    for n in range(3):
        block = G[n * M:(n + 1) * M, n * M:(n + 1) * M]
        assert_allclose(block, base, rtol=0)
        for i in range(1, n + 1):
            sub = G[n * M:(n + 1) * M, (n - i) * M:(n - i + 1) * M]
            assert_allclose(sub, math.comb(n, i) * derivs[i] * relax,
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


def test_propagator_checks():
    model = constant_model(1.5)
    prop = ExactPropagator(LAT, model, 0.0, 0)
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
                           np.diff(times, prepend=0.0)))
    prop = _propagator(state, model)
    direct = state
    last = 0.0
    for expect, t in zip(snaps, times):
        direct = prop.evolve(direct, t - last)
        last = t
        assert direct.t == t
        assert np.max(np.abs(direct.data - complex_frame(expect[0]))) < 1e-12


def test_sensitivity_level_against_finite_differences():
    # level 1 of the augmented flow is the z-derivative of level 0
    model = trig_model(2.0, 0.5, 1.0)
    z, eps, T = 0.2, 1e-5, 1.5
    spec = InitialDataSpec(kind="random", seed=9, fill="level0")
    data = project_initial(spec, LAT, levels=1)
    center = StateStack(lattice=LAT, z=z, t=0.0, data=data)
    up = StateStack(lattice=LAT, z=z + eps, t=0.0, data=data)
    down = StateStack(lattice=LAT, z=z - eps, t=0.0, data=data)
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
            G = augmented_generator(k, lattice.l, prop.sigma_derivs, M)
            dense = scipy.linalg.expm(-dt * G)
            assert _rel_err(prop.step_matrix(k, dt), dense) < 2e-13, (dt, k)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_step_matrix_rejects_a_non_finite_step(dt):
    prop = ExactPropagator(LAT, MODELS["affine"], 0.2, 1)
    for k in (0, 1):
        with pytest.raises(NumericError):
            prop.step_matrix(k, dt)


def test_core_drops_step_jets_after_their_last_use(monkeypatch):
    # a run keeps the jets of a step size only until its last step
    held = []
    build = propagation._StepJets.__call__

    def spy(self, dt, keep=False):
        R = build(self, dt, keep)
        held.append(weakref.ref(R))
        return R

    monkeypatch.setattr(propagation._StepJets, "__call__", spy)
    model = MODELS["affine"]
    zs = (-0.5, 0.5)
    data = np.stack([project_initial(InitialDataSpec(kind="random", seed=2),
                                     LAT, levels=1) for _ in zs])
    rows = [[sigma_eval(model, z, n) for n in range(2)] for z in zs]
    dts = [0.1, 0.2, 0.1, 0.0, 0.3, 0.2, 0.3]
    alive = [[dt for dt, ref in zip((0.1, 0.2, 0.3), held) if ref() is not None]
             for _ in propagation.propagate(data, rows, LAT.l, dts)]
    assert alive == [[0.1], [0.1, 0.2], [0.2], [0.2], [0.2, 0.3], [0.3], []]


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 6), dt=st.floats(1e-3, 10.0), z=st.floats(-1.0, 1.0),
       N=st.integers(0, 2), variant=st.sampled_from(sorted(MODELS)))
def test_opposite_modes_give_conjugate_step_matrices(k, dt, z, N, variant):
    lattice = ModeLattice(K=6, L=2 * math.pi, M=8)
    prop = ExactPropagator(lattice, MODELS[variant], z, N)
    G = augmented_generator(k, lattice.l, prop.sigma_derivs, lattice.M)
    assert np.array_equal(
        augmented_generator(-k, lattice.l, prop.sigma_derivs, lattice.M),
        G.conj())
    plus, minus = prop.step_matrix(k, dt), prop.step_matrix(-k, dt)
    assert np.max(np.abs(minus - plus.conj())) <= 1e-15 * np.max(np.abs(plus))


def _take(path):
    """A stand-in for propagation._ladder that forces a path: the ladder for
    every run whose nonzero step sizes are all used once (and there is
    one), or never."""
    if path == "jets":
        return lambda build, once: None
    return lambda build, once: propagation._Ladder(build, once) if once else None


@pytest.mark.parametrize("N", [0, 2])
def test_batched_core_matches_single_z_runs_bit_for_bit(N, monkeypatch):
    # on either path, build chunks of 1 and 4 z rows' worth give the same
    # bits, and so does every z stepped alone; ExactPropagator steps once
    # per call: it gives the bits of the jets path and agrees with the
    # ladder to rounding.  The jets path's run repeats the step size 0.3;
    # the ladder's run uses each step size once
    model = MODELS["trig"]
    zs = np.linspace(-0.9, 0.8, 7)
    rng = np.random.default_rng(5)
    stacks = [StateStack(lattice=LAT, z=float(z), t=0.0, data=project_initial(
                  InitialDataSpec(kind="random", seed=int(s)), LAT, levels=N))
              for s, z in zip(rng.integers(0, 1000, len(zs)), zs)]
    data = np.stack([s.data for s in stacks])
    rows = [[sigma_eval(model, float(z), n) for n in range(N + 1)] for z in zs]
    for path, times in (("jets", [0.0, 0.3, 0.6, 1.7, 1.7, 5.0]),
                        ("ladder", [0.0, 0.3, 0.7, 1.7, 1.7, 5.0])):
        dts = np.diff(times, prepend=0.0)
        monkeypatch.setattr(propagation, "_ladder", _take(path))
        runs = []
        for width in (1, 4):
            monkeypatch.setattr(propagation, "_BUILD_SLICE", width)
            runs.append(list(propagation.propagate(data, rows, LAT.l, dts)))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)
        for i in range(len(zs)):
            alone = propagation.propagate(data[i:i + 1], rows[i:i + 1], LAT.l,
                                          dts)
            for a, b in zip(alone, runs[0]):
                assert np.array_equal(a[0], b[i])
        for i, (z, state) in enumerate(zip(zs, stacks)):
            prop = ExactPropagator(LAT, model, float(z), N)
            snap = state
            for j, dt in enumerate(dts):
                snap = prop.evolve(snap, dt)
                sample = complex_frame(runs[0][j][i])
                if path == "jets":
                    assert np.array_equal(snap.data, sample)
                assert _rel_err(snap.data, sample) < 1e-13
                # the real-frame step agrees with the dense complex step
                # matrices
                if j:
                    prev = complex_frame(runs[0][j - 1][i])
                    dense = np.stack([prop.step_matrix(k, dt)
                                      @ prev[k].reshape(-1)
                                      for k in range(LAT.K + 1)])
                    assert _rel_err(sample.reshape(dense.shape), dense) < 1e-13


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
    pair = entropy_series(real_frame(data[None]), 0, alpha)[0]
    assert abs(pair - (e_plus + e_minus)) <= 1e-14 * pair


def _stacks(model, lattice, zs, N, seed=2):
    data = np.stack([project_initial(InitialDataSpec(kind="random", seed=seed),
                                     lattice, levels=N) for _ in zs])
    rows = [[sigma_eval(model, z, n) for n in range(N + 1)] for z in zs]
    return data, rows


def test_a_first_zero_step_yields_the_real_frame_of_the_data():
    # propagate rotates its input by real_frame and nothing else, before
    # the jets path and before the ladder alike
    data, rows = _stacks(MODELS["trig"], LAT, (-0.5, 0.1), 2)
    data[0, 1, 0, 4] = complex(-0.0, 0.0)
    expect = real_frame(data).view(np.uint64)
    for dts in ([0.0, 0.5, 0.5], [0.0, 0.5, 0.7]):
        W = next(propagation.propagate(data, rows, LAT.l, dts))
        assert np.array_equal(W.view(np.uint64), expect)


def test_generator_powers_built_once_per_slice_and_released(monkeypatch):
    # a run builds the powers of each chunk once, keeps them only while
    # a later step size still needs a build, and a run of one step size
    # keeps none after its step, nor does a ladder run after rung 0, which
    # it builds in chunks of _BASE_SLICE jets
    built, ladders = [], []
    generator_powers = propagation._generator_powers
    ladder = propagation._Ladder

    def spy(*args):
        powers = generator_powers(*args)
        built.append([weakref.ref(a) for a in powers])
        return powers

    def ladder_spy(*args):
        ladders.append(args)
        return ladder(*args)

    monkeypatch.setattr(propagation, "_generator_powers", spy)
    monkeypatch.setattr(propagation, "_Ladder", ladder_spy)
    monkeypatch.setattr(propagation, "_BUILD_SLICE", 2)

    def held():
        return sum(ref() is not None for refs in built for ref in refs)

    data, rows = _stacks(MODELS["trig"], LAT, (-0.5, 0.1, 0.5), 1)
    dts = [0.1, 0.2, 0.1, 0.0, 0.3, 0.2, 0.3]
    seen = [(len(built), held()) for _ in
            propagation.propagate(data, rows, LAT.l, dts)]
    # two chunks of G and its powers, alive until the build of 0.3
    assert seen == [(2, 4)] * 4 + [(2, 0)] * 3
    built.clear()
    seen = [(len(built), held()) for _ in
            propagation.propagate(data, rows, LAT.l, [0.25, 0.0, 0.25])]
    assert seen == [(2, 0)] * 3
    built.clear()
    seen = [(len(built), held()) for _ in propagation.propagate(
        data, rows, LAT.l, [0.1, 0.2, 0.0, 0.3, 0.7])]
    assert len(ladders) == 1
    chunks = -(-3 * LAT.K // propagation._BASE_SLICE)  # 3 z, K moving modes
    assert chunks == 3
    assert seen == [(chunks, 0)] * 5


@settings(max_examples=40, deadline=None)
@given(K=st.sampled_from([5, 20]), M=st.sampled_from([5, 20]),
       N=st.integers(0, 3), variant=st.sampled_from(sorted(MODELS)),
       zs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       l=st.floats(0.1, 10.0), signed=st.booleans())
def test_band_norms_equal_the_dense_jet_norms(K, M, N, variant, zs, l, signed):
    # the 1-norms summed from the generator's bands are, bit for bit, the
    # 1-norms of the assembled real-frame jets, and come sorted
    ks = range(-K if signed else 0, K + 1)
    model = MODELS[variant]
    rows = [[sigma_eval(model, z, n) for n in range(N + 1)] for z in zs]
    build = propagation._StepJets(ks, l, rows, M)
    order, norms, e = build.sorted_norms
    jets = np.array([[real_frame_jets(k, l, row, M) for k in ks if k]
                     for row in rows]).reshape(-1, N + 1, M, M)
    assert _jet_norm1(jets)[order].tobytes() == norms.tobytes()
    assert np.all(np.diff(norms) >= 0.0)
    assert np.array_equal(np.ldexp(np.frexp(norms)[0], e), norms)


@settings(max_examples=40, deadline=None)
@given(K=st.sampled_from([5, 20]), M=st.sampled_from([5, 20]),
       N=st.integers(0, 3), variant=st.sampled_from(sorted(MODELS)),
       zs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       l=st.floats(0.1, 10.0), signed=st.booleans())
def test_generator_powers_write_the_assembled_jets(K, M, N, variant, zs, l,
                                                   signed):
    # the chunk jets that _generator_powers writes from the bands are the
    # assembled real-frame jets, in sorted order, scaled by 2^-e
    ks = range(-K if signed else 0, K + 1)
    model = MODELS[variant]
    rows = [[sigma_eval(model, z, n) for n in range(N + 1)] for z in zs]
    build = propagation._StepJets(ks, l, rows, M)
    order, _, e = build.sorted_norms
    jets = np.array([[real_frame_jets(k, l, row, M) for k in ks if k]
                     for row in rows]).reshape(-1, N + 1, M, M)
    G, _ = propagation._generator_powers(build.kl, build.off, build.rows,
                                         build.r, order, e)
    scale = np.ldexp(1.0, -e)[:, None, None, None]
    assert np.array_equal(G, jets[order] * scale)


def test_norms_and_sort_once_per_run(monkeypatch):
    # the norms and their sort are per-run work: one call per run, whatever
    # the chunk width and the step sizes, and none for a run that builds
    # nothing; each build cuts the sorted jets into chunks of _BUILD_SLICE
    # z rows' worth
    calls = {"norms": 0, "sorts": 0, "chunks": 0}
    band_norms, argsort = propagation._band_norms, np.argsort
    generator_powers = propagation._generator_powers

    def count(name, f):
        def spy(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return spy

    monkeypatch.setattr(propagation, "_band_norms", count("norms", band_norms))
    monkeypatch.setattr(np, "argsort", count("sorts", argsort))
    monkeypatch.setattr(propagation, "_generator_powers",
                        count("chunks", generator_powers))
    data, rows = _stacks(MODELS["trig"], LAT, (-0.5, 0.1, 0.5, 0.9, -0.2), 1)
    for width, chunks in ((1, 5), (2, 3), (4, 2), (8, 1)):
        monkeypatch.setattr(propagation, "_BUILD_SLICE", width)
        for dts, builds in (([0.1], 1), ([0.1, 0.2, 0.1, 0.0, 0.3], 3),
                            ([0.0, 0.0], 0)):
            calls.update(norms=0, sorts=0, chunks=0)
            list(propagation.propagate(data, rows, LAT.l, dts))
            ran = min(builds, 1)
            assert calls == {"norms": ran, "sorts": ran,
                             "chunks": chunks * ran}, (width, dts)


# the shape of a derivatives_large run: K = 16, M = 60, N = 2, one z and 15
# log-spaced times, so every step has a new step size
LARGE = ModeLattice(K=16, L=2 * math.pi, M=60)
LARGE_MODEL = affine_model(1.0, 0.2)
LARGE_DTS = np.diff([0.0] + [10.0 ** (-2.0 + i * (math.log10(20.0) + 2.0) / 14)
                             for i in range(15)], prepend=0.0)


@functools.lru_cache(maxsize=32)
def _large_reference(k, dt, z=0.3):
    """The oracle step matrix of mode k at the derivatives_large shape."""
    row = [sigma_eval(LARGE_MODEL, z, n) for n in range(3)]
    return step_matrix_reference(k, LARGE.l, dt, row, LARGE.M)


def test_derivatives_large_shape_against_extended_precision():
    # the step jets of the 15 step sizes of a derivatives run, built in
    # turn from one set of shared powers: every step size is checked
    # against the oracle at one mode (the modes cycle through 0..16), and
    # every step matrix equals, bit for bit, a build of its step size alone
    lattice, dts = LARGE, LARGE_DTS[1:]
    rows = [[sigma_eval(LARGE_MODEL, 0.3, n) for n in range(3)]]

    def step_jets():
        return propagation._StepJets(range(lattice.K + 1), lattice.l, rows,
                                     lattice.M)

    build = step_jets()
    for j, dt in enumerate(dts):
        R = build(dt, keep=True)
        assert np.array_equal(step_jets()(dt), R)
        k = 7 * j % 17
        dense = propagation._dense_steps(R[0, k:k + 1])[0]
        assert _rel_err(dense, _large_reference(k, dt)) < 1e-13, (dt, k)


def _spy_rungs(monkeypatch):
    """Weak references to every rung the ladder's climbs yield."""
    rungs = []
    climb = propagation._climb

    def spy(*args):
        for first, R in climb(*args):
            rungs.append(weakref.ref(R))
            yield first, R

    monkeypatch.setattr(propagation, "_climb", spy)
    return rungs


def test_ladder_steps_against_extended_precision(monkeypatch):
    # the derivatives_large run steps its 15 once-used step sizes through
    # the ladder; each step of one mode (cycling through 0..16, as above)
    # is the oracle's step matrix applied to the sample before it
    rungs = _spy_rungs(monkeypatch)
    data, rows = _stacks(LARGE_MODEL, LARGE, [0.3], 2)
    alive = []
    samples = []
    for W in propagation.propagate(data, rows, LARGE.l, LARGE_DTS):
        alive.append(sum(ref() is not None for ref in rungs))
        samples.append(complex_frame(W[0]))
    # the 15 samples are one block, which climbs its rungs before the
    # first of them and drops each rung once it is climbed
    assert len(rungs) > 1 and alive == [0] * len(samples)
    for j, dt in enumerate(LARGE_DTS[1:]):
        k = 7 * j % 17
        want = _large_reference(k, dt) @ samples[j][k].reshape(-1)
        assert _rel_err(samples[j + 1][k].reshape(-1), want) < 1e-13, (dt, k)


def test_ladder_samples_against_extended_precision():
    # each ladder sample of the derivatives_large run is exp(-T_j G) applied
    # to the initial data, T_j the running sum of the steps: one mode of
    # each sample (cycling through 0..16, as above) against the oracle at T_j
    data, rows = _stacks(LARGE_MODEL, LARGE, [0.3], 2)
    samples = propagation.propagate(data, rows, LARGE.l, LARGE_DTS)
    assert np.array_equal(next(samples), real_frame(data))
    for j, (T, W) in enumerate(zip(np.cumsum(LARGE_DTS[1:]), samples,
                                   strict=True)):
        k = 7 * j % 17
        want = _large_reference(k, T) @ data[0, k].reshape(-1)
        err = _rel_err(complex_frame(W[0, k]).reshape(-1), want)
        assert err < 1e-13, (T, k, err)


def test_ladder_blocks_give_the_same_bits(monkeypatch):
    # the samples of a block climb the rungs together; blocks of one
    # sample give the same bits as the default blocks, which here split the
    # 15 samples of 3 z into two blocks
    lattice = ModeLattice(K=4, L=2 * math.pi, M=20)
    data, rows = _stacks(MODELS["trig"], lattice, (-0.5, 0.1, 0.5), 1)
    assert propagation._block_size(lattice.M) == 10
    runs = []
    for size in (propagation._block_size, lambda M: 1):
        monkeypatch.setattr(propagation, "_block_size", size)
        runs.append(list(propagation.propagate(data, rows, lattice.l,
                                               LARGE_DTS)))
    for a, b in zip(*runs, strict=True):
        assert np.array_equal(a, b)


def test_ladder_samples_of_several_blocks_against_extended_precision(
        monkeypatch):
    # 3 z at K = 4, M = 8 on the derivatives log grid take the ladder, and
    # the 15 samples four blocks of _block_size(8) = 4.  Every (z, k) of
    # each sample is exp(-T_j G) applied to the initial data, against the
    # oracle at T_j
    ladders = []
    ladder = propagation._Ladder

    def spy(*args):
        ladders.append(ladder(*args))
        return ladders[-1]

    monkeypatch.setattr(propagation, "_Ladder", spy)
    lattice = ModeLattice(K=4, L=2 * math.pi, M=8)
    data, rows = _stacks(LARGE_MODEL, lattice, (-0.7, 0.2, 0.9), 2)
    assert propagation._block_size(lattice.M) == 4
    samples = propagation.propagate(data, rows, lattice.l, LARGE_DTS)
    assert np.array_equal(next(samples), real_frame(data))
    for T, W in zip(np.cumsum(LARGE_DTS[1:]), samples, strict=True):
        for i, row in enumerate(rows):
            for k in range(lattice.K + 1):
                step = step_matrix_reference(k, lattice.l, T, row, lattice.M)
                want = step @ data[i, k].reshape(-1)
                err = _rel_err(complex_frame(W[i, k]).reshape(-1), want)
                assert err < 1e-13, (T, i, k, err)
    assert len(ladders) == 1


@pytest.mark.parametrize("M, steps, blocks", [(60, 15, 1), (60, 3, 1),
                                              (8, 15, 4), (8, 3, 1)])
def test_ladder_taylor_terms_once_per_block(M, steps, blocks, monkeypatch):
    # the Taylor terms Gs^k X0 are shared by every sample of a jet: a block
    # takes _TAYLOR_DEGREE actions of Gs, whatever its number of samples
    actions = [0]
    act = propagation._Ladder._act

    def spy(self, v):
        actions[0] += 1
        return act(self, v)

    monkeypatch.setattr(propagation._Ladder, "_act", spy)
    lattice = ModeLattice(K=4, L=2 * math.pi, M=M)
    data, rows = _stacks(LARGE_MODEL, lattice, (-0.5, 0.5), 0)
    dts = LARGE_DTS[:steps + 1]
    assert len(list(propagation.propagate(data, rows, lattice.l, dts))) \
        == steps + 1
    assert actions[0] == blocks * propagation._TAYLOR_DEGREE


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(sorted(MODELS)), K=st.integers(1, 2),
       M=st.sampled_from([5, 20]), N=st.integers(0, 3),
       pool=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=5,
                     unique=True),
       zeros=st.lists(st.integers(0, 5), max_size=3),
       repeat=st.none() | st.integers(0, 4),
       zs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
# the two paths differ by 1.05e-13 of the sample here, and each step of
# either is within 4e-14 of the oracle
@example(variant="affine", K=1, M=20, N=0, pool=[1.0, 7.5, 13.25, 18.75],
         zeros=[], repeat=None, zs=[0.875])
def test_ladder_agrees_with_the_jets_path(variant, K, M, N, pool, zeros,
                                          repeat, zs):
    # each path, forced, steps once-used and zero steps: each step of one
    # mode (cycling through 0..K) at every z is the oracle's step matrix
    # applied to the sample before it, to 1e-13, and a zero step repeats
    # the sample; a repeated step size keeps even the forced ladder's run
    # on the jets path, bit for bit
    lattice = ModeLattice(K=K, L=2 * math.pi, M=M)
    dts = list(pool)
    if repeat is not None:
        dts.append(pool[repeat % len(pool)])
    for i in zeros:
        dts.insert(i % (len(dts) + 1), 0.0)
    data, rows = _stacks(MODELS[variant], lattice, zs, N)
    runs = {}
    for path in ("jets", "ladder"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "_ladder", _take(path))
            runs[path] = [complex_frame(W) for W in propagation.propagate(
                data, rows, lattice.l, dts)]
    if repeat is not None:
        for a, b in zip(runs["jets"], runs["ladder"], strict=True):
            assert np.array_equal(a, b)
    refs = [[step_matrix_reference(j % (K + 1), lattice.l, dt, row, M)
             for row in rows] for j, dt in enumerate(dts) if dt]
    for path, samples in runs.items():
        steps = iter(refs)
        for j, (dt, prev, sample) in enumerate(zip(
                dts, [data] + samples[:-1], samples, strict=True)):
            if dt == 0.0:
                assert np.array_equal(sample, prev), path
                continue
            k = j % (K + 1)
            for i, ref in enumerate(next(steps)):
                err = _rel_err(sample[i, k].reshape(-1),
                               ref @ prev[i, k].reshape(-1))
                assert err < 1e-13, (path, dt, i, k, err)


@settings(max_examples=20, deadline=None)
@given(variant=st.sampled_from(sorted(MODELS)), M=st.sampled_from([5, 20]),
       N=st.integers(0, 3),
       pool=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=3,
                     unique=True),
       picks=st.lists(st.integers(0, 3), min_size=1, max_size=6),
       z=st.floats(-1.0, 1.0))
def test_runs_mixing_step_sizes_against_extended_precision(variant, M, N, pool,
                                                           picks, z):
    # the step sizes of a run of repeated, distinct and zero steps, built
    # in turn from one set of shared powers over three z rows (two build
    # chunks): every step matrix of every (z, k) against the oracle
    lattice = ModeLattice(K=2, L=1.0, M=M)
    model = MODELS[variant]
    sizes = {(pool + [0.0])[i % (len(pool) + 1)] for i in picks} - {0.0}
    zs = (z, -0.5 * z, 0.9)
    rows = [[sigma_eval(model, z, n) for n in range(N + 1)] for z in zs]
    build = propagation._StepJets(range(lattice.K + 1), lattice.l, rows, M)
    for dt in sizes:
        R = build(dt, keep=True)
        dense = propagation._dense_steps(R.reshape(-1, N + 1, M, M))
        for i, row in enumerate(rows):
            for k in range(lattice.K + 1):
                ref = step_matrix_reference(k, lattice.l, dt, row, M)
                assert _rel_err(dense[i * 3 + k], ref) < 1e-13, (dt, i, k)


def test_derivatives_large_shape_peak_memory():
    # the 15-step K = 16, M = 60, N = 2 run takes the ladder and holds at
    # most 5.0 arrays of one set of step jets above its inputs at any time:
    # rung 0 beside one chunk's G, powers and Taylor sums, or two rungs
    # beside the block of samples
    lattice = ModeLattice(K=16, L=2 * math.pi, M=60)
    times = [0.0] + [10.0 ** (-2.0 + i * (math.log10(20.0) + 2.0) / 14)
                     for i in range(15)]
    data, rows = _stacks(affine_model(1.0, 0.2), lattice, [0.3], 2)
    jet_bytes = (lattice.K + 1) * 3 * lattice.M ** 2 * 8
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in propagation.propagate(data, rows, lattice.l,
                                       np.diff(times, prepend=0.0)):
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 5.0 * jet_bytes, peak / jet_bytes


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
    build = propagation._StepJets(ks, lattice.l, rows, M)
    norms = build.sorted_norms[1]
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
    build = propagation._StepJets([0], 1.0, rows, M)
    assert build.kl.shape[0] == 0
    for dt in STEP_SIZES + (50.0,):
        dense = propagation._dense_steps(build(dt)[:, 0])
        for i, row in enumerate(rows):
            ref = step_matrix_reference(0, 1.0, dt, row, M)
            assert _rel_err(dense[i], ref) < 1e-13, (dt, i)


def test_no_step_calls_lapack(monkeypatch):
    # every level count steps by Taylor jets or the ladder: products only,
    # no LAPACK solve or inverse
    def never(*args, **kwargs):
        raise AssertionError("a step called LAPACK")

    monkeypatch.setattr(np.linalg, "solve", never)
    monkeypatch.setattr(np.linalg, "inv", never)
    for path in ("jets", "ladder"):
        monkeypatch.setattr(propagation, "_ladder", _take(path))
        for N in (0, 1):
            data, rows = _stacks(MODELS["trig"], LAT, (-0.5, 0.1, 0.5), N)
            assert len(list(propagation.propagate(
                data, rows, LAT.l, [0.0, 0.1, 0.3, 0.0, 2.5]))) == 5


def test_step_sizes_checked_before_the_first_sample():
    data, rows = _stacks(MODELS["affine"], LAT, (0.2,), 1)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(UsageError, match="step size"):
            next(propagation.propagate(data, rows, LAT.l, [0.1, bad]))


@pytest.mark.parametrize("case", ["few_columns", "many_columns",
                                  "row_count", "ragged_rows", "3d_data"])
def test_shapes_checked_before_the_first_sample(case):
    # data at Z = 2, N = 2 need sigma rows of shape (2, 3): a row too short
    # would leave levels 1..2 of every sample unwritten
    data, rows = _stacks(MODELS["trig"], LAT, (-0.5, 0.5), 2)
    rows = np.array(rows)
    bad = {"few_columns": (data, rows[:, :1]),
           "many_columns": (data, np.hstack([rows, rows[:, :1]])),
           "row_count": (data, rows[:1]),
           "ragged_rows": (data, [list(rows[0]), list(rows[1, :2])]),
           "3d_data": (data[0], rows[:1])}[case]
    with pytest.raises(UsageError, match="shape"):
        next(propagation.propagate(*bad, LAT.l, [0.1]))


def test_ladder_selection():
    # the path reads the step sizes alone: any run of two or more once-used
    # step sizes with a moving mode takes the ladder, whatever its shape and
    # number of z.  A single once-used step size, a lattice of mode 0 alone
    # and a z whose rungs exceed ten sets of its step jets take the jets path
    def choice(lattice, rows, once):
        build = propagation._StepJets(range(lattice.K + 1), lattice.l, rows,
                                      lattice.M)
        return propagation._ladder(build, once)

    def at(zs, N):
        return [[sigma_eval(LARGE_MODEL, z, n) for n in range(N + 1)]
                for z in zs]

    once = list(LARGE_DTS[1:])
    ladder = choice(LARGE, at([0.3], 2), once)
    assert isinstance(ladder, propagation._Ladder)
    # the rule counts the rungs of the largest step size, 163 against its
    # bound of 170; the climb goes up to the last time, 179 rungs, and
    # rung i is squared for a suffix of the jets: those with more than i
    # rungs
    e = ladder.build.sorted_norms[2]
    assert propagation._RUNG_SETS * (LARGE.K + 1) == 170
    assert propagation._depths(e, max(once)).sum() == 163
    depth = propagation._depths(e, ladder.times[-1])
    assert depth.sum() == 179
    assert np.all(np.diff(depth) >= 0)
    assert [len(R) for _, R in propagation._climb(
        ladder.build.base(), propagation._suffixes(depth))] == [
        np.count_nonzero(depth > i) for i in range(depth[-1])]
    small = ModeLattice(K=2, L=2 * math.pi, M=8)
    one = ModeLattice(K=1, L=2 * math.pi, M=60)
    for lattice, rows in ((small, at([-0.5, 0.0, 0.5], 1)),
                          (small, at([0.3], 0)), (one, at([0.3, 0.6], 0))):
        assert isinstance(choice(lattice, rows, once), propagation._Ladder)
    assert choice(LARGE, at([0.3], 2), once[-1:]) is None
    assert choice(ModeLattice(K=0, L=2 * math.pi, M=8), at([0.3], 0),
                  once) is None
    # a thousand-bit q is never formed: the depth comes from dt's exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert choice(LARGE, at([0.3], 0), [1e300, 1e299]) is None
    # the rungs are counted per z: at K = 1, sigma = 1 needs 12 rungs and
    # sigma = 1e4 needs 23, against 20 per z, so the second z takes the
    # jets path alone and with the first, as a total of 35 of 40 would not
    tiny = ModeLattice(K=1, L=2 * math.pi, M=5)
    assert isinstance(choice(tiny, [[1.0]], [600.0, 1000.0]),
                      propagation._Ladder)
    assert choice(tiny, [[1e4]], [600.0, 1000.0]) is None
    assert choice(tiny, [[1.0], [1e4]], [600.0, 1000.0]) is None


def test_a_z_alone_and_in_a_batch_give_the_same_bits():
    # the path does not read the number of z: each z of a 40-z run on the
    # derivatives log grid equals, bit for bit, the same z stepped alone
    lattice = ModeLattice(K=4, L=2 * math.pi, M=20)
    data, rows = _stacks(LARGE_MODEL, lattice, np.linspace(-1.0, 1.0, 40), 0)
    batch = list(propagation.propagate(data, rows, lattice.l, LARGE_DTS))
    for i in range(len(data)):
        alone = propagation.propagate(data[i:i + 1], rows[i:i + 1], lattice.l,
                                      LARGE_DTS)
        for a, b in zip(alone, batch, strict=True):
            assert np.array_equal(a[0], b[i]), i


def test_ladder_base_is_the_jets_build_at_the_base_step():
    # rung 0 of a jet is, bit for bit, the jets path's build at the jet's
    # own base step h = 2^(1-e), which has s = 0 and c = -2
    rows = [[sigma_eval(MODELS["trig"], 0.4, n) for n in range(3)]]
    for k in (1, 5, 16):
        build = propagation._StepJets([k], 1.0, rows, 20)
        e = build.sorted_norms[2]
        base = build.base()
        assert np.array_equal(base, build(float(np.ldexp(1.0, 1 - e[0])))[0])


@pytest.mark.parametrize("N, times", [
    (2, [0.0] + list(np.logspace(-2.0, 4.0, 15))),
    (0, [0.0, 1e300]),
], ids=["long_horizon", "1e300"])
def test_long_horizons_take_the_jets_path(N, times):
    # rungs for a horizon of 1e4 would not fit, and t = 1e300 is one step
    # size: both runs take the jets path, finish (a non-finite step would
    # raise) and hold at most 10.8 arrays of one set of step jets
    data, rows = _stacks(LARGE_MODEL, LARGE, [0.3], N)
    dts = np.diff(times, prepend=0.0)
    build = propagation._StepJets(range(LARGE.K + 1), LARGE.l, rows, LARGE.M)
    assert propagation._ladder(build, [dt for dt in dts if dt]) is None
    jet_bytes = (LARGE.K + 1) * (N + 1) * LARGE.M ** 2 * 8
    peak = _peak_bytes(LARGE, [0.3], dts, N)
    assert peak <= 10.8 * jet_bytes, peak / jet_bytes


def test_many_z_on_the_ladder_peak_memory(monkeypatch):
    # 30 z at K = 4, M = 8 on the derivatives log grid take the ladder and
    # hold at most 10.8 arrays of one set of step jets
    ladders = []
    ladder = propagation._Ladder

    def spy(*args):
        ladders.append(ladder(*args))
        return ladders[-1]

    monkeypatch.setattr(propagation, "_Ladder", spy)
    lattice, zs = ModeLattice(K=4, L=2 * math.pi, M=8), np.linspace(-1, 1, 30)
    peak = _peak_bytes(lattice, list(zs), LARGE_DTS)
    assert len(ladders) == 1
    jet_bytes = len(zs) * (lattice.K + 1) * lattice.M ** 2 * 8
    assert peak <= 10.8 * jet_bytes, peak / jet_bytes


@pytest.mark.parametrize("N, dt", [(0, 1e300), (2, 1e300), (0, 1e308),
                                   (2, 1e308)],
                         ids=["0", "2", "0-1e308", "2-1e308"])
def test_squarings_stop_once_the_rest_is_zero(N, dt, monkeypatch):
    # at dt = 1e300 the jets k != 0 ask for about a thousand squarings, and
    # are exactly zero long before: the build (one chunk) stops at the
    # first check, after _ZERO_CHECK squarings, and writes +0.0.  At
    # dt = 1e308, dt times the 1-norm overflows; the scaling power comes
    # from the exponents of dt and the norm, and the build stops alike
    calls = [0]
    jet_mul = propagation._jet_mul

    def spy(*args, **kwargs):
        calls[0] += 1
        return jet_mul(*args, **kwargs)

    monkeypatch.setattr(propagation, "_jet_mul", spy)
    rows = [[sigma_eval(LARGE_MODEL, 0.3, n) for n in range(N + 1)]]
    build = propagation._StepJets(range(LARGE.K + 1), LARGE.l, rows, LARGE.M)
    R = build(dt)
    # six even powers and three Taylor products before the squarings
    assert calls[0] == 6 + 3 + propagation._ZERO_CHECK
    assert not R[:, 1:].any() and not np.signbit(R[:, 1:]).any()


@pytest.mark.parametrize("zs, dts, limit", [
    ([-0.5, 0.3, 0.9], np.diff(np.linspace(0.0, 1.0, 11)), 10.8),
    ([0.3], np.append(LARGE_DTS, LARGE_DTS[-1]), 10.8),
    ([0.3], np.append(LARGE_DTS, LARGE_DTS[6]), 11.2),
], ids=["range_grid", "one_repeat", "held_through_builds"])
def test_repeated_step_sizes_take_the_jets_path(zs, dts, limit, monkeypatch):
    # the step sizes of a range grid whose spacing is not dyadic split into
    # last-bit variants, some used once and some repeated.  A run with any
    # repeated step size steps every size by jets, and holds at most 10.8
    # arrays of one set of step jets; a set repeated after other step sizes
    # is held through their builds, about one set more
    def never(*args):
        raise AssertionError("a run with a repeated step size took the ladder")

    monkeypatch.setattr(propagation, "_Ladder", never)
    jet_bytes = len(zs) * (LARGE.K + 1) * 3 * LARGE.M ** 2 * 8
    peak = _peak_bytes(LARGE, zs, dts, 2)
    assert peak <= limit * jet_bytes, peak / jet_bytes


def _peak_bytes(lattice, zs, dts, N=0):
    """tracemalloc peak of a run of propagate above its inputs."""
    data, rows = _stacks(affine_model(1.0, 0.2), lattice, zs, N)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in propagation.propagate(data, rows, lattice.l, dts):
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
                        prepend=0.0), 5_600_000),
], ids=["sweep", "derivatives_large"])
def test_single_level_peak_memory(K, M, Z, dts, limit):
    # the sweep's limit is the peak of its run under the earlier [13/13]
    # Pade build with an LU solve (numpy 2.4); the Taylor build must stay
    # below it.  The derivatives run takes the ladder, whose limit is its
    # peak with rungs dropped as they are climbed, plus a margin
    lattice = ModeLattice(K=K, L=2 * math.pi, M=M)
    peak = _peak_bytes(lattice, list(np.linspace(-1.0, 1.0, Z)), dts)
    assert peak <= limit, peak

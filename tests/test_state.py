"""StateStack construction rules and the conserved-component constraint."""

import numpy as np
import pytest

from hypobgk import DataError, ModeLattice, StateStack, UsageError, random_stack

LAT = ModeLattice(K=2, L=1.0, M=6)


def _empty(levels=0):
    return np.zeros((LAT.K + 1, levels + 1, LAT.M), dtype=complex)


def test_levels_and_access():
    stack = StateStack(lattice=LAT, z=0.1, t=0.0, data=_empty(levels=2))
    assert stack.levels == 2
    assert stack.data[:, 2].shape == (3, 6)


def test_shape_mismatch_rejected():
    data = np.zeros((2, 1, 6), dtype=complex)  # K+1 should be 3
    with pytest.raises(UsageError):
        StateStack(lattice=LAT, z=0.0, t=0.0, data=data)


def test_nonfinite_rejected():
    data = _empty()
    data[1, 0, 4] = np.inf
    with pytest.raises(DataError):
        StateStack(lattice=LAT, z=0.0, t=0.0, data=data)


def test_conserved_constraint_all_levels():
    # a conserved-direction residue at any derivative level is data damage
    for level in (0, 1):
        data = _empty(levels=1)
        data[0, level, 1] = 1e-10
        with pytest.raises(DataError, match=f"level {level}"):
            StateStack(lattice=LAT, z=0.0, t=0.0, data=data)


def test_constraint_tolerance_boundary():
    data = _empty()
    data[0, 0, 0] = 1e-14  # exactly at tolerance: allowed
    StateStack(lattice=LAT, z=0.0, t=0.0, data=data)


def test_random_stack_obeys_constraint_and_seed():
    rng = np.random.default_rng(5)
    data = random_stack(LAT, 2, rng, scale=2.0)
    assert data.shape == (3, 3, 6)
    assert np.all(data[0, :, :3] == 0.0)
    again = random_stack(LAT, 2, np.random.default_rng(5), scale=2.0)
    assert np.array_equal(data, again)


def test_random_stack_level0_fill():
    data = random_stack(LAT, 3, np.random.default_rng(0), fill="level0")
    assert np.count_nonzero(data[:, 1:, :]) == 0


def test_random_stack_rejects():
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        random_stack(LAT, -1, rng)
    with pytest.raises(UsageError):
        random_stack(LAT, 0, rng, fill="everything")

"""State containers for mode-coefficient stacks and their z-derivatives.

A StateStack holds, for one uncertainty point z and one time t, the
Hermite coefficients of every stored Fourier mode k = 0..K together with
the coefficients of the z-derivative fields up to some order N: entry
data[k, n, m] is the m-th Hermite coefficient of the n-th z-derivative
of mode k.  Modes with negative k are never stored; the physical field
is real, so they are the complex conjugates of their positive partners.

The k = 0 mode carries a structural constraint: its density, momentum
and energy coefficients (indices 0..2) vanish for normalized data, and
because the relaxation projection annihilates exactly those directions
they stay frozen under the dynamics.  The constraint is required at
every derivative level - normalization holds for every z, so all its
z-derivatives vanish too - and construction rejects stacks that break
it, since their spurious constant components would never decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .spectral import ModeLattice

__all__ = ["StateStack", "random_stack", "CONSERVED_TOL"]

# Absolute bound on the conserved k = 0 components; exact zeros expected.
CONSERVED_TOL = 1e-14


@dataclass(frozen=True)
class StateStack:
    """Coefficient stack data[k, n, m] at one (z, t) point."""

    lattice: ModeLattice
    z: float
    t: float
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=complex)
        K, M = self.lattice.K, self.lattice.M
        if arr.ndim != 3 or arr.shape[0] != K + 1 or arr.shape[2] != M:
            raise UsageError(
                f"stack shape {arr.shape} does not match lattice "
                f"(K+1, N+1, M) = ({K + 1}, *, {M})"
            )
        if arr.shape[1] < 1:
            raise UsageError("stack must hold at least the underived level")
        if not np.all(np.isfinite(arr.view(float))):
            raise DataError("stack contains non-finite coefficients")
        bad = np.abs(arr[0, :, :3])
        if bad.max(initial=0.0) > CONSERVED_TOL:
            n, m = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise DataError(
                f"conserved k=0 component (level {n}, coefficient {m}) is "
                f"{bad[n, m]:.3e}; normalized stacks keep it at zero"
            )
        object.__setattr__(self, "data", arr)

    @property
    def levels(self) -> int:
        """Highest stored z-derivative order N."""
        return self.data.shape[1] - 1


def random_stack(lattice: ModeLattice, levels: int, rng: np.random.Generator,
                 scale: float = 1.0, fill: str = "all") -> np.ndarray:
    """Seeded complex Gaussian stack data with the k = 0 constraint applied.

    fill="all" randomizes every derivative level, fill="level0" only the
    underived field (higher levels start at zero, matching z-independent
    initial data).
    """
    if levels < 0:
        raise UsageError(f"need levels >= 0, got {levels}")
    if fill not in ("all", "level0"):
        raise UsageError(f"unknown fill mode {fill!r}")
    shape = (lattice.K + 1, levels + 1, lattice.M)
    data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if fill == "level0":
        data[:, 1:, :] = 0.0
    data[0, :, :3] = 0.0
    return data

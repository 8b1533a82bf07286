"""Seeded workload definitions: JSON configs and the command list of one pass.

A workload is built from its seed alone.  The CLI under test only ever
sees the config files written here and the argv of each command.

certify_verify draws its (L, sigma0) pairs from a randomly shifted
rank-1 lattice folded by the tent map (a standard randomized quasi-Monte
Carlo design).  Each coordinate is still uniform on its range, but the
points cover the square evenly, so the geometric mean of the certified
rates over a pass moves little from one seed to the next.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("certify_verify", "sweep_ensemble", "derivatives_large")

L_RANGE = (1.0, 20.0)
SIGMA0_RANGE = (0.5, 4.0)

# certify_verify: every config is certified, the first of each variant is
# also verified.  Four certifies per verify keep the pooled median inside
# the certify latencies; with one of each it would sit in the gap between
# the two kinds and jump with every slow certify or fast verify.
CV_CONFIGS = 16          # 4 per variant
CV_VERIFIED = 4          # configs 0..3, one per variant
CV_LATTICE_GEN = 7       # lattice generator, coprime to CV_CONFIGS
# sweep_ensemble: one 2x2 (L_values, sigma0_values) grid per command.  The
# grids are fixed, so the seed moves only the initial data: a 2x2 product
# grid is too few points to keep a seeded lambda_gmean steady.
SWEEP_GRIDS = (([2.0, 8.0], [0.8, 2.5]), ([4.0, 16.0], [1.2, 3.5]))
# derivatives_large: one command per pass; t = 0 and 15 log-spaced times
# in [0.01, 20], so every step has a new dt
DERIV_TIMES = [0.0] + [10.0 ** (-2.0 + i * (math.log10(20.0) + 2.0) / 14)
                       for i in range(15)]
# units of reference work (calib.py) before the first command and after each
# command, 30 ms each: 21 x 1 in a certify_verify pass of about 4 s, 3 x 3
# in a sweep_ensemble pass of about 1.5 s, 2 x 6 in a derivatives_large pass
# of about 4 s
CAL_UNITS = {"certify_verify": 1, "sweep_ensemble": 3, "derivatives_large": 6}


@dataclass
class Command:
    """One CLI invocation of a pass and what its outputs must satisfy."""

    kind: str                   # certify | verify | sweep | derivatives
    config: Path
    extra: list[str] = field(default_factory=list)
    expect: dict = field(default_factory=dict)

    def argv(self, out_dir: Path) -> list[str]:
        return [self.kind, *self.extra, "--config", str(self.config),
                "--out", str(out_dir)]


@dataclass
class Workload:
    name: str
    seed: int
    commands: list[Command]
    input_size: str
    cal_units: int = 1          # units of reference work between commands


def _tent(x: float) -> float:
    return 1.0 - abs(2.0 * x - 1.0)


def _scale(u: float, lo_hi: tuple[float, float]) -> float:
    lo, hi = lo_hi
    return lo + (hi - lo) * u


def lattice_2d(n: int, gen: int, rng: random.Random) -> list[tuple[float, float]]:
    """Rank-1 lattice (i/n, gen*i/n) with a random shift, tent-folded."""
    s0, s1 = rng.random(), rng.random()
    return [(_tent((i / n + s0) % 1.0), _tent(((gen * i) % n / n + s1) % 1.0))
            for i in range(n)]


def _sigma_spec(variant: str, sigma0: float) -> dict:
    """Collision-frequency model whose relative spread does not depend on
    the seed, so the seed moves only (L, sigma0)."""
    if variant == "constant":
        return {"variant": "constant", "sigma0": sigma0, "z_domain": [-1.0, 1.0]}
    if variant == "affine":
        return {"variant": "affine", "sigma0": sigma0, "c1": 0.2 * sigma0,
                "z_domain": [-1.0, 1.0]}
    if variant == "trig":
        return {"variant": "trig", "sigma0": sigma0, "eps": 0.2 * sigma0,
                "omega": 1.0, "z_domain": [-math.pi, math.pi]}
    # interior extremum at z = -0.75 makes the range search do real work
    return {"variant": "polynomial",
            "coeffs": [sigma0, 0.15 * sigma0, 0.1 * sigma0],
            "z_domain": [-1.0, 1.0]}


def _write(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return path


def _certify_verify(rng: random.Random, cfg_dir: Path) -> tuple[list[Command], str]:
    variants = ("constant", "affine", "trig", "polynomial")
    commands = []
    for i, (u, v) in enumerate(lattice_2d(CV_CONFIGS, CV_LATTICE_GEN, rng)):
        L, sigma0 = _scale(u, L_RANGE), _scale(v, SIGMA0_RANGE)
        cfg = {
            "run_id": f"cv{i:02d}",
            "domain": {"L": L, "K": 4, "M": 40, "N": 0},
            "sigma": _sigma_spec(variants[i % 4], sigma0),
            "alpha_strategy": "optimize",
            "verify": {"k_max": 50, "sigma_points": 33},
        }
        path = _write(cfg_dir / f"cv{i:02d}.json", cfg)
        commands.append(Command("certify", path, expect={"L": L}))
        if i < CV_VERIFIED:
            commands.append(Command("verify", path, expect={"rows": 50 * 33}))
    size = (f"{CV_CONFIGS} configs certified, {CV_VERIFIED} of them verified "
            f"(k<=50 x 33 sigma), optimize, M=40")
    return commands, size


def _sweep_ensemble(rng: random.Random, cfg_dir: Path) -> tuple[list[Command], str]:
    n_z, n_t = 30, 81
    commands = []
    for c, (L_values, s0_values) in enumerate(SWEEP_GRIDS):
        cfg = {
            "run_id": f"sw{c}",
            "domain": {"L": L_values[0], "K": 4, "M": 20, "N": 0},
            "sigma": {"variant": "affine", "sigma0": 1.0, "c1": 0.2,
                      "z_domain": [-1.0, 1.0]},
            "time_grid": {"start": 0.0, "stop": 20.0, "num": n_t},
            "z_grid": {"num": n_z},
            "alpha_strategy": "fraction:0.5",
            "initial_data": {"type": "random", "seed": rng.randrange(2**31),
                             "scale": 0.5, "fill": "all"},
            "sweep": {"L_values": L_values, "sigma0_values": s0_values},
        }
        path = _write(cfg_dir / f"sw{c}.json", cfg)
        commands.append(Command(
            "sweep", path, extra=["--threads", "2"],
            expect={"L_values": L_values, "sigma0_values": s0_values,
                    "z_count": n_z, "t_count": n_t,
                    "sample_z": rng.randrange(n_z)}))
    size = (f"{len(SWEEP_GRIDS)} sweeps x 2x2 (L, sigma0) x {n_z} z x {n_t} t, "
            f"K=4, M=20, N=0, 2 threads")
    return commands, size


def _derivatives_large(rng: random.Random, cfg_dir: Path) -> tuple[list[Command], str]:
    cfg = {
        "run_id": "dl",
        "domain": {"L": 2.0 * math.pi, "K": 16, "M": 60, "N": 2},
        "sigma": {"variant": "affine", "sigma0": 1.0, "c1": 0.2,
                  "z_domain": [-1.0, 1.0]},
        "time_grid": {"times": DERIV_TIMES},
        "z_grid": {"points": [rng.uniform(-1.0, 1.0)]},
        "alpha_strategy": "optimize",
        # complex Gaussian entries of variance 2e-4 over 17 x 60 modes give
        # E_0(0) near 0.2, so the uniform family always runs
        "initial_data": {"type": "random", "seed": rng.randrange(2**31),
                         "scale": 0.01, "fill": "all"},
    }
    path = _write(cfg_dir / "dl.json", cfg)
    command = Command("derivatives", path,
                      expect={"levels": 2, "t_count": len(DERIV_TIMES)})
    size = (f"1 derivatives x 1 z, K=16, M=60, N=2 (180x180 generator), "
            f"{len(DERIV_TIMES)} log-spaced times")
    return [command], size


def build(name: str, seed: int, cfg_dir: Path) -> Workload:
    """Write the workload's configs into cfg_dir and return its commands."""
    makers = {"certify_verify": _certify_verify,
              "sweep_ensemble": _sweep_ensemble,
              "derivatives_large": _derivatives_large}
    rng = random.Random(f"{name}:{seed}")
    cfg_dir.mkdir(parents=True, exist_ok=True)
    commands, size = makers[name](rng, cfg_dir)
    return Workload(name, seed, commands, size, CAL_UNITS[name])

"""Command-line front end: certify, verify, simulate, derivatives, sweep.

All commands read a single JSON configuration file and write CSV files
into an output directory.  Exit codes: 0 on success, 1 when a certified
envelope or inequality check fails (a proven bound was violated, so
this is a correctness alarm), 2 for invalid input of any kind, 3 for
numerical failure, 4 for an internal error (an unexpected exception,
reported on one line without a traceback).

Result rows share one fixed schema

    run_id,z,t,level,entropy,envelope,ratio,verdict

with floats printed to 17 significant digits so they round-trip exactly.
For the base system (simulate, sweep) the entropy column holds the
twisted entropy and the envelope column exp(-2 rate t) E(0); for
derivative levels both columns hold the square-root entropy scale the
certified bounds live on.  Every envelope, and the H and E_0(0) <= 1
hypotheses of the derivative families, start from the initial stack at
t = 0, also when the time grid starts later; a Taylor-family run whose
initial stacks break E_0(0) <= 1 is rejected before any propagation.
Runs are deterministic:
the same configuration produces byte-identical CSV files, for any
--threads, and random initial data comes from a seeded generator whose
seed is recorded in a header comment of each CSV it influenced.

simulate, derivatives and each sweep point run all z samples through
the propagation core at once and keep only the entropy of each sample.
Each CSV line is one %-template of %.17g fields applied to a row of
those arrays, with \r\n line endings and run_id quoted once by the csv
module's rules: the same bytes as format(x, ".17g") per value through
csv.writer, at a fraction of the cost.  _write_csv consumes the lines
lazily, so formatting happens while the file is written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import (
    affine_derivative_envelope,
    affine_uniform_envelope,
    check_envelope,
    entropy_envelope,
    entropy_series,
    taylor_derivative_envelope,
)
from .errors import (
    CertificateError,
    ConfigError,
    DataError,
    DomainError,
    HypoBGKError,
    InvalidModelError,
    NotCertifiableError,
    NumericError,
    UsageError,
)
from .lyapunov import Certificate, certify, parse_alpha_strategy, verify_grid
from .models import (
    CollisionFrequencyModel,
    InitialDataSpec,
    project_initial,
    sigma_eval,
    taylor_bound,
)
from .propagation import _propagate
from .spectral import ModeLattice, build_operators

__all__ = ["RunConfig", "load_config", "dump_config", "main",
           "cmd_certify", "cmd_verify", "cmd_simulate", "cmd_derivatives",
           "cmd_sweep"]

RESULT_HEADER = ("run_id", "z", "t", "level", "entropy", "envelope",
                 "ratio", "verdict")
SUMMARY_HEADER = ("run_id", "L", "sigma0", "z", "alpha", "alpha_max",
                  "lambda_min", "mu", "lambda", "ctilde", "worst_ratio",
                  "verdict")
VERIFY_HEADER = ("k", "sigma", "min_eigenvalue", "threshold", "verdict")

EXIT_OK = 0
EXIT_ALARM = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


_FLOAT = "%.17g"     # 17 significant digits round-trip any double exactly


def _template_field(text: str) -> str:
    """text as one CSV field (csv module quoting), escaped for a %-template."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2].replace("%", "%%")


def _lines(template: str, *columns):
    """Yield the CSV line template % row for each row of the columns.

    Arrays are converted to lists first, so %.17g formats Python floats.
    """
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    yield from map(template.__mod__, zip(*columns))


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by all commands."""

    run_id: str
    lattice: ModeLattice
    levels: int
    model: CollisionFrequencyModel
    times: tuple[float, ...]
    z_points: tuple[float, ...]
    alpha_strategy: object
    initial: InitialDataSpec
    out_dir: Path
    envelope_tol: float
    eig_tol_factor: float
    verify_k_max: int
    verify_sigma_points: int
    sweep_L_values: tuple[float, ...]
    sweep_sigma0_values: tuple[float, ...]
    threads: int
    seed_used: int | None


def _is_int(x) -> bool:
    """True for JSON integers; bool is an int subclass but not a count."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _int_field(spec: dict, key: str, default: int | None = None) -> int:
    """spec[key] (or the default when given and absent), a JSON integer."""
    value = spec[key] if default is None else spec.get(key, default)
    if not _is_int(value):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _num_field(spec: dict, key: str, default: float) -> float:
    """spec[key] or the default, a JSON number (bools and strings rejected)."""
    value = spec.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _num_list(spec: dict, key: str, default: list | None = None) -> list[float]:
    """spec[key] (or the default when given and absent), a list of numbers."""
    value = spec[key] if default is None else spec.get(key, default)
    if not (isinstance(value, list) and all(_is_number(x) for x in value)):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return [float(x) for x in value]


def _object_list(spec: dict, key: str) -> list[dict]:
    """spec[key] or [], a list of JSON objects."""
    value = spec.get(key, [])
    if not (isinstance(value, list) and all(isinstance(x, dict) for x in value)):
        raise ConfigError(f"{key} must be a list of objects, got {value!r}")
    return value


def load_config(path: str | Path, out_override: str | None = None,
                seed_override: int | None = None,
                threads: int = 1) -> RunConfig:
    """Read and validate a JSON config; aggregate all problems into one error."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    problems: list[str] = []

    def fail(msg: str) -> None:
        problems.append(msg)

    def section(name: str) -> dict:
        value = raw.get(name, {})
        if isinstance(value, dict):
            return value
        fail(f"{name} must be an object, got {value!r}")
        return {}

    run_id = raw.get("run_id", "run")
    if not isinstance(run_id, str) or not run_id:
        fail("run_id must be a nonempty string")
        run_id = "run"
    elif run_id in (".", "..") or any(c in run_id for c in "/\\\0"):
        # run_id prefixes output file names, which must stay inside the
        # output directory
        fail(f"run_id must not be '.' or '..' or contain '/', '\\' or NUL, "
             f"got {run_id!r}")
        run_id = "run"

    domain = section("domain")
    lattice = None
    L = domain.get("L", 2.0 * math.pi)
    K = domain.get("K", 4)
    M = domain.get("M", 20)
    N = domain.get("N", 0)
    if not (_is_number(L) and _is_int(K) and _is_int(M)):
        fail(f"domain: L must be a number and K, M integers, "
             f"got L={L!r}, K={K!r}, M={M!r}")
        L = 2.0 * math.pi
    else:
        try:
            lattice = ModeLattice(K=K, L=float(L), M=M)
        except HypoBGKError as exc:
            fail(f"domain: {exc}")
    if not _is_int(N) or N < 0:
        fail(f"domain: derivative order N must be an integer >= 0, got {N!r}")
        N = 0

    model = None
    mspec = raw.get("sigma", {})
    try:
        model = _parse_model(mspec)
    except (HypoBGKError, ValueError, TypeError, OverflowError, KeyError) as exc:
        fail(f"sigma: {exc}")

    times: tuple[float, ...] = ()
    tspec = raw.get("time_grid", {"start": 0.0, "stop": 10.0, "num": 21})
    try:
        times = _parse_time_grid(tspec)
    except (HypoBGKError, ValueError, TypeError, OverflowError) as exc:
        fail(f"time_grid: {exc}")

    z_points: tuple[float, ...] = ()
    if model is not None:
        try:
            z_points = _parse_z_grid(raw.get("z_grid", {"num": 1}), model)
        except (HypoBGKError, ValueError, TypeError, OverflowError) as exc:
            fail(f"z_grid: {exc}")

    alpha_strategy = raw.get("alpha_strategy", "optimize")
    try:
        parse_alpha_strategy(alpha_strategy)
    except CertificateError as exc:
        fail(f"alpha_strategy: {exc}")
        alpha_strategy = "optimize"

    if "sigma_grid_resolution" in raw:
        print("warning: sigma_grid_resolution is ignored; the certificate "
              "minimizes over sigma in closed form", file=sys.stderr)

    initial = None
    seed_used: int | None = None
    try:
        initial, seed_used = _parse_initial(raw.get("initial_data",
                                                    {"type": "random", "seed": 0}),
                                            seed_override)
    except (HypoBGKError, ValueError, TypeError, OverflowError, KeyError) as exc:
        fail(f"initial_data: {exc}")

    tol = section("tolerances")
    envelope_tol = tol.get("envelope", 1e-8)
    eig_tol_factor = tol.get("eig", 1e-10)
    # an infinite tolerance would pass every envelope or verify check
    if not (_is_number(envelope_tol) and 0.0 < envelope_tol < math.inf):
        fail(f"tolerances.envelope must be positive and finite, "
             f"got {envelope_tol!r}")
        envelope_tol = 1e-8
    if not (_is_number(eig_tol_factor) and 0.0 < eig_tol_factor < math.inf):
        fail(f"tolerances.eig must be positive and finite, "
             f"got {eig_tol_factor!r}")
        eig_tol_factor = 1e-10

    ver = section("verify")
    verify_k_max = ver.get("k_max", max(K, 1) if _is_int(K) else 4)
    verify_sigma_points = ver.get("sigma_points", 33)
    if not _is_int(verify_k_max) or verify_k_max < 1:
        fail(f"verify.k_max must be an integer >= 1, got {verify_k_max!r}")
        verify_k_max = 1
    if not _is_int(verify_sigma_points) or verify_sigma_points < 1:
        fail(f"verify.sigma_points must be an integer >= 1, "
             f"got {verify_sigma_points!r}")
        verify_sigma_points = 33

    sweep = section("sweep")
    sweep_L_raw = sweep.get("L_values", [float(L)])
    if isinstance(sweep_L_raw, list) and sweep_L_raw \
            and all(_is_number(x) for x in sweep_L_raw):
        sweep_L = tuple(float(x) for x in sweep_L_raw)
    else:
        fail(f"sweep.L_values must be a nonempty list of numbers, "
             f"got {sweep_L_raw!r}")
        sweep_L = ()
    sweep_s0 = sweep.get("sigma0_values")
    if sweep_s0 is None:
        sweep_s0_t = (model.params[0],) if model is not None else ()
    elif isinstance(sweep_s0, list) and sweep_s0 \
            and all(_is_number(x) for x in sweep_s0):
        sweep_s0_t = tuple(float(x) for x in sweep_s0)
    else:
        fail(f"sweep.sigma0_values must be a nonempty list of numbers, "
             f"got {sweep_s0!r}")
        sweep_s0_t = ()
    # pre-validate every sweep combination so failures surface before any run
    if model is not None:
        for s0 in sweep_s0_t:
            try:
                _with_offset(model, s0)
            except HypoBGKError as exc:
                fail(f"sweep: sigma0={s0} gives an invalid model: {exc}")
        for Lv in sweep_L:
            if not (Lv > 0.0 and math.isfinite(Lv)):
                fail(f"sweep: period L={Lv} must be positive and finite")

    out_dir = out_override if out_override is not None \
        else section("output").get("dir", "out")
    if not isinstance(out_dir, str):
        fail(f"output.dir must be a string, got {out_dir!r}")
        out_dir = "out"
    if not isinstance(threads, int) or threads < 1:
        fail(f"threads must be an integer >= 1, got {threads}")
        threads = 1

    if problems:
        raise ConfigError("invalid configuration:\n" +
                          "\n".join(f"  - {p}" for p in problems))
    assert lattice is not None and model is not None and initial is not None
    return RunConfig(
        run_id=run_id,
        lattice=lattice,
        levels=N,
        model=model,
        times=times,
        z_points=z_points,
        alpha_strategy=alpha_strategy,
        initial=initial,
        out_dir=Path(out_dir),
        envelope_tol=float(envelope_tol),
        eig_tol_factor=float(eig_tol_factor),
        verify_k_max=verify_k_max,
        verify_sigma_points=verify_sigma_points,
        sweep_L_values=sweep_L,
        sweep_sigma0_values=sweep_s0_t,
        threads=threads,
        seed_used=seed_used,
    )


def dump_config(cfg: RunConfig) -> dict:
    """Inverse of load_config: a JSON-ready dict that reparses to cfg."""
    model = cfg.model
    mspec: dict = {"variant": model.variant,
                   "z_domain": [model.z_lo, model.z_hi]}
    if model.variant == "constant":
        mspec["sigma0"] = model.params[0]
    elif model.variant == "affine":
        mspec["sigma0"], mspec["c1"] = model.params
    elif model.variant == "trig":
        mspec["sigma0"], mspec["eps"], mspec["omega"] = model.params
    else:
        mspec["coeffs"] = list(model.params)
    init = cfg.initial
    ispec: dict = {"type": init.kind, "normalization": init.normalization}
    if init.kind == "coefficients":
        ispec["entries"] = [{"level": n, "k": k, "m": m, "re": c.real,
                             "im": c.imag} for n, k, m, c in init.entries]
    elif init.kind == "separable":
        ispec["fourier"] = [{"k": k, "re": c.real, "im": c.imag}
                            for k, c in init.fourier]
        ispec["velocity_poly"] = list(init.velocity_poly)
    else:
        ispec.update(seed=init.seed, scale=init.scale, fill=init.fill)
    return {
        "run_id": cfg.run_id,
        "domain": {"L": cfg.lattice.L, "K": cfg.lattice.K, "M": cfg.lattice.M,
                   "N": cfg.levels},
        "sigma": mspec,
        "time_grid": {"times": list(cfg.times)},
        "z_grid": {"points": list(cfg.z_points)},
        "alpha_strategy": cfg.alpha_strategy,
        "initial_data": ispec,
        "tolerances": {"envelope": cfg.envelope_tol, "eig": cfg.eig_tol_factor},
        "verify": {"k_max": cfg.verify_k_max,
                   "sigma_points": cfg.verify_sigma_points},
        "sweep": {"L_values": list(cfg.sweep_L_values),
                  "sigma0_values": list(cfg.sweep_sigma0_values)},
        "output": {"dir": str(cfg.out_dir)},
    }


def _parse_model(mspec: dict) -> CollisionFrequencyModel:
    if not isinstance(mspec, dict):
        raise ConfigError("sigma section must be an object")
    variant = mspec.get("variant", "constant")
    dom = _num_list(mspec, "z_domain", [-1.0, 1.0])
    if len(dom) != 2:
        raise ConfigError(f"z_domain must be [lo, hi], got {dom!r}")
    z_lo, z_hi = dom
    if variant == "constant":
        params = (_num_field(mspec, "sigma0", 1.0),)
    elif variant == "affine":
        params = (_num_field(mspec, "sigma0", 1.0), _num_field(mspec, "c1", 0.0))
    elif variant == "trig":
        params = (_num_field(mspec, "sigma0", 1.0), _num_field(mspec, "eps", 0.0),
                  _num_field(mspec, "omega", 1.0))
    elif variant == "polynomial":
        params = tuple(_num_list(mspec, "coeffs", [1.0]))
    else:
        raise ConfigError(f"unknown sigma variant {variant!r}")
    return CollisionFrequencyModel(variant, params, z_lo, z_hi)


def _with_offset(model: CollisionFrequencyModel,
                 sigma0: float) -> CollisionFrequencyModel:
    """Copy of the model with its constant offset replaced."""
    params = (float(sigma0),) + model.params[1:]
    return CollisionFrequencyModel(model.variant, params, model.z_lo, model.z_hi)


def _parse_time_grid(tspec) -> tuple[float, ...]:
    if isinstance(tspec, dict) and "times" in tspec:
        times = _num_list(tspec, "times")
    elif isinstance(tspec, dict):
        start = _num_field(tspec, "start", 0.0)
        stop = _num_field(tspec, "stop", 10.0)
        num = _int_field(tspec, "num", 21)
        if num < 1:
            raise ConfigError(f"time grid needs num >= 1, got {num}")
        if stop < start:
            raise ConfigError(f"time grid needs stop >= start, got [{start}, {stop}]")
        times = list(np.linspace(start, stop, num))
    else:
        raise ConfigError("time_grid must be an object")
    if not times:
        raise ConfigError("time grid is empty")
    if any(t < 0.0 or not math.isfinite(t) for t in times):
        raise ConfigError("sample times must be finite and >= 0")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ConfigError("sample times must be nondecreasing")
    return tuple(times)


def _parse_z_grid(zspec, model: CollisionFrequencyModel) -> tuple[float, ...]:
    if isinstance(zspec, dict) and "points" in zspec:
        pts = _num_list(zspec, "points")
    elif isinstance(zspec, dict):
        num = _int_field(zspec, "num", 1)
        if num < 1:
            raise ConfigError(f"z grid needs num >= 1, got {num}")
        if num == 1:
            pts = [0.5 * (model.z_lo + model.z_hi)]
        else:
            pts = list(np.linspace(model.z_lo, model.z_hi, num))
    else:
        raise ConfigError("z_grid must be an object")
    for z in pts:
        if not model.z_lo <= z <= model.z_hi:
            raise DomainError(
                f"z={z} outside the model domain [{model.z_lo}, {model.z_hi}]")
    return tuple(pts)


def _parse_initial(ispec: dict, seed_override: int | None
                   ) -> tuple[InitialDataSpec, int | None]:
    if not isinstance(ispec, dict):
        raise ConfigError("initial_data section must be an object")
    kind = ispec.get("type", "random")
    normalization = ispec.get("normalization", "enforce")
    seed_used: int | None = None
    if kind == "coefficients":
        entries = []
        for e in _object_list(ispec, "entries"):
            entries.append((_int_field(e, "level", 0), _int_field(e, "k"),
                            _int_field(e, "m"),
                            complex(_num_field(e, "re", 0.0),
                                    _num_field(e, "im", 0.0))))
        spec = InitialDataSpec(kind="coefficients", entries=tuple(entries),
                               normalization=normalization)
    elif kind == "separable":
        fourier = tuple((_int_field(f, "k"),
                         complex(_num_field(f, "re", 0.0), _num_field(f, "im", 0.0)))
                        for f in _object_list(ispec, "fourier"))
        poly = tuple(_num_list(ispec, "velocity_poly", []))
        spec = InitialDataSpec(kind="separable", fourier=fourier,
                               velocity_poly=poly, normalization=normalization)
    elif kind == "random":
        seed = _int_field(ispec, "seed", 0) if seed_override is None \
            else seed_override
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        spec = InitialDataSpec(kind="random", seed=seed,
                               scale=_num_field(ispec, "scale", 1.0),
                               fill=ispec.get("fill", "all"),
                               normalization=normalization)
        seed_used = seed
    else:
        raise ConfigError(f"unknown initial_data type {kind!r}")
    return spec, seed_used


def _write_csv(path: Path, header, lines, seed: int | None = None) -> None:
    """Write the header and the lines, formatted lazily by _lines.

    Lines end in \r\n, as the csv module ends its rows; the header names
    need no quoting.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def _certificate_values(cert: Certificate) -> list[tuple[str, float]]:
    return [
        ("L", cert.L),
        ("l", cert.l),
        ("sigma_min", cert.sigma_min),
        ("sigma_max", cert.sigma_max),
        ("alpha", cert.alpha),
        ("alpha_max", cert.alpha_max),
        ("lambda_min", cert.lambda_min),
        ("mu", cert.mu),
        ("lambda", cert.decay_rate),
        ("ctilde", cert.ctilde),
    ]


def _certify_config(cfg: RunConfig, L: float | None = None,
                    model: CollisionFrequencyModel | None = None) -> Certificate:
    model = cfg.model if model is None else model
    return certify(cfg.lattice.L if L is None else L,
                   model.sigma_min, model.sigma_max,
                   alpha_strategy=cfg.alpha_strategy)


def cmd_certify(cfg: RunConfig) -> int:
    """Print the certificate table and write certificate.csv."""
    cert = _certify_config(cfg)
    lines = [
        ("alpha_max", cert.alpha_max),
        ("alpha", cert.alpha),
        ("lambda_min", cert.lambda_min),
        ("mu", cert.mu),
        ("lambda", cert.decay_rate),
        ("ctilde", cert.ctilde),
    ]
    try:
        chat = cert.ctilde * taylor_bound(cfg.model)
        lines.append(("chat", chat))
    except NotCertifiableError:
        chat = None
    width = max(len(name) for name, _ in lines)
    for name, value in lines:
        print(f"{name:<{width}} = {value:.12g}")
    rows = _certificate_values(cert)
    if chat is not None:
        rows.append(("chat", chat))
    _write_csv(cfg.out_dir / "certificate.csv", ("name", "value"),
               map(f"%s,{_FLOAT}\r\n".__mod__, rows))
    return EXIT_OK


def cmd_verify(cfg: RunConfig, inflate_mu: float = 1.0) -> int:
    """Re-check the certified matrix inequality on a (k, sigma) grid."""
    cert = _certify_config(cfg)
    if inflate_mu != 1.0:
        cert = dataclasses.replace(cert, mu=cert.mu * inflate_mu)
    ks = list(range(1, cfg.verify_k_max + 1))
    if cfg.verify_sigma_points == 1:
        sigmas = np.array([cert.sigma_min])
    else:
        sigmas = np.linspace(cert.sigma_min, cert.sigma_max,
                             cfg.verify_sigma_points)
    mins, norms = verify_grid(cert, ks, sigmas, cfg.lattice.M,
                              return_norms=True)
    thresholds = -cfg.eig_tol_factor * norms
    ok = mins >= thresholds
    _write_csv(cfg.out_dir / "verify.csv", VERIFY_HEADER,
               _lines(f"%d,{_FLOAT},{_FLOAT},{_FLOAT},%s\r\n",
                      np.repeat(ks, len(sigmas)), np.tile(sigmas, len(ks)),
                      mins.ravel(), thresholds.ravel(),
                      np.where(ok, "pass", "fail").ravel()))
    n_fail = int(np.size(ok) - np.count_nonzero(ok))
    if n_fail:
        bad = np.argwhere(~ok)
        k_bad, s_bad = bad[0]
        print(f"FAIL: {n_fail}/{ok.size} grid points violate the inequality; "
              f"first at k={ks[k_bad]}, sigma={sigmas[s_bad]:.12g} "
              f"(min eig {mins[k_bad, s_bad]:.6g})")
        return EXIT_ALARM
    print(f"pass: {ok.size} grid points "
          f"(k up to {cfg.verify_k_max}, {len(sigmas)} sigma values, "
          f"M={cfg.lattice.M}), worst margin {float(mins.min()):.6g}")
    return EXIT_OK


def _initial_stacks(cfg: RunConfig, cert: Certificate,
                    model: CollisionFrequencyModel, lattice: ModeLattice):
    """Initial stack data of every z sample, its sigma rows and E0[n, z].

    data has shape (Z, K+1, N+1, M), sigma_rows[z] holds
    sigma^(0)..sigma^(N) at that z, and E0[n, z] is the twisted entropy
    of level n of the initial stack at t = 0.
    """
    n_lvl = cfg.levels + 1
    data = np.stack([project_initial(cfg.initial, lattice, levels=cfg.levels,
                                     z=z).data for z in cfg.z_points])
    sigma_rows = [[sigma_eval(model, z, n) for n in range(n_lvl)]
                  for z in cfg.z_points]
    E0 = np.stack([entropy_series(data, n, cert) for n in range(n_lvl)])
    return data, sigma_rows, E0


def _entropies(cfg: RunConfig, cert: Certificate, lattice: ModeLattice,
               data: np.ndarray, sigma_rows) -> np.ndarray:
    """Twisted entropies E[n, z, j] of every level and z at cfg.times[j].

    All z samples go through the propagation core at once, and only the
    entropies of each sample are kept.
    """
    n_lvl = data.shape[2]
    E = np.empty((n_lvl, len(data), len(cfg.times)))
    samples = _propagate(data, sigma_rows, lattice.l,
                         build_operators(lattice.M),
                         np.diff(cfg.times, prepend=0.0))
    for j, sample in enumerate(samples):
        for n in range(n_lvl):
            E[n, :, j] = entropy_series(sample, n, cert)
    return E


def _result_lines(run_id: str, z: float, times: list[str], report, tol: float):
    """Yield the CSV lines of one checked series; the times come formatted.

    run_id comes as a template field (_template_field).
    """
    template = (f"{run_id},{_FLOAT % z},%s,{report.level},"
                f"{_FLOAT},{_FLOAT},{_FLOAT},%s\r\n")
    yield from _lines(template, times, report.observed, report.envelope,
                      report.ratio,
                      np.where(report.ratio <= 1.0 + tol, "pass", "fail"))


def _base_checks(cfg: RunConfig, cert: Certificate,
                 model: CollisionFrequencyModel, lattice: ModeLattice) -> list:
    """Level-0 envelope check of every z sample: one DecayReport per z.

    The envelope exp(-2 rate t) E(0) starts from the initial stack at
    t = 0, whatever time the grid starts at.
    """
    data, sigma_rows, E0 = _initial_stacks(cfg, cert, model, lattice)
    E = _entropies(cfg, cert, lattice, data, sigma_rows)
    return [check_envelope(cfg.times, E[0, i],
                           entropy_envelope(float(E0[0, i]), cert.decay_rate,
                                            cfg.times),
                           level=0, tol=cfg.envelope_tol)
            for i in range(len(cfg.z_points))]


def _summary_row(L: float, sigma0: float, z: float, cert: Certificate,
                 worst: float, tol: float) -> tuple:
    return (L, sigma0, z, cert.alpha, cert.alpha_max, cert.lambda_min,
            cert.mu, cert.decay_rate, cert.ctilde, worst,
            "pass" if worst <= 1.0 + tol else "fail")


def _summary_lines(run_id: str, rows: list[tuple]):
    """CSV lines of _summary_row rows; run_id as in _result_lines."""
    template = f"{run_id}{f',{_FLOAT}' * 10},%s\r\n"
    return map(template.__mod__, rows)


def cmd_simulate(cfg: RunConfig) -> int:
    """Exact trajectories with the base decay envelope, one CSV per z."""
    cert = _certify_config(cfg)
    reports = _base_checks(cfg, cert, cfg.model, cfg.lattice)
    times = [_FLOAT % t for t in cfg.times]
    run_id = _template_field(cfg.run_id)
    summary = []
    all_pass = True
    for i, (z, report) in enumerate(zip(cfg.z_points, reports)):
        _write_csv(cfg.out_dir / f"{cfg.run_id}_z{i:03d}.csv", RESULT_HEADER,
                   _result_lines(run_id, z, times, report, cfg.envelope_tol),
                   seed=cfg.seed_used)
        summary.append(_summary_row(cfg.lattice.L, cfg.model.params[0], z,
                                    cert, report.max_ratio, cfg.envelope_tol))
        all_pass &= report.max_ratio <= 1.0 + cfg.envelope_tol
    _write_csv(cfg.out_dir / "summary.csv", SUMMARY_HEADER,
               _summary_lines(run_id, summary), seed=cfg.seed_used)
    n = len(cfg.z_points)
    if not all_pass:
        print(f"FAIL: envelope violated on {n} z-sample run; see summary.csv")
        return EXIT_ALARM
    print(f"pass: {n} z-samples, {len(cfg.times)} times, "
          f"rate {cert.decay_rate:.12g}")
    return EXIT_OK


def _derivative_envelopes(cfg: RunConfig, cert: Certificate,
                          sqrt0: np.ndarray, H: float, e0_ok: bool,
                          chat: float | None):
    """Envelope series per level and family for one z run.

    Returns a list of (family, level, envelope array).  The affine family
    (chat None) uses the chain bound (and, when the uniform hypothesis
    holds, the uniform form); other variants use the Taylor-bound family
    with constant chat, whose hypothesis E_0(0) <= 1 cmd_derivatives
    checks before propagating.
    """
    times = np.asarray(cfg.times)
    out = []
    if chat is None:
        c1 = cfg.model.params[1] if cfg.model.variant == "affine" else 0.0
        coupling = abs(c1) * cert.ctilde
        for n in range(cfg.levels + 1):
            out.append(("chain", n,
                        affine_derivative_envelope(n, times, cert, coupling,
                                                   sqrt0)))
        if e0_ok:
            for n in range(cfg.levels + 1):
                out.append(("uniform", n,
                            affine_uniform_envelope(n, times, cert, coupling,
                                                    H)))
    else:
        for n in range(cfg.levels + 1):
            out.append(("taylor", n,
                        taylor_derivative_envelope(n, times, cert, chat, H)))
    return out


def cmd_derivatives(cfg: RunConfig) -> int:
    """Check certified sensitivity envelopes for derivative levels 1..N."""
    if cfg.levels < 1:
        raise UsageError(
            "derivatives needs N >= 1 stored derivative levels; "
            "set domain.N in the config")
    cert = _certify_config(cfg)
    data, sigma_rows, E0 = _initial_stacks(cfg, cert, cfg.model, cfg.lattice)
    sqrt_E0 = np.sqrt(E0)
    # envelopes, H and the uniform hypothesis start from the initial stack
    # at t = 0
    e0_ok = sqrt_E0[0] <= 1.0 + 1e-9
    chat = None
    if cfg.model.variant not in ("constant", "affine"):
        chat = cert.ctilde * taylor_bound(cfg.model)
        if not e0_ok.all():
            raise DataError(
                "the Taylor-bound envelope needs initial entropy E_0(0) <= 1; "
                "scale the initial data down")
    sqrt_E = np.sqrt(_entropies(cfg, cert, cfg.lattice, data, sigma_rows))
    times = [_FLOAT % t for t in cfg.times]
    run_id = _template_field(cfg.run_id)
    summary = []
    all_pass = True
    for i, z in enumerate(cfg.z_points):
        sqrt0 = sqrt_E0[:, i]
        H = 0.0
        for n in range(1, cfg.levels + 1):
            if sqrt0[n] > 0.0:
                H = max(H, float(sqrt0[n]) ** (1.0 / n))
        H *= 1.0 + 1e-9
        families = _derivative_envelopes(cfg, cert, sqrt0, H, bool(e0_ok[i]),
                                         chat)
        worst = 0.0
        primary, uniform = [], []
        for family, n, env in families:
            report = check_envelope(cfg.times, sqrt_E[n, i], env, level=n,
                                    tol=cfg.envelope_tol)
            worst = max(worst, report.max_ratio)
            (uniform if family == "uniform" else primary).append(report)
        for suffix, reports in (("", primary), ("_uniform", uniform)):
            if reports:
                _write_csv(cfg.out_dir / f"{cfg.run_id}_z{i:03d}{suffix}.csv",
                           RESULT_HEADER,
                           (line for report in reports
                            for line in _result_lines(run_id, z, times, report,
                                                      cfg.envelope_tol)),
                           seed=cfg.seed_used)
        summary.append(_summary_row(cfg.lattice.L, cfg.model.params[0], z,
                                    cert, worst, cfg.envelope_tol))
        all_pass &= worst <= 1.0 + cfg.envelope_tol
    _write_csv(cfg.out_dir / "summary.csv", SUMMARY_HEADER,
               _summary_lines(run_id, summary), seed=cfg.seed_used)
    if not all_pass:
        print("FAIL: derivative envelope violated; see summary.csv")
        return EXIT_ALARM
    print(f"pass: {len(cfg.z_points)} z-samples, levels 0..{cfg.levels}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    """Level-0 envelope runs over the (L, sigma0) grid, one file per point."""
    points = [(i, j, Lv, s0)
              for i, Lv in enumerate(cfg.sweep_L_values)
              for j, s0 in enumerate(cfg.sweep_sigma0_values)]
    times = [_FLOAT % t for t in cfg.times]
    run_id = _template_field(cfg.run_id)

    def run_point(point):
        i, j, Lv, s0 = point
        model = _with_offset(cfg.model, s0)
        lattice = ModeLattice(K=cfg.lattice.K, L=Lv, M=cfg.lattice.M)
        cert = _certify_config(cfg, L=Lv, model=model)
        reports = _base_checks(cfg, cert, model, lattice)
        _write_csv(cfg.out_dir / f"sweep_L{i:03d}_s{j:03d}.csv", RESULT_HEADER,
                   (line for z, report in zip(cfg.z_points, reports)
                    for line in _result_lines(run_id, z, times, report,
                                              cfg.envelope_tol)),
                   seed=cfg.seed_used)
        return [(i, j, Lv, s0, z, cert, report.max_ratio)
                for z, report in zip(cfg.z_points, reports)]

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run_point, points))
    else:
        results = [run_point(p) for p in points]
    flat = [item for chunk in results for item in chunk]
    flat.sort(key=lambda item: (item[0], item[1], item[4]))
    summary = [_summary_row(Lv, s0, z, cert, worst, cfg.envelope_tol)
               for _, _, Lv, s0, z, cert, worst in flat]
    _write_csv(cfg.out_dir / "summary.csv", SUMMARY_HEADER,
               _summary_lines(run_id, summary), seed=cfg.seed_used)
    worst_all = max((item[6] for item in flat), default=0.0)
    if worst_all > 1.0 + cfg.envelope_tol:
        print("FAIL: envelope violated inside the sweep; see summary.csv")
        return EXIT_ALARM
    print(f"pass: {len(points)} sweep points x {len(cfg.z_points)} z-samples")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypobgk",
        description="certified decay and sensitivity envelopes for a linear "
                    "BGK model with uncertain collision frequency")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("certify", "compute and print the decay certificate"),
        ("verify", "re-check the certified matrix inequality on a grid"),
        ("simulate", "exact trajectories with the base decay envelope"),
        ("derivatives", "certified envelopes for z-derivative levels"),
        ("sweep", "envelope runs over an (L, sigma0) grid"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sweep grids")
        p.add_argument("--seed", type=int, default=None,
                       help="override the random initial-data seed")
        if name == "verify":
            p.add_argument("--inflate-mu", type=float, default=1.0,
                           help="debug: scale mu before checking (values > 1 "
                                "should make the check fail)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, out_override=args.out,
                          seed_override=args.seed, threads=args.threads)
        if args.command == "certify":
            return cmd_certify(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, inflate_mu=args.inflate_mu)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "derivatives":
            return cmd_derivatives(cfg)
        return cmd_sweep(cfg)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, UsageError, DomainError, InvalidModelError,
            NotCertifiableError, CertificateError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        # anything else is a defect of the program; exit 1 stays reserved
        # for a violated bound
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

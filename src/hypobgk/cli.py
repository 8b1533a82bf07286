"""Command-line front end: certify, verify, simulate, derivatives, sweep.

All commands read a single JSON configuration file and write CSV files
into an output directory.  Exit codes: 0 on success, 1 when a certified
envelope or inequality check fails (a proven bound was violated, so
this is a correctness alarm), 2 for invalid input of any kind or an
output file that cannot be written, 3 for numerical failure, 4 for an
internal error (an unexpected exception, reported on one line without a
traceback).

Result rows share one fixed schema

    run_id,z,t,level,entropy,envelope,ratio,verdict

with floats printed to 17 significant digits so they round-trip exactly.
For the base system (simulate, sweep) the entropy column holds the
twisted entropy and the envelope column exp(-2 rate t) E(0); for
derivative levels both columns hold the square-root entropy scale the
certified bounds live on.  The initial data do not depend on z, so
every envelope, and the H and E_0(0) <= 1 hypotheses of the derivative
families, are computed once per run from the initial stack at t = 0,
also when the time grid starts later; check_envelope divides the (Z, T)
entropies of all z samples by an envelope at once.  Initial data whose
entropy is not finite at some level, and a Taylor-family run whose
initial stacks break E_0(0) <= 1, are rejected before any propagation.
Runs are deterministic: the same configuration produces byte-identical
CSV files, and random initial data comes from a seeded generator whose
seed is recorded in a header comment of each CSV it influenced.
--threads N (N >= 1, default 1) is the number of processes a sweep may
use: its grid points are cut in grid order into min(N, P) contiguous
slices, and on Linux each slice after the first runs in a forked worker
process (_in_processes).  This process writes every file, in grid
order, so stdout, stderr, the exit code and the files written are those
of a serial run.  Other commands run in one process whatever N is.

One table, _SCHEMA, holds every config key with its kind and default.  A
key it does not hold, or one of another form of its section (c1 under a
trig sigma, start next to times), is invalid input like any other.

simulate, derivatives and each sweep point run all z samples through
the propagation core at once and keep only the entropy of each sample,
evaluated on the core's real-frame data.  The core steps the times
itself, so a range grid and its times list step alike.  The samples are
copied into a block of up to _STEPS time steps, and each level's
entropies are read over a whole block in one entropy_series call.  A
sweep formats the z,t,level fields of its rows once and shares them
between its points, and each point's CSV text is formatted whole by the
process that ran the point.
Every CSV is written as blocks of up to _BLOCK rows (_lines): the
columns are interleaved into one flat list and one %-template of the
block's rows, %.17g for floats, formats them at once, with \r\n line
endings and run_id quoted once by the csv module's rules.  These are the
same bytes as format(x, ".17g") per value through csv.writer, at a
fraction of the cost.  The times are formatted once per run.  In the
columns whose values repeat across rows (verify's sigma and threshold,
and the envelopes) each distinct value is formatted once (_formatted)
and enters the template as a string.  _write_csv consumes the blocks
lazily, so outside a sweep formatting happens while the file is
written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import pickle
import reprlib
import sys
import warnings
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
from .propagation import propagate
from .spectral import ModeLattice, real_frame

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
_BLOCK = 4096        # CSV rows formatted by one %-template (_lines)
_STEPS = 27          # time steps whose entropies one entropy_series call reads


def _formatted(values) -> np.ndarray:
    """%.17g of each entry of values, as an object array of their shape.

    For columns whose values repeat: each distinct value is formatted
    once, and the text enters a _lines template as a string.  Values are
    told apart by their bit patterns, not by float equality: -0.0 and 0.0
    print differently.  A column of distinct values is cheaper passed to
    _lines as floats.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([_FLOAT % x for x in bits.view(float).tolist()],
                    dtype=object)
    return text[where].reshape(values.shape)


def _template_field(text: str) -> str:
    """text as one CSV field (csv module quoting), escaped for a %-template."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2].replace("%", "%%")


def _lines(template: str, *columns):
    """Yield the CSV text of the rows of the columns, one string per block
    of up to _BLOCK rows.

    template is the line of one row; row r fills it with column[r] of each
    column, in order, and all columns have the same length.  A block's
    columns are interleaved into one flat list by slice assignment, and
    the template repeated once per row formats them in one % operation.
    Array slices are converted to lists first, so %.17g formats Python
    floats.
    """
    width = len(columns)
    rows = len(columns[0]) if columns else 0
    for start in range(0, rows, _BLOCK):
        stop = min(start + _BLOCK, rows)
        flat = [None] * ((stop - start) * width)
        for i, column in enumerate(columns):
            part = column[start:stop]
            flat[i::width] = part.tolist() if isinstance(part, np.ndarray) \
                else part
        yield (template * (stop - start)) % tuple(flat)


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

    @property
    def seed_used(self) -> int | None:
        """The seed of random initial data, --seed applied; else None."""
        init = self.initial
        return init.seed if init and init.kind == "random" else None


@dataclasses.dataclass(frozen=True)
class _Forms:
    """Object table of a section with several forms: the selector's value
    names the form, the first by default; without a selector a later form
    is picked when the section holds one of its keys.

    tables[name] is the object table of a form, its common keys first,
    and known[name] its keys in message order, the selector first."""

    selector: str | None
    common: dict
    forms: dict
    tables: dict = dataclasses.field(init=False, repr=False, compare=False)
    known: dict = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tables = {name: {**self.common, **form}
                  for name, form in self.forms.items()}
        lead = [self.selector] if self.selector else []
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "known", {
            name: dict.fromkeys([*lead, *table])
            for name, table in tables.items()})


# The config keys, read by load_config and dump_config.  An object table
# maps each key to (kind, default), or to the table of the nested object.
# A kind that is a table reads a list of such objects.  The default
# _REQUIRED marks a key that must be given; None marks one that
# load_config works out from other keys.  There are no comment keys: JSON
# has none, and an unknown key is most likely a misspelt one.
_NUM, _INT, _STR, _NUMS = ("a number", "an integer", "a string",
                           "a list of numbers")
_ANY = "any value"      # alpha_strategy: parse_alpha_strategy checks it
_REQUIRED = "required"
_COMPLEX = {"re": (_NUM, 0.0), "im": (_NUM, 0.0)}
_SCHEMA = {
    "run_id": (_STR, "run"),
    "domain": {"L": (_NUM, 2.0 * math.pi), "K": (_INT, 4), "M": (_INT, 20),
               "N": (_INT, 0)},
    # each form lists the model parameters in order
    "sigma": _Forms("variant", {"z_domain": (_NUMS, (-1.0, 1.0))}, {
        "constant": {"sigma0": (_NUM, 1.0)},
        "affine": {"sigma0": (_NUM, 1.0), "c1": (_NUM, 0.0)},
        "trig": {"sigma0": (_NUM, 1.0), "eps": (_NUM, 0.0),
                 "omega": (_NUM, 1.0)},
        "polynomial": {"coeffs": (_NUMS, (1.0,))},
    }),
    "time_grid": _Forms(None, {}, {
        "range": {"start": (_NUM, 0.0), "stop": (_NUM, 10.0),
                  "num": (_INT, 21)},
        "times": {"times": (_NUMS, _REQUIRED)},
    }),
    "z_grid": _Forms(None, {}, {"num": {"num": (_INT, 1)},
                                "points": {"points": (_NUMS, _REQUIRED)}}),
    "alpha_strategy": (_ANY, "optimize"),
    # form keys are InitialDataSpec fields; an item holds its integers,
    # then the complex value re + i im
    "initial_data": _Forms("type", {"normalization": (_STR, "enforce")}, {
        "random": {"seed": (_INT, 0), "scale": (_NUM, 1.0),
                   "fill": (_STR, "all")},
        "coefficients": {"entries": ({"level": (_INT, 0),
                                      "k": (_INT, _REQUIRED),
                                      "m": (_INT, _REQUIRED), **_COMPLEX},
                                     ())},
        "separable": {"fourier": ({"k": (_INT, _REQUIRED), **_COMPLEX}, ()),
                      "velocity_poly": (_NUMS, ())},
    }),
    "tolerances": {"envelope": (_NUM, 1e-8), "eig": (_NUM, 1e-10)},
    "verify": {"k_max": (_INT, None), "sigma_points": (_INT, 33)},
    "sweep": {"L_values": (_NUMS, None), "sigma0_values": (_NUMS, None)},
    "output": {"dir": (_STR, "out")},
}


def _number(x) -> float | None:
    """A JSON number as a float; None for anything else, bools and
    integers beyond the float range included."""
    try:
        return float(x) if isinstance(x, (int, float)) \
            and not isinstance(x, bool) else None
    except OverflowError:
        return None


def _check(kind, value, name: str, where: str, problems: list[str]):
    """value read as its kind, numbers as floats; a value of another kind
    appends a problem.  A kind that is a table reads a list of objects."""
    if isinstance(kind, dict):
        if isinstance(value, list) and all(isinstance(x, dict) for x in value):
            return [_read(kind, x, where, problems) for x in value]
        kind = "a list of objects"
    elif kind == _NUMS and isinstance(value, list):
        if None not in (numbers := [_number(x) for x in value]):
            return numbers
    elif kind == _NUM and _number(value) is not None:
        return float(value)
    # bool is an int subclass but not a count
    elif (kind == _ANY or kind == _STR and isinstance(value, str)
          or kind == _INT and isinstance(value, int)
          and not isinstance(value, bool)):
        return value
    problems.append(f"{name} must be {kind}, got {reprlib.repr(value)}")


def _read(table, spec, where: str, problems: list[str]) -> dict | None:
    """spec read by an object table: every key of the table, and of the
    picked form, with its value or its default.

    Each problem is appended to problems.  A key whose value, or anything
    nested in it, has a problem reads as None.
    """
    at = f"{where}: " if where else ""
    if not isinstance(spec, dict):
        problems.append(f"{where} must be an object, got {reprlib.repr(spec)}")
        return None
    out: dict = {}
    known = table
    if isinstance(table, _Forms):
        names = list(table.forms)
        if table.selector is None:
            name = next((n for n in reversed(names)
                         if not spec.keys().isdisjoint(table.forms[n])),
                        names[0])
        else:
            name = out[table.selector] = spec.get(table.selector, names[0])
            if not (isinstance(name, str) and name in table.forms):
                problems.append(f"{at}unknown {table.selector} "
                                f"{reprlib.repr(name)}; expected one of "
                                f"{', '.join(names)}")
                return None
        known, table = table.known[name], table.tables[name]
    problems.extend(f"{at}unknown key {key!r}; expected one of "
                    f"{', '.join(known)}" for key in spec if key not in known)
    for key, entry in table.items():
        n = len(problems)
        if not isinstance(entry, tuple):
            value = _read(entry, spec.get(key, {}), key, problems)
        elif key in spec:
            value = _check(entry[0], spec[key], at + key, where, problems)
        else:
            value = entry[1]
            if value is _REQUIRED:
                problems.append(f"{at}{key} is required")
        out[key] = value if len(problems) == n else None
    return out


def _item(entry: dict) -> tuple:
    """An entries or fourier item as its integers, then re + i im."""
    *integers, re, im = entry.values()
    return (*integers, complex(re, im))


def load_config(path: str | Path, out_override: str | None = None,
                seed_override: int | None = None) -> RunConfig:
    """Read a JSON config by _SCHEMA and check its values; aggregate all
    problems, unknown keys included, into one error."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError also covers undecodable text and integers of over
        # 4300 digits
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    problems: list[str] = []
    fail = problems.append
    doc = _read(_SCHEMA, raw, "", problems)

    run_id = doc["run_id"]
    # run_id prefixes output file names, which must stay in the output dir
    if run_id is not None and (run_id in ("", ".", "..")
                               or any(c in run_id for c in "/\\\0")):
        fail(f"run_id must be nonempty and not '.' or '..' or contain '/', "
             f"'\\' or NUL, got {run_id!r}")

    domain, lattice = doc["domain"], None
    if domain is not None:
        try:
            lattice = ModeLattice(K=domain["K"], L=domain["L"], M=domain["M"])
        except HypoBGKError as exc:
            fail(f"domain: {exc}")
        if domain["N"] < 0:
            fail(f"domain: derivative order N must be an integer >= 0, "
                 f"got {domain['N']!r}")

    sigma, model = doc["sigma"], None
    if sigma is not None:
        form = _SCHEMA["sigma"].forms[sigma["variant"]]
        params = [p for key, (kind, _) in form.items()
                  for p in (sigma[key] if kind == _NUMS else [sigma[key]])]
        try:
            if len(sigma["z_domain"]) != 2:
                raise ConfigError(f"z_domain must be [lo, hi], "
                                  f"got {sigma['z_domain']!r}")
            model = CollisionFrequencyModel(sigma["variant"], tuple(params),
                                            *sigma["z_domain"])
        except (HypoBGKError, ValueError, OverflowError) as exc:
            fail(f"sigma: {exc}")

    grid, times = doc["time_grid"], ()
    if grid is not None:
        start, stop, num = grid.get("start"), grid.get("stop"), grid.get("num")
        try:
            if "times" in grid:
                times = grid["times"]
            elif num < 1:
                raise ConfigError(f"time grid needs num >= 1, got {num}")
            elif stop < start:
                raise ConfigError(f"time grid needs stop >= start, "
                                  f"got [{start}, {stop}]")
            elif not (math.isfinite(start) and math.isfinite(stop)):
                raise ConfigError("sample times must be finite and >= 0")
            else:
                times = list(np.linspace(start, stop, num))
            if not times:
                raise ConfigError("time grid is empty")
            if any(t < 0.0 or not math.isfinite(t) for t in times):
                raise ConfigError("sample times must be finite and >= 0")
            if any(b < a for a, b in zip(times, times[1:])):
                raise ConfigError("sample times must be nondecreasing")
        except (HypoBGKError, ValueError, OverflowError) as exc:
            fail(f"time_grid: {exc}")

    grid, z_points = doc["z_grid"], ()
    if grid is not None and model is not None:
        lo, hi = model.z_lo, model.z_hi
        try:
            if "points" in grid:
                z_points = grid["points"]
            elif grid["num"] < 1:
                raise ConfigError(f"z grid needs num >= 1, got {grid['num']}")
            elif grid["num"] == 1:
                z_points = [0.5 * (lo + hi)]
            else:
                z_points = list(np.linspace(lo, hi, grid["num"]))
            if not z_points:
                raise ConfigError("z grid is empty")
            for z in z_points:
                if not lo <= z <= hi:
                    raise DomainError(
                        f"z={z} outside the model domain [{lo}, {hi}]")
        except (HypoBGKError, ValueError, OverflowError) as exc:
            fail(f"z_grid: {exc}")

    try:
        parse_alpha_strategy(doc["alpha_strategy"])
    except CertificateError as exc:
        fail(f"alpha_strategy: {exc}")

    spec, initial = doc["initial_data"], None
    if spec is not None:
        kind = spec.pop("type")
        for key, value in spec.items():
            if isinstance(value, (list, tuple)):
                spec[key] = tuple(_item(x) if isinstance(x, dict) else x
                                  for x in value)
        if seed_override is not None:
            if kind == "random":
                spec["seed"] = seed_override
            else:
                fail(f"initial_data: --seed applies only to random initial "
                     f"data, got type {kind!r}")
        try:
            initial = InitialDataSpec(kind=kind, **spec)
        except HypoBGKError as exc:
            fail(f"initial_data: {exc}")

    tol = doc["tolerances"] or {}
    for key, value in tol.items():
        # an infinite tolerance would pass every envelope or verify check
        if not 0.0 < value < math.inf:
            fail(f"tolerances.{key} must be positive and finite, "
                 f"got {value!r}")

    ver = doc["verify"] or {}
    if ver and ver["k_max"] is None:
        ver["k_max"] = max(domain["K"], 1) if domain else 4
    for key, value in ver.items():
        if value < 1:
            fail(f"verify.{key} must be an integer >= 1, got {value!r}")

    sweep = doc["sweep"] or {}
    if sweep and sweep["L_values"] is None and domain:
        sweep["L_values"] = [domain["L"]]
    if sweep and sweep["sigma0_values"] is None and model:
        sweep["sigma0_values"] = [model.params[0]]
    for key, values in sweep.items():
        if values == []:
            fail(f"sweep.{key} must be a nonempty list of numbers, got []")
    # pre-validate every sweep combination so failures surface before any run;
    # the model's own sigma0 (the default) was validated with the model
    if model is not None and sweep:
        for s0 in sweep["sigma0_values"]:
            if s0 == model.params[0]:
                continue
            try:
                _with_offset(model, s0)
            except HypoBGKError as exc:
                fail(f"sweep: sigma0={s0} gives an invalid model: {exc}")
        for Lv in sweep["L_values"] or ():
            if not (Lv > 0.0 and math.isfinite(Lv)):
                fail(f"sweep: period L={Lv} must be positive and finite")

    if problems:
        raise ConfigError("invalid configuration:\n" +
                          "\n".join(f"  - {p}" for p in problems))
    return RunConfig(
        run_id=run_id,
        lattice=lattice,
        levels=domain["N"],
        model=model,
        times=tuple(times),
        z_points=tuple(z_points),
        alpha_strategy=doc["alpha_strategy"],
        initial=initial,
        out_dir=Path(doc["output"]["dir"] if out_override is None
                     else out_override),
        envelope_tol=tol["envelope"],
        eig_tol_factor=tol["eig"],
        verify_k_max=ver["k_max"],
        verify_sigma_points=ver["sigma_points"],
        sweep_L_values=tuple(sweep["L_values"]),
        sweep_sigma0_values=tuple(sweep["sigma0_values"]),
    )


def dump_config(cfg: RunConfig) -> dict:
    """Inverse of load_config: a JSON-ready dict that reparses to cfg."""
    model, init = cfg.model, cfg.initial
    params = iter(model.params)
    mspec: dict = {"variant": model.variant,
                   "z_domain": [model.z_lo, model.z_hi]}
    for key, (kind, _) in _SCHEMA["sigma"].forms[model.variant].items():
        mspec[key] = list(params) if kind == _NUMS else next(params)
    ispec: dict = {"type": init.kind, "normalization": init.normalization}
    for key, (kind, _) in _SCHEMA["initial_data"].forms[init.kind].items():
        value = getattr(init, key)
        if isinstance(kind, dict):
            value = [dict(zip(kind, (*x[:-1], x[-1].real, x[-1].imag)))
                     for x in value]
        ispec[key] = list(value) if kind == _NUMS else value
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


def _with_offset(model: CollisionFrequencyModel,
                 sigma0: float) -> CollisionFrequencyModel:
    """Copy of the model with its constant offset replaced."""
    params = (float(sigma0),) + model.params[1:]
    return CollisionFrequencyModel(model.variant, params, model.z_lo, model.z_hi)


def _write_csv(path: Path, header, blocks, seed: int | None = None) -> None:
    """Write the header and the blocks of rows that _lines yields, each
    formatted only when it is written.

    Lines end in \r\n, as the csv module ends its rows; the header names
    need no quoting.  A directory or file that cannot be made or written
    is a ConfigError naming the file.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            if seed is not None:
                fh.write(f"# seed={seed}\n")
            fh.write(",".join(header) + "\r\n")
            fh.writelines(blocks)
    except OSError as exc:
        raise ConfigError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


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
    try:
        chat = [("chat", cert.ctilde * taylor_bound(cfg.model))]
    except NotCertifiableError:
        chat = []
    lines = [
        ("alpha_max", cert.alpha_max),
        ("alpha", cert.alpha),
        ("lambda_min", cert.lambda_min),
        ("mu", cert.mu),
        ("lambda", cert.decay_rate),
        ("ctilde", cert.ctilde),
    ] + chat
    width = max(len(name) for name, _ in lines)
    for name, value in lines:
        print(f"{name:<{width}} = {value:.12g}")
    names, values = zip(*_certificate_values(cert), *chat)
    _write_csv(cfg.out_dir / "certificate.csv", ("name", "value"),
               _lines(f"%s,{_FLOAT}\r\n", names, values))
    return EXIT_OK


def cmd_verify(cfg: RunConfig, inflate_mu: float = 1.0) -> int:
    """Re-check the certified matrix inequality on a (k, sigma) grid."""
    if not (inflate_mu > 0.0 and math.isfinite(inflate_mu)):
        raise UsageError(
            f"--inflate-mu must be positive and finite, got {inflate_mu}")
    cert = _certify_config(cfg)
    if inflate_mu != 1.0:
        cert = dataclasses.replace(cert, mu=cert.mu * inflate_mu)
    ks = list(range(1, cfg.verify_k_max + 1))
    sigmas = np.linspace(cert.sigma_min, cert.sigma_max,
                         cfg.verify_sigma_points)
    mins, norms = verify_grid(cert, ks, sigmas, cfg.lattice.M)
    thresholds = -cfg.eig_tol_factor * norms
    ok = mins >= thresholds
    sigma_text = _formatted(sigmas).tolist()
    # every minimum of a model that is not constant is distinct, so they
    # enter the template as floats
    _write_csv(cfg.out_dir / "verify.csv", VERIFY_HEADER,
               _lines(f"%s,{_FLOAT},%s,%s\r\n",
                      [f"{k},{s}" for k in ks for s in sigma_text],
                      mins.ravel(), _formatted(thresholds).ravel(),
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
                    model: CollisionFrequencyModel, stack: np.ndarray):
    """Initial stack data (Z, K+1, N+1, M), sigma_rows[z] = sigma^(0..N)
    at z, and E0[n], the entropy of level n at t = 0.  The initial data do
    not depend on z: every z reads the one projected stack, so E0 holds
    for every z.  A non-finite E0 raises DataError: no envelope could be
    checked against it."""
    data = np.broadcast_to(stack, (len(cfg.z_points),) + stack.shape)
    sigma_rows = [[sigma_eval(model, z, n) for n in range(cfg.levels + 1)]
                  for z in cfg.z_points]
    with np.errstate(over="ignore", invalid="ignore"):
        E0 = np.array([entropy_series(real_frame(stack), n, cert.alpha)
                       for n in range(cfg.levels + 1)])
    if not np.all(np.isfinite(E0)):
        raise DataError("the entropy of the initial data is not finite; "
                        "scale the initial data down")
    return data, sigma_rows, E0


def _entropies(cfg: RunConfig, cert: Certificate, lattice: ModeLattice,
               data: np.ndarray, sigma_rows) -> np.ndarray:
    """Twisted entropies E[n, z, j] of every level and z at cfg.times[j].

    All z samples go through the propagation core at once, and only the
    entropies of each sample are kept, read from its real-frame data.
    The samples are copied into a block of up to _STEPS steps, and each
    full block, and the last one, is read in one entropy_series call per
    level.
    """
    n_lvl, n_t = data.shape[2], len(cfg.times)
    E = np.empty((n_lvl, len(data), n_t))
    samples = propagate(data, sigma_rows, lattice.l, cfg.times)
    block = np.empty((min(_STEPS, n_t),) + data.shape + (2,))
    for j, sample in enumerate(samples):
        b = j % len(block)
        block[b] = sample
        if b + 1 == len(block) or j + 1 == n_t:
            j0 = j - b
            for n in range(n_lvl):
                E[n, :, j0:j + 1] = entropy_series(block[:b + 1], n,
                                                   cert.alpha).T
    return E


def _ratios(observed: np.ndarray, envelopes: np.ndarray) -> np.ndarray:
    """Ratios[n, z, j] of observed[n, z, j] against envelopes[n, j]: one
    envelope per level and run, checked against every z sample at once."""
    return np.stack([check_envelope(obs, env, level=n)
                     for n, (obs, env) in enumerate(zip(observed, envelopes))])


def _base_run(cfg: RunConfig, cert: Certificate,
              model: CollisionFrequencyModel, lattice: ModeLattice,
              stack: np.ndarray):
    """Level-0 entropies E[0, z, j] and their envelope env[0, j].

    Level 0 of the stacked system does not see the higher levels, so only
    level 0 is stepped.  The envelope exp(-2 rate t) E(0) starts from the
    initial stack at t = 0, whatever time the grid starts at.
    """
    data, sigma_rows, E0 = _initial_stacks(cfg, cert, model, stack)
    E = _entropies(cfg, cert, lattice, data[:, :, :1],
                   [row[:1] for row in sigma_rows])
    return E, entropy_envelope(E0[0], cert.decay_rate, cfg.times)[None]


def _lead(keys, times: list[str]) -> list[str]:
    """The z,t,level fields of each row of an (R, T) block, in row order:
    keys[r] = (z, level) at each of the formatted times."""
    lead = []
    for z, level in keys:
        z = _FLOAT % z
        lead += [f"{z},{t},{level}" for t in times]
    return lead


def _result_lines(run_id: str, keys, times: list[str], observed, envelope,
                  ratio, tol: float, lead: list[str] | None = None):
    """Yield the CSV text of an (R, T) block of checked series (_lines).

    Row r of observed and ratio is the series of keys[r] = (z, level) at
    the times, which come formatted; lead, when given, holds their
    _lead(keys, times) fields.  The envelope is formatted in its own
    shape, once per distinct value, and broadcast to the block's shape.
    run_id comes as a template field (_template_field).
    """
    if lead is None:
        lead = _lead(keys, times)
    env = np.broadcast_to(_formatted(envelope), ratio.shape)
    yield from _lines(f"{run_id},%s,{_FLOAT},%s,{_FLOAT},%s\r\n", lead,
                      observed.ravel(), env.ravel(), ratio.ravel(),
                      np.where(ratio <= 1.0 + tol, "pass", "fail").ravel())


def _summary_rows(L: float, sigma0: float, zs, cert: Certificate,
                  ratios, tol: float) -> list[tuple]:
    """One row per z: its worst ratio over every level and time of every
    ratios[n, z, j] array."""
    worst = np.max([r.max(axis=(0, 2)) for r in ratios], axis=0)
    return [(L, sigma0, z, cert.alpha, cert.alpha_max, cert.lambda_min,
             cert.mu, cert.decay_rate, cert.ctilde, w,
             "pass" if w <= 1.0 + tol else "fail")
            for z, w in zip(zs, worst.tolist())]


def _summary_lines(run_id: str, rows: list[tuple]):
    """CSV text of _summary_rows rows; run_id as in _result_lines."""
    template = f"{run_id}{f',{_FLOAT}' * 10},%s\r\n"
    return _lines(template, *zip(*rows))


def _write_summary(cfg: RunConfig, run_id: str, rows: list[tuple],
                   fail: str, ok: str) -> int:
    """Write summary.csv; print fail and exit 1 if a row failed, else ok."""
    _write_csv(cfg.out_dir / "summary.csv", SUMMARY_HEADER,
               _summary_lines(run_id, rows), seed=cfg.seed_used)
    if any(row[-1] == "fail" for row in rows):
        print(fail)
        return EXIT_ALARM
    print(ok)
    return EXIT_OK


def _write_z_run(cfg: RunConfig, cert: Certificate, observed: np.ndarray,
                 families: dict, fail: str, ok: str) -> int:
    """Check observed[n, z, j] against each envelope family[n, j]; write one
    CSV per z and family, holding every level of that z, and the summary."""
    ratios = {suffix: _ratios(observed, envs)
              for suffix, envs in families.items()}
    run_id = _template_field(cfg.run_id)
    times = [_FLOAT % t for t in cfg.times]
    for i, z in enumerate(cfg.z_points):
        keys = [(z, n) for n in range(len(observed))]
        for suffix, envs in families.items():
            _write_csv(cfg.out_dir / f"{cfg.run_id}_z{i:03d}{suffix}.csv",
                       RESULT_HEADER,
                       _result_lines(run_id, keys, times, observed[:, i], envs,
                                     ratios[suffix][:, i], cfg.envelope_tol),
                       seed=cfg.seed_used)
    return _write_summary(cfg, run_id, _summary_rows(
        cfg.lattice.L, cfg.model.params[0], cfg.z_points, cert,
        ratios.values(), cfg.envelope_tol), fail, ok)


def cmd_simulate(cfg: RunConfig) -> int:
    """Exact trajectories with the base decay envelope, one CSV per z."""
    cert = _certify_config(cfg)
    stack = project_initial(cfg.initial, cfg.lattice, levels=cfg.levels)
    E, env = _base_run(cfg, cert, cfg.model, cfg.lattice, stack)
    n = len(cfg.z_points)
    return _write_z_run(
        cfg, cert, E, {"": env},
        f"FAIL: envelope violated on {n} z-sample run; see summary.csv",
        f"pass: {n} z-samples, {len(cfg.times)} times, "
        f"rate {cert.decay_rate:.12g}")


def cmd_derivatives(cfg: RunConfig) -> int:
    """Check certified sensitivity envelopes for derivative levels 0..N.

    Constant and affine sigma use the chain bound and, when E_0(0) <= 1,
    the uniform form too, in a second file per z; other variants use the
    Taylor-bound family, whose hypothesis E_0(0) <= 1 is checked before
    propagating.  The envelopes, H and E_0(0) come from the initial
    stack at t = 0.
    """
    if cfg.levels < 1:
        raise UsageError(
            "derivatives needs N >= 1 stored derivative levels; "
            "set domain.N in the config")
    cert = _certify_config(cfg)
    stack = project_initial(cfg.initial, cfg.lattice, levels=cfg.levels)
    data, sigma_rows, E0 = _initial_stacks(cfg, cert, cfg.model, stack)
    sqrt0 = np.sqrt(E0)
    e0_ok = sqrt0[0] <= 1.0 + 1e-9
    H = max((float(s) ** (1.0 / n) for n, s in enumerate(sqrt0)
             if n and s > 0.0), default=0.0) * (1.0 + 1e-9)
    times, rate = cfg.times, cert.decay_rate
    levels = range(cfg.levels + 1)
    if cfg.model.variant in ("constant", "affine"):
        c1 = cfg.model.params[1] if cfg.model.variant == "affine" else 0.0
        coupling = abs(c1) * cert.ctilde
        families = {"": np.array([affine_derivative_envelope(
            n, times, rate, coupling, sqrt0) for n in levels])}
        if e0_ok:
            families["_uniform"] = np.array([affine_uniform_envelope(
                n, times, rate, coupling, H) for n in levels])
    else:
        chat = cert.ctilde * taylor_bound(cfg.model)
        if not e0_ok:
            raise DataError(
                "the Taylor-bound envelope needs initial entropy E_0(0) <= 1; "
                "scale the initial data down")
        families = {"": np.array([taylor_derivative_envelope(
            n, times, rate, chat, H) for n in levels])}
    sqrt_E = np.sqrt(_entropies(cfg, cert, cfg.lattice, data, sigma_rows))
    return _write_z_run(
        cfg, cert, sqrt_E, families,
        "FAIL: derivative envelope violated; see summary.csv",
        f"pass: {len(cfg.z_points)} z-samples, levels 0..{cfg.levels}")


def _worker(fn, items, fd: int):
    """Body of a worker process of _in_processes; it never returns.

    Runs the items up to the first error, then sends, pickled through the
    pipe fd, the list of (warnings, result) of each item run, the error
    as the last result.  The results are sent at the end, so the worker
    does not wait on a full pipe while the reader is busy.  The warnings
    are those the filters let through, recorded instead of shown: a
    worker writes nothing to stdout or stderr.
    """
    status = 1
    try:
        outcomes, shown = [], []
        warnings.showwarning = lambda *message: shown.append(message[:4])
        for item in items:
            try:
                result = fn(item)
            except Exception as exc:
                result = exc
            outcomes.append((shown[:], result))
            shown.clear()
            if isinstance(result, Exception):
                break
        with open(fd, "wb") as pipe:
            pickle.dump(outcomes, pipe)
        status = 0
    finally:
        os._exit(status)


def _in_processes(fn, items: list, processes: int):
    """Yield fn(item) for each item, in order, using up to processes
    processes.

    The items are cut into min(processes, len(items)) contiguous slices.
    On Linux one worker process per slice after the first is forked (see
    _worker), and then this process runs the first slice itself;
    elsewhere every slice runs here.  The workers are read and reaped in
    order.  Their results come pickled, so every float keeps its bits,
    each with the warnings shown while it was made.  Those are shown here
    and a worker's error is raised here, at the item it belongs to, so
    the caller sees what one process running the items in order would
    show.  A worker that ends without its results raises RuntimeError.
    When the generator raises or is closed, the workers not yet reaped
    are killed and reaped: close it with contextlib.closing.
    """
    n = max(min(processes, len(items)), 1) if sys.platform == "linux" else 1
    cuts = [len(items) * s // n for s in range(n + 1)]
    workers = []        # (pid, read end of its pipe) of each unreaped worker
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _worker(fn, items[start:stop], write)
            os.close(write)
            workers.append((pid, open(read, "rb")))
        for item in items[:cuts[1]]:
            yield fn(item)
        while workers:
            pid, pipe = workers[0]
            try:
                with pipe:
                    outcomes = pickle.load(pipe)
            except Exception as exc:
                raise RuntimeError(
                    f"worker process {pid} ended without its results") from exc
            workers.pop(0)
            os.waitpid(pid, 0)
            for shown, result in outcomes:
                for message in shown:
                    warnings.showwarning(*message)
                if isinstance(result, Exception):
                    raise result
                yield result
    finally:
        if workers:
            from signal import SIGKILL      # on this path only
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def cmd_sweep(cfg: RunConfig, threads: int = 1) -> int:
    """Level-0 envelope runs over the (L, sigma0) grid, one file per point.

    Each point is certified, run, checked and formatted by one function,
    in up to threads processes (_in_processes); this process writes the
    points' files and the summary in grid order.
    """
    times = [_FLOAT % t for t in cfg.times]
    run_id = _template_field(cfg.run_id)
    keys = [(z, 0) for z in cfg.z_points]
    # every point writes the same z,t,level fields
    lead = _lead(keys, times)
    # summary rows of a point in increasing z
    order = sorted(range(len(keys)), key=lambda i: cfg.z_points[i])
    # the stack depends on K, M and N only: every period L shares it
    stack = project_initial(cfg.initial, cfg.lattice, levels=cfg.levels)

    def run(point):
        """File name, CSV text and summary rows of grid point (i, j)."""
        i, j = point
        Lv, s0 = cfg.sweep_L_values[i], cfg.sweep_sigma0_values[j]
        model = _with_offset(cfg.model, s0)
        lattice = ModeLattice(K=cfg.lattice.K, L=Lv, M=cfg.lattice.M)
        cert = _certify_config(cfg, L=Lv, model=model)
        E, env = _base_run(cfg, cert, model, lattice, stack)
        ratio = _ratios(E, env)
        text = "".join(_result_lines(run_id, keys, times, E[0], env, ratio[0],
                                     cfg.envelope_tol, lead))
        rows = _summary_rows(Lv, s0, cfg.z_points, cert, [ratio],
                             cfg.envelope_tol)
        return f"sweep_L{i:03d}_s{j:03d}.csv", text, [rows[k] for k in order]

    points = [(i, j) for i in range(len(cfg.sweep_L_values))
              for j in range(len(cfg.sweep_sigma0_values))]
    summary = []
    with contextlib.closing(_in_processes(run, points, threads)) as results:
        for name, text, rows in results:
            _write_csv(cfg.out_dir / name, RESULT_HEADER, [text],
                       seed=cfg.seed_used)
            summary += rows
    return _write_summary(
        cfg, run_id, summary,
        "FAIL: envelope violated inside the sweep; see summary.csv",
        f"pass: {len(points)} sweep points x {len(cfg.z_points)} z-samples")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: parsing
    leaves no state in it."""
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
                       help="processes a sweep may use (default 1); "
                            "other commands use one")
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
        if args.threads < 1:
            raise ConfigError("invalid configuration:\n  - threads must be "
                              f"an integer >= 1, got {args.threads}")
        cfg = load_config(args.config, out_override=args.out,
                          seed_override=args.seed)
        if args.command == "certify":
            return cmd_certify(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, inflate_mu=args.inflate_mu)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "derivatives":
            return cmd_derivatives(cfg)
        return cmd_sweep(cfg, threads=args.threads)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HypoBGKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        # anything else is a defect of the program; exit 1 stays reserved
        # for a violated bound
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for one command of a pass.

check(kind, expect, out_dir) re-reads what one command wrote and returns
the list of problems (empty when the outputs are right) together with
the certified rates (lambda) of every certificate the command wrote.
A rate that is not positive is a problem and is left out.  The
re-derivations use only the CSV files and the paper's formulas, never
the package itself:

  * every verdict in verify.csv and summary.csv is "pass", and verify.csv
    rows agree with their own min_eigenvalue >= threshold;
  * certificate.csv obeys lambda = min(mu, sigma_min),
    mu = lambda_min / (2 (1 + alpha T)) and
    ctilde = sqrt((1 + alpha T) / (1 - alpha T)), T = sqrt(3 + sqrt 6);
  * for one sampled z per command, level-0 envelopes equal
    exp(-2 lambda t) E(0) (sweep rows hold the entropy) or
    exp(-lambda t) sqrt(E(0)) (derivatives rows hold its square root),
    with lambda read from summary.csv;
  * every ratio equals entropy / envelope and stays <= 1 + 1e-8;
  * row counts match the config, so no work is silently dropped.

digests(out_dir) hashes every output file, for the byte-identity check
across passes.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

TWIST_GAIN = math.sqrt(3.0 + math.sqrt(6.0))
ENVELOPE_TOL = 1e-8
REL_TOL = 1e-12


def digests(out_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _check_certificate(out_dir: Path, expect: dict, problems: list[str]) -> list[float]:
    values = {r["name"]: float(r["value"])
              for r in _rows(out_dir / "certificate.csv")}
    alpha, lam = values["alpha"], values["lambda"]
    gain = 1.0 + alpha * TWIST_GAIN
    if values["L"] != expect["L"]:
        problems.append(f"certificate L={values['L']} but config L={expect['L']}")
    if not 0.0 < alpha < values["alpha_max"]:
        problems.append(f"alpha={alpha} outside (0, alpha_max)")
    if not values["lambda_min"] > 0.0:
        problems.append(f"lambda_min={values['lambda_min']} is not positive")
    if not _close(values["mu"], 0.5 * values["lambda_min"] / gain):
        problems.append("mu != lambda_min / (2 (1 + alpha T))")
    if lam != min(values["mu"], values["sigma_min"]):
        problems.append("lambda != min(mu, sigma_min)")
    if not _close(values["ctilde"], math.sqrt(gain / (1.0 - alpha * TWIST_GAIN))):
        problems.append("ctilde != sqrt((1 + alpha T) / (1 - alpha T))")
    return [lam]


def _check_verify(out_dir: Path, expect: dict, problems: list[str]) -> list[float]:
    rows = _rows(out_dir / "verify.csv")
    if len(rows) != expect["rows"]:
        problems.append(f"verify.csv has {len(rows)} rows, expected {expect['rows']}")
    bad = [r for r in rows if r["verdict"] != "pass"
           or not float(r["min_eigenvalue"]) >= float(r["threshold"])]
    if bad:
        problems.append(f"verify.csv: {len(bad)} rows fail, first k={bad[0]['k']} "
                        f"sigma={bad[0]['sigma']}")
    return []


def _check_summary(rows: list[dict[str, str]], n_expected: int,
                   problems: list[str]) -> None:
    if len(rows) != n_expected:
        problems.append(f"summary.csv has {len(rows)} rows, expected {n_expected}")
    bad = [r for r in rows if r["verdict"] != "pass"
           or not float(r["worst_ratio"]) <= 1.0 + ENVELOPE_TOL]
    if bad:
        problems.append(f"summary.csv: {len(bad)} rows fail")


def _check_detail(name: str, rows: list[dict[str, str]], z: str,
                  lam: float | None, squared: bool, problems: list[str]) -> None:
    """Ratios of every row; envelopes of level-0 rows at z against lam."""
    for r in rows:
        entropy, envelope, ratio = (float(r["entropy"]), float(r["envelope"]),
                                    float(r["ratio"]))
        if not (ratio <= 1.0 + ENVELOPE_TOL and r["verdict"] == "pass"):
            problems.append(f"{name}: ratio {ratio} at t={r['t']} level={r['level']}")
            return
        if envelope > 0.0 and not _close(ratio, entropy / envelope):
            problems.append(f"{name}: ratio != entropy / envelope at t={r['t']}")
            return
    if lam is None:
        return
    level0 = [r for r in rows if r["z"] == z and r["level"] == "0"]
    if not level0:
        problems.append(f"{name}: no level-0 rows at z={z}")
        return
    e0 = float(level0[0]["entropy"])
    rate = 2.0 * lam if squared else lam
    for r in level0:
        want = math.exp(-rate * float(r["t"])) * e0
        if not _close(float(r["envelope"]), want):
            problems.append(f"{name}: envelope {r['envelope']} != {want!r} "
                            f"at t={r['t']}")
            return


def _check_sweep(out_dir: Path, expect: dict, problems: list[str]) -> list[float]:
    summary = _rows(out_dir / "summary.csv")
    n_z, n_t = expect["z_count"], expect["t_count"]
    Ls, s0s = expect["L_values"], expect["sigma0_values"]
    _check_summary(summary, len(Ls) * len(s0s) * n_z, problems)
    rates = {}
    for i, L in enumerate(Ls):
        for j, s0 in enumerate(s0s):
            mine = [r for r in summary
                    if float(r["L"]) == L and float(r["sigma0"]) == s0]
            if len(mine) != n_z:
                problems.append(f"summary.csv: {len(mine)} rows for L={L}, "
                                f"sigma0={s0}")
                continue
            z = sorted({r["z"] for r in mine}, key=float)[expect["sample_z"]]
            lam = float(next(r["lambda"] for r in mine if r["z"] == z))
            rates[(L, s0)] = lam
            name = f"sweep_L{i:03d}_s{j:03d}.csv"
            rows = _rows(out_dir / name)
            if len(rows) != n_z * n_t:
                problems.append(f"{name} has {len(rows)} rows, "
                                f"expected {n_z * n_t}")
            _check_detail(name, rows, z, lam, True, problems)
    return list(rates.values())


def _check_derivatives(out_dir: Path, expect: dict, problems: list[str]) -> list[float]:
    summary = _rows(out_dir / "summary.csv")
    _check_summary(summary, 1, problems)
    if not summary:
        return []
    z, lam = summary[0]["z"], float(summary[0]["lambda"])
    n_rows = (expect["levels"] + 1) * expect["t_count"]
    run_id = summary[0]["run_id"]
    for suffix, rate in (("", lam), ("_uniform", None)):
        name = f"{run_id}_z000{suffix}.csv"
        if not (out_dir / name).is_file():
            problems.append(f"{name} is missing")
            continue
        rows = _rows(out_dir / name)
        if len(rows) != n_rows:
            problems.append(f"{name} has {len(rows)} rows, expected {n_rows}")
        _check_detail(name, rows, z, rate, False, problems)
    return [lam]


CHECKERS = {"certify": _check_certificate, "verify": _check_verify,
            "sweep": _check_sweep, "derivatives": _check_derivatives}


def check(kind: str, expect: dict, out_dir: Path) -> tuple[list[str], list[float]]:
    """Problems found in one command's outputs, and its certified rates."""
    problems: list[str] = []
    try:
        rates = CHECKERS[kind](out_dir, expect, problems)
    except (OSError, KeyError, ValueError, StopIteration, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], []
    if not all(r > 0.0 for r in rates):
        problems.append(f"certified lambda not positive: {rates}")
    return problems, [r for r in rates if r > 0.0]

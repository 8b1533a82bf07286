"""Command-line behavior: config handling, CSV contracts, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypobgk import (NumericError, certify, cli, entropy_series, errors,
                     real_frame, verify_grid)
from hypobgk.cli import RESULT_HEADER, dump_config, load_config, main

BASE = {
    "run_id": "t",
    "domain": {"L": 2 * math.pi, "K": 2, "M": 6, "N": 1},
    "sigma": {"variant": "affine", "sigma0": 1.0, "c1": 0.1,
              "z_domain": [-1, 1]},
    "time_grid": {"start": 0.0, "stop": 2.0, "num": 3},
    "z_grid": {"points": [0.25]},
    "alpha_strategy": 0.1,
    "initial_data": {"type": "random", "seed": 3, "scale": 0.2},
    "verify": {"k_max": 2, "sigma_points": 3},
    "sweep": {"L_values": [math.pi, 2 * math.pi], "sigma0_values": [1.0]},
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        # a section with forms is replaced: keys of another form are unknown
        if isinstance(value, dict) and key in cfg \
                and not isinstance(cli._SCHEMA[key], cli._Forms):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_aggregates_all_errors(tmp_path):
    path = write_config(tmp_path,
                        domain={"M": 3, "N": -1},
                        time_grid={"start": 5.0, "stop": 1.0, "num": 3})
    from hypobgk import ConfigError
    with pytest.raises(ConfigError) as err:
        load_config(path)
    text = str(err.value)
    assert "M=3" in text
    assert "N" in text
    assert "stop >= start" in text


def test_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    path2 = tmp_path / "again.json"
    path2.write_text(json.dumps(dump_config(cfg)))
    assert load_config(path2) == cfg


def test_certify_prints_twelve_significant_digits(tmp_path, capsys):
    assert main(["certify", "--config", str(write_config(tmp_path)),
                 "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = dict(re.split(r"\s*=\s*", line) for line in lines)
    assert set(got) == {"alpha_max", "alpha", "lambda_min", "mu", "lambda",
                        "ctilde", "chat"}
    for name, text in got.items():
        value = float(text)
        assert text == f"{value:.12g}" or float(f"{value:.12g}") == value
    assert float(got["mu"]) <= float(got["lambda_min"]) / 2.0 + 1e-15
    table = (tmp_path / "out" / "certificate.csv").read_text()
    assert table.startswith("name,value")


@pytest.mark.parametrize("overrides", [
    {"domain": [1, 2]},
    {"tolerances": 3},
    {"sweep": {"L_values": ["x"]}},
    {"domain": {"N": True}},
    {"time_grid": {"num": float("inf")}},
], ids=["domain-list", "tolerances-number", "sweep-string", "N-bool",
        "num-infinite"])
def test_malformed_sections_exit_invalid(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert "Traceback" not in err
    assert next(iter(overrides)) in err


@pytest.mark.parametrize("section, spec", [
    ("initial_data", {"type": "random", "seed": True}),
    ("initial_data", {"type": "random", "seed": 2.5}),
    ("initial_data", {"type": "coefficients",
                      "entries": [{"level": True, "k": 1, "m": 3, "re": 0.1}]}),
    ("initial_data", {"type": "coefficients",
                      "entries": [{"k": 1.5, "m": 3, "re": 0.1}]}),
    ("initial_data", {"type": "coefficients",
                      "entries": [{"k": 1, "m": 2.5, "re": 0.1}]}),
    ("initial_data", {"type": "separable", "fourier": [{"k": True, "re": 0.4}],
                      "velocity_poly": [1.0]}),
    ("time_grid", {"start": 0.0, "stop": 2.0, "num": 2.5}),
    ("z_grid", {"num": True}),
], ids=["seed-bool", "seed-fraction", "level-bool", "k-fraction", "m-fraction",
        "fourier-k-bool", "time-num-fraction", "z-num-bool"])
def test_integer_fields_reject_bools_and_fractions(tmp_path, capsys, section,
                                                   spec):
    cfg = json.loads(json.dumps(BASE))
    cfg[section] = spec
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert f"{section}: " in err and "must be an integer" in err


@pytest.mark.parametrize("strategy", [
    "fixed:abc", "fraction:", True, False, "fixed:nan", "fixed:inf",
    "fraction:1.5", " fixed 0.1",
], ids=["fixed-abc", "fraction-empty", "true", "false", "fixed-nan",
        "fixed-inf", "fraction-above-one", "no-colon"])
def test_malformed_alpha_strategy_exits_invalid(tmp_path, capsys, strategy):
    path = write_config(tmp_path, alpha_strategy=strategy)
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert "alpha_strategy: " in err and "Traceback" not in err


@pytest.mark.parametrize("strategy", [" optimize ", "fixed: 0.05", 0.05,
                                      "fraction:0.5 "])
def test_alpha_strategy_forms_accepted(tmp_path, strategy):
    path = write_config(tmp_path, alpha_strategy=strategy)
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0


def test_commands_do_not_import_scipy(tmp_path):
    # the package needs numpy only; scipy is a test dependency
    path = write_config(tmp_path)
    script = "\n".join([
        "import sys",
        "from hypobgk.cli import main",
        "for command in ('certify', 'verify', 'simulate'):",
        "    code = main([command, '--config', sys.argv[1],",
        "                 '--out', sys.argv[2]])",
        "    assert code == 0, (command, code)",
        "print('scipy' in sys.modules)",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(path),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


# a 2 x 2 sweep over 30 z of the sweep_ensemble benchmark's shape
SWEEP_DOC = dict(
    BASE, domain={"L": 2.0, "K": 4, "M": 20, "N": 0},
    sigma={**BASE["sigma"], "c1": 0.2},
    time_grid={"start": 0.0, "stop": 20.0, "num": 81},
    z_grid={"num": 30}, alpha_strategy="fraction:0.5",
    initial_data={"type": "random", "seed": 12, "scale": 0.5},
    sweep={"L_values": [2.0, 8.0], "sigma0_values": [0.8, 2.5]})


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a derivatives run of 180 x 180 generators on 15 log-spaced times and
    # a 2 x 2 sweep over 30 z, each in a fresh process at 1 and at 2 BLAS
    # threads: every output file and stdout agree byte for byte
    log_times = [10.0 ** (-2.0 + i * (math.log10(20.0) + 2.0) / 14)
                 for i in range(15)]
    docs = {
        "derivatives": dict(
            BASE, domain={"L": 2 * math.pi, "K": 16, "M": 60, "N": 2},
            sigma={**BASE["sigma"], "c1": 0.2},
            time_grid={"times": [0.0] + log_times},
            alpha_strategy="optimize",
            initial_data={"type": "random", "seed": 11, "scale": 0.01}),
        "sweep": SWEEP_DOC,
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    for command, doc in docs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}_{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run(
                [sys.executable, "-m", "hypobgk.cli", command,
                 "--config", str(path), "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            runs.append((done.stdout, {p.name: p.read_bytes()
                                       for p in out.iterdir()}))
        assert len(runs[0][1]) == (3 if command == "derivatives" else 5)
        assert runs[0] == runs[1]


def test_sweep_processes_do_not_change_outputs_under_blas_threads(tmp_path):
    # workers forked from a process that holds a BLAS thread pool: a sweep
    # at 2 BLAS threads writes the same bytes and stdout at 1 and at 2
    # processes
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP_DOC))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "hypobgk.cli", "sweep", "--config",
             str(path), "--out", str(out), "--threads", threads],
            capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        runs.append((done.stdout, {p.name: p.read_bytes()
                                   for p in out.iterdir()}))
    assert len(runs[0][1]) == 5
    assert runs[0] == runs[1]


@pytest.mark.parametrize("run_id", ["../x", "a/b", "a\\b", "a\0b", ".", ".."])
def test_run_id_cannot_leave_output_dir(tmp_path, capsys, run_id):
    path = write_config(tmp_path, run_id=run_id)
    out = tmp_path / "o" / "sub"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:") and "run_id" in err
    assert not (tmp_path / "o").exists()


def test_sigma_grid_resolution_is_an_unknown_key(tmp_path, capsys):
    path = write_config(tmp_path, sigma_grid_resolution=500)
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert "unknown key 'sigma_grid_resolution'" in err
    assert "warning" not in err


@pytest.mark.parametrize("command, overrides", [
    ("certify", {"sigma": {"sigma0": 1e78}}),
    ("sweep", {"sweep": {"L_values": [math.pi], "sigma0_values": [1e300]}}),
])
def test_sigma_too_large_to_certify_exits_invalid(tmp_path, capsys, command,
                                                  overrides):
    # sigma**4 overflows above about 1.2e77: one error line naming sigma,
    # no numpy warning and no wrong cause
    path = write_config(tmp_path, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "sigma=1e+" in err
    assert "too large to certify" in err


def test_polynomial_of_degree_1100_loads(tmp_path, capsys):
    # the range search walks 1100 derivatives in a loop, not by recursion,
    # and the Taylor bound, far beyond the float range, is not certifiable:
    # certify writes no chat row and derivatives exits 2.  No sweep section,
    # whose sigma0 values would each search a range again
    cfg = {key: value for key, value in BASE.items() if key != "sweep"}
    cfg["sigma"] = {"variant": "polynomial", "z_domain": [-1, 1],
                    "coeffs": [5.0] + [0.0] * 1099 + [1e-9]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["certify", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "certificate.csv", newline="") as fh:
        rows = dict(csv.reader(fh))
    assert (float(rows["sigma_min"]), float(rows["sigma_max"])) == \
        (5.0, 5.000000001)
    assert "chat" not in rows
    capsys.readouterr()
    assert main(["derivatives", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the Taylor bound of this degree-1100 polynomial is not finite\n")


@pytest.mark.parametrize("command, calls", [
    ("certify", 0), ("verify", 1), ("simulate", 1), ("derivatives", 1),
    ("sweep", 4)])
def test_operator_builds_per_command(tmp_path, monkeypatch, command, calls):
    # the benchmark's spectral.build_operators.calls wraps these two names:
    # one call per propagate run (a 2 x 2 sweep at one process makes four)
    # and one per verify_grid
    from hypobgk import lyapunov, propagation
    seen = []
    for module in (lyapunov, propagation):
        def counted(M, build=module.build_operators, name=module.__name__):
            seen.append(name)
            return build(M)
        monkeypatch.setattr(module, "build_operators", counted)
    path = write_config(tmp_path, sweep={"L_values": [math.pi, 2 * math.pi],
                                         "sigma0_values": [1.0, 1.5]})
    assert main([command, "--threads", "1", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    owner = "hypobgk.lyapunov" if command == "verify" else "hypobgk.propagation"
    assert seen == [owner] * calls


def test_negative_seed_in_config_exits_invalid(tmp_path, capsys):
    path = write_config(tmp_path, initial_data={"type": "random", "seed": -1})
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert "initial_data: seed must be >= 0, got -1" in err


def test_negative_seed_flag_exits_invalid(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_config(tmp_path)),
                 "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert "seed must be >= 0, got -1" in err
    assert not out.exists()


def test_verify_single_row(tmp_path, capsys):
    path = write_config(tmp_path, verify={"k_max": 1, "sigma_points": 1})
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "verify.csv").read_text().strip().splitlines()
    assert rows[0] == "k,sigma,min_eigenvalue,threshold,verdict"
    assert len(rows) == 2
    assert rows[1].startswith("1,") and rows[1].endswith(",pass")
    assert rows[1].split(",")[1] == format(load_config(path).model.sigma_min,
                                           ".17g")


@pytest.mark.parametrize("inflate", ["nan", "inf", "0", "-1"])
def test_verify_rejects_an_inflation_that_is_not_positive(tmp_path, capsys,
                                                          inflate):
    # a scale that is not a positive number is invalid input, not a
    # violated bound nor a numeric failure
    path = write_config(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "out"), "--inflate-mu", inflate])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --inflate-mu must be positive")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_verify_inflated_mu_fails(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["verify", "--config", str(path),
                 "--out", str(tmp_path / "out"), "--inflate-mu", "10"])
    assert code == 1
    text = capsys.readouterr().out
    assert "k=" in text and "sigma=" in text


def _check_verify_csv_rows_and_strong_inflation(tmp_path, capsys, sigma):
    # --inflate-mu 50 still exits 1; every row is the grid value at .17g
    path = write_config(tmp_path, domain={"M": 9}, sigma=sigma,
                        verify={"k_max": 4, "sigma_points": 5})
    out = tmp_path / "out"
    code = main(["verify", "--config", str(path), "--out", str(out),
                 "--inflate-mu", "50"])
    assert code == 1
    assert "FAIL:" in capsys.readouterr().out
    cfg = load_config(path)
    cert = certify(cfg.lattice.L, cfg.model.sigma_min, cfg.model.sigma_max,
                   alpha_strategy=cfg.alpha_strategy)
    cert = dataclasses.replace(cert, mu=cert.mu * 50)
    sigmas = np.linspace(cert.sigma_min, cert.sigma_max, 5)
    mins, norms = verify_grid(cert, range(1, 5), sigmas, 9)
    lines = ["k,sigma,min_eigenvalue,threshold,verdict"]
    for i in range(4):
        for j, s in enumerate(sigmas):
            thr = -1e-10 * norms[i, j]
            verdict = "pass" if mins[i, j] >= thr else "fail"
            lines.append(f"{i + 1},{format(float(s), '.17g')},"
                         f"{format(float(mins[i, j]), '.17g')},"
                         f"{format(float(thr), '.17g')},{verdict}")
    expected = "\r\n".join(lines) + "\r\n"
    assert (out / "verify.csv").read_bytes() == expected.encode()


def test_verify_csv_rows_and_strong_inflation(tmp_path, capsys):
    _check_verify_csv_rows_and_strong_inflation(tmp_path, capsys,
                                                BASE["sigma"])


def test_verify_csv_rows_of_a_constant_model(tmp_path, capsys):
    # the deterministic model: every grid sigma is the same value
    _check_verify_csv_rows_and_strong_inflation(
        tmp_path, capsys,
        {"variant": "constant", "sigma0": 1.0, "z_domain": [-1, 1]})


def test_simulate_degenerate_run(tmp_path):
    path = write_config(tmp_path, time_grid={"times": [0.0]},
                        z_grid={"points": [0.0]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "t_z000.csv").read_text().strip().splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1] == ",".join(RESULT_HEADER)
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert fields[0] == "t" and fields[3] == "0"
    assert float(fields[6]) == 1.0 and fields[7] == "pass"
    assert fields[4] == fields[5]  # envelope equals entropy at t = 0


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_mode0_lattice_with_distinct_step_sizes(tmp_path, command):
    # a lattice of mode 0 alone has no moving mode to build a ladder for,
    # whatever its step sizes
    path = write_config(tmp_path, domain={"K": 0},
                        time_grid={"times": [1.0, 3.0]})
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0


def test_simulate_deterministic_bytes(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("t_z000.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_comment_only_for_random_data(tmp_path):
    path = write_config(tmp_path, initial_data={
        "type": "coefficients",
        "entries": [{"level": 0, "k": 1, "m": 3, "re": 0.5}]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    first = (out / "t_z000.csv").read_text().splitlines()[0]
    assert not first.startswith("# seed=")


def test_seed_flag_on_non_random_data_exits_invalid(tmp_path, capsys):
    path = write_config(tmp_path, initial_data={
        "type": "coefficients",
        "entries": [{"level": 0, "k": 1, "m": 3, "re": 0.5}]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert ("initial_data: --seed applies only to random initial data, "
            "got type 'coefficients'") in err
    assert not out.exists()


def test_seed_flag_overrides_config(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--seed", "99"]) == 0
    assert (out / "t_z000.csv").read_text().startswith("# seed=99\n")


def test_sweep_single_point_matches_simulate(tmp_path):
    sim = write_config(tmp_path, "sim.json")
    swp = write_config(tmp_path, "swp.json",
                       sweep={"L_values": [BASE["domain"]["L"]],
                              "sigma0_values": [1.0]})
    out_sim, out_swp = tmp_path / "sim", tmp_path / "swp"
    assert main(["simulate", "--config", str(sim), "--out", str(out_sim)]) == 0
    assert main(["sweep", "--config", str(swp), "--out", str(out_swp)]) == 0
    assert (out_sim / "summary.csv").read_bytes() == \
        (out_swp / "summary.csv").read_bytes()


def test_sweep_rate_varies_with_period(tmp_path):
    path = write_config(tmp_path, sweep={
        "L_values": [math.pi, 2 * math.pi, 4 * math.pi],
        "sigma0_values": [1.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--threads", "2"]) == 0
    rows = [line.split(",") for line in
            (out / "summary.csv").read_text().strip().splitlines()[2:]]
    rates = {row[8] for row in rows}
    assert len(rates) == 3
    assert all(row[-1] == "pass" for row in rows)


def test_sweep_thread_count_does_not_change_output(tmp_path):
    # seven z samples span several build slices of the propagation core
    path = write_config(tmp_path, z_grid={"num": 7},
                        sweep={"sigma0_values": [1.0, 1.5]})
    outs = []
    for threads, name in ((1, "one"), (2, "two"), (4, "four")):
        out = tmp_path / name
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--threads", str(threads)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outs[0]) == 5
    assert outs[0] == outs[1] == outs[2]
    assert_no_children()


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the four points of a 2 x 2 sweep, in grid order
SWEEP_POINTS = [(L, s0) for L in (math.pi, 2 * math.pi) for s0 in (1.0, 1.5)]


def patch_points(monkeypatch, at_point):
    """Make each point of a 2 x 2 sweep (SWEEP_POINTS) go through
    at_point(index, E, env), which returns its (E, env)."""
    base_run = cli._base_run

    def patched(cfg, cert, model, lattice, stack):
        index = SWEEP_POINTS.index((lattice.L, model.params[0]))
        return at_point(index, *base_run(cfg, cert, model, lattice, stack))

    monkeypatch.setattr(cli, "_base_run", patched)


def run_sweep(tmp_path, capsys, name, threads):
    """Exit code, stdout, stderr, (category, text, file, line) of each
    warning and the output files of the 2 x 2 sweep into tmp_path/name."""
    path = write_config(tmp_path, z_grid={"num": 3},
                        sweep={"L_values": [math.pi, 2 * math.pi],
                               "sigma0_values": [1.0, 1.5]})
    out = tmp_path / name
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", "--config", str(path), "--out", str(out),
                     "--threads", str(threads)])
    assert_no_children()
    files = {p.name: p.read_bytes() for p in out.iterdir()} \
        if out.exists() else {}
    return (code, *capsys.readouterr(),
            [(w.category, str(w.message), w.filename, w.lineno)
             for w in caught], files)


def _raise_at(point, error):
    def at_point(index, E, env):
        if index == point:
            raise error("synthetic")
        return E, env
    return at_point


def _halve_envelope_at(point):
    def at_point(index, E, env):
        return E, env * (0.5 if index == point else 1.0)
    return at_point


def _warn_at_each(index, E, env):
    warnings.warn(f"point {index}", UserWarning)
    return E, env


@pytest.mark.parametrize("at_point, code", [
    (_raise_at(2, NumericError), cli.EXIT_NUMERIC),
    (_raise_at(2, errors.DataError), cli.EXIT_INVALID),
    (_raise_at(0, NumericError), cli.EXIT_NUMERIC),
    (_raise_at(3, RuntimeError), cli.EXIT_INTERNAL),
    (_halve_envelope_at(2), cli.EXIT_ALARM),
    (_warn_at_each, cli.EXIT_OK),
], ids=["numeric-third", "data-third", "numeric-first", "internal-last",
        "envelope-third", "warnings"])
def test_sweep_paths_do_not_depend_on_the_process_count(
        tmp_path, capsys, monkeypatch, at_point, code):
    # an error, a violated envelope or a warning at one point of four: the
    # exit code, stdout, stderr, the warnings and the files written are
    # those of the serial run at 2 and 4 processes, and no process is left
    patch_points(monkeypatch, at_point)
    runs = [run_sweep(tmp_path, capsys, f"out{n}", n) for n in (1, 2, 4)]
    assert runs[0][0] == code
    assert runs[0] == runs[1] == runs[2]
    code, out, err, shown, files = runs[0]
    if at_point is _warn_at_each:
        assert [text for _, text, _, _ in shown] == \
            [f"point {i}" for i in range(4)]
        assert len(files) == 5
    elif code == cli.EXIT_ALARM:
        assert "FAIL" in out and len(files) == 5
    else:
        # the files of the points before the failing one, no summary
        assert out == "" and "synthetic" in err
        assert "summary.csv" not in files


@pytest.mark.parametrize("threads", [2, 4])
def test_a_dying_sweep_worker_is_an_internal_error(tmp_path, capsys,
                                                   monkeypatch, threads):
    # a worker that ends without its results is a defect of the program
    # (exit 4), never a violated bound, and leaves no process behind
    parent = os.getpid()

    def at_point(index, E, env):
        if os.getpid() != parent and index == 3:
            os._exit(1)
        return E, env

    patch_points(monkeypatch, at_point)
    code, out, err, _, files = run_sweep(tmp_path, capsys, "out", threads)
    assert code == cli.EXIT_INTERNAL and out == ""
    assert err.startswith("internal error: RuntimeError: worker process ")
    assert "summary.csv" not in files


def test_an_interrupted_sweep_leaves_no_process(tmp_path, monkeypatch):
    # an exception that is no error of the program, raised while this
    # process writes its first file, still kills and reaps every worker
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_write_csv", interrupt)
    path = write_config(tmp_path, sweep={"L_values": [math.pi, 2 * math.pi],
                                         "sigma0_values": [1.0, 1.5]})
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"),
              "--threads", "4"])
    assert_no_children()


def test_load_config_builds_the_model_once(tmp_path, capsys, monkeypatch):
    # the default sweep sigma0 is the model's own, validated with the model;
    # other sweep values are still validated before any run
    built = []
    model_type = cli.CollisionFrequencyModel

    def spy(*args):
        built.append(args)
        return model_type(*args)

    monkeypatch.setattr(cli, "CollisionFrequencyModel", spy)
    doc = json.loads(json.dumps(BASE))
    del doc["sweep"]
    path = tmp_path / "nosweep.json"
    path.write_text(json.dumps(doc))
    for _ in range(2):
        load_config(path)
    assert len(built) == 2
    bad = write_config(tmp_path, sweep={"sigma0_values": [1.0, -5.0]})
    assert main(["sweep", "--config", str(bad),
                 "--out", str(tmp_path / "out")]) == 2
    assert "sigma0=-5.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_projects_the_initial_data_once(tmp_path, monkeypatch):
    # the initial stack depends on K, M and N only: one projection serves
    # every (L, sigma0) point, and each point's rows are those of a
    # simulate run at that point, which projects on its own lattice
    calls = []
    project = cli.project_initial

    def spy(*args, **kwargs):
        calls.append(args[1].L)
        return project(*args, **kwargs)

    monkeypatch.setattr(cli, "project_initial", spy)
    Ls, s0s = [math.pi, 2 * math.pi], [1.0, 1.5]
    path = write_config(tmp_path, z_grid={"num": 3},
                        sweep={"L_values": Ls, "sigma0_values": s0s})
    assert main(["sweep", "--config", str(path),
                 "--out", str(tmp_path / "swp")]) == 0
    assert len(calls) == 1
    swept = (tmp_path / "swp" / "summary.csv").read_text().splitlines()
    rows = []
    for L in Ls:
        for s0 in s0s:
            sim = write_config(
                tmp_path, "sim.json", z_grid={"num": 3},
                domain={"L": L},
                sigma={**BASE["sigma"], "sigma0": s0})
            out = tmp_path / f"sim_{L}_{s0}"
            assert main(["simulate", "--config", str(sim),
                         "--out", str(out)]) == 0
            rows += (out / "summary.csv").read_text().splitlines()[2:]
    assert calls[1:] == [L for L in Ls for _ in s0s]
    assert swept[2:] == rows


def test_derivatives_writes_all_levels(tmp_path):
    path = write_config(tmp_path, domain={"N": 2},
                        initial_data={"type": "random", "seed": 3,
                                      "scale": 0.05})
    out = tmp_path / "out"
    assert main(["derivatives", "--config", str(path), "--out", str(out)]) == 0
    body = (out / "t_z000.csv").read_text()
    levels = {line.split(",")[3] for line in body.strip().splitlines()[2:]}
    assert levels == {"0", "1", "2"}
    # small data satisfies the uniform hypothesis, so the second family too
    assert (out / "t_z000_uniform.csv").exists()


def test_initial_entropy_is_one_value_per_level(tmp_path):
    # every z reads the same initial stack, so E_n(0) is one number per
    # level, equal bit for bit to the entropy of each z sample's stack
    cfg = load_config(write_config(tmp_path, domain={"N": 2},
                                   z_grid={"num": 5}))
    cert = certify(cfg.lattice.L, cfg.model.sigma_min, cfg.model.sigma_max,
                   alpha_strategy=cfg.alpha_strategy)
    stack = cli.project_initial(cfg.initial, cfg.lattice, levels=cfg.levels)
    data, sigma_rows, E0 = cli._initial_stacks(cfg, cert, cfg.model, stack)
    assert E0.shape == (3,)
    assert data.shape == (5, cfg.lattice.K + 1, 3, cfg.lattice.M)
    assert len(sigma_rows) == 5
    for n in range(3):
        assert entropy_series(real_frame(data), n,
                              cert.alpha).tolist() == [E0[n]] * 5


@pytest.mark.parametrize("scale, uniform", [(0.05, True), (5.0, False)])
def test_uniform_family_written_only_when_e0_at_most_one(tmp_path, scale,
                                                         uniform):
    path = write_config(tmp_path, z_grid={"num": 3},
                        initial_data={"type": "random", "seed": 3,
                                      "scale": scale})
    out = tmp_path / "out"
    assert main(["derivatives", "--config", str(path), "--out", str(out)]) == 0
    assert len(list(out.glob("t_z*.csv"))) == (6 if uniform else 3)
    assert len(list(out.glob("t_z*_uniform.csv"))) == (3 if uniform else 0)


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    path = str(write_config(tmp_path))
    assert cli._build_parser() is cli._build_parser()
    assert main(["verify", "--inflate-mu", "50", "--config", path,
                 "--out", str(tmp_path / "a")]) == 1
    assert main(["verify", "--config", path,
                 "--out", str(tmp_path / "b")]) == 0


@pytest.mark.parametrize("spec", [
    {"type": "separable", "velocity_poly": [math.inf],
     "fourier": [{"k": 1, "re": 1.0}]},
    {"type": "separable", "velocity_poly": [math.nan], "fourier": []},
    {"type": "separable", "velocity_poly": [1.0],
     "fourier": [{"k": 1, "re": 1.0, "im": -math.inf}]},
    {"type": "coefficients", "entries": [{"k": 1, "m": 3, "re": math.nan}]},
    {"type": "random", "seed": 1, "scale": math.inf},
], ids=["poly-inf", "poly-nan-no-fourier", "fourier-im", "entry-re",
        "scale-inf"])
def test_non_finite_initial_data_exit_invalid(tmp_path, spec):
    doc = json.loads(json.dumps(BASE))
    doc["domain"]["N"] = 0
    doc["initial_data"] = spec
    code, err = run_command(doc, tmp_path, "simulate")
    assert code == 2
    assert err.startswith("error: invalid configuration:\n"
                          "  - initial_data: non-finite value in ")
    assert err.count("\n") == 2 and "Warning" not in err


def test_derivatives_without_levels_rejected(tmp_path, capsys):
    path = write_config(tmp_path, domain={"N": 0})
    assert main(["derivatives", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "N >= 1" in capsys.readouterr().err


def test_exit_code_invalid_model(tmp_path, capsys):
    path = write_config(tmp_path, sigma={"variant": "affine", "sigma0": 1.0,
                                         "c1": 5.0, "z_domain": [-1, 1]})
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "affine" in capsys.readouterr().err


def test_exit_code_missing_config(tmp_path, capsys):
    assert main(["certify", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("content", [
    b'{"domain": {"L": 1' + b"0" * 5000 + b"}}",
    b"[" * 100000,
], ids=["5001-digit-integer", "deep-nesting"])
def test_unparsable_config_exits_invalid(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file") and "not valid JSON" in err


def test_exit_code_numeric_failure(tmp_path, capsys, monkeypatch):
    import hypobgk.cli as cli

    def boom(cfg):
        raise NumericError("synthetic")

    monkeypatch.setattr(cli, "cmd_certify", boom)
    path = write_config(tmp_path)
    assert cli.main(["certify", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_exit_code_internal_error(tmp_path, capsys, monkeypatch):
    import hypobgk.cli as cli

    def boom(cfg):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(cli, "cmd_certify", boom)
    path = write_config(tmp_path)
    assert cli.main(["certify", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: synthetic\n"


@pytest.mark.parametrize("command, name", [("certify", "certificate.csv"),
                                           ("sweep", "sweep_L000_s000.csv")])
@pytest.mark.parametrize("sub, reason", [("", "File exists"),
                                         ("sub", "Not a directory")],
                         ids=["file", "under-a-file"])
def test_unwritable_output_exits_invalid(tmp_path, capsys, command, name, sub,
                                         reason):
    # an output directory that is a file, or lies under one, is bad input
    # of one line, not a defect of the program
    path = write_config(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / sub if sub else afile
    assert main([command, "--config", str(path), "--out", str(out)]) \
        == cli.EXIT_INVALID
    assert capsys.readouterr().err \
        == f"error: cannot write {out / name}: {reason}\n"
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("name", errors.__all__)
def test_every_package_error_maps_to_its_exit_code(tmp_path, capsys,
                                                   monkeypatch, name):
    # a NumericError is a numeric failure and every other error of the
    # package, the base class too, is invalid input: one line, no traceback
    error = getattr(errors, name)

    def boom(cfg):
        raise error("synthetic")

    monkeypatch.setattr(cli, "cmd_certify", boom)
    path = write_config(tmp_path)
    code = cli.main(["certify", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if error is NumericError:
        assert (code, err) == (cli.EXIT_NUMERIC,
                               "numeric failure: synthetic\n")
    else:
        assert (code, err) == (cli.EXIT_INVALID, "error: synthetic\n")


def test_trig_high_frequency_rejected_for_derivatives(tmp_path, capsys):
    path = write_config(tmp_path, sigma={
        "variant": "trig", "sigma0": 2.0, "eps": 0.5, "omega": 2.0,
        "z_domain": [-3.0, 3.0]})
    assert main(["derivatives", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "omega" in capsys.readouterr().err


def test_taylor_hypothesis_rejected_before_propagation(tmp_path, capsys,
                                                      monkeypatch):
    import hypobgk.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("propagated before the E_0(0) check")

    monkeypatch.setattr(cli, "propagate", never)
    path = write_config(tmp_path, sigma={
        "variant": "polynomial", "coeffs": [2.0, -0.4, 0.3],
        "z_domain": [-1.0, 1.0]},
                        z_grid={"num": 3},
                        initial_data={"type": "random", "seed": 3,
                                      "scale": 5.0})
    out = tmp_path / "out"
    assert main(["derivatives", "--config", str(path), "--out", str(out)]) == 2
    assert "E_0(0) <= 1" in capsys.readouterr().err
    assert not list(out.glob("t_z*.csv"))


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_level0_commands_step_level0_only(tmp_path, monkeypatch, command):
    # simulate and sweep check level 0 only, so an N = 2 config steps one
    # level; its level-0 entropies match those of the full stacked system
    levels = []
    propagate = cli.propagate

    def spy(data, sigma_rows, *args, **kwargs):
        levels.append((data.shape[2], {len(row) for row in sigma_rows}))
        return propagate(data, sigma_rows, *args, **kwargs)

    monkeypatch.setattr(cli, "propagate", spy)
    path = write_config(tmp_path, domain={"N": 2}, z_grid={"num": 4},
                        time_grid={"start": 0.0, "stop": 8.0, "num": 9})
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    n_points = 2 if command == "sweep" else 1
    assert levels == [(1, {1})] * n_points
    cfg = load_config(path)
    cert = cli._certify_config(cfg)
    stack = cli.project_initial(cfg.initial, cfg.lattice, levels=cfg.levels)
    E, _ = cli._base_run(cfg, cert, cfg.model, cfg.lattice, stack)
    data, rows, E0 = cli._initial_stacks(cfg, cert, cfg.model, stack)
    full = cli._entropies(cfg, cert, cfg.lattice, data, rows)
    assert full.shape[0] == 3 and E.shape == full[:1].shape
    assert np.max(np.abs(E[0] - full[0])) <= 1e-13 * E0[0]


_B = cli._STEPS


@pytest.mark.parametrize("levels", [0, 2])
@pytest.mark.parametrize("steps, times", [
    *((_B, [4.0 * j / max(n - 1, 1) for j in range(n)])
      for n in (1, _B - 1, _B, _B + 1, 2 * _B + 1)),
    *((steps, [0.0, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0, 2.0, 3.0])
      for steps in (3, _B)),
    *((steps, [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0]) for steps in (3, _B)),
], ids=["T1", "TB-1", "TB", "TB+1", "T2B+1", "repeated3", "repeatedB",
        "late3", "lateB"])
def test_blocked_entropies_match_per_sample_entropies(tmp_path, monkeypatch,
                                                      levels, steps, times):
    # entropies read over blocks of steps equal those read sample by sample,
    # bit for bit: on T = 1, B - 1, B, B + 1 and 2B + 1 times, with zero
    # steps inside and across blocks, and on a grid that starts after t = 0;
    # the reference samples come from the same times
    monkeypatch.setattr(cli, "_STEPS", steps)
    cfg = load_config(write_config(tmp_path, domain={"N": levels},
                                   z_grid={"num": 3},
                                   time_grid={"times": times}))
    cert = cli._certify_config(cfg)
    stack = cli.project_initial(cfg.initial, cfg.lattice, levels=levels)
    data, rows, _ = cli._initial_stacks(cfg, cert, cfg.model, stack)
    E = cli._entropies(cfg, cert, cfg.lattice, data, rows)
    samples = cli.propagate(data, rows, cfg.lattice.l, times)
    expected = np.array([[entropy_series(sample, n, cert.alpha)
                          for n in range(levels + 1)] for sample in samples])
    assert E.shape == (levels + 1, 3, len(times))
    assert E.tobytes() == expected.transpose(1, 2, 0).tobytes()
    assert np.all(E > 0.0)


@pytest.mark.parametrize("command", ["simulate", "derivatives", "sweep"])
def test_grid_starting_after_zero_keeps_envelope_at_t0(tmp_path, command):
    # the envelope starts from the initial stack at t = 0, so a grid that
    # starts later reads exactly the rows of the same times on a grid that
    # includes t = 0
    late = write_config(tmp_path, "late.json",
                        time_grid={"start": 1.0, "stop": 2.0, "num": 3})
    full = write_config(tmp_path, "full.json",
                        time_grid={"times": [0.0, 1.0, 1.5, 2.0]})
    out_late, out_full = tmp_path / "late", tmp_path / "full"
    assert main([command, "--config", str(late), "--out", str(out_late)]) == 0
    assert main([command, "--config", str(full), "--out", str(out_full)]) == 0
    name = "sweep_L000_s000.csv" if command == "sweep" else "t_z000.csv"
    rows = (out_late / name).read_text().splitlines()[2:]
    assert rows and all(float(r.split(",")[6]) <= 1.0 for r in rows)
    full_rows = (out_full / name).read_text().splitlines()[2:]
    assert rows == [r for r in full_rows if r.split(",")[2] != "0"]


# a range grid whose spacing is not dyadic: its differences split into
# last-bit variants, some of them repeated
RANGE_GRID = {"start": 0.0, "stop": 2.0, "num": 7}


def _run(tmp_path, name, command, **overrides):
    """Run command on write_config(**overrides); its files by name, bytes."""
    out = tmp_path / name
    assert main([command, "--config",
                 str(write_config(tmp_path, f"{name}.json", **overrides)),
                 "--out", str(out)]) == 0
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["simulate", "derivatives"])
def test_range_grid_builds_one_step_size(tmp_path, monkeypatch, command):
    # a range grid steps by t0 and then by one step size, so the run builds
    # the step jets once where its differences take four sizes
    from hypobgk import propagation
    times = np.linspace(RANGE_GRID["start"], RANGE_GRID["stop"],
                        RANGE_GRID["num"])
    assert len(set(np.diff(times)[1:])) > 1
    calls = []
    build = propagation._StepJets.__call__

    def spy(self, dt, *args, **kwargs):
        calls.append(dt)
        return build(self, dt, *args, **kwargs)

    monkeypatch.setattr(propagation._StepJets, "__call__", spy)
    _run(tmp_path, "out", command, time_grid=RANGE_GRID,
         z_grid={"num": 3})
    assert calls == [(times[-1] - times[0]) / (len(times) - 1)]


@pytest.mark.parametrize("command", ["simulate", "derivatives", "sweep"])
def test_times_list_of_a_range_grid_writes_the_same_bytes(tmp_path, command):
    # the step rule reads the times alone: the times of a range grid, given
    # as a list, write the range form's files byte for byte
    times = np.linspace(RANGE_GRID["start"], RANGE_GRID["stop"],
                        RANGE_GRID["num"]).tolist()
    ranged = _run(tmp_path, "range", command, time_grid=RANGE_GRID,
                  z_grid={"num": 3})
    listed = _run(tmp_path, "list", command, time_grid={"times": times},
                  z_grid={"num": 3})
    assert ranged == listed


LOG_TIMES = [0.0] + np.logspace(-2.0, 1.0, 9).tolist()


@pytest.mark.parametrize("c", [2.0, 0.5])
@pytest.mark.parametrize("grid", ["range", "log"])
@pytest.mark.parametrize("command", ["simulate", "derivatives", "sweep"])
def test_scaling_keeps_every_checked_field(tmp_path, monkeypatch, command,
                                           grid, c):
    # (x, t, sigma) -> (c x, c t, sigma / c) is an exact symmetry of the BGK
    # system, and for c a power of two the code keeps it bit for bit: at
    # (c L, sigma0 / c, c1 / c, c t) every z, level, entropy, envelope,
    # ratio and verdict field is the same, and so are the summary's z,
    # alpha, alpha_max, ctilde, worst ratio and verdict; t and L scale by
    # c, and sigma0, lambda_min, mu and lambda by 1 / c, exactly.  The
    # range grid steps by the jets path, the log grid by the ladder
    from hypobgk import propagation
    ladders = []
    ladder = propagation._Ladder

    def spy(*args):
        ladders.append(args)
        return ladder(*args)

    monkeypatch.setattr(propagation, "_Ladder", spy)
    K, L, s0, c1 = 3, BASE["domain"]["L"], 1.0, 0.1

    def config(c):
        if grid == "range":
            time_grid = {"start": c * RANGE_GRID["start"],
                         "stop": c * RANGE_GRID["stop"],
                         "num": RANGE_GRID["num"]}
        else:
            time_grid = {"times": [c * t for t in LOG_TIMES]}
        return dict(domain={"L": c * L, "K": K, "M": 8, "N": 2},
                    sigma={"variant": "affine", "sigma0": s0 / c,
                           "c1": c1 / c, "z_domain": [-1, 1]},
                    time_grid=time_grid, z_grid={"num": 3},
                    sweep={"L_values": [c * L, c * 2.0 * L],
                           "sigma0_values": [s0 / c, 2.0 * s0 / c]})

    base = _run(tmp_path, "base", command, **config(1.0))
    assert bool(ladders) == (grid == "log")
    scaled = _run(tmp_path, "scaled", command, **config(c))
    assert base.keys() == scaled.keys()
    for name in base:
        a, b = (list(csv.reader(io.StringIO(files[name].decode())))
                for files in (base, scaled))
        header = RESULT_HEADER if name != "summary.csv" else cli.SUMMARY_HEADER
        assert a[1] == b[1] == list(header) and len(a) == len(b) > 2
        factors = {"t": c, "L": c, "sigma0": 1 / c, "lambda_min": 1 / c,
                   "mu": 1 / c, "lambda": 1 / c}
        for i, field in enumerate(header):
            col_a = [row[i] for row in a[2:]]
            col_b = [row[i] for row in b[2:]]
            if field in factors:
                assert [factors[field] * float(x) for x in col_a] == \
                    [float(x) for x in col_b], (name, field)
            elif field != "run_id":
                assert col_a == col_b, (name, field)


@pytest.mark.parametrize("command", ["simulate", "derivatives", "sweep"])
def test_overflowing_initial_entropy_exits_invalid(tmp_path, capsys, command):
    # |c|^2 = 1e320 overflows: the entropy is inf and every ratio would be
    # nan, which no command may turn into a verdict
    path = write_config(tmp_path, initial_data={
        "type": "coefficients",
        "entries": [{"k": 1, "m": 3, "re": 1e160}]})
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the entropy of the initial data")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_taylor_envelope_at_long_horizons(tmp_path, capsys):
    # chat t passes 709.78 before t = 600, where exp(chat t) overflows
    path = write_config(
        tmp_path, domain={"L": 2 * math.pi, "K": 4, "M": 20, "N": 2},
        sigma={"variant": "trig", "sigma0": 1.0, "eps": 0.2, "omega": 1.0,
               "z_domain": [-math.pi, math.pi]},
        time_grid={"start": 0.0, "stop": 600.0, "num": 4},
        initial_data={"type": "random", "seed": 3, "scale": 0.01})
    out = tmp_path / "out"
    assert main(["derivatives", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "t_z000.csv").read_text().strip().splitlines()[2:]
    assert {row.split(",")[2] for row in rows} >= {"600"}
    assert all(row.endswith(",pass") for row in rows)


def test_taylor_envelope_beyond_the_float_range_underflows_to_zero(tmp_path):
    # at t = 1e160 both branches of the Taylor min overflow and
    # exp(-rate t) underflows; in log space the level-2 envelope is 0, a
    # verdict, and no warning is raised
    doc = json.loads(json.dumps(BASE))
    doc.update(domain={"K": 2, "M": 8, "N": 2},
               sigma={"variant": "trig", "sigma0": 1.0, "eps": 0.2,
                      "omega": 1.0},
               time_grid={"times": [0.0, 1e3, 1e160]},
               initial_data={"type": "random", "seed": 3, "scale": 0.01})
    code, err = run_command(doc, tmp_path, "derivatives")
    assert (code, err) == (0, "")
    with open(tmp_path / "out" / "t_z000.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    assert len(rows) == 9
    envelope = {(row["t"], row["level"]): float(row["envelope"]) for row in rows}
    assert all(math.isfinite(v) for v in envelope.values())
    assert [envelope["1e+160", n] for n in "012"] == [0.0] * 3
    assert all(envelope["1000", n] > 0.0 for n in "012")


@pytest.mark.parametrize("stop", [1e200, 1e308])
def test_affine_derivative_envelopes_beyond_the_float_range(tmp_path, stop):
    # (coupling t)^n overflows and exp(-rate t) underflows: in log space
    # both families are 0 there, a verdict, and no warning is raised
    doc = json.loads(json.dumps(BASE))
    doc.update(domain={"K": 2, "M": 6, "N": 2},
               time_grid={"times": [0.0, stop]},
               initial_data={"type": "random", "seed": 3, "scale": 0.01})
    code, err = run_command(doc, tmp_path, "derivatives")
    assert (code, err) == (0, "")
    for name in ("t_z000.csv", "t_z000_uniform.csv"):
        with open(tmp_path / "out" / name, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        assert len(rows) == 6
        assert all(float(row["envelope"]) == 0.0 for row in rows
                   if row["t"] != "0")


@pytest.mark.parametrize("command, doc", [
    ("simulate", {"domain": {"K": 2, "M": 6}}),
    ("derivatives", {"domain": {"K": 2, "M": 6, "N": 1}}),
    ("simulate", {"domain": {"K": 0, "M": 6}, "sigma": {"sigma0": 3.0}}),
], ids=["simulate", "derivatives", "mode0"])
def test_a_step_of_1e308_decays_to_zero(tmp_path, command, doc):
    # dt times the generator's 1-norm overflows although the generator is
    # finite, and so does mode 0's exponent at sigma = 3: the run finishes
    # with no warning, and the entropy at t = 1e308 is 0
    doc = dict(doc, time_grid={"times": [0.0, 1e308]})
    code, err = run_command(doc, tmp_path, command)
    assert (code, err) == (0, "")
    with open(tmp_path / "out" / "run_z000.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    at_end = [float(row["entropy"]) for row in rows if row["t"] == "1e+308"]
    assert at_end and at_end == [0.0] * len(at_end)


def test_tiny_period_exits_invalid(tmp_path, capsys):
    path = write_config(tmp_path, domain={"L": 1e-80})
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_invalid(tmp_path, capsys, threads):
    path = write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--threads", threads]) == 2
    assert "threads must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, extra", [
    ("entries", {"type": "coefficients"}),
    ("fourier", {"type": "separable", "velocity_poly": [1.0]}),
])
@pytest.mark.parametrize("item", [5, "x", None], ids=["int", "str", "null"])
def test_non_object_items_exit_invalid(tmp_path, capsys, key, extra, item):
    path = write_config(tmp_path, initial_data={**extra, key: [item]})
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert f"initial_data: {key} must be a list of objects" in err


@pytest.mark.parametrize("section, spec, key", [
    ("sigma", {"variant": "constant", "sigma0": True}, "sigma0"),
    ("sigma", {"variant": "affine", "sigma0": 1.0, "c1": "0.1"}, "c1"),
    ("sigma", {"variant": "trig", "sigma0": 2.0, "eps": True}, "eps"),
    ("sigma", {"variant": "trig", "sigma0": 2.0, "omega": "1"}, "omega"),
    ("sigma", {"variant": "polynomial", "coeffs": [1.0, True]}, "coeffs"),
    ("sigma", {"variant": "constant", "z_domain": [True, 1]}, "z_domain"),
    ("sigma", {"variant": "constant", "z_domain": ["-1", 1]}, "z_domain"),
    ("time_grid", {"start": True, "stop": 2.0, "num": 3}, "start"),
    ("time_grid", {"start": 0.0, "stop": "2", "num": 3}, "stop"),
    ("time_grid", {"times": ["1.5"]}, "times"),
    ("z_grid", {"points": [True]}, "points"),
    ("initial_data", {"type": "random", "seed": 3, "scale": "0.2"}, "scale"),
    ("initial_data", {"type": "coefficients",
                      "entries": [{"k": 1, "m": 3, "re": True}]}, "re"),
    ("initial_data", {"type": "separable", "fourier": [{"k": 1, "im": "0"}],
                      "velocity_poly": [1.0]}, "im"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_numeric_fields_reject_bools_and_strings(tmp_path, capsys, section,
                                                 spec, key):
    cfg = json.loads(json.dumps(BASE))
    cfg[section] = spec
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert f"{section}: {key} must be a" in err


@pytest.mark.parametrize("command, overrides, field", [
    ("sweep", {"sweep": {"sigma0_values": []}}, "sweep.sigma0_values"),
    ("simulate", {"tolerances": {"envelope": math.inf}}, "tolerances.envelope"),
    ("verify", {"tolerances": {"eig": math.inf}}, "tolerances.eig"),
], ids=["sigma0-empty", "envelope-infinite", "eig-infinite"])
def test_vacuous_checks_exit_invalid(tmp_path, capsys, command, overrides,
                                     field):
    # an empty sweep checks nothing and an infinite tolerance passes every
    # check; json writes and reads math.inf as Infinity
    path = write_config(tmp_path, **overrides)
    assert "Infinity" in path.read_text() or field.startswith("sweep")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert field in err
    assert not out.exists()


_CSV_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e-310, math.inf, -math.inf, math.nan]))


@settings(max_examples=200, deadline=None)
@given(run_id=st.text(min_size=1, max_size=12),
       zs=st.lists(_CSV_FLOATS, min_size=1, max_size=3),
       series=st.lists(st.tuples(_CSV_FLOATS, _CSV_FLOATS), max_size=8),
       level=st.integers(0, 5), data=st.data())
def test_csv_lines_match_the_csv_module(run_id, zs, series, level, data):
    # the %-template text of a (Z, T) block, one envelope over the times,
    # equals per-value format(x, ".17g") through csv.writer, byte for byte,
    # one row per z and time
    shape = (len(zs), len(series))
    cells = data.draw(st.lists(st.tuples(_CSV_FLOATS, _CSV_FLOATS),
                               min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]))
    observed = np.array([c[0] for c in cells]).reshape(shape)
    ratio = np.array([c[1] for c in cells]).reshape(shape)
    rows = [(z, t, env, observed[i, j], ratio[i, j])
            for i, z in enumerate(zs) for j, (t, env) in enumerate(series)]
    times = [cli._FLOAT % t for t, _ in series]
    for text in (run_id, 'a,b "c"', "50%", "x\ny", " lead"):
        lines = list(cli._result_lines(
            cli._template_field(text), [(z, level) for z in zs], times,
            observed, np.array([env for _, env in series]), ratio, 1e-8))
        text_rows = csv.reader(io.StringIO("".join(lines), newline=""))
        assert len(list(text_rows)) == shape[0] * shape[1]
        buf = io.StringIO()
        writer = csv.writer(buf)
        for z, t, env, obs, r in rows:
            writer.writerow([text, format(z, ".17g"), format(t, ".17g"),
                             str(level), format(obs, ".17g"),
                             format(env, ".17g"), format(r, ".17g"),
                             "pass" if r <= 1.0 + 1e-8 else "fail"])
        assert "".join(lines) == buf.getvalue()
        summary = "".join(cli._summary_lines(cli._template_field(text),
                                             [row * 2 + ("pass",)
                                              for row in rows]))
        buf = io.StringIO()
        csv.writer(buf).writerows(
            [text] + [format(x, ".17g") for x in row * 2] + ["pass"]
            for row in rows)
        assert summary == buf.getvalue()


def _csv_text(rows) -> str:
    """rows through csv.writer, floats as format(x, ".17g")."""
    buf = io.StringIO()
    csv.writer(buf).writerows(
        [format(x, ".17g") if isinstance(x, float) else x for x in row]
        for row in rows)
    return buf.getvalue()


@pytest.mark.parametrize("block", [1, 2, 3])
def test_csv_writers_across_block_boundaries(tmp_path, monkeypatch, block):
    # with blocks of 1, 2 and 3 rows, 10 or 11 rows end on a full block or
    # in the middle of one; every writer's text equals the csv module's
    monkeypatch.setattr(cli, "_BLOCK", block)
    path = write_config(tmp_path, verify={"k_max": 2, "sigma_points": 5})
    cfg = load_config(path)
    out = tmp_path / "out"
    assert main(["certify", "--config", str(path), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    cert = cli._certify_config(cfg)
    chat = cert.ctilde * cli.taylor_bound(cfg.model)
    assert (out / "certificate.csv").read_bytes().decode() == _csv_text(
        [("name", "value"), *cli._certificate_values(cert), ("chat", chat)])

    sigmas = np.linspace(cert.sigma_min, cert.sigma_max, 5)
    mins, norms = verify_grid(cert, [1, 2], sigmas, cfg.lattice.M)
    thresholds = -cfg.eig_tol_factor * norms
    assert (out / "verify.csv").read_bytes().decode() == _csv_text(
        [cli.VERIFY_HEADER] + [
            (str(k), float(s), float(mins[i, j]), float(thresholds[i, j]),
             "pass" if mins[i, j] >= thresholds[i, j] else "fail")
            for i, k in enumerate([1, 2]) for j, s in enumerate(sigmas)])

    zs, times = [0.25, -0.0], [0.0, 0.5, 1.0, 2.0, 1e300]
    rng = np.random.default_rng(7)
    observed = rng.random((2, 5))
    observed[1, 2] = 5e-324
    envelope = np.array([1.0, 0.5, 0.5, 0.25, 0.0])
    ratio = observed / np.maximum(envelope, 1.0)
    ratio[0, 3] = 2.0
    for run_id in ("r", 'a,b "c"', "50%"):
        text = "".join(cli._result_lines(
            cli._template_field(run_id), [(z, 1) for z in zs],
            [cli._FLOAT % t for t in times], observed, envelope, ratio, 1e-8))
        assert text == _csv_text(
            (run_id, z, t, "1", observed[i, j].item(), envelope[j].item(),
             ratio[i, j].item(), "pass" if ratio[i, j] <= 1 + 1e-8 else "fail")
            for i, z in enumerate(zs) for j, t in enumerate(times))
        rows = [(float(i), 0.5, z, 0.1, 0.2, 0.3, 0.4, 0.5, 1.5, w, v)
                for i in range(5) for z, w, v in ((0.25, 0.5, "pass"),
                                                  (-0.0, 2.0, "fail"))]
        text = "".join(cli._summary_lines(cli._template_field(run_id), rows))
        assert text == _csv_text((run_id, *row) for row in rows)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_CSV_FLOATS, max_size=12), data=st.data())
def test_formatted_matches_per_value_formatting(values, data):
    # drawn again from the list itself, so values repeat
    values += data.draw(st.lists(st.sampled_from(values), max_size=12)
                        if values else st.just([]))
    got = cli._formatted(np.array(values).reshape(-1, 1))
    assert got.shape == (len(values), 1)
    assert got.ravel().tolist() == ["%.17g" % x for x in values]


# --- the config key table -------------------------------------------------

SCHEMA = cli._SCHEMA
SECTIONS = [key for key, entry in SCHEMA.items() if not isinstance(entry, tuple)]
FORMS = {key: entry for key, entry in SCHEMA.items()
         if isinstance(entry, cli._Forms)}
NUMBER_KINDS = (cli._NUM, cli._NUMS)
HUGE = 10 ** 400        # no float holds it


def table_keys(table):
    """(key, kind) of every key of an object table, its forms and items
    included; a nested object has kind None."""
    tables = [table]
    if isinstance(table, cli._Forms):
        if table.selector:
            yield table.selector, None
        tables = [table.common, *table.forms.values()]
    for part in tables:
        for key, entry in part.items():
            if not isinstance(entry, tuple):
                yield key, None
                yield from table_keys(entry)
            else:
                yield key, entry[0]
                if isinstance(entry[0], dict):
                    yield from table_keys(entry[0])


KIND = dict(table_keys(SCHEMA))
# a valid value of every key; keys of one name share it
EXAMPLE = {
    "run_id": "t", "L": 2 * math.pi, "K": 2, "M": 6, "N": 1,
    "z_domain": [-1.0, 1.0], "sigma0": 1.0, "c1": 0.1, "eps": 0.1,
    "omega": 1.0, "coeffs": [1.0, 0.1], "start": 0.0, "stop": 2.0, "num": 3,
    "times": [0.0, 1.0], "points": [0.25], "alpha_strategy": 0.1,
    "normalization": "enforce", "seed": 3, "scale": 0.2, "fill": "all",
    "level": 0, "k": 1, "m": 3, "re": 0.5, "im": 0.0,
    "velocity_poly": [0.0, 1.0], "envelope": 1e-8, "eig": 1e-10, "k_max": 2,
    "sigma_points": 3, "L_values": [math.pi], "sigma0_values": [1.0],
    "dir": "out",
}
# valid values to draw; sizes stay small
DRAWN = {
    "run_id": st.sampled_from(["t", "run 1", "a,b"]),
    "L": st.floats(0.5, 20.0), "K": st.integers(0, 3), "M": st.integers(5, 8),
    "N": st.integers(0, 2), "z_domain": st.just([-1.0, 1.0]),
    "sigma0": st.floats(1.0, 3.0), "c1": st.floats(-0.5, 0.5),
    "eps": st.floats(-0.5, 0.5), "omega": st.floats(0.5, 2.0),
    "coeffs": st.lists(st.floats(-0.2, 0.2), max_size=1).map(
        lambda c: [2.0, *c]),
    "start": st.floats(0.0, 1.0), "stop": st.floats(1.0, 2.0),
    "num": st.integers(1, 4),
    "times": st.lists(st.floats(0.0, 5.0), min_size=1, max_size=2).map(sorted),
    "points": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=2),
    "alpha_strategy": st.sampled_from(["optimize", " fraction:0.5", 0.05,
                                       "fixed:0.01"]),
    "normalization": st.sampled_from(["enforce", "reject"]),
    "seed": st.integers(0, 9), "scale": st.floats(0.01, 1.0),
    "fill": st.sampled_from(["all", "level0"]),
    "level": st.integers(0, 2), "k": st.integers(0, 3), "m": st.integers(0, 4),
    "re": st.floats(-1.0, 1.0), "im": st.floats(-1.0, 1.0),
    "velocity_poly": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=2),
    "envelope": st.floats(1e-12, 1e-6), "eig": st.floats(1e-12, 1e-6),
    "k_max": st.integers(1, 3), "sigma_points": st.integers(1, 3),
    "L_values": st.lists(st.floats(0.5, 20.0), min_size=1, max_size=2),
    "sigma0_values": st.lists(st.floats(1.0, 3.0), min_size=1, max_size=2),
    "dir": st.just("out"),
}
NEEDED = {"velocity_poly"}      # separable data needs one, though it has a default


def full_doc(forms: dict) -> dict:
    """A document holding every key, with the forms named per section."""
    def obj(table, section):
        spec = {}
        if isinstance(table, cli._Forms):
            name = forms.get(section, next(iter(table.forms)))
            if table.selector:
                spec[table.selector] = name
            table = {**table.common, **table.forms[name]}
        for key, entry in table.items():
            if not isinstance(entry, tuple):
                spec[key] = obj(entry, key)
            elif isinstance(entry[0], dict):
                spec[key] = [obj(entry[0], key)]
            else:
                spec[key] = EXAMPLE[key]
        return spec
    return obj(SCHEMA, "")


@st.composite
def valid_doc(draw, table=SCHEMA):
    """A document drawn from the table; it passes every value check."""
    spec = {}
    if isinstance(table, cli._Forms):
        name = draw(st.sampled_from(list(table.forms)))
        if table.selector and (name != next(iter(table.forms))
                               or draw(st.booleans())):
            spec[table.selector] = name
        table = {**table.common, **table.forms[name]}
    for key, entry in table.items():
        if not isinstance(entry, tuple):
            if draw(st.booleans()):
                spec[key] = draw(valid_doc(entry))
        elif entry[1] == cli._REQUIRED or key in NEEDED or draw(st.booleans()):
            spec[key] = draw(st.lists(valid_doc(entry[0]), max_size=2)
                             if isinstance(entry[0], dict) else DRAWN[key])
    return spec


def key_paths(doc, prefix=()):
    """The path of every key of a document, keys of list items included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    yield from key_paths(item, prefix + (key, i))


def parent_of(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc


def typo(key: str) -> str:
    return key[:-1] + ("y" if key.endswith("x") else "x")


FULL_DOCS = {f"{section}={name}": full_doc({section: name})
             for section, table in FORMS.items() for name in table.forms}
# every key path, once per form of its section
KEY_CASES = {}
for _name, _doc in FULL_DOCS.items():
    _section, _form = _name.split("=")
    for _path in key_paths(_doc):
        _id = "/".join(map(str, _path))
        if _path[0] in FORMS:
            if _path[0] != _section:
                continue
            _id += f"[{_form}]"
        KEY_CASES.setdefault(_id, pytest.param(_doc, _path, id=_id))
KEY_CASES = list(KEY_CASES.values())


def run_command(doc, tmp, command="certify"):
    """Exit code and stderr of a command on the document, run in process.

    Every warning raised meanwhile is appended to stderr as a
    "<category>: <message>" line.
    """
    path = Path(tmp) / "cfg.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path),
                     "--out", str(Path(tmp) / "out")])
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, err.getvalue()


def test_full_documents_hold_every_key():
    held = {path[-1] for doc in FULL_DOCS.values() for path in key_paths(doc)}
    assert held == set(KIND)
    values = {key for key, kind in KIND.items() if isinstance(kind, str)}
    assert values == set(EXAMPLE) == set(DRAWN)


@pytest.mark.parametrize("doc", FULL_DOCS.values(), ids=FULL_DOCS.keys())
def test_every_key_of_the_table_is_accepted(tmp_path, doc):
    assert run_command(doc, tmp_path) == (0, "")


@pytest.mark.parametrize("doc, path", KEY_CASES)
def test_a_misspelt_key_exits_invalid(tmp_path, doc, path):
    doc = json.loads(json.dumps(doc))
    parent = parent_of(doc, path)
    wrong = typo(path[-1])
    assert wrong not in KIND
    parent[wrong] = parent.pop(path[-1])
    code, err = run_command(doc, tmp_path)
    assert code == 2
    assert err.startswith("error: invalid configuration:")
    assert f"unknown key {wrong!r}" in err


@pytest.mark.parametrize("doc, path", [
    case for case in KEY_CASES if KIND[case.values[1][-1]] in NUMBER_KINDS])
def test_numbers_beyond_float_range_exit_invalid(tmp_path, doc, path):
    doc = json.loads(json.dumps(doc))
    key = path[-1]
    parent_of(doc, path)[key] = [HUGE] if KIND[key] == cli._NUMS else HUGE
    code, err = run_command(doc, tmp_path)
    assert code == 2
    assert err.startswith("error: invalid configuration:")
    assert f"{key} must be {KIND[key]}" in err


def test_typo_document_exits_invalid_naming_every_typo(tmp_path):
    doc = {"domian": {"L": 3.0}, "alpha_stratgy": "fraction:0.5",
           "tolerances": {"envelop": 1e-300},
           "sigma": {"variant": "constant", "sigma0": 1.0}}
    code, err = run_command(doc, tmp_path)
    assert code == 2
    assert err.count("error: invalid configuration:") == 1
    for key in ("'domian'", "'alpha_stratgy'", "tolerances: unknown key 'envelop'"):
        assert key in err


@pytest.mark.parametrize("section, spec, message", [
    ("time_grid", {"times": [0.0], "start": 0.0}, "time_grid: unknown key 'start'"),
    ("z_grid", {"points": [0.0], "num": 2}, "z_grid: unknown key 'num'"),
    ("sigma", {"variant": "trig", "c1": 0.1}, "sigma: unknown key 'c1'"),
    ("initial_data", {"type": "coefficients", "entries": [{"m": 3}]},
     "initial_data: k is required"),
    ("initial_data", {"type": "separable", "fourier": [{"re": 0.4}],
                      "velocity_poly": [1.0]}, "initial_data: k is required"),
    ("z_grid", {"points": []}, "z_grid: z grid is empty"),
    ("sigma", {"variant": ["x"]}, "sigma: unknown variant ['x']"),
    ("initial_data", {"type": {}}, "initial_data: unknown type {}"),
], ids=["start-next-to-times", "num-next-to-points", "c1-under-trig",
        "entry-without-k", "fourier-without-k", "z-points-empty",
        "variant-list", "type-object"])
def test_form_and_item_problems_exit_invalid(tmp_path, section, spec, message):
    doc = json.loads(json.dumps(BASE))
    doc[section] = spec
    code, err = run_command(doc, tmp_path)
    assert code == 2
    assert err.startswith("error: invalid configuration:")
    assert message in err


def test_readme_config_reference_quotes_the_table_keys(tmp_path):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("### Config reference"):]
    block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    assert set(re.findall(r'"(\w+)"\s*:', block)) == set(KIND)
    # without its // comments the block is a config the reader accepts
    path = tmp_path / "readme.json"
    path.write_text(re.sub(r"//.*", "", block))
    assert load_config(path).run_id == "demo"


@settings(max_examples=150, deadline=None)
@given(doc=valid_doc())
def test_config_round_trip_property(doc):
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp) / "first.json", Path(tmp) / "again.json"
        first.write_text(json.dumps(doc))
        cfg = load_config(first)
        again.write_text(json.dumps(dump_config(cfg)))
        assert load_config(again) == cfg


MUTATIONS = ("drop", "typo", "kind", "nonfinite", "huge", "section",
             "selector")


def mutate(doc, how, data):
    """Apply one mutation of kind how to the document, in place."""
    paths = list(key_paths(doc))
    if how == "section":
        section = data.draw(st.sampled_from(SECTIONS))
        doc[section] = data.draw(st.sampled_from([5, "x", [1], None, True]))
    elif how == "selector":
        section = data.draw(st.sampled_from(
            [s for s, t in FORMS.items() if t.selector]))
        doc.setdefault(section, {})[FORMS[section].selector] = data.draw(
            st.sampled_from([["x"], {}, {"a": 1}, 1, None]))
    else:
        if how == "huge":
            paths = [p for p in paths if KIND[p[-1]] in NUMBER_KINDS]
        assume(paths)
        path = data.draw(st.sampled_from(paths))
        parent, key = parent_of(doc, path), path[-1]
        if how == "drop":
            del parent[key]
        elif how == "typo":
            parent[typo(key)] = parent.pop(key)
        else:
            value = {"huge": HUGE, "kind": data.draw(st.sampled_from(
                         ["x", True, None, [1.0], {"a": 1}, 1.5, 2, []])),
                     "nonfinite": data.draw(st.sampled_from(
                         [math.nan, math.inf, -math.inf]))}[how]
            parent[key] = [value] if KIND[key] == cli._NUMS \
                and how != "kind" else value


@settings(max_examples=300, deadline=None)
@given(doc=valid_doc(), how=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_configs_exit_without_defects(doc, how, data):
    # exit 1 is kept for a violated bound and 4 for a defect; certify has
    # no bound to violate
    mutate(doc, how, data)
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_command(doc, tmp)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize("command", ["simulate", "derivatives", "sweep",
                                     "verify"])
@settings(max_examples=100, deadline=None)
@given(doc=valid_doc(), how=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_configs_exit_without_defects_in_every_command(command, doc,
                                                               how, data):
    # a mutated document of small sizes either runs, is invalid input or
    # fails numerically: exit 1 would be a violated proven bound, 4 a
    # defect, and a warning a numeric problem nobody checked
    if command == "derivatives":
        doc.setdefault("domain", {})["N"] = data.draw(st.integers(1, 2))
    mutate(doc, how, data)
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_command(doc, tmp, command)
    assert code in (0, 2, 3), err
    for word in ("Traceback", "internal error", "Warning"):
        assert word not in err
